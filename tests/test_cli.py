import json
import os
import re

import numpy as np
import pytest

from fedsynth import harness
from fedsynth.cli import main
from fedsynth.data_io import load_dataset, load_partition, save_dataset
from fedsynth.partition import mixture_dataset


def write_experiment_config(path, out_dir):
    config = {
        "version": 1,
        "dataset": {"kind": "synthfs", "clients": 5, "rows_per_client": 40,
                    "features": 3, "bins": 4, "seed": 1},
        "partition": {"kind": "builtin"},
        "workload": {"arity": 2, "count": 3, "seed": 2},
        "protocol": {"method": "flaim-private", "epsilon": 5.0, "rounds": 2,
                     "max_model_size": 65536, "sample_rate": 0.6},
        "repeats": 2,
        "output": out_dir,
    }
    path.write_text(json.dumps(config))


def test_run_twice_identical_metrics(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    write_experiment_config(cfg, out1)
    assert main(["run", "--config", str(cfg), "--seed", "7", "--jobs", "1"]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "7", "--jobs", "1",
                 "--out-dir", out2]) == 0
    csv1 = (tmp_path / "r1" / "results.csv").read_text()
    csv2 = (tmp_path / "r2" / "results.csv").read_text()
    assert csv1 == csv2


def test_run_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    write_experiment_config(cfg, str(tmp_path / "out"))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "--seed" in capsys.readouterr().err


def test_run_refuses_overwrite_without_force(tmp_path):
    cfg = tmp_path / "exp.json"
    out = str(tmp_path / "out")
    write_experiment_config(cfg, out)
    assert main(["run", "--config", str(cfg), "--seed", "7", "--jobs", "1"]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "7", "--jobs", "1"]) == 1
    assert main(["run", "--config", str(cfg), "--seed", "7", "--jobs", "1", "--force"]) == 0


def test_missing_config_file_exit_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--seed", "1"]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_unknown_protocol_key_exit_one(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    write_experiment_config(cfg, str(tmp_path / "out"))
    config = json.loads(cfg.read_text())
    config["protocol"]["final_fit_tolerance"] = 0.5  # not a protocol key the harness accepts
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--seed", "7", "--jobs", "1"]) == 1
    assert "final_fit_tolerance" in capsys.readouterr().err


def test_gauss_frac_under_annealing_exit_one(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    write_experiment_config(cfg, str(tmp_path / "out"))
    config = json.loads(cfg.read_text())
    config["protocol"].update(gauss_frac=0.8, rounds=None)
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--seed", "7", "--jobs", "1"]) == 1
    assert "gauss_frac" in capsys.readouterr().err


def test_unknown_flag_rejected(tmp_path):
    assert main(["run", "--config", "x.json", "--seed", "1", "--frobnicate"]) == 1


def test_audit_ledger_pass_and_fail(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    out = str(tmp_path / "out")
    write_experiment_config(cfg, out)
    assert main(["run", "--config", str(cfg), "--seed", "3", "--jobs", "1"]) == 0
    assert main(["audit-ledger", out]) == 0
    # corrupt one ledger: claim more spend than recorded
    ledgers = [p for p in os.listdir(out) if p.startswith("accounting_")]
    path = os.path.join(out, ledgers[0])
    payload = json.loads(open(path).read())
    payload["rho_used"] = payload["rho_total"] * 2
    open(path, "w").write(json.dumps(payload))
    assert main(["audit-ledger", out]) == 2
    assert "VIOLATION" in capsys.readouterr().out


def test_audit_ledger_recomputes_each_charge(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    out = str(tmp_path / "out")
    write_experiment_config(cfg, out)
    assert main(["run", "--config", str(cfg), "--seed", "3", "--jobs", "1"]) == 0
    first, second = sorted(p for p in os.listdir(out) if p.startswith("accounting_"))
    # hide spend: shrink one charge and rho_used alike, so the re-sum still agrees
    path = os.path.join(out, first)
    payload = json.loads(open(path).read())
    cut = payload["charges"][1]["rho"] / 2
    payload["charges"][1]["rho"] -= cut
    payload["rho_used"] -= cut
    open(path, "w").write(json.dumps(payload))
    # a charge that records no mechanism parameter
    path = os.path.join(out, second)
    payload = json.loads(open(path).read())
    payload["charges"][0]["params"] = {}
    open(path, "w").write(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit-ledger", out]) == 2
    printed = capsys.readouterr().out
    assert printed.count("VIOLATION") == 2
    assert "charge 1 (" in printed and "its parameters give" in printed
    assert "charge 0 (" in printed and "records no mechanism parameter" in printed


def test_audit_ledger_empty_dir(tmp_path):
    assert main(["audit-ledger", str(tmp_path)]) == 1


def test_synthfs_command_defaults(tmp_path):
    out = str(tmp_path / "fs")
    code = main(["synthfs", "--beta", "1", "--clients", "100", "--rows-per-client", "500",
                 "--bins", "8", "--out-dir", out, "--seed", "4"])
    assert code == 0
    train = load_dataset(os.path.join(out, "synthfs_train.npz"))
    holdout = load_dataset(os.path.join(out, "synthfs_holdout.npz"))
    part = load_partition(os.path.join(out, "synthfs_partition.txt"))
    assert train.n_records + holdout.n_records == 50_000
    assert holdout.n_records == 5_000
    assert len(part) == train.n_records
    assert part.max() == 99


def test_prepare_and_partition_pipeline(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("age,cls\n" + "\n".join(f"{i % 30},{i % 2}" for i in range(60)) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"fields": [
        {"name": "age", "kind": "continuous", "min": 0, "max": 30, "bins": 10},
        {"name": "cls", "kind": "categorical"},
    ]}))
    data_out = str(tmp_path / "d.npz")
    assert main(["prepare", "--data", str(csv), "--schema", str(schema), "--out", data_out]) == 0
    part_out = str(tmp_path / "part.txt")
    assert main(["partition", "--data", data_out, "--kind", "label_skew",
                 "--clients", "4", "--beta", "0.5", "--class-attr", "cls",
                 "--out", part_out, "--seed", "5"]) == 0
    assignments = load_partition(part_out)
    assert len(assignments) == 60
    assert set(assignments) <= set(range(4))
    # deterministic given the same seed
    assert main(["partition", "--data", data_out, "--kind", "label_skew",
                 "--clients", "4", "--beta", "0.5", "--class-attr", "cls",
                 "--out", part_out, "--seed", "5", "--force"]) == 0
    np.testing.assert_array_equal(load_partition(part_out), assignments)


@pytest.mark.parametrize("entry,message", [
    ({"name": "cls", "kind": "categorical", "bogus": 1}, r"'cls': unknown keys \['bogus'\], missing keys \[\]"),
    ({"name": "cls"}, r"'cls': unknown keys \[\], missing keys \['kind'\]"),
    ({"kind": "categorical"}, r"1: unknown keys \[\], missing keys \['name'\]"),
    ("cls", r"schema field 1: expected an object, got 'cls'"),
], ids=["unknown_key", "no_kind", "no_name", "not_an_object"])
def test_prepare_schema_field_with_bad_keys_exit_one(tmp_path, capsys, entry, message):
    csv = tmp_path / "d.csv"
    csv.write_text("age,cls\n1,0\n2,1\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"fields": [
        {"name": "age", "kind": "continuous", "min": 0, "max": 30, "bins": 10}, entry,
    ]}))
    out = str(tmp_path / "d.npz")
    assert main(["prepare", "--data", str(csv), "--schema", str(schema), "--out", out]) == 1
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("kind", ["iid", "label_skew", "cluster"])
def test_partition_command_matches_build_partition(tmp_path, kind):
    data = mixture_dataset(300, seed=2)
    data_out = str(tmp_path / "d.npz")
    save_dataset(data_out, data)
    part_out = str(tmp_path / "part.txt")
    assert main(["partition", "--data", data_out, "--kind", kind, "--clients", "6",
                 "--out", part_out, "--seed", "9"]) == 0
    expected = harness.build_partition({"kind": kind, "clients": 6}, data, None, 9)
    np.testing.assert_array_equal(load_partition(part_out), expected.assignments)


def test_summarize_command(tmp_path):
    cfg = tmp_path / "exp.json"
    out = str(tmp_path / "out")
    write_experiment_config(cfg, out)
    assert main(["run", "--config", str(cfg), "--seed", "3", "--jobs", "1"]) == 0
    summary_out = str(tmp_path / "summary.csv")
    assert main(["summarize", "--results", os.path.join(out, "results.csv"),
                 "--out", summary_out]) == 0
    text = open(summary_out).read()
    assert "flaim-private" in text


def test_summarize_refuses_a_file_with_no_successful_run(tmp_path, capsys):
    failed = [harness.RunResult("h", method, 0, status="failed: ValueError: x") for method in ("aim", "distaim")]
    results = tmp_path / "results.csv"
    results.write_text(harness.results_to_csv(failed))
    summary_out = tmp_path / "summary.csv"
    assert main(["summarize", "--results", str(results), "--out", str(summary_out)]) == 1
    assert "no successful runs" in capsys.readouterr().err
    assert not summary_out.exists()


def test_epsilon_override(tmp_path):
    cfg = tmp_path / "exp.json"
    out = str(tmp_path / "out")
    write_experiment_config(cfg, out)
    assert main(["run", "--config", str(cfg), "--seed", "3", "--jobs", "1",
                 "--epsilon", "1.0", "--repeats", "1"]) == 0
    written = json.loads((tmp_path / "out" / "config.json").read_text())
    assert written["protocol"]["epsilon"] == 1.0
    assert written["repeats"] == 1


def _write_results(directory, rows):
    os.makedirs(directory, exist_ok=True)
    results = [harness.RunResult(config_hash=h, method=m, seed=s, error_normalized=e, nll=n)
               for h, m, s, e, n in rows]
    (directory / "results.csv").write_text(harness.results_to_csv(results))


def test_compare_pairs_rows_by_config_method_and_seed(tmp_path, capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    _write_results(before, [("c1", "aim", s, 1.0 + s, 2.0) for s in range(4)]
                   + [("c1", "distaim", 0, 0.5, 3.0), ("c2", "aim", 0, 9.0, 9.0)])
    # one run per seed improves aim's error by 0.25 and leaves its nll; the
    # distaim run is worse; c2 and seed 9 have no partner
    _write_results(after / "aim", [("c1", "aim", s, 0.75 + s, 2.0) for s in range(4)]
                   + [("c1", "aim", 9, 0.0, 0.0)])
    _write_results(after / "distaim", [("c1", "distaim", 0, 0.75, 3.5)])
    assert main(["compare", str(before), str(after)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("5 paired runs")
    assert ("aim error_normalized: n=4 before=2.5000 after=2.2500 delta=-0.25 [-0.25, -0.25] "
            "wins=4 losses=0 *") in out
    assert "aim nll: n=4 before=2.0000 after=2.0000 delta=+0 [+0, +0] wins=0 losses=0\n" in out
    assert "distaim error_normalized: n=1 before=0.5000 after=0.7500 delta=+0.25" in out
    assert "distaim nll: n=1 before=3.0000 after=3.5000 delta=+0.5 [+0.5, +0.5] wins=0 losses=1 *" in out
    # the bootstrap is seeded: the same inputs print the same report
    assert main(["compare", str(before), str(after)]) == 0
    assert capsys.readouterr().out == out


def test_compare_exits_one_when_nothing_pairs(tmp_path, capsys):
    _write_results(tmp_path / "a", [("c1", "aim", 0, 1.0, 1.0)])
    _write_results(tmp_path / "b", [("c1", "aim", 1, 1.0, 1.0)])
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "no (config_hash, method, seed) row pairs" in capsys.readouterr().err
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "missing")]) == 1


def test_compare_refuses_a_run_found_twice(tmp_path, capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    _write_results(before / "a", [("c1", "aim", 0, 0.5, 1.0)])
    _write_results(before / "b", [("c1", "aim", 0, 0.9, 1.0)])
    _write_results(after, [("c1", "aim", 0, 0.7, 1.0)])
    assert main(["compare", str(before), str(after)]) == 1
    err = capsys.readouterr().err
    assert str(before / "a" / "results.csv") in err and str(before / "b" / "results.csv") in err
