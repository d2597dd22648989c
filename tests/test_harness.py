import json
import os

import pytest

from fedsynth.central import AimConfig
from fedsynth.federated import FedConfig
from fedsynth.harness import (
    ExperimentConfig,
    execute_run,
    read_results_csv,
    results_to_csv,
    run_experiment,
    summarize,
    summary_to_csv,
    write_results,
)


def tiny_config(method="aim", repeats=2, **proto_overrides):
    protocol = {
        "method": method,
        "epsilon": 5.0,
        "rounds": 3,
        "max_model_size": 1 << 16,
        "sample_rate": 0.5,
    }
    protocol.update(proto_overrides)
    return ExperimentConfig(
        dataset={"kind": "synthfs", "clients": 6, "rows_per_client": 60,
                 "features": 3, "bins": 4, "seed": 1},
        partition={"kind": "builtin"},
        workload={"arity": 2, "count": 3, "seed": 2},
        protocol=protocol,
        repeats=repeats,
        seed=10,
    )


def test_config_validation():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"dataset": {}, "protocol": {}, "workload": {}, "bogus": 1})
    with pytest.raises(ValueError, match="version"):
        ExperimentConfig.from_dict({"dataset": {}, "protocol": {}, "workload": {}, "version": 9})
    with pytest.raises(ValueError, match="requires"):
        ExperimentConfig.from_dict({"dataset": {}})


def test_repeats_distinct_seeds():
    results = run_experiment(tiny_config(repeats=3))
    assert [r.seed for r in results] == [10, 11, 12]
    assert all(r.status == "ok" for r in results)
    errs = {r.error_normalized for r in results}
    assert len(errs) == 3  # different seeds give different runs


def test_metrics_sane_and_modes_logged():
    results = run_experiment(tiny_config(repeats=1))
    r = results[0]
    assert 0.0 <= r.error_normalized <= 2.0
    assert r.nll >= 0.0
    assert r.error_mode == "normalized"
    assert r.error_raw >= 0.0
    assert r.rho_used <= r.rho_total


def test_rerun_bit_identical_csv():
    a = results_to_csv(run_experiment(tiny_config(method="flaim-private")))
    b = results_to_csv(run_experiment(tiny_config(method="flaim-private")))
    assert a == b


def test_failures_recorded_not_raised():
    config = tiny_config()
    config.protocol["max_model_size"] = 1  # below the largest one-way table
    results = run_experiment(config)
    assert len(results) == 2
    assert all(r.status.startswith("failed") for r in results)
    # failed rows still serialize
    assert "failed" in results_to_csv(results)


def test_failure_traceback_kept_in_runmeta(tmp_path):
    config = tiny_config(repeats=1)
    config.protocol["max_model_size"] = 1  # run_aim refuses it
    results = run_experiment(config)
    write_results(results, str(tmp_path), config)
    trace = json.loads((tmp_path / "runmeta.json").read_text())["failures"]["aim:10"]
    assert trace.startswith("Traceback") and "in run_aim" in trace
    assert results[0].status == "failed: " + trace.strip().splitlines()[-1]


def test_parallel_jobs_match_serial():
    config = tiny_config(repeats=2)
    serial = results_to_csv(run_experiment(config, jobs=1))
    parallel = results_to_csv(run_experiment(config, jobs=2))
    assert serial == parallel


def test_write_results_layout(tmp_path):
    config = tiny_config(repeats=1)
    results = run_experiment(config)
    out = str(tmp_path / "out")
    write_results(results, out, config)
    assert sorted(os.listdir(out)) == [
        "accounting_aim_seed10.json",
        "config.json",
        "results.csv",
        "rounds_aim_seed10.jsonl",
        "runmeta.json",
    ]
    ledger = json.loads((tmp_path / "out" / "accounting_aim_seed10.json").read_text())
    assert sum(c["rho"] for c in ledger["charges"]) == pytest.approx(ledger["rho_used"], rel=1e-12)
    rows = read_results_csv(os.path.join(out, "results.csv"))
    assert rows[0]["method"] == "aim"


def test_summarize_mean_std_rank():
    rows = [
        {"config_hash": "x", "method": "aim", "status": "ok",
         "error_normalized": "0.4", "error_raw": "1", "nll": "2", "nll_sampled": "2"},
        {"config_hash": "x", "method": "aim", "status": "ok",
         "error_normalized": "0.6", "error_raw": "1", "nll": "2", "nll_sampled": "2"},
        {"config_hash": "x", "method": "distaim", "status": "ok",
         "error_normalized": "0.9", "error_raw": "1", "nll": "1", "nll_sampled": "1"},
    ]
    summary = summarize(rows)
    by_method = {s["method"]: s for s in summary}
    assert by_method["aim"]["error_normalized_mean"] == pytest.approx(0.5)
    assert by_method["aim"]["error_normalized_std"] == pytest.approx(0.1)
    assert by_method["aim"]["rank_error"] == 1
    assert by_method["distaim"]["rank_error"] == 2
    assert by_method["distaim"]["rank_nll"] == 1
    text = summary_to_csv(summary)
    assert "rank_error" in text.splitlines()[0]


def test_summarize_single_run_zero_std():
    rows = [{"config_hash": "x", "method": "aim", "status": "ok",
             "error_normalized": "0.4", "error_raw": "1", "nll": "2", "nll_sampled": "2"}]
    s = summarize(rows)[0]
    assert s["error_normalized_mean"] == pytest.approx(0.4)
    assert s["error_normalized_std"] == 0.0


def test_rank_aggregation_across_configs():
    from fedsynth.harness import aggregate_ranks

    rows = []
    for chash, (aim_err, dist_err) in [("c1", (0.2, 0.4)), ("c2", (0.5, 0.3))]:
        rows.append({"config_hash": chash, "method": "aim", "status": "ok",
                     "error_normalized": str(aim_err), "error_raw": "1", "nll": "2",
                     "nll_sampled": "2"})
        rows.append({"config_hash": chash, "method": "distaim", "status": "ok",
                     "error_normalized": str(dist_err), "error_raw": "1", "nll": "3",
                     "nll_sampled": "3"})
    ranks = aggregate_ranks(summarize(rows))
    by_method = {r["method"]: r for r in ranks}
    # aim wins on c1, loses on c2 -> mean rank 1.5 for each method
    assert by_method["aim"]["mean_rank_error"] == pytest.approx(1.5)
    assert by_method["distaim"]["mean_rank_error"] == pytest.approx(1.5)
    assert by_method["aim"]["mean_rank_nll"] == 1.0


def test_comms_ledger_written_for_federated(tmp_path):
    config = tiny_config(method="distaim", repeats=1)
    results = run_experiment(config)
    out = str(tmp_path / "out")
    write_results(results, out, config)
    comms = (tmp_path / "out" / "comms_distaim_seed10.csv").read_text()
    assert comms.splitlines()[0] == "client,round,bytes_sent,bytes_received,protocol"
    assert len(comms.splitlines()) > 1


def test_unknown_method_rejected():
    config = tiny_config()
    config.protocol["method"] = "wat"
    with pytest.raises(ValueError, match="unknown method"):
        execute_run(config, 0)


@pytest.mark.parametrize("key", ["bogus", "final_fit_tolerance", "variant", "seed"])
def test_unknown_protocol_key_rejected(key):
    config = tiny_config(repeats=1, **{key: 0.5})
    with pytest.raises(ValueError, match="unknown protocol keys"):
        execute_run(config, 0)


@pytest.mark.parametrize("rounds", ["absent", None])
def test_gauss_frac_requires_fixed_rounds(rounds):
    assert execute_run(tiny_config(repeats=1, gauss_frac=0.8), 0).status == "ok"
    config = tiny_config(repeats=1, gauss_frac=0.8)
    if rounds == "absent":
        del config.protocol["rounds"]
    else:
        config.protocol["rounds"] = rounds
    # annealing fixes its own split, so the key would be silently ignored
    with pytest.raises(ValueError, match="gauss_frac"):
        execute_run(config, 0)


@pytest.mark.parametrize("method", ["aim", "distaim"])
def test_absent_protocol_keys_take_the_config_defaults(monkeypatch, method):
    import fedsynth.harness as harness

    seen = []

    def capture(*args):  # keeps the protocol config, then stops the run
        seen.append(args[-1])
        raise RuntimeError("captured")

    monkeypatch.setattr(harness, "run_aim" if method == "aim" else "run_distaim", capture)
    config = tiny_config(method=method, repeats=1)
    del config.protocol["rounds"]
    execute_run(config, 4)
    if method == "aim":
        assert seen == [AimConfig(epsilon=5.0, rounds=None, max_model_size=1 << 16, seed=4)]
    else:
        # an absent ``rounds`` means annealing, not FedConfig's 10 rounds
        assert seen == [FedConfig(epsilon=5.0, rounds=None, max_model_size=1 << 16, sample_rate=0.5, seed=4)]


def test_file_partition_aligned_through_holdout(tmp_path):
    # partitions exported for the raw dataset must survive the 10% holdout
    from fedsynth.data_io import save_dataset, save_partition
    from fedsynth.domain import DiscreteDataset, Domain
    from fedsynth.rng import fork

    dom = Domain.make(["a", "b", "c"], [4, 4, 2])
    rows = fork(0, "filepart").integers(0, [4, 4, 2], size=(500, 3))
    data_path = str(tmp_path / "d.npz")
    save_dataset(data_path, DiscreteDataset(dom, rows))
    part_path = str(tmp_path / "p.txt")
    save_partition(part_path, fork(1, "assign").integers(0, 5, size=500))
    config = ExperimentConfig(
        dataset={"kind": "npz", "path": data_path, "seed": 3},
        partition={"kind": "file", "path": part_path, "clients": 5},
        workload={"arity": 2, "count": 2, "seed": 2},
        protocol={"method": "distaim", "epsilon": 3.0, "rounds": 2,
                  "max_model_size": 1 << 16, "sample_rate": 0.8},
        repeats=1,
        seed=5,
    )
    results = run_experiment(config)
    assert results[0].status == "ok"


def test_mixture_dataset_config_with_partition():
    config = ExperimentConfig(
        dataset={"kind": "mixture", "rows": 800, "seed": 3},
        partition={"kind": "label_skew", "clients": 5, "beta": 0.5, "class_attr": "income"},
        workload={"arity": 2, "count": 3, "seed": 2},
        protocol={"method": "distaim", "epsilon": 3.0, "rounds": 2,
                  "max_model_size": 1 << 16, "sample_rate": 0.8},
        repeats=1,
        seed=5,
    )
    results = run_experiment(config)
    assert results[0].status == "ok"
    assert results[0].client_bytes_total > 0
