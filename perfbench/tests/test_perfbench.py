"""Tests of the benchmark's own code: span arithmetic, patching, output
fingerprints and the per-run correctness checks.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import bench
import fedsynth
from fedsynth import central, federated, model
from spans import Recorder, traced

TINY = bench.WorkloadSpec(
    name="tiny",
    points=1,
    dataset={"kind": "synthfs", "clients": 8, "rows_per_client": 40,
             "features": 4, "beta": 1.0, "bins": 4},
    partition=None,
    queries={"arity": 2, "count": 4, "seed_offset": 0},
    protocol={"epsilon": 1.0, "rounds": 3, "fit_iters": 10, "final_fit_iters": 20},
    sample_rate=0.5,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def advance(seconds):
        clock.now += seconds

    grandchild = rec.wrap(lambda: advance(4.0), "grandchild")

    def child_body(nested):
        advance(2.0 if nested else 16.0)
        if nested:
            grandchild()

    child = rec.wrap(child_body, "child")

    def outer_body():
        advance(1.0)
        child(True)
        advance(8.0)
        child(False)

    rec.wrap(outer_body, "outer")()
    assert rec.stats["outer"].total_s == 31.0
    assert rec.stats["outer"].self_s == 9.0  # 31 - (6 + 16)
    assert rec.stats["child"].calls == 2
    assert rec.stats["child"].total_s == 22.0
    assert rec.stats["child"].self_s == 18.0  # 22 - 4
    assert rec.stats["grandchild"].self_s == 4.0
    assert rec.self_time("") == rec.stats["outer"].total_s


def test_wrappers_are_restored_at_every_import_site():
    sites = [(model, "fit"), (central, "fit"), (federated, "fit"), (fedsynth, "fit"),
             (model.ModelState, "marginal_counts"), (central, "filter_by_size"),
             (federated, "filter_by_size")]
    before = [site.__dict__[attr] for site, attr in sites]
    rec = Recorder()
    with pytest.raises(RuntimeError):
        with traced(rec, bench.PASS_TARGETS):
            assert all(site.__dict__[attr] is not orig
                       for (site, attr), orig in zip(sites, before))
            raise RuntimeError("stop inside the traced block")
    assert [site.__dict__[attr] for site, attr in sites] == before


def test_outputs_identical_with_tracing_on_and_off():
    points = bench.setup(TINY, 0)
    plain = bench.run_pass(TINY, points)
    traced_result, rec, fits, _ = bench.traced_pass(TINY, points)
    bench.compare_fingerprints(plain, traced_result)
    assert plain.problems == {} and traced_result.problems == {}
    assert len(plain.results) == len(bench.METHODS)
    assert [bench.fingerprint(r) for r in plain.results] == [
        bench.fingerprint(r) for r in traced_result.results
    ]

    # counts come from the returned models, so two traced runs agree exactly
    _, rec2, fits2, _ = bench.traced_pass(TINY, points)

    def counts(f):
        return (f.components, f.reused, f.fitted, f.capped, f.iters, f.cell_iters, f.max_cells)

    assert counts(fits) == counts(fits2)
    assert fits.components == fits.fitted + fits.reused and fits.iters > 0
    assert {n: s.calls for n, s in rec.stats.items()} == {n: s.calls for n, s in rec2.stats.items()}


def test_tampered_charge_fails_the_check_and_counts():
    points = bench.setup(TINY, 0)
    result, _ = bench.run_method(TINY, points[0], "aim")
    assert bench.check_run(result) == []
    charges = [dict(c) for c in result.accounting["charges"]]
    charges[1]["rho"] *= 1.001
    tampered = dataclasses.replace(result, accounting=dict(result.accounting, charges=charges))
    problems = bench.check_run(tampered)
    assert any("charge 1" in p for p in problems)

    done = bench.PassResult(results=[result, tampered])
    done.check()
    assert list(done.problems) == [1]  # one failed run out of two attempted


def test_check_catches_budget_overrun_and_nonfinite_error():
    points = bench.setup(TINY, 0)
    result, _ = bench.run_method(TINY, points[0], "distaim")
    over = dataclasses.replace(result, rho_total=result.rho_used / 2)
    assert any("exceeds rho_total" in p for p in bench.check_run(over))
    nan = dataclasses.replace(result, error_normalized=float("nan"))
    assert bench.check_run(nan) == ["error_normalized is not finite"]


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    points = bench.setup(TINY, 0)
    plain = bench.run_pass(TINY, points)
    traced_result, rec, fits, filters = bench.traced_pass(TINY, points)
    end_to_end = bench.end_to_end_metrics([0.1], [plain], 100.0)
    per_layer = bench.per_layer_metrics([plain], traced_result, rec, bench.traced_setup(TINY, 0),
                                        fits, filters)
    for printed, kind in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
        assert {n: unit for n, (_, unit) in printed.items()} == {
            m["name"]: m["unit"] for m in declared[kind]
        }
