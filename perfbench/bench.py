"""The fedsynth benchmark: workloads, one pass, evaluation, checks, metrics.

A *point* is one generated input (dataset, holdout, client partition and
query workload) plus the protocol seed derived from it.  A *pass* runs every
method on every point of a workload through the public entry points
``central.run_aim``, ``federated.run_distaim`` and ``federated.run_flaim``,
then evaluates each model the way ``harness.execute_run`` does.  Inputs are
generated before a pass and are not part of its time.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import statistics
import time
from dataclasses import dataclass, field

from fedsynth import central, federated, harness, model, privacy, workload
from fedsynth.rng import fork

from spans import Recorder, traced

METHODS = harness.METHODS


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    points: int  # inputs per pass; more points average out seed-to-seed work
    dataset: dict
    partition: dict | None
    queries: dict  # arity, count, seed offset
    protocol: dict  # settings shared by every method
    sample_rate: float


# why each workload is here: BENCHMARK.json and README.md
WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="fed-trend",
            points=3,
            dataset={"kind": "synthfs", "clients": 100, "rows_per_client": 500,
                     "features": 10, "beta": 1.0, "bins": 8},
            partition=None,
            queries={"arity": 3, "count": 32, "seed_offset": 1000},
            protocol={"epsilon": 1.0, "rounds": 10, "max_model_size": 1 << 20,
                      "final_fit_iters": 300, "final_fit_tolerance": 1e-5},
            sample_rate=0.1,
        ),
        WorkloadSpec(
            name="many-clients",
            points=4,
            # the mixture table stands in for one fixed census dataset, as in
            # the paper's real-data runs; seeds vary who holds which rows, the
            # queries and the protocol randomness
            dataset={"kind": "mixture", "rows": 40000, "seed": 0},
            partition={"kind": "label_skew", "clients": 1000, "beta": 0.5,
                       "class_attr": "income"},
            queries={"arity": 2, "count": 24, "seed_offset": 0},
            # a small model cap keeps fits short and steady, so client-side work
            # dominates the time
            protocol={"epsilon": 1.0, "rounds": 10, "max_model_size": 64 << 10,
                      "final_fit_iters": 300, "final_fit_tolerance": 1e-5},
            sample_rate=0.2,
        ),
    )
}


@dataclass
class Point:
    seed: int
    train: object
    holdout: object
    partition: object
    workload: object


def point_seeds(spec: WorkloadSpec, seed: int) -> list[int]:
    """Seeds of the points a run covers; seed 0 starts at point 0."""
    return [seed * spec.points + j for j in range(spec.points)]


def build_point(spec: WorkloadSpec, s: int) -> Point:
    """Generate one point's inputs with the package's own generators."""
    train, holdout, builtin, train_rows = harness.build_dataset(
        {"seed": s, **spec.dataset}, s, 0.1
    )
    partition = harness.build_partition(
        dict(spec.partition, seed=s) if spec.partition else None, train, builtin, s, train_rows
    )
    queries = harness.build_workload(
        {"arity": spec.queries["arity"], "count": spec.queries["count"],
         "seed": spec.queries["seed_offset"] + s},
        train, s,
    )
    return Point(s, train, holdout, partition, queries)


def setup(spec: WorkloadSpec, seed: int) -> list[Point]:
    return [build_point(spec, s) for s in point_seeds(spec, seed)]


# ---------------------------------------------------------------------------
# one method run, evaluated like harness.execute_run


def run_method(spec: WorkloadSpec, point: Point, method: str):
    """Run one protocol on one point; returns (RunResult, protocol result or None)."""
    result = harness.RunResult(config_hash=spec.name, method=method, seed=point.seed)
    run = None
    try:
        common = dict(spec.protocol, seed=point.seed)
        if method == "aim":
            run = central.run_aim(point.train, point.workload, central.AimConfig(**common))
        else:
            variant = method.split("-", 1)[1] if method.startswith("flaim") else "naive"
            cfg = federated.FedConfig(sample_rate=spec.sample_rate, variant=variant, **common)
            entry = federated.run_distaim if method == "distaim" else federated.run_flaim
            run = entry(point.train, point.partition, point.workload, cfg)
        fitted = run.model
        # called through the module, so a traced run sees these calls
        result.error_normalized = workload.workload_error(
            point.train, fitted, point.workload, normalize=True)
        result.error_raw = workload.workload_error(
            point.train, fitted, point.workload, normalize=False)
        result.nll = fitted.nll(point.holdout)
        sample = fitted.sample(point.train.n_records, fork(point.seed, "synthetic-sample"))
        result.nll_sampled = harness._sampled_nll(fitted, sample, point.holdout)
        result.rho_used = run.accountant.rho_used
        result.rho_total = run.accountant.rho_total
        comms = getattr(run, "comms", None)
        if comms is not None:
            totals = comms.client_totals()
            result.client_bytes_total = sum(totals.values())
            result.client_bytes_mean = result.client_bytes_total / len(totals) if totals else 0.0
            result.comms_csv = comms.to_csv()
        result.rounds_executed = sum(1 for e in run.rounds if e.get("phase", "round") == "round")
        result.round_log = run.rounds
        result.accounting = {
            "rho_total": run.accountant.rho_total,
            "rho_used": run.accountant.rho_used,
            "charges": run.accountant.ledger(),
        }
    except Exception as exc:  # a failed run is counted, not fatal
        result.status = f"failed: {type(exc).__name__}: {exc}"
    return result, run


def fingerprint(result: harness.RunResult) -> str:
    """Digest of every output row a run writes: results.csv row, round log,
    accounting ledger and comms CSV, serialized as ``harness.write_results``
    serializes them."""
    h = hashlib.sha256()
    h.update(harness.results_to_csv([result]).encode())
    h.update("\n".join(json.dumps(e, sort_keys=True) for e in result.round_log).encode())
    h.update(json.dumps(result.accounting, indent=2, sort_keys=True).encode())
    h.update(result.comms_csv.encode())
    return h.hexdigest()


def check_run(result: harness.RunResult) -> list[str]:
    """Correctness problems of one run; empty when it passes."""
    if result.status != "ok":
        return [result.status]
    problems = []
    if not result.rho_used <= result.rho_total * (1 + 1e-12):
        problems.append(f"rho_used {result.rho_used!r} exceeds rho_total {result.rho_total!r}")
    recomputed = 0.0
    for i, charge in enumerate(result.accounting["charges"]):
        params = charge["params"]
        count = params.get("count", 1)
        if "sigma" in params:
            expected = count * privacy.gaussian_cost(params["sigma"])
        elif "eps" in params:
            expected = count * privacy.exponential_cost(params["eps"])
        else:
            problems.append(f"charge {i} ({charge['mechanism']}) records no mechanism parameter")
            continue
        if not math.isclose(charge["rho"], expected, rel_tol=1e-9, abs_tol=0.0):
            problems.append(f"charge {i} ({charge['mechanism']}) is {charge['rho']!r}, "
                            f"its parameters give {expected!r}")
        recomputed += expected
    if not math.isclose(recomputed, result.rho_used, rel_tol=1e-9, abs_tol=0.0):
        problems.append(f"recomputed charges sum to {recomputed!r}, rho_used is {result.rho_used!r}")
    for name in ("error_normalized", "error_raw", "nll", "nll_sampled"):
        if not math.isfinite(getattr(result, name)):
            problems.append(f"{name} is not finite")
    return problems


@dataclass
class PassResult:
    seconds: float = 0.0
    run_seconds: list[float] = field(default_factory=list)  # one method on one point
    results: list[harness.RunResult] = field(default_factory=list)
    runs: list[object] = field(default_factory=list)
    problems: dict[int, list[str]] = field(default_factory=dict)  # run index -> messages

    def flag(self, index: int, message: str) -> None:
        self.problems.setdefault(index, []).append(message)

    def check(self) -> None:
        """Flag every run that raised or fails a correctness check."""
        for i, result in enumerate(self.results):
            for problem in check_run(result):
                self.flag(i, problem)

    def messages(self, label: str) -> list[str]:
        return [
            f"{self.results[i].method} seed {self.results[i].seed} ({label}): {m}"
            for i, ms in sorted(self.problems.items()) for m in ms
        ]


def run_pass(spec: WorkloadSpec, points: list[Point], on_run_end=None) -> PassResult:
    """Every method on every point; ``on_run_end`` is called after each run."""
    clock = time.perf_counter
    done = PassResult()
    start = clock()
    for point in points:
        for method in METHODS:
            t0 = clock()
            result, run = run_method(spec, point, method)
            done.run_seconds.append(clock() - t0)
            if on_run_end is not None:
                on_run_end()
            done.results.append(result)
            done.runs.append(run)
    done.seconds = clock() - start
    done.check()
    return done


def compare_fingerprints(reference: PassResult, other: PassResult) -> None:
    """Flag the runs of ``other`` whose outputs differ from the reference
    pass's run at the same seed."""
    for i, (a, b) in enumerate(zip(reference.results, other.results)):
        if fingerprint(a) != fingerprint(b):
            other.flag(i, "outputs differ from the first pass")


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(setup_times: list[float], passes: list[PassResult], peak_rss_mb: float) -> dict:
    """Times are medians; quality and traffic are read from one pass, since
    outputs repeat exactly across passes.  Errors are means over the pass's
    points per protocol, NLL a mean over every run, traffic a total."""
    results = passes[0].results
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(p.seconds for p in passes), "s"),
    }
    for method in METHODS:
        errors = [r.error_normalized for r in results if r.method == method]
        metrics[f"error.{method}"] = (_mean_or_none(errors), "L1")
    metrics.update({
        "nll_mean": (_mean_or_none([r.nll for r in results]), "nats"),
        "client_kb": (sum(r.client_bytes_total for r in results) / 1000.0, "kB"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })
    return metrics


def method_run_seconds(passes: list[PassResult]) -> dict:
    """Per protocol: median wall time per input."""
    metrics = {}
    for method in METHODS:
        seconds = [s for p in passes for r, s in zip(p.results, p.run_seconds) if r.method == method]
        metrics[f"run_s.{method}"] = (statistics.median(seconds), "s")
    return metrics


def _mean_or_none(values: list[float]):
    return statistics.fmean(values) if values and all(map(math.isfinite, values)) else None


# Functions the traced run wraps: defining site -> span name.  A span name's
# first component is the layer (module) it belongs to.
PASS_TARGETS = {
    "fedsynth.central.run_aim": "central.run_aim",
    "fedsynth.central.filter_by_size": "central.filter_by_size",
    "fedsynth.central._aim_utilities": "central.utilities",
    "fedsynth.federated.run_distaim": "federated.run_distaim",
    "fedsynth.federated.run_flaim": "federated.run_flaim",
    "fedsynth.federated._client_answers": "federated.client_answers",
    "fedsynth.federated._local_utilities": "federated.local_utilities",
    "fedsynth.federated.oracle_heterogeneity": "federated.oracle_heterogeneity",
    "fedsynth.federated.heterogeneity_proxy": "federated.heterogeneity_proxy",
    "fedsynth.model.fit": "model.fit",
    "fedsynth.model.ModelState.marginal_counts": "model.marginal_counts",
    "fedsynth.model.ModelState.size_bytes": "model.size_bytes",
    "fedsynth.model.ModelState.nll": "model.nll",
    "fedsynth.model.ModelState.sample": "model.sample",
    "fedsynth.secagg.ShareAccumulator.add_client": "secagg.add_client",
    "fedsynth.secagg.share": "secagg.share",
    "fedsynth.secagg.secagg_round": "secagg.secagg_round",
    "fedsynth.domain.evaluate_marginal": "domain.evaluate_marginal",
    "fedsynth.privacy.exponential_mechanism": "privacy.exponential_mechanism",
    "fedsynth.workload.workload_error": "workload.workload_error",
    "fedsynth.workload.complete_workload": "workload.complete_workload",
    "fedsynth.harness._sampled_nll": "harness.sampled_nll",
}
SETUP_TARGETS = {
    "fedsynth.partition.synthfs": "partition.synthfs",
    "fedsynth.partition.mixture_dataset": "partition.mixture_dataset",
    "fedsynth.partition.partition_label_skew": "partition.partition_label_skew",
    "fedsynth.workload.random_workload": "workload.random_workload",
}
LAYERS = ("domain", "workload", "privacy", "model", "secagg", "partition",
          "central", "federated", "harness")

_FIT_SIGNATURE = inspect.signature(model.fit)


class FitCounter:
    """Counts taken from each returned ModelState's meta, never from timing.

    A component is *reused* when its signature equals the warm start's (the
    fit carried it over without iterating); reused components are left out
    of the iteration counts and of ``capped``.  ``cell_iters`` is computed
    as cells x iterations per fitted component.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.components = self.reused = self.fitted = self.capped = 0
        self.iters = self.cell_iters = self.max_cells = 0
        self.final_s = 0.0
        self._seen_self_s = 0.0
        self.last_fit_s = 0.0

    def __call__(self, args, kwargs, fitted) -> None:
        bound = _FIT_SIGNATURE.bind(*args, **kwargs)
        bound.apply_defaults()
        cap = bound.arguments["iterations"]
        warm = bound.arguments["warm_start"]
        previous = warm.meta.get("comp_signatures", {}) if warm is not None else {}
        signatures = fitted.meta["comp_signatures"]
        for comp, trace in fitted.meta["objective_traces"].items():
            cells = fitted.domain.size(comp)
            self.components += 1
            self.max_cells = max(self.max_cells, cells)
            if warm is not None and comp in warm.logits and previous.get(comp) == signatures[comp]:
                self.reused += 1
                continue
            iters = len(trace) - 1
            self.fitted += 1
            self.iters += iters
            self.cell_iters += cells * iters
            self.capped += iters >= cap
        total_self = self.recorder.stats["model.fit"].self_s
        self.last_fit_s = total_self - self._seen_self_s
        self._seen_self_s = total_self

    def end_run(self) -> None:
        """The last fit of a protocol run is its final fit."""
        self.final_s += self.last_fit_s
        self.last_fit_s = 0.0


class FilterCounter:
    def __init__(self):
        self.offered = self.admitted = 0

    def __call__(self, args, kwargs, admitted) -> None:
        self.offered += len(args[0].queries)
        self.admitted += len(admitted)


def traced_setup(spec: WorkloadSpec, seed: int) -> Recorder:
    recorder = Recorder()
    with traced(recorder, SETUP_TARGETS):
        setup(spec, seed)
    return recorder


def traced_pass(spec: WorkloadSpec, points: list[Point]):
    recorder = Recorder()
    fits = FitCounter(recorder)
    filters = FilterCounter()
    recorder.observers["model.fit"] = fits
    recorder.observers["central.filter_by_size"] = filters
    with traced(recorder, PASS_TARGETS):
        result = run_pass(spec, points, on_run_end=fits.end_run)
    return result, recorder, fits, filters


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(untraced: list[PassResult], traced_result: PassResult,
                      recorder: Recorder, setup_recorder: Recorder, fits: FitCounter,
                      filters: FilterCounter) -> dict:
    """Layer and function metrics of the traced pass (totals over its
    points), per-protocol times of the untraced passes of the same points;
    the tracing overhead compares the traced pass with their median."""
    stats = recorder.stats

    def calls(name):
        return stats[name].calls if name in stats else 0

    def self_s(name):
        return stats[name].self_s if name in stats else 0.0

    metrics = method_run_seconds(untraced)
    for layer in LAYERS:
        source = setup_recorder if layer == "partition" else recorder
        metrics[f"{layer}.s"] = (source.self_time(layer + "."), "s")
    metrics.update({
        "model.fit.calls": (calls("model.fit"), "count"),
        "model.fit.s": (self_s("model.fit"), "s"),
        "model.fit.iters": (fits.iters, "count"),
        "model.fit.cell_iters": (fits.cell_iters, "count"),
        "model.fit.capped_frac": (_ratio(fits.capped, fits.fitted), "frac"),
        "model.fit.reused_frac": (_ratio(fits.reused, fits.components), "frac"),
        "model.fit.max_cells": (fits.max_cells, "count"),
        "model.fit_final.s": (fits.final_s, "s"),
    })
    for name in ("model.marginal_counts", "model.size_bytes", "secagg.add_client",
                 "secagg.share", "secagg.secagg_round", "domain.evaluate_marginal",
                 "federated.oracle_heterogeneity", "federated.local_utilities",
                 "federated.heterogeneity_proxy", "privacy.exponential_mechanism"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.s"] = (self_s(name), "s")
    for name in ("model.nll", "model.sample", "federated.client_answers", "central.utilities",
                 "central.filter_by_size", "workload.workload_error", "harness.sampled_nll"):
        metrics[f"{name}.s"] = (self_s(name), "s")
    for name in ("central.run_aim", "federated.run_distaim", "federated.run_flaim"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["workload.random_workload.s"] = (
        setup_recorder.stats["workload.random_workload"].self_s, "s")
    metrics["central.filter_by_size.admit_frac"] = (_ratio(filters.admitted, filters.offered), "frac")

    results = traced_result.results
    rejected = offered = 0
    for r in results:
        if r.method.startswith("flaim"):
            for e in r.round_log:
                if e.get("phase") == "round":
                    rejected += len(e["rejected"])
                    offered += len(e["rejected"]) + len(e["selected"])
    metrics["federated.rejected_frac"] = (_ratio(rejected, offered), "frac")
    metrics["secagg.client_bytes"] = (sum(r.client_bytes_total for r in results), "bytes")
    metrics["secagg.ledger_entries"] = (
        sum(len(run.comms.entries) for run in traced_result.runs if hasattr(run, "comms")), "count")
    metrics["privacy.charges"] = (sum(len(r.accounting["charges"]) for r in results), "count")
    metrics["privacy.rho_used_frac"] = (
        _ratio(sum(r.rho_used for r in results), sum(r.rho_total for r in results)), "frac")
    reference_s = statistics.median(p.seconds for p in untraced)
    metrics["trace.overhead_frac"] = (traced_result.seconds / reference_s - 1.0, "frac")
    return metrics
