"""Experiment orchestration: config matrices, seeds, metrics, result files.

A run is fully determined by (config, seed): datasets, partitions,
workloads and protocol randomness all derive from declared seeds, so
metric outputs are bit-identical across reruns.  Wall time and other
environment-dependent values go into a separate metadata file, never into
the metric CSV.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import io
import json
import os
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .central import AimConfig, run_aim
from .data_io import atomic_write_text, load_dataset, load_partition, prepare_dataset
from .domain import DiscreteDataset
from .federated import FedConfig, run_distaim, run_flaim
from .model import ModelState
from .partition import (
    ClientPartition,
    mixture_dataset,
    partition_cluster_skew,
    partition_iid,
    partition_label_skew,
    synthfs,
)
from .rng import fork
from .workload import Workload, random_workload, workload_error

METHODS = ("aim", "distaim", "flaim-naive", "flaim-oracle", "flaim-private")

# protocol keys passed to AimConfig, and to FedConfig for the other methods;
# an absent key takes the dataclass default
AIM_KEYS = ("epsilon", "delta", "rounds", "max_model_size", "gauss_frac", "fit_iters", "final_fit_iters")
FED_KEYS = AIM_KEYS + ("sample_rate", "local_rounds", "parties", "normalize_scores")
PROTOCOL_KEYS = ("method",) + FED_KEYS

RESULT_COLUMNS = [
    "config_hash",
    "method",
    "seed",
    "error_normalized",
    "error_raw",
    "nll",
    "nll_sampled",
    "rho_used",
    "rho_total",
    "client_bytes_mean",
    "client_bytes_total",
    "rounds_executed",
    "error_mode",
    "status",
]


@dataclass
class ExperimentConfig:
    dataset: dict
    protocol: dict
    workload: dict
    partition: dict | None = None
    repeats: int = 1
    seed: int = 0
    holdout_fraction: float = 0.1
    output: str | None = None
    version: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        version = raw.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported config version {version}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "dataset" not in raw or "protocol" not in raw or "workload" not in raw:
            raise ValueError("config requires dataset, protocol and workload sections")
        return cls(**raw)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def canonical(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


@dataclass
class RunResult:
    config_hash: str
    method: str
    seed: int
    error_normalized: float = float("nan")
    error_raw: float = float("nan")
    nll: float = float("nan")
    nll_sampled: float = float("nan")
    rho_used: float = float("nan")
    rho_total: float = float("nan")
    client_bytes_mean: float = 0.0
    client_bytes_total: int = 0
    rounds_executed: int = 0
    error_mode: str = "normalized"
    status: str = "ok"
    wall_time: float = 0.0
    round_log: list[dict] = field(default_factory=list)
    accounting: dict = field(default_factory=dict)
    comms_csv: str = ""
    traceback: str = ""  # full traceback of a failed run; ``status`` keeps its last line

    def metric_row(self) -> dict:
        row = {}
        for col in RESULT_COLUMNS:
            value = getattr(self, col)
            if isinstance(value, float):
                value = repr(value)
            row[col] = value
        return row


def build_dataset(
    spec: dict, seed: int, holdout_fraction: float
) -> tuple[DiscreteDataset, DiscreteDataset, ClientPartition | None, np.ndarray | None]:
    """Materialize (train, holdout, built-in partition, train-row indices).

    The train-row indices refer to the raw dataset's row order and let
    file-based partitions stay aligned after the holdout split.  A
    ``holdout_fraction`` outside (0, 1), or one that rounds either side of
    the split to no rows, is refused.
    """
    if not 0 < holdout_fraction < 1:
        raise ValueError(f"holdout_fraction must lie in (0, 1), got {holdout_fraction}")
    kind = spec.get("kind")
    if kind == "synthfs":
        result = synthfs(
            n_clients=spec.get("clients", 100),
            rows_per_client=spec.get("rows_per_client", 500),
            seed=spec.get("seed", seed),
            n_features=spec.get("features", 10),
            beta=spec.get("beta", 1.0),
            n_zipf=spec.get("n_zipf", 40),
            bins=spec.get("bins", 32),
            holdout_fraction=holdout_fraction,
        )
        train, holdout, builtin, train_rows = result.data, result.holdout, result.partition, None
    else:
        if kind == "mixture":
            full = mixture_dataset(spec.get("rows", 20000), spec.get("seed", seed))
        elif kind == "csv":
            full, _ = prepare_dataset(spec["path"], spec["schema"])
        elif kind == "npz":
            full = load_dataset(spec["path"])
        else:
            raise ValueError(f"unknown dataset kind {kind!r}")
        # holdout split before partitioning
        rng = fork(spec.get("seed", seed), "holdout")
        n = full.n_records
        n_hold = int(round(holdout_fraction * n))
        hold_idx = rng.choice(n, size=n_hold, replace=False)
        mask = np.ones(n, dtype=bool)
        mask[hold_idx] = False
        train_rows = np.nonzero(mask)[0]
        train, holdout, builtin = full.subset(train_rows), full.subset(np.nonzero(~mask)[0]), None
    if train.n_records == 0 or holdout.n_records == 0:
        raise ValueError(
            f"holdout_fraction {holdout_fraction} leaves the train or the holdout split with no rows"
        )
    return train, holdout, builtin, train_rows


def build_partition(
    spec: dict | None,
    data: DiscreteDataset,
    builtin: ClientPartition | None,
    seed: int,
    train_rows: np.ndarray | None = None,
) -> ClientPartition | None:
    if spec is None:
        return builtin
    kind = spec.get("kind")
    k = spec.get("clients", 100)
    pseed = spec.get("seed", seed)
    if kind == "builtin":
        if builtin is None:
            raise ValueError("dataset provides no built-in partition")
        return builtin
    if kind == "iid":
        return partition_iid(data, k, pseed)
    if kind == "label_skew":
        return partition_label_skew(
            data, k, spec.get("class_attr", data.domain.attributes[-1]),
            spec.get("beta", 0.5), pseed,
        )
    if kind == "cluster":
        return partition_cluster_skew(data, k, pseed)
    if kind == "file":
        assignments = load_partition(spec["path"])
        if len(assignments) != data.n_records:
            # file aligned with the raw dataset: drop the held-out rows
            if train_rows is None or len(assignments) <= int(train_rows.max()):
                raise ValueError(
                    f"partition file has {len(assignments)} rows; expected "
                    f"{data.n_records} (train) or the raw dataset length"
                )
            assignments = assignments[train_rows]
        return ClientPartition(assignments, k)
    raise ValueError(f"unknown partition kind {kind!r}")


def build_workload(spec: dict, data: DiscreteDataset, seed: int) -> Workload:
    return random_workload(
        data.domain,
        arity=spec.get("arity", 3),
        count=spec.get("count", 64),
        seed=spec.get("seed", seed),
    )


def _sampled_nll(model: ModelState, sample: DiscreteDataset, holdout: DiscreteDataset) -> float:
    """Holdout NLL under per-component empirical frequencies of a synthetic
    sample (the sample-based reading of the generalization metric)."""
    tables = {}
    for comp in model.components:
        shape = model.domain.shape(comp)
        idx = np.ravel_multi_index(tuple(sample.rows[:, a] for a in comp), dims=shape)
        tables[comp] = np.bincount(idx, minlength=int(np.prod(shape))).reshape(shape)
    empirical = ModelState(model.domain, max(sample.n_records, 1), model.components, tables)
    return empirical.nll(holdout)


def execute_run(config: ExperimentConfig, run_seed: int) -> RunResult:
    method = config.protocol.get("method")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    unknown = set(config.protocol) - set(PROTOCOL_KEYS)
    if unknown:
        raise ValueError(f"unknown protocol keys {sorted(unknown)}; expected some of {PROTOCOL_KEYS}")
    keys = AIM_KEYS if method == "aim" else FED_KEYS
    # no ``rounds`` means annealing for every method
    settings = {"rounds": None, **{k: config.protocol[k] for k in keys if k in config.protocol}}
    # built before the run, so an invalid setting is a configuration error
    if method == "aim":
        protocol = AimConfig(seed=run_seed, **settings)
    else:
        variant = method.split("-", 1)[1] if method.startswith("flaim") else "naive"
        protocol = FedConfig(seed=run_seed, variant=variant, **settings)
    result = RunResult(config_hash=config.hash(), method=method, seed=run_seed)
    start = time.perf_counter()
    try:
        train, holdout, builtin, train_rows = build_dataset(
            config.dataset, run_seed, config.holdout_fraction
        )
        workload = build_workload(config.workload, train, run_seed)
        if method == "aim":
            run = run_aim(train, workload, protocol)
            comms = None
        else:
            partition = build_partition(
                config.partition, train, builtin, run_seed, train_rows
            )
            if partition is None:
                raise ValueError(f"method {method} requires a partition")
            run = (
                run_distaim(train, partition, workload, protocol)
                if method == "distaim"
                else run_flaim(train, partition, workload, protocol)
            )
            comms = run.comms
        model = run.model
        result.error_normalized = workload_error(train, model, workload, normalize=True)
        result.error_raw = workload_error(train, model, workload, normalize=False)
        result.nll = model.nll(holdout)
        sample = model.sample(train.n_records, fork(run_seed, "synthetic-sample"))
        result.nll_sampled = _sampled_nll(model, sample, holdout)
        result.rho_used = run.accountant.rho_used
        result.rho_total = run.accountant.rho_total
        if comms is not None:
            totals = comms.client_totals()
            result.client_bytes_total = sum(totals.values())
            result.client_bytes_mean = (
                result.client_bytes_total / len(totals) if totals else 0.0
            )
            result.comms_csv = comms.to_csv()
        result.rounds_executed = sum(
            1 for e in run.rounds if e.get("phase", "round") == "round"
        )
        result.round_log = run.rounds
        result.accounting = {
            "rho_total": run.accountant.rho_total,
            "rho_used": run.accountant.rho_used,
            "charges": run.accountant.ledger(),
        }
    except Exception:
        result.traceback = traceback.format_exc()
        result.status = "failed: " + result.traceback.strip().splitlines()[-1]
    result.wall_time = time.perf_counter() - start
    return result


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[RunResult]:
    """Execute ``repeats`` runs at seeds seed+i; failures are recorded and do
    not stop the remaining runs."""
    seeds = [config.seed + i for i in range(config.repeats)]
    # the pool forks all its workers at the first submit, so start no more than there are runs
    workers = min(jobs, len(seeds))
    if workers <= 1:
        results = [execute_run(config, s) for s in seeds]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(execute_run, [config] * len(seeds), seeds))
    results.sort(key=lambda r: (r.config_hash, r.seed))
    return results


def results_to_csv(results: list[RunResult]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RESULT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in results:
        writer.writerow(r.metric_row())
    return buf.getvalue()


def write_results(
    results: list[RunResult], out_dir: str, config: ExperimentConfig | None = None
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "results.csv"), results_to_csv(results))
    meta = {
        "wall_times": {f"{r.method}:{r.seed}": r.wall_time for r in results},
        "failures": {f"{r.method}:{r.seed}": r.traceback for r in results if r.traceback},
    }
    atomic_write_text(os.path.join(out_dir, "runmeta.json"), json.dumps(meta, indent=2) + "\n")
    if config is not None:
        atomic_write_text(
            os.path.join(out_dir, "config.json"),
            json.dumps(asdict(config), indent=2, sort_keys=True) + "\n",
        )
    for r in results:
        tag = f"{r.method}_seed{r.seed}"
        lines = "\n".join(json.dumps(e, sort_keys=True) for e in r.round_log)
        atomic_write_text(os.path.join(out_dir, f"rounds_{tag}.jsonl"), lines + "\n")
        atomic_write_text(
            os.path.join(out_dir, f"accounting_{tag}.json"),
            json.dumps(r.accounting, indent=2, sort_keys=True) + "\n",
        )
        if r.comms_csv:
            atomic_write_text(os.path.join(out_dir, f"comms_{tag}.csv"), r.comms_csv)


def read_results_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


METRICS = ["error_normalized", "error_raw", "nll", "nll_sampled"]


def summarize(rows: list[dict]) -> list[dict]:
    """Per (config, method) mean/std of each metric plus within-config rank
    by normalized error (1 = lowest mean); failed runs are left out, and
    a file with no successful run is refused."""
    if not rows:
        raise ValueError("no results to summarize")
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        if str(row.get("status", "ok")).startswith("failed"):
            continue
        groups.setdefault((row["config_hash"], row["method"]), []).append(row)
    if not groups:
        raise ValueError("no successful runs to summarize")
    summary = []
    for (chash, method), members in sorted(groups.items()):
        entry: dict[str, Any] = {
            "config_hash": chash,
            "method": method,
            "runs": len(members),
        }
        for metric in METRICS:
            values = np.array([float(m[metric]) for m in members])
            entry[f"{metric}_mean"] = float(values.mean())
            entry[f"{metric}_std"] = float(values.std())
        summary.append(entry)
    by_hash: dict[str, list[dict]] = {}
    for entry in summary:
        by_hash.setdefault(entry["config_hash"], []).append(entry)
    for entries in by_hash.values():
        ranked = sorted(entries, key=lambda e: e["error_normalized_mean"])
        for rank, entry in enumerate(ranked, start=1):
            entry["rank_error"] = rank
        ranked_nll = sorted(entries, key=lambda e: e["nll_mean"])
        for rank, entry in enumerate(ranked_nll, start=1):
            entry["rank_nll"] = rank
    return summary


def aggregate_ranks(summary: list[dict]) -> list[dict]:
    """Mean rank of each method across configs (one row per method)."""
    by_method: dict[str, list[dict]] = {}
    for entry in summary:
        by_method.setdefault(entry["method"], []).append(entry)
    rows = []
    for method, entries in sorted(by_method.items()):
        rows.append(
            {
                "method": method,
                "configs": len(entries),
                "mean_rank_error": float(np.mean([e["rank_error"] for e in entries])),
                "mean_rank_nll": float(np.mean([e["rank_nll"] for e in entries])),
            }
        )
    return sorted(rows, key=lambda r: r["mean_rank_error"])


def summary_to_csv(summary: list[dict]) -> str:
    fields = list(summary[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for entry in summary:
        writer.writerow(entry)
    return buf.getvalue()
