"""Command-line entry points: prepare, partition, run, summarize, compare,
audit-ledger, synthfs.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.  Every
randomized subcommand requires an explicit --seed (or --seed-from-entropy);
outputs are written atomically and never overwritten without --force.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import secrets
import sys

import numpy as np

from . import data_io, harness
from .data_io import atomic_write_text, save_dataset, save_partition
from .partition import synthfs
from .privacy import implied_charge

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class ConfigError(Exception):
    pass


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if getattr(args, "seed_from_entropy", False):
        return secrets.randbits(32)
    raise ConfigError("an explicit --seed (or --seed-from-entropy) is required")


def _check_overwrite(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise ConfigError(f"{path} exists; pass --force to overwrite")


def _add_seed_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="run seed (required unless --seed-from-entropy)")
    parser.add_argument("--seed-from-entropy", action="store_true", help="draw the seed from OS entropy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsynth",
        description="Differentially private synthetic tabular data, central and federated.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="encode a delimited text dataset under a JSON schema")
    p.add_argument("--data", required=True, help="input CSV with a header row")
    p.add_argument("--schema", required=True, help="JSON schema file")
    p.add_argument("--out", required=True, help="output .npz dataset")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("partition", help="assign dataset rows to clients")
    p.add_argument("--data", required=True, help="encoded .npz dataset")
    p.add_argument("--kind", required=True, choices=["iid", "label_skew", "cluster"])
    p.add_argument("--clients", type=int, required=True)
    p.add_argument("--beta", type=float, default=0.5, help="Dirichlet parameter for label_skew")
    p.add_argument("--class-attr", default=None, help="class attribute for label_skew")
    p.add_argument("--out", required=True, help="output partition file (one client id per line)")
    p.add_argument("--force", action="store_true")
    _add_seed_args(p)

    p = sub.add_parser("synthfs", help="generate the feature-skew synthetic dataset")
    p.add_argument("--clients", type=int, default=100)
    p.add_argument("--rows-per-client", type=int, default=500)
    p.add_argument("--features", type=int, default=10)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--n-zipf", type=int, default=40)
    p.add_argument("--bins", type=int, default=32)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--force", action="store_true")
    _add_seed_args(p)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True, help="experiment JSON config")
    p.add_argument("--out-dir", default=None, help="output directory (defaults to config's `output`)")
    p.add_argument("--epsilon", type=float, default=None, help="override protocol epsilon")
    p.add_argument("--rounds", type=int, default=None, help="override protocol rounds")
    p.add_argument("--repeats", type=int, default=None, help="override repeat count")
    p.add_argument("--jobs", type=int, default=max(os.cpu_count() or 1, 1))
    p.add_argument("--force", action="store_true")
    _add_seed_args(p)

    p = sub.add_parser("summarize", help="summarize a results CSV")
    p.add_argument("--results", required=True, help="results.csv from a run")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("compare", help="paired comparison of two result directories")
    p.add_argument("before", help="directory holding the baseline results.csv files")
    p.add_argument("after", help="directory holding the changed results.csv files")

    p = sub.add_parser("audit-ledger", help="verify accounting files in a run directory")
    p.add_argument("directory", help="run output directory")

    return parser


def cmd_prepare(args) -> int:
    _check_overwrite(args.out, args.force)
    data, report = data_io.prepare_dataset(args.data, args.schema, args.delimiter)
    save_dataset(args.out, data)
    print(f"encoded {data.n_records} rows over {len(data.domain)} attributes -> {args.out}")
    if report.total_clamped():
        print(f"warning: {report.total_clamped()} out-of-range values clamped "
              f"(low={report.clamped_low}, high={report.clamped_high})")
    return EXIT_OK


def cmd_partition(args) -> int:
    seed = _resolve_seed(args)
    _check_overwrite(args.out, args.force)
    data = data_io.load_dataset(args.data)
    spec = {"kind": args.kind, "clients": args.clients, "beta": args.beta}
    if args.class_attr is not None:
        spec["class_attr"] = args.class_attr
    part = harness.build_partition(spec, data, None, seed)
    save_partition(args.out, part.assignments)
    print(f"partitioned {len(part)} rows over {part.n_clients} clients -> {args.out}")
    return EXIT_OK


def cmd_synthfs(args) -> int:
    seed = _resolve_seed(args)
    paths = {
        "data": os.path.join(args.out_dir, "synthfs_train.npz"),
        "holdout": os.path.join(args.out_dir, "synthfs_holdout.npz"),
        "partition": os.path.join(args.out_dir, "synthfs_partition.txt"),
    }
    for path in paths.values():
        _check_overwrite(path, args.force)
    result = synthfs(
        n_clients=args.clients,
        rows_per_client=args.rows_per_client,
        seed=seed,
        n_features=args.features,
        beta=args.beta,
        n_zipf=args.n_zipf,
        bins=args.bins,
    )
    save_dataset(paths["data"], result.data)
    save_dataset(paths["holdout"], result.holdout)
    save_partition(paths["partition"], result.partition.assignments)
    print(
        f"synthfs: {result.data.n_records} train rows / {result.holdout.n_records} holdout, "
        f"{result.partition.n_clients} clients -> {args.out_dir}"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    seed = _resolve_seed(args)
    config = harness.ExperimentConfig.from_json(args.config)
    config.seed = seed
    if args.epsilon is not None:
        config.protocol["epsilon"] = args.epsilon
    if args.rounds is not None:
        config.protocol["rounds"] = args.rounds
    if args.repeats is not None:
        config.repeats = args.repeats
    out_dir = args.out_dir or config.output
    if out_dir is None:
        raise ConfigError("no output directory: set `output` in the config or pass --out-dir")
    results_path = os.path.join(out_dir, "results.csv")
    _check_overwrite(results_path, args.force)
    results = harness.run_experiment(config, jobs=args.jobs)
    harness.write_results(results, out_dir, config)
    failures = [r for r in results if r.status != "ok"]
    for r in results:
        print(
            f"{r.method} seed={r.seed}: err_norm={r.error_normalized:.4f} "
            f"nll={r.nll:.3f} rho={r.rho_used:.6g}/{r.rho_total:.6g} [{r.status}]"
        )
    if failures:
        print(f"{len(failures)} of {len(results)} runs failed", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {results_path}")
    return EXIT_OK


def cmd_summarize(args) -> int:
    _check_overwrite(args.out, args.force)
    rows = harness.read_results_csv(args.results)
    summary = harness.summarize(rows)
    atomic_write_text(args.out, harness.summary_to_csv(summary))
    for entry in summary:
        print(
            f"{entry['method']}: err={entry['error_normalized_mean']:.4f}"
            f"±{entry['error_normalized_std']:.4f} rank={entry['rank_error']}"
        )
    ranks = harness.aggregate_ranks(summary)
    if len({e["config_hash"] for e in summary}) > 1:
        print("mean ranks across configs (error / nll):")
        for row in ranks:
            print(f"  {row['method']}: {row['mean_rank_error']:.2f} / {row['mean_rank_nll']:.2f}")
    return EXIT_OK


COMPARED = ("error_normalized", "nll")
BOOTSTRAP_RESAMPLES = 2000


def _successful_rows(directory: str) -> dict[tuple[str, str, str], dict]:
    """Successful result rows of every results.csv under ``directory``,
    keyed by (config hash, method, seed); a key found twice is refused."""
    paths = sorted(glob.glob(os.path.join(directory, "**", "results.csv"), recursive=True))
    if not paths:
        raise ConfigError(f"no results.csv under {directory}")
    rows, sources = {}, {}
    for path in paths:
        for row in harness.read_results_csv(path):
            if str(row.get("status", "ok")).startswith("failed"):
                continue
            key = (row["config_hash"], row["method"], row["seed"])
            if key in rows:
                raise ConfigError(f"run {key} is in both {sources[key]} and {path}")
            rows[key], sources[key] = row, path
    return rows


def _bootstrap_interval(deltas: np.ndarray) -> tuple[float, float]:
    """95% percentile bootstrap interval of the mean of ``deltas``, from a
    fixed seed so the same inputs always print the same interval."""
    rng = np.random.default_rng(0)
    picks = rng.integers(0, deltas.size, size=(BOOTSTRAP_RESAMPLES, deltas.size))
    low, high = np.percentile(deltas[picks].mean(axis=1), [2.5, 97.5])
    return float(low), float(high)


def cmd_compare(args) -> int:
    before, after = _successful_rows(args.before), _successful_rows(args.after)
    keys = sorted(set(before) & set(after))
    if not keys:
        raise ConfigError("no (config_hash, method, seed) row pairs between the two directories")
    print(f"{len(keys)} paired runs; delta = after - before (lower is better), "
          "95% bootstrap interval of the mean delta, * when it excludes 0")
    for method in sorted({key[1] for key in keys}):
        paired = [key for key in keys if key[1] == method]
        for metric in COMPARED:
            old = np.array([float(before[key][metric]) for key in paired])
            new = np.array([float(after[key][metric]) for key in paired])
            deltas = new - old
            low, high = _bootstrap_interval(deltas)
            print(f"{method} {metric}: n={len(paired)} before={old.mean():.4f} after={new.mean():.4f} "
                  f"delta={deltas.mean():+.4g} [{low:+.4g}, {high:+.4g}] "
                  f"wins={int((deltas < 0).sum())} losses={int((deltas > 0).sum())}"
                  + (" *" if low > 0 or high < 0 else ""))
    return EXIT_OK


def cmd_audit_ledger(args) -> int:
    pattern = os.path.join(args.directory, "accounting_*.json")
    files = sorted(glob.glob(pattern))
    if not files:
        raise ConfigError(f"no accounting files found under {args.directory}")
    bad = 0
    for path in files:
        with open(path) as fh:
            ledger = json.load(fh)
        replay = sum(charge["rho"] for charge in ledger["charges"])
        ok_sum = abs(replay - ledger["rho_used"]) <= 1e-9 * max(ledger["rho_used"], 1e-300)
        ok_cap = ledger["rho_used"] <= ledger["rho_total"] * (1 + 1e-12)
        problems = []
        for i, charge in enumerate(ledger["charges"]):
            implied = implied_charge(charge["params"])
            if implied is None:
                problems.append(f"charge {i} ({charge['mechanism']}) records no mechanism parameter")
            elif not math.isclose(charge["rho"], implied, rel_tol=1e-9, abs_tol=0.0):
                problems.append(f"charge {i} ({charge['mechanism']}) is {charge['rho']!r}, "
                                f"its parameters give {implied!r}")
        status = "ok" if (ok_sum and ok_cap and not problems) else "VIOLATION"
        print(f"{os.path.basename(path)}: rho_used={ledger['rho_used']:.6g} "
              f"rho_total={ledger['rho_total']:.6g} replay={replay:.6g} [{status}]")
        for problem in problems:
            print(f"  {problem}")
        if status != "ok":
            bad += 1
    if bad:
        print(f"{bad} ledger(s) failed verification", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


_HANDLERS = {
    "prepare": cmd_prepare,
    "partition": cmd_partition,
    "synthfs": cmd_synthfs,
    "run": cmd_run,
    "summarize": cmd_summarize,
    "compare": cmd_compare,
    "audit-ledger": cmd_audit_ledger,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
