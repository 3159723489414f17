"""Benchmark of `sqlrerank eval` on generated, Spider-shaped corpora.

    python3 bench/run.py --workload spider-dev --seed 1 --seconds 10 --trace 0

Run from any directory; the program is imported from `src/` of the checkout
this file sits in. A run sets the workload up several times from the seed
in a child process (SQLite files, manifest and, for spider-dev, the reply
cache), reports the median set-up time, and checks the labels once after
the first set-up, untimed. It then calls `sqlrerank.cli.main` with
`eval` in whole rounds over the same corpus until `--seconds` have passed,
checks every entry of every round against the labels, and prints one JSON
object as its last line: the end-to-end metrics with `--trace 0`, the
per-layer metrics from spans with `--trace 1`. A check that fails outside
the known CTE fault ends the run with exit code 1 and names the entry.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import io
import json
import logging
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
from unittest import mock

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# The set-up is repeated at least MIN_SETUPS times and for MIN_SETUP_SECONDS;
# setup_s is the median.
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 2.0

# Flags of the `eval` call per workload. spider-dev also gets --cache.
EVAL_FLAGS = {
    "spider-dev": ["--oracle", "replay", "--workers", "1"],
    "large-db": ["--oracle", "reference", "--workers", "1"],
    "wide-relaxed": ["--oracle", "reference", "--method", "fuzzing", "--workers", "1"],
}


class CheckFailed(Exception):
    pass


def import_program():
    """Import sqlrerank from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "sqlrerank", "__init__.py")):
        raise SystemExit(f"error: no sqlrerank package under {SRC}")
    sys.path.insert(0, SRC)
    import sqlrerank.cli

    if not os.path.abspath(sqlrerank.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: sqlrerank was imported from {sqlrerank.cli.__file__}")
    # Skipped SQL is counted by the traced run; keep the log lines off stderr.
    logging.getLogger("sqlrerank").addHandler(logging.NullHandler())
    return sqlrerank.cli


def record_replies(manifest: str, seed: int, out_dir: str) -> str:
    """Record the oracle replies the replay run will ask for.

    The reference oracle stands in for the LLM. The suite settings are the
    `eval` defaults, which the measured call also uses, so request ids match.
    """
    from sqlrerank.corpus import load_corpus
    from sqlrerank.dbgen import GenConfig
    from sqlrerank.evaluate import evaluate_corpus
    from sqlrerank.oracle import ReferenceOracle, ReplayOracle, ReplyCache
    from sqlrerank.suite import SuiteConfig

    path = os.path.join(out_dir, "replies.jsonl")
    cache = ReplyCache(path)
    evaluate_corpus(
        load_corpus(manifest),
        lambda entry: ReplayOracle(cache, delegate=ReferenceOracle(entry.gold_sql)),
        SuiteConfig(gen=GenConfig(seed=seed)),
        gate="paper",
        base_seed=seed,
    )
    return path


def set_up(workload: str, seed: int, out_dir: str, check: bool):
    """One set-up into `out_dir`; runs in the set-up worker process.

    Returns the time of the set-up proper (corpus, SQLite files, manifest
    and, for spider-dev, the reply cache), the entries, the manifest and
    the cache. The label check runs after the timer stops.
    """
    began = time.perf_counter()
    dbs, entries = workloads.build_corpus(workload, seed)
    manifest = workloads.write_corpus(dbs, entries, out_dir)
    cache = record_replies(manifest, seed, out_dir) if workload == "spider-dev" else None
    took = time.perf_counter() - began
    if check:
        workloads.check_labels(entries, out_dir)
    return took, entries, manifest, cache


def set_up_repeatedly(workload: str, seed: int, run_dir: str):
    """Set up at least MIN_SETUPS times and for MIN_SETUP_SECONDS in a
    child process, so that set-up neither counts toward nor shares memory
    with the measured eval. Returns the set-up times and the last set-up."""
    times: list[float] = []
    fork = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(max_workers=1, mp_context=fork) as worker:
        while len(times) < MIN_SETUPS or sum(times) < MIN_SETUP_SECONDS:
            if times:
                shutil.rmtree(out_dir)
            out_dir = os.path.join(run_dir, f"setup{len(times)}")
            took, *last = worker.submit(set_up, workload, seed, out_dir, not times).result()
            times.append(took)
    return times, last


# The only problem the known CTE fault causes (see check_report).
SEPARABLE_MISS = "a gated-in separable entry has no correct top-1 after re-ranking"


def entry_problems(entry: workloads.Entry, row: dict) -> list[str]:
    labels = entry.labels
    gated_out = all(labels) or not any(labels)
    problems = []
    if row["error"] is not None:
        problems.append(f"error {row['error']!r}")
    if row["pre_top1_correct"] != labels[0]:
        problems.append(f"pre_top1_correct is {row['pre_top1_correct']}, label is {labels[0]}")
    if row["gated_out"] != gated_out:
        problems.append(f"gated_out is {row['gated_out']}, labels say {gated_out}")
    if labels[0] and not row["post_top1_correct"]:
        problems.append("a correct top-1 was lost by re-ranking")
    if entry.separable and not gated_out and not row["post_top1_correct"]:
        problems.append(SEPARABLE_MISS)
    return problems


def check_report(entries: list[workloads.Entry], report: dict) -> int:
    """Check every row against the labels; returns the known-fault failures.

    A cte-fault entry counts as failed only when its one problem is the one
    the fault causes; any other problem fails the run as elsewhere.
    """
    rows = {row["entry_id"]: row for row in report["entries"]}
    if sorted(rows) != sorted(e.entry_id for e in entries):
        raise CheckFailed("the report does not list exactly the corpus entries")
    failed = 0
    for entry in entries:
        problems = entry_problems(entry, rows[entry.entry_id])
        if entry.cte_fault and problems == [SEPARABLE_MISS]:
            failed += 1
        elif problems:
            raise CheckFailed(f"{entry.entry_id} ({entry.template}): {'; '.join(problems)}")
    usable = [e for e in entries if rows[e.entry_id]["error"] is None]
    labelled = sum(e.labels[0] for e in usable) / len(usable)
    if abs(report["ex_before"] - labelled) > 1e-12:
        raise CheckFailed(f"ex_before is {report['ex_before']}, labelled share is {labelled}")
    if report["error_count"] != 0:
        raise CheckFailed(f"error_count is {report['error_count']}")
    return failed


def run_rounds(cli, argv, entries, report_path, seconds):
    """Whole `eval` rounds for about `seconds`: another round starts while
    less than half a round would overrun. Returns per-round (seconds,
    report) and the failed-entry count over all rounds."""
    rounds, failed = [], 0
    start = time.perf_counter()
    while not rounds or (
        time.perf_counter() - start + statistics.median(t for t, _ in rounds) / 2 < seconds
    ):
        began = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        took = time.perf_counter() - began
        if code != 0:
            raise CheckFailed(f"sqlrerank eval exited with {code}")
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        failed += check_report(entries, report)
        rounds.append((took, report))
        print(f"round {len(rounds)}: {len(entries)} entries in {took:.3f} s", file=sys.stderr)
    return rounds, failed


def timed_entries(latencies: dict[str, list[float]]) -> contextlib.AbstractContextManager:
    """Time each evaluate_entry call, as the eval loop calls it."""
    evaluate = sys.modules["sqlrerank.evaluate"]
    inner = evaluate.evaluate_entry

    @functools.wraps(inner)
    def timed(entry, *args, **kwargs):
        began = time.perf_counter()
        try:
            return inner(entry, *args, **kwargs)
        finally:
            latencies.setdefault(entry.entry_id, []).append(time.perf_counter() - began)

    return mock.patch.object(evaluate, "evaluate_entry", timed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_times, (entries, manifest, cache) = set_up_repeatedly(
            args.workload, args.seed, run_dir)

        report_path = os.path.join(run_dir, "report.json")
        eval_argv = [
            "eval", "--corpus", manifest, "--gate", "paper", "--seed", str(args.seed),
            "--report", report_path, *EVAL_FLAGS[args.workload],
        ] + (["--cache", cache] if cache else [])

        latencies: dict[str, list[float]] = {}
        tracer = spans.Tracer()
        patch = spans.tracing(tracer) if args.trace else timed_entries(latencies)
        with patch:
            rounds, failed = run_rounds(cli, eval_argv, entries, report_path, args.seconds)
    except (CheckFailed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    per_second = statistics.median(len(entries) / took for took, _ in rounds)
    if args.trace:
        os.makedirs(WORK, exist_ok=True)
        tracer.write_jsonl(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = tracer.layer_metrics(len(rounds))
        metrics["trace.entries_per_s"] = (per_second, "entries/s")
    else:
        report = rounds[-1][1]
        # One latency per entry: its median over the rounds, so that a pause
        # of the machine during one round does not move the percentiles.
        per_entry = [statistics.median(times) for times in latencies.values()]
        deciles = statistics.quantiles(per_entry, n=10)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "entries_per_s": (per_second, "entries/s"),
            "entry_p50_ms": (statistics.median(per_entry) * 1000.0, "ms"),
            "entry_p90_ms": (deciles[8] * 1000.0, "ms"),
            "oracle_calls": (sum(row["oracle_calls"] for row in report["entries"]), "calls"),
            "ex_after": (report["ex_after"], "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({
        "correct": True,
        "attempted": len(entries) * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
