"""Spans around the calls into each sqlrerank layer, recorded from outside.

The wrappers replace module attributes at the names the calling modules
import (for example `sqlrerank.suite.execute`, which is what suite code
calls), so the package itself is not modified. A span records its name,
start, end, parent span and the corpus entry it belongs to. Spans are kept
in memory and written as JSONL when the run ends; the per-layer metrics are
derived from them.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from unittest import mock


def _rows_loaded(counts, args, _result):
    counts["dbio.rows_loaded"] += sum(len(data.rows) for data in args[0].tables.values())


def _execution_outcome(counts, _args, outcome):
    kind = outcome.kind.name
    counts["executor.execute.sql_errors"] += kind == "SQL_ERROR"
    counts["executor.execute.timeouts"] += kind == "TIMEOUT"


def _parse_skips(counts, _args, result):
    counts["sqlanalysis.parse_skips"] += len(result[1])


def _prompt_chars(counts, _args, prompt):
    counts["promptgen.prompt_chars"] += len(prompt.text)


def _unavailable(counts, _args, prediction):
    counts["oracle.unavailable"] += not prediction.is_available


def _suite_counts(counts, _args, suite):
    counts["suite.attempts"] += suite.attempts
    counts["suite.dropped_duplicate"] += suite.dropped_duplicate
    counts["suite.cases_kept"] += len(suite.cases)


# (owner, attribute, span name, counter). The owner is a module, or
# "module:Class" for a method; functions are wrapped where their callers
# look them up.
TARGETS = (
    ("sqlrerank.cli", "load_corpus", "corpus.load_corpus", None),
    ("sqlrerank.evaluate", "read_database", "dbio.read_database", None),
    ("sqlrerank.executor", "load_into_connection", "dbio.load_into_connection", _rows_loaded),
    ("sqlrerank.evaluate", "execute", "executor.execute", _execution_outcome),
    ("sqlrerank.suite", "execute", "executor.execute", _execution_outcome),
    ("sqlrerank.oracle", "execute", "executor.execute", _execution_outcome),
    ("sqlrerank.suite", "result_canonical_key", "executor.result_canonical_key", None),
    ("sqlrerank.evaluate", "results_equal_relaxed", "executor.results_equal_relaxed", None),
    ("sqlrerank.suite", "results_equal_relaxed", "executor.results_equal_relaxed", None),
    ("sqlrerank.dbgen", "analyze_all", "sqlanalysis.analyze_all", _parse_skips),
    ("sqlrerank.executor", "has_top_level_order_by", "sqlanalysis.has_top_level_order_by", None),
    ("sqlrerank.suite", "prune_schema", "dbgen.prune_schema", None),
    ("sqlrerank.suite", "sample_database", "dbgen.sample_database", None),
    ("sqlrerank.suite", "fuzz_database", "dbgen.fuzz_database", None),
    ("sqlrerank.suite", "constrain_numbers", "dbgen.constrain_numbers", None),
    ("sqlrerank.oracle", "build_prompt", "promptgen.build_prompt", _prompt_chars),
    ("sqlrerank.oracle", "parse_answer", "promptgen.parse_answer", None),
    ("sqlrerank.oracle", "request_id_for", "oracle.request_id_for", None),
    ("sqlrerank.oracle:ReferenceOracle", "predict", "oracle.predict", _unavailable),
    ("sqlrerank.oracle:ReplayOracle", "predict", "oracle.predict", _unavailable),
    ("sqlrerank.cli", "ReplyCache", "oracle.reply_cache_load", None),
    ("sqlrerank.suite", "classify_candidates", "suite.classify_candidates", None),
    ("sqlrerank.suite", "generate_suite", "suite.generate_suite", _suite_counts),
    ("sqlrerank.suite", "rerank", "suite.rerank", None),
    ("sqlrerank.evaluate", "select_best", "suite.select_best", None),
    ("sqlrerank.evaluate", "evaluate_entry", "evaluate.evaluate_entry", None),
)

# Span names reported as `<name>.ms` (self time) and `<name>.calls`.
TIMED = (
    "dbio.load_into_connection", "dbio.read_database",
    "executor.execute", "executor.result_canonical_key", "executor.results_equal_relaxed",
    "sqlanalysis.analyze_all", "sqlanalysis.has_top_level_order_by",
    "dbgen.prune_schema", "dbgen.sample_database", "dbgen.fuzz_database",
    "dbgen.constrain_numbers",
    "promptgen.build_prompt", "promptgen.parse_answer",
    "oracle.request_id_for", "oracle.predict", "oracle.reply_cache_load",
    "suite.classify_candidates", "suite.generate_suite", "suite.rerank",
    "evaluate.evaluate_entry", "corpus.load_corpus",
)
COUNTED = (
    "dbio.rows_loaded", "executor.execute.sql_errors", "executor.execute.timeouts",
    "sqlanalysis.parse_skips", "promptgen.prompt_chars", "oracle.unavailable",
    "suite.attempts", "suite.dropped_duplicate", "suite.cases_kept",
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    found = importlib.import_module(module)
    return getattr(found, cls) if cls else found


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._origin = time.perf_counter()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent, entry = stack[-1] if stack else (None, None)
            if name == "evaluate.evaluate_entry":
                entry = args[0].entry_id
            span_id = next(self._ids)
            stack.append((span_id, entry))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, entry))
            if count is not None:
                with self._lock:
                    count(self.counts, args, result)
            return result

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, entry in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start - self._origin,
                    "end": end - self._origin, "parent": parent, "entry": entry,
                }) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round values: self time and calls per span name, and counts."""
        child_time: dict[int, float] = defaultdict(float)
        select_best_time: dict[int, float] = defaultdict(float)
        for _id, name, start, end, parent, _entry in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                if name == "suite.select_best":
                    select_best_time[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span_id, name, start, end, _parent, _entry in self.spans:
            calls[name] += 1
            if name == "evaluate.evaluate_entry":
                # The gold run, the paper gate and the final check: all of
                # evaluate_entry except select_best.
                own = end - start - select_best_time[span_id]
            else:
                own = end - start - child_time[span_id]
            self_ms[name] += own * 1000.0
        metrics = {}
        for name in TIMED:
            metrics[f"{name}.ms"] = (self_ms[name] / rounds, "ms")
            metrics[f"{name}.calls"] = (calls[name] / rounds, "count")
        for name in COUNTED:
            metrics[name] = (self.counts[name] / rounds, "count")
        generated = calls["dbgen.sample_database"] + calls["dbgen.fuzz_database"]
        metrics["dbgen.databases_generated"] = (generated / rounds, "count")
        attempts = self.counts["suite.attempts"]
        kept = self.counts["suite.cases_kept"] / attempts if attempts else 0.0
        metrics["suite.kept_per_attempt"] = (kept, "ratio")
        return metrics


def tracing(tracer: Tracer) -> contextlib.ExitStack:
    """Wrap every target in TARGETS with a span of `tracer`."""
    stack = contextlib.ExitStack()
    for owner_name, attribute, name, count in TARGETS:
        owner = _resolve(owner_name)
        wrapped = tracer.wrap(name, getattr(owner, attribute), count)
        stack.enter_context(mock.patch.object(owner, attribute, wrapped))
    return stack
