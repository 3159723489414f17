"""Execution-accuracy evaluation of re-ranking over a corpus.

For each entry the gold SQL runs on the original database, and the
candidates are grouped into behavior classes there. Candidates in one class
get one verdict against any expected result, so each class's representative
is checked against the gold result once, with the relaxed comparison, and
the top-1 candidate before and after re-ranking takes its class's verdict.
The "paper" gate mode re-ranks only entries whose candidate list contains at
least one correct and at least one incorrect candidate (judging by the gold
result), since re-ranking cannot help the all-wrong case and cannot hurt the
all-right case.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Callable

from .corpus import CorpusEntry, apply_type_overrides
from .dbio import read_database
from .errors import SqlRerankError
from .executor import OutcomeKind, Session, execute, results_equal_relaxed
from .instance import DatabaseInstance
from .suite import RerankOutcome, SuiteConfig, classify_candidates, select_best


@dataclass(frozen=True)
class EntryReport:
    entry_id: str
    pre_top1_correct: bool = False
    post_top1_correct: bool = False
    gated_out: bool = False
    skipped_all_same: bool = False
    distinguished: bool = False
    suite_size: int = 0
    oracle_calls: int = 0
    oracle_unavailable: int = 0
    error: str | None = None
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EvalReport:
    entries: tuple[EntryReport, ...]
    evaluated: int
    ex_before: float
    ex_after: float
    gated_out_count: int
    skipped_count: int
    error_count: int


def entry_seed(base_seed: int, entry_id: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{entry_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


class Originals:
    """The original databases of a corpus run, one file and one pair at a time.

    A file is read once for its entries, and each (file, type overrides)
    pair gets one `Session`, made `by_program`, that every entry of the pair
    shares: it loads once and keeps one outcome memo, by text and by
    compiled program, so a statement another entry ran is not run again, an
    error or timeout included. Overrides change declared types, and so the
    affinity rows get on insert, which is why a session belongs to the pair
    and not to the file. Failures are kept too, so each entry on a broken
    file reports the same error. Only the latest file and pair are held:
    another pair closes the session before it, and another file drops the
    instance, so keep each pair's entries together, as `evaluate_corpus`
    does. `close` closes the open session.
    """

    def __init__(self) -> None:
        self._file: tuple[str, DatabaseInstance | str] | None = None
        self._pair: tuple[tuple, Session | str] | None = None

    def __enter__(self) -> Originals:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        if self._pair is not None and isinstance(self._pair[1], Session):
            self._pair[1].close()
        self._pair = None

    def session(self, entry: CorpusEntry) -> Session:
        """The session on the entry's original; raises what loading it raised."""
        key = _pair(entry)
        if self._pair is None or self._pair[0] != key:
            self.close()
            self._pair = key, self._open(entry)
        session = self._pair[1]
        if isinstance(session, str):
            raise SqlRerankError(session)
        return session

    def _open(self, entry: CorpusEntry) -> Session | str:
        if self._file is None or self._file[0] != entry.db_file:
            self._file = None  # the instance before is dropped before the read
            self._file = entry.db_file, _read_or_error(entry.db_file)
        db = self._file[1]
        if isinstance(db, str):
            return db
        try:
            return Session(apply_type_overrides(db, entry.type_overrides), by_program=True)
        except Exception as exc:  # recorded per entry, as a read failure is
            return str(exc)


GATES = ("paper", "none")


def _check_gate(gate: str) -> None:
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}")


def _pair(entry: CorpusEntry) -> tuple:
    return entry.db_file, tuple(sorted(entry.type_overrides.items()))


def _read_or_error(db_file: str) -> DatabaseInstance | str:
    try:
        return read_database(db_file)
    except Exception as exc:  # recorded per entry, not fatal
        return str(exc)


def evaluate_entry(
    entry: CorpusEntry,
    oracle_factory: Callable[[CorpusEntry], Any],
    config: SuiteConfig,
    gate: str = "paper",
    base_seed: int = 0,
    originals: Originals | None = None,
) -> EntryReport:
    """Evaluate one entry on its original from `originals`, the ones a
    corpus run shares, or from originals of its own when none are given.
    The session it is handed stays open for the pair's next entry."""
    _check_gate(gate)
    if entry.gold_sql is None:
        return EntryReport(entry_id=entry.entry_id, error="missing gold_sql", tags=entry.tags)
    if originals is None:
        with Originals() as own:
            return evaluate_entry(entry, oracle_factory, config, gate, base_seed, own)
    try:
        session = originals.session(entry)
    except SqlRerankError as exc:  # per-entry failures are recorded, not fatal
        return EntryReport(entry_id=entry.entry_id, error=f"database load: {exc}", tags=entry.tags)

    # One session on the original database serves the gold run, the
    # classification, the gate, both top-1 checks and the re-rank.
    gold_outcome = execute(session, entry.gold_sql)
    if gold_outcome.kind is not OutcomeKind.OK or gold_outcome.result is None:
        return EntryReport(
            entry_id=entry.entry_id,
            error=f"gold execution: {gold_outcome.kind.value} {gold_outcome.message}".strip(),
            tags=entry.tags,
        )
    gold_result = gold_outcome.result

    # One comparison with the gold per class; its members share the verdict,
    # and the re-rank takes the same representatives.
    candidates = list(entry.candidates)
    classes, representatives = classify_candidates(session, candidates)
    class_correct = []
    for rep in representatives:
        rep_outcome = execute(session, rep.sql)
        class_correct.append(
            rep_outcome.kind is OutcomeKind.OK
            and results_equal_relaxed(rep_outcome.result, gold_result)
        )
    correct = {
        candidates[i].source_rank: verdict
        for members, verdict in zip(classes, class_correct)
        for i in members
    }
    pre_correct = correct[candidates[0].source_rank]

    if gate == "paper" and (not any(class_correct) or all(class_correct)):
        return EntryReport(
            entry_id=entry.entry_id,
            pre_top1_correct=pre_correct,
            post_top1_correct=pre_correct,
            gated_out=True,
            tags=entry.tags,
        )

    seed = entry_seed(base_seed, entry.entry_id)
    seeded = replace(config, gen=replace(config.gen, seed=seed))
    oracle = oracle_factory(entry)
    try:
        outcome: RerankOutcome = select_best(
            session, entry.question, candidates, representatives, seeded, oracle
        )
    except Exception as exc:
        return EntryReport(
            entry_id=entry.entry_id,
            pre_top1_correct=pre_correct,
            error=f"select_best: {exc}",
            tags=entry.tags,
        )
    post_correct = correct[outcome.ranked[0].source_rank]
    suite = outcome.suite
    return EntryReport(
        entry_id=entry.entry_id,
        pre_top1_correct=pre_correct,
        post_top1_correct=post_correct,
        skipped_all_same=outcome.skipped_all_same,
        distinguished=suite.distinguished,
        suite_size=len(suite.cases),
        oracle_calls=suite.attempts - suite.dropped_duplicate,
        oracle_unavailable=suite.dropped_unavailable,
        tags=entry.tags,
    )


def evaluate_corpus(
    entries: list[CorpusEntry],
    oracle_factory: Callable[[CorpusEntry], Any],
    config: SuiteConfig,
    gate: str = "paper",
    base_seed: int = 0,
) -> EvalReport:
    _check_gate(gate)
    # Entries by file, in order of first appearance, then by pair, in corpus
    # order within a pair; each report goes back to its corpus index.
    files: dict[str, dict[tuple, list[int]]] = {}
    for i, entry in enumerate(entries):
        files.setdefault(entry.db_file, {}).setdefault(_pair(entry), []).append(i)
    reports: list[EntryReport | None] = [None] * len(entries)
    with Originals() as originals:
        for pairs in files.values():
            for i in chain.from_iterable(pairs.values()):
                reports[i] = evaluate_entry(
                    entries[i], oracle_factory, config, gate, base_seed, originals
                )
            originals.close()  # a file's last session closes with the file
    return build_report(reports)


def build_report(reports: list[EntryReport]) -> EvalReport:
    usable = [r for r in reports if r.error is None]
    evaluated = len(usable)
    ex_before = sum(r.pre_top1_correct for r in usable) / evaluated if evaluated else 0.0
    ex_after = sum(r.post_top1_correct for r in usable) / evaluated if evaluated else 0.0
    return EvalReport(
        entries=tuple(reports),
        evaluated=evaluated,
        ex_before=ex_before,
        ex_after=ex_after,
        gated_out_count=sum(r.gated_out for r in reports),
        skipped_count=sum(r.skipped_all_same for r in reports),
        error_count=sum(r.error is not None for r in reports),
    )


def report_to_json(report: EvalReport) -> dict[str, Any]:
    payload = {
        "entries": [{**vars(r), "tags": list(r.tags)} for r in report.entries],
        "evaluated": report.evaluated,
        "ex_before": report.ex_before,
        "ex_after": report.ex_after,
        "gated_out_count": report.gated_out_count,
        "skipped_count": report.skipped_count,
        "error_count": report.error_count,
    }
    _check_report_consistency(payload)
    return payload


def _check_report_consistency(payload: dict[str, Any]) -> None:
    """The aggregates must recompute from the per-entry rows exactly."""
    rows = payload["entries"]
    usable = [r for r in rows if r["error"] is None]
    expected = {
        "evaluated": len(usable),
        "ex_before": sum(r["pre_top1_correct"] for r in usable) / len(usable) if usable else 0.0,
        "ex_after": sum(r["post_top1_correct"] for r in usable) / len(usable) if usable else 0.0,
        "gated_out_count": sum(r["gated_out"] for r in rows),
        "skipped_count": sum(r["skipped_all_same"] for r in rows),
        "error_count": sum(r["error"] is not None for r in rows),
    }
    for name, value in expected.items():
        if payload[name] != value:
            raise ValueError(
                f"inconsistent report: {name} is {payload[name]!r},"
                f" the entries give {value!r}"
            )


def render_report_table(report: EvalReport) -> str:
    lines = [
        f"{'entry':<24} {'pre':>4} {'post':>5} {'gated':>6} {'suite':>6} {'calls':>6}",
    ]
    for r in report.entries:
        if r.error is not None:
            lines.append(f"{r.entry_id:<24} ERROR {r.error}")
            continue
        lines.append(
            f"{r.entry_id:<24} {'yes' if r.pre_top1_correct else 'no':>4}"
            f" {'yes' if r.post_top1_correct else 'no':>5}"
            f" {'yes' if r.gated_out else 'no':>6}"
            f" {r.suite_size:>6} {r.oracle_calls:>6}"
        )
    lines.append(
        f"EX before={report.ex_before:.3f} after={report.ex_after:.3f}"
        f" evaluated={report.evaluated} gated_out={report.gated_out_count}"
        f" skipped={report.skipped_count} errors={report.error_count}"
    )
    return "\n".join(lines)


def dump_report(report: EvalReport) -> str:
    return json.dumps(report_to_json(report), sort_keys=True, indent=2) + "\n"
