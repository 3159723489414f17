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
from dataclasses import dataclass, replace
from typing import Any, Callable

from .corpus import CorpusEntry, apply_type_overrides
from .dbio import read_database
from .executor import OutcomeKind, Session, execute, results_equal_relaxed
from .instance import DatabaseInstance
from .suite import RerankOutcome, SuiteConfig, classify_candidates, dump_json, select_best


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
    """A corpus run's entry reports, in corpus order; the totals derive from them."""

    entries: tuple[EntryReport, ...]

    @property
    def evaluated(self) -> int:
        return sum(r.error is None for r in self.entries)

    @property
    def ex_before(self) -> float:
        return self._rate("pre_top1_correct")

    @property
    def ex_after(self) -> float:
        return self._rate("post_top1_correct")

    @property
    def gated_out_count(self) -> int:
        return sum(r.gated_out for r in self.entries)

    @property
    def skipped_count(self) -> int:
        return sum(r.skipped_all_same for r in self.entries)

    @property
    def error_count(self) -> int:
        return sum(r.error is not None for r in self.entries)

    def _rate(self, field: str) -> float:
        usable = [getattr(r, field) for r in self.entries if r.error is None]
        return sum(usable) / len(usable) if usable else 0.0


def entry_seed(base_seed: int, entry_id: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{entry_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


GATES = ("paper", "none")


def _check_gate(gate: str) -> None:
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}")


def _read_or_error(db_file: str) -> DatabaseInstance | str:
    try:
        return read_database(db_file)
    except Exception as exc:  # recorded per entry, not fatal
        return str(exc)


def _open_original(db: DatabaseInstance | str, entry: CorpusEntry) -> Session | str:
    """A session on the entry's original: the file's instance `db` under the
    entry's type overrides. Or the error text of reading the file, or of
    applying the overrides."""
    if isinstance(db, str):
        return db
    try:
        return Session(apply_type_overrides(db, entry.type_overrides))
    except Exception as exc:  # recorded per entry, as a read failure is
        return str(exc)


def evaluate_entry(
    entry: CorpusEntry,
    oracle_factory: Callable[[CorpusEntry], Any],
    config: SuiteConfig,
    gate: str = "paper",
    base_seed: int = 0,
    original: Session | str | None = None,
) -> EntryReport:
    """Evaluate one entry on `original`, the session a corpus run opened on
    the entry's original, or the error text opening it gave; the session
    stays open for the pair's next entry. With None, the entry runs as a
    corpus of its own, which opens and closes its original."""
    _check_gate(gate)
    if entry.gold_sql is None:
        return EntryReport(entry_id=entry.entry_id, error="missing gold_sql", tags=entry.tags)
    if original is None:
        return evaluate_corpus([entry], oracle_factory, config, gate, base_seed).entries[0]
    if isinstance(original, str):  # per-entry failures are recorded, not fatal
        return EntryReport(
            entry_id=entry.entry_id, error=f"database load: {original}", tags=entry.tags
        )
    # One session on the original database serves the gold run, the
    # classification, the gate, both top-1 checks and the re-rank.
    gold_outcome = execute(original, entry.gold_sql)
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
    classes, representatives = classify_candidates(original, candidates)
    class_correct = []
    for rep in representatives:
        rep_outcome = execute(original, rep.sql)
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
            original, entry.question, candidates, representatives, seeded, oracle
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
        oracle_calls=suite.attempts - suite.dropped_duplicate - suite.dropped_malformed,
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
    """Evaluate the entries one original at a time. Each file is read once,
    and each (file, type overrides) pair gets one session that its entries
    share: it loads once, and its memo runs no statement twice.
    Overrides change declared types, and so the affinity rows get on insert,
    which is why a session belongs to the pair. A pair's session closes when
    its entries are done, also on an exception.
    """
    _check_gate(gate)
    # Entries by file, in order of first appearance, then by pair, in corpus
    # order within a pair; each report goes back to its corpus index.
    files: dict[str, dict[tuple, list[int]]] = {}
    for i, entry in enumerate(entries):
        pair = tuple(sorted(entry.type_overrides.items()))
        files.setdefault(entry.db_file, {}).setdefault(pair, []).append(i)
    reports: list[EntryReport | None] = [None] * len(entries)
    for db_file, pairs in files.items():
        db = _read_or_error(db_file)
        for indices in pairs.values():
            original = _open_original(db, entries[indices[0]])
            try:
                for i in indices:
                    reports[i] = evaluate_entry(
                        entries[i], oracle_factory, config, gate, base_seed, original
                    )
            finally:
                if isinstance(original, Session):
                    original.close()
                original = None  # its memo goes before the next pair loads
        db = None  # the instance goes before the next file is read
    return EvalReport(tuple(reports))


def report_to_json(report: EvalReport) -> dict[str, Any]:
    return {
        "entries": [{**vars(r), "tags": list(r.tags)} for r in report.entries],
        "evaluated": report.evaluated,
        "ex_before": report.ex_before,
        "ex_after": report.ex_after,
        "gated_out_count": report.gated_out_count,
        "skipped_count": report.skipped_count,
        "error_count": report.error_count,
    }


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
    return dump_json(report_to_json(report))
