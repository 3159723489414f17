"""Candidate classification, distinguishing test-suite generation, re-ranking.

The selection pipeline has three steps: group candidates into behavior
classes by the `result_canonical_key` of their outcomes on the original
database (keys keep row order, so a class gets one verdict); generate up to
N test databases whose signatures (the tuple of the representatives' keys on
that database) differ, asking the oracle for each kept database's expected
result; then order candidates by how many test cases they pass, breaking
ties by generation probability and original rank. Signatures live only
inside `generate_suite` and are never written out.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Any

from .dbgen import (
    GenConfig,
    GenMethod,
    constrain_numbers,
    fuzz_database,
    prune_schema,
    sample_database,
)
from .executor import (
    ExecutionOutcome,
    ExecutionResult,
    OutcomeKind,
    Session,
    execute,
    result_canonical_key,
    results_equal,
    results_equal_relaxed,
)
from .instance import DatabaseInstance, instance_from_json, instance_to_json
from .oracle import build_request
from .promptgen import PromptConfig

@dataclass(frozen=True)
class Candidate:
    sql: str
    probability: float | None = None
    source_rank: int = 0

    def __post_init__(self) -> None:
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        if self.source_rank < 0:
            raise ValueError("source_rank must be non-negative")


@dataclass(frozen=True)
class TestCase:
    db: DatabaseInstance
    expected: ExecutionResult
    oracle_tag: str = ""
    # The session that runs SQL on db; a lazily loading one when None is given.
    session: Session = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.session is None:
            object.__setattr__(self, "session", Session(self.db))


@dataclass(frozen=True)
class SuiteConfig:
    max_test_cases: int = 10
    gen: GenConfig = field(default_factory=GenConfig)
    prompt: PromptConfig = field(default_factory=PromptConfig)
    relaxed: bool = True

    def __post_init__(self) -> None:
        if self.max_test_cases < 1:
            raise ValueError("max_test_cases must be at least 1")


@dataclass(frozen=True)
class TestSuite:
    cases: tuple[TestCase, ...] = ()
    attempts: int = 0
    dropped_duplicate: int = 0
    dropped_unavailable: int = 0
    distinguished: bool = False

    def close(self) -> None:
        """Release the cases' sessions; a later new statement loads again."""
        for case in self.cases:
            case.session.close()


@dataclass(frozen=True)
class CandidateScore:
    candidate: Candidate
    pass_count: int


@dataclass(frozen=True)
class RerankOutcome:
    ranked: tuple[Candidate, ...]
    scores: tuple[CandidateScore, ...]
    suite: TestSuite
    skipped_all_same: bool = False
    oracle_unavailable_count: int = 0


def _validate_candidates(candidates: list[Candidate]) -> None:
    if not candidates:
        raise ValueError("candidate list is empty")
    ranks = [c.source_rank for c in candidates]
    if len(set(ranks)) != len(ranks):
        raise ValueError("candidate source_rank values must be unique")


def classify_candidates(
    session: Session, candidates: list[Candidate]
) -> tuple[list[list[int]], list[Candidate]]:
    """Group candidates by their behavior on the session's database.

    A class's outcomes share one `result_canonical_key`, so its members get
    one verdict against any expected result. Returns (classes,
    representatives): classes are candidate-index lists in first-appearance
    order; each class's representative is its member with the highest
    probability (absent probability loses to any), ties broken by the lowest
    source_rank.
    """
    _validate_candidates(candidates)
    by_key: dict[tuple | OutcomeKind, list[int]] = {}
    for i, candidate in enumerate(candidates):
        key = result_canonical_key(execute(session, candidate.sql))
        by_key.setdefault(key, []).append(i)
    classes = list(by_key.values())

    def _rep_sort_key(i: int):
        p = candidates[i].probability
        return (-(p if p is not None else -1.0), candidates[i].source_rank)

    representatives = [candidates[min(members, key=_rep_sort_key)] for members in classes]
    return classes, representatives


def _pairwise_distinguished(signatures: list[tuple], n_reps: int) -> bool:
    if n_reps < 2:
        return True
    for p in range(n_reps):
        for q in range(p + 1, n_reps):
            if not any(sig[p] != sig[q] for sig in signatures):
                return False
    return True


def generate_suite(
    original: DatabaseInstance | Session,
    question: str,
    representatives: list[Candidate],
    config: SuiteConfig,
    oracle,
    all_sqls: list[str] | None = None,
) -> TestSuite:
    """Generate up to config.max_test_cases distinguishing test cases.

    Each iteration generates a database (pruned against all candidate SQLs
    and with aggregation/sort columns constrained to small integers), drops
    it if its signature, the tuple of each representative's
    `result_canonical_key` on it, duplicates a kept one, otherwise asks the
    oracle for the expected result (dropping the case when the oracle is
    unavailable). The loop stops early once the kept cases distinguish every
    representative pair. The signatures are not part of the suite.

    The candidates are analysed on the original's session, when one is
    given, from the reads it recorded running them; random selection draws
    from the original's rows onto the pruned schema.

    Each database is loaded once, into the session that computes its
    signature and serves the oracle request. A kept case owns that session,
    still loaded for `rerank`, and `TestSuite.close` releases it; the session
    of a dropped database is closed at once.
    """
    if len(representatives) < 2:
        return TestSuite()
    sqls = all_sqls if all_sqls is not None else [r.sql for r in representatives]

    schema, targets = prune_schema(original, sqls)
    original_db = original.db if isinstance(original, Session) else original

    master = random.Random(config.gen.seed)
    kept_cases: list[TestCase] = []
    kept_signatures: list[tuple] = []
    signature_set: set[tuple] = set()
    attempts = dropped_duplicate = dropped_unavailable = 0
    oracle_tag = getattr(oracle, "tag", "")

    session: Session | None = None
    try:
        for _ in range(config.max_test_cases):
            attempts += 1
            # One seed per iteration, drawn unconditionally so the database
            # sequence does not depend on oracle behavior.
            iteration_seed = master.getrandbits(63)
            gen_config = replace(config.gen, seed=iteration_seed)
            if gen_config.method is GenMethod.FUZZING:
                candidate_db = fuzz_database(schema, gen_config)
            else:
                candidate_db = sample_database(original_db, gen_config, schema)
            if targets:
                candidate_db = constrain_numbers(candidate_db, targets, gen_config)

            session = Session(candidate_db)
            signature = tuple(
                result_canonical_key(execute(session, rep.sql)) for rep in representatives
            )
            if signature in signature_set:
                session.close()
                dropped_duplicate += 1
                continue

            # The oracle is consulted only for databases worth keeping.
            prediction = oracle.predict(build_request(session, question, config.prompt))
            if not prediction.is_available:
                session.close()
                dropped_unavailable += 1
                continue
            assert prediction.result is not None
            kept_cases.append(
                TestCase(
                    db=candidate_db,
                    expected=prediction.result,
                    oracle_tag=oracle_tag,
                    session=session,
                )
            )
            kept_signatures.append(signature)
            signature_set.add(signature)
            if _pairwise_distinguished(kept_signatures, len(representatives)):
                break
    except BaseException:
        # No suite is handed out, so release every session opened so far.
        for case in kept_cases:
            case.session.close()
        if session is not None:
            session.close()
        raise

    return TestSuite(
        cases=tuple(kept_cases),
        attempts=attempts,
        dropped_duplicate=dropped_duplicate,
        dropped_unavailable=dropped_unavailable,
        distinguished=bool(kept_signatures)
        and _pairwise_distinguished(kept_signatures, len(representatives)),
    )


def pass_count(candidate: Candidate, suite: TestSuite, relaxed: bool = True) -> int:
    return _pass_counts([candidate], suite, relaxed)[candidate.source_rank]


def _pass_counts(
    candidates: list[Candidate], suite: TestSuite, relaxed: bool
) -> dict[int, int]:
    """Pass counts by source_rank, each case's SQL run on its own session."""
    counts = {c.source_rank: 0 for c in candidates}
    for case in suite.cases:
        for c in candidates:
            counts[c.source_rank] += _passes(execute(case.session, c.sql), case, relaxed)
    return counts


def _passes(outcome: ExecutionOutcome, case: TestCase, relaxed: bool) -> bool:
    compare = results_equal_relaxed if relaxed else results_equal
    return (
        outcome.kind is OutcomeKind.OK
        and outcome.result is not None
        and compare(outcome.result, case.expected)
    )


def rerank(candidates: list[Candidate], suite: TestSuite, relaxed: bool = True) -> RerankOutcome:
    """Order candidates by pass count, then probability, then original rank.

    An empty suite leaves the input order untouched.
    """
    _validate_candidates(candidates)
    if not suite.cases:
        scores = tuple(CandidateScore(c, 0) for c in candidates)
        return RerankOutcome(
            ranked=tuple(candidates),
            scores=scores,
            suite=suite,
            oracle_unavailable_count=suite.dropped_unavailable,
        )
    counts = _pass_counts(candidates, suite, relaxed)

    def _sort_key(c: Candidate):
        has_probability = c.probability is not None
        return (
            -counts[c.source_rank],
            0 if has_probability else 1,
            -(c.probability if has_probability else 0.0),
            c.source_rank,
        )

    ranked = tuple(sorted(candidates, key=_sort_key))
    scores = tuple(CandidateScore(c, counts[c.source_rank]) for c in ranked)
    return RerankOutcome(
        ranked=ranked,
        scores=scores,
        suite=suite,
        oracle_unavailable_count=suite.dropped_unavailable,
    )


def select_best(
    session: Session,
    question: str,
    candidates: list[Candidate],
    config: SuiteConfig,
    oracle,
) -> RerankOutcome:
    """classify -> generate_suite -> rerank; skips when one behavior class.

    The suite's sessions are released once the re-rank is done.
    """
    _validate_candidates(candidates)
    classes, representatives = classify_candidates(session, candidates)
    if len(classes) <= 1:
        return RerankOutcome(
            ranked=tuple(candidates),
            scores=tuple(CandidateScore(c, 0) for c in candidates),
            suite=TestSuite(),
            skipped_all_same=True,
        )
    suite = generate_suite(
        session,
        question,
        representatives,
        config,
        oracle,
        all_sqls=[c.sql for c in candidates],
    )
    try:
        return rerank(candidates, suite, config.relaxed)
    finally:
        suite.close()


def _result_to_json(result: ExecutionResult) -> dict[str, Any]:
    return {
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "order_significant": result.order_significant,
    }


def _result_from_json(payload: dict[str, Any]) -> ExecutionResult:
    return ExecutionResult(
        columns=tuple(payload["columns"]),
        rows=tuple(tuple(row) for row in payload["rows"]),
        order_significant=bool(payload.get("order_significant", False)),
    )


def suite_to_json(suite: TestSuite) -> dict[str, Any]:
    return {
        "cases": [
            {
                "db": instance_to_json(case.db),
                "expected": _result_to_json(case.expected),
                "oracle_tag": case.oracle_tag,
            }
            for case in suite.cases
        ],
        "attempts": suite.attempts,
        "dropped_duplicate": suite.dropped_duplicate,
        "dropped_unavailable": suite.dropped_unavailable,
        "distinguished": suite.distinguished,
    }


def suite_from_json(payload: dict[str, Any]) -> TestSuite:
    return TestSuite(
        cases=tuple(
            TestCase(
                db=instance_from_json(case["db"]),
                expected=_result_from_json(case["expected"]),
                oracle_tag=case.get("oracle_tag", ""),
            )
            for case in payload["cases"]
        ),
        attempts=payload.get("attempts", 0),
        dropped_duplicate=payload.get("dropped_duplicate", 0),
        dropped_unavailable=payload.get("dropped_unavailable", 0),
        distinguished=payload.get("distinguished", False),
    )


def outcome_to_json(outcome: RerankOutcome) -> dict[str, Any]:
    return {
        "ranked": [
            {
                "sql": score.candidate.sql,
                "probability": score.candidate.probability,
                "source_rank": score.candidate.source_rank,
                "pass_count": score.pass_count,
            }
            for score in outcome.scores
        ],
        "suite": suite_to_json(outcome.suite),
        "skipped_all_same": outcome.skipped_all_same,
        "oracle_unavailable_count": outcome.oracle_unavailable_count,
    }


def dump_json(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
