import json

import pytest

import sqlrerank.executor
from sqlrerank.dbgen import GenConfig, GenMethod, prune_schema
from sqlrerank.executor import (
    ExecutionResult,
    OutcomeKind,
    Session,
    execute,
    result_canonical_key,
    results_equal,
)
from sqlrerank.oracle import OraclePrediction, ReferenceOracle
from sqlrerank.suite import (
    Candidate,
    CandidateScore,
    RerankOutcome,
    SuiteConfig,
    TestCase,
    TestSuite,
    classify_candidates,
    dump_json,
    generate_suite,
    outcome_to_json,
    rerank,
    select_best,
    suite_from_json,
    suite_to_json,
)

from conftest import ROWID_CHILD_CANDIDATES, rowid_child_of_real_key
from refimpl import foreign_key_violations


def cand(sql, probability=None, rank=None, _counter=[0]):
    if rank is None:
        rank = _counter[0]
        _counter[0] += 1
    return Candidate(sql=sql, probability=probability, source_rank=rank)


def fuzz_suite_cfg(**kw):
    gen = GenConfig(method=GenMethod.FUZZING, seed=kw.pop("seed", 0), mts=kw.pop("mts", 5))
    return SuiteConfig(gen=gen, **kw)


def pick_suite_cfg(**kw):
    gen = GenConfig(method=GenMethod.RANDOM_SELECTION, seed=kw.pop("seed", 0), mts=kw.pop("mts", 3))
    return SuiteConfig(gen=gen, **kw)


class RecordingOracle:
    """Delegates to an inner oracle, remembering each request's database."""

    tag = "recording"

    def __init__(self, inner=None, fail_first=0):
        self.inner = inner
        self.fail_first = fail_first
        self.request_dbs = []

    def predict(self, request):
        self.request_dbs.append(request.session.db)
        if len(self.request_dbs) <= self.fail_first or self.inner is None:
            return OraclePrediction.unavailable("forced")
        return self.inner.predict(request)


# --- candidate validation ------------------------------------------------------


def test_candidate_validation():
    with pytest.raises(ValueError):
        Candidate(sql="SELECT 1", probability=1.5)
    with pytest.raises(ValueError):
        Candidate(sql="SELECT 1", source_rank=-1)


def test_duplicate_ranks_rejected(student_instance):
    pair = [Candidate("SELECT 1", source_rank=0), Candidate("SELECT 2", source_rank=0)]
    with pytest.raises(ValueError):
        classify_candidates(Session(student_instance), pair)
    with pytest.raises(ValueError):
        rerank(pair, TestSuite())


def test_empty_candidates_rejected(student_instance):
    with pytest.raises(ValueError):
        classify_candidates(Session(student_instance), [])


# --- classification ---------------------------------------------------------------


def test_classify_groups_equivalent_sql(student_instance):
    candidates = [
        Candidate("SELECT name FROM student", source_rank=0),
        Candidate("SELECT student.name FROM student", source_rank=1),
        Candidate("SELECT age FROM student", source_rank=2),
    ]
    classes, reps = classify_candidates(Session(student_instance), candidates)
    assert classes == [[0, 1], [2]]
    assert reps[0].source_rank == 0
    assert reps[1].source_rank == 2


def test_classify_survives_infinite_results(student_instance):
    candidates = [
        Candidate("SELECT 1e999", source_rank=0),
        Candidate("SELECT -1e999", source_rank=1),
        Candidate("SELECT 2e999", source_rank=2),
    ]
    classes, _ = classify_candidates(Session(student_instance), candidates)
    assert classes == [[0, 2], [1]]
    inf = execute(student_instance, "SELECT 1e999").result
    assert inf.rows == ((float("inf"),),)
    assert results_equal(inf, execute(student_instance, "SELECT 2e999").result)


def test_classify_first_appearance_order(student_instance):
    candidates = [
        Candidate("SELECT age FROM student", source_rank=0),
        Candidate("SELECT name FROM student", source_rank=1),
        Candidate("SELECT student.age FROM student", source_rank=2),
    ]
    classes, _ = classify_candidates(Session(student_instance), candidates)
    assert classes == [[0, 2], [1]]


def test_classify_representative_prefers_probability(student_instance):
    candidates = [
        Candidate("SELECT name FROM student", probability=0.1, source_rank=0),
        Candidate("SELECT student.name FROM student", probability=0.9, source_rank=1),
    ]
    _, reps = classify_candidates(Session(student_instance), candidates)
    assert reps[0].source_rank == 1


def test_classify_missing_probability_loses(student_instance):
    candidates = [
        Candidate("SELECT name FROM student", source_rank=0),
        Candidate("SELECT student.name FROM student", probability=0.01, source_rank=1),
    ]
    _, reps = classify_candidates(Session(student_instance), candidates)
    assert reps[0].source_rank == 1


def test_classify_probability_tie_breaks_by_rank(student_instance):
    candidates = [
        Candidate("SELECT student.name FROM student", probability=0.5, source_rank=3),
        Candidate("SELECT name FROM student", probability=0.5, source_rank=1),
    ]
    _, reps = classify_candidates(Session(student_instance), candidates)
    assert reps[0].source_rank == 1


def test_classify_errors_share_a_class(student_instance):
    candidates = [
        Candidate("SELECT broken_a FROM student", source_rank=0),
        Candidate("SELECT broken_b FROM nowhere", source_rank=1),
        Candidate("SELECT name FROM student", source_rank=2),
    ]
    classes, _ = classify_candidates(Session(student_instance), candidates)
    assert classes == [[0, 1], [2]]


def test_classify_order_flag_splits_classes(student_instance):
    # Same rows, but one result is order-significant: kept apart on purpose,
    # costing at most an extra oracle call downstream.
    candidates = [
        Candidate("SELECT age FROM student ORDER BY age", source_rank=0),
        Candidate("SELECT age FROM student", source_rank=1),
    ]
    classes, _ = classify_candidates(Session(student_instance), candidates)
    assert len(classes) == 2


# --- suite generation ----------------------------------------------------------------


GOLD_MIN = "SELECT min(age) FROM student"
WRONG_MAX = "SELECT max(age) FROM student"


def _min_max_reps():
    return [
        Candidate(GOLD_MIN, source_rank=0),
        Candidate(WRONG_MAX, source_rank=1),
    ]


def test_generate_suite_single_rep_is_empty(student_instance):
    suite = generate_suite(
        student_instance, "q", [Candidate(GOLD_MIN, source_rank=0)],
        pick_suite_cfg(), ReferenceOracle(GOLD_MIN),
    )
    assert suite == TestSuite()


def _fresh_signatures(suite, reps):
    """Each kept case's signature, from fresh executions on its database."""
    return [
        tuple(result_canonical_key(execute(case.db, rep.sql)) for rep in reps)
        for case in suite.cases
    ]


def test_generate_suite_distinguishes_min_max(student_instance):
    for cfg in (pick_suite_cfg(), fuzz_suite_cfg()):
        suite = generate_suite(
            student_instance, "lowest age?", _min_max_reps(), cfg, ReferenceOracle(GOLD_MIN)
        )
        assert suite.distinguished
        assert 1 <= len(suite.cases) <= cfg.max_test_cases
        # Early stop: min vs max differ on any db with two distinct ages.
        last = _fresh_signatures(suite, _min_max_reps())[-1]
        assert last[0] != last[1]


def test_generate_suite_respects_max(student_instance):
    cfg = pick_suite_cfg(max_test_cases=3)
    suite = generate_suite(
        student_instance, "q", _min_max_reps(), cfg, ReferenceOracle(GOLD_MIN)
    )
    assert suite.attempts <= 3
    assert len(suite.cases) <= 3


def test_generate_suite_signatures_unique(student_instance):
    reps = _min_max_reps()
    suite = generate_suite(student_instance, "q", reps, pick_suite_cfg(), ReferenceOracle(GOLD_MIN))
    signatures = _fresh_signatures(suite, reps)
    assert len(signatures) == len(suite.cases) >= 1
    assert len(set(signatures)) == len(signatures)


def test_generate_suite_dbs_are_fk_valid_and_pruned(chain_instance):
    reps = [
        Candidate("SELECT min(cval) FROM child", source_rank=0),
        Candidate("SELECT max(cval) FROM child", source_rank=1),
    ]
    for cfg in (pick_suite_cfg(), fuzz_suite_cfg()):
        suite = generate_suite(
            chain_instance, "q", reps, cfg, ReferenceOracle("SELECT min(cval) FROM child")
        )
        for case in suite.cases:
            assert foreign_key_violations(case.db) == []
            # grandchild is referenced by no candidate, so pruning removed it.
            assert tuple(t.name for t in case.db.schema.tables) == ("child",)


def test_generate_suite_constrains_sort_columns(student_instance):
    reps = [
        Candidate("SELECT name FROM student ORDER BY age ASC", source_rank=0),
        Candidate("SELECT name FROM student ORDER BY age DESC", source_rank=1),
    ]
    suite = generate_suite(
        student_instance, "q", reps, fuzz_suite_cfg(),
        ReferenceOracle("SELECT name FROM student ORDER BY age ASC"),
    )
    assert suite.cases
    for case in suite.cases:
        i = case.db.schema.table("student").index("age")
        ages = [row[i] for row in case.db.data_for("student").rows]
        assert all(isinstance(a, int) and 1 <= a <= 10 for a in ages)


def test_primary_key_is_not_constrained(flat_instance):
    """Constraining a key to a small range would make its values collide."""
    reps = [
        Candidate("SELECT name FROM stadium ORDER BY id LIMIT 2", source_rank=0),
        Candidate("SELECT name FROM stadium ORDER BY id DESC LIMIT 2", source_rank=1),
    ]
    assert prune_schema(flat_instance, [r.sql for r in reps])[1] == set()
    oracle = RecordingOracle(inner=ReferenceOracle(reps[0].sql))
    for cfg in (pick_suite_cfg(max_test_cases=4), fuzz_suite_cfg(max_test_cases=4)):
        suite = generate_suite(flat_instance, "q", reps, cfg, oracle)
        assert suite.dropped_unavailable == 0
    for db in oracle.request_dbs:
        assert execute(db, "SELECT count(*) FROM stadium").kind is OutcomeKind.OK


def test_generate_suite_unavailable_oracle(student_instance):
    oracle = RecordingOracle()  # never answers
    cfg = pick_suite_cfg(max_test_cases=4)
    suite = generate_suite(student_instance, "q", _min_max_reps(), cfg, oracle)
    assert suite.cases == ()
    assert not suite.distinguished
    assert suite.attempts == 4
    assert suite.dropped_unavailable == len(oracle.request_dbs)


def test_a_draw_with_no_valid_database_is_dropped_and_not_asked():
    """Each draw's MalformedDatabase is counted, asks no oracle and ends
    neither the suite nor the re-rank."""
    db = rowid_child_of_real_key()
    candidates = [cand(sql, rank=i) for i, sql in enumerate(ROWID_CHILD_CANDIDATES)]
    oracle = RecordingOracle(ReferenceOracle(candidates[0].sql))
    with Session(db) as session:
        _, reps = classify_candidates(session, candidates)
        outcome = select_best(session, "q", candidates, reps, fuzz_suite_cfg(), oracle)
    suite = outcome.suite
    assert suite.attempts == suite.dropped_malformed == 10 and oracle.request_dbs == []
    assert outcome.ranked == tuple(candidates)
    assert suite_from_json(suite_to_json(suite)) == suite
    assert suite_from_json({"cases": []}).dropped_malformed == 0


def test_generate_suite_deterministic(student_instance):
    runs = [
        generate_suite(
            student_instance, "q", _min_max_reps(), pick_suite_cfg(seed=5),
            ReferenceOracle(GOLD_MIN),
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_generate_suite_seed_changes_dbs(student_instance):
    a = generate_suite(
        student_instance, "q", _min_max_reps(), fuzz_suite_cfg(seed=1),
        ReferenceOracle(GOLD_MIN),
    )
    b = generate_suite(
        student_instance, "q", _min_max_reps(), fuzz_suite_cfg(seed=2),
        ReferenceOracle(GOLD_MIN),
    )
    assert a.cases[0].db != b.cases[0].db


def test_generate_suite_db_sequence_ignores_oracle(student_instance):
    """Iteration seeds are drawn before the oracle speaks, so availability
    cannot shift which databases get generated."""
    cfg = pick_suite_cfg(seed=9, max_test_cases=5)
    always = RecordingOracle(inner=ReferenceOracle(GOLD_MIN))
    flaky = RecordingOracle(inner=ReferenceOracle(GOLD_MIN), fail_first=1)
    never = RecordingOracle()
    for oracle in (always, flaky, never):
        generate_suite(student_instance, "q", _min_max_reps(), cfg, oracle)
    assert always.request_dbs[0] == never.request_dbs[0]
    assert flaky.request_dbs[:2] == never.request_dbs[:2]


def _undistinguished_reps():
    """Two representatives no database tells apart, so generation never stops
    early and keeps every case with a new signature."""
    return [
        Candidate(GOLD_MIN, source_rank=0),
        Candidate("SELECT min(age) FROM student WHERE 1 = 1", source_rank=1),
    ]


def test_generate_suite_closes_its_sessions_when_the_oracle_raises(
    student_instance, monkeypatch
):
    opened, closed = [], []
    real_init, real_close = Session.__init__, Session.close
    monkeypatch.setattr(
        Session, "__init__", lambda self, db: opened.append(self) or real_init(self, db)
    )
    monkeypatch.setattr(Session, "close", lambda self: closed.append(self) or real_close(self))

    class FailingOracle(RecordingOracle):
        def predict(self, request):
            if len(self.request_dbs) == 2:
                raise RuntimeError("oracle down")
            return super().predict(request)

    with pytest.raises(RuntimeError, match="oracle down"):
        generate_suite(
            student_instance, "q", _undistinguished_reps(), pick_suite_cfg(max_test_cases=10),
            FailingOracle(inner=ReferenceOracle(GOLD_MIN)),
        )
    # Two kept cases and the database the oracle failed on, at least.
    assert len(opened) >= 3
    assert {id(session) for session in closed} == {id(session) for session in opened}


# --- pass counting and reranking ------------------------------------------------------


def _handmade_suite(student_instance):
    outcome = execute(student_instance, GOLD_MIN)
    return TestSuite(
        cases=(TestCase(db=student_instance, expected=outcome.result, oracle_tag="x"),),
        attempts=1,
        distinguished=True,
    )


def pass_count(candidate, suite, relaxed=True):
    return rerank([candidate], suite, relaxed).scores[0].pass_count


def test_pass_count(student_instance):
    suite = _handmade_suite(student_instance)
    assert pass_count(Candidate(GOLD_MIN, source_rank=0), suite) == 1
    assert pass_count(Candidate(WRONG_MAX, source_rank=0), suite) == 0
    assert pass_count(Candidate("SELECT broken FROM student", source_rank=0), suite) == 0


def test_pass_count_relaxed_vs_exact(student_instance):
    suite = _handmade_suite(student_instance)
    wider = Candidate("SELECT min(age), 'extra' FROM student", source_rank=0)
    assert pass_count(wider, suite, relaxed=True) == 1
    assert pass_count(wider, suite, relaxed=False) == 0


def test_rerank_orders_by_pass_count(student_instance):
    suite = _handmade_suite(student_instance)
    candidates = [
        Candidate(WRONG_MAX, source_rank=0),
        Candidate(GOLD_MIN, source_rank=1),
    ]
    outcome = rerank(candidates, suite)
    assert outcome.ranked[0].sql == GOLD_MIN
    assert [s.pass_count for s in outcome.scores] == [1, 0]
    assert [s.candidate.sql for s in outcome.scores] == [c.sql for c in outcome.ranked]


def test_rerank_tie_breaks(student_instance):
    suite = _handmade_suite(student_instance)
    # All three fail every case; ties fall back to probability then rank.
    candidates = [
        Candidate(WRONG_MAX, source_rank=0),
        Candidate("SELECT max(age) + 0 FROM student", probability=0.7, source_rank=1),
        Candidate("SELECT max(age) + 0.0 FROM student", probability=0.2, source_rank=2),
    ]
    outcome = rerank(candidates, suite)
    assert [c.source_rank for c in outcome.ranked] == [1, 2, 0]


def test_rerank_probability_beats_none_only_within_tier(student_instance):
    suite = _handmade_suite(student_instance)
    candidates = [
        Candidate(GOLD_MIN, source_rank=0),  # passes, no probability
        Candidate(WRONG_MAX, probability=0.99, source_rank=1),  # fails, with probability
    ]
    outcome = rerank(candidates, suite)
    assert outcome.ranked[0].sql == GOLD_MIN


def test_rerank_empty_suite_keeps_order(student_instance):
    candidates = [
        Candidate(WRONG_MAX, source_rank=0),
        Candidate(GOLD_MIN, source_rank=1),
    ]
    outcome = rerank(candidates, TestSuite(dropped_unavailable=3))
    assert outcome.ranked == tuple(candidates)
    assert all(s.pass_count == 0 for s in outcome.scores)
    assert outcome.suite.dropped_unavailable == 3


def test_rerank_is_stable_for_equal_keys(student_instance):
    suite = _handmade_suite(student_instance)
    candidates = [
        Candidate(WRONG_MAX, source_rank=0),
        Candidate("SELECT max(age) FROM student WHERE 1 = 1", source_rank=1),
    ]
    outcome = rerank(candidates, suite)
    assert [c.source_rank for c in outcome.ranked] == [0, 1]


def test_rerank_of_a_loaded_suite_loads_each_case_database_once(student_instance, monkeypatch):
    generated = generate_suite(
        student_instance, "q", _undistinguished_reps(), pick_suite_cfg(max_test_cases=4),
        ReferenceOracle(GOLD_MIN),
    )
    generated.close()
    suite = suite_from_json(suite_to_json(generated))
    assert len(suite.cases) >= 2
    loads = []
    real_load = sqlrerank.executor.load_into_connection
    monkeypatch.setattr(
        sqlrerank.executor,
        "load_into_connection",
        lambda db, conn: loads.append(db) or real_load(db, conn),
    )
    candidates = [
        Candidate(WRONG_MAX, source_rank=0),
        Candidate(GOLD_MIN, source_rank=1),
        Candidate("SELECT broken FROM student", source_rank=2),
    ]
    first = rerank(candidates, suite)
    assert first.ranked[0].sql == GOLD_MIN
    assert [id(db) for db in loads] == [id(case.db) for case in suite.cases]
    # The same candidates again are served by the cases' sessions.
    assert rerank(candidates, suite) == first
    assert len(loads) == len(suite.cases)
    suite.close()


# --- select_best ---------------------------------------------------------------------------


def test_select_best_skips_single_class(student_instance):
    candidates = [
        Candidate("SELECT name FROM student", source_rank=0),
        Candidate("SELECT student.name FROM student", source_rank=1),
    ]
    session = Session(student_instance)
    _, reps = classify_candidates(session, candidates)
    outcome = select_best(
        session, "q", candidates, reps, pick_suite_cfg(), ReferenceOracle(GOLD_MIN)
    )
    assert outcome.skipped_all_same
    assert outcome.ranked == tuple(candidates)
    assert outcome.suite.cases == ()


def test_select_best_promotes_gold(student_instance):
    candidates = [
        Candidate(WRONG_MAX, probability=0.9, source_rank=0),
        Candidate(GOLD_MIN, probability=0.1, source_rank=1),
    ]
    for cfg in (pick_suite_cfg(), fuzz_suite_cfg()):
        session = Session(student_instance)
        _, reps = classify_candidates(session, candidates)
        outcome = select_best(
            session, "lowest age?", candidates, reps, cfg, ReferenceOracle(GOLD_MIN)
        )
        assert not outcome.skipped_all_same
        assert outcome.ranked[0].sql == GOLD_MIN


def test_select_best_class_members_rank_together(student_instance):
    candidates = [
        Candidate(WRONG_MAX, probability=0.9, source_rank=0),
        Candidate(GOLD_MIN, probability=0.5, source_rank=1),
        Candidate("SELECT min(age) FROM student WHERE 1 = 1", probability=0.4, source_rank=2),
    ]
    session = Session(student_instance)
    _, reps = classify_candidates(session, candidates)
    outcome = select_best(
        session, "q", candidates, reps, pick_suite_cfg(), ReferenceOracle(GOLD_MIN)
    )
    assert [c.source_rank for c in outcome.ranked] == [1, 2, 0]


def test_select_best_unavailable_oracle_keeps_order(student_instance):
    candidates = [
        Candidate(WRONG_MAX, source_rank=0),
        Candidate(GOLD_MIN, source_rank=1),
    ]
    cfg = pick_suite_cfg(max_test_cases=4)
    session = Session(student_instance)
    _, reps = classify_candidates(session, candidates)
    outcome = select_best(session, "q", candidates, reps, cfg, RecordingOracle())
    assert outcome.ranked == tuple(candidates)
    assert outcome.suite.dropped_unavailable == 4
    assert not outcome.skipped_all_same


def test_select_best_loads_each_database_once(student_instance, monkeypatch):
    loads, closed = [], []
    real_load, real_close = sqlrerank.executor.load_into_connection, Session.close
    monkeypatch.setattr(
        sqlrerank.executor,
        "load_into_connection",
        lambda db, conn: loads.append(db) or real_load(db, conn),
    )
    monkeypatch.setattr(Session, "close", lambda self: closed.append(self) or real_close(self))
    candidates = [
        Candidate(WRONG_MAX, probability=0.9, source_rank=0),
        Candidate(GOLD_MIN, probability=0.1, source_rank=1),
    ]
    with Session(student_instance) as session:
        _, reps = classify_candidates(session, candidates)
        outcome = select_best(
            session, "q", candidates, reps, pick_suite_cfg(), ReferenceOracle(GOLD_MIN)
        )
    assert outcome.ranked[0].sql == GOLD_MIN
    # The original, then each generated database once: its signature, the
    # oracle's gold run and the re-rank share one load.
    assert loads[0] is student_instance
    assert len(loads) == 1 + outcome.suite.attempts
    assert len({id(db) for db in loads}) == len(loads)
    # Every session is closed, the ones handed on to the re-rank too.
    assert len({id(session) for session in closed}) == len(loads)


def test_rerank_of_a_returned_suite_keeps_the_order(student_instance):
    candidates = [
        Candidate(WRONG_MAX, probability=0.9, source_rank=0),
        Candidate(GOLD_MIN, probability=0.1, source_rank=1),
        Candidate("SELECT min(age) FROM student WHERE 1 = 1", probability=0.4, source_rank=2),
    ]
    with Session(student_instance) as session:
        _, reps = classify_candidates(session, candidates)
        outcome = select_best(
            session, "q", candidates, reps, pick_suite_cfg(), ReferenceOracle(GOLD_MIN)
        )
    assert outcome.suite.cases
    again = rerank(candidates, outcome.suite)
    assert again.ranked == outcome.ranked
    assert again.scores == outcome.scores
    # A closed case session still runs a statement it has not seen.
    gold_again = Candidate("SELECT min(age) + 0 FROM student", source_rank=3)
    extended = rerank(candidates + [gold_again], outcome.suite)
    assert extended.ranked[:3] == (candidates[2], candidates[1], gold_again)
    assert extended.scores[2].pass_count == extended.scores[1].pass_count >= 1
    outcome.suite.close()


# --- serialization ----------------------------------------------------------------------------


def test_suite_json_round_trip(student_instance):
    suite = generate_suite(
        student_instance, "q", _min_max_reps(), pick_suite_cfg(), ReferenceOracle(GOLD_MIN)
    )
    back = suite_from_json(suite_to_json(suite))
    assert back == suite


def test_suite_json_round_trip_survives_dump(student_instance):
    suite = generate_suite(
        student_instance, "q", _min_max_reps(), fuzz_suite_cfg(), ReferenceOracle(GOLD_MIN)
    )
    text = dump_json(suite_to_json(suite))
    assert text.endswith("\n")
    assert suite_from_json(json.loads(text)) == suite


def test_outcome_json_shape(student_instance):
    candidates = [
        Candidate(WRONG_MAX, probability=0.9, source_rank=0),
        Candidate(GOLD_MIN, probability=0.1, source_rank=1),
    ]
    session = Session(student_instance)
    _, reps = classify_candidates(session, candidates)
    outcome = select_best(
        session, "q", candidates, reps, pick_suite_cfg(), ReferenceOracle(GOLD_MIN)
    )
    payload = outcome_to_json(outcome)
    assert payload["ranked"][0]["sql"] == GOLD_MIN
    assert payload["ranked"][0]["pass_count"] >= 1
    assert payload["skipped_all_same"] is False
    assert set(payload["ranked"][0]) == {"sql", "probability", "source_rank", "pass_count"}


def test_dump_json_deterministic():
    payload = {"b": 1, "a": [{"z": 2, "y": 3}]}
    assert dump_json(payload) == dump_json({"a": [{"y": 3, "z": 2}], "b": 1})
