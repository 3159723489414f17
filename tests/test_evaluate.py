import json
import types
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import sqlrerank.dbgen
import sqlrerank.evaluate
import sqlrerank.executor
import sqlrerank.suite
from conftest import col, make_instance
from conftest import record_statements
from sqlrerank.corpus import apply_type_overrides, load_corpus
from sqlrerank.dbgen import GenConfig, GenMethod
from sqlrerank.dbio import read_database, write_database
from sqlrerank.evaluate import (
    EntryReport,
    Originals,
    build_report,
    dump_report,
    entry_seed,
    evaluate_corpus,
    evaluate_entry,
    render_report_table,
    report_to_json,
)
from sqlrerank.executor import Session, execute, result_canonical_key, results_equal_relaxed
from sqlrerank.oracle import ReferenceOracle
from sqlrerank.schema import ColumnType, SchemaGraph, Table
from sqlrerank.suite import SuiteConfig, classify_candidates, select_best

GOLD_MIN = "SELECT min(age) FROM student"
WRONG_MAX = "SELECT max(age) FROM student"
GOLD_COUNT = "SELECT count(*) FROM student"


def cfg(seed=0):
    return SuiteConfig(gen=GenConfig(method=GenMethod.RANDOM_SELECTION, seed=seed, mts=3))


def reference_factory(entry):
    return ReferenceOracle(entry.gold_sql)


def _entry(entry_id, candidates, gold=GOLD_MIN, **extra):
    return {
        "entry_id": entry_id,
        "db_id": "students",
        "db_file": "s.db",
        "question": "lowest age?",
        "candidates": [
            {"sql": sql, "rank": i, "probability": p} for i, (sql, p) in enumerate(candidates)
        ],
        "gold_sql": gold,
        **extra,
    }


@pytest.fixture
def corpus(tmp_path, student_instance):
    write_database(student_instance, str(tmp_path / "s.db"))
    manifest = {
        "entries": [
            _entry("good-rerank", [(WRONG_MAX, 0.9), (GOLD_MIN, 0.1)]),
            _entry("already-right", [(GOLD_COUNT, 0.8), ("SELECT 99", 0.2)], gold=GOLD_COUNT),
            _entry("all-wrong", [(WRONG_MAX, 0.9), ("SELECT 'zzz'", 0.1)]),
            _entry(
                "all-right",
                [(GOLD_MIN, 0.6), ("SELECT min(age) FROM student WHERE 1=1", 0.4)],
                tags=["easy"],
            ),
        ]
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return load_corpus(str(path))


def by_id(report, entry_id):
    return next(r for r in report.entries if r.entry_id == entry_id)


# --- per-entry seeds -------------------------------------------------------------


def test_entry_seed_deterministic():
    assert entry_seed(0, "e1") == entry_seed(0, "e1")
    assert entry_seed(0, "e1") != entry_seed(0, "e2")
    assert entry_seed(0, "e1") != entry_seed(1, "e1")
    assert 0 <= entry_seed(7, "anything") < 2**63


# --- single entries ---------------------------------------------------------------


def test_evaluate_entry_reranks_to_gold(corpus):
    report = evaluate_entry(corpus[0], reference_factory, cfg())
    assert report.entry_id == "good-rerank"
    assert not report.pre_top1_correct
    assert report.post_top1_correct
    assert not report.gated_out
    assert report.distinguished
    assert report.suite_size >= 1
    assert report.oracle_calls >= report.suite_size
    assert report.error is None


def test_evaluate_entry_loads_the_original_once(corpus, monkeypatch):
    loads = []
    real_load = sqlrerank.executor.load_into_connection
    monkeypatch.setattr(
        sqlrerank.executor,
        "load_into_connection",
        lambda db, conn: loads.append(db) or real_load(db, conn),
    )
    report = evaluate_entry(corpus[0], reference_factory, cfg())
    assert not report.gated_out and report.suite_size >= 1
    original = read_database(corpus[0].db_file)
    assert sum(db == original for db in loads) == 1
    # The generated databases load too, each once.
    assert len({id(db) for db in loads}) == len(loads) > 1


def test_evaluate_entry_classifies_the_candidates_once(corpus, monkeypatch):
    """The re-rank takes the representatives the verdicts were judged by,
    so a gated-in entry is classified once, wherever the call comes from."""
    calls = []
    real_classify = sqlrerank.suite.classify_candidates

    def counting(session, candidates):
        calls.append(candidates)
        return real_classify(session, candidates)

    monkeypatch.setattr(sqlrerank.evaluate, "classify_candidates", counting)
    monkeypatch.setattr(sqlrerank.suite, "classify_candidates", counting)
    report = evaluate_entry(corpus[0], reference_factory, cfg())
    assert not report.gated_out and report.suite_size >= 1 and report.post_top1_correct
    assert len(calls) == 1


def test_evaluate_entry_compares_each_candidate_once(corpus, monkeypatch):
    calls = []
    real_compare = sqlrerank.evaluate.results_equal_relaxed
    monkeypatch.setattr(
        sqlrerank.evaluate,
        "results_equal_relaxed",
        lambda a, b: calls.append(a) or real_compare(a, b),
    )
    entry = corpus[0]
    report = evaluate_entry(entry, reference_factory, cfg())
    assert not report.gated_out and report.post_top1_correct
    # Candidate 0 (pre gate and flags) and the re-ranked top-1 are not
    # compared again.
    assert len(calls) == len({c.sql for c in entry.candidates}) == 2


def test_evaluate_entry_compares_each_class_once(corpus, tmp_path, monkeypatch):
    calls = []
    real_compare = sqlrerank.evaluate.results_equal_relaxed
    monkeypatch.setattr(
        sqlrerank.evaluate,
        "results_equal_relaxed",
        lambda a, b: calls.append(a) or real_compare(a, b),
    )
    spellings = [
        (WRONG_MAX, 0.4),
        ("select max(age) from student", 0.3),
        (GOLD_MIN, 0.2),
        ("SELECT min(age) FROM student WHERE 1=1", 0.1),
    ]
    (entry,) = _corpus(tmp_path, [_entry("two-classes", spellings)])
    report = evaluate_entry(entry, reference_factory, cfg())
    assert not report.gated_out and report.post_top1_correct
    # Four spellings in two classes: one comparison per class.
    assert len(calls) == 2


def test_evaluate_entry_keeps_correct_top1(corpus):
    report = evaluate_entry(corpus[1], reference_factory, cfg())
    assert report.pre_top1_correct
    assert report.post_top1_correct


def test_evaluate_entry_gates_all_wrong(corpus):
    report = evaluate_entry(corpus[2], reference_factory, cfg())
    assert report.gated_out
    assert not report.pre_top1_correct
    assert not report.post_top1_correct
    assert report.suite_size == 0


def test_evaluate_entry_gates_all_right(corpus):
    report = evaluate_entry(corpus[3], reference_factory, cfg())
    assert report.gated_out
    assert report.pre_top1_correct
    assert report.post_top1_correct
    assert report.tags == ("easy",)


def test_evaluate_entry_no_gate_runs_everything(corpus):
    gated = evaluate_entry(corpus[2], reference_factory, cfg(), gate="none")
    assert not gated.gated_out
    same = evaluate_entry(corpus[3], reference_factory, cfg(), gate="none")
    assert not same.gated_out
    assert same.skipped_all_same  # both candidates behave identically
    assert same.post_top1_correct


def test_evaluate_entry_missing_gold(corpus):
    entry = corpus[0]
    stripped = type(entry)(
        entry_id=entry.entry_id,
        db_id=entry.db_id,
        db_file=entry.db_file,
        question=entry.question,
        candidates=entry.candidates,
        gold_sql=None,
    )
    report = evaluate_entry(stripped, reference_factory, cfg())
    assert report.error == "missing gold_sql"


def test_evaluate_entry_broken_gold(corpus):
    entry = corpus[0]
    broken = type(entry)(
        entry_id="bad",
        db_id=entry.db_id,
        db_file=entry.db_file,
        question=entry.question,
        candidates=entry.candidates,
        gold_sql="SELECT ghost FROM student",
    )
    report = evaluate_entry(broken, reference_factory, cfg())
    assert report.error is not None
    assert report.error.startswith("gold execution")


def test_evaluate_entry_unreadable_db(corpus, tmp_path):
    entry = corpus[0]
    junk = tmp_path / "junk.db"
    junk.write_text("not a database file at all, just filler text")
    broken = type(entry)(
        entry_id="bad-db",
        db_id=entry.db_id,
        db_file=str(junk),
        question=entry.question,
        candidates=entry.candidates,
        gold_sql=entry.gold_sql,
    )
    report = evaluate_entry(broken, reference_factory, cfg())
    assert report.error is not None
    assert report.error.startswith("database load")


def test_evaluate_entry_rejects_an_unknown_gate(corpus):
    with pytest.raises(ValueError, match="papr"):
        evaluate_entry(corpus[0], reference_factory, cfg(), gate="papr")


NAMES_BY_ID = "SELECT name FROM t ORDER BY id"
NAMES_BY_NAME = "SELECT name FROM t ORDER BY name"
NAMES = "SELECT name FROM t"
NAMES_GROUPED = "SELECT name FROM t GROUP BY name"


def _names_entry(tmp_path, candidates, gold):
    """An entry on t(id, name) holding (1,'b'), (2,'a'), (3,'c'), and the instance."""
    schema = SchemaGraph(
        tables=(Table("t", (col("id", pk=True), col("name", ColumnType.TEXT))),),
        foreign_keys=(),
    )
    instance = make_instance(schema, {"t": [(1, "b"), (2, "a"), (3, "c")]})
    write_database(instance, str(tmp_path / "t.db"))
    (entry,) = _corpus(tmp_path, [_entry("ordered", candidates, gold=gold, db_file="t.db")])
    return entry, instance


def test_evaluate_entry_judges_each_candidate_against_an_ordered_gold(tmp_path):
    """Two candidates whose rows differ only in order get different verdicts
    when the gold is ordered: rows in the gold's order pass, the same rows
    grouped into another order do not. So their keys keep row order, and
    they form two classes."""
    entry, instance = _names_entry(tmp_path, [(NAMES_GROUPED, 0.6), (NAMES, 0.4)], NAMES_BY_ID)
    with Session(instance) as session:
        gold, plain, grouped = (
            execute(session, sql).result for sql in (NAMES_BY_ID, NAMES, NAMES_GROUPED)
        )
    assert result_canonical_key(plain) != result_canonical_key(grouped)
    assert results_equal_relaxed(plain, gold)
    assert not results_equal_relaxed(grouped, gold)

    report = evaluate_entry(entry, reference_factory, cfg())
    # Pruning drops `id`, which no candidate reads, so the reference
    # oracle's gold fails on every generated database.
    assert report == EntryReport(entry_id="ordered", oracle_calls=10, oracle_unavailable=10)


@pytest.mark.parametrize("gate", ["paper", "none"])
def test_evaluate_entry_reranks_a_candidate_in_the_gold_order(tmp_path, gate):
    """Candidates whose rows differ only in order are judged apart, so the
    one in the gold's order is re-ranked to the top."""
    entry, _ = _names_entry(tmp_path, [(NAMES, 0.6), (NAMES_GROUPED, 0.4)], NAMES_BY_NAME)
    report = evaluate_entry(entry, reference_factory, cfg(), gate=gate)
    assert not report.pre_top1_correct and not report.skipped_all_same
    assert report.post_top1_correct and report.distinguished
    assert report.oracle_calls == 1


def test_row_order_alone_splits_classes_against_an_unordered_gold(tmp_path):
    """The cost of keys that keep row order: against an unordered gold the
    two candidates pass and fail together, yet they are two classes, so the
    entry is not skipped and spends an oracle call on a case that cannot
    separate them; that case alone counts as distinguishing them."""
    entry, instance = _names_entry(tmp_path, [(NAMES, 0.6), (NAMES_GROUPED, 0.4)], NAMES)
    report = evaluate_entry(entry, reference_factory, cfg(), gate="none")
    assert report.pre_top1_correct and report.post_top1_correct
    assert not report.skipped_all_same and report.distinguished
    assert report.oracle_calls == 1 and report.suite_size == 1

    candidates = list(entry.candidates)
    with Session(instance) as session:
        _, reps = classify_candidates(session, candidates)
        outcome = select_best(
            session, entry.question, candidates, reps, cfg(), ReferenceOracle(NAMES)
        )
    assert not outcome.skipped_all_same and outcome.suite.distinguished
    assert len(outcome.suite.cases) == outcome.suite.attempts == 1
    assert [s.pass_count for s in outcome.scores] == [1, 1]
    assert [c.sql for c in outcome.ranked] == [NAMES, NAMES_GROUPED]
    # Under the paper gate both candidates are right, so the entry is gated out.
    assert evaluate_entry(entry, reference_factory, cfg()).gated_out


# --- the benchmark's trace mode ------------------------------------------------------

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans() -> types.ModuleType:
    """bench/spans.py run as a module of its own; nothing is imported from
    bench/ and no bytecode is written there."""
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS_PY)
    code = compile(SPANS_PY.read_text(encoding="utf-8"), str(SPANS_PY), "exec")
    exec(code, module.__dict__)
    return module


def test_bench_span_targets_resolve():
    spans = _load_spans()
    for owner, attribute, _name, _count in spans.TARGETS:
        assert callable(getattr(spans._resolve(owner), attribute, None)), (owner, attribute)


def test_bench_span_targets_see_the_analysis_calls(student_instance, monkeypatch):
    spans = _load_spans()
    counts: Counter = Counter()
    for owner, attribute, name, _count in spans.TARGETS:
        if name.startswith("sqlanalysis."):
            module = spans._resolve(owner)
            real = getattr(module, attribute)

            def counting(*args, _name=name, _real=real):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, attribute, counting)
    sqls = ["SELECT name FROM student ORDER BY age", "SELECT count(*) FROM student"]
    sqlrerank.dbgen.prune_schema(student_instance, sqls)
    assert counts == {"sqlanalysis.analyze_all": 1}
    with Session(student_instance) as session:
        session.run(sqls[0])
        assert counts["sqlanalysis.has_top_level_order_by"] == 1
        session.run(sqls[0])  # memoized
        assert counts["sqlanalysis.has_top_level_order_by"] == 1


def test_bench_tracing_records_every_layer(corpus):
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        report = sqlrerank.evaluate.evaluate_entry(corpus[0], reference_factory, cfg())
    assert not report.gated_out and report.suite_size >= 1
    recorded = Counter(span[1] for span in tracer.spans)
    for name in (
        "executor.execute",
        "dbio.load_into_connection",
        "suite.generate_suite",
        "suite.rerank",
        "oracle.predict",
    ):
        assert recorded[name] >= 1, name


# --- corpus-level runs --------------------------------------------------------------


def test_evaluate_corpus_opens_no_schema_only_connection(corpus, monkeypatch):
    """Every in-memory connection of a run holds an instance a session
    loaded: the analysis that prunes compiles on the original's session."""
    connections: list[str] = []
    loads: list[str] = []
    real_connect = sqlrerank.executor.sqlite3.connect
    real_load = sqlrerank.executor.load_into_connection

    def connect(database, *args, **kwargs):
        connections.append(database)
        return real_connect(database, *args, **kwargs)

    def load(instance, conn):
        loads.append(":memory:")
        return real_load(instance, conn)

    monkeypatch.setattr(sqlrerank.executor.sqlite3, "connect", connect)
    monkeypatch.setattr(sqlrerank.executor, "load_into_connection", load)
    report = evaluate_corpus(corpus, reference_factory, cfg())
    assert report.evaluated == 4 and any(e.suite_size for e in report.entries)
    assert [c for c in connections if c == ":memory:"] == loads


def test_evaluate_corpus(corpus):
    report = evaluate_corpus(corpus, reference_factory, cfg())
    assert report.evaluated == 4
    assert report.error_count == 0
    assert report.gated_out_count == 2
    assert by_id(report, "good-rerank").post_top1_correct
    # Before: only already-right and all-right hit on rank 0. After: good-rerank joins.
    assert report.ex_before == 0.5
    assert report.ex_after == 0.75


def test_evaluate_corpus_gate_validation(corpus):
    with pytest.raises(ValueError):
        evaluate_corpus(corpus, reference_factory, cfg(), gate="strict")


def test_evaluate_corpus_deterministic(corpus):
    a = dump_report(evaluate_corpus(corpus, reference_factory, cfg()))
    b = dump_report(evaluate_corpus(corpus, reference_factory, cfg()))
    assert a == b


# --- originals shared across a corpus run ------------------------------------------

GOLD_MAX = "SELECT max(age) FROM student"
AS_TEXT = {"student.age": "text"}


@pytest.fixture
def shared_corpus(tmp_path, student_instance, student_schema):
    """Entries sharing two readable files, one file under two sets of type
    overrides, an unreadable file shared by two entries, and an entry with
    no gold SQL."""
    write_database(student_instance, str(tmp_path / "s.db"))
    older = make_instance(
        student_schema, {"student": [(1, "ann", 30), (2, "bob", 22), (5, "eve", 19)]}
    )
    write_database(older, str(tmp_path / "t.db"))
    (tmp_path / "junk.db").write_text("not a database file at all, just filler text")
    # max(age) is the int 23, or the text '23' once age is declared text.
    typed = [("SELECT 23", 0.6), ("SELECT '23'", 0.4)]
    manifest = {
        "entries": [
            _entry("s-rerank", [(WRONG_MAX, 0.9), (GOLD_MIN, 0.1)]),
            _entry("s-int", typed, gold=GOLD_MAX),
            _entry("s-text", typed, gold=GOLD_MAX, type_overrides=AS_TEXT),
            _entry("s-text-again", [(GOLD_COUNT, 0.8), ("SELECT 99", 0.2)],
                   gold=GOLD_COUNT, type_overrides=AS_TEXT),
            _entry("t-rerank", [(WRONG_MAX, 0.9), (GOLD_MIN, 0.1)], db_file="t.db"),
            _entry("t-right", [(GOLD_COUNT, 0.8), ("SELECT 99", 0.2)],
                   gold=GOLD_COUNT, db_file="t.db"),
            _entry("junk-1", [(GOLD_MIN, 1.0)], db_file="junk.db"),
            _entry("junk-2", [(GOLD_MIN, 1.0)], db_file="junk.db"),
            _entry("no-gold", [(GOLD_MIN, 1.0)], gold=None),
        ]
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return load_corpus(str(path))


def test_evaluate_corpus_reads_each_file_once(shared_corpus, monkeypatch):
    reads = []
    real_read = sqlrerank.evaluate.read_database
    monkeypatch.setattr(
        sqlrerank.evaluate, "read_database", lambda path: reads.append(path) or real_read(path)
    )
    evaluate_corpus(shared_corpus, reference_factory, cfg())
    files = {e.db_file for e in shared_corpus if e.gold_sql is not None}
    assert len(files) == 3
    assert Counter(reads) == {f: 1 for f in files}


def test_evaluate_corpus_loads_one_copy_per_file_and_overrides(shared_corpus, monkeypatch):
    loads = []
    real_load = sqlrerank.executor.load_into_connection
    monkeypatch.setattr(
        sqlrerank.executor,
        "load_into_connection",
        lambda db, conn: loads.append(db) or real_load(db, conn),
    )
    report = evaluate_corpus(shared_corpus, reference_factory, cfg())
    assert sum(not r.gated_out and r.suite_size > 0 for r in report.entries) >= 2
    readable = [e for e in shared_corpus if "junk" not in e.db_file]
    originals = {
        (e.db_file, tuple(e.type_overrides.items())): apply_type_overrides(
            read_database(e.db_file), e.type_overrides
        )
        for e in readable
    }
    assert len(originals) == 3
    for original in originals.values():
        assert sum(db == original for db in loads) == 1
    # Everything else loaded is a generated database.
    assert sum(db in originals.values() for db in loads) == 3 < len(loads)


def test_evaluate_corpus_keeps_affinity_per_override(shared_corpus):
    report = evaluate_corpus(shared_corpus, reference_factory, cfg())
    as_int, as_text = by_id(report, "s-int"), by_id(report, "s-text")
    assert as_int.error is None and as_text.error is None
    assert as_int.pre_top1_correct
    assert not as_text.pre_top1_correct


def test_evaluate_corpus_reports_a_shared_unreadable_file_per_entry(shared_corpus):
    report = evaluate_corpus(shared_corpus, reference_factory, cfg())
    errors = [by_id(report, entry_id).error for entry_id in ("junk-1", "junk-2")]
    assert errors[0].startswith("database load: ")
    assert errors[0] == errors[1]


def test_evaluate_corpus_missing_gold(shared_corpus):
    report = evaluate_corpus(shared_corpus, reference_factory, cfg())
    assert by_id(report, "no-gold").error == "missing gold_sql"


def test_evaluate_corpus_matches_entries_evaluated_alone(shared_corpus):
    alone = build_report([evaluate_entry(e, reference_factory, cfg()) for e in shared_corpus])
    together = evaluate_corpus(shared_corpus, reference_factory, cfg())
    assert together == alone
    assert together.error_count == 3


def test_evaluate_corpus_calls_evaluate_entry_once_per_entry(corpus, monkeypatch):
    """bench/run.py times entries by patching this module-level name."""
    called = []
    real_evaluate_entry = sqlrerank.evaluate.evaluate_entry

    def counting(entry, *args, **kwargs):
        called.append(entry.entry_id)
        return real_evaluate_entry(entry, *args, **kwargs)

    monkeypatch.setattr(sqlrerank.evaluate, "evaluate_entry", counting)
    report = evaluate_corpus(corpus, reference_factory, cfg())
    assert sorted(called) == sorted(e.entry_id for e in corpus)
    assert [r.entry_id for r in report.entries] == [e.entry_id for e in corpus]


def test_evaluate_corpus_empty():
    report = evaluate_corpus([], reference_factory, cfg())
    assert report.evaluated == 0
    assert report.ex_before == 0.0


# --- report assembly ------------------------------------------------------------------


def test_build_report_aggregates():
    rows = [
        EntryReport("a", pre_top1_correct=True, post_top1_correct=True),
        EntryReport("b", pre_top1_correct=False, post_top1_correct=True),
        EntryReport("c", gated_out=True),
        EntryReport("d", error="boom"),
        EntryReport("e", skipped_all_same=True, pre_top1_correct=True, post_top1_correct=True),
    ]
    report = build_report(rows)
    assert report.evaluated == 4
    assert report.error_count == 1
    assert report.gated_out_count == 1
    assert report.skipped_count == 1
    assert report.ex_before == 2 / 4
    assert report.ex_after == 3 / 4


def test_report_json_round_trips_consistency(corpus):
    report = evaluate_corpus(corpus, reference_factory, cfg())
    payload = report_to_json(report)
    assert payload["evaluated"] == 4
    assert len(payload["entries"]) == 4
    assert payload["entries"][0]["tags"] == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("evaluated", 3),
        ("ex_before", 1.0),
        ("ex_after", 0.0),
        ("gated_out_count", 0),
        ("skipped_count", 2),
        ("error_count", 1),
    ],
)
def test_report_json_rejects_tampered_aggregates(corpus, field, value):
    report = evaluate_corpus(corpus, reference_factory, cfg())
    with pytest.raises(ValueError, match=field):
        report_to_json(replace(report, **{field: value}))


def test_render_report_table(corpus):
    report = evaluate_corpus(corpus, reference_factory, cfg())
    table = render_report_table(report)
    lines = table.splitlines()
    assert len(lines) == 1 + 4 + 1  # header, rows, summary
    assert "good-rerank" in table
    assert "EX before=0.500 after=0.750" in lines[-1]


def test_render_report_table_error_rows():
    report = build_report([EntryReport("x", error="kaput")])
    assert "ERROR kaput" in render_report_table(report)
    assert "evaluated=0" in render_report_table(report)


def test_dump_report_shape(corpus):
    text = dump_report(evaluate_corpus(corpus, reference_factory, cfg()))
    assert text.endswith("\n")
    payload = json.loads(text)
    assert "timestamp" not in text
    assert sorted(payload) == list(payload)  # honours sort_keys


# --- one session per original, spellings run once ----------------------------------


def _two_files(tmp_path, student_instance, student_schema):
    write_database(student_instance, str(tmp_path / "s.db"))
    other = make_instance(student_schema, {"student": [(1, "ann", 30), (5, "eve", 19)]})
    write_database(other, str(tmp_path / "t.db"))


def _corpus(tmp_path, rows):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": rows}))
    return load_corpus(str(path))


def test_evaluate_corpus_reports_interleaved_files_in_corpus_order(
    tmp_path, student_instance, student_schema
):
    _two_files(tmp_path, student_instance, student_schema)
    entries = _corpus(tmp_path, [
        _entry("a-rerank", [(WRONG_MAX, 0.9), (GOLD_MIN, 0.1)]),
        _entry("b-rerank", [(WRONG_MAX, 0.9), (GOLD_MIN, 0.1)], db_file="t.db"),
        _entry("a-right", [(GOLD_COUNT, 0.8), ("SELECT 99", 0.2)], gold=GOLD_COUNT),
        _entry("b-right", [(GOLD_COUNT, 0.8), ("SELECT 99", 0.2)],
               gold=GOLD_COUNT, db_file="t.db"),
    ])
    alone = build_report([evaluate_entry(e, reference_factory, cfg()) for e in entries])
    report = evaluate_corpus(entries, reference_factory, cfg())
    assert [r.entry_id for r in report.entries] == ["a-rerank", "b-rerank", "a-right", "b-right"]
    assert report == alone
    assert report.error_count == 0 and not by_id(report, "b-rerank").gated_out


def test_evaluate_corpus_runs_a_program_once_per_original(
    tmp_path, student_instance, student_schema, monkeypatch
):
    _two_files(tmp_path, student_instance, student_schema)
    # Gated out, all right or all wrong, so every statement runs on an original.
    all_right = [(GOLD_COUNT, 0.6), ("SELECT count(*) FROM student WHERE 1=1", 0.4)]
    entries = _corpus(tmp_path, [
        _entry("a-right", all_right, gold=GOLD_COUNT),
        _entry("b-right", all_right, gold=GOLD_COUNT, db_file="t.db"),
        _entry("a-wrong", [(WRONG_MAX, 0.9), ("SELECT 99", 0.1)], gold=GOLD_COUNT),
    ])
    statements = record_statements(monkeypatch)
    report = evaluate_corpus(entries, reference_factory, cfg())
    assert report.gated_out_count == 3 and report.error_count == 0
    # The gold of all three, once on each original.
    assert statements.count(GOLD_COUNT) == 2
    assert statements.count(WRONG_MAX) == 1


ADULTS = (
    "SELECT name, age FROM student WHERE age > 25",
    "select name, age from student where age > 25",
    "SELECT s.name AS who, s.age AS years FROM student AS s WHERE s.age > 25",
    "SELECT student.name, student.age\n  FROM student\n WHERE student.age > 25;",
)


@pytest.mark.parametrize(
    "gate, expected",
    [
        ("paper", dict(gated_out=True)),
        ("none", dict(skipped_all_same=True)),
    ],
)
def test_evaluate_entry_runs_spellings_of_the_gold_once(
    tmp_path, many_students, monkeypatch, gate, expected
):
    write_database(many_students, str(tmp_path / "s.db"))
    path = tmp_path / "manifest.json"
    candidates = [(sql, 0.4 - 0.1 * i) for i, sql in enumerate(ADULTS[1:])]
    path.write_text(json.dumps({"entries": [_entry("spelled", candidates, gold=ADULTS[0])]}))
    (entry,) = load_corpus(str(path))
    statements = record_statements(monkeypatch)
    report = evaluate_corpus([entry], reference_factory, cfg(), gate=gate)
    assert [sql for sql in statements if sql in ADULTS] == [ADULTS[0]]
    assert report.entries == (
        EntryReport(
            entry_id="spelled", pre_top1_correct=True, post_top1_correct=True, **expected
        ),
    )


def test_evaluate_corpus_reads_loads_and_closes_each_original_once(
    tmp_path, student_instance, student_schema, monkeypatch
):
    _two_files(tmp_path, student_instance, student_schema)
    entries = _corpus(tmp_path, [
        _entry("a-rerank", [(WRONG_MAX, 0.9), (GOLD_MIN, 0.1)]),
        _entry("b-rerank", [(WRONG_MAX, 0.9), (GOLD_MIN, 0.1)], db_file="t.db"),
        _entry("a-text", [(GOLD_COUNT, 0.8), ("SELECT 99", 0.2)],
               gold=GOLD_COUNT, type_overrides=AS_TEXT),
        _entry("a-right", [(GOLD_COUNT, 0.8), ("SELECT 99", 0.2)], gold=GOLD_COUNT),
        _entry("b-right", [(GOLD_COUNT, 0.8), ("SELECT 99", 0.2)],
               gold=GOLD_COUNT, db_file="t.db"),
    ])
    alone = build_report([evaluate_entry(e, reference_factory, cfg()) for e in entries])
    file_a, file_b = (read_database(str(tmp_path / name)) for name in ("s.db", "t.db"))
    named = [(file_a, "A"), (apply_type_overrides(file_a, AS_TEXT), "A-text"), (file_b, "B")]

    def name(db):
        return next((name for original, name in named if db == original), None)

    events = []
    real_read = sqlrerank.evaluate.read_database
    real_load = sqlrerank.executor.load_into_connection
    real_close = Session.close
    real_evaluate_entry = sqlrerank.evaluate.evaluate_entry

    def read(path):
        events.append(f"read {Path(path).name}")
        return real_read(path)

    def load(db, conn):
        if name(db):
            events.append(f"load {name(db)}")
        real_load(db, conn)

    def close(session):
        if name(session.db):
            events.append(f"close {name(session.db)}")
        real_close(session)

    def evaluate_and_log(entry, *args, **kwargs):
        events.append(f"start {entry.entry_id}")
        return real_evaluate_entry(entry, *args, **kwargs)

    monkeypatch.setattr(sqlrerank.evaluate, "read_database", read)
    monkeypatch.setattr(sqlrerank.executor, "load_into_connection", load)
    monkeypatch.setattr(Session, "close", close)
    monkeypatch.setattr(sqlrerank.evaluate, "evaluate_entry", evaluate_and_log)
    report = evaluate_corpus(entries, reference_factory, cfg())
    # By file, then by pair; each pair's session closes before the next
    # pair's loads, and all of s.db's before t.db's first entry.
    assert events == [
        "start a-rerank", "read s.db", "load A",
        "start a-right",
        "start a-text", "close A", "load A-text",
        "close A-text",
        "start b-rerank", "read t.db", "load B",
        "start b-right",
        "close B",
    ]
    assert report == alone
    assert [r.entry_id for r in report.entries] == [e.entry_id for e in entries]


def test_original_session_matches_a_plain_session(corpus):
    """An EXPLAIN listing carries the schema cookie, which only an original
    loaded like any other instance shares with a plain session."""
    original = read_database(corpus[0].db_file)
    with Originals() as originals, Session(original) as plain:
        session = originals.session(corpus[0])
        for sql in ("EXPLAIN SELECT name FROM student", GOLD_MIN, "SELECT ghost FROM student"):
            assert execute(session, sql) == execute(plain, sql), sql
