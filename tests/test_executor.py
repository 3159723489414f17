import itertools
import math

import pytest
from hypothesis import HealthCheck
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlrerank.executor
from sqlrerank.executor import (
    ExecutionOutcome,
    ExecutionResult,
    OutcomeKind,
    Session,
    execute,
    result_canonical_key,
    results_equal,
    results_equal_relaxed,
)

from sqlrerank.instance import DatabaseInstance
from sqlrerank.schema import ColumnType, SchemaGraph, Table

from conftest import col, make_instance
from conftest import record_statements
from refimpl import exact_equal_reference, relaxed_equal_reference


def res(rows, ordered=False, width=None):
    if width is None:
        width = len(rows[0]) if rows else 1
    cols = tuple(f"c{i}" for i in range(width))
    return ExecutionResult(columns=cols, rows=tuple(map(tuple, rows)), order_significant=ordered)


# --- execute -----------------------------------------------------------------


def test_execute_simple(student_instance):
    out = execute(student_instance, "SELECT name FROM student WHERE age > 21")
    assert out.kind is OutcomeKind.OK
    assert out.result.columns == ("name",)
    assert sorted(out.result.rows) == [("bob",), ("dan",)]
    assert not out.result.order_significant


def test_execute_order_flag(student_instance):
    out = execute(student_instance, "SELECT age FROM student ORDER BY age")
    assert out.result.order_significant
    assert out.result.rows == ((20,), (21,), (22,), (23,))


def test_execute_subquery_order_not_flagged(student_instance):
    out = execute(
        student_instance, "SELECT name FROM (SELECT name FROM student ORDER BY age)"
    )
    assert not out.result.order_significant


def test_execute_join(student_instance):
    out = execute(
        student_instance,
        "SELECT s.name, e.grade FROM student s JOIN enrollment e"
        " ON s.student_id = e.student_id ORDER BY e.grade",
    )
    assert out.result.rows == (("cat", 75), ("ann", 88), ("ann", 91))


def test_execute_empty_result(student_instance):
    out = execute(student_instance, "SELECT name FROM student WHERE age > 99")
    assert out.kind is OutcomeKind.OK
    assert out.result.rows == ()
    assert out.result.columns == ("name",)


def test_execute_no_table_expression(student_instance):
    out = execute(student_instance, "SELECT 1 + 1")
    assert out.result.rows == ((2,),)


def test_execute_sql_error(student_instance):
    out = execute(student_instance, "SELECT missing_col FROM student")
    assert out.kind is OutcomeKind.SQL_ERROR
    assert "missing_col" in out.message
    assert out.result is None


def test_execute_rejects_multiple_statements(student_instance):
    out = execute(student_instance, "SELECT 1; SELECT 2")
    assert out.kind is OutcomeKind.SQL_ERROR


def test_execute_timeout(student_instance, monkeypatch):
    monkeypatch.setattr(sqlrerank.executor, "DEFAULT_TIMEOUT", 0.05)
    out = execute(
        student_instance,
        "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM r)"
        " SELECT count(*) FROM r",
    )
    assert out.kind is OutcomeKind.TIMEOUT


def test_execute_normalizes_blobs(student_instance):
    out = execute(student_instance, "SELECT CAST('ab' AS BLOB)")
    assert out.result.rows == (("ab",),)


def test_execute_normalizes_only_rows_holding_blobs(student_instance):
    out = execute(
        student_instance,
        "SELECT CAST('ab' AS BLOB), 1 UNION ALL SELECT 'cd', 2.5 UNION ALL SELECT NULL, X'6566'",
    )
    assert out.result.rows == (("ab", 1), ("cd", 2.5), (None, "ef"))


def test_execute_null_cells(student_instance):
    out = execute(student_instance, "SELECT NULL, name FROM student WHERE student_id = 1")
    assert out.result.rows == ((None, "ann"),)


# --- sessions --------------------------------------------------------------------

COUNT_STUDENTS = "SELECT COUNT(*) FROM student"
ENDLESS = (
    "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM r)"
    " SELECT count(*) FROM r"
)


def _count_loads(monkeypatch) -> list:
    """Record the instance of every load a session makes from now on."""
    loads = []
    real_load = sqlrerank.executor.load_into_connection
    monkeypatch.setattr(
        sqlrerank.executor,
        "load_into_connection",
        lambda db, conn: loads.append(db) or real_load(db, conn),
    )
    return loads


@pytest.mark.parametrize(
    "sql",
    [
        "DELETE FROM student",
        "CREATE TEMP TABLE x(a)",
        "PRAGMA query_only=0",
        "ATTACH ':memory:' AS z",
    ],
)
def test_session_refuses_statements_that_change_it(student_instance, sql, monkeypatch):
    loads = _count_loads(monkeypatch)
    with Session(student_instance) as session:
        refused = execute(session, sql)
        assert refused.kind is OutcomeKind.SQL_ERROR
        assert "not authorized" in refused.message
        after = execute(session, COUNT_STUDENTS)
        assert after.kind is OutcomeKind.OK
        assert after.result.rows == ((4,),)
    # The rows were seen on the same load, not on a fresh copy.
    assert loads == [student_instance]


def test_session_recovers_after_timeout(student_instance, monkeypatch):
    monkeypatch.setattr(sqlrerank.executor, "DEFAULT_TIMEOUT", 0.05)
    with Session(student_instance) as session:
        assert execute(session, ENDLESS).kind is OutcomeKind.TIMEOUT
        out = execute(session, COUNT_STUDENTS)
        assert out.kind is OutcomeKind.OK
        assert out.result.rows == ((4,),)


def test_session_memoizes_outcomes(student_instance, monkeypatch):
    with Session(student_instance) as session:
        first = execute(session, COUNT_STUDENTS)
        monkeypatch.setattr(
            sqlrerank.executor, "has_top_level_order_by", lambda sql: pytest.fail("executed again")
        )
        assert execute(session, COUNT_STUDENTS) is first


def test_session_loads_once_and_lazily(student_instance, monkeypatch):
    loads = _count_loads(monkeypatch)
    with Session(student_instance) as session:
        assert loads == []
        for sql in (COUNT_STUDENTS, "SELECT name FROM student", "SELECT broken"):
            execute(session, sql)
    assert loads == [student_instance]


def test_session_load_failure_is_every_outcome(student_schema, monkeypatch):
    duplicate_keys = make_instance(
        student_schema, {"student": [(1, "ann", 20), (1, "bob", 22)]}
    )
    loads = _count_loads(monkeypatch)
    with Session(duplicate_keys) as session:
        outcomes = [execute(session, sql) for sql in (COUNT_STUDENTS, "SELECT 1")]
    for out in outcomes:
        assert out.kind is OutcomeKind.SQL_ERROR
        assert out.message.startswith("instance load failed: UNIQUE constraint failed")
    assert loads == [duplicate_keys]


def test_closed_session_reloads_for_new_statements_only(student_instance, monkeypatch):
    loads = _count_loads(monkeypatch)
    session = Session(student_instance)
    first = execute(session, COUNT_STUDENTS)
    session.close()
    # A memoized statement is served without a load.
    assert execute(session, COUNT_STUDENTS) is first
    assert loads == [student_instance]
    # A new statement loads the instance again.
    out = execute(session, "SELECT name FROM student WHERE student_id = 2")
    assert out.result.rows == (("bob",),)
    assert loads == [student_instance, student_instance]
    session.close()


def test_closed_session_serves_a_respelling_without_a_load(student_instance, monkeypatch):
    loads = _count_loads(monkeypatch)
    session = Session(student_instance)
    first = execute(session, COUNT_STUDENTS)
    session.close()
    assert execute(session, COUNT_STUDENTS.lower() + ";") is first
    assert loads == [student_instance]


def test_program_keyed_session_matches_a_plain_session(student_instance, monkeypatch):
    """A session that runs many statements loads like a one-shot session per
    statement, so even an EXPLAIN listing, which carries the schema cookie,
    reads the same on both."""
    statements = (
        COUNT_STUDENTS,
        "SELECT * FROM enrollment ORDER BY grade DESC",
        "SELECT rowid, typeof(age), name FROM student",
        "DELETE FROM student",
        "SELECT ghost FROM student",
        "EXPLAIN SELECT name FROM student",
    )
    plain = [execute(student_instance, sql) for sql in statements]
    assert "not authorized" in plain[3].message
    loads = _count_loads(monkeypatch)
    with Session(student_instance) as session:
        assert [execute(session, sql) for sql in statements] == plain
    assert loads == [student_instance]


# --- program keys -----------------------------------------------------------------

# Eight spellings of one query: case, aliases, qualified names, a comma join,
# INNER, layout, a trailing `;` and a comment. SQLite compiles them all to
# one program.
TOP_GRADES = (
    "SELECT s.name, e.grade FROM student s JOIN enrollment e"
    " ON s.student_id = e.student_id WHERE e.grade > 90",
    "select s.name, e.grade from student s join enrollment e"
    " on s.student_id = e.student_id where e.grade > 90",
    "SELECT s.name AS student_name, e.grade AS g FROM student AS s JOIN enrollment AS e"
    " ON s.student_id = e.student_id WHERE e.grade > 90",
    "SELECT student.name, enrollment.grade FROM student JOIN enrollment"
    " ON student.student_id = enrollment.student_id WHERE enrollment.grade > 90",
    "SELECT s.name, e.grade FROM student s, enrollment e"
    " WHERE s.student_id = e.student_id AND e.grade > 90",
    "SELECT s.name, e.grade FROM student s INNER JOIN enrollment e"
    " ON s.student_id = e.student_id WHERE e.grade > 90;",
    "SELECT s.name,\n       e.grade\n  FROM student s\n  JOIN enrollment e"
    " ON s.student_id = e.student_id\n WHERE e.grade > 90",
    "SELECT s.name, e.grade FROM student s JOIN enrollment e"
    " ON s.student_id = e.student_id WHERE e.grade > 90  -- top grades",
)
# Scans every student in more than _KEYING_STEPS progress steps (21), so a
# session keys by program from here on.
SCAN = "SELECT sum(age), max(name), min(student_id) FROM student"
# Scans a sixth of them in fewer steps (2).
SHORT_SCAN = "SELECT sum(age) FROM student WHERE student_id <= 400"


def _ran(statements: list[str]) -> list[str]:
    """The statements run, without EXPLAINs and the load's CREATE TABLEs."""
    return [sql for sql in statements if not sql.startswith(("EXPLAIN ", "CREATE TABLE "))]


def _explained(statements: list[str]) -> list[str]:
    return [sql for sql in statements if sql.startswith("EXPLAIN ")]


def test_copy_session_runs_spellings_of_one_program_once(many_students, monkeypatch):
    expected = execute(many_students, TOP_GRADES[0])
    assert len(expected.result.rows) > 1
    statements = record_statements(monkeypatch)
    with Session(many_students) as session:
        execute(session, SCAN)
        outcomes = [execute(session, sql) for sql in TOP_GRADES]
    assert _ran(statements) == [SCAN, TOP_GRADES[0]]
    assert all(out is outcomes[0] for out in outcomes)
    assert outcomes[0] == expected


@pytest.mark.parametrize(
    "pair",
    [
        ("SELECT 0.30000000000000004", "SELECT 0.3"),
        ("SELECT -0.0", "SELECT 0.0"),
        ("SELECT x'410001'", "SELECT x'410002'"),
        ("SELECT max(age) * 0.30000000000000004 FROM student",
         "SELECT max(age) * 0.3 FROM student"),
    ],
)
def test_copy_session_keeps_lossily_listed_literals_apart(many_students, pair, monkeypatch):
    expected = [execute(many_students, sql) for sql in pair]
    statements = record_statements(monkeypatch)
    with Session(many_students) as session:
        execute(session, SCAN)
        outcomes = [execute(session, sql) for sql in pair]
    assert _ran(statements) == [SCAN, *pair]
    assert outcomes == expected
    # repr tells -0.0 from 0.0, which == does not.
    first, second = (repr(out.result.rows) for out in outcomes)
    assert first != second


def test_copy_session_keeps_each_order_flag(many_students):
    ordered, unordered = "SELECT name FROM student ORDER BY rowid", "SELECT name FROM student"
    with Session(many_students) as session:
        execute(session, SCAN)
        for sql in (ordered, unordered, ordered):
            assert execute(session, sql) == execute(many_students, sql)
        assert execute(session, ordered).result.order_significant
        assert not execute(session, unordered).result.order_significant


def test_order_flag_is_part_of_the_program_key(many_students, monkeypatch):
    """Where ORDER BY compiles to the same program as none (it may, on an
    INTEGER PRIMARY KEY), the flag alone tells the statements apart; here a
    comment stands in for the ORDER BY."""
    monkeypatch.setattr(
        sqlrerank.executor, "has_top_level_order_by", lambda sql: sql.endswith("-- ordered")
    )
    with Session(many_students) as session:
        execute(session, SCAN)
        unordered = execute(session, "SELECT name FROM student")
        ordered = execute(session, "SELECT name FROM student -- ordered")
    assert ordered.result.rows == unordered.result.rows
    assert ordered.result.order_significant and not unordered.result.order_significant


def test_timed_out_ordered_statement_is_not_run_again(many_students, monkeypatch):
    """A timeout comes at the first progress step, and the session starts
    keying on it as on a long scan; an outcome without a result is keyed by
    its text's order flag, and another spelling of the ordered statement
    finds it."""
    monkeypatch.setattr(sqlrerank.executor, "DEFAULT_TIMEOUT", 0)
    spellings = ["SELECT name FROM student ORDER BY name", "select name from student order by name"]
    statements = record_statements(monkeypatch)
    with Session(many_students) as session:
        outcomes = [execute(session, sql) for sql in spellings]
    assert _ran(statements) == spellings[:1]
    assert outcomes[0].kind is outcomes[1].kind is OutcomeKind.TIMEOUT


def test_copy_session_errors_match_a_plain_session(many_students):
    statements = (
        "SELECT ghost FROM student",
        "select ghost from student",
        "SELECT ghost FROM student;",
        "DELETE FROM student",
        "delete from student",
        "PRAGMA query_only=0",
        "SELECT 1; SELECT 2",
        "select 1;select 2",
        "SELECT abs(-9223372036854775807 - 1) FROM student",
        "SELECT abs(-9223372036854775807 - 1) FROM student s",
        "QUERY PLAN SELECT name FROM student",
        "query plan select name from student",
        "",
        "SELECT 'a\x00b'",
    )
    with Session(many_students) as session:
        execute(session, SCAN)
        for sql in statements:
            assert execute(session, sql) == execute(many_students, sql), sql
        assert execute(session, "DELETE FROM student").message == "not authorized"
        assert execute(session, "SELECT count(*) FROM student").result.rows == ((2400,),)


# The spellings of TOP_GRADES that differ in more than case, layout, comments
# and a trailing `;`, so that no two share a spelling.
ALIAS_SPELLINGS = (TOP_GRADES[0], *TOP_GRADES[2:6])


# Alias spellings of SCAN, SHORT_SCAN and TOP_GRADES[0], one per table alias.
SCAN_AS = "SELECT sum({s}.age), max({s}.name), min({s}.student_id) FROM student {s}"
SHORT_SCAN_AS = "SELECT sum({s}.age) FROM student {s} WHERE {s}.student_id <= 400"
TOP_GRADES_AS = (
    "SELECT {s}.name, e.grade FROM student {s} JOIN enrollment e"
    " ON {s}.student_id = e.student_id WHERE e.grade > 90"
)


def _aliased(template: str, i: int) -> str:
    return template.format(s=f"s{i}")


def test_stepless_sessions_run_no_explain(many_students, student_instance, monkeypatch):
    queries = (SCAN, *ALIAS_SPELLINGS)
    statements = record_statements(monkeypatch)
    # A session whose statements never step runs every alias spelling.
    with Session(student_instance) as stepless:
        for sql in queries:
            execute(stepless, sql)
    assert [sql for sql in statements if sql in queries] == list(queries)
    assert _explained(statements) == []
    # A session on the large instance explains what it has run once a
    # statement runs _KEYING_STEPS steps.
    with Session(many_students) as session:
        execute(session, "SELECT 1")
        execute(session, SCAN)
    assert _explained(statements) == ["EXPLAIN SELECT 1", f"EXPLAIN {SCAN}"]


def test_small_instance_never_switches_to_program_keys(student_instance, monkeypatch):
    statements = record_statements(monkeypatch)
    with Session(student_instance) as session:
        for i in range(60):
            for template in (SCAN_AS, TOP_GRADES_AS):
                execute(session, _aliased(template, i))
    assert len(_ran(statements)) == 60 * 2
    assert _explained(statements) == []


def test_one_long_scan_switches_to_program_keys(many_students, monkeypatch):
    statements = record_statements(monkeypatch)
    with Session(many_students) as session:
        # Scans of fewer than _KEYING_STEPS steps, however many, do not.
        for i in range(3):
            execute(session, _aliased(SHORT_SCAN_AS, i))
        assert _explained(statements) == []
        execute(session, SCAN)
        assert len(_explained(statements)) == 4
        execute(session, _aliased(SHORT_SCAN_AS, 3))
    assert _ran(statements) == [_aliased(SHORT_SCAN_AS, i) for i in range(3)] + [SCAN]


# --- the spelling memo -------------------------------------------------------------

# Respellings SQLite ignores: keyword and identifier case, layout, comments
# and a trailing `;`.
RESPELLINGS = (
    "SELECT name FROM student WHERE age > 25 ORDER BY name",
    "select NAME from STUDENT where AGE > 25 order by NAME",
    "SELECT name\n  FROM student\n WHERE age > 25\n ORDER BY name;",
    "/* older */ SELECT name FROM student -- students\nWHERE age > 25 ORDER BY name ;",
)


@pytest.mark.parametrize("fixture", ["student_instance", "many_students"])
def test_a_respelling_runs_no_statement_and_no_explain(request, fixture, monkeypatch):
    db = request.getfixturevalue(fixture)
    expected = execute(db, RESPELLINGS[0])
    statements = record_statements(monkeypatch)
    with Session(db) as session:
        execute(session, SCAN)  # keys by program on the large instance
        outcomes = [execute(session, sql) for sql in RESPELLINGS]
    assert _ran(statements) == [SCAN, RESPELLINGS[0]]
    keyed = fixture == "many_students"
    assert _explained(statements) == [f"EXPLAIN {sql}" for sql in (SCAN, RESPELLINGS[0]) if keyed]
    assert all(out is outcomes[0] for out in outcomes) and outcomes[0] == expected


def _accented(column: str) -> DatabaseInstance:
    schema = SchemaGraph(tables=(Table("t", (col(column, ColumnType.TEXT),)),))
    return make_instance(schema, {"t": [("x",), ("y",)]})


@pytest.mark.parametrize(
    "db,pair",
    [
        # SQLite folds ASCII letters only, so É names no column of `t`.
        (_accented("é"), ("SELECT é FROM t", "SELECT É FROM t")),
        (_accented("É"), ("SELECT É FROM t", "SELECT é FROM t")),
        # Where no column `a` exists, SQLite reads "a" as the string 'a'.
        (None, ('SELECT "a" FROM student', "SELECT a FROM student")),
        (None, ('SELECT "A" FROM student', 'SELECT "a" FROM student')),
        (None, ("SELECT 'A' FROM student", "SELECT 'a' FROM student")),
        # Tokens with nothing between them stay joined: 0x1F is 31.
        (None, ("SELECT 0x1F", "SELECT 0 x1F")),
    ],
)
def test_the_spelling_memo_keeps_other_statements_apart(db, pair, student_instance, monkeypatch):
    db = db or student_instance
    expected = [execute(db, sql) for sql in pair]
    statements = record_statements(monkeypatch)
    with Session(db) as session:
        assert [execute(session, sql) for sql in pair] == expected
    assert _ran(statements) == list(pair)


def test_the_order_flag_is_part_of_the_spelling_key(student_instance, monkeypatch):
    """The same text with and without a top-level ORDER BY, as the flag
    reads it (a comment stands in for the ORDER BY), is two statements."""
    monkeypatch.setattr(
        sqlrerank.executor, "has_top_level_order_by", lambda sql: sql.endswith("-- ordered")
    )
    with Session(student_instance) as session:
        unordered = execute(session, "SELECT name FROM student")
        ordered = execute(session, "SELECT name FROM student -- ordered")
    assert ordered.result.rows == unordered.result.rows
    assert ordered.result.order_significant and not unordered.result.order_significant


def test_an_erring_respelling_keeps_its_own_message(student_instance, monkeypatch):
    pair = ("SELECT ghost FROM student", "select GHOST from student;")
    statements = record_statements(monkeypatch)
    with Session(student_instance) as session:
        messages = [execute(session, sql).message for sql in pair]
    assert messages == ["no such column: ghost", "no such column: GHOST"]
    assert _ran(statements) == list(pair)


def test_shared_outcome_keeps_the_first_statements_labels(many_students, student_instance):
    first, second = (
        f"SELECT name AS {label} FROM student WHERE age > 25" for label in ("first", "second")
    )
    with Session(many_students) as session:
        execute(session, SCAN)
        shared = execute(session, first)
        assert execute(session, second) is shared
    assert shared.result.columns == ("first",)
    # A respelling shares them too, on a session that never keys by program.
    with Session(student_instance) as session:
        shared = execute(session, "SELECT max(age) FROM student")
        assert execute(session, "SELECT MAX(age) FROM student") is shared
    assert shared.result.columns == ("max(age)",)


_LITERALS = (
    "25", "25.0", "25.000000000000004", "0.3", "0.30000000000000004", "-0.0", "0.0",
    "x'410001'", "x'410002'", "'s5'", "NULL",
)
_SHAPES = (
    "SELECT name, age FROM student WHERE age > {}",
    "select s.name AS n, s.age FROM student s where s.age > {}",
    "SELECT {}, count(*) FROM student",
    "SELECT {} AS v FROM student WHERE student_id < 3",
    "SELECT age FROM student WHERE name = {} ORDER BY age",
    "SELECT age FROM student WHERE name = {}",
    "SELECT s.name FROM student s JOIN enrollment e ON s.student_id = e.student_id"
    " WHERE e.grade > {}",
    "SELECT student.name FROM student, enrollment"
    " WHERE student.student_id = enrollment.student_id AND enrollment.grade > {}",
    "SELECT ghost FROM student WHERE age > {}",
    "SELECT {}; SELECT 2",
    "DELETE FROM student WHERE age > {}",
)
spelled_sql = st.builds(
    lambda shape, literal, tail: shape.format(literal) + tail,
    st.sampled_from(_SHAPES),
    st.sampled_from(_LITERALS),
    st.sampled_from(("", ";", "\n", "  -- c")),
)


# One-shot outcomes by (fixture, SQL text), each from a session of its own.
_ONE_SHOT: dict[tuple[str, str], ExecutionOutcome] = {}


@pytest.mark.parametrize("fixture", ["student_instance", "many_students"])
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.lists(spelled_sql, min_size=1, max_size=8))
def test_copy_session_outcomes_agree_with_plain_sessions(request, fixture, statements):
    """A session that memoizes by spelling (both instances) and by program
    (the large one) agrees with a one-shot session per statement."""
    db = request.getfixturevalue(fixture)
    with Session(db) as session:
        for sql in statements:
            if (fixture, sql) not in _ONE_SHOT:
                _ONE_SHOT[fixture, sql] = execute(db, sql)
            got, want = execute(session, sql), _ONE_SHOT[fixture, sql]
            assert (got.kind, got.message) == (want.kind, want.message)
            assert result_canonical_key(got) == result_canonical_key(want)
            if want.result is not None:
                assert got.result.order_significant == want.result.order_significant
                assert results_equal(got.result, want.result)

# --- exact comparison -----------------------------------------------------------


def test_equal_multiset_ignores_order():
    a = res([[1, "x"], [2, "y"]])
    b = res([[2, "y"], [1, "x"]])
    assert results_equal(a, b)


def test_equal_positional_when_either_ordered():
    a = res([[1], [2]], ordered=True)
    b = res([[2], [1]])
    assert not results_equal(a, b)
    assert not results_equal(b, a)
    assert results_equal(a, res([[1], [2]]))


def test_equal_both_ordered_same():
    a = res([[1], [2]], ordered=True)
    b = res([[1], [2]], ordered=True)
    assert results_equal(a, b)


def test_equal_numeric_tolerance():
    # Numbers round to 6 places: 1.0 + 4e-7 rounds to 1.0, 1.0 + 5e-7 to 1.000001.
    assert results_equal(res([[1.0]]), res([[1.0 + 4e-7]]))
    assert not results_equal(res([[1.0]]), res([[1.0 + 5e-7]]))
    assert not results_equal(res([[1.0]]), res([[1.01]]))
    assert results_equal(res([[1]]), res([[1.0]]))


def test_equal_none_handling():
    assert results_equal(res([[None]]), res([[None]]))
    assert not results_equal(res([[None]]), res([[0]]))
    assert not results_equal(res([[None]]), res([[""]]))


def test_equal_type_mismatch():
    assert not results_equal(res([["1"]]), res([[1]]))
    assert not results_equal(res([[True]]), res([[1]]))


def test_equal_shape_mismatch():
    assert not results_equal(res([[1]]), res([[1], [1]]))
    assert not results_equal(res([[1]], width=1), res([[1, 1]], width=2))


def test_equal_ignores_column_labels():
    a = ExecutionResult(columns=("x",), rows=((1,),))
    b = ExecutionResult(columns=("y",), rows=((1,),))
    assert results_equal(a, b)


def test_equal_duplicate_row_multiplicity():
    assert not results_equal(res([[1], [1], [2]]), res([[1], [2], [2]]))


# --- relaxed comparison -----------------------------------------------------------


def test_relaxed_projection():
    narrow = res([["ann"], ["bob"]])
    wide = res([["bob", 22], ["ann", 20]], width=2)
    assert results_equal_relaxed(narrow, wide)
    assert results_equal_relaxed(wide, narrow)


def test_relaxed_column_permutation():
    a = res([[1, "x"], [2, "y"]], width=2)
    b = res([["x", 1], ["y", 2]], width=2)
    assert results_equal_relaxed(a, b)
    assert not results_equal(a, b)


def test_relaxed_row_count_still_matters():
    narrow = res([["ann"]])
    wide = res([["ann", 20], ["bob", 22]], width=2)
    assert not results_equal_relaxed(narrow, wide)


def test_relaxed_no_matching_projection():
    narrow = res([[99], [98]])
    wide = res([[1, "x"], [2, "y"]], width=2)
    assert not results_equal_relaxed(narrow, wide)


def test_relaxed_order_flag_carries_to_projection():
    narrow = res([[1], [2]])
    wide_sorted = res([[1, "b"], [2, "a"]], width=2, ordered=True)
    wide_reversed = res([[2, "a"], [1, "b"]], width=2, ordered=True)
    assert results_equal_relaxed(narrow, wide_sorted)
    assert not results_equal_relaxed(narrow, wide_reversed)


def test_relaxed_zero_width():
    a = ExecutionResult(columns=(), rows=((), ()))
    b = ExecutionResult(columns=(), rows=((), ()))
    c = res([[1], [2]])
    assert results_equal_relaxed(a, b)
    assert not results_equal_relaxed(a, c)


def test_relaxed_has_no_width_limit():
    rows = [[r * 10 + j for j in range(9)] for r in range(3)]
    swapped = [row[:] for row in rows]
    for row in swapped:
        row[2], row[7] = row[7], row[2]
    assert results_equal_relaxed(res(rows), res(swapped))
    assert results_equal_relaxed(res([[3], [13], [23]]), res(rows))


def _cyclic(n):
    """Column j holds (row + j) % n: every column holds the same values."""
    return [[(r + j) % n for j in range(n)] for r in range(n)]


def test_relaxed_cyclic_shift_permutation_matches():
    rows = _cyclic(12)
    perm = [5, 0, 11, 3, 8, 1, 10, 6, 2, 9, 4, 7]
    permuted = [[row[p] for p in perm] for row in rows]
    assert results_equal_relaxed(res(rows), res(permuted))
    assert results_equal_relaxed(res(rows, ordered=True), res(permuted))
    # Under a significant order the rows must line up as well.
    assert results_equal_relaxed(res(rows), res(permuted[::-1]))
    assert not results_equal_relaxed(res(rows, ordered=True), res(permuted[::-1]))


def test_relaxed_cyclic_shift_near_miss_is_rejected():
    rows = _cyclic(12)
    near = [row[:] for row in rows]
    # Swapping two cells of one column keeps every column's values.
    near[0][4], near[1][4] = near[1][4], near[0][4]
    assert not results_equal_relaxed(res(rows), res(near))
    perm = [5, 0, 11, 3, 8, 1, 10, 6, 2, 9, 4, 7]
    permuted = [[row[p] for p in perm] for row in rows]
    assert not results_equal_relaxed(res(permuted), res(near))


def test_equal_large_ints_stay_exact():
    a, b = res([[9007199254740993]]), res([[9007199254740992]])
    assert not results_equal(a, b)
    assert result_canonical_key(a) != result_canonical_key(b)
    assert results_equal(b, res([[9007199254740992.0]]))


def test_equal_infinity():
    inf = float("inf")
    assert results_equal(res([[inf]]), res([[inf]]))
    assert not results_equal(res([[inf]]), res([[-inf]]))
    assert results_equal(res([[inf], [-inf]]), res([[-inf], [inf]]))
    assert result_canonical_key(res([[inf], [-inf]])) == result_canonical_key(res([[inf], [-inf]]))
    assert result_canonical_key(res([[inf]])) != result_canonical_key(res([[-inf]]))


def test_canonical_rows_are_computed_once():
    result = res([[1.0000004, "a"], [2, None], [True, 1.5]])
    assert result.canonical_rows == ((1, "a"), (2, None), (("b", True), 1.5))
    assert result.canonical_rows is result.canonical_rows
    # The cache is not a field: equality and repr see the rows alone.
    assert result == res([[1.0000004, "a"], [2, None], [True, 1.5]])
    assert "canonical" not in repr(result)


def test_canonical_key_escapes_separators():
    assert result_canonical_key(res([["a|t:b", "c"]])) != result_canonical_key(res([["a", "b|t:c"]]))
    assert result_canonical_key(res([["a;t:b"]])) != result_canonical_key(res([["a"], ["b"]]))


def test_relaxed_matches_reference_small_space():
    """Exhaustive agreement with the brute-force restatement on tiny results."""
    alphabet = (1, "a")
    checked = 0
    for wa, wb in [(1, 1), (1, 2), (2, 2)]:
        for na in range(3):
            for nb in range(3):
                rows_a = list(itertools.product(itertools.product(alphabet, repeat=wa), repeat=na))
                rows_b = list(itertools.product(itertools.product(alphabet, repeat=wb), repeat=nb))
                for ra in rows_a:
                    for rb in rows_b:
                        for fa, fb in [(False, False), (True, False)]:
                            a = ExecutionResult(tuple(f"a{i}" for i in range(wa)), ra, fa)
                            b = ExecutionResult(tuple(f"b{i}" for i in range(wb)), rb, fb)
                            assert results_equal_relaxed(a, b) == relaxed_equal_reference(a, b)
                            assert results_equal(a, b) == exact_equal_reference(a, b)
                            checked += 1
    assert checked > 1000


# --- properties ---------------------------------------------------------------------


# Floats within 1e-7 of a 6-place rounding boundary, so that near neighbours
# land on either side of it.
boundary_floats = st.builds(
    lambda n, k, d: n + (k + 0.5) * 1e-6 + d,
    st.integers(-1, 1),
    st.integers(-1, 0),
    st.sampled_from([-1e-7, -4e-8, 0.0, 4e-8, 1e-7]),
)
safe_cells = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.sampled_from(["a", "b", "a|b", "a;b", "\\"]),
    st.integers(-2, 2).map(float),
    boundary_floats,
    # Above 2**53 floats skip integers, but ints stay exact.
    st.integers(2**53, 2**53 + 2),
    st.just(float(2**53)),
    st.sampled_from([math.inf, -math.inf]),
)


@st.composite
def small_results(draw, max_width=3, max_rows=4):
    width = draw(st.integers(1, max_width))
    nrows = draw(st.integers(0, max_rows))
    rows = tuple(
        tuple(draw(safe_cells) for _ in range(width)) for _ in range(nrows)
    )
    ordered = draw(st.booleans())
    return ExecutionResult(tuple(f"c{i}" for i in range(width)), rows, ordered)


@settings(max_examples=150, deadline=None)
@given(small_results())
def test_equal_reflexive(r):
    assert results_equal(r, r)
    assert results_equal_relaxed(r, r)


@settings(max_examples=150, deadline=None)
@given(small_results(), small_results())
def test_equal_symmetric(a, b):
    assert results_equal(a, b) == results_equal(b, a)
    assert results_equal_relaxed(a, b) == results_equal_relaxed(b, a)


@settings(max_examples=150, deadline=None)
@given(small_results(), small_results())
def test_equal_implies_relaxed(a, b):
    if results_equal(a, b):
        assert results_equal_relaxed(a, b)


@settings(max_examples=150, deadline=None)
@given(small_results(), st.randoms(use_true_random=False))
def test_unordered_row_shuffle_preserves_equality(r, rng):
    if r.order_significant:
        return
    shuffled = list(r.rows)
    rng.shuffle(shuffled)
    other = ExecutionResult(r.columns, tuple(shuffled), False)
    assert results_equal(r, other)
    same_rows = r.canonical_rows == other.canonical_rows
    assert (result_canonical_key(r) == result_canonical_key(other)) == same_rows


@settings(max_examples=150, deadline=None)
@given(small_results(), small_results())
def test_equal_results_share_canonical_key(a, b):
    # Unordered results that are equal with their rows in another order key
    # apart; equal results with the same flag and the same row order share one.
    if (
        a.order_significant == b.order_significant
        and results_equal(a, b)
        and a.canonical_rows == b.canonical_rows
    ):
        assert result_canonical_key(a) == result_canonical_key(b)


# --- canonical keys --------------------------------------------------------------


def test_canonical_key_reserved_tokens():
    error = result_canonical_key(ExecutionOutcome.sql_error("anything"))
    timeout = result_canonical_key(ExecutionOutcome.timeout())
    # Shared within a kind, whatever the message.
    assert result_canonical_key(ExecutionOutcome.sql_error("something else")) == error
    assert result_canonical_key(ExecutionOutcome.timeout()) == timeout
    assert error != timeout
    ok_results = [res([]), res([[None]]), res([["error"]]), res([["timeout"]])]
    ok_results += [res([[1]], ordered=True), res([], width=0), res([[]], width=0)]
    for r in ok_results:
        for key in (error, timeout):
            assert result_canonical_key(r) != key
            assert result_canonical_key(ExecutionOutcome.ok(r)) != key


def test_canonical_key_accepts_result_or_outcome():
    r = res([[1]])
    assert result_canonical_key(r) == result_canonical_key(ExecutionOutcome.ok(r))


def test_canonical_key_distinguishes_flag():
    rows = [[1], [2]]
    assert result_canonical_key(res(rows)) != result_canonical_key(res(rows, ordered=True))


def test_canonical_key_distinguishes_rows():
    assert result_canonical_key(res([[1]])) != result_canonical_key(res([[2]]))
    assert result_canonical_key(res([[1]])) != result_canonical_key(res([[1], [1]]))
    assert result_canonical_key(res([], width=0)) != result_canonical_key(res([[]], width=0))


def test_canonical_key_whole_floats_match_ints():
    assert result_canonical_key(res([[2.0]])) == result_canonical_key(res([[2]]))


def test_canonical_key_null_vs_text():
    assert result_canonical_key(res([[None]])) != result_canonical_key(res([["~"]]))


# --- agreement with the reference, floats included -----------------------------------


def _rounded(value):
    return round(value, 6) if isinstance(value, float) else value


@settings(max_examples=300, deadline=None)
@given(small_results(), small_results())
def test_equal_iff_same_canonical_key(a, b):
    """Equal keys imply equal results; the converse holds where order counts."""
    b = ExecutionResult(b.columns, b.rows, a.order_significant)
    same_key = result_canonical_key(a) == result_canonical_key(b)
    if same_key:
        assert results_equal(a, b)
    if a.order_significant:
        assert results_equal(a, b) == same_key


@settings(max_examples=300, deadline=None)
@given(small_results(), small_results())
def test_comparisons_match_reference_with_floats(a, b):
    assert results_equal(a, b) == exact_equal_reference(a, b)
    assert results_equal_relaxed(a, b) == relaxed_equal_reference(a, b)


@settings(max_examples=300, deadline=None)
@given(small_results(), st.randoms(use_true_random=False))
def test_rounded_projection_matches_reference(r, rng):
    """A column subset of r, permuted, with every float rounded to 6 places
    (and rows shuffled when order does not count) is a relaxed match."""
    width = len(r.columns)
    mapping = rng.sample(range(width), rng.randint(1, width))
    rows = [tuple(_rounded(row[i]) for i in mapping) for row in r.rows]
    if not r.order_significant:
        rng.shuffle(rows)
    projected = ExecutionResult(tuple(r.columns[i] for i in mapping), tuple(rows), r.order_significant)
    assert results_equal_relaxed(projected, r)
    assert relaxed_equal_reference(projected, r)
    if len(mapping) == width:
        same_order = ExecutionResult(r.columns, tuple(tuple(map(_rounded, row)) for row in r.rows), r.order_significant)
        assert results_equal(r, same_order) and exact_equal_reference(r, same_order)
        assert result_canonical_key(r) == result_canonical_key(same_order)


@settings(max_examples=200, deadline=None)
@given(small_results(), st.data())
def test_equal_width_equality_implies_relaxed(a, data):
    """For equal widths, results_equal implies results_equal_relaxed, and the
    relaxed answer agrees with the reference either way."""
    width = len(a.columns)
    if data.draw(st.booleans()):
        # A twin: floats rounded and, unless order counts, rows permuted.
        rows = [tuple(map(_rounded, row)) for row in a.rows]
        if not a.order_significant:
            rows = data.draw(st.permutations(rows))
        b = ExecutionResult(a.columns, tuple(rows), a.order_significant)
    else:
        rows = data.draw(st.lists(st.tuples(*[safe_cells] * width), max_size=4))
        b = ExecutionResult(a.columns, tuple(rows), data.draw(st.booleans()))
    if results_equal(a, b):
        assert results_equal_relaxed(a, b) and results_equal_relaxed(b, a)
    assert results_equal_relaxed(a, b) == relaxed_equal_reference(a, b)


@settings(max_examples=150, deadline=None)
@given(small_results(), st.data())
def test_unordered_canonical_key_ignores_row_permutation(r, data):
    """Permuted unordered rows stay equal; they share a key only when the
    permutation leaves the canonical rows in place."""
    unordered = ExecutionResult(r.columns, r.rows, False)
    permuted = ExecutionResult(r.columns, tuple(data.draw(st.permutations(r.rows))), False)
    assert results_equal(permuted, unordered)
    same_rows = permuted.canonical_rows == unordered.canonical_rows
    assert (result_canonical_key(permuted) == result_canonical_key(unordered)) == same_rows


def _whole_float_twin(r, data):
    """r with some int cells as whole floats and, sometimes, its rows permuted."""
    rows = [
        tuple(
            float(v) if type(v) is int and abs(v) <= 2**53 and data.draw(st.booleans()) else v
            for v in row
        )
        for row in r.rows
    ]
    if data.draw(st.booleans()):
        rows = data.draw(st.permutations(rows))
    return ExecutionResult(r.columns, tuple(rows), r.order_significant)


@settings(max_examples=300, deadline=None)
@given(small_results(), st.data())
def test_equal_keys_give_one_verdict_against_any_expected(a, data):
    """Classification agrees with pass checking: results that share a key
    get the same verdict against any expected result, exact or relaxed,
    ordered or not, in both argument orders."""
    b = _whole_float_twin(a, data)
    if data.draw(st.booleans()):
        expected = data.draw(small_results())
    else:
        # a's rows in some order, projected onto some of its columns.
        width = len(a.columns)
        mapping = data.draw(st.permutations(range(width)))[: data.draw(st.integers(1, width))]
        rows = data.draw(st.permutations([tuple(row[i] for i in mapping) for row in a.rows]))
        columns = tuple(f"e{i}" for i in mapping)
        expected = ExecutionResult(columns, tuple(rows), data.draw(st.booleans()))
    if result_canonical_key(a) != result_canonical_key(b):
        return
    for compare in (results_equal, results_equal_relaxed):
        assert compare(a, expected) == compare(b, expected)
        assert compare(expected, a) == compare(expected, b)


def test_canonical_rows_are_the_rows_when_every_cell_is_canonical():
    result = res([[1, "a"], [None, 2**60]])
    assert result.canonical_rows is result.rows
    mixed = res([[1, "a"], [1.5, None]])
    assert mixed.canonical_rows is not mixed.rows
    assert mixed.canonical_rows[0] is mixed.rows[0]


def test_cached_multisets_are_computed_once():
    result = res([[1.0, "a"], [1, "a"], [True, None]])
    assert type(result.row_counts) is dict
    assert result.row_counts == {(1, "a"): 2, (("b", True), None): 1}
    assert result.canonical_columns == [(1, 1, ("b", True)), ("a", "a", None)]
    assert result.column_counts == [{1: 2, ("b", True): 1}, {"a": 2, None: 1}]
    assert result.cell_types == {float, int, str, bool, type(None)}
    cached = ("cell_types", "row_counts", "canonical_columns", "column_counts")
    for name in cached:
        assert getattr(result, name) is getattr(result, name)
    # The caches are not fields: equality and repr see the rows alone.
    assert result == res([[1.0, "a"], [1, "a"], [True, None]])
    assert not any(name in repr(result) for name in cached)
