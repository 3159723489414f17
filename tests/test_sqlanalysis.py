import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlrerank.sqlanalysis
from sqlrerank.dbgen import prune_schema
from sqlrerank.errors import SqlParseError
from sqlrerank.executor import OutcomeKind, Session, execute, results_equal
from sqlrerank.sqlanalysis import (
    SqlAnalysis,
    analyze_all,
    has_top_level_order_by,
    joins_by_column_name,
    tokenize,
)

from conftest import make_instance, record_statements
from refimpl import project, schema_only_analyze_all


def analyze_on(schema, sqls):
    """analyze_all on a session over an empty instance of `schema`."""
    with Session(make_instance(schema, {})) as session:
        return analyze_all(session, sqls)


def analyze(sql, schema):
    """The analysis of one SQL; raises SqlParseError where analyze_all skips it."""
    analyses, warnings = analyze_on(schema, [sql])
    if warnings:
        raise SqlParseError(warnings[0])
    return analyses[0]


# --- tokenizer -------------------------------------------------------------


def kinds(sql):
    return [(t.kind, t.value) for t in tokenize(sql)]


def test_tokenize_basic():
    assert kinds("SELECT a, b FROM t") == [
        ("ident", "SELECT"),
        ("ident", "a"),
        ("punct", ","),
        ("ident", "b"),
        ("ident", "FROM"),
        ("ident", "t"),
    ]


def test_tokenize_string_escape():
    toks = tokenize("SELECT 'it''s'")
    assert toks[1].kind == "string"
    assert toks[1].value == "it's"


def test_tokenize_quoted_identifiers():
    assert [t.value for t in tokenize('"a b"')] == ["a b"]
    assert [t.value for t in tokenize("`tick`")] == ["tick"]
    assert [t.value for t in tokenize("[br ack]")] == ["br ack"]
    assert all(t.kind == "ident" for t in tokenize('"x" `y` [z]'))


def test_tokenize_doubled_quote_in_identifier():
    toks = tokenize('"we""ird"')
    assert toks[0].value == 'we"ird'


@pytest.mark.parametrize("text", ["1", "2.5", ".5", "1e3", "1.5E-2", "10."])
def test_tokenize_numbers(text):
    toks = tokenize(f"SELECT {text}")
    assert toks[1].kind == "number"
    assert toks[1].text == text


def test_tokenize_two_char_operators():
    ops = [t.text for t in tokenize("a <= b <> c != d || e >= f == g")]
    assert "<=" in ops and "<>" in ops and "!=" in ops and "||" in ops and ">=" in ops


def test_tokenize_comments_stripped():
    toks = tokenize("SELECT a -- trailing\nFROM t /* block\ncomment */ WHERE b")
    assert [t.value for t in toks] == ["SELECT", "a", "FROM", "t", "WHERE", "b"]


def test_tokenize_lone_dot_is_punct():
    toks = tokenize("t.c")
    assert [(t.kind, t.text) for t in toks] == [("ident", "t"), ("punct", "."), ("ident", "c")]


@pytest.mark.parametrize(
    "bad",
    ["SELECT 'open", "[no close", "SELECT a ? b", "SELECT @v"],
)
def test_tokenize_errors(bad):
    with pytest.raises(SqlParseError):
        tokenize(bad)


def test_tokenize_unclosed_block_comment_runs_to_the_end():
    # As in SQLite, a block comment ends at */ or at the end of the text.
    assert tokenize("/* never closed") == []
    assert [t.value for t in tokenize("SELECT a /* b */ , c /* d")] == ["SELECT", "a", ",", "c"]


def test_trailing_unclosed_comment_keeps_the_order_and_the_column(student_instance):
    sql = "SELECT name FROM student ORDER BY age /* trailing"
    schema, targets = prune_schema(student_instance, [sql, "SELECT name FROM student"])
    pruned = project(student_instance, schema)
    assert pruned.schema.table("student").column_names() == ("name", "age")
    assert targets == {("student", "age")}
    on_pruned = execute(pruned, sql)
    assert on_pruned.kind is OutcomeKind.OK, on_pruned.message
    assert results_equal(on_pruned.result, execute(student_instance, sql).result)


# --- analysis: hand-resolved fixtures --------------------------------------


def cols(analysis):
    return sorted(analysis.columns)


def aggs(analysis):
    return sorted(analysis.agg_or_sort_columns)


def test_plain_select(student_schema):
    a = analyze("SELECT name FROM student", student_schema)
    assert a.tables == frozenset({"student"})
    assert cols(a) == [("student", "name")]
    assert aggs(a) == []
    assert not has_top_level_order_by("SELECT name FROM student")


def test_join_with_aliases(student_schema):
    a = analyze(
        "SELECT s.name, e.grade FROM student AS s JOIN enrollment e"
        " ON s.student_id = e.student_id",
        student_schema,
    )
    assert a.tables == frozenset({"student", "enrollment"})
    assert cols(a) == [
        ("enrollment", "grade"),
        ("enrollment", "student_id"),
        ("student", "name"),
        ("student", "student_id"),
    ]
    assert aggs(a) == []


def test_aggregate_marks_argument(student_schema):
    a = analyze("SELECT max(age) FROM student", student_schema)
    assert aggs(a) == [("student", "age")]


def test_aggregate_nested_expression(student_schema):
    a = analyze("SELECT sum(age + 1) FROM student", student_schema)
    assert aggs(a) == [("student", "age")]


def test_aggregate_over_inner_function(student_schema):
    a = analyze("SELECT max(abs(age)) FROM student", student_schema)
    assert aggs(a) == [("student", "age")]


def test_scalar_function_is_not_aggregate(student_schema):
    a = analyze("SELECT abs(age) FROM student", student_schema)
    assert cols(a) == [("student", "age")]
    assert aggs(a) == []


def test_count_star_marks_nothing(student_schema):
    a = analyze("SELECT count(*) FROM enrollment", student_schema)
    assert a.tables == frozenset({"enrollment"})
    assert aggs(a) == []
    assert cols(a) == []


def test_order_by_column(student_schema):
    a = analyze("SELECT name FROM student ORDER BY age DESC", student_schema)
    assert aggs(a) == [("student", "age")]
    assert has_top_level_order_by("SELECT name FROM student ORDER BY age DESC")


def test_order_by_positional(student_schema):
    a = analyze("SELECT name, age FROM student ORDER BY 2", student_schema)
    assert aggs(a) == [("student", "age")]


def test_order_by_output_alias(student_schema):
    a = analyze("SELECT age AS a FROM student ORDER BY a", student_schema)
    assert aggs(a) == [("student", "age")]


def test_order_by_qualified(student_schema):
    a = analyze("SELECT * FROM student ORDER BY student.age", student_schema)
    assert aggs(a) == [("student", "age")]
    assert cols(a) == [("student", "age"), ("student", "name"), ("student", "student_id")]


def test_group_by_column_is_not_sort_target(student_schema):
    a = analyze("SELECT age, count(*) FROM student GROUP BY age", student_schema)
    assert cols(a) == [("student", "age")]
    assert aggs(a) == []


def test_having_aggregate(student_schema):
    a = analyze(
        "SELECT student_id FROM enrollment GROUP BY student_id HAVING sum(grade) > 100",
        student_schema,
    )
    assert aggs(a) == [("enrollment", "grade")]


def test_bare_star(student_schema):
    a = analyze("SELECT * FROM enrollment", student_schema)
    assert cols(a) == [
        ("enrollment", "grade"), ("enrollment", "row_id"), ("enrollment", "student_id")
    ]


def test_qualified_star(student_schema):
    a = analyze("SELECT s.* FROM student s, enrollment", student_schema)
    assert cols(a) == [("student", "age"), ("student", "name"), ("student", "student_id")]
    assert a.tables == frozenset({"student", "enrollment"})


def test_subquery_in_where(student_schema):
    a = analyze(
        "SELECT name FROM student WHERE student_id IN"
        " (SELECT student_id FROM enrollment WHERE grade > 80)",
        student_schema,
    )
    assert a.tables == frozenset({"student", "enrollment"})
    assert ("enrollment", "grade") in a.columns
    assert ("enrollment", "student_id") in a.columns
    assert ("student", "student_id") in a.columns


def test_correlated_subquery_outer_alias(student_schema):
    a = analyze(
        "SELECT name FROM student s WHERE s.age >"
        " (SELECT avg(e.grade) FROM enrollment e WHERE e.student_id = s.student_id)",
        student_schema,
    )
    assert cols(a) == [
        ("enrollment", "grade"),
        ("enrollment", "student_id"),
        ("student", "age"),
        ("student", "name"),
        ("student", "student_id"),
    ]
    assert aggs(a) == [("enrollment", "grade")]


def test_derived_table(student_schema):
    a = analyze("SELECT t.a FROM (SELECT age AS a FROM student) t", student_schema)
    assert a.tables == frozenset({"student"})
    assert cols(a) == [("student", "age")]


def test_inner_order_by_is_not_top_level(student_schema):
    sql = "SELECT name FROM (SELECT name, age FROM student ORDER BY age) t"
    a = analyze(sql, student_schema)
    assert not has_top_level_order_by(sql)
    # The inner sort column still counts as a sort target.
    assert ("student", "age") in a.agg_or_sort_columns


def test_union_order_by_is_top_level(student_schema):
    sql = "SELECT name FROM student UNION SELECT grade FROM enrollment ORDER BY 1"
    a = analyze(sql, student_schema)
    assert has_top_level_order_by(sql)
    assert a.tables == frozenset({"student", "enrollment"})
    # Positional deref happens in the core that owns the ORDER BY tail.
    assert ("enrollment", "grade") in a.agg_or_sort_columns


def test_parenthesized_join(student_schema):
    a = analyze(
        "SELECT name FROM (student JOIN enrollment"
        " ON student.student_id = enrollment.student_id)",
        student_schema,
    )
    assert a.tables == frozenset({"student", "enrollment"})


def test_using_join(student_instance):
    # SQLite reports no read of a USING column, so pruning must not drop it.
    sql = "SELECT name FROM student JOIN enrollment USING (student_id)"
    schema, _targets = prune_schema(student_instance, [sql])
    assert execute(project(student_instance, schema), sql).kind is OutcomeKind.OK


@pytest.mark.parametrize(
    "sql,by_name",
    [
        ("SELECT name FROM student JOIN enrollment USING (student_id)", True),
        ("SELECT name FROM student NATURAL LEFT JOIN enrollment", True),
        ("SELECT name FROM student WHERE name = 'natural using'", False),
        ("SELECT name FROM student JOIN enrollment"
         " ON student.student_id = enrollment.student_id", False),
    ],
)
def test_joins_by_column_name(sql, by_name):
    assert joins_by_column_name(sql) is by_name


def test_case_expression(student_schema):
    a = analyze(
        "SELECT CASE WHEN age > 21 THEN 'x' ELSE name END FROM student", student_schema
    )
    assert cols(a) == [("student", "age"), ("student", "name")]


def test_unknown_column_ignored(student_schema):
    with pytest.raises(SqlParseError):
        analyze("SELECT ghost FROM student", student_schema)


def test_unknown_table_ignored(student_schema):
    with pytest.raises(SqlParseError):
        analyze("SELECT x FROM ghost_table", student_schema)


def test_semicolon_tolerated(student_schema):
    a = analyze("SELECT name FROM student;", student_schema)
    assert a.tables == frozenset({"student"})


def test_case_insensitive_resolution(student_schema):
    a = analyze("select NAME from STUDENT order by AGE", student_schema)
    assert cols(a) == [("student", "age"), ("student", "name")]


@pytest.mark.parametrize(
    "bad",
    [
        "",
        ";",
        "SELECT a FROM t )",
        "SELECT (a FROM t",
        "SELECT 'oops FROM t",
        "SELECT a FROM t extra_tokens ( (",
    ],
)
def test_analyze_rejects_malformed(bad, student_schema):
    with pytest.raises(SqlParseError):
        analyze(bad, student_schema)


def test_analyze_all_skips_bad(student_schema):
    analyses, warnings = analyze_on(
        student_schema,
        ["SELECT name FROM student", "SELECT 'broken", "SELECT age FROM student"],
    )
    assert len(analyses) == 2
    assert len(warnings) == 1
    assert "candidate 1" in warnings[0]


def test_analyze_all_compiles_only_texts_without_a_record(student_instance, monkeypatch):
    """A text the session ran without error, or a respelling of it, is
    analysed from the record of its run; another text compiles as EXPLAIN."""
    ran = ["SELECT name FROM student ORDER BY age", "SELECT ghost FROM student"]
    others = ["select NAME from STUDENT order by AGE;", "SELECT max(grade) FROM enrollment"]
    statements = record_statements(monkeypatch)
    with Session(student_instance) as session:
        for sql in ran:
            execute(session, sql)
        before = len(statements)
        analyses, warnings = analyze_all(session, ran + others)
    assert statements[before:] == [f"EXPLAIN {ran[1]}", f"EXPLAIN {others[1]}"]
    assert (analyses, warnings) == schema_only_analyze_all(ran + others, student_instance.schema)
    assert [a.sql for a in analyses] == [ran[0], *others]


def test_analyze_all_skips_statements_that_do_not_only_read(student_schema):
    analyses, warnings = analyze_on(
        student_schema,
        ["DELETE FROM student", "PRAGMA table_info(student)", "SELECT age FROM student"],
    )
    assert [a.sql for a in analyses] == ["SELECT age FROM student"]
    assert len(warnings) == 2


# --- top-level ORDER BY scan ------------------------------------------------


@pytest.mark.parametrize(
    "sql,expected",
    [
        ("SELECT a FROM t ORDER BY a", True),
        ("SELECT a FROM t", False),
        ("SELECT a FROM (SELECT a FROM t ORDER BY a) x", False),
        ("SELECT a FROM t UNION SELECT b FROM u ORDER BY 1", True),
        ("SELECT a FROM t WHERE a IN (SELECT b FROM u ORDER BY b)", False),
        ("not even sql 'unterminated", False),
        ("SELECT a, (SELECT max(b) FROM u ORDER BY b) FROM t", False),
        ("SELECT a FROM t ORDER BY a /* trailing", True),
    ],
)
def test_has_top_level_order_by(sql, expected):
    assert has_top_level_order_by(sql) is expected


# --- one reading per text ----------------------------------------------------


@pytest.fixture
def tokenize_calls(monkeypatch):
    """Calls of `tokenize` from an empty text cache on."""
    calls: list[str] = []

    def counting(sql):
        calls.append(sql)
        return tokenize(sql)

    sqlrerank.sqlanalysis._read.cache_clear()
    monkeypatch.setattr(sqlrerank.sqlanalysis, "tokenize", counting)
    yield calls
    sqlrerank.sqlanalysis._read.cache_clear()


def test_each_text_is_tokenized_once(student_instance, tokenize_calls):
    sqls = [
        "SELECT name FROM student ORDER BY age",
        "SELECT max(age) FROM student",
        "SELECT s.name FROM student AS s JOIN enrollment e ON e.student_id = s.student_id",
    ]
    for sql in sqls:
        has_top_level_order_by(sql)
    prune_schema(student_instance, sqls)  # analyzes every text once more
    assert sorted(tokenize_calls) == sorted(sqls)


def test_a_rejected_text_is_tokenized_once(student_schema, tokenize_calls):
    sql = "SELECT 1 AS x€"  # SQLite compiles it; the tokenizer rejects it
    for _ in range(3):
        assert not has_top_level_order_by(sql)
        analyses, warnings = analyze_on(student_schema, [sql])
        assert analyses == []
        assert warnings == ["candidate 0 skipped: unexpected character '€' at offset 13"]
    assert tokenize_calls == [sql]


# --- robustness property -----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_analyze_never_crashes_unexpectedly(student_schema_module, s):
    try:
        result = analyze(s, student_schema_module)
    except SqlParseError:
        return
    assert isinstance(result, SqlAnalysis)


@pytest.fixture(scope="module")
def student_schema_module():
    from conftest import col
    from sqlrerank.schema import ColumnType, ForeignKey, SchemaGraph, Table

    return SchemaGraph(
        tables=(
            Table("student", (col("student_id", pk=True), col("name", ColumnType.TEXT), col("age"))),
            Table("enrollment", (col("row_id", pk=True), col("student_id"), col("grade"))),
        ),
        foreign_keys=(ForeignKey("enrollment", "student_id", "student", "student_id"),),
    )
