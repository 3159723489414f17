"""Pruning is invisible: on random schemas and reading SQL from a small
grammar, a candidate's result on the pruned instance equals its result on
the original (ROADMAP property 4(a)). And the analysis that prunes, drawn
from the reads the original's session records while it runs the
candidates, equals the schema-only reference in `refimpl`. And every
instance either generator makes loads and keeps its keys (property 4(b)).
And candidates in one behavior class get one verdict against any expected
result (property 4(c)).

The schemas have one to three tables whose columns come from a small shared
name pool, so NATURAL and USING joins find shared columns. Columns are
INTEGER (some declared `INTEGER`, so a one-column key is the rowid), REAL or
TEXT; keys are single or composite; tables form a foreign-key chain, and the
first may reference itself. The grammar covers the joins, CTEs, subqueries,
grouping, ordering, windows and compounds that candidates use. A query that
fails on the original is discarded, and the second candidate is any draw,
compiling or not. Where a query has a top-level ORDER BY, it outputs only its
sort keys: SQL leaves the order of ties open, and a pruned table may lose
the key index that a plan on the original scans in.
"""
from __future__ import annotations

from dataclasses import replace
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqlrerank import dbgen
from sqlrerank.dbgen import (
    CONSTRAINED_RANGE,
    GenConfig,
    GenMethod,
    constrain_numbers,
    fuzz_database,
    prune_schema,
    sample_database,
)
from sqlrerank.errors import SqlRerankError
from sqlrerank.executor import OutcomeKind, Session, execute, results_equal
from sqlrerank.instance import instance_to_json
from sqlrerank.schema import ColumnDef, ColumnType, ForeignKey, SchemaGraph, Table
from sqlrerank.sqlanalysis import analyze_all
from sqlrerank.suite import Candidate, TestCase, TestSuite, classify_candidates, rerank

from conftest import make_instance
from refimpl import foreign_key_violations, project, schema_only_analyze_all

NAMES = ("id", "a", "b", "name")
VALUES = {
    ColumnType.INTEGER: st.integers(-2, 3),
    ColumnType.REAL: st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
    ColumnType.TEXT: st.sampled_from(["", "x", "y"]),
}


@st.composite
def tables(draw, name: str) -> Table:
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    keys = draw(st.integers(0, min(2, len(names))))
    columns = []
    for i, cname in enumerate(names):
        ctype = draw(st.sampled_from([ColumnType.INTEGER, ColumnType.REAL, ColumnType.TEXT]))
        raw = ctype.value
        if ctype is ColumnType.INTEGER:
            raw = draw(st.sampled_from(["int", "INTEGER"]))
        columns.append(ColumnDef(cname, ctype, raw, is_primary_key=i < keys))
    return Table(name, tuple(columns))


@st.composite
def databases(draw):
    """An instance whose keys are unique, and whose foreign-key columns hold
    NULL or a value of the referenced column."""
    chain = [draw(tables(f"t{i}")) for i in range(draw(st.integers(1, 3)))]
    fks = [
        ForeignKey(child.name, draw(st.sampled_from(child.column_names())), parent.name,
                   parent.columns[0].name)
        for parent, child in zip(chain, chain[1:])
        if draw(st.booleans())
    ]
    first, last = chain[0], chain[0].columns[-1]
    if not last.is_primary_key and draw(st.booleans()):
        fks.append(ForeignKey(first.name, last.name, first.name, first.columns[0].name))
    rows: dict[str, list[tuple]] = {}
    for table in chain:
        referenced = {
            fk.child_column: [r[0] for r in rows.get(fk.parent_table, [])]
            for fk in fks if fk.child_table == table.name and fk.parent_table != table.name
        }
        cells = []
        for column in table.columns:
            values = VALUES[column.declared_type]
            if column.name in referenced:
                values = st.sampled_from(referenced[column.name] or [None])
            cells.append(values if column.is_primary_key else st.none() | values)
        keys = len(table.primary_key())
        unique = (lambda r: r[:keys]) if keys else None
        drawn = draw(st.lists(st.tuples(*cells), max_size=5, unique_by=unique))
        if any(fk.child_table == fk.parent_table == table.name for fk in fks):
            drawn = [r[:-1] + (drawn[i - 1][0] if i else None,) for i, r in enumerate(drawn)]
        rows[table.name] = drawn
    return make_instance(SchemaGraph(tuple(chain), tuple(fks)), rows)


@st.composite
def reading_sql(draw, schema: SchemaGraph) -> str:
    """One reading statement from a small grammar over `schema`. It may not
    compile: a USING column may be missing from a table, say."""
    t, u = (draw(st.sampled_from(schema.tables)) for _ in range(2))

    def col(table: Table) -> str:
        return draw(st.sampled_from(table.column_names()))

    c, d, x = col(t), col(t), col(t)
    y, e = col(u), col(u)
    on = f"{t.name} AS p JOIN {u.name} AS q ON p.{x} = q.{y}"
    forms = [
        lambda: f"SELECT {c} FROM {t.name}",
        lambda: f"SELECT {c}, {d} FROM {t.name} WHERE {x} IS NOT NULL",
        lambda: f"SELECT p.{c}, q.{e} FROM {on}",
        lambda: f"SELECT p.{c} FROM {t.name} AS p, {u.name} AS q WHERE p.{x} = q.{y}",
        lambda: f"SELECT p.{c}, q.{e} FROM {t.name} AS p LEFT JOIN {u.name} AS q"
                f" ON p.{x} = q.{y}",
        lambda: f"SELECT p.{c} FROM {t.name} AS p"
                f" {draw(st.sampled_from(['', 'LEFT ']))}JOIN {u.name} AS q"
                f" USING ({draw(st.sampled_from(NAMES))})",
        lambda: f"SELECT {draw(st.sampled_from(['*', f'p.{c}', 'count(*)']))}"
                f" FROM {t.name} AS p NATURAL JOIN {u.name} AS q",
        lambda: f"WITH w AS (SELECT {c} AS k FROM {t.name} WHERE {d} IS NOT NULL)"
                " SELECT max(k), count(*) FROM w",
        lambda: "WITH RECURSIVE n(k) AS (SELECT 1 UNION ALL SELECT k + 1 FROM n WHERE k < 3)"
                f" SELECT {c} FROM {t.name} WHERE {x} IN (SELECT k FROM n)",
        lambda: f"SELECT p.{c} FROM {t.name} AS p"
                f" WHERE EXISTS (SELECT 1 FROM {u.name} AS q WHERE q.{y} = p.{x})",
        lambda: f"SELECT p.{c}, (SELECT count(*) FROM {u.name} AS q WHERE q.{y} = p.{x})"
                f" FROM {t.name} AS p",
        lambda: f"SELECT s.k FROM (SELECT {c} AS k, {d} AS j FROM {t.name}) AS s"
                " WHERE s.j IS NOT NULL ORDER BY s.k",
        lambda: f"SELECT {c}, count(*), sum({d}) FROM {t.name} GROUP BY {c}"
                f" HAVING {draw(st.sampled_from(['count(*) > 1', f'max({x}) IS NOT NULL']))}",
        lambda: f"SELECT {c} FROM {t.name} ORDER BY {c} DESC LIMIT 2",
        lambda: f"SELECT {c}, rank() OVER (ORDER BY {d}), sum({x}) OVER (PARTITION BY {d})"
                f" FROM {t.name}",
        lambda: f"SELECT {c} FROM {t.name}"
                f" {draw(st.sampled_from(['UNION', 'UNION ALL', 'INTERSECT', 'EXCEPT']))}"
                f" SELECT {e} FROM {u.name}{draw(st.sampled_from(['', ' ORDER BY 1']))}",
        lambda: f"SELECT rowid, {c} FROM {t.name}",
        lambda: f"SELECT p.rowid, q.{e} FROM {on}",
        lambda: f"SELECT count(*) FROM {t.name} AS p, {u.name} AS q",
        lambda: f"SELECT * FROM {t.name}",
        lambda: f"SELECT p.*, q.{e} FROM {on}",
    ]
    return draw(st.sampled_from(forms))()


@st.composite
def cases(draw):
    db = draw(databases())
    return db, draw(reading_sql(db.schema)), draw(reading_sql(db.schema))


@settings(max_examples=400, deadline=None)
@given(cases())
def test_pruning_changes_no_result(case):
    db, sql, other = case
    original = execute(db, sql)
    assume(original.kind is OutcomeKind.OK)
    schema, _targets = prune_schema(db, [sql, other])
    outcome = execute(project(db, schema), sql)
    assert outcome.kind is OutcomeKind.OK, outcome.message
    assert results_equal(outcome.result, original.result)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_the_sessions_reads_match_the_schema_only_reference(case):
    """The candidates, a respelling and one that does more than read run on
    the original's session first, as in a corpus run; the analyses, pruned
    schema and targets from what it recorded equal the reference's. An
    original that fails to load (a REAL in an INTEGER PRIMARY KEY, say)
    gives every candidate one outcome, so no suite is generated for it."""
    db, sql, other = case
    sqls = [
        sql, other, sql.replace("SELECT", "select") + ";", f"DELETE FROM {db.schema.tables[0].name}"
    ]
    with Session(db) as session:
        outcomes = [execute(session, text) for text in sqls]
        assume(not outcomes[0].message.startswith("instance load failed"))
        assert analyze_all(session, sqls) == schema_only_analyze_all(sqls, db.schema)
        got = prune_schema(session, sqls)
        with mock.patch.object(
            dbgen, "analyze_all", lambda _session, texts: schema_only_analyze_all(texts, db.schema)
        ):
            assert got == prune_schema(session, sqls)


@settings(max_examples=300, deadline=None)
@given(cases(), st.sampled_from(list(GenMethod)), st.integers(0, 2**16))
def test_generated_instances_load_and_keep_their_keys(case, method, seed):
    """Either generator, onto the pruned schema and with constraining, as a
    suite generates (ROADMAP property 4(b)): the instance loads, satisfies
    its foreign keys, and holds constrained cells in range and off key
    columns; or the generator refuses with a `SqlRerankError`. A second
    call with the same config draws the same instance, before and after
    constraining (property 4(d)). Sampling needs an original that loads:
    its rows are the sample's."""
    db, sql, other = case
    config = GenConfig(mts=2, method=method, seed=seed)
    schema, targets = prune_schema(db, [sql, other])
    if method is GenMethod.RANDOM_SELECTION:
        assume(execute(db, "SELECT 1").kind is OutcomeKind.OK)

    def generate() -> list:
        if method is GenMethod.FUZZING:
            drawn = fuzz_database(schema, config)
        else:
            drawn = sample_database(db, config, schema)
        return [drawn, constrain_numbers(drawn, targets, config)]

    try:
        drawn, generated = generate()
    except SqlRerankError:
        return
    assert list(map(instance_to_json, generate())) == list(map(instance_to_json, (drawn, generated)))
    outcome = execute(generated, "SELECT 1")
    assert outcome.kind is OutcomeKind.OK, outcome.message
    assert foreign_key_violations(generated) == []
    lo, hi = CONSTRAINED_RANGE
    for tname, cname in targets:
        column = schema.table(tname).column(cname)
        assert not column.is_primary_key and not schema.is_foreign_key_endpoint(tname, cname)
        i = schema.table(tname).index(column.name)
        assert all(lo <= row[i] <= hi for row in generated.data_for(tname).rows)


# Two candidates with the same rows, one ordered and one not, and an expected
# result holding those rows in another order: one verdict per class needs the
# order flag in the key. Random draws rarely reach this.
DESCENDING = make_instance(
    SchemaGraph((Table("t0", (ColumnDef("a", ColumnType.INTEGER, "int"),)),)),
    {"t0": [(3,), (1,)]},
)


@settings(max_examples=200, deadline=None)
@example(
    (
        DESCENDING,
        [
            "SELECT a FROM t0 ORDER BY a DESC LIMIT 2",
            "SELECT a FROM t0",
            "SELECT a, a FROM t0",
            "SELECT count(*) FROM t0",
            "SELECT a FROM t0 ORDER BY a",
        ],
    )
)
@given(
    databases().flatmap(
        lambda db: st.tuples(
            st.just(db), st.lists(reading_sql(db.schema), min_size=5, max_size=5)
        )
    )
)
def test_classification_agrees_with_pass_checking(case):
    """ROADMAP property 4(c): candidates that `classify_candidates` puts in
    one class get the same verdict against any expected result. The
    expected result is a further reading statement's, in its ordered and
    its unordered form, under exact and relaxed comparison; a verdict is the
    candidate's pass count on a one-case suite on the same database."""
    db, (*sqls, expected_sql) = case
    with Session(db) as session:
        expected = execute(session, expected_sql)
        assume(expected.kind is OutcomeKind.OK)
        candidates = [Candidate(sql, source_rank=i) for i, sql in enumerate(sqls)]
        classes, _representatives = classify_candidates(session, candidates)
        for ordered in (False, True):
            result = replace(expected.result, order_significant=ordered)
            suite = TestSuite(cases=(TestCase(db, result, session=session),))
            for relaxed in (False, True):
                verdicts = {
                    s.candidate.source_rank: s.pass_count
                    for s in rerank(candidates, suite, relaxed).scores
                }
                for members in classes:
                    assert len({verdicts[i] for i in members}) == 1, (members, verdicts)
