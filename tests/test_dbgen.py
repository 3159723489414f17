import sqlite3
from random import Random

import pytest

from sqlrerank.dbgen import (
    CONSTRAINED_RANGE,
    GenConfig,
    GenMethod,
    constrain_numbers,
    fuzz_database,
    prune_schema,
    sample_database,
    _fuzz_fk_column,
)
from sqlrerank.dbio import load_into_connection, read_database
from sqlrerank.errors import MalformedDatabase, TargetIsForeignKey, UnknownColumn
from sqlrerank.executor import OutcomeKind, execute, results_equal
from sqlrerank.schema import ColumnType, ForeignKey, SchemaGraph, Table
from sqlrerank.suite import generate_database

from conftest import col, make_instance
from refimpl import foreign_key_violations, project

FUZZ = GenConfig(method=GenMethod.FUZZING)
PICK = GenConfig(method=GenMethod.RANDOM_SELECTION)


def fuzz_cfg(**kw):
    kw.setdefault("method", GenMethod.FUZZING)
    return GenConfig(**kw)


def pick_cfg(**kw):
    kw.setdefault("method", GenMethod.RANDOM_SELECTION)
    return GenConfig(**kw)


def test_genconfig_validation():
    with pytest.raises(ValueError):
        GenConfig(mts=0)


# --- fuzzing -----------------------------------------------------------------


def test_fuzz_row_counts(chain_schema):
    db = fuzz_database(chain_schema, fuzz_cfg(mts=4))
    assert [db.row_count(t) for t in ("parent", "child", "grandchild")] == [4, 4, 4]


def test_fuzz_fk_valid_many_seeds(
    student_schema, chain_schema, self_ref_schema, junction_schema
):
    for schema in (student_schema, chain_schema, self_ref_schema, junction_schema):
        for seed in range(30):
            db = fuzz_database(schema, fuzz_cfg(seed=seed))
            assert foreign_key_violations(db) == []


def test_fuzz_pk_distinct(chain_schema, junction_schema):
    for seed in range(10):
        db = fuzz_database(chain_schema, fuzz_cfg(seed=seed, mts=6))
        for tname, pk in (("parent", "pid"), ("child", "cid"), ("grandchild", "gid")):
            idx = db.schema.table(tname).index(pk)
            values = [r[idx] for r in db.data_for(tname).rows]
            assert len(set(values)) == len(values)
        jdb = fuzz_database(junction_schema, fuzz_cfg(seed=seed, mts=3))
        link = jdb.data_for("link")
        assert len({r[:2] for r in link.rows}) == len(link.rows)


def test_fuzz_cell_types(student_schema):
    db = fuzz_database(student_schema, fuzz_cfg(seed=3, mts=8))
    students = db.data_for("student")
    for sid, name, age in students.rows:
        assert isinstance(sid, int)
        assert isinstance(name, str)
        assert name.islower() and 3 <= len(name) <= 10
        assert isinstance(age, int) and 0 <= age <= 100


def test_fuzz_real_cells(junction_schema):
    db = fuzz_database(junction_schema, fuzz_cfg(seed=1))
    for row in db.data_for("link").rows:
        assert isinstance(row[2], float)
        assert 0.0 <= row[2] <= 100.0


def test_fuzz_deterministic(chain_schema):
    a = fuzz_database(chain_schema, fuzz_cfg(seed=9))
    b = fuzz_database(chain_schema, fuzz_cfg(seed=9))
    c = fuzz_database(chain_schema, fuzz_cfg(seed=10))
    assert a == b
    assert a != c


def test_fuzz_method_guard(student_schema):
    with pytest.raises(ValueError):
        fuzz_database(student_schema, pick_cfg())


def test_fuzz_self_fk(self_ref_schema):
    for seed in range(20):
        db = fuzz_database(self_ref_schema, fuzz_cfg(seed=seed))
        data = db.data_for("employee")
        ids = {r[0] for r in data.rows}
        assert all(r[1] in ids for r in data.rows)


def test_fuzz_multi_fk_type_clash_raises():
    # A child column referencing an int parent and a text parent can never
    # satisfy both pools.
    schema = SchemaGraph(
        tables=(
            Table("pa", (col("id", pk=True),)),
            Table("pb", (col("id", ColumnType.TEXT, pk=True),)),
            Table("c", (col("cid", pk=True), col("x"))),
        ),
        foreign_keys=(
            ForeignKey("c", "x", "pa", "id"),
            ForeignKey("c", "x", "pb", "id"),
        ),
    )
    with pytest.raises(MalformedDatabase):
        fuzz_database(schema, fuzz_cfg(seed=0))


def test_fuzz_multi_fk_intersection():
    schema = SchemaGraph(
        tables=(
            Table("pa", (col("id", pk=True),)),
            Table("pb", (col("id", pk=True),)),
            Table("c", (col("cid", pk=True), col("x"))),
        ),
        foreign_keys=(
            ForeignKey("c", "x", "pa", "id"),
            ForeignKey("c", "x", "pb", "id"),
        ),
    )
    outcomes = {"ok": 0, "empty": 0}
    for seed in range(120):
        try:
            db = fuzz_database(schema, fuzz_cfg(seed=seed))
        except MalformedDatabase:
            outcomes["empty"] += 1
            continue
        outcomes["ok"] += 1
        pa = {r[0] for r in db.data_for("pa").rows}
        pb = {r[0] for r in db.data_for("pb").rows}
        assert all(r[1] in pa and r[1] in pb for r in db.data_for("c").rows)
    # Two samples of 5 from 101 values overlap sometimes but not always.
    assert outcomes["ok"] > 0
    assert outcomes["empty"] > 0


def test_fuzz_a_key_on_its_own_column_holds_any_value():
    # t0(id int REFERENCES t0(id)): every value satisfies the key.
    schema = SchemaGraph(
        tables=(Table("t0", (col("id"),)),),
        foreign_keys=(ForeignKey("t0", "id", "t0", "id"),),
    )
    db = fuzz_database(schema, fuzz_cfg(mts=2, seed=0))
    assert db.row_count("t0") == 2
    assert foreign_key_violations(db) == []
    assert execute(db, "SELECT count(*) FROM t0").kind is OutcomeKind.OK


def _rowid_child_of(parent_type: ColumnType, raw: str) -> SchemaGraph:
    # t1.id is declared exactly INTEGER and is t1's only key column: the rowid.
    return SchemaGraph(
        tables=(
            Table("t0", (col("id", parent_type, raw, pk=True),)),
            Table("t1", (col("id", raw="INTEGER", pk=True),)),
        ),
        foreign_keys=(ForeignKey("t1", "id", "t0", "id"),),
    )


def test_fuzz_a_rowid_alias_child_takes_only_integers():
    # The rowid refuses a REAL parent's fractional values; too few are left.
    real_parent = _rowid_child_of(ColumnType.REAL, "REAL")
    for seed in range(3):
        with pytest.raises(MalformedDatabase, match="t1.id"):
            fuzz_database(real_parent, fuzz_cfg(mts=2, seed=seed))
    db = fuzz_database(_rowid_child_of(ColumnType.INTEGER, "int"), fuzz_cfg(mts=2, seed=0))
    assert foreign_key_violations(db) == []
    assert execute(db, "SELECT id FROM t1").kind is OutcomeKind.OK
    # A whole float is kept as its int.
    fk = real_parent.foreign_keys[0]
    pools = {("t0", "id"): [63.11, 15.0, 7]}
    values = _fuzz_fk_column(col("id", raw="INTEGER", pk=True), [fk], pools, 2, Random(0), True)
    assert sorted(values) == [7, 15] and all(type(v) is int for v in values)


# --- random selection ---------------------------------------------------------


def _as_multiset(rows):
    return sorted(map(repr, rows))


def test_sample_subset(chain_instance):
    db = sample_database(chain_instance, pick_cfg(seed=2))
    for tname in ("parent", "child", "grandchild"):
        original = chain_instance.data_for(tname).rows
        for row in db.data_for(tname).rows:
            assert row in original


def test_sample_childless_size(flat_instance):
    assert sample_database(flat_instance, pick_cfg(mts=5)).row_count("stadium") == 5
    assert sample_database(flat_instance, pick_cfg(mts=100)).row_count("stadium") == 7


def test_sample_fk_valid_many_seeds(
    student_instance, chain_instance, self_ref_instance, junction_instance
):
    for inst in (student_instance, chain_instance, self_ref_instance, junction_instance):
        for seed in range(30):
            db = sample_database(inst, pick_cfg(seed=seed, mts=3))
            assert foreign_key_violations(db) == []


def test_sample_referred_rows_override_mts():
    schema = SchemaGraph(
        tables=(
            Table("p", (col("id", pk=True),)),
            Table("ca", (col("aid", pk=True), col("pid"))),
            Table("cb", (col("bid", pk=True), col("pid"))),
        ),
        foreign_keys=(
            ForeignKey("ca", "pid", "p", "id"),
            ForeignKey("cb", "pid", "p", "id"),
        ),
    )
    inst = make_instance(
        schema,
        {
            "p": [(i,) for i in range(20)],
            "ca": [(i, i) for i in range(10)],
            "cb": [(i, 10 + i) for i in range(10)],
        },
    )
    mts = 5
    db = sample_database(inst, pick_cfg(seed=4, mts=mts))
    assert db.row_count("ca") == mts
    assert db.row_count("cb") == mts
    # Each child row points at a distinct parent, so 10 parents are pinned.
    referred = {r[1] for r in db.data_for("ca").rows} | {r[1] for r in db.data_for("cb").rows}
    assert len(referred) == 2 * mts
    assert db.row_count("p") == 2 * mts
    assert {r[0] for r in db.data_for("p").rows} == referred
    assert foreign_key_violations(db) == []


def test_sample_order_preserved(flat_instance):
    original = flat_instance.data_for("stadium").rows
    index_of = {row: i for i, row in enumerate(original)}
    for seed in range(10):
        db = sample_database(flat_instance, pick_cfg(seed=seed, mts=4))
        positions = [index_of[row] for row in db.data_for("stadium").rows]
        assert positions == sorted(positions)


def test_sample_self_fk_closure(self_ref_instance):
    overflowed = False
    for seed in range(20):
        db = sample_database(self_ref_instance, pick_cfg(seed=seed, mts=1))
        assert foreign_key_violations(db) == []
        rows = db.data_for("employee").rows
        for row in rows:
            assert row in self_ref_instance.data_for("employee").rows
        if len(rows) > 1:
            overflowed = True
    # Management chains drag their managers in past the size target.
    assert overflowed


def test_sample_broken_original_does_not_hang(self_ref_schema):
    inst = make_instance(
        self_ref_schema, {"employee": [(1, 99, 10), (2, 1, 20), (3, 1, 30)]}
    )
    db = sample_database(inst, pick_cfg(seed=0, mts=2))
    assert db.row_count("employee") >= 1  # completed despite the dangling 99


def test_sample_deterministic(chain_instance):
    a = sample_database(chain_instance, pick_cfg(seed=7, mts=3))
    b = sample_database(chain_instance, pick_cfg(seed=7, mts=3))
    assert a == b


def test_sample_method_guard(student_instance):
    with pytest.raises(ValueError):
        sample_database(student_instance, fuzz_cfg())


def test_generate_database_dispatch(student_instance):
    picked = generate_database(student_instance, pick_cfg(seed=1, mts=2))
    for row in picked.data_for("student").rows:
        assert row in student_instance.data_for("student").rows
    fuzzed = generate_database(student_instance, fuzz_cfg(seed=1, mts=2))
    assert fuzzed.schema == student_instance.schema
    assert fuzzed.row_count("student") == 2


def test_foreign_key_spelled_unlike_its_columns_stays_valid(tmp_path):
    path = tmp_path / "fk.db"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE P (Id INTEGER PRIMARY KEY);
        CREATE TABLE C (Pid int, FOREIGN KEY (pID) REFERENCES p (ID));
        INSERT INTO P VALUES (1), (2), (3), (4);
        INSERT INTO C VALUES (1), (3), (3), (4);
        """
    )
    conn.close()
    original = read_database(str(path))
    assert original.schema.foreign_keys == (ForeignKey("C", "Pid", "P", "Id"),)
    for method in GenMethod:
        for seed in range(20):
            db = generate_database(original, GenConfig(mts=2, method=method, seed=seed))
            assert foreign_key_violations(db) == []


# --- constrained values --------------------------------------------------------


def test_constrain_replaces_targets(student_instance):
    out = constrain_numbers(student_instance, {("student", "age")}, pick_cfg(seed=3))
    ages = [r[2] for r in out.data_for("student").rows]
    assert all(isinstance(a, int) and 1 <= a <= 10 for a in ages)
    # Everything else is untouched.
    assert [r[:2] for r in out.data_for("student").rows] == [
        r[:2] for r in student_instance.data_for("student").rows
    ]
    assert out.data_for("enrollment") == student_instance.data_for("enrollment")


def test_constrain_custom_range(student_instance):
    lo, hi = CONSTRAINED_RANGE
    out = constrain_numbers(student_instance, {("student", "age")}, pick_cfg(seed=0))
    assert all(lo <= r[2] <= hi for r in out.data_for("student").rows)


def test_constrain_empty_targets_is_identity(student_instance):
    assert constrain_numbers(student_instance, set(), pick_cfg()) is student_instance


def test_constrain_unknown_column(student_instance):
    with pytest.raises(UnknownColumn):
        constrain_numbers(student_instance, {("student", "ghost")}, pick_cfg())
    with pytest.raises(UnknownColumn):
        constrain_numbers(student_instance, {("ghost", "age")}, pick_cfg())


def test_constrain_rejects_fk_columns(student_instance):
    with pytest.raises(TargetIsForeignKey):
        constrain_numbers(student_instance, {("enrollment", "student_id")}, pick_cfg())
    with pytest.raises(TargetIsForeignKey):
        constrain_numbers(student_instance, {("student", "student_id")}, pick_cfg())


def test_constrain_validates_before_mutating(student_instance):
    # One good target plus one bad: nothing may change.
    with pytest.raises(UnknownColumn):
        constrain_numbers(
            student_instance, {("student", "age"), ("student", "ghost")}, pick_cfg()
        )
    assert student_instance.data_for("student").rows[0][2] == 20


def test_constrain_deterministic(student_instance):
    a = constrain_numbers(student_instance, {("student", "age")}, pick_cfg(seed=5))
    b = constrain_numbers(student_instance, {("student", "age")}, pick_cfg(seed=5))
    assert a == b


# --- target extraction -----------------------------------------------------------


def test_extract_target_columns(student_instance):
    _pruned, targets = prune_schema(
        student_instance,
        [
            "SELECT max(age) FROM student",
            "SELECT grade FROM enrollment ORDER BY grade",
            "SELECT 'not even close",
        ],
    )
    assert targets == {("student", "age"), ("enrollment", "grade")}


def test_extract_target_columns_empty(student_instance):
    assert prune_schema(student_instance, ["SELECT name FROM student"])[1] == set()


# --- schema pruning ----------------------------------------------------------------


def prune_and_project(db, sqls):
    """prune_schema, with the instance that the pruned schema stands for."""
    schema, targets = prune_schema(db, sqls)
    return project(db, schema), targets


def test_prune_targets_tell_apart_names_unlike_outside_ascii():
    schema = SchemaGraph(tables=(Table("t", (col("É"),)), Table("u", (col("é"),))))
    db = make_instance(schema, {"t": [(1,)], "u": [(2,)]})
    _schema, targets = prune_schema(db, ['SELECT max("É") FROM t, u WHERE u."é" > 0'])
    assert targets == {("t", "É")}


def test_prune_drops_unused_table(chain_instance):
    out, _targets = prune_and_project(chain_instance, ["SELECT pval FROM parent"])
    assert tuple(t.name for t in out.schema.tables) == ("parent",)
    assert out.schema.table("parent").column_names() == ("pval",)


def test_prune_keeps_fk_bridge_columns(student_instance):
    out, _targets = prune_and_project(
        student_instance,
        ["SELECT name FROM student JOIN enrollment ON student.student_id = enrollment.student_id"],
    )
    kept = {(t.name, c) for t in out.schema.tables for c in t.column_names()}
    assert ("student", "student_id") in kept
    assert ("enrollment", "student_id") in kept
    assert ("student", "name") in kept
    assert ("enrollment", "grade") not in kept
    assert len(out.schema.foreign_keys) == 1
    assert foreign_key_violations(out) == []


def test_prune_drops_fk_to_dropped_table(student_instance):
    out, _targets = prune_and_project(student_instance, ["SELECT grade FROM enrollment"])
    assert tuple(t.name for t in out.schema.tables) == ("enrollment",)
    assert out.schema.foreign_keys == ()
    assert out.schema.table("enrollment").column_names() == ("grade",)


def test_prune_star_keeps_all_columns(student_instance):
    out, _targets = prune_and_project(student_instance, ["SELECT * FROM student"])
    assert out.schema.table("student").column_names() == ("student_id", "name", "age")


def test_prune_unparsable_returns_input(student_instance):
    out, targets = prune_and_project(student_instance, ["SELECT 'broken"])
    assert out is student_instance
    assert targets == set()


def test_prune_table_with_no_columns_keeps_pk(student_instance):
    out, _targets = prune_and_project(student_instance, ["SELECT count(*) FROM student"])
    assert tuple(t.name for t in out.schema.tables) == ("student",)
    assert out.schema.table("student").column_names() == ("student_id",)
    assert out.data_for("student").rows == ((1,), (2,), (3,), (4,))


def test_prune_composite_pk_partially_dropped(junction_instance):
    out, _targets = prune_and_project(junction_instance, ["SELECT lid FROM link"])
    assert tuple(t.name for t in out.schema.tables) == ("link",)
    link = out.schema.table("link")
    assert link.column_names() == ("lid",)
    assert not link.columns[0].is_primary_key
    # Projection keeps duplicates: two link rows share lid 1.
    assert out.data_for("link").rows == ((1,), (1,), (2,), (3,))


def test_prune_preserves_query_results(student_instance):
    sql = "SELECT max(grade) FROM enrollment"
    pruned, _targets = prune_and_project(student_instance, [sql])

    def run(inst):
        conn = sqlite3.connect(":memory:")
        load_into_connection(inst, conn)
        got = conn.execute(sql).fetchall()
        conn.close()
        return got

    assert run(pruned) == run(student_instance)


def test_prune_preserves_join_results(chain_instance):
    sql = (
        "SELECT parent.pval, count(*) FROM parent"
        " JOIN child ON parent.pid = child.pid GROUP BY parent.pid"
    )
    pruned, _targets = prune_and_project(chain_instance, [sql])
    assert "grandchild" not in tuple(t.name for t in pruned.schema.tables)

    def run(inst):
        conn = sqlite3.connect(":memory:")
        load_into_connection(inst, conn)
        got = conn.execute(sql).fetchall()
        conn.close()
        return got

    assert sorted(run(pruned)) == sorted(run(chain_instance))


@pytest.fixture
def pair_instance():
    """Two tables sharing a key column, with no foreign key between them."""
    schema = SchemaGraph(
        tables=(
            Table("person", (col("pid", pk=True), col("name", ColumnType.TEXT), col("age"))),
            Table("badge", (col("pid", pk=True), col("level"))),
        ),
    )
    return make_instance(
        schema, {"person": [(1, "ann", 30), (2, "bob", 40)], "badge": [(1, 3), (3, 5)]}
    )


@pytest.mark.parametrize(
    "fixture,sql",
    [
        ("student_instance", "SELECT s.name, e.grade FROM student s JOIN enrollment e"
         " ON s.student_id = e.student_id"),
        ("student_instance", "SELECT name, grade FROM student, enrollment"
         " WHERE student.student_id = enrollment.student_id"),
        ("pair_instance", "SELECT name FROM person JOIN badge USING (pid)"),
        ("pair_instance", "SELECT name, level FROM person NATURAL JOIN badge"),
        ("pair_instance", "SELECT name FROM person LEFT JOIN badge USING (pid)"),
        ("student_instance", "WITH s AS (SELECT age FROM student WHERE age > 20)"
         " SELECT max(age) FROM s"),
        ("student_instance", "WITH RECURSIVE n(k) AS (SELECT 1 UNION ALL SELECT k + 1 FROM n"
         " WHERE k < 3) SELECT name FROM student WHERE student_id IN (SELECT k FROM n)"),
        ("student_instance", "WITH g(sid, total) AS (SELECT student_id, sum(grade)"
         " FROM enrollment GROUP BY student_id)"
         " SELECT name, total FROM student JOIN g ON g.sid = student.student_id"),
        ("student_instance", "SELECT name FROM student s WHERE s.age >"
         " (SELECT avg(e.grade) FROM enrollment e WHERE e.student_id = s.student_id)"),
        ("student_instance", "SELECT t.a FROM (SELECT age AS a FROM student) t ORDER BY t.a"),
        ("student_instance", "SELECT * FROM enrollment"),
        ("student_instance", "SELECT s.* FROM student s JOIN enrollment e"
         " ON e.student_id = s.student_id"),
        ("student_instance", "SELECT name, rank() OVER (ORDER BY age DESC) FROM student"),
        ("student_instance", "SELECT name FROM student UNION SELECT grade FROM enrollment"
         " ORDER BY 1"),
    ],
)
def test_pruned_instance_runs_every_candidate(request, fixture, sql):
    db = request.getfixturevalue(fixture)
    # A second candidate reading one column makes pruning drop the rest.
    other = f"SELECT count(*) FROM {db.schema.tables[0].name}"
    assert execute(db, sql).kind is OutcomeKind.OK
    pruned, _targets = prune_and_project(db, [sql, other])
    for query in (sql, other):
        outcome = execute(pruned, query)
        assert outcome.kind is OutcomeKind.OK, outcome.message
        assert results_equal(outcome.result, execute(db, query).result), query


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT name, grade FROM student JOIN enrollment USING (student_id)",
        "SELECT name, grade FROM student NATURAL JOIN enrollment",
    ],
)
def test_a_join_by_column_name_leaves_the_instance_unpruned(student_instance, sql):
    """SQLite reports no read of a USING join's right-hand table, nor of a
    NATURAL join's shared columns. The cost: this USING candidate would
    still run on `student(student_id, name)` and `enrollment(student_id,
    grade)`, yet it too gets the whole instance."""
    pruned, targets = prune_and_project(student_instance, [sql, "SELECT count(*) FROM student"])
    assert pruned is student_instance
    assert targets == set()


def test_prune_targets_a_column_of_a_partly_pruned_composite_key():
    schema = SchemaGraph(tables=(Table("pair", (col("x", pk=True), col("y", pk=True), col("v"))),))
    db = make_instance(schema, {"pair": [(1, 1, 5), (1, 2, 6), (2, 1, 7)]})
    pruned, targets = prune_and_project(db, ["SELECT x FROM pair ORDER BY x"])
    assert pruned.schema.table("pair").columns == (col("x"),)
    assert targets == {("pair", "x")}
    pruned, targets = prune_and_project(db, ["SELECT x, y FROM pair ORDER BY x"])
    assert pruned.schema.table("pair").columns == (col("x", pk=True), col("y", pk=True))
    assert targets == set()


def test_prune_keeps_and_targets_cte_aggregate(student_instance):
    sqls = [
        "WITH s AS (SELECT age FROM student) SELECT max(age) FROM s",
        "SELECT name FROM student",
    ]
    pruned, targets = prune_and_project(student_instance, sqls)
    assert pruned.schema.table("student").column_names() == ("name", "age")
    assert targets == {("student", "age")}


def test_prune_projection_matches_per_cell_projection(student_instance, chain_instance):
    """Sampling every row onto a pruned schema gives the per-cell projection
    of the source rows, and a table that keeps every column keeps its row
    tuples."""
    cases = [
        (student_instance, "SELECT age, name FROM student"),
        (student_instance, "SELECT s.*, e.grade FROM student s JOIN enrollment e ON s.student_id = e.student_id"),
        (chain_instance, "SELECT gval FROM grandchild JOIN child ON grandchild.cid = child.cid"),
        (chain_instance, "SELECT * FROM parent"),
    ]
    for original, sql in cases:
        schema, _targets = prune_schema(original, [sql])
        out = sample_database(original, pick_cfg(mts=100), schema)
        for table in schema.tables:
            source = original.data_for(table.name)
            idxs = [original.schema.table(table.name).index(c) for c in table.column_names()]
            pruned = out.data_for(table.name).rows
            assert pruned == tuple(tuple(row[i] for i in idxs) for row in source.rows)
            if len(idxs) == len(original.schema.table(table.name).columns):
                assert all(a is b for a, b in zip(pruned, source.rows))


@pytest.fixture
def league_instance():
    """`game` references `team` twice, `team` references itself in chains
    that the sampler closes over, and `team` has more rows than
    `random.sample` copies into a list when it draws 5 or fewer (21) while
    `game` has fewer."""
    schema = SchemaGraph(
        tables=(
            Table("team", (
                col("tid", pk=True), col("name", ColumnType.TEXT), col("city", ColumnType.TEXT),
                col("rival"),
            )),
            Table("game", (col("gid", pk=True), col("home"), col("away"), col("score"))),
        ),
        foreign_keys=(
            ForeignKey("team", "rival", "team", "tid"),
            ForeignKey("game", "home", "team", "tid"),
            ForeignKey("game", "away", "team", "tid"),
        ),
    )
    teams = [(t, f"t{t}", f"c{t % 4}", t // 2 or None) for t in range(1, 31)]
    games = [(g, 1 + (g * 5) % 30, 1 + (g * 11) % 30, g % 6) for g in range(1, 16)]
    return make_instance(schema, {"team": teams, "game": games})


@pytest.mark.parametrize(
    "fixture,sqls",
    [
        ("league_instance", ["SELECT name FROM team"]),
        ("league_instance", ["SELECT g.score, t.city FROM game g JOIN team t ON t.tid = g.home"]),
        ("league_instance", ["SELECT count(*) FROM game", "SELECT city FROM team"]),
        ("junction_instance", ["SELECT l.lid, t.lname FROM link l JOIN left_t t ON t.lid = l.lid"]),
        ("flat_instance", ["SELECT name FROM stadium"]),
    ],
)
def test_sampling_onto_a_pruned_schema_equals_sampling_the_projection(request, fixture, sqls):
    """Rows are drawn by index from the original and projected after: the
    same draws, and so the same instance, as sampling the projected copy."""
    original = request.getfixturevalue(fixture)
    schema, _targets = prune_schema(original, sqls)
    assert schema != original.schema
    projected = project(original, schema)
    for seed in range(200):
        cfg = pick_cfg(seed=seed, mts=1 + seed % 5)
        assert sample_database(original, cfg, schema) == sample_database(projected, cfg), seed


def test_sampling_draws_the_same_rows_for_a_seed(league_instance):
    """The rows a seed draws are pinned, so that suites, prompts and oracle
    request ids stay the same; a table with nothing picked yet draws from
    every index, one with rows picked from the rest, in original order."""
    draws = {
        seed: {t: [r[0] for r in db.data_for(t).rows] for t in ("team", "game")}
        for seed, db in (
            (seed, sample_database(league_instance, pick_cfg(seed=seed, mts=2))) for seed in (0, 1)
        )
    }
    assert draws == {
        0: {"team": [1, 2, 3, 4, 5, 6, 9, 11, 18], "game": [7, 14]},
        1: {"team": [1, 2, 4, 5, 8, 10, 16, 21], "game": [3, 10]},
    }
    schema, _targets = prune_schema(league_instance, ["SELECT name FROM team"])
    drawn = sample_database(league_instance, pick_cfg(seed=3, mts=4), schema)
    assert drawn.data_for("team").rows == (
        (1, "t1", None), (2, "t2", 1), (4, "t4", 2), (5, "t5", 2),
        (8, "t8", 4), (9, "t9", 4), (18, "t18", 9), (19, "t19", 9),
    )
