import ast
import itertools
import sqlite3
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlrerank.errors import CyclicForeignKeys, FileUnreadable, MalformedDatabase
from sqlrerank.schema import (
    ColumnDef,
    ColumnType,
    ForeignKey,
    SchemaGraph,
    Table,
    classify_declared_type,
    fold,
    introspect_schema,
    reverse_topo_order,
    topo_order_parents_first,
)

from conftest import col


@pytest.mark.parametrize(
    "declared,expected",
    [
        ("INTEGER", ColumnType.INTEGER),
        ("int", ColumnType.INTEGER),
        ("BIGINT", ColumnType.INTEGER),
        ("smallint unsigned", ColumnType.INTEGER),
        ("REAL", ColumnType.REAL),
        ("FLOAT", ColumnType.REAL),
        ("double precision", ColumnType.REAL),
        ("NUMERIC(10,2)", ColumnType.REAL),
        ("DECIMAL", ColumnType.REAL),
        ("VARCHAR(40)", ColumnType.TEXT),
        ("text", ColumnType.TEXT),
        ("CLOB", ColumnType.TEXT),
        ("DATETIME", ColumnType.TEXT),
        ("date", ColumnType.TEXT),
        ("BOOL", ColumnType.TEXT),
        ("boolean", ColumnType.TEXT),
        ("BLOB", ColumnType.OTHER),
        ("", ColumnType.OTHER),
        ("geometry", ColumnType.OTHER),
    ],
)
def test_classify_declared_type(declared, expected):
    assert classify_declared_type(declared) is expected


def test_int_wins_over_real_keywords():
    # "POINT" has no keyword; "int" inside wins first per rule order.
    assert classify_declared_type("interval") is ColumnType.INTEGER


def test_table_rejects_duplicate_columns():
    with pytest.raises(ValueError):
        Table("t", (col("a"), col("A")))


def test_table_rejects_empty():
    with pytest.raises(ValueError):
        Table("t", ())


def test_schema_rejects_duplicate_tables():
    with pytest.raises(ValueError):
        SchemaGraph(tables=(Table("t", (col("a"),)), Table("T", (col("b"),))))


def test_schema_rejects_dangling_fk():
    with pytest.raises(ValueError):
        SchemaGraph(
            tables=(Table("t", (col("a"),)),),
            foreign_keys=(ForeignKey("t", "a", "missing", "x"),),
        )
    with pytest.raises(ValueError):
        SchemaGraph(
            tables=(Table("t", (col("a"),)), Table("u", (col("b"),))),
            foreign_keys=(ForeignKey("t", "missing_col", "u", "b"),),
        )


def test_case_insensitive_lookup(student_schema):
    assert student_schema.table("STUDENT").name == "student"
    assert student_schema.table("student").column("NAME").name == "name"
    assert student_schema.is_foreign_key_endpoint("ENROLLMENT", "STUDENT_ID")
    assert student_schema.is_foreign_key_endpoint("student", "student_id")
    assert not student_schema.is_foreign_key_endpoint("student", "age")


def test_names_fold_in_ascii_only():
    assert fold("StUdent_É") == "student_É"
    table = Table("t", (col("É"), col("é")))
    assert table.index("é") == 1 and not table.has_column("e")
    schema = SchemaGraph(tables=(Table("Ä", (col("x"),)), Table("ä", (col("y"),))))
    assert schema.table("ä").column_names() == ("y",)


def test_foreign_keys_are_stored_as_declared():
    tables = (Table("P", (col("Id", pk=True),)), Table("C", (col("Pid"),)))
    declared = SchemaGraph(tables, (ForeignKey("C", "Pid", "P", "Id"),))
    respelled = SchemaGraph(tables, (ForeignKey("c", "pID", "p", "ID"),))
    assert respelled == declared
    assert respelled.foreign_keys == (ForeignKey("C", "Pid", "P", "Id"),)


def test_only_fold_maps_case():
    """SQLite compares names in ASCII case only, and `schema.fold` is the one
    place in the package that says so: no other code calls `.lower()`,
    `.upper()` or `.casefold()`."""
    package = Path(__file__).resolve().parent.parent / "src" / "sqlrerank"
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(inner)
            for node in tree.body
            if path.name == "schema.py" and isinstance(node, ast.FunctionDef) and node.name == "fold"
            for inner in ast.walk(node)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("lower", "upper", "casefold")
            and id(node) not in allowed
        ]
    assert found == []


# --- introspection ---------------------------------------------------------


def _write_db(path, script):
    conn = sqlite3.connect(path)
    conn.executescript(script)
    conn.commit()
    conn.close()


def test_introspect_empty_database(tmp_path):
    path = str(tmp_path / "empty.db")
    sqlite3.connect(path).close()
    schema = introspect_schema(path)
    assert schema.tables == ()


def test_introspect_student_fk(tmp_path):
    path = str(tmp_path / "s.db")
    _write_db(
        path,
        """
        CREATE TABLE table_b (student_id INT PRIMARY KEY, name TEXT);
        CREATE TABLE table_a (
            row_id INT PRIMARY KEY,
            student_id INT,
            FOREIGN KEY (student_id) REFERENCES table_b (student_id)
        );
        """,
    )
    schema = introspect_schema(path)
    assert tuple(t.name for t in schema.tables) == ("table_b", "table_a")
    assert len(schema.foreign_keys) == 1
    fk = schema.foreign_keys[0]
    assert (fk.child_table, fk.child_column) == ("table_a", "student_id")
    assert (fk.parent_table, fk.parent_column) == ("table_b", "student_id")
    assert schema.table("table_b").column("student_id").is_primary_key
    assert schema.table("table_b").column("name").declared_type is ColumnType.TEXT


def test_introspect_fk_without_parent_column_uses_pk(tmp_path):
    path = str(tmp_path / "pk.db")
    _write_db(
        path,
        """
        CREATE TABLE p (pid INT PRIMARY KEY, v TEXT);
        CREATE TABLE c (cid INT PRIMARY KEY, pid INT REFERENCES p);
        """,
    )
    schema = introspect_schema(path)
    fk = schema.foreign_keys[0]
    assert fk.parent_column == "pid"


def test_introspect_dangling_fk_table(tmp_path):
    path = str(tmp_path / "bad.db")
    # SQLite happily stores an FK whose parent table never gets created.
    _write_db(path, "CREATE TABLE c (cid INT, pid INT REFERENCES ghost (pid));")
    with pytest.raises(MalformedDatabase):
        introspect_schema(path)


def test_introspect_missing_file(tmp_path):
    with pytest.raises(FileUnreadable):
        introspect_schema(str(tmp_path / "nope.db"))


def test_introspect_not_a_database(tmp_path):
    path = tmp_path / "junk.db"
    path.write_text("this is not a database, not even close, padding padding")
    with pytest.raises(FileUnreadable):
        introspect_schema(str(path))


def test_introspect_deterministic(tmp_path):
    path = str(tmp_path / "d.db")
    _write_db(path, "CREATE TABLE t (a INT, b TEXT); CREATE TABLE u (c REAL);")
    assert introspect_schema(path) == introspect_schema(path)


# --- topological ordering --------------------------------------------------


def _graph(fks, *names):
    tables = tuple(Table(n, (col("id", pk=True), col("ref"))) for n in names)
    return SchemaGraph(
        tables=tables,
        foreign_keys=tuple(ForeignKey(c, "ref", p, "id") for c, p in fks),
    )


def _parents_first_ok(order, schema):
    pos = {name.lower(): i for i, name in enumerate(order)}
    return all(
        pos[fk.parent_table.lower()] < pos[fk.child_table.lower()]
        for fk in schema.foreign_keys
        if fk.parent_table.lower() != fk.child_table.lower()
    )


def test_topo_simple_pair():
    schema = _graph([("a", "b")], "a", "b")
    assert topo_order_parents_first(schema) == ("b", "a")
    assert reverse_topo_order(schema) == ("a", "b")


def test_topo_no_fks_keeps_schema_order():
    schema = _graph([], "x", "y", "z")
    assert topo_order_parents_first(schema) == ("x", "y", "z")


def test_topo_diamond():
    schema = _graph([("a", "b"), ("b", "c"), ("a", "c")], "a", "b", "c")
    order = topo_order_parents_first(schema)
    # Brute-force oracle: scan every permutation for the parent-first rule.
    valid = [
        p for p in itertools.permutations(("a", "b", "c")) if _parents_first_ok(p, schema)
    ]
    assert ("c", "b", "a") in valid
    assert order in valid
    assert order == ("c", "b", "a")
    assert reverse_topo_order(schema) == ("a", "b", "c")


def test_topo_single_table():
    schema = _graph([], "solo")
    assert reverse_topo_order(schema) == ("solo",)


def test_topo_self_reference_is_not_a_cycle(self_ref_schema):
    assert topo_order_parents_first(self_ref_schema) == ("employee",)


def test_topo_cycle_rejected():
    schema = _graph([("a", "b"), ("b", "a")], "a", "b")
    with pytest.raises(CyclicForeignKeys):
        topo_order_parents_first(schema)
    with pytest.raises(CyclicForeignKeys):
        reverse_topo_order(schema)


def test_topo_three_cycle_rejected():
    schema = _graph([("a", "b"), ("b", "c"), ("c", "a")], "a", "b", "c")
    with pytest.raises(CyclicForeignKeys):
        topo_order_parents_first(schema)


@st.composite
def acyclic_schemas(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"t{i}" for i in range(n)]
    edges = []
    # Children may only reference lower-numbered tables, so the graph is
    # acyclic by construction.
    for child in range(1, n):
        for parent in range(child):
            if draw(st.booleans()):
                edges.append((names[child], names[parent]))
    return _graph(edges, *names)


@settings(max_examples=100, deadline=None)
@given(acyclic_schemas())
def test_topo_property(schema):
    order = topo_order_parents_first(schema)
    assert sorted(order) == sorted(t.name for t in schema.tables)
    assert _parents_first_ok(order, schema)
    assert reverse_topo_order(schema) == tuple(reversed(order))
