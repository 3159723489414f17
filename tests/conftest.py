"""Shared schema and instance fixtures, plus the acceptance summary hook."""
from __future__ import annotations

import random
import sqlite3

import pytest

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect one verdict line per acceptance check for the run summary."""
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from sqlrerank.instance import DatabaseInstance, TableData
from sqlrerank.schema import ColumnDef, ColumnType, ForeignKey, SchemaGraph, Table


def col(name: str, ctype: ColumnType = ColumnType.INTEGER, raw: str | None = None, pk: bool = False) -> ColumnDef:
    raw_types = {
        ColumnType.INTEGER: "int",
        ColumnType.REAL: "real",
        ColumnType.TEXT: "text",
        ColumnType.OTHER: "blob",
    }
    return ColumnDef(
        name=name,
        declared_type=ctype,
        raw_type=raw if raw is not None else raw_types[ctype],
        is_primary_key=pk,
    )


def make_instance(schema: SchemaGraph, rows_by_table: dict[str, list[tuple]]) -> DatabaseInstance:
    tables = {
        t.name: TableData(t.name, tuple(tuple(r) for r in rows_by_table.get(t.name, [])))
        for t in schema.tables
    }
    return DatabaseInstance(schema=schema, tables=tables)


# Candidates on `rowid_child_of_real_key`: fuzzing for them draws fractional
# t0.id values, which t1.id, the rowid, cannot take, so a draw can hold no
# valid t1.
ROWID_CHILD_CANDIDATES = (
    "SELECT id, w FROM t1",
    "SELECT count(*) FROM t1 JOIN t0 ON t1.id = t0.id",
)


def rowid_child_of_real_key() -> DatabaseInstance:
    """t1.id, declared exactly INTEGER and so the rowid, references t0's REAL key."""
    schema = SchemaGraph(
        tables=(
            Table("t0", (col("id", ColumnType.REAL, "REAL", pk=True), col("v"))),
            Table("t1", (col("id", raw="INTEGER", pk=True), col("w"))),
        ),
        foreign_keys=(ForeignKey("t1", "id", "t0", "id"),),
    )
    return make_instance(schema, {"t0": [(1.0, 1), (2.5, 2)], "t1": [(1, 7)]})


@pytest.fixture
def student_schema() -> SchemaGraph:
    """Two tables: enrollment rows reference students."""
    return SchemaGraph(
        tables=(
            Table("student", (col("student_id", pk=True), col("name", ColumnType.TEXT), col("age"))),
            Table("enrollment", (col("row_id", pk=True), col("student_id"), col("grade"))),
        ),
        foreign_keys=(ForeignKey("enrollment", "student_id", "student", "student_id"),),
    )


@pytest.fixture
def student_instance(student_schema) -> DatabaseInstance:
    return make_instance(
        student_schema,
        {
            "student": [(1, "ann", 20), (2, "bob", 22), (3, "cat", 21), (4, "dan", 23)],
            "enrollment": [(10, 1, 88), (11, 1, 91), (12, 3, 75)],
        },
    )


@pytest.fixture
def many_students(student_schema) -> DatabaseInstance:
    """The student schema with enough rows that a scan of them can run past
    the progress steps after which a session keys outcomes by compiled
    program."""
    return make_instance(
        student_schema,
        {
            "student": [(i, f"s{i % 37}", 18 + i % 11) for i in range(1, 2401)],
            "enrollment": [(i, 1 + i * 7 % 2400, 50 + i % 50) for i in range(1, 1001)],
        },
    )


def record_statements(monkeypatch) -> list[str]:
    """Record the SQL of every `execute` call on SQLite connections opened
    from now on, EXPLAINs and statements that fail included."""
    statements: list[str] = []

    class Recording(sqlite3.Connection):
        def execute(self, sql, *args):
            statements.append(sql)
            return super().execute(sql, *args)

    real_connect = sqlite3.connect
    monkeypatch.setattr(
        sqlite3, "connect", lambda *args, **kwargs: real_connect(*args, factory=Recording, **kwargs)
    )
    return statements


@pytest.fixture
def chain_schema() -> SchemaGraph:
    """grandchild -> child -> parent foreign-key chain."""
    return SchemaGraph(
        tables=(
            Table("parent", (col("pid", pk=True), col("pval"))),
            Table("child", (col("cid", pk=True), col("pid"), col("cval"))),
            Table("grandchild", (col("gid", pk=True), col("cid"), col("gval", ColumnType.TEXT))),
        ),
        foreign_keys=(
            ForeignKey("child", "pid", "parent", "pid"),
            ForeignKey("grandchild", "cid", "child", "cid"),
        ),
    )


@pytest.fixture
def chain_instance(chain_schema) -> DatabaseInstance:
    rng = random.Random(5)
    parents = [(i, rng.randint(0, 50)) for i in range(1, 9)]
    children = [(i, rng.choice(parents)[0], rng.randint(0, 50)) for i in range(1, 11)]
    grand = [(i, rng.choice(children)[0], rng.choice("abcdef")) for i in range(1, 13)]
    return make_instance(
        chain_schema, {"parent": parents, "child": children, "grandchild": grand}
    )


@pytest.fixture
def self_ref_schema() -> SchemaGraph:
    """Employees reporting to other employees."""
    return SchemaGraph(
        tables=(
            Table(
                "employee",
                (col("emp_id", pk=True), col("manager_id"), col("salary")),
            ),
        ),
        foreign_keys=(ForeignKey("employee", "manager_id", "employee", "emp_id"),),
    )


@pytest.fixture
def self_ref_instance(self_ref_schema) -> DatabaseInstance:
    rows = [
        (1, 1, 100),
        (2, 1, 60),
        (3, 1, 55),
        (4, 2, 40),
        (5, 2, 45),
        (6, 3, 30),
        (7, 6, 25),
    ]
    return make_instance(self_ref_schema, {"employee": rows})


@pytest.fixture
def junction_schema() -> SchemaGraph:
    """Composite-primary-key link table between two parents."""
    return SchemaGraph(
        tables=(
            Table("left_t", (col("lid", pk=True), col("lname", ColumnType.TEXT))),
            Table("right_t", (col("rid", pk=True), col("rname", ColumnType.TEXT))),
            Table("link", (col("lid", pk=True), col("rid", pk=True), col("weight", ColumnType.REAL))),
        ),
        foreign_keys=(
            ForeignKey("link", "lid", "left_t", "lid"),
            ForeignKey("link", "rid", "right_t", "rid"),
        ),
    )


@pytest.fixture
def junction_instance(junction_schema) -> DatabaseInstance:
    return make_instance(
        junction_schema,
        {
            "left_t": [(1, "a"), (2, "b"), (3, "c")],
            "right_t": [(7, "x"), (8, "y")],
            "link": [(1, 7, 0.5), (1, 8, 1.5), (2, 7, 2.5), (3, 8, 3.5)],
        },
    )


@pytest.fixture
def flat_schema() -> SchemaGraph:
    """Single table, no foreign keys."""
    return SchemaGraph(
        tables=(
            Table(
                "stadium",
                (
                    col("id", pk=True),
                    col("name", ColumnType.TEXT),
                    col("capacity"),
                    col("opened", ColumnType.REAL),
                ),
            ),
        ),
    )


@pytest.fixture
def flat_instance(flat_schema) -> DatabaseInstance:
    rows = [
        (1, "alpha", 55000, 1990.5),
        (2, "beta", 102000, 1970.25),
        (3, "gamma", 87350, 2001.0),
        (4, "delta", 61000, 1985.75),
        (5, "eps", 43000, 2012.5),
        (6, "zeta", 99000, 1999.0),
        (7, "eta", 12000, 1950.25),
    ]
    return make_instance(flat_schema, {"stadium": rows})
