import math
import sqlite3

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlrerank.dbio import (
    create_table_sql,
    database_script,
    load_into_connection,
    quote_ident,
    read_database,
    sql_literal,
    write_database,
)
from sqlrerank.errors import FileUnreadable, MalformedDatabase
from sqlrerank.schema import ColumnType, SchemaGraph, Table

from conftest import col, make_instance
from refimpl import read_database_from_connection


@pytest.mark.parametrize(
    "value,expected",
    [
        (None, "NULL"),
        (5, "5"),
        (-3, "-3"),
        (2.5, "2.5"),
        (True, "1"),
        (False, "0"),
        ("abc", "'abc'"),
        ("it's", "'it''s'"),
        ("", "''"),
    ],
)
def test_sql_literal(value, expected):
    assert sql_literal(value) == expected


def test_quote_ident():
    assert quote_ident("plain") == '"plain"'
    assert quote_ident('we"ird') == '"we""ird"'


def test_create_table_sql(student_schema):
    ddl = create_table_sql(student_schema.table("enrollment"), student_schema)
    assert '"enrollment"' in ddl
    assert "PRIMARY KEY" in ddl
    assert 'FOREIGN KEY ("student_id") REFERENCES "student" ("student_id")' in ddl
    # DDL must be executable as-is.
    sqlite3.connect(":memory:").executescript(
        create_table_sql(student_schema.table("student"), student_schema) + ";\n" + ddl + ";"
    )


def test_create_table_composite_pk(junction_schema):
    ddl = create_table_sql(junction_schema.table("link"), junction_schema)
    assert 'PRIMARY KEY ("lid", "rid")' in ddl


def test_database_script_round_trip(student_instance):
    """sqlite itself is the oracle: executing the script reproduces the rows."""
    script = database_script(student_instance)
    conn = sqlite3.connect(":memory:")
    conn.executescript(script)
    back = read_database_from_connection(conn)
    conn.close()
    assert back.data_for("student").rows == student_instance.data_for("student").rows
    assert back.data_for("enrollment").rows == student_instance.data_for("enrollment").rows


def test_database_script_trailing_newline(student_instance):
    assert database_script(student_instance).endswith("\n")


def test_script_respects_fk_enforcement(chain_instance):
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA foreign_keys = ON")
    conn.executescript(database_script(chain_instance))
    conn.close()


def test_load_into_connection_parameterized(student_instance):
    conn = sqlite3.connect(":memory:")
    load_into_connection(student_instance, conn)
    n = conn.execute("SELECT count(*) FROM student").fetchone()[0]
    assert n == 4
    conn.close()


def test_write_read_round_trip(tmp_path, self_ref_instance):
    path = str(tmp_path / "emp.db")
    write_database(self_ref_instance, path)
    back = read_database(path)
    assert back.data_for("employee").rows == self_ref_instance.data_for("employee").rows
    assert tuple(t.name for t in back.schema.tables) == ("employee",)
    assert len(back.schema.foreign_keys) == 1


def test_write_refuses_overwrite(tmp_path, student_instance):
    path = str(tmp_path / "s.db")
    write_database(student_instance, path)
    with pytest.raises(FileUnreadable):
        write_database(student_instance, path)


def test_read_missing_file(tmp_path):
    with pytest.raises(FileUnreadable):
        read_database(str(tmp_path / "absent.db"))


def test_read_preserves_insertion_order(tmp_path):
    schema = SchemaGraph(tables=(Table("t", (col("v"),)),))
    rows = [(9,), (1,), (5,), (1,)]
    inst = make_instance(schema, {"t": rows})
    path = str(tmp_path / "o.db")
    write_database(inst, path)
    assert list(read_database(path).data_for("t").rows) == rows


def test_read_without_rowid_table(tmp_path):
    path = str(tmp_path / "wr.db")
    conn = sqlite3.connect(path)
    conn.executescript(
        "CREATE TABLE w (k INT PRIMARY KEY, v TEXT) WITHOUT ROWID;"
        "INSERT INTO w VALUES (2, 'b'), (1, 'a');"
    )
    conn.commit()
    conn.close()
    back = read_database(path)
    assert sorted(back.data_for("w").rows) == [(1, "a"), (2, "b")]


strange = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=0,
    max_size=20,
)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.integers(-(2**63), 2**63 - 1),
        st.floats(allow_nan=False, allow_infinity=False),
        strange,
        st.none(),
    )
)
@example(2**63 - 1)
@example(-(2**63))
def test_sql_literal_survives_sqlite(value):
    got = sqlite3.connect(":memory:").execute(f"SELECT {sql_literal(value)}").fetchone()[0]
    if isinstance(value, float):
        assert got == pytest.approx(value, abs=0, rel=1e-15)
    else:
        assert got == value


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.integers(min_value=2**63), st.integers(max_value=-(2**63) - 1)))
@example(2**63)
@example(-(2**63) - 1)
def test_sql_literal_refuses_ints_sqlite_would_read_as_real(value):
    with pytest.raises(MalformedDatabase, match="outside SQLite's 64-bit range"):
        sql_literal(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sql_literal_refuses_non_finite_floats(value):
    with pytest.raises(MalformedDatabase, match="has no SQL literal"):
        sql_literal(value)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-50, 50), strange, st.one_of(st.none(), st.floats(-9, 9, allow_nan=False))),
        max_size=6,
    )
)
def test_script_round_trip_property(rows):
    schema = SchemaGraph(
        tables=(Table("t", (col("a"), col("b", ColumnType.TEXT), col("c", ColumnType.REAL))),)
    )
    inst = make_instance(schema, {"t": rows})
    conn = sqlite3.connect(":memory:")
    conn.executescript(database_script(inst))
    back = read_database_from_connection(conn)
    conn.close()
    for want, got in zip(rows, back.data_for("t").rows):
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == (pytest.approx(want[2]) if want[2] is not None else None)
