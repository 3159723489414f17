"""Moving database instances between memory, SQLite files, and SQL scripts."""
from __future__ import annotations

import math
import os
import sqlite3

from .errors import FileUnreadable, MalformedDatabase
from .instance import DatabaseInstance, TableData
from .schema import SchemaGraph, Table, introspect_schema, quote_ident, schema_from_connection


def sql_literal(value) -> str:
    """The SQL text of a cell; refuses an int SQLite would read as a REAL,
    and a NaN or infinite float, which has no SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) and not -(2**63) <= value < 2**63:
        raise MalformedDatabase(f"integer {value} is outside SQLite's 64-bit range")
    if isinstance(value, float) and not math.isfinite(value):
        raise MalformedDatabase(f"float {value} has no SQL literal")
    if isinstance(value, (int, float)):
        return repr(value)
    return "'" + str(value).replace("'", "''") + "'"


def create_table_sql(table: Table, schema: SchemaGraph) -> str:
    """CREATE TABLE statement for one table, including PK and FK clauses."""
    lines = []
    for col in table.columns:
        decl = quote_ident(col.name)
        if col.raw_type:
            decl += f" {col.raw_type}"
        lines.append(decl)
    pk = table.primary_key()
    if pk:
        lines.append("PRIMARY KEY (" + ", ".join(quote_ident(c) for c in pk) + ")")
    for fk in schema.foreign_keys_from(table.name):
        lines.append(
            f"FOREIGN KEY ({quote_ident(fk.child_column)})"
            f" REFERENCES {quote_ident(fk.parent_table)} ({quote_ident(fk.parent_column)})"
        )
    body = ",\n  ".join(lines)
    return f"CREATE TABLE {quote_ident(table.name)} (\n  {body}\n)"


def database_script(instance: DatabaseInstance) -> str:
    """Full CREATE TABLE + INSERT script recreating the instance.

    Tables appear in schema order; rows in stored order.
    """
    statements: list[str] = []
    for table in instance.schema.tables:
        statements.append(create_table_sql(table, instance.schema) + ";")
    for table in instance.schema.tables:
        data = instance.data_for(table.name)
        cols = ", ".join(quote_ident(c) for c in data.columns)
        for row in data.rows:
            values = ", ".join(sql_literal(v) for v in row)
            statements.append(
                f"INSERT INTO {quote_ident(table.name)} ({cols}) VALUES ({values});"
            )
    return "\n".join(statements) + "\n"


def load_into_connection(instance: DatabaseInstance, conn: sqlite3.Connection) -> None:
    """Create tables and insert rows on an open connection."""
    for table in instance.schema.tables:
        conn.execute(create_table_sql(table, instance.schema))
    for table in instance.schema.tables:
        data = instance.data_for(table.name)
        if not data.rows:
            continue
        placeholders = ", ".join("?" for _ in data.columns)
        cols = ", ".join(quote_ident(c) for c in data.columns)
        conn.executemany(
            f"INSERT INTO {quote_ident(table.name)} ({cols}) VALUES ({placeholders})",
            data.rows,
        )
    conn.commit()


def write_database(instance: DatabaseInstance, db_path: str) -> None:
    """Write the instance to a new SQLite file. Refuses to overwrite."""
    if os.path.exists(db_path):
        raise FileUnreadable(f"refusing to overwrite existing file: {db_path}")
    conn = sqlite3.connect(db_path)
    try:
        load_into_connection(instance, conn)
    finally:
        conn.close()


def read_database(db_path: str) -> DatabaseInstance:
    """Read schema and all rows from a SQLite file, in rowid order."""
    schema = introspect_schema(db_path)
    uri = f"file:{db_path}?mode=ro"
    try:
        conn = sqlite3.connect(uri, uri=True)
    except sqlite3.Error as exc:
        raise FileUnreadable(f"cannot open {db_path}: {exc}") from exc
    try:
        return _read_rows(schema, conn)
    finally:
        conn.close()


def read_database_from_connection(conn: sqlite3.Connection) -> DatabaseInstance:
    schema = schema_from_connection(conn)
    return _read_rows(schema, conn)


def _read_rows(schema: SchemaGraph, conn: sqlite3.Connection) -> DatabaseInstance:
    data: dict[str, TableData] = {}
    for table in schema.tables:
        cols = ", ".join(quote_ident(c) for c in table.column_names())
        try:
            cur = conn.execute(
                f"SELECT {cols} FROM {quote_ident(table.name)} ORDER BY rowid"
            )
        except sqlite3.OperationalError:
            # WITHOUT ROWID tables have no rowid; fall back to natural order.
            cur = conn.execute(f"SELECT {cols} FROM {quote_ident(table.name)}")
        data[table.name] = TableData(
            table_name=table.name,
            columns=table.column_names(),
            rows=tuple(tuple(row) for row in cur.fetchall()),
        )
    return DatabaseInstance(schema=schema, tables=data)
