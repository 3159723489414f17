"""Database instances: concrete rows attached to a schema."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Union

from .errors import MalformedDatabase
from .schema import ColumnDef, ColumnType, ForeignKey, SchemaGraph, Table

Cell = Union[int, float, str, None]
Row = tuple


@dataclass(frozen=True)
class TableData:
    """Rows for one table. Column order matches the list given here."""

    table_name: str
    columns: tuple[str, ...]
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        check_row_widths(self.rows, len(self.columns), f" of {self.table_name!r}")


def check_row_widths(rows: tuple[Row, ...], width: int, where: str = "") -> None:
    """Raise ValueError naming the first row that does not hold `width` cells.
    When every row fits this is one pass over the row lengths in C."""
    if rows and set(map(len, rows)) != {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise ValueError(f"row {i}{where} has {len(rows[i])} cells, expected {width}")


@dataclass(frozen=True)
class DatabaseInstance:
    """A schema plus rows for each of its tables.

    Every schema table must have a TableData entry (possibly empty) whose
    column list matches the schema's column order.
    """

    schema: SchemaGraph
    tables: dict[str, TableData] = field(default_factory=dict)

    def __post_init__(self) -> None:
        data_keys = {name.lower() for name in self.tables}
        schema_keys = {t.name.lower() for t in self.schema.tables}
        if data_keys != schema_keys:
            missing = sorted(schema_keys - data_keys)
            extra = sorted(data_keys - schema_keys)
            raise ValueError(f"instance/schema table mismatch: missing={missing} extra={extra}")
        for table in self.schema.tables:
            data = self.data_for(table.name)
            if tuple(c.lower() for c in data.columns) != tuple(
                c.name.lower() for c in table.columns
            ):
                raise ValueError(
                    f"column mismatch for {table.name!r}:"
                    f" instance has {data.columns}, schema has {table.column_names()}"
                )

    def data_for(self, table_name: str) -> TableData:
        key = table_name.lower()
        for name, data in self.tables.items():
            if name.lower() == key:
                return data
        raise KeyError(f"no data for table {table_name!r}")

    def row_count(self, table_name: str) -> int:
        return len(self.data_for(table_name).rows)


def column_index(data: TableData, column: str) -> int:
    key = column.lower()
    for i, name in enumerate(data.columns):
        if name.lower() == key:
            return i
    raise KeyError(f"no column {column!r} in table {data.table_name!r}")


def foreign_key_violations(instance: DatabaseInstance) -> list[tuple[ForeignKey, Cell]]:
    """Every (fk, value) pair where a non-NULL child value is absent from the parent."""
    violations: list[tuple[ForeignKey, Cell]] = []
    for fk in instance.schema.foreign_keys:
        child = instance.data_for(fk.child_table)
        parent = instance.data_for(fk.parent_table)
        ci = column_index(child, fk.child_column)
        pi = column_index(parent, fk.parent_column)
        parent_values = {row[pi] for row in parent.rows}
        for row in child.rows:
            value = row[ci]
            if value is not None and value not in parent_values:
                violations.append((fk, value))
    return violations


def validate_foreign_keys(instance: DatabaseInstance) -> None:
    """Raise MalformedDatabase if any foreign key is violated."""
    violations = foreign_key_violations(instance)
    if violations:
        fk, value = violations[0]
        raise MalformedDatabase(
            f"{len(violations)} foreign key violation(s); first:"
            f" {fk.child_table}.{fk.child_column}={value!r}"
            f" not in {fk.parent_table}.{fk.parent_column}"
        )


def instance_to_json(instance: DatabaseInstance) -> dict[str, Any]:
    """Plain-dict form of an instance, stable under json.dumps(sort_keys=True)."""
    return {
        "schema": {
            "tables": [
                {
                    "name": t.name,
                    "columns": [
                        {
                            "name": c.name,
                            "type": c.declared_type.value,
                            "raw_type": c.raw_type,
                            "primary_key": c.is_primary_key,
                        }
                        for c in t.columns
                    ],
                }
                for t in instance.schema.tables
            ],
            "foreign_keys": [
                {
                    "child_table": fk.child_table,
                    "child_column": fk.child_column,
                    "parent_table": fk.parent_table,
                    "parent_column": fk.parent_column,
                }
                for fk in instance.schema.foreign_keys
            ],
        },
        "rows": {
            t.name: [list(row) for row in instance.data_for(t.name).rows]
            for t in instance.schema.tables
        },
    }


def _finite_rows(table: str, rows: list) -> tuple[tuple, ...]:
    """The rows as tuples; raises MalformedDatabase on a NaN or infinite
    cell, which SQLite would store as NULL or no SQL literal can write."""
    out = tuple(tuple(row) for row in rows)
    for i, row in enumerate(out):
        if any(isinstance(v, float) and not math.isfinite(v) for v in row):
            raise MalformedDatabase(f"table {table!r} row {i} holds a non-finite number")
    return out


def instance_from_json(payload: dict[str, Any]) -> DatabaseInstance:
    """Inverse of instance_to_json. Refuses a NaN or infinite cell, which
    `json.loads` accepts, with MalformedDatabase."""
    tables = tuple(
        Table(
            name=t["name"],
            columns=tuple(
                ColumnDef(
                    name=c["name"],
                    declared_type=ColumnType(c["type"]),
                    raw_type=c.get("raw_type", ""),
                    is_primary_key=bool(c.get("primary_key", False)),
                )
                for c in t["columns"]
            ),
        )
        for t in payload["schema"]["tables"]
    )
    fks = tuple(
        ForeignKey(
            child_table=fk["child_table"],
            child_column=fk["child_column"],
            parent_table=fk["parent_table"],
            parent_column=fk["parent_column"],
        )
        for fk in payload["schema"].get("foreign_keys", ())
    )
    schema = SchemaGraph(tables=tables, foreign_keys=fks)
    data = {
        t.name: TableData(
            table_name=t.name,
            columns=t.column_names(),
            rows=_finite_rows(t.name, payload["rows"].get(t.name, [])),
        )
        for t in schema.tables
    }
    return DatabaseInstance(schema=schema, tables=data)
