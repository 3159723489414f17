"""Database instances: concrete rows attached to a schema."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Union

from .errors import MalformedDatabase
from .schema import ColumnDef, ColumnType, ForeignKey, SchemaGraph, Table, fold

Cell = Union[int, float, str, None]
Row = tuple


@dataclass(frozen=True)
class TableData:
    """Rows for one table, in the column order of its schema table."""

    table_name: str
    rows: tuple[Row, ...]


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
    rows each hold one cell per column of the schema table.
    """

    schema: SchemaGraph
    tables: dict[str, TableData] = field(default_factory=dict)
    _by_name: dict[str, TableData] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        by_name = {fold(name): data for name, data in self.tables.items()}
        if len(by_name) < len(self.tables):
            raise ValueError(f"instance holds a table twice: {sorted(self.tables)}")
        schema_keys = {fold(t.name) for t in self.schema.tables}
        if by_name.keys() != schema_keys:
            missing = sorted(schema_keys - by_name.keys())
            extra = sorted(by_name.keys() - schema_keys)
            raise ValueError(f"instance/schema table mismatch: missing={missing} extra={extra}")
        object.__setattr__(self, "_by_name", by_name)
        for table in self.schema.tables:
            rows = self.data_for(table.name).rows
            check_row_widths(rows, len(table.columns), f" of {table.name!r}")

    def data_for(self, table_name: str) -> TableData:
        """The rows of the table `table_name`, in any ASCII case."""
        try:
            return self._by_name[fold(table_name)]
        except KeyError:
            raise KeyError(f"no data for table {table_name!r}") from None

    def row_count(self, table_name: str) -> int:
        return len(self.data_for(table_name).rows)


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


def finite_rows(where: str, rows: list, *, infinite_ok: bool) -> tuple[tuple, ...]:
    """The rows as tuples. Raises MalformedDatabase, naming `where` and the
    row, on a cell that `json.loads` accepts but no SQLite value is: NaN,
    which SQLite stores as NULL, and, unless `infinite_ok`, an infinity,
    which a query can return (`SELECT 1e999`) but no SQL literal can write."""
    out = tuple(tuple(row) for row in rows)
    refused = math.isnan if infinite_ok else (lambda v: not math.isfinite(v))
    for i, row in enumerate(out):
        if any(isinstance(v, float) and refused(v) for v in row):
            raise MalformedDatabase(f"{where} row {i} holds a non-finite number")
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
            rows=finite_rows(
                f"table {t.name!r}", payload["rows"].get(t.name, []), infinite_ok=False
            ),
        )
        for t in schema.tables
    }
    return DatabaseInstance(schema=schema, tables=data)
