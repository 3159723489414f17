"""Relational schema model: tables, columns, foreign keys, and orderings.

The schema is the static shape of a database. Instances (actual rows) live in
`instance`. Schemas are read from SQLite files or built directly in tests.
"""
from __future__ import annotations

import os
import sqlite3
from dataclasses import dataclass, field
from enum import Enum

from .errors import CyclicForeignKeys, FileUnreadable, MalformedDatabase


class ColumnType(Enum):
    """Coarse value type derived from a column's declared SQL type."""

    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"
    OTHER = "other"


# Substring rules applied in order; first hit wins. Mirrors SQLite's own
# affinity derivation closely enough for the declared types seen in practice.
_TYPE_RULES: tuple[tuple[tuple[str, ...], ColumnType], ...] = (
    (("int",), ColumnType.INTEGER),
    (("real", "floa", "doub", "numeric", "decimal"), ColumnType.REAL),
    (("char", "text", "clob", "date", "time", "bool"), ColumnType.TEXT),
)


def classify_declared_type(declared: str) -> ColumnType:
    """Map a declared SQL type string to a coarse ColumnType."""
    lowered = declared.lower()
    for needles, ctype in _TYPE_RULES:
        if any(n in lowered for n in needles):
            return ctype
    return ColumnType.OTHER


@dataclass(frozen=True)
class ColumnDef:
    """One column: name, coarse type, original declared type, PK membership."""

    name: str
    declared_type: ColumnType
    raw_type: str = ""
    is_primary_key: bool = False


@dataclass(frozen=True)
class Table:
    """A named table with an ordered column list."""

    name: str
    columns: tuple[ColumnDef, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError(f"table {self.name!r} has no columns")
        seen = set()
        for col in self.columns:
            key = col.name.lower()
            if key in seen:
                raise ValueError(f"table {self.name!r} has duplicate column {col.name!r}")
            seen.add(key)

    def column(self, name: str) -> ColumnDef:
        key = name.lower()
        for col in self.columns:
            if col.name.lower() == key:
                return col
        raise KeyError(f"no column {name!r} in table {self.name!r}")

    def has_column(self, name: str) -> bool:
        key = name.lower()
        return any(col.name.lower() == key for col in self.columns)

    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def primary_key(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns if col.is_primary_key)


@dataclass(frozen=True)
class ForeignKey:
    """child_table.child_column references parent_table.parent_column."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str


@dataclass(frozen=True)
class SchemaGraph:
    """All tables plus the foreign keys linking them.

    Table order is meaningful: it is the order tables were declared (or
    constructed) in, and generation and serialization follow it.
    """

    tables: tuple[Table, ...]
    foreign_keys: tuple[ForeignKey, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        seen = set()
        for table in self.tables:
            key = table.name.lower()
            if key in seen:
                raise ValueError(f"duplicate table {table.name!r}")
            seen.add(key)
        for fk in self.foreign_keys:
            child = self._find_table(fk.child_table)
            parent = self._find_table(fk.parent_table)
            if child is None or parent is None:
                raise ValueError(f"foreign key references unknown table: {fk}")
            if not child.has_column(fk.child_column) or not parent.has_column(fk.parent_column):
                raise ValueError(f"foreign key references unknown column: {fk}")

    def _find_table(self, name: str) -> Table | None:
        key = name.lower()
        for table in self.tables:
            if table.name.lower() == key:
                return table
        return None

    def table(self, name: str) -> Table:
        found = self._find_table(name)
        if found is None:
            raise KeyError(f"no table named {name!r}")
        return found

    def has_table(self, name: str) -> bool:
        return self._find_table(name) is not None

    def foreign_keys_from(self, child_table: str) -> tuple[ForeignKey, ...]:
        key = child_table.lower()
        return tuple(fk for fk in self.foreign_keys if fk.child_table.lower() == key)

    def foreign_keys_into(self, parent_table: str) -> tuple[ForeignKey, ...]:
        key = parent_table.lower()
        return tuple(fk for fk in self.foreign_keys if fk.parent_table.lower() == key)

    def is_foreign_key_endpoint(self, table: str, column: str) -> bool:
        """True if the column participates in any FK, as child or parent."""
        tkey, ckey = table.lower(), column.lower()
        for fk in self.foreign_keys:
            if fk.child_table.lower() == tkey and fk.child_column.lower() == ckey:
                return True
            if fk.parent_table.lower() == tkey and fk.parent_column.lower() == ckey:
                return True
        return False


def topo_order_parents_first(schema: SchemaGraph) -> tuple[str, ...]:
    """Order table names so every FK parent precedes its children.

    Self references are ignored. Ties break by declaration order, making the
    result deterministic. Raises CyclicForeignKeys on a cross-table cycle.
    """
    key_of = {t.name.lower(): t.name for t in schema.tables}
    order, cyclic = order_parents_first(
        list(key_of),
        [(fk.parent_table.lower(), fk.child_table.lower()) for fk in schema.foreign_keys],
    )
    if cyclic:
        names = ", ".join(sorted(key_of[k] for k in cyclic))
        raise CyclicForeignKeys(f"foreign keys form a cycle among tables: {names}")
    return tuple(key_of[k] for k in order)


def order_parents_first(
    keys: list[str], edges: list[tuple[str, str]]
) -> tuple[list[str], list[str]]:
    """Order keys so the parent of every (parent, child) edge comes first.

    Ties break by position in `keys`; self edges and repeated edges are
    ignored. Returns the order and the keys left over on a cycle, which is
    empty when there is none.
    """
    children: dict[str, set[str]] = {k: set() for k in keys}
    indegree = dict.fromkeys(keys, 0)
    for parent, child in set(edges):
        if parent != child:
            children[parent].add(child)
            indegree[child] += 1
    order: list[str] = []
    remaining = list(keys)
    while remaining:
        pick = next((k for k in remaining if indegree[k] == 0), None)
        if pick is None:
            break
        remaining.remove(pick)
        order.append(pick)
        for child in children[pick]:
            indegree[child] -= 1
    return order, remaining


def reverse_topo_order(schema: SchemaGraph) -> tuple[str, ...]:
    """Order table names so every FK child precedes its parents."""
    return tuple(reversed(topo_order_parents_first(schema)))


def introspect_schema(db_path: str) -> SchemaGraph:
    """Read the schema of a SQLite database file.

    Raises FileUnreadable if the file is missing or not a database, and
    MalformedDatabase if foreign keys reference missing tables or columns.
    """
    if not os.path.isfile(db_path):
        raise FileUnreadable(f"no such file: {db_path}")
    uri = f"file:{db_path}?mode=ro"
    try:
        conn = sqlite3.connect(uri, uri=True)
    except sqlite3.Error as exc:
        raise FileUnreadable(f"cannot open {db_path}: {exc}") from exc
    try:
        return schema_from_connection(conn)
    except sqlite3.DatabaseError as exc:
        raise FileUnreadable(f"not a SQLite database: {db_path}: {exc}") from exc
    finally:
        conn.close()


def schema_from_connection(conn: sqlite3.Connection) -> SchemaGraph:
    """Build a SchemaGraph from a live SQLite connection via pragmas."""
    cur = conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'"
        " AND name NOT LIKE 'sqlite_%' ORDER BY rowid"
    )
    table_names = [row[0] for row in cur.fetchall()]

    tables: list[Table] = []
    fks: list[ForeignKey] = []
    for tname in table_names:
        cols: list[ColumnDef] = []
        for _, name, raw_type, _notnull, _default, pk in conn.execute(
            f"PRAGMA table_info({quote_ident(tname)})"
        ):
            cols.append(
                ColumnDef(
                    name=name,
                    declared_type=classify_declared_type(raw_type or ""),
                    raw_type=raw_type or "",
                    is_primary_key=bool(pk),
                )
            )
        if not cols:
            raise MalformedDatabase(f"table {tname!r} reports no columns")
        tables.append(Table(name=tname, columns=tuple(cols)))

    by_name = {t.name.lower(): t for t in tables}
    for tname in table_names:
        for _id, _seq, parent, child_col, parent_col, *_rest in conn.execute(
            f"PRAGMA foreign_key_list({quote_ident(tname)})"
        ):
            parent_table = by_name.get(parent.lower())
            if parent_table is None:
                raise MalformedDatabase(
                    f"foreign key in {tname!r} references missing table {parent!r}"
                )
            if parent_col is None:
                # Unnamed parent column means "the primary key" in SQLite.
                pk = parent_table.primary_key()
                if len(pk) != 1:
                    raise MalformedDatabase(
                        f"foreign key in {tname!r} references {parent!r} without a column"
                        f" but its primary key has {len(pk)} columns"
                    )
                parent_col = pk[0]
            if not parent_table.has_column(parent_col):
                raise MalformedDatabase(
                    f"foreign key in {tname!r} references missing column"
                    f" {parent!r}.{parent_col!r}"
                )
            if not by_name[tname.lower()].has_column(child_col):
                raise MalformedDatabase(
                    f"foreign key in {tname!r} names missing child column {child_col!r}"
                )
            fks.append(
                ForeignKey(
                    child_table=tname,
                    child_column=child_col,
                    parent_table=parent_table.name,
                    parent_column=parent_col,
                )
            )

    return SchemaGraph(tables=tuple(tables), foreign_keys=tuple(fks))


def quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'
