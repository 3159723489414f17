"""Relational schema model: tables, columns, foreign keys, and orderings.

The schema is the static shape of a database. Instances (actual rows) live in
`instance`. Schemas are read from SQLite files or built directly in tests.
"""
from __future__ import annotations

import os
import sqlite3
import string
from dataclasses import dataclass, field
from enum import Enum

from .errors import CyclicForeignKeys, FileUnreadable, MalformedDatabase


class ColumnType(Enum):
    """Coarse value type derived from a column's declared SQL type."""

    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"
    OTHER = "other"


# SQLite folds the case of ASCII letters only: `É` and `é` name two columns.
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def fold(name: str) -> str:
    """`name` as SQLite compares table, column and type names: ASCII letters
    in lower case, every other character as it is."""
    return name.lower() if name.isascii() else name.translate(_ASCII_LOWER)


# Substring rules applied in order; first hit wins. Mirrors SQLite's own
# affinity derivation closely enough for the declared types seen in practice.
_TYPE_RULES: tuple[tuple[tuple[str, ...], ColumnType], ...] = (
    (("int",), ColumnType.INTEGER),
    (("real", "floa", "doub", "numeric", "decimal"), ColumnType.REAL),
    (("char", "text", "clob", "date", "time", "bool"), ColumnType.TEXT),
)


def classify_declared_type(declared: str) -> ColumnType:
    """Map a declared SQL type string to a coarse ColumnType."""
    folded = fold(declared)
    for needles, ctype in _TYPE_RULES:
        if any(n in folded for n in needles):
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
    _positions: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError(f"table {self.name!r} has no columns")
        positions: dict[str, int] = {}
        for i, col in enumerate(self.columns):
            if positions.setdefault(fold(col.name), i) != i:
                raise ValueError(f"table {self.name!r} has duplicate column {col.name!r}")
        object.__setattr__(self, "_positions", positions)

    def index(self, name: str) -> int:
        """The position of the column `name`, in any ASCII case."""
        try:
            return self._positions[fold(name)]
        except KeyError:
            raise KeyError(f"no column {name!r} in table {self.name!r}") from None

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.index(name)]

    def has_column(self, name: str) -> bool:
        return fold(name) in self._positions

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
    constructed) in, and generation and serialization follow it. Each
    foreign key is stored with its names spelled as their tables and
    columns are declared.
    """

    tables: tuple[Table, ...]
    foreign_keys: tuple[ForeignKey, ...] = field(default_factory=tuple)
    _by_name: dict[str, Table] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        by_name: dict[str, Table] = {}
        for table in self.tables:
            key = fold(table.name)
            if key in by_name:
                raise ValueError(f"duplicate table {table.name!r}")
            by_name[key] = table
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "foreign_keys", tuple(map(self._declared, self.foreign_keys)))

    def _declared(self, fk: ForeignKey) -> ForeignKey:
        child = self._by_name.get(fold(fk.child_table))
        parent = self._by_name.get(fold(fk.parent_table))
        if child is None or parent is None:
            raise ValueError(f"foreign key references unknown table: {fk}")
        if not child.has_column(fk.child_column) or not parent.has_column(fk.parent_column):
            raise ValueError(f"foreign key references unknown column: {fk}")
        return ForeignKey(
            child.name,
            child.column(fk.child_column).name,
            parent.name,
            parent.column(fk.parent_column).name,
        )

    def table(self, name: str) -> Table:
        """The table `name`, in any ASCII case."""
        try:
            return self._by_name[fold(name)]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return fold(name) in self._by_name

    def foreign_keys_from(self, child_table: str) -> tuple[ForeignKey, ...]:
        """The foreign keys of the table declared `child_table`."""
        return tuple(fk for fk in self.foreign_keys if fk.child_table == child_table)

    def foreign_keys_into(self, parent_table: str) -> tuple[ForeignKey, ...]:
        """The foreign keys into the table declared `parent_table`."""
        return tuple(fk for fk in self.foreign_keys if fk.parent_table == parent_table)

    def is_foreign_key_endpoint(self, table: str, column: str) -> bool:
        """True if the column, named in any ASCII case, participates in any
        FK, as child or parent."""
        found = self._by_name.get(fold(table))
        if found is None or not found.has_column(column):
            return False
        end = (found.name, found.column(column).name)
        return any(
            end in ((fk.child_table, fk.child_column), (fk.parent_table, fk.parent_column))
            for fk in self.foreign_keys
        )


def topo_order_parents_first(schema: SchemaGraph) -> tuple[str, ...]:
    """Order table names so every FK parent precedes its children.

    Self references are ignored. Ties break by declaration order, making the
    result deterministic. Raises CyclicForeignKeys on a cross-table cycle.
    """
    order, cyclic = order_parents_first(
        [t.name for t in schema.tables],
        [(fk.parent_table, fk.child_table) for fk in schema.foreign_keys],
    )
    if cyclic:
        names = ", ".join(sorted(cyclic))
        raise CyclicForeignKeys(f"foreign keys form a cycle among tables: {names}")
    return tuple(order)


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

    by_name = {fold(t.name): t for t in tables}
    for tname in table_names:
        for _id, _seq, parent, child_col, parent_col, *_rest in conn.execute(
            f"PRAGMA foreign_key_list({quote_ident(tname)})"
        ):
            parent_table = by_name.get(fold(parent))
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
            if not by_name[fold(tname)].has_column(child_col):
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
