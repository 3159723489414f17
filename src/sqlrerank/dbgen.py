"""Generating database instances that share a schema with an original.

Two methods: fuzzing (synthetic random cells, parents generated first so FK
children can sample from parent columns) and random selection (whole rows
sampled from the original, children generated first so their referenced
parent rows can be carried over). Both can generate on a pruning of the
original's schema. Plus the analysis that drives them: schema pruning, and
the aggregation/sort columns whose numbers are constrained to a small range.
"""
from __future__ import annotations

import logging
import random
import string
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress, filterfalse
from operator import itemgetter

from .errors import CyclicForeignKeys, MalformedDatabase, TargetIsForeignKey, UnknownColumn
from .executor import Session
from .instance import Cell, DatabaseInstance, TableData, column_index
from .schema import (
    ColumnDef,
    ColumnType,
    ForeignKey,
    SchemaGraph,
    Table,
    order_parents_first,
    reverse_topo_order,
    topo_order_parents_first,
)
from .sqlanalysis import SqlAnalysis, analyze_all, joins_by_column_name

log = logging.getLogger(__name__)


class GenMethod(Enum):
    FUZZING = "fuzzing"
    RANDOM_SELECTION = "random-selection"


@dataclass(frozen=True)
class GenConfig:
    mts: int = 5
    method: GenMethod = GenMethod.RANDOM_SELECTION
    seed: int = 0
    constrained_range: tuple[int, int] = (1, 10)

    def __post_init__(self) -> None:
        if self.mts < 1:
            raise ValueError("mts must be at least 1")
        lo, hi = self.constrained_range
        if lo > hi:
            raise ValueError("constrained_range is empty")


_TEXT_ALPHABET = string.ascii_lowercase


def _random_text(rng: random.Random) -> str:
    length = rng.randint(3, 10)
    return "".join(rng.choice(_TEXT_ALPHABET) for _ in range(length))


def _fuzz_plain_column(col: ColumnDef, mts: int, rng: random.Random) -> list[Cell]:
    ctype = col.declared_type
    if ctype is ColumnType.INTEGER:
        if col.is_primary_key:
            return list(rng.sample(range(0, max(101, mts * 10)), mts))
        return [rng.randint(0, 100) for _ in range(mts)]
    if ctype is ColumnType.REAL:
        if col.is_primary_key:
            grid = rng.sample(range(0, max(10001, mts)), mts)
            return [g / 100.0 for g in grid]
        return [round(rng.uniform(0.0, 100.0), 2) for _ in range(mts)]
    # Text and Other both fuzz as text.
    if col.is_primary_key:
        values: list[Cell] = []
        seen: set[str] = set()
        while len(values) < mts:
            v = _random_text(rng)
            if v not in seen:
                seen.add(v)
                values.append(v)
        return values
    return [_random_text(rng) for _ in range(mts)]


def _fuzz_fk_column(
    col: ColumnDef,
    fks: list[ForeignKey],
    pools: dict[tuple[str, str], list[Cell]],
    mts: int,
    rng: random.Random,
) -> list[Cell]:
    pool = list(pools[(fks[0].parent_table.lower(), fks[0].parent_column.lower())])
    for fk in fks[1:]:
        allowed = set(pools[(fk.parent_table.lower(), fk.parent_column.lower())])
        pool = [v for v in pool if v in allowed]
    if not pool:
        tables = ", ".join(sorted({fk.parent_table for fk in fks}))
        raise MalformedDatabase(
            f"no value satisfies every foreign key on {fks[0].child_table}.{col.name}"
            f" (parents: {tables})"
        )
    if col.is_primary_key:
        distinct = list(dict.fromkeys(pool))
        if len(distinct) >= mts:
            return list(rng.sample(distinct, mts))
        # Parent has too few distinct values for a unique child column;
        # FK validity wins and duplicates are accepted.
        return [rng.choice(pool) for _ in range(mts)]
    return [rng.choice(pool) for _ in range(mts)]


def _table_column_order(table: Table, self_fks: list[ForeignKey]) -> list[ColumnDef]:
    """Columns ordered so self-FK parent columns precede their child columns."""
    if not self_fks:
        return list(table.columns)
    by_name = {c.name.lower(): c for c in table.columns}
    order, cyclic = order_parents_first(
        list(by_name),
        [(fk.parent_column.lower(), fk.child_column.lower()) for fk in self_fks],
    )
    if cyclic:
        raise CyclicForeignKeys(
            f"self-referencing foreign keys in {table.name!r} form a column cycle"
        )
    return [by_name[n] for n in order]


def fuzz_database(schema: SchemaGraph, config: GenConfig) -> DatabaseInstance:
    """Generate a fresh instance with random cells, honoring FKs and types."""
    if config.method is not GenMethod.FUZZING:
        raise ValueError("config.method must be FUZZING")
    rng = random.Random(config.seed)
    order = topo_order_parents_first(schema)
    pools: dict[tuple[str, str], list[Cell]] = {}
    data: dict[str, TableData] = {}

    for tname in order:
        table = schema.table(tname)
        fks_by_col: dict[str, list[ForeignKey]] = {}
        for fk in schema.foreign_keys_from(tname):
            fks_by_col.setdefault(fk.child_column.lower(), []).append(fk)
        self_fks = [
            fk for fk in schema.foreign_keys_from(tname)
            if fk.parent_table.lower() == tname.lower()
        ]
        values_by_col: dict[str, list[Cell]] = {}
        for col in _table_column_order(table, self_fks):
            fks = fks_by_col.get(col.name.lower())
            if fks:
                # Self-FK pools come from columns of this table generated above.
                for fk in fks:
                    key = (fk.parent_table.lower(), fk.parent_column.lower())
                    if key not in pools and fk.parent_table.lower() == tname.lower():
                        pools[key] = values_by_col[fk.parent_column.lower()]
                values_by_col[col.name.lower()] = _fuzz_fk_column(
                    col, fks, pools, config.mts, rng
                )
            else:
                values_by_col[col.name.lower()] = _fuzz_plain_column(col, config.mts, rng)
        rows = tuple(
            tuple(values_by_col[c.name.lower()][i] for c in table.columns)
            for i in range(config.mts)
        )
        data[table.name] = TableData(table.name, table.column_names(), rows)
        for col in table.columns:
            pools[(tname.lower(), col.name.lower())] = values_by_col[col.name.lower()]

    return DatabaseInstance(schema=schema, tables=data)


def _rows_where(rows: tuple[tuple, ...], index: int, values: set[Cell]) -> Iterator[int]:
    """The indices of the rows whose cell at `index` is in `values`, in one
    pass in C."""
    return compress(range(len(rows)), map(values.__contains__, map(itemgetter(index), rows)))


def sample_database(
    original: DatabaseInstance, config: GenConfig, schema: SchemaGraph | None = None
) -> DatabaseInstance:
    """Build a new instance out of whole rows sampled from the original and
    projected onto `schema`, a pruning of its schema (`prune_schema`), or
    onto its own schema when None.

    Children are processed first; each table keeps every original row that a
    selected child row references (even beyond mts), then fills up to mts
    with distinct randomly chosen remaining rows. Output rows keep the
    original table's relative order. Rows are picked by index and only the
    picked ones are projected, so the draw equals one on the projected
    original.
    """
    if config.method is not GenMethod.RANDOM_SELECTION:
        raise ValueError("config.method must be RANDOM_SELECTION")
    rng = random.Random(config.seed)
    schema = original.schema if schema is None else schema
    order = reverse_topo_order(schema)
    selected: dict[str, list[int]] = {}
    data: dict[str, TableData] = {}

    for tname in order:
        table = schema.table(tname)
        source = original.data_for(tname)
        rows = source.rows

        picked_set: set[int] = set()
        for fk in schema.foreign_keys_into(tname):
            if fk.child_table.lower() == tname.lower():
                continue  # self references are closed over below
            child = original.data_for(fk.child_table)
            ci = column_index(child, fk.child_column)
            chosen = selected.get(fk.child_table.lower(), [])
            values = {child.rows[i][ci] for i in chosen} - {None}
            if values:
                picked_set.update(_rows_where(rows, column_index(source, fk.parent_column), values))
        if len(picked_set) < config.mts:
            remaining = (
                list(filterfalse(picked_set.__contains__, range(len(rows))))
                if picked_set else range(len(rows))
            )
            need = min(config.mts - len(picked_set), len(remaining))
            if need:
                picked_set.update(rng.sample(remaining, need))

        self_fks = [
            fk for fk in schema.foreign_keys_from(tname)
            if fk.parent_table.lower() == tname.lower()
        ]
        if self_fks:
            pairs = [
                (column_index(source, fk.child_column), column_index(source, fk.parent_column))
                for fk in self_fks
            ]
            while True:
                missing: set[Cell] = set()
                for ci, pi in pairs:
                    have = {rows[i][pi] for i in picked_set}
                    want = {rows[i][ci] for i in picked_set} - {None}
                    missing |= want - have
                if not missing:
                    break
                closure = {i for _ci, pi in pairs for i in _rows_where(rows, pi, missing)}
                closure -= picked_set
                if not closure:
                    break  # original itself violates the FK; nothing to add
                picked_set |= closure

        final = sorted(picked_set)
        selected[tname.lower()] = final
        picked, columns = tuple(rows[i] for i in final), source.columns
        idxs = [column_index(source, c) for c in table.column_names()]
        if len(idxs) < len(columns):  # some column is pruned
            pick = itemgetter(*idxs)
            picked = tuple(map(pick, picked)) if len(idxs) > 1 else tuple(zip(map(pick, picked)))
            columns = table.column_names()
        data[table.name] = TableData(table.name, columns, picked)

    return DatabaseInstance(schema=schema, tables=data)


def generate_database(source: DatabaseInstance, config: GenConfig) -> DatabaseInstance:
    """Dispatch on config.method."""
    if config.method is GenMethod.FUZZING:
        return fuzz_database(source.schema, config)
    return sample_database(source, config)


def constrain_numbers(
    db: DatabaseInstance,
    target_columns: set[tuple[str, str]],
    config: GenConfig,
) -> DatabaseInstance:
    """Replace every cell of each target column with a small random integer."""
    schema = db.schema
    for tname, cname in sorted(target_columns):
        if not schema.has_table(tname):
            raise UnknownColumn(f"no table {tname!r}")
        if not schema.table(tname).has_column(cname):
            raise UnknownColumn(f"no column {cname!r} in table {tname!r}")
        if schema.is_foreign_key_endpoint(tname, cname):
            raise TargetIsForeignKey(
                f"{tname}.{cname} participates in a foreign key; constraining it"
                " would break referential validity"
            )
    if not target_columns:
        return db

    rng = random.Random(config.seed)
    lo, hi = config.constrained_range
    tables = dict(db.tables)
    by_table: dict[str, list[str]] = {}
    for tname, cname in sorted(target_columns, key=lambda tc: (tc[0].lower(), tc[1].lower())):
        by_table.setdefault(tname, []).append(cname)

    for tname, cnames in by_table.items():
        source = db.data_for(tname)
        rows = [list(row) for row in source.rows]
        for cname in cnames:
            idx = column_index(source, cname)
            for row in rows:
                row[idx] = rng.randint(lo, hi)
        key = next(k for k in tables if k.lower() == tname.lower())
        tables[key] = TableData(source.table_name, source.columns, tuple(tuple(r) for r in rows))
    return DatabaseInstance(schema=schema, tables=tables)


def _numeric_targets(
    schema: SchemaGraph, analyses: list[SqlAnalysis]
) -> set[tuple[str, str]]:
    """Aggregation/sort columns eligible for number constraining.

    Foreign-key endpoints are excluded (constraining them would break
    referential validity), so are primary-key columns (values drawn from a
    small range would collide and the instance would not load) and so are
    non-numeric columns.
    """
    keep: set[tuple[str, str]] = set()
    for analysis in analyses:
        for tname, cname in analysis.agg_or_sort_columns:
            column = schema.table(tname).column(cname)
            if column.is_primary_key or schema.is_foreign_key_endpoint(tname, cname):
                continue
            if column.declared_type in (ColumnType.INTEGER, ColumnType.REAL):
                keep.add((tname, cname))
    return keep


def prune_schema(
    original: DatabaseInstance | Session, candidate_sqls: list[str]
) -> tuple[SchemaGraph, set[tuple[str, str]]]:
    """The original's schema without the tables and columns no candidate
    reads, and the number-constraining targets on it.

    The analysis runs on the session given, or on a one-shot session over
    the instance. Columns that carry a foreign key between two retained
    tables survive even if unreferenced, so an instance sampled onto the
    pruned schema still satisfies its FKs. A retained table with no
    referenced columns keeps its primary key (or first column). The targets
    are the analysed aggregate and sort columns judged on the pruned schema,
    where a column of a partly pruned composite key is no longer a key. The
    original's schema is returned if nothing parses, or, with the targets
    judged on it, if a candidate joins by column name: SQLite reports no
    read of a NATURAL join's shared columns, nor any of a USING join's
    right-hand table.
    """
    if not isinstance(original, Session):
        with Session(original) as session:
            return prune_schema(session, candidate_sqls)
    schema = original.db.schema
    analyses, _warnings = analyze_all(original, candidate_sqls)
    if not analyses:
        log.warning("no candidate SQL parsed; returning the schema unpruned")
        return schema, set()
    if any(joins_by_column_name(a.sql) for a in analyses):
        log.warning("a candidate joins by column name; returning the schema unpruned")
        return schema, _numeric_targets(schema, analyses)

    used_tables: set[str] = set()
    used_columns: set[tuple[str, str]] = set()
    for analysis in analyses:
        used_tables |= analysis.tables
        used_columns |= analysis.columns

    kept_tables = [t for t in schema.tables if t.name in used_tables]
    kept_names = {t.name.lower() for t in kept_tables}

    fk_keep: set[tuple[str, str]] = set()
    kept_fks: list[ForeignKey] = []
    for fk in schema.foreign_keys:
        if fk.child_table.lower() in kept_names and fk.parent_table.lower() in kept_names:
            fk_keep.add((fk.child_table.lower(), fk.child_column.lower()))
            fk_keep.add((fk.parent_table.lower(), fk.parent_column.lower()))
            kept_fks.append(fk)

    new_tables: list[Table] = []
    for table in kept_tables:
        tkey = table.name.lower()
        wanted = {c.lower() for (t, c) in used_columns if t.lower() == tkey}
        wanted |= {c for (t, c) in fk_keep if t == tkey}
        if not wanted:
            pk = table.primary_key()
            wanted = {c.lower() for c in pk} if pk else {table.columns[0].name.lower()}
        kept_cols = [c for c in table.columns if c.name.lower() in wanted]
        pk_cols = {c.name.lower() for c in table.columns if c.is_primary_key}
        pk_intact = pk_cols <= {c.name.lower() for c in kept_cols}
        if not pk_intact:
            kept_cols = [replace(c, is_primary_key=False) for c in kept_cols]
        new_tables.append(Table(name=table.name, columns=tuple(kept_cols)))

    new_schema = SchemaGraph(tables=tuple(new_tables), foreign_keys=tuple(kept_fks))
    return new_schema, _numeric_targets(new_schema, analyses)
