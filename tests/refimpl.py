"""Brute-force references, written straight from the definitions.

These avoid the production code paths on purpose: cells are canonicalized
here from the definition, and there are no early exits beyond the
definition itself. The analysis reference compiles each statement on a
connection of its own that holds only the schema, and the projection
reference copies every row of every kept table cell by cell.
"""
import math
import sqlite3
from collections import Counter
from itertools import permutations

from sqlrerank.dbio import create_table_sql
from sqlrerank.errors import SqlParseError
from sqlrerank.instance import DatabaseInstance, TableData
from sqlrerank.sqlanalysis import READ_ACTIONS, SqlAnalysis, _match, _read


def canonical_cell(value):
    """A float rounds to 6 places and a whole one becomes the int of its
    value; ints stay exact; a bool is kept apart from the numbers."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, float) and math.isfinite(value):
        value = round(value, 6)
        if value == math.floor(value):
            return int(value)
    return value


def _rows(result):
    return [tuple(canonical_cell(v) for v in row) for row in result.rows]


def _multiset(rows):
    return frozenset(Counter(rows).items())


def exact_equal_reference(a, b):
    """Positional when either side is ordered, multiset otherwise."""
    if len(a.columns) != len(b.columns) or len(a.rows) != len(b.rows):
        return False
    if a.order_significant or b.order_significant:
        return _rows(a) == _rows(b)
    return Counter(_rows(a)) == Counter(_rows(b))


class _Projections:
    """A result's canonical rows, and for each k up to its width the
    projections of those rows through every injective k-column mapping, as
    row sequences and as multisets."""

    def __init__(self, result):
        self.rows = tuple(_rows(result))
        self.multiset = _multiset(self.rows)
        width = len(result.columns)
        self.sequences = {}
        self.multisets = {}
        for k in range(1, width + 1):
            projected = [
                tuple(tuple(row[i] for i in mapping) for row in self.rows)
                for mapping in permutations(range(width), k)
            ]
            self.sequences[k] = set(projected)
            self.multisets[k] = set(map(_multiset, projected))


class RelaxedReference:
    """Relaxed equality from its definition: some injective mapping of the
    narrower columns into the wider ones makes the projected results match.

    Each result's projections are computed once per instance, so comparing
    a pair of results seen before is one lookup.
    """

    def __init__(self):
        # By result id; each entry holds its result, so no id is reused.
        self._projections: dict[int, tuple] = {}

    def _of(self, result) -> _Projections:
        entry = self._projections.get(id(result))
        if entry is None:
            entry = self._projections[id(result)] = (result, _Projections(result))
        return entry[1]

    def __call__(self, a, b) -> bool:
        if len(a.rows) != len(b.rows):
            return False
        narrow, wide = (a, b) if len(a.columns) <= len(b.columns) else (b, a)
        k = len(narrow.columns)
        if k == 0:
            return len(wide.columns) == 0
        narrow_views, wide_views = self._of(narrow), self._of(wide)
        if narrow.order_significant or wide.order_significant:
            return narrow_views.rows in wide_views.sequences[k]
        return narrow_views.multiset in wide_views.multisets[k]


def relaxed_equal_reference(a, b):
    """`RelaxedReference` on one pair."""
    return RelaxedReference()(a, b)


# --- analysis and pruning ------------------------------------------------------


def schema_only_reads(sqls, schema):
    """For each SQL, the (table, column) reads the authorizer reports while
    `EXPLAIN <sql>` compiles on an empty copy of the schema, or the
    exception the compile raises."""
    reads: set = set()

    def authorize(action, arg1, arg2, *_rest):
        if action == sqlite3.SQLITE_READ:
            reads.add((arg1, arg2))
        return sqlite3.SQLITE_OK if action in READ_ACTIONS else sqlite3.SQLITE_DENY

    # A statement served from the statement cache is not compiled again, so
    # the authorizer would not see its reads.
    conn = sqlite3.connect(":memory:", cached_statements=0)
    try:
        for table in schema.tables:
            conn.execute(create_table_sql(table, schema))
        conn.set_authorizer(authorize)
        found = []
        for sql in sqls:
            reads.clear()
            try:
                conn.execute("EXPLAIN " + sql)
                found.append(frozenset(reads))
            except (sqlite3.Error, sqlite3.Warning, ValueError) as exc:
                found.append(exc)
        return found
    finally:
        conn.close()


def schema_only_analyze_all(sqls, schema):
    """`sqlanalysis.analyze_all` with its reads from `schema_only_reads`."""
    analyses, warnings = [], []
    columns_of = {t.name: {c.name for c in t.columns} for t in schema.tables}
    for i, (sql, reads) in enumerate(zip(sqls, schema_only_reads(sqls, schema))):
        reading = _read(sql)
        if reading.error is not None and not isinstance(reads, Exception):
            reads = SqlParseError(reading.error)
        if isinstance(reads, Exception):
            warnings.append(f"candidate {i} skipped: {reads}")
            continue
        columns = frozenset((t, c) for t, c in reads if c in columns_of.get(t, ()))
        tables = frozenset(t for t, _c in reads if t in columns_of)
        agg_or_sort = _match(reading.refs, columns, reading.names)
        analyses.append(SqlAnalysis(sql, tables, columns, agg_or_sort))
    return analyses, warnings


def project(db, schema):
    """The instance that `schema`, a pruning of the schema of `db`, stands
    for: every row of each kept table, cut down to the kept columns cell by
    cell. The instance itself when `schema` is its own."""
    if schema is db.schema:
        return db
    tables = {}
    for table in schema.tables:
        source = db.data_for(table.name)
        names = [c.lower() for c in source.columns]
        idxs = [names.index(c.lower()) for c in table.column_names()]
        rows = tuple(tuple(row[i] for i in idxs) for row in source.rows)
        tables[table.name] = TableData(table.name, table.column_names(), rows)
    return DatabaseInstance(schema=schema, tables=tables)
