"""Executing SQL on a DatabaseInstance and comparing execution results."""
from __future__ import annotations

import sqlite3
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Any

from .dbio import load_into_connection
from .instance import DatabaseInstance, check_row_widths, finite_rows
from .sqlanalysis import READ_ACTIONS, has_top_level_order_by, spelling

# Seconds a statement may run before its outcome is a timeout.
DEFAULT_TIMEOUT = 5.0

# How often (in VM instructions) the progress handler checks the deadline.
_PROGRESS_STEP = 1000

# Progress steps one statement runs before a session starts keying
# outcomes by compiled program.
_KEYING_STEPS = 5


class OutcomeKind(Enum):
    OK = "ok"
    SQL_ERROR = "error"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class ExecutionResult:
    """Column labels, row tuples, and whether row order carries meaning."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    order_significant: bool = False

    def __post_init__(self) -> None:
        check_row_widths(self.rows, len(self.columns))

    # Cached views, computed once per result and kept out of equality and repr.
    @cached_property
    def cell_types(self) -> frozenset[type]:
        return frozenset(map(type, chain.from_iterable(self.rows)))

    @cached_property
    def canonical_rows(self) -> tuple[tuple, ...]:
        """The rows with every cell through `_canon`; a row, or all of them,
        whose cells are ints, text or NULL is reused."""
        if _CANONICAL_TYPES.issuperset(self.cell_types):
            return self.rows
        return tuple(
            row if _CANONICAL_TYPES.issuperset(map(type, row)) else tuple(map(_canon, row))
            for row in self.rows
        )

    @cached_property
    def row_counts(self) -> dict[tuple, int]:
        return _counts(self.canonical_rows)

    @cached_property
    def canonical_columns(self) -> list[tuple]:
        return list(zip(*self.canonical_rows))

    @cached_property
    def column_counts(self) -> list[dict]:
        return [_counts(column) for column in self.canonical_columns]


def result_to_json(result: ExecutionResult) -> dict[str, Any]:
    return {
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "order_significant": result.order_significant,
    }


def result_from_json(payload: dict[str, Any]) -> ExecutionResult:
    """Inverse of result_to_json; "order_significant" may be absent. Refuses
    a NaN cell with MalformedDatabase; an infinity, which SQLite returns,
    is kept."""
    return ExecutionResult(
        columns=tuple(payload["columns"]),
        rows=finite_rows("result", payload["rows"], infinite_ok=True),
        order_significant=bool(payload.get("order_significant", False)),
    )


@dataclass(frozen=True)
class ExecutionOutcome:
    kind: OutcomeKind
    result: ExecutionResult | None = None
    message: str = ""

    @classmethod
    def ok(cls, result: ExecutionResult) -> "ExecutionOutcome":
        return cls(kind=OutcomeKind.OK, result=result)

    @classmethod
    def sql_error(cls, message: str) -> "ExecutionOutcome":
        return cls(kind=OutcomeKind.SQL_ERROR, message=message)

    @classmethod
    def timeout(cls) -> "ExecutionOutcome":
        return cls(kind=OutcomeKind.TIMEOUT)


def _normalize_cell(value):
    if isinstance(value, bytes):
        return value.decode("utf-8", errors="replace")
    return value


class Session:
    """A DatabaseInstance loaded into a private, read-only connection.

    This is the one place that turns (instance, SQL) into an outcome, and the
    one place SQL is compiled on it. The instance is loaded, by inserting its
    rows, on the first statement that is not memoized; a load failure is the
    outcome of every statement. After the load only reading statements are
    authorized, so no statement can change what a later one sees. Each
    statement may run for DEFAULT_TIMEOUT seconds, read when it starts, and
    outcomes, errors and timeouts included, are memoized per SQL text.
    `close` releases the connection and keeps the memo, so a later new
    statement loads the instance again. Run statements through
    `execute(session, sql)`.

    The authorizer records the (table, column) reads of every compile that
    succeeds, the run of a statement or its program-key EXPLAIN, keyed by
    the text's spelling (see `sqlanalysis.spelling`); `reads` serves
    `sqlanalysis.analyze_all` from those records. The connection caches no
    statement, so every compile reaches the authorizer, and the memo
    compiles no text twice.

    A session also memoizes by spelling (order flag and normal form), so a
    respelling in keyword case, layout, comments or a trailing `;` of a
    statement that ran without error is not run, explained or loaded for; a
    statement that errs runs by itself, so its message quotes its own text.
    It memoizes by compiled program too (order flag and `EXPLAIN` listing,
    plus the text where EXPLAIN prints an operand lossily or fails), so an
    alias spelling of a statement it ran is not run. As EXPLAIN costs about
    a small statement, keying by program starts once one statement runs
    _KEYING_STEPS progress steps or times out, and covers the statements run
    so far; on small instances it never starts. A shared outcome carries the
    column labels of the first statement with its spelling or program; no
    comparison reads labels.
    """

    def __init__(self, db: DatabaseInstance):
        self.db = db
        self._conn: sqlite3.Connection | None = None
        self._load_failure: ExecutionOutcome | None = None
        # Outcomes by SQL text, by spelling, and by program key once the
        # session keys by it.
        self._memo: dict[str | tuple, ExecutionOutcome] = {}
        # Reads by spelling, and the reads of the latest compile.
        self._reads: dict[str, frozenset[tuple[str, str]]] = {}
        self._compiled: set[tuple[str, str]] = set()
        self._stepped = self._keyed = False

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def run(self, sql: str) -> ExecutionOutcome:
        outcome = self._memo.get(sql)
        if outcome is not None:
            return outcome
        ordered = has_top_level_order_by(sql)
        spelled = spelling(sql)
        by_spelling = (ordered, spelled) if spelled else None
        outcome = self._memo.get(by_spelling)
        # Only a statement memoized by neither text nor spelling loads.
        conn = self._connection() if outcome is None else None
        if conn is not None:
            key = self._program_key(conn, sql, ordered, spelled)
            outcome = self._memo.get(key) or self._execute(conn, sql, ordered, spelled)
            self._memo.setdefault(key, outcome)
            if by_spelling and outcome.kind is not OutcomeKind.SQL_ERROR:
                self._memo[by_spelling] = outcome
            if self._stepped and not self._keyed:
                self._keyed = True
                for text, known in list(self._memo.items()):
                    if not isinstance(text, str):
                        continue  # a spelling or program key
                    result = known.result
                    ordered = result.order_significant if result else has_top_level_order_by(text)
                    key = self._program_key(conn, text, ordered, spelling(text))
                    self._memo.setdefault(key, known)
        if outcome is None:
            outcome = self._load_failure
        self._memo[sql] = outcome
        return outcome

    def reads(self, sql: str) -> frozenset[tuple[str, str]]:
        """The (table, column) pairs that compiling `EXPLAIN <sql>` here
        reads, as the authorizer reports them once SQLite has resolved the
        names: the record of a spelling already compiled, or a compile now.
        Raises what the compile raises, sqlite3's errors or TimeoutError."""
        spelled = spelling(sql)
        reads = self._reads.get(spelled)
        if reads is None:
            conn = self._connection()
            if conn is None:
                raise sqlite3.OperationalError(self._load_failure.message)
            self._fetch(conn, "EXPLAIN " + sql, spelled)
            reads = frozenset(self._compiled)
        return reads

    def _connection(self) -> sqlite3.Connection | None:
        if self._conn is None and self._load_failure is None:
            conn = sqlite3.connect(":memory:", cached_statements=0)
            # An int outside SQLite's 64-bit range raises OverflowError.
            try:
                load_into_connection(self.db, conn)
            except (sqlite3.Error, OverflowError) as exc:
                conn.close()
                self._load_failure = ExecutionOutcome.sql_error(f"instance load failed: {exc}")
                return None
            record = self._compiled.add

            def authorize(action: int, table, column, *_rest) -> int:
                if action == sqlite3.SQLITE_READ:
                    record((table, column))
                return sqlite3.SQLITE_OK if action in READ_ACTIONS else sqlite3.SQLITE_DENY

            conn.set_authorizer(authorize)
            self._conn = conn
        return self._conn

    def _fetch(self, conn: sqlite3.Connection, sql: str, spelled: str | None) -> tuple[tuple, list]:
        """The description and rows of `sql`, recording its reads under
        `spelled` if given; raises TimeoutError or SQLite's error."""
        deadline = time.monotonic() + DEFAULT_TIMEOUT
        steps, timed_out = 0, False

        def _check() -> int:
            nonlocal steps, timed_out
            steps += 1
            timed_out = time.monotonic() > deadline
            if timed_out or steps >= _KEYING_STEPS:
                self._stepped = True
            return timed_out

        conn.set_progress_handler(_check, _PROGRESS_STEP)
        self._compiled.clear()
        try:
            cursor = conn.execute(sql)
            rows = cursor.fetchall()
        except (sqlite3.Error, sqlite3.Warning):
            if timed_out:
                raise TimeoutError from None
            raise
        if spelled is not None:
            self._reads.setdefault(spelled, frozenset(self._compiled))
        return cursor.description, rows

    def _program_key(
        self, conn: sqlite3.Connection, sql: str, ordered: bool, spelled: str | None
    ) -> tuple | str:
        if not self._keyed:
            return sql
        try:
            description, listing = self._fetch(conn, "EXPLAIN " + sql, spelled)
        except (TimeoutError, sqlite3.Error, sqlite3.Warning):
            return sql
        if description[1][0] != "opcode":
            return sql  # `sql` began with QUERY PLAN, so this was EXPLAIN QUERY PLAN
        # EXPLAIN prints reals with %.16g and blobs up to their first NUL.
        lossy = any(row[1] in ("Real", "Blob") for row in listing)
        return (ordered, tuple(listing)) + ((sql,) if lossy else ())

    def _execute(
        self, conn: sqlite3.Connection, sql: str, ordered: bool, spelled: str | None
    ) -> ExecutionOutcome:
        try:
            description, rows = self._fetch(conn, sql, spelled)
        except TimeoutError:
            return ExecutionOutcome.timeout()
        except (sqlite3.Error, sqlite3.Warning) as exc:
            return ExecutionOutcome.sql_error(str(exc))
        columns = tuple(d[0] for d in description) if description else ()
        result = ExecutionResult(columns, tuple(rows), ordered)
        if bytes in result.cell_types:
            # A row holding no bytes is kept as it is.
            normalized = tuple(
                tuple(map(_normalize_cell, row)) if bytes in map(type, row) else row
                for row in rows
            )
            result = ExecutionResult(columns, normalized, result.order_significant)
        return ExecutionOutcome.ok(result)


def execute(db: DatabaseInstance | Session, sql: str) -> ExecutionOutcome:
    """Run one SQL statement on a session, or on a one-shot session over the
    instance."""
    if isinstance(db, Session):
        return db.run(sql)
    with Session(db) as session:
        return session.run(sql)


def _canon(value):
    """The one cell normalization behind equality, relaxed matching and
    canonical keys.

    A float rounds to 6 places, and a whole one becomes the int of its value;
    ints stay exact. A bool gets a tag of its own, so True is not 1.
    """
    if isinstance(value, float):
        rounded = round(value, 6)
        return int(rounded) if rounded.is_integer() else rounded
    if isinstance(value, bool):
        return ("b", value)
    return value


# Cells of these types are already canonical.
_CANONICAL_TYPES = frozenset({int, str, type(None)})


def _counts(items) -> dict:
    """Counts in a plain dict, whose == runs in C; Counter's walks keys in Python."""
    return dict(Counter(items))


def results_equal(a: ExecutionResult, b: ExecutionResult) -> bool:
    """Equality of canonical cells: positional when either side's order is
    significant, multiset otherwise. Column labels are ignored.

    Numbers compare after rounding to 6 places, so 1.0000004 equals 1.0 and
    1.0000005 equals 1.000001; a whole float equals the int of its value,
    ints compare exactly, and a bool never equals a number. Results with
    equal `result_canonical_key`s are equal; unordered results whose rows
    come in another order are equal under other keys.
    """
    if len(a.columns) != len(b.columns) or len(a.rows) != len(b.rows):
        return False
    if a.order_significant or b.order_significant:
        return a.canonical_rows == b.canonical_rows
    return a.row_counts == b.row_counts


def results_equal_relaxed(a: ExecutionResult, b: ExecutionResult) -> bool:
    """Equality up to projecting the wider result onto a column subset.

    True when some injective mapping of the narrower result's columns into
    the wider one makes results_equal hold on the projection (same numeric
    semantics: 6-place rounding, exact ints). Equal widths degrade to a
    column permutation. There is no width limit: each narrow column is only
    paired with wide columns holding the same values (the same sequence when
    either side is ordered, the same multiset otherwise), and a partial
    mapping is dropped as soon as its projection stops matching.
    """
    if len(a.rows) != len(b.rows):
        return False
    if len(a.columns) == len(b.columns) and results_equal(a, b):
        return True  # the identity mapping
    narrow, wide = (a, b) if len(a.columns) <= len(b.columns) else (b, a)
    if not narrow.columns:
        return not wide.columns
    if not narrow.rows:
        return True
    ordered = a.order_significant or b.order_significant
    narrow_columns, wide_columns = narrow.canonical_columns, wide.canonical_columns
    # A column's signature is its value sequence when order counts, and its
    # value counts otherwise.
    if ordered:
        narrow_signatures, wide_signatures = narrow_columns, wide_columns
    else:
        narrow_signatures, wide_signatures = narrow.column_counts, wide.column_counts
    choices = [
        [j for j, sig in enumerate(wide_signatures) if sig == narrow_signature]
        for narrow_signature in narrow_signatures
    ]
    # Narrow columns with equal signatures share their choices, and each
    # group needs a wide column per member.
    for group, need in Counter(map(tuple, choices)).items():
        if len(group) < need:
            return False
    if ordered:
        # Equal value sequences in every column are equal rows.
        return True

    # The most constrained narrow columns go first; targets[d] is the
    # multiset of narrow rows projected onto the first d + 1 of them.
    order = sorted(range(len(choices)), key=lambda i: len(choices[i]))
    targets = []
    prefix: list[tuple] = [()] * len(narrow.rows)
    for i in order:
        prefix = [p + (v,) for p, v in zip(prefix, narrow_columns[i])]
        targets.append(_counts(prefix))
    return _extend_mapping(
        [()] * len(wide.rows), [], [choices[i] for i in order], wide_columns, targets
    )


def _extend_mapping(
    prefix: list[tuple],
    chosen: list[int],
    choices: list[list[int]],
    wide_columns: list[tuple],
    targets: list[dict],
) -> bool:
    """Extend a partial column mapping depth first.

    `chosen` holds the wide column picked at each depth so far and `prefix`
    the wide rows projected onto them. A pick is kept only while the
    projection's multiset equals the narrow one at the same depth.
    """
    depth = len(chosen)
    if depth == len(choices):
        return True
    tried = set()
    for j in choices[depth]:
        column = wide_columns[j]
        if j in chosen or column in tried:
            continue  # an identical column was already tried at this depth
        tried.add(column)
        projected = [p + (v,) for p, v in zip(prefix, column)]
        if _counts(projected) == targets[depth]:
            chosen.append(j)
            if _extend_mapping(projected, chosen, choices, wide_columns, targets):
                return True
            chosen.pop()
    return False


def result_canonical_key(outcome: "ExecutionOutcome | ExecutionResult") -> tuple | OutcomeKind:
    """A hashable key: results with equal keys get the same verdict against
    any expected result, exact or relaxed, ordered or not.

    The key is the width, the order flag and the canonical rows in the
    result's own order, for unordered results too, so equal keys imply
    `results_equal` but not the converse. Error and timeout outcomes key as
    their kind alone.
    """
    if isinstance(outcome, ExecutionOutcome):
        if outcome.kind is not OutcomeKind.OK:
            return outcome.kind
        outcome = outcome.result
    return (len(outcome.columns), outcome.order_significant, outcome.canonical_rows)
