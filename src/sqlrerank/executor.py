"""Executing SQL on a DatabaseInstance and comparing execution results."""
from __future__ import annotations

import itertools
import sqlite3
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

from .dbio import load_into_connection
from .instance import DatabaseInstance
from .sqlanalysis import has_top_level_order_by

NUMERIC_TOLERANCE = 1e-6
DEFAULT_TIMEOUT = 5.0

# How often (in VM instructions) the progress handler checks the deadline.
_PROGRESS_STEP = 1000


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
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")


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


# Statements a session authorizes after its load: reading only. PRAGMA
# query_only is not enough, since a candidate can switch it off again.
_READ_ACTIONS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE}
)


def _authorize_read(action: int, *_args) -> int:
    return sqlite3.SQLITE_OK if action in _READ_ACTIONS else sqlite3.SQLITE_DENY


class Session:
    """A DatabaseInstance loaded once into a private, read-only connection.

    This is the one place that turns (instance, SQL) into an outcome. The
    instance is loaded on the first statement; a load failure is the outcome
    of every statement. After the load only reading statements are
    authorized, so no statement can change what a later one sees. Outcomes
    are memoized per (sql, timeout). A session belongs to the thread that
    opened it. Run statements through `execute(session, sql, timeout)`.
    """

    def __init__(self, db: DatabaseInstance):
        self.db = db
        self._conn: sqlite3.Connection | None = None
        self._load_failure: ExecutionOutcome | None = None
        self._memo: dict[tuple[str, float], ExecutionOutcome] = {}
        self._closed = False

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        self._closed = True
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def run(self, sql: str, timeout: float = DEFAULT_TIMEOUT) -> ExecutionOutcome:
        if self._closed:
            raise ValueError("session is closed")
        key = (sql, timeout)
        outcome = self._memo.get(key)
        if outcome is not None:
            return outcome
        conn = self._connection()
        outcome = self._load_failure if conn is None else self._execute(conn, sql, timeout)
        self._memo[key] = outcome
        return outcome

    def _connection(self) -> sqlite3.Connection | None:
        if self._conn is None and self._load_failure is None:
            conn = sqlite3.connect(":memory:")
            try:
                load_into_connection(self.db, conn)
            except sqlite3.Error as exc:
                conn.close()
                self._load_failure = ExecutionOutcome.sql_error(f"instance load failed: {exc}")
                return None
            conn.set_authorizer(_authorize_read)
            self._conn = conn
        return self._conn

    def _execute(self, conn: sqlite3.Connection, sql: str, timeout: float) -> ExecutionOutcome:
        deadline = time.monotonic() + timeout
        timed_out = False

        def _check() -> int:
            nonlocal timed_out
            if time.monotonic() > deadline:
                timed_out = True
                return 1
            return 0

        conn.set_progress_handler(_check, _PROGRESS_STEP)
        try:
            cursor = conn.execute(sql)
            rows = cursor.fetchall()
        except (sqlite3.Error, sqlite3.Warning) as exc:
            if timed_out:
                return ExecutionOutcome.timeout()
            return ExecutionOutcome.sql_error(str(exc))
        columns = tuple(d[0] for d in cursor.description) if cursor.description else ()
        normalized = tuple(tuple(_normalize_cell(v) for v in row) for row in rows)
        return ExecutionOutcome.ok(
            ExecutionResult(
                columns=columns,
                rows=normalized,
                order_significant=has_top_level_order_by(sql),
            )
        )


def execute(
    db: DatabaseInstance | Session, sql: str, timeout: float = DEFAULT_TIMEOUT
) -> ExecutionOutcome:
    """Run one SQL statement on an open session, or on a one-shot session
    over the instance."""
    if isinstance(db, Session):
        return db.run(sql, timeout)
    with Session(db) as session:
        return session.run(sql, timeout)


@contextmanager
def session_for(db: DatabaseInstance | Session) -> Iterator[Session]:
    """The open session itself, or a new session closed on exit."""
    if isinstance(db, Session):
        yield db
    else:
        with Session(db) as session:
            yield session


def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        return abs(a - b) <= NUMERIC_TOLERANCE
    if a_num or b_num:
        return False
    return a == b


def _rows_equal(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(_cells_equal(x, y) for x, y in zip(a, b))


def _cell_sort_key(value):
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, round(float(value), 6))
    return (2, str(value))


def _row_sort_key(row: tuple):
    return tuple(_cell_sort_key(v) for v in row)


def results_equal(a: ExecutionResult, b: ExecutionResult) -> bool:
    """Equality with numeric tolerance: positional when either side's order is
    significant, multiset otherwise. Column labels are ignored."""
    if len(a.columns) != len(b.columns) or len(a.rows) != len(b.rows):
        return False
    if a.order_significant or b.order_significant:
        return all(_rows_equal(x, y) for x, y in zip(a.rows, b.rows))
    a_sorted = sorted(a.rows, key=_row_sort_key)
    b_sorted = sorted(b.rows, key=_row_sort_key)
    return all(_rows_equal(x, y) for x, y in zip(a_sorted, b_sorted))


# Injection search is exponential in width; beyond this many columns on the
# wider side, the relaxed comparison falls back to the exact one.
RELAXED_WIDTH_CAP = 8


def results_equal_relaxed(a: ExecutionResult, b: ExecutionResult) -> bool:
    """Equality up to projecting the wider result onto a column subset.

    True when some injective mapping of the narrower result's columns into
    the wider one makes results_equal hold on the projection. The projection
    keeps the wider side's order-significance flag. Equal widths degrade to a
    column-permutation search.
    """
    if len(a.rows) != len(b.rows):
        return False
    if len(a.columns) <= len(b.columns):
        narrow, wide = a, b
    else:
        narrow, wide = b, a
    if len(wide.columns) > RELAXED_WIDTH_CAP:
        return results_equal(a, b)
    if len(narrow.columns) == 0:
        return len(wide.columns) == 0
    for mapping in itertools.permutations(range(len(wide.columns)), len(narrow.columns)):
        projected = ExecutionResult(
            columns=tuple(wide.columns[i] for i in mapping),
            rows=tuple(tuple(row[i] for i in mapping) for row in wide.rows),
            order_significant=wide.order_significant,
        )
        if results_equal(narrow, projected):
            return True
    return False


def _canonical_cell(value) -> str:
    if value is None:
        return "~"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        n = round(float(value), 6)
        if n == int(n):
            return f"n:{int(n)}"
        return f"n:{n!r}"
    return f"t:{value}"


def result_canonical_key(outcome: "ExecutionOutcome | ExecutionResult") -> str:
    """A comparable token: equal results get equal tokens.

    Error and timeout outcomes map to reserved tokens keyed by kind alone.
    Rows are sorted into the token unless order is significant.
    """
    if isinstance(outcome, ExecutionResult):
        outcome = ExecutionOutcome.ok(outcome)
    if outcome.kind is OutcomeKind.SQL_ERROR:
        return "!error"
    if outcome.kind is OutcomeKind.TIMEOUT:
        return "!timeout"
    result = outcome.result
    assert result is not None
    rows = result.rows if result.order_significant else sorted(result.rows, key=_row_sort_key)
    encoded = ";".join("|".join(_canonical_cell(v) for v in row) for row in rows)
    flag = "o" if result.order_significant else "u"
    return f"ok:{len(result.columns)}:{flag}:{encoded}"
