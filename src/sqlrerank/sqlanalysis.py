"""SQL analysis: what a statement reads, aggregates or sorts, and whether it
orders its output.

SQLite resolves the names: the original's `Session` records the (table,
column) reads its authorizer sees while it compiles a statement, after
SQLite has resolved aliases, scopes, CTEs, derived tables and `*`.
`analyze_all` reads those records, and compiles `EXPLAIN <sql>` on the
session's connection only for a text it has no record of. SQL that SQLite
rejects, or that the executor would refuse, is skipped. A small token pass
finds the identifiers in aggregate calls and ORDER BY items and matches them
by column name against the reads. That pass, the order flag and the
spelling (the normal form the session memoizes by) depend on the text alone:
each text is tokenized once per process, in a cache bounded at 4096 texts.
"""
from __future__ import annotations

import functools
import logging
import re
import sqlite3
import string
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import SqlParseError

if TYPE_CHECKING:
    from .executor import Session

log = logging.getLogger(__name__)

# All a reading statement needs authorized. The executor allows only these
# after its load (PRAGMA query_only can be switched off again by a
# candidate), and the analysis denies the rest, so both refuse alike.
READ_ACTIONS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE}
)


class Token(NamedTuple):
    kind: str  # "ident", "string", "number", "punct"
    text: str
    value: str
    pos: int


# Alternatives are tried in order at each offset; the last two catch a
# quote or bracket whose closer never comes and any other character. As in
# SQLite, a block comment ends at `*/` or at the end of the text.
_TOKEN = re.compile(
    r"""
    (?P<skip>\s+|--[^\n]*|/\*.*?(?:\*/|\Z))
    | (?P<string>'[^']*(?:''[^']*)*')
    | (?P<quoted>"[^"]*(?:""[^"]*)*"|`[^`]*(?:``[^`]*)*`)
    | (?P<bracket>\[[^\]]*\])
    | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<ident>[^\W\d][\w$]*)
    | (?P<unterminated>['"`\[])
    | (?P<punct><>|<=|>=|!=|==|\|\||<<|>>|[-+*/%(),.;=<>|&~])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = frozenset(
    """select from where group by having order limit offset join inner left
    right full outer cross natural on using as and or not in like glob
    between is null distinct case when then else end asc desc union
    intersect except all any some exists cast collate escape values
    with recursive""".split()
)

_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max", "total"})

# Words that end a select list, and an ORDER BY list, at their own depth.
_SELECT_LIST_END = frozenset(
    "from where group having window order limit union intersect except".split())
_ORDER_LIST_END = frozenset({"limit", "rows", "range", "groups"})


def tokenize(sql: str) -> list[Token]:
    """Split SQL text into tokens. Raises SqlParseError on malformed input."""
    tokens: list[Token] = []
    for m in _TOKEN.finditer(sql):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "skip":
            continue
        if kind in ("ident", "number", "punct"):
            tokens.append(Token(kind, text, text, pos))
        elif kind == "string":
            tokens.append(Token("string", text, text[1:-1].replace("''", "'"), pos))
        elif kind == "quoted":
            tokens.append(Token("ident", text, text[1:-1].replace(text[0] * 2, text[0]), pos))
        elif kind == "bracket":
            tokens.append(Token("ident", text, text[1:-1], pos))
        elif kind == "unterminated":
            raise SqlParseError(f"unterminated {text} at offset {pos}")
        else:
            raise SqlParseError(f"unexpected character {text!r} at offset {pos}")
    return tokens


def _is_word(tok: Token, words: frozenset[str] | set[str]) -> bool:
    return tok.kind == "ident" and tok.value.lower() in words


def _names(run: list[Token]) -> Iterator[tuple[str | None, str]]:
    """(qualifier, name) of each column-like identifier in a token run."""
    i, n = 0, len(run)
    while i < n:
        tok, nxt = run[i], (run[i + 1].text if i + 1 < n else "")
        i += 1
        if tok.kind != "ident" or nxt == "(":
            continue
        if nxt == ".":
            if i + 1 < n and run[i + 1].kind == "ident":
                yield tok.value, run[i + 1].value
            i += 2
        elif tok.value.lower() not in _KEYWORDS:
            yield None, tok.value


def _items(
    tokens: list[Token], start: int, closes: dict[int, int], end_words: frozenset[str]
) -> list[list[Token]]:
    """The comma-separated items from `start` to the first ")", ";" or word
    of `end_words` outside the parentheses the items open."""
    items: list[list[Token]] = [[]]
    i, n = start, len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.text == "(":
            end = closes.get(i, n - 1) + 1
            items[-1].extend(tokens[i:end])
            i = end
            continue
        if tok.text in (")", ";") or _is_word(tok, end_words):
            break
        if tok.text == ",":
            items.append([])
        else:
            items[-1].append(tok)
        i += 1
    return items


def _deref(
    tokens: list[Token], closes: dict[int, int], select: int | None, item: list[Token]
) -> list[Token]:
    """An ORDER BY item, or the select-list item its ordinal or alias names."""
    if select is None or not item:
        return item
    if len(item) > 1 and not _is_word(item[1], {"asc", "desc", "nulls", "collate"}):
        return item
    head = item[0]
    outputs = _items(tokens, select + 1, closes, _SELECT_LIST_END)
    if head.text.isdigit() and len(head.text) < 10:  # longer is a REAL to SQLite
        k = int(head.text)
        return outputs[k - 1] if 1 <= k <= len(outputs) else []
    alias = head.value.lower()
    for out in outputs:
        if len(out) >= 3 and _is_word(out[-2], {"as"}) and out[-1].value.lower() == alias:
            return out[:-2]
    return item


def _agg_and_sort_refs(tokens: list[Token], words: list[str]) -> list[tuple[str | None, str]]:
    """(qualifier, name) of each identifier inside an aggregate call or an
    ORDER BY item; an ordinal or AS alias stands for its item in the SELECT."""
    if "order" not in words and _AGGREGATES.isdisjoint(words):
        return []
    closes: dict[int, int] = {}
    opens: list[int] = []
    selects: list[int | None] = [None]  # the last SELECT at each paren depth
    order_bys: list[tuple[int, int | None]] = []  # (first item token, owning SELECT)
    for i, (tok, word) in enumerate(zip(tokens, words)):
        if tok.text == "(":
            opens.append(i)
            selects.append(None)
        elif tok.text == ")" and opens:
            closes[opens.pop()] = i
            selects.pop()
        elif word == "select":
            selects[-1] = i
        elif word == "order" and words[i + 1 : i + 2] == ["by"]:
            order_bys.append((i + 2, selects[-1]))
    refs: list[tuple[str | None, str]] = []
    for i, word in enumerate(words):
        if word in _AGGREGATES and i + 1 in closes:
            refs.extend(_names(tokens[i + 2 : closes[i + 1]]))
    for start, select in order_bys:
        for item in _items(tokens, start, closes, _ORDER_LIST_END):
            refs.extend(_names(_deref(tokens, closes, select, item)))
    return refs


def _names_of(words: list[str], qualifiers: set[str]) -> frozenset[tuple[str, str]]:
    """(table, q) for each qualifier q that is a table's own name or the
    alias of a `<table> [AS] q`, as far as the words tell."""
    names = {(w, w) for w in words} | set(zip(words, words[1:]))
    names |= {(a, c) for a, b, c in zip(words, words[1:], words[2:]) if b == "as"}
    return frozenset(name for name in names if name[1] in qualifiers)


def _match(
    refs: tuple[tuple[str | None, str], ...],
    columns: frozenset[tuple[str, str]],
    names: frozenset[tuple[str, str]],
) -> frozenset[tuple[str, str]]:
    """The columns read that a ref names: the same column name and, for
    `q.c`, a table named q or a `<table> [AS] q` alias."""
    return frozenset(
        (table, column)
        for qualifier, name in refs
        for table, column in columns
        if column.lower() == name.lower()
        and (qualifier is None or (table.lower(), qualifier.lower()) in names)
    )


class _Reading(NamedTuple):
    """What a SQL text says by itself, or why the tokenizer rejects it."""

    ordered: bool  # the statement itself, not a subquery, has an ORDER BY
    by_name: bool  # the word NATURAL or USING occurs: a join by column name
    refs: tuple[tuple[str | None, str], ...]  # see _agg_and_sort_refs
    names: frozenset[tuple[str, str]]  # see _names_of, for the qualifiers in refs
    spelling: str | None = None  # see _spelling
    error: str | None = None


# SQLite folds the case of ASCII letters only: `É` and `é` name two columns.
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
# Whitespace that Python's \s matches and SQLite's tokenizer does not.
_FOREIGN_SPACE = re.compile(r"[^\S \t\n\f\r]")


def _spelling(sql: str, tokens: list[Token]) -> str | None:
    """The text as SQLite reads it, with what it ignores taken out: comments
    and whitespace between two tokens become one space, a trailing `;` goes,
    and bare words fold to lower case in ASCII only. Quoted identifiers,
    strings and numbers stay verbatim, because SQLite reads `"a"` as the
    string 'a' where no column `a` exists. Tokens with nothing between them
    stay joined: `0x1F` and `1abc` are not `0 x1F` and `1 abc` to SQLite.
    Two texts with one spelling compile to one program, up to column labels.

    None where the normal form could mislead or the text is no statement
    that `EXPLAIN <sql>` compiles as itself: no token, a first token that is
    not a bare word, a first word EXPLAIN, or whitespace SQLite rejects."""
    if tokens and tokens[-1].text == ";":
        tokens = tokens[:-1]
    words = [t.text.translate(_ASCII_LOWER) if _is_bare(t) else None for t in tokens]
    if not words or words[0] in (None, "explain") or _FOREIGN_SPACE.search(sql):
        return None
    parts: list[str] = []
    end = tokens[0].pos
    for tok, word in zip(tokens, words):
        if tok.pos > end:
            parts.append(" ")
        parts.append(tok.text if word is None else word)
        end = tok.pos + len(tok.text)
    return "".join(parts)


def _is_bare(tok: Token) -> bool:
    return tok.kind == "ident" and tok.text[0] not in "\"`["


# Every candidate is analyzed once per entry and executed on several
# instances, so each text is tokenized once. The record keeps no Token, and
# names only for the qualifiers its refs use.
@functools.lru_cache(maxsize=4096)
def _read(sql: str) -> _Reading:
    try:
        tokens = tokenize(sql)
    except SqlParseError as exc:
        return _Reading(False, False, (), frozenset(), error=str(exc))
    words = [t.value.lower() if t.kind == "ident" else "" for t in tokens]
    ordered, depth = False, 0
    for tok, word, nxt in zip(tokens, words, words[1:]):
        if tok.text == "(":
            depth += 1
        elif tok.text == ")":
            depth -= 1
        elif depth == 0 and word == "order" and nxt == "by":
            ordered = True
            break
    refs = tuple(_agg_and_sort_refs(tokens, words))
    qualifiers = {q.lower() for q, _name in refs if q is not None}
    by_name = "natural" in words or "using" in words
    return _Reading(ordered, by_name, refs, _names_of(words, qualifiers), _spelling(sql, tokens))


@dataclass(frozen=True)
class SqlAnalysis:
    """What one SQL statement reads, as SQLite resolves it against a schema."""

    sql: str
    tables: frozenset[str]
    columns: frozenset[tuple[str, str]]
    agg_or_sort_columns: frozenset[tuple[str, str]]


def analyze_all(session: Session, sqls: list[str]) -> tuple[list[SqlAnalysis], list[str]]:
    """Analyze each SQL from the reads `session` records compiling it on its
    original, skipping the ones SQLite rejects or that do more than read.
    Returns (analyses, warnings)."""
    analyses: list[SqlAnalysis] = []
    warnings: list[str] = []
    columns_of = {t.name: {c.name for c in t.columns} for t in session.db.schema.tables}
    for i, sql in enumerate(sqls):
        try:
            reads = session.reads(sql)
            reading = _read(sql)
            if reading.error is not None:
                raise SqlParseError(reading.error)
        except (sqlite3.Error, sqlite3.Warning, ValueError, SqlParseError, TimeoutError) as exc:
            warnings.append(f"candidate {i} skipped: {exc}")
            log.warning("%s", warnings[-1])
            continue
        # Reads of sqlite_master, or of a rowid, name no column of the schema.
        columns = frozenset((t, c) for t, c in reads if c in columns_of.get(t, ()))
        tables = frozenset(t for t, _c in reads if t in columns_of)
        refs = reading.refs
        agg_or_sort = _match(refs, columns, reading.names) if refs else frozenset()
        analyses.append(SqlAnalysis(sql, tables, columns, agg_or_sort))
    return analyses, warnings


def has_top_level_order_by(sql: str) -> bool:
    """True if the statement itself (not a subquery) has an ORDER BY."""
    return _read(sql).ordered


def spelling(sql: str) -> str | None:
    """The normal form under which a session memoizes `sql` with its
    respellings, or None where it memoizes the text alone; see _spelling."""
    return _read(sql).spelling


def joins_by_column_name(sql: str) -> bool:
    """True if the word NATURAL or USING occurs in the statement, as in a
    join on the columns two tables share by name."""
    return _read(sql).by_name
