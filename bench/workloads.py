"""Deterministic, Spider-shaped corpora for the benchmark, built from a seed.

Only the standard library is used here: the SQLite files are written with
`sqlite3`, not with `sqlrerank.dbio`, so the inputs stay the same when the
code under test changes.

Every candidate is labelled correct or wrong when it is constructed, and
`check_labels` confirms each label on the original file with a comparison
written from the definition of the relaxed result equality (see
`relaxed_equal`). The data are built so that the labels hold by
construction: integer measures are distinct and >= 1000, real measures are
distinct quarters below 1000, text labels are unique within a database and
never equal a group word, and no cell is NULL.

A template is *separable* when every wrong candidate differs from the gold
on any database where the gold returns a non-NULL row. The separable
templates get there by type or value domain: the wrong candidate projects a
text column where the gold projects a number (or the reverse), or a group
word where the gold projects a unique label. The gold queries of separable
templates have no WHERE clause, so they return a row on every generated
database with non-empty tables.
"""
from __future__ import annotations

import json
import os
import random
import re
import sqlite3
from collections import Counter
from dataclasses import dataclass, field

WORKLOADS = ("spider-dev", "large-db", "wide-relaxed")

# Entry kinds per block of 50 entries: (label pattern, separable, cte fault).
# all-correct and all-wrong entries are the ones the paper gate skips. The
# mix is an assumption, not a measured figure: no sample of real candidate
# lists is in the repository, and the paper reports only the EX gain. It
# fixes ex_before at 0.66 and lets the gate skip 46% of the entries.
_BLOCK = 50
_SPIDER_BLOCK = (
    [("all_correct", None, False)] * 16
    + [("all_wrong", None, False)] * 7
    + [("top_correct", True, False)] * 7
    + [("top_correct", False, False)] * 10
    + [("top_wrong", True, False)] * 5
    + [("top_wrong", False, False)] * 4
    + [("top_wrong", True, True)] * 1
)
_PLAIN_BLOCK = _SPIDER_BLOCK[:-1] + [("top_wrong", True, False)]

# Workload shapes. `entries` must be a multiple of the block size, so every
# corpus holds exactly the same mix of kinds whatever the seed.
SHAPES = {
    "spider-dev": dict(
        entries=200, databases=20, tables=(1, 4), rows=(20, 60), child_rows=(30, 200),
        candidates=(5, 10), order_by_key=1, block=_SPIDER_BLOCK,
    ),
    "large-db": dict(
        entries=100, databases=3, tables=(2, 3), rows=(1000, 1200), child_rows=(1200, 1600),
        candidates=(5, 6), block=_PLAIN_BLOCK,
    ),
    "wide-relaxed": dict(
        entries=100, databases=8, rows=12, candidates=(5, 6), block=_PLAIN_BLOCK,
    ),
}

_TABLE_WORDS = (
    "singer concert stadium student course teacher employee department airport"
    " flight museum visitor club player album track customer product shipment"
    " library author branch hotel guest vessel captain race pilot festival"
    " artist school campus gallery exhibit warehouse supplier"
).split()
_GROUP_WORDS = "red blue green amber violet teal gray coral olive ivory".split()
_SYLLABLES = "ka lo ve ra tan mi sor del fin ba nu pe qui zar mon tel vir os da len".split()
# Role -> column name, per table position within a database.
_ROLE_NAMES = (
    {"label": "name", "group": "category", "n1": "score", "n2": "budget"},
    {"label": "title", "group": "kind", "n1": "amount", "n2": "price"},
    {"label": "nickname", "group": "region", "n1": "capacity", "n2": "weight"},
    {"label": "code_name", "group": "genre", "n1": "quantity", "n2": "rating"},
)
_WIDE_COLUMNS = (
    ("name", "TEXT"), ("city", "TEXT"), ("owner", "TEXT"), ("color", "TEXT"),
    ("year", "INTEGER"), ("seats", "INTEGER"), ("floors", "INTEGER"), ("stock", "INTEGER"),
    ("height", "REAL"), ("width", "REAL"),
)


@dataclass
class TableSpec:
    name: str
    columns: list[tuple[str, str]]
    roles: dict[str, str]
    parent: str | None = None
    rows: list[tuple] = field(default_factory=list)


@dataclass
class DbSpec:
    db_id: str
    tables: list[TableSpec]

    def table(self, name: str) -> TableSpec:
        return next(t for t in self.tables if t.name == name)


@dataclass(frozen=True)
class Variant:
    """One SQL meaning; `render(alias)` spells it with or without aliases."""

    render: object
    ordered: bool = False


@dataclass
class Candidate:
    sql: str
    ordered: bool
    correct: bool
    probability: float


@dataclass
class Entry:
    entry_id: str
    db_id: str
    question: str
    gold: str
    gold_ordered: bool
    candidates: list[Candidate]
    template: str
    kind: str
    separable: bool
    cte_fault: bool = False

    @property
    def labels(self) -> list[bool]:
        return [c.correct for c in self.candidates]


# --------------------------------------------------------------------------
# Databases


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables)).capitalize()


def _unique_labels(rng: random.Random, n: int, used: set[str]) -> list[str]:
    out = []
    while len(out) < n:
        label = f"{_word(rng, 2)} {_word(rng, 3)}"
        if label not in used:
            used.add(label)
            out.append(label)
    return out


def _groups(rng: random.Random, n: int) -> list[str]:
    words = rng.sample(_GROUP_WORDS, rng.randint(3, 5))
    column = words + [rng.choice(words) for _ in range(n - len(words))]
    rng.shuffle(column)
    return column


def _spider_db(rng: random.Random, db_id: str, n_tables: int, rows: int, child_rows: int) -> DbSpec:
    names = rng.sample(_TABLE_WORDS, n_tables)
    used_labels: set[str] = set()
    tables: list[TableSpec] = []
    for i, name in enumerate(names):
        roles = dict(_ROLE_NAMES[i], key=f"{name}_id")
        parent = tables[i - 1] if i else None
        columns = [(roles["key"], "INTEGER")]
        if parent is not None:
            roles["fk"] = parent.roles["key"]
            columns.append((roles["fk"], "INTEGER"))
        columns += [
            (roles["label"], "TEXT"), (roles["group"], "TEXT"),
            (roles["n1"], "INTEGER"), (roles["n2"], "REAL"),
        ]
        n = child_rows if parent else rows
        keys = rng.sample(range(1, 10 * n), n)
        parent_keys = [row[0] for row in parent.rows] if parent else None
        labels = _unique_labels(rng, n, used_labels)
        groups = _groups(rng, n)
        n1 = rng.sample(range(1000, 10000), n)
        n2 = [k / 4 for k in rng.sample(range(1, 4000), n)]
        rows = []
        for j in range(n):
            fk = (rng.choice(parent_keys),) if parent else ()
            rows.append((keys[j], *fk, labels[j], groups[j], n1[j], n2[j]))
        tables.append(TableSpec(name, columns, roles, parent.name if parent else None, rows))
    return DbSpec(db_id, tables)


def _wide_db(rng: random.Random, db_id: str, n: int) -> DbSpec:
    name = rng.choice(_TABLE_WORDS)
    columns = [(f"{name}_id", "INTEGER")] + list(_WIDE_COLUMNS)
    used: set[str] = set()
    cells = [rng.sample(range(1, 10 * n), n)]
    for j, (_col, ctype) in enumerate(_WIDE_COLUMNS):
        if ctype == "TEXT":
            cells.append(_unique_labels(rng, n, used))
        elif ctype == "INTEGER":
            # Disjoint ranges per column: no two columns share a value.
            cells.append(rng.sample(range(1000 * (j + 1), 1000 * (j + 2)), n))
        else:
            cells.append([1000 * (j + 1) + k / 4 for k in rng.sample(range(1, 3996), n)])
    rows = [tuple(col[i] for col in cells) for i in range(n)]
    return DbSpec(db_id, [TableSpec(name, columns, {"key": f"{name}_id"}, None, rows)])


def write_sqlite(db: DbSpec, path: str) -> None:
    conn = sqlite3.connect(path)
    try:
        for t in db.tables:
            cols = [f"{c} {ctype}" for c, ctype in t.columns]
            cols.append(f"PRIMARY KEY ({t.roles['key']})")
            if t.parent:
                parent_key = db.table(t.parent).roles["key"]
                cols.append(f"FOREIGN KEY ({t.roles['fk']}) REFERENCES {t.parent} ({parent_key})")
            conn.execute(f"CREATE TABLE {t.name} (\n  " + ",\n  ".join(cols) + "\n)")
            marks = ", ".join("?" for _ in t.columns)
            conn.executemany(f"INSERT INTO {t.name} VALUES ({marks})", t.rows)
        conn.commit()
    finally:
        conn.close()


# --------------------------------------------------------------------------
# SQL spelling

_KEYWORD_RE = re.compile(
    r"\b(SELECT|FROM|WHERE|GROUP BY|ORDER BY|LIMIT|OFFSET|JOIN|ON|AS|DESC|ASC|IN|NOT"
    r"|WITH|COUNT|MAX|MIN|SUM|AVG)\b"
)


def _spellings(variant: Variant) -> list[str]:
    """Sixteen spellings of one meaning: aliases, keyword case, line breaks
    and a trailing ';'."""
    out = []
    for alias in (False, True):
        base = variant.render(alias)
        for lower in (False, True):
            text = _KEYWORD_RE.sub(lambda m: m.group(0).lower(), base) if lower else base
            for broken in (False, True):
                spelled = re.sub(r" (FROM|from) ", r"\n\1 ", text) if broken else text
                for semi in (False, True):
                    out.append(spelled + (";" if semi else ""))
    return out


def _single(t: TableSpec):
    """Helpers for one-table queries: column and FROM spellings."""
    def col(alias, role):
        name = t.roles.get(role, role)
        return f"T1.{name}" if alias else name

    def src(alias):
        return f"{t.name} AS T1" if alias else t.name

    return col, src


# --------------------------------------------------------------------------
# Templates. Each returns (question, correct variants, wrong variants,
# separable wrong variants); the first correct variant is the gold.


def _tpl_agg(rng, t):
    col, src = _single(t)
    r = t.roles
    func = rng.choice(["MAX", "MIN", "SUM", "AVG"])

    def agg(f, role):
        return Variant(lambda a: f"SELECT {f}({col(a, role)}) FROM {src(a)}")

    correct = [agg(func, "n1")]
    if func in ("MAX", "MIN"):
        direction = "DESC" if func == "MAX" else "ASC"
        correct.append(Variant(
            lambda a: f"SELECT {col(a, 'n1')} FROM {src(a)}"
            f" ORDER BY {col(a, 'n1')} {direction} LIMIT 1",
            ordered=True,
        ))
    wrong = [agg(f, "n1") for f in ("MAX", "MIN", "SUM", "AVG") if f != func]
    wrong.append(agg(func, "n2"))
    sep = [agg(f, role) for f in ("MAX", "MIN") for role in ("label", "group")]
    question = f"What is the {func.lower()} {r['n1']} of all {t.name}s?"
    return question, correct, wrong, sep


def _tpl_order(rng, t, by_key=False):
    col, src = _single(t)
    r = t.roles
    direction = rng.choice(["DESC", "ASC"])
    flip = "ASC" if direction == "DESC" else "DESC"
    limit = 3 if by_key else rng.choice([1, 3])
    other = 1 if limit == 3 else 3
    by = "key" if by_key else "n1"

    def order(proj, d, lim, offset=""):
        return Variant(
            lambda a: f"SELECT {col(a, proj)} FROM {src(a)}"
            f" ORDER BY {col(a, by)} {d} LIMIT {lim}{offset}",
            ordered=True,
        )

    correct = [order("label", direction, limit)]
    wrong = [order("label", flip, limit), order("label", direction, limit, " OFFSET 1")]
    if not by_key:
        wrong.append(order("label", direction, other))
    sep = [order("group", direction, limit), order("n1", direction, limit)]
    which = "highest" if direction == "DESC" else "lowest"
    question = f"Which {t.name}s have the {which} {r[by]}? Show up to {limit}."
    return question, correct, wrong, sep


def _tpl_order_key(rng, t):
    return _tpl_order(rng, t, by_key=True)


def _tpl_join(rng, c, p, separable):
    p_roles, c_roles = p.roles, c.roles
    gi = [name for name, _ in p.columns].index(p_roles["group"])
    parents_with_children = {ch[1] for ch in c.rows}
    p_groups = sorted({row[gi] for row in p.rows})
    with_children = sorted({row[gi] for row in p.rows if row[0] in parents_with_children})
    x = rng.choice(with_children)
    x_other = rng.choice([g for g in p_groups if g != x])

    def q(a, tbl, n):
        return f"T{n}" if a else tbl.name

    def s(a, tbl, n):
        return f"{tbl.name} AS T{n}" if a else tbl.name

    def join(proj_p="label", proj_c="label", where=None, form="on", swap_cols=False):
        def render(a):
            cols = [f"{q(a, p, 1)}.{p_roles[proj_p]}", f"{q(a, c, 2)}.{c_roles[proj_c]}"]
            if swap_cols:
                cols.reverse()
            cond = f"{q(a, p, 1)}.{p_roles['key']} = {q(a, c, 2)}.{c_roles['fk']}"
            if form == "on":
                sql = f"SELECT {', '.join(cols)} FROM {s(a, p, 1)} JOIN {s(a, c, 2)} ON {cond}"
            elif form == "on_swapped":
                cond = f"{q(a, c, 2)}.{c_roles['fk']} = {q(a, p, 1)}.{p_roles['key']}"
                sql = f"SELECT {', '.join(cols)} FROM {s(a, c, 2)} JOIN {s(a, p, 1)} ON {cond}"
            else:
                sql = f"SELECT {', '.join(cols)} FROM {s(a, p, 1)}, {s(a, c, 2)} WHERE {cond}"
            if where:
                glue = " AND " if form == "comma" else " WHERE "
                sql += f"{glue}{q(a, p, 1)}.{p_roles['group']} = '{where}'"
            return sql
        return Variant(render)

    where = None if separable else x
    correct = [join(where=where), join(where=where, form="on_swapped"),
               join(where=where, form="comma"), join(where=where, swap_cols=True)]
    wrong = [join(where=x_other), join(where=x_other, form="comma")]
    sep = [join(proj_p="group"), join(proj_c="n1"), join(proj_p="group", form="comma")]
    question = f"List each {p.name} {p_roles['label']} with the {c_roles['label']} of its {c.name}s"
    if where:
        question += f" for {p_roles['group']} {where}"
    return question + ".", correct, wrong, sep


def _tpl_subquery(rng, t):
    col, src = _single(t)

    def sub(op, func="AVG", flipped=False):
        def render(a):
            inner_col = f"T2.{t.roles['n1']}" if a else t.roles["n1"]
            inner_src = f"{t.name} AS T2" if a else t.name
            inner = f"(SELECT {func}({inner_col}) FROM {inner_src})"
            if flipped:
                cond = f"{inner} {'<' if op == '>' else '>'} {col(a, 'n1')}"
            else:
                cond = f"{col(a, 'n1')} {op} {inner}"
            return f"SELECT {col(a, 'label')} FROM {src(a)} WHERE {cond}"
        return Variant(render)

    correct = [sub(">"), sub(">", flipped=True)]
    wrong = [sub("<"), sub(">", func="MAX"), sub("<", flipped=True)]
    question = f"Which {t.name}s have a {t.roles['n1']} above the average?"
    return question, correct, wrong, []


def _tpl_in(c, p):
    p_roles, c_roles = p.roles, c.roles

    def member(neg):
        def render(a):
            outer = f"T1.{p_roles['key']}" if a else p_roles["key"]
            if a:
                inner = f"(SELECT T2.{c_roles['fk']} FROM {c.name} AS T2)"
            else:
                inner = f"(SELECT {c_roles['fk']} FROM {c.name})"
            src = f"{p.name} AS T1" if a else p.name
            label = f"T1.{p_roles['label']}" if a else p_roles["label"]
            return f"SELECT {label} FROM {src} WHERE {outer} {'NOT IN' if neg else 'IN'} {inner}"
        return Variant(render)

    question = f"Which {p.name}s have at least one {c.name}?"
    return question, [member(False)], [member(True)], []


def _tpl_group(_rng, t):
    col, src = _single(t)

    def group(agg, first=True):
        def render(a):
            cols = [col(a, "group"), agg(a)]
            if not first:
                cols.reverse()
            return f"SELECT {', '.join(cols)} FROM {src(a)} GROUP BY {col(a, 'group')}"
        return Variant(render)

    correct = [group(lambda a: "COUNT(*)"), group(lambda a: "COUNT(*)", first=False),
               group(lambda a: f"COUNT({col(a, 'label')})")]
    wrong = [group(lambda a, f=f: f"{f}({col(a, 'n1')})") for f in ("MAX", "MIN", "SUM")]
    sep = [group(lambda a, f=f: f"{f}({col(a, 'label')})") for f in ("MAX", "MIN")]
    question = f"How many {t.name}s are there in each {t.roles['group']}?"
    return question, correct, wrong, sep


def _tpl_cte(rng, t):
    """A CTE gold whose columns the plain candidates also read."""
    col, src = _single(t)
    question, plain_correct, wrong, sep = _tpl_group(rng, t)

    def cte(name):
        return Variant(
            lambda a: f"WITH {name} AS (SELECT {col(a, 'group')} AS g FROM {src(a)})"
            f" SELECT g, COUNT(*) FROM {name} GROUP BY g"
        )

    correct = [cte("s"), cte("grouped")] + plain_correct
    return question, correct, wrong, sep


def _tpl_cte_fault(_rng, t):
    """A CTE gold reading a column (n2) that no other candidate reads.

    The analyzer rejects WITH, so pruning drops n2 and the gold fails on
    every generated database; the suite comes out empty.
    """
    col, src = _single(t)

    def cte(name, alias_col):
        return Variant(
            lambda a: f"WITH {name} AS"
            f" (SELECT {col(a, 'n2')}{' AS v' if alias_col else ''} FROM {src(a)})"
            f" SELECT MAX({'v' if alias_col else t.roles['n2']}) FROM {name}"
        )

    def agg(f, role):
        return Variant(lambda a: f"SELECT {f}({col(a, role)}) FROM {src(a)}")

    correct = [cte("s", False), cte("s", True), cte("b", True)]
    sep = [agg(f, role) for f in ("MAX", "MIN") for role in ("label", "group")]
    question = f"What is the largest {t.roles['n2']} of any {t.name}?"
    return question, correct, [], sep


_SINGLE_TEMPLATES = {
    "aggregate": _tpl_agg, "order-limit": _tpl_order, "order-by-key": _tpl_order_key,
    "subquery": _tpl_subquery, "group-by": _tpl_group, "cte": _tpl_cte,
}
_SEPARABLE_TEMPLATES = ("aggregate", "order-limit", "group-by", "cte")


_WIDE_WIDTH = 5


def _wide_template(rng, t):
    value_cols = [c for c, _ in t.columns[1:]]
    kinds = {c: ("text" if ctype == "TEXT" else "num") for c, ctype in t.columns[1:]}
    while True:
        gold_cols = rng.sample(value_cols, _WIDE_WIDTH)
        if len({kinds[c] for c in gold_cols}) == 2:
            break

    def proj(cols):
        return Variant(lambda a: f"SELECT {', '.join(('T1.' if a else '') + c for c in cols)}"
                       f" FROM {t.name}{' AS T1' if a else ''}")

    perms = []
    seen = {tuple(gold_cols)}
    perms.append(gold_cols)
    while len(perms) < 4:
        p = rng.sample(gold_cols, _WIDE_WIDTH)
        if tuple(p) not in seen:
            seen.add(tuple(p))
            perms.append(p)
    correct = [proj(p) for p in perms]
    wrong, sep = [], []
    for i, old in enumerate(gold_cols):
        for new in value_cols:
            if new in gold_cols:
                continue
            cols = list(gold_cols)
            cols[i] = new
            (wrong if kinds[new] == kinds[old] else sep).append(proj(cols))
    question = f"Show the {', '.join(gold_cols)} of every {t.name}."
    return question, correct, wrong, sep


# --------------------------------------------------------------------------
# Corpus


def _probabilities(rng: random.Random, n: int) -> list[float]:
    while True:
        raw = sorted((rng.random() for _ in range(n)), reverse=True)
        total = sum(raw) * 1.1
        probs = [round(x / total, 6) for x in raw]
        if all(a > b for a, b in zip(probs, probs[1:])):
            return probs


def _labels(rng: random.Random, kind: str, n: int) -> list[bool]:
    """Correctness by rank. The number of correct candidates depends only on
    the kind and n; which ranks hold them is drawn with weights that fall
    with rank."""
    if kind in ("all_correct", "all_wrong"):
        return [kind == "all_correct"] * n
    top = kind == "top_correct"
    extra = (n - 1) // 3 if top else max(1, (n - 1) // 3)
    ranks = list(range(1, n))
    chosen: set[int] = set()
    while len(chosen) < extra:
        chosen.add(rng.choices(ranks, weights=[0.8**r for r in ranks])[0])
    return [top] + [r in chosen for r in ranks]


def _draw(rng: random.Random, variants: list[Variant], count: int, taken: set[str]) -> list:
    pool = [(sql, v.ordered) for v in variants for sql in _spellings(v) if sql not in taken]
    picked = rng.sample(pool, count)
    taken.update(sql for sql, _ in picked)
    return picked


def _spread(i: int, count: int, bounds: tuple[int, int]) -> int:
    """Sizes fixed by position, so the seed changes values, not volumes."""
    lo, hi = bounds
    return lo + (hi - lo) * i // max(1, count - 1)


def _slots(workload: str, shape: dict) -> list[tuple]:
    """(kind, separable, fault, template, candidates) for every entry.

    Templates and candidate counts are dealt in turn, so each corpus has
    the same number of each whatever the seed; the seed only shuffles them.
    """
    plain = [t for t in _SINGLE_TEMPLATES if t != "order-by-key"] + ["join", "in-subquery"]
    names = {True: list(_SEPARABLE_TEMPLATES) + ["join"],
             False: plain * 2 + ["order-by-key"] * shape.get("order_by_key", 0)}
    turn = {True: 0, False: 0}
    lo, hi = shape["candidates"]
    slots = []
    for i, (kind, separable, fault) in enumerate(shape["block"] * (shape["entries"] // _BLOCK)):
        if separable is None:
            separable = i % 5 < 2
        if fault:
            template = "cte-fault"
        elif workload == "wide-relaxed":
            template = "wide"
        else:
            template = names[separable][turn[separable] % len(names[separable])]
            turn[separable] += 1
        slots.append((kind, separable, fault, template, lo + i % (hi - lo + 1)))
    return slots


def build_corpus(workload: str, seed: int) -> tuple[list[DbSpec], list[Entry]]:
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    count = shape["databases"]
    if workload == "wide-relaxed":
        dbs = [_wide_db(rng, f"db{i:02d}", shape["rows"]) for i in range(count)]
    else:
        lo, hi = shape["tables"]
        dbs = [
            _spider_db(
                rng, f"db{i:02d}", lo + i % (hi - lo + 1),
                _spread(i, count, shape["rows"]),
                _spread(count - 1 - i, count, shape["child_rows"]),
            )
            for i in range(count)
        ]
    slots = _slots(workload, shape)
    rng.shuffle(slots)
    # Databases are dealt in turn too, among those a template can use.
    multi_table = [d for d in dbs if len(d.tables) > 1]
    dealt = {False: 0, True: 0}
    entries = []
    for i, (kind, separable, fault, template, n) in enumerate(slots):
        multi = template in ("join", "in-subquery")
        pool = multi_table if multi else dbs
        db = pool[dealt[multi] % len(pool)]
        dealt[multi] += 1
        if template == "wide":
            question, correct, wrong, sep = _wide_template(rng, db.tables[0])
        else:
            question, correct, wrong, sep = _spider_template(rng, db, template, separable)
        labels = _labels(rng, kind, n)
        taken: set[str] = set()
        good = _draw(rng, correct, labels.count(True), taken)
        bad = _draw(rng, sep if separable else wrong + sep, labels.count(False), taken)
        candidates = [
            Candidate(*(good.pop() if label else bad.pop()), correct=label, probability=p)
            for label, p in zip(labels, _probabilities(rng, n))
        ]
        entries.append(Entry(
            entry_id=f"{workload}-{i:04d}",
            db_id=db.db_id,
            question=question,
            gold=correct[0].render(False),
            gold_ordered=correct[0].ordered,
            candidates=candidates,
            template=template,
            kind=kind,
            separable=separable,
            cte_fault=fault,
        ))
    return dbs, entries


def _spider_template(rng, db, template, separable):
    if template in ("join", "in-subquery"):
        i = rng.randrange(1, len(db.tables))
        child, parent = db.tables[i], db.tables[i - 1]
        if template == "join":
            return _tpl_join(rng, child, parent, separable)
        return _tpl_in(child, parent)
    t = rng.choice(db.tables)
    if template == "cte-fault":
        return _tpl_cte_fault(rng, t)
    return _SINGLE_TEMPLATES[template](rng, t)


def write_corpus(dbs: list[DbSpec], entries: list[Entry], out_dir: str) -> str:
    """Write the SQLite files and the manifest; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    for db in dbs:
        write_sqlite(db, os.path.join(out_dir, f"{db.db_id}.sqlite"))
    manifest = {"entries": [
        {
            "entry_id": e.entry_id,
            "db_id": e.db_id,
            "db_file": f"{e.db_id}.sqlite",
            "question": e.question,
            "gold_sql": e.gold,
            "candidates": [
                {"sql": c.sql, "rank": rank, "probability": c.probability}
                for rank, c in enumerate(e.candidates)
            ],
            "tags": [e.template, e.kind, "separable" if e.separable else "non-separable"]
            + (["cte-fault"] if e.cte_fault else []),
        }
        for e in entries
    ]}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    return path


# --------------------------------------------------------------------------
# Label check


def _sort_key(value):
    return (1, 0, value) if isinstance(value, str) else (0, value, "")


def relaxed_equal(a_rows, a_ordered, b_rows, b_ordered) -> bool:
    """Relaxed result equality, from its definition.

    Equal when some injective mapping of the narrower result's columns into
    the wider one makes the projected rows equal: positionally when either
    side is ordered, as multisets otherwise. A mapping can only work if each
    mapped column holds the same values (in order, or as a multiset), so the
    search tries only such column pairs; the final row comparison decides.
    """
    if len(a_rows) != len(b_rows):
        return False
    width_a = len(a_rows[0]) if a_rows else 0
    width_b = len(b_rows[0]) if b_rows else 0
    if not a_rows:
        return True
    narrow, wide = (a_rows, b_rows) if width_a <= width_b else (b_rows, a_rows)
    ordered = a_ordered or b_ordered

    def column(rows, i):
        values = [row[i] for row in rows]
        return values if ordered else sorted(values, key=_sort_key)

    wide_cols = [column(wide, j) for j in range(len(wide[0]))]
    options = [
        [j for j, wc in enumerate(wide_cols) if wc == column(narrow, i)]
        for i in range(len(narrow[0]))
    ]

    def search(i, used):
        if i == len(options):
            projected = [tuple(row[j] for j in used) for row in wide]
            return projected == list(narrow) if ordered else Counter(projected) == Counter(narrow)
        return any(search(i + 1, used + [j]) for j in options[i] if j not in used)

    return search(0, [])


def check_labels(entries: list[Entry], out_dir: str) -> None:
    """Run gold and candidates on the original files; every label must hold."""
    conns: dict[str, sqlite3.Connection] = {}
    try:
        for e in entries:
            if e.db_id not in conns:
                conns[e.db_id] = sqlite3.connect(os.path.join(out_dir, f"{e.db_id}.sqlite"))
            conn = conns[e.db_id]
            gold = conn.execute(e.gold).fetchall()
            if not gold or any(v is None for v in gold[0]):
                raise ValueError(f"{e.entry_id}: gold returns no non-NULL row: {e.gold}")
            for rank, c in enumerate(e.candidates):
                rows = conn.execute(c.sql).fetchall()
                if relaxed_equal(rows, c.ordered, gold, e.gold_ordered) != c.correct:
                    raise ValueError(
                        f"{e.entry_id}: candidate {rank} is labelled"
                        f" {'correct' if c.correct else 'wrong'} but is not: {c.sql}"
                    )
    finally:
        for conn in conns.values():
            conn.close()
