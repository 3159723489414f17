"""End-to-end acceptance checks.

Each test here guards one load-bearing property of the whole pipeline and
records a single verdict line (rendered in the terminal summary) with the
numbers behind the decision. Checks recompute expectations independently:
brute-force scans instead of the library's validators, a standalone
reference implementation for the relaxed comparison, fresh query executions
instead of stored signatures.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
import sqlite3
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import col, make_instance, record_acceptance
from refimpl import RelaxedReference, read_database_from_connection
from test_promptgen import _golden_db, _golden_pool

import sqlrerank
from sqlrerank.cli import main
from sqlrerank.corpus import CorpusEntry
from sqlrerank.dbgen import GenConfig, GenMethod
from sqlrerank.dbio import read_database, write_database
from sqlrerank.evaluate import entry_seed, evaluate_corpus
from sqlrerank.executor import (
    ExecutionResult,
    OutcomeKind,
    Session,
    execute,
    result_canonical_key,
    results_equal_relaxed,
)
from sqlrerank.instance import DatabaseInstance
from sqlrerank.oracle import API_KEY_ENV, NoisyOracle, ReferenceOracle, RemoteOracle
from sqlrerank.promptgen import (
    DbFormat,
    PromptConfig,
    build_prompt,
    parse_answer,
    render_answer,
    render_csv,
    render_sqlite,
)
from sqlrerank.schema import ColumnType, ForeignKey, SchemaGraph, Table
from sqlrerank.suite import (
    Candidate,
    SuiteConfig,
    classify_candidates,
    generate_database,
    generate_suite,
)


def _verdict(name: str, ok: bool, detail: str) -> str:
    line = f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}"
    record_acceptance(line)
    print(line)
    return line


# --- shared fixture material -------------------------------------------------


def _fan_pair():
    """Two child tables referencing one parent; forces referred-row overflow."""
    schema = SchemaGraph(
        tables=(
            Table("product", (col("prod_id", pk=True), col("price", ColumnType.REAL))),
            Table("orders", (col("oid", pk=True), col("prod_id"))),
            Table("review", (col("rev_id", pk=True), col("prod_id"), col("stars"))),
        ),
        foreign_keys=(
            ForeignKey("orders", "prod_id", "product", "prod_id"),
            ForeignKey("review", "prod_id", "product", "prod_id"),
        ),
    )
    instance = make_instance(
        schema,
        {
            "product": [(i, i + 0.5) for i in range(1, 13)],
            "orders": [(i, 1 + (i % 6)) for i in range(1, 11)],
            "review": [(i, 7 + (i % 6), i % 5) for i in range(1, 11)],
        },
    )
    return schema, instance


@pytest.fixture
def generation_sources(
    student_instance, chain_instance, self_ref_instance, junction_instance, flat_instance
):
    _, fan_instance = _fan_pair()
    return {
        "students": student_instance,
        "chain": chain_instance,
        "self_ref": self_ref_instance,
        "junction": junction_instance,
        "flat": flat_instance,
        "fan": fan_instance,
    }


def _column_pos(columns, name: str) -> int:
    return [c.lower() for c in columns].index(name.lower())


def _scan_foreign_keys(instance: DatabaseInstance) -> int:
    """Brute-force violation count, independent of the library's validator."""
    violations = 0
    for fk in instance.schema.foreign_keys:
        child = instance.data_for(fk.child_table)
        parent = instance.data_for(fk.parent_table)
        ci = _column_pos(instance.schema.table(fk.child_table).column_names(), fk.child_column)
        pi = _column_pos(instance.schema.table(fk.parent_table).column_names(), fk.parent_column)
        parent_values = {row[pi] for row in parent.rows}
        for row in child.rows:
            if row[ci] is not None and row[ci] not in parent_values:
                violations += 1
    return violations


# --- generated databases keep foreign keys valid ------------------------------


def test_generated_databases_never_violate_foreign_keys(generation_sources):
    start = time.monotonic()
    violations = generations = 0
    for method in (GenMethod.FUZZING, GenMethod.RANDOM_SELECTION):
        for source in generation_sources.values():
            for seed in range(170):
                config = GenConfig(mts=(seed % 5) + 1, method=method, seed=seed)
                violations += _scan_foreign_keys(generate_database(source, config))
                generations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 30.0
    line = _verdict(
        "fk-validity",
        ok,
        f"{violations} violations across {generations} generations"
        f" ({generations // 2} per method, {len(generation_sources)} schemas) in {elapsed:.1f}s",
    )
    assert ok, line


# --- sampled databases are verbatim bounded subsets ---------------------------


def _is_ordered_subsequence(sub, seq) -> bool:
    it = iter(seq)
    for row in sub:
        for found in it:
            if found == row:
                break
        else:
            return False
    return True


def _required_row_indices(source: DatabaseInstance, sampled: DatabaseInstance, tname: str):
    """Rows of source.tname that sampled child rows reference via non-self FKs."""
    table = source.data_for(tname)
    required: set[int] = set()
    for fk in source.schema.foreign_keys:
        if fk.parent_table.lower() != tname.lower():
            continue
        if fk.child_table.lower() == tname.lower():
            continue
        child = sampled.data_for(fk.child_table)
        ci = _column_pos(sampled.schema.table(fk.child_table).column_names(), fk.child_column)
        values = {row[ci] for row in child.rows} - {None}
        pi = _column_pos(source.schema.table(tname).column_names(), fk.parent_column)
        required |= {i for i, row in enumerate(table.rows) if row[pi] in values}
    return required


def _check_sample(source: DatabaseInstance, sampled: DatabaseInstance, mts: int):
    """Returns (failures, overflowed) for one sampled instance."""
    failures: list[str] = []
    overflowed = False
    for table in source.schema.tables:
        src_rows = source.data_for(table.name).rows
        out_rows = sampled.data_for(table.name).rows
        if not _is_ordered_subsequence(out_rows, src_rows):
            failures.append(f"{table.name}: rows are not an ordered subsequence of the source")
        required = _required_row_indices(source, sampled, table.name)
        missing = [i for i in required if src_rows[i] not in out_rows]
        if missing:
            failures.append(f"{table.name}: referred source rows {missing} were dropped")
        bound = max(min(mts, len(src_rows)), len(required))
        self_fks = [
            fk
            for fk in source.schema.foreign_keys
            if fk.child_table.lower() == table.name.lower()
            and fk.parent_table.lower() == table.name.lower()
        ]
        if self_fks:
            if not bound <= len(out_rows) <= len(src_rows):
                failures.append(f"{table.name}: size {len(out_rows)} outside [{bound}, {len(src_rows)}]")
            for fk in self_fks:
                ci = _column_pos(table.column_names(), fk.child_column)
                pi = _column_pos(table.column_names(), fk.parent_column)
                have = {row[pi] for row in out_rows}
                want = {row[ci] for row in out_rows} - {None}
                if want - have:
                    failures.append(f"{table.name}: self reference targets {want - have} missing")
        elif len(out_rows) != bound:
            failures.append(f"{table.name}: size {len(out_rows)}, expected {bound}")
        if len(out_rows) > mts:
            overflowed = True
    return failures, overflowed


def test_sampled_rows_come_from_the_source_with_bounded_size(generation_sources):
    mts_cycle = (1, 2, 3, 5)
    trials = overflow_trials = 0
    failures: list[str] = []
    for source in generation_sources.values():
        for seed in range(170):
            mts = mts_cycle[seed % len(mts_cycle)]
            config = GenConfig(mts=mts, method=GenMethod.RANDOM_SELECTION, seed=seed)
            sampled = generate_database(source, config)
            bad, overflowed = _check_sample(source, sampled, mts)
            failures.extend(bad)
            overflow_trials += overflowed
            trials += 1
    ok = not failures and trials >= 1000 and overflow_trials > 0
    line = _verdict(
        "sampling-subset",
        ok,
        f"{len(failures)} failures in {trials} trials;"
        f" mts exceeded by referred rows in {overflow_trials} trials",
    )
    assert ok, (line, failures[:3])


# --- suite generation contracts -----------------------------------------------


STUDENT_POOL = [
    "SELECT name FROM student",
    "SELECT name FROM student ORDER BY age",
    "SELECT min(age) FROM student",
    "SELECT max(age) FROM student",
    "SELECT count(*) FROM student",
    "SELECT age FROM student WHERE age > 20",
    "SELECT age + 1 FROM student",
    "SELECT sum(age) FROM student",
    "SELECT name, age FROM student",
    "SELECT grade FROM enrollment",
    "SELECT avg(grade) FROM enrollment",
    "SELECT s.name FROM student s JOIN enrollment e ON s.student_id = e.student_id",
]

FLAT_POOL = [
    "SELECT name FROM stadium",
    "SELECT capacity FROM stadium ORDER BY capacity",
    "SELECT max(capacity) FROM stadium",
    "SELECT min(opened) FROM stadium",
    "SELECT count(*) FROM stadium",
    "SELECT name FROM stadium WHERE capacity > 60000",
    "SELECT capacity / 2 FROM stadium",
    "SELECT sum(capacity) FROM stadium",
]


def test_suite_generation_contracts_hold_over_random_pairs(student_instance, flat_instance):
    rng = random.Random(424242)
    corpora = [(student_instance, STUDENT_POOL), (flat_instance, FLAT_POOL)]
    suites_built = merged = distinguished_count = 0
    failures: list[str] = []
    trial = 0
    while suites_built < 520 and trial < 700:
        trial += 1
        db, pool = corpora[trial % 2]
        first, second = rng.sample(pool, 2)
        candidates = [
            Candidate(first, probability=None, source_rank=0),
            Candidate(second, probability=None, source_rank=1),
        ]
        n = rng.choice([1, 2, 3, 10])
        config = SuiteConfig(
            max_test_cases=n,
            gen=GenConfig(
                mts=rng.choice([2, 5]),
                method=rng.choice([GenMethod.FUZZING, GenMethod.RANDOM_SELECTION]),
                seed=trial,
            ),
        )
        classes, reps = classify_candidates(Session(db), candidates)
        if len(classes) < 2:
            merged += 1
            continue
        suite = generate_suite(db, "q", reps, config, ReferenceOracle(first))
        suites_built += 1
        if len(suite.cases) > n:
            failures.append(f"trial {trial}: {len(suite.cases)} cases exceed n={n}")
        # One signature per kept case, re-derived from fresh executions.
        keys = [
            tuple(result_canonical_key(execute(case.db, rep.sql)) for rep in reps)
            for case in suite.cases
        ]
        if len(set(keys)) != len(keys):
            failures.append(f"trial {trial}: duplicate signatures kept")
        if suite.distinguished:
            distinguished_count += 1
            for i, j in itertools.combinations(range(len(reps)), 2):
                if not any(k[i] != k[j] for k in keys):
                    failures.append(
                        f"trial {trial}: early stop but {reps[i].sql!r} and"
                        f" {reps[j].sql!r} agree on every kept case"
                    )
    ok = not failures and suites_built >= 500
    line = _verdict(
        "suite-contracts",
        ok,
        f"{len(failures)} violations in {suites_built} suites"
        f" ({merged} pairs merged at classification, {distinguished_count} early stops)",
    )
    assert ok, (line, failures[:3])


# --- perfect-oracle corpus ------------------------------------------------------


# (name, db, gold, gold twins, wrong candidates). Every wrong candidate is
# built to differ from the gold on any database the sampler can produce, so
# each of these entries must end up distinguished.
CORPUS_TEMPLATES = [
    (
        "min-name",
        "people",
        "SELECT min(name) FROM person",
        ["SELECT min(person.name) FROM person"],
        ["SELECT max(name) FROM person", "SELECT count(*) FROM person"],
    ),
    (
        "order-by-name",
        "people",
        "SELECT age FROM person ORDER BY name",
        [],
        [
            "SELECT age FROM person ORDER BY name DESC",
            "SELECT name FROM person ORDER BY name",
        ],
    ),
    (
        "project-name",
        "people",
        "SELECT name FROM person",
        [],
        ["SELECT age FROM person", "SELECT pid FROM person"],
    ),
    (
        "arithmetic",
        "people",
        "SELECT age FROM person",
        [],
        ["SELECT age + 1 FROM person", "SELECT age * 2 FROM person"],
    ),
    (
        "sum-age",
        "people",
        "SELECT sum(age) FROM person",
        ["SELECT sum(age) FROM person WHERE 1 = 1"],
        ["SELECT max(age) FROM person", "SELECT avg(age) FROM person"],
    ),
    (
        "grades-projection",
        "grades",
        "SELECT grade FROM enrollment",
        [],
        ["SELECT age FROM student", "SELECT count(*) FROM enrollment"],
    ),
    (
        "grades-join",
        "grades",
        "SELECT s.name FROM student s JOIN enrollment e ON s.student_id = e.student_id",
        [],
        [
            "SELECT name FROM student",
            "SELECT e.grade FROM enrollment e JOIN student s ON s.student_id = e.student_id",
        ],
    ),
    (
        "price-filter",
        "items",
        "SELECT label FROM product WHERE price > 0",
        ["SELECT label FROM product"],
        ["SELECT label FROM product WHERE price > 10000", "SELECT price FROM product"],
    ),
]

# count(*) capped at mts can never be told apart from count(*) by sampling:
# every sampled table is at most five rows, so both report the same number.
BLIND_TEMPLATES = [
    ("blind-cap-5", "people", "SELECT count(*) FROM person",
     "SELECT CASE WHEN count(*) > 5 THEN 5 ELSE count(*) END FROM person"),
    ("blind-cap-6", "people", "SELECT count(*) FROM person",
     "SELECT CASE WHEN count(*) > 6 THEN 6 ELSE count(*) END FROM person"),
    ("blind-cap-7", "people", "SELECT count(*) FROM person",
     "SELECT CASE WHEN count(*) > 7 THEN 7 ELSE count(*) END FROM person"),
    ("blind-items-cap", "items", "SELECT count(*) FROM product",
     "SELECT CASE WHEN count(*) > 5 THEN 5 ELSE count(*) END FROM product"),
]

_PROBS = (0.9, 0.6, 0.4, 0.2)


def _corpus_databases():
    people = SchemaGraph(
        tables=(
            Table("person", (col("pid", pk=True), col("name", ColumnType.TEXT), col("age"))),
        ),
    )
    names = ["amy", "ben", "cal", "dee", "eli", "fay", "gus", "hal"]
    people_inst = make_instance(
        people, {"person": [(i + 1, names[i], 11 + i) for i in range(8)]}
    )

    grades = SchemaGraph(
        tables=(
            Table("student", (col("student_id", pk=True), col("name", ColumnType.TEXT), col("age"))),
            Table("enrollment", (col("eid", pk=True), col("student_id"), col("grade", ColumnType.REAL))),
        ),
        foreign_keys=(ForeignKey("enrollment", "student_id", "student", "student_id"),),
    )
    grades_inst = make_instance(
        grades,
        {
            "student": [(i + 1, names[i], 21 + i) for i in range(8)],
            # Only three distinct students enroll; any sampled join repeats names.
            "enrollment": [(100 + i, 1 + (i % 3), 50.5 + 4.25 * i) for i in range(10)],
        },
    )

    items = SchemaGraph(
        tables=(
            Table("product", (col("prod_id", pk=True), col("label", ColumnType.TEXT), col("price", ColumnType.REAL))),
        ),
    )
    items_inst = make_instance(
        items,
        {"product": [(i + 1, f"item{i + 1}", 3.5 + 2.25 * i) for i in range(9)]},
    )
    return {"people": people_inst, "grades": grades_inst, "items": items_inst}


def _build_corpus(dir_path: str):
    files = {}
    for name, instance in _corpus_databases().items():
        path = os.path.join(dir_path, f"{name}.db")
        write_database(instance, path)
        files[name] = path

    entries: list[CorpusEntry] = []
    for i in range(46):
        name, db_id, gold, twins, wrongs = CORPUS_TEMPLATES[i % len(CORPUS_TEMPLATES)]
        base = [gold, *twins, *wrongs]
        r = (i // len(CORPUS_TEMPLATES)) % len(base)
        rotated = base[r:] + base[:r]
        entries.append(
            CorpusEntry(
                entry_id=f"{name}-r{i // len(CORPUS_TEMPLATES)}",
                db_id=db_id,
                db_file=files[db_id],
                question=f"question about {name}",
                candidates=tuple(
                    Candidate(sql, probability=_PROBS[pos], source_rank=pos)
                    for pos, sql in enumerate(rotated)
                ),
                gold_sql=gold,
            )
        )
    blind_ids = []
    for name, db_id, gold, wrong in BLIND_TEMPLATES:
        blind_ids.append(name)
        entries.append(
            CorpusEntry(
                entry_id=name,
                db_id=db_id,
                db_file=files[db_id],
                question=f"question about {name}",
                candidates=(
                    Candidate(wrong, probability=0.9, source_rank=0),
                    Candidate(gold, probability=0.1, source_rank=1),
                ),
                gold_sql=gold,
                tags=("sampling-blind",),
            )
        )
    return entries, blind_ids


CORPUS_BASE_SEED = 7


def _corpus_config() -> SuiteConfig:
    return SuiteConfig(
        max_test_cases=10,
        gen=GenConfig(mts=5, method=GenMethod.RANDOM_SELECTION, seed=0),
    )


@pytest.fixture(scope="session")
def oracle_corpus(tmp_path_factory):
    dir_path = tmp_path_factory.mktemp("oracle_corpus")
    entries, blind_ids = _build_corpus(str(dir_path))
    return entries, blind_ids


def _passes(sql: str, case) -> bool:
    outcome = execute(case.db, sql)
    return (
        outcome.kind is OutcomeKind.OK
        and outcome.result is not None
        and results_equal_relaxed(outcome.result, case.expected)
    )


def _gold_distinguished(entry: CorpusEntry, config: SuiteConfig, base_seed: int) -> bool:
    """Re-derive whether the entry's suite separates the gold class from all others.

    Mirrors the evaluation's seeding, then recomputes pass counts from
    scratch: distinguished means every candidate outside the gold behavior
    class passes strictly fewer cases than every candidate inside it.
    """
    db = read_database(entry.db_file)
    candidates = list(entry.candidates)
    seeded = replace(config, gen=replace(config.gen, seed=entry_seed(base_seed, entry.entry_id)))
    classes, reps = classify_candidates(Session(db), candidates)
    if len(classes) < 2:
        return False
    suite = generate_suite(
        db, entry.question, reps, seeded, ReferenceOracle(entry.gold_sql),
        all_sqls=[c.sql for c in candidates],
    )
    if not suite.cases:
        return False
    gold_key = result_canonical_key(execute(db, entry.gold_sql))
    counts = {}
    for candidate in candidates:
        key = result_canonical_key(execute(db, candidate.sql))
        counts.setdefault(key == gold_key, []).append(
            sum(_passes(candidate.sql, case) for case in suite.cases)
        )
    if True not in counts or False not in counts:
        return False
    return max(counts[False]) < min(counts[True])


def test_reference_oracle_corpus_ranks_gold_first_when_distinguished(oracle_corpus):
    entries, blind_ids = oracle_corpus
    config = _corpus_config()
    start = time.monotonic()
    report = evaluate_corpus(
        entries,
        lambda entry: ReferenceOracle(entry.gold_sql),
        config,
        gate="paper",
        base_seed=CORPUS_BASE_SEED,
    )
    distinguished = {
        entry.entry_id
        for entry in entries
        if _gold_distinguished(entry, config, CORPUS_BASE_SEED)
    }
    elapsed = time.monotonic() - start
    rows = {r.entry_id: r for r in report.entries}
    correct = {eid for eid in distinguished if rows[eid].post_top1_correct}
    excluded = {entry.entry_id for entry in entries} - distinguished
    ok = (
        report.error_count == 0
        and report.gated_out_count == 0
        and report.evaluated == len(entries) == 50
        and correct == distinguished
        and excluded == set(blind_ids)
        and report.ex_after > report.ex_before
        and elapsed < 120.0
    )
    line = _verdict(
        "perfect-oracle",
        ok,
        f"top-1 correct on {len(correct)}/{len(distinguished)} distinguished entries;"
        f" excluded as sampling-blind: {sorted(excluded)};"
        f" EX {report.ex_before:.3f} -> {report.ex_after:.3f}; {elapsed:.1f}s",
    )
    assert ok, line


# --- relaxed comparison vs exhaustive reference ----------------------------------


def _all_small_results():
    alphabet = (1, "a")
    out = []
    for width in range(0, 4):
        columns = tuple(f"c{i}" for i in range(width))
        row_space = list(itertools.product(alphabet, repeat=width))
        for nrows in range(0, 4):
            for rows in itertools.product(row_space, repeat=nrows):
                for ordered in (False, True):
                    out.append(
                        ExecutionResult(columns=columns, rows=rows, order_significant=ordered)
                    )
    return out


def test_relaxed_comparison_matches_exhaustive_reference():
    results = _all_small_results()
    reference = RelaxedReference()
    checked = disagreements = 0
    first_bad = None
    for a in results:
        for b in results:
            checked += 1
            if results_equal_relaxed(a, b) != reference(a, b):
                disagreements += 1
                if first_bad is None:
                    first_bad = (a, b)
    ok = disagreements == 0
    line = _verdict(
        "relaxed-equality",
        ok,
        f"{disagreements} disagreements over {checked} ordered pairs"
        f" ({len(results)} results, cells drawn from {{1, 'a'}})",
    )
    assert ok, (line, first_bad)


# --- rendering and answer-grammar round trips -------------------------------------


def _csv_round_trip_cells(instance: DatabaseInstance) -> int:
    recovered = 0
    blocks = render_csv(instance).split("\n\n")
    assert len(blocks) == len(instance.schema.tables)
    for table, block in zip(instance.schema.tables, blocks):
        lines = block.split("\n")
        assert lines[0] == table.name
        parsed = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        data = instance.data_for(table.name)
        assert parsed[0] == list(table.column_names())
        for row, parsed_row in zip(data.rows, parsed[1:], strict=True):
            for cell, text in zip(row, parsed_row, strict=True):
                assert text == ("" if cell is None else str(cell))
                recovered += 1
    return recovered


def _sqlite_round_trips(instance: DatabaseInstance) -> bool:
    conn = sqlite3.connect(":memory:")
    try:
        conn.executescript(render_sqlite(instance))
        back = read_database_from_connection(conn)
    finally:
        conn.close()
    if back.tables != instance.tables:
        return False
    a, b = instance.schema, back.schema
    if len(a.tables) != len(b.tables):
        return False
    for ta, tb in zip(a.tables, b.tables):
        if ta.name != tb.name or len(ta.columns) != len(tb.columns):
            return False
        for ca, cb in zip(ta.columns, tb.columns):
            # SQL type names are case-insensitive; the DDL renderer upcases.
            if (ca.name, ca.declared_type, ca.is_primary_key, ca.raw_type.lower()) != (
                cb.name, cb.declared_type, cb.is_primary_key, cb.raw_type.lower()
            ):
                return False
    return set(a.foreign_keys) == set(b.foreign_keys)


ANSWER_QUERIES = {
    "students": [
        "SELECT * FROM student",
        "SELECT * FROM enrollment",
        "SELECT count(*) FROM student",
        "SELECT avg(age) FROM student",
        "SELECT name FROM student ORDER BY name",
        "SELECT max(grade), min(grade) FROM enrollment",
        "SELECT NULL",
        "SELECT name FROM student WHERE age > 99",
    ],
    "flat": [
        "SELECT * FROM stadium",
        "SELECT sum(capacity) FROM stadium",
        "SELECT opened / 2.0 FROM stadium",
    ],
    "junction": ["SELECT * FROM link", "SELECT weight * 2 FROM link"],
    "chain": ["SELECT * FROM grandchild", "SELECT gval FROM grandchild"],
    "self_ref": [
        "SELECT * FROM employee",
        "SELECT count(*) FROM employee WHERE manager_id = 1",
    ],
    "city": ["SELECT * FROM city"],
}

GOLDEN_QUESTION = "Which city is the largest?"


def test_renderings_and_answer_grammar_round_trip(
    student_instance, flat_instance, junction_instance, chain_instance, self_ref_instance
):
    instances = {
        "students": student_instance,
        "flat": flat_instance,
        "junction": junction_instance,
        "chain": chain_instance,
        "self_ref": self_ref_instance,
        "city": _golden_db(),
    }
    cells = 0
    sqlite_ok = True
    for instance in instances.values():
        cells += _csv_round_trip_cells(instance)
        sqlite_ok = sqlite_ok and _sqlite_round_trips(instance)

    answers = 0
    for name, queries in ANSWER_QUERIES.items():
        for sql in queries:
            outcome = execute(instances[name], sql)
            assert outcome.kind is OutcomeKind.OK and outcome.result is not None, sql
            result = outcome.result
            parsed = parse_answer(render_answer(result))
            assert parsed.columns == result.columns, sql
            assert len(parsed.rows) == len(result.rows), sql
            for row, back in zip(result.rows, parsed.rows):
                for cell, recovered in zip(row, back, strict=True):
                    assert recovered == cell and type(recovered) is type(cell), sql
            answers += 1

    golden_dir = os.path.join(os.path.dirname(__file__), "golden")
    pool = _golden_pool()
    rebuilt = {
        "prompt_csv_0shot.txt": build_prompt(_golden_db(), GOLDEN_QUESTION, PromptConfig()),
        "prompt_csv_2shot.txt": build_prompt(
            _golden_db(), GOLDEN_QUESTION, PromptConfig(shots=2, example_pool=pool)
        ),
        "prompt_sqlite_0shot.txt": build_prompt(
            _golden_db(), GOLDEN_QUESTION, PromptConfig(db_format=DbFormat.SQLITE)
        ),
    }
    def _frozen(fname: str) -> bytes:
        with open(os.path.join(golden_dir, fname), "rb") as handle:
            return handle.read()

    golden_stable = all(
        _frozen(fname) == prompt.text.encode("utf-8") for fname, prompt in rebuilt.items()
    )
    ok = sqlite_ok and golden_stable
    line = _verdict(
        "round-trips",
        ok,
        f"{cells} csv cells recovered, {len(instances)} sqlite scripts replayed"
        f" ({'ok' if sqlite_ok else 'MISMATCH'}), {answers} answers reparsed,"
        f" {len(rebuilt)} golden prompts byte-stable ({'yes' if golden_stable else 'NO'})",
    )
    assert ok, line


# --- whole pipeline is byte-deterministic -------------------------------------------


PIPELINE_GOLD = "SELECT min(age) FROM student"
PIPELINE_WRONG = "SELECT max(age) FROM student"


def _run_pipeline(root, student_instance) -> dict[str, bytes]:
    root.mkdir(exist_ok=True)
    source = root / "source.db"
    write_database(student_instance, str(source))
    (root / "cands.json").write_text(
        json.dumps(
            [
                {"sql": PIPELINE_WRONG, "rank": 0, "probability": 0.8},
                {"sql": PIPELINE_GOLD, "rank": 1, "probability": 0.2},
            ]
        )
    )
    (root / "manifest.json").write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "entry_id": "pair",
                        "db_id": "students",
                        "db_file": "source.db",
                        "question": "lowest age?",
                        "candidates": [
                            {"sql": PIPELINE_WRONG, "rank": 0, "probability": 0.8},
                            {"sql": PIPELINE_GOLD, "rank": 1, "probability": 0.2},
                        ],
                        "gold_sql": PIPELINE_GOLD,
                    },
                    {
                        "entry_id": "count",
                        "db_id": "students",
                        "db_file": "source.db",
                        "question": "how many students?",
                        "candidates": [
                            {"sql": "SELECT count(*) FROM student", "rank": 0},
                            {"sql": "SELECT 99", "rank": 1},
                        ],
                        "gold_sql": "SELECT count(*) FROM student",
                    },
                ]
            }
        )
    )
    steps = [
        ["gen-db", "--db", str(source), "--out", str(root / "fuzzed.db"),
         "--method", "fuzzing", "--mts", "4", "--seed", "11"],
        ["gen-suite", "--db", str(root / "fuzzed.db"), "--question", "lowest age?",
         "--candidates-file", str(root / "cands.json"), "--out", str(root / "suite.json"),
         "--oracle", "reference", "--gold-sql", PIPELINE_GOLD, "--seed", "11"],
        ["rerank", "--suite", str(root / "suite.json"),
         "--candidates-file", str(root / "cands.json"), "--out", str(root / "outcome.json")],
        ["eval", "--corpus", str(root / "manifest.json"), "--oracle", "reference",
         "--seed", "13", "--report", str(root / "report.json")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    outputs = ("fuzzed.db", "suite.json", "outcome.json", "report.json")
    return {name: (root / name).read_bytes() for name in outputs}


def test_cli_pipeline_is_byte_deterministic(tmp_path, student_instance, capsys):
    first = _run_pipeline(tmp_path / "a", student_instance)
    second = _run_pipeline(tmp_path / "b", student_instance)
    capsys.readouterr()  # pipeline prints are not under test
    differing = sorted(name for name in first if first[name] != second[name])
    ok = not differing
    line = _verdict(
        "determinism",
        ok,
        f"{len(first)} pipeline outputs byte-compared across two runs;"
        f" differing: {differing or 'none'}",
    )
    assert ok, line


def _write_manifest(path: Path, entries: list[CorpusEntry]) -> None:
    records = [
        {
            "entry_id": e.entry_id,
            "db_id": e.db_id,
            "db_file": e.db_file,
            "question": e.question,
            "candidates": [
                {"sql": c.sql, "rank": c.source_rank, "probability": c.probability}
                for c in e.candidates
            ],
            "gold_sql": e.gold_sql,
            "tags": list(e.tags),
        }
        for e in entries
    ]
    path.write_text(json.dumps({"entries": records}))


def test_cli_outputs_do_not_depend_on_the_hash_seed(tmp_path, oracle_corpus):
    """Set and dict orders can follow PYTHONHASHSEED; none may reach an
    output."""
    entries, _ = oracle_corpus
    _write_manifest(tmp_path / "manifest.json", entries)
    entry = next(e for e in entries if e.entry_id == "project-name-r0")
    (tmp_path / "cands.json").write_text(
        json.dumps([{"sql": c.sql, "rank": c.source_rank} for c in entry.candidates])
    )
    src = str(Path(sqlrerank.__file__).resolve().parent.parent)
    outputs: dict[str, dict[str, bytes]] = {}
    for seed in ("1", "2"):
        out = tmp_path / f"hash-seed-{seed}"
        out.mkdir()
        steps = [
            ["gen-suite", "--db", entry.db_file, "--question", entry.question,
             "--candidates-file", str(tmp_path / "cands.json"), "--out", str(out / "suite.json"),
             "--oracle", "reference", "--gold-sql", entry.gold_sql, "--seed", "5"],
            ["eval", "--corpus", str(tmp_path / "manifest.json"), "--oracle", "reference",
             "--seed", "5", "--report", str(out / "report.json")],
        ]
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        got = outputs[seed] = {}
        for argv in steps:
            proc = subprocess.run(
                [sys.executable, "-m", "sqlrerank.cli", *argv], capture_output=True, env=env
            )
            assert proc.returncode == 0, proc.stderr.decode()
            got[f"{argv[0]} stdout"] = proc.stdout
        for name in ("suite.json", "report.json"):
            got[name] = (out / name).read_bytes()
    differing = sorted(name for name in got if outputs["1"][name] != got[name])
    ok = not differing
    line = _verdict(
        "hash-seed",
        ok,
        f"{len(got)} gen-suite and eval outputs byte-compared under PYTHONHASHSEED=1"
        f" and 2; differing: {differing or 'none'}",
    )
    assert ok, line


# --- oracle quality sweep ---------------------------------------------------------


def test_rerank_quality_degrades_monotonically_with_oracle_accuracy(oracle_corpus):
    entries, _ = oracle_corpus
    config = _corpus_config()
    ex_after = {}
    ex_before = {}
    for accuracy in (1.0, 0.7, 0.5):
        report = evaluate_corpus(
            entries,
            lambda entry, a=accuracy: NoisyOracle(ReferenceOracle(entry.gold_sql), a, seed=99),
            config,
            gate="paper",
            base_seed=CORPUS_BASE_SEED,
        )
        assert report.error_count == 0
        ex_after[accuracy] = report.ex_after
        ex_before[accuracy] = report.ex_before
    ok = (
        ex_after[1.0] >= ex_after[0.7] >= ex_after[0.5]
        and ex_after[0.7] > ex_before[0.7]
        and len(set(ex_before.values())) == 1
    )
    line = _verdict(
        "noisy-oracle",
        ok,
        "post-rank EX by oracle accuracy: "
        + ", ".join(f"p={p}: {ex_after[p]:.3f}" for p in (1.0, 0.7, 0.5))
        + f"; pre-rank EX {ex_before[1.0]:.3f}",
    )
    assert ok, line


def test_remote_oracle_smoke_when_configured(oracle_corpus):
    api_key = os.environ.get(API_KEY_ENV)
    base_url = os.environ.get("SQLRERANK_BASE_URL")
    if not api_key or not base_url:
        record_acceptance(
            f"[live-smoke] SKIPPED: {API_KEY_ENV} or SQLRERANK_BASE_URL not set"
        )
        pytest.skip("remote oracle not configured")
    entries, _ = oracle_corpus
    model = os.environ.get("SQLRERANK_MODEL", "gpt-4")
    report = evaluate_corpus(
        entries[:10],
        lambda entry: RemoteOracle(base_url=base_url, model=model),
        _corpus_config(),
        gate="paper",
        base_seed=CORPUS_BASE_SEED,
    )
    ok = report.evaluated + report.error_count == 10 and report.error_count == 0
    line = _verdict(
        "live-smoke",
        ok,
        f"{report.evaluated} entries completed against {base_url}",
    )
    assert ok, line
