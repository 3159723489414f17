import csv
import io
import json
import os
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlrerank.errors import ManifestError, ParseFailure
from sqlrerank.executor import ExecutionResult
from sqlrerank.instance import instance_to_json
from sqlrerank.promptgen import (
    INSTRUCTION,
    DbFormat,
    PromptConfig,
    build_prompt,
    load_example_pool,
    parse_answer,
    render_answer,
    render_csv,
    render_database,
    render_sqlite,
)
from sqlrerank.schema import ColumnType, SchemaGraph, Table

from conftest import col, make_instance

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _golden_db():
    schema = SchemaGraph(
        tables=(
            Table(
                "city",
                (col("city_id", pk=True), col("name", ColumnType.TEXT), col("population")),
            ),
        )
    )
    return make_instance(
        schema,
        {"city": [(1, "adria", 20000), (2, "bolzano", 107000), (3, "carpi", None)]},
    )


def _golden_pool():
    schema = SchemaGraph(tables=(Table("t", (col("v"),)),))
    ex1 = make_instance(schema, {"t": [(4,), (9,)]})
    ex2 = make_instance(schema, {"t": [(1,)]})
    return (
        (ex1, "What is the largest v?", ExecutionResult(("max(v)",), ((9,),))),
        (ex2, "How many rows are there?", ExecutionResult(("count(*)",), ((1,),))),
    )


# --- CSV rendering -----------------------------------------------------------


def test_render_csv_structure(student_instance):
    text = render_csv(student_instance)
    blocks = text.split("\n\n")
    assert len(blocks) == 2
    student = blocks[0].splitlines()
    assert student[0] == "student"
    assert student[1] == "student_id,name,age"
    assert student[2] == "1,ann,20"
    assert len(student) == 2 + 4


def test_render_csv_quoting_matches_csv_module():
    schema = SchemaGraph(tables=(Table("t", (col("a", ColumnType.TEXT), col("b"))),))
    tricky = [
        ("plain", 1),
        ("with,comma", 2),
        ('quote"inside', 3),
        ("line\nbreak", 4),
        (None, 5),
        ("", 6),
    ]
    inst = make_instance(schema, {"t": tricky})
    lines = render_csv(inst).split("\n", 2)[2]  # past name and header lines
    parsed = list(csv.reader(io.StringIO(lines)))
    expected = [[("" if a is None else a), str(b)] for a, b in tricky]
    assert parsed == expected


def test_render_csv_null_is_empty_field(student_schema):
    inst = make_instance(
        student_schema, {"student": [(1, None, 20)], "enrollment": []}
    )
    row_line = render_csv(inst).splitlines()[2]
    assert row_line == "1,,20"


# --- SQLite rendering ----------------------------------------------------------


def test_render_sqlite_is_executable(student_instance):
    script = render_sqlite(student_instance)
    assert not script.endswith("\n")
    conn = sqlite3.connect(":memory:")
    conn.executescript(script)
    assert conn.execute("SELECT count(*) FROM enrollment").fetchone() == (3,)
    conn.close()


def test_render_sqlite_empty_schema():
    empty = make_instance(SchemaGraph(tables=()), {})
    assert render_sqlite(empty) == ""


def test_render_database_dispatch(student_instance):
    assert render_database(student_instance, DbFormat.CSV) == render_csv(student_instance)
    assert render_database(student_instance, DbFormat.SQLITE) == render_sqlite(student_instance)


# --- answer grammar ---------------------------------------------------------------


def test_render_answer_header_first():
    r = ExecutionResult(("name", "age"), (("ann", 20), ("bob", None)))
    assert render_answer(r) == "name | age\nann | 20\nbob | NULL"


def test_render_answer_float_uses_repr():
    r = ExecutionResult(("avg",), ((2.5,),))
    assert render_answer(r) == "avg\n2.5"


@pytest.mark.parametrize(
    "rows",
    [
        (("ann", 20),),
        (("bob", None), ("cat", -3)),
        (),
    ],
)
def test_answer_round_trip(rows):
    r = ExecutionResult(("name", "age"), tuple(rows))
    back = parse_answer(render_answer(r))
    assert back.columns == r.columns
    assert back.rows == r.rows


def test_answer_round_trip_floats():
    r = ExecutionResult(("x",), ((2.5,), (-0.25,), (1e-05,)))
    back = parse_answer(render_answer(r))
    assert back.rows == r.rows


def test_numeric_looking_text_reparses_as_number():
    # The grammar is untyped: "123" in a text column comes back as an int.
    r = ExecutionResult(("v",), (("123",),))
    assert parse_answer(render_answer(r)).rows == ((123,),)


def test_parse_fenced_block():
    reply = "Here is the result:\n```\nname | age\nann | 20\n```\nDone."
    r = parse_answer(reply)
    assert r.columns == ("name", "age")
    assert r.rows == (("ann", 20),)


def test_parse_pipe_run_amid_prose():
    reply = "Let me think.\n\ncount(*) | city\n3 | adria\n\nThat is my answer."
    r = parse_answer(reply)
    assert r.columns == ("count(*)", "city")
    assert r.rows == ((3, "adria"),)


def test_parse_whole_reply_fallback():
    r = parse_answer("max(v)\n9")
    assert r.columns == ("max(v)",)
    assert r.rows == ((9,),)


def test_parse_single_line_with_separator_is_header_only():
    r = parse_answer("name | age")
    assert r.columns == ("name", "age")
    assert r.rows == ()


def test_parse_single_token_line():
    r = parse_answer("count(*)")
    assert r.columns == ("count(*)",)
    assert r.rows == ()


def test_parse_rejects_single_prose_line():
    with pytest.raises(ParseFailure):
        parse_answer("The answer is 5")


def test_parse_rejects_empty_reply():
    with pytest.raises(ParseFailure):
        parse_answer("")
    with pytest.raises(ParseFailure):
        parse_answer("   \n  \n")


def test_parse_rejects_ragged_rows():
    with pytest.raises(ParseFailure):
        parse_answer("a | b\n1 | 2 | 3")


def test_parse_bad_fence_falls_through_to_run():
    reply = "```\nprose only here\n```\nbut see:\nv | w\n1 | 2"
    r = parse_answer(reply)
    assert r.rows == ((1, 2),)


def test_parse_null_token():
    assert parse_answer("v\nNULL").rows == ((None,),)


def test_parse_crlf_lines():
    assert parse_answer("v | w\r\n1 | 2\r\n").rows == ((1, 2),)


# --- prompt assembly -----------------------------------------------------------------


def test_build_prompt_zero_shot(student_instance):
    p = build_prompt(student_instance, "How many students?", PromptConfig())
    assert p.text.startswith(INSTRUCTION + "\n\n")
    assert "Database:\n" in p.text
    assert "Question: How many students?" in p.text
    assert p.text.endswith("Answer:\n")
    # No worked example, and the database rendered as CSV.
    assert p.text.count("Question: ") == 1
    assert render_database(student_instance, DbFormat.CSV) in p.text


def test_build_prompt_shots_come_from_pool_head(student_instance):
    pool = _golden_pool()
    cfg = PromptConfig(shots=1, example_pool=pool)
    p = build_prompt(student_instance, "q", cfg)
    assert "What is the largest v?" in p.text
    assert "How many rows are there?" not in p.text
    assert p.text.count("Question: ") == 2


def test_build_prompt_shot_answers_rendered(student_instance):
    cfg = PromptConfig(shots=2, example_pool=_golden_pool())
    p = build_prompt(student_instance, "q", cfg)
    assert "Answer:\nmax(v)\n9" in p.text
    # The target slot stays empty.
    assert p.text.endswith("Answer:\n")


def test_prompt_config_validation():
    with pytest.raises(ValueError):
        PromptConfig(shots=-1)
    with pytest.raises(ValueError):
        PromptConfig(shots=1, example_pool=())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2))
def test_prompt_length_monotone_in_shots(k):
    cfg_k = PromptConfig(shots=k, example_pool=_golden_pool())
    cfg_more = PromptConfig(shots=k + (k < 2), example_pool=_golden_pool())
    db = _golden_db()
    assert len(build_prompt(db, "q", cfg_k).text) <= len(build_prompt(db, "q", cfg_more).text)


# --- frozen prompt files ----------------------------------------------------------------


def _read_golden(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as handle:
        return handle.read()


def test_golden_csv_zero_shot():
    p = build_prompt(_golden_db(), "Which city is the largest?", PromptConfig())
    assert p.text == _read_golden("prompt_csv_0shot.txt")


def test_golden_csv_two_shot():
    cfg = PromptConfig(shots=2, example_pool=_golden_pool())
    p = build_prompt(_golden_db(), "Which city is the largest?", cfg)
    assert p.text == _read_golden("prompt_csv_2shot.txt")


def test_golden_sqlite_zero_shot():
    cfg = PromptConfig(db_format=DbFormat.SQLITE)
    p = build_prompt(_golden_db(), "Which city is the largest?", cfg)
    assert p.text == _read_golden("prompt_sqlite_0shot.txt")


# --- example pool loading -----------------------------------------------------------------


def _pool_record(db, question, result):
    return {
        "db": instance_to_json(db),
        "question": question,
        "result": {"columns": list(result.columns), "rows": [list(r) for r in result.rows]},
    }


def test_load_example_pool_inline(tmp_path):
    pool = _golden_pool()
    path = tmp_path / "pool.json"
    path.write_text(json.dumps([_pool_record(*ex) for ex in pool]))
    loaded = load_example_pool(str(path))
    assert len(loaded) == 2
    assert loaded[0][1] == "What is the largest v?"
    assert loaded[0][2].rows == ((9,),)
    assert loaded[0][0] == pool[0][0]


def test_load_example_pool_db_file(tmp_path, student_instance):
    from sqlrerank.dbio import write_database

    write_database(student_instance, str(tmp_path / "s.db"))
    record = {
        "db_file": "s.db",
        "question": "q",
        "result": {"columns": ["n"], "rows": [[4]]},
    }
    path = tmp_path / "pool.json"
    path.write_text(json.dumps([record]))
    loaded = load_example_pool(str(path))
    assert loaded[0][0].row_count("student") == 4


def test_load_example_pool_errors(tmp_path):
    with pytest.raises(ManifestError):
        load_example_pool(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a list"}')
    with pytest.raises(ManifestError):
        load_example_pool(str(bad))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('[{"question": "q"}]')
    with pytest.raises(ManifestError):
        load_example_pool(str(malformed))
    # JSON readers take NaN, which no SQLite result holds.
    non_finite = tmp_path / "non_finite.json"
    record = _pool_record(*_golden_pool()[0])
    record["result"]["rows"] = [[float("nan")]]
    non_finite.write_text(json.dumps([record]))
    with pytest.raises(ManifestError, match="example 0 .* result row 0 holds a non-finite number"):
        load_example_pool(str(non_finite))
