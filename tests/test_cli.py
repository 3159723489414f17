import ast
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import sqlrerank
from sqlrerank.cli import _build_suite_config, build_parser, main
from sqlrerank.dbio import read_database, write_database
from sqlrerank.promptgen import DbFormat
from sqlrerank.suite import suite_from_json

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

GOLD_MIN = "SELECT min(age) FROM student"
WRONG_MAX = "SELECT max(age) FROM student"


@pytest.fixture
def workdir(tmp_path, student_instance):
    write_database(student_instance, str(tmp_path / "s.db"))
    (tmp_path / "cands.json").write_text(
        json.dumps(
            [
                {"sql": WRONG_MAX, "rank": 0, "probability": 0.9},
                {"sql": GOLD_MIN, "rank": 1, "probability": 0.1},
            ]
        )
    )
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


# --- gen-db ----------------------------------------------------------------


def test_gen_db_random_selection(workdir, capsys):
    out = workdir / "sampled.db"
    code = run_cli("gen-db", "--db", workdir / "s.db", "--out", out, "--mts", 2, "--seed", 1)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("student: ") for line in lines)
    instance = read_database(str(out))
    assert instance.row_count("student") == 2
    original = read_database(str(workdir / "s.db"))
    for row in instance.data_for("student").rows:
        assert row in original.data_for("student").rows


def test_gen_db_fuzzing(workdir):
    out = workdir / "fuzzed.db"
    code = run_cli(
        "gen-db", "--db", workdir / "s.db", "--out", out,
        "--method", "fuzzing", "--mts", 4, "--seed", 0,
    )
    assert code == 0
    instance = read_database(str(out))
    assert instance.row_count("student") == 4
    assert instance.row_count("enrollment") == 4


def test_gen_db_deterministic_and_overwrites(workdir):
    out = workdir / "g.db"
    run_cli("gen-db", "--db", workdir / "s.db", "--out", out, "--seed", 3)
    first = read_database(str(out))
    run_cli("gen-db", "--db", workdir / "s.db", "--out", out, "--seed", 3)
    assert read_database(str(out)) == first


def test_gen_db_config_file_and_precedence(workdir):
    config = workdir / "config.json"
    config.write_text(json.dumps({"method": "fuzzing", "mts": 2, "seed": 5}))
    out = workdir / "c.db"
    run_cli("gen-db", "--db", workdir / "s.db", "--out", out, "--config", config)
    assert read_database(str(out)).row_count("student") == 2
    out2 = workdir / "c2.db"
    run_cli(
        "gen-db", "--db", workdir / "s.db", "--out", out2, "--config", config, "--mts", 3
    )
    assert read_database(str(out2)).row_count("student") == 3  # flag wins


def test_gen_db_unknown_config_key(workdir, capsys):
    config = workdir / "config.json"
    config.write_text(json.dumps({"mts": 2, "typo_key": 1}))
    code = run_cli("gen-db", "--db", workdir / "s.db", "--out", workdir / "x.db", "--config", config)
    assert code == 1
    assert "typo_key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config_text, flags, named",
    [
        ('{"mts": "abc"}', [], "mts"),
        ('{"format": "bogus"}', [], "format"),
        ('{"mts": 0}', [], "mts"),
        ("{}", ["--mts", 0], "mts"),
        ("{not json", [], "config"),
        (None, [], "config"),  # no config file at the path
        ('{"seed": 1.7}', [], "seed"),
        ('{"seed": true}', [], "seed"),
        ("[2]", [], "config"),
    ],
    ids=[
        "mts-text", "format-unknown", "mts-zero", "mts-flag-zero", "not-json",
        "no-file", "seed-float", "seed-bool", "not-an-object",
    ],
)
def test_gen_db_bad_settings_are_errors(workdir, capsys, config_text, flags, named):
    config = workdir / "config.json"
    if config_text is not None:
        config.write_text(config_text)
    out = workdir / "x.db"
    code = run_cli("gen-db", "--db", workdir / "s.db", "--out", out, "--config", config, *flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_gen_db_missing_source(workdir, capsys):
    code = run_cli("gen-db", "--db", workdir / "absent.db", "--out", workdir / "x.db")
    assert code == 1
    assert "error:" in capsys.readouterr().err


# --- gen-suite -----------------------------------------------------------------


def gen_suite_args(workdir, out, *extra):
    return (
        "gen-suite",
        "--db", workdir / "s.db",
        "--question", "lowest age?",
        "--candidates-file", workdir / "cands.json",
        "--out", out,
        "--oracle", "reference",
        "--gold-sql", GOLD_MIN,
        "--seed", 0,
        *extra,
    )


def test_gen_suite_writes_suite(workdir, capsys):
    out = workdir / "suite.json"
    assert run_cli(*gen_suite_args(workdir, out)) == 0
    stdout = capsys.readouterr().out
    assert "classes: 2" in stdout
    assert "distinguished: yes" in stdout
    suite = suite_from_json(json.loads(out.read_text()))
    assert suite.cases
    assert suite.cases[0].oracle_tag == "reference"
    assert suite.distinguished


def test_gen_suite_single_class_skips(workdir, capsys, monkeypatch):
    """One behavior class writes the empty suite and asks the oracle nothing."""
    from sqlrerank.oracle import ReferenceOracle
    from sqlrerank.suite import TestSuite, dump_json, suite_to_json

    predictions = []
    monkeypatch.setattr(ReferenceOracle, "predict", lambda _self, req: predictions.append(req))
    (workdir / "same.json").write_text(
        json.dumps(
            [
                {"sql": GOLD_MIN, "rank": 0},
                {"sql": "SELECT min(age) FROM student WHERE 1=1", "rank": 1},
            ]
        )
    )
    out = workdir / "suite.json"
    code = run_cli(
        "gen-suite", "--db", workdir / "s.db", "--question", "q",
        "--candidates-file", workdir / "same.json", "--out", out,
        "--oracle", "reference", "--gold-sql", GOLD_MIN,
    )
    assert code == 0
    assert capsys.readouterr().out == "skipped: all candidates fall into one behavior class\n"
    assert out.read_text() == dump_json(suite_to_json(TestSuite()))
    assert predictions == []


def test_gen_suite_reference_needs_gold(workdir, capsys):
    code = run_cli(
        "gen-suite", "--db", workdir / "s.db", "--question", "q",
        "--candidates-file", workdir / "cands.json", "--out", workdir / "o.json",
        "--oracle", "reference",
    )
    assert code == 1
    assert "gold-sql" in capsys.readouterr().err


def test_gen_suite_remote_needs_base_url(workdir, capsys):
    code = run_cli(
        "gen-suite", "--db", workdir / "s.db", "--question", "q",
        "--candidates-file", workdir / "cands.json", "--out", workdir / "o.json",
        "--oracle", "remote",
    )
    assert code == 1
    assert "base-url" in capsys.readouterr().err


def test_gen_suite_replay_needs_cache(workdir, capsys):
    code = run_cli(
        "gen-suite", "--db", workdir / "s.db", "--question", "q",
        "--candidates-file", workdir / "cands.json", "--out", workdir / "o.json",
        "--oracle", "replay",
    )
    assert code == 1
    assert "cache" in capsys.readouterr().err


def test_gen_suite_replay_serves_from_cache(workdir, capsys):
    # First build a cache through the reference oracle by replaying gen-suite
    # with a remote-style cache: simplest is to pre-fill via the library.
    from sqlrerank.oracle import ReferenceOracle, ReplyCache, build_request
    from sqlrerank.promptgen import PromptConfig
    from sqlrerank.suite import Candidate, SuiteConfig, classify_candidates, generate_suite
    from sqlrerank.dbgen import GenConfig
    from sqlrerank.executor import Session

    db = read_database(str(workdir / "s.db"))
    cache_path = workdir / "cache.jsonl"

    class CachingReference(ReferenceOracle):
        def __init__(self, gold, cache):
            super().__init__(gold)
            self.cache = cache

        def predict(self, request):
            self.cache.put(request.request_id, self.raw_reply(request))
            return super().predict(request)

    oracle = CachingReference(GOLD_MIN, ReplyCache(str(cache_path)))
    candidates = [
        Candidate(WRONG_MAX, probability=0.9, source_rank=0),
        Candidate(GOLD_MIN, probability=0.1, source_rank=1),
    ]
    _, reps = classify_candidates(Session(db), candidates)
    generate_suite(db, "lowest age?", reps, SuiteConfig(gen=GenConfig(seed=0)), oracle)
    assert len(oracle.cache) > 0

    out = workdir / "replayed.json"
    code = run_cli(
        "gen-suite", "--db", workdir / "s.db", "--question", "lowest age?",
        "--candidates-file", workdir / "cands.json", "--out", out,
        "--oracle", "replay", "--cache", cache_path, "--seed", 0,
    )
    assert code == 0
    suite = suite_from_json(json.loads(out.read_text()))
    assert suite.cases
    assert suite.dropped_unavailable == 0


# --- rerank -------------------------------------------------------------------------


def test_rerank_pipeline(workdir, capsys):
    suite_path = workdir / "suite.json"
    run_cli(*gen_suite_args(workdir, suite_path))
    out = workdir / "outcome.json"
    code = run_cli(
        "rerank", "--suite", suite_path, "--candidates-file", workdir / "cands.json",
        "--out", out,
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert f"top-1 before: {WRONG_MAX}" in stdout
    assert f"top-1 after:  {GOLD_MIN}" in stdout
    payload = json.loads(out.read_text())
    assert payload["ranked"][0]["sql"] == GOLD_MIN
    assert payload["ranked"][0]["pass_count"] >= 1


def test_rerank_exact_mode(workdir):
    suite_path = workdir / "suite.json"
    run_cli(*gen_suite_args(workdir, suite_path))
    out = workdir / "outcome.json"
    code = run_cli(
        "rerank", "--suite", suite_path, "--candidates-file", workdir / "cands.json",
        "--out", out, "--comparison", "exact",
    )
    assert code == 0
    assert json.loads(out.read_text())["ranked"][0]["sql"] == GOLD_MIN


def test_rerank_comparison_flag_overrides_config(workdir, student_instance):
    from sqlrerank.executor import execute
    from sqlrerank.suite import TestCase, TestSuite, suite_to_json

    # The suite expects (age, name); the top-ranked candidate returns (name, age),
    # which passes only the relaxed comparison.
    expected = execute(student_instance, "SELECT age, name FROM student").result
    suite_path = workdir / "suite.json"
    suite = TestSuite(cases=(TestCase(student_instance, expected),))
    suite_path.write_text(json.dumps(suite_to_json(suite)))
    cands = workdir / "swapped.json"
    cands.write_text(json.dumps([
        {"sql": "SELECT name, age FROM student", "rank": 0, "probability": 0.9},
        {"sql": "SELECT age, name FROM student", "rank": 1, "probability": 0.1},
    ]))
    config = workdir / "config.json"
    config.write_text(json.dumps({"comparison": "exact"}))
    out = workdir / "outcome.json"

    def top1(*flags):
        args = ("rerank", "--suite", suite_path, "--candidates-file", cands, "--out", out)
        assert run_cli(*args, "--config", config, *flags) == 0
        return json.loads(out.read_text())["ranked"][0]["sql"]

    assert top1() == "SELECT age, name FROM student"
    assert top1("--comparison", "relaxed") == "SELECT name, age FROM student"


def test_rerank_reads_a_suite_file_with_stored_signatures(workdir, student_instance):
    """Suite files once stored each kept case's signature as text keys. Such
    a file still loads, the field is ignored, and the ranking is the same."""
    from sqlrerank.executor import execute
    from sqlrerank.suite import TestCase, TestSuite, suite_to_json

    expected = execute(student_instance, GOLD_MIN).result
    suite = TestSuite(
        cases=(TestCase(student_instance, expected, "reference"),), attempts=1, distinguished=True
    )
    payload = suite_to_json(suite)
    assert "signatures" not in payload
    old = workdir / "old-suite.json"
    old.write_text(json.dumps({**payload, "signatures": [["ok:1:u:n:23", "ok:1:u:n:20"]]}))
    new = workdir / "suite.json"
    new.write_text(json.dumps(payload))

    def ranked(suite_path):
        out = workdir / "outcome.json"
        args = ("rerank", "--suite", suite_path, "--candidates-file", workdir / "cands.json")
        assert run_cli(*args, "--out", out) == 0
        return out.read_text()

    from_old = ranked(old)
    assert from_old == ranked(new)
    assert json.loads(from_old)["ranked"] == [
        {"sql": GOLD_MIN, "probability": 0.1, "source_rank": 1, "pass_count": 1},
        {"sql": WRONG_MAX, "probability": 0.9, "source_rank": 0, "pass_count": 0},
    ]


@pytest.mark.parametrize(
    "suite_text,named",
    [(None, "FileNotFoundError"), ("not json", "JSONDecodeError"), ('{"signatures": []}', "cases")],
    ids=["no-file", "not-json", "no-cases"],
)
def test_rerank_bad_suite_file_is_an_error(workdir, capsys, suite_text, named):
    suite_path = workdir / "suite.json"
    if suite_text is not None:
        suite_path.write_text(suite_text)
    out = workdir / "outcome.json"
    code = run_cli(
        "rerank", "--suite", suite_path, "--candidates-file", workdir / "cands.json",
        "--out", out,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load suite file {suite_path}: ") and named in err
    assert not out.exists()


def test_rerank_a_non_finite_suite_cell_is_an_error(workdir, capsys, student_instance):
    """A NaN cell, which JSON readers accept, would load as NULL in a
    database and would fail every candidate in an expected result; either
    way the suite file is refused instead."""
    from sqlrerank.executor import execute
    from sqlrerank.suite import TestCase, TestSuite, suite_to_json

    expected = execute(student_instance, GOLD_MIN).result
    payload = suite_to_json(TestSuite(cases=(TestCase(student_instance, expected, "reference"),)))
    in_db = json.loads(json.dumps(payload))
    in_db["cases"][0]["db"]["rows"]["student"][0][2] = float("nan")
    in_expected = json.loads(json.dumps(payload))
    in_expected["cases"][0]["expected"]["rows"] = [[float("nan")]]
    for bad, named in [
        (in_db, "table 'student' row 0 holds a non-finite number"),
        (in_expected, "result row 0 holds a non-finite number"),
    ]:
        suite_path = workdir / "suite.json"
        suite_path.write_text(json.dumps(bad))
        assert "NaN" in suite_path.read_text()
        out = workdir / "outcome.json"
        code = run_cli(
            "rerank", "--suite", suite_path, "--candidates-file", workdir / "cands.json",
            "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load suite file {suite_path}: MalformedDatabase: ")
        assert named in err
        assert not out.exists()


def test_rerank_keeps_an_infinite_expected_cell(workdir, student_instance):
    """A query can return an infinity, which the suite file writes as
    `Infinity`; such an expected result loads and is passed as any other."""
    from sqlrerank.executor import execute
    from sqlrerank.suite import TestCase, TestSuite, suite_to_json

    overflow = "SELECT max(age) * 1e308 FROM student"
    expected = execute(student_instance, overflow).result
    assert expected.rows == ((float("inf"),),)
    suite_path = workdir / "suite.json"
    suite = TestSuite(cases=(TestCase(student_instance, expected),))
    suite_path.write_text(json.dumps(suite_to_json(suite)))
    assert "Infinity" in suite_path.read_text()
    cands = workdir / "overflow.json"
    cands.write_text(json.dumps([
        {"sql": GOLD_MIN, "rank": 0, "probability": 0.9},
        {"sql": overflow, "rank": 1, "probability": 0.1},
    ]))
    out = workdir / "outcome.json"
    args = ("rerank", "--suite", suite_path, "--candidates-file", cands, "--out", out)
    assert run_cli(*args) == 0
    assert [r["pass_count"] for r in json.loads(out.read_text())["ranked"]] == [1, 0]


def test_rerank_a_suite_cell_sqlite_cannot_hold_fails_the_case(workdir, student_instance):
    """An int outside SQLite's 64-bit range makes its case's instance fail
    to load, so no candidate passes that case; `main` does not raise."""
    from sqlrerank.executor import execute
    from sqlrerank.suite import TestCase, TestSuite, suite_to_json

    expected = execute(student_instance, GOLD_MIN).result
    payload = suite_to_json(TestSuite(cases=(TestCase(student_instance, expected, "reference"),)))
    payload["cases"][0]["db"]["rows"]["student"][0][2] = 2**63
    suite_path = workdir / "suite.json"
    suite_path.write_text(json.dumps(payload))
    out = workdir / "outcome.json"
    code = run_cli(
        "rerank", "--suite", suite_path, "--candidates-file", workdir / "cands.json",
        "--out", out,
    )
    assert code == 0
    assert [c["pass_count"] for c in json.loads(out.read_text())["ranked"]] == [0, 0]


# --- eval----------------------------------------------------------------------------


def make_corpus(workdir):
    manifest = {
        "entries": [
            {
                "entry_id": "good-rerank",
                "db_id": "students",
                "db_file": "s.db",
                "question": "lowest age?",
                "candidates": [
                    {"sql": WRONG_MAX, "rank": 0, "probability": 0.9},
                    {"sql": GOLD_MIN, "rank": 1, "probability": 0.1},
                ],
                "gold_sql": GOLD_MIN,
            },
            {
                "entry_id": "all-wrong",
                "db_id": "students",
                "db_file": "s.db",
                "question": "q",
                "candidates": [
                    {"sql": WRONG_MAX, "rank": 0},
                    {"sql": "SELECT 'zzz'", "rank": 1},
                ],
                "gold_sql": GOLD_MIN,
            },
        ]
    }
    path = workdir / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_eval_command(workdir, capsys):
    manifest = make_corpus(workdir)
    report_path = workdir / "report.json"
    code = run_cli(
        "eval", "--corpus", manifest, "--oracle", "reference",
        "--report", report_path, "--seed", 0,
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "good-rerank" in stdout
    assert "EX before=0.000 after=0.500" in stdout
    payload = json.loads(report_path.read_text())
    assert payload["evaluated"] == 2
    assert payload["gated_out_count"] == 1
    rows = {r["entry_id"]: r for r in payload["entries"]}
    assert rows["good-rerank"]["post_top1_correct"] is True
    assert rows["all-wrong"]["gated_out"] is True


def test_eval_no_gate(workdir, capsys):
    manifest = make_corpus(workdir)
    code = run_cli(
        "eval", "--corpus", manifest, "--oracle", "reference", "--gate", "none",
    )
    assert code == 0
    assert "gated_out=0" in capsys.readouterr().out


def test_eval_workers_config(workdir, capsys):
    """eval runs on one thread: `workers` is no config key, and the flag
    accepts only 1, which changes nothing."""
    manifest = make_corpus(workdir)
    eval_args = ("eval", "--corpus", manifest, "--oracle", "reference")
    config = workdir / "config.json"
    config.write_text(json.dumps({"workers": 2}))
    assert run_cli(*eval_args, "--config", config) == 1
    assert "unknown config keys: workers" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exited:
        run_cli(*eval_args, "--workers", 2)
    assert exited.value.code == 2
    assert "invalid choice: 2" in capsys.readouterr().err

    assert run_cli(*eval_args) == 0
    plain = capsys.readouterr().out
    assert run_cli(*eval_args, "--workers", 1) == 0
    assert capsys.readouterr().out == plain
    assert "EX before=0.000 after=0.500" in plain


def test_eval_reads_the_reply_cache_once(workdir, monkeypatch):
    import sqlrerank.cli

    built = []

    class CountingCache(sqlrerank.cli.ReplyCache):
        def __init__(self, path):
            built.append(path)
            super().__init__(path)

    monkeypatch.setattr(sqlrerank.cli, "ReplyCache", CountingCache)
    manifest = make_corpus(workdir)
    report_path = workdir / "report.json"
    code = run_cli(
        "eval", "--corpus", manifest, "--oracle", "replay", "--cache", workdir / "cache.jsonl",
        "--gate", "none", "--report", report_path,
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert sum(not row["gated_out"] for row in payload["entries"]) == 2
    assert len(built) == 1


# --- config plumbing --------------------------------------------------------------------


def parse(argv):
    return build_parser().parse_args([str(a) for a in argv])


def test_suite_config_defaults(workdir):
    args = parse(gen_suite_args(workdir, workdir / "o.json"))
    config = _build_suite_config(args, {})
    assert config.max_test_cases == 10
    assert config.gen.mts == 5
    assert config.prompt.shots == 0
    assert config.prompt.db_format is DbFormat.CSV
    assert config.relaxed


def test_suite_config_shots_default_with_pool(workdir, student_instance):
    from sqlrerank.instance import instance_to_json

    pool_path = workdir / "pool.json"
    record = {
        "db": instance_to_json(student_instance),
        "question": "q",
        "result": {"columns": ["n"], "rows": [[4]]},
    }
    pool_path.write_text(json.dumps([record, record]))
    args = parse(gen_suite_args(workdir, workdir / "o.json", "--examples", pool_path))
    config = _build_suite_config(args, {})
    # Default shot count applies only when a pool exists, clamped to its size.
    assert config.prompt.shots == 2
    args = parse(
        gen_suite_args(workdir, workdir / "o.json", "--examples", pool_path, "--shots", 1)
    )
    assert _build_suite_config(args, {}).prompt.shots == 1


def test_suite_config_from_config_dict(workdir):
    args = parse(gen_suite_args(workdir, workdir / "o.json"))
    args.seed = None
    args.method = None
    args.mts = None
    config = _build_suite_config(
        args, {"mts": 7, "seed": 9, "method": "fuzzing", "n": 3, "comparison": "exact"}
    )
    assert config.gen.mts == 7
    assert config.gen.seed == 9
    assert config.max_test_cases == 3
    assert not config.relaxed


def test_bad_comparison_mode(workdir, capsys):
    config = workdir / "config.json"
    config.write_text(json.dumps({"comparison": "fuzzy"}))
    code = run_cli(*gen_suite_args(workdir, workdir / "o.json", "--config", config))
    assert code == 1
    assert "comparison" in capsys.readouterr().err


# --- the benchmark's eval call ------------------------------------------------------------

BENCH_RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _bench_eval_flags() -> dict[str, list[str]]:
    """EVAL_FLAGS of bench/run.py, read from its source; the file is neither
    imported nor compiled, so no bytecode is written under bench/."""
    tree = ast.parse(BENCH_RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "EVAL_FLAGS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no EVAL_FLAGS in bench/run.py")


def test_bench_eval_flags_parse():
    flags_by_workload = _bench_eval_flags()
    assert flags_by_workload
    for workload, flags in flags_by_workload.items():
        args = build_parser().parse_args([
            "eval", "--corpus", "m.json", "--gate", "paper", "--seed", "1",
            "--report", "r.json", *flags,
        ])
        assert args.command == "eval", workload


# --- console entry point -------------------------------------------------------------------


def test_console_script_help(tmp_path):
    # Build the launcher an installer would generate from the entry point declared in
    # pyproject.toml and run it against this checkout's package, so the test does not
    # depend on whether the package is installed.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sqlrerank"]
    entry = EntryPoint(name="sqlrerank", value=target, group="console_scripts")
    exe = tmp_path / "bin" / "sqlrerank"
    exe.parent.mkdir()
    exe.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n"
    )
    exe.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(Path(sqlrerank.__file__).resolve().parent.parent))
    proc = subprocess.run([str(exe), "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: sqlrerank")
    listed = {line.split()[0] for line in proc.stdout.splitlines() if line.strip()}
    assert {"gen-db", "gen-suite", "rerank", "eval"} <= listed


@pytest.mark.skipif(shutil.which("sqlrerank") is None, reason="sqlrerank console script not installed")
def test_installed_console_script_help():
    exe = shutil.which("sqlrerank")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-db" in proc.stdout
    assert "rerank" in proc.stdout
