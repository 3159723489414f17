"""Command-line interface: gen-db, gen-suite, rerank, eval."""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from .corpus import CorpusEntry, load_candidates_file, load_corpus
from .dbgen import GenConfig, GenMethod, generate_database
from .dbio import read_database, write_database
from .errors import SqlRerankError
from .evaluate import GATES, dump_report, evaluate_corpus, render_report_table
from .executor import Session
from .oracle import ReferenceOracle, RemoteOracle, ReplayOracle, ReplyCache
from .promptgen import DbFormat, PromptConfig, load_example_pool
from .suite import (
    SuiteConfig,
    TestSuite,
    classify_candidates,
    dump_json,
    generate_suite,
    outcome_to_json,
    rerank,
    suite_from_json,
    suite_to_json,
)

_CONFIG_KEYS = {"mts", "method", "seed", "format", "shots", "n", "comparison"}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise SqlRerankError(f"cannot read config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise SqlRerankError(f"config {path} is not a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise SqlRerankError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return config


def _load_suite_file(path: str) -> TestSuite:
    try:
        with open(path, encoding="utf-8") as handle:
            return suite_from_json(json.load(handle))
    # ValueError: not JSON, or not UTF-8; the others: not a suite's shape.
    except (OSError, ValueError, KeyError, TypeError, AttributeError, SqlRerankError) as exc:
        raise SqlRerankError(f"cannot load suite file {path}: {type(exc).__name__}: {exc}") from None


def _checked(name: str, make: Callable, *args, **kwargs):
    """`make(*args, **kwargs)`, with a ValueError reported as a bad `name`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SqlRerankError(f"bad {name}: {exc}") from None


def _integer(value) -> int:
    if type(value) is not int:  # a JSON integer: not a bool, a float or a string
        raise ValueError(f"{value!r} is not an integer")
    return value


def _relaxed(mode) -> bool:
    """True for the "relaxed" comparison, False for "exact"."""
    if mode not in ("relaxed", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "relaxed"


def _flag_or_config(args, config: dict, name: str, default, parse: Callable = _integer):
    """`parse` of the flag's value if given, else of the config file's, else of the default."""
    value = getattr(args, name, None)
    return _checked(name, parse, value if value is not None else config.get(name, default))


def _build_suite_config(args, config: dict) -> SuiteConfig:
    """Settings from flags over the config file over the defaults; each
    subcommand passes the flags it has."""
    method = _flag_or_config(args, config, "method", "random-selection", GenMethod)
    mts = _flag_or_config(args, config, "mts", 5)
    seed = _flag_or_config(args, config, "seed", 0)
    n = _flag_or_config(args, config, "n", 10)
    db_format = _flag_or_config(args, config, "format", "csv", DbFormat)
    relaxed = _flag_or_config(args, config, "comparison", "relaxed", _relaxed)

    examples = getattr(args, "examples", None)
    pool = load_example_pool(examples) if examples else ()
    shots = min(_flag_or_config(args, config, "shots", 7), len(pool))
    gen = _checked("mts", GenConfig, mts=mts, method=method, seed=seed)
    prompt = _checked("shots", PromptConfig, db_format=db_format, shots=shots, example_pool=pool)
    return _checked("n", SuiteConfig, max_test_cases=n, gen=gen, prompt=prompt, relaxed=relaxed)


def _reply_cache(args) -> ReplyCache | None:
    """The reply cache of a run, read once; the reference oracle uses none."""
    if args.oracle == "reference" or not getattr(args, "cache", None):
        return None
    return ReplyCache(args.cache)


def _build_oracle(args, cache: ReplyCache | None, entry_gold_sql: str | None = None):
    kind = args.oracle
    if kind == "reference":
        gold = entry_gold_sql or getattr(args, "gold_sql", None)
        if not gold:
            raise SqlRerankError("the reference oracle needs --gold-sql")
        return ReferenceOracle(gold)
    if kind == "remote":
        if not args.base_url:
            raise SqlRerankError("the remote oracle needs --base-url")
        remote = RemoteOracle(base_url=args.base_url, model=args.model)
        return remote if cache is None else ReplayOracle(cache, delegate=remote)
    if kind == "replay":
        if cache is None:
            raise SqlRerankError("the replay oracle needs --cache")
        return ReplayOracle(cache)
    raise SqlRerankError(f"unknown oracle {kind!r}")


def _cmd_gen_db(args) -> int:
    gen = _build_suite_config(args, _load_config_file(args.config)).gen
    instance = generate_database(read_database(args.db), gen)
    if os.path.exists(args.out):
        os.remove(args.out)
    write_database(instance, args.out)
    for table in instance.schema.tables:
        print(f"{table.name}: {instance.row_count(table.name)} rows")
    return 0


def _cmd_gen_suite(args) -> int:
    suite_config = _build_suite_config(args, _load_config_file(args.config))
    db = read_database(args.db)
    candidates = list(load_candidates_file(args.candidates_file))
    oracle = _build_oracle(args, _reply_cache(args))
    with Session(db) as session:
        classes, representatives = classify_candidates(session, candidates)
        suite = generate_suite(
            session,
            args.question,
            representatives,
            suite_config,
            oracle,
            all_sqls=[c.sql for c in candidates],
        )
        suite.close()
    if len(classes) < 2:
        print("skipped: all candidates fall into one behavior class")
    else:
        print(
            f"classes: {len(classes)}; cases kept: {len(suite.cases)};"
            f" dropped duplicate: {suite.dropped_duplicate};"
            f" dropped unavailable: {suite.dropped_unavailable};"
            f" distinguished: {'yes' if suite.distinguished else 'no'}"
        )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(dump_json(suite_to_json(suite)))
    return 0


def _cmd_rerank(args) -> int:
    relaxed = _build_suite_config(args, _load_config_file(args.config)).relaxed
    suite = _load_suite_file(args.suite)
    candidates = list(load_candidates_file(args.candidates_file))
    outcome = rerank(candidates, suite, relaxed=relaxed)
    suite.close()
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(dump_json(outcome_to_json(outcome)))
    before = candidates[0].sql
    after = outcome.ranked[0].sql
    print(f"top-1 before: {before}")
    print(f"top-1 after:  {after}")
    return 0


def _cmd_eval(args) -> int:
    suite_config = _build_suite_config(args, _load_config_file(args.config))
    entries = load_corpus(args.corpus)
    # One cache for every entry: put() locks the file.
    cache = _reply_cache(args)

    def oracle_factory(entry: CorpusEntry):
        return _build_oracle(args, cache, entry_gold_sql=entry.gold_sql)

    report = evaluate_corpus(
        entries,
        oracle_factory,
        suite_config,
        gate=args.gate,
        base_seed=suite_config.gen.seed,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(dump_report(report))
    print(render_report_table(report))
    return 0


def _add_common_gen_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=[m.value for m in GenMethod], default=None)
    parser.add_argument("--mts", type=int, default=None, help="maximum rows per table")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", default=None, help="JSON config file")


def _add_oracle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--oracle", choices=["remote", "reference", "replay"], required=True)
    parser.add_argument("--gold-sql", default=None, help="ground truth for the reference oracle")
    parser.add_argument("--base-url", default=None, help="chat-completion endpoint base URL")
    parser.add_argument("--model", default="gpt-4", help="remote model name")
    parser.add_argument("--cache", default=None, help="reply cache file (replay oracle)")
    parser.add_argument("--examples", default=None, help="few-shot example pool JSON")
    parser.add_argument("--shots", type=int, default=None)
    parser.add_argument("--format", choices=[f.value for f in DbFormat], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlrerank",
        description="Generate test databases and re-rank text-to-SQL candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-db", help="generate a database with the same schema")
    p.add_argument("--db", required=True, help="source database file")
    p.add_argument("--out", required=True, help="output database file")
    _add_common_gen_flags(p)
    p.set_defaults(func=_cmd_gen_db)

    p = sub.add_parser("gen-suite", help="generate a distinguishing test suite")
    p.add_argument("--db", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--candidates-file", required=True)
    p.add_argument("--n", type=int, default=None, help="maximum test cases")
    p.add_argument("--out", required=True)
    p.add_argument("--comparison", choices=["relaxed", "exact"], default=None)
    _add_common_gen_flags(p)
    _add_oracle_flags(p)
    p.set_defaults(func=_cmd_gen_suite)

    p = sub.add_parser("rerank", help="re-rank candidates against a saved suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--candidates-file", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--comparison", choices=["relaxed", "exact"], default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_rerank)

    p = sub.add_parser("eval", help="evaluate re-ranking over a corpus")
    p.add_argument("--corpus", required=True, help="corpus manifest JSON")
    p.add_argument("--gate", choices=GATES, default="paper")
    p.add_argument("--report", default=None, help="report output file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--comparison", choices=["relaxed", "exact"], default=None)
    p.add_argument("--workers", type=int, choices=[1], help="only 1: eval runs on one thread")
    _add_common_gen_flags(p)
    _add_oracle_flags(p)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SqlRerankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
