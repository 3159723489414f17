"""Prompt construction and reply parsing for result prediction.

A prompt is a fixed instruction, optional worked examples, then the target
database rendered as CSV blocks or as a SQLite script, the question, and an
empty answer slot. Answers use a plain table grammar: header line first, one
row per line, cells joined by " | ", NULL spelled literally.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from enum import Enum

from .dbio import database_script
from .errors import MalformedDatabase, ManifestError, ParseFailure
from .executor import ExecutionResult, result_from_json
from .instance import DatabaseInstance, instance_from_json

INSTRUCTION = (
    "You are given a database and a question. Predict the execution result of"
    " the question on the database. Output the result as a table, one row per"
    " line, cells separated by ' | '."
)

CELL_SEPARATOR = " | "
NULL_TOKEN = "NULL"


class DbFormat(Enum):
    CSV = "csv"
    SQLITE = "sqlite"


@dataclass(frozen=True)
class PromptConfig:
    db_format: DbFormat = DbFormat.CSV
    shots: int = 0
    example_pool: tuple[tuple[DatabaseInstance, str, ExecutionResult], ...] = ()

    def __post_init__(self) -> None:
        if self.shots < 0:
            raise ValueError("shots must be non-negative")
        if self.shots > len(self.example_pool):
            raise ValueError(
                f"shots={self.shots} exceeds example pool size {len(self.example_pool)}"
            )


@dataclass(frozen=True)
class Prompt:
    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("prompt text is empty")


def _csv_field(value) -> str:
    if value is None:
        return ""
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(db: DatabaseInstance) -> str:
    """One block per table: name line, header line, then the rows."""
    blocks: list[str] = []
    for table in db.schema.tables:
        lines = [table.name, ",".join(_csv_field(c) for c in table.column_names())]
        lines.extend(",".join(_csv_field(v) for v in row) for row in db.data_for(table.name).rows)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_sqlite(db: DatabaseInstance) -> str:
    """CREATE TABLE and INSERT statements reproducing the instance."""
    if not db.schema.tables:
        return ""
    return database_script(db).rstrip("\n")


def render_database(db: DatabaseInstance, db_format: DbFormat) -> str:
    if db_format is DbFormat.CSV:
        return render_csv(db)
    return render_sqlite(db)


def _cell_to_text(value) -> str:
    if value is None:
        return NULL_TOKEN
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_answer(result: ExecutionResult) -> str:
    """Serialize a result in the answer grammar (header line first)."""
    lines = [CELL_SEPARATOR.join(result.columns)]
    lines.extend(CELL_SEPARATOR.join(_cell_to_text(v) for v in row) for row in result.rows)
    return "\n".join(lines)


_INT_RE = re.compile(r"[+-]?\d+")
_REAL_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")


def _cell_from_text(text: str):
    if text == NULL_TOKEN:
        return None
    if _INT_RE.fullmatch(text):
        return int(text)
    if _REAL_RE.fullmatch(text):
        return float(text)
    return text


def _parse_block(block: str) -> ExecutionResult:
    lines = [line.rstrip("\r") for line in block.strip().splitlines()]
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ParseFailure("empty block")
    if len(lines) == 1 and CELL_SEPARATOR not in lines[0]:
        # A lone line is a single-column header only when it reads as one
        # token; anything with spaces is prose, not a table.
        if not re.fullmatch(r"\S+", lines[0].strip()):
            raise ParseFailure("single line is not a table")
        return ExecutionResult(columns=(lines[0].strip(),), rows=())
    header = tuple(lines[0].split(CELL_SEPARATOR))
    width = len(header)
    rows = []
    for line in lines[1:]:
        cells = line.split(CELL_SEPARATOR)
        if len(cells) != width:
            raise ParseFailure(
                f"row has {len(cells)} cells, header has {width}: {line!r}"
            )
        rows.append(tuple(_cell_from_text(c) for c in cells))
    return ExecutionResult(columns=header, rows=tuple(rows))


_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)


def parse_answer(reply: str) -> ExecutionResult:
    """Parse a model reply into an ExecutionResult.

    Tries fenced code blocks first, then contiguous runs of ' | ' lines, then
    the whole reply. Raises ParseFailure when nothing parses.
    """
    candidates: list[str] = [m.group(1) for m in _FENCE_RE.finditer(reply)]

    lines = reply.splitlines()
    run: list[str] = []
    for line in lines + [""]:
        if CELL_SEPARATOR in line:
            run.append(line)
        else:
            if run:
                candidates.append("\n".join(run))
            run = []

    candidates.append(reply)

    last_error: ParseFailure | None = None
    for block in candidates:
        try:
            return _parse_block(block)
        except ParseFailure as exc:
            last_error = exc
    raise ParseFailure(f"no table block found in reply: {last_error}")


def _example_block(
    db: DatabaseInstance, question: str, result: ExecutionResult, db_format: DbFormat
) -> str:
    return (
        f"Database:\n{render_database(db, db_format)}\n\n"
        f"Question: {question}\n\n"
        f"Answer:\n{render_answer(result)}"
    )


def build_prompt(db: DatabaseInstance, question: str, config: PromptConfig) -> Prompt:
    """Instruction, then config.shots worked examples, then the target."""
    parts = [INSTRUCTION]
    for ex_db, ex_question, ex_result in config.example_pool[: config.shots]:
        parts.append(_example_block(ex_db, ex_question, ex_result, config.db_format))
    parts.append(
        f"Database:\n{render_database(db, config.db_format)}\n\n"
        f"Question: {question}\n\n"
        f"Answer:\n"
    )
    return Prompt(text="\n\n".join(parts))


def load_example_pool(path: str) -> tuple[tuple[DatabaseInstance, str, ExecutionResult], ...]:
    """Load worked examples from a JSON file.

    Each record needs "question", "result" {"columns", "rows"}, and either
    "db" (inline instance) or "db_file" (path, relative to the pool file).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            records = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ManifestError(f"cannot load example pool {path}: {exc}") from exc
    if not isinstance(records, list):
        raise ManifestError(f"example pool {path} must be a JSON list")
    base = os.path.dirname(os.path.abspath(path))
    pool = []
    for i, record in enumerate(records):
        try:
            question = record["question"]
            if not isinstance(question, str):
                raise TypeError("question must be a string")
            result = result_from_json(record["result"])
            if "db" in record:
                db = instance_from_json(record["db"])
            else:
                from .dbio import read_database

                db = read_database(os.path.join(base, record["db_file"]))
        except (KeyError, TypeError, ValueError, MalformedDatabase) as exc:
            raise ManifestError(f"example {i} in {path} is malformed: {exc}") from exc
        pool.append((db, question, result))
    return tuple(pool)
