"""Corpus ingestion: a manifest of entries, each with a database file, a
question, candidate SQLs from some text-to-SQL model, and (for evaluation)
a gold SQL."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

from .errors import ManifestError
from .instance import DatabaseInstance
from .schema import SchemaGraph, Table, classify_declared_type, fold
from .suite import Candidate


@dataclass(frozen=True)
class CorpusEntry:
    entry_id: str
    db_id: str
    db_file: str
    question: str
    candidates: tuple[Candidate, ...]
    gold_sql: str | None = None
    tags: tuple[str, ...] = ()
    type_overrides: dict = field(default_factory=dict)


def parse_candidate_records(records, where: str) -> tuple[Candidate, ...]:
    """Validate [{sql, probability?, rank}] records into Candidates."""
    if not isinstance(records, list) or not records:
        raise ManifestError(f"{where}: candidates must be a non-empty list")
    candidates = []
    seen_ranks: set[int] = set()
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise ManifestError(f"{where}: candidate {i} is not an object")
        if "sql" not in record or not isinstance(record["sql"], str) or not record["sql"].strip():
            raise ManifestError(f"{where}: candidate {i} is missing sql")
        if "rank" not in record:
            raise ManifestError(f"{where}: candidate {i} is missing rank")
        rank = record["rank"]
        if type(rank) is not int or rank < 0:  # a JSON integer, not a bool
            raise ManifestError(f"{where}: candidate {i} has invalid rank {rank!r}")
        if rank in seen_ranks:
            raise ManifestError(f"{where}: duplicate rank {rank}")
        seen_ranks.add(rank)
        probability = record.get("probability")
        if probability is not None:
            if type(probability) not in (int, float) or not 0.0 <= probability <= 1.0:
                raise ManifestError(
                    f"{where}: candidate {i} probability {probability!r} outside [0, 1]"
                )
            probability = float(probability)
        candidates.append(
            Candidate(sql=record["sql"], probability=probability, source_rank=rank)
        )
    candidates.sort(key=lambda c: c.source_rank)
    return tuple(candidates)


def load_candidates_file(path: str) -> tuple[Candidate, ...]:
    try:
        with open(path, encoding="utf-8") as handle:
            records = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ManifestError(f"cannot load candidates file {path}: {exc}") from exc
    return parse_candidate_records(records, where=path)


def load_corpus(manifest_path: str) -> list[CorpusEntry]:
    """Load and validate a corpus manifest (JSON).

    The manifest is {"entries": [...]}; each entry needs entry_id, db_id,
    db_file (relative to the manifest), question, and either inline
    "candidates" or a "candidates_file". Optional: gold_sql, tags,
    type_overrides ({"table.column": "integer"|"real"|"text"}).
    """
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ManifestError(f"cannot load manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("entries"), list):
        raise ManifestError(f"{manifest_path}: manifest must have an 'entries' list")
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries: list[CorpusEntry] = []
    seen_ids: set[str] = set()
    for i, raw in enumerate(manifest["entries"]):
        where = f"{manifest_path} entry {i}"
        if not isinstance(raw, dict):
            raise ManifestError(f"{where}: not an object")
        for key in ("entry_id", "db_id", "db_file", "question"):
            if key not in raw:
                raise ManifestError(f"{where}: missing {key}")
        for key in ("entry_id", "db_id", "db_file", "question", "candidates_file", "gold_sql"):
            value = raw.get(key, "")
            # A null gold_sql means none, as an absent one does.
            if not isinstance(value, str) and not (key == "gold_sql" and value is None):
                raise ManifestError(f"{where}: {key} must be a string")
        tags = raw.get("tags", [])
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise ManifestError(f"{where}: tags must be a list of strings")
        entry_id = raw["entry_id"]
        if entry_id in seen_ids:
            raise ManifestError(f"{where}: duplicate entry_id {entry_id!r}")
        seen_ids.add(entry_id)
        db_file = os.path.join(base, raw["db_file"])
        if not os.path.isfile(db_file):
            raise ManifestError(f"{where}: db_file does not exist: {db_file}")
        if "candidates" in raw:
            candidates = parse_candidate_records(raw["candidates"], where=where)
        elif "candidates_file" in raw:
            candidates = load_candidates_file(os.path.join(base, raw["candidates_file"]))
        else:
            raise ManifestError(f"{where}: needs candidates or candidates_file")
        overrides = raw.get("type_overrides", {})
        if not isinstance(overrides, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in overrides.items()
        ):
            raise ManifestError(f"{where}: type_overrides must map strings to strings")
        entries.append(
            CorpusEntry(
                entry_id=entry_id,
                db_id=raw["db_id"],
                db_file=db_file,
                question=raw["question"],
                candidates=candidates,
                gold_sql=raw.get("gold_sql"),
                tags=tuple(tags),
                type_overrides=dict(overrides),
            )
        )
    return entries


def apply_type_overrides(db: DatabaseInstance, overrides: dict) -> DatabaseInstance:
    """Re-type columns per {"table.column": type-label} (dataset bug fixes)."""
    if not overrides:
        return db
    wanted = {}
    for key, label in overrides.items():
        tname, _, cname = key.partition(".")
        if not cname:
            raise ManifestError(f"type override key {key!r} is not table.column")
        wanted[(fold(tname), fold(cname))] = label
    new_tables = []
    for table in db.schema.tables:
        cols = []
        for col in table.columns:
            label = wanted.pop((fold(table.name), fold(col.name)), None)
            if label is None:
                cols.append(col)
            else:
                cols.append(
                    replace(col, declared_type=classify_declared_type(label), raw_type=label)
                )
        new_tables.append(Table(name=table.name, columns=tuple(cols)))
    if wanted:
        missing = ", ".join(f"{t}.{c}" for t, c in sorted(wanted))
        raise ManifestError(f"type overrides name missing columns: {missing}")
    schema = SchemaGraph(tables=tuple(new_tables), foreign_keys=db.schema.foreign_keys)
    return DatabaseInstance(schema=schema, tables=dict(db.tables))
