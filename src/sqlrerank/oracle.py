"""Sources of expected execution results.

Backends share one interface: predict(request) -> OraclePrediction, which is
either a result or Unavailable with a reason. The remote backend talks to a
chat-completion HTTP endpoint; the reference backend executes a hidden
ground-truth SQL (perfect oracle, for tests and baselines); the replay
backend serves raw replies from a cache file, optionally falling through to
a delegate; the noisy backend corrupts a wrapped oracle's answers with a
configured probability, deterministically per request.
"""
from __future__ import annotations

import fcntl
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field

from .errors import CacheIo, ParseFailure
from .executor import ExecutionResult, OutcomeKind, Session, execute
from .instance import DatabaseInstance, instance_to_json
from .promptgen import Prompt, PromptConfig, build_prompt, parse_answer, render_answer

API_KEY_ENV = "SQLRERANK_API_KEY"
# RemoteOracle's request settings: a deterministic reply, up to RETRIES more
# attempts after the first, sleeping BACKOFF_S, then twice that, and so on.
TEMPERATURE = 0.0
RETRIES = 2
BACKOFF_S = 1.0
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class OracleRequest:
    prompt: Prompt
    # The session on the database asked about; backends run SQL through it.
    session: Session = field(compare=False, repr=False)
    request_id: str


@dataclass(frozen=True)
class OraclePrediction:
    result: ExecutionResult | None = None
    unavailable_reason: str | None = None

    @classmethod
    def predicted(cls, result: ExecutionResult) -> "OraclePrediction":
        return cls(result=result)

    @classmethod
    def unavailable(cls, reason: str) -> "OraclePrediction":
        return cls(unavailable_reason=reason)

    @property
    def is_available(self) -> bool:
        return self.result is not None


def request_id_for(db: DatabaseInstance, question: str, config: PromptConfig) -> str:
    """Stable content hash of the database, question, and prompt shape."""
    payload = json.dumps(
        {
            "db": instance_to_json(db),
            "question": question,
            "format": config.db_format.value,
            "shots": config.shots,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_request(session: Session, question: str, config: PromptConfig) -> OracleRequest:
    """A request about the session's instance."""
    return OracleRequest(
        prompt=build_prompt(session.db, question, config),
        session=session,
        request_id=request_id_for(session.db, question, config),
    )


class ReplyCache:
    """Append-only store of raw oracle replies, line-delimited JSON.

    Records are {"request_id", "timestamp", "reply"}; the latest record for a
    request id wins. A last line without its newline is an append cut short:
    it is kept if it parses, and otherwise skipped and counted in
    `torn_lines`. The next put first ends that line or cuts it off, so the
    new record starts a line of its own. Any other unreadable line raises
    CacheIo. Appends hold an exclusive lock on the file, so cache objects
    sharing it, in one process or several, do not cut off each other's
    records.
    """

    def __init__(self, path: str):
        self.path = path
        self.torn_lines = 0
        self._entries: dict[str, str] = {}
        # (offset, bytes, torn) of the last line while the file does not end
        # with a newline.
        self._open_tail: tuple[int, bytes, bool] | None = None
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise CacheIo(f"cannot read cache {self.path}: {exc}") from exc
        lines = data.split(b"\n")
        torn = False
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                self._entries[record["request_id"]] = record["reply"]
            except (ValueError, KeyError, TypeError) as exc:
                if number < len(lines):
                    raise CacheIo(f"cannot read cache {self.path}: line {number}: {exc}") from exc
                self.torn_lines += 1
                torn = True
        if lines[-1]:
            self._open_tail = (len(data) - len(lines[-1]), lines[-1], torn)

    def get(self, request_id: str) -> str | None:
        return self._entries.get(request_id)

    def put(self, request_id: str, reply: str) -> None:
        record = {"request_id": request_id, "timestamp": time.time(), "reply": reply}
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        try:
            with open(self.path, "a+b") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)  # released on close
                handle.write(self._close_tail(handle) + line)
        except OSError as exc:
            raise CacheIo(f"cannot write cache {self.path}: {exc}") from exc
        self._entries[request_id] = reply

    def _close_tail(self, handle) -> bytes:
        """Cut off a torn last line, or return the newline an unterminated one
        lacks. Only while that line still ends the file byte for byte:
        another writer may have closed it and appended since."""
        open_tail, self._open_tail = self._open_tail, None
        if open_tail is None:
            return b""
        offset, tail, torn = open_tail
        handle.seek(offset)
        if handle.read() != tail:
            return b""
        if torn:
            handle.truncate(offset)
            return b""
        return b"\n"

    def __len__(self) -> int:
        return len(self._entries)


class ReferenceOracle:
    """Executes a hidden ground-truth SQL on the request's database."""

    tag = "reference"

    def __init__(self, gold_sql: str):
        self.gold_sql = gold_sql

    def predict(self, request: OracleRequest) -> OraclePrediction:
        outcome = execute(request.session, self.gold_sql)
        if outcome.kind is not OutcomeKind.OK:
            return OraclePrediction.unavailable(f"gold-{outcome.kind.value}")
        assert outcome.result is not None
        return OraclePrediction.predicted(outcome.result)

    def raw_reply(self, request: OracleRequest) -> str:
        outcome = execute(request.session, self.gold_sql)
        if outcome.kind is not OutcomeKind.OK or outcome.result is None:
            raise ParseFailure(f"gold SQL failed: {outcome.kind.value}")
        return render_answer(outcome.result)


class RemoteOracle:
    """Generic chat-completion client; the reply goes through parse_answer."""

    tag = "remote"

    def __init__(
        self,
        base_url: str,
        model: str,
        session: "requests.Session | None" = None,
        sleep=time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        if session is None:
            import requests  # here, not at module load: only this backend needs it

            session = requests.Session()
        self.session = session
        self._sleep = sleep

    def raw_reply(self, request: OracleRequest) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt.text}],
            "temperature": TEMPERATURE,
        }
        last_exc: Exception | None = None
        for attempt in range(RETRIES + 1):
            if attempt:
                self._sleep(BACKOFF_S * (2 ** (attempt - 1)))
            try:
                response = self.session.post(
                    f"{self.base_url}/chat/completions",
                    headers=headers,
                    json=body,
                    timeout=TIMEOUT_S,
                )
                response.raise_for_status()
                data = response.json()
                return data["choices"][0]["message"]["content"]
            except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
                last_exc = exc
        raise ConnectionError(f"remote oracle failed after {RETRIES + 1} attempts: {last_exc}")

    def predict(self, request: OracleRequest) -> OraclePrediction:
        try:
            raw = self.raw_reply(request)
        except ConnectionError:
            return OraclePrediction.unavailable("transport")
        try:
            return OraclePrediction.predicted(parse_answer(raw))
        except ParseFailure:
            return OraclePrediction.unavailable("parse")


class ReplayOracle:
    """Serves raw replies from a ReplyCache; misses hit the delegate, if any.

    The delegate must expose raw_reply(request) so its answers can be cached
    verbatim and replayed byte-for-byte later.
    """

    tag = "replay"

    def __init__(self, cache: ReplyCache, delegate=None):
        self.cache = cache
        self.delegate = delegate

    def predict(self, request: OracleRequest) -> OraclePrediction:
        raw = self.cache.get(request.request_id)
        if raw is None:
            if self.delegate is None:
                return OraclePrediction.unavailable("cache-miss")
            try:
                raw = self.delegate.raw_reply(request)
            except (ConnectionError, ParseFailure):
                return OraclePrediction.unavailable("transport")
            self.cache.put(request.request_id, raw)
        try:
            return OraclePrediction.predicted(parse_answer(raw))
        except ParseFailure:
            return OraclePrediction.unavailable("parse")


class NoisyOracle:
    """Wraps an oracle and corrupts its answer with probability 1 - accuracy.

    Corruption appends a sentinel row, which changes the row count and hence
    fails both the exact and the relaxed comparison against the true result.
    The coin flip is a pure function of (seed, request_id).
    """

    tag = "noisy"

    def __init__(self, inner, accuracy: float, seed: int = 0):
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError("accuracy must be within [0, 1]")
        self.inner = inner
        self.accuracy = accuracy
        self.seed = seed

    def predict(self, request: OracleRequest) -> OraclePrediction:
        prediction = self.inner.predict(request)
        if not prediction.is_available:
            return prediction
        rng = random.Random(f"{self.seed}:{request.request_id}")
        if rng.random() < self.accuracy:
            return prediction
        result = prediction.result
        assert result is not None
        if result.columns:
            sentinel = tuple(999983 + i for i in range(len(result.columns)))
            corrupted = ExecutionResult(
                columns=result.columns,
                rows=result.rows + (sentinel,),
                order_significant=result.order_significant,
            )
        else:
            corrupted = ExecutionResult(columns=("?",), rows=((999983,),))
        return OraclePrediction.predicted(corrupted)
