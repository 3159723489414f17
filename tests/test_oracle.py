import fcntl
import json
import os
import subprocess
import sys
import threading

import pytest
import requests

from sqlrerank.errors import CacheIo, ParseFailure
from sqlrerank.executor import ExecutionResult, Session
from sqlrerank.oracle import (
    API_KEY_ENV,
    NoisyOracle,
    OraclePrediction,
    ReferenceOracle,
    RemoteOracle,
    ReplayOracle,
    ReplyCache,
    build_request,
    request_id_for,
)
from sqlrerank.promptgen import DbFormat, PromptConfig

from conftest import make_instance


def req(db, question="How many students are there?"):
    return build_request(Session(db), question, PromptConfig())


# --- request ids ----------------------------------------------------------------


def test_request_id_shape(student_instance):
    rid = request_id_for(student_instance, "q", PromptConfig())
    assert len(rid) == 64
    assert all(c in "0123456789abcdef" for c in rid)


def test_request_id_sensitivity(student_instance, student_schema):
    base = request_id_for(student_instance, "q", PromptConfig())
    assert base == request_id_for(student_instance, "q", PromptConfig())
    assert base != request_id_for(student_instance, "q2", PromptConfig())
    assert base != request_id_for(
        student_instance, "q", PromptConfig(db_format=DbFormat.SQLITE)
    )
    other = make_instance(
        student_schema,
        {"student": [(1, "ann", 20)], "enrollment": []},
    )
    assert base != request_id_for(other, "q", PromptConfig())


def test_build_request(student_instance):
    r = req(student_instance)
    assert r.session.db is student_instance
    assert r.prompt.text.endswith("Question: How many students are there?\n\nAnswer:\n")
    assert r.request_id == request_id_for(
        student_instance, "How many students are there?", PromptConfig()
    )


# --- reply cache -------------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = ReplyCache(path)
    assert len(cache) == 0
    assert cache.get("abc") is None
    cache.put("abc", "n\n3")
    assert cache.get("abc") == "n\n3"
    assert len(cache) == 1
    # A second instance reads the same file.
    again = ReplyCache(path)
    assert again.get("abc") == "n\n3"


def test_cache_last_write_wins(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = ReplyCache(path)
    cache.put("k", "first")
    cache.put("k", "second")
    assert cache.get("k") == "second"
    assert ReplyCache(path).get("k") == "second"
    with open(path) as handle:
        assert len(handle.readlines()) == 2  # append-only


def test_cache_skips_blank_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    record = json.dumps({"request_id": "k", "timestamp": 0, "reply": "r"})
    path.write_text(f"\n{record}\n\n")
    assert ReplyCache(str(path)).get("k") == "r"


def test_cache_skips_torn_last_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = json.dumps({"request_id": "k", "timestamp": 0, "reply": "r"})
    torn = json.dumps({"request_id": "t", "timestamp": 0, "reply": "lost"})[:20]
    path.write_text(f"{good}\n{torn}")
    cache = ReplyCache(str(path))
    assert (cache.get("k"), cache.get("t"), cache.torn_lines) == ("r", None, 1)
    # The next append cuts the torn bytes off instead of extending that line.
    cache.put("n", "new")
    again = ReplyCache(str(path))
    assert (again.get("k"), again.get("n"), again.torn_lines) == ("r", "new", 0)


def test_cache_ends_unterminated_last_record_before_appending(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps({"request_id": "k", "timestamp": 0, "reply": "r"}))
    cache = ReplyCache(str(path))
    assert (cache.get("k"), cache.torn_lines) == ("r", 0)
    cache.put("n", "new")
    again = ReplyCache(str(path))
    assert (again.get("k"), again.get("n"), again.torn_lines) == ("r", "new", 0)


def test_cache_torn_line_left_alone_after_another_append(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = json.dumps({"request_id": "k", "timestamp": 0, "reply": "r"})
    path.write_text(f"{good}\n{good[:9]}")
    first, second = ReplyCache(str(path)), ReplyCache(str(path))
    first.put("a", "1")
    second.put("b", "2")  # the file changed since second loaded it: no cut
    again = ReplyCache(str(path))
    assert (again.get("a"), again.get("b")) == ("1", "2")


def test_cache_keeps_a_record_as_long_as_the_torn_line(tmp_path, monkeypatch):
    monkeypatch.setattr("sqlrerank.oracle.time.time", lambda: 1.0)
    path = tmp_path / "cache.jsonl"
    good = json.dumps({"request_id": "k", "timestamp": 0, "reply": "r"})
    first_line = json.dumps({"reply": "1", "request_id": "a", "timestamp": 1.0}, sort_keys=True)
    torn = first_line[:-1] + "xx"  # as long as first's record with its newline
    path.write_text(f"{good}\n{torn}")
    first, second = ReplyCache(str(path)), ReplyCache(str(path))
    first.put("a", "1")
    assert path.stat().st_size == len(good) + 1 + len(torn)
    second.put("b", "2")  # the torn line is gone: second must not cut again
    again = ReplyCache(str(path))
    assert (again.get("k"), again.get("a"), again.get("b"), again.torn_lines) == ("r", "1", "2", 0)


def test_cache_put_waits_for_the_file_lock(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = json.dumps({"request_id": "k", "timestamp": 0, "reply": "r"})
    path.write_text(f"{good}\n{good[:9]}")
    cache = ReplyCache(str(path))
    with open(path, "rb") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        writer = threading.Thread(target=cache.put, args=("a", "1"))
        writer.start()
        writer.join(0.2)
        assert writer.is_alive()  # blocked before cutting or appending
        assert path.read_text() == f"{good}\n{good[:9]}"
    writer.join()
    assert ReplyCache(str(path)).get("a") == "1"


def test_one_cache_shared_by_threads_keeps_every_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = json.dumps({"request_id": "k", "timestamp": 0, "reply": "r"})
    path.write_text(f"{good}\n{good[:9]}")  # the first put cuts the torn line
    cache = ReplyCache(str(path))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writers = [
            threading.Thread(target=lambda w=w: [cache.put(f"{w}-{i}", str(i)) for i in range(25)])
            for w in range(8)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(writer.is_alive() for writer in writers)
    again = ReplyCache(str(path))
    assert (len(again), again.torn_lines) == (1 + 8 * 25, 0)
    assert all(again.get(f"{w}-{i}") == str(i) for w in range(8) for i in range(25))


def test_import_leaves_requests_unloaded():
    code = "import sys, sqlrerank.cli; print('requests' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cache_corrupt_middle_line_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = json.dumps({"request_id": "k", "timestamp": 0, "reply": "r"})
    path.write_text(f"{good}\n{good[:20]}\n{good}\n")
    with pytest.raises(CacheIo, match="line 2"):
        ReplyCache(str(path))


def test_cache_corrupt_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("not json at all\n")
    with pytest.raises(CacheIo):
        ReplyCache(str(path))
    path.write_text('{"missing": "request_id"}\n')
    with pytest.raises(CacheIo):
        ReplyCache(str(path))


# --- reference oracle ------------------------------------------------------------------


def test_reference_oracle_runs_gold_on_request_db(student_instance, student_schema):
    oracle = ReferenceOracle("SELECT count(*) FROM student")
    assert oracle.predict(req(student_instance)).result.rows == ((4,),)
    smaller = make_instance(
        student_schema, {"student": [(1, "ann", 20)], "enrollment": []}
    )
    # The answer tracks the database in the request, not any fixed instance.
    assert oracle.predict(req(smaller)).result.rows == ((1,),)


def test_reference_oracle_gold_error(student_instance):
    oracle = ReferenceOracle("SELECT nope FROM student")
    p = oracle.predict(req(student_instance))
    assert not p.is_available
    assert p.unavailable_reason == "gold-error"


def test_reference_oracle_raw_reply(student_instance):
    oracle = ReferenceOracle("SELECT count(*) FROM student")
    assert oracle.raw_reply(req(student_instance)) == "count(*)\n4"
    with pytest.raises(ParseFailure):
        ReferenceOracle("SELECT nope FROM student").raw_reply(req(student_instance))


# --- remote oracle ------------------------------------------------------------------------


class FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, outcomes):
        # outcomes: list of FakeResponse or Exception, consumed per call
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, headers=None, json=None, timeout=None):
        self.calls.append({"url": url, "headers": headers, "json": json})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def reply_payload(content):
    return {"choices": [{"message": {"content": content}}]}


def test_remote_oracle_success(student_instance, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([FakeResponse(reply_payload("count(*)\n4"))])
    oracle = RemoteOracle("http://fake/v1/", "test-model", session=session, sleep=lambda s: None)
    p = oracle.predict(req(student_instance))
    assert p.result.rows == ((4,),)
    call = session.calls[0]
    assert call["url"] == "http://fake/v1/chat/completions"
    assert "Authorization" not in call["headers"]
    assert call["json"]["model"] == "test-model"
    assert call["json"]["temperature"] == 0.0
    assert call["json"]["messages"][0]["role"] == "user"
    assert call["json"]["messages"][0]["content"].endswith("Answer:\n")


def test_remote_oracle_bearer_header(student_instance, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-test-123")
    session = FakeSession([FakeResponse(reply_payload("n\n1"))])
    oracle = RemoteOracle("http://fake", "m", session=session, sleep=lambda s: None)
    oracle.predict(req(student_instance))
    assert session.calls[0]["headers"]["Authorization"] == "Bearer sk-test-123"


def test_remote_oracle_retries_with_backoff(student_instance, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    slept = []
    session = FakeSession(
        [
            requests.ConnectionError("down"),
            FakeResponse({}, status=500),
            FakeResponse(reply_payload("n\n1")),
        ]
    )
    oracle = RemoteOracle("http://fake", "m", session=session, sleep=slept.append)
    p = oracle.predict(req(student_instance))
    assert p.is_available
    assert len(session.calls) == 3
    assert slept == [1.0, 2.0]


def test_remote_oracle_gives_up(student_instance, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([requests.ConnectionError("down")] * 3)
    oracle = RemoteOracle("http://fake", "m", session=session, sleep=lambda s: None)
    p = oracle.predict(req(student_instance))
    assert p.unavailable_reason == "transport"
    assert len(session.calls) == 3
    session2 = FakeSession([requests.ConnectionError("down")] * 3)
    oracle2 = RemoteOracle("http://fake", "m", session=session2, sleep=lambda s: None)
    with pytest.raises(ConnectionError):
        oracle2.raw_reply(req(student_instance))


def test_remote_oracle_unparsable_reply(student_instance, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([FakeResponse(reply_payload("I cannot answer that question."))])
    oracle = RemoteOracle("http://fake", "m", session=session, sleep=lambda s: None)
    assert oracle.predict(req(student_instance)).unavailable_reason == "parse"


def test_remote_oracle_malformed_payload(student_instance, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([FakeResponse({"choices": []})] * 3)
    oracle = RemoteOracle("http://fake", "m", session=session, sleep=lambda s: None)
    assert oracle.predict(req(student_instance)).unavailable_reason == "transport"


# --- replay oracle --------------------------------------------------------------------------


class CountingDelegate:
    def __init__(self, reply="n\n7"):
        self.reply = reply
        self.calls = 0

    def raw_reply(self, request):
        self.calls += 1
        return self.reply


def test_replay_hit_without_delegate(tmp_path, student_instance):
    cache = ReplyCache(str(tmp_path / "c.jsonl"))
    r = req(student_instance)
    cache.put(r.request_id, "n\n5")
    oracle = ReplayOracle(cache)
    assert oracle.predict(r).result.rows == ((5,),)


def test_replay_miss_without_delegate(tmp_path, student_instance):
    oracle = ReplayOracle(ReplyCache(str(tmp_path / "c.jsonl")))
    assert oracle.predict(req(student_instance)).unavailable_reason == "cache-miss"


def test_replay_miss_fills_cache(tmp_path, student_instance):
    cache = ReplyCache(str(tmp_path / "c.jsonl"))
    delegate = CountingDelegate()
    oracle = ReplayOracle(cache, delegate)
    r = req(student_instance)
    assert oracle.predict(r).result.rows == ((7,),)
    assert oracle.predict(r).result.rows == ((7,),)
    assert delegate.calls == 1  # second hit was served from the cache
    assert ReplyCache(cache.path).get(r.request_id) == "n\n7"


def test_replay_delegate_failure(tmp_path, student_instance):
    class Failing:
        def raw_reply(self, request):
            raise ConnectionError("no network")

    oracle = ReplayOracle(ReplyCache(str(tmp_path / "c.jsonl")), Failing())
    assert oracle.predict(req(student_instance)).unavailable_reason == "transport"


def test_replay_cached_junk(tmp_path, student_instance):
    cache = ReplyCache(str(tmp_path / "c.jsonl"))
    r = req(student_instance)
    cache.put(r.request_id, "pure prose with no table")
    assert ReplayOracle(cache).predict(r).unavailable_reason == "parse"


# --- noisy oracle ----------------------------------------------------------------------------


GOLD = "SELECT count(*) FROM student"


def test_noisy_accuracy_validation():
    with pytest.raises(ValueError):
        NoisyOracle(ReferenceOracle(GOLD), accuracy=1.5)
    with pytest.raises(ValueError):
        NoisyOracle(ReferenceOracle(GOLD), accuracy=-0.1)


def test_noisy_full_accuracy_is_passthrough(student_instance):
    inner = ReferenceOracle(GOLD)
    noisy = NoisyOracle(inner, accuracy=1.0)
    r = req(student_instance)
    assert noisy.predict(r) == inner.predict(r)


def test_noisy_zero_accuracy_always_corrupts(student_instance):
    noisy = NoisyOracle(ReferenceOracle(GOLD), accuracy=0.0)
    r = req(student_instance)
    p = noisy.predict(r)
    true = ReferenceOracle(GOLD).predict(r).result
    assert p.result.columns == true.columns
    assert p.result.order_significant == true.order_significant
    assert len(p.result.rows) == len(true.rows) + 1
    assert p.result.rows[:-1] == true.rows
    assert p.result.rows[-1] == (999983,)


def test_noisy_deterministic(student_instance):
    r = req(student_instance)
    a = NoisyOracle(ReferenceOracle(GOLD), accuracy=0.5, seed=3).predict(r)
    b = NoisyOracle(ReferenceOracle(GOLD), accuracy=0.5, seed=3).predict(r)
    assert a == b


def test_noisy_correctness_monotone_in_accuracy(student_instance, student_schema):
    """The same uniform draw backs every accuracy level, so a request answered
    correctly at accuracy p stays correct at every p' > p."""
    requests_pool = [
        req(student_instance, f"question variant {i}") for i in range(40)
    ]
    true = ReferenceOracle(GOLD)
    levels = [0.0, 0.25, 0.5, 0.75, 1.0]
    for r in requests_pool:
        want = true.predict(r).result
        previous = False
        for p in levels:
            got = NoisyOracle(true, accuracy=p, seed=11).predict(r).result
            correct = got == want
            assert not (previous and not correct), "correctness regressed as accuracy rose"
            previous = correct
        assert correct  # p = 1.0 is always faithful


def test_noisy_passes_through_unavailable(student_instance):
    noisy = NoisyOracle(ReferenceOracle("SELECT broken FROM student"), accuracy=0.0)
    p = noisy.predict(req(student_instance))
    assert not p.is_available
    assert p.unavailable_reason == "gold-error"


def test_noisy_zero_column_corruption(student_instance):
    class ZeroCol:
        def predict(self, request):
            return OraclePrediction.predicted(ExecutionResult((), ()))

    noisy = NoisyOracle(ZeroCol(), accuracy=0.0)
    p = noisy.predict(req(student_instance))
    assert p.result.columns == ("?",)
    assert p.result.rows == ((999983,),)
