import multiprocessing
import os
import stat
import threading
from pathlib import Path

import pytest

from policytrace import gateway
from policytrace.gateway import (
    ASSESS_PROFILE,
    PRT_GEN_PROFILE,
    ContextOverflowError,
    MockScriptEntry,
    ModelHandle,
    ModelResponse,
    OpenAICompatProvider,
    Provider,
    ProviderError,
    RateLimitedError,
    RetryPolicy,
    SamplingConfig,
    UnmatchedPromptError,
    _cache_read,
    _cache_write,
    cache_key,
    complete,
    mock_provider,
    run_ordered,
)


def test_sampling_profiles():
    assert PRT_GEN_PROFILE.temperature == 0.7
    assert PRT_GEN_PROFILE.max_new_tokens == 2048
    assert ASSESS_PROFILE.temperature == 0.7
    assert ASSESS_PROFILE.max_new_tokens == 8192


@pytest.mark.parametrize(
    "kwargs",
    [
        {"temperature": -0.1},
        {"temperature": 2.5},
        {"top_p": 0.0},
        {"top_p": 1.5},
        {"max_new_tokens": 0},
    ],
)
def test_sampling_config_validation(kwargs):
    with pytest.raises(ValueError):
        SamplingConfig(**kwargs)


def test_mock_first_match_wins():
    handle = mock_provider(
        [
            MockScriptEntry(pattern="alpha", text="first"),
            MockScriptEntry(pattern="alph", text="second"),
        ]
    )
    assert complete(handle, "the alpha prompt", ASSESS_PROFILE).text == "first"


def test_mock_unmatched_fails_loudly():
    handle = mock_provider({"needle": "reply"})
    with pytest.raises(UnmatchedPromptError):
        complete(handle, "haystack only", ASSESS_PROFILE)


def test_empty_prompt_rejected():
    handle = mock_provider({"x": "y"})
    with pytest.raises(ValueError):
        complete(handle, "", ASSESS_PROFILE)


def test_context_overflow_not_retried():
    calls = []

    class Counting(Provider):
        def generate(self, model_id, prompt, cfg):
            calls.append(prompt)
            return "ok", None, 1, 1

    handle = ModelHandle(
        provider_id="mock", model_id="m", provider=Counting(), context_window=100
    )
    with pytest.raises(ContextOverflowError):
        complete(handle, "p" * 500, SamplingConfig(max_new_tokens=99))
    assert calls == []  # rejected before any provider call


def test_rate_limit_retry_then_success():
    attempts = {"n": 0}

    class Flaky(Provider):
        def generate(self, model_id, prompt, cfg):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RateLimitedError("slow down")
            return "finally", None, 1, 1

    handle = ModelHandle(
        provider_id="mock",
        model_id="m",
        provider=Flaky(),
        retry=RetryPolicy(base_delay_s=0.0, max_attempts=5),
    )
    assert complete(handle, "hi", ASSESS_PROFILE).text == "finally"
    assert attempts["n"] == 3


def test_rate_limit_exhaustion():
    class AlwaysLimited(Provider):
        def generate(self, model_id, prompt, cfg):
            raise RateLimitedError("no")

    handle = ModelHandle(
        provider_id="mock",
        model_id="m",
        provider=AlwaysLimited(),
        retry=RetryPolicy(base_delay_s=0.0, max_attempts=3),
    )
    with pytest.raises(RateLimitedError):
        complete(handle, "hi", ASSESS_PROFILE)


def test_cache_key_sensitivity():
    handle = mock_provider({"": "x"})
    base = cache_key(handle, "prompt", ASSESS_PROFILE)
    assert cache_key(handle, "prompt", ASSESS_PROFILE) == base
    assert cache_key(handle, "other", ASSESS_PROFILE) != base
    assert cache_key(handle, "prompt", SamplingConfig(temperature=0.1)) != base
    assert cache_key(handle, "prompt", SamplingConfig(seed=7)) != base


def test_cache_key_golden():
    # Pins the on-disk cache: a changed key orphans every stored entry.
    handle = mock_provider({"": "x"})
    prompt = "Assess Article 5(1) — naïve prompt"
    assert cache_key(handle, prompt, ASSESS_PROFILE) == (
        "8fe3385dae20310afd84c0b2697499021ae0e89474cab1d4cc7c2ffacf789af4"
    )
    cfg = SamplingConfig(temperature=0.0, top_p=0.5, max_new_tokens=16, seed=7)
    assert cache_key(handle, prompt, cfg) == (
        "24473e76bac203fc019e02d7c4c082684fbbadb71f6ec6cc58017cb075f65a46"
    )


def test_cache_entry_golden(tmp_path):
    # Pins an entry file's bytes: ModelResponse's fields in order, without cache_hit.
    key = "ab" + "0" * 62
    response = ModelResponse(
        text="Artículo 5 — COMPLIANT", raw_cot="naïve ✓", prompt_tokens=12,
        completion_tokens=3, latency_ms=250,
    )
    _cache_write(tmp_path, key, response)
    assert (tmp_path / "ab" / f"{key}.json").read_text(encoding="utf-8") == (
        '{"text": "Artículo 5 — COMPLIANT", "raw_cot": "naïve ✓", "prompt_tokens": 12, '
        '"completion_tokens": 3, "latency_ms": 250}'
    )
    cached = _cache_read(tmp_path, key)
    assert cached == ModelResponse(**{**vars(response), "cache_hit": True})
    assert cached.cache_hit is True


@pytest.mark.parametrize("concurrency", [1, 2])
def test_complete_without_cache_dir_computes_no_key(monkeypatch, concurrency):
    def no_key(*args):
        raise AssertionError("cache_key called without a cache_dir")

    monkeypatch.setattr(gateway, "cache_key", no_key)
    handle = mock_provider({"": "x"})
    assert complete(handle, "ping", ASSESS_PROFILE).text == "x"
    call = lambda prompt: complete(handle, prompt, ASSESS_PROFILE).text  # noqa: E731
    outcomes = list(run_ordered(call, ["a", "b", "c"], concurrency))
    assert outcomes == [("a", "x", None), ("b", "x", None), ("c", "x", None)]


def test_disk_cache_round_trip(tmp_path):
    calls = {"n": 0}

    class Counting(Provider):
        def generate(self, model_id, prompt, cfg):
            calls["n"] += 1
            return "cached reply", "inner thoughts", 10, 5

    handle = ModelHandle(
        provider_id="mock",
        model_id="m",
        supports_raw_cot=True,
        provider=Counting(),
        cache_dir=tmp_path / "cache",
    )
    first = complete(handle, "same prompt", ASSESS_PROFILE)
    second = complete(handle, "same prompt", ASSESS_PROFILE)
    assert calls["n"] == 1
    assert not first.cache_hit
    assert second.cache_hit
    assert second.text == "cached reply"
    assert second.raw_cot == "inner thoughts"


def test_raw_cot_dropped_without_support():
    handle = mock_provider(
        [MockScriptEntry(pattern="q", text="a", raw_cot="hidden")], supports_raw_cot=False
    )
    assert complete(handle, "q", ASSESS_PROFILE).raw_cot is None


def test_raw_cot_kept_with_support():
    handle = mock_provider(
        [MockScriptEntry(pattern="q", text="a", raw_cot="hidden")], supports_raw_cot=True
    )
    assert complete(handle, "q", ASSESS_PROFILE).raw_cot == "hidden"


def _write_entries(cache_dir, key, writer, barrier, n):
    barrier.wait(60)
    for i in range(n):
        _cache_write(Path(cache_dir), key, ModelResponse(text=f"{writer}-{i}"))


def test_cache_write_from_two_processes_leaves_one_whole_entry(tmp_path):
    # Two runs sharing a cache dir can miss the same key at the same time.
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    key = "ab" + "0" * 62
    writers = [
        ctx.Process(target=_write_entries, args=(str(tmp_path), key, w, barrier, 300))
        for w in "xy"
    ]
    for proc in writers:
        proc.start()
    for proc in writers:
        proc.join(120)
    assert [proc.is_alive() for proc in writers] == [False, False]
    assert [proc.exitcode for proc in writers] == [0, 0]  # no writer raised
    assert _cache_read(tmp_path, key).text in {"x-299", "y-299"}
    assert list(tmp_path.rglob("*.tmp")) == []


def test_cache_write_that_fails_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("policytrace.gateway.os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        _cache_write(tmp_path, "ab" + "0" * 62, ModelResponse(text="x"))
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_cache_entry_mode_follows_the_umask(tmp_path):
    key = "ab" + "0" * 62
    old = os.umask(0o022)
    try:
        _cache_write(tmp_path, key, ModelResponse(text="x"))
    finally:
        os.umask(old)
    assert stat.S_IMODE(next(tmp_path.rglob("*.json")).stat().st_mode) == 0o644


def test_load_provider_config_mock(tmp_path):
    import json

    from policytrace.gateway import load_provider_config

    config = {
        "provider_id": "mock",
        "script": [{"pattern": "ping", "text": "pong", "raw_cot": "why pong"}],
        "models": [
            {"model_id": "m1", "supports_raw_cot": True, "price_in_usd_per_1m": 0.4}
        ],
    }
    path = tmp_path / "providers.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    handles = load_provider_config(path)
    assert set(handles) == {"m1"}
    response = complete(handles["m1"], "ping", ASSESS_PROFILE)
    assert response.text == "pong"
    assert response.raw_cot == "why pong"
    assert handles["m1"].price_in_usd_per_1m == 0.4


@pytest.mark.parametrize(
    "key,value,what",
    [
        ("supports_raw_cot", "no", "bool"),
        ("supports_raw_cot", 1, "bool"),
        ("context_window", "big", "int"),
        ("context_window", 4096.0, "int"),
        ("context_window", True, "int"),
        ("price_in_usd_per_1m", "0.4", "int or float"),
        ("price_out_usd_per_1m", None, "int or float"),
    ],
    ids=["flag-string", "flag-int", "window-string", "window-float", "window-bool",
         "price-string", "price-null"],
)
def test_a_model_option_of_the_wrong_type_is_an_error(tmp_path, key, value, what):
    import json

    from policytrace.gateway import ProviderConfigError, load_provider_config

    config = {"provider_id": "mock", "script": [], "models": [{"model_id": "m1", key: value}]}
    path = tmp_path / "providers.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(ProviderConfigError) as info:
        load_provider_config(path)
    assert str(info.value) == (
        f"providers file {path}: malformed: model 'm1': {key} must be {what}, got {value!r}"
    )


@pytest.mark.parametrize("concurrency", [1, 4])
def test_run_ordered_keeps_input_order_and_yields_errors(concurrency):
    def square(i):
        threading.Event().wait(0.001 * (10 - i))  # later items finish first
        if i % 3 == 0:
            raise ValueError(f"bad {i}")
        return i * i

    outcomes = list(run_ordered(square, range(10), concurrency))
    assert [item for item, _, _ in outcomes] == list(range(10))
    for item, result, err in outcomes:
        if item % 3 == 0:
            assert result is None and isinstance(err, ValueError) and str(err) == f"bad {item}"
        else:
            assert result == item * item and err is None


def test_run_ordered_bounds_calls_in_flight():
    active = {"now": 0, "peak": 0}
    lock = threading.Lock()

    def slow(i):
        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        threading.Event().wait(0.005)
        with lock:
            active["now"] -= 1
        return i

    assert [r for _, r, _ in run_ordered(slow, range(24), 3)] == list(range(24))
    assert 1 < active["peak"] <= 3


def test_run_ordered_runs_inline_at_one_and_rejects_zero():
    caller = threading.get_ident()
    assert [r for _, r, _ in run_ordered(lambda _: threading.get_ident(), range(3), 1)] == [
        caller
    ] * 3
    with pytest.raises(ValueError):
        next(run_ordered(str, [1], 0))


@pytest.mark.parametrize("concurrency", [1, 4])
def test_run_ordered_writes_cache_entries_on_the_callers_thread(tmp_path, monkeypatch, concurrency):
    handle = mock_provider({"q": "a"}, cache_dir=tmp_path)
    writers = []

    def recording_write(*args):
        writers.append(threading.get_ident())
        _cache_write(*args)

    monkeypatch.setattr("policytrace.gateway._cache_write", recording_write)

    def ask_twice(i):
        first = complete(handle, f"q{i}", ASSESS_PROFILE)
        return first.cache_hit, complete(handle, f"q{i}", ASSESS_PROFILE).cache_hit

    for i, hits, err in run_ordered(ask_twice, range(8), concurrency):
        assert err is None and hits == (False, True)  # the repeat hits the item's own entry
        assert _cache_read(tmp_path, cache_key(handle, f"q{i}", ASSESS_PROFILE)).text == "a"
    assert writers == [threading.get_ident()] * 8


@pytest.mark.parametrize("concurrency", [1, 2])
def test_run_ordered_fails_the_item_whose_cache_write_fails(tmp_path, monkeypatch, concurrency):
    handle = mock_provider({"q": "a"}, cache_dir=tmp_path)
    full = cache_key(handle, "q1", ASSESS_PROFILE)

    def write(cache_dir, key, response):
        if key == full:
            raise OSError("disk full")
        _cache_write(cache_dir, key, response)

    monkeypatch.setattr("policytrace.gateway._cache_write", write)
    ask = lambda i: complete(handle, f"q{i}", ASSESS_PROFILE).text  # noqa: E731
    outcomes = list(run_ordered(ask, range(3), concurrency))
    assert [(i, r) for i, r, _ in outcomes] == [(0, "a"), (1, None), (2, "a")]
    assert isinstance(outcomes[1][2], OSError) and outcomes[0][2] is outcomes[2][2] is None


def test_run_ordered_close_cancels_queued_calls():
    started = []
    release = threading.Event()

    def blocked(i):
        started.append(i)
        if i > 0:
            release.wait(5)
        return i

    outcomes = run_ordered(blocked, range(100), 2)
    assert next(outcomes) == (0, 0, None)
    threading.Timer(0.2, release.set).start()
    outcomes.close()  # cancels the queued calls, then waits for the two running ones
    assert release.is_set() and set(started) <= {0, 1, 2}


@pytest.mark.parametrize(
    "body",
    [b"<html>bad gateway</html>", b"{}", b'{"choices": []}', b'{"choices": [{"message": null}]}'],
    ids=["not_json", "no_choices", "empty_choices", "null_message"],
)
def test_malformed_http_200_reply_is_a_provider_error(monkeypatch, body):
    import requests

    def post(url, json, headers, timeout):
        resp = requests.Response()
        resp.status_code = 200
        resp._content = body
        return resp

    monkeypatch.setattr(requests, "post", post)
    provider = OpenAICompatProvider("http://localhost:1", "NO_SUCH_KEY_ENV")
    with pytest.raises(ProviderError, match=r"^HTTP 200: malformed reply: "):
        provider.generate("m", "prompt", ASSESS_PROFILE)


@pytest.mark.parametrize(
    "body, tokens",
    [
        (b'{"choices": [{"message": {"content": "0,1,2"}}], "usage": null}', (0, 0)),
        (b'{"choices": [{"message": {"content": "0,1,2"}}]}', (0, 0)),
        (b'{"choices": [{"message": {"content": "0,1,2"}}], '
         b'"usage": {"prompt_tokens": 7, "completion_tokens": 3}}', (7, 3)),
    ],
    ids=["null_usage", "no_usage", "usage"],
)
def test_http_200_reply_reads_missing_usage_as_zero_tokens(monkeypatch, body, tokens):
    import requests

    def post(url, json, headers, timeout):
        resp = requests.Response()
        resp.status_code = 200
        resp._content = body
        return resp

    monkeypatch.setattr(requests, "post", post)
    provider = OpenAICompatProvider("http://localhost:1", "NO_SUCH_KEY_ENV")
    assert provider.generate("m", "prompt", ASSESS_PROFILE) == ("0,1,2", None, *tokens)
