import json
import multiprocessing
import os
import stat
import threading
import time
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
    TransientError,
    UnmatchedPromptError,
    _cache_read,
    _cache_write,
    ask_twice,
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


def test_a_prompt_that_fills_the_context_window_exactly_is_sent():
    handle = mock_provider({"p": "ok"}, context_window=100)
    assert complete(handle, "p" * 40, SamplingConfig(max_new_tokens=90)).text == "ok"  # 10 + 90
    with pytest.raises(ContextOverflowError):
        complete(handle, "p" * 41, SamplingConfig(max_new_tokens=90))  # 11 + 90


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


def test_ask_twice_yields_an_error_and_reasks_with_seed_1():
    seeds = []

    class FailsFirst(Provider):
        def generate(self, model_id, prompt, cfg):
            seeds.append(cfg.seed)
            if len(seeds) == 1:
                raise ProviderError("down")
            return "reply", None, 1, 1

    handle = ModelHandle(provider_id="p", model_id="m", provider=FailsFirst())
    (text, err), second = ask_twice(handle, "q", ASSESS_PROFILE)
    assert text == "" and isinstance(err, ProviderError) and str(err) == "down"
    assert second == ("reply", None)
    assert seeds == [None, 1]


def test_ask_twice_asks_again_only_when_the_caller_reads_on(tmp_path):
    handle = mock_provider({"q": "a"}, cache_dir=tmp_path)
    asks = ask_twice(handle, "q", ASSESS_PROFILE)
    assert next(asks) == ("a", None)
    assert handle.provider.call_count == 1
    assert next(asks) == ("a", None)  # seed 1 misses the first ask's cache entry
    assert handle.provider.call_count == 2
    assert next(asks, None) is None


def test_ask_twice_does_not_take_a_malformed_cache_entry_for_a_provider_error(tmp_path):
    handle = mock_provider({"q": "a"}, cache_dir=tmp_path)
    key = cache_key(handle, "q", ASSESS_PROFILE)
    (tmp_path / key[:2]).mkdir()
    (tmp_path / key[:2] / f"{key}.json").write_text("{", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^cache entry .*{key}.json: malformed: "):
        next(ask_twice(handle, "q", ASSESS_PROFILE))
    assert handle.provider.call_count == 0


@pytest.mark.parametrize("concurrency", [1, 2])
def test_complete_without_cache_dir_computes_no_key(monkeypatch, concurrency):
    def no_key(*args):
        raise AssertionError("cache_key called without a cache_dir")

    def no_listing(*args):
        raise AssertionError("a cache directory listed without a cache_dir")

    monkeypatch.setattr(gateway, "cache_key", no_key)
    monkeypatch.setattr(gateway, "_cached_keys", no_listing)
    handle = mock_provider({"": "x"})
    assert complete(handle, "ping", ASSESS_PROFILE).text == "x"
    call = lambda prompt: complete(handle, prompt, ASSESS_PROFILE).text  # noqa: E731
    outcomes = list(run_ordered(call, ["a", "b", "c"], concurrency))
    assert outcomes == [("a", "x", None), ("b", "x", None), ("c", "x", None)]


def _entry_path(cache_dir, handle, prompt):
    key = cache_key(handle, prompt, ASSESS_PROFILE)
    return cache_dir / key[:2] / f"{key}.json"


def _put_entry(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"text": text}), encoding="utf-8")


def test_an_entry_on_disk_before_the_first_lookup_is_a_hit(tmp_path):
    handle = mock_provider({"q": "fresh"}, cache_dir=tmp_path)
    _put_entry(_entry_path(tmp_path, handle, "q"), "stored")
    response = complete(handle, "q", ASSESS_PROFILE)
    assert (response.text, response.cache_hit) == ("stored", True)
    assert handle.provider.call_count == 0


def test_an_entry_written_by_another_process_after_the_listing_is_not_read(tmp_path):
    handle = mock_provider({"q": "fresh"}, cache_dir=tmp_path)
    complete(handle, "q0", ASSESS_PROFILE)  # the first lookup lists the directory
    path = _entry_path(tmp_path, handle, "q1")
    _put_entry(path, "stored")
    response = complete(handle, "q1", ASSESS_PROFILE)
    assert (response.text, response.cache_hit) == ("fresh", False)
    assert handle.provider.call_count == 2
    assert _cache_read(tmp_path, path.stem).text == "fresh"  # the call's entry replaced it


def test_an_indexed_entry_deleted_behind_the_gateways_back_is_a_call_not_an_error(tmp_path):
    handle = mock_provider({"q": "fresh"}, cache_dir=tmp_path)
    complete(handle, "q", ASSESS_PROFILE)
    path = _entry_path(tmp_path, handle, "q")
    path.unlink()
    response = complete(handle, "q", ASSESS_PROFILE)
    assert (response.text, response.cache_hit) == ("fresh", False)
    assert handle.provider.call_count == 2
    assert complete(handle, "q", ASSESS_PROFILE).cache_hit and path.exists()


def test_an_indexed_malformed_entry_is_an_error_naming_it(tmp_path):
    handle = mock_provider({"q": "fresh"}, cache_dir=tmp_path)
    path = _entry_path(tmp_path, handle, "q")
    path.parent.mkdir()
    path.write_text('{"text": 5}', encoding="utf-8")
    with pytest.raises(ValueError) as err:
        complete(handle, "q", ASSESS_PROFILE)
    assert str(err.value) == f"cache entry {path}: malformed: text must be str, got 5"
    assert handle.provider.call_count == 0


def test_a_cold_miss_opens_no_file(tmp_path, monkeypatch):
    handle = mock_provider({"q": "fresh"}, cache_dir=tmp_path)
    _put_entry(_entry_path(tmp_path, handle, "q0"), "stored")
    read = gateway._cache_read

    def read_listed(cache_dir, key):
        if key not in gateway._CACHED[cache_dir]:
            raise AssertionError(f"opened {key}, which the listing does not hold")
        return read(cache_dir, key)

    monkeypatch.setattr(gateway, "_cache_read", read_listed)
    assert [complete(handle, p, ASSESS_PROFILE).text for p in ("q0", "q1", "q1")] == [
        "stored", "fresh", "fresh"]
    assert handle.provider.call_count == 1


def test_eight_workers_making_the_first_lookup_at_once_list_the_directory_once(
        tmp_path, monkeypatch):
    handle = mock_provider({"q": "fresh"}, cache_dir=tmp_path)
    for prompt in ("s0", "s1"):
        _put_entry(_entry_path(tmp_path, handle, prompt), "stored")
    shards = {p.parent.name for p in tmp_path.rglob("*.json")}
    scandir, listed = os.scandir, []

    def slow_scandir(path):
        listed.append(Path(path))
        time.sleep(0.02)  # the other workers reach the listing meanwhile
        return scandir(path)

    monkeypatch.setattr(gateway.os, "scandir", slow_scandir)
    barrier = threading.Barrier(8)

    def ask(i):
        barrier.wait(10)
        return complete(handle, f"q{i}", ASSESS_PROFILE).text

    outcomes = list(run_ordered(ask, range(8), 8))
    assert outcomes == [(i, "fresh", None) for i in range(8)]
    assert sorted(listed) == sorted([tmp_path] + [tmp_path / s for s in shards])


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
    "entry,key,value,detail",
    [
        ("models", "supports_raw_cot", "no", "supports_raw_cot must be bool, got 'no'"),
        ("models", "supports_raw_cot", 1, "supports_raw_cot must be bool, got 1"),
        ("models", "context_window", "big", "context_window must be int, got 'big'"),
        ("models", "context_window", 4096.0, "context_window must be int, got 4096.0"),
        ("models", "context_window", True, "context_window must be int, got True"),
        ("models", "price_in_usd_per_1m", "0.4",
         "price_in_usd_per_1m must be int or float, got '0.4'"),
        ("models", "price_out_usd_per_1m", None,
         "price_out_usd_per_1m must be int or float, got None"),
        ("models", "colour", "red", "unknown key 'colour'"),
        ("script", "pattern", 5, "pattern must be str, got 5"),
        ("models", "price_in_usd_per_1m", -1, "prices must be >= 0"),
        ("models", "model_id", "", "model_id must be non-empty"),
        ("script", "pattern", "\ud800",
         "'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed"),
        ("script", "text", "po\udfffng",
         "'utf-8' codec can't encode character '\\udfff' in position 2: surrogates not allowed"),
        ("script", "raw_cot", "\udc80",
         "'utf-8' codec can't encode character '\\udc80' in position 0: surrogates not allowed"),
    ],
    ids=["flag-string", "flag-int", "window-string", "window-float", "window-bool",
         "price-string", "price-null", "model-unknown-key", "script-pattern-int",
         "price-negative", "model-id-empty", "script-pattern-surrogate",
         "script-text-surrogate", "script-raw-cot-surrogate"],
)
def test_a_model_option_of_the_wrong_type_is_an_error(tmp_path, entry, key, value, detail):
    import json

    from policytrace.gateway import ProviderConfigError, load_provider_config

    config = {
        "provider_id": "mock",
        "script": [{"pattern": "ping", "text": "pong"}],
        "models": [{"model_id": "m1"}],
    }
    config[entry][0][key] = value
    path = tmp_path / "providers.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(ProviderConfigError) as info:
        load_provider_config(path)
    assert str(info.value) == f"providers file {path}: malformed: {detail}"


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


@pytest.mark.parametrize("concurrency", [2, 8])
def test_run_ordered_begins_at_most_twice_its_concurrency_calls_while_the_head_waits(
    concurrency
):
    begun, seen = [], []
    release = threading.Event()

    def head_waits(i):
        begun.append(i)
        if i == 0:
            release.wait(5)
        return i

    def release_head():
        for _ in range(5000):  # wait until the window is full, then a little longer
            if len(begun) >= 2 * concurrency:
                break
            release.wait(0.001)
        release.wait(0.05)  # a call beyond the window would begin in this time
        seen.append(len(begun))
        release.set()

    releaser = threading.Thread(target=release_head)
    releaser.start()
    outcomes = list(run_ordered(head_waits, range(10 * concurrency), concurrency))
    releaser.join(10)
    assert not releaser.is_alive() and seen == [2 * concurrency]
    assert [r for _, r, _ in outcomes] == list(range(10 * concurrency))


def _answer(outcome, body=b"", headers=None):
    """A `gateway._post` stand-in that answers every call with HTTP status `outcome`,
    or raises `outcome` if it is an exception, and logs the calls' JSON bodies."""
    calls = []

    def post(url, body_, headers_, timeout):
        calls.append(json.loads(body_))
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome, headers or {}, body

    post.calls = calls
    return post


@pytest.mark.parametrize(
    "body",
    [b"<html>bad gateway</html>", b"{}", b'{"choices": []}', b'{"choices": [{"message": null}]}',
     b'{"choices": [{"message": {"content": "Final Judgment: \\ud800"}}]}',
     b'{"choices": [{"message": {"content": "ok", "reasoning_content": "\\udfff"}}]}'],
    ids=["not_json", "no_choices", "empty_choices", "null_message", "surrogate_content",
         "surrogate_reasoning_content"],
)
def test_malformed_http_200_reply_is_a_provider_error(monkeypatch, body):
    monkeypatch.setattr(gateway, "_post", _answer(200, body))
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
    monkeypatch.setattr(gateway, "_post", _answer(200, body))
    provider = OpenAICompatProvider("http://localhost:1", "NO_SUCH_KEY_ENV")
    assert provider.generate("m", "prompt", ASSESS_PROFILE) == ("0,1,2", None, *tokens)


def _remote(max_attempts=3, base_delay_s=0.0, **fields):
    return ModelHandle(
        provider_id="remote",
        model_id="m",
        provider=OpenAICompatProvider("http://localhost:1/v1", "NO_SUCH_KEY_ENV"),
        retry=RetryPolicy(base_delay_s=base_delay_s, max_attempts=max_attempts),
        **fields,
    )


def test_a_null_token_count_reads_as_zero_and_its_cache_entry_reads_back(monkeypatch, tmp_path):
    post = _answer(200, b'{"choices": [{"message": {"content": "ok"}}], '
                        b'"usage": {"prompt_tokens": null, "completion_tokens": 3}}')
    monkeypatch.setattr(gateway, "_post", post)
    handle = _remote(cache_dir=tmp_path)
    first = complete(handle, "hi", ASSESS_PROFILE)
    assert (first.prompt_tokens, first.completion_tokens) == (0, 3)
    again = complete(handle, "hi", ASSESS_PROFILE)  # the cache entry, read back
    assert again == ModelResponse(**{**vars(first), "cache_hit": True})
    assert len(post.calls) == 1


@pytest.mark.parametrize(
    "message, usage",
    [
        ({"content": 5}, {}),
        ({"content": ["ok"]}, {}),
        ({"content": "ok", "reasoning_content": ["step 1"]}, {}),
        ({"content": "ok"}, {"prompt_tokens": "7"}),
        ({"content": "ok"}, {"prompt_tokens": True}),
        ({"content": "ok"}, {"completion_tokens": 3.0}),
    ],
    ids=["content_int", "content_list", "reasoning_list", "count_str", "count_bool",
         "count_float"],
)
def test_a_200_reply_that_no_cache_entry_could_hold_is_retried(monkeypatch, tmp_path, message,
                                                               usage):
    post = _answer(200, json.dumps({"choices": [{"message": message}], "usage": usage}).encode())
    monkeypatch.setattr(gateway, "_post", post)
    with pytest.raises(TransientError, match="^exhausted 3 attempts$") as err:
        complete(_remote(supports_raw_cot=True, cache_dir=tmp_path), "hi", ASSESS_PROFILE)
    assert str(err.value.__cause__).startswith("HTTP 200: malformed reply: ")
    assert len(post.calls) == 3
    assert list(tmp_path.iterdir()) == []  # no entry written


@pytest.mark.parametrize(
    "answer, error, attempts",
    [
        ((429, b"slow down"), RateLimitedError, 3),
        ((503, b"busy"), TransientError, 3),
        ((408, b""), TransientError, 3),
        ((409, b""), TransientError, 3),
        ((ConnectionRefusedError(111, "Connection refused"),), TransientError, 3),
        ((TimeoutError("timed out"),), TransientError, 3),
        ((200, b"<html>ok</html>"), TransientError, 3),
        ((400, b'{"error": {"message": "bad request"}}'), ProviderError, 1),
        ((400, b'{"error": {"code": "context_length_exceeded"}}'), ProviderError, 1),
        ((401, b""), ProviderError, 1),
        ((302, b""), ProviderError, 1),
        ((307, b""), ProviderError, 1),
    ],
    ids=["429", "503", "408", "409", "connection", "timeout", "malformed_200", "400",
         "context_length_400", "401", "302", "307"],
)
def test_a_provider_call_retries_exactly_the_transient_failures(monkeypatch, answer, error,
                                                                 attempts):
    post = _answer(*answer)
    monkeypatch.setattr(gateway, "_post", post)
    with pytest.raises(ProviderError) as err:
        complete(_remote(), "hi", ASSESS_PROFILE)
    assert type(err.value) is error
    assert isinstance(err.value, TransientError) is (attempts > 1)
    assert len(post.calls) == attempts
    assert post.calls[0] == {"model": "m", "messages": [{"role": "user", "content": "hi"}],
                             "temperature": 0.7, "top_p": 1.0, "max_tokens": 8192}


@pytest.mark.parametrize("seed", [None, 0, 7])
def test_a_remote_call_sends_the_seed_only_when_it_is_set(monkeypatch, seed):
    post = _answer(200, b'{"choices": [{"message": {"content": "ok"}}]}')
    monkeypatch.setattr(gateway, "_post", post)
    complete(_remote(), "hi", SamplingConfig(seed=seed))
    assert post.calls[0].get("seed", "omitted") == ("omitted" if seed is None else seed)


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_a_redirect_is_returned_not_followed_so_the_key_goes_to_no_other_host(monkeypatch,
                                                                              status):
    """The real `_post`, with urllib's HTTP handler answering in place of a socket."""
    import http.client
    import io
    import urllib.request
    import urllib.response

    sent = []

    def http_open(handler, request):
        sent.append((request.full_url, request.get_method(), request.get_header("Authorization")))
        headers = http.client.parse_headers(io.BytesIO(b"Location: http://other.invalid/\r\n\r\n"))
        reply = urllib.response.addinfourl(io.BytesIO(b"moved"), headers, request.full_url, status)
        reply.msg = "Moved"
        return reply

    monkeypatch.setattr(urllib.request.HTTPHandler, "http_open", http_open)
    monkeypatch.setenv("REMOTE_KEY", "secret")
    handle = _remote()
    handle.provider = OpenAICompatProvider("http://localhost:1/v1", "REMOTE_KEY")
    with pytest.raises(ProviderError, match=f"^HTTP {status}: moved$") as err:
        complete(handle, "hi", ASSESS_PROFILE)
    assert not isinstance(err.value, TransientError)
    assert sent == [("http://localhost:1/v1/chat/completions", "POST", "Bearer secret")]


class FakeClock:
    """Stands in for the `time` module in `gateway`: sleeping only moves the clock."""

    def __init__(self):
        self.now = 1_700_000_000.0
        self.sleeps = []

    def time(self):
        return self.now

    monotonic = time

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def test_backoff_draws_full_jitter_under_the_cap(monkeypatch):
    clock, draws = FakeClock(), []
    monkeypatch.setattr(gateway, "time", clock)
    monkeypatch.setattr(gateway.random, "uniform", lambda lo, hi: draws.append((lo, hi)) or hi)
    monkeypatch.setattr(gateway, "_post", _answer(503))
    with pytest.raises(TransientError, match="^exhausted 9 attempts$"):
        complete(_remote(max_attempts=9, base_delay_s=1.0), "hi", ASSESS_PROFILE)
    assert draws == [(0, 2.0 ** n) for n in range(8)]
    assert clock.sleeps == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0]
    assert gateway.MAX_RETRY_DELAY_S == 60.0

    monkeypatch.undo()  # the real draw stays within the same bounds
    clock = FakeClock()
    monkeypatch.setattr(gateway, "time", clock)
    monkeypatch.setattr(gateway, "_post", _answer(503))
    with pytest.raises(TransientError):
        complete(_remote(max_attempts=9, base_delay_s=1.0), "hi", ASSESS_PROFILE)
    assert all(0 <= s <= min(2.0 ** n, 60.0) for n, s in enumerate(clock.sleeps))
    assert len(clock.sleeps) == 8


def test_backoff_waits_the_retry_after_of_a_reply_under_the_cap(monkeypatch):
    from email.utils import formatdate

    clock = FakeClock()
    # Retry-After as delta-seconds, as an HTTP-date this many seconds on, or unreadable.
    replies = iter([(429, "7"), (503, "120"), (503, 30), (503, 3600), (503, -3600),
                    (503, "soon"), (200, None)])

    def post(url, body, headers, timeout):
        status, after = next(replies)
        if isinstance(after, int):
            after = formatdate(clock.now + after, usegmt=True)
        return status, {"Retry-After": after}, b'{"choices": [{"message": {"content": "done"}}]}'

    monkeypatch.setattr(gateway, "time", clock)
    monkeypatch.setattr(gateway.random, "uniform", lambda lo, hi: hi)
    monkeypatch.setattr(gateway, "_post", post)
    assert complete(_remote(max_attempts=7, base_delay_s=0.5), "hi", ASSESS_PROFILE).text == "done"
    # Each wait is the Retry-After (0 if in the past or unreadable) plus the draw 0.5 * 2**n;
    # an HTTP-date has whole seconds, so "30 s on" from 7.5 s past the second reads 29.5.
    assert clock.sleeps == [7.5, 60.0, 31.5, 60.0, 8.0, 16.0]


def test_a_retry_after_is_a_floor_under_the_draw_and_the_cap_bounds_both(monkeypatch):
    clock, draws = FakeClock(), []
    replies = iter([(429, "0"), (429, "3"), (503, ""), (429, "59"), (200, "")])

    def post(url, body, headers, timeout):
        status, after = next(replies)
        return status, {"Retry-After": after}, b'{"choices": [{"message": {"content": "done"}}]}'

    monkeypatch.setattr(gateway, "time", clock)
    monkeypatch.setattr(gateway.random, "uniform", lambda lo, hi: draws.append((lo, hi)) or hi / 4)
    monkeypatch.setattr(gateway, "_post", post)
    assert complete(_remote(max_attempts=5, base_delay_s=1.0), "hi", ASSESS_PROFILE).text == "done"
    assert draws == [(0, 1.0), (0, 2.0), (0, 4.0), (0, 8.0)]
    assert clock.sleeps == [0.25, 3.5, 1.0, 60.0]  # 0 + 1/4, 3 + 2/4, none + 4/4, 59 + 8/4


def test_a_retry_policy_refuses_fewer_than_one_attempt():
    with pytest.raises(ValueError, match="^max_attempts must be >= 1, got 0$"):
        RetryPolicy(max_attempts=0)


@pytest.mark.parametrize("busy_headers", [{"Retry-After": "0"}, {}],
                         ids=["retry_after_0", "no_retry_after"])
def test_a_four_slot_server_answering_429_loses_no_case_at_c8(monkeypatch, busy_headers):
    """Workers refused together draw different waits, so they do not collide again at once:
    with the Retry-After alone as the wait, most of the 64 cases spent their 5 attempts. An
    absent Retry-After is a floor of 0, as "0" is."""
    lock, in_flight, refused = threading.Lock(), [0], []

    def post(url, body, headers, timeout):
        with lock:
            if in_flight[0] == 4:
                refused.append(url)
                return 429, busy_headers, b"busy"
            in_flight[0] += 1
        try:
            time.sleep(0.005)
            return 200, {}, b'{"choices": [{"message": {"content": "done"}}]}'
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(gateway, "_post", post)
    handle = _remote(max_attempts=5, base_delay_s=0.05)
    outcomes = list(run_ordered(lambda i: complete(handle, f"case {i}", ASSESS_PROFILE).text,
                                range(64), 8))
    assert [i for i, _, err in outcomes if err is not None] == []
    assert [text for _, text, _ in outcomes] == ["done"] * 64
    assert refused  # the server's limit was reached
