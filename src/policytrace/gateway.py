"""Uniform access to chat/reasoning model providers.

Handles retries with full-jitter exponential backoff, content-addressed response caching
on disk, raw chain-of-thought capture, a deterministic scripted mock provider
for offline runs and tests, and the ordered executor that fans per-case model
work out over worker threads; its concurrency bounds the model calls in flight,
and it writes the cache entries of those calls on the caller's thread.

A process lists each cache directory once, at its first lookup there, and adds each
entry it writes, so a miss opens no file. An entry that another process writes after
that listing is not read: the call is made, and its entry replaces the other one.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import NoneType
from typing import Callable, Iterable, Iterator, Mapping, Optional, TypeVar

from .records import from_json, sha256_hex, to_json, write_atomic

BYTES_PER_TOKEN = 4  # the common ratio of BPE vocabularies


def estimate_tokens(text: str) -> int:
    """Approximate BPE token count: ceil(utf8_bytes / 4), 0 for empty text. It is the
    default `ModelHandle.tokenizer`, which a real BPE tokenizer may replace, and it
    counts policy sizes and the mock provider's tokens."""
    if not text:
        return 0
    # An ASCII string's length is its UTF-8 byte count, and isascii() reads a flag.
    n = len(text) if text.isascii() else len(text.encode("utf-8"))
    return max(1, (n + BYTES_PER_TOKEN - 1) // BYTES_PER_TOKEN)


class GatewayError(Exception):
    pass


class ProviderError(GatewayError):
    pass


class TransientError(ProviderError):
    retry_after_s: Optional[float] = None  # the one failure `complete` retries, after this if set


class RateLimitedError(TransientError):
    pass


class ContextOverflowError(GatewayError):
    pass


class UnmatchedPromptError(GatewayError):
    pass


class ProviderConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float = 0.7
    top_p: float = 1.0
    max_new_tokens: int = 8192
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.temperature <= 2:
            raise ValueError(f"temperature out of range: {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ValueError(f"top_p out of range: {self.top_p}")
        if self.max_new_tokens <= 0:
            raise ValueError(f"max_new_tokens must be positive: {self.max_new_tokens}")


# Named sampling profiles: trace generation is capped at 2048 new tokens to
# avoid runaway traces; every other call gets the full 8192 budget.
PRT_GEN_PROFILE = SamplingConfig(temperature=0.7, max_new_tokens=2048)
ASSESS_PROFILE = SamplingConfig(temperature=0.7, max_new_tokens=8192)

MAX_RETRY_DELAY_S = 60.0  # caps every wait between attempts, a server's Retry-After too
REQUEST_TIMEOUT_S = 120.0  # of each call to a remote provider


@dataclass(frozen=True)
class RetryPolicy:
    base_delay_s: float = 1.0
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")


@dataclass
class ModelResponse:
    text: str
    raw_cot: Optional[str] = None
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: int = 0
    cache_hit: bool = field(default=False, metadata={"json": False})


class Provider:
    """One backend. generate() returns (text, raw_cot, prompt_tokens, completion_tokens)."""

    def generate(self, model_id: str, prompt: str, cfg: SamplingConfig):
        raise NotImplementedError


@dataclass
class ModelHandle:
    provider_id: str
    model_id: str
    supports_raw_cot: bool = False
    price_in_usd_per_1m: float = 0.0
    price_out_usd_per_1m: float = 0.0
    context_window: int = 131072
    provider: Optional[Provider] = field(default=None, metadata={"json": False})
    tokenizer: Callable[[str], int] = field(default=estimate_tokens, metadata={"json": False})
    cache_dir: Optional[Path] = field(default=None, metadata={"json": False})
    retry: RetryPolicy = field(default_factory=RetryPolicy, metadata={"json": False})

    def __post_init__(self) -> None:
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if self.price_in_usd_per_1m < 0 or self.price_out_usd_per_1m < 0:
            raise ValueError("prices must be >= 0")


def cache_key(handle: ModelHandle, prompt: str, cfg: SamplingConfig) -> str:
    """Stable content hash over the fields that determine a response."""
    payload = json.dumps(
        [
            handle.provider_id,
            handle.model_id,
            prompt,
            cfg.temperature,
            cfg.top_p,
            cfg.max_new_tokens,
            cfg.seed,
        ],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return sha256_hex(payload)


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / key[:2] / f"{key}.json"


_CACHED: dict[Path, set[str]] = {}  # cache dir -> the keys of its entries, listed or written
_CACHED_LOCK = threading.Lock()


def _cached_keys(cache_dir: Path) -> set[str]:
    """The keys of `cache_dir`'s entries: listed at the process's first call for it (its
    two-character shards' `.json` names), then added to by each `_cache_write`."""
    if (keys := _CACHED.get(cache_dir)) is None:
        with _CACHED_LOCK:  # concurrent first lookups list the directory once
            if (keys := _CACHED.get(cache_dir)) is None:
                keys = set()
                with contextlib.suppress(FileNotFoundError), os.scandir(cache_dir) as shards:
                    for shard in (s for s in shards if len(s.name) == 2 and s.is_dir()):
                        with os.scandir(shard) as entries:
                            keys.update(e.name[:-5] for e in entries if e.name.endswith(".json"))
                _CACHED[cache_dir] = keys
    return keys


def _cache_read(cache_dir: Path, key: str) -> Optional[ModelResponse]:
    path = _cache_path(cache_dir, key)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        return from_json(ModelResponse, obj, cache_hit=True)
    except FileNotFoundError:
        return None
    except (KeyError, TypeError, ValueError) as err:  # local corruption, not a provider failure
        raise ValueError(f"cache entry {path}: malformed: {err}") from err


def _cache_write(cache_dir: Path, key: str, response: ModelResponse) -> None:
    # Readers only open <key>.json, which write_atomic replaces whole.
    path = _cache_path(cache_dir, key)
    write_atomic({path: [json.dumps(to_json(response), ensure_ascii=False)]})
    _cached_keys(cache_dir).add(key)


def complete(handle: ModelHandle, prompt: str, cfg: SamplingConfig) -> ModelResponse:
    """Send one prompt, honoring cache, context window, and retry policy.

    Context overflow is never retried; a TransientError is, up to the attempt bound, after
    its Retry-After (0 if unset) plus a full-jitter draw from [0, base_delay_s * 2**n]
    before retry n+1, capped at MAX_RETRY_DELAY_S: the Retry-After is a floor, and the
    draw keeps callers told the same one from waking together. No cache key is computed
    for a handle without a cache_dir. Inside a run_ordered item, the cache entry is left
    for run_ordered to write.
    """
    if not prompt:
        raise ValueError("prompt must be non-empty")
    if handle.provider is None:
        raise ProviderError(f"no provider bound for {handle.provider_id}/{handle.model_id}")

    prompt_estimate = handle.tokenizer(prompt)
    if prompt_estimate + cfg.max_new_tokens > handle.context_window:
        raise ContextOverflowError(
            f"prompt ({prompt_estimate} tokens) + max_new_tokens ({cfg.max_new_tokens}) "
            f"exceeds context window ({handle.context_window})"
        )

    if handle.cache_dir is not None:
        key = cache_key(handle, prompt, cfg)
        entries = _item_entries.get()
        if entries is not None and (handle.cache_dir, key) in entries:
            return replace(entries[handle.cache_dir, key], cache_hit=True)
        if key in _cached_keys(handle.cache_dir):
            cached = _cache_read(handle.cache_dir, key)  # None if deleted since the listing
            if cached is not None:
                return cached

    for attempt in range(handle.retry.max_attempts):
        try:
            start = time.monotonic()
            text, raw_cot, in_tok, out_tok = handle.provider.generate(handle.model_id, prompt, cfg)
            break
        except TransientError as err:
            if attempt + 1 == handle.retry.max_attempts:
                raise type(err)(f"exhausted {handle.retry.max_attempts} attempts") from err
            draw = random.uniform(0, handle.retry.base_delay_s * 2 ** attempt)
            time.sleep(min((err.retry_after_s or 0) + draw, MAX_RETRY_DELAY_S))
    response = ModelResponse(text, raw_cot if handle.supports_raw_cot else None,
                             prompt_tokens=in_tok, completion_tokens=out_tok,
                             latency_ms=int((time.monotonic() - start) * 1000))
    if handle.cache_dir is not None:
        if entries is None:
            _cache_write(handle.cache_dir, key, response)
        else:
            entries[handle.cache_dir, key] = response  # run_ordered writes it
    return response


def ask_twice(handle: ModelHandle, prompt: str,
              cfg: SamplingConfig) -> Iterator[tuple[str, Optional[GatewayError]]]:
    """The one re-ask rule: yield (reply, None), or ("", err) for a GatewayError; a caller
    that reads on gets a second ask with seed 1, whose cache key differs from the first's."""
    for attempt in range(2):
        try:
            text = complete(handle, prompt, replace(cfg, seed=1) if attempt else cfg).text
        except GatewayError as err:
            yield "", err
        else:
            yield text, None


@dataclass
class MockScriptEntry:
    pattern: str
    text: str
    raw_cot: Optional[str] = None

    def __post_init__(self) -> None:
        for text in (self.pattern, self.text, self.raw_cot or ""):
            text.encode("utf-8")  # refuses a lone surrogate: no UTF-8 output could hold it


@dataclass
class _ProviderEntry:  # one provider of a providers file
    provider_id: str
    base_url: str = ""
    api_key_env: str = ""
    script: list[MockScriptEntry] = field(default_factory=list)
    models: list[dict] = field(default_factory=list)


class MockProvider(Provider):
    """Fully offline provider. First matching substring pattern wins, in
    declared order; unmatched prompts fail loudly rather than fabricating
    output."""

    def __init__(self, script: list[MockScriptEntry]):
        self.script = list(script)
        self.call_count = 0

    def generate(self, model_id: str, prompt: str, cfg: SamplingConfig):
        self.call_count += 1
        for entry in self.script:
            if entry.pattern in prompt:
                return (
                    entry.text,
                    entry.raw_cot,
                    estimate_tokens(prompt),
                    estimate_tokens(entry.text),
                )
        head = prompt[:120].replace("\n", "\\n")
        raise UnmatchedPromptError(f"no script pattern matches prompt: {head!r}...")


def mock_provider(script: list[MockScriptEntry] | dict[str, str], model_id: str = "mock-model",
                  **fields) -> ModelHandle:
    """Build a scripted offline handle for tests and dry runs; `fields` are ModelHandle's."""
    if isinstance(script, dict):
        script = [MockScriptEntry(pattern=k, text=v) for k, v in script.items()]
    return ModelHandle("mock", model_id, provider=MockProvider(script), **fields)


def _post(url: str, body: bytes, headers: dict[str, str],
          timeout: float) -> tuple[int, Mapping[str, str], bytes]:
    """POST `body` to `url` and return the (status, headers, body) of the reply, whatever
    its status; a 3xx is returned, not followed. Tests replace this function."""
    import urllib.request  # about 30 ms, paid only by a call to a remote provider

    no_redirect = urllib.request.HTTPRedirectHandler()
    no_redirect.redirect_request = lambda *args: None  # the API key goes to `url` alone
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        reply = urllib.request.build_opener(no_redirect).open(fullurl=request, timeout=timeout)
    except urllib.request.HTTPError as err:  # a reply with an error status
        reply = err
    with reply:
        return reply.status, reply.headers, reply.read()


def _retry_after_s(value: str) -> Optional[float]:
    """Seconds from a Retry-After of delta-seconds or an HTTP-date (RFC 9110 10.2.3)."""
    from email.utils import parsedate_to_datetime

    try:
        if value.strip().isdecimal():
            return float(value)
        return max(0.0, parsedate_to_datetime(value).timestamp() - time.time())
    except (TypeError, ValueError):
        return None  # absent or unreadable


class OpenAICompatProvider(Provider):
    """Minimal OpenAI-compatible chat completions backend.

    API key is read from the named environment variable only; raw CoT is
    taken from `reasoning_content` when the endpoint exposes it.
    """

    def __init__(self, base_url: str, api_key_env: str):
        if base_url.partition(":")[0].lower() not in ("http", "https"):
            raise ValueError(f"base_url must be an http or https URL, got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env

    def generate(self, model_id: str, prompt: str, cfg: SamplingConfig):
        import http.client  # loaded by _post's urllib.request anyway

        api_key = os.environ.get(self.api_key_env, "")
        body = {
            "model": model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "top_p": cfg.top_p,
            "max_tokens": cfg.max_new_tokens,
        }
        if cfg.seed is not None:
            body["seed"] = cfg.seed
        try:
            status, headers, data = _post(
                f"{self.base_url}/chat/completions", json.dumps(body).encode("utf-8"),
                {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"},
                REQUEST_TIMEOUT_S,
            )
        except (OSError, http.client.HTTPException) as err:  # no reply, or one cut short
            raise TransientError(f"{type(err).__name__}: {err}") from err
        head = data[:500].decode("utf-8", "replace")
        if status in (408, 409, 429) or status >= 500:
            exc = (RateLimitedError if status == 429 else TransientError)(f"HTTP {status}: {head}")
            exc.retry_after_s = _retry_after_s(headers.get("Retry-After", ""))
            raise exc
        if status != 200:  # a 3xx too: _post follows no redirect
            raise ProviderError(f"HTTP {status}: {head}")
        try:
            reply = json.loads(data)
            message = reply["choices"][0]["message"]
            usage = reply.get("usage") or {}  # some servers send "usage": null
            text, raw_cot = message.get("content"), message.get("reasoning_content")
            tokens = usage.get("prompt_tokens"), usage.get("completion_tokens")
            # only what a cache entry reads back: each text str or null, each count int or null
            if ({type(text), type(raw_cot)} - {str, NoneType}
                    or {type(tokens[0]), type(tokens[1])} - {int, NoneType}):
                raise TypeError("a text or count of the wrong type")
            f"{text}{raw_cot}".encode("utf-8")  # a lone surrogate: no UTF-8 output could hold it
            return text or "", raw_cot, tokens[0] or 0, tokens[1] or 0
        except (ValueError, LookupError, TypeError, AttributeError) as err:
            raise TransientError(f"HTTP {status}: malformed reply: {head}") from err


def load_provider_config(path: str | Path, cache_dir: Optional[Path] = None) -> dict[str, ModelHandle]:
    """Load a provider config file into a model_id -> ModelHandle map.

    Schema: {"provider_id", "base_url", "api_key_env", "models": [...]}, or a list
    of such objects; a model is `ModelHandle`'s JSON fields but provider_id. provider_id
    "mock" takes a "script" list of `MockScriptEntry` objects instead of base_url.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise ProviderConfigError(f"providers file {path}: {err}") from err
    configs = data if isinstance(data, list) else [data]
    handles: dict[str, ModelHandle] = {}
    try:
        for obj in configs:
            config = from_json(_ProviderEntry, obj)
            if config.provider_id == "mock":
                provider: Provider = MockProvider(config.script)
            else:  # a remote provider names both keys, typed by `_ProviderEntry`
                provider = OpenAICompatProvider(obj["base_url"], obj["api_key_env"])
            for model in config.models:
                handle = from_json(ModelHandle, model, provider_id=config.provider_id,
                                   provider=provider, cache_dir=cache_dir)
                if handle.model_id in handles:  # else the last would change endpoint and prices
                    raise ValueError(f"model_id {handle.model_id!r} listed twice")
                handles[handle.model_id] = handle
    except KeyError as err:
        raise ProviderConfigError(f"providers file {path}: missing key {err}") from err
    except (AttributeError, TypeError, ValueError) as err:  # a wrong type or a refused value
        raise ProviderConfigError(f"providers file {path}: malformed: {err}") from err
    return handles


T = TypeVar("T")
R = TypeVar("R")


# The cache entries of the calls that `complete` makes for the item a
# run_ordered worker is running, keyed by (cache_dir, key), in call order.
_item_entries: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "_item_entries", default=None
)


def _settle(
    fn: Callable[[T], R], item: T
) -> tuple[T, Optional[R], Optional[Exception], dict]:
    entries: dict = {}
    token = _item_entries.set(entries)
    try:
        return item, fn(item), None, entries
    except Exception as err:
        return item, None, err, entries
    finally:
        _item_entries.reset(token)


def _written(
    item: T, result: Optional[R], err: Optional[Exception], entries: dict
) -> tuple[T, Optional[R], Optional[Exception]]:
    try:
        for (cache_dir, key), response in entries.items():
            _cache_write(cache_dir, key, response)
    except Exception as write_err:  # fails the item, as a write inside fn would
        if err is None:
            result, err = None, write_err
    return item, result, err


def run_ordered(
    fn: Callable[[T], R], items: Iterable[T], concurrency: int
) -> Iterator[tuple[T, Optional[R], Optional[Exception]]]:
    """Apply fn to every item, yielding (item, result, None) or (item, None, exc)
    in input order, with at most `concurrency` calls running at once.

    Concurrency 1 runs each call inline on the caller's thread. Otherwise at most
    2 * concurrency items are submitted and not yet yielded, so a slow item holds up
    a bounded number of finished ones. The cache entries of the model calls fn makes
    are written on the caller's thread, in call order, before the item is yielded, so
    disk writes never hold up a worker's next model call; a write that fails fails its
    item. Closing the generator early cancels the calls that have not started yet, and
    drops the entries of items that finished but were not yet yielded.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    settle = functools.partial(_settle, fn)
    if concurrency == 1:
        for item in items:
            yield _written(*settle(item))
        return

    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay for the import

    executor, window = ThreadPoolExecutor(max_workers=concurrency), deque()
    try:
        for item in items:
            if len(window) == 2 * concurrency:
                yield _written(*window.popleft().result())
            window.append(executor.submit(settle, item))
        while window:
            yield _written(*window.popleft().result())
    finally:
        executor.shutdown(cancel_futures=True)
