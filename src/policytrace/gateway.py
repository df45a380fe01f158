"""Uniform access to chat/reasoning model providers.

Handles retries with exponential backoff, content-addressed response caching
on disk, raw chain-of-thought capture, a deterministic scripted mock provider
for offline runs and tests, and the ordered executor that fans per-case model
work out over worker threads; its concurrency bounds the model calls in flight,
and it writes the cache entries of those calls on the caller's thread.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .tokens import Tokenizer, estimate_tokens


class GatewayError(Exception):
    pass


class RateLimitedError(GatewayError):
    pass


class ProviderError(GatewayError):
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

    def for_attempt(self, attempt: int) -> "SamplingConfig":
        """This config for a caller's 0-based attempt at one request. A retry
        is seeded with its attempt number, so its cache key differs and it
        reaches the model instead of replaying the cached reply; attempt 0's
        key is unchanged."""
        return self if attempt == 0 else replace(self, seed=attempt)


# Named sampling profiles: trace generation is capped at 2048 new tokens to
# avoid runaway traces; every other call gets the full 8192 budget.
PRT_GEN_PROFILE = SamplingConfig(temperature=0.7, max_new_tokens=2048)
ASSESS_PROFILE = SamplingConfig(temperature=0.7, max_new_tokens=8192)


@dataclass(frozen=True)
class RetryPolicy:
    base_delay_s: float = 1.0
    factor: float = 2.0
    max_attempts: int = 5


@dataclass
class ModelResponse:
    text: str
    raw_cot: Optional[str] = None
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: int = 0
    cache_hit: bool = False


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
    provider: Optional[Provider] = None
    tokenizer: Tokenizer = estimate_tokens
    cache_dir: Optional[Path] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)

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
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / key[:2] / f"{key}.json"


def _cache_read(cache_dir: Path, key: str) -> Optional[ModelResponse]:
    try:
        text = _cache_path(cache_dir, key).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    return ModelResponse(**json.loads(text), cache_hit=True)


def _cache_write(cache_dir: Path, key: str, response: ModelResponse) -> None:
    # An entry is the response's fields in declared order, without cache_hit.
    # Readers only open <key>.json, and each writer renames its own temp file
    # onto it, so concurrent writers (threads or processes) never tear an entry.
    path = _cache_path(cache_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{key}.{os.urandom(8).hex()}.tmp")
    entry = {name: value for name, value in vars(response).items() if name != "cache_hit"}
    try:
        tmp.write_text(json.dumps(entry, ensure_ascii=False), encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def complete(handle: ModelHandle, prompt: str, cfg: SamplingConfig) -> ModelResponse:
    """Send one prompt, honoring cache, context window, and retry policy.

    Context overflow is never retried; rate limiting is retried with
    exponential backoff up to the configured attempt bound. No cache key is
    computed for a handle without a cache_dir. Inside a run_ordered item,
    the cache entry is left for run_ordered to write.
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
        cached = _cache_read(handle.cache_dir, key)
        if cached is not None:
            return cached

    delay = handle.retry.base_delay_s
    last_err: Optional[Exception] = None
    for attempt in range(handle.retry.max_attempts):
        try:
            start = time.monotonic()
            text, raw_cot, in_tok, out_tok = handle.provider.generate(
                handle.model_id, prompt, cfg
            )
            latency_ms = int((time.monotonic() - start) * 1000)
            if not handle.supports_raw_cot:
                raw_cot = None
            response = ModelResponse(
                text=text,
                raw_cot=raw_cot,
                prompt_tokens=in_tok,
                completion_tokens=out_tok,
                latency_ms=latency_ms,
            )
            if handle.cache_dir is not None:
                if entries is None:
                    _cache_write(handle.cache_dir, key, response)
                else:
                    entries[handle.cache_dir, key] = response  # run_ordered writes it
            return response
        except RateLimitedError as err:
            last_err = err
            if attempt + 1 < handle.retry.max_attempts:
                time.sleep(delay)
                delay *= handle.retry.factor
    raise RateLimitedError(f"exhausted {handle.retry.max_attempts} attempts") from last_err


@dataclass
class MockScriptEntry:
    pattern: str
    text: str
    raw_cot: Optional[str] = None


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


def mock_provider(
    script: list[MockScriptEntry] | dict[str, str],
    model_id: str = "mock-model",
    supports_raw_cot: bool = False,
    cache_dir: Optional[Path] = None,
    price_in_usd_per_1m: float = 0.0,
    price_out_usd_per_1m: float = 0.0,
) -> ModelHandle:
    """Build a scripted offline handle for tests and dry runs."""
    if isinstance(script, dict):
        script = [MockScriptEntry(pattern=k, text=v) for k, v in script.items()]
    provider = MockProvider(script)
    return ModelHandle(
        provider_id="mock",
        model_id=model_id,
        supports_raw_cot=supports_raw_cot,
        price_in_usd_per_1m=price_in_usd_per_1m,
        price_out_usd_per_1m=price_out_usd_per_1m,
        provider=provider,
        cache_dir=cache_dir,
    )


class OpenAICompatProvider(Provider):
    """Minimal OpenAI-compatible chat completions backend.

    API key is read from the named environment variable only; raw CoT is
    taken from `reasoning_content` when the endpoint exposes it.
    """

    def __init__(self, base_url: str, api_key_env: str, timeout_s: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self.timeout_s = timeout_s

    def generate(self, model_id: str, prompt: str, cfg: SamplingConfig):
        import requests

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
            resp = requests.post(
                f"{self.base_url}/chat/completions",
                json=body,
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=self.timeout_s,
            )
        except requests.RequestException as err:
            raise ProviderError(str(err)) from err
        if resp.status_code == 429:
            raise RateLimitedError(resp.text[:500])
        if resp.status_code >= 400:
            raise ProviderError(f"HTTP {resp.status_code}: {resp.text[:500]}")
        try:
            data = resp.json()
            message = data["choices"][0]["message"]
            usage = data.get("usage") or {}  # some servers send "usage": null
            return (
                message.get("content") or "",
                message.get("reasoning_content"),
                usage.get("prompt_tokens", 0),
                usage.get("completion_tokens", 0),
            )
        except (ValueError, LookupError, TypeError, AttributeError) as err:
            raise ProviderError(
                f"HTTP {resp.status_code}: malformed reply: {resp.text[:500]}"
            ) from err


# The JSON types of a model's optional fields, matched exactly: `true` is no integer.
_MODEL_TYPES = {
    "supports_raw_cot": (bool,), "price_in_usd_per_1m": (int, float),
    "price_out_usd_per_1m": (int, float), "context_window": (int,),
}


def load_provider_config(path: str | Path, cache_dir: Optional[Path] = None) -> dict[str, ModelHandle]:
    """Load a provider config file into a model_id -> ModelHandle map.

    Schema: {"provider_id", "base_url", "api_key_env", "models": [...]}, or a
    list of such objects. provider_id "mock" takes a "script" list of
    {"pattern", "text", "raw_cot"?} entries instead of base_url.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise ProviderConfigError(f"providers file {path}: {err}") from err
    configs = data if isinstance(data, list) else [data]
    handles: dict[str, ModelHandle] = {}
    try:
        for config in configs:
            provider_id = config["provider_id"]
            if provider_id == "mock":
                script = [
                    MockScriptEntry(
                        pattern=entry["pattern"],
                        text=entry["text"],
                        raw_cot=entry.get("raw_cot"),
                    )
                    for entry in config.get("script", [])
                ]
                provider: Provider = MockProvider(script)
            else:
                provider = OpenAICompatProvider(
                    base_url=config["base_url"],
                    api_key_env=config["api_key_env"],
                )
            for model in config.get("models", []):
                for key, types in _MODEL_TYPES.items():
                    if key in model and type(model[key]) not in types:
                        names = " or ".join(t.__name__ for t in types)
                        raise TypeError(f"model {model['model_id']!r}: {key} must be {names}, "
                                        f"got {model[key]!r}")
                handle = ModelHandle(
                    provider_id=provider_id,
                    model_id=model["model_id"],
                    supports_raw_cot=model.get("supports_raw_cot", False),
                    price_in_usd_per_1m=model.get("price_in_usd_per_1m", 0.0),
                    price_out_usd_per_1m=model.get("price_out_usd_per_1m", 0.0),
                    context_window=model.get("context_window", 131072),
                    provider=provider,
                    cache_dir=cache_dir,
                )
                handles[model["model_id"]] = handle
    except KeyError as err:
        raise ProviderConfigError(f"providers file {path}: missing key {err}") from err
    except (AttributeError, TypeError) as err:  # an object where the schema has another type
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


def _write_entries(
    outcomes: Iterable[tuple[T, Optional[R], Optional[Exception], dict]],
) -> Iterator[tuple[T, Optional[R], Optional[Exception]]]:
    for item, result, err, entries in outcomes:
        try:
            for (cache_dir, key), response in entries.items():
                _cache_write(cache_dir, key, response)
        except Exception as write_err:  # fails the item, as a write inside fn would
            if err is None:
                result, err = None, write_err
        yield item, result, err


def run_ordered(
    fn: Callable[[T], R], items: Iterable[T], concurrency: int
) -> Iterator[tuple[T, Optional[R], Optional[Exception]]]:
    """Apply fn to every item, yielding (item, result, None) or (item, None, exc)
    in input order, with at most `concurrency` calls running at once.

    Concurrency 1 runs each call inline on the caller's thread. The cache
    entries of the model calls fn makes are written on the caller's thread,
    in call order, before the item is yielded, so disk writes never hold up a
    worker's next model call; a write that fails fails its item. Closing the
    generator early cancels the calls that have not started yet, and drops the
    entries of items that finished but were not yet yielded.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    settle = functools.partial(_settle, fn)
    if concurrency == 1:
        yield from _write_entries(map(settle, items))
        return

    import concurrent.futures  # only threaded runs pay for the import

    with concurrent.futures.ThreadPoolExecutor(max_workers=concurrency) as executor:
        yield from _write_entries(executor.map(settle, items))
