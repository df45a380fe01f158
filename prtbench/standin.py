"""Latency stand-in: a provider wrapper owned by the benchmark.

It wraps the provider of every handle that `load_provider_config` returns,
as the CLI builds them, so each handle keeps its own `max_in_flight`
semaphore and the program's default limits are measured, not bypassed.

Per call it
  * sleeps a fixed delay, standing in for network latency;
  * counts the call and how many calls are in flight on its handle;
  * appends a short tag derived from the prompt to the reply. A real model's
    replies differ from prompt to prompt; the scripted mock's do not, and
    without the tag every clause-extraction prompt in `report` would repeat
    and hit the cache. The tag uses only the letters a-p, so it holds no
    digit, verdict token or clause mention that a parser could pick up.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

_TAG_LETTERS = "abcdefghijklmnop"


def reply_tag(prompt: str) -> str:
    digest = hashlib.blake2b(prompt.encode("utf-8"), digest_size=6).digest()
    return "".join(_TAG_LETTERS[b >> 4] + _TAG_LETTERS[b & 15] for b in digest)


@dataclass
class Gauge:
    """Calls and in-flight count of one handle's provider."""

    calls: int = 0
    in_flight: int = 0
    in_flight_max: int = 0
    busy_s: float = 0.0  # time with at least one call in flight
    area: float = 0.0  # integral of in-flight count over time
    _last: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def _advance(self, now: float) -> None:
        if self.in_flight:
            self.busy_s += now - self._last
            self.area += self.in_flight * (now - self._last)
        self._last = now

    def enter(self) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self.calls += 1
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)

    def leave(self) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self.in_flight -= 1


class StandInProvider:
    """Delegates to the wrapped provider after sleeping `delay_s`."""

    def __init__(self, inner, delay_s: float, gauge: Gauge, tokenizer):
        self.inner = inner
        self.delay_s = delay_s
        self.gauge = gauge
        self.tokenizer = tokenizer

    def generate(self, model_id, prompt, cfg):
        self.gauge.enter()
        try:
            if self.delay_s:
                time.sleep(self.delay_s)
            text, raw_cot, in_tok, _out_tok = self.inner.generate(model_id, prompt, cfg)
        finally:
            self.gauge.leave()
        text = f"{text}\n[reply {reply_tag(prompt)}]"
        return text, raw_cot, in_tok, self.tokenizer(text)


class StandIn:
    """Installs the wrapper on `policytrace.cli` and keeps one gauge per handle."""

    def __init__(self, cli_module, delay_s: float):
        self.cli = cli_module
        self.delay_s = delay_s
        self.gauges: list[Gauge] = []
        self._original = None

    def _load(self, path, cache_dir=None):
        handles = self._original(path, cache_dir=cache_dir)
        for handle in handles.values():
            gauge = Gauge()
            self.gauges.append(gauge)
            handle.provider = StandInProvider(handle.provider, self.delay_s, gauge,
                                              handle.tokenizer)
        return handles

    def __enter__(self) -> "StandIn":
        self._original = self.cli.load_provider_config
        self.cli.load_provider_config = self._load
        return self

    def __exit__(self, *exc) -> None:
        self.cli.load_provider_config = self._original

    def provider_calls(self) -> int:
        return sum(g.calls for g in self.gauges)

    def reset(self) -> None:
        self.gauges.clear()
