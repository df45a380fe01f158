"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps the public functions of each policytrace module where the
callers look them up: every module attribute that is the original function
is swapped for a wrapper while the recorder is installed, and put back when
it is removed. Nothing in the program changes.

A span is (name, start, end, parent, case id, attributes). Spans live in
memory and are written out once, when the run ends. A span opened on a worker
thread with nothing open on that thread gets the installing thread's
innermost open span as its parent, so the spans of `run_instance` on
`--concurrency` workers hang under their `run_dataset`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "case_id", "attrs", "ok")

    def __init__(self, span_id: int, name: str, parent: Optional["Span"],
                 case_id: Optional[str]):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.case_id = case_id
        self.attrs: dict = {}
        self.ok = False
        self.start = time.perf_counter()
        self.end = self.start


def _case_of(args) -> Optional[str]:
    return getattr(args[0], "case_id", None) if args else None


def _summary_attrs(span: Span, result) -> None:
    span.attrs["skipped"] = result[1].skipped


# (module, attribute, span name, hook on the return value)
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("clauses", "load_registry", "corpus.load_registry", None),
    ("corpus", "load_policy", "corpus.load_policy", None),
    ("corpus", "load_dataset", "corpus.load_dataset", None),
    ("corpus", "split_disjointness_check", "corpus.split_disjointness_check", None),
    ("clauses", "extract_cited_clauses", "clauses.extract", None),
    ("prompts", "render", "prompts.render",
     lambda span, result: span.attrs.__setitem__("bytes", len(result.encode("utf-8")))),
    ("gateway", "complete", "gateway.complete",
     lambda span, result: span.attrs.__setitem__("hit", result.cache_hit)),
    ("prtgen", "generate_prt", "prtgen.generate_prt", None),
    ("prtgen", "generate_augmented_dataset", "prtgen.generate_augmented_dataset", None),
    ("prtgen", "load_prt_store", "prtgen.load_prt_store", None),
    ("prtgen", "write_prt_store", "prtgen.write_prt_store", None),
    ("select", "select_random", "select.select_random", None),
    ("select", "select_relevant", "select.select_relevant",
     lambda span, result: span.attrs.__setitem__("repaired", result.repaired)),
    ("assess", "run_instance", "assess.run_instance", None),
    ("assess", "run_dataset", "assess.run_dataset", _summary_attrs),
    ("assess", "load_results", "assess.load_results", None),
    ("metrics", "accuracy", "metrics.accuracy", None),
    ("metrics", "clause_relevance", "metrics.clause_relevance", None),
    *[("significance", fn, f"significance.{fn}", None) for fn in
      ("paired_t_one_sided", "cohens_d", "bonferroni", "holm", "run_cost", "pareto_frontier")],
    ("sftexport", "export_sft", "sftexport.export_sft", None),
    ("sftexport", "clause_text", "sftexport.clause_text", None),
    ("sftexport", "split_train_val", "sftexport.split_train_val", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, args=(), kwargs=None, hook=None):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        case_id = _case_of(args) or (parent.case_id if parent else None)
        span = Span(next(self._ids), name, parent, case_id)
        self.spans.append(span)
        stack.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
            span.ok = True
            if hook is not None:
                hook(span, result)
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, hook)

        return traced

    def install(self, extra: list[tuple[object, str, str]] = ()) -> None:
        """Wrap every target; `extra` adds (object, attribute, span name) triples."""
        self._root_stack = self._stack()
        modules = [m for name, m in list(sys.modules.items())
                   if name == "policytrace" or name.startswith("policytrace.")]
        for module_name, attr, span_name, hook in TARGETS:
            original = getattr(sys.modules[f"policytrace.{module_name}"], attr)
            traced = self.wrap(span_name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, traced)
        for obj, attr, span_name in extra:
            original = getattr(obj, attr)
            self._patches.append((obj, attr, original))
            setattr(obj, attr, self.wrap(span_name, original))

    def remove(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent.id if s.parent else None, "case_id": s.case_id,
                    "ok": s.ok, **s.attrs}) + "\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _concurrency_mean(spans: list[Span]) -> float:
    """Time-weighted mean number of spans open, over the time any is open."""
    busy = _union([(s.start, s.end) for s in spans])
    return sum(s.end - s.start for s in spans) / busy if busy else 0.0


def layer_metrics(spans: list[Span], gauges) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline repetition."""
    children: dict[int, list[Span]] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent.id, []).append(s)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def self_time(s: Span) -> float:
        return (s.end - s.start) - _union([(c.start, c.end) for c in children.get(s.id, [])])

    def total(name: str) -> float:
        return sum(s.end - s.start for s in named(name))

    def under(s: Span, name: str) -> list[Span]:
        return [c for c in children.get(s.id, []) if c.name == name]

    def within(s: Span, command: str) -> bool:
        while s.parent is not None:
            s = s.parent
        return s.name == f"cli.{command}"

    m: dict[str, float] = {}
    loads = named("corpus.load_dataset")
    m["corpus.load_s"] = sum(total(f"corpus.{n}") for n in
                             ("load_registry", "load_policy", "load_dataset")) / max(len(loads), 1)

    extract = named("clauses.extract")
    m["clauses.extract_calls"] = len(extract)
    m["clauses.extract_us_per_call"] = 1e6 * _mean(self_time(s) for s in extract)

    render = named("prompts.render")
    m["prompts.render_calls"] = len(render)
    m["prompts.render_us_per_call"] = 1e6 * _mean(s.end - s.start for s in render)
    m["prompts.prompt_kb_per_call"] = _mean(s.attrs.get("bytes", 0) for s in render) / 1024

    complete = named("gateway.complete")
    hits = [s for s in complete if s.attrs.get("hit")]
    misses = [(s, under(s, "gateway.provider")) for s in complete if not s.attrs.get("hit")]
    misses = [(s, p) for s, p in misses if p]
    providers = named("gateway.provider")
    m["gateway.complete_calls"] = len(complete)
    m["gateway.provider_calls"] = len(providers)
    m["gateway.cache_hit_ratio"] = len(hits) / len(complete) if complete else 0.0
    m["gateway.hit_us_per_call"] = 1e6 * _mean(s.end - s.start for s in hits)
    m["gateway.queue_ms_per_miss"] = 1e3 * _mean(p[0].start - s.start for s, p in misses)
    m["gateway.post_provider_us_per_miss"] = 1e6 * _mean(s.end - p[-1].end for s, p in misses)
    m["gateway.provider_ms_per_call"] = 1e3 * _mean(s.end - s.start for s in providers)
    m["gateway.retries"] = sum(len(p) - 1 for _, p in misses)
    m["gateway.in_flight_max"] = max((g.in_flight_max for g in gauges), default=0)
    busy = sum(g.busy_s for g in gauges)
    m["gateway.in_flight_mean"] = sum(g.area for g in gauges) / busy if busy else 0.0

    gen = named("prtgen.generate_prt")
    attempts = sum(len(under(s, "gateway.complete")) for s in gen)
    m["prtgen.generate_calls"] = len(gen)
    m["prtgen.generate_self_us_per_case"] = 1e6 * _mean(self_time(s) for s in gen)
    m["prtgen.in_flight_mean"] = _concurrency_mean(gen)
    m["prtgen.load_store_s"] = total("prtgen.load_prt_store")
    m["prtgen.write_store_s"] = total("prtgen.write_prt_store")
    m["prtgen.accept_ratio"] = sum(s.ok for s in gen) / attempts if attempts else 0.0

    rand = named("select.select_random")
    rel = named("select.select_relevant")
    m["select.random_calls"] = len(rand)
    m["select.random_us_per_call"] = 1e6 * _mean(s.end - s.start for s in rand)
    m["select.relevant_self_ms_per_case"] = 1e3 * _mean(self_time(s) for s in rel)
    m["select.judge_calls_per_case"] = _mean(len(under(s, "gateway.complete")) for s in rel)
    m["select.repair_ratio"] = _mean(1.0 if s.attrs.get("repaired") else 0.0 for s in rel)

    instances = named("assess.run_instance")
    runs = named("assess.run_dataset")
    m["assess.instance_self_us_per_case"] = 1e6 * _mean(self_time(s) for s in instances)
    m["assess.outside_instances_s"] = sum(
        (r.end - r.start) - _union([(c.start, c.end) for c in under(r, "assess.run_instance")])
        for r in runs)
    m["assess.load_results_s"] = sum(s.end - s.start for s in named("assess.load_results")
                                     if within(s, "report"))
    m["assess.resumed_cases"] = sum(r.attrs.get("skipped", 0) for r in runs)

    m["metrics.clause_relevance_s"] = sum(self_time(s) for s in named("metrics.clause_relevance"))
    m["significance.s"] = sum(s.end - s.start for s in spans if s.name.startswith("significance."))
    m["sftexport.export_s"] = total("sftexport.export_sft") + total("sftexport.split_train_val")
    m["sftexport.clause_text_us_per_call"] = 1e6 * _mean(
        s.end - s.start for s in named("sftexport.clause_text"))
    for command in ("gen", "assess", "report", "export-sft"):
        m[f"cli.{command.replace('-', '_')}_self_s"] = sum(
            self_time(s) for s in named(f"cli.{command}"))
    return m
