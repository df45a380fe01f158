"""Aggregate accuracy, clause-citation relevance, and trace utilization.

Clause relevance is macro-averaged over the records that carry gold clause
annotations; mean cited-clause count runs over all records, with annotation
coverage reported so the two denominators stay visible.
"""

from __future__ import annotations

import re
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from typing import Optional

from .assess import InstanceResult
from .clauses import ClauseId, ClauseRegistry, ExtractionResult, extract_cited_clauses
from .corpus import Dataset
from .gateway import ASSESS_PROFILE, ModelHandle, ask_twice, run_ordered
from .prompts import TemplateId, render


class MetricsError(ValueError):
    pass


def accuracy(results: list[InstanceResult]) -> float:
    """Percent correct; unparsed verdicts count as incorrect."""
    if not results:
        raise MetricsError("empty_input: no results")
    correct = sum(1 for r in results if r.correct)
    return 100.0 * correct / len(results)


@dataclass
class ClauseRelevanceReport:
    mu_cited: float
    recall_pct: float
    exact_match_pct: float
    top_incorrect_clause: Optional[ClauseId]
    coverage: float
    n_records: int
    n_annotated: int
    n_fallback_extractions: int = 0


def _refusal(results: list[InstanceResult], dataset: Dataset) -> Optional[Exception]:
    """The error that refuses `results` before any call: empty input, or the `KeyError` of
    a case not in `dataset`. None when every result can be scored."""
    if not results:
        return MetricsError("empty_input: no results")
    try:
        for result in results:
            dataset.by_id(result.case_id)
    except KeyError as err:
        return err
    return None


@dataclass
class _Tally:
    """One run's clause relevance, summed one extraction at a time."""

    recalls: list[float] = field(default_factory=list)
    exact: list[float] = field(default_factory=list)
    cited_counts: list[int] = field(default_factory=list)
    incorrect: Counter[ClauseId] = field(default_factory=Counter)
    fallbacks: int = 0

    def add(self, extraction: ExtractionResult, gold: frozenset[ClauseId]) -> None:
        if extraction.used_fallback:
            self.fallbacks += 1
        cited = extraction.cited
        self.cited_counts.append(len(cited))
        if gold:
            self.recalls.append(len(cited & gold) / len(gold))
            self.exact.append(1.0 if cited == gold else 0.0)
            self.incorrect.update(cited - gold)

    def scored(self) -> ClauseRelevanceReport | MetricsError:
        if not self.recalls:
            return MetricsError("no_gold_annotations: no record has gold clauses")
        top_incorrect: Optional[ClauseId] = None
        if self.incorrect:
            best = max(self.incorrect.values())
            top_incorrect = min(c for c, n in self.incorrect.items() if n == best)
        n = len(self.cited_counts)
        return ClauseRelevanceReport(
            mu_cited=sum(self.cited_counts) / n,
            recall_pct=100.0 * sum(self.recalls) / len(self.recalls),
            exact_match_pct=100.0 * sum(self.exact) / len(self.exact),
            top_incorrect_clause=top_incorrect,
            coverage=len(self.recalls) / n,
            n_records=n,
            n_annotated=len(self.recalls),
            n_fallback_extractions=self.fallbacks,
        )


def clause_relevance_by_run(
    runs: list[list[InstanceResult]],
    dataset: Dataset,
    registry: ClauseRegistry,
    judge: Optional[ModelHandle] = None,
    concurrency: int = 1,
) -> list[ClauseRelevanceReport | Exception]:
    """`clause_relevance` of each run, or the error that stopped it, in run order.

    Every run's extractions are one `run_ordered` stream, run after run in result order, so
    up to `concurrency` calls stay in flight across runs. A run that is empty or names a
    case the dataset lacks is refused before the stream starts and makes no call; after a
    run's first error in result order, its results whose call has not begun make none.
    """
    failed = [_refusal(results, dataset) for results in runs]
    tallies = [_Tally() for _ in runs]

    def extract(item: tuple[int, InstanceResult]) -> Optional[ExtractionResult]:
        i, result = item
        if failed[i]:
            return None
        return extract_cited_clauses(result.turns[-1].response_text, registry, judge)

    items = ((i, result) for i, results in enumerate(runs) if not failed[i] for result in results)
    with closing(run_ordered(extract, items, concurrency)) as stream:
        for (i, result), extraction, err in stream:
            failed[i] = failed[i] or err
            if not failed[i]:
                tallies[i].add(extraction, dataset.by_id(result.case_id).gold_clauses)
    return [err or tally.scored() for err, tally in zip(failed, tallies)]


def clause_relevance(
    results: list[InstanceResult],
    dataset: Dataset,
    registry: ClauseRegistry,
    judge: Optional[ModelHandle] = None,
    concurrency: int = 1,
) -> ClauseRelevanceReport:
    """Score cited-vs-gold clause agreement over a result set.

    Per annotated record with gold set G and cited set C:
    recall = |C∩G|/|G|, exact match = [C == G]; both macro-averaged.
    Runs up to `concurrency` extractions at once; raises the first error in result order.
    """
    (rel,) = clause_relevance_by_run([results], dataset, registry, judge, concurrency)
    if isinstance(rel, Exception):
        raise rel
    return rel


@dataclass
class UtilizationReport:
    mu_ref: float
    sigma_ref: float
    pct_util: float
    n: int
    n_flagged: int = 0


_INT_REPLY_RE = re.compile(r"-?\d+")


def _count_references(raw_cot: str, judge: ModelHandle) -> tuple[int, bool]:
    """Ask the judge for a reference count; non-integer reply retried once,
    then counted as 0 and flagged."""
    prompt = render(TemplateId.UTILIZATION_COUNT, {"reasoning_text": raw_cot})
    for reply, _err in ask_twice(judge, prompt, ASSESS_PROFILE):
        m = _INT_REPLY_RE.search(reply)  # finds nothing in the "" of an error
        if m is not None:
            return max(0, int(m.group())), False
    return 0, True


def utilization(results: list[InstanceResult], judge: ModelHandle) -> UtilizationReport:
    """Mean reference count (population sigma) and percent of instances with
    at least one explicit reference to the provided trace demonstrations."""
    if not results:
        raise MetricsError("empty_input: no results")
    missing = [r.case_id for r in results if r.turns[-1].raw_cot is None]
    if missing:
        raise MetricsError(f"missing_raw_cot: {missing[:5]}")

    counts: list[int] = []
    flagged = 0
    for result in results:
        count, was_flagged = _count_references(result.turns[-1].raw_cot, judge)
        counts.append(count)
        if was_flagged:
            flagged += 1

    n = len(counts)
    mu = sum(counts) / n
    sigma = (sum((c - mu) ** 2 for c in counts) / n) ** 0.5
    pct = 100.0 * sum(1 for c in counts if c >= 1) / n
    return UtilizationReport(mu_ref=mu, sigma_ref=sigma, pct_util=pct, n=n, n_flagged=flagged)
