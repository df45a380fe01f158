"""Aggregate accuracy, clause-citation relevance, and trace utilization.

Clause relevance is macro-averaged over the records that carry gold clause
annotations; mean cited-clause count runs over all records, with annotation
coverage reported so the two denominators stay visible.
"""

from __future__ import annotations

import re
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from typing import Optional

from .assess import InstanceResult
from .clauses import ClauseId, ClauseRegistry, extract_cited_clauses
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
    if not results:
        raise MetricsError("empty_input: no results")

    recalls: list[float] = []
    exact: list[float] = []
    cited_counts: list[int] = []
    incorrect: Counter[ClauseId] = Counter()
    fallbacks = 0

    def _extract(result: InstanceResult):
        return extract_cited_clauses(result.turns[-1].response_text, registry, judge)

    with closing(run_ordered(_extract, results, concurrency)) as ordered:
        for result, extraction, err in ordered:
            record = dataset.by_id(result.case_id)
            if err is not None:
                raise err
            if extraction.used_fallback:
                fallbacks += 1
            cited = extraction.cited
            cited_counts.append(len(cited))
            gold = record.gold_clauses
            if not gold:
                continue
            recalls.append(len(cited & gold) / len(gold))
            exact.append(1.0 if cited == gold else 0.0)
            incorrect.update(cited - gold)

    if not recalls:
        raise MetricsError("no_gold_annotations: no record has gold clauses")

    top_incorrect: Optional[ClauseId] = None
    if incorrect:
        best = max(incorrect.values())
        top_incorrect = min(c for c, n in incorrect.items() if n == best)

    return ClauseRelevanceReport(
        mu_cited=sum(cited_counts) / len(cited_counts),
        recall_pct=100.0 * sum(recalls) / len(recalls),
        exact_match_pct=100.0 * sum(exact) / len(exact),
        top_incorrect_clause=top_incorrect,
        coverage=len(recalls) / len(results),
        n_records=len(results),
        n_annotated=len(recalls),
        n_fallback_extractions=fallbacks,
    )


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
