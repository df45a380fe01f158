"""The report over runs of one policy: per-run accuracy, cost and clause relevance,
and two-sided paired t-tests between runs, written as report.json, metrics.csv and pareto.csv."""

from __future__ import annotations

import csv
import io
import json
from itertools import combinations
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from . import significance as sig
from .assess import InstanceResult, RunManifest
from .clauses import ClauseRegistry
from .corpus import Dataset, Policy
from .gateway import ModelHandle
from .metrics import accuracy, clause_relevance_by_run
from .records import write_atomic


def build_report(
    runs: list[tuple[RunManifest, list[InstanceResult]]],
    handles: dict[str, ModelHandle],
    corpus: Optional[tuple[ClauseRegistry, Policy, Dataset]] = None,
    judge: Optional[ModelHandle] = None,
    concurrency: int = 1,
) -> dict:
    """The report dict over (manifest, results) runs, as `assess.load_run` reads them.

    Clause relevance is scored when `corpus` is given, after every run's accuracy, with
    every run's judge calls in one stream of up to `concurrency` calls.
    Each pair of runs gets a two-sided paired t-test, so its p-values do not depend on
    which run is named first; `ahead` names the run with the higher mean (None at t = 0).
    A pair whose test fails is listed, with its error, before the tested pairs.
    """
    rows = []
    for manifest, results in runs:
        handle = handles.get(manifest.learner_model)
        rows.append(
            {
                "run_id": manifest.run_id,
                "policy_id": manifest.policy_id,
                "strategy": manifest.strategy,
                "model": manifest.learner_model,
                "n": len(results),
                "accuracy_pct": accuracy(results),
                "cost_usd": sig.run_cost(results, handle) if handle else None,
            }
        )

    if corpus is not None:
        registry, _policy, dataset = corpus
        scored = clause_relevance_by_run([results for _, results in runs], dataset, registry,
                                         judge, concurrency)
        for rel, row in zip(scored, rows):
            if isinstance(rel, Exception):
                row["clause_relevance"] = {"error": f"{type(rel).__name__}: {rel}"}
                continue
            row["clause_relevance"] = {
                "mu_cited": rel.mu_cited,
                "recall_pct": rel.recall_pct,
                "exact_match_pct": rel.exact_match_pct,
                "top_incorrect_clause": (
                    rel.top_incorrect_clause.canonical if rel.top_incorrect_clause else None
                ),
                "coverage": rel.coverage,
                "fallback_extractions": rel.n_fallback_extractions,
            }

    correct = [{r.case_id: 1.0 if r.correct else 0.0 for r in results} for _, results in runs]
    comparisons: list[dict] = []
    tested: list[dict] = []
    for i, j in combinations(range(len(runs)), 2):
        shared = sorted(correct[i].keys() & correct[j].keys())
        a = [correct[i][c] for c in shared]
        b = [correct[j][c] for c in shared]
        pair = {"a": rows[i]["run_id"], "b": rows[j]["run_id"]}
        try:
            t_res = sig.paired_t_one_sided(a, b, sig.Direction.A_GT_B)
            d = sig.cohens_d(a, b)
        except sig.StatsError as err:
            comparisons.append({**pair, "error": str(err)})
            continue
        ahead = pair["a"] if t_res.t > 0 else pair["b"] if t_res.t < 0 else None
        tested.append({**pair, "n": len(shared), "t": t_res.t, "df": t_res.df,
                       "p_raw": min(1.0, 2 * sig.t_sf(abs(t_res.t), t_res.df)),
                       "ahead": ahead, "cohens_d": d})
    if tested:
        p_raw = [pair["p_raw"] for pair in tested]
        for pair, pb, ph in zip(tested, sig.bonferroni(p_raw), sig.holm(p_raw)):
            pair["p_bonferroni"] = pb
            pair["p_holm"] = ph
        comparisons.extend(tested)
    return {"runs": rows, "comparisons": comparisons}


def write_report(report: dict, out_dir: Path,
                 others: Mapping[Path, Iterable[str]] = MappingProxyType({})) -> None:
    """Write pareto.csv, metrics.csv and report.json after `others`, in one `write_atomic`."""
    priced = [r for r in report["runs"] if r["cost_usd"] is not None]
    points = [sig.CostAccuracyPoint(r["run_id"], r["cost_usd"], r["accuracy_pct"]) for r in priced]
    frontier = {p.label for p in sig.pareto_frontier(points)} if points else set()
    tables = {
        "pareto.csv": (["run_id", "cost_usd", "accuracy_pct", "on_frontier"],
                       [{**r, "on_frontier": int(r["run_id"] in frontier)} for r in priced]),
        "metrics.csv": (["policy_id", "model", "strategy", "n", "accuracy_pct", "cost_usd"],
                        report["runs"]),
    }
    files = dict(others)
    for name, (columns, rows) in tables.items():
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)
        files[out_dir / name] = [text.getvalue()]
    files[out_dir / "report.json"] = [json.dumps(report, indent=2) + "\n"]
    write_atomic(files)  # report.json last
