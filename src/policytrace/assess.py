"""Assessment strategy execution: prompt flows, verdict parsing, resumable runs.

`TURNS` maps each strategy kind to the templates its turns render, in order.
Results persist as one JSON object per line; reruns skip already-recorded
case ids, so an interrupted run resumes with only the missing cases.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from contextlib import closing
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from types import NoneType
from typing import Optional

from .corpus import (
    CaseRecord, Dataset, Policy, Split, Verdict, check_types, enum_member, read_jsonl,
    read_object, verdict_tokens,
)
from .gateway import ASSESS_PROFILE, ModelHandle, complete, run_ordered
from .prompts import (  # re-exports StrategyKind and SelectionMode
    DEMO_TEMPLATES, PRT_DEMO_TEMPLATES, DemoBlock, SelectionMode, StrategyKind, TemplateId,
    render, template_hash,
)
from .prtgen import AugmentedDataset
from .select import SelectionResult, Triple, select_random, select_relevant


class AssessError(ValueError):
    pass


# Each turn renders its template with the policy, the case, the replies so far
# (the first as `initial_reasoning`, the second as `critique`) and, where the
# template takes `{demos}`, the case's demos, with traces for PRT_DEMO_TEMPLATES.
TURNS: dict[StrategyKind, tuple[TemplateId, ...]] = {
    StrategyKind.BASE: (TemplateId.BASE,),
    StrategyKind.FEWSHOT: (TemplateId.FEWSHOT,),
    StrategyKind.FEWSHOT_PRT: (TemplateId.FEWSHOT_PRT,),
    StrategyKind.SELFREFINE: (
        TemplateId.SELFREFINE_INITIAL,
        TemplateId.SELFREFINE_CRITIQUE,
        TemplateId.SELFREFINE_JUDGMENT,
    ),
    StrategyKind.SELFREFINE_PRT: (
        TemplateId.SELFREFINE_PRT_INITIAL,
        TemplateId.SELFREFINE_PRT_CRITIQUE_JUDGMENT,
    ),
}
_REPLY_NAMES = ("initial_reasoning", "critique")


@dataclass(frozen=True)
class Strategy:
    kind: StrategyKind
    selection: Optional[SelectionMode] = None
    k: int = 3

    def __post_init__(self) -> None:
        if self.k < 1:
            raise AssessError(f"k must be >= 1, got {self.k}")
        # Trace demos are chosen by a selection mode; plain demos are drawn at random.
        if not PRT_DEMO_TEMPLATES.isdisjoint(TURNS[self.kind]):
            if self.selection is None:
                raise AssessError(f"{self.kind.value} requires a selection mode (rand or rel)")
        elif self.selection is not None:
            raise AssessError(f"{self.kind.value} does not take a selection mode")

    @property
    def needs_pool(self) -> bool:
        return not DEMO_TEMPLATES.isdisjoint(TURNS[self.kind])

    def label(self) -> str:
        if self.selection:
            return f"{self.kind.value}({self.selection.value},k={self.k})"
        if self.needs_pool:
            return f"{self.kind.value}(k={self.k})"
        return self.kind.value


@dataclass
class Turn:
    template_id: str
    prompt_hash: str
    response_text: str
    raw_cot: Optional[str] = None
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass
class InstanceResult:
    case_id: str
    strategy: str
    turns: list[Turn]
    parsed_verdict: Optional[Verdict]
    correct: Optional[bool]
    flags: list[str] = field(default_factory=list)


_MARKER_RE = re.compile(r"final\s+judgment\s*:|final\s+verdict|verdict\s*:", re.IGNORECASE)


def parse_verdict(text: str) -> Optional[Verdict]:
    """Extract the decided verdict from model output; None means unparsed.

    The decision is the token after the last labeled marker when one exists,
    otherwise the last whole-token occurrence anywhere.
    """
    tokens = verdict_tokens(text)
    if not tokens:
        return None

    markers = list(_MARKER_RE.finditer(text))
    for marker in reversed(markers):
        following = [verdict for start, verdict in tokens if start >= marker.end()]
        if following:
            return following[0]
    return tokens[-1][1]


def _select_demos(
    case: CaseRecord,
    strategy: Strategy,
    pool: AugmentedDataset,
    judge: Optional[ModelHandle],
    policy: Policy,
    seed: int,
) -> tuple[list[Triple], list[str]]:
    # The target case must never appear in its own demonstration pool.
    if case.case_id in pool.index:
        raise AssessError(f"target case {case.case_id} found in demonstration pool")

    if strategy.selection is SelectionMode.REL:
        if judge is None:
            raise AssessError("relevance selection requires a judge handle")
        result: SelectionResult = select_relevant(
            case, pool, strategy.k, judge, policy_name=policy.title, seed=seed
        )
        return result.triples, result.flags
    # Per-case deterministic draw: mix the case id into the seed.
    case_seed = int.from_bytes(
        hashlib.sha256(f"{seed}|{case.case_id}".encode("utf-8")).digest()[:8], "big"
    )
    return select_random(pool, strategy.k, case_seed), []


def _demo_blocks(triples: list[Triple], with_prt: bool) -> list[DemoBlock]:
    return [
        DemoBlock(
            case_text=case.case_text,
            verdict=verdict,
            prt_text=prt.prt_text if with_prt else None,
        )
        for case, verdict, prt in triples
    ]


def run_instance(
    case: CaseRecord,
    policy: Policy,
    strategy: Strategy,
    learner: ModelHandle,
    pool: Optional[AugmentedDataset] = None,
    judge: Optional[ModelHandle] = None,
    seed: int = 0,
) -> InstanceResult:
    """Run one test case through a strategy's full turn sequence."""
    if case.split is not Split.TEST:
        raise AssessError(f"case {case.case_id}: assessment runs on test cases only")
    triples: list[Triple] = []
    flags: list[str] = []
    if strategy.needs_pool:
        if pool is None:
            raise AssessError(f"{strategy.kind.value} requires a demonstration pool")
        triples, flags = _select_demos(case, strategy, pool, judge, policy, seed)

    turns: list[Turn] = []
    for template_id in TURNS[strategy.kind]:
        bindings = {"policy": policy.full_text, "case": case.case_text}
        bindings.update(zip(_REPLY_NAMES, (turn.response_text for turn in turns)))
        if template_id in DEMO_TEMPLATES:
            bindings["demos"] = _demo_blocks(triples, template_id in PRT_DEMO_TEMPLATES)
        prompt = render(template_id, bindings, k=strategy.k)
        response = complete(learner, prompt, ASSESS_PROFILE)
        turns.append(
            Turn(
                template_id=template_id.value,
                prompt_hash=hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
                response_text=response.text,
                raw_cot=response.raw_cot,
                prompt_tokens=response.prompt_tokens,
                completion_tokens=response.completion_tokens,
            )
        )

    verdict = parse_verdict(turns[-1].response_text)
    if verdict is None:
        flags.append("unparsed_verdict")
    return InstanceResult(
        case_id=case.case_id,
        strategy=strategy.label(),
        turns=turns,
        parsed_verdict=verdict,
        correct=None if verdict is None else (verdict is case.gold_verdict),
        flags=flags,
    )


def result_to_obj(result: InstanceResult) -> dict:
    return {
        "case_id": result.case_id,
        "strategy": result.strategy,
        "turns": [vars(t) for t in result.turns],  # keys in Turn field order
        "parsed_verdict": result.parsed_verdict.value if result.parsed_verdict else None,
        "correct": result.correct,
        "flags": result.flags,
    }


_RESULT_TYPES = {
    "case_id": (str,), "strategy": (str,), "turns": (list,),
    "parsed_verdict": (str, NoneType), "correct": (bool, NoneType), "flags": (list,),
}
_TURN_TYPES = {
    "template_id": (str,), "prompt_hash": (str,), "response_text": (str,),
    "raw_cot": (str, NoneType), "prompt_tokens": (int,), "completion_tokens": (int,),
}


def result_from_obj(obj: dict) -> InstanceResult:
    check_types(obj, _RESULT_TYPES)
    for turn in obj["turns"]:
        check_types(turn, _TURN_TYPES)
    return InstanceResult(
        case_id=obj["case_id"],
        strategy=obj["strategy"],
        turns=[Turn(**t) for t in obj["turns"]],
        parsed_verdict=(
            enum_member(Verdict, obj["parsed_verdict"]) if obj.get("parsed_verdict") else None
        ),
        correct=obj.get("correct"),
        flags=obj.get("flags", []),
    )


def load_results(path: str | Path) -> list[InstanceResult]:
    results = []
    for lineno, obj in read_jsonl(Path(path), AssessError):
        try:
            results.append(result_from_obj(obj))
        except (KeyError, TypeError, ValueError) as err:
            raise AssessError(f"{path}:{lineno}: malformed record: {err}") from err
    return results


def _manifest_path(results_path: Path) -> Path:
    return results_path.with_name(results_path.name.replace(".results.jsonl", ".manifest.json"))


def load_run(results_path: Path) -> tuple[dict, list[InstanceResult]]:
    """A run's manifest, checked for the keys `report` reads, and its results."""
    if not results_path.name.endswith(".results.jsonl"):
        raise AssessError(f"{results_path} is not a <run_id>.results.jsonl results file")
    manifest_path = _manifest_path(results_path)
    if not manifest_path.exists():
        raise AssessError(f"manifest not found next to results: {manifest_path}")
    manifest = read_object(manifest_path, "manifest", AssessError)
    missing = sorted({"learner_model", "policy_id", "run_id", "strategy"} - manifest.keys())
    if missing:
        raise AssessError(f"manifest {manifest_path}: missing {', '.join(missing)}")
    return manifest, load_results(results_path)


@dataclass
class RunSummary:
    run_id: str
    total: int
    executed: int
    skipped: int
    correct: int
    unparsed: int
    failure_reasons: dict[str, str] = field(default_factory=dict)  # case id -> "ExcClass: msg"
    flagged_cases: list[str] = field(default_factory=list)

    @property
    def failed_cases(self) -> list[str]:
        return list(self.failure_reasons)

    @property
    def accuracy_pct(self) -> float:
        done = self.total - len(self.failed_cases)
        return 100.0 * self.correct / done if done else 0.0


def _manifest(
    run_id: str,
    policy: Policy,
    strategy: Strategy,
    learner: ModelHandle,
    judge: Optional[ModelHandle],
    seed: int,
    pool: Optional[AugmentedDataset],
) -> dict:
    return {
        "run_id": run_id,
        "policy_id": policy.policy_id,
        "strategy": strategy.label(),
        "learner_model": learner.model_id,
        "judge_model": judge.model_id if judge else None,
        "seed": seed,
        "k": strategy.k,
        "pool_hash": pool.content_hash if pool else None,
        "template_hashes": {t.value: template_hash(t) for t in TemplateId},
        "started_at": datetime.now(timezone.utc).isoformat(),
    }


def run_dataset(
    dataset: Dataset,
    policy: Policy,
    strategy: Strategy,
    learner: ModelHandle,
    out_dir: str | Path,
    pool: Optional[AugmentedDataset] = None,
    judge: Optional[ModelHandle] = None,
    seed: int = 0,
    concurrency: int = 1,
) -> tuple[Path, RunSummary]:
    """Assess every test case; resumable and tolerant of per-case failures.

    The run manifest is written before any model call. Results append in
    dataset order even when instances execute in parallel, and each record
    is flushed as it is written. A resume first cuts off a last record left
    half-written by a crash, and refuses to mix records made under a
    different manifest (anything but `started_at`). The results file is
    read once, on resume only; the summary counts the records it held plus
    each record written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{policy.policy_id}_{strategy.label()}_{learner.model_id}_s{seed}"
    run_id = re.sub(r"[^A-Za-z0-9._-]+", "-", run_id)
    results_path = out_dir / f"{run_id}.results.jsonl"
    manifest_path = _manifest_path(results_path)

    manifest = _manifest(run_id, policy, strategy, learner, judge, seed, pool)
    data = results_path.read_bytes() if results_path.exists() else b""
    end = data.rfind(b"\n") + 1
    if data[:end].strip() and manifest_path.exists():
        old = read_object(manifest_path, "manifest", AssessError)
        differ = sorted(
            key
            for key in manifest.keys() | old.keys()
            if key != "started_at" and manifest.get(key) != old.get(key)
        )
        if differ:
            raise AssessError(
                f"cannot resume {results_path.name}: configuration differs from its "
                f"manifest in {', '.join(differ)}"
            )
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")

    if end < len(data):  # a crash left the last record half-written
        os.truncate(results_path, end)
    results = load_results(results_path) if end else []
    done_ids = {result.case_id for result in results}

    test_cases = dataset.test
    todo = [c for c in test_cases if c.case_id not in done_ids]
    failure_reasons: dict[str, str] = {}
    executed = 0

    def _run_one(case: CaseRecord) -> InstanceResult:
        return run_instance(
            case, policy, strategy, learner, pool=pool, judge=judge, seed=seed
        )

    outcomes = closing(run_ordered(_run_one, todo, concurrency))
    with results_path.open("a", encoding="utf-8") as fh, outcomes as ordered:
        for case, result, err in ordered:
            if err is not None:
                failure_reasons[case.case_id] = f"{type(err).__name__}: {err}"
                continue
            fh.write(json.dumps(result_to_obj(result), ensure_ascii=False) + "\n")
            fh.flush()
            results.append(result)
            executed += 1

    summary = RunSummary(
        run_id=run_id,
        total=len(test_cases),
        executed=executed,
        skipped=len(done_ids),
        correct=sum(1 for r in results if r.correct),
        unparsed=sum(1 for r in results if r.parsed_verdict is None),
        failure_reasons=failure_reasons,
        flagged_cases=[r.case_id for r in results if r.flags],
    )
    return results_path, summary
