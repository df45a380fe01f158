"""Assessment strategy execution: prompt flows, verdict parsing, resumable runs.

`TURNS` maps each strategy kind to the templates its turns render, in order.
Results persist as one JSON object per line; reruns skip already-recorded
case ids, so an interrupted run resumes with only the missing cases.
"""

from __future__ import annotations

import json
import re
from contextlib import closing
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Optional

from .corpus import CaseRecord, Dataset, Policy, Split, Verdict, verdict_tokens
from .gateway import ASSESS_PROFILE, ModelHandle, complete, run_ordered
from .prompts import (  # re-exports StrategyKind and SelectionMode
    DEMO_TEMPLATES, PRT_DEMO_TEMPLATES, DemoBlock, SelectionMode, StrategyKind, TemplateId,
    render, template_hash,
)
from .prtgen import AugmentedDataset
from .records import (JsonlSink, file_stem, from_json, hash_seed, read_record, read_records,
                      sha256_hex, to_json, write_atomic)
from .select import SelectionResult, Triple, _check_k, select_random, select_relevant


class AssessError(ValueError):
    pass


# Each turn renders its template with the policy, the case, the replies so far
# (the first as `initial_reasoning`, the second as `critique`) and, where the
# template takes `{demos}`, the case's demos with traces, which `render` shows or hides.
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

    def __post_init__(self) -> None:
        if not self.turns:
            raise AssessError("turns must be non-empty")
        if (self.correct is None) is not (self.parsed_verdict is None):
            raise AssessError(f"correct must be None iff parsed_verdict is, got {self.correct!r}")


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
    return select_random(pool, strategy.k, hash_seed(f"{seed}|{case.case_id}")), []


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
    demos = [DemoBlock(demo.case_text, verdict, prt.prt_text) for demo, verdict, prt in triples]

    turns: list[Turn] = []
    for template_id in TURNS[strategy.kind]:
        bindings = {"policy": policy.full_text, "case": case.case_text}
        bindings.update(zip(_REPLY_NAMES, (turn.response_text for turn in turns)))
        if template_id in DEMO_TEMPLATES:
            bindings["demos"] = demos
        prompt = render(template_id, bindings, k=strategy.k)
        response = complete(learner, prompt, ASSESS_PROFILE)
        turns.append(
            Turn(
                template_id=template_id.value,
                prompt_hash=sha256_hex(prompt),
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


def load_results(path: str | Path) -> list[InstanceResult]:
    """The results file's records, in file order; at most one per case."""
    return [result for _, result in read_records(Path(path), partial(from_json, InstanceResult),
                                                 AssessError, "result")]


def _manifest_path(results_path: Path) -> Path:
    return results_path.with_name(results_path.name.replace(".results.jsonl", ".manifest.json"))


@dataclass
class RunManifest:
    """What identifies a run's results; a resume refuses one that differs but in `started_at`."""
    run_id: str
    policy_id: str
    strategy: str
    learner_model: str
    judge_model: Optional[str]
    seed: int
    k: int
    pool_hash: Optional[str]
    template_hashes: dict  # template id -> hash
    started_at: str = field(compare=False)


def load_run(results_path: Path) -> tuple[RunManifest, list[InstanceResult]]:
    """A run's manifest and its results, of which there must be at least one."""
    if not results_path.name.endswith(".results.jsonl"):
        raise AssessError(f"{results_path} is not a <run_id>.results.jsonl results file")
    manifest_path = _manifest_path(results_path)
    if not manifest_path.exists():
        raise AssessError(f"manifest not found next to results: {manifest_path}")
    manifest = read_record(manifest_path, RunManifest, "manifest", AssessError)
    results = load_results(results_path)
    if not results:
        raise AssessError(f"{results_path}: no results")
    return manifest, results


@dataclass
class RunSummary:
    run_id: str
    total: int
    executed: int = 0
    skipped: int = 0
    correct: int = 0
    unparsed: int = 0
    failure_reasons: dict[str, str] = field(default_factory=dict)  # case id -> "ExcClass: msg"
    flagged_cases: list[str] = field(default_factory=list)

    def count(self, result: InstanceResult) -> None:
        """Count one result that the results file holds."""
        self.correct += bool(result.correct)
        self.unparsed += result.parsed_verdict is None
        if result.flags:
            self.flagged_cases.append(result.case_id)

    @property
    def failed_cases(self) -> list[str]:
        return list(self.failure_reasons)

    @property
    def accuracy_pct(self) -> float:
        done = self.total - len(self.failed_cases)
        return 100.0 * self.correct / done if done else 0.0


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
    different manifest (anything but `started_at`), or a record of a case
    that is not a test case of the dataset. The results file is
    read once, on resume only; the summary counts the records it held plus
    each record written, and keeps none of them.
    """
    if strategy.selection is SelectionMode.REL and judge is None:
        raise AssessError("relevance selection requires a judge handle")
    if strategy.needs_pool and pool is not None:
        _check_k(pool, strategy.k)  # else each case would fail alike
    out_dir = Path(out_dir)
    run_id = file_stem(f"{policy.policy_id}_{strategy.label()}_{learner.model_id}_s{seed}")
    results_path = out_dir / f"{run_id}.results.jsonl"
    manifest_path = _manifest_path(results_path)

    manifest = RunManifest(
        run_id=run_id, policy_id=policy.policy_id, strategy=strategy.label(),
        learner_model=learner.model_id, judge_model=judge.model_id if judge else None,
        seed=seed, k=strategy.k, pool_hash=pool.content_hash if pool else None,
        template_hashes={t.value: template_hash(t) for t in TemplateId},
        started_at=datetime.now(timezone.utc).isoformat())
    sink = JsonlSink(results_path)
    if sink.resumes and manifest_path.exists():
        old = read_record(manifest_path, RunManifest, "manifest", AssessError)
        differ = sorted(f.name for f in fields(RunManifest)
                        if f.compare and getattr(manifest, f.name) != getattr(old, f.name))
        if differ:
            raise AssessError(
                f"cannot resume {results_path.name}: configuration differs from its "
                f"manifest in {', '.join(differ)}"
            )
    write_atomic({manifest_path: [json.dumps(to_json(manifest), indent=2, sort_keys=True) + "\n"]})

    test_cases = dataset.test
    test_ids = {case.case_id for case in test_cases}
    summary = RunSummary(run_id=run_id, total=len(test_cases))
    done_ids: set[str] = set()

    run_one = partial(run_instance, policy=policy, strategy=strategy, learner=learner,
                      pool=pool, judge=judge, seed=seed)
    with sink:
        for _, result in read_records(results_path, partial(from_json, InstanceResult),
                                      AssessError, "result"):
            if result.case_id not in test_ids:
                raise AssessError(f"cannot resume {results_path.name}: case {result.case_id} "
                                  "is not a test case of the dataset")
            done_ids.add(result.case_id)
            summary.count(result)
        summary.skipped = len(done_ids)
        todo = [c for c in test_cases if c.case_id not in done_ids]
        with closing(run_ordered(run_one, todo, concurrency)) as ordered:
            for case, result, err in ordered:
                if err is not None:
                    summary.failure_reasons[case.case_id] = f"{type(err).__name__}: {err}"
                    continue
                sink.append(result)
                summary.count(result)
                summary.executed += 1
    return results_path, summary
