"""Generation, validation, and descriptive profiling of policy reasoning traces.

A trace is accepted only if it is enumerated (at least two "N." lines) and its
final enumerated line states exactly one verdict token that matches the case's
gold verdict. Failed generations get one retry, then are quarantined with the
failure reason so the drop-out rate stays auditable.
"""

from __future__ import annotations

import hashlib
import json
import re
from contextlib import closing
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Optional

from .corpus import (
    CaseRecord, Dataset, Policy, Split, Verdict, check_types, enum_member, read_jsonl,
    verdict_tokens,
)
from .gateway import PRT_GEN_PROFILE, ModelHandle, complete, run_ordered
from .prompts import TemplateId, render


class PRTError(ValueError):
    def __init__(self, message: str, reason: str = "validation_failed") -> None:
        super().__init__(message)
        self.reason = reason  # the quarantine reason, e.g. validate_prt's "format"


_ENUM_LINE_RE = re.compile(r"^\s*\d+\.\s*\S")


def validate_prt(text: str, gold: Verdict) -> Optional[PRTError]:
    """Check trace structure and verdict consistency; None means valid, else
    the error that says why not."""
    enum_lines = (line for line in reversed(text.splitlines()) if _ENUM_LINE_RE.match(line))
    final = next(enum_lines, None)
    if next(enum_lines, None) is None:  # the scan went back to the first line
        found = 0 if final is None else 1
        return PRTError(f"found {found} enumerated lines, need >= 2", "format")

    stated_verdicts = {verdict for _, verdict in verdict_tokens(final)}
    if len(stated_verdicts) > 1:
        return PRTError("final line contains both verdict tokens", "ambiguous")
    if not stated_verdicts:
        return PRTError("final enumerated line states no verdict", "missing_verdict")

    stated = stated_verdicts.pop()
    if stated is not gold:
        return PRTError(f"trace states {stated.value}, gold is {gold.value}", "verdict_mismatch")
    return None


def count_words(text: str) -> int:
    return len(text.split())


_SENTENCE_END_RE = re.compile(r"[.!?]+(?=\s|$)")
_ENUM_MARKER_RE = re.compile(r"^\d+\.\s*")


def count_sentences(text: str) -> int:
    """Sentences end in ./!/? ; an enumerated line with no terminal
    punctuation still counts as one sentence (enumeration boundary)."""
    total = 0
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        # Leading enumeration dots ("1.") are markers, not sentence ends.
        body = _ENUM_MARKER_RE.sub("", stripped)
        ends = len(_SENTENCE_END_RE.findall(body))
        if ends == 0 and _ENUM_LINE_RE.match(line):
            ends = 1
        total += ends
    return max(total, 1) if text.strip() else 0


@dataclass(frozen=True)
class PRTRecord:
    case_id: str
    expert_model: str
    prt_text: str
    echoed_verdict: Verdict
    word_count: int
    sentence_count: int
    prompt_hash: str
    created_at: str

    def __post_init__(self) -> None:
        if not self.prt_text:
            raise PRTError("prt_text must be non-empty")
        if self.word_count < 1 or self.sentence_count < 1:
            raise PRTError("counts must be >= 1")


Triple = tuple[CaseRecord, Verdict, PRTRecord]


@dataclass(frozen=True)
class AugmentedDataset:
    """An immutable pool, one trace per case; `index` and `content_hash` are built once."""

    triples: tuple[Triple, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "triples", tuple(self.triples))

    def __len__(self) -> int:
        return len(self.triples)

    @cached_property
    def index(self) -> MappingProxyType[str, int]:
        return MappingProxyType({case.case_id: i for i, (case, _, _) in enumerate(self.triples)})

    @cached_property
    def content_hash(self) -> str:
        h = hashlib.sha256()
        for case, verdict, prt in self.triples:
            h.update(case.case_id.encode("utf-8"))
            h.update(verdict.value.encode("utf-8"))
            h.update(prt.prt_text.encode("utf-8"))
        return h.hexdigest()


def _build_record(
    case: CaseRecord, expert_model: str, prt_text: str, prompt_hash: str
) -> PRTRecord:
    return PRTRecord(
        case_id=case.case_id,
        expert_model=expert_model,
        prt_text=prt_text,
        echoed_verdict=case.gold_verdict,
        word_count=count_words(prt_text),
        sentence_count=count_sentences(prt_text),
        prompt_hash=prompt_hash,
        created_at=datetime.now(timezone.utc).isoformat(),
    )


def generate_prt(case: CaseRecord, policy: Policy, expert: ModelHandle) -> PRTRecord:
    """Generate one validated trace for a train case (one retry, then raise)."""
    if case.split is not Split.TRAIN:
        raise PRTError(f"case {case.case_id}: traces are generated from train cases only")

    prompt = render(
        TemplateId.PRT_GENERATE,
        {
            "policy": policy.full_text,
            "case": case.case_text,
            "verdict": case.gold_verdict.value,
        },
    )
    prompt_hash = hashlib.sha256(prompt.encode("utf-8")).hexdigest()

    for attempt in range(2):
        response = complete(expert, prompt, PRT_GEN_PROFILE.for_attempt(attempt))
        failure = validate_prt(response.text, case.gold_verdict)
        if failure is None:
            return _build_record(case, expert.model_id, response.text, prompt_hash)
    raise PRTError(
        f"validation_failed({failure.reason}) for case {case.case_id}: {failure}",
        reason=failure.reason,
    ) from failure


def generate_augmented_dataset(
    dataset: Dataset, policy: Policy, expert: ModelHandle, concurrency: int = 1
) -> tuple[AugmentedDataset, list[tuple[str, PRTError]]]:
    """Generate traces for every train case; quarantine the irreparable ones
    as (case id, the PRTError that refused it) pairs.

    Up to `concurrency` cases are generated at once. Output order follows
    dataset order either way. Errors other than PRTError propagate.
    """
    triples: list[Triple] = []
    quarantine: list[tuple[str, PRTError]] = []
    outcomes = run_ordered(
        lambda case: generate_prt(case, policy, expert), dataset.train, concurrency
    )
    with closing(outcomes) as ordered:
        for case, record, err in ordered:
            if isinstance(err, PRTError):
                # dropping the traceback frees the frames that hold the case's prompt
                quarantine.append((case.case_id, err.with_traceback(None)))
            elif err is not None:
                raise err
            else:
                triples.append((case, case.gold_verdict, record))
    return AugmentedDataset(tuple(triples)), quarantine


@dataclass
class PRTStats:
    mu_word: float
    sigma_word: float
    mu_sent: float
    sigma_sent: float
    n: int


def prt_stats(records: list[PRTRecord]) -> PRTStats:
    """Population mean and standard deviation over word and sentence counts."""
    if not records:
        raise PRTError("empty_input: no records to profile")
    n = len(records)

    def _mu_sigma(values: list[int]) -> tuple[float, float]:
        mu = sum(values) / n
        var = sum((v - mu) ** 2 for v in values) / n
        return mu, var**0.5

    mu_w, sd_w = _mu_sigma([r.word_count for r in records])
    mu_s, sd_s = _mu_sigma([r.sentence_count for r in records])
    return PRTStats(mu_word=mu_w, sigma_word=sd_w, mu_sent=mu_s, sigma_sent=sd_s, n=n)


def prt_record_to_obj(record: PRTRecord) -> dict:
    return {**vars(record), "echoed_verdict": record.echoed_verdict.value}


def write_prt_store(aug: AugmentedDataset, path: str | Path) -> None:
    lines = [json.dumps(prt_record_to_obj(prt), ensure_ascii=False) for _, _, prt in aug.triples]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


_STORE_TYPES = {
    **dict.fromkeys(("case_id", "expert_model", "prt_text", "prompt_hash", "created_at"), (str,)),
    **dict.fromkeys(("word_count", "sentence_count"), (int,)),
}


def load_prt_store(path: str | Path, dataset: Dataset) -> AugmentedDataset:
    """Rebuild an augmented dataset from a trace store, re-running validation.

    Exactly one expert model per store file; every case must be a train case,
    and every record must echo its case's gold verdict.
    """
    triples: dict[str, Triple] = {}  # by case id
    experts: set[str] = set()
    for lineno, obj in read_jsonl(Path(path), PRTError):
        try:
            check_types(obj, _STORE_TYPES)
            obj["echoed_verdict"] = enum_member(Verdict, obj["echoed_verdict"])
            record = PRTRecord(**obj)
        except (KeyError, TypeError, ValueError) as err:
            raise PRTError(f"{path}:{lineno}: malformed record: {err}") from err
        experts.add(record.expert_model)
        if len(experts) > 1:
            raise PRTError(f"{path}:{lineno}: store mixes expert models: {sorted(experts)}")
        try:
            case = dataset.by_id(record.case_id)
        except KeyError:
            raise PRTError(
                f"{path}:{lineno}: case {record.case_id} is not in the dataset"
            ) from None
        if case.split is not Split.TRAIN:
            raise PRTError(f"{path}:{lineno}: case {record.case_id} is not in the train split")
        if record.echoed_verdict is not case.gold_verdict:
            raise PRTError(
                f"{path}:{lineno}: echoed verdict {record.echoed_verdict.value} of case "
                f"{record.case_id} is not its gold verdict {case.gold_verdict.value}"
            )
        failure = validate_prt(record.prt_text, case.gold_verdict)
        if failure is not None:
            raise PRTError(
                f"{path}:{lineno}: stored trace fails validation ({failure.reason}): {failure}"
            )
        if record.case_id in triples:
            raise PRTError(f"{path}:{lineno}: duplicate trace for case {record.case_id}")
        triples[record.case_id] = (case, case.gold_verdict, record)
    return AugmentedDataset(tuple(triples.values()))
