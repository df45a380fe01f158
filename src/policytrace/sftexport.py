"""Compile trace-augmented train data into instruction-tuning records.

Each record carries only the clause texts gold-annotated for its case as
policy context, keeping finetuning inputs small; cases without annotations
fall back to the full policy text and are flagged. A clause's text is the
slice of the policy between the clause headings that `load_policy` found;
this module has no heading rule of its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .clauses import ClauseId
from .corpus import Policy, Split
from .records import jsonl_line, write_atomic

if TYPE_CHECKING:  # an annotation only: `validate` loads this module, and needs no prtgen
    from .prtgen import AugmentedDataset


class SFTExportError(ValueError):
    pass


INSTRUCTION = (
    "Analyze the case against the policy context provided and give your "
    "step-by-step reasoning followed by a single final verdict, COMPLIANT or "
    "NONCOMPLIANT, with respect to the policy."
)


def clause_text(policy: Policy, clause: ClauseId) -> str:
    """Slice one clause's text out of the standardized policy document.

    A clause starts at its first heading in `policy.headings` (the headings
    `load_policy` found) and runs until the next heading of another clause
    or end of document.
    """
    start = next((index for index, heading in policy.headings if heading == clause), None)
    if start is None:
        raise SFTExportError(f"unresolvable_clause: {clause.canonical!r} not found in policy text")
    end = next(
        (index for index, other in policy.headings if index > start and other != clause),
        len(policy.lines),
    )
    return "\n".join(policy.lines[start:end]).strip()


@dataclass
class ExportSummary:
    n_records: int
    n_full_policy_fallbacks: int
    flagged_case_ids: list[str] = field(default_factory=list)
    n_val: int = 0  # of the records, those split into val


def export_sft(aug: AugmentedDataset, policy: Policy, out: str | Path, val_fraction: float = 0.0,
               seed: int = 0,
               others: Mapping[Path, Iterable[str]] = MappingProxyType({})) -> ExportSummary:
    """Write one instruction-tuning record per triple to `out`, in case order, after the files
    of `others`, as one set (see `write_atomic`). A `val_fraction` in (0, 1) also splits the
    records (see `split_train_val`) into `sft.train.jsonl` and `sft.val.jsonl` for an `out` of
    `sft.jsonl`; one outside [0, 1) is refused. Records are built as they are written, all at
    once for a split; a test-split case or an unresolvable clause writes no file."""
    if not 0 <= val_fraction < 1:
        raise SFTExportError(f"invalid_fraction: {val_fraction}")
    fallbacks: list[str] = []
    triples = sorted(aug.triples, key=lambda t: t[0].case_id)

    def lines() -> Iterator[str]:
        for case, verdict, prt in triples:
            if case.split is not Split.TRAIN:
                raise SFTExportError(f"case {case.case_id}: test-split case in export input")
            if case.gold_clauses:
                parts = [clause_text(policy, clause) for clause in sorted(case.gold_clauses)]
                policy_context = "\n\n".join(parts)
                flagged = False
            else:
                policy_context = policy.full_text
                flagged = True
                fallbacks.append(case.case_id)
            record = {
                "instruction": INSTRUCTION,
                "policy_context": policy_context,
                "case": case.case_text,
                "target": f"{prt.prt_text}\nFinal Judgment: {verdict.value}",
                "case_id": case.case_id,
                "full_policy_fallback": flagged,
            }
            yield jsonl_line(record)

    out = Path(out)
    records, val = lines(), []
    if val_fraction:
        records = list(records)
        train, val = split_train_val(records, val_fraction, seed)
        others = {**others, out.with_suffix(".train.jsonl"): train,
                  out.with_suffix(".val.jsonl"): val}
    write_atomic({**others, out: records})  # `out` last
    return ExportSummary(n_records=len(triples), n_full_policy_fallbacks=len(fallbacks),
                         flagged_case_ids=fallbacks, n_val=len(val))


def split_train_val(records: list[str], val_fraction: float,
                    seed: int) -> tuple[list[str], list[str]]:
    """A seeded disjoint split of record lines into (train, val): the first
    `int(len(records) * val_fraction)` lines of a shuffled copy are val, the rest train."""
    shuffled = list(records)
    random.Random(seed).shuffle(shuffled)
    n_val = int(len(shuffled) * val_fraction)
    return shuffled[n_val:], shuffled[:n_val]
