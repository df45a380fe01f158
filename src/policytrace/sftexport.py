"""Compile trace-augmented train data into instruction-tuning records.

Each record carries only the clause texts gold-annotated for its case as
policy context, keeping finetuning inputs small; cases without annotations
fall back to the full policy text and are flagged. A clause's text is the
slice of the policy between the clause headings that `load_policy` found;
this module has no heading rule of its own.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .clauses import ClauseId
from .corpus import Policy, Split, jsonl_lines

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


def export_sft(aug: AugmentedDataset, policy: Policy, out: str | Path) -> ExportSummary:
    """Write one instruction-tuning record per triple, in deterministic case order."""
    records = []
    fallbacks: list[str] = []
    triples = sorted(aug.triples, key=lambda t: t[0].case_id)
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
        records.append(
            {
                "instruction": INSTRUCTION,
                "policy_context": policy_context,
                "case": case.case_text,
                "target": f"{prt.prt_text}\nFinal Judgment: {verdict.value}",
                "case_id": case.case_id,
                "full_policy_fallback": flagged,
            }
        )

    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    out.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return ExportSummary(
        n_records=len(records),
        n_full_policy_fallbacks=len(fallbacks),
        flagged_case_ids=fallbacks,
    )


def split_train_val(
    records_path: str | Path,
    val_fraction: float,
    seed: int,
    train_out: str | Path,
    val_out: str | Path,
) -> tuple[int, int]:
    """Seeded disjoint split of an exported record file; fraction 0 keeps
    everything in train."""
    if not 0 <= val_fraction < 1:
        raise SFTExportError(f"invalid_fraction: {val_fraction}")
    lines = [l for l in jsonl_lines(Path(records_path)) if l.strip()]
    rng = random.Random(seed)
    shuffled = list(lines)
    rng.shuffle(shuffled)
    n_val = int(len(shuffled) * val_fraction)
    val_lines = shuffled[:n_val]
    train_lines = shuffled[n_val:]
    Path(train_out).write_text(
        "\n".join(train_lines) + ("\n" if train_lines else ""), encoding="utf-8"
    )
    Path(val_out).write_text("\n".join(val_lines) + ("\n" if val_lines else ""), encoding="utf-8")
    return len(train_lines), len(val_lines)
