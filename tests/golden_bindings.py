"""Fixed bindings used to render every template against its golden file,
and the byte-exact comparison of a render with its golden."""

import difflib
from pathlib import Path

from policytrace.corpus import Verdict
from policytrace.prompts import DemoBlock, TemplateId, render

POLICY = "Article 1: Lawful Basis\nProcessing requires a documented lawful basis."
CASE = "A clinic recorded its lawful basis register before enrolling new patients."
REASONING = (
    "1. The case shows a documented lawful basis, satisfying Article 1.\n"
    "2. Therefore, the case is COMPLIANT with respect to the policy."
)
CRITIQUE = "The initial pass did not check whether the register predates enrollment."

DEMOS_PLAIN = [
    DemoBlock(case_text="First demo case text.", verdict=Verdict.COMPLIANT),
    DemoBlock(case_text="Second demo case text.", verdict=Verdict.NONCOMPLIANT),
]
DEMOS_PRT = [
    DemoBlock(
        case_text="First demo case text.",
        verdict=Verdict.COMPLIANT,
        prt_text=REASONING,
    ),
    DemoBlock(
        case_text="Second demo case text.",
        verdict=Verdict.NONCOMPLIANT,
        prt_text=(
            "1. The case collects fields beyond need, violating Article 2.\n"
            "2. Therefore, the case is NONCOMPLIANT with respect to the policy."
        ),
    ),
]

CANDIDATES = (
    "Case 1 (Description): First demo case text.\n"
    "Case 1 (Relevant Policy Clauses): Article 1\n\n"
    "Case 2 (Description): Second demo case text.\n"
    "Case 2 (Relevant Policy Clauses): Article 2, Article 4"
)

GOLDEN_BINDINGS = {
    TemplateId.BASE: {"policy": POLICY, "case": CASE},
    TemplateId.FEWSHOT: {"policy": POLICY, "case": CASE, "demos": DEMOS_PLAIN},
    TemplateId.FEWSHOT_PRT: {"policy": POLICY, "case": CASE, "demos": DEMOS_PRT},
    TemplateId.SELFREFINE_INITIAL: {"policy": POLICY, "case": CASE},
    TemplateId.SELFREFINE_CRITIQUE: {
        "policy": POLICY,
        "case": CASE,
        "initial_reasoning": REASONING,
    },
    TemplateId.SELFREFINE_JUDGMENT: {
        "policy": POLICY,
        "case": CASE,
        "initial_reasoning": REASONING,
        "critique": CRITIQUE,
    },
    TemplateId.SELFREFINE_PRT_INITIAL: {"policy": POLICY, "case": CASE},
    TemplateId.SELFREFINE_PRT_CRITIQUE_JUDGMENT: {
        "policy": POLICY,
        "case": CASE,
        "initial_reasoning": REASONING,
        "demos": DEMOS_PRT,
    },
    TemplateId.PRT_GENERATE: {"policy": POLICY, "case": CASE, "verdict": "COMPLIANT"},
    TemplateId.SELECT_RELEVANT: {
        "k": 3,
        "policy": "Data Handling Policy",
        "max_index": 9,
        "case_information": CASE,
        "case_relevant_clauses": "Article 1",
        "candidates": CANDIDATES,
    },
    TemplateId.CLAUSE_EXTRACT: {
        "policy_section_masterlist": "Article 1, Article 2, Article 3, Article 4, Article 5",
        "reasoning_text": REASONING,
    },
    TemplateId.UTILIZATION_COUNT: {"reasoning_text": REASONING},
    TemplateId.POLICY_SUMMARIZE: {"policy": POLICY},
}


def golden_check(
    template_id: TemplateId, fixture_bindings: dict, golden_dir: str | Path
) -> tuple[bool, str]:
    """Render with fixture bindings and compare byte-for-byte to the golden.

    Returns (passed, diff); diff is empty on pass.
    """
    rendered = render(template_id, fixture_bindings)
    golden_path = Path(golden_dir) / f"{template_id.value}.golden.txt"
    golden = golden_path.read_text(encoding="utf-8")
    if rendered == golden:
        return True, ""
    diff = "\n".join(
        difflib.unified_diff(
            golden.splitlines(),
            rendered.splitlines(),
            fromfile=str(golden_path),
            tofile=f"render({template_id.value})",
            lineterm="",
        )
    )
    return False, diff
