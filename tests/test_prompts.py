import re
from pathlib import Path

import pytest

from mock_corpus import LEARNER_SCRIPT
from golden_bindings import DEMOS_PLAIN, DEMOS_PRT, GOLDEN_BINDINGS, golden_check
from policytrace.corpus import Verdict
from policytrace.prompts import (
    DemoBlock,
    DemoCountMismatchError,
    MissingBindingError,
    PromptError,
    TemplateId,
    _template_text,
    format_demos,
    placeholders,
    render,
    template_hash,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"


def test_thirteen_templates():
    assert len(TemplateId) == 13


def test_template_sources_load():
    """Every template file is non-empty and has placeholders, all of them
    well-formed (lowercase identifiers only)."""
    for template_id in TemplateId:
        text = _template_text(template_id)
        assert text, f"template {template_id.value} is empty"
        assert placeholders(template_id), f"template {template_id.value} has no placeholders"
        stray = re.findall(r"\{[^a-z_][^}]*\}", text)
        assert not stray, f"template {template_id.value}: malformed placeholder {stray[0]!r}"


@pytest.mark.parametrize("template_id", list(TemplateId))
def test_golden_byte_exact(template_id):
    passed, diff = golden_check(template_id, GOLDEN_BINDINGS[template_id], GOLDEN_DIR)
    assert passed, diff


def test_template_hash_stable():
    assert template_hash(TemplateId.BASE) == template_hash(TemplateId.BASE)
    assert template_hash(TemplateId.BASE) != template_hash(TemplateId.FEWSHOT)


def test_placeholders_base():
    assert placeholders(TemplateId.BASE) == {"policy", "case"}
    assert placeholders(TemplateId.SELECT_RELEVANT) == {
        "k",
        "policy",
        "max_index",
        "case_information",
        "case_relevant_clauses",
        "candidates",
    }


def test_missing_binding_errors():
    with pytest.raises(MissingBindingError):
        render(TemplateId.BASE, {"policy": "p"})


def test_extraneous_binding_errors():
    with pytest.raises(PromptError):
        render(TemplateId.BASE, {"policy": "p", "case": "c", "bogus": "x"})


def test_demo_count_pinned_by_k():
    bindings = {"policy": "p", "case": "c", "demos": DEMOS_PLAIN}
    render(TemplateId.FEWSHOT, bindings, k=2)
    with pytest.raises(DemoCountMismatchError):
        render(TemplateId.FEWSHOT, bindings, k=3)


def test_empty_demos_rejected():
    with pytest.raises(DemoCountMismatchError):
        render(TemplateId.FEWSHOT, {"policy": "p", "case": "c", "demos": []})


def test_prt_text_required_for_prt_demos():
    with pytest.raises(PromptError):
        format_demos(TemplateId.FEWSHOT_PRT, DEMOS_PLAIN)


def test_a_plain_demo_never_shows_its_trace():
    # `render` alone decides: a caller may pass every demo with its trace.
    plain = render(TemplateId.FEWSHOT, {"policy": "p", "case": "c", "demos": DEMOS_PLAIN})
    traced = render(TemplateId.FEWSHOT, {"policy": "p", "case": "c", "demos": DEMOS_PRT})
    assert traced == plain
    assert "REASONING:" not in traced


def test_demo_numbering_order():
    demos = [
        DemoBlock(case_text="aaa", verdict=Verdict.COMPLIANT),
        DemoBlock(case_text="bbb", verdict=Verdict.NONCOMPLIANT),
        DemoBlock(case_text="ccc", verdict=Verdict.COMPLIANT),
    ]
    block = format_demos(TemplateId.FEWSHOT, demos)
    assert block == (
        "CASE 1: aaa\nVERDICT: COMPLIANT\n\n"
        "CASE 2: bbb\nVERDICT: NONCOMPLIANT\n\n"
        "CASE 3: ccc\nVERDICT: COMPLIANT"
    )


def test_prt_generate_echoes_verdict_thrice():
    rendered = render(
        TemplateId.PRT_GENERATE,
        {"policy": "p", "case": "c", "verdict": "NONCOMPLIANT"},
    )
    # {verdict} appears once in the header and twice in the instructions.
    assert rendered.count("NONCOMPLIANT") >= 3


def test_learner_script_routes_every_turn_prompt(policy):
    """Each strategy turn prompt must hit its intended scripted pattern."""
    base_bindings = {"policy": policy.full_text, "case": "a fresh case"}
    reasoning = "some earlier reasoning"
    prompts = {
        "Considering both your initial reasoning and the approaches shown": render(
            TemplateId.SELFREFINE_PRT_CRITIQUE_JUDGMENT,
            {**base_bindings, "initial_reasoning": reasoning, "demos": DEMOS_PRT},
        ),
        "refine your compliance analysis": render(
            TemplateId.SELFREFINE_JUDGMENT,
            {**base_bindings, "initial_reasoning": reasoning, "critique": "a critique"},
        ),
        "Do not give a final verdict yourself": render(
            TemplateId.SELFREFINE_CRITIQUE,
            {**base_bindings, "initial_reasoning": reasoning},
        ),
        "Preliminary Judgment": render(TemplateId.SELFREFINE_INITIAL, base_bindings),
        "### EXAMPLE CASES:": render(
            TemplateId.FEWSHOT_PRT, {**base_bindings, "demos": DEMOS_PRT}
        ),
        "### INITIAL REASONING:": render(TemplateId.SELFREFINE_PRT_INITIAL, base_bindings),
        "### REASONING AND FINAL VERDICT": render(TemplateId.BASE, base_bindings),
    }
    for expected_pattern, prompt in prompts.items():
        first_match = next(e.pattern for e in LEARNER_SCRIPT if e.pattern in prompt)
        assert first_match == expected_pattern
