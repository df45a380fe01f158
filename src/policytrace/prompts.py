"""Prompt template rendering with typed bindings.

Templates live as external text assets (one file per TemplateId) so the
rendered prompts and the vendored golden files cannot silently diverge.
Placeholder syntax is `{name}`; demo-bearing templates take a `demos` list of
DemoBlock and number the blocks "CASE 1:", "CASE 2:", ... in given order.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # an annotation only: at run time prompts imports nothing from the package
    from .corpus import Verdict


class PromptError(ValueError):
    pass


class MissingBindingError(PromptError):
    pass


class DemoCountMismatchError(PromptError):
    pass


class TemplateId(str, Enum):
    BASE = "base"
    FEWSHOT = "fewshot"
    FEWSHOT_PRT = "fewshot_prt"
    SELFREFINE_INITIAL = "selfrefine_initial"
    SELFREFINE_CRITIQUE = "selfrefine_critique"
    SELFREFINE_JUDGMENT = "selfrefine_judgment"
    SELFREFINE_PRT_INITIAL = "selfrefine_prt_initial"
    SELFREFINE_PRT_CRITIQUE_JUDGMENT = "selfrefine_prt_critique_judgment"
    PRT_GENERATE = "prt_generate"
    SELECT_RELEVANT = "select_relevant"
    CLAUSE_EXTRACT = "clause_extract"
    UTILIZATION_COUNT = "utilization_count"
    POLICY_SUMMARIZE = "policy_summarize"


# The assessment strategies and demo selection modes, here so that the CLI
# parser can list them without importing `assess`.
class StrategyKind(str, Enum):
    BASE = "base"
    FEWSHOT = "fewshot"
    FEWSHOT_PRT = "fewshot_prt"
    SELFREFINE = "selfrefine"
    SELFREFINE_PRT = "selfrefine_prt"


class SelectionMode(str, Enum):
    RAND = "rand"
    REL = "rel"


# Templates that take `{demos}`, and those whose demo blocks carry PRT text.
PRT_DEMO_TEMPLATES = frozenset(
    {TemplateId.FEWSHOT_PRT, TemplateId.SELFREFINE_PRT_CRITIQUE_JUDGMENT}
)
DEMO_TEMPLATES = PRT_DEMO_TEMPLATES | {TemplateId.FEWSHOT}

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


@dataclass(frozen=True)
class DemoBlock:
    case_text: str
    verdict: Verdict
    prt_text: Optional[str] = None


@functools.cache
def _template_text(template_id: TemplateId) -> str:
    # Templates are package data and do not change while the process runs;
    # reading them once keeps file I/O out of every render.
    return (
        resources.files("policytrace")
        .joinpath(f"templates/{template_id.value}.txt")
        .read_text(encoding="utf-8")
    )


@functools.cache
def _template_split(template_id: TemplateId) -> tuple[tuple[str, ...], frozenset[str]]:
    """The template as (literal, name, literal, ..., name, literal), and its
    placeholder names. Split once per process, so a render only joins."""
    split = tuple(_PLACEHOLDER_RE.split(_template_text(template_id)))
    return split, frozenset(split[1::2])


def placeholders(template_id: TemplateId) -> set[str]:
    return set(_template_split(template_id)[1])


def template_hash(template_id: TemplateId) -> str:
    return hashlib.sha256(_template_text(template_id).encode("utf-8")).hexdigest()


def format_demos(template_id: TemplateId, demos: list[DemoBlock]) -> str:
    if not demos:
        raise DemoCountMismatchError("at least one demonstration is required")
    wants_prt = template_id in PRT_DEMO_TEMPLATES
    blocks = []
    for i, demo in enumerate(demos, start=1):
        if wants_prt:
            if demo.prt_text is None:
                raise PromptError(f"demo {i}: prt_text required for {template_id.value}")
            blocks.append(
                f"CASE {i}: {demo.case_text}\n"
                f"REASONING: {demo.prt_text}\n"
                f"VERDICT: {demo.verdict.value}"
            )
        else:
            if demo.prt_text is not None:
                raise PromptError(f"demo {i}: prt_text forbidden for {template_id.value}")
            blocks.append(f"CASE {i}: {demo.case_text}\nVERDICT: {demo.verdict.value}")
    return "\n\n".join(blocks)


def render(template_id: TemplateId, bindings: dict, k: Optional[int] = None) -> str:
    """Substitute bindings into a template, byte-exactly.

    Bindings must cover every placeholder and contain nothing extra. For
    demo-bearing templates, `demos` is a list of DemoBlock; `k`, when given,
    pins the expected demonstration count.
    """
    split, required = _template_split(template_id)
    values = dict(bindings)
    if template_id in DEMO_TEMPLATES:
        if "demos" not in values:
            raise MissingBindingError("demos")
        demos = values.pop("demos")
        if k is not None and len(demos) != k:
            raise DemoCountMismatchError(f"expected {k} demos, got {len(demos)}")
        values["demos"] = format_demos(template_id, demos)

    missing = required - values.keys()
    if missing:
        raise MissingBindingError(", ".join(sorted(missing)))
    extraneous = values.keys() - required
    if extraneous:
        raise PromptError(f"extraneous bindings: {', '.join(sorted(extraneous))}")

    # One pass over the template: a bound value is never scanned for placeholders.
    parts = list(split)
    parts[1::2] = [str(values[name]) for name in split[1::2]]
    return "".join(parts)
