"""The mock corpus of the offline walkthrough and the test suite: a synthetic
article-scheme policy, its registry and twelve cases, and scripted replies for
the expert, judge and learner roles that cover every prompt flow.

`build_corpus` writes it to a directory with a providers file whose one mock
script serves all three model roles, and a config.json that names them.
"""

from __future__ import annotations

import json
from pathlib import Path

from policytrace.clauses import ClauseId, ClauseRegistry, Scheme, save_registry
from policytrace.gateway import MockScriptEntry

POLICY_TEXT = """Article 1: Lawful Basis
Processing of personal records requires a documented lawful basis recorded before collection begins.
Article 2: Data Minimization
Collection is limited to fields that are necessary for the stated purpose and nothing more.
Article 3: Consent Withdrawal
A subject may withdraw consent at any time and withdrawal must take effect within 72 hours.
Article 4: Breach Notification
The controller notifies the supervisory authority of a breach within 72 hours of discovery.
Article 5: Access Rights
A subject may request a copy of all stored records about them once per quarter without charge."""

ARTICLE_TITLES = {
    1: "Lawful Basis",
    2: "Data Minimization",
    3: "Consent Withdrawal",
    4: "Breach Notification",
    5: "Access Rights",
}

COMPLIANT_TRACE = (
    "1. The case shows a documented lawful basis recorded before any collection, "
    "satisfying Article 1.\n"
    "2. Only fields necessary for the stated purpose were collected, satisfying Article 2.\n"
    "3. Therefore, the case is COMPLIANT with respect to the policy."
)

NONCOMPLIANT_TRACE = (
    "1. The case shows collection of fields beyond the stated purpose, violating Article 2.\n"
    "2. No breach notification reached the supervisory authority within 72 hours, "
    "violating Article 4.\n"
    "3. Therefore, the case is NONCOMPLIANT with respect to the policy."
)

# Scripted replies, routed by template-distinctive substrings. Order matters:
# the first matching pattern wins, so the more specific multi-turn prompts
# come before the generic verdict prompts.
LEARNER_SCRIPT = [
    MockScriptEntry(
        pattern="Considering both your initial reasoning and the approaches shown",
        text=(
            "Revisiting the initial analysis against the examples, the obligations "
            "under Article 1 hold. Final Judgment: COMPLIANT"
        ),
        raw_cot="Based on the example reasoning, Article 1 is the controlling clause.",
    ),
    MockScriptEntry(
        pattern="refine your compliance analysis",
        text=(
            "The refined analysis shows the record falls short of Article 2. "
            "Final Judgment: NONCOMPLIANT"
        ),
        raw_cot="Weighing the critique, Article 2 is decisive.",
    ),
    MockScriptEntry(
        pattern="Do not give a final verdict yourself",
        text="The initial pass overlooked the retention schedule and read Article 4 too narrowly.",
        raw_cot="Listing weaknesses of the first pass.",
    ),
    MockScriptEntry(
        pattern="Preliminary Judgment",
        text=(
            "The record documents a lawful basis and limits collection to needed fields. "
            "Preliminary Judgment: COMPLIANT"
        ),
        raw_cot="First pass over the record.",
    ),
    MockScriptEntry(
        pattern="### EXAMPLE CASES:",
        text=(
            "The case cites Article 1 and Article 3 obligations and satisfies each. "
            "Final Judgment: COMPLIANT"
        ),
        raw_cot="Looking at the examples, the closest match is compliant.",
    ),
    MockScriptEntry(
        pattern="### INITIAL REASONING:",
        text="The record appears to track the lawful basis and withdrawal clauses closely.",
        raw_cot="Sketching an initial view before seeing examples.",
    ),
    MockScriptEntry(
        pattern="### REASONING AND FINAL VERDICT",
        text=(
            "Only Article 2 is implicated and the collection exceeds need. "
            "Final Judgment: NONCOMPLIANT"
        ),
        raw_cot="Direct single-pass analysis.",
    ),
]

EXPERT_SCRIPT = [
    MockScriptEntry(
        pattern="case is COMPLIANT with respect to the policy. Based on this",
        text=COMPLIANT_TRACE,
    ),
    MockScriptEntry(
        pattern="case is NONCOMPLIANT with respect to the policy. Based on this",
        text=NONCOMPLIANT_TRACE,
    ),
]

JUDGE_SCRIPT = [
    MockScriptEntry(pattern="compares written case examples for similarity", text="0,1,2"),
    MockScriptEntry(pattern="extract all policy sections mentioned", text="Article 1, Article 3"),
    MockScriptEntry(pattern="precise text analyzer", text="2"),
]

# (case_id, split, verdict, clauses); texts are derived below.
CASE_TABLE = [
    ("t01", "train", "COMPLIANT", ["Article 1"]),
    ("t02", "train", "NONCOMPLIANT", ["Article 2"]),
    ("t03", "train", "COMPLIANT", ["Article 1", "Article 3"]),
    ("t04", "train", "NONCOMPLIANT", ["Article 4"]),
    ("t05", "train", "COMPLIANT", ["Article 5"]),
    ("t06", "train", "NONCOMPLIANT", ["Article 2", "Article 4"]),
    ("c01", "test", "COMPLIANT", ["Article 1", "Article 3"]),
    ("c02", "test", "NONCOMPLIANT", ["Article 2"]),
    ("c03", "test", "COMPLIANT", ["Article 1"]),
    ("c04", "test", "NONCOMPLIANT", ["Article 4"]),
    ("c05", "test", "COMPLIANT", ["Article 3"]),
    ("c06", "test", "NONCOMPLIANT", []),
]

CASE_TEXTS = {
    "t01": "A clinic recorded its lawful basis register before enrolling new patients.",
    "t02": "A retailer harvested browsing history unrelated to order fulfilment.",
    "t03": "A gym documented consent and honored a withdrawal inside two days.",
    "t04": "A processor sat on a confirmed breach for three weeks before telling anyone.",
    "t05": "A bank mailed a full record copy within the quarterly request window.",
    "t06": "A broker collected extra identifiers and hid a breach from the authority.",
    "c01": "A school logged its lawful basis and processed a consent withdrawal same-day.",
    "c02": "An app collected contact lists it never needed for its stated feature.",
    "c03": "A pharmacy registered its lawful basis before the loyalty scheme launched.",
    "c04": "A vendor discovered a breach on Monday and stayed silent past the deadline.",
    "c05": "A studio erased a member's data two hours after the withdrawal email.",
    "c06": "A kiosk operator ran an undocumented scraping job over public photos.",
}


def build_registry() -> ClauseRegistry:
    registry = ClauseRegistry(policy_id="synthpol")
    for n, title in ARTICLE_TITLES.items():
        registry.add(ClauseId(f"Article {n}", Scheme.ARTICLE), title=title)
    return registry


def dataset_jsonl_lines() -> list[str]:
    lines = []
    for case_id, split, verdict, clauses in CASE_TABLE:
        lines.append(
            json.dumps(
                {
                    "case_id": case_id,
                    "case_text": CASE_TEXTS[case_id],
                    "verdict": verdict,
                    "clauses": clauses,
                    "split": split,
                }
            )
        )
    return lines


def script_to_config(script: list[MockScriptEntry]) -> list[dict]:
    return [
        {"pattern": e.pattern, "text": e.text, **({"raw_cot": e.raw_cot} if e.raw_cot else {})}
        for e in script
    ]


def build_corpus(root: Path) -> Path:
    """Write the corpus, providers file and config under root; return the config path."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "policy.txt").write_text(POLICY_TEXT, encoding="utf-8")
    save_registry(build_registry(), root / "registry.json")
    (root / "cases.jsonl").write_text("\n".join(dataset_jsonl_lines()) + "\n", encoding="utf-8")

    providers = {
        "provider_id": "mock",
        "script": script_to_config(EXPERT_SCRIPT + JUDGE_SCRIPT + LEARNER_SCRIPT),
        "models": [
            {"model_id": "mock-expert"},
            {"model_id": "mock-judge"},
            {
                "model_id": "mock-learner",
                "supports_raw_cot": True,
                "price_in_usd_per_1m": 0.40,
                "price_out_usd_per_1m": 1.75,
            },
        ],
    }
    (root / "providers.json").write_text(json.dumps(providers, indent=2), encoding="utf-8")

    config = {
        "policy_id": "synthpol",
        "policy_title": "Data Handling Policy",
        "policy_file": "policy.txt",
        "registry_file": "registry.json",
        "dataset_file": "cases.jsonl",
        "providers_file": "providers.json",
        "expert_model": "mock-expert",
        "learner_model": "mock-learner",
        "judge_model": "mock-judge",
        "seed": 42,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path
