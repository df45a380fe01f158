"""Seeded synthetic corpus for the benchmark.

Writes a ten-article policy, its clause registry, N train / N test cases, a
mock providers file that serves the expert, learner and judge roles, and a
config naming them. The same seed always gives the same files. Nothing here
imports the program: it only ever sees the files written.

Case design:
  * every case text is distinct (each carries its own site number), so the
    train/test hygiene check passes;
  * each case has 1-2 gold articles, and each split is exactly half
    COMPLIANT and half NONCOMPLIANT;
  * each case text ends in one of two closing sentences. The learner's
    single-turn reply keys on that closing sentence, so per-case correctness
    varies and the report's paired tests have something to compare.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

POLICY_ID = "benchpol"
EXPERT, LEARNER, JUDGE = "mock-expert", "mock-learner", "mock-judge"
# Mock learner prices in USD per 1M tokens (input, output).
LEARNER_PRICES = (0.40, 1.75)

ARTICLES = [
    ("Lawful Basis", "Processing of personal records requires a documented lawful basis "
     "recorded before collection begins. The basis is reviewed whenever the purpose changes."),
    ("Data Minimization", "Collection is limited to fields that are necessary for the stated "
     "purpose. Optional fields are collected only with a separate opt-in."),
    ("Consent Withdrawal", "A subject may withdraw consent at any time. Withdrawal takes "
     "effect within 72 hours and is confirmed to the subject in writing."),
    ("Breach Notification", "The controller notifies the supervisory authority of a breach "
     "within 72 hours of discovery. Affected subjects are told without undue delay."),
    ("Access Rights", "A subject may request a copy of all stored records about them once per "
     "quarter without charge. The copy is delivered within thirty days."),
    ("Retention Limits", "Records are kept no longer than the retention schedule allows. "
     "Expired records are erased or irreversibly anonymized."),
    ("Processor Contracts", "A processor acts only on documented instructions under a written "
     "contract. Sub-processors need prior written approval."),
    ("Cross-Border Transfers", "Records leave the jurisdiction only under an approved transfer "
     "mechanism. Each transfer is logged with its legal ground."),
    ("Security Measures", "Stored records are encrypted at rest and in transit. Access is "
     "restricted to staff whose duties require it."),
    ("Accountability", "The controller keeps a register of processing activities. The "
     "register is shown to the supervisory authority on request."),
]

_ORGS = ["clinic", "retailer", "gym", "processor", "bank", "broker", "school", "pharmacy",
         "vendor", "studio", "insurer", "charity", "airline", "hotel", "courier", "library"]
_ACTS = ["recorded its lawful basis before enrolling new members",
         "collected contact lists unrelated to its stated feature",
         "honored a consent withdrawal inside two days",
         "sat on a confirmed breach for three weeks",
         "mailed a full record copy within the request window",
         "kept expired loyalty records for six extra years",
         "let a sub-processor start without written approval",
         "moved customer files abroad without a logged transfer ground",
         "stored payment records unencrypted on a shared drive",
         "produced its processing register within a day of the request"]
_DETAILS = ["after a routine audit", "during a system migration", "following a complaint",
            "as part of a marketing push", "while changing suppliers", "after a staff turnover",
            "before a regulatory inspection", "in the middle of a merger"]
# The closing sentence decides the mock learner's single-turn verdict.
ENDINGS = {
    "COMPLIANT": "The file was closed without further action.",
    "NONCOMPLIANT": "The file was passed on for review.",
}

COMPLIANT_TRACE = (
    "1. The case shows a documented lawful basis recorded before any collection, "
    "satisfying Article 1.\n"
    "2. Only fields necessary for the stated purpose were collected, satisfying Article 2.\n"
    "3. Records were encrypted and access was limited to staff with a need, satisfying Article 9.\n"
    "4. The processing register was available on request, satisfying Article 10.\n"
    "5. Therefore, the case is COMPLIANT with respect to the policy."
)
NONCOMPLIANT_TRACE = (
    "1. The case shows collection of fields beyond the stated purpose, violating Article 2.\n"
    "2. No breach notification reached the supervisory authority within 72 hours, "
    "violating Article 4.\n"
    "3. Expired records were kept past the retention schedule, violating Article 6.\n"
    "4. A sub-processor acted without prior written approval, violating Article 7.\n"
    "5. Therefore, the case is NONCOMPLIANT with respect to the policy."
)


def _entry(pattern: str, text: str, raw_cot: str | None = None) -> dict:
    entry = {"pattern": pattern, "text": text}
    if raw_cot:
        entry["raw_cot"] = raw_cot
    return entry


def mock_script() -> list[dict]:
    """One script for all three roles. The first matching pattern wins, so
    the multi-turn and judge prompts come before the generic verdict ones."""
    script = [
        _entry("case is COMPLIANT with respect to the policy. Based on this", COMPLIANT_TRACE),
        _entry("case is NONCOMPLIANT with respect to the policy. Based on this", NONCOMPLIANT_TRACE),
        _entry("compares written case examples for similarity", "0,1,2"),
        _entry("extract all policy sections mentioned", "Article 1, Article 3"),
        _entry("precise text analyzer", "2"),
        _entry("Considering both your initial reasoning and the approaches shown",
               "Revisiting the initial analysis against the examples, the obligations under "
               "Article 1 hold. Final Judgment: COMPLIANT",
               "Based on the example reasoning, Article 1 is the controlling clause."),
        _entry("refine your compliance analysis",
               "The refined analysis shows the record falls short of Article 2. "
               "Final Judgment: NONCOMPLIANT", "Weighing the critique, Article 2 is decisive."),
        _entry("Do not give a final verdict yourself",
               "The initial pass overlooked the retention schedule and read Article 4 too narrowly.",
               "Listing weaknesses of the first pass."),
        _entry("Preliminary Judgment",
               "The record documents a lawful basis and limits collection to needed fields. "
               "Preliminary Judgment: COMPLIANT", "First pass over the record."),
        _entry("### INITIAL REASONING:",
               "The record appears to track the lawful basis and withdrawal clauses closely.",
               "Sketching an initial view before seeing examples."),
    ]
    for verdict, ending in ENDINGS.items():
        script.append(_entry(
            f"{ending}\n\n### EXAMPLE CASES:",
            f"The case matches the closest examples under Article 1 and Article 3. "
            f"Final Judgment: {verdict}", "Looking at the examples, the closest match decides."))
        script.append(_entry(
            f"{ending}\n\n### REASONING AND FINAL VERDICT",
            f"Article 2 and Article 5 are implicated by the case. Final Judgment: {verdict}",
            "Direct single-pass analysis."))
    return script


def learner_verdict(strategy: str, case_text: str) -> str:
    """The verdict the mock learner's final turn gives for a case."""
    if strategy == "selfrefine":
        return "NONCOMPLIANT"
    if strategy == "selfrefine_prt":
        return "COMPLIANT"
    for verdict, ending in ENDINGS.items():
        if case_text.endswith(ending):
            return verdict
    raise ValueError(f"case text has no known ending: {case_text[-60:]!r}")


def _cases(rng: random.Random, split: str, start: int, n: int) -> list[dict]:
    verdicts = ["COMPLIANT"] * (n // 2) + ["NONCOMPLIANT"] * (n - n // 2)
    rng.shuffle(verdicts)
    cases = []
    for i, verdict in enumerate(verdicts):
        site = start + i + 1
        articles = sorted(rng.sample(range(1, len(ARTICLES) + 1), rng.choice((1, 2))))
        text = (
            f"A {rng.choice(_ORGS)} at site {site} {rng.choice(_ACTS)} {rng.choice(_DETAILS)}. "
            f"The {rng.choice(_ORGS)} it works with {rng.choice(_ACTS)}. "
            f"{ENDINGS[rng.choice(('COMPLIANT', 'NONCOMPLIANT'))]}"
        )
        cases.append({
            "case_id": f"{split[:2]}{site:05d}",
            "case_text": text,
            "verdict": verdict,
            "clauses": [f"Article {a}" for a in articles],
            "split": split,
        })
    return cases


def write_corpus(root: Path, n: int, seed: int) -> Path:
    """Write the corpus for n train / n test cases under root; return the config path."""
    rng = random.Random(seed)
    root.mkdir(parents=True, exist_ok=True)
    policy = "\n".join(f"Article {i}: {title}\n{body}" for i, (title, body) in
                       enumerate(ARTICLES, start=1))
    (root / "policy.txt").write_text(policy + "\n", encoding="utf-8")
    registry = {
        "policy_id": POLICY_ID,
        "clauses": [{"canonical": f"Article {i}", "scheme": "article", "title": title,
                     "aliases": []} for i, (title, _) in enumerate(ARTICLES, start=1)],
    }
    (root / "registry.json").write_text(json.dumps(registry, indent=2) + "\n", encoding="utf-8")
    cases = _cases(rng, "train", 0, n) + _cases(rng, "test", n, n)
    (root / "cases.jsonl").write_text(
        "".join(json.dumps(c) + "\n" for c in cases), encoding="utf-8")
    providers = {
        "provider_id": "mock",
        "script": mock_script(),
        "models": [
            {"model_id": EXPERT},
            {"model_id": JUDGE},
            {"model_id": LEARNER, "supports_raw_cot": True,
             "price_in_usd_per_1m": LEARNER_PRICES[0], "price_out_usd_per_1m": LEARNER_PRICES[1]},
        ],
    }
    (root / "providers.json").write_text(json.dumps(providers, indent=2) + "\n", encoding="utf-8")
    config = {
        "policy_id": POLICY_ID,
        "policy_title": "Benchmark Data Handling Policy",
        "policy_file": "policy.txt",
        "registry_file": "registry.json",
        "dataset_file": "cases.jsonl",
        "providers_file": "providers.json",
        "expert_model": EXPERT,
        "learner_model": LEARNER,
        "judge_model": JUDGE,
        "seed": seed,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path
