"""Shared fixtures: the mock corpus of `scripts/mock_corpus.py` (a synthetic
article-scheme policy and scripted offline model handles covering every prompt
flow), plus the same clauses under the section scheme."""

from __future__ import annotations

import tracemalloc

import pytest

from mock_corpus import (
    ARTICLE_TITLES,
    CASE_TABLE,
    CASE_TEXTS,
    EXPERT_SCRIPT,
    JUDGE_SCRIPT,
    LEARNER_SCRIPT,
    POLICY_TEXT,
    build_corpus,
    build_registry,
)
from policytrace.clauses import ClauseId, ClauseRegistry, Scheme
from policytrace.corpus import CaseRecord, Dataset, Split, Verdict, load_policy
from policytrace.gateway import mock_provider

# The same five clauses under the section scheme. Most headings are bare
# section numbers, as in the HIPAA text; one is spelled out with "Section",
# and body lines may cite a section mid-line without heading it.
SECTION_POLICY_TEXT = """Privacy Rule (excerpt)
164.502 Lawful Basis
Processing of personal records requires a documented lawful basis recorded before collection begins.
164.504 Data Minimization
Collection is limited to fields that are necessary for the stated purpose under 164.502.
Section 164.506 Consent Withdrawal
A subject may withdraw consent at any time and withdrawal must take effect within 72 hours.
164.508 Breach Notification
The controller notifies the supervisory authority of a breach within 72 hours of discovery.
164.510 Access Rights
A subject may request a copy of all stored records about them once per quarter without charge."""

SECTIONS = {1: "164.502", 2: "164.504", 3: "164.506", 4: "164.508", 5: "164.510"}


def build_section_registry() -> ClauseRegistry:
    registry = ClauseRegistry(policy_id="synthpol")
    for n, title in ARTICLE_TITLES.items():
        registry.add(ClauseId(f"Section {SECTIONS[n]}", Scheme.SECTION), title=title)
    return registry


def traced_peak(fn) -> int:
    """The most bytes that `fn()` held allocated at once, as tracemalloc counts them."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def build_dataset(registry: ClauseRegistry) -> Dataset:
    records = []
    for case_id, split, verdict, clauses in CASE_TABLE:
        gold = frozenset(ClauseId(c, Scheme.ARTICLE) for c in clauses)
        records.append(
            CaseRecord(
                case_id=case_id,
                case_text=CASE_TEXTS[case_id],
                gold_verdict=Verdict(verdict),
                gold_clauses=gold,
                split=Split(split),
            )
        )
    return Dataset(tuple(records))


@pytest.fixture
def registry() -> ClauseRegistry:
    return build_registry()


@pytest.fixture
def policy(registry, tmp_path):
    path = tmp_path / "policy.txt"
    path.write_text(POLICY_TEXT, encoding="utf-8")
    return load_policy(path, registry, policy_id="synthpol", title="Data Handling Policy")


@pytest.fixture
def dataset(registry) -> Dataset:
    return build_dataset(registry)


@pytest.fixture
def learner_handle():
    return mock_provider(LEARNER_SCRIPT, model_id="mock-learner", supports_raw_cot=True)


@pytest.fixture
def expert_handle():
    return mock_provider(EXPERT_SCRIPT, model_id="mock-expert")


@pytest.fixture
def judge_handle():
    return mock_provider(JUDGE_SCRIPT, model_id="mock-judge")


@pytest.fixture
def corpus_dir(tmp_path):
    """On-disk corpus plus a providers file whose single mock script serves
    all three model roles; returns the directory with a config.json inside."""
    return build_corpus(tmp_path / "corpus").parent
