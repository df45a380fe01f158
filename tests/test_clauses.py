import pytest

from policytrace.clauses import (
    ClauseId,
    ClauseRegistry,
    RegistryError,
    Scheme,
    extract_cited_clauses,
    load_registry,
    normalize,
    save_registry,
)
from policytrace.gateway import MockScriptEntry, mock_provider


def cid(n: int) -> ClauseId:
    return ClauseId(f"Article {n}", Scheme.ARTICLE)


def test_resolve_exact_and_spacing(registry):
    assert registry.resolve("Article 3") == cid(3)
    assert registry.resolve("article 3") == cid(3)
    assert registry.resolve("Article3") is None  # no space, key differs: "article3"


def test_alias_collision_rejected():
    registry = ClauseRegistry(policy_id="p")
    registry.add(ClauseId("Article 1", Scheme.ARTICLE), aliases=["Lawfulness"])
    with pytest.raises(RegistryError):
        registry.add(ClauseId("Article 2", Scheme.ARTICLE), aliases=["lawfulness"])


def test_named_scheme_title_is_alias():
    registry = ClauseRegistry(policy_id="p")
    clause = ClauseId("Stay in bounds", Scheme.NAMED)
    registry.add(clause, title="Stay in bounds!")
    assert registry.resolve("stay in bounds") == clause
    assert registry.resolve("Stay, in bounds") == clause  # punctuation stripped


def test_subsection_never_keys_as_a_longer_number():
    registry = ClauseRegistry(policy_id="p")
    registry.add(ClauseId("Article 5(1)", Scheme.ARTICLE))
    registry.add(cid(51))  # same key as "Article 5(1)" when parentheses were dropped
    assert registry.resolve("Article 5(1)") == ClauseId("Article 5(1)", Scheme.ARTICLE)
    assert registry.resolve("Article 51") == cid(51)
    assert normalize("Article 5(2)", registry) == ([], ["Article 5(2)"])


def test_registry_round_trip(registry, tmp_path):
    path = tmp_path / "reg.json"
    save_registry(registry, path)
    loaded = load_registry(path)
    assert set(loaded.canonicals()) == set(registry.canonicals())
    assert loaded.policy_id == registry.policy_id


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Article 1", [1]),
        ("Article 1,3,4", [1, 3, 4]),
        ("Articles 2 and 5", [2, 5]),
        ("Article 1, Article 2, Article 3", [1, 2, 3]),
        ("article1", [1]),
        ("Article 2 & 4", [2, 4]),
    ],
)
def test_normalize_contracted_articles(registry, raw, expected):
    resolved, unknowns = normalize(raw, registry)
    assert resolved == [cid(n) for n in expected]
    assert unknowns == []


def test_normalize_reports_unknowns(registry):
    resolved, unknowns = normalize("Article 2, Article 99", registry)
    assert resolved == [cid(2)]
    assert unknowns == ["Article 99"]


def test_normalize_dedupes_preserving_order(registry):
    resolved, unknowns = normalize("Article 3, Article 1, Article 3", registry)
    assert resolved == [cid(3), cid(1)]
    assert unknowns == []


def test_normalize_empty_string(registry):
    assert normalize("", registry) == ([], [])
    assert normalize("   ", registry) == ([], [])


def test_section_scheme_expansion():
    registry = ClauseRegistry(policy_id="hip")
    s1 = ClauseId("Section 164.502", Scheme.SECTION)
    s2 = ClauseId("Section 164.512(a)", Scheme.SECTION)
    registry.add(s1)
    registry.add(s2)
    resolved, unknowns = normalize("Sections 164.502 and 164.512(a)", registry)
    assert resolved == [s1, s2]
    assert unknowns == []
    resolved, _ = normalize("164.502(b)", registry)
    # Subparagraph is a distinct mention; parent gets no credit.
    assert resolved == []


def test_regex_extraction_without_judge(registry):
    text = "The case violates Article 2 and arguably Articles 4 and 5 as well."
    result = extract_cited_clauses(text, registry)
    assert result.cited == {cid(2), cid(4), cid(5)}
    assert not result.used_fallback


def test_judge_extraction_primary(registry):
    judge = mock_provider({"extract all policy sections": "Article 1, Article 4"})
    result = extract_cited_clauses("free text without markers", registry, judge)
    assert result.cited == {cid(1), cid(4)}
    assert not result.used_fallback


def test_judge_garbage_falls_back_to_regex(registry):
    judge = mock_provider({"extract all policy sections": "no clauses here whatsoever"})
    result = extract_cited_clauses("the reasoning leans on Article 5 alone", registry, judge)
    assert result.cited == {cid(5)}
    assert result.used_fallback


def test_judge_empty_reply_means_no_citations(registry):
    judge = mock_provider({"extract all policy sections": "   "})
    result = extract_cited_clauses("nothing cited", registry, judge)
    assert result.cited == set()
    assert not result.used_fallback


def test_named_title_substring_extraction():
    registry = ClauseRegistry(policy_id="ms")
    clause = ClauseId("Stay in bounds", Scheme.NAMED)
    registry.add(clause, title="Stay in bounds")
    result = extract_cited_clauses(
        "The assistant failed to stay in bounds when asked.", registry
    )
    assert result.cited == {clause}


def test_unreachable_judge_uses_fallback(registry):
    from policytrace.gateway import ModelHandle, Provider, RateLimitedError, RetryPolicy

    class Down(Provider):
        def generate(self, model_id, prompt, cfg):
            raise RateLimitedError("always down")

    handle = ModelHandle(
        provider_id="mock",
        model_id="down",
        provider=Down(),
        retry=RetryPolicy(base_delay_s=0.0, max_attempts=1),
    )
    result = extract_cited_clauses("cites Article 1 plainly", registry, handle)
    assert result.cited == {cid(1)}
    assert result.used_fallback
