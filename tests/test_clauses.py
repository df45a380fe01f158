import json
import re
import sys
import threading

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


def test_an_alias_collision_names_each_clauses_scheme():
    registry = ClauseRegistry(policy_id="p")
    registry.add(ClauseId("Article 5", Scheme.ARTICLE))
    with pytest.raises(RegistryError) as err:
        registry.add(ClauseId("Article 5", Scheme.NAMED))
    assert str(err.value) == (
        "alias 'Article 5' maps to both 'Article 5' (article) and 'Article 5' (named)")


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


def _numbered_registry(*canonicals: str) -> ClauseRegistry:
    registry = ClauseRegistry(policy_id="p")
    for canonical in canonicals:
        scheme = Scheme.ARTICLE if canonical.startswith("Article") else Scheme.SECTION
        registry.add(ClauseId(canonical, scheme))
    return registry


@pytest.mark.parametrize(
    "whole,mention",
    [("Article 5", "Article 5(1)"), ("Section 164.502", "164.502(a)(1)")],
)
def test_subsection_mention_resolves_to_whole_clause(whole, mention):
    registry = _numbered_registry(whole)
    clause = registry.resolve(whole)
    assert normalize(mention, registry) == ([clause], [])
    assert extract_cited_clauses(f"This falls under {mention}.", registry).cited == {clause}


@pytest.mark.parametrize(
    "canonicals,mention,expected",
    [
        # The full mention wins when it is registered.
        (("Article 5", "Article 5(1)", "Article 5(2)"), "Article 5(1)", "Article 5(1)"),
        (("Section 164.502", "Section 164.502(a)"), "164.502(a)", "Section 164.502(a)"),
        # Groups are stripped one at a time: the nearest registered parent wins.
        (("Article 5", "Article 5(1)"), "Article 5(1)(f)", "Article 5(1)"),
        (("Section 164.502", "Section 164.502(a)"), "164.502(a)(1)", "Section 164.502(a)"),
        (("Section 164.502", "Section 164.502(a)"), "164.502(b)", "Section 164.502"),
    ],
)
def test_registered_subsection_wins_over_its_parent(canonicals, mention, expected):
    registry = _numbered_registry(*canonicals)
    assert [c.canonical for c in normalize(mention, registry)[0]] == [expected]


@pytest.mark.parametrize(
    "canonicals,mention",
    [
        (("Article 5(1)", "Article 5(2)"), "Article 5(3)"),
        (("Section 164.502(a)", "Section 164.502(b)"), "164.502(c)(1)"),
    ],
)
def test_unregistered_subsection_of_a_subsection_registry_stays_unknown(canonicals, mention):
    registry = _numbered_registry(*canonicals)
    resolved, unknowns = normalize(mention, registry)
    assert resolved == [] and len(unknowns) == 1


@pytest.mark.parametrize(
    "canonical,text",
    [
        ("Section 164.502", "164.5021"),
        ("Section 164.502", "1164.502"),
        ("Section 164.502", "Section 164.502b"),
        ("Article 5", "Article 5a"),
        ("Article 5", "Article 5(1)x"),
    ],
)
def test_a_citation_names_a_clause_only_by_its_whole_number(canonical, text):
    registry = _numbered_registry(canonical)
    assert extract_cited_clauses(f"This falls under {text}.", registry).cited == set()


def test_saved_registry_golden(tmp_path):
    # Pins a registry file's bytes: the entries' fields in declared order, the scheme by
    # its value, non-ASCII text escaped; and the file reads back as the same entries.
    registry = ClauseRegistry(policy_id="política")
    registry.add(cid(5), title="Lawfulness", aliases=["Art. 5"])
    registry.add(ClauseId("Derecho de acceso", Scheme.NAMED), title="Derecho de acceso",
                 aliases=["Acceso ✓"])
    path = tmp_path / "registry.json"
    save_registry(registry, path)
    assert path.read_text(encoding="utf-8") == """{
  "policy_id": "pol\\u00edtica",
  "clauses": [
    {
      "canonical": "Article 5",
      "scheme": "article",
      "title": "Lawfulness",
      "aliases": [
        "Art. 5",
        "Article 5"
      ]
    },
    {
      "canonical": "Derecho de acceso",
      "scheme": "named",
      "title": "Derecho de acceso",
      "aliases": [
        "Acceso \\u2713",
        "Derecho de acceso"
      ]
    }
  ]
}
"""
    assert load_registry(path).entries == registry.entries


def test_registry_round_trip(registry, tmp_path):
    path = tmp_path / "reg.json"
    save_registry(registry, path)
    loaded = load_registry(path)
    assert set(loaded.canonicals()) == set(registry.canonicals())
    assert loaded.policy_id == registry.policy_id


@pytest.mark.parametrize(
    "field,value,detail",
    [
        ("aliases", "Art 1", "aliases must be list, got 'Art 1'"),
        ("aliases", [1], "aliases must be list of str, got [1]"),
        ("canonical", 1, "canonical must be str, got 1"),
        ("title", ["Lawfulness"], "title must be str, got ['Lawfulness']"),
        ("scheme", "chapter", "'chapter' is not a valid Scheme"),
    ],
    ids=["aliases-string", "aliases-int", "canonical-int", "title-list", "scheme-unknown"],
)
def test_registry_entry_of_the_wrong_type_is_an_error(tmp_path, field, value, detail):
    entry = {"canonical": "Article 1", "scheme": "article", "title": "", "aliases": ["Art 1"]}
    entry[field] = value
    path = tmp_path / "reg.json"
    path.write_text(json.dumps({"policy_id": "p", "clauses": [entry]}), encoding="utf-8")
    with pytest.raises(RegistryError, match=re.escape(f"registry {path}: malformed: {detail}")):
        load_registry(path)


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
    resolved, unknowns = normalize("Article 2, Article 99,  Made\n up  rule ", registry)
    assert resolved == [cid(2)]
    assert unknowns == ["Article 99", "Made up rule"]  # free text comes back single-spaced


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
    # An unregistered subparagraph names its registered parent...
    assert normalize("164.502(b)", registry) == ([s1], [])
    # ...but never a registered sibling: 164.512 itself is not registered.
    assert normalize("164.512(b)", registry) == ([], ["Section 164.512(b)"])


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


def test_judge_garbage_falls_back_to_regex(registry, tmp_path):
    for cache_dir in (None, tmp_path / "cache"):  # the retry is never a cache replay
        reply = {"extract all policy sections": "no clauses here whatsoever"}
        judge = mock_provider(reply, cache_dir=cache_dir)
        result = extract_cited_clauses("the reasoning leans on Article 5 alone", registry, judge)
        assert result.cited == {cid(5)}
        assert result.used_fallback
        assert judge.provider.call_count == 2


def test_judge_empty_reply_means_no_citations(registry):
    judge = mock_provider({"extract all policy sections": "   "})
    result = extract_cited_clauses("nothing cited", registry, judge)
    assert result.cited == set()
    assert not result.used_fallback


def _named_registry_file(path):
    named = [("Stay in bounds", ["keep to limits"]), ("Lawful Basis", ["basis rule", "other name"])]
    clauses = [{"canonical": title, "scheme": "named", "title": title, "aliases": aliases}
               for title, aliases in named]
    path.write_text(json.dumps({"policy_id": "ms", "clauses": clauses}), encoding="utf-8")
    return path


def test_named_title_substring_extraction(tmp_path):
    # Every alias of a named clause names it, by the judge's reply and by the regex
    # scan, in a registry built here and in one read from a file.
    built = ClauseRegistry(policy_id="ms")
    built.add(ClauseId("Stay in bounds", Scheme.NAMED), title="Stay in bounds")
    for registry in (built, load_registry(_named_registry_file(tmp_path / "reg.json"))):
        for clause, entry in registry.entries.items():
            for alias in entry.aliases:
                assert normalize(alias, registry) == ([clause], [])
                text = f"The assistant failed to {alias.lower()} when asked."
                assert extract_cited_clauses(text, registry).cited == {clause}


def test_a_registry_listing_a_clause_twice_is_refused(tmp_path):
    path = tmp_path / "reg.json"
    basis = {"canonical": "Lawful Basis", "scheme": "named", "title": "Lawful Basis"}
    twice = [{**basis, "aliases": ["basis rule"]}, {**basis, "aliases": ["other name"]}]
    path.write_text(json.dumps({"policy_id": "p", "clauses": twice}), encoding="utf-8")
    with pytest.raises(RegistryError) as err:
        load_registry(path)
    assert str(err.value) == f"registry {path}: malformed: clause 'Lawful Basis' listed twice"
    assert [p.name for p in tmp_path.iterdir()] == ["reg.json"]


def test_an_alias_with_no_letter_or_digit_is_refused(tmp_path):
    # Its key would be "", the key of every blank line of a named-scheme policy.
    path = tmp_path / "reg.json"
    basis = {"canonical": "Lawful Basis", "scheme": "named", "title": "Lawful Basis",
             "aliases": ["-"]}
    path.write_text(json.dumps({"policy_id": "p", "clauses": [basis]}), encoding="utf-8")
    with pytest.raises(RegistryError) as err:
        load_registry(path)
    assert str(err.value) == f"registry {path}: malformed: alias '-' has no letter or digit"
    registry = ClauseRegistry(policy_id="p")
    with pytest.raises(RegistryError) as err:
        registry.add(ClauseId("Access", Scheme.NAMED), aliases=[""])
    assert str(err.value) == "alias '' has no letter or digit"
    assert registry.resolve("") is None and not registry.entries


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


def _fresh_registry() -> ClauseRegistry:
    registry = ClauseRegistry(policy_id="p")
    for n in range(1, 6):
        registry.add(cid(n), title=f"Title {n}")
    return registry


def test_threads_sharing_the_mention_memo_resolve_as_one_thread_does():
    replies = [f"Article {i % 9 + 1}(a), Articles {i % 4 + 2} and 7, note {i}" for i in range(200)]
    expected = [normalize(reply, _fresh_registry()) for reply in replies]
    shared = _fresh_registry()
    results: dict[int, list] = {}

    def work(worker: int) -> None:
        results[worker] = [normalize(reply, shared) for reply in replies]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[w] == expected for w in range(8))
    assert all(shared.resolve(m) == c for m, c in shared._numbered_memo.items())
