"""Property-based invariants across modules."""

import hashlib
import json
import math
import random
import re
import statistics
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import build_dataset
from mock_corpus import build_registry
from policytrace.clauses import (
    _NUMBERED,
    _TRAILING_GROUP_RE,
    ClauseId,
    ClauseRegistry,
    Scheme,
    _RegistryEntry,
    _RegistryFile,
    _expand_numbered_mentions,
    _title_key,
    extract_cited_clauses,
    normalize,
)
from policytrace.assess import InstanceResult, RunManifest, Turn, parse_verdict
from policytrace.cli import Config
from policytrace.corpus import (
    CaseRecord,
    CorpusError,
    Dataset,
    Split,
    Verdict,
    _clause_headings,
    _record_from_obj,
    split_disjointness_check,
    verdict_tokens,
)
from policytrace.prompts import (
    _PLACEHOLDER_RE,
    DEMO_TEMPLATES,
    PRT_DEMO_TEMPLATES,
    DemoBlock,
    TemplateId,
    _template_text,
    format_demos,
    placeholders,
    render,
)
from policytrace.prtgen import (
    AugmentedDataset, PRTRecord, count_sentences, count_words, prt_stats, validate_prt,
)
from policytrace.gateway import ModelResponse, estimate_tokens
from policytrace.records import enum_member, from_json, read_jsonl, sha256_hex, to_json
from policytrace.select import select_random
from policytrace.significance import StatsError, bonferroni, cohens_d, holm, pareto_frontier
from policytrace.significance import CostAccuracyPoint

REGISTRY = build_registry()


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=8))
def test_normalize_idempotent_on_canonicals(numbers):
    raw = ", ".join(f"Article {n}" for n in numbers)
    resolved, unknowns = normalize(raw, REGISTRY)
    assert unknowns == []
    # feeding the canonical forms back yields the same resolution
    again, _ = normalize(", ".join(c.canonical for c in resolved), REGISTRY)
    assert again == resolved
    # resolution is set-deduplicating and order-preserving
    assert [c.canonical for c in resolved] == [
        f"Article {n}" for n in dict.fromkeys(numbers)
    ]


@given(
    st.sets(st.integers(min_value=1, max_value=10), min_size=1, max_size=6),
    st.sets(st.integers(min_value=1, max_value=10), max_size=6),
)
def test_exact_match_implies_full_recall(gold_nums, cited_nums):
    gold = {ClauseId(f"Article {n}", Scheme.ARTICLE) for n in gold_nums}
    cited = {ClauseId(f"Article {n}", Scheme.ARTICLE) for n in cited_nums}
    recall = len(cited & gold) / len(gold)
    exact = cited == gold
    if exact:
        assert recall == 1.0
    assert 0.0 <= recall <= 1.0


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12))
@settings(max_examples=200)
def test_holm_dominated_by_bonferroni(ps):
    h = holm(ps)
    bf = bonferroni(ps)
    assert all(x <= y + 1e-12 for x, y in zip(h, bf))
    assert all(0.0 <= x <= 1.0 for x in h)
    # corrected values never fall below the raw p-values
    assert all(x >= p - 1e-12 for x, p in zip(h, ps))


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=1, max_value=39),
)
@settings(max_examples=100)
def test_cost_linear_over_partitions(token_pairs, cut):
    from policytrace.assess import InstanceResult, Turn
    from policytrace.gateway import mock_provider
    from policytrace.significance import run_cost

    handle = mock_provider({}, price_in_usd_per_1m=0.40, price_out_usd_per_1m=1.75)

    def results(pairs):
        return [
            InstanceResult(
                case_id=f"c{i}",
                strategy="base",
                turns=[
                    Turn(
                        template_id="base",
                        prompt_hash="h",
                        response_text="x",
                        prompt_tokens=p,
                        completion_tokens=q,
                    )
                ],
                parsed_verdict=None,
                correct=None,
            )
            for i, (p, q) in enumerate(pairs)
        ]

    cut = min(cut, len(token_pairs))
    whole = run_cost(results(token_pairs), handle)
    left = run_cost(results(token_pairs[:cut]), handle)
    right = run_cost(results(token_pairs[cut:]), handle)
    assert math.isclose(whole, left + right, rel_tol=0, abs_tol=1e-9)


def _toy_pool(n):
    dataset = build_dataset(REGISTRY)
    train = dataset.train
    triples = []
    for i in range(n):
        case = replace(train[i % len(train)], case_id=f"p{i:02d}")
        prt = PRTRecord(
            case_id=case.case_id,
            expert_model="m",
            prt_text=f"1. Point {i}.\n2. Therefore, the case is {case.gold_verdict.value}.",
            echoed_verdict=case.gold_verdict,
            word_count=8,
            sentence_count=2,
            prompt_hash="h",
            created_at="t",
        )
        triples.append((case, case.gold_verdict, prt))
    return AugmentedDataset(tuple(triples))


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100)
def test_select_random_is_content_function(n, seed):
    pool_a = _toy_pool(n)
    pool_b = _toy_pool(n)
    k = max(1, n // 2)
    ids_a = [c.case_id for c, _, _ in select_random(pool_a, k, seed)]
    ids_b = [c.case_id for c, _, _ in select_random(pool_b, k, seed)]
    assert ids_a == ids_b
    assert len(set(ids_a)) == k


@dataclass(frozen=True)
class _IndexPool:
    """Stands in for a pool of n triples: select_random reads only its
    content hash, its length and its triples, here the indices themselves."""

    n: int
    content_hash: str = "c0ffee"

    def __len__(self):
        return self.n

    @property
    def triples(self):
        return range(self.n)


def _list_pop_draws(pool, k, seed):
    digest = hashlib.sha256(f"{pool.content_hash}|{k}|{seed}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    free = list(range(len(pool)))
    return [free.pop(rng.randrange(len(free))) for _ in range(k)]


@given(st.integers(1, 4000), st.integers(1, 12), st.integers(0, 2**32))
@example(n=1, k=1, seed=0)
@example(n=4000, k=12, seed=5)
@settings(max_examples=200)
def test_select_random_draws_match_list_pop(n, k, seed):
    k = min(k, n)
    pool = _IndexPool(n)
    assert select_random(pool, k, seed) == _list_pop_draws(pool, k, seed)


def test_select_random_draws_match_list_pop_on_a_real_pool():
    pool = _toy_pool(12)
    for seed in range(50):
        drawn = [pool.index[c.case_id] for c, _, _ in select_random(pool, 5, seed)]
        assert drawn == _list_pop_draws(pool, 5, seed)


_ARTICLE_RE, _ARTICLE_ITEM_RE, _ = _NUMBERED[Scheme.ARTICLE]
_SECTION_RE, _SECTION_ITEM_RE, _ = _NUMBERED[Scheme.SECTION]


def _per_char_expand(text):
    """The character-by-character masking that _expand_numbered_mentions replaced."""
    mentions, spans = [], []
    for m in _ARTICLE_RE.finditer(text):
        mentions += [f"Article {item}" for item in _ARTICLE_ITEM_RE.findall(m.group(1))]
        spans.append(m.span())
    masked = list(text)
    for start, end in spans:
        for i in range(start, end):
            masked[i] = " "
    masked_text = "".join(masked)
    for m in _SECTION_RE.finditer(masked_text):
        mentions += [f"Section {item}" for item in _SECTION_ITEM_RE.findall(m.group(1))]
        spans.append(m.span())
    remainder = list(masked_text)
    for start, end in spans:
        for i in range(start, min(end, len(remainder))):
            remainder[i] = " "
    return mentions, "".join(remainder)


# Texts with and without a "."; the reference has no shortcut for the latter.
_MENTION_PIECES = [
    "Article 5", "Articles 1, 2 and 3", "article5(1)(f)", "Article 1,3,4", "Art 2",
    "Section 164.502", "Sections 164.502 and 164.512(a)", "164.506(c)(1)", "§ 164.508",
    "section", "Article ", "164.", "(b)", " ", ", ", " and ", "&", "Stay in bounds", "é",
    "Section 164502", "§ 164", "502", ".", "Art. 5",
]


@given(st.lists(st.sampled_from(_MENTION_PIECES), max_size=12))
@example(["section ", "Article 5 ", "164.502"])  # a section span over a blanked article
@example(["Article 5", "164.502(a)"])  # both kinds of span end at the end of the text
@example(["§ 164", "Article 5", "Section 164502"])  # no "." at all
@example(["§ 164", ".", "502"])
@settings(max_examples=300)
def test_expand_numbered_mentions_matches_per_char_masking(pieces):
    text = "".join(pieces)
    assert _expand_numbered_mentions(text) == _per_char_expand(text)


def _slice_join_expand(text):
    """The finditer, slice-and-join loop that one `pattern.sub` pass replaced."""
    mentions = []
    for scheme, (pattern, item_re, label) in _NUMBERED.items():
        if scheme is Scheme.SECTION and "." not in text:
            continue
        parts, pos = [], 0
        for m in pattern.finditer(text):
            mentions.extend(f"{label} {item}" for item in item_re.findall(m.group(1)))
            parts += (text[pos : m.start()], " " * (m.end() - m.start()))
            pos = m.end()
        text = "".join(parts) + text[pos:]
    return mentions, text


# Plain numbers in other scripts ("٣" is ARABIC-INDIC DIGIT THREE), word
# characters against numbers, and the line breaks U+2028 and U+0085.
_EXPAND_PIECES = _MENTION_PIECES + [
    "Article5(1)(f)", "Articles 5 and 6", "§ 164.502", "164.512(a)", "Article ٣", "Article 1٣",
    "٣", "١٦٤.٥٠٢", "Article 5x", "x5", "_", "Article 5_", "\u2028", "\x85", "Article\u20285",
    "Article 5\x85", " and 6", ", 7", "(1)", "a",
]


@given(st.lists(st.one_of(st.sampled_from(_EXPAND_PIECES),
                          st.text("0123456789٣ .,&()§aeilrst_\u2028\x85", max_size=4)),
                max_size=12))
@example(["Article ٣"])
@example(["Article 5", "x"])
@example(["Articles 5 and 6", "\u2028", "§ 164.502", "\x85", "164.512(a)"])
@settings(max_examples=300)
def test_expand_numbered_mentions_matches_the_slice_and_join_loop(pieces):
    text = "".join(pieces)
    assert _expand_numbered_mentions(text) == _slice_join_expand(text)


def _resolve_by_regex(registry, mention):
    """`resolve` with no shortcut: the trailing-group regex decides when to stop."""
    key = _title_key(mention)
    while True:
        clause = registry._alias_index.get(key)
        if clause is not None:
            return clause
        mention, stripped = _TRAILING_GROUP_RE.subn("", mention)
        if not stripped:
            return None
        key = _title_key(mention)


_RESOLVE_REGISTRY = ClauseRegistry(policy_id="p")
_RESOLVE_REGISTRY.add(ClauseId("Article 5", Scheme.ARTICLE))
_RESOLVE_REGISTRY.add(ClauseId("Article 6(1)", Scheme.ARTICLE))
_RESOLVE_REGISTRY.add(ClauseId("Section 164.502(a)", Scheme.SECTION))
_RESOLVE_REGISTRY.add(ClauseId("Stay in bounds", Scheme.NAMED), title="Stay in bounds")


@given(st.one_of(
    st.text(),
    st.lists(st.sampled_from(["Article 5", "Article 6", "Section 164.502", "Stay in bounds",
                              "(1)", "(a)", "(", ")", "()", " ", "\n", "\u2028", "\x85",
                              "\x1c", "\u3000", "x", "."]), max_size=8).map("".join),
))
@example("Article 5(1) \x85")
@example("Article 6(1)(b)\u2028")
@example("Section 164.502(a)(1)(ii) ")
@example("Stay in bounds)")
@settings(max_examples=300)
def test_resolve_matches_the_regex_only_loop(mention):
    assert _RESOLVE_REGISTRY.resolve(mention) == _resolve_by_regex(_RESOLVE_REGISTRY, mention)


@given(st.text())
@example("")
@example("é")
@example("\U0001f600")
def test_estimate_tokens_is_a_quarter_of_the_utf8_bytes_rounded_up(text):
    assert estimate_tokens(text) == math.ceil(len(text.encode("utf-8")) / 4)


_CLAUSES = [ClauseId(f"Article {n}", Scheme.ARTICLE) for n in range(1, 6)] + [
    ClauseId(f"Section 164.50{n}", Scheme.SECTION) for n in range(1, 6)] + [
    ClauseId(title, Scheme.NAMED) for title in ("Lawful Basis", "Access")]


@given(st.lists(st.sampled_from(_CLAUSES), max_size=len(_CLAUSES), unique=True))
def test_masterlist_follows_add(clauses):
    registry = ClauseRegistry(policy_id="p")
    assert registry.masterlist == ""
    for clause in clauses:
        registry.add(clause, title=clause.canonical if clause.scheme is Scheme.NAMED else "")
        assert registry.masterlist == ", ".join(c.canonical for c in registry.canonicals())


# No title is a substring of another, so a citation names one title only.
_TITLES = ["Lawful Basis", "Data Minimization", "Consent Withdrawal", "Breach Notice", "Access"]
_PREFIXES = {
    Scheme.ARTICLE: ["Article ", "article", "ARTICLE  "],
    Scheme.SECTION: ["", "Section ", "section", "§ ", "§"],
}


@st.composite
def _clause_corpora(draw):
    """A registry of one scheme, and per clause: its heading line, its clause
    string in a case record and a model citation of it. A numbered registry
    holds whole clauses ("Article 5") or subsections ("Article 5(a)"); a
    mention may carry more "(…)" groups than its clause."""
    scheme = draw(st.sampled_from(list(Scheme)))
    titles = _TITLES[: draw(st.integers(1, len(_TITLES)))]
    registry = ClauseRegistry(policy_id="p")
    rows = []
    if scheme is Scheme.NAMED:
        for title in titles:
            clause = ClauseId(title, scheme)
            registry.add(clause, title=title)
            spelled = draw(st.sampled_from([title, title.upper(), title.lower(), f"{title}."]))
            rows.append((clause, spelled, spelled, f"The reply fails to heed {spelled} here."))
        return registry, rows
    n = len(titles)
    numbers = draw(st.lists(st.integers(1, 999), min_size=n, max_size=n, unique=True))
    subsection = draw(st.sampled_from(["", "(a)"]))
    for title, number in zip(titles, numbers):
        if scheme is Scheme.ARTICLE:
            label, digits = "Article", str(number)
        else:
            label, digits = "Section", f"164.{number:03d}"
        clause = ClauseId(f"{label} {digits}{subsection}", scheme)
        registry.add(clause, title=title)
        suffix = draw(st.sampled_from(["", "(1)", "(b)(2)"]))
        mention = draw(st.sampled_from(_PREFIXES[scheme])) + digits + subsection + suffix
        heading = mention + draw(st.sampled_from([" ", ": ", ". "])) + title
        rows.append((clause, heading, mention, f"This falls under {mention}, as argued."))
    return registry, rows


@given(_clause_corpora())
def test_heading_case_clause_and_citation_resolve_to_the_same_clause(corpus):
    registry, rows = corpus
    text = "".join(f"{heading}\nBody text of this part.\n" for _, heading, _, _ in rows)
    headings = _clause_headings(text, registry, Path("policy.txt"))
    assert [clause for _, clause in headings] == [clause for clause, *_ in rows]
    for clause, _, raw, citation in rows:
        obj = {"case_id": "c", "case_text": "t", "verdict": "COMPLIANT", "clauses": [raw],
               "split": "test"}
        assert _record_from_obj(obj, registry, {}).gold_clauses == {clause}
        assert extract_cited_clauses(citation, registry).cited == {clause}


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=200)
def test_pareto_frontier_matches_quadratic_oracle(raw):
    points = [CostAccuracyPoint(f"p{i}", c, a) for i, (c, a) in enumerate(raw)]

    def dominated(p):
        return any(
            q.cost <= p.cost
            and q.accuracy >= p.accuracy
            and (q.cost < p.cost or q.accuracy > p.accuracy)
            for q in points
        )

    oracle = [p.label for p in points if not dominated(p)]
    assert [p.label for p in pareto_frontier(points)] == oracle
    assert oracle  # a finite point set always has a non-dominated point


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=30))
def test_prt_stats_matches_manual_recount(word_counts):
    records = [
        PRTRecord(
            case_id=f"c{i}",
            expert_model="m",
            prt_text=" ".join(["w"] * wc),
            echoed_verdict=Verdict.COMPLIANT,
            word_count=wc,
            sentence_count=1,
            prompt_hash="h",
            created_at="t",
        )
        for i, wc in enumerate(word_counts)
    ]
    stats = prt_stats(records)
    n = len(word_counts)
    mu = sum(word_counts) / n
    sigma = math.sqrt(sum((w - mu) ** 2 for w in word_counts) / n)
    assert math.isclose(stats.mu_word, mu, abs_tol=1e-12)
    assert math.isclose(stats.sigma_word, sigma, abs_tol=1e-9)
    # the stored word counts agree with recounting the trace text
    assert all(count_words(r.prt_text) == r.word_count for r in records)


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=20),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
@example(values=[0.0] * 7, scale=1.0, shift=0.1)
@example(values=[0.0, 1e-10], scale=1.0, shift=1.0)
@example(
    values=[
        14.13984913680602, 14.13984913683549, 14.13984913680073, 14.13984913683144,
        14.139849136838395, 14.139849136827275, 14.139849136825003, 14.139849136805005,
        14.139849136808214, 14.139849136796897, 14.139849136821006, 14.139849136810225,
        14.139849136803559, 14.139849136829417, 14.139849136839068,
    ],
    scale=8.843849508516433,
    shift=2.241713135142902,
)
@settings(max_examples=100)
def test_cohens_d_shift_invariance(values, scale, shift):
    a = [v * scale for v in values]
    b = [v * scale + shift for v in values]
    shifted = ([x + 3.0 for x in a], [x + 3.0 for x in b])
    try:
        d_raw = cohens_d(a, b)
        d_shifted = cohens_d(*shifted)
    except StatsError:
        return  # zero pooled variance draws are out of scope
    # Adding 3.0 rounds each value by up to eps * (|x| + 3), and n-term sums
    # add up to n such errors; relative to the pooled SD this bounds how far d
    # can move. Well-conditioned draws keep the 1e-9 tolerance.
    roundoff = len(a) * sys.float_info.epsilon * (max(map(abs, a + b)) + 3.0)
    tol = max(1e-9, 2 * roundoff / statistics.stdev(a))
    assert math.isclose(d_raw, d_shifted, rel_tol=tol, abs_tol=tol)


_LINE_WORDS = [
    "The", "case", "is", "not", "Verdict:", "Final Judgment:", "non", "NON-", "noncompliance",
    "COMPLIANT", "compliant", "NONCOMPLIANT", "NON-COMPLIANT", "non compliant", "Non-Compliant",
]


@given(
    st.lists(st.sampled_from(_LINE_WORDS), min_size=1, max_size=8),
    st.sampled_from([" ", "-", "", ", "]),
)
def test_validate_prt_states_the_parsed_verdict(words, sep):
    final_line = "2. " + sep.join(words)
    assume(len(verdict_tokens(final_line)) == 1)
    trace = f"1. Some reasoning.\n{final_line}"
    stated = parse_verdict(final_line)
    for gold in Verdict:
        assert (validate_prt(trace, gold) is None) == (gold is stated)


# The reference: the numbered-step rule as two regexes, one for a step line, one for its marker.
_REF_STEP_LINE_RE = re.compile(r"^\s*\d+\.\s*\S")
_REF_STEP_MARKER_RE = re.compile(r"^\d+\.\s*")


def _ref_count_sentences(text):
    total = 0
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        body = _REF_STEP_MARKER_RE.sub("", stripped)
        ends = len(re.findall(r"[.!?]+(?=\s|$)", body))
        if ends == 0 and _REF_STEP_LINE_RE.match(line):
            ends = 1
        total += ends
    return max(total, 1) if text.strip() else 0


def _ref_refusal(text, gold):
    """The reason `validate_prt` gave for refusing `text`, or None."""
    steps = [line for line in text.splitlines() if _REF_STEP_LINE_RE.match(line)]
    if len(steps) < 2:
        return "format"
    stated = {verdict for _, verdict in verdict_tokens(steps[-1])}
    if len(stated) != 1:
        return "ambiguous" if stated else "missing_verdict"
    return None if stated.pop() is gold else "verdict_mismatch"


# Lines that may look like steps: digits of other scripts, a superscript that is no \d, and
# spaces and line breaks that `str.splitlines`, `str.strip` and `\s` may or may not agree on.
_SPACE = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u3000", "\xa0"])
_STEP_LINE = st.tuples(
    _SPACE, st.sampled_from(["", "1", "12", "٣", "١٢", "²"]), st.sampled_from(["", ".", ".."]),
    _SPACE, st.lists(st.sampled_from(["a", ".", "!", "?", " ", "\t", "\u3000", " COMPLIANT",
                                      " NONCOMPLIANT"]), max_size=5).map("".join),
    _SPACE, st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028", "\x1d", ""]),
).map("".join)
_STEP_TEXT = st.lists(_STEP_LINE, max_size=6).map("".join)


@given(_STEP_TEXT)
@settings(max_examples=300)
def test_the_numbered_step_rule_matches_the_two_regexes_it_replaced(text):
    for gold in Verdict:
        refusal = validate_prt(text, gold)
        assert (refusal and refusal.reason) == _ref_refusal(text, gold)
    assert count_sentences(text) == _ref_count_sentences(text)


_GROWN_TITLES = ["Stay in Bounds", "Record Keeping"]
_CITATION_PIECES = [
    "Article 1", "Articles 2 and 5", "article 3(a)", "Article 4, 6", "Section 164.502",
    "§ 164.506(b)", "164.508", "Stay in Bounds", "record keeping", "Unknown Rule", "[reply abc]",
]


@st.composite
def _registry_growth(draw):
    """Clauses of every scheme in some order, where the registry is first
    built, and citation texts resolved against it before it grows."""
    clauses = [ClauseId(f"Article {n}", Scheme.ARTICLE) for n in range(1, 7)]
    clauses += [ClauseId(f"Section 164.{n:03d}", Scheme.SECTION) for n in (502, 506)]
    clauses += [ClauseId(title, Scheme.NAMED) for title in _GROWN_TITLES]
    order = draw(st.permutations(clauses))
    cut = draw(st.integers(0, len(order)))
    texts = draw(st.lists(
        st.lists(st.sampled_from(_CITATION_PIECES), min_size=1, max_size=5).map(", ".join),
        min_size=1, max_size=4,
    ))
    return order, cut, texts


def _add(registry, clause):
    title = clause.canonical if clause.scheme is Scheme.NAMED else ""
    registry.add(clause, title=title)


@given(_registry_growth())
@settings(max_examples=200)
def test_a_registry_that_grows_after_resolving_agrees_with_a_fresh_one(growth):
    order, cut, texts = growth
    grown = ClauseRegistry(policy_id="p")
    for clause in order[:cut]:
        _add(grown, clause)
    for text in texts:  # fills the mention memo before the registry grows
        normalize(text, grown)
        extract_cited_clauses(text, grown)
    for clause in order[cut:]:
        _add(grown, clause)
    fresh = ClauseRegistry(policy_id="p")
    for clause in order:
        _add(fresh, clause)
    for text in texts:
        assert normalize(text, grown) == normalize(text, fresh)
        assert extract_cited_clauses(text, grown) == extract_cited_clauses(text, fresh)


def test_the_mention_memo_grows_with_clause_numbers_not_with_text():
    registry = build_registry()
    replies = [
        f"Article {i % 7 + 1}, Section 164.{500 + i % 3}, Case note {i}\n[reply {i:x}]"
        for i in range(300)
    ]
    for reply in replies:
        normalize(reply, registry)
    numbered = {m for reply in replies for m in _expand_numbered_mentions(reply)[0]}
    assert len(numbered) == 10
    assert len(registry._numbered_memo) <= len(numbered)


def _re_sub_render(template_id, bindings):
    """The single-pass `re.sub` renderer that `render` replaced."""
    values = dict(bindings)
    if template_id in DEMO_TEMPLATES:
        values["demos"] = format_demos(template_id, values["demos"])
    return _PLACEHOLDER_RE.sub(lambda m: str(values[m.group(1)]), _template_text(template_id))


_BOUND_TEXT = st.one_of(
    st.integers(0, 99),
    st.lists(
        st.one_of(st.text(max_size=6), st.sampled_from(
            ["{case}", "{policy}", "{demos}", "{k}", "{{case}}", "{", "}", "{CASE}"])),
        max_size=4,
    ).map("".join),
)


@st.composite
def _template_bindings(draw):
    template_id = draw(st.sampled_from(list(TemplateId)))
    bindings = {name: draw(_BOUND_TEXT) for name in sorted(placeholders(template_id))}
    if template_id in DEMO_TEMPLATES:
        with_prt = template_id in PRT_DEMO_TEMPLATES
        bindings["demos"] = [
            DemoBlock(draw(_BOUND_TEXT.map(str).filter(bool)), draw(st.sampled_from(Verdict)),
                      draw(_BOUND_TEXT.map(str)) if with_prt else None)
            for _ in range(draw(st.integers(1, 3)))
        ]
    return template_id, bindings


@given(_template_bindings())
@settings(max_examples=300)
def test_render_matches_the_re_sub_renderer(case):
    template_id, bindings = case
    assert render(template_id, bindings) == _re_sub_render(template_id, bindings)


def _hashed_disjointness(dataset):
    """The check as it was: both splits hashed, the last train id per hash kept."""
    ids = sorted({r.case_id for r in dataset.train} & {r.case_id for r in dataset.test})
    train_hashes = {sha256_hex(r.case_text): r.case_id for r in dataset.train}
    shared = [
        (sha256_hex(r.case_text), train_hashes[sha256_hex(r.case_text)], r.case_id)
        for r in dataset.test
        if sha256_hex(r.case_text) in train_hashes
    ]
    return ids, shared


@given(st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from(["x", "y", "z", "é"]),
              st.sampled_from(Split)),
    max_size=12,
))
@example([("a", "x", Split.TRAIN), ("b", "x", Split.TRAIN), ("c", "x", Split.TEST)])
def test_split_disjointness_check_matches_the_hashed_check(rows):
    dataset = Dataset(tuple(
        CaseRecord(case_id, text, Verdict.COMPLIANT, frozenset(), split)
        for case_id, text, split in rows
    ))
    report = split_disjointness_check(dataset)
    assert (report.shared_case_ids, report.shared_text_hashes) == _hashed_disjointness(dataset)


# Characters that `str.splitlines` breaks at but JSON Lines does not, plus a BOM.
_ODD = ["a", " ", "\u2028", "\u2029", "\x85", "\ufeff", '"', "\\"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(st.sampled_from(_ODD)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(st.sampled_from(_ODD), max_size=3), inner, max_size=3),
    max_leaves=6,
)
_EDGES = ["", " ", "\t", "\r", "\x0b", "\ufeff", "\u2028", "\x85"]
_JSONL_LINES = st.one_of(
    st.tuples(
        st.sampled_from(_EDGES),
        st.builds(json.dumps, _JSON_VALUES, ensure_ascii=st.booleans()),
        st.sampled_from(_EDGES + [" x", "1", ' {"a": 1}', "]", ", 2"]),
    ).map("".join),
    st.text(st.sampled_from(list('{}[]":, 1a\t\r') + _ODD), max_size=8),
)


def _per_line_json_loads(text: str):
    """The values per-line `json.loads` reads from "\\n"-split text, and its first error."""
    values = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            values.append((lineno, json.loads(line)))
        except json.JSONDecodeError as err:
            return values, f"{lineno}: malformed record: {err}"
    return values, None


@given(st.lists(_JSONL_LINES, max_size=6), st.booleans())
@example(['{"reply": "one\u2028two\x85three"}', ' [1] ', "\ufeff{}", "1 2", "{} {}"], True)
@settings(max_examples=300)
def test_read_jsonl_reads_what_per_line_json_loads_reads(lines, final_newline):
    text = "\n".join(lines) + ("\n" if final_newline else "")
    values, error = _per_line_json_loads(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_text(text, encoding="utf-8")
        read = []
        try:
            for item in read_jsonl(path, CorpusError):
                read.append(item)
        except CorpusError as err:
            assert str(err) == f"{path}:{error}"
        else:
            assert error is None
    assert repr(read) == repr(values)  # repr: NaN and -0.0 compare as written


_LABELS = st.sampled_from(
    ["COMPLIANT", "NONCOMPLIANT", "compliant", " Non-Compliant", "GOOD", "bad", "train", "test",
     "TRAIN", "test ", ""]
) | st.text(max_size=12)


def _outcome(fn):
    try:
        return fn()
    except ValueError as err:
        return type(err), str(err)


@given(_LABELS, _LABELS | st.none() | st.integers() | st.lists(_LABELS, max_size=2))
def test_label_fast_paths_match_the_enum_parsers(verdict, split):
    obj = {"case_id": "c", "case_text": "t", "verdict": verdict, "clauses": [], "split": split}
    try:
        record = _record_from_obj(obj, REGISTRY, {})
        read = (record.gold_verdict, record.split)
    except ValueError as err:
        read = str(err)
    try:
        expected = (Verdict.parse(verdict), Split(split))
    except ValueError as err:
        expected = str(err)
    assert read == expected
    for enum in (Verdict, Split, Scheme):
        for label in (verdict, split):
            assert _outcome(lambda: enum_member(enum, label)) == _outcome(lambda: enum(label))


def _validate_prt_collecting_every_line(text, gold):
    enum_lines = [line for line in text.splitlines() if re.match(r"^\s*\d+\.\s*\S", line)]
    if len(enum_lines) < 2:
        return ("format", f"found {len(enum_lines)} enumerated lines, need >= 2")
    failure = validate_prt(f"0. x\n{enum_lines[-1]}", gold)  # the final-line checks alone
    return failure and (failure.reason, str(failure))


@given(
    st.lists(st.sampled_from(["1. Reasoning.", "2. COMPLIANT", " 3. NONCOMPLIANT", "4.", "x",
                              "", "5. NON-COMPLIANT and COMPLIANT", "\u2028"]), max_size=6),
    st.sampled_from(Verdict),
)
def test_validate_prt_matches_a_scan_of_every_line(lines, gold):
    text = "\n".join(lines)
    failure = validate_prt(text, gold)
    assert (failure and (failure.reason, str(failure))) == _validate_prt_collecting_every_line(
        text, gold
    )


_FIELD_TEXT = st.text(max_size=12)
_COUNTS = st.integers(min_value=0, max_value=10**12)
_TURNS = st.builds(
    Turn, _FIELD_TEXT, _FIELD_TEXT, _FIELD_TEXT, st.none() | _FIELD_TEXT, _COUNTS, _COUNTS
)


@st.composite
def _instance_results(draw):
    verdict = draw(st.none() | st.sampled_from(Verdict))
    return InstanceResult(
        case_id=draw(_FIELD_TEXT),
        strategy=draw(_FIELD_TEXT),
        turns=draw(st.lists(_TURNS, min_size=1, max_size=3)),
        parsed_verdict=verdict,
        correct=None if verdict is None else draw(st.booleans()),
        flags=draw(st.lists(_FIELD_TEXT, max_size=2)),
    )


# Every record the program writes and reads back: a results line, a trace-store line,
# a cache entry, a registry file, a config (whose manifest copy is `to_json`'s) and a
# run manifest.
_WRITTEN_RECORDS = {
    InstanceResult: _instance_results(),
    PRTRecord: st.builds(
        PRTRecord, _FIELD_TEXT, _FIELD_TEXT, st.text(min_size=1, max_size=40),
        st.sampled_from(Verdict), st.integers(min_value=1), st.integers(min_value=1),
        _FIELD_TEXT, _FIELD_TEXT,
    ),
    ModelResponse: st.builds(
        ModelResponse, _FIELD_TEXT, st.none() | _FIELD_TEXT, _COUNTS, _COUNTS, _COUNTS
    ),
    _RegistryFile: st.builds(_RegistryFile, _FIELD_TEXT, st.lists(st.builds(
        _RegistryEntry, _FIELD_TEXT, st.sampled_from(Scheme), _FIELD_TEXT,
        st.lists(_FIELD_TEXT, max_size=3),
    ), max_size=3)),
    Config: st.builds(
        Config,
        **{f.name: st.none() | _FIELD_TEXT for f in fields(Config)
           if f.default is None and f.name != "base"},
        out_dir=_FIELD_TEXT, k=st.integers(), seed=st.integers(), concurrency=st.integers(),
        quarantine_threshold=st.floats(allow_nan=False),
        flag_threshold=st.floats(allow_nan=False),
    ),
    RunManifest: st.builds(
        RunManifest, _FIELD_TEXT, _FIELD_TEXT, _FIELD_TEXT, _FIELD_TEXT,
        st.none() | _FIELD_TEXT, st.integers(), st.integers(), st.none() | _FIELD_TEXT,
        st.dictionaries(_FIELD_TEXT, _FIELD_TEXT, max_size=3), _FIELD_TEXT,
    ),
}


@pytest.mark.parametrize("cls", list(_WRITTEN_RECORDS), ids=lambda cls: cls.__name__)
@settings(max_examples=50, derandomize=True)
@given(data=st.data())
def test_a_written_record_reads_back_as_it_was(cls, data):
    record = data.draw(_WRITTEN_RECORDS[cls])
    read = from_json(cls, json.loads(json.dumps(to_json(record))))
    assert read == record and to_json(read) == to_json(record)  # `==` skips compare=False
