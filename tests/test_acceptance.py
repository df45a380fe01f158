"""Acceptance gate: end-to-end and numeric checks at fixed tolerances."""

import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import build_dataset
from golden_bindings import GOLDEN_BINDINGS, golden_check
from mock_corpus import EXPERT_SCRIPT, JUDGE_SCRIPT, LEARNER_SCRIPT, POLICY_TEXT, build_registry
from policytrace.assess import (
    SelectionMode,
    Strategy,
    StrategyKind,
    parse_verdict,
    run_dataset,
)
from policytrace.clauses import ClauseId, Scheme, extract_cited_clauses
from policytrace.corpus import Split, Verdict, load_policy
from policytrace.gateway import mock_provider
from policytrace.metrics import accuracy, clause_relevance
from policytrace.prompts import TemplateId
from policytrace.prtgen import (
    PRTRecord,
    count_sentences,
    count_words,
    generate_augmented_dataset,
    prt_stats,
    validate_prt,
    write_prt_store,
)
from policytrace.select import select_random, select_relevant
from policytrace.sftexport import export_sft
from policytrace.significance import (
    CostAccuracyPoint,
    Direction,
    bonferroni,
    cohens_d,
    holm,
    paired_t_one_sided,
    pareto_frontier,
    run_cost,
)
from test_assess import PARSER_FIXTURES
from test_prtgen import VALIDATION_FIXTURES

GOLDEN_DIR = Path(__file__).parent / "goldens"

C = Verdict.COMPLIANT
N = Verdict.NONCOMPLIANT

ALL_STRATEGIES = [
    Strategy(StrategyKind.BASE),
    Strategy(StrategyKind.FEWSHOT, k=3),
    Strategy(StrategyKind.FEWSHOT_PRT, SelectionMode.RAND, k=3),
    Strategy(StrategyKind.SELFREFINE),
    Strategy(StrategyKind.SELFREFINE_PRT, SelectionMode.RAND, k=3),
]
# The paper's turn counts, in ALL_STRATEGIES order.
TURN_COUNTS = (1, 1, 1, 3, 2)


def test_01_all_templates_golden_byte_exact():
    start = time.monotonic()
    for template_id in TemplateId:
        passed, diff = golden_check(template_id, GOLDEN_BINDINGS[template_id], GOLDEN_DIR)
        assert passed, f"{template_id.value}:\n{diff}"
    assert len(list(TemplateId)) == 13
    assert time.monotonic() - start < 1.0


def _one_pipeline_run(out_dir: Path) -> dict[str, bytes]:
    """Full mock pipeline: gen traces then assess all five strategy kinds."""
    registry = build_registry()
    policy_path = out_dir / "policy.txt"
    out_dir.mkdir(parents=True, exist_ok=True)
    policy_path.write_text(POLICY_TEXT, encoding="utf-8")
    policy = load_policy(policy_path, registry, policy_id="synthpol", title="Data Handling Policy")
    dataset = build_dataset(registry)

    expert = mock_provider(EXPERT_SCRIPT, model_id="mock-expert")
    learner = mock_provider(LEARNER_SCRIPT, model_id="mock-learner", supports_raw_cot=True)

    aug, quarantine = generate_augmented_dataset(dataset, policy, expert)
    assert quarantine == []
    store_path = out_dir / "store.prts.jsonl"
    write_prt_store(aug, store_path)

    outputs: dict[str, bytes] = {}
    store_lines = []
    for line in store_path.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        obj.pop("created_at")  # wall-clock metadata, excluded from the identity check
        store_lines.append(json.dumps(obj, sort_keys=True))
    outputs["store"] = "\n".join(store_lines).encode("utf-8")

    for strategy, turn_count in zip(ALL_STRATEGIES, TURN_COUNTS):
        results_path, summary = run_dataset(
            dataset, policy, strategy, learner, out_dir, pool=aug, seed=42
        )
        assert summary.failed_cases == []
        assert summary.total == 6 and summary.executed == 6
        for line in results_path.read_text(encoding="utf-8").splitlines():
            assert len(json.loads(line)["turns"]) == turn_count
        outputs[strategy.label()] = results_path.read_bytes()
    return outputs


def test_02_mock_pipeline_deterministic_three_runs(tmp_path):
    start = time.monotonic()
    runs = [_one_pipeline_run(tmp_path / f"run{i}") for i in range(3)]
    assert runs[0].keys() == runs[1].keys() == runs[2].keys()
    for key in runs[0]:
        assert runs[0][key] == runs[1][key] == runs[2][key], f"nondeterministic: {key}"
    assert time.monotonic() - start < 10.0


def test_03_prt_validation_corpus():
    assert len(VALIDATION_FIXTURES) >= 20
    mismatch_accepted = 0
    for text, gold, expected in VALIDATION_FIXTURES:
        failure = validate_prt(text, gold)
        if expected is None:
            assert failure is None, f"valid trace rejected: {text!r}"
        else:
            assert failure is not None and failure.reason == expected, text
            if expected == "verdict_mismatch" and failure is None:
                mismatch_accepted += 1
    assert mismatch_accepted == 0


def test_04_verdict_parser_corpus():
    assert len(PARSER_FIXTURES) >= 30
    hits = sum(1 for text, expected in PARSER_FIXTURES if parse_verdict(text) is expected)
    assert hits == len(PARSER_FIXTURES)  # 100%, no tolerance


def test_05_metric_oracles_random_instances():
    from policytrace.assess import InstanceResult, Turn

    registry = build_registry()
    dataset = build_dataset(registry)
    rng = random.Random(1234)
    article_ids = [ClauseId(f"Article {n}", Scheme.ARTICLE) for n in range(1, 6)]
    annotated_cases = [r for r in dataset.test if r.gold_clauses]

    for _trial in range(10):
        n = rng.randint(3, len(annotated_cases))
        cases = rng.sample(annotated_cases, n)
        results, oracle_cited = [], {}
        for case in cases:
            cited = set(rng.sample(article_ids, rng.randint(0, 3)))
            oracle_cited[case.case_id] = cited
            text = (
                "Cites " + " and ".join(sorted(c.canonical for c in cited)) + "."
                if cited
                else "No clause applies."
            )
            verdict = rng.choice([C, N, None])
            results.append(
                InstanceResult(
                    case_id=case.case_id,
                    strategy="base",
                    turns=[Turn("base", "h", text)],
                    parsed_verdict=verdict,
                    correct=None if verdict is None else verdict is case.gold_verdict,
                )
            )

        # independent accuracy oracle
        expected_acc = 100.0 * sum(1 for r in results if r.correct) / n
        assert accuracy(results) == pytest.approx(expected_acc, abs=1e-12)

        # independent clause relevance oracle on the same instances
        recalls, ems, cited_counts = [], [], []
        for result in results:
            gold = set(dataset.by_id(result.case_id).gold_clauses)
            cited = oracle_cited[result.case_id]
            cited_counts.append(len(cited))
            recalls.append(len(cited & gold) / len(gold))
            ems.append(1.0 if cited == gold else 0.0)
        report = clause_relevance(results, dataset, registry)
        assert report.mu_cited == pytest.approx(sum(cited_counts) / n, abs=1e-12)
        assert report.recall_pct == pytest.approx(100 * sum(recalls) / n, abs=1e-9)
        assert report.exact_match_pct == pytest.approx(100 * sum(ems) / n, abs=1e-9)


def test_05b_exact_match_implies_recall_thousand_trials():
    rng = random.Random(99)
    universe = [ClauseId(f"Article {n}", Scheme.ARTICLE) for n in range(1, 11)]
    em_seen = 0
    for _ in range(1000):
        gold = set(rng.sample(universe, rng.randint(1, 5)))
        cited = set(gold) if rng.random() < 0.3 else set(rng.sample(universe, rng.randint(0, 5)))
        recall = len(cited & gold) / len(gold)
        if cited == gold:
            em_seen += 1
            assert recall == 1.0
    assert em_seen > 0


def test_06_significance_pinned_values():
    result = paired_t_one_sided([3.0, 5.0, 7.0], [1.0, 2.0, 3.0], Direction.A_GT_B)
    assert result.t == pytest.approx(3 * math.sqrt(3), abs=1e-12)
    assert result.df == 2
    assert result.p == pytest.approx(0.5 * (1 - math.sqrt(27 / 29)), abs=1e-9)

    assert holm([0.01, 0.04]) == [0.02, 0.04]
    assert bonferroni([0.001], m=2) == [0.002]
    assert cohens_d([2.0, 4.0], [1.0, 3.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    rng = random.Random(7)
    for _ in range(1000):
        ps = [rng.random() for _ in range(rng.randint(1, 10))]
        assert all(h <= b + 1e-12 for h, b in zip(holm(ps), bonferroni(ps)))


def test_07_cost_accounting():
    from policytrace.assess import InstanceResult, Turn

    handle = mock_provider({}, price_in_usd_per_1m=0.40, price_out_usd_per_1m=1.75)

    def result(p, q):
        return InstanceResult(
            case_id="c",
            strategy="base",
            turns=[Turn("base", "h", "x", prompt_tokens=p, completion_tokens=q)],
            parsed_verdict=None,
            correct=None,
        )

    # 1M prompt + 1M completion tokens at the reasoner's prices: exactly $2.15
    assert run_cost([result(1_000_000, 1_000_000)], handle) == 2.15

    # linearity over 100 random partitions
    rng = random.Random(5)
    results = [result(rng.randint(0, 5000), rng.randint(0, 5000)) for _ in range(60)]
    whole = run_cost(results, handle)
    for _ in range(100):
        cut = rng.randint(0, len(results))
        parts = run_cost(results[:cut], handle) + run_cost(results[cut:], handle)
        assert math.isclose(whole, parts, abs_tol=1e-9)

    # pareto frontier against a brute-force oracle on 50 random point sets
    for trial in range(50):
        pts = [
            CostAccuracyPoint(f"p{i}", rng.uniform(0, 10), rng.uniform(0, 100))
            for i in range(rng.randint(1, 25))
        ]
        oracle = [
            p
            for p in pts
            if not any(
                q.cost <= p.cost
                and q.accuracy >= p.accuracy
                and (q.cost < p.cost or q.accuracy > p.accuracy)
                for q in pts
            )
        ]
        assert pareto_frontier(pts) == oracle


def test_08_trace_stats_vs_recount():
    registry = build_registry()
    dataset = build_dataset(registry)
    texts = [
        "1. First point about Article 1. It holds.\n2. Therefore, the case is COMPLIANT.",
        "1. One.\n2. Two things happen. Both matter!\n3. Therefore, the case is COMPLIANT.",
        "1. Short.\n2. Therefore, the case is COMPLIANT.",
    ]
    records = [
        PRTRecord(
            case_id=f"t{i:02d}",
            expert_model="m",
            prt_text=text,
            echoed_verdict=C,
            word_count=count_words(text),
            sentence_count=count_sentences(text),
            prompt_hash="h",
            created_at="t",
        )
        for i, text in enumerate(texts, start=1)
    ]
    stats = prt_stats(records)

    words = [len(t.split()) for t in texts]  # independent recount
    mu = sum(words) / len(words)
    sigma = math.sqrt(sum((w - mu) ** 2 for w in words) / len(words))
    assert stats.mu_word == pytest.approx(mu, abs=1e-12)
    assert stats.sigma_word == pytest.approx(sigma, abs=1e-9)

    two_point = prt_stats(
        [replace(records[0], word_count=100), replace(records[1], word_count=200)]
    )
    assert two_point.mu_word == 150.0
    assert two_point.sigma_word == 50.0


def _pool_of(n):
    registry = build_registry()
    dataset = build_dataset(registry)
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
    from policytrace.prtgen import AugmentedDataset

    return AugmentedDataset(tuple(triples)), dataset


def test_09_selection_determinism_and_repair():
    pool, dataset = _pool_of(13)
    for seed in (0, 1, 42):
        a = [c.case_id for c, _, _ in select_random(pool, 4, seed)]
        b = [c.case_id for c, _, _ in select_random(pool, 4, seed)]
        assert a == b
        assert len(set(a)) == 4

    judge = mock_provider({"compares written case examples": "0,0,12"})
    result = select_relevant(dataset.by_id("c01"), pool, 3, judge)
    picked = [c.case_id for c, _, _ in result.triples]
    indices = [pool.index[cid] for cid in picked]
    assert len(indices) == 3
    assert len(set(indices)) == 3  # distinct
    assert all(0 <= i < 13 for i in indices)  # in range
    assert {0, 12} <= set(indices)  # the valid judged picks survive repair
    assert result.flags  # repair is never silent


def test_10_sft_export_integrity(tmp_path):
    registry = build_registry()
    dataset = build_dataset(registry)
    # Adversarial near-duplicate: a test case one character away from t01.
    train_text = dataset.by_id("t01").case_text
    near_dup = replace(
        dataset.by_id("c01"),
        case_id="c99",
        case_text=train_text + "!",
    )
    dataset = replace(dataset, records=dataset.records + (near_dup,))

    policy_path = tmp_path / "policy.txt"
    policy_path.write_text(POLICY_TEXT, encoding="utf-8")
    policy = load_policy(policy_path, registry, policy_id="synthpol")

    expert = mock_provider(EXPERT_SCRIPT)
    aug, quarantine = generate_augmented_dataset(dataset, policy, expert)
    assert quarantine == []

    out = tmp_path / "sft.jsonl"
    summary = export_sft(aug, policy, out)
    records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]

    # count conservation: one record per augmented triple, nothing dropped
    assert summary.n_records == len(aug) == len(records)

    test_ids = {r.case_id for r in dataset.records if r.split is Split.TEST}
    test_texts = {r.case_text for r in dataset.records if r.split is Split.TEST}
    for record in records:
        # zero test-split leakage, even for near-duplicates
        assert record["case_id"] not in test_ids
        assert record["case"] not in test_texts
        # every policy context block is a verbatim policy slice
        for part in record["policy_context"].split("\n\n"):
            assert part in policy.full_text
