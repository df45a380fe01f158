import pytest

from policytrace.assess import InstanceResult, Turn
from policytrace.clauses import ClauseId, Scheme
from policytrace.corpus import Verdict
from policytrace.gateway import mock_provider
from policytrace.metrics import (
    MetricsError,
    accuracy,
    clause_relevance,
    clause_relevance_by_run,
    utilization,
)

C = Verdict.COMPLIANT
N = Verdict.NONCOMPLIANT


def make_result(case_id, text, verdict, gold, raw_cot=None):
    turn = Turn(
        template_id="base",
        prompt_hash="h",
        response_text=text,
        raw_cot=raw_cot,
        prompt_tokens=10,
        completion_tokens=5,
    )
    return InstanceResult(
        case_id=case_id,
        strategy="base",
        turns=[turn],
        parsed_verdict=verdict,
        correct=None if verdict is None else verdict is gold,
    )


def test_accuracy_basic():
    results = [
        make_result("a", "x", C, C),
        make_result("b", "x", C, N),
        make_result("c", "x", N, N),
        make_result("d", "x", None, C),  # unparsed counts as incorrect
    ]
    assert accuracy(results) == 50.0


def test_accuracy_empty_errors():
    with pytest.raises(MetricsError):
        accuracy([])


def cid(n):
    return ClauseId(f"Article {n}", Scheme.ARTICLE)


def test_clause_relevance_oracle(dataset, registry):
    # Hand-built responses with known citations; no judge, regex extraction.
    results = [
        # c01 gold {1,3}: cites both exactly -> recall 1, EM 1
        make_result("c01", "Relies on Article 1 and Article 3.", C, C),
        # c02 gold {2}: cites {2,4} -> recall 1, EM 0, incorrect 4
        make_result("c02", "Violates Articles 2 and 4.", N, N),
        # c03 gold {1}: cites {5} -> recall 0, EM 0, incorrect 5
        make_result("c03", "Only Article 5 applies.", C, C),
        # c04 gold {4}: cites {} -> recall 0, EM 0
        make_result("c04", "No clause seems relevant.", N, N),
        # c06 gold {} (unannotated): excluded from macro averages
        make_result("c06", "Cites Article 1.", N, N),
    ]
    report = clause_relevance(results, dataset, registry)
    assert report.n_records == 5
    assert report.n_annotated == 4
    assert report.coverage == pytest.approx(4 / 5)
    # mu_cited over all records: (2 + 2 + 1 + 0 + 1) / 5
    assert report.mu_cited == pytest.approx(6 / 5)
    assert report.recall_pct == pytest.approx(100.0 * (1 + 1 + 0 + 0) / 4)
    assert report.exact_match_pct == pytest.approx(25.0)
    # 4 and 5 each cited once outside gold; tie broken by smallest id
    assert report.top_incorrect_clause == cid(4)
    assert report.n_fallback_extractions == 0


def test_clause_relevance_judge_route(dataset, registry):
    judge = mock_provider({"extract all policy sections": "Article 1, Article 3"})
    results = [make_result("c01", "free text", C, C)]
    report = clause_relevance(results, dataset, registry, judge)
    assert report.exact_match_pct == 100.0
    assert report.recall_pct == 100.0


def test_clause_relevance_counts_the_extractions_that_fell_back_to_the_regex(dataset, registry):
    judge = mock_provider({"extract all policy sections": "no clause is named"})
    results = [
        make_result("c01", "Relies on Article 1 and Article 3.", C, C),
        make_result("c02", "Violates Article 2.", N, N),
    ]
    report = clause_relevance(results, dataset, registry, judge)
    assert judge.provider.call_count == 4  # each reply is asked for twice
    assert report.n_fallback_extractions == 2
    assert report.exact_match_pct == 100.0  # the regex scan read both citations


@pytest.mark.parametrize("concurrency", [1, 4])
def test_clause_relevance_raises_the_first_error_in_result_order(dataset, registry, concurrency):
    no_turns = make_result("c02", "x", N, N)
    no_turns.turns = []  # IndexError
    no_text = make_result("c03", None, C, C)  # TypeError
    results = [make_result("c01", "Article 1.", C, C), no_turns, no_text]
    with pytest.raises(IndexError):
        clause_relevance(results, dataset, registry, concurrency=concurrency)


def test_a_runs_first_error_stops_its_calls_but_not_the_next_runs(dataset, registry):
    judge = mock_provider({"extract all policy sections": "Article 1"})
    no_turns = make_result("c02", "x", N, N)
    no_turns.turns = []  # IndexError
    first = [make_result("c01", "Article 1.", C, C), no_turns, make_result("c03", "x", C, C)]
    second = [make_result("c03", "Article 1.", C, C)]
    failed, scored = clause_relevance_by_run([first, second], dataset, registry, judge)
    assert isinstance(failed, IndexError) and scored.exact_match_pct == 100.0
    assert judge.provider.call_count == 2  # c01 of the first run, c03 of the second


def test_clause_relevance_no_annotations_errors(dataset, registry):
    results = [make_result("c06", "Cites Article 1.", N, N)]
    with pytest.raises(MetricsError) as err:
        clause_relevance(results, dataset, registry)
    assert "no_gold_annotations" in str(err.value)


def test_utilization_oracle():
    script = {"precise text analyzer": "3"}
    judge = mock_provider(script)
    results = [
        make_result("c01", "x", C, C, raw_cot="Based on the examples, fine."),
        make_result("c02", "x", N, N, raw_cot="Independent reasoning."),
    ]
    report = utilization(results, judge)
    assert report.mu_ref == 3.0
    assert report.sigma_ref == 0.0
    assert report.pct_util == 100.0
    assert report.n == 2
    assert report.n_flagged == 0


def test_utilization_mixed_counts():
    from policytrace.gateway import MockScriptEntry

    judge = mock_provider(
        [
            MockScriptEntry(pattern="first trace", text="0"),
            MockScriptEntry(pattern="second trace", text="4"),
        ]
    )
    results = [
        make_result("c01", "x", C, C, raw_cot="first trace"),
        make_result("c02", "x", N, N, raw_cot="second trace"),
    ]
    report = utilization(results, judge)
    assert report.mu_ref == 2.0
    assert report.sigma_ref == 2.0  # population sigma of {0, 4}
    assert report.pct_util == 50.0


def test_utilization_non_integer_flagged(tmp_path):
    results = [make_result("c01", "x", C, C, raw_cot="trace")]
    for cache_dir in (None, tmp_path / "cache"):  # the retry is never a cache replay
        judge = mock_provider({"precise text analyzer": "several references"}, cache_dir=cache_dir)
        report = utilization(results, judge)
        assert report.mu_ref == 0.0
        assert report.n_flagged == 1
        assert judge.provider.call_count == 2


def test_utilization_requires_raw_cot():
    judge = mock_provider({"precise text analyzer": "1"})
    results = [make_result("c01", "x", C, C, raw_cot=None)]
    with pytest.raises(MetricsError) as err:
        utilization(results, judge)
    assert "missing_raw_cot" in str(err.value)
