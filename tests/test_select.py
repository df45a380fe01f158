import re
from dataclasses import replace

import pytest

from policytrace.gateway import (
    ModelHandle,
    Provider,
    ProviderError,
    RateLimitedError,
    RetryPolicy,
    mock_provider,
)
from policytrace.prtgen import AugmentedDataset, generate_augmented_dataset
from policytrace.select import (
    SelectionError,
    format_candidates,
    select_random,
    select_relevant,
)


@pytest.fixture
def pool(dataset, policy, expert_handle):
    aug, quarantine = generate_augmented_dataset(dataset, policy, expert_handle)
    assert not quarantine
    return aug


def test_select_random_deterministic(pool):
    first = select_random(pool, 3, seed=7)
    second = select_random(pool, 3, seed=7)
    assert [c.case_id for c, _, _ in first] == [c.case_id for c, _, _ in second]


def test_select_random_distinct(pool):
    picked = select_random(pool, 6, seed=1)
    ids = [c.case_id for c, _, _ in picked]
    assert sorted(ids) == sorted(c.case_id for c, _, _ in pool.triples)


def test_select_random_seed_changes_draw(pool):
    draws = {tuple(c.case_id for c, _, _ in select_random(pool, 3, seed=s)) for s in range(20)}
    assert len(draws) > 1


def test_select_random_content_addressed(dataset, policy, expert_handle):
    # Two independently built pools with identical content draw identically.
    a, _ = generate_augmented_dataset(dataset, policy, expert_handle)
    b, _ = generate_augmented_dataset(dataset, policy, expert_handle)
    assert a is not b
    ids_a = [c.case_id for c, _, _ in select_random(a, 4, seed=11)]
    ids_b = [c.case_id for c, _, _ in select_random(b, 4, seed=11)]
    assert ids_a == ids_b


def test_select_random_k_bounds(pool):
    with pytest.raises(SelectionError):
        select_random(pool, 0, seed=0)
    with pytest.raises(SelectionError):
        select_random(pool, len(pool) + 1, seed=0)


def test_format_candidates_zero_based_display(pool):
    text = format_candidates(pool)
    assert "Case 0 (Description):" in text
    assert f"Case {len(pool) - 1} (Relevant Policy Clauses):" in text


def test_select_relevant_judge_answering_with_labels_gets_those_cases(pool, dataset):
    class LabelJudge(Provider):
        """Answers with the labels of the last three candidates in the prompt."""

        def generate(self, model_id, prompt, cfg):
            labels = re.findall(r"^Case (\d+) \(Description\):", prompt, re.MULTILINE)
            return ",".join(labels[-3:]), None, 0, 0

    judge = ModelHandle(provider_id="mock", model_id="labels", provider=LabelJudge())
    result = select_relevant(dataset.by_id("c01"), pool, 3, judge)
    assert [c.case_id for c, _, _ in result.triples] == ["t04", "t05", "t06"]
    assert result.flags == []


def test_select_relevant_clean_reply(pool, dataset, judge_handle):
    target = dataset.by_id("c01")
    result = select_relevant(target, pool, 3, judge_handle)
    assert [c.case_id for c, _, _ in result.triples] == ["t01", "t02", "t03"]
    assert result.flags == []


def test_select_relevant_singleton_pool(pool, dataset, judge_handle):
    single = AugmentedDataset(pool.triples[:1])
    result = select_relevant(dataset.by_id("c01"), single, 1, judge_handle)
    assert [c.case_id for c, _, _ in result.triples] == ["t01"]
    assert judge_handle.provider.call_count == 0


def test_select_relevant_repairs_duplicates(pool, dataset):
    judge = mock_provider({"compares written case examples": "0, 0, 12"})
    result = select_relevant(dataset.by_id("c01"), pool, 3, judge)
    ids = [pool.index[c.case_id] for c, _, _ in result.triples]
    assert len(set(ids)) == 3
    assert all(0 <= i < len(pool) for i in ids)
    assert "indices_topped_up" in result.flags


def test_select_relevant_out_of_range_trimmed(pool, dataset):
    judge = mock_provider({"compares written case examples": "5, 4, 3, 2, 1"})
    result = select_relevant(dataset.by_id("c01"), pool, 3, judge)
    assert [c.case_id for c, _, _ in result.triples] == ["t06", "t05", "t04"]
    assert "indices_repaired" in result.flags


def test_select_relevant_nonsense_falls_back(pool, dataset, tmp_path):
    for cache_dir in (None, tmp_path / "cache"):  # the retry is never a cache replay
        reply = {"compares written case examples": "no numbers, sorry"}
        judge = mock_provider(reply, cache_dir=cache_dir)
        result = select_relevant(dataset.by_id("c01"), pool, 3, judge, seed=5)
        assert judge.provider.call_count == 2
        assert "fallback_random" in result.flags
        expected = select_random(pool, 3, seed=5)
        assert [c.case_id for c, _, _ in result.triples] == [
            c.case_id for c, _, _ in expected
        ]


def test_select_relevant_judge_unreachable(pool, dataset):
    class Down(Provider):
        def generate(self, model_id, prompt, cfg):
            raise RateLimitedError("down")

    judge = ModelHandle(
        provider_id="mock",
        model_id="down",
        provider=Down(),
        retry=RetryPolicy(base_delay_s=0.0, max_attempts=1),
    )
    with pytest.raises(SelectionError) as err:
        select_relevant(dataset.by_id("c01"), pool, 3, judge)
    assert str(err.value) == "judge_unreachable: RateLimitedError: exhausted 1 attempts"
    assert isinstance(err.value.__cause__, RateLimitedError)


class _Scripted(Provider):
    """Plays back its replies in order; an exception in the script is raised."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.call_count = 0

    def generate(self, model_id, prompt, cfg):
        reply = self.replies[self.call_count]
        self.call_count += 1
        if isinstance(reply, Exception):
            raise reply
        return reply, None, 0, 0


def _scripted_judge(*replies):
    return ModelHandle(
        provider_id="mock",
        model_id="scripted",
        provider=_Scripted(*replies),
        retry=RetryPolicy(base_delay_s=0.0, max_attempts=1),
    )


@pytest.mark.parametrize(
    "replies, ids, flags",
    [
        (["no numbers, sorry", "3,4,5"], ["t04", "t05", "t06"], []),
        ([ProviderError("down"), "5, 4, 3, 2, 1"], ["t06", "t05", "t04"], ["indices_repaired"]),
        ([ProviderError("down"), "0,1,2"], ["t01", "t02", "t03"], []),
        (["0, 0, 1, 2", "3,4,5"], ["t04", "t05", "t06"], []),  # k distinct, and a duplicate
    ],
    ids=["garbage_then_clean", "error_then_unclean", "error_then_clean", "duplicate_then_clean"],
)
def test_select_relevant_takes_or_repairs_the_second_reply(pool, dataset, replies, ids, flags):
    judge = _scripted_judge(*replies)
    result = select_relevant(dataset.by_id("c01"), pool, 3, judge)
    assert [c.case_id for c, _, _ in result.triples] == ids
    assert result.flags == flags
    assert judge.provider.call_count == 2


def test_select_relevant_does_not_repair_a_first_reply_followed_by_an_error(pool, dataset):
    judge = _scripted_judge("5, 4, 3, 2, 1", ProviderError("down"))
    result = select_relevant(dataset.by_id("c01"), pool, 3, judge, seed=5)
    ids = [c.case_id for c, _, _ in result.triples]
    assert ids == [c.case_id for c, _, _ in select_random(pool, 3, seed=5)]
    assert ids != ["t06", "t05", "t04"]  # the first reply's repair
    assert result.flags == ["fallback_random"]
    assert judge.provider.call_count == 2


def test_select_relevant_windowed_playoff(pool, dataset):
    big = _clones(pool, 120)  # past the window size
    judge = mock_provider({"compares written case examples": "0,1,2"})
    result = select_relevant(dataset.by_id("c01"), big, 3, judge)
    ids = [c.case_id for c, _, _ in result.triples]
    assert len(ids) == 3
    # Window winners are 0,1,2 and 100,101,102; the playoff picks its 0,1,2.
    assert ids == ["x000", "x001", "x002"]
    assert judge.provider.call_count == 3  # two windows plus one playoff


def _clones(pool, n):
    """A pool of n triples cloned from `pool` under new ids x000, x001, ..."""
    triples = []
    for i in range(n):
        case, verdict, prt = pool.triples[i % len(pool)]
        triples.append((replace(case, case_id=f"x{i:03d}"), verdict, prt))
    return AugmentedDataset(tuple(triples))


class _LastLabelsJudge(Provider):
    """Answers with the labels of the last k candidates, recording each prompt's count."""

    def __init__(self, k):
        self.k = k
        self.candidates: list[int] = []

    def generate(self, model_id, prompt, cfg):
        labels = re.findall(r"^Case (\d+) \(Description\):", prompt, re.MULTILINE)
        self.candidates.append(len(labels))
        return ",".join(labels[-self.k:]), None, 0, 0


def test_select_relevant_windows_the_playoff_while_it_exceeds_a_window(pool, dataset, monkeypatch):
    monkeypatch.setattr("policytrace.select.WINDOW_SIZE", 4)
    provider = _LastLabelsJudge(2)
    judge = ModelHandle(provider_id="mock", model_id="labels", provider=provider)
    result = select_relevant(dataset.by_id("c01"), _clones(pool, 30), 2, judge)
    # 30 -> 8 windows -> 16 winners -> 4 windows -> 8 -> 2 windows -> 4 -> the final prompt.
    assert max(provider.candidates) == 4
    assert len(provider.candidates) == 8 + 4 + 2 + 1
    assert [c.case_id for c, _, _ in result.triples] == ["x028", "x029"]
    assert result.flags == []


def test_select_relevant_with_k_of_a_window_or_more_ends_in_one_playoff(pool, dataset, monkeypatch):
    monkeypatch.setattr("policytrace.select.WINDOW_SIZE", 4)
    provider = _LastLabelsJudge(5)
    judge = ModelHandle(provider_id="mock", model_id="labels", provider=provider)
    result = select_relevant(dataset.by_id("c01"), _clones(pool, 30), 5, judge)
    # Every window passes whole, so no round shrinks the pool: one playoff over all 30.
    assert provider.candidates[-1] == 30
    assert len(provider.candidates) == 8 + 1
    assert [c.case_id for c, _, _ in result.triples] == [f"x0{i}" for i in range(25, 30)]
