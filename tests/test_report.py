"""`report.build_report`: each pair of runs gets a two-sided paired t-test, so its p-values do
not depend on the order in which the runs are given; and every run's judge calls for clause
relevance go through one stream, in run and result order."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policytrace.assess import InstanceResult, RunManifest, Turn
from policytrace.corpus import Verdict
from policytrace.gateway import (
    ASSESS_PROFILE,
    MockProvider,
    MockScriptEntry,
    ModelHandle,
    Provider,
    cache_key,
    mock_provider,
)
from policytrace.prompts import TemplateId, render
from policytrace.report import build_report, write_report


def _manifest(run_id: str) -> RunManifest:
    return RunManifest(run_id=run_id, policy_id="p", strategy=run_id, learner_model="m",
                       judge_model=None, seed=0, k=3, pool_hash=None, template_hashes={},
                       started_at="")


def _run(run_id: str, correct: list[bool]) -> tuple[RunManifest, list[InstanceResult]]:
    results = [InstanceResult(f"c{i:03d}", run_id, [Turn("base", "h", "")], Verdict.COMPLIANT,
                              ok) for i, ok in enumerate(correct)]
    return _manifest(run_id), results


def _answered(run_id: str, answers: dict[str, str]) -> tuple[RunManifest, list[InstanceResult]]:
    """A run whose learner gave each case (id -> response text) one turn, answered right."""
    results = [InstanceResult(case_id, run_id, [Turn("base", "h", text, None, 10, 5)],
                              Verdict.COMPLIANT, True) for case_id, text in answers.items()]
    return _manifest(run_id), results


def test_a_pair_has_one_p_value_in_either_order_and_names_the_run_ahead():
    base = _run("base", [i < 50 for i in range(128)])  # 39.1%
    prt = _run("fewshot_prt", [i < 105 for i in range(128)])  # 82.0%, right wherever base is
    pairs = [build_report(runs, {})["comparisons"] for runs in ([base, prt], [prt, base])]
    (first,), (second,) = pairs
    assert [first["a"], second["a"]] == ["base", "fewshot_prt"]
    assert first["t"] == -second["t"] == pytest.approx(-9.7819, abs=1e-4)
    # Twice the one-sided p of 1.74e-17 that the fewshot_prt-first order alone used to give.
    assert first["p_raw"] == second["p_raw"] == pytest.approx(3.4787e-17, rel=1e-4)
    assert first["ahead"] == second["ahead"] == "fewshot_prt"
    assert first["p_holm"] == second["p_holm"] == first["p_raw"]


def test_a_pair_whose_means_are_equal_names_no_run_ahead():
    (pair,) = build_report([_run("x", [True, False]), _run("y", [False, True])],
                           {})["comparisons"]
    assert (pair["t"], pair["p_raw"], pair["ahead"]) == (0.0, 1.0, None)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.booleans(), min_size=1, max_size=12), min_size=m, max_size=m),
    st.permutations(range(m)))))
def test_permuting_the_runs_leaves_every_pairs_p_values_and_leader_unchanged(drawn):
    outcomes, order = drawn
    runs = [_run(f"r{i}", correct) for i, correct in enumerate(outcomes)]
    keys = ("p_raw", "p_bonferroni", "p_holm", "ahead", "error", "n")

    def pairs(given_runs):
        return {frozenset((c["a"], c["b"])): {k: c.get(k) for k in keys}
                for c in build_report(given_runs, {})["comparisons"]}

    assert pairs([runs[i] for i in order]) == pairs(runs)


class _Gate(Provider):
    """Holds every call until `width` calls are in flight at once, then lets all through, and
    records the most calls in flight and the threads that made them. Its 1 s bound is reached
    only if fewer than `width` calls are ever in flight together."""

    def __init__(self, width: int):
        self.width, self.open, self.in_flight, self.most = width, False, 0, 0
        self.threads: set[int] = set()
        self.cond = threading.Condition()

    def generate(self, model_id, prompt, cfg):
        with self.cond:
            self.in_flight += 1
            self.most = max(self.most, self.in_flight)
            self.threads.add(threading.get_ident())
            if self.in_flight == self.width or not self.cond.wait_for(lambda: self.open, 1):
                self.open = True
                self.cond.notify_all()
            self.in_flight -= 1
        return "Article 1", None, 1, 1


def test_every_runs_judge_calls_share_one_stream(registry, policy, dataset):
    gate = _Gate(4)
    judge = ModelHandle("gate", "judge", provider=gate)
    runs = [_answered(f"r{r}", {"c01": f"run {r} first", "c02": f"run {r} second"})
            for r in range(3)]
    report = build_report(runs, {}, (registry, policy, dataset), judge, 4)
    # One run holds only two calls; four in flight means the next run's calls had begun.
    assert gate.most == 4 and len(gate.threads) <= 4
    assert [row["clause_relevance"]["mu_cited"] for row in report["runs"]] == [1.0] * 3


class _Recording(MockProvider):
    def __init__(self, script):
        super().__init__(script)
        self.prompts: list[str] = []

    def generate(self, model_id, prompt, cfg):
        self.prompts.append(prompt)
        return super().generate(model_id, prompt, cfg)


def test_a_report_is_the_same_at_any_concurrency_and_refuses_an_unknown_case_before_any_call(
    registry, policy, dataset, tmp_path, monkeypatch
):
    scored = {"c01": "Relies on Article 1 and Article 3.", "c02": "Violates Article 2.",
              "c03": "Cites Article 5.", "c04": "No clause is named."}
    unknown = {"c05": "Unknown run, Article 3.", "c99": "Unknown run, Article 1."}
    ungraded = {"c06": "Ungraded run, Article 4."}
    runs = [_answered("a", scored), _answered("b", unknown), _answered("c", ungraded)]
    learner = {"m": mock_provider({}, model_id="m", price_in_usd_per_1m=1.0)}
    written: list[str] = []
    monkeypatch.setattr("policytrace.gateway._cache_write",
                        lambda _dir, key, _response: written.append(key))

    outputs, prompts, writes = [], [], []
    for concurrency in (1, 4):
        provider = _Recording([MockScriptEntry("extract all policy sections", "Article 1")])
        judge = ModelHandle("mock", "judge", provider=provider, cache_dir=tmp_path / "cache")
        written.clear()
        report = build_report(runs, learner, (registry, policy, dataset), judge, concurrency)
        out = tmp_path / f"c{concurrency}"
        write_report(report, out)
        outputs.append({name: (out / name).read_bytes()
                        for name in ("report.json", "metrics.csv", "pareto.csv")})
        prompts.append(provider.prompts)
        writes.append(list(written))

    assert outputs[0] == outputs[1]
    rows = {row["run_id"]: row["clause_relevance"] for row in report["runs"]}
    assert rows["b"] == {"error": "KeyError: 'c99'"}
    assert rows["c"] == {"error": "MetricsError: no_gold_annotations: no record has gold clauses"}
    assert rows["a"]["coverage"] == 1.0
    # One call per result of the runs that can be scored, its entry written in result order.
    texts = [*scored.values(), *ungraded.values()]
    expected = [cache_key(judge, render(TemplateId.CLAUSE_EXTRACT, {
        "policy_section_masterlist": registry.masterlist, "reasoning_text": text}),
        ASSESS_PROFILE) for text in texts]
    assert writes == [expected, expected]
    assert sorted(prompts[0]) == sorted(prompts[1]) and len(prompts[0]) == len(texts)
    assert not [p for p in prompts[0] + prompts[1] if "Unknown run" in p]
