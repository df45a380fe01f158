"""`report.build_report`'s comparisons: each pair of runs gets a two-sided paired t-test, so
its p-values do not depend on the order in which the runs are given."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policytrace.assess import InstanceResult, RunManifest
from policytrace.corpus import Verdict
from policytrace.report import build_report


def _run(run_id: str, correct: list[bool]) -> tuple[RunManifest, list[InstanceResult]]:
    manifest = RunManifest(run_id=run_id, policy_id="p", strategy=run_id, learner_model="m",
                           judge_model=None, seed=0, k=3, pool_hash=None, template_hashes={},
                           started_at="")
    results = [InstanceResult(f"c{i:03d}", run_id, [], Verdict.COMPLIANT, ok)
               for i, ok in enumerate(correct)]
    return manifest, results


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
