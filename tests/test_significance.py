import math

import pytest

from policytrace.assess import InstanceResult, Turn
from policytrace.gateway import mock_provider
from policytrace.significance import (
    CostAccuracyPoint,
    Direction,
    StatsError,
    bonferroni,
    cohens_d,
    holm,
    paired_t_one_sided,
    pareto_frontier,
    reg_inc_beta,
    run_cost,
    t_sf,
)


def test_reg_inc_beta_endpoints():
    assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0


def test_reg_inc_beta_closed_forms():
    # I_x(1, b) = 1 - (1-x)^b ; I_x(a, 1) = x^a
    for x in (0.1, 0.35, 0.5, 0.9):
        assert reg_inc_beta(1.0, 2.5, x) == pytest.approx(1 - (1 - x) ** 2.5, abs=1e-12)
        assert reg_inc_beta(3.0, 1.0, x) == pytest.approx(x**3, abs=1e-12)


def test_reg_inc_beta_symmetry():
    for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (4.0, 1.5, 0.2)]:
        assert reg_inc_beta(a, b, x) == pytest.approx(1 - reg_inc_beta(b, a, 1 - x), abs=1e-12)


def test_t_sf_known_values():
    # df=1 is the Cauchy distribution: P(T >= t) = 1/2 - atan(t)/pi
    for t in (0.0, 0.5, 1.0, 2.0, 10.0):
        assert t_sf(t, 1) == pytest.approx(0.5 - math.atan(t) / math.pi, abs=1e-12)
    # df=2 has closed form: P(T >= t) = 1/2 - t / (2 sqrt(2 + t^2))
    for t in (0.0, 1.0, 3.0, 5.196152422706632):
        assert t_sf(t, 2) == pytest.approx(0.5 - t / (2 * math.sqrt(2 + t * t)), abs=1e-12)


def test_t_sf_negative_is_complement():
    assert t_sf(-1.5, 4) == pytest.approx(1 - t_sf(1.5, 4), abs=1e-12)


# Relative tolerance of the cross-checks against scipy. The continued
# fraction loses about max(a, b) * 1e-16 relative (5e-10 at a = 5e6, near
# x = mean); the tolerance leaves a factor of twenty over that.
SCIPY_RTOL = 1e-8
DFS = [1, 2, 3, 5, 10, 30, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000]
# small t puts df / (df + t^2) within rounding of 1; large t is the far tail
T_VALUES = [
    -50.0, -3.0, -0.5, 0.0, 1e-3, 0.01, 0.1, 0.5,
    1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 1e3, 1e5,
]


@pytest.mark.parametrize("df", DFS)
def test_t_sf_matches_scipy(df):
    stats = pytest.importorskip("scipy.stats")
    for t in T_VALUES:
        want = float(stats.t.sf(t, df))
        assert math.isclose(t_sf(t, df), want, rel_tol=SCIPY_RTOL, abs_tol=1e-300), (t, df)


BETA_SHAPES = [0.5, 1.0, 2.5, 10.0, 100.0, 1e4, 1e6, 5e6]


@pytest.mark.parametrize("a", BETA_SHAPES)
def test_reg_inc_beta_matches_scipy(a):
    special = pytest.importorskip("scipy.special")
    for b in BETA_SHAPES:
        mean = a / (a + b)
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        # fixed points including both tails, plus the bulk of Beta(a, b),
        # where the continued fraction needs the most terms
        xs = [1e-12, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6]
        xs += [x for x in (mean - 3 * sd, mean - sd, mean, mean + sd) if 0 < x < 1]
        for x in xs:
            want = float(special.betainc(a, b, x))
            got = reg_inc_beta(a, b, x)
            assert math.isclose(got, want, rel_tol=SCIPY_RTOL, abs_tol=1e-300), (a, b, x)


def test_paired_t_known_case():
    # differences are [2, 3, 4]: mean 3, sd 1, t = 3 sqrt 3, df 2
    a = [3.0, 5.0, 7.0]
    b = [1.0, 2.0, 3.0]
    result = paired_t_one_sided(a, b, Direction.A_GT_B)
    assert result.t == pytest.approx(3 * math.sqrt(3), abs=1e-12)
    assert result.df == 2
    expected_p = 0.5 * (1 - math.sqrt(27 / 29))
    assert result.p == pytest.approx(expected_p, abs=1e-9)


def test_paired_t_direction():
    a = [1.0, 2.0, 3.0]
    b = [3.0, 5.0, 7.0]
    low = paired_t_one_sided(a, b, Direction.A_GT_B)
    high = paired_t_one_sided(a, b, Direction.A_LT_B)
    assert low.p > 0.9
    assert high.p < 0.1
    assert low.p == pytest.approx(1 - high.p, abs=1e-12)


def test_paired_t_errors():
    with pytest.raises(StatsError):
        paired_t_one_sided([1.0], [2.0, 3.0], Direction.A_GT_B)
    with pytest.raises(StatsError):
        paired_t_one_sided([1.0], [2.0], Direction.A_GT_B)
    with pytest.raises(StatsError):
        paired_t_one_sided([2.0, 3.0], [1.0, 2.0], Direction.A_GT_B)  # constant diff


def test_bonferroni():
    assert bonferroni([0.001], m=2) == [0.002]
    assert bonferroni([0.01, 0.04]) == [0.02, 0.08]
    assert bonferroni([0.9, 0.9]) == [1.0, 1.0]  # capped


def test_holm_known():
    assert holm([0.01, 0.04]) == [0.02, 0.04]
    # running max enforces monotonicity
    assert holm([0.04, 0.01]) == [0.04, 0.02]
    assert holm([0.03, 0.03, 0.03]) == [0.09, 0.09, 0.09]


def test_holm_never_exceeds_bonferroni():
    import random

    rng = random.Random(0)
    for _ in range(200):
        ps = [rng.random() for _ in range(rng.randint(1, 8))]
        h = holm(ps)
        bf = bonferroni(ps)
        assert all(x <= y + 1e-15 for x, y in zip(h, bf))


def test_invalid_p_rejected():
    with pytest.raises(StatsError):
        holm([0.5, 1.2])
    with pytest.raises(StatsError):
        bonferroni([-0.1])


def test_cohens_d_known():
    assert cohens_d([2.0, 4.0], [1.0, 3.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_cohens_d_errors():
    with pytest.raises(StatsError):
        cohens_d([1.0], [2.0, 3.0])
    with pytest.raises(StatsError):
        cohens_d([1.0, 1.0], [1.0, 1.0])


def test_round_off_variance_is_degenerate():
    # The SD of [0.1]*7 comes out near 1e-17, not 0; d and t would blow up.
    with pytest.raises(StatsError):
        cohens_d([0.1] * 7, [0.0] * 7)
    with pytest.raises(StatsError):
        paired_t_one_sided([0.1] * 7, [0.0] * 7, Direction.A_GT_B)


def make_result(prompt_tokens, completion_tokens, n_turns=1):
    turns = [
        Turn(
            template_id="base",
            prompt_hash="h",
            response_text="x",
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
        )
        for _ in range(n_turns)
    ]
    return InstanceResult(
        case_id="c", strategy="base", turns=turns, parsed_verdict=None, correct=None
    )


def test_run_cost_reasoner_prices():
    handle = mock_provider({}, price_in_usd_per_1m=0.40, price_out_usd_per_1m=1.75)
    results = [make_result(500_000, 500_000), make_result(500_000, 500_000)]
    # 1M in + 1M out at 0.40/1.75 per 1M
    assert run_cost(results, handle) == pytest.approx(2.15, abs=1e-12)


def test_run_cost_sums_all_turns():
    handle = mock_provider({}, price_in_usd_per_1m=1.0, price_out_usd_per_1m=1.0)
    results = [make_result(100, 50, n_turns=3)]
    assert run_cost(results, handle) == pytest.approx(450 / 1e6, abs=1e-15)


def test_pareto_frontier_basic():
    pts = [
        CostAccuracyPoint("cheap_bad", 1.0, 50.0),
        CostAccuracyPoint("dear_good", 5.0, 90.0),
        CostAccuracyPoint("dominated", 6.0, 80.0),
        CostAccuracyPoint("tie_cost", 1.0, 55.0),
    ]
    frontier = pareto_frontier(pts)
    labels = [p.label for p in frontier]
    assert labels == ["dear_good", "tie_cost"]  # stable input order


def test_pareto_duplicates_both_kept():
    pts = [CostAccuracyPoint("a", 1.0, 50.0), CostAccuracyPoint("b", 1.0, 50.0)]
    assert [p.label for p in pareto_frontier(pts)] == ["a", "b"]
