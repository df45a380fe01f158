"""Significance tests, effect sizes, inference cost accounting, Pareto fronts.

The Student-t tail probability is computed from scratch via the regularized
incomplete beta function (Lentz continued fraction) so tests can check it
against independent references. Sample (n-1) variance is used inside the
t statistic and Cohen's d; descriptive trace statistics elsewhere use
population variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .assess import InstanceResult
from .gateway import ModelHandle


class StatsError(ValueError):
    pass


def _betacf(a: float, b: float, x: float, eps: float = 1e-15) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    max_iter = 300 + int(math.sqrt(max(a, b)))  # near the mean: 889 terms at a = b = 5e6
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise StatsError("incomplete beta continued fraction failed to converge")


_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _lgamma_rest(x: float) -> float:
    """lgamma(x) - (x - 0.5) ln x + x; from x = 10 on, Stirling's series (error < 1e-12)."""
    if x < 10:
        return math.lgamma(x) - (x - 0.5) * math.log(x) + x
    x2 = x * x
    return _LN_SQRT_2PI + (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * x2)) / x2) / x2) / x


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b) with the large (x - 0.5) ln x parts of its lgamma terms
    combined first, as R's lbeta does: summing lgamma values near 7e7 loses
    3e-8 relative at a = b = 5e6."""
    p, q = min(a, b), max(a, b)
    s = p + q
    return (
        _lgamma_rest(p)
        + _lgamma_rest(q)
        - _lgamma_rest(s)
        + (p - 0.5) * math.log(p / s)
        + (q - 0.5) * math.log1p(-p / s)
        - 0.5 * math.log(s)
    )


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise StatsError(f"x out of [0,1]: {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: int) -> float:
    """Upper-tail probability P(T >= t) for Student's t with df degrees."""
    if df < 1:
        raise StatsError(f"df must be >= 1, got {df}")
    if t < 0:
        return 1.0 - t_sf(-t, df)
    a, t2 = df / 2.0, t * t
    x = df / (df + t2)
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * reg_inc_beta(a, 0.5, x)
    # x is near 1, where its rounding error dominates: I_x(a, 1/2) is
    # 1 - I_y(1/2, a) with y = 1 - x = t^2 / (df + t^2), which keeps its digits.
    return 0.5 - 0.5 * reg_inc_beta(0.5, a, t2 / (df + t2))


class Direction(str, Enum):
    A_GT_B = "a_gt_b"
    A_LT_B = "a_lt_b"


@dataclass
class PairedTResult:
    t: float
    p: float
    df: int


def _is_roundoff(sd: float, values: Iterable[float]) -> bool:
    """True when an SD is zero up to float round-off at the values' scale:
    the SD of [0.1] * 7 comes out near 1e-17, not 0."""
    return sd <= 1e-12 * max(abs(v) for v in values)


def _sample_var(values: Sequence[float]) -> float:
    n = len(values)
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values) / (n - 1)


def paired_t_one_sided(
    a: Sequence[float], b: Sequence[float], direction: Direction
) -> PairedTResult:
    """One-sided paired t-test on matched observations."""
    if len(a) != len(b):
        raise StatsError(f"length_mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise StatsError("need at least 2 paired observations")
    d = [x - y for x, y in zip(a, b)]
    sd = math.sqrt(_sample_var(d))
    if _is_roundoff(sd, d):
        raise StatsError("zero_variance: paired differences are constant")
    mean_d = sum(d) / n
    t = mean_d / (sd / math.sqrt(n))
    df = n - 1
    p = t_sf(t, df) if direction is Direction.A_GT_B else t_sf(-t, df)
    return PairedTResult(t=t, p=p, df=df)


def _check_ps(ps: Iterable[float]) -> list[float]:
    ps = list(ps)
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise StatsError(f"invalid_p: {p}")
    return ps


def bonferroni(ps: Sequence[float], m: Optional[int] = None) -> list[float]:
    """min(1, m*p) per value; m defaults to the family size |ps|."""
    ps = _check_ps(ps)
    if m is None:
        m = len(ps)
    return [min(1.0, m * p) for p in ps]


def holm(ps: Sequence[float]) -> list[float]:
    """Holm step-down corrected p-values, mapped back to input order."""
    ps = _check_ps(ps)
    m = len(ps)
    order = sorted(range(m), key=lambda i: ps[i])
    corrected = [0.0] * m
    running_max = 0.0
    for rank, idx in enumerate(order):
        adjusted = min(1.0, (m - rank) * ps[idx])
        running_max = max(running_max, adjusted)
        corrected[idx] = running_max
    return corrected


def cohens_d(a: Sequence[float], b: Sequence[float]) -> float:
    """Standardized mean difference with pooled sample standard deviation.

    The round-off cut-off applies once, to the pooled SD at the scale of both
    groups: applied per group, a shift could zero one group's SD but not the
    other's and move d by a factor of about sqrt(2)."""
    if len(a) < 2 or len(b) < 2:
        raise StatsError("each group needs at least 2 observations")
    na, nb = len(a), len(b)
    pooled = math.sqrt(((na - 1) * _sample_var(a) + (nb - 1) * _sample_var(b)) / (na + nb - 2))
    if _is_roundoff(pooled, [*a, *b]):
        raise StatsError("zero pooled variance")
    return (sum(a) / na - sum(b) / nb) / pooled


def run_cost(results: list[InstanceResult], handle: ModelHandle) -> float:
    """Total USD: token sums times per-1M prices, linear over partitions."""
    prompt_tokens = sum(t.prompt_tokens for r in results for t in r.turns)
    completion_tokens = sum(t.completion_tokens for r in results for t in r.turns)
    return (
        prompt_tokens * handle.price_in_usd_per_1m / 1e6
        + completion_tokens * handle.price_out_usd_per_1m / 1e6
    )


@dataclass(frozen=True)
class CostAccuracyPoint:
    label: str
    cost: float
    accuracy: float


def pareto_frontier(points: Sequence[CostAccuracyPoint]) -> list[CostAccuracyPoint]:
    """Points not strictly dominated (cost <= and accuracy >=, one strict),
    in stable input order."""
    frontier = []
    for p in points:
        dominated = any(
            q.cost <= p.cost
            and q.accuracy >= p.accuracy
            and (q.cost < p.cost or q.accuracy > p.accuracy)
            for q in points
        )
        if not dominated:
            frontier.append(p)
    return frontier
