"""Boundary location for the mixing family.

Finds where the conditional entropy of one party given the rest changes
sign as a function of the mixing weight, tracks that boundary across the
entropy order q, and evaluates its exact large-q limit.  A vanishing
conditional entropy marks the edge of the classically correlated regime;
below the large-q limit the state is separable.  Signs and roots come
from the family's closed-form log q-trace gap in :mod:`qtsallis.werner`,
the same scalar form that gives its conditional entropy values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._index import _as_index
from .errors import MonotonicityError, ValidationError
from .werner import WernerParams, _conditioned, _family, _log_trace_gap

#: Root refinement stops once the bracket is this narrow in ln x.
ROOT_RTOL = 1e-13
#: Allowed slack, relative to x, when checking that the boundary never rises with q.
MONOTONE_RTOL = 1e-9


@dataclass(frozen=True)
class ThresholdPoint:
    """Sign-change location of the conditional entropy at one order q.

    ``x_star`` is None when the entropy keeps one sign across the whole
    mixing interval; ``bracket_width`` is the width in x of the final
    bracket (0 on an exact zero, nan without a root).
    """

    q: float
    x_star: float | None
    bracket_width: float


def entropy_sign(params: WernerParams, q, conditioned_parties: int | None = None) -> int:
    """Sign (-1, 0, +1) of the conditional entropy given
    ``conditioned_parties`` parties (default n - 1), from the log domain,
    so it holds at any q; 0 means an exact zero.  expm1(gap) / (1 - q) has
    the sign of the gap times that of 1 - q."""
    k = _conditioned(params.parties, conditioned_parties)
    qi = _as_index(q)
    gap = _log_trace_gap(params.levels, params.parties, k, qi, params.mixing)
    sign = (gap > 0.0) - (gap < 0.0)
    return -sign if qi.q > 1.0 and not qi.is_limit_point else sign


def threshold_for_q(levels: int, parties: int, q,
                    conditioned_parties: int | None = None) -> ThresholdPoint:
    """Locate the sign change of the conditional entropy in x.

    No root lies below the exact large-q bound, and on [x_inf(k), 1] the
    entropy changes sign at most once, so that interval is the one
    bracket.  Illinois regula falsi on the log-trace gap, in t = ln x,
    shrinks it, falling back to bisection when a secant step leaves the
    bracket, until it is at most ``ROOT_RTOL`` wide in ln x; x_star is its
    geometric midpoint.  An exact zero is returned with a zero-width
    bracket, and x_star = None when the gap has one sign at both ends.
    """
    qi = _as_index(q)
    N, n, k = _family(levels, parties, conditioned_parties)

    def gap(x: float) -> float:
        return _log_trace_gap(N, n, k, qi, x)

    x_inf = _x_inf(N, n, k)
    lo, hi = math.log(x_inf), 0.0
    g_lo, g_hi = gap(x_inf), gap(1.0)
    for x, g in ((x_inf, g_lo), (1.0, g_hi)):
        if g == 0.0:
            return ThresholdPoint(qi.q, x, 0.0)
    if (g_lo > 0.0) == (g_hi > 0.0):
        return ThresholdPoint(qi.q, None, math.nan)
    kept = 0  # the end the last step kept: +1 the lower, -1 the upper
    while hi - lo > ROOT_RTOL:
        t = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        g = gap(math.exp(t))
        if g == 0.0:
            return ThresholdPoint(qi.q, math.exp(t), 0.0)
        if (g > 0.0) == (g_lo > 0.0):
            lo, g_lo = t, g
            if kept < 0:  # the upper end stayed twice: halve its gap (Illinois)
                g_hi *= 0.5
            kept = -1
        else:
            hi, g_hi = t, g
            if kept > 0:
                g_lo *= 0.5
            kept = 1
    x_star = math.exp(0.5 * (lo + hi))  # the width in x is x_star (hi - lo) (1 + O(1e-27))
    return ThresholdPoint(qi.q, x_star, x_star * (hi - lo))


def _rises(points) -> list[tuple[ThresholdPoint, ThresholdPoint]]:
    """Consecutive located points, in the given order, where the boundary
    rises by more than ``MONOTONE_RTOL`` relative to the earlier point."""
    located = [point for point in points if point.x_star is not None]
    return [(a, b) for a, b in zip(located, located[1:])
            if b.x_star > a.x_star * (1 + MONOTONE_RTOL)]


def threshold_curve(levels: int, parties: int, q_grid) -> tuple[ThresholdPoint, ...]:
    """The boundary point at each order of a strictly increasing grid.

    The located boundary must be non-increasing in q within
    ``MONOTONE_RTOL`` relative to x; a violation raises MonotonicityError
    carrying the offending pair of points.  The check is performed, never
    silently enforced.
    """
    orders = [_as_index(q).q for q in q_grid]
    if not orders:
        raise ValidationError("q grid must be nonempty")
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValidationError("q grid must be strictly increasing")
    points = tuple(threshold_for_q(levels, parties, q) for q in orders)
    rise = _rises(points)
    if rise:
        first, second = rise[0]
        raise MonotonicityError(f"boundary rose from x*={first.x_star} at q={first.q} "
                                f"to x*={second.x_star} at q={second.q}",
                                first=first, second=second)
    return points


def asymptotic_threshold(levels: int, parties: int,
                         conditioned_parties: int | None = None) -> float:
    """Exact large-q limit of the boundary when conditioning on
    k = ``conditioned_parties`` parties (None means n - 1).

    For q -> infinity each log q-trace is dominated by its largest
    eigenvalue, so the conditional entropy vanishes where the dominant
    joint and marginal eigenvalues coincide:

        (1 + (N**n - 1) x) / N**n  =  (1 + (N**(k-1) - 1) x) / N**k

    Cross-multiplying gives a linear equation in x,

        x * [N**k (N**n - 1) - N**n (N**(k-1) - 1)] = N**n - N**k,

    evaluated in exact integer arithmetic up to the final division.  At
    k = n - 1, the strongest choice, the solution simplifies to
    1 / (1 + N**(n-1)): the denominator factors as
    N**(n-1) (N - 1) (N**(n-1) + 1) against the numerator N**(n-1) (N - 1).
    Below this value the state is separable.  Conditioning on fewer parties
    yields a weaker (larger) bound.  N**n must lie below 2**63.
    """
    return _x_inf(*_family(levels, parties, conditioned_parties))


def _x_inf(N: int, n: int, k: int) -> float:
    return (N**n - N**k) / (N**k * (N**n - 1) - N**n * (N**(k - 1) - 1))
