"""Boundary location for the mixing family.

Finds where the conditional entropy of one party given the rest changes
sign as a function of the mixing weight, tracks that boundary across the
entropy order q, and evaluates its exact large-q limit.  A vanishing
conditional entropy marks the edge of the classically correlated regime;
below the large-q limit the state is separable.  Signs come from the
family's closed-form log q-traces in :mod:`qtsallis.werner`, the same
arrays that give its conditional entropy values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import EntropicIndex, _as_index
from .errors import MonotonicityError, ValidationError
from .werner import WernerParams, _conditioned, _log_trace_gap

#: Root refinement stops once the bracket is this narrow relative to x.
ROOT_RTOL = 1e-13
#: Allowed slack, relative to x, when checking that the boundary never rises with q.
MONOTONE_RTOL = 1e-9
#: 128 geometric points per scan or bracket cut: seven grids reach ROOT_RTOL.
_STEPS = np.linspace(0.0, 1.0, 128)


@dataclass(frozen=True)
class ThresholdPoint:
    """Sign-change location of the conditional entropy at one order q.

    ``x_star`` is None when the entropy keeps one sign across the whole
    mixing interval.  ``sign_changes`` counts the sign-change events seen
    on the scan grid, so callers can tell whether the reported root (the
    first one) is also the only one.
    """

    q: float
    x_star: float | None
    bracket_width: float
    sign_changes: int


@dataclass(frozen=True)
class ThresholdCurve:
    """Boundary points for one family, ordered by increasing q."""

    levels: int
    parties: int
    points: tuple[ThresholdPoint, ...]


def _signs(levels: int, parties: int, k: int, qi: EntropicIndex, x: np.ndarray) -> np.ndarray:
    """Signs of the conditional entropy at each mixing weight in ``x``:
    expm1(gap) / (1 - q) has the sign of the gap times that of 1 - q."""
    signs = np.sign(_log_trace_gap(levels, parties, k, qi, x))
    return -signs if qi.q > 1.0 and not qi.is_limit_point else signs


def entropy_sign(params: WernerParams, q, conditioned_parties: int | None = None) -> int:
    """Sign (-1, 0, +1) of the conditional entropy given
    ``conditioned_parties`` parties (default n - 1), from the log domain,
    so it holds at any q; 0 means an exact zero."""
    k = _conditioned(params.parties, conditioned_parties)
    x = np.array([params.mixing])
    return int(_signs(params.levels, params.parties, k, _as_index(q), x)[0])


def threshold_for_q(levels: int, parties: int, q,
                    conditioned_parties: int | None = None) -> ThresholdPoint:
    """Locate the first sign change of the conditional entropy in x.

    No root lies below the exact large-q bound, so a geometric grid over
    [x_inf(k), 1] counts the sign changes and gives the first bracket; each
    geometric cut keeps its first sign change, until the bracket is below
    ``ROOT_RTOL`` relative to x.  An exact zero on a grid is returned with
    a zero-width bracket, and x_star = None when the scan shows no change.
    """
    qi = _as_index(q)
    family = WernerParams(levels, parties, 0.0)  # validates N, n and N**n
    N, n = family.levels, family.parties
    k = _conditioned(n, conditioned_parties)
    lo, hi = asymptotic_threshold(N, n, k), 1.0
    ends = None  # signs at lo and hi once a bracket is known
    while True:
        xs = lo * np.exp(math.log1p((hi - lo) / lo) * _STEPS)
        xs[-1] = hi
        signs = _signs(N, n, k, qi, xs)
        if ends is None:
            nonzero = signs[signs != 0]
            changes = int(np.count_nonzero(signs == 0)
                          + np.count_nonzero(nonzero[1:] != nonzero[:-1]))
            if not changes:
                return ThresholdPoint(qi.q, None, math.nan, 0)
        else:
            signs[[0, -1]] = ends  # a re-evaluation must not round the bracket away
        first = int(np.argmax(signs != signs[0])) if signs[0] else 0
        if not signs[first]:
            return ThresholdPoint(qi.q, float(xs[first]), 0.0, changes)
        lo, hi = float(xs[first - 1]), float(xs[first])
        ends = signs[first - 1], signs[first]
        if hi - lo <= ROOT_RTOL * lo:
            return ThresholdPoint(qi.q, 0.5 * (lo + hi), hi - lo, changes)


def _rises(points) -> list[tuple[ThresholdPoint, ThresholdPoint]]:
    """Consecutive located points, in the given order, where the boundary
    rises by more than ``MONOTONE_RTOL`` relative to the earlier point."""
    located = [point for point in points if point.x_star is not None]
    return [(a, b) for a, b in zip(located, located[1:])
            if b.x_star > a.x_star * (1 + MONOTONE_RTOL)]


def threshold_curve(levels: int, parties: int, q_grid) -> ThresholdCurve:
    """Boundary points across a strictly increasing grid of orders.

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
    return ThresholdCurve(int(levels), int(parties), points)


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
    yields a weaker (larger) bound.
    """
    N, n = int(levels), int(parties)
    if N < 2 or n < 2:
        raise ValidationError("need at least two levels and two parties")
    k = _conditioned(n, conditioned_parties)
    numerator = N**n - N**k
    denominator = N**k * (N**n - 1) - N**n * (N**(k - 1) - 1)
    return numerator / denominator
