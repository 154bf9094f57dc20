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

from ._index import _Frozen, _order
from .errors import MonotonicityError, ValidationError
from .werner import _family, _prepared_gap

#: Root refinement stops once the bracket is this narrow in ln x.
ROOT_RTOL = 1e-13
#: Allowed slack, relative to x, when checking that the boundary never rises with q.
MONOTONE_RTOL = 1e-9


class ThresholdPoint(_Frozen):
    """Sign-change location of the conditional entropy at one order q.

    ``bracket_width`` is the width in x of the final bracket around
    ``x_star`` (0 on an exact zero).
    """

    __slots__ = ("q", "x_star", "bracket_width")

    def __init__(self, q: float, x_star: float, bracket_width: float) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "x_star", x_star)
        object.__setattr__(self, "bracket_width", bracket_width)


def threshold_for_q(levels: int, parties: int, q,
                    conditioned_parties: int | None = None) -> ThresholdPoint:
    """Locate the sign change of the conditional entropy given
    ``conditioned_parties`` parties (default n - 1) in the mixing weight x.

    The one root lies in [x_inf(k), 1]: the entropy is nonnegative at
    x_inf(k) (:func:`asymptotic_threshold`), negative at x = 1, and changes
    sign at most once between.  x_star is the geometric midpoint of a
    bracket at most ``ROOT_RTOL`` wide in ln x whose ends the gap of
    :func:`qtsallis.werner._prepared_gap` puts on opposite sides, or an
    exact zero with a zero-width bracket.  At very large q (from about
    1e15) rounding can leave the gap one sign over the whole interval; the
    root then lies at x_inf(k) within rounding, which is returned with a
    zero-width bracket.

    The search runs in t = ln x from a closed-form seed, by secant probes
    to a sign change, then Brent's method (:func:`_brent`).  For q > 1 the
    seed equates the largest terms of the two q-traces: the top joint
    eigenvalue (1 + (N**n - 1) x) / N**n is N**(1/q) times the top
    marginal one, (1 + (N**(k-1) - 1) x) / N**k, of multiplicity N.  For
    q < 1 it is 1 - v**(1/q), v = (N**(1-q) - 1) / ((N**n - 1) N**(-n q)
    - (N**k - N) N**(-k q)), where the backgrounds balance the spikes as x
    tends to 1.  Elsewhere it is the midpoint of [x_inf(k), 1].  A poor
    seed costs gap evaluations, never accuracy.
    """
    q = _order(q)
    N, n, k = _family(levels, parties, conditioned_parties)
    gap = _prepared_gap(N, n, k, q)
    x_inf = _x_inf(N, n, k)
    low = math.log(x_inf)
    x = math.nan
    if q > 1.0:
        scale, rest = N ** (1.0 / q), N ** (n - k)
        free = N**n - 1 - scale * (N ** (k - 1) - 1) * rest
        if free > 0.0:
            x = (scale * rest - 1.0) / free
    elif q < 1.0:
        free = (N**n - 1) * N ** (-n * q) - (N**k - N) * N ** (-k * q)
        if free > 0.0:
            v = (N ** (1.0 - q) - 1.0) / free
            if v < 1.0:
                x = 1.0 - v ** (1.0 / q)
    t0 = math.log(max(x, x_inf) if 0.0 < x <= 1.0 else 0.5 * (x_inf + 1.0))
    g0 = gap(x_inf if t0 == low else math.exp(t0))
    # below the root the entropy is positive, and so is the gap for q <= 1
    rising = (g0 > 0.0) == (q <= 1.0)
    end = 0.0 if rising else low
    span, way = abs(end - t0), 1.0 if rising else -1.0
    step = 0.5 * ROOT_RTOL  # the least step, in ln x
    before = None  # (u, g) of the probe before the nearest one
    near_u, near_t, near_g = 0.0, t0, g0  # u: the distance from t0 towards the root
    t, g = t0, g0
    while g0 != 0.0 and near_u < span:
        if before is None:
            u = step
        elif abs(near_g) < abs(before[1]):  # the secant root, and one least step past it
            u = near_u + near_g * (near_u - before[0]) / (before[1] - near_g) + step
        else:
            u = 0.5 * (near_u + span)
        u = min(max(u, near_u + step), span)
        t = end if u == span else t0 + way * u
        g = gap(x_inf if t == low else math.exp(t))
        if g == 0.0 or (g > 0.0) != (g0 > 0.0):
            break
        before, near_u, near_t, near_g = (near_u, near_g), u, t, g
    else:  # one sign from the seed to the end: the root lies beyond its other side
        if g0 != 0.0:
            near_t, near_g = t0, g0
            t = low if rising else 0.0
            g = gap(x_inf if rising else 1.0)
            if g != 0.0 and (g > 0.0) == (g0 > 0.0):  # rounding hides a root at x_inf
                return ThresholdPoint(q, x_inf, 0.0)
    if g == 0.0:
        lo = hi = t
    else:  # a bracket the probes closed comes back sorted, with no evaluation
        lo, hi = _brent(gap, low, x_inf, near_t, near_g, t, g)
    if lo == hi:
        return ThresholdPoint(q, x_inf if lo == low else math.exp(lo), 0.0)
    x_star = math.exp(0.5 * (lo + hi))  # the width in x is x_star (hi - lo) (1 + O(1e-27))
    return ThresholdPoint(q, x_star, x_star * (hi - lo))


def _brent(gap, low: float, x_inf: float, a: float, fa: float, b: float,
           fb: float) -> tuple[float, float]:
    """Brent's method (Brent, 1973, the ``zeroin`` form) in t = ln x on a
    bracket [a, b] of nonzero values of ``gap`` of opposite sign: inverse
    quadratic or secant steps, taken only while they shrink the bracket
    fast enough, bisection otherwise, and every step at least half of
    ``ROOT_RTOL``.  ``gap`` is evaluated at exp(t), and at x_inf where t
    is ``low``.  Returns the ends (lo, hi) once the bracket is at most
    ``ROOT_RTOL`` wide, or (t, t) at an exact zero."""
    tol = 0.5 * ROOT_RTOL
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):  # c keeps the sign opposite to b's
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b the best estimate so far
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return (b, c) if b < c else (c, b)
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, r = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                u, w = fa / fc, fb / fc
                p = s * (2.0 * m * u * (u - w) - (b - a) * (w - 1.0))
                r = (u - 1.0) * (w - 1.0) * (s - 1.0)
            if p > 0.0:
                r = -r
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * r - abs(tol * r), abs(e * r)):
                e, d = d, p / r
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = gap(x_inf if b == low else math.exp(b))
        if fb == 0.0:
            return b, b


def _rises(points) -> list[tuple[ThresholdPoint, ThresholdPoint]]:
    """Consecutive points, in the given order, where the boundary rises by
    more than ``MONOTONE_RTOL`` relative to the earlier point."""
    return [(a, b) for a, b in zip(points, points[1:])
            if b.x_star > a.x_star * (1 + MONOTONE_RTOL)]


def threshold_curve(levels: int, parties: int, q_grid) -> tuple[ThresholdPoint, ...]:
    """The boundary point at each order of a strictly increasing grid.

    The located boundary must be non-increasing in q within
    ``MONOTONE_RTOL`` relative to x; a violation raises MonotonicityError
    carrying the offending pair of points.  The check is performed, never
    silently enforced.
    """
    orders = [_order(q) for q in q_grid]
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

        (1 + (N**n - 1) x) / N**n  =  (1 + (N**(k-1) - 1) x) / N**k,

    a linear equation in x, solved in exact integer arithmetic up to one
    division.  At k = n - 1, the strongest choice, the solution is
    1 / (1 + N**(n-1)), below which the state is separable.  Conditioning
    on fewer parties yields a weaker (larger) bound.  N**n must lie below
    2**63.
    """
    return _x_inf(*_family(levels, parties, conditioned_parties))


def _x_inf(N: int, n: int, k: int) -> float:
    """The rational of :func:`asymptotic_threshold` with the factor N**k of
    both sides cancelled, (N**(n-k) - 1) / (N**(n-1) (N - 1) + N**(n-k) - 1):
    the same value, from smaller integers, in one correctly rounded
    int / int division."""
    rest = N ** (n - k) - 1
    return rest / (N ** (n - 1) * (N - 1) + rest)
