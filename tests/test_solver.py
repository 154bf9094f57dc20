"""Boundary location, monotone curves, and large-q limits."""

import math
import statistics

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qtsallis import (CapacityError, MonotonicityError, Spectrum, ThresholdPoint,
                      ValidationError, WernerParams, asymptotic_threshold,
                      conditional_entropy_block, entropy_sign, joint_spectrum,
                      marginal_spectrum, partial_trace, quantum_tsallis, spectrum_of,
                      threshold_curve, threshold_for_q, werner_density)
from qtsallis import solver, werner
from qtsallis._index import LIMIT_WINDOW, _branch, _conditional, _entropy_from_gap, _log_trace
from qtsallis.solver import _rises
from helpers import NEAR_ONE, WIDE_FAMILIES, mp_conditional_renyi, mp_threshold
from solver_budget import (FOOTPRINT_BUDGET, MEDIAN_BUDGET, WORST_BUDGET, counted_threshold,
                           domain_queries, footprint)


def _max_levels(parties):
    """Largest N with N**parties < 2**63."""
    levels = int(2 ** (63 / parties))
    while levels ** parties >= 2**63:
        levels -= 1
    while (levels + 1) ** parties < 2**63:
        levels += 1
    return levels


#: (N, n, k) over the whole domain N**n < 2**63, k in 1..n-1.
families = st.integers(2, 62).flatmap(lambda parties: st.tuples(
    st.integers(2, _max_levels(parties)), st.just(parties), st.integers(1, parties - 1)))
#: Log-uniform q over [0.1, 1e6], outside the q -> 1 limit-point window,
#: where the order-q root gives way to the von Neumann one.
orders = st.floats(math.log(0.1), math.log(1e6)).map(math.exp) \
    .filter(lambda q: abs(q - 1.0) > LIMIT_WINDOW)
#: The same orders, and the limit point with the orders right next to it.
all_orders = st.one_of(orders, st.sampled_from(NEAR_ONE))
#: Log-uniform q over [0.05, 1e6], the limit point and its neighbours.
whole_orders = st.one_of(st.floats(math.log(0.05), math.log(1e6)).map(math.exp),
                         st.sampled_from(NEAR_ONE))


# -- entropy_sign --------------------------------------------------------

def test_sign_positive_at_maximally_mixed():
    assert entropy_sign(WernerParams(2, 3, 0.0), 5.0) == 1


def test_sign_negative_at_pure_point():
    assert entropy_sign(WernerParams(2, 3, 1.0), 5.0) == -1


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 10.0, 100.0])
def test_sign_matches_direct_value(q):
    for x in np.linspace(0.0, 1.0, 21):
        params = WernerParams(2, 3, float(x))
        sign = entropy_sign(params, q)
        value = conditional_entropy_block(params, None, q)
        if sign == 0:
            assert abs(value) < 1e-12
        else:
            assert (value > 0) == (sign > 0)


def test_sign_flips_across_boundary():
    point = threshold_for_q(2, 3, 50.0)
    below = entropy_sign(WernerParams(2, 3, point.x_star - 1e-9), 50.0)
    above = entropy_sign(WernerParams(2, 3, point.x_star + 1e-9), 50.0)
    assert {below, above} == {1, -1} or 0 in (below, above)


def test_sign_stable_at_extreme_order():
    assert entropy_sign(WernerParams(2, 3, 0.19), 1e6) == 1
    assert entropy_sign(WernerParams(2, 3, 0.21), 1e6) == -1


# -- threshold_for_q -----------------------------------------------------

def test_threshold_large_q_tripartite():
    point = threshold_for_q(2, 3, 1e4)
    assert point.x_star == pytest.approx(0.2, abs=1e-3)
    assert point.bracket_width <= 1e-12


def test_threshold_large_q_two_party():
    point = threshold_for_q(2, 2, 1e4)
    assert point.x_star == pytest.approx(1 / 3, abs=1e-3)


def test_threshold_von_neumann_against_dense_bisection():
    def dense_conditional(x):
        params = WernerParams(2, 3, x)
        joint = spectrum_of(werner_density(params))
        marginal = spectrum_of(partial_trace(werner_density(params), [1, 2]))
        return quantum_tsallis(joint, 1.0) - quantum_tsallis(marginal, 1.0)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dense_conditional(mid) > 0:
            lo = mid
        else:
            hi = mid
    oracle_root = 0.5 * (lo + hi)
    assert threshold_for_q(2, 3, 1.0).x_star == pytest.approx(oracle_root, abs=1e-8)


def test_threshold_block_conditioning():
    point = threshold_for_q(2, 3, 1e4, conditioned_parties=1)
    assert point.x_star == pytest.approx(3 / 7, abs=1e-3)


def test_threshold_bracket_properties():
    for q in (0.5, 2.0, 10.0, 1e3):
        point = threshold_for_q(2, 3, q)
        assert point.x_star is not None
        assert point.bracket_width <= 1e-12
        below = entropy_sign(WernerParams(2, 3, point.x_star - 1e-9), q)
        above = entropy_sign(WernerParams(2, 3, point.x_star + 1e-9), q)
        assert below != above or 0 in (below, above)


# -- one bracket ----------------------------------------------------------

@given(families, all_orders)
@settings(deadline=None)
def test_sign_changes_once_above_large_q_bound(family, q):
    # the solver's single bracket [x_inf(k), 1] rests on this
    levels, parties, k = family
    x_inf = asymptotic_threshold(levels, parties, k)
    xs = [x_inf * x_inf ** -(i / 1023) for i in range(1, 1023)]
    signs = [entropy_sign(WernerParams(levels, parties, x), q, k)
             for x in [x_inf, *xs, 1.0]]
    assert signs[0] == 1 and signs[-1] == -1
    assert signs == sorted(signs, reverse=True) and signs.count(0) <= 1


#: Families and orders that took the Illinois regula falsi of earlier
#: versions 47 or 48 gap evaluations: its secant steps kept falling
#: outside the bracket, and it bisected.
SLOW_ILLINOIS = ((8, 12, 1, 332500.0), (5, 25, 1, 2.9961), (13, 16, 1, 4.9436),
                 (9, 12, 1, 214944.4585017538))


@given(families, whole_orders)
@settings(deadline=None)
def test_root_takes_few_gap_evaluations(family, q):
    # counted on the gap that the solver prepares, so that every
    # evaluation it makes is seen; 16 is the most over the budget sample
    point, evaluations = counted_threshold(*family, q)
    assert point.x_star is not None
    assert 1 <= len(evaluations) <= WORST_BUDGET


@pytest.mark.parametrize("levels,parties,k,q", SLOW_ILLINOIS)
def test_slow_illinois_roots_take_few_gap_evaluations(levels, parties, k, q):
    point, evaluations = counted_threshold(levels, parties, k, q)
    assert point.x_star is not None
    assert 1 <= len(evaluations) <= 4


def test_gap_evaluations_over_the_budget_sample():
    counts = sorted(len(counted_threshold(*query)[1]) for query in domain_queries(500))
    assert counts[0] >= 1
    assert statistics.median(counts) <= MEDIAN_BUDGET
    assert counts[-1] <= WORST_BUDGET


def test_counted_evaluations_are_half_the_log_traces(monkeypatch):
    # each gap evaluation takes two log q-traces, so a count that saw
    # fewer evaluations than the solver made would show here
    calls = []
    trace = werner._log_trace

    def counting(levels, order, far):
        calls.append(order)
        return trace(levels, order, far)

    monkeypatch.setattr(werner, "_log_trace", counting)
    queries = domain_queries(100) + [(2, 3, 2, q) for q in NEAR_ONE] + [(2, 62, 61, 1e4)]
    for query in queries:
        calls.clear()
        _, evaluations = counted_threshold(*query)
        assert len(evaluations) >= 1
        assert len(calls) == 2 * len(evaluations)


#: One query of each kind: q < 1, the limit point, a root that Brent's
#: method closes, an exact zero, conditioning on k < n - 1, and an order
#: far out.
FOOTPRINT_QUERIES = ((2, 3, 2, 0.5), (2, 3, 2, 1.0), (3, 4, 3, 2.0), (2, 62, 61, 1e4),
                     (4, 6, 2, 30.0), (16, 15, 3, 1e6))


@pytest.mark.parametrize("levels,parties,k,q", FOOTPRINT_QUERIES)
def test_threshold_footprint(levels, parties, k, q):
    # the distinct Python functions a warm query enters, and the records it
    # builds: only the ThresholdPoint it returns
    point = threshold_for_q(levels, parties, q, conditioned_parties=k)
    entered, records = footprint(levels, parties, k, q)
    assert len(entered) <= FOOTPRINT_BUDGET, sorted(name for _, _, name in entered)
    assert records == 1
    assert threshold_for_q(levels, parties, q, conditioned_parties=k) == point


def test_footprint_queries_cover_brent_and_an_exact_zero():
    assert "_brent" in {name for _, _, name in footprint(3, 4, 3, 2.0)[0]}
    assert threshold_for_q(2, 62, 1e4).bracket_width == 0.0


def _x_inf_full(N, n, k):
    """The rational of x_inf(k) before the common factor N**k cancels."""
    return (N**n - N**k) / (N**k * (N**n - 1) - N**n * (N**(k - 1) - 1))


@given(families, whole_orders,
       st.one_of(st.sampled_from((0.0, None, 1.0 - 2.0**-40, 1.0)), st.floats(0.0, 1.0)))
@settings(deadline=None)
def test_prepared_gap_is_the_one_q_trace_rule(family, q, x):
    # the prepared gap of the family against the shared kernel and branch of
    # _index on the closed-form levels, and its entropy against the shared
    # conditional, bit for bit; None stands for x_inf(k)
    levels, parties, k = family
    x_inf = solver._x_inf(levels, parties, k)
    assert x_inf == _x_inf_full(levels, parties, k)
    x = x_inf if x is None else x
    joint = werner._levels(werner._side(levels, parties, 1), x)
    marginal = werner._levels(werner._side(levels, k, levels), x)
    log_count = math.log(levels ** parties)
    order, far = _branch(q, log_count)
    gap = werner._prepared_gap(levels, parties, k, q)(x)
    assert gap == _log_trace(joint, order, far) - _log_trace(marginal, order, far)
    assert _entropy_from_gap(gap, order) == _conditional(joint, marginal, q, log_count)


@given(families, st.one_of(st.sampled_from((0.0, 5e-324, 1e-16, 1.0 - 1e-16, 1.0)),
                          st.floats(0.0, 1.0)))
@settings(deadline=None)
def test_closed_spectra_are_what_the_checked_constructor_keeps(family, x):
    # joint_spectrum and marginal_spectrum skip the checks of Spectrum: their levels must be
    # the ones the constructor would keep, with int multiplicities
    levels, parties, _ = family
    params = WernerParams(levels, parties, x)
    for spectrum in (joint_spectrum(params),
                     *(marginal_spectrum(params, m) for m in range(1, parties))):
        assert Spectrum(spectrum.levels).levels == spectrum.levels
        assert all(type(mult) is int for _, mult in spectrum.levels), spectrum


def _bisected_root(gap, x_inf, below_positive):
    """The root of ``gap`` on [x_inf, 1] by plain bisection in ln x, to
    1e-15 in ln x."""
    lo, hi = math.log(x_inf), 0.0
    while hi - lo > 1e-15 * max(1.0, -lo):
        mid = 0.5 * (lo + hi)
        value = gap(math.exp(mid))
        if value == 0.0:
            return math.exp(mid)
        if (value > 0.0) == below_positive:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


@given(families, whole_orders)
@settings(deadline=None)
def test_root_rests_on_a_verified_bracket(family, q):
    # the two evaluated points next to x* carry opposite signs of the gap,
    # evaluated again here, and lie at most ROOT_RTOL apart in ln x
    levels, parties, k = family
    point, evaluations = counted_threshold(levels, parties, k, q)
    gap = werner._prepared_gap(levels, parties, k, q)
    x_inf = asymptotic_threshold(levels, parties, k)
    assert point.x_star is not None and point.x_star >= x_inf
    if point.bracket_width == 0.0:
        assert gap(point.x_star) == 0.0
    else:
        xs = sorted({x for x, _ in evaluations})
        (lo, hi), = [(a, b) for a, b in zip(xs, xs[1:])
                     if a <= point.x_star <= b and (gap(a) > 0.0) != (gap(b) > 0.0)]
        assert gap(lo) != 0.0 and gap(hi) != 0.0
        assert math.log(hi) - math.log(lo) <= solver.ROOT_RTOL + 4e-16
        assert point.bracket_width == pytest.approx(
            point.x_star * (math.log(hi) - math.log(lo)), rel=1e-2, abs=1e-16 * point.x_star)
    bisected = _bisected_root(gap, x_inf, q < 1.0 or _branch(q, 0.0)[0] is None)
    assert point.x_star == pytest.approx(bisected, rel=1e-12, abs=0)


@given(families, st.floats(0.0, 1.0))
@settings(deadline=None)
def test_large_q_rate(family, fraction):
    # x* = x_inf + ln N / (q s_k) + O(1 / q**2) (Tsallis, Lloyd & Baranger,
    # PRA 63, 042104 (2001)): at x_inf the top joint eigenvalue equals the
    # marginal spike, of multiplicity N, and s_k is the slope of the log of
    # their ratio there.  The rate holds once both backgrounds are
    # negligible: q >= 10 ln N**n, and for k >= 2 also q ln(spike /
    # background) of the marginal at x_inf, a log about 1 / N at k = n - 1,
    # at least 10 ln N**n.  From there |ratio - 1| stays below
    # 2 ln N**n / q (0.30 ln N**n / q at most over 5848 random queries).
    levels, parties, k = family
    log_count = parties * math.log(levels)
    x_inf = asymptotic_threshold(levels, parties, k)
    dim, spike = levels ** parties, levels ** (k - 1)
    spread = math.log((1 + (spike - 1) * x_inf) / (1 - x_inf)) if k > 1 else math.inf
    least = 10.0 * log_count * max(1.0, 1.0 / spread)
    assume(least <= 1e6)
    q = math.exp(math.log(least) + fraction * (math.log(1e6) - math.log(least)))
    slope = (dim - 1) / (1 + (dim - 1) * x_inf) - (spike - 1) / (1 + (spike - 1) * x_inf)
    x_star = threshold_for_q(levels, parties, q, conditioned_parties=k).x_star
    ratio = q * (x_star - x_inf) * slope / math.log(levels)
    assert abs(ratio - 1.0) <= 2.0 * log_count / q


# -- roots beyond dense scale --------------------------------------------

@pytest.mark.parametrize("q", [3.0, 1e4, 1e6])
@pytest.mark.parametrize("parties", [30, 40, 62])
def test_threshold_tiny_roots_match_arbitrary_precision(parties, q):
    point = threshold_for_q(2, parties, q)
    assert point.x_star >= asymptotic_threshold(2, parties)
    with mpmath.workdps(50):
        expected = float(mp_threshold(2, parties, parties - 1, q))
    assert point.x_star == pytest.approx(expected, rel=1e-12, abs=0)


@given(families, orders)
@settings(deadline=None)
def test_threshold_never_below_large_q_bound(family, q):
    levels, parties, k = family
    point = threshold_for_q(levels, parties, q, conditioned_parties=k)
    assert point.x_star is not None
    assert point.x_star >= asymptotic_threshold(levels, parties, k) * (1 - 1e-12)
    assert point.bracket_width <= 1e-13 * point.x_star


#: Log-uniform q over [1e6, 1e300], beyond the advertised orders.
huge_orders = st.floats(math.log(1e6), math.log(1e300)).map(lambda t: max(math.exp(t), 1e6))


@given(families, huge_orders)
@example((2, 3, 2), 1e16)
@settings(deadline=None)
def test_threshold_located_at_huge_orders(family, q):
    # a root lies in [x_inf(k), 1] at every order; where rounding leaves the gap one sign
    # over that whole interval, it lies at x_inf(k) within rounding
    levels, parties, k = family
    x_star = threshold_for_q(levels, parties, q, conditioned_parties=k).x_star
    assert x_star is not None
    assert asymptotic_threshold(levels, parties, k) <= x_star
    top = threshold_for_q(levels, parties, 1e6, conditioned_parties=k).x_star
    assert x_star <= top * (1 + solver.MONOTONE_RTOL)


def test_threshold_at_huge_q_is_the_large_q_bound():
    assert threshold_for_q(2, 3, 1e16) == ThresholdPoint(1e16, asymptotic_threshold(2, 3), 0.0)


@pytest.mark.parametrize("q", NEAR_ONE)
@pytest.mark.parametrize("levels,parties,k", WIDE_FAMILIES)
def test_threshold_matches_arbitrary_precision_next_to_one(levels, parties, k, q):
    # both log q-traces are of size |q - 1| ln N**n here; the exact root
    # lies within 1e-12 relative of x* when the entropy changes sign there
    x_star = threshold_for_q(levels, parties, q, conditioned_parties=k).x_star
    with mpmath.workdps(50):
        below, above = (mp_conditional_renyi(levels, parties, k, q, x_star * (1 + side * 1e-12))
                        for side in (-1, 1))
    assert below > 0 > above


@given(families, orders)
@settings(deadline=None, max_examples=40)
def test_threshold_matches_arbitrary_precision_root(family, q):
    levels, parties, k = family
    point = threshold_for_q(levels, parties, q, conditioned_parties=k)
    with mpmath.workdps(50):
        expected = float(mp_threshold(levels, parties, k, q))
    assert point.x_star == pytest.approx(expected, rel=1e-12, abs=0)


@given(families, st.lists(orders, min_size=2, max_size=6, unique=True))
@settings(deadline=None)
def test_curve_never_rises(family, qs):
    levels, parties, _ = family
    curve = threshold_curve(levels, parties, sorted(qs))  # raises if it rises
    xs = [point.x_star for point in curve]
    assert all(b <= a * (1 + 1e-8) for a, b in zip(xs, xs[1:]))


# -- threshold_curve -----------------------------------------------------

def test_curve_monotone_and_convergent():
    grid = np.geomspace(0.5, 1e4, 20)
    curve = threshold_curve(2, 3, grid)
    xs = [p.x_star for p in curve]
    assert all(x is not None for x in xs)
    assert all(b <= a + 1e-9 for a, b in zip(xs, xs[1:]))
    assert xs[-1] == pytest.approx(0.2, abs=1e-3)


def test_curve_requires_increasing_grid():
    with pytest.raises(ValidationError):
        threshold_curve(2, 3, [1.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        threshold_curve(2, 3, [])


def test_curve_convergence_from_above():
    for levels, parties in ((2, 3), (3, 2)):
        limit = asymptotic_threshold(levels, parties)
        gaps = [threshold_for_q(levels, parties, q).x_star - limit
                for q in (10.0, 100.0, 1e3, 1e4)]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_rise_detected_below_absolute_tolerance():
    # roots of families with N**n beyond about 2**30 sit below 1e-9
    low = ThresholdPoint(2.0, 1e-12, 0.0)
    high = ThresholdPoint(3.0, 1e-10, 0.0)
    assert _rises([low, high]) == [(low, high)]
    assert _rises([low, ThresholdPoint(3.0, 1e-12 * (1 + 1e-12), 0.0)]) == []


def test_monotonicity_error_carries_pair():
    err = MonotonicityError("rose", first="a", second="b")
    assert err.first == "a" and err.second == "b"


# -- asymptotic thresholds -----------------------------------------------

def test_asymptote_exact_values():
    assert asymptotic_threshold(2, 3) == 0.2
    assert asymptotic_threshold(2, 2) == 1 / 3
    assert asymptotic_threshold(3, 4) == 1 / 28


@pytest.mark.parametrize("levels,parties", [
    (2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 3), (5, 2), (7, 3), (10, 5),
])
def test_asymptote_simplifies(levels, parties):
    # the linear dominant-eigenvalue solve must reduce to the closed form
    assert asymptotic_threshold(levels, parties) \
        == 1 / (1 + levels ** (parties - 1))


def test_asymptote_refuses_what_the_family_refuses():
    with pytest.raises(CapacityError):
        asymptotic_threshold(2, 100)  # N**n beyond 2**63, as in threshold_for_q
    with pytest.raises(CapacityError):
        threshold_for_q(2, 100, 2.0)
    for levels, parties in ((1, 3), (2, 1)):
        with pytest.raises(ValidationError):
            asymptotic_threshold(levels, parties)


def test_asymptote_block_values():
    assert asymptotic_threshold(2, 3, 1) == 3 / 7
    assert asymptotic_threshold(2, 3, 2) == 0.2


@pytest.mark.parametrize("levels,parties", [(2, 3), (2, 4), (3, 3), (2, 6)])
def test_asymptote_block_dominance(levels, parties):
    full = asymptotic_threshold(levels, parties)
    for k in range(1, parties):
        block = asymptotic_threshold(levels, parties, k)
        assert block >= full
    assert asymptotic_threshold(levels, parties, parties - 1) == full


def test_none_conditions_on_all_but_one():
    for levels, parties in ((2, 2), (2, 3), (3, 4)):
        assert asymptotic_threshold(levels, parties, None) \
            == asymptotic_threshold(levels, parties, parties - 1)
        for q in (0.5, 1.0, 2.0, 1e3):
            assert threshold_for_q(levels, parties, q, None) \
                == threshold_for_q(levels, parties, q, parties - 1)
            params = WernerParams(levels, parties, 0.3)
            assert entropy_sign(params, q, None) == entropy_sign(params, q, parties - 1)


def test_asymptote_block_range_validation():
    with pytest.raises(ValidationError):
        asymptotic_threshold(2, 3, 0)
    with pytest.raises(ValidationError):
        asymptotic_threshold(2, 3, 3)
