"""Values next to the one limit point q = 1, on both sides, against
60-digit mpmath, and the boundary's continuity through it."""

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsallis import (JointDist, WernerParams, conditional_entropy_block,
                      conditional_entropy_ratio, partial_trace, quantum_conditional, spectrum_of,
                      threshold_for_q, tsallis_entropy)
from helpers import (max_levels, mp_log_trace, mp_spectra, mp_von_neumann, random_density,
                     random_joint, random_prob)

#: 1 -/+ |q - 1|, log-uniform in [1e-16, 1e-6]; draws that round to 1 are skipped.
near_orders = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-16.0, -6.0)).map(
    lambda draw: 1.0 + draw[0] * 10.0 ** draw[1]).filter(lambda q: q != 1.0)
#: (N, n, k) over the whole domain N**n < 2**63, and a mixing weight.
members = st.integers(2, 62).flatmap(lambda parties: st.tuples(
    st.integers(2, max_levels(parties)), st.just(parties), st.integers(1, parties - 1),
    st.floats(0.0, 1.0)))


def mp_reference(joint, marginal, q):
    """[Tr joint**q / Tr marginal**q - 1] / (1 - q) of two lists of
    (eigenvalue, multiplicity) levels, each normalized exactly, to 60
    digits, and the size of its terms, S(joint) + S(marginal) + 1 (von
    Neumann): a level next to 1 fixes the value only to about eps."""
    with mpmath.workdps(60):
        exact = []
        for levels in (joint, marginal):
            total = mpmath.fsum(m * mpmath.mpf(v) for v, m in levels)
            exact.append([(mpmath.mpf(v) / total, m) for v, m in levels])
        gap = mp_log_trace(exact[0], q) - mp_log_trace(exact[1], q)
        size = mp_von_neumann(exact[0]) + mp_von_neumann(exact[1]) + 1
        return mpmath.expm1(gap) / (1 - mpmath.mpf(q)), size


def assert_near(value, reference):
    expected, size = reference
    assert abs(value - expected) <= 1e-13 * size, (value, expected, size)


@given(near_orders, st.integers(0, 2**32 - 1), members)
@settings(deadline=None, max_examples=60)
def test_entropies_next_to_one_match_mpmath(q, seed, member):
    """The order-q value, not the von Neumann one, at every order but 1:
    entropies, classical and dense conditionals and the closed-form
    family, within 1e-13 of the size of their terms."""
    rng = np.random.default_rng(seed)
    dist = random_prob(rng, int(rng.integers(2, 17)))
    assert_near(tsallis_entropy(dist, q), mp_reference([(v, 1) for v in dist.p], [(1.0, 1)], q))

    joint = random_joint(rng, tuple(rng.integers(2, 6, size=2)))
    marginal = [(v, 1) for v in joint.array.sum(axis=1)]
    assert_near(conditional_entropy_ratio(joint, q),
                mp_reference([(v, 1) for v in joint.p], marginal, q))

    rho = random_density(rng, tuple(rng.integers(2, 4, size=2)))
    dense, traced = spectrum_of(rho), spectrum_of(partial_trace(rho, {0}))
    assert_near(quantum_conditional(dense, traced, q), mp_reference(dense.levels, traced.levels, q))

    levels, parties, k, x = member
    with mpmath.workdps(60):
        closed = mp_spectra(levels, parties, k, x)
    assert_near(conditional_entropy_block(WernerParams(levels, parties, x), k, q),
                mp_reference(*closed, q))


def test_threshold_is_continuous_through_one():
    """x*(q) decreases strictly through q = 1: the orders next to it take
    their own roots, not the von Neumann one."""
    below, at, above = (threshold_for_q(2, 3, q).x_star for q in (1.0 - 1e-12, 1.0, 1.0 + 1e-12))
    assert below > at > above
