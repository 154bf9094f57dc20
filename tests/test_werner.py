"""Closed-form spectra and conditional entropies of the mixing family."""

import math

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

from qtsallis import (CapacityError, ValidationError, WernerParams, asymptotic_threshold,
                      conditional_entropy_block, joint_spectrum, marginal_spectrum,
                      partial_trace, quantum_conditional, spectrum_of, threshold_for_q,
                      tsallis_entropy, werner_density)
from helpers import (NEAR_ONE, WIDE_FAMILIES, ghz_vector, mp_conditional, mp_log_trace,
                     mp_spectra, mp_von_neumann)

X_GRID = tuple(t / 10 for t in range(11))
Q_GRID = (0.5, 1.0, 2.0, 5.0, 20.0)


def tripartite_qubit_conditional(x, q, conditioned):
    """Literal two-level three-party closed form, for cross-checking."""
    num = 7 * ((1 - x) / 8) ** q + ((1 + 7 * x) / 8) ** q
    if conditioned == 1:
        den = 2 * 0.5 ** q
    else:
        den = 2 * ((1 - x) / 4) ** q + 2 * ((1 + x) / 4) ** q
    return (num / den - 1.0) / (1.0 - q)


def general_conditional(levels, parties, x, q):
    """Plain-power evaluation of the conditional entropy (q moderate)."""
    dim = levels ** parties
    reduced = levels ** (parties - 1)
    num = (dim - 1) * ((1 - x) / dim) ** q + ((1 + (dim - 1) * x) / dim) ** q
    den = (reduced - levels) * ((1 - x) / reduced) ** q \
        + levels * ((1 + (levels ** (parties - 2) - 1) * x) / reduced) ** q
    return (num / den - 1.0) / (1.0 - q)


# -- params --------------------------------------------------------------

@pytest.mark.parametrize("levels,parties,mixing", [
    (1, 2, 0.5), (2, 1, 0.5), (2, 2, -0.1), (2, 2, 1.1),
])
def test_params_validation(levels, parties, mixing):
    with pytest.raises(ValidationError):
        WernerParams(levels, parties, mixing)


def test_params_multiplicity_cap():
    with pytest.raises(CapacityError):
        WernerParams(2, 64, 0.5)


@pytest.mark.parametrize("levels,parties", [(2.9, 3), (2, 3.5), (math.nan, 3), (2, math.inf),
                                            ("2", 3)])
def test_params_reject_non_integral_counts(levels, parties):
    with pytest.raises(ValidationError, match="must be an integer"):
        WernerParams(levels, parties, 0.4)


def test_params_accept_integral_floats_and_numpy_integers():
    params = WernerParams(3.0, np.int64(3), 0.4)
    assert (params.levels, params.parties) == (3, 3)
    assert type(params.levels) is int and type(params.parties) is int


def test_counts_refused_across_the_closed_forms():
    params = WernerParams(2, 3, 0.4)
    with pytest.raises(ValidationError, match="must be an integer"):
        asymptotic_threshold(2.9, 3.5)
    with pytest.raises(ValidationError, match="must be an integer"):
        asymptotic_threshold(2, 3, conditioned_parties=1.5)
    with pytest.raises(ValidationError, match="must be an integer"):
        conditional_entropy_block(params, 1.5, 2.0)
    with pytest.raises(ValidationError, match="must be an integer"):
        marginal_spectrum(params, 1.5)
    with pytest.raises(ValidationError, match="must be an integer"):
        threshold_for_q(2.5, 3, 2.0)
    with pytest.raises(ValidationError, match="must be an integer"):
        partial_trace(werner_density(params), {0.5})
    assert asymptotic_threshold(2.0, np.int64(3), 2.0) == 0.2
    assert conditional_entropy_block(params, 1.0, 2.0) == conditional_entropy_block(params, 1, 2.0)


# -- GHZ vector (placed by oracle._ghz_indices) ---------------------------

def test_ghz_two_level_three_party():
    vec = ghz_vector(2, 3)
    expected = np.zeros(8)
    expected[[0, 7]] = 1 / math.sqrt(2)
    npt.assert_allclose(vec, expected, atol=1e-15)


def test_ghz_three_level_two_party():
    vec = ghz_vector(3, 2)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1 / math.sqrt(3)
    npt.assert_allclose(vec, expected, atol=1e-15)


def test_ghz_single_party_uniform():
    vec = ghz_vector(5, 1)
    npt.assert_allclose(vec, np.full(5, 1 / math.sqrt(5)), atol=1e-15)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)


def test_ghz_capacity():
    with pytest.raises(CapacityError):
        werner_density(WernerParams(2, 13, 1.0))  # the GHZ projector alone


# -- werner_density ------------------------------------------------------

def test_density_maximally_mixed_at_zero():
    rho = werner_density(WernerParams(2, 3, 0.0))
    npt.assert_allclose(rho.entries, np.eye(8) / 8, atol=1e-15)


def test_density_projector_at_one():
    rho = werner_density(WernerParams(2, 3, 1.0))
    psi = ghz_vector(2, 3)
    npt.assert_allclose(rho.entries, np.outer(psi, psi), atol=1e-15)


def test_density_capacity():
    with pytest.raises(CapacityError):
        werner_density(WernerParams(2, 13, 0.5))


def test_density_stored_real():
    rho = werner_density(WernerParams(3, 3, 0.37))
    assert rho.entries.dtype == np.float64
    assert rho.entries.nbytes == 27 * 27 * 8


def test_density_spectrum_paper_point():
    spec = spectrum_of(werner_density(WernerParams(2, 3, 0.4)))
    assert spec.levels[0] == (pytest.approx(0.475, abs=1e-12), 1)
    assert spec.levels[1] == (pytest.approx(0.075, abs=1e-12), 7)


# -- joint_spectrum ------------------------------------------------------

def test_joint_spectrum_tripartite_qubits():
    for x in X_GRID[1:]:
        spec = joint_spectrum(WernerParams(2, 3, x))
        assert spec.levels == (
            (pytest.approx((1 + 7 * x) / 8, abs=1e-15), 1),
            (pytest.approx((1 - x) / 8, abs=1e-15), 7))


def test_joint_spectrum_merges_at_zero():
    for levels, parties in ((2, 3), (3, 2), (5, 4)):
        spec = joint_spectrum(WernerParams(levels, parties, 0.0))
        dim = levels ** parties
        assert spec.levels == ((pytest.approx(1 / dim), dim),)


def test_joint_spectrum_keeps_zero_level_at_one():
    spec = joint_spectrum(WernerParams(3, 2, 1.0))
    assert spec.levels == ((1.0, 1), (0.0, 8))


def test_joint_spectrum_matches_oracle():
    params = WernerParams(3, 2, 0.5)
    closed = joint_spectrum(params)
    oracle = spectrum_of(werner_density(params))
    assert closed.levels[0][0] == pytest.approx(5 / 9, abs=1e-12)
    assert closed.levels[1][0] == pytest.approx(0.5 / 9, abs=1e-12)
    for (cv, cm), (ov, om) in zip(closed.levels, oracle.levels):
        assert cm == om
        assert cv == pytest.approx(ov, abs=1e-10)


def test_joint_spectrum_normalized_beyond_dense_scale():
    spec = joint_spectrum(WernerParams(2, 40, 0.3))  # dim ~ 1e12
    weight = sum(v * m for v, m in spec.levels)
    assert weight == pytest.approx(1.0, abs=1e-12)


def test_spectra_keep_close_levels_apart():
    # the two levels differ by 5e-10, less than the dense merge tolerance
    params = WernerParams(2, 30, 5e-10)
    assert [m for _, m in joint_spectrum(params).levels] == [1, 2**30 - 1]
    assert [m for _, m in marginal_spectrum(params, 29).levels] == [2, 2**29 - 2]
    with mpmath.workdps(50):
        joint, marginal = mp_spectra(2, 30, 29, 5e-10)
        for q in (0.5, 1.0, 3.0):
            if q == 1.0:
                expected = mp_von_neumann(joint) - mp_von_neumann(marginal)
            else:
                ratio = mpmath.exp(mp_log_trace(joint, q) - mp_log_trace(marginal, q))
                expected = (ratio - 1) / (1 - q)
            assert conditional_entropy_block(params, 29, q) == pytest.approx(
                float(expected), rel=1e-12, abs=0)


def test_spectra_raise_the_level_that_the_log_traces_use():
    # the log traces and the spectra take the same levels: r times the
    # raised level is x (1 - r/N**m) + r/N**m, for r = 1 and r = N
    rng = np.random.default_rng(17)
    for _ in range(300):
        levels, parties = int(rng.integers(2, 41)), int(rng.integers(2, 9))
        x = float(rng.uniform(0.01, 0.99))
        params = WernerParams(levels, parties, x)
        pairs = [(parties, 1, joint_spectrum(params))] + [
            (m, levels, marginal_spectrum(params, m)) for m in range(2, parties)]
        for m, r, spec in pairs:
            inv = 1.0 / (levels ** m // r)
            assert spec.levels[0] == ((x * (1.0 - inv) + inv) / r, r)


def test_spectra_merge_levels_that_round_alike():
    # at x = 1e-300 the raised and background levels are the same float
    for levels, parties in ((2, 3), (3, 4), (31, 4)):
        params = WernerParams(levels, parties, 1e-300)
        assert joint_spectrum(params).levels == ((1.0 / levels ** parties, levels ** parties),)
        for m in range(1, parties):
            assert marginal_spectrum(params, m).levels == ((1.0 / levels ** m, levels ** m),)


# -- marginal_spectrum ---------------------------------------------------

def test_marginal_pair_of_qubits():
    for x in X_GRID[1:]:
        spec = marginal_spectrum(WernerParams(2, 3, x), 2)
        assert spec.levels == (
            (pytest.approx((1 + x) / 4, abs=1e-15), 2),
            (pytest.approx((1 - x) / 4, abs=1e-15), 2))


def test_marginal_single_party_maximally_mixed():
    for x in X_GRID:
        spec = marginal_spectrum(WernerParams(2, 3, x), 1)
        assert spec.levels == ((0.5, 2),)


def test_marginal_against_dense_oracle():
    params = WernerParams(3, 3, 0.3)
    closed = marginal_spectrum(params, 2)
    assert closed.levels == (
        (pytest.approx(1.6 / 9, abs=1e-15), 3),
        (pytest.approx(0.7 / 9, abs=1e-15), 6))
    oracle = spectrum_of(partial_trace(werner_density(params), [1, 2]))
    for (cv, cm), (ov, om) in zip(closed.levels, oracle.levels):
        assert cm == om
        assert cv == pytest.approx(ov, abs=1e-10)


def test_marginal_range_validation():
    params = WernerParams(2, 3, 0.5)
    for bad in (0, 3, -1):
        with pytest.raises(ValidationError):
            marginal_spectrum(params, bad)


def test_marginal_is_not_a_smaller_family_member():
    # at x = 0 the marginal is the smaller maximally mixed family member,
    # but at x = 1 it is not a family state of fewer parties
    assert marginal_spectrum(WernerParams(2, 3, 0.0), 2).levels \
        == joint_spectrum(WernerParams(2, 2, 0.0)).levels
    assert marginal_spectrum(WernerParams(2, 3, 1.0), 2).levels \
        != joint_spectrum(WernerParams(2, 2, 1.0)).levels


def test_spectra_normalization_grid():
    for levels in (2, 3):
        for parties in (2, 3, 4):
            for x in X_GRID:
                params = WernerParams(levels, parties, x)
                for spec in [joint_spectrum(params)] + [
                        marginal_spectrum(params, m) for m in range(1, parties)]:
                    weight = sum(v * m for v, m in spec.levels)
                    assert weight == pytest.approx(1.0, abs=1e-12)


# -- conditional entropies -----------------------------------------------

def test_conditional_maximally_mixed_slice():
    for levels, parties in ((2, 3), (3, 2), (4, 3)):
        for q in Q_GRID:
            value = conditional_entropy_block(WernerParams(levels, parties, 0.0), None, q)
            if q == 1.0:
                expected = math.log(levels)
            else:
                expected = (levels ** (1 - q) - 1) / (1 - q)
            assert value == pytest.approx(expected, abs=1e-12)


def test_conditional_matches_literal_tripartite_form():
    for x in X_GRID:
        for q in (0.5, 2.0, 5.0, 20.0):
            params = WernerParams(2, 3, x)
            assert conditional_entropy_block(params, None, q) == pytest.approx(
                tripartite_qubit_conditional(x, q, conditioned=2), rel=1e-11, abs=1e-11)
            assert conditional_entropy_block(params, 1, q) == pytest.approx(
                tripartite_qubit_conditional(x, q, conditioned=1), rel=1e-11, abs=1e-11)


def test_conditional_matches_general_literal_form():
    for levels, parties in ((2, 2), (3, 2), (2, 4), (3, 3)):
        for x in (0.1, 0.5, 0.9):
            for q in (0.5, 2.0, 5.0):
                params = WernerParams(levels, parties, x)
                assert conditional_entropy_block(params, None, q) == pytest.approx(
                    general_conditional(levels, parties, x, q), rel=1e-11, abs=1e-11)


def test_conditional_block_equals_closed_at_full_conditioning():
    params = WernerParams(2, 3, 0.7)
    for q in Q_GRID:
        assert conditional_entropy_block(params, 2, q) \
            == conditional_entropy_block(params, None, q)


def test_conditional_block_against_dense_oracle():
    params = WernerParams(2, 3, 0.3)
    dense_joint = spectrum_of(werner_density(params))
    dense_marginal = spectrum_of(partial_trace(werner_density(params), [2]))
    value = conditional_entropy_block(params, 1, 2.0)
    assert value == pytest.approx(
        quantum_conditional(dense_joint, dense_marginal, 2.0), abs=1e-10)


def test_conditional_block_range_validation():
    params = WernerParams(2, 3, 0.5)
    with pytest.raises(ValidationError):
        conditional_entropy_block(params, 0, 2.0)
    with pytest.raises(ValidationError):
        conditional_entropy_block(params, 3, 2.0)


def test_conditional_near_zero_at_asymptotic_boundary():
    # at the large-q boundary point the log trace ratio nearly vanishes
    value = conditional_entropy_block(WernerParams(2, 2, 1 / 3), None, 1e4)
    assert abs(value) < 1e-3


@pytest.mark.parametrize("q", NEAR_ONE)
def test_conditional_matches_arbitrary_precision_next_to_one(q):
    # each log q-trace is of size |q - 1| ln N**n here; forms that subtract
    # terms of size q ln N**n lose the digits of the gap
    for levels, parties, k in WIDE_FAMILIES:
        for x in (0.0, 1e-18, 1e-9, 0.3, 1 - 1e-12, 1.0):
            value = conditional_entropy_block(WernerParams(levels, parties, x), k, q)
            with mpmath.workdps(50):
                expected = float(mp_conditional(levels, parties, k, q, x))
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def test_conditional_none_conditions_on_all_but_one():
    for levels, parties in ((2, 2), (2, 3), (3, 4)):
        for x in (0.0, 0.3, 1.0):
            params = WernerParams(levels, parties, x)
            for q in (0.5, 1.0, 1 + 1e-6, 2.0, 1e3):
                assert conditional_entropy_block(params, None, q) \
                    == conditional_entropy_block(params, parties - 1, q)


def test_conditional_continuous_through_limit_point():
    for x in (0.0, 0.3, 0.8, 1.0):
        params = WernerParams(3, 3, x)
        at_one = conditional_entropy_block(params, None, 1.0)
        nearby = 0.5 * (conditional_entropy_block(params, None, 1 - 1e-6)
                        + conditional_entropy_block(params, None, 1 + 1e-6))
        assert at_one == pytest.approx(nearby, abs=1e-5)


def test_x_zero_slice_equals_uniform_entropy():
    for q in Q_GRID:
        for levels, parties in ((2, 3), (3, 2)):
            assert conditional_entropy_block(WernerParams(levels, parties, 0.0), None, q) \
                == pytest.approx(tsallis_entropy([1 / levels] * levels, q), abs=1e-12)
