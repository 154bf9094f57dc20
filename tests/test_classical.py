"""Classical entropies, escorts, conditionals, and the composition law."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsallis import (JointDist, NumericalError, ProbDist,
                      ValidationError, classical, compose_pseudoadditive,
                      conditional_entropy_def, conditional_entropy_ratio,
                      escort, q_expectation, tripartite_chain, tsallis_entropy)
from qtsallis._index import _branch, _order
from qtsallis.cli import main
from helpers import (NEAR_ONE, mp_classical_conditional, mp_tsallis, random_joint,
                     random_prob, shannon)

Q_GRID = (0.3, 0.7, 1.0, 1.5, 3.0, 10.0)


# -- strategies ---------------------------------------------------------

probability_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=2, max_size=8,
).filter(lambda v: sum(v) > 0.1).map(lambda v: np.array(v) / sum(v))

orders = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)

#: Joint arrays of 2-40 x 2-5 outcomes, some entries zero.
joint_arrays = st.tuples(st.integers(2, 40), st.integers(2, 5)).flatmap(
    lambda shape: st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
                           min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    .filter(any).map(lambda v: np.reshape(v, shape) / math.fsum(v)))

#: Orders log-uniform over the whole domain (0.05, 1e6], and next to q = 1.
wide_orders = st.one_of(
    st.floats(min_value=math.log(0.05), max_value=math.log(1e6)).map(math.exp),
    st.sampled_from(NEAR_ONE))


# -- the entropic index -------------------------------------------------

def test_index_rejects_nonpositive():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            _order(bad)


@pytest.mark.parametrize("q,expected", [
    (1.0, True), (1.0 + 1e-10, True), (1.0 - 1e-10, True),
    (1.0 + 1e-8, False), (2.0, False),
])
def test_index_limit_point_window(q, expected):
    assert (_branch(q, 0.0)[0] is None) is expected


# -- ProbDist / JointDist validation ------------------------------------

def test_prob_dist_renormalizes_within_tolerance():
    d = ProbDist(np.array([0.5, 0.5 + 5e-13]))
    npt.assert_allclose(d.p.sum(), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad,fragment", [
    ([0.5, float("nan")], "must be finite"),
    ([0.5, float("inf")], "must be finite"),
    ([-0.1, 0.5], "must lie in [0, 1]"),
    ([1.1, 0.5], "must lie in [0, 1]"),
    ([0.5, 0.5 + 1e-9], "expected 1 within 1e-12"),
])
def test_one_probability_rule_everywhere(capsys, bad, fragment):
    messages = []
    for build in (ProbDist, lambda p: JointDist((2,), p), lambda p: tsallis_entropy(p, 2.0)):
        with pytest.raises(ValidationError) as caught:
            build(bad)
        messages.append(str(caught.value))
    assert main(["entropy", f"--dist={','.join(map(repr, bad))}", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {messages[0]}\n"
    assert messages == [messages[0]] * 3 and fragment in messages[0]


@pytest.mark.parametrize("bad", [
    [0.5, 0.6],            # sum too large
    [-0.1, 1.1],           # negative entry
    [0.5, 0.5, float("nan")],
])
def test_prob_dist_rejects_invalid(bad):
    with pytest.raises(ValidationError):
        ProbDist(np.array(bad))


def test_joint_dist_shape_checks():
    with pytest.raises(ValidationError):
        JointDist((2, 3), np.full(5, 0.2))
    with pytest.raises(ValidationError):
        JointDist((0, 3), np.full(3, 1 / 3))


@pytest.mark.parametrize("dims", [(2.9, 2), (2, math.nan), (2, math.inf)])
def test_joint_dist_refuses_non_integral_dims(dims):
    with pytest.raises(ValidationError, match="must be an integer"):
        JointDist(dims, np.full(4, 0.25))


def test_joint_dist_accepts_integral_float_dims():
    assert JointDist((2.0, np.int64(2)), np.full(4, 0.25)).dims == (2, 2)


def test_frozen_arrays_are_read_only():
    d = ProbDist(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        d.p[0] = 0.9


# -- tsallis_entropy ----------------------------------------------------

def test_entropy_uniform_two_outcomes():
    assert tsallis_entropy([0.5, 0.5], 2) == pytest.approx(0.5, abs=1e-15)


def test_entropy_deterministic_is_zero():
    for q in Q_GRID:
        assert tsallis_entropy([1.0, 0.0], q) == 0.0


def test_entropy_direct_value():
    # (0.8**2 + 0.2**2 - 1) / (1 - 2) = 0.32
    assert tsallis_entropy([0.8, 0.2], 2) == pytest.approx(0.32, abs=1e-15)


def test_entropy_limit_matches_shannon():
    p = [0.8, 0.2]
    assert tsallis_entropy(p, 1.0) == pytest.approx(shannon(p), abs=1e-15)
    assert tsallis_entropy(p, 1.0 + 1e-10) == pytest.approx(shannon(p), abs=1e-15)


@pytest.mark.parametrize("q", [1.0, 1.0 - 1e-6, 1.0 + 1e-6])
def test_entropy_next_to_one_matches_mpmath(q):
    rng = np.random.default_rng(5)
    for size in rng.integers(2, 17, size=200):
        dist = random_prob(rng, int(size))
        reference = mp_tsallis([(v, 1) for v in dist.p.tolist()], q)
        assert abs(tsallis_entropy(dist, q) - reference) <= 1e-15 * abs(reference)


def test_entropy_rejects_bad_order():
    with pytest.raises(ValidationError):
        tsallis_entropy([0.5, 0.5], -2.0)


@given(probability_vectors, orders)
@settings(deadline=None)
def test_entropy_nonnegative(p, q):
    assert tsallis_entropy(p, q) >= 0.0


@given(probability_vectors, orders)
@settings(deadline=None)
def test_entropy_maximal_on_uniform(p, q):
    uniform = np.full(len(p), 1.0 / len(p))
    assert tsallis_entropy(p, q) <= tsallis_entropy(uniform, q) + 1e-12


@given(probability_vectors, orders)
@settings(deadline=None)
def test_entropy_expansible(p, q):
    padded = np.append(p, 0.0)
    assert abs(tsallis_entropy(padded, q) - tsallis_entropy(p, q)) <= 1e-15


def test_entropy_expansible_when_sum_rounds():
    # numpy's pairwise sum of these rounds differently with one more zero
    p = np.array([0.0] + [1 / 6] * 6)
    padded = np.append(p, 0.0)
    assert abs(tsallis_entropy(padded, 0.875) - tsallis_entropy(p, 0.875)) <= 1e-15


# -- escort -------------------------------------------------------------

def test_escort_uniform_fixed_point():
    npt.assert_allclose(escort([0.5, 0.5], 3).p, [0.5, 0.5], atol=1e-15)


def test_escort_direct_value():
    npt.assert_allclose(escort([0.8, 0.2], 2).p, [16 / 17, 1 / 17], atol=1e-15)


def test_escort_identity_at_one():
    p = ProbDist(np.array([0.3, 0.45, 0.25]))
    npt.assert_allclose(escort(p, 1.0).p, p.p, atol=0)


@given(probability_vectors, orders)
@settings(deadline=None)
def test_escort_normalized(p, q):
    assert escort(p, q).p.sum() == pytest.approx(1.0, abs=1e-12)


def test_escort_wide_uniform_at_large_q():
    # every 1e-3 ** 200 underflows; the scaled weights do not
    wide = np.full(1000, 1e-3)
    npt.assert_allclose(escort(wide, 200.0).p, wide, rtol=1e-15, atol=0)


# -- q_expectation ------------------------------------------------------

def test_q_expectation_constant_observable():
    for q in Q_GRID:
        assert q_expectation([3.7] * 4, [0.1, 0.2, 0.3, 0.4], q) == pytest.approx(3.7)


def test_q_expectation_direct_value():
    assert q_expectation([1, 0], [0.8, 0.2], 2) == pytest.approx(16 / 17, abs=1e-15)


def test_q_expectation_ordinary_at_one():
    values = [1.0, -2.0, 0.5]
    p = [0.2, 0.5, 0.3]
    assert q_expectation(values, p, 1.0) == pytest.approx(np.dot(values, p), abs=1e-15)


def test_q_expectation_length_mismatch():
    with pytest.raises(ValidationError):
        q_expectation([1, 2, 3], [0.5, 0.5], 2)


@pytest.mark.parametrize("values,p", [
    ([math.inf, 1.0], [0.0, 1.0]),  # inf on an outcome of zero escort weight gave nan
    ([math.inf, 1.0], [0.5, 0.5]),
    ([1.0, -math.inf], [0.5, 0.5]),
    ([math.nan, 1.0], [0.5, 0.5]),
    ([1.0, math.nan], [1.0, 0.0]),
], ids=["inf-at-zero-weight", "inf", "minus-inf", "nan", "nan-at-zero-weight"])
def test_q_expectation_refuses_non_finite_values(values, p):
    for q in (2.0, 1.0, math.nan):  # the values are checked before the order
        with pytest.raises(ValidationError, match="^values must be finite$"):
            q_expectation(values, p, q)


# -- conditional entropies ----------------------------------------------

def _product_joint(pa, pb):
    return JointDist((len(pa), len(pb)), np.outer(pa, pb).reshape(-1))


def test_conditional_def_product_joint():
    pa, pb = [0.3, 0.7], [0.2, 0.5, 0.3]
    joint = _product_joint(pa, pb)
    for q in Q_GRID:
        assert conditional_entropy_def(joint, q) == pytest.approx(
            tsallis_entropy(pb, q), abs=1e-12)


def test_conditional_def_perfectly_correlated():
    w = 4
    flat = np.zeros(w * w)
    flat[:: w + 1] = 1.0 / w
    joint = JointDist((w, w), flat)
    for q in Q_GRID:
        assert conditional_entropy_def(joint, q) == pytest.approx(0.0, abs=1e-15)


def test_conditional_ratio_product_is_pseudoadditive():
    pa, pb = [0.6, 0.4], [0.1, 0.9]
    joint = _product_joint(pa, pb)
    for q in Q_GRID:
        assert conditional_entropy_ratio(joint, q) == pytest.approx(
            tsallis_entropy(pb, q), abs=1e-12)


def test_conditional_ratio_shannon_difference_at_one():
    rng = np.random.default_rng(7)
    joint = random_joint(rng, (3, 4))
    expected = shannon(joint.p) - shannon(joint.array.sum(axis=1))
    assert conditional_entropy_ratio(joint, 1.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (4, 2)])
def test_conditional_def_equals_ratio(dims):
    rng = np.random.default_rng(11)
    for _ in range(20):
        joint = random_joint(rng, dims)
        for q in Q_GRID + (50.0, 1e3, 1e6):
            assert conditional_entropy_def(joint, q) == pytest.approx(
                conditional_entropy_ratio(joint, q), abs=1e-10)


def test_conditional_nonnegative_classically():
    rng = np.random.default_rng(13)
    for _ in range(50):
        joint = random_joint(rng, (3, 3))
        for q in (0.5, 2.0, 10.0, 100.0):
            assert conditional_entropy_def(joint, q) >= -1e-12


def test_conditional_requires_two_subsystems():
    rng = np.random.default_rng(3)
    joint = random_joint(rng, (2, 2, 2))
    with pytest.raises(ValidationError):
        conditional_entropy_def(joint, 2)
    with pytest.raises(ValidationError):
        conditional_entropy_ratio(joint, 2)


def test_conditional_ratio_denominator_underflow():
    # uniform joints at large q: the marginal's sum p**q = 1 + (1 - q) S_q
    # underflows or cancels, while the conditional is (1 - d_b**(1 - q)) / (q - 1)
    for d_a, d_b, q in ((1000, 2, 200.0), (20, 5, 50.0)):
        joint = JointDist((d_a, d_b), np.full(d_a * d_b, 1.0 / (d_a * d_b)))
        exact = (1.0 - float(d_b) ** (1.0 - q)) / (q - 1.0)
        for form in (conditional_entropy_def, conditional_entropy_ratio):
            assert abs(form(joint, q) - exact) <= 1e-14 * exact


@given(joint_arrays, wide_orders)
@settings(deadline=None, max_examples=200)
def test_conditional_forms_match_mpmath_over_the_domain(mat, q):
    joint = JointDist(mat.shape, mat.reshape(-1))
    reference, scale = mp_classical_conditional(joint.array, q)
    bound = 1e-14 * max(1.0, q) * float(scale)
    for form in (conditional_entropy_def, conditional_entropy_ratio):
        assert abs(form(joint, q) - float(reference)) <= bound


def test_bayes_correspondence():
    # composing (first, second|first) and (second, first|second) both
    # rebuild the joint entropy
    rng = np.random.default_rng(17)
    for _ in range(10):
        joint = random_joint(rng, (3, 4))
        swapped = JointDist((4, 3), joint.array.T.reshape(-1))
        for q in Q_GRID:
            s_ab = tsallis_entropy(joint.p, q)
            via_b_given_a = compose_pseudoadditive(
                tsallis_entropy(joint.array.sum(axis=1), q),
                conditional_entropy_def(joint, q), q)
            via_a_given_b = compose_pseudoadditive(
                tsallis_entropy(joint.array.sum(axis=0), q),
                conditional_entropy_def(swapped, q), q)
            assert via_b_given_a == pytest.approx(s_ab, abs=1e-10)
            assert via_a_given_b == pytest.approx(s_ab, abs=1e-10)


# -- compose_pseudoadditive ----------------------------------------------

def test_compose_two_fair_bits():
    assert compose_pseudoadditive(0.5, 0.5, 2) == pytest.approx(0.75, abs=1e-15)
    assert tsallis_entropy([0.25] * 4, 2) == pytest.approx(0.75, abs=1e-15)


def test_compose_deterministic_second():
    for q in Q_GRID:
        assert compose_pseudoadditive(0.42, 0.0, q) == pytest.approx(0.42)


def test_compose_additive_at_one():
    assert compose_pseudoadditive(0.3, 0.4, 1.0) == pytest.approx(0.7, abs=1e-15)


# -- tripartite_chain ----------------------------------------------------

def test_chain_product_joint():
    pa, pb, pc = [0.3, 0.7], [0.2, 0.5, 0.3], [0.6, 0.4]
    flat = np.einsum("a,b,c->abc", pa, pb, pc).reshape(-1)
    joint = JointDist((2, 3, 2), flat)
    for q in Q_GRID:
        rec = tripartite_chain(joint, q)
        assert rec.residual <= 1e-10
        assert rec.s_a_given_bc == pytest.approx(tsallis_entropy(pa, q), abs=1e-10)
        assert rec.s_b_given_c == pytest.approx(tsallis_entropy(pb, q), abs=1e-10)


def test_chain_classically_correlated():
    n = 3
    flat = np.zeros(n ** 3)
    for k in range(n):
        flat[k * (n * n) + k * n + k] = 1.0 / n
    joint = JointDist((n, n, n), flat)
    for q in Q_GRID:
        rec = tripartite_chain(joint, q)
        assert rec.s_a_given_bc == pytest.approx(0.0, abs=1e-15)
        assert rec.s_b_given_c == pytest.approx(0.0, abs=1e-15)


def test_chain_random_residual():
    rng = np.random.default_rng(23)
    joints = [random_joint(rng, (2, 3, 2)) for _ in range(20)] + [random_joint(rng, (6, 6, 6))]
    for joint in joints:
        for q in Q_GRID + (2.5, 50.0, 1e3, 1e6):
            rec = tripartite_chain(joint, q)
            assert rec.residual <= 1e-10


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 10.0, 50.0, 1e3, 1e6])
def test_chain_refuses_a_drifted_link(monkeypatch, q):
    # a definition form 1e-8 off its ratio form must not pass the check
    joint = random_joint(np.random.default_rng(31), (2, 3, 2))
    exact = classical._conditional_from_matrix
    monkeypatch.setattr(classical, "_conditional_from_matrix",
                        lambda mat, qi: exact(mat, qi) * (1.0 + 1e-8))
    with pytest.raises(NumericalError):
        tripartite_chain(joint, q)


def test_chain_accepts_near_deterministic_joints_at_large_q():
    # each (b, c) has one dominant a and entries e^-15..e^-40 elsewhere, so
    # p(a|b,c) lies next to 1 and its q-th power carries q eps of rounding,
    # about 1e-10 of the link's size at q = 1e6: honest, not a drift
    for seed in range(10):
        rng = np.random.default_rng(seed)
        flat = np.exp(-rng.uniform(15.0, 40.0, size=(2, 6, 3)))
        for b, c in np.ndindex(6, 3):
            flat[rng.integers(2), b, c] = rng.uniform(0.1, 1.0)
        joint = JointDist((2, 6, 3), flat.reshape(-1) / flat.sum())
        for q in (1e5, 1e6):
            tripartite_chain(joint, q)


def test_chain_both_orders_agree():
    rng = np.random.default_rng(29)
    joint = random_joint(rng, (2, 3, 2))
    for q in Q_GRID:
        rec = tripartite_chain(joint, q)
        grouped = compose_pseudoadditive(rec.s_bc, rec.s_a_given_bc, q)
        expanded = compose_pseudoadditive(
            compose_pseudoadditive(rec.s_c, rec.s_b_given_c, q), rec.s_a_given_bc, q)
        assert grouped == pytest.approx(expanded, abs=1e-10)
        assert grouped == pytest.approx(rec.s_abc, abs=1e-10)


def test_chain_requires_three_subsystems():
    rng = np.random.default_rng(5)
    with pytest.raises(ValidationError):
        tripartite_chain(random_joint(rng, (2, 2)), 2)
