"""Shared random-object generators for the test suite."""

import math

import mpmath
import numpy as np

from qtsallis import DensityMatrix, JointDist, ProbDist, tensor_product
from qtsallis._index import LIMIT_WINDOW
from qtsallis.oracle import _ghz_indices

#: Orders next to the limit point, on both sides, and the limit point itself.
NEAR_ONE = (1.0,) + tuple(1.0 + sign * gap for gap in (1.5e-9, 1e-6, 1e-3, 1e-2)
                          for sign in (-1, 1))
#: (N, n, k) from dense scale up to N**n near 2**62.
WIDE_FAMILIES = ((2, 3, 2), (5, 7, 3), (1000, 6, 5), (3, 39, 38), (2, 62, 61), (2, 62, 1))


def random_prob(rng, size):
    v = rng.uniform(0.1, 1.0, size=size)
    return ProbDist(v / v.sum())


def random_joint(rng, dims):
    flat = rng.uniform(0.05, 1.0, size=int(np.prod(dims)))
    return JointDist(tuple(dims), flat / flat.sum())


def random_density(rng, dims):
    """Full-rank random state: normalized A A* for complex Gaussian A."""
    side = int(np.prod(dims))
    a = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    m = a @ a.conj().T
    return DensityMatrix(tuple(dims), m / np.trace(m))


def ghz_vector(levels, parties):
    """Unit vector with amplitude 1/sqrt(levels) on every all-equal
    multi-index (k, ..., k), placed by the oracle's GHZ stride."""
    vec = np.zeros(levels ** parties)
    vec[_ghz_indices(levels, parties)] = 1.0 / math.sqrt(levels)
    return vec


def record_eigvalsh(monkeypatch):
    """Route np.linalg.eigvalsh through a recorder of its input matrices."""
    seen = []
    solver = np.linalg.eigvalsh

    def recording(matrix):
        seen.append(matrix)
        return solver(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return seen


def random_separable(rng, dim_a, dim_b, terms):
    """Mixture sum_l w_l rho_A^l (x) rho_B^l of random complex local states,
    and its first-subsystem marginal sum_l w_l rho_A^l."""
    weights = rng.uniform(size=terms)
    weights /= weights.sum()
    local = [(random_density(rng, (dim_a,)), random_density(rng, (dim_b,)))
             for _ in range(terms)]
    joint = sum(w * tensor_product(a, b).entries for w, (a, b) in zip(weights, local))
    marginal = sum(w * a.entries for w, (a, _) in zip(weights, local))
    return DensityMatrix((dim_a, dim_b), joint), DensityMatrix((dim_a,), marginal)


def shannon(p):
    p = np.asarray(p, dtype=float)
    live = p[p > 0]
    return float(-(live * np.log(live)).sum())


def mp_spectra(levels, parties, k, x):
    """The paper's two-level joint spectrum and that of the marginal on k
    parties, as (eigenvalue, multiplicity) pairs in mpmath."""
    x = mpmath.mpf(x)
    dim, reduced, spike = levels ** parties, levels ** k, levels ** (k - 1)
    joint = [((1 + (dim - 1) * x) / dim, 1), ((1 - x) / dim, dim - 1)]
    marginal = [((1 + (spike - 1) * x) / reduced, levels),
                ((1 - x) / reduced, reduced - levels)]
    return joint, marginal


def mp_log_trace(spectrum, q):
    return mpmath.log(mpmath.fsum(m * mpmath.power(v, q) for v, m in spectrum if m and v > 0))


def mp_von_neumann(spectrum):
    return -mpmath.fsum(m * v * mpmath.log(v) for v, m in spectrum if m and v > 0)


def mp_tsallis(levels, q):
    """Order-q entropy of (eigenvalue, multiplicity) float levels, normalized
    exactly, to 50 digits (von Neumann at q = 1)."""
    with mpmath.workdps(50):
        total = mpmath.fsum(m * mpmath.mpf(v) for v, m in levels)
        exact = [(mpmath.mpf(v) / total, m) for v, m in levels]
        if q == 1.0:
            return mp_von_neumann(exact)
        return mpmath.expm1(mp_log_trace(exact, q)) / (1 - mpmath.mpf(q))


def mp_classical_conditional(mat, q):
    """Conditional entropy of the second subsystem of the joint array ``mat``
    given the first, in ratio form [Tr p_AB**q / Tr p_A**q - 1] / (1 - q)
    (the Shannon difference within ``LIMIT_WINDOW`` of q = 1), to 50 digits
    on its float entries normalized exactly.  Returned with the size of its
    terms: (Tr p_AB**q / Tr p_A**q + 1) / |1 - q| where |q - 1| >= 0.1,
    and S_AB + S_A + 1 (Shannon) nearer q = 1.  The 1 is there because float
    entries sum to 1 only within an ulp: an entry next to 1 fixes the value
    only to about eps, however small it is."""
    with mpmath.workdps(50):
        rows = [[mpmath.mpf(v) for v in row] for row in np.asarray(mat, dtype=float).tolist()]
        total = mpmath.fsum(mpmath.fsum(row) for row in rows)
        joint = [(v / total, 1) for row in rows for v in row]
        marginal = [(mpmath.fsum(row) / total, 1) for row in rows]
        near_size = mp_von_neumann(joint) + mp_von_neumann(marginal) + 1
        if abs(q - 1.0) <= LIMIT_WINDOW:
            return mp_von_neumann(joint) - mp_von_neumann(marginal), near_size
        gap = mp_log_trace(joint, q) - mp_log_trace(marginal, q)
        value = mpmath.expm1(gap) / (1 - mpmath.mpf(q))
        if abs(q - 1.0) < 0.1:
            return value, near_size
        return value, (mpmath.exp(gap) + 1) / abs(1 - mpmath.mpf(q))


def mp_conditional_renyi(levels, parties, k, q, x):
    """Order-q Renyi conditional entropy of the family member at mixing
    weight x given k parties (von Neumann at q = 1), at the working
    precision.  It has the sign of the order-q conditional entropy."""
    joint, marginal = mp_spectra(levels, parties, k, x)
    if q == 1:
        return mp_von_neumann(joint) - mp_von_neumann(marginal)
    return (mp_log_trace(joint, q) - mp_log_trace(marginal, q)) / (1 - mpmath.mpf(q))


def mp_conditional(levels, parties, k, q, x):
    """Order-q conditional entropy of the family member in ratio form,
    (Tr rho**q / Tr rho_k**q - 1) / (1 - q) (von Neumann at q = 1), at the
    working precision."""
    joint, marginal = mp_spectra(levels, parties, k, x)
    if q == 1:
        return mp_von_neumann(joint) - mp_von_neumann(marginal)
    return mpmath.expm1(mp_log_trace(joint, q) - mp_log_trace(marginal, q)) / (1 - mpmath.mpf(q))


def mp_threshold(levels, parties, k, q, steps=80):
    """Root of :func:`mp_conditional_renyi` in x, bisected in log x over
    [x_inf(k), 1] at the working precision."""
    dim, reduced, spike = levels ** parties, levels ** k, levels ** (k - 1)
    x_inf = mpmath.mpf(dim - reduced) / (reduced * (dim - 1) - dim * (spike - 1))
    lo, hi = mpmath.log(x_inf), mpmath.mpf(0)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mp_conditional_renyi(levels, parties, k, q, mpmath.exp(mid)) > 0:
            lo = mid
        else:
            hi = mid
    return mpmath.exp((lo + hi) / 2)
