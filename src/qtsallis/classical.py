"""Classical nonadditive information measures.

Order-q entropies of discrete distributions, escort distributions,
normalized q-expectations, the two equivalent forms of the conditional
entropy, and the pseudoadditive composition law that replaces additivity
away from q = 1.  At q = 1 every quantity reduces to its Shannon
counterpart (natural logarithm throughout).

All operations are pure functions of immutable values and are safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._index import (LIMIT_WINDOW, PROB_SUM_TOL, EntropicIndex,  # noqa: F401 (re-exported)
                     _as_index, _count, _entropy_of, _probabilities)
from .errors import NumericalError, SingularityError, ValidationError

#: Internal agreement bound for the tripartite composition identities.
CHAIN_TOL = 1e-10
#: Conditioning denominators smaller than this are reported as singular.
DENOM_FLOOR = 1e-300


def _clean_probabilities(p: np.ndarray) -> np.ndarray:
    """``p`` validated and renormalized by ``_index._probabilities``, frozen."""
    out = np.array(_probabilities(p.tolist()))
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Probability vector with entries in [0, 1] summing to 1.

    Inputs whose sum drifts from 1 by no more than ``PROB_SUM_TOL`` are
    renormalized; anything further off is rejected.
    """

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("probability vector must be one-dimensional and nonempty")
        object.__setattr__(self, "p", _clean_probabilities(p))

    def __len__(self) -> int:
        return self.p.size


@dataclass(frozen=True, eq=False)
class JointDist:
    """Joint distribution over several subsystems.

    Stored flat, indexed lexicographically (row-major) by the multi-index;
    ``array`` exposes the same data shaped to ``dims``.
    """

    dims: tuple[int, ...]
    p: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(_count(d, "subsystem dimension") for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValidationError("subsystem outcome counts must be positive integers")
        p = np.asarray(self.p, dtype=float)
        size = math.prod(dims)
        if p.shape != (size,):
            raise ValidationError(
                f"flat probability vector must have shape ({size},), got {p.shape}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "p", _clean_probabilities(p))

    @property
    def array(self) -> np.ndarray:
        return self.p.reshape(self.dims)

    def subsystems(self) -> int:
        return len(self.dims)


def _as_prob(p) -> ProbDist:
    return p if isinstance(p, ProbDist) else ProbDist(np.asarray(p, dtype=float))


def tsallis_entropy(p, q) -> float:
    """Entropy of order q: (sum_i p_i**q - 1) / (1 - q).

    Zero-probability outcomes contribute nothing (0**q := 0 for q > 0).
    At the q -> 1 limit point this is the Shannon entropy -sum p ln p.
    """
    return _entropy_of(_as_prob(p).p.tolist(), _as_index(q))


def escort(p, q) -> ProbDist:
    """Escort distribution of order q: p_i**q / sum_j p_j**q.

    The uniform distribution is a fixed point for every q, and q = 1 is
    the identity.
    """
    dist = _as_prob(p)
    qi = _as_index(q)
    if qi.is_limit_point:
        return dist
    powers = dist.p ** qi.q
    total = powers.sum()
    if not total > 0.0:
        raise SingularityError("escort weights underflowed to zero")
    return ProbDist(powers / total)


def q_expectation(values, p, q) -> float:
    """Normalized q-expectation: the mean of ``values`` under escort(p, q)."""
    vals = np.asarray(values, dtype=float)
    dist = _as_prob(p)
    if vals.ndim != 1 or vals.size != len(dist):
        raise ValidationError(
            f"need one value per outcome: got {vals.size} values for {len(dist)} outcomes")
    return float(np.dot(vals, escort(dist, q).p))


def _conditional_from_matrix(mat: np.ndarray, qi: EntropicIndex) -> float:
    """Escort-weighted average of conditional-slice entropies.

    Rows of ``mat`` are the conditioning outcomes; rows with zero mass are
    excluded from both the average and the escort normalization.
    """
    row_mass = mat.sum(axis=1)
    rows = np.nonzero(row_mass > 0.0)[0]
    if qi.is_limit_point:
        weights = row_mass[rows]
    else:
        powers = row_mass[rows] ** qi.q
        total = powers.sum()
        if not total > 0.0:
            raise SingularityError("escort weights underflowed to zero")
        weights = powers / total
    acc = 0.0
    for weight, i in zip(weights, rows):
        acc += weight * _entropy_of((mat[i] / row_mass[i]).tolist(), qi)
    return float(acc)


def conditional_entropy_def(joint: JointDist, q) -> float:
    """Conditional entropy of the second subsystem given the first.

    Defined as the escort-weighted average of the order-q entropies of the
    conditional slices p(second | first = i).
    """
    qi = _as_index(q)
    if joint.subsystems() != 2:
        raise ValidationError("joint distribution must have exactly two subsystems")
    return _conditional_from_matrix(joint.array, qi)


def conditional_entropy_ratio(joint: JointDist, q) -> float:
    """Conditional entropy of the second subsystem given the first, in
    ratio form: [S_q(joint) - S_q(first)] / [1 + (1 - q) S_q(first)].

    Equivalent to :func:`conditional_entropy_def`; at the q -> 1 limit the
    denominator is 1 and the value is the Shannon difference.  Raises
    SingularityError if the denominator underflows below ``DENOM_FLOOR``
    (possible for large q on wide, near-uniform marginals).
    """
    qi = _as_index(q)
    if joint.subsystems() != 2:
        raise ValidationError("joint distribution must have exactly two subsystems")
    return _ratio_form(_entropy_of(joint.p.tolist(), qi),
                       _entropy_of(joint.array.sum(axis=1).tolist(), qi), qi)


def _ratio_form(s_joint: float, s_first: float, qi: EntropicIndex) -> float:
    """[s_joint - s_first] / [1 + (1 - q) s_first], the plain difference at
    the limit point; a denominator below ``DENOM_FLOOR`` raises."""
    if qi.is_limit_point:
        return s_joint - s_first
    denom = 1.0 + (1.0 - qi.q) * s_first
    if abs(denom) < DENOM_FLOOR:
        raise SingularityError(
            "conditioning denominator 1 + (1 - q) S_q underflowed to zero")
    return (s_joint - s_first) / denom


def compose_pseudoadditive(entropy_first, entropy_second_given_first, q) -> float:
    """Pseudoadditive composition: s1 + s2 + (1 - q) s1 s2.

    Reduces to plain addition at the q -> 1 limit point.
    """
    qi = _as_index(q)
    s1 = float(entropy_first)
    s2 = float(entropy_second_given_first)
    one_minus_q = 0.0 if qi.is_limit_point else 1.0 - qi.q
    return s1 + s2 + one_minus_q * s1 * s2


@dataclass(frozen=True)
class ChainDecomposition:
    """Entropies entering the three-subsystem composition law.

    ``residual`` is the absolute gap between the total entropy and its
    pseudoadditive reassembly from the chain terms.
    """

    s_abc: float
    s_bc: float
    s_c: float
    s_a_given_bc: float
    s_b_given_c: float
    residual: float


def tripartite_chain(joint: JointDist, q) -> ChainDecomposition:
    """Decompose S_q(A, B, C) along the chain C -> B|C -> A|B,C.

    Besides the chain entropies and the reassembly residual, the middle
    conditional S_q(B|C) is re-derived by inverting the composition law
    (the composition is commutative, so the C and A|B,C terms may be
    folded first); a disagreement beyond ``CHAIN_TOL`` raises
    NumericalError.
    """
    qi = _as_index(q)
    if joint.subsystems() != 3:
        raise ValidationError("joint distribution must have exactly three subsystems")
    arr = joint.array
    d_a, d_b, d_c = arr.shape

    s_abc = _entropy_of(joint.p.tolist(), qi)
    pair_bc = arr.sum(axis=0)
    s_bc = _entropy_of(pair_bc.reshape(-1).tolist(), qi)
    s_c = _entropy_of(pair_bc.sum(axis=0).tolist(), qi)

    s_a_given_bc = _conditional_from_matrix(
        arr.transpose(1, 2, 0).reshape(d_b * d_c, d_a), qi)
    s_b_given_c = _conditional_from_matrix(pair_bc.T, qi)

    chained = compose_pseudoadditive(
        compose_pseudoadditive(s_c, s_b_given_c, qi), s_a_given_bc, qi)
    residual = abs(s_abc - chained)

    recovered = _ratio_form(s_abc, compose_pseudoadditive(s_c, s_a_given_bc, qi), qi)
    if abs(recovered - s_b_given_c) > CHAIN_TOL:
        raise NumericalError(
            f"chain inversion drifted: S_q(B|C) direct {s_b_given_c!r} "
            f"vs recovered {recovered!r}")

    return ChainDecomposition(s_abc, s_bc, s_c, s_a_given_bc, s_b_given_c, residual)
