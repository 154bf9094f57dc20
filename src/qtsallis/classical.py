"""Classical nonadditive information measures.

Order-q entropies of discrete distributions, escort distributions,
normalized q-expectations, the two equivalent forms of the conditional
entropy, and the pseudoadditive composition law that replaces additivity
away from q = 1.  At q = 1 every quantity reduces to its Shannon
counterpart (natural logarithm throughout).  Entropies and the ratio
form take the log q-traces of :mod:`qtsallis._index`, and escort
weights are scaled by the largest one, so values hold up to q = 1e6.

All operations are pure functions of immutable values and are safe to
call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._index import EntropicIndex  # noqa: F401  (kept importable from here)
from ._index import _branch, _conditionals, _count, _entropy_of, _order, _probabilities
from .errors import NumericalError, ValidationError

#: Bound between each chain link's definition and ratio forms, relative to
#: the size of the link's terms once that size falls below 1 (large q).
#: Beyond q of about 5.6e4 it widens to 8 q eps: rounding an entry by eps
#: moves its q-th power by q eps, so the forms can honestly differ by that.
CHAIN_TOL = 1e-10


def _clean_probabilities(p: np.ndarray) -> np.ndarray:
    """``p`` validated and renormalized by ``_index._probabilities``, frozen."""
    out = np.array(_probabilities(p.tolist()))
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Probability vector with entries in [0, 1] summing to 1.

    Inputs whose sum drifts from 1 by no more than ``_index.PROB_SUM_TOL`` are
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
    return _entropy_of(_as_prob(p).p.tolist(), _order(q))


def escort(p, q) -> ProbDist:
    """Escort distribution of order q: p_i**q / sum_j p_j**q.

    The uniform distribution is a fixed point for every q, and q = 1 is
    the identity.
    """
    dist = _as_prob(p)
    order = _branch(_order(q), 0.0)[0]
    return dist if order is None else ProbDist(_escort_weights(dist.p, order))


def _escort_weights(mass: np.ndarray, q: float) -> np.ndarray:
    """(mass / max)**q normalized: the largest term is exactly 1, so the
    sum never underflows, whatever q and the width of ``mass``."""
    powers = (mass / mass.max()) ** q
    return powers / powers.sum()


def q_expectation(values, p, q) -> float:
    """Normalized q-expectation: the mean of ``values`` under escort(p, q)."""
    vals = np.asarray(values, dtype=float)
    dist = _as_prob(p)
    if vals.ndim != 1 or vals.size != len(dist):
        raise ValidationError(
            f"need one value per outcome: got {vals.size} values for {len(dist)} outcomes")
    return float(np.dot(vals, escort(dist, q).p))


def _conditional_from_matrix(mat: np.ndarray, q: float) -> float:
    """Escort-weighted average of conditional-slice entropies.

    Rows of ``mat`` are the conditioning outcomes; rows with zero mass are
    excluded from both the average and the escort normalization.
    """
    row_mass = mat.sum(axis=1)
    rows = np.nonzero(row_mass > 0.0)[0]
    order = _branch(q, 0.0)[0]
    weights = row_mass[rows] if order is None else _escort_weights(row_mass[rows], order)
    acc = 0.0
    for weight, i in zip(weights, rows):
        acc += weight * _entropy_of((mat[i] / row_mass[i]).tolist(), q)
    return float(acc)


def conditional_entropy_def(joint: JointDist, q) -> float:
    """Conditional entropy of the second subsystem given the first.

    Defined as the escort-weighted average of the order-q entropies of the
    conditional slices p(second | first = i).
    """
    q = _order(q)
    if joint.subsystems() != 2:
        raise ValidationError("joint distribution must have exactly two subsystems")
    return _conditional_from_matrix(joint.array, q)


def conditional_entropy_ratio(joint: JointDist, q) -> float:
    """Conditional entropy of the second subsystem given the first, in
    ratio form: [S_q(joint) - S_q(first)] / [1 + (1 - q) S_q(first)].

    Equivalent to :func:`conditional_entropy_def`; at the q -> 1 limit the
    denominator is 1 and the value is the Shannon difference.  Taken as
    [Tr p**q / Tr p_first**q - 1] / (1 - q) from log q-traces, as the
    denominator Tr p_first**q underflows at large q.
    """
    q = _order(q)
    if joint.subsystems() != 2:
        raise ValidationError("joint distribution must have exactly two subsystems")
    return _given(joint.p, joint.array.sum(axis=1), q)


def _given(joint: np.ndarray, marginal: np.ndarray, q: float) -> float:
    """Ratio form of the flat ``joint`` given its ``marginal``, in the branch
    that the joint's count of nonzero entries picks."""
    live = joint[joint > 0.0].tolist()
    return _conditionals([(v, 1) for v in live], [[(v, 1) for v in marginal.tolist()]], q,
                         math.log(len(live)))[0]


def compose_pseudoadditive(entropy_first, entropy_second_given_first, q) -> float:
    """Pseudoadditive composition: s1 + s2 + (1 - q) s1 s2.

    Reduces to plain addition at the q -> 1 limit point.
    """
    order = _branch(_order(q), 0.0)[0]
    s1 = float(entropy_first)
    s2 = float(entropy_second_given_first)
    one_minus_q = 0.0 if order is None else 1.0 - order
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

    Besides the chain entropies and the reassembly residual, each link's
    definition value is checked against its ratio form; a disagreement
    beyond max(``CHAIN_TOL``, 8 q eps) times the size of the link's
    terms, min(1, 2 / |1 - q| + |ratio form|), raises NumericalError.
    The ratio forms telescope, Tr p_ABC**q = Tr p_C**q
    (Tr p_BC**q / Tr p_C**q) (Tr p_ABC**q / Tr p_BC**q), so the chain rule
    holds exactly when both links agree.
    """
    q = _order(q)
    if joint.subsystems() != 3:
        raise ValidationError("joint distribution must have exactly three subsystems")
    arr = joint.array
    d_a, d_b, d_c = arr.shape

    s_abc = _entropy_of(joint.p.tolist(), q)
    pair_bc = arr.sum(axis=0)
    s_bc = _entropy_of(pair_bc.reshape(-1).tolist(), q)
    s_c = _entropy_of(pair_bc.sum(axis=0).tolist(), q)

    s_a_given_bc = _conditional_from_matrix(
        arr.transpose(1, 2, 0).reshape(d_b * d_c, d_a), q)
    s_b_given_c = _conditional_from_matrix(pair_bc.T, q)

    chained = compose_pseudoadditive(
        compose_pseudoadditive(s_c, s_b_given_c, q), s_a_given_bc, q)
    residual = abs(s_abc - chained)

    rel = max(CHAIN_TOL, 8.0 * q * sys.float_info.epsilon)
    limit = _branch(q, 0.0)[0] is None
    for name, direct, ratio in (
            ("S_q(A|B,C)", s_a_given_bc, _given(joint.p, pair_bc.reshape(-1), q)),
            ("S_q(B|C)", s_b_given_c, _given(pair_bc.reshape(-1), pair_bc.sum(axis=0), q))):
        size = 1.0 if limit else min(1.0, 2.0 / abs(1.0 - q) + abs(ratio))
        if abs(direct - ratio) > rel * size:
            raise NumericalError(
                f"chain link drifted: {name} by definition {direct!r} vs ratio form {ratio!r}")

    return ChainDecomposition(s_abc, s_bc, s_c, s_a_given_bc, s_b_given_c, residual)
