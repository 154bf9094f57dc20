"""The symmetric one-parameter mixed-state family on n parties of N levels.

States interpolate between the maximally mixed state and the projector
onto the n-party GHZ vector.  Joint and marginal spectra have closed forms
with exact integer multiplicities, so every entropy query stays tractable
far beyond dense-matrix scale.  Every family entropy, value and sign alike,
comes from the q-trace rule of :mod:`qtsallis._index` on the two
closed-form levels (:func:`_prepared_gap`), in plain float arithmetic.
"""

from __future__ import annotations

import math

from ._index import (MULTIPLICITY_CAP, Spectrum, _branch, _count, _entropy_from_gap, _Frozen,
                     _log_trace, _order)
from .errors import CapacityError, ValidationError


class WernerParams(_Frozen):
    """Family coordinates: levels per party, number of parties, and the
    weight of the entangled projector in the mixture."""

    __slots__ = ("levels", "parties", "mixing")

    def __init__(self, levels: int, parties: int, mixing: float) -> None:
        levels, parties, _ = _family(levels, parties, None)
        mixing = float(mixing)
        if not 0.0 <= mixing <= 1.0:
            raise ValidationError(f"mixing parameter must lie in [0, 1], got {mixing}")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "mixing", mixing)

    @property
    def total_dim(self) -> int:
        return self.levels ** self.parties


def _side(levels: int, m: int, r: int) -> tuple[int, int, float]:
    """m parties with the GHZ weight on r directions (r = 1 for the state,
    r = N for a marginal), as :func:`_levels` takes them: the dimension
    N**m, r and 1 / (N**m // r)."""
    dim = levels ** m
    return dim, r, 1.0 / (dim // r)


def _levels(side: tuple[int, int, float], x: float) -> tuple:
    """The two (eigenvalue, multiplicity) levels of a :func:`_side` at x:
    multiplicity r at x (1 / r - 1 / N**m) + 1 / N**m and N**m - r at
    (1 - x) / N**m; one level 1 / N**m where x rounds away (x = 0, or no
    background).  At x = 1 the zero level stays.  The levels descend, lie
    in [0, 1] and have int multiplicities, as a trusted :class:`Spectrum`
    takes them."""
    dim, r, inv = side
    peak = x * (1.0 - inv) + inv  # r times the raised level
    if peak == inv:
        return ((1.0 / dim, dim),)
    return ((peak / r, r), ((1.0 - x) / dim, dim - r))


def joint_spectrum(params: WernerParams) -> Spectrum:
    """Closed-form spectrum of the full state.

    The GHZ projector lifts a single eigenvalue to
    (1 + (N**n - 1) x) / N**n; the remaining N**n - 1 directions stay at
    the background value (1 - x) / N**n.  At x = 0 the two levels are one.
    """
    return Spectrum._trusted(_levels(_side(params.levels, params.parties, 1), params.mixing))


def marginal_spectrum(params: WernerParams, kept_parties: int) -> Spectrum:
    """Closed-form spectrum after tracing out all but ``kept_parties``.

    Tracing out even one party kills every coherence of the GHZ projector,
    leaving N equal diagonal spikes on top of the uniform background:
    eigenvalue (1 + (N**(m-1) - 1) x) / N**m with multiplicity N, and
    (1 - x) / N**m on the remaining N**m - N directions.  For m = 1 the
    marginal is maximally mixed at every x.
    """
    m = _party_count(kept_parties, params.parties, "kept party count")
    return Spectrum._trusted(_levels(_side(params.levels, m, params.levels), params.mixing))


def _party_count(value, parties: int, what: str) -> int:
    """``value`` as an int in [1, ``parties`` - 1], refused as ``what``."""
    k = _count(value, what)
    if not 1 <= k <= parties - 1:
        raise ValidationError(f"{what} must lie in [1, {parties - 1}], got {k}")
    return k


def _family(levels, parties, conditioned_parties: int | None) -> tuple[int, int, int]:
    """Levels N, parties n and conditioned parties k (None means n - 1) as
    ints, under the family's rules: N >= 2, n >= 2, N**n within
    ``MULTIPLICITY_CAP`` and 1 <= k <= n - 1.  With N >= 2 and n >= 2,
    n >= 64 or N >= 2**32 puts N**n at 2**64 or more, so those are refused
    before N**n is computed."""
    levels = _count(levels, "levels per party")
    parties = _count(parties, "number of parties")
    if levels < 2:
        raise ValidationError("need at least two levels per party")
    if parties < 2:
        raise ValidationError("need at least two parties")
    if parties >= 64 or levels >= 2**32 or levels ** parties > MULTIPLICITY_CAP:
        raise CapacityError("total multiplicity levels**parties exceeds 64-bit integer range")
    k = _party_count(parties - 1 if conditioned_parties is None else conditioned_parties,
                     parties, "conditioned party count")
    return levels, parties, k


def _prepared_gap(levels: int, parties: int, k: int, q: float):
    """ln Tr rho**q - ln Tr rho_k**q of the family given k parties, as a
    function of the mixing weight x; at the limit point, the von Neumann
    difference S(rho) - S(rho_k).  The conditional entropy is
    expm1(gap) / (1 - q).  N, n and k are valid family ints and q a checked
    order (:func:`_family`, :func:`qtsallis._index._order`).  Both log
    q-traces are taken in the branch of the joint side N**n, bit for bit as
    :func:`qtsallis._index._conditional` takes them.  On [x_inf(k), 1] the
    gap changes sign exactly once.
    """
    dim, base = levels ** parties, levels ** k
    joint, marginal = (dim, 1, 1.0 / dim), (base, levels, 1.0 / (base // levels))
    order, far = _branch(q, math.log(dim))

    def gap(x: float) -> float:
        return (_log_trace(_levels(joint, x), order, far)
                - _log_trace(_levels(marginal, x), order, far))

    return gap


def conditional_entropy_block(params: WernerParams, conditioned_parties: int | None,
                              q) -> float:
    """Conditional entropy of the leading block of parties given the
    trailing ``conditioned_parties`` of them (None means n - 1), in ratio
    form from the closed-form spectra:

        (1 / (1 - q)) * [Tr rho**q / Tr rho_k**q - 1],

    the von Neumann difference at the q -> 1 limit point.  Returns +/-inf
    if the trace ratio overflows the exponential range (extreme q far from
    the entropy zero); :func:`qtsallis.solver.entropy_sign` holds there.
    """
    N, n, k = _family(params.levels, params.parties, conditioned_parties)
    q = _order(q)
    return _entropy_from_gap(_prepared_gap(N, n, k, q)(params.mixing), _branch(q, 0.0)[0])
