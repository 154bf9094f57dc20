"""The symmetric one-parameter mixed-state family on n parties of N levels.

States interpolate between the maximally mixed state and the projector
onto the n-party GHZ vector.  Joint and marginal spectra are available in
closed form with exact integer multiplicities, which keeps every entropy
query tractable far beyond dense-matrix scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import _as_index
from .errors import CapacityError, ValidationError
from .quantum import (DENSE_DIM_CAP, DensityMatrix, Spectrum, merge_levels,
                      quantum_conditional)

#: Exact multiplicity bookkeeping requires N**n to fit a signed 64-bit int.
MULTIPLICITY_CAP = 2**63 - 1


@dataclass(frozen=True)
class WernerParams:
    """Family coordinates: levels per party, number of parties, and the
    weight of the entangled projector in the mixture."""

    levels: int
    parties: int
    mixing: float

    def __post_init__(self) -> None:
        levels = int(self.levels)
        parties = int(self.parties)
        mixing = float(self.mixing)
        if levels < 2:
            raise ValidationError("need at least two levels per party")
        if parties < 2:
            raise ValidationError("need at least two parties")
        if not 0.0 <= mixing <= 1.0:
            raise ValidationError(f"mixing parameter must lie in [0, 1], got {mixing}")
        if levels ** parties > MULTIPLICITY_CAP:
            raise CapacityError(
                "total multiplicity levels**parties exceeds 64-bit integer range")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "mixing", mixing)

    @property
    def total_dim(self) -> int:
        return self.levels ** self.parties


def ghz_vector(levels: int, parties: int) -> np.ndarray:
    """Unit vector with amplitude 1/sqrt(levels) on every all-equal
    multi-index (k, k, ..., k), zero elsewhere."""
    levels = int(levels)
    parties = int(parties)
    if levels < 2 or parties < 1:
        raise ValidationError("need at least two levels and one party")
    dim = levels ** parties
    if dim > DENSE_DIM_CAP:
        raise CapacityError(f"dense dimension {dim} exceeds the cap of {DENSE_DIM_CAP}")
    vec = np.zeros(dim)
    step = (dim - 1) // (levels - 1)  # 1 + N + ... + N**(parties-1)
    vec[np.arange(levels) * step] = 1.0 / math.sqrt(levels)
    return vec


def werner_density(params: WernerParams) -> DensityMatrix:
    """Dense matrix of the family member: uniform background of weight
    (1 - x) plus the GHZ projector of weight x.  Cross-check scale only."""
    dim = params.total_dim
    if dim > DENSE_DIM_CAP:
        raise CapacityError(f"dense dimension {dim} exceeds the cap of {DENSE_DIM_CAP}")
    psi = ghz_vector(params.levels, params.parties)
    entries = ((1.0 - params.mixing) / dim) * np.eye(dim, dtype=complex)
    entries += params.mixing * np.outer(psi, psi)
    return DensityMatrix((params.levels,) * params.parties, entries)


def joint_spectrum(params: WernerParams) -> Spectrum:
    """Closed-form spectrum of the full state.

    The GHZ projector lifts a single eigenvalue to
    (1 + (N**n - 1) x) / N**n; the remaining N**n - 1 directions stay at
    the background value (1 - x) / N**n.  Only exact ties merge (x = 0,
    the maximally mixed spectrum), however close the levels; at x = 1 the
    zero level is kept with its full multiplicity.
    """
    dim = params.total_dim
    x = params.mixing
    top = (1.0 + (dim - 1) * x) / dim
    background = (1.0 - x) / dim
    return Spectrum(tuple(merge_levels([(top, 1), (background, dim - 1)], tol=0.0)))


def marginal_spectrum(params: WernerParams, kept_parties: int) -> Spectrum:
    """Closed-form spectrum after tracing out all but ``kept_parties``.

    Tracing out even one party kills every coherence of the GHZ projector,
    leaving N equal diagonal spikes on top of the uniform background:
    eigenvalue (1 + (N**(m-1) - 1) x) / N**m with multiplicity N, and
    (1 - x) / N**m on the remaining N**m - N directions.  For m = 1 the
    spikes absorb everything and the marginal is maximally mixed at every
    x.  Only exact ties merge.  The form for intermediate m is certified
    against the dense oracle (see the verification module).
    """
    m = int(kept_parties)
    if not 1 <= m <= params.parties - 1:
        raise ValidationError(
            f"kept party count must lie in [1, {params.parties - 1}], got {m}")
    x = params.mixing
    reduced_dim = params.levels ** m
    spike = (1.0 + (params.levels ** (m - 1) - 1) * x) / reduced_dim
    background = (1.0 - x) / reduced_dim
    pairs = [(spike, params.levels), (background, reduced_dim - params.levels)]
    return Spectrum(tuple(merge_levels(pairs, tol=0.0)))


def conditional_entropy_closed(params: WernerParams, q) -> float:
    """Conditional entropy of one party given the other n - 1, from the
    closed-form spectra.  Log-domain evaluation keeps this stable for
    extreme q; see :func:`qtsallis.quantum.quantum_conditional` for the
    overflow behavior far from the entropy zero."""
    return conditional_entropy_block(params, params.parties - 1, q)


def conditional_entropy_block(params: WernerParams, conditioned_parties: int, q) -> float:
    """Conditional entropy of the leading block of parties given the
    trailing ``conditioned_parties`` of them."""
    k = int(conditioned_parties)
    if not 1 <= k <= params.parties - 1:
        raise ValidationError(
            f"conditioned party count must lie in [1, {params.parties - 1}], got {k}")
    qi = _as_index(q)
    return quantum_conditional(joint_spectrum(params), marginal_spectrum(params, k), qi)
