"""The symmetric one-parameter mixed-state family on n parties of N levels.

States interpolate between the maximally mixed state and the projector
onto the n-party GHZ vector.  Joint and marginal spectra are available in
closed form with exact integer multiplicities, which keeps every entropy
query tractable far beyond dense-matrix scale.  Every family entropy, its
value as well as its sign, comes from one log-domain form of the two-level
q-traces (``_log_trace_gap``), plain float arithmetic at one mixing weight.
The dense family states live in :mod:`qtsallis.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._index import EntropicIndex, _as_index
from .errors import CapacityError, ValidationError

#: Exact multiplicity bookkeeping requires N**n to fit a signed 64-bit int.
MULTIPLICITY_CAP = 2**63 - 1


def _count(value, what: str) -> int:
    """A level or party count as an int; a non-integral value (2.9, nan) is
    refused, never truncated.  Integral floats and numpy integers pass."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # nan, inf, non-numbers
        pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class WernerParams:
    """Family coordinates: levels per party, number of parties, and the
    weight of the entangled projector in the mixture."""

    levels: int
    parties: int
    mixing: float

    def __post_init__(self) -> None:
        levels = _count(self.levels, "levels per party")
        parties = _count(self.parties, "number of parties")
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


def joint_spectrum(params: WernerParams) -> Spectrum:
    """Closed-form spectrum of the full state.

    The GHZ projector lifts a single eigenvalue to
    (1 + (N**n - 1) x) / N**n; the remaining N**n - 1 directions stay at
    the background value (1 - x) / N**n.  Only exact ties merge (x = 0,
    the maximally mixed spectrum), however close the levels; at x = 1 the
    zero level is kept with its full multiplicity.
    """
    from .quantum import Spectrum, _merge_levels  # numpy, so only when asked for
    dim = params.total_dim
    x = params.mixing
    top = (1.0 + (dim - 1) * x) / dim
    background = (1.0 - x) / dim
    return Spectrum(tuple(_merge_levels([(top, 1), (background, dim - 1)], tol=0.0)))


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
    from .quantum import Spectrum, _merge_levels  # numpy, so only when asked for
    m = _count(kept_parties, "kept party count")
    if not 1 <= m <= params.parties - 1:
        raise ValidationError(
            f"kept party count must lie in [1, {params.parties - 1}], got {m}")
    x = params.mixing
    reduced_dim = params.levels ** m
    spike = (1.0 + (params.levels ** (m - 1) - 1) * x) / reduced_dim
    background = (1.0 - x) / reduced_dim
    pairs = [(spike, params.levels), (background, reduced_dim - params.levels)]
    return Spectrum(tuple(_merge_levels(pairs, tol=0.0)))


def _conditioned(parties: int, conditioned_parties: int | None) -> int:
    k = parties - 1 if conditioned_parties is None else _count(
        conditioned_parties, "conditioned party count")
    if not 1 <= k <= parties - 1:
        raise ValidationError(f"conditioned party count must lie in [1, {parties - 1}], got {k}")
    return k


def _logaddexp(a: float, b: float) -> float:
    """ln(e**a + e**b) without exponentiating either term; -inf drops out."""
    hi, lo = max(a, b), min(a, b)
    return hi if lo == -math.inf else hi + math.log1p(math.exp(lo - hi))


def _log_trace_gap(levels: int, parties: int, k: int, qi: EntropicIndex, x: float) -> float:
    """ln Tr rho**q - ln Tr rho_k**q of the family at mixing weight x,
    given k parties; at the limit point, the von Neumann difference
    S(rho) - S(rho_k).  The conditional entropy is expm1(gap) / (1 - q).

    The spectra are those of :func:`joint_spectrum` and
    :func:`marginal_spectrum`.  Far from q = 1 each trace is a logaddexp
    over levels of ln(multiplicity) + q ln(eigenvalue), which never
    exponentiates.  Where |q - 1| ln N**n <= 1 those terms, of size
    q ln N**n, would cancel down to |q - 1| ln N**n; there each trace is
    log1p(sum w expm1((q - 1) ln(eigenvalue))) over the weights
    w = multiplicity * eigenvalue, which sum to 1: every term has the sign
    of 1 - q, so nothing cancels.  The form depends on q and N**n alone.
    On [x_inf(k), 1] the gap changes sign exactly once (a property test
    checks this over the whole domain), so one bracket holds the root.
    """
    dim, spike = levels ** parties, levels ** (k - 1)
    log_levels = math.log(levels)
    q = qi.q
    far = not qi.is_limit_point and abs(q - 1.0) * parties * log_levels > 1.0
    # top = (1 + (N**n - 1) x) / N**n, peak = N times the spike of rho_k
    top, peak = x * (1.0 - 1.0 / dim) + 1.0 / dim, x * (1.0 - 1.0 / spike) + 1.0 / spike
    log_top, log_peak = math.log(top), math.log(peak)
    if x < 1.0:
        log_rest = math.log1p(-x)
    else:  # the background has weight 0: no term in a logaddexp, any finite ln beside w = 0
        log_rest = -math.inf if far else 0.0
    if far:
        q_rest = q * log_rest
        log_rest_count = -math.inf if k == 1 else math.log(levels ** k - levels)
        joint = _logaddexp(q * log_top,
                           q_rest + (math.log(dim - 1) - q * parties * log_levels))
        marginal = _logaddexp(q * log_peak + (1.0 - q) * log_levels,
                              q_rest + (log_rest_count - q * k * log_levels))
        return joint - marginal
    # (weight, ln eigenvalue) of the raised level and of the background
    rest = 1.0 - x
    spectra = (((top, log_top),
                ((1.0 - 1.0 / dim) * rest, log_rest - parties * log_levels)),
               ((peak, log_peak - log_levels),
                ((1.0 - 1.0 / spike) * rest, log_rest - k * log_levels)))
    if qi.is_limit_point:  # entropies -sum w ln(eigenvalue)
        joint, marginal = (w_raised * log_raised + w_bg * log_bg
                           for (w_raised, log_raised), (w_bg, log_bg) in spectra)
        return marginal - joint
    joint, marginal = (math.log1p(w_raised * math.expm1((q - 1.0) * log_raised)
                                  + w_bg * math.expm1((q - 1.0) * log_bg))
                       for (w_raised, log_raised), (w_bg, log_bg) in spectra)
    return joint - marginal


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
    k = _conditioned(params.parties, conditioned_parties)
    qi = _as_index(q)
    gap = _log_trace_gap(params.levels, params.parties, k, qi, params.mixing)
    if qi.is_limit_point:
        return gap
    try:
        grown = math.expm1(gap)
    except OverflowError:
        grown = math.inf
    return grown / (1.0 - qi.q)
