"""Density-matrix algebra and quantum nonadditive entropies.

Dense matrices are the small-scale, brute-force representation that the
oracle certifies closed forms against.  Entropies of a state are taken
from its degeneracy-aware spectrum, a :class:`qtsallis._index.Spectrum`
as the closed forms give, by the q-trace rule of
:mod:`qtsallis._index`, which this module only applies: log q-traces
neither underflow nor overflow for q up to about 1e6, and lose nothing
next to q = 1.  The family's own entropies and thresholds do not come
through here: :mod:`qtsallis.werner` evaluates them in closed form.
The trace and positivity checks and the partial trace also take stacks
of same-shaped matrices, so the separable witness of
:mod:`qtsallis.oracle` checks and decomposes its mixtures one stack per
shape, takes the log q-traces of all its trials' eigenvalue rows, padded
with zeros, one array per branch (:func:`_log_traces`, the numpy twin of
the rule's kernel, in the order and branch that :mod:`qtsallis._index`
picks, on logs taken once per array by :func:`_logged`) and turns their
gaps into entropies one array at a time (:func:`_entropies_from_gaps`).
Hermiticity is checked only where a caller's array comes in, by the
public :class:`DensityMatrix` constructor, in square tiles
(:func:`_check_hermitian`).  The states that this package builds itself
(a family member, a partial trace, a tensor product) and the witness
stacks are Hermitian by construction: they are adopted, not copied, and
not checked for it, and tier-1 tests assert that each of them passes
:func:`_check_hermitian`.  No check makes a float temporary of the
state's size.  Only a state that names no coupled block builds the
boolean zero pattern of :func:`_eigenvalues`, an eighth of its bytes; the
oracle's family members name theirs, so they cost about their own bytes
once built.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._index import (PSD_FLOOR, TRACE_TOL, Spectrum, _branch, _conditionals, _count,
                     _log_trace, _order)
from .errors import CapacityError, NumericalError, ValidationError

#: Dense objects larger than this total dimension are refused.
DENSE_DIM_CAP = 4096
#: Eigenvalues closer than this many times side * eps * (largest
#: eigenvalue), the eigensolver's own error bound, fold into one level.
SPECTRUM_MERGE_SCALE = 8
HERMITIAN_TOL = 1e-12
#: Side of the square tiles of the Hermitian check (:func:`_check_hermitian`):
#: 32 KiB of doubles a tile, so its temporaries stay small beside a large state.
_CHECK_TILE = 64


def _refuse_above_cap(side: int) -> None:
    """Raise ``CapacityError`` for a dense side above ``DENSE_DIM_CAP``,
    before anything of that size is allocated."""
    if side > DENSE_DIM_CAP:
        raise CapacityError(f"dense dimension {side} exceeds the cap of {DENSE_DIM_CAP}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense Hermitian, unit-trace, positive-semidefinite matrix carrying a
    subsystem-dimension signature.

    Entries are stored as float64 unless some imaginary part is nonzero,
    in which case they stay complex128, so ``np.linalg.eigvalsh`` takes the
    real symmetric solver for every real state (complex-typed input with
    zero imaginary parts included) and the complex Hermitian one otherwise.
    Construction validates every invariant: Hermiticity of the caller's
    array (:func:`_check_hermitian`), then the trace and positivity from
    the state's eigenvalues (:func:`_checked_eigenvalues`), which it keeps
    ascending and read-only as ``eigenvalues``.  Only the coupled block is
    eigendecomposed (see :func:`_eigenvalues`): indices with no nonzero
    off-diagonal entry give their diagonal entries exactly, and the rest
    take one ``eigvalsh``.  The public constructor finds that block from
    the exact zero pattern, so a state with coherences everywhere is
    decomposed whole; the oracle names it when it adopts a state it built
    (a family member's GHZ indices).  The
    public constructor copies the caller's array; the package's own
    constructions hand over the fresh array they built (:meth:`_adopt`),
    Hermitian by construction, through every check but the Hermitian one.
    Either way ``entries`` is read-only.  This type is
    meant for cross-check scale (side up to ``DENSE_DIM_CAP``), not
    production entropy queries.
    """

    dims: tuple[int, ...]
    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._settle(self.dims, self.entries, trusted=False)

    @classmethod
    def _adopt(cls, dims: tuple[int, ...], entries: np.ndarray, coupled=None) -> DensityMatrix:
        """The state of a fresh array that only the caller holds, taken
        without a copy and made read-only.  The array is Hermitian by
        construction, so it skips only the Hermitian check of the public
        constructor; ``test_internal_constructions_pass_the_hermitian_check``
        and ``test_partial_trace_and_tensor_product_stay_hermitian`` assert
        that every such construction would pass it.  A caller that built
        the array knows its coupled block and may pass its ascending
        indices as ``coupled`` (empty for a diagonal array), vouching that
        every off-diagonal entry outside that block is exactly 0; the
        eigenvalues then take no zero pattern (:func:`_eigenvalues`)."""
        rho = object.__new__(cls)
        rho._settle(dims, entries, trusted=True, coupled=coupled)
        return rho

    def _settle(self, dims, entries, trusted: bool, coupled=None) -> None:
        """Validate and set the fields, taking the entries in their final
        dtype: a caller's array is copied and checked Hermitian, a
        ``trusted`` one is adopted, its ``coupled`` block passed on to
        :func:`_checked_eigenvalues`."""
        dims = tuple(_count(d, "subsystem dimension") for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValidationError("subsystem dimensions must be positive integers")
        side = math.prod(dims)
        _refuse_above_cap(side)
        entries = np.asarray(entries)
        if np.iscomplexobj(entries) and not entries.imag.any():
            entries = entries.real
        take = np.ascontiguousarray if trusted else np.array
        entries = take(entries, dtype=np.result_type(entries, float))
        if entries.shape != (side, side):
            raise ValidationError(
                f"expected a {side}x{side} matrix, got shape {entries.shape}")
        if not trusted:
            _check_hermitian(entries)
        eigenvalues = _checked_eigenvalues(entries, coupled)
        entries.flags.writeable = False
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def side(self) -> int:
        return self.entries.shape[0]


def _checked_eigenvalues(stack: np.ndarray, coupled=None) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix of a
    stack (..., s, s), once every member has passed the trace and
    positivity checks of a state: trace within ``TRACE_TOL`` of 1 and
    smallest eigenvalue at least ``PSD_FLOOR``.  The traces are checked as
    one array, nan failing; a failing trace is quoted from the first member
    that fails, a failing eigenvalue is the smallest of all.  Hermiticity
    is the caller's to check: the public constructor runs
    :func:`_check_hermitian` first, and the package's own states and the
    witness stacks are Hermitian by construction, which
    ``test_internal_constructions_pass_the_hermitian_check`` and
    ``test_witness_stacks_pass_the_hermitian_check`` assert.  A single
    matrix is split by :func:`_eigenvalues`, at its ``coupled`` block if
    given; a stack takes one ``eigvalsh`` whole.
    """
    traces = np.reshape(np.trace(stack, axis1=-2, axis2=-1), -1)
    failing = ~(np.abs(traces - 1.0) <= TRACE_TOL)  # nan fails too
    if failing.any():
        trace = traces[np.argmax(failing)]
        raise ValidationError(f"trace is {complex(trace)!r}, expected 1")
    try:
        eigenvalues = (_eigenvalues(stack, coupled) if stack.ndim == 2
                       else np.linalg.eigvalsh(stack))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    lowest = float(np.min(eigenvalues[..., 0]))  # nan anywhere gives nan
    if not lowest >= PSD_FLOOR:
        raise ValidationError(f"smallest eigenvalue {lowest} "
                              "violates positive semidefiniteness")
    return eigenvalues


def _check_hermitian(entries: np.ndarray) -> None:
    """Refuse a matrix with some |a - a^H| above ``HERMITIAN_TOL``, one
    square tile of the upper triangle at a time.

    Each tile ``entries[i:i + t, j:j + t]`` with j >= i meets the conjugate
    transpose of its mirrored tile ``entries[j:j + t, i:i + t]``, so every
    pair of mirrored entries is compared once, the maximum is that of the
    whole matrix, and both tiles are read row by row.  Tiles have side
    ``_CHECK_TILE``, so no temporary grows with the state, and a real
    matrix is never conjugated.  A nan or inf entry, on the diagonal or
    off it, makes that maximum nan or inf and is refused as not finite.
    """
    side, tile = len(entries), _CHECK_TILE
    conjugate = np.iscomplexobj(entries)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan, refused below
        for i in range(0, side, tile):
            for j in range(i, side, tile):
                mirror = entries[j:j + tile, i:i + tile].T
                if conjugate:
                    mirror = mirror.conj()
                deviation = np.max(np.abs(entries[i:i + tile, j:j + tile] - mirror))
                if not deviation <= HERMITIAN_TOL:
                    raise ValidationError("matrix is not Hermitian within tolerance"
                                          if math.isfinite(deviation)
                                          else "matrix entries must be finite")


def _eigenvalues(entries: np.ndarray, coupled=None) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, split at its coupled
    block.

    The ``coupled`` indices, ascending, are those whose row or column may
    hold a nonzero off-diagonal entry: a state built by the package names
    them (a family member's GHZ indices, none for a diagonal array).
    Without them, an index is coupled if its row or column holds a nonzero
    off-diagonal entry in either triangle, found from the exact zero
    pattern.  Up to a permutation the matrix is then diag(coupled block,
    isolated diagonal), so its spectrum is the isolated diagonal entries,
    exactly, together with one ``eigvalsh`` of the coupled block (none if
    that block is empty).  A matrix whose first column is nonzero below the
    diagonal couples every index and goes to ``eigvalsh`` whole, without
    building the pattern: for a small state with coherences everywhere,
    the pattern would cost as much as ``eigvalsh`` itself or more.
    """
    if coupled is None:
        if np.count_nonzero(entries[1:, 0]) == len(entries) - 1:
            return np.linalg.eigvalsh(entries)
        pattern = entries != 0
        np.fill_diagonal(pattern, False)
        coupled = np.flatnonzero(pattern.any(axis=0) | pattern.any(axis=1))
    eigenvalues = np.delete(entries.diagonal().real, coupled)
    if len(coupled):
        eigenvalues = np.concatenate(
            (eigenvalues, np.linalg.eigvalsh(entries[np.ix_(coupled, coupled)])))
    eigenvalues.sort()
    return eigenvalues


#: The one-level spectrum of a trivial system; conditioning on it is a no-op.
_TRIVIAL = Spectrum(((1.0, 1),))


def spectrum_of(rho: DensityMatrix) -> Spectrum:
    """Degeneracy-aware spectrum from the eigenvalues ``rho`` computed at
    construction, with no second eigendecomposition.

    One pass from the largest eigenvalue down folds each eigenvalue into
    the level before it when it lies within the eigensolver's error of
    that level: ``SPECTRUM_MERGE_SCALE`` times side * eps * the largest
    eigenvalue, the backward-error bound of a symmetric eigensolver on a
    matrix of that side and norm.  So numerically split degeneracies match
    analytic multiplicities.  A level sits at the multiplicity-weighted
    mean of its eigenvalues, which keeps the trace exact and the folding
    error second order, so q-traces stay accurate even at large q.  The
    levels descend and are clamped to [0, 1], so they skip the checks of
    :class:`Spectrum`.  The oracle cuts by closed multiplicities instead.
    """
    values = rho.eigenvalues.tolist()
    tol = SPECTRUM_MERGE_SCALE * len(values) * sys.float_info.epsilon * values[-1]
    levels: list[tuple[float, int]] = []
    for value in reversed(values):
        if levels and levels[-1][0] - value <= tol:
            mean, mult = levels[-1]
            levels[-1] = ((mean * mult + value) / (mult + 1), mult + 1)
        else:
            levels.append((value, 1))
    return Spectrum._trusted(tuple((min(max(mean, 0.0), 1.0), mult) for mean, mult in levels))


def q_trace(spectrum: Spectrum, q) -> float:
    """ln of the q-trace: the log of sum(mult * eigenvalue**q).

    Computed by :func:`qtsallis._index._log_trace`, skipping zero
    eigenvalues, in the branch that the total multiplicity picks: a
    max-shifted exponential sum far from q = 1, a log1p of same-signed
    terms next to it.  It is exact to double precision for q up to at
    least 1e6 without underflow or overflow, and loses nothing to
    cancellation next to q = 1.
    """
    q = _order(q)
    return _log_trace(spectrum.levels, q, _branch(q, math.log(spectrum.total_multiplicity))[1])


def _logged(eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack (..., side) of eigenvalues that :func:`_checked_eigenvalues`
    has passed, in the form that :func:`_log_traces` takes at every order:
    the values clamped to [0, 1], the mask of the positive ones, and their
    logs (0 where a value is 0).  A zero weighs nothing in any branch, so a
    row padded with zeros has the log q-trace of the row itself."""
    values = np.clip(eigenvalues, 0.0, 1.0)
    live = values > 0.0
    return values, live, np.log(values, out=np.zeros_like(values), where=live)


def _log_traces(logged: tuple[np.ndarray, np.ndarray, np.ndarray], q: float | None,
                far: bool) -> np.ndarray:
    """:func:`qtsallis._index._log_trace` of each row of a :func:`_logged`
    stack, each value taken with multiplicity 1, in the order and branch
    given, picked as for :func:`qtsallis._index._conditionals`: ln sum v**q
    per row, zeros skipped, and -sum v ln v for q None.  ``far`` takes a
    max-shifted sum of exp(q ln v); otherwise this is log1p of the
    same-signed terms v expm1((q - 1) ln v), each exp(q ln v) - v where its
    expm1 would overflow.  Sums run in numpy's order, not ``math.fsum``'s,
    so a value can differ from the scalar kernel's by a few ulps."""
    values, live, logs = logged  # zeros get no weight below
    if q is None:
        return -np.sum(values * logs, axis=-1)
    if far:
        terms = q * logs
        peak = np.max(terms, axis=-1, initial=-np.inf, where=live, keepdims=True)
        shifted = np.exp(terms - peak, out=np.zeros_like(values), where=live)
        return peak[..., 0] + np.log(np.sum(shifted, axis=-1))
    grown = (q - 1.0) * logs
    excess = values * np.expm1(np.minimum(grown, 709.0))
    over = grown >= 709.0
    excess[over] = np.exp(q * logs[over]) - values[over]
    return np.log1p(np.sum(excess, axis=-1))


def _entropies_from_gaps(gaps: np.ndarray, order: float | None) -> np.ndarray:
    """:func:`qtsallis._index._entropy_from_gap` of each gap of an array at
    the ``order`` of :func:`qtsallis._index._branch`: expm1(gap) / (1 - q),
    an infinity with the sign of 1 - q where expm1 overflows (its inf
    divided by 1 - q, with no warning), and at the limit point (``order``
    None) the gaps themselves."""
    if order is None:
        return gaps
    with np.errstate(over="ignore"):
        return np.expm1(gaps) / (1.0 - order)


def quantum_tsallis(spectrum: Spectrum, q) -> float:
    """Order-q entropy of a state given by its spectrum.

    expm1(ln q-trace) / (1 - q), the conditional entropy given a trivial
    system; the q -> 1 limit point routes to the von Neumann entropy.
    """
    return quantum_conditional(spectrum, _TRIVIAL, q)


def quantum_conditional(joint: Spectrum, marginal: Spectrum, q) -> float:
    """Conditional entropy from joint and marginal spectra, in ratio form:

        (1 / (1 - q)) * [q-trace(joint) / q-trace(marginal) - 1]

    evaluated through log q-traces, both in the branch that the joint's
    total multiplicity picks.  Negative values signal nonclassical
    correlation.  At the q -> 1 limit point this is the von Neumann
    difference.  May return +/-inf if the trace ratio overflows the
    exponential range (extreme q far from the entropy zero); sign queries
    should compare log q-traces directly instead.
    """
    return _conditionals(joint.levels, [marginal.levels], _order(q),
                         math.log(joint.total_multiplicity))[0]


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product state with concatenated subsystem signature."""
    _refuse_above_cap(a.side * b.side)
    return DensityMatrix._adopt(a.dims + b.dims, np.kron(a.entries, b.entries))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Marginal density matrix over the subsystems listed in ``keep``.

    Kept subsystems appear in their original order regardless of the order
    given in ``keep``.  The marginal is adopted without the Hermitian check:
    each of its entries sums as many entries of ``rho`` as the traced
    dimension, so a state whose asymmetry is just under ``HERMITIAN_TOL``
    can give a marginal whose asymmetry is up to the traced dimension times
    that, which the public constructor would refuse.
    """
    kept = sorted({_count(i, "subsystem index") for i in keep})
    n = len(rho.dims)
    if not kept:
        raise ValidationError("must keep at least one subsystem")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValidationError(f"subsystem indices must lie in [0, {n - 1}]")
    dims = tuple(rho.dims[i] for i in kept)
    return DensityMatrix._adopt(dims, _trace_out(rho.entries, rho.dims, kept))


def _trace_out(stack: np.ndarray, dims: tuple[int, ...], kept: list[int]) -> np.ndarray:
    """Partial trace of a matrix, or of each matrix of a stack (..., s, s),
    over subsystems ``dims``, keeping the ascending indices ``kept``."""
    batch = stack.shape[:-2]
    n = len(dims)
    arr = stack.reshape(*batch, *dims, *dims)
    removed = 0
    for axis in (i for i in range(n) if i not in kept):
        a = len(batch) + axis - removed
        arr = np.trace(arr, axis1=a, axis2=a + n - removed)
        removed += 1
    side = math.prod(dims[i] for i in kept)
    return arr.reshape(*batch, side, side)
