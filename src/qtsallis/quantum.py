"""Density-matrix algebra and quantum nonadditive entropies.

Dense matrices are the small-scale, brute-force representation that the
oracle certifies closed forms against.  A state's entropies come from its
:class:`qtsallis._index.Spectrum` by the q-trace rule of
:mod:`qtsallis._index`, so they neither underflow nor overflow for q up to
about 1e6 and lose nothing next to q = 1.  The family's own entropies do
not come through here: :mod:`qtsallis.werner` gives them in closed form.
The state checks, the partial trace and the log q-traces also take stacks
of same-shaped matrices or eigenvalue rows, for the separable witness of
:mod:`qtsallis.oracle`.  Hermiticity is checked only on a caller's array;
the states this package builds are Hermitian by construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._index import PSD_FLOOR, TRACE_TOL, Spectrum, _conditional, _count, _order
from .errors import CapacityError, NumericalError, ValidationError

#: Dense objects larger than this total dimension are refused.
DENSE_DIM_CAP = 4096
#: The eigensolver's error bound in units of side * eps * (largest
#: eigenvalue): eigenvalues that close fold into one level
#: (:func:`spectrum_of`), and one that close to 0 is 0 (:func:`_solved`).
SPECTRUM_MERGE_SCALE = 8
HERMITIAN_TOL = 1e-12
#: Side of the square tiles of :func:`_check_hermitian`: 32 KiB of doubles.
_CHECK_TILE = 64


def _refuse_above_cap(side: int) -> None:
    """Raise ``CapacityError`` for a dense side above ``DENSE_DIM_CAP``,
    before anything of that size is allocated."""
    if side > DENSE_DIM_CAP:
        raise CapacityError(f"dense dimension {side} exceeds the cap of {DENSE_DIM_CAP}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense Hermitian, unit-trace, positive-semidefinite matrix carrying a
    subsystem-dimension signature, of side at most ``DENSE_DIM_CAP``.

    The constructor copies the caller's array and checks Hermiticity
    (:func:`_check_hermitian`), the trace and positivity
    (:func:`_checked_eigenvalues`); ``entries`` and the ascending
    ``eigenvalues`` are read-only, and an isolated diagonal entry is an
    eigenvalue exactly (:func:`_eigenvalues`).  Entries are float64 unless
    some imaginary part is nonzero, so every real state takes the real
    symmetric eigensolver.
    """

    dims: tuple[int, ...]
    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._settle(self.dims, self.entries, trusted=False)

    @classmethod
    def _adopt(cls, dims: tuple[int, ...], entries: np.ndarray, coupled=None) -> DensityMatrix:
        """The state of a fresh, Hermitian array that only the caller holds,
        taken without a copy and without the Hermitian check.  ``coupled``,
        if given, lists the ascending indices outside which every
        off-diagonal entry is exactly 0 (:func:`_eigenvalues`)."""
        rho = object.__new__(cls)
        rho._settle(dims, entries, trusted=True, coupled=coupled)
        return rho

    def _settle(self, dims, entries, trusted: bool, coupled=None) -> None:
        """Validate and set the fields: a caller's array is copied and checked
        Hermitian, a ``trusted`` one is adopted."""
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
    stack (..., s, s), once every member has a trace within ``TRACE_TOL``
    of 1 and no eigenvalue below ``PSD_FLOOR`` (nan fails both).  The error
    quotes the first failing trace, or the smallest eigenvalue of all.  A
    single matrix is split at its ``coupled`` block (:func:`_eigenvalues`);
    a stack takes one :func:`_solved`; a vector is the diagonal of a
    diagonal matrix, and is its own eigenvalues, unsorted.
    """
    diagonal = stack.ndim == 1
    traces = stack.sum() if diagonal else np.trace(stack, axis1=-2, axis2=-1)
    failing = ~(np.abs(traces - 1.0) <= TRACE_TOL)  # nan fails too
    if failing.any():
        trace = np.reshape(traces, -1)[np.argmax(failing)]
        raise ValidationError(f"trace is {complex(trace)!r}, expected 1")
    try:
        eigenvalues = (stack if diagonal else _eigenvalues(stack, coupled) if stack.ndim == 2
                       else _solved(stack))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    lowest = float(eigenvalues.min())  # nan anywhere gives nan
    if not lowest >= PSD_FLOOR:
        raise ValidationError(f"smallest eigenvalue {lowest} "
                              "violates positive semidefiniteness")
    return eigenvalues


def _check_hermitian(entries: np.ndarray) -> None:
    """Refuse a matrix with some |a - a^H| above ``HERMITIAN_TOL``, or with
    a nan or inf entry.  Each tile of the upper triangle meets the conjugate
    transpose of its mirror, so no temporary grows with the state.
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
    """Ascending eigenvalues of a Hermitian matrix: its isolated diagonal
    entries, exactly, and those of its coupled block from one
    :func:`_solved`.  The ``coupled`` indices, ascending, are those whose
    row or column may hold a nonzero off-diagonal entry; without them they
    come from the exact zero pattern.  A block of every index is the
    matrix itself, not a copy.
    """
    if coupled is None:
        pattern = entries != 0
        np.fill_diagonal(pattern, False)
        coupled = np.flatnonzero(pattern.any(axis=0) | pattern.any(axis=1))
    eigenvalues = np.delete(entries.diagonal().real, coupled)
    if len(coupled):
        block = entries if len(coupled) == len(entries) else entries[np.ix_(coupled, coupled)]
        eigenvalues = np.concatenate((eigenvalues, _solved(block)))
    eigenvalues.sort()
    return eigenvalues


def _solved(block: np.ndarray) -> np.ndarray:
    """Ascending ``eigvalsh`` of a Hermitian block, or of each block of a
    stack (..., s, s), each eigenvalue within ``SPECTRUM_MERGE_SCALE`` *
    side * eps * the largest eigenvalue of its block of 0 set to 0: within
    that backward-error bound the solver cannot tell a value from 0."""
    values = np.linalg.eigvalsh(block)
    values[np.abs(values) <= SPECTRUM_MERGE_SCALE * values.shape[-1] * sys.float_info.epsilon
           * values[..., -1:]] = 0.0
    return values


#: The one-level spectrum of a trivial system; conditioning on it is a no-op.
_TRIVIAL = Spectrum(((1.0, 1),))


def spectrum_of(rho: DensityMatrix) -> Spectrum:
    """Degeneracy-aware spectrum of the eigenvalues of ``rho``.

    From the largest eigenvalue down, each one within the eigensolver's
    error bound (as in :func:`_solved`) of the level before it folds into
    that level, so numerically split degeneracies match analytic
    multiplicities.  A level sits at the mean of its eigenvalues, which
    keeps the trace exact and q-traces accurate at large q; levels are
    clamped to [0, 1].
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


def _logged(eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack (..., side) of checked eigenvalues as :func:`_log_traces`
    takes it at every order: the values clamped to [0, 1], the mask of the
    positive ones, and their logs (0 where a value is 0).  A zero weighs
    nothing, so a row padded with zeros has the log q-trace of the row."""
    values = np.clip(eigenvalues, 0.0, 1.0)
    live = values > 0.0
    return values, live, np.log(values, out=np.zeros_like(values), where=live)


def _log_traces(logged: tuple[np.ndarray, np.ndarray, np.ndarray], q: float,
                far: bool) -> np.ndarray:
    """:func:`qtsallis._index._log_trace` of each row of a :func:`_logged`
    stack, each value of multiplicity 1, at the order and in the branch given.
    Sums run in numpy's order, not ``math.fsum``'s, so a value can differ
    from the scalar kernel's by a few ulps."""
    values, live, logs = logged  # zeros get no weight below
    if q == 1.0:
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


def _entropies_from_gaps(gaps: np.ndarray, q: float) -> np.ndarray:
    """:func:`qtsallis._index._entropy_from_gap` of each gap of an array,
    with no warning where expm1 overflows."""
    if q == 1.0:
        return gaps
    with np.errstate(over="ignore"):
        return np.expm1(gaps) / (1.0 - q)


def quantum_tsallis(spectrum: Spectrum, q) -> float:
    """Order-q entropy of a state given by its spectrum; the von Neumann
    entropy at the q -> 1 limit point."""
    return quantum_conditional(spectrum, _TRIVIAL, q)


def quantum_conditional(joint: Spectrum, marginal: Spectrum, q) -> float:
    """Conditional entropy from joint and marginal spectra, in ratio form:

        (1 / (1 - q)) * [q-trace(joint) / q-trace(marginal) - 1]

    through log q-traces.  Negative values signal nonclassical correlation.
    At the q -> 1 limit point this is the von Neumann difference.  Returns
    +/-inf where the trace ratio overflows (extreme q far from the entropy
    zero).
    """
    return _conditional(joint.levels, marginal.levels, _order(q),
                        math.log(joint.total_multiplicity))


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product state with concatenated subsystem signature."""
    _refuse_above_cap(a.side * b.side)
    return DensityMatrix._adopt(a.dims + b.dims, np.kron(a.entries, b.entries))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Marginal density matrix over the subsystems listed in ``keep``.

    Kept subsystems appear in their original order.  The marginal skips
    the Hermitian check: summing entries can grow an asymmetry just under
    ``HERMITIAN_TOL`` by up to the traced dimension.
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
