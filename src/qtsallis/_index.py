"""The entropic index q, the spectrum type and the rules shared by every
layer: integral counts, probabilities, (eigenvalue, multiplicity) levels
(:class:`Spectrum`, for closed forms and dense states alike), and the one
q-trace rule (near/far predicate, log q-trace kernel, gap -> entropy
step) of every classical, dense and closed-form entropy and conditional
entropy.  Only this module checks an order (:func:`_order`, once per
public call) and decides the limit point and the branch (:func:`_branch`,
whose order is None at the limit point); every layer below passes that
float or that order, never an :class:`EntropicIndex`.  :func:`_conditionals`
(one joint against a list of marginals) and the family's prepared gap in
:mod:`qtsallis.werner` take them from here, and so does the separable
witness for ``quantum._log_traces``, the numpy twin of
:func:`_log_trace` over whole stacks of eigenvalue rows.  Plain Python
on floats, so the closed-form path, its spectra included, and every
command but ``verify`` load no numpy.  Its records are
:class:`_Frozen`, not dataclasses, so that path loads no ``dataclasses``
either."""

from __future__ import annotations

import math

from .errors import ValidationError

#: |q - 1| at or below this is treated as the q -> 1 limit.
LIMIT_WINDOW = 1e-9
#: Probability vectors must sum to 1 within this before renormalization.
PROB_SUM_TOL = 1e-12
#: Most negative eigenvalue tolerated before positivity is rejected.
PSD_FLOOR = -1e-10
#: A state's trace, or a spectrum's multiplicity-weighted sum, must be 1
#: within this.
TRACE_TOL = 1e-12
#: Largest multiplicity, and largest family dimension N**n: exact
#: multiplicity bookkeeping requires it to fit a signed 64-bit int.
MULTIPLICITY_CAP = 2**63 - 1


class _Frozen:
    """Immutable record of the fields named by a subclass's ``__slots__``,
    with the behaviour of a frozen dataclass: equal to a record of the same
    class with equal fields and hashed by them, shown as
    ``Name(field=value, ...)``, refusing assignment and deletion, pickled
    and copied by its field values (through the validating constructor).

    The numpy-free records (:class:`EntropicIndex`, :class:`Spectrum`,
    ``WernerParams``, ``ThresholdPoint``) use it because importing
    ``dataclasses`` (with ``inspect``, ``ast``, ``dis`` and ``tokenize``)
    and generating their classes took about 18 ms of every closed-form
    process (Python 3.11, 2-vCPU x86-64).  The oracle's
    ``VerificationReport`` uses it too; its rows, ``Comparison``, are named
    tuples, which the separable witness builds thousands of per call.  The
    other numpy-side records (``DensityMatrix``, ``ProbDist``,
    ``JointDist``, ``ChainDecomposition``) stay dataclasses: their modules
    pay 100 ms and more for numpy, and the perfbench tracer hooks
    ``DensityMatrix.__post_init__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class EntropicIndex(_Frozen):
    """Positive order parameter of the entropy family.

    ``is_limit_point`` flags values numerically indistinguishable from 1,
    where the defining expressions degenerate to 0/0 and the Shannon
    formulas take over.
    """

    __slots__ = ("q",)

    def __init__(self, q: float) -> None:
        object.__setattr__(self, "q", _order(q))

    @property
    def is_limit_point(self) -> bool:
        return _branch(self.q, 0.0)[0] is None


class Spectrum(_Frozen):
    """Multiset of (eigenvalue, multiplicity) levels, eigenvalues descending.

    Tiny negative eigenvalues (down to ``PSD_FLOOR``) are clamped to zero.
    Zero levels are kept so multiplicity bookkeeping stays exact.
    """

    __slots__ = ("levels",)

    def __init__(self, levels: tuple[tuple[float, int], ...]) -> None:
        cleaned = []
        for eigenvalue, multiplicity in levels:
            mult = _count(multiplicity, "multiplicity")
            value = float(eigenvalue)
            if mult < 1:
                raise ValidationError("multiplicities must be positive integers")
            if mult > MULTIPLICITY_CAP:
                raise ValidationError(f"multiplicity exceeds the cap of {MULTIPLICITY_CAP}")
            if not PSD_FLOOR <= value <= 1.0 + 1e-10:  # nan fails too
                raise ValidationError(f"eigenvalue {value} lies outside [0, 1] beyond tolerance")
            cleaned.append((min(max(value, 0.0), 1.0), mult))
        if not cleaned:
            raise ValidationError("spectrum must carry at least one level")
        cleaned.sort(key=lambda level: -level[0])
        weight = math.fsum(value * mult for value, mult in cleaned)
        if not abs(weight - 1.0) <= TRACE_TOL:
            raise ValidationError(
                f"eigenvalues weighted by multiplicity sum to {weight!r}, expected 1")
        object.__setattr__(self, "levels", tuple(cleaned))

    @classmethod
    def _trusted(cls, levels: tuple[tuple[float, int], ...]) -> Spectrum:
        """A spectrum of ``levels`` as given, unchecked: for levels built from
        eigenvalues that have passed the checks of a state, already in
        [0, 1], descending and with int multiplicities."""
        spectrum = object.__new__(cls)
        object.__setattr__(spectrum, "levels", levels)
        return spectrum

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.levels)


def _order(q) -> float:
    """q as a float, refused unless positive and finite: the one check of an
    entropic index.  An :class:`EntropicIndex` gives its own q."""
    value = q.q if isinstance(q, EntropicIndex) else float(q)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"entropic index must be a positive finite real, got {q!r}")
    return value


def _count(value, what: str) -> int:
    """A count or index as an int: 3.0 and numpy integers pass, and a
    non-integral value (2.9, nan) is refused, never truncated."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # nan, inf, non-numbers
        pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _probabilities(values: list[float]) -> list[float]:
    """Entries finite and in [0, 1 + ``PROB_SUM_TOL``], their ``math.fsum``
    within ``PROB_SUM_TOL`` of 1; returned divided by that sum."""
    if not all(map(math.isfinite, values)):
        raise ValidationError("probabilities must be finite")
    if any(v < 0.0 or v > 1.0 + PROB_SUM_TOL for v in values):
        raise ValidationError("probabilities must lie in [0, 1]")
    total = math.fsum(values)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}")
    return [v / total for v in values]


def _branch(q: float, log_count: float) -> tuple[float | None, bool]:
    """The order (None at the limit point, |q - 1| <= ``LIMIT_WINDOW``) and
    the branch in which :func:`_log_trace` takes every q-trace of a
    conditional whose joint has total multiplicity exp(``log_count``): far
    (the logaddexp) where |q - 1| ``log_count`` > 1; nearer q = 1 its terms
    would cancel."""
    return None if abs(q - 1.0) <= LIMIT_WINDOW else q, abs(q - 1.0) * log_count > 1.0


def _log_trace(levels, q: float | None, far: bool) -> float:
    """ln sum m v**q over (eigenvalue v, multiplicity m) levels with
    sum m v = 1, zeros skipped; for q None (the limit point), -sum m v ln v.
    ``far`` takes a running max-shifted logaddexp of ln m + q ln v.
    Otherwise this is log1p(sum m v expm1((q - 1) ln v)), whose terms all
    have the sign of 1 - q, so nothing cancels next to q = 1; a term whose
    expm1 overflows (a subnormal v at small q) is exp(ln m + q ln v) - m v
    instead."""
    if q is None:
        return -math.fsum(m * v * math.log(v) for v, m in levels if v > 0.0)
    if far:
        peak, total = -math.inf, 0.0  # total: sum of exp(term - peak)
        for v, m in levels:
            if v > 0.0:
                term = math.log(m) + q * math.log(v)
                if term > peak:
                    peak, total = term, total * math.exp(peak - term) + 1.0
                else:
                    total += math.exp(term - peak)
        return peak + math.log(total)
    excess = []
    for v, m in levels:
        if v > 0.0:
            grown = (q - 1.0) * math.log(v)
            excess.append(m * v * math.expm1(grown) if grown < 709.0
                          else math.exp(math.log(m) + q * math.log(v)) - m * v)
    return math.log1p(math.fsum(excess))


def _conditionals(joint, marginals, q: float, log_count: float) -> list[float]:
    """[Tr joint**q / Tr m**q - 1] / (1 - q) for each m of ``marginals``
    (levels all), from log q-traces in the branch of the joint's total
    multiplicity exp(``log_count``), the joint's taken once; at the limit
    point, the von Neumann differences."""
    order, far = _branch(q, log_count)
    joint_trace = _log_trace(joint, order, far)
    return [_entropy_from_gap(joint_trace - _log_trace(m, order, far), order) for m in marginals]


def _entropy_from_gap(gap: float, order: float | None) -> float:
    """expm1(gap) / (1 - q) for a gap of log q-traces at the ``order`` of
    :func:`_branch`, +/-inf where expm1 overflows; at the limit point
    (``order`` None) the gap is the von Neumann value itself."""
    if order is None:
        return gap
    try:
        return math.expm1(gap) / (1.0 - order)
    except OverflowError:
        return math.copysign(math.inf, 1.0 - order)


def _entropy_of(p: list[float], q: float) -> float:
    """Order-q entropy of a probability vector, from multiplicity-1 levels in
    the branch that the count of nonzero entries picks (zeros change nothing)."""
    live = [(v, 1) for v in p if v > 0.0]
    order, far = _branch(q, math.log(len(live)))
    return _entropy_from_gap(_log_trace(live, order, far), order)
