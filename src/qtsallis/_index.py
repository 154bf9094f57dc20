"""The entropic index q, the spectrum type and the rules shared by every
layer: integral counts, probabilities, (eigenvalue, multiplicity) levels
(:class:`Spectrum`, for closed forms and dense states alike), and the one
q-trace rule (near/far predicate, log q-trace kernel, gap -> entropy
step) of every classical, dense and closed-form entropy and conditional
entropy.  Only this module picks the order and the branch of a
conditional (:func:`_log_gap`, and :func:`_conditionals` for one joint
against several marginals).  Plain Python on floats, so the
closed-form path, its spectra included, and every command but ``verify``
load no numpy.  Its records are :class:`_Frozen`, not dataclasses, so
that path loads no ``dataclasses`` either."""

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
    process (Python 3.11, 2-vCPU x86-64).  The numpy-side records (``DensityMatrix``, ``ProbDist``,
    ``JointDist``, ``ChainDecomposition``, ``Comparison``,
    ``VerificationReport``) stay dataclasses: their modules pay 100 ms and
    more for numpy, and the perfbench tracer hooks
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
        value = float(q)
        if not math.isfinite(value) or value <= 0.0:
            raise ValidationError(
                f"entropic index must be a positive finite real, got {q!r}")
        object.__setattr__(self, "q", value)

    @property
    def is_limit_point(self) -> bool:
        return abs(self.q - 1.0) <= LIMIT_WINDOW


class Spectrum(_Frozen):
    """Multiset of (eigenvalue, multiplicity) levels, eigenvalues descending.

    Tiny negative eigenvalues (down to ``PSD_FLOOR``) are clamped to zero.
    Zero levels are kept so multiplicity bookkeeping stays exact.
    """

    __slots__ = ("levels",)

    def __init__(self, levels: tuple[tuple[float, int], ...]) -> None:
        cleaned = []
        for eigenvalue, multiplicity in levels:
            mult = int(multiplicity)
            value = float(eigenvalue)
            if mult < 1:
                raise ValidationError("multiplicities must be positive integers")
            if value < PSD_FLOOR:
                raise ValidationError(f"eigenvalue {value} is negative beyond tolerance")
            if value > 1.0 + 1e-10:
                raise ValidationError(f"eigenvalue {value} exceeds 1")
            cleaned.append((min(max(value, 0.0), 1.0), mult))
        if not cleaned:
            raise ValidationError("spectrum must carry at least one level")
        cleaned.sort(key=lambda level: -level[0])
        weight = math.fsum(value * mult for value, mult in cleaned)
        if abs(weight - 1.0) > TRACE_TOL:
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


def _as_index(q) -> EntropicIndex:
    return q if isinstance(q, EntropicIndex) else EntropicIndex(float(q))


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


def _far(q: float, log_count: float) -> bool:
    """Whether a q-trace over total multiplicity exp(``log_count``) takes the
    logaddexp of :func:`_log_trace`; nearer q = 1 its terms would cancel."""
    return abs(q - 1.0) * log_count > 1.0


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


def _log_gap(joint, marginal, qi: EntropicIndex, log_count: float) -> float:
    """ln Tr joint**q - ln Tr marginal**q over levels, both in the branch of
    the joint's total multiplicity exp(``log_count``); at the limit point,
    the von Neumann difference."""
    order = None if qi.is_limit_point else qi.q
    far = _far(qi.q, log_count)
    return _log_trace(joint, order, far) - _log_trace(marginal, order, far)


def _conditional(joint, marginal, qi: EntropicIndex, log_count: float) -> float:
    """Ratio form [Tr joint**q / Tr marginal**q - 1] / (1 - q) of :func:`_log_gap`."""
    return _entropy_from_gap(_log_gap(joint, marginal, qi, log_count), qi)


def _conditionals(joint, marginals, qi: EntropicIndex, log_count: float) -> list[float]:
    """:func:`_conditional` of one joint given each of ``marginals``, in the
    order and branch that :func:`_log_gap` takes, with the joint's log
    q-trace taken once for all of them."""
    order = None if qi.is_limit_point else qi.q
    far = _far(qi.q, log_count)
    joint_trace = _log_trace(joint, order, far)
    return [_entropy_from_gap(joint_trace - _log_trace(m, order, far), qi) for m in marginals]


def _entropy_from_gap(gap: float, qi: EntropicIndex) -> float:
    """expm1(gap) / (1 - q) for a gap of log q-traces, +/-inf where expm1
    overflows; at the limit point the gap is the von Neumann value itself."""
    if qi.is_limit_point:
        return gap
    try:
        return math.expm1(gap) / (1.0 - qi.q)
    except OverflowError:
        return math.copysign(math.inf, 1.0 - qi.q)


def _entropy_of(p: list[float], qi: EntropicIndex) -> float:
    """Order-q entropy of a probability vector, from multiplicity-1 levels in
    the branch that the count of nonzero entries picks (zeros change nothing)."""
    live = [(v, 1) for v in p if v > 0.0]
    order = None if qi.is_limit_point else qi.q
    return _entropy_from_gap(_log_trace(live, order, _far(qi.q, math.log(len(live)))), qi)
