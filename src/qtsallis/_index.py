"""The :class:`Spectrum` record and the rules that every layer shares:
the one check of an entropic index q (:func:`_order`, after which every
layer passes a plain float), integral counts, probabilities, and the one
q-trace rule (limit point and branch, log q-trace kernel, gap -> entropy
step) behind every classical, dense and closed-form entropy.  Plain Python
on floats, so the closed-form path loads neither numpy nor ``dataclasses``."""

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
    The numpy-free records use it so that the closed-form path imports
    neither ``dataclasses`` nor, with it, ``inspect`` and ``ast``."""

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
        """A spectrum of ``levels`` as given, unchecked: the caller vouches
        that they descend, lie in [0, 1] and have int multiplicities."""
        spectrum = object.__new__(cls)
        object.__setattr__(spectrum, "levels", levels)
        return spectrum

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.levels)


def _order(q) -> float:
    """q as a float, refused outside (0, 1e300] (nan too): the one check of
    an entropic index.  From about 2.4e305 up, q ln v can overflow to -inf
    on the smallest positive v and turn a log q-trace gap nan."""
    value = float(q)
    if not 0.0 < value <= 1e300:
        raise ValidationError(f"entropic index must lie in (0, 1e300], got {q!r}")
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
    expm1 overflows (a subnormal v at small q) is exp(ln m + q ln v) - m v."""
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


def _conditional(joint, marginal, q: float, log_count: float) -> float:
    """[Tr joint**q / Tr marginal**q - 1] / (1 - q) of two level lists, from
    log q-traces in the branch of the joint's total multiplicity
    exp(``log_count``); at the limit point, the von Neumann difference."""
    order, far = _branch(q, log_count)
    gap = _log_trace(joint, order, far) - _log_trace(marginal, order, far)
    return _entropy_from_gap(gap, order)


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
