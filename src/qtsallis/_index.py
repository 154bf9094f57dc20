"""The entropic index q, the integral-count rule and the probability
rule, shared by every layer.  Plain Python on floats, so the closed-form
path and every command but ``verify`` load no numpy."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

#: |q - 1| at or below this is treated as the q -> 1 limit.
LIMIT_WINDOW = 1e-9
#: Probability vectors must sum to 1 within this before renormalization.
PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class EntropicIndex:
    """Positive order parameter of the entropy family.

    ``is_limit_point`` flags values numerically indistinguishable from 1,
    where the defining expressions degenerate to 0/0 and the Shannon
    formulas take over.
    """

    q: float

    def __post_init__(self) -> None:
        q = float(self.q)
        if not math.isfinite(q) or q <= 0.0:
            raise ValidationError(
                f"entropic index must be a positive finite real, got {self.q!r}")
        object.__setattr__(self, "q", q)

    @property
    def is_limit_point(self) -> bool:
        return abs(self.q - 1.0) <= LIMIT_WINDOW


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


def _entropy_of(p: list[float], qi: EntropicIndex) -> float:
    """Order-q entropy of a probability vector (zeros contribute 0).  Within
    1/2 of q = 1, sum p**q - 1 is summed as sum p expm1((q - 1) ln p), where
    nothing cancels: all its terms have the sign of 1 - q."""
    live = [v for v in p if v > 0.0]
    if qi.is_limit_point:
        return -math.fsum(v * math.log(v) for v in live)
    if abs(qi.q - 1.0) < 0.5:
        return math.fsum(v * math.expm1((qi.q - 1.0) * math.log(v)) for v in live) / (1.0 - qi.q)
    return (math.fsum(v ** qi.q for v in live) - 1.0) / (1.0 - qi.q)
