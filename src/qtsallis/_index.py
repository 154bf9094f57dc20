"""The entropic index q and the integral-count rule, shared by every layer.
Plain Python, so the closed-form path loads no numpy."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

#: |q - 1| at or below this is treated as the q -> 1 limit.
LIMIT_WINDOW = 1e-9


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
