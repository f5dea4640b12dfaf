"""Basic value types shared by every module."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class VelocitySign(enum.Enum):
    """Initial velocity orientation: V(0) = +c or V(0) = -c."""

    PLUS = "+"
    MINUS = "-"

    @property
    def value_sign(self) -> int:
        return 1 if self is VelocitySign.PLUS else -1

    @classmethod
    def from_str(cls, s: str) -> "VelocitySign":
        if s in ("+", "plus", "Plus", "PLUS"):
            return cls.PLUS
        if s in ("-", "minus", "Minus", "MINUS"):
            return cls.MINUS
        raise ValueError(f"not a velocity sign: {s!r}")


@dataclass(frozen=True)
class MotionParams:
    """Speed magnitude c and switching rate lam of the motion."""

    c: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"speed must be finite and > 0, got {self.c}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"switching rate must be finite and > 0, got {self.lam}")
