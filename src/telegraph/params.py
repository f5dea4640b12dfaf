"""Basic value types shared by every module."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class VelocitySign(enum.Enum):
    """Initial velocity orientation: V(0) = +c or V(0) = -c."""

    PLUS = "+"
    MINUS = "-"

    def __init__(self, value: str):
        # a plain attribute of each member: the scalar path walks read it once
        # per path, where a property reaching ``VelocitySign.PLUS`` cost 0.2 us
        self.value_sign = 1 if value == "+" else -1


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
