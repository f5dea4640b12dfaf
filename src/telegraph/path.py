"""Piecewise-linear sample paths of the motion and exact path functionals.

A path is fully described by its initial velocity sign, its horizon and the
ordered switch times in (0, horizon).  Positions are always recomputed from
these times, never stored, so there is a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .params import MotionParams, VelocitySign


@dataclass(frozen=True)
class TelegraphPath:
    """One sample trajectory: v0, horizon t and switch times in (0, t)."""

    v0: VelocitySign
    horizon: float
    switch_times: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "switch_times", tuple(self.switch_times))
        err = validate(self)
        if err is not None:
            raise ValueError(err)


def validate(path: TelegraphPath) -> Optional[str]:
    """Return None if the path invariants hold, else a description of the
    first violation."""
    if not (path.horizon > 0):
        return f"horizon must be > 0, got {path.horizon}"
    prev = 0.0
    for i, s in enumerate(path.switch_times):
        if s <= prev:
            return (
                f"switch_times not strictly increasing at index {i}"
                if i > 0 and s <= path.switch_times[i - 1]
                else f"switch time {s} not in (0, horizon)"
            )
        prev = s
    if path.switch_times and path.switch_times[-1] >= path.horizon:
        return f"switch at or beyond horizon: {path.switch_times[-1]} >= {path.horizon}"
    return None


def _vertices(path: TelegraphPath, c: float):
    """Times and positions of the path's corner points, endpoints included."""
    times = [0.0, *path.switch_times, path.horizon]
    pos = [0.0]
    sgn = path.v0.value_sign
    for i in range(1, len(times)):
        pos.append(pos[-1] + sgn * c * (times[i] - times[i - 1]))
        sgn = -sgn
    return times, pos


def position_at(path: TelegraphPath, s: float, params: MotionParams) -> float:
    """Position of the motion at time s in [0, horizon]."""
    if not (0.0 <= s <= path.horizon):
        raise ValueError(f"time {s} outside [0, {path.horizon}]")
    pos = 0.0
    prev = 0.0
    sgn = path.v0.value_sign
    for tau in path.switch_times:
        if tau >= s:
            break
        pos += sgn * params.c * (tau - prev)
        prev = tau
        sgn = -sgn
    return pos + sgn * params.c * (s - prev)


def running_max(path: TelegraphPath, params: MotionParams) -> float:
    """Maximum position over [0, horizon].

    The path is piecewise linear, so the maximum is attained at a vertex.
    """
    _, pos = _vertices(path, params.c)
    return max(pos)


def running_min(path: TelegraphPath, params: MotionParams) -> float:
    _, pos = _vertices(path, params.c)
    return min(pos)


def first_passage(
    path: TelegraphPath, beta: float, params: MotionParams
) -> Optional[float]:
    """Smallest s with position >= beta, or None if the level is never
    reached within the horizon.  Crossing times are found by linear
    interpolation inside the containing segment."""
    times, pos = _vertices(path, params.c)
    if pos[0] >= beta:
        return 0.0
    for i in range(1, len(times)):
        if pos[i] >= beta:
            # upward segment from below beta; interpolate the hit
            frac = (beta - pos[i - 1]) / (pos[i] - pos[i - 1])
            return times[i - 1] + frac * (times[i] - times[i - 1])
    return None


def first_return(path: TelegraphPath, params: MotionParams) -> Optional[float]:
    """Smallest s > 0 with position 0, or None."""
    times, pos = _vertices(path, params.c)
    for i in range(1, len(times)):
        a, b = pos[i - 1], pos[i]
        if (a > 0.0 >= b) or (a < 0.0 <= b):
            frac = (0.0 - a) / (b - a)
            return times[i - 1] + frac * (times[i] - times[i - 1])
        if i > 1 and a == 0.0:
            return times[i - 1]
    return None

