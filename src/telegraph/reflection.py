"""Executable negative reflection transform on telegraph paths.

A path that starts with velocity +c, exceeds a level ``beta`` at some
point, and ends at ``x <= beta`` can be cut at its first two crossings of
``beta`` and reassembled into a path that starts with velocity -c and ends
at ``2*beta - x``.  The rearrangement is a bijection between the two sets
of paths: it permutes the three pieces of the trajectory and reflects two
of them, so it preserves the switch count and the joint law of the switch
times.  This module implements the forward transform, its inverse and the
classification of crossing displacements.

There is one engine: the batch kernels ``crossings_batch``,
``zero_return_crossings_batch`` and ``reflect_batch`` find the cut points
and rearrange the switch times of many equal-count paths at once, and they
state the transform's domain rule; the two crossing kernels are vertex
reductions that ``sampler.reduce_vertices`` runs block by block.
``classify_crossings``, ``negative_reflect`` and ``negative_reflect_inverse``
are their one-row case: each checks the path's membership, runs it as a
batch of one row and raises where the kernels mark that row not ok.
"""

from dataclasses import dataclass

import numpy as np

from .params import MotionParams, VelocitySign
from .path import TelegraphPath, position_at, running_max
from .sampler import _first_rows, _vertex_offsets, reduce_vertices

__all__ = [
    "ReflectionContext",
    "CrossingPair",
    "ReflectionDomainError",
    "DegeneratePathError",
    "in_P_plus",
    "in_P_minus",
    "classify_crossings",
    "negative_reflect",
    "negative_reflect_inverse",
    "crossings_batch",
    "zero_return_crossings_batch",
    "reflect_batch",
    "reflect_inverse_batch",
]

#: Absolute tolerance for matching a path's endpoint against the target x.
ENDPOINT_TOL = 1e-9

#: Relative tolerance (times the horizon) below which a crossing time is
#: considered to coincide with a switch time and the path is rejected.
DEGENERATE_REL_TOL = 1e-12


class ReflectionDomainError(ValueError):
    """The path is outside the domain of the requested transform."""


class DegeneratePathError(ReflectionDomainError):
    """A level crossing coincides with a switch time.

    Such paths form a null set; they are rejected rather than perturbed so
    that measure-preservation checks stay exact.
    """


@dataclass(frozen=True)
class ReflectionContext:
    """Level, target endpoint, and motion parameters of the transform.

    The admissible window is ``0 < beta < c*t`` and
    ``2*beta - c*t < x <= beta``; outside it both path sets are null.  The
    level is strictly positive: at beta = 0 the up-crossing sits on the
    start vertex, a degenerate cut, and the image's first return to zero
    and first crossing of the level coincide, so the inverse surgery cannot
    undo the forward one.
    """

    beta: float
    x: float
    params: MotionParams
    horizon: float

    def __post_init__(self):
        ct = self.params.c * self.horizon
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 < self.beta < ct:
            raise ValueError(f"beta={self.beta} outside (0, ct) with ct={ct}")
        if not 2.0 * self.beta - ct < self.x <= self.beta:
            raise ValueError(
                f"x={self.x} outside (2*beta - ct, beta] with "
                f"beta={self.beta}, ct={ct}"
            )


@dataclass(frozen=True)
class CrossingPair:
    """Displacement indices of the first up- and down-crossing of the level.

    Displacement ``i`` is the open time interval between switch ``i-1`` and
    switch ``i`` (with switch 0 at time 0 and switch ``n+1`` at the
    horizon).  For an upward-start path the up-crossing lies in
    displacement ``h`` and the first later down-crossing in displacement
    ``l``; a switch is needed in between, so ``1 <= h < l <= n+1``.  The
    down-crossing may fall in the final displacement (``l = n+1``), which
    happens with positive probability whenever the last displacement moves
    downward.  The image pair of a transform may have ``h = l`` (the
    reflected path can return to zero and cross the level within one
    upward displacement), so equality is allowed here.
    """

    h: int
    l: int

    def __post_init__(self):
        if not 1 <= self.h <= self.l:
            raise ValueError(f"need 1 <= h <= l, got ({self.h}, {self.l})")

    def image(self) -> "CrossingPair":
        """Crossing pair of the negatively reflected path.

        The image path first returns to zero in displacement ``l - h + 1``
        and first crosses the level in displacement ``l``; the map
        ``(h, l) -> (l - h + 1, l)`` is an automorphism of the index set.
        """
        return CrossingPair(self.l - self.h + 1, self.l)


def _check_horizon(path: TelegraphPath, ctx: ReflectionContext) -> None:
    if abs(path.horizon - ctx.horizon) > ENDPOINT_TOL:
        raise ReflectionDomainError(
            f"path horizon {path.horizon} != context horizon {ctx.horizon}"
        )


def in_P_plus(path: TelegraphPath, ctx: ReflectionContext) -> bool:
    """Whether the path starts upward, exceeds beta, and ends at x."""
    _check_horizon(path, ctx)
    if path.v0 is not VelocitySign.PLUS:
        return False
    if running_max(path, ctx.params) <= ctx.beta:
        return False
    return abs(position_at(path, path.horizon, ctx.params) - ctx.x) <= ENDPOINT_TOL


def in_P_minus(path: TelegraphPath, ctx: ReflectionContext) -> bool:
    """Whether the path starts downward and ends at 2*beta - x."""
    _check_horizon(path, ctx)
    if path.v0 is not VelocitySign.MINUS:
        return False
    end = position_at(path, path.horizon, ctx.params)
    return abs(end - (2.0 * ctx.beta - ctx.x)) <= ENDPOINT_TOL


def _cut_points(path: TelegraphPath, ctx: ReflectionContext):
    """``crossings_batch`` of one path in P+, as arrays of one row."""
    if not in_P_plus(path, ctx):
        raise ReflectionDomainError(
            "path is not an upward-start path exceeding beta and ending at x"
        )
    t1, t2, h, l, ok = crossings_batch([path.switch_times], ctx.horizon, ctx.params.c, ctx.beta)
    if not ok[0]:
        raise DegeneratePathError(
            "a crossing or a vertex before the down-crossing lies within "
            "DEGENERATE_REL_TOL * horizon of a switch time or of the level"
        )
    return t1, t2, h, l


def classify_crossings(path: TelegraphPath, ctx: ReflectionContext) -> CrossingPair:
    """Displacement indices (h, l) of the path's first two beta crossings."""
    _, _, h, l = _cut_points(path, ctx)
    return CrossingPair(int(h[0]), int(l[0]))


def negative_reflect(path: TelegraphPath, ctx: ReflectionContext) -> TelegraphPath:
    """Map an upward-start path exceeding beta to its downward-start image.

    The segment between the two beta crossings is reflected across the
    level and moved to the start; the original initial piece follows it;
    the tail after the second crossing is reflected across the level in
    place.  The result starts with velocity -c, keeps the switch count,
    and ends at ``2*beta - x``.
    """
    t1, t2, _, _ = _cut_points(path, ctx)
    image = reflect_batch([path.switch_times], t1, t2)[0]
    out = TelegraphPath(VelocitySign.MINUS, path.horizon, image.tolist())
    if not in_P_minus(out, ctx):  # pragma: no cover - internal consistency
        raise ReflectionDomainError("surgery produced a path outside the codomain")
    return out


def negative_reflect_inverse(
    path: TelegraphPath, ctx: ReflectionContext
) -> TelegraphPath:
    """Inverse surgery: rebuild the upward-start preimage of a downward path.

    The cut points are the path's first return to zero and its first
    crossing of beta; the same cut-and-swap of the time axis, applied with
    those points, undoes the forward transform.
    """
    if not in_P_minus(path, ctx):
        raise ReflectionDomainError(
            "path is not a downward-start path ending at 2*beta - x"
        )
    row = [path.switch_times]
    u1, u2, _, j2, ok = zero_return_crossings_batch(row, ctx.horizon, ctx.params.c, ctx.beta)
    if not ok[0] and j2[0] == 1:
        raise ReflectionDomainError(
            "path has no zero return followed by a beta crossing; no preimage exists"
        )
    if not ok[0]:
        raise DegeneratePathError(
            "a cut point lies within DEGENERATE_REL_TOL * horizon of a switch time"
        )
    out = TelegraphPath(VelocitySign.PLUS, path.horizon,
                        reflect_inverse_batch(row, u1, u2)[0].tolist())
    if not in_P_plus(out, ctx):  # pragma: no cover - internal consistency
        raise ReflectionDomainError("inverse surgery left the stated preimage set")
    return out


# ---------------------------------------------------------------------------
# The batch kernels: the one implementation of the transform


def crossings_batch(switches: np.ndarray, horizon: float, c: float, beta: float):
    """Forward cut points of a batch of upward-start paths with equal switch count.

    ``switches`` has one sorted row of switch times per path.  Returns
    ``(t1, t2, h, l, ok)``: the first strict up-crossing of beta at time t1
    in displacement h, the first later strict down-crossing at t2 in
    displacement l, and the mask of rows in the transform's domain.  Entries
    of rows that are not ok are unspecified.

    The domain rule: a row is ok when both crossings exist, the path ends
    at or below beta, neither crossing lies within
    ``DEGENERATE_REL_TOL * horizon`` of a switch time, and no switch vertex
    before the one that starts the down-crossing segment lies within that
    distance of the level.  Vertices after it, the start and the endpoint
    are not tested.
    """
    tol = DEGENERATE_REL_TOL * horizon

    def reduce(times, pos):
        k = np.arange(1, pos.shape[0])[:, None]  # displacement k ends at vertex k
        # a strict crossing fixes the sign of the segment's slope
        up = (pos[:-1] < beta) & (pos[1:] > beta)
        h, has_up = _first_rows(up)
        h += 1  # displacement index, 1-based
        down = (pos[:-1] > beta) & (pos[1:] < beta)
        down &= k > h
        l, has_down = _first_rows(down)
        l += 1

        tv, pv = times.ravel("K"), pos.ravel("K")
        at1, step = _vertex_offsets(pos, h - 1)
        at2, _ = _vertex_offsets(pos, l - 1)
        t1 = tv[at1] + (beta - pv[at1]) / c
        t2 = tv[at2] + (pv[at2] - beta) / c
        ok = has_up & has_down & (pos[-1] <= beta)
        ok &= np.minimum(t1 - tv[at1], tv[at1 + step] - t1) > tol
        ok &= np.minimum(t2 - tv[at2], tv[at2 + step] - t2) > tol
        # pos is not needed any more: take the distances to the level in place
        dist = pos[1:]
        touch = np.abs(np.subtract(dist, beta, out=dist), out=dist) <= tol
        ok &= ~(touch & (k < l - 1)).any(axis=0)
        return t1, t2, h, l, ok

    return reduce_vertices(reduce, VelocitySign.PLUS, switches, horizon, c)


def reflect_batch(switches: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Row-wise cut-and-swap of switch times between the two crossings.

    Times before ``t1`` shift forward by ``t2 - t1``, times inside
    ``(t1, t2)`` shift back to start at zero, and later times are fixed.
    The three groups land in disjoint intervals, so sorting restores switch
    order.  Given a downward-start path's zero-return and beta-crossing
    times, the same map performs the inverse surgery.
    """
    sw = np.asarray(switches, dtype=float)
    t1 = np.asarray(t1, dtype=float)[:, None]
    t2 = np.asarray(t2, dtype=float)[:, None]
    out = np.where(sw < t1, sw + (t2 - t1), np.where(sw < t2, sw - t1, sw))
    out.sort(axis=1)
    return out


def zero_return_crossings_batch(
    switches: np.ndarray, horizon: float, c: float, beta: float
):
    """Inverse cut points of a batch of downward-start paths.

    Returns ``(u1, u2, j1, j2, ok)``: the first return to zero at time u1
    in displacement j1, the first strict up-crossing of beta at or after
    it, at time u2 in displacement j2, and the mask of rows in the
    inverse's domain.  ``j2 == 1`` marks a row with no zero return followed
    by a beta crossing, which has no preimage.

    The domain rule: a row is ok when both cut points exist and neither
    lies within ``DEGENERATE_REL_TOL * horizon`` of a switch time; a zero
    return that lands on a vertex is such a degenerate cut.
    """
    tol = DEGENERATE_REL_TOL * horizon

    def reduce(times, pos):
        # both cut points lie on upward segments
        back = (pos[:-1] < 0.0) & (pos[1:] >= 0.0)
        j1, has_back = _first_rows(back)
        j1 += 1
        up = (pos[:-1] < beta) & (pos[1:] > beta)
        up &= np.arange(1, pos.shape[0])[:, None] >= j1
        j2, has_up = _first_rows(up)
        j2 += 1

        tv, pv = times.ravel("K"), pos.ravel("K")
        at1, step = _vertex_offsets(pos, j1 - 1)
        at2, _ = _vertex_offsets(pos, j2 - 1)
        u1 = tv[at1] + (0.0 - pv[at1]) / c
        u2 = tv[at2] + (beta - pv[at2]) / c
        ok = has_back & has_up
        ok &= np.minimum(u1 - tv[at1], tv[at1 + step] - u1) > tol
        ok &= np.minimum(u2 - tv[at2], tv[at2 + step] - u2) > tol
        return u1, u2, j1, j2, ok

    return reduce_vertices(reduce, VelocitySign.MINUS, switches, horizon, c)


reflect_inverse_batch = reflect_batch
