"""Tagged divisions and gauge-driven partition construction.

A tagged division of [a, b] is a strictly increasing point chain
a = x_0 < ... < x_n = b together with one tag per piece,
xi_i in [x_i, x_{i+1}].  It is sharp for a gauge when every closed piece
sits strictly inside the open gauge interval of its own tag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartitionDepthError
from .gauges import Gauge, Interval

# Frontier chunk size for the vectorized bisection; keeps peak memory flat
# even when a singular gauge forces millions of pieces.
_BLOCK = 1 << 19

DEFAULT_MAX_DEPTH = 60

# Hard ceiling on division size: a gauge demanding more pieces than this is
# beyond what the process can hold, so fail cleanly instead of thrashing.
DEFAULT_MAX_PIECES = 20_000_000


@dataclass(frozen=True, eq=False)
class TaggedDivision:
    """Immutable division: ``points`` (n+1 floats) and ``tags`` (n floats)."""

    points: np.ndarray
    tags: np.ndarray

    def __post_init__(self):
        points = np.ascontiguousarray(self.points, dtype=float)
        tags = np.ascontiguousarray(self.tags, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("division needs at least two points")
        if tags.shape != (points.size - 1,):
            raise ValueError("need exactly one tag per piece")
        if not np.all(np.diff(points) > 0):
            raise ValueError("division points must be strictly increasing")
        if not (np.all(points[:-1] <= tags) and np.all(tags <= points[1:])):
            raise ValueError("every tag must lie inside its own piece")
        points.setflags(write=False)
        tags.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "tags", tags)

    @property
    def pieces(self) -> int:
        return self.points.size - 1

    @property
    def lefts(self) -> np.ndarray:
        return self.points[:-1]

    @property
    def rights(self) -> np.ndarray:
        return self.points[1:]

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def mesh(self) -> float:
        """The largest piece width."""
        return float(np.max(self.widths))

    @property
    def domain(self) -> Interval:
        return Interval(float(self.points[0]), float(self.points[-1]))


def is_sharp(division: TaggedDivision, gauge: Gauge) -> bool:
    """True iff every piece lies strictly inside gamma(tag).

    Strict inequalities, no tolerance: gauge values are open intervals.
    """
    alpha, beta = gauge.half_widths(division.tags)
    left_ok = division.tags - alpha < division.lefts
    right_ok = division.rights < division.tags + beta
    return bool(np.all(left_ok) and np.all(right_ok))


def is_fine(division: TaggedDivision, delta) -> bool:
    """True iff every piece width is below delta evaluated at its own tag;
    ``delta`` maps the tag array to widths."""
    return bool(np.all(division.widths < delta(division.tags)))


def cousin_partition(gauge: Gauge, domain: Interval,
                     max_depth: int = DEFAULT_MAX_DEPTH,
                     split: float = 0.5,
                     max_pieces: int = DEFAULT_MAX_PIECES) -> TaggedDivision:
    """Build a sharp tagged division for ``gauge`` by recursive bisection.

    Each subinterval [u, v] is accepted as soon as one of the candidate tags
    u, (u+v)/2, v (checked in that fixed order) satisfies
    [u, v] subset gamma(tag); otherwise it is split at
    u + split * (v - u) and both parts are retried.  Compactness guarantees
    termination for any genuine gauge; the depth cap converts a pathological
    evaluator (widths collapsing to zero at a point of the domain) into a
    clean error.

    ``split`` must lie in (0, 1); values other than 0.5 draw a different
    sharp division for the same gauge, which is how verification samples
    the space of sharp divisions deterministically.

    The recursion is evaluated as a vectorized worklist: acceptance of one
    subinterval never depends on any other, so the result is identical to
    the sequential recursion, and deterministic for a given gauge.
    """
    domain = Interval.coerce(domain)
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must be in (0, 1), got {split}")
    stack = [(np.array([domain.lower]), np.array([domain.upper]), 0)]
    acc_left: list[np.ndarray] = []
    acc_right: list[np.ndarray] = []
    acc_tag: list[np.ndarray] = []
    total = 0

    while stack:
        u, v, depth = stack.pop()
        if depth > max_depth:
            t_stuck = float(u[0])
            raise PartitionDepthError(
                f"no sharp piece after {max_depth} bisections near t={t_stuck!r}; "
                "gauge evaluator looks pathological"
            )
        if u.size > _BLOCK:
            for i in range(0, u.size, _BLOCK):
                stack.append((u[i:i + _BLOCK], v[i:i + _BLOCK], depth))
            continue
        mid = 0.5 * (u + v)
        accepted = np.zeros(u.shape, dtype=bool)
        tag = np.empty_like(u)
        for candidate in (u, mid, v):
            alpha, beta = gauge.half_widths(candidate)
            ok = (~accepted) & (candidate - alpha < u) & (v < candidate + beta)
            tag[ok] = candidate[ok]
            accepted |= ok
        if accepted.any():
            acc_left.append(u[accepted])
            acc_right.append(v[accepted])
            acc_tag.append(tag[accepted])
        rejected = ~accepted
        total += int(u.size)
        if total > max_pieces:
            raise PartitionDepthError(
                f"gauge demands more than {max_pieces} pieces; "
                "refine less aggressively or supply a coarser gauge family"
            )
        if rejected.any():
            ur, vr = u[rejected], v[rejected]
            cut = ur + split * (vr - ur)
            stack.append((
                np.concatenate([ur, cut]),
                np.concatenate([cut, vr]),
                depth + 1,
            ))

    lefts = np.concatenate(acc_left)
    rights = np.concatenate(acc_right)
    tags = np.concatenate(acc_tag)
    order = np.argsort(lefts)
    lefts, rights, tags = lefts[order], rights[order], tags[order]
    points = np.append(lefts, rights[-1])
    return TaggedDivision(points=points, tags=tags)


def repick_tags(division: TaggedDivision, gauge: Gauge,
                reverse: bool = True) -> TaggedDivision:
    """Re-tag the same pieces with the opposite candidate preference.

    Every piece of a sharp division accepts at least one of the candidates
    left endpoint, midpoint, right endpoint; scanning them in the reversed
    order yields a second sharp division over identical pieces (identical
    to the input wherever only one candidate accepts).
    """
    lefts, rights = division.lefts, division.rights
    mids = 0.5 * (lefts + rights)
    candidates = (rights, mids, lefts) if reverse else (lefts, mids, rights)
    chosen = np.empty_like(mids)
    settled = np.zeros(mids.shape, dtype=bool)
    for candidate in candidates:
        alpha, beta = gauge.half_widths(candidate)
        ok = (~settled) & (candidate - alpha < lefts) & (rights < candidate + beta)
        chosen[ok] = candidate[ok]
        settled |= ok
    if not settled.all():
        raise ValueError("division is not sharp for this gauge")
    return TaggedDivision(points=division.points, tags=chosen)
