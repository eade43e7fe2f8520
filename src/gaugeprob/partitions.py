"""Tagged divisions and gauge-driven partition construction.

A tagged division of [a, b] is a strictly increasing point chain
a = x_0 < ... < x_n = b together with one tag per piece,
xi_i in [x_i, x_{i+1}].  It is sharp for a gauge when every closed piece
sits strictly inside the open gauge interval of its own tag.
"""

from __future__ import annotations

import logging
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

log = logging.getLogger("gaugeprob")


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


def _gamma(gauge: Gauge, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints t - alpha(t), t + beta(t) of gamma(t) for each point."""
    alpha, beta = gauge.half_widths(ts)
    return ts - alpha, ts + beta


def _end_reaches(ts, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Each point's reach as a piece endpoint, from gamma(t) = (lo, hi).

    A piece [u, t] fits gamma(t) iff left < u; a piece [t, v] fits it iff
    v < right.  Where t misses its own side of gamma(t), which rounding can
    bring about, the reach is +inf or -inf and no piece fits.
    """
    return np.where(ts < hi, lo, np.inf), np.where(lo < ts, hi, -np.inf)


def _take(index, *arrays):
    return tuple(a.take(index) for a in arrays)


def _halves(u, v, ru, rv, rank, depth: int, split: float):
    """The worklist entry of both halves of each rejected [u, v], in pairs
    [u, c], [c, v] with c = u + split * (v - u); c's reaches are left for
    the entry's taker to fill in."""
    cut = u + split * (v - u)
    size = 2 * u.size
    hu, hv, hru, hrv = (np.empty(size) for _ in range(4))
    hu[0::2], hu[1::2] = u, cut
    hv[0::2], hv[1::2] = cut, v
    hru[0::2], hrv[1::2] = ru, rv
    hrank = np.repeat(rank, 2)
    hrank[1::2] += 1 << depth
    return hu, hv, hru, hrv, hrank, depth + 1, True


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

    The recursion is evaluated as a vectorized worklist of blocks of at most
    ``_BLOCK`` subintervals at one depth: acceptance of one subinterval never
    depends on any other, so the result is identical to the sequential
    recursion, and deterministic for a given gauge.  The gauge is evaluated
    once per point: at both domain endpoints, at every subinterval's
    midpoint and at every cut point, whose gauge interval both halves then
    share.  That reuse relies on the gauge being pure (see ``Gauge``); it
    comes to 3 evaluations per piece.  A block keeps its subintervals in
    ascending order, so the division is a merge of sorted runs.

    Blocks are cut and taken in the order of a worklist that stores each
    block's left halves before its right halves; each subinterval carries
    its rank in that order.  That order decides which error a gauge meets
    first when it both collapses and demands too many pieces, and the
    ``t`` the depth-cap error names.  ``InvalidGaugeError`` names the first
    offending point in the order this kernel evaluates points.  One DEBUG
    record per division on the ``gaugeprob`` logger gives its pieces,
    deepest bisection and gauge points.
    """
    domain = Interval.coerce(domain)
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must be in (0, 1), got {split}")
    ends = np.array([domain.lower, domain.upper])
    left_reach, right_reach = _end_reaches(ends, *_gamma(gauge, ends))
    evaluated = ends.size
    # A worklist entry is (u, v, ru, rv, rank, depth, cuts_pending).  A
    # piece [u, v] fits gamma(u) iff v < ru, and gamma(v) iff rv < u.  The
    # rank orders one block's entries as the left-halves-first worklist
    # would; bit d - 1 set means "right half at depth d", so it needs
    # max_depth + 1 bits.  A freshly split block holds halves in pairs
    # [u, c], [c, v] whose shared cut c has not been evaluated yet: its
    # reaches fill ru[1::2] and rv[0::2] when the block is taken.
    rank_type = np.uint64 if max_depth < 64 else object
    stack = [(ends[:1], ends[1:], right_reach[:1], left_reach[1:],
              np.zeros(1, dtype=rank_type), 0, False)]
    acc_left: list[np.ndarray] = []
    acc_tag: list[np.ndarray] = []
    total = deepest = 0

    while stack:
        u, v, ru, rv, rank, depth, pending = stack.pop()
        if depth > max_depth:
            t_stuck = float(u[np.argmin(rank)])
            raise PartitionDepthError(
                f"no sharp piece after {max_depth} bisections near t={t_stuck!r}; "
                "gauge evaluator looks pathological"
            )
        if u.size > _BLOCK:
            # Only the halves of a full block grow this large, so there are
            # two chunks.  By rank the first _BLOCK are every left half and
            # the lowest-ranked right halves.
            cut = v[0::2]
            rv[0::2], ru[1::2] = _end_reaches(cut, *_gamma(gauge, cut))
            evaluated += cut.size
            k = _BLOCK - cut.size
            first = rank < np.partition(rank[1::2], k)[k]
            for pick in (first, ~first):
                stack.append((*_take(np.flatnonzero(pick), u, v, ru, rv, rank),
                              depth, False))
            continue
        deepest = max(deepest, depth)
        mid = 0.5 * (u + v)
        if pending:
            cut = v[0::2]
            lo, hi = _gamma(gauge, np.concatenate([cut, mid]))
            rv[0::2], ru[1::2] = _end_reaches(cut, lo[:cut.size], hi[:cut.size])
            lo, hi = lo[cut.size:], hi[cut.size:]
            evaluated += cut.size
        else:
            lo, hi = _gamma(gauge, mid)
        evaluated += mid.size
        ok_u = v < ru
        ok_mid = (lo < u) & (v < hi)
        accepted = ok_u | ok_mid | (rv < u)
        keep = np.flatnonzero(accepted)
        if keep.size:
            tag = np.where(ok_mid, mid, v)
            np.copyto(tag, u, where=ok_u)
            acc_left.append(u.take(keep))
            acc_tag.append(tag.take(keep))
        total += int(u.size)
        if total > max_pieces:
            raise PartitionDepthError(
                f"gauge demands more than {max_pieces} pieces; "
                "refine less aggressively or supply a coarser gauge family"
            )
        again = np.flatnonzero(~accepted)
        if again.size:
            stack.append(_halves(*_take(again, u, v, ru, rv, rank), depth, split))

    # The accepted pieces tile the domain, so the last one ends at its upper
    # end; the lefts are distinct wherever the division is valid.
    lefts = np.concatenate(acc_left)
    order = np.argsort(lefts, kind="stable")
    tags = np.concatenate(acc_tag)[order]
    log.debug("division: %d pieces, deepest bisection %d, %d gauge points",
              tags.size, deepest, evaluated)
    return TaggedDivision(points=np.append(lefts[order], ends[1]), tags=tags)

