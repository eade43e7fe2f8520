"""Tagged divisions and gauge-driven partition construction.

A tagged division of [a, b] is a strictly increasing point chain
a = x_0 < ... < x_n = b together with one tag per piece,
xi_i in [x_i, x_{i+1}].  It is sharp for a gauge when every closed piece
sits strictly inside the open gauge interval of its own tag.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import PartitionDepthError
from .gauges import Gauge, Interval

# Frontier chunk size for the vectorized bisection; keeps peak memory flat
# even when a singular gauge forces millions of pieces.
_BLOCK = 1 << 19

DEFAULT_MAX_DEPTH = 60

# Hard ceiling on the bisection nodes behind one division (2n - 1 for n
# pieces): a gauge demanding more than this is beyond what the process can
# hold, so fail cleanly instead of thrashing.
DEFAULT_MAX_PIECES = 20_000_000

# A division expected to hold at least this many pieces is built as _GROUPS
# ordered groups of subtrees, drained on the pool below.  A build from the
# domain expands its tree serially to depth _FRONTIER_DEPTH first, and
# estimates each open node's pieces there; a refinement counts its parent's.
_GROUP_PIECES = 1 << 17
_GROUPS = 8
_FRONTIER_DEPTH = 12

log = logging.getLogger("gaugeprob")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# One pool of _WORKERS threads, created on first use, serves bisection
# groups, integrand blocks and pathwise column blocks.  Work running on a
# pool thread hands nothing to the pool, so no pool thread waits on another.
_WORKERS = min(2, _usable_cpus())
_pool = None
_pool_thread = threading.local()


def _forget_pool() -> None:
    # A forked child has none of the pool's threads; it makes its own.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _mark_pool_thread() -> None:
    _pool_thread.marked = True


def _pool_workers() -> int:
    """The threads a call may keep busy: _WORKERS, or 1 on a pool thread."""
    return 1 if getattr(_pool_thread, "marked", False) else _WORKERS


def _executor():
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(_WORKERS,
                                   thread_name_prefix="gaugeprob-blocks",
                                   initializer=_mark_pool_thread)
    return _pool


def _run_shared(task, count: int) -> list:
    """[task(0), ..., task(count - 1)], each called once, on the calling
    thread and up to _pool_workers() - 1 pool threads, each thread taking
    the next index as it comes free.  Once one call raises, no thread takes
    another index; when every call begun has ended, the exception of the
    lowest index that raised is raised here.  Pool threads run under the
    calling thread's NumPy error state."""
    results, errors, ended = [None] * count, {}, []
    indices, lock = iter(range(count)), threading.Lock()
    state = np.geterr()

    def loop():
        while True:
            with lock:
                index = None if errors or ended else next(indices, None)
            if index is None:
                return
            try:
                results[index] = task(index)
            except Exception as exc:
                with lock:
                    errors[index] = exc

    def helper():
        with np.errstate(**state):
            loop()

    helpers = [_executor().submit(helper)
               for _ in range(min(_pool_workers(), count) - 1)]
    begun = []
    try:
        loop()
    finally:
        ended.append(True)
        if helpers:
            from concurrent.futures import wait
            begun = [future for future in helpers if not future.cancel()]
            wait(begun)
    for future in begun:
        future.result()  # what escaped a loop, such as SystemExit
    if errors:
        try:
            raise errors[min(errors)]
        finally:
            # The error's traceback holds this frame and the loops' frames,
            # which hold ``errors``: emptied, and with no local naming the
            # error, it is no reference cycle, and the results and the
            # task's data go with it instead of at the next collection.
            errors.clear()
    return results


@dataclass(frozen=True, eq=False)
class TaggedDivision:
    """Immutable division: ``points`` (n+1 floats) and ``tags`` (n floats).

    ``depths`` (n unsigned integers, uint8 by default) holds each piece's
    bisection depth when :func:`cousin_partition` built the division, and
    is None on a division built by hand.
    """

    points: np.ndarray
    tags: np.ndarray
    depths: np.ndarray | None = None

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
        if self.depths is not None:
            depths = np.ascontiguousarray(self.depths)
            if depths.shape != tags.shape:
                raise ValueError("need exactly one depth per piece")
            depths.setflags(write=False)
            object.__setattr__(self, "depths", depths)

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


def _seeds(gauge: Gauge, points, depths, rank_type):
    """The leaves of a bisection tree, given by their ``points`` and
    ``depths``, as worklist batches of at most ``_BLOCK`` leaves, with the
    number of gauge points each batch evaluated.  A batch holds one block
    per depth; a leaf's rank is its index in its block, below 2^depth since
    no depth holds more nodes."""
    for start in range(0, depths.size, _BLOCK):
        chunk = points[start:start + _BLOCK + 1]
        left_reach, right_reach = _end_reaches(chunk, *_gamma(gauge, chunk))
        chunk_depths = depths[start:start + _BLOCK]
        order = np.argsort(chunk_depths, kind="stable")
        cuts = np.flatnonzero(np.diff(chunk_depths.take(order))) + 1
        batch = []
        for group in np.split(order, cuts):
            batch.append((chunk.take(group), chunk.take(group + 1),
                          right_reach.take(group), left_reach.take(group + 1),
                          np.arange(group.size, dtype=rank_type),
                          int(chunk_depths[group[0]]), False))
        yield batch, chunk.size


def cousin_partition(gauge: Gauge, domain: Interval,
                     max_depth: int = DEFAULT_MAX_DEPTH,
                     split: float = 0.5,
                     max_pieces: int = DEFAULT_MAX_PIECES,
                     parent: TaggedDivision | None = None) -> TaggedDivision:
    """Build a sharp tagged division for ``gauge`` by recursive bisection.

    Each subinterval [u, v] is accepted as soon as one of the candidate tags
    u, (u+v)/2, v (checked in that fixed order) satisfies
    [u, v] subset gamma(tag); otherwise it is split at
    u + split * (v - u) and both parts are retried.  Compactness guarantees
    termination for any genuine gauge; the depth cap converts a pathological
    evaluator (widths collapsing to zero at a point of the domain) into a
    clean error.  ``max_pieces`` caps the bisection nodes visited, accepted
    or split; a division of n pieces has 2n - 1 of them.

    ``split`` must lie in (0, 1); values other than 0.5 draw a different
    sharp division for the same gauge, which is how verification samples
    the space of sharp divisions deterministically.

    The division records each piece's bisection depth in ``depths``.  A
    ``parent``, built by this kernel on the same domain with the same
    ``split``, for a gauge whose every gamma(t) contains this gauge's,
    turns the build into a refinement: a piece the parent split is split
    here too, so the bisection tree grows from the parent's leaves instead
    of from the domain, and the division is the one a rebuild gives.  Its
    ``pieces - 1`` inner nodes are charged to ``max_pieces`` first, so the
    ceiling counts the rebuild's nodes.  If a refinement raises, the
    division is built again from the domain, so an error is the rebuild's,
    named ``t`` included.  A refinement evaluates the gauge only at and
    below the parent's leaves, so a width that is invalid only at points
    above them goes unseen.

    The recursion is evaluated as a vectorized worklist of blocks of at most
    ``_BLOCK`` subintervals at one depth: acceptance of one subinterval never
    depends on any other, so the result is identical to the sequential
    recursion, and deterministic for a given gauge.  The gauge is evaluated
    once per point: at both domain endpoints, at every subinterval's
    midpoint and at every cut point, whose gauge interval both halves then
    share.  That reuse relies on the gauge being pure (see ``Gauge``); it
    comes to 3 evaluations per piece.  A refinement evaluates the parent's
    points instead of the domain endpoints, one chunk of ``_BLOCK`` leaves
    at a time (the point two chunks share in both), and drains the worklist
    after each chunk.  A block keeps its subintervals in ascending order, so the
    division is a merge of sorted runs.

    Blocks are cut and taken in the order of a worklist that stores each
    block's left halves before its right halves; each subinterval carries
    its rank in that order.  That order decides which error a gauge meets
    first when it both collapses and demands too many pieces, and the
    ``t`` the depth-cap error names.  ``InvalidGaugeError`` names the first
    offending point in the order this kernel evaluates points.  One DEBUG
    record per division on the ``gaugeprob`` logger gives its pieces,
    deepest bisection and gauge points.

    With two pool threads (see ``_WORKERS``), a division expected to hold
    ``_GROUP_PIECES`` pieces or more is drained as ``_GROUPS`` ordered
    groups of subtrees, by the calling thread and a pool thread at once, so
    the gauge's width function runs on two threads (see ``Gauge``).  A
    refinement cuts its parent's leaves into groups of equal count, each
    evaluating its own leaves' points; a build from the domain bisects
    serially to depth ``_FRONTIER_DEPTH``, then cuts the subintervals still
    open into groups of about equal estimated pieces, width over
    min(alpha, beta) at the midpoint.  Each group sorts its own pieces, and
    the groups' pieces in domain order are the serial build's division:
    points, tags and depths.  If any group raises, or the groups' nodes
    together pass ``max_pieces``, the groups are dropped: a build from the
    domain goes on serially from its frontier, and a refinement is rebuilt
    serially from the domain.  So every error, its text and its ``t`` are
    the serial build's, and no result depends on the CPU count.  The DEBUG
    record counts every group's gauge points.
    """
    domain = Interval.coerce(domain)
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must be in (0, 1), got {split}")
    grouped = _pool_workers() > 1
    if parent is not None:
        if parent.depths is None:
            raise ValueError("a parent division must come from cousin_partition")
        if parent.domain != domain:
            raise ValueError(f"parent divides {parent.domain}, not {domain}")
        try:
            if grouped and parent.pieces >= _GROUP_PIECES:
                division = _refine_in_groups(gauge, max_depth, split,
                                             max_pieces, parent)
            else:
                division = _bisect(gauge, domain, max_depth, split,
                                   max_pieces, parent)
        except Exception:
            division = None
        if division is not None:
            return division
        # Any error, the width function's own included: the refinement
        # visited a subset of the rebuild's nodes and points, and the
        # ceiling counts as many nodes, so the rebuild below raises too,
        # and raises what it always has.
        grouped = False
    return _bisect(gauge, domain, max_depth, split, max_pieces, None, grouped)


class _Abandoned(Exception):
    """Raised in a group once another group of the same build has failed."""


class _Nodes:
    """The bisection nodes one build has visited, against ``max_pieces``;
    the groups of a build share one."""

    def __init__(self, count: int, ceiling: int):
        self.count, self.ceiling, self.abandoned = count, ceiling, False
        self.lock = threading.Lock()

    def charge(self, nodes: int) -> None:
        with self.lock:
            self.count += nodes
            over = self.count > self.ceiling
        if self.abandoned:
            raise _Abandoned
        if over:
            raise PartitionDepthError(
                f"gauge demands more than {self.ceiling} pieces; "
                "refine less aggressively or supply a coarser gauge family"
            )


class _Tree:
    """The drain of one bisection worklist: its accepted pieces, the gauge
    points it evaluated and its deepest bisection."""

    def __init__(self, gauge: Gauge, max_depth: int, split: float,
                 nodes: _Nodes):
        self.gauge, self.max_depth, self.split, self.nodes = (
            gauge, max_depth, split, nodes)
        self.lefts, self.tags, self.depths = [], [], []
        self.evaluated = self.deepest = 0
        self.depth_type = np.min_scalar_type(max(max_depth, 0))
        # Depth after whose block drain() stops, when that block's halves
        # are all that is left open; they wait in ``open``.
        self.frontier, self.open = -1, None

    def drain(self, stack: list) -> None:
        # A worklist entry is (u, v, ru, rv, rank, depth, cuts_pending).  A
        # piece [u, v] fits gamma(u) iff v < ru, and gamma(v) iff rv < u.
        # The rank orders one block's entries as the left-halves-first
        # worklist would; bit d - 1 set means "right half at depth d", so it
        # needs max_depth + 1 bits.  A freshly split block holds halves in
        # pairs [u, c], [c, v] whose shared cut c has not been evaluated yet:
        # its reaches fill ru[1::2] and rv[0::2] when the block is taken.
        gauge, max_depth = self.gauge, self.max_depth
        while stack:
            u, v, ru, rv, rank, depth, pending = stack.pop()
            if depth > max_depth:
                t_stuck = float(u[np.argmin(rank)])
                raise PartitionDepthError(
                    f"no sharp piece after {max_depth} bisections near t={t_stuck!r}; "
                    "gauge evaluator looks pathological"
                )
            if u.size > _BLOCK:
                # Only the halves of a full block grow this large, so there
                # are two chunks.  By rank the first _BLOCK are every left
                # half and the lowest-ranked right halves.
                cut = v[0::2]
                rv[0::2], ru[1::2] = _end_reaches(cut, *_gamma(gauge, cut))
                self.evaluated += cut.size
                k = _BLOCK - cut.size
                first = rank < np.partition(rank[1::2], k)[k]
                for pick in (first, ~first):
                    stack.append((*_take(np.flatnonzero(pick), u, v, ru, rv,
                                         rank), depth, False))
                continue
            self.deepest = max(self.deepest, depth)
            mid = 0.5 * (u + v)
            if pending:
                cut = v[0::2]
                lo, hi = _gamma(gauge, np.concatenate([cut, mid]))
                rv[0::2], ru[1::2] = _end_reaches(cut, lo[:cut.size],
                                                  hi[:cut.size])
                lo, hi = lo[cut.size:], hi[cut.size:]
                self.evaluated += cut.size
            else:
                lo, hi = _gamma(gauge, mid)
            self.evaluated += mid.size
            ok_u = v < ru
            ok_mid = (lo < u) & (v < hi)
            accepted = ok_u | ok_mid | (rv < u)
            keep = np.flatnonzero(accepted)
            if keep.size:
                tag = np.where(ok_mid, mid, v)
                np.copyto(tag, u, where=ok_u)
                self.lefts.append(u.take(keep))
                self.tags.append(tag.take(keep))
                self.depths.append(np.full(keep.size, depth,
                                           dtype=self.depth_type))
            self.nodes.charge(int(u.size))
            again = np.flatnonzero(~accepted)
            if again.size:
                halves = _halves(*_take(again, u, v, ru, rv, rank), depth,
                                 self.split)
                if depth == self.frontier and not stack:
                    # Each open node's pieces, estimated as its width over
                    # min(alpha, beta) at its midpoint.
                    with np.errstate(divide="ignore", invalid="ignore"):
                        estimate = (v - u).take(again) / np.minimum(
                            mid - lo, hi - mid).take(again)
                    self.open = halves, estimate
                    return
                stack.append(halves)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The accepted pieces' lefts, tags and depths, in the order found."""
        return (np.concatenate([*self.lefts, np.empty(0)]),
                np.concatenate([*self.tags, np.empty(0)]),
                np.concatenate([*self.depths, np.empty(0, self.depth_type)]))

    def pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columns sorted by left (the lefts are distinct wherever the
        division is valid); the tree lets go of its own lists."""
        lefts, tags, depths = self.columns()
        self.lefts = self.tags = self.depths = None
        order = np.argsort(lefts, kind="stable")
        return lefts.take(order), tags.take(order), depths.take(order)


def _bisect(gauge: Gauge, domain: Interval, max_depth: int, split: float,
            max_pieces: int, parent: TaggedDivision | None,
            grouped: bool = False) -> TaggedDivision:
    rank_type = np.uint64 if max_depth < 64 else object
    if parent is None:  # one leaf: the domain at depth 0
        points = np.array([domain.lower, domain.upper])
        depths = np.zeros(1, dtype=np.uint8)
    else:
        points, depths = parent.points, parent.depths
    # The tree's inner nodes so far are charged first.
    tree = _Tree(gauge, max_depth, split, _Nodes(depths.size - 1, max_pieces))
    if grouped:
        tree.frontier = _FRONTIER_DEPTH
    for stack, seeded in _seeds(gauge, points, depths, rank_type):
        tree.evaluated += seeded
        tree.drain(stack)
        if tree.open is not None:  # from the domain, so the only batch
            division = _frontier_in_groups(tree, domain.upper)
            if division is not None:
                return division
            stack, tree.frontier, tree.open = [tree.open[0]], -1, None
            tree.drain(stack)

    # The accepted pieces tile the domain, so the last one ends at its upper
    # end.
    lefts, tags, depths = tree.pieces()
    log.debug("division: %d pieces, deepest bisection %d, %d gauge points",
              tags.size, tree.deepest, tree.evaluated)
    return TaggedDivision(points=np.append(lefts, domain.upper),
                          tags=tags, depths=depths)


def _frontier_in_groups(tree: _Tree, upper: float) -> TaggedDivision | None:
    """The division that draining ``tree``'s open halves would finish,
    drained in groups of about equal estimated pieces, each group with the
    tree's pieces that lie in its span; None, and the tree as it was, when
    the estimate is below _GROUP_PIECES or a group fails."""
    halves, estimate = tree.open
    total = np.cumsum(estimate)
    if not total[-1] >= _GROUP_PIECES:  # NaN too
        return None
    # Group ends, counted in open nodes; node i's halves are entries 2i, 2i+1.
    ends = np.searchsorted(total, total[-1] * np.arange(1, _GROUPS) / _GROUPS
                           ) + 1
    ends = np.unique(np.append(ends[ends < estimate.size], estimate.size))
    starts = np.append(0, ends[:-1])
    lefts, tags, depths = tree.columns()
    owner = np.searchsorted(halves[0].take(2 * starts[1:]), lefts, side="right")
    nodes = _Nodes(tree.nodes.count, tree.nodes.ceiling)
    groups = []
    for index, (start, end) in enumerate(zip(2 * starts, 2 * ends)):
        group = _Tree(tree.gauge, tree.max_depth, tree.split, nodes)
        mine = owner == index
        group.lefts, group.tags, group.depths = ([lefts[mine]], [tags[mine]],
                                                 [depths[mine]])
        entry = (*(a[start:end].copy() for a in halves[:5]), *halves[5:])
        groups.append((group, [([entry], 0)]))
    return _in_groups(groups, nodes, upper, tree.evaluated, tree.deepest)


def _refine_in_groups(gauge: Gauge, max_depth: int, split: float,
                      max_pieces: int, parent: TaggedDivision
                      ) -> TaggedDivision | None:
    """The refinement of ``parent``, its leaves cut into groups of equal
    count that each seed and drain their own; None when a group fails."""
    rank_type = np.uint64 if max_depth < 64 else object
    nodes = _Nodes(parent.pieces - 1, max_pieces)
    bounds = np.arange(_GROUPS + 1) * parent.pieces // _GROUPS
    groups = [(_Tree(gauge, max_depth, split, nodes),
               _seeds(gauge, parent.points[start:end + 1],
                      parent.depths[start:end], rank_type))
              for start, end in zip(bounds[:-1], bounds[1:]) if end > start]
    return _in_groups(groups, nodes, parent.domain.upper)


def _in_groups(groups, nodes: _Nodes, upper: float, evaluated: int = 0,
               deepest: int = 0) -> TaggedDivision | None:
    """The division whose pieces are those of ``groups``, (tree, batches)
    pairs in domain order whose tree drains each of its batches, (stack,
    gauge points seeded) pairs, on the pool; None when a group raises or
    ``nodes`` passes its ceiling, which stops the other groups."""
    def drain(index):
        tree, batches = groups[index]
        try:
            for stack, seeded in batches:
                tree.evaluated += seeded
                tree.drain(stack)
        except Exception:
            nodes.abandoned = True
            raise
        return tree.pieces()

    try:
        parts = _run_shared(drain, len(groups))
    except Exception:
        return None
    evaluated += sum(tree.evaluated for tree, _ in groups)
    deepest = max(deepest, *(tree.deepest for tree, _ in groups))
    # Each group's columns are copied into the division's and let go of
    # one column at a time; no sort spans the whole division.
    lefts, tags, depths = (list(column) for column in zip(*parts))
    del parts
    points = np.concatenate([*lefts, [upper]])
    del lefts
    tags, depths = np.concatenate(tags), np.concatenate(depths)
    log.debug("division: %d pieces, deepest bisection %d, %d gauge points",
              tags.size, deepest, evaluated)
    return TaggedDivision(points=points, tags=tags, depths=depths)
