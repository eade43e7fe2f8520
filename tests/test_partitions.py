import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeprob import (
    Gauge,
    Interval,
    PartitionDepthError,
    TaggedDivision,
    constant_gauge,
    cousin_partition,
    gauge_from_delta,
    gauge_intersection,
    is_sharp,
)
from gaugeprob import catalog
from gaugeprob.partitions import _BLOCK, DEFAULT_MAX_DEPTH, DEFAULT_MAX_PIECES

from conftest import simple_gauges

UNIT = Interval(0.0, 1.0)


class TestTaggedDivision:
    def test_basic_properties(self):
        d = TaggedDivision(points=np.array([0.0, 0.5, 1.0]),
                           tags=np.array([0.25, 0.75]))
        assert d.pieces == 2
        assert d.mesh == 0.5
        assert d.domain == UNIT

    def test_mesh_uses_largest_piece(self):
        d = TaggedDivision(points=np.array([0.0, 0.1, 1.0]),
                           tags=np.array([0.0, 0.5]))
        assert d.mesh == pytest.approx(0.9)

    def test_rejects_non_increasing_points(self):
        with pytest.raises(ValueError):
            TaggedDivision(points=np.array([0.0, 0.5, 0.5]),
                           tags=np.array([0.2, 0.5]))

    def test_rejects_tag_outside_piece(self):
        with pytest.raises(ValueError):
            TaggedDivision(points=np.array([0.0, 0.5, 1.0]),
                           tags=np.array([0.6, 0.75]))

    def test_rejects_wrong_tag_count(self):
        with pytest.raises(ValueError):
            TaggedDivision(points=np.array([0.0, 1.0]),
                           tags=np.array([0.2, 0.4]))

    def test_tags_may_sit_on_endpoints(self):
        d = TaggedDivision(points=np.array([0.0, 0.5, 1.0]),
                           tags=np.array([0.0, 1.0]))
        assert d.pieces == 2

    def test_immutable_arrays(self):
        d = TaggedDivision(points=np.array([0.0, 1.0]), tags=np.array([0.5]))
        with pytest.raises(ValueError):
            d.points[0] = 3.0


class TestIsSharp:
    def test_wide_piece_not_sharp(self):
        d = TaggedDivision(points=np.array([0.0, 1.0]), tags=np.array([0.5]))
        assert not is_sharp(d, gauge_from_delta(lambda t: 0.2))

    def test_small_piece_sharp(self):
        d = TaggedDivision(points=np.array([0.0, 0.1]), tags=np.array([0.05]))
        assert is_sharp(d, gauge_from_delta(lambda t: 0.2))

    def test_strict_at_boundary(self):
        # piece exactly filling the closure of gamma(tag) is not inside the
        # open interval
        g = Gauge(width=lambda t: (0.5, 0.5))
        d = TaggedDivision(points=np.array([0.0, 1.0]), tags=np.array([0.5]))
        assert not is_sharp(d, g)


class TestCousinPartition:
    def test_constant_gauge_sharp_and_fine(self):
        g = gauge_from_delta(lambda ts: np.full(ts.shape, 0.4))
        d = cousin_partition(g, UNIT)
        assert is_sharp(d, g)
        assert d.mesh < 0.4
        assert d.points[0] == 0.0 and d.points[-1] == 1.0

    def test_shrinking_gauge_finer_near_origin(self):
        def width(ts):
            h = ts / 2.0 + 0.01
            return h, h

        g = Gauge(width=width)
        d = cousin_partition(g, UNIT)
        assert is_sharp(d, g)
        widths = d.widths
        assert widths[0] < widths[-1]
        assert np.max(widths[d.lefts < 0.05]) < np.min(widths[d.lefts >= 0.5])

    def test_deterministic(self):
        g = gauge_from_delta(lambda t: 0.1 + t / 3.0)
        d1 = cousin_partition(g, UNIT)
        d2 = cousin_partition(g, UNIT)
        assert np.array_equal(d1.points, d2.points)
        assert np.array_equal(d1.tags, d2.tags)

    def test_covers_domain_without_gaps(self):
        g = constant_gauge(0.3)
        d = cousin_partition(g, Interval(-1.0, 2.0))
        assert d.points[0] == -1.0 and d.points[-1] == 2.0
        assert np.all(np.diff(d.points) > 0)

    def test_depth_cap_raises(self):
        # width collapses around an interior point: no sharp piece can
        # straddle it, and pieces near it shrink forever
        def width(ts):
            h = np.maximum(np.abs(ts - 0.3), 1e-300) / 8.0
            return h, h

        g = Gauge(width=width)
        with pytest.raises(PartitionDepthError):
            cousin_partition(g, UNIT)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            cousin_partition(constant_gauge(0.5), UNIT, split=1.0)

    def test_off_center_split_still_sharp(self):
        g = gauge_from_delta(lambda t: 0.2 + t / 2.0)
        d = cousin_partition(g, UNIT, split=0.45)
        d_mid = cousin_partition(g, UNIT)
        assert is_sharp(d, g)
        assert not np.array_equal(d.points, d_mid.points)

    @settings(max_examples=30)
    @given(simple_gauges())
    def test_output_always_sharp(self, g):
        d = cousin_partition(g, UNIT)
        assert is_sharp(d, g)


def _collapsing_gauge(at=0.3):
    """Widths collapse near ``at``: pieces around it shrink forever."""
    def width(ts):
        h = np.maximum(np.abs(ts - at), 1e-300) / 8.0
        return h, h

    return Gauge(width=width)


def _outcome(build):
    """A division's points and tags, or the type and text of its error."""
    try:
        division = build()
    except Exception as exc:  # the error itself is what gets compared
        return type(exc), str(exc)
    return division.points, division.tags


def _assert_same(gauge, domain=UNIT, **options):
    expected = _outcome(lambda: _reference_cousin_partition(gauge, domain,
                                                            **options))
    got = _outcome(lambda: cousin_partition(gauge, domain, **options))
    if isinstance(expected[0], type):
        assert got == expected
    else:
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


_FAMILY_LEVELS = [(name, level) for name in catalog.gauge_family_ids()
                  for level in range(2 if name.startswith("osc-singular")
                                     else 4)]


class TestKernelBitForBit:
    """The kernel against a verbatim copy of the one it replaced, which
    evaluated every endpoint again at each depth and sorted at the end."""

    @pytest.mark.parametrize("split", [0.5, 0.45])
    @pytest.mark.parametrize("name, level", _FAMILY_LEVELS)
    def test_catalog_families(self, name, level, split):
        _assert_same(catalog.gauge_family(name, UNIT)(level), split=split)

    @settings(max_examples=40)
    @given(simple_gauges(), st.floats(min_value=0.1, max_value=0.9))
    def test_simple_gauges(self, g, split):
        _assert_same(g, split=split)
        _assert_same(g, Interval(-1.0, 2.0), split=split)

    @pytest.mark.parametrize("max_depth", [20, DEFAULT_MAX_DEPTH, 70])
    def test_depth_cap_error(self, max_depth):
        # Dozens of pieces reach the cap at once; the error names the one
        # the replaced kernel held first, which is not the leftmost.
        _assert_same(_collapsing_gauge(), max_depth=max_depth)
        with pytest.raises(PartitionDepthError, match=r"near t=0\.3000030517578125;"):
            cousin_partition(_collapsing_gauge(), UNIT, max_depth=20)

    @pytest.mark.parametrize("max_pieces", [50, 500, 5000])
    def test_piece_ceiling_error(self, max_pieces):
        # 5000 pieces are not reached before the depth cap is.
        _assert_same(_collapsing_gauge(), max_pieces=max_pieces)
        _assert_same(gauge_from_delta(lambda ts: 1e-3 + 0.0 * ts),
                     max_pieces=max_pieces)

    def test_blocks_cut_in_two(self):
        # All 2 * _BLOCK halves at depth 20 are taken in two chunks.
        _assert_same(constant_gauge(0.75 / _BLOCK))

    @pytest.mark.parametrize("max_pieces", [2_098_912, 2_098_913])
    def test_cut_blocks_taken_in_order(self, max_pieces):
        # Blocks are cut in two at depth 20, and the depth cap is reached
        # once 2_098_913 pieces have been tested: one piece fewer trips the
        # ceiling first, but only if the chunks are taken in the same order.
        g = gauge_intersection(_collapsing_gauge(),
                               constant_gauge(0.75 / _BLOCK))
        _assert_same(g, max_pieces=max_pieces)


def _counting(gauge):
    """``gauge`` with a width that records how many points it is given."""
    seen = []

    def width(ts):
        seen.append(np.size(ts))
        return gauge.width(ts)

    return Gauge(width=width), seen


class TestGaugeEvaluations:
    def test_osc_singular_three_points_per_piece(self):
        g, seen = _counting(catalog.gauge_family("osc-singular", UNIT)(0))
        d = cousin_partition(g, UNIT)
        assert sum(seen) <= 3 * d.pieces

    @settings(max_examples=30)
    @given(simple_gauges(), st.floats(min_value=0.1, max_value=0.9))
    def test_simple_gauges_three_points_per_piece(self, gauge, split):
        g, seen = _counting(gauge)
        d = cousin_partition(g, UNIT, split=split)
        assert sum(seen) <= 3 * d.pieces

    def test_one_debug_record_per_division(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gaugeprob"):
            d = cousin_partition(constant_gauge(0.3), UNIT)
        assert d.pieces == 4
        assert [r.getMessage() for r in caplog.records] == [
            "division: 4 pieces, deepest bisection 2, 12 gauge points"]


# The kernel before endpoint reuse, kept verbatim as the reference above.
def _reference_cousin_partition(gauge: Gauge, domain: Interval,
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
