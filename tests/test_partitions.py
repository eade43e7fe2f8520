import numpy as np
import pytest
from hypothesis import given, settings

from gaugeprob import (
    Gauge,
    Interval,
    PartitionDepthError,
    TaggedDivision,
    constant_gauge,
    cousin_partition,
    gauge_from_delta,
    is_sharp,
)
from gaugeprob.partitions import repick_tags

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


class TestRepickTags:
    def test_same_pieces_sharp_tags(self):
        g = gauge_from_delta(lambda t: 0.11 + t / 2.0)
        d = cousin_partition(g, UNIT)
        d2 = repick_tags(d, g)
        assert np.array_equal(d.points, d2.points)
        assert is_sharp(d2, g)

    def test_rejects_non_sharp_division(self):
        d = TaggedDivision(points=np.array([0.0, 1.0]), tags=np.array([0.5]))
        with pytest.raises(ValueError):
            repick_tags(d, gauge_from_delta(lambda t: 0.1))
