import gc
import logging
import multiprocessing
import os
import sys
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gaugeprob import (
    Gauge,
    Interval,
    InvalidGaugeError,
    PartitionDepthError,
    TaggedDivision,
    constant_gauge,
    cousin_partition,
    gauge_from_delta,
    gauge_intersection,
    is_sharp,
)
from gaugeprob import catalog, partitions
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
    """A division's points, tags and depths, or the type and text of its
    error."""
    try:
        division = build()
    except Exception as exc:  # the error itself is what gets compared
        return type(exc), str(exc)
    return division.points, division.tags, division.depths


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


# Levels at which refinement is checked against a rebuild; the singular
# families stop where a division reaches 4-6 million pieces.
_REFINED_LEVELS = {"osc-singular": 3, "osc-singular-fine": 2,
                   "uniform": 12, "uniform-2/3": 10,
                   "indicator-pinch": 12, "indicator-pinch-alt": 12}


def _refined_outcome(gauges, domain=UNIT, split=0.5, **limits):
    """Build gauges[:-1] in a chain of refinements, then the outcome of
    refining the last under ``limits``."""
    parent = cousin_partition(gauges[0], domain, split=split)
    for gauge in gauges[1:-1]:
        parent = cousin_partition(gauge, domain, split=split, parent=parent)
    return _outcome(lambda: cousin_partition(gauges[-1], domain, split=split,
                                             parent=parent, **limits))


def _assert_same_outcome(got, expected):
    if isinstance(expected[0], type):
        assert got == expected
    else:
        for a, b in zip(got, expected, strict=True):
            assert np.array_equal(a, b)


@st.composite
def nested_families(draw, levels=3):
    """``levels`` gauges, each of whose half widths are at most the one
    before's: constant, affine or asymmetric, with widths drawn sorted."""
    kind = draw(st.sampled_from(["constant", "affine", "asymmetric"]))

    def shrinking(lo, hi):
        return sorted(draw(st.lists(st.floats(min_value=lo, max_value=hi),
                                    min_size=levels, max_size=levels)),
                      reverse=True)

    if kind == "constant":
        return [constant_gauge(w) for w in shrinking(0.02, 1.5)]
    if kind == "affine":
        return [gauge_from_delta(lambda ts, lo=lo, slope=slope:
                                 lo + slope * np.abs(ts))
                for lo, slope in zip(shrinking(0.02, 0.3),
                                     shrinking(0.0, 1.0))]
    return [Gauge(width=lambda ts, a=a, b=b: (a, b))
            for a, b in zip(shrinking(0.02, 0.8), shrinking(0.02, 0.8))]


class TestRefinement:
    """A division refined from the previous level's equals the rebuild, in
    points, tags and depths, or raises the rebuild's error."""

    @pytest.mark.parametrize("name", sorted(_REFINED_LEVELS))
    def test_catalog_families(self, name):
        family = catalog.gauge_family(name, UNIT)
        assert family.nested
        splits = [0.5] if name.startswith("osc-singular") else [0.5, 0.45]
        for split in splits:
            parent = cousin_partition(family(0), UNIT, split=split)
            for level in range(1, _REFINED_LEVELS[name] + 1):
                refined = cousin_partition(family(level), UNIT, split=split,
                                           parent=parent)
                rebuilt = cousin_partition(family(level), UNIT, split=split)
                assert np.array_equal(refined.points, rebuilt.points)
                assert np.array_equal(refined.tags, rebuilt.tags)
                assert np.array_equal(refined.depths, rebuilt.depths)
                parent = refined
                del rebuilt  # held through the next level's builds otherwise

    @settings(max_examples=40)
    @given(nested_families(), st.floats(min_value=0.1, max_value=0.9))
    def test_nested_families(self, gauges, split):
        for domain in (UNIT, Interval(-1.0, 2.0)):
            _assert_same_outcome(
                _refined_outcome(gauges, domain, split=split),
                _outcome(lambda: cousin_partition(gauges[-1], domain,
                                                  split=split)))

    @settings(max_examples=30)
    @given(nested_families(levels=2), st.floats(min_value=0.05, max_value=0.95),
           st.sampled_from([20, DEFAULT_MAX_DEPTH]),
           st.sampled_from([300, 3000, DEFAULT_MAX_PIECES]))
    def test_collapsing_intersections(self, gauges, at, max_depth, max_pieces):
        # Level 1 meets a width that collapses at ``at``: the refinement
        # and the rebuild raise the same error, whichever comes first.
        gauges[-1] = gauge_intersection(gauges[-1], _collapsing_gauge(at))
        for domain in (UNIT, Interval(-1.0, 2.0)):
            options = dict(max_depth=max_depth, max_pieces=max_pieces)
            _assert_same_outcome(
                _refined_outcome(gauges, domain, **options),
                _outcome(lambda: cousin_partition(gauges[-1], domain,
                                                  **options)))

    @pytest.mark.parametrize("max_depth", [10, 20, DEFAULT_MAX_DEPTH])
    def test_depth_cap_names_the_rebuilds_t(self, max_depth):
        # Widths collapse at 0.2 and 0.5.  The refinement meets 0.2 first,
        # the rebuild 0.5, and the error names 0.5.
        collapsing = gauge_intersection(_collapsing_gauge(0.2),
                                        _collapsing_gauge(0.5))
        gauges = [gauge_from_delta(lambda ts: 0.2 + 0.5 * ts),
                  gauge_intersection(
                      gauge_from_delta(lambda ts: 0.1 + 0.25 * ts),
                      collapsing)]
        got = _refined_outcome(gauges, max_depth=max_depth)
        assert got == _outcome(lambda: cousin_partition(
            gauges[1], UNIT, max_depth=max_depth))
        assert got[0] is PartitionDepthError
        assert "near t=0.5" in got[1]

    def test_ceiling_at_the_node_count(self):
        # The ceiling counts the rebuild's 2n - 1 bisection nodes: the
        # parent's inner nodes are charged before the first block.
        gauges = [constant_gauge(0.3), constant_gauge(1e-3)]
        nodes = 2 * cousin_partition(gauges[1], UNIT).pieces - 1
        for max_pieces in (nodes, nodes - 1, 500):
            _assert_same_outcome(
                _refined_outcome(gauges, max_pieces=max_pieces),
                _outcome(lambda: cousin_partition(
                    gauges[1], UNIT, max_pieces=max_pieces)))
        assert _refined_outcome(gauges, max_pieces=nodes - 1) == (
            PartitionDepthError,
            f"gauge demands more than {nodes - 1} pieces; refine less "
            "aggressively or supply a coarser gauge family")

    def test_width_turning_non_positive(self):
        def width(ts):
            return np.where(ts > 0.6, -1.0, 0.05), 0.05

        gauges = [constant_gauge(0.3), Gauge(width=width)]
        got = _refined_outcome(gauges)
        assert got[0] is InvalidGaugeError
        assert got == _outcome(lambda: cousin_partition(gauges[1], UNIT))

    def test_depths(self):
        d = cousin_partition(constant_gauge(0.3), UNIT)
        assert d.depths.dtype == np.uint8
        assert d.depths.tolist() == [2, 2, 2, 2]
        assert not d.depths.flags.writeable
        assert TaggedDivision(points=np.array([0.0, 1.0]),
                              tags=np.array([0.5])).depths is None

    def test_parent_must_come_from_the_kernel_on_the_same_domain(self):
        by_hand = TaggedDivision(points=np.array([0.0, 1.0]),
                                 tags=np.array([0.5]))
        with pytest.raises(ValueError, match="from cousin_partition"):
            cousin_partition(constant_gauge(0.3), UNIT, parent=by_hand)
        other = cousin_partition(constant_gauge(0.3), Interval(0.0, 2.0))
        with pytest.raises(ValueError, match="parent divides"):
            cousin_partition(constant_gauge(0.3), UNIT, parent=other)

    def test_blocks_cut_in_two_below_a_parent(self):
        # A parent of more than _BLOCK leaves is seeded in two chunks, and
        # the halves of the first chunk's depth-19 block are taken in two.
        parent = cousin_partition(gauge_from_delta(
            lambda ts: np.where(ts < 1 / 16, 0.75, 1.5) / _BLOCK), UNIT)
        assert parent.pieces > _BLOCK
        assert np.count_nonzero(parent.depths[:_BLOCK] == 19) > _BLOCK // 2
        gauge = constant_gauge(0.75 / _BLOCK)
        refined = cousin_partition(gauge, UNIT, parent=parent)
        rebuilt = cousin_partition(gauge, UNIT)
        assert np.array_equal(refined.points, rebuilt.points)
        assert np.array_equal(refined.tags, rebuilt.tags)
        assert np.array_equal(refined.depths, rebuilt.depths)


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

    @pytest.mark.parametrize("refined", [False, True])
    def test_debug_count_is_the_points_evaluated(self, caplog, refined):
        # The level-0 parent's 2.2M pieces are seeded in five chunks.
        family = catalog.gauge_family("osc-singular", UNIT)
        parent = cousin_partition(family(0), UNIT) if refined else None
        g, seen = _counting(family(1))
        with caplog.at_level(logging.DEBUG, logger="gaugeprob"):
            d = cousin_partition(g, UNIT, parent=parent)
        [record] = caplog.records
        assert record.getMessage().endswith(f", {sum(seen)} gauge points")
        assert sum(seen) <= (2.2 if refined else 3) * d.pieces  # 2.12 refined

    def test_one_debug_record_per_division(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gaugeprob"):
            d = cousin_partition(constant_gauge(0.3), UNIT)
        assert d.pieces == 4
        assert [r.getMessage() for r in caplog.records] == [
            "division: 4 pieces, deepest bisection 2, 12 gauge points"]


@pytest.fixture
def groups(monkeypatch, workers):
    """Bisection groups on two workers for divisions of a few pieces: from
    8 expected pieces, a frontier at depth 2 and blocks of 4.  The list it
    returns records, per grouped drain, whether the groups built the
    division."""
    workers(2)
    monkeypatch.setattr(partitions, "_GROUP_PIECES", 8)
    monkeypatch.setattr(partitions, "_FRONTIER_DEPTH", 2)
    monkeypatch.setattr(partitions, "_BLOCK", 4)
    drained = []
    in_groups = partitions._in_groups

    def recorded(*args):
        division = in_groups(*args)
        drained.append(division is not None)
        return division

    monkeypatch.setattr(partitions, "_in_groups", recorded)
    return drained


def _serial(monkeypatch, build):
    """The outcome of ``build`` on one worker: the serial build's."""
    with monkeypatch.context() as one:
        one.setattr(partitions, "_WORKERS", 1)
        return _outcome(build)


def _assert_grouped_is_serial(monkeypatch, gauge, domain=UNIT, parent=None,
                              **options):
    build = lambda: cousin_partition(gauge, domain, parent=parent, **options)
    _assert_same_outcome(_outcome(build), _serial(monkeypatch, build))


_SMALL_FAMILIES = [name for name in catalog.gauge_family_ids()
                   if not name.startswith("osc-singular")]


class TestGroupedBuild:
    """A division drained in groups on two threads is the serial build's:
    the same points, tags and depths, or the same error."""

    @pytest.mark.parametrize("split", [0.5, 0.45])
    @pytest.mark.parametrize("name", _SMALL_FAMILIES)
    def test_small_families(self, monkeypatch, groups, name, split):
        family = catalog.gauge_family(name, UNIT)
        parent = None
        for level in range(4):
            _assert_grouped_is_serial(monkeypatch, family(level), split=split)
            if parent is not None:
                _assert_grouped_is_serial(monkeypatch, family(level),
                                          parent=parent, split=split)
            parent = cousin_partition(family(level), UNIT, split=split)
        assert groups and all(groups)

    @pytest.mark.parametrize("split", [0.5, 0.45])
    @pytest.mark.parametrize("name", ["osc-singular", "osc-singular-fine"])
    def test_singular_families(self, monkeypatch, workers, name, split):
        # The thresholds of a real run; compare_reports.py checks levels 0-3
        # of every family against the serial kernel of the parent commit.
        workers(2)
        family = catalog.gauge_family(name, UNIT)
        parent = cousin_partition(family(0), UNIT, split=split)
        _assert_same_outcome(
            (parent.points, parent.tags, parent.depths),
            _serial(monkeypatch, lambda: cousin_partition(family(0), UNIT,
                                                          split=split)))
        _assert_grouped_is_serial(monkeypatch, family(1), parent=parent,
                                  split=split)

    # The fixtures' patches hold for every example alike.
    @settings(max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(simple_gauges(), st.floats(min_value=0.1, max_value=0.9))
    def test_simple_gauges(self, monkeypatch, groups, gauge, split):
        for domain in (UNIT, Interval(-1.0, 2.0)):
            _assert_grouped_is_serial(monkeypatch, gauge, domain, split=split)

    @settings(max_examples=30,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(nested_families(), st.floats(min_value=0.1, max_value=0.9))
    def test_nested_families(self, monkeypatch, groups, gauges, split):
        for domain in (UNIT, Interval(-1.0, 2.0)):
            parent = cousin_partition(gauges[0], domain, split=split)
            for gauge in gauges[1:]:
                _assert_grouped_is_serial(monkeypatch, gauge, domain,
                                          parent=parent, split=split)
                parent = cousin_partition(gauge, domain, split=split,
                                          parent=parent)

    @pytest.mark.parametrize("refined", [False, True])
    def test_a_width_invalid_only_inside_a_later_group(self, monkeypatch,
                                                       groups, refined):
        # Depth 2 leaves four open nodes, one group each; the first point
        # evaluated in (0.7, 0.71) is a depth-5 midpoint, in the third.
        def width(ts):
            inside = (0.7 < ts) & (ts < 0.71)
            return np.where(inside, -1.0, 5e-3), 5e-3

        gauge = Gauge(width=width)
        parent = (cousin_partition(constant_gauge(0.1), UNIT) if refined
                  else None)
        groups.clear()
        got = _outcome(lambda: cousin_partition(gauge, UNIT, parent=parent))
        assert groups == [False]
        assert got == _serial(monkeypatch,
                              lambda: cousin_partition(gauge, UNIT))
        assert got[0] is InvalidGaugeError
        assert "offending t=0.70" in got[1]

    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("gauge, limits", [
        (_collapsing_gauge(), {"max_depth": 20}),
        (_collapsing_gauge(0.6), {"max_depth": 30, "max_pieces": 500}),
        (constant_gauge(1e-3), {"max_pieces": 2000}),
    ])
    def test_depth_cap_and_ceiling_errors(self, monkeypatch, groups, gauge,
                                          limits, refined):
        parent = (cousin_partition(constant_gauge(0.1), UNIT) if refined
                  else None)
        groups.clear()
        got = _outcome(lambda: cousin_partition(gauge, UNIT, parent=parent,
                                                **limits))
        assert groups == [False]
        assert got == _serial(monkeypatch, lambda: cousin_partition(
            gauge, UNIT, **limits))
        assert got[0] is PartitionDepthError

    @pytest.mark.parametrize("refined", [False, True])
    def test_one_debug_record_counts_every_groups_points(self, caplog,
                                                         groups, refined):
        parent = (cousin_partition(constant_gauge(0.1), UNIT) if refined
                  else None)
        groups.clear()
        g, seen = _counting(gauge_from_delta(lambda ts: 1e-2 + 0.1 * ts))
        with caplog.at_level(logging.DEBUG, logger="gaugeprob"):
            d = cousin_partition(g, UNIT, parent=parent)
        assert groups == [True]
        [record] = caplog.records
        assert record.getMessage() == (
            f"division: {d.pieces} pieces, deepest bisection "
            f"{int(d.depths.max())}, {sum(seen)} gauge points")
        assert sum(seen) <= 3 * d.pieces

    def test_more_workers_than_cores_lose_no_update(self, groups, workers):
        # Four threads share the index iterator and the node count: a lost
        # update would run a group twice or let the ceiling pass unseen.
        workers(4)
        taken = []
        gauge = constant_gauge(1e-3)  # 1024 pieces, 2047 nodes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                taken.clear()
                assert partitions._run_shared(
                    lambda index: taken.append(index) or index, 50
                ) == list(range(50))
                assert sorted(taken) == list(range(50))
                assert cousin_partition(gauge, UNIT,
                                        max_pieces=2047).pieces == 1024
                with pytest.raises(PartitionDepthError,
                                   match="more than 2046 pieces"):
                    cousin_partition(gauge, UNIT, max_pieces=2046)
        finally:
            sys.setswitchinterval(interval)
        assert groups == [True, False] * 10

    def test_a_failed_run_frees_its_results_without_the_collector(
            self, workers):
        # A dropped grouped build must not wait for the cyclic collector to
        # free its groups' pieces: a level that trips the ceiling is built
        # again from the domain while they would still be held.
        workers(2)

        class Part:
            pass

        parts = []

        def task(index):
            part = Part()
            parts.append(weakref.ref(part))
            if index == 3:
                raise ValueError("no part 3")
            return part

        gc.disable()
        try:
            try:
                partitions._run_shared(task, 6)
            except ValueError as exc:
                assert str(exc) == "no part 3"
            assert parts and all(ref() is None for ref in parts)
        finally:
            gc.enable()

    def test_one_worker_starts_no_pool(self, groups, workers):
        workers(1)
        d = cousin_partition(constant_gauge(1e-2), UNIT)
        assert d.pieces == 128
        assert groups == []
        assert partitions._pool is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_makes_its_own_pool(self, groups):
        gauge = constant_gauge(1e-2)
        expected = cousin_partition(gauge, UNIT).points.tobytes()
        assert groups == [True]
        assert partitions._pool is not None
        child = multiprocessing.get_context("fork").Process(
            target=_exit_with_points_check, args=(gauge, expected))
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


def _exit_with_points_check(gauge, expected):
    fresh = partitions._pool is None
    same = cousin_partition(gauge, UNIT).points.tobytes() == expected
    sys.exit(0 if fresh and same and partitions._pool is not None else 1)


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
