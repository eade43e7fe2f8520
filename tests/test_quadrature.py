import math
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeprob import (
    EvaluationError,
    GaugeFamily,
    Interval,
    ScalarIntegrand,
    TaggedDivision,
    constant_gauge,
    kh_integrate,
    kh_levels,
    riemann_sum_scalar,
)
from gaugeprob import quadrature

UNIT = Interval(0.0, 1.0)


class TestRiemannSumScalar:
    def test_identity_on_two_pieces(self):
        d = TaggedDivision(points=np.array([0.0, 0.5, 1.0]),
                           tags=np.array([0.25, 0.75]))
        assert riemann_sum_scalar(lambda t: t, d) == pytest.approx(0.5)

    def test_left_tag_square_sum(self):
        points = np.linspace(0.0, 1.0, 5)
        d = TaggedDivision(points=points, tags=points[:-1])
        assert riemann_sum_scalar(lambda t: t * t, d) == pytest.approx(0.21875)

    @given(st.floats(min_value=-10.0, max_value=10.0),
           st.integers(min_value=1, max_value=40))
    def test_constant_telescopes(self, c, n):
        points = np.linspace(-1.0, 2.0, n + 1)
        d = TaggedDivision(points=points, tags=points[:-1])
        total = riemann_sum_scalar(lambda t: c, d)
        # within 4 ulp per piece of the exact c * (b - a)
        budget = 4 * n * math.ulp(max(abs(c) * 3.0, 1.0))
        assert abs(total - c * 3.0) <= budget

    def test_nonfinite_value_names_tag(self):
        d = TaggedDivision(points=np.array([0.0, 0.5, 1.0]),
                           tags=np.array([0.25, 0.75]))

        def phi(ts):
            return np.where(ts == 0.75, math.inf, 1.0)

        with pytest.raises(EvaluationError) as err:
            riemann_sum_scalar(phi, d)
        assert err.value.tag == 0.75

    def test_overflowing_sum_is_named_without_a_warning(self):
        d = TaggedDivision(points=np.array([0.0, 5.0, 10.0]),
                           tags=np.array([2.5, 7.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError,
                               match="^Riemann sum of the integrand is not "
                                     "finite$"):
                riemann_sum_scalar(lambda ts: np.full_like(ts, 5e307), d)

    def test_accepts_scalar_integrand(self):
        d = TaggedDivision(points=np.array([0.0, 1.0]), tags=np.array([0.5]))
        phi = ScalarIntegrand(name="sq", fn=lambda t: t * t)
        assert riemann_sum_scalar(phi, d) == pytest.approx(0.25)


class TestKhIntegrate:
    def test_constant_on_0_3(self):
        res = kh_integrate(lambda t: 2.0, Interval(0.0, 3.0), 1e-12)
        assert res.value == pytest.approx(6.0, abs=1e-12)
        assert res.converged
        assert res.refinement_levels <= 1

    def test_square_matches_antiderivative(self):
        res = kh_integrate(lambda t: t * t, UNIT, 1e-9)
        assert res.converged
        assert abs(res.value - 1.0 / 3.0) <= 1e-9

    def test_level_cap_in_band(self):
        res = kh_integrate(lambda t: t * t, UNIT, 1e-15, max_levels=3)
        assert not res.converged
        assert res.refinement_levels == 3
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-2)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            kh_integrate(lambda t: t, UNIT, 0.0)

    def test_custom_family_is_used(self):
        calls = []

        def at_level(level):
            calls.append(level)
            return constant_gauge(2.0 ** -level)

        res = kh_integrate(lambda t: 1.0, UNIT,
                           1e-12, gauge_family=GaugeFamily("probe", at_level))
        assert res.converged
        assert calls == [0, 1]

    def test_final_mesh_bound_positive(self):
        res = kh_integrate(np.sin, UNIT, 1e-8)
        assert 0 < res.final_mesh_bound < 1

    @settings(max_examples=25)
    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                    min_size=1, max_size=6))
    def test_polynomials_match_closed_form(self, coeffs):
        def poly(ts):
            return sum(c * ts ** k for k, c in enumerate(coeffs))

        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        tol = 1e-7
        res = kh_integrate(
            ScalarIntegrand(name="poly", fn=poly),
            UNIT, tol)
        assert res.converged
        assert abs(res.value - exact) <= 10 * tol


def test_kh_levels_yields_divisions_and_sums():
    rows = []
    for level, division, value in kh_levels(lambda t: t, UNIT, max_levels=3):
        rows.append((level, division.mesh, value))
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    meshes = [r[1] for r in rows]
    assert all(meshes[i + 1] <= meshes[i] for i in range(len(meshes) - 1))
    assert rows[-1][2] == pytest.approx(0.5, abs=1e-3)


def test_bare_callable_is_called_once_on_the_tag_array():
    calls = []

    def phi(ts):
        calls.append(ts.shape)
        return 2.0

    d = TaggedDivision(points=np.linspace(0.0, 1.0, 6),
                       tags=np.linspace(0.1, 0.9, 5))
    assert riemann_sum_scalar(phi, d) == pytest.approx(2.0)
    assert calls == [(5,)]


class TestIntegrandBlocksOnTwoThreads:
    """Integrand values filled in blocks by the calling thread and a pool
    thread are the one-thread values, and an error is the lowest block's."""

    def test_values_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                      workers):
        monkeypatch.setattr(quadrature, "_BLOCK_CELLS", 64)
        threads = set()

        def recorded(ts):
            threads.add(threading.current_thread().name)
            return np.sin(1.0 / (ts + 1e-3))

        integrands = (ScalarIntegrand(name="recorded", fn=recorded),
                      lambda ts: ts ** 3, lambda ts: 2.0)
        tags = np.linspace(0.0, 1.0, 1001)
        runs = []
        for n in (1, 2):
            workers(n)
            threads.clear()
            runs.append(quadrature.values_in_blocks(integrands, tags).tobytes())
            runs.append(riemann_sum_scalar(integrands[0], TaggedDivision(
                points=np.linspace(0.0, 1.0, 1002), tags=tags)))
            assert any(name.startswith("gaugeprob-blocks")
                       for name in threads) == (n == 2)
        assert runs[:2] == runs[2:]

    def test_an_error_is_the_lowest_failing_blocks(self, monkeypatch,
                                                   workers):
        workers(2)
        monkeypatch.setattr(quadrature, "_BLOCK_CELLS", 8)  # 2 tags a block

        def phi(ts):
            if np.any(ts > 0.45):
                time.sleep(0.01)  # so that a later block may fail first
                raise ValueError(f"no value from {float(ts[0])!r}")
            return ts

        tags = np.arange(11) / 10
        for _ in range(3):
            with pytest.raises(ValueError,
                               match=r"^no value from 0\.4$"):
                quadrature.values_in_blocks((phi,), tags)
