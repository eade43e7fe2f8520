import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaugeprob import (
    DiscreteProbabilitySpace,
    Interval,
    RandomVariable,
    ScalarIntegrand,
    SeparableRandomFunction,
    SpaceMismatchError,
    as_pathwise,
    derivative_in_probability_at,
    expectation,
    fubini_check,
    ftc_experiment,
)
from gaugeprob import catalog, random_functions, stochastic

UNIT = Interval(0.0, 1.0)
SPACE = DiscreteProbabilitySpace.uniform(("w1", "w2"))


def rv(*values):
    return RandomVariable(space=SPACE, values=values)


def linear_entry():
    return catalog.random_entry("linear-coeff")


class TestFubiniCheck:
    def test_linear_coefficient_closed_form(self):
        entry = linear_entry()
        rep = fubini_check(entry.function, UNIT, rv(2.0, 2.0), 1e-6)
        assert rep.hypothesis_ok
        assert rep.lhs == pytest.approx(0.75, abs=1e-6)
        assert rep.rhs == pytest.approx(0.75, abs=1e-6)
        assert rep.abs_difference <= 20e-6
        assert rep.passed
        assert rep.bound_ok

    def test_zero_function(self):
        f = SeparableRandomFunction(
            coefficients=(rv(0.0, 0.0),),
            bases=(catalog.scalar_integrand("constant"),))
        rep = fubini_check(f, UNIT, rv(1.0, 1.0), 1e-8)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)

    def test_constant_in_t(self):
        f = SeparableRandomFunction(
            coefficients=(rv(1.0, 2.0),),
            bases=(catalog.scalar_integrand("constant"),))
        rep = fubini_check(f, Interval(0.0, 2.0), rv(1.0, 2.0), 1e-7)
        expected = expectation(rv(1.0, 2.0)) * 2.0
        assert rep.lhs == pytest.approx(expected, abs=1e-6)
        assert rep.rhs == pytest.approx(expected, abs=1e-6)
        assert rep.passed

    def test_violation_names_point_and_outcomes(self):
        entry = linear_entry()
        # outcome 2 has |f(t, w2)| = 2t which exceeds 0.5 for t > 0.25
        rep = fubini_check(entry.function, UNIT, rv(2.0, 0.5), 1e-6)
        assert not rep.hypothesis_ok
        assert not rep.passed
        assert rep.violating_outcomes == (1,)
        assert rep.violation_t is not None
        assert 2.0 * rep.violation_t > 0.5
        assert rep.lhs is None and rep.rhs is None

    def test_negative_dominator_rejected(self):
        entry = linear_entry()
        with pytest.raises(ValueError):
            fubini_check(entry.function, UNIT, rv(1.0, -1.0), 1e-6)

    def test_space_mismatch_rejected(self):
        entry = linear_entry()
        other = DiscreteProbabilitySpace.uniform(3)
        bad = RandomVariable(space=other, values=(1.0, 1.0, 1.0))
        with pytest.raises(SpaceMismatchError):
            fubini_check(entry.function, UNIT, bad, 1e-6)

    def test_dominator_moment_reported(self):
        entry = linear_entry()
        rep = fubini_check(entry.function, UNIT, entry.dominator, 1e-6)
        assert rep.dominator_moment == pytest.approx(
            expectation(abs(entry.dominator)))

    def test_bound_margin_nonpositive_when_dominated(self):
        entry = catalog.random_entry("affine-pair")
        rep = fubini_check(entry.function, entry.domain, entry.dominator, 1e-6)
        assert rep.bound_ok
        assert rep.bound_margin <= 0.0

    def test_pathwise_form_supported(self):
        from gaugeprob import PathwiseRandomFunction

        f = PathwiseRandomFunction(
            space=SPACE,
            evaluate=lambda t, i: (i + 1.0) * t,
            matrix_evaluate=lambda ts: np.outer([1.0, 2.0], ts),
        )
        rep = fubini_check(f, UNIT, rv(1.0, 2.0), 1e-6)
        # E f(t,.) = 1.5 t, so both sides are 0.75
        assert rep.passed
        assert rep.lhs == pytest.approx(0.75, abs=1e-5)
        assert rep.rhs == pytest.approx(0.75, abs=1e-5)


class TestBlockedDominationCheck:
    def test_violation_in_a_later_block_matches_one_evaluation(self):
        from gaugeprob import PathwiseRandomFunction, random_functions, stochastic
        from gaugeprob.random_functions import values_matrix

        step = random_functions._BLOCK_CELLS // 2 // SPACE.size
        ts = np.linspace(0.0, 1.0, step + 100)
        start = ts[step + 40]  # in the second block
        calls = []

        def matrix(ts):
            calls.append((ts[0], ts.size))
            return np.stack([np.zeros_like(ts),
                             np.where(ts >= start, 3.0, 1.0)])

        f = PathwiseRandomFunction(space=SPACE, matrix_evaluate=matrix)
        dominator = rv(1.0, 2.0)
        whole = np.abs(values_matrix(f, ts)) > dominator.values[:, None]
        col = int(np.nonzero(whole.any(axis=0))[0][0])
        single = (float(ts[col]), tuple(np.nonzero(whole[:, col])[0].tolist()))
        assert single == (float(start), (1,))
        calls.clear()
        assert stochastic._domination_violation(f, ts, dominator) == single
        # The two blocks may run on two threads, in either order.
        assert sorted(calls) == [(ts[0], step), (ts[step], 100)]


def table_basis(ts, values):
    """A basis that takes values[j] at ts[j] (ts ascending), as a pointwise
    function of each tag."""
    values = np.array(values, dtype=float)
    return ScalarIntegrand(name="table",
                           fn=lambda t: values[np.searchsorted(ts, t)])


SPECIAL_VALUES = (math.nan, math.inf, -math.inf, 1e300, 0.0)
# Where an outcome's dominator is drawn: at its float reach
# sum_k |C_k| max|phi_k| or at its largest |dense cell|, one float either
# side of that, or well above or below it.
MOVES = {"at": lambda x: x,
         "up": lambda x: np.nextafter(x, np.inf),
         "down": lambda x: np.nextafter(x, -np.inf),
         "above": lambda x: 2.0 * x + 1.0,
         "below": lambda x: 0.5 * x}
PLACES = tuple((base, move) for base in ("reach", "cell") for move in MOVES)


@st.composite
def separable_checks(draw):
    """(f, ts, A): a separable f over 2-50 outcomes, some of zero weight,
    whose bases take drawn values, NaN and inf among them, at the drawn
    points ts; and a dominator drawn around each outcome's reach."""
    n = draw(st.integers(min_value=2, max_value=50))
    raw = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 3.0)), min_size=n,
                        max_size=n).filter(any))
    space = DiscreteProbabilitySpace(labels=tuple(range(n)),
                                     weights=np.array(raw) / math.fsum(raw))
    ts = np.unique(draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                 min_size=1, max_size=20)))
    terms = draw(st.integers(min_value=1, max_value=3))
    tables = []
    for _ in range(terms):
        table = draw(st.lists(st.floats(min_value=-4.0, max_value=4.0),
                              min_size=ts.size, max_size=ts.size))
        for j, value in draw(st.lists(st.tuples(
                st.integers(min_value=0, max_value=ts.size - 1),
                st.sampled_from(SPECIAL_VALUES)), max_size=1)):
            table[j] = value
        tables.append(table)
    coefficients = np.array(draw(st.lists(
        st.lists(st.floats(min_value=-3.0, max_value=3.0) | st.just(0.0),
                 min_size=n, max_size=n),
        min_size=terms, max_size=terms)))
    f = SeparableRandomFunction(
        coefficients=tuple(RandomVariable(space=space, values=c)
                           for c in coefficients),
        bases=tuple(table_basis(ts, t) for t in tables))

    values = np.array(tables)
    with np.errstate(over="ignore", invalid="ignore"):
        peaks = np.abs(values).max(axis=1)
        bases = {"reach": np.abs(coefficients.T) @ peaks,
                 "cell": np.abs(coefficients.T @ values).max(axis=1)}
    # One place for every outcome, or one each; well above the reach half
    # the time, so the rank-K route often clears all or some outcomes.
    place = st.just(("reach", "above")) | st.sampled_from(PLACES)
    places = draw(place.map(lambda p: [p] * n)
                  | st.lists(place, min_size=n, max_size=n))
    dominator = []
    for i, (base, move) in enumerate(places):
        value = MOVES[move](bases[base][i])
        if not math.isfinite(value):
            value = draw(st.floats(min_value=0.0, max_value=10.0))
        dominator.append(max(float(value), 0.0))
    return f, ts, RandomVariable(space=space, values=dominator)


class TestRankKDomination:
    """A separable function's domination is decided by its rank-K reach when
    that clears the dominator, and by the dense values otherwise."""

    @given(separable_checks())
    def test_rank_k_and_dense_routes_agree(self, check):
        f, ts, dominator = check
        assert (stochastic._domination_violation(f, ts, dominator)
                == stochastic._domination_violation(as_pathwise(f), ts,
                                                    dominator))

    def test_a_cleared_check_computes_no_dense_cell(self, monkeypatch):
        calls = []
        original = random_functions.values_matrix

        def recorded(f, ts):
            calls.append(ts.size)
            return original(f, ts)

        monkeypatch.setattr(random_functions, "values_matrix", recorded)
        f = linear_entry().function
        ts = np.linspace(0.0, 1.0, 9)
        assert stochastic._domination_violation(f, ts, rv(3.0, 3.0)) is None
        rep = fubini_check(f, UNIT, rv(3.0, 3.0), 1e-6)
        assert rep.passed and rep.hypothesis_ok and rep.bound_ok
        assert calls == []
        # Dominated with equality at t = 1: the dense values decide.
        assert stochastic._domination_violation(f, ts, rv(1.0, 2.0)) is None
        assert calls == [9]

    def test_a_basis_raising_past_a_violation_still_reports_it(
            self, monkeypatch):
        monkeypatch.setattr(random_functions, "_BLOCK_CELLS", 8)

        def ramp(ts):
            if (ts > 0.75).any():
                raise ValueError("no values past 0.75")
            return ts

        f = SeparableRandomFunction(
            coefficients=(rv(1.0, 2.0),),
            bases=(ScalarIntegrand(name="ramp", fn=ramp),))
        ts = np.linspace(0.0, 1.0, 9)  # view blocks of 4 tags
        # 2 t exceeds 0.2 at t = 0.125, in the first block.
        assert stochastic._domination_violation(f, ts, rv(1.0, 0.2)) == (
            0.125, (1,))
        # With no violation before it, the basis's error is the dense one.
        with pytest.raises(ValueError, match="past 0.75"):
            stochastic._domination_violation(f, ts, rv(5.0, 5.0))


class TestDerivativeInProbability:
    def test_quadratic_passes(self):
        pair = catalog.ftc_entry("ftc-quadratic")
        rep = derivative_in_probability_at(
            pair.antiderivative, pair.derivative, 0.5, 1e-2, 1e-2)
        assert rep.passed
        assert rep.worst_tail == 0.0
        assert len(rep.rows) == 16

    def test_zero_candidate_fails(self):
        pair = catalog.ftc_entry("ftc-quadratic")
        zero = SeparableRandomFunction(
            coefficients=(rv(0.0, 0.0),),
            bases=(catalog.scalar_integrand("constant"),))
        rep = derivative_in_probability_at(
            pair.antiderivative, zero, 0.5, 1e-2, 1e-2)
        assert not rep.passed
        assert rep.worst_tail == 1.0

    def test_constant_antiderivative_zero_candidate_passes(self):
        const_f = SeparableRandomFunction(
            coefficients=(rv(3.0, -1.0),),
            bases=(catalog.scalar_integrand("constant"),))
        zero = SeparableRandomFunction(
            coefficients=(rv(0.0, 0.0),),
            bases=(catalog.scalar_integrand("constant"),))
        for eps in (1e-1, 1e-3, 1e-6):
            rep = derivative_in_probability_at(const_f, zero, 0.5, eps, 1e-2)
            assert rep.passed

    def test_custom_grid_and_validation(self):
        pair = catalog.ftc_entry("ftc-quadratic")
        rep = derivative_in_probability_at(
            pair.antiderivative, pair.derivative, 0.5, 1e-2, 1e-2,
            grid=[0.499, 0.501])
        assert rep.passed and len(rep.rows) == 2
        with pytest.raises(ValueError):
            derivative_in_probability_at(
                pair.antiderivative, pair.derivative, 0.5, 1e-2, 1e-2,
                grid=[0.5])
        with pytest.raises(ValueError):
            derivative_in_probability_at(
                pair.antiderivative, pair.derivative, 0.5, -1e-2, 1e-2)

    @pytest.mark.parametrize("points", [0, 1])
    def test_too_few_default_grid_points_rejected(self, points):
        pair = catalog.ftc_entry("ftc-quadratic")
        with pytest.raises(ValueError, match="points must be >= 2"):
            derivative_in_probability_at(
                pair.antiderivative, pair.derivative, 0.5, 1e-2, 1e-2,
                points=points)


class TestFtcExperiment:
    def test_quadratic_recovers_increment(self):
        pair = catalog.ftc_entry("ftc-quadratic")
        rep = ftc_experiment(pair.antiderivative, pair.derivative, pair.domain,
                             1e-3, 1e-2, 1e-6)
        assert rep.exploratory
        assert rep.derivative_all_passed
        assert rep.almost_surely_equal
        assert tuple(rep.integral_values) == pytest.approx((1.0, 2.0), abs=1e-5)
        assert rep.increment_values.tolist() == [1.0, 2.0]

    def test_zero_pair(self):
        zero = SeparableRandomFunction(
            coefficients=(rv(0.0, 0.0),),
            bases=(catalog.scalar_integrand("constant"),))
        rep = ftc_experiment(zero, zero, UNIT, 1e-3, 1e-2, 1e-8)
        assert rep.almost_surely_equal
        assert rep.integral_values.tolist() == [0.0, 0.0]
        assert rep.increment_values.tolist() == [0.0, 0.0]

    def test_report_serializes(self):
        pair = catalog.ftc_entry("ftc-quadratic")
        rep = ftc_experiment(pair.antiderivative, pair.derivative, pair.domain,
                             1e-3, 1e-2, 1e-6)
        data = rep.as_dict()
        assert data["exploratory"] is True
        assert "no claim" in data["note"]
        assert len(data["derivative_points"]) == 10
