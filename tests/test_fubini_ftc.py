import numpy as np
import pytest

from gaugeprob import (
    DiscreteProbabilitySpace,
    Interval,
    RandomVariable,
    SeparableRandomFunction,
    SpaceMismatchError,
    derivative_in_probability_at,
    expectation,
    fubini_check,
    ftc_experiment,
)
from gaugeprob import catalog

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
        from gaugeprob import PathwiseRandomFunction, stochastic
        from gaugeprob.random_functions import values_matrix

        step = stochastic._BLOCK_CELLS // SPACE.size
        ts = np.linspace(0.0, 1.0, step + 100)
        start = ts[step + 40]  # in the second block
        calls = []

        def matrix(ts):
            calls.append(ts.size)
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
        assert calls == [step, 100]


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
