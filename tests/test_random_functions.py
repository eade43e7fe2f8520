import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaugeprob import (
    DiscreteProbabilitySpace,
    EvaluationError,
    Interval,
    PathwiseRandomFunction,
    RandomVariable,
    ScalarIntegrand,
    SeparableRandomFunction,
    SpaceMismatchError,
    TaggedDivision,
    as_pathwise,
    expectation_function,
    integrate_pathwise,
    integrate_separable,
    random_riemann_sum,
    riemann_sum_scalar,
)
from gaugeprob.random_functions import values_matrix

SPACE = DiscreteProbabilitySpace.uniform(("w1", "w2"))
LINEAR = ScalarIntegrand(name="linear",
                         fn=lambda ts: np.asarray(ts, dtype=float))
CONST = ScalarIntegrand(name="one",
                        fn=lambda ts: np.ones_like(np.asarray(ts, float)))


def rv(*values):
    return RandomVariable(space=SPACE, values=values)


def two_piece_division():
    return TaggedDivision(points=np.array([0.0, 0.5, 1.0]),
                          tags=np.array([0.25, 0.75]))


class TestSeparableForm:
    def test_scaled_linear_sum(self):
        f = SeparableRandomFunction(coefficients=(rv(1.0, 2.0),), bases=(LINEAR,))
        sums = random_riemann_sum(f, two_piece_division())
        assert sums.values.tolist() == [0.5, 1.0]

    def test_zero_function(self):
        f = SeparableRandomFunction(coefficients=(rv(0.0, 0.0),), bases=(LINEAR,))
        assert random_riemann_sum(f, two_piece_division()).values.tolist() == [0.0, 0.0]

    def test_needs_matching_spaces(self):
        other = DiscreteProbabilitySpace.uniform(3)
        with pytest.raises(SpaceMismatchError):
            SeparableRandomFunction(
                coefficients=(rv(1.0, 2.0),
                              RandomVariable(space=other, values=(1.0, 2.0, 3.0))),
                bases=(LINEAR, CONST),
            )

    def test_needs_one_basis_per_coefficient(self):
        with pytest.raises(ValueError):
            SeparableRandomFunction(coefficients=(rv(1.0, 2.0),),
                                    bases=(LINEAR, CONST))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SeparableRandomFunction(coefficients=(), bases=())

    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2,
                    max_size=2),
           st.lists(st.floats(min_value=-3, max_value=3), min_size=2,
                    max_size=2))
    def test_algebraic_identity_within_ulps(self, c1, c2):
        f = SeparableRandomFunction(
            coefficients=(rv(*c1), rv(*c2)), bases=(CONST, LINEAR))
        d = two_piece_division()
        sums = random_riemann_sum(f, d)
        s_const = riemann_sum_scalar(CONST, d)
        s_linear = riemann_sum_scalar(LINEAR, d)
        for i in range(2):
            expected = c1[i] * s_const + c2[i] * s_linear
            budget = 8 * math.ulp(max(abs(expected), 1.0))
            assert abs(sums.values[i] - expected) <= budget

    def test_unit_term_sum_is_the_scalar_sum_bit_for_bit(self):
        sine = ScalarIntegrand(name="sine", fn=np.sin)
        f = SeparableRandomFunction(coefficients=(rv(1.0, 1.0),),
                                    bases=(sine,))
        points = np.concatenate([[0.0], np.sort(
            np.random.default_rng(5).uniform(0.0, 1.0, 999)), [1.0]])
        d = TaggedDivision(points=points, tags=points[:-1])
        scalar = riemann_sum_scalar(sine, d)
        assert random_riemann_sum(f, d).values.tolist() == [scalar, scalar]


def nan_at_quarter(ts):
    return np.where(ts == 0.25, math.nan, ts)


def steep_past_half(ts):
    return np.where(ts > 0.5, 1e10, 1.0)


def square_on_grid(ts):
    """t^2 at multiples of 1/1024, NaN elsewhere.  integrate_separable at tol
    1e-6 integrates t^2 on uniform levels 0-8, whose tags all lie on that
    grid; the certificate's 0.45 split is the first to leave it."""
    ts = np.asarray(ts, dtype=float)
    return np.where(ts * 1024 == np.floor(ts * 1024), ts * ts, np.nan)


# (function, the tag and outcome its dense sum over two_piece_division()
# names); the uniform family's level 0 is that division.
ERROR_CASES = {
    "basis is NaN at one tag": (SeparableRandomFunction(
        coefficients=(rv(1.0, 2.0), rv(0.5, 0.5)),
        bases=(CONST, ScalarIntegrand(name="nan", fn=nan_at_quarter))),
        0.25, 0),
    "coefficient times basis overflows": (SeparableRandomFunction(
        coefficients=(rv(1.0, 1e300),),
        bases=(ScalarIntegrand(name="steep", fn=steep_past_half),)),
        0.75, 1),
}


class TestErrorContract:
    """A separable sum that is not finite is summed densely, so both routes
    raise the same error, naming the same tag and outcome."""

    @staticmethod
    def raised(call):
        with pytest.raises(EvaluationError) as err:
            call()
        return str(err.value), err.value.tag, err.value.outcome

    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_rank_k_and_dense_routes_raise_the_same_error(self, case):
        f, tag, outcome = ERROR_CASES[case]
        dense = PathwiseRandomFunction(
            space=f.space, matrix_evaluate=as_pathwise(f).matrix_evaluate)
        expected = ("random function returned a non-finite value at tag "
                    f"{tag!r}, outcome {outcome}", tag, outcome)
        d = two_piece_division()
        assert self.raised(lambda: random_riemann_sum(f, d)) == expected
        assert self.raised(lambda: random_riemann_sum(dense, d)) == expected
        unit = Interval(0.0, 1.0)
        for g in (f, dense):
            assert self.raised(lambda: integrate_pathwise(
                g, unit, 1e-3, 1e-2, 1e-6)) == expected

    def test_separable_certificate_names_the_tag(self):
        """integrate_separable certifies with the scalar sums where rank K
        is unsafe, so a basis that is NaN only at tags the 0.45 split
        reaches raises riemann_sum_scalar's error, which names the tag."""
        f = SeparableRandomFunction(
            coefficients=(rv(1.0, 2.0),),
            bases=(ScalarIntegrand(name="square", fn=square_on_grid),))
        message, tag, outcome = self.raised(lambda: integrate_separable(
            f, Interval(0.0, 1.0), 1e-6))
        assert message == (
            f"integrand returned a non-finite value at tag {tag!r}")
        assert tag * 1024 != math.floor(tag * 1024)
        assert outcome is None


class TestPathwiseForm:
    def test_degenerate_randomness_matches_scalar(self):
        f = PathwiseRandomFunction(space=SPACE, evaluate=lambda t, i: t)
        d = two_piece_division()
        sums = random_riemann_sum(f, d)
        scalar = riemann_sum_scalar(lambda t: t, d)
        assert sums.values.tolist() == [scalar, scalar]

    def test_values_matrix_consistency(self):
        f = PathwiseRandomFunction(
            space=SPACE,
            evaluate=lambda t, i: (i + 1) * t,
            matrix_evaluate=lambda ts: np.outer([1.0, 2.0], ts),
        )
        ts = np.linspace(0, 1, 5)
        by_matrix = values_matrix(f, ts)
        slow = PathwiseRandomFunction(space=SPACE,
                                      evaluate=lambda t, i: (i + 1) * t)
        np.testing.assert_allclose(by_matrix, values_matrix(slow, ts))

    def test_nonfinite_value_names_tag_and_outcome(self):
        from gaugeprob import EvaluationError

        def bad(t, i):
            return math.nan if (i == 1 and t == 0.75) else 0.0

        f = PathwiseRandomFunction(space=SPACE, evaluate=bad)
        with pytest.raises(EvaluationError) as err:
            random_riemann_sum(f, two_piece_division())
        assert err.value.tag == 0.75
        assert err.value.outcome == 1


class TestAsPathwise:
    def test_view_matches_separable_values(self):
        f = SeparableRandomFunction(
            coefficients=(rv(1.0, 2.0), rv(-1.0, 0.5)),
            bases=(LINEAR, CONST))
        view = as_pathwise(f)

        def value(t, i):
            return (1.0, 2.0)[i] * t + (-1.0, 0.5)[i]

        for t in (0.0, 0.3, 1.0):
            for i in range(2):
                assert values_matrix(view, np.array([t]))[i, 0] == \
                    pytest.approx(value(t, i))
        ts = np.linspace(0, 1, 4)
        np.testing.assert_allclose(
            values_matrix(view, ts),
            [[value(t, i) for t in ts] for i in range(2)])

    def test_view_of_view_is_identity(self):
        f = PathwiseRandomFunction(space=SPACE, evaluate=lambda t, i: t)
        assert as_pathwise(f) is f


class TestExpectationFunction:
    def test_separable_mean(self):
        f = SeparableRandomFunction(coefficients=(rv(1.0, 2.0),), bases=(LINEAR,))
        mean = expectation_function(f)
        assert mean.fn(np.array([0.4]))[0] == pytest.approx(1.5 * 0.4)
        np.testing.assert_allclose(mean.values_at(np.array([0.0, 1.0])),
                                   [0.0, 1.5])

    def test_pathwise_mean(self):
        f = PathwiseRandomFunction(space=SPACE,
                                   evaluate=lambda t, i: (i + 1) * t * t)
        mean = expectation_function(f)
        assert mean.fn(np.array([0.5]))[0] == pytest.approx(1.5 * 0.25)


class TestPointwiseLift:
    def test_evaluate_only_is_lifted_at_construction(self):
        space = DiscreteProbabilitySpace.uniform(3)

        def evaluate(t, i):
            return math.cos((i + 1) * t) + t / 3.0

        f = PathwiseRandomFunction(space=space, evaluate=evaluate)
        assert f.matrix_evaluate is not None
        ts = np.linspace(-1.0, 2.0, 9)
        loop = np.array([[evaluate(float(t), i) for t in ts] for i in range(3)],
                        dtype=float)
        matrix = values_matrix(f, ts)
        assert matrix.shape == (3, 9)
        assert np.array_equal(matrix, loop)

    def test_matrix_evaluate_wins_over_evaluate(self):
        f = PathwiseRandomFunction(
            space=SPACE, evaluate=lambda t, i: math.nan,
            matrix_evaluate=lambda ts: np.outer([1.0, 2.0], ts))
        np.testing.assert_array_equal(values_matrix(f, np.array([0.5])),
                                      [[0.5], [1.0]])

    def test_no_evaluator_rejected(self):
        with pytest.raises(TypeError, match="matrix_evaluate or evaluate"):
            PathwiseRandomFunction(space=SPACE)
        with pytest.raises(TypeError, match="matrix_evaluate or evaluate"):
            PathwiseRandomFunction(space=SPACE, evaluate=None)
