import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaugeprob import (
    DiscreteProbabilitySpace,
    RandomVariable,
    SpaceMismatchError,
    almost_surely_equal,
    deviation_probability,
    expectation,
    moment,
    prob_event,
)


def space_of(*weights):
    return DiscreteProbabilitySpace(
        labels=tuple(f"w{i}" for i in range(len(weights))),
        weights=weights,
    )


@st.composite
def dyadic_spaces(draw, max_outcomes=12, denominator_bits=16):
    """Spaces whose weights are dyadic rationals: all event sums are exact."""
    n = draw(st.integers(min_value=1, max_value=max_outcomes))
    total = 1 << denominator_bits
    cuts = draw(st.sets(st.integers(min_value=1, max_value=total - 1),
                        min_size=n - 1, max_size=n - 1))
    bounds = sorted(cuts | {0, total})
    numerators = [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]
    return space_of(*(k / total for k in numerators))


class TestSpaceConstruction:
    def test_weights_renormalized(self):
        sp = space_of(0.2, 0.3, 0.5)
        assert math.fsum(sp.weights) == 1.0

    def test_sum_off_by_more_than_tolerance_rejected(self):
        with pytest.raises(ValueError):
            space_of(1.0, 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            space_of(1.5, -0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DiscreteProbabilitySpace(labels=(), weights=())

    def test_uniform(self):
        sp = DiscreteProbabilitySpace.uniform(4)
        assert sp.size == 4
        assert all(w == 0.25 for w in sp.weights)
        named = DiscreteProbabilitySpace.uniform(("a", "b"))
        assert named.labels == ("a", "b")

    def test_dict_round_trip(self):
        sp = space_of(0.25, 0.75)
        assert DiscreteProbabilitySpace.from_dict(sp.as_dict()) == sp


def tuple_weights(weights):
    """The normalised weights as a tuple of floats, each divided by their
    fsum total: the space's weights before they became an array."""
    weights = tuple(float(w) for w in weights)
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


@st.composite
def near_unit_weights(draw):
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                        min_size=1, max_size=60).filter(lambda r: sum(r) > 0))
    total = math.fsum(raw)
    return [r / total for r in raw]


class TestWeightArray:
    def check(self, sp, expected):
        assert isinstance(sp.weights, np.ndarray)
        assert sp.weights.dtype == np.float64
        assert sp.weights.shape == (sp.size,)
        assert not sp.weights.flags.writeable
        # Bit for bit: the same float64 bytes, in order.
        assert sp.weights.tobytes() == np.array(expected).tobytes()

    @given(near_unit_weights())
    def test_every_constructor_is_bit_equal_to_the_tuple(self, weights):
        labels = tuple(f"w{i}" for i in range(len(weights)))
        expected = tuple_weights(weights)
        self.check(DiscreteProbabilitySpace(labels=labels, weights=weights),
                   expected)
        self.check(DiscreteProbabilitySpace.from_dict(
            {"outcomes": list(labels), "weights": weights}), expected)
        self.check(DiscreteProbabilitySpace(labels=labels,
                                            weights=np.array(weights)),
                   expected)

    @pytest.mark.parametrize("n", [1, 3, 7, 10_000])
    def test_uniform_is_bit_equal_to_the_tuple(self, n):
        self.check(DiscreteProbabilitySpace.uniform(n),
                   tuple_weights([1.0 / n] * n))

    def test_input_is_copied(self):
        raw = np.array([0.25, 0.75])
        sp = DiscreteProbabilitySpace(labels=("a", "b"), weights=raw)
        raw[0] = 0.5
        assert sp.weights.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            sp.weights[0] = 0.5

    def test_equal_spaces_compare_and_hash_equal(self):
        a = DiscreteProbabilitySpace(labels=("x", "y"), weights=[0.25, 0.75])
        b = DiscreteProbabilitySpace.from_dict(
            {"outcomes": ["x", "y"], "weights": (0.25, 0.75)})
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_negative_zero_weight_is_equal_to_zero(self):
        a = DiscreteProbabilitySpace(labels=("x", "y"), weights=[1.0, 0.0])
        b = DiscreteProbabilitySpace(labels=("x", "y"), weights=[1.0, -0.0])
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("labels, weights", [
        (("x", "y"), [0.75, 0.25]),
        (("x", "z"), [0.25, 0.75]),
        (("x", "y", "z"), [0.25, 0.75, 0.0]),
    ])
    def test_spaces_that_differ_are_not_equal(self, labels, weights):
        a = DiscreteProbabilitySpace(labels=("x", "y"), weights=[0.25, 0.75])
        assert a != DiscreteProbabilitySpace(labels=labels, weights=weights)
        assert a != ("x", "y")

    def test_variables_on_equal_spaces_combine(self):
        a = DiscreteProbabilitySpace.uniform(("x", "y"))
        b = DiscreteProbabilitySpace.uniform(("x", "y"))
        x = RandomVariable(space=a, values=(1.0, 2.0))
        y = RandomVariable(space=b, values=(3.0, 5.0))
        assert (x + y).values.tolist() == [4.0, 7.0]

    @pytest.mark.parametrize("weights", [[0.5, None], [0.5, math.nan],
                                         [0.5, math.inf]])
    def test_weights_must_be_finite_and_nonnegative(self, weights):
        with pytest.raises(ValueError,
                           match="^weights must be finite and nonnegative$"):
            DiscreteProbabilitySpace(labels=("x", "y"), weights=weights)

    @pytest.mark.parametrize("weights", [[1.0], [[0.5], [0.5]], 1.0])
    def test_one_weight_per_label(self, weights):
        with pytest.raises(ValueError,
                           match="^labels and weights must have equal length$"):
            DiscreteProbabilitySpace(labels=("x", "y"), weights=weights)


class TestRandomVariable:
    def test_length_checked(self):
        sp = space_of(0.5, 0.5)
        with pytest.raises(ValueError):
            RandomVariable(space=sp, values=(1.0,))

    def test_finite_values_required(self):
        sp = space_of(0.5, 0.5)
        with pytest.raises(ValueError):
            RandomVariable(space=sp, values=(1.0, math.inf))

    def test_arithmetic(self):
        sp = space_of(0.5, 0.5)
        x = RandomVariable(space=sp, values=(1.0, 2.0))
        y = RandomVariable(space=sp, values=(0.5, -1.0))
        assert (x + y).values.tolist() == [1.5, 1.0]
        assert (x - y).values.tolist() == [0.5, 3.0]
        assert (2.0 * x).values.tolist() == [2.0, 4.0]
        assert (x * y).values.tolist() == [0.5, -2.0]
        assert (-x).values.tolist() == [-1.0, -2.0]
        assert abs(y).values.tolist() == [0.5, 1.0]

    def test_values_are_read_only(self):
        x = RandomVariable(space=space_of(0.5, 0.5), values=(1.0, 2.0))
        assert x.values.dtype == np.float64
        with pytest.raises(ValueError):
            x.values[0] = 5.0
        assert x.values.tolist() == [1.0, 2.0]

    def test_input_array_is_copied(self):
        raw = np.array([1.0, 2.0])
        x = RandomVariable(space=space_of(0.5, 0.5), values=raw)
        raw[0] = 9.0
        assert x.values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("shape", [(), (2, 1), (2, 2)])
    def test_values_must_be_one_dimensional(self, shape):
        with pytest.raises(ValueError):
            RandomVariable(space=space_of(0.5, 0.5), values=np.ones(shape))

    def test_cross_space_arithmetic_rejected(self):
        x = RandomVariable(space=space_of(0.5, 0.5), values=(1.0, 2.0))
        y = RandomVariable(space=space_of(0.4, 0.6), values=(1.0, 2.0))
        with pytest.raises(SpaceMismatchError):
            _ = x + y


class TestProbEvent:
    def test_half(self):
        sp = space_of(0.5, 0.5)
        assert prob_event(sp, lambda i: i == 0) == 0.5

    def test_always_false(self):
        sp = space_of(0.5, 0.5)
        assert prob_event(sp, lambda i: False) == 0.0

    def test_weighted(self):
        sp = space_of(0.2, 0.3, 0.5)
        assert prob_event(sp, lambda i: i >= 1) == pytest.approx(0.8)

    @given(dyadic_spaces(), st.integers(min_value=2, max_value=5))
    def test_additive_over_disjoint_and_monotone(self, sp, modulus):
        first = lambda i: i % modulus == 0
        second = lambda i: i % modulus == 1
        union = lambda i: i % modulus in (0, 1)
        p1, p2, pu = (prob_event(sp, p) for p in (first, second, union))
        assert pu == p1 + p2
        assert p1 <= pu <= 1.0


class TestDeviationProbability:
    def test_identical_variables(self):
        sp = space_of(0.5, 0.5)
        x = RandomVariable(space=sp, values=(3.0, 4.0))
        assert deviation_probability(x, x, 1e-12) == 0.0

    def test_weighted_single_outcome(self):
        sp = space_of(0.3, 0.7)
        x = RandomVariable(space=sp, values=(1.0, 0.0))
        y = RandomVariable(space=sp, values=(0.0, 0.0))
        assert deviation_probability(x, y, 0.5) == pytest.approx(0.3)

    def test_threshold_is_inclusive(self):
        sp = DiscreteProbabilitySpace.uniform(3)
        x = RandomVariable(space=sp, values=(0.1, 0.2, 0.3))
        y = RandomVariable(space=sp, values=(0.0, 0.0, 0.0))
        assert deviation_probability(x, y, 0.2) == pytest.approx(2.0 / 3.0)

    def test_space_mismatch(self):
        x = RandomVariable(space=space_of(0.5, 0.5), values=(1.0, 2.0))
        y = RandomVariable(space=space_of(0.4, 0.6), values=(1.0, 2.0))
        with pytest.raises(SpaceMismatchError):
            deviation_probability(x, y, 0.1)

    def test_eps_must_be_positive(self):
        sp = space_of(0.5, 0.5)
        x = RandomVariable(space=sp, values=(1.0, 2.0))
        with pytest.raises(ValueError):
            deviation_probability(x, x, 0.0)

    @given(dyadic_spaces())
    def test_non_increasing_in_eps(self, sp):
        x = RandomVariable(space=sp,
                           values=tuple(0.1 * i for i in range(sp.size)))
        y = RandomVariable(space=sp, values=(0.0,) * sp.size)
        grid = [0.05, 0.1, 0.2, 0.5, 1.0]
        tails = [deviation_probability(x, y, e) for e in grid]
        assert all(tails[i + 1] <= tails[i] for i in range(len(tails) - 1))


class TestExpectationAndMoment:
    def test_expectation_examples(self):
        sp = space_of(0.5, 0.5)
        assert expectation(RandomVariable(space=sp, values=(1.0, 2.0))) == 1.5
        assert expectation(RandomVariable.constant(sp, 7.0)) == 7.0
        sp3 = space_of(0.8, 0.1, 0.1)
        assert expectation(RandomVariable(space=sp3, values=(0.0, 10.0, -10.0))) == 0.0

    def test_moment_examples(self):
        sp = space_of(0.5, 0.5)
        assert moment(RandomVariable(space=sp, values=(1.0, -1.0)), 2) == 1.0
        one = DiscreteProbabilitySpace.uniform(1)
        assert moment(RandomVariable(space=one, values=(3.0,)), 1) == 3.0
        sp2 = space_of(0.25, 0.75)
        assert moment(RandomVariable(space=sp2, values=(1.0, 2.0)), 2) == 3.25

    def test_moment_order_below_one_rejected(self):
        sp = space_of(0.5, 0.5)
        x = RandomVariable(space=sp, values=(1.0, 2.0))
        with pytest.raises(ValueError):
            moment(x, 0.5)

    @given(dyadic_spaces(),
           st.lists(st.floats(min_value=-5, max_value=5), min_size=1,
                    max_size=12),
           st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-3, max_value=3))
    def test_expectation_linear(self, sp, raw, a, b):
        values = tuple((raw * sp.size)[: sp.size])
        x = RandomVariable(space=sp, values=values)
        y = RandomVariable(space=sp, values=tuple(reversed(values)))
        lhs = expectation(a * x + b * y)
        rhs = a * expectation(x) + b * expectation(y)
        assert abs(lhs - rhs) <= 1e-12

    @given(dyadic_spaces())
    def test_triangle_inequality(self, sp):
        x = RandomVariable(space=sp,
                           values=tuple((-1.0) ** i * i for i in range(sp.size)))
        assert abs(expectation(x)) <= moment(x, 1) + 1e-15


class TestAlmostSurelyEqual:
    def test_exact_equality(self):
        sp = space_of(0.5, 0.5)
        x = RandomVariable(space=sp, values=(1.0, 2.0))
        assert almost_surely_equal(x, x)

    def test_zero_weight_outcome_ignored(self):
        sp = space_of(1.0, 0.0)
        x = RandomVariable(space=sp, values=(1.0, 5.0))
        y = RandomVariable(space=sp, values=(1.0, -5.0))
        assert almost_surely_equal(x, y)

    def test_positive_weight_difference_detected(self):
        sp = space_of(0.9, 0.1)
        x = RandomVariable(space=sp, values=(1.0, 1.0))
        y = RandomVariable(space=sp, values=(1.0, 2.0))
        assert not almost_surely_equal(x, y)

    def test_tolerance_configurable(self):
        sp = space_of(0.5, 0.5)
        x = RandomVariable(space=sp, values=(1.0, 1.0))
        y = RandomVariable(space=sp, values=(1.0, 1.0 + 1e-6))
        assert not almost_surely_equal(x, y)
        assert almost_surely_equal(x, y, tol=1e-5)


def test_nested_events_increase_to_positive_difference():
    sp = space_of(0.25, 0.25, 0.25, 0.25)
    x = RandomVariable(space=sp, values=(0.0, 0.5, 0.05, 0.0))
    y = RandomVariable(space=sp, values=(0.0, 0.0, 0.0, 0.0))
    tails = [deviation_probability(x, y, 1.0 / n) for n in range(1, 64)]
    assert all(tails[i + 1] >= tails[i] for i in range(len(tails) - 1))
    positive = prob_event(sp, lambda i: abs(x.values[i] - y.values[i]) > 0)
    assert tails[-1] == positive == 0.5


# The kernels as sums over tuples of Python floats: the bit-for-bit
# reference for the array kernels.
def _reference_deviation(x, y, eps):
    return math.fsum(w for w, a, b in zip(
        x.space.weights, x.values.tolist(), y.values.tolist())
        if abs(a - b) >= eps)


def _reference_expectation(x):
    return math.fsum(w * v for w, v in zip(x.space.weights,
                                           x.values.tolist()))


def _reference_moment(x, p):
    return math.fsum(w * abs(v) ** p for w, v in zip(x.space.weights,
                                                     x.values.tolist()))


def _reference_almost_surely_equal(x, y, tol):
    return all(abs(a - b) <= tol for w, a, b in zip(
        x.space.weights, x.values.tolist(), y.values.tolist()) if w > 0)


@st.composite
def kernel_inputs(draw):
    """Two variables on a space of 1-50 outcomes, some of zero weight, and
    an eps; values on a grid of eighths make |x - y| = eps ties common."""
    n = draw(st.integers(min_value=1, max_value=50))
    numerators = draw(st.lists(st.integers(min_value=0, max_value=7),
                               min_size=n, max_size=n).filter(any))
    total = sum(numerators)
    sp = space_of(*(k / total for k in numerators))
    value = st.one_of(st.integers(min_value=-40, max_value=40).map(
        lambda k: k / 8), st.floats(min_value=-1e6, max_value=1e6))
    xs = draw(st.lists(value, min_size=n, max_size=n))
    ys = draw(st.lists(value, min_size=n, max_size=n))
    eps = draw(st.integers(min_value=1, max_value=16)) / 8
    return (RandomVariable(space=sp, values=xs),
            RandomVariable(space=sp, values=ys), eps)


class TestKernelsBitForBit:
    @given(kernel_inputs())
    def test_deviation_probability(self, inputs):
        x, y, eps = inputs
        assert (deviation_probability(x, y, eps).hex()
                == _reference_deviation(x, y, eps).hex())

    @given(kernel_inputs())
    def test_expectation(self, inputs):
        x, _, _ = inputs
        assert expectation(x).hex() == _reference_expectation(x).hex()

    @given(kernel_inputs(), st.sampled_from([1, 1.5, 2, 3]))
    def test_moment(self, inputs, p):
        x, _, _ = inputs
        assert moment(x, p).hex() == _reference_moment(x, p).hex()

    @given(kernel_inputs())
    def test_almost_surely_equal(self, inputs):
        x, y, eps = inputs
        for a, b in ((x, y), (x, x), (x, x + eps), (x, x - eps)):
            result = almost_surely_equal(a, b, tol=eps)
            assert result is _reference_almost_surely_equal(a, b, eps)
