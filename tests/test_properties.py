"""The integral's properties, checked on small random finite spaces.

Each property is asserted at the program's own thresholds: integrals agree
at 10 tol on every outcome (the almost-sure-equality threshold of
``verify_uniqueness`` and ``ftc``), and tails are the exact ``fsum``
probabilities of ``deviation_probability``.  The functions are separable
(smooth catalog bases with drawn coefficients) or pathwise
(cos(a t + b) per outcome), on 2 to 50 outcomes with drawn weights, some of
them zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeprob import (
    DiscreteProbabilitySpace,
    Interval,
    PathwiseRandomFunction,
    RandomVariable,
    SeparableRandomFunction,
    almost_surely_equal,
    as_pathwise,
    catalog,
    cousin_partition,
    deviation_probability,
    integrate_pathwise,
    random_riemann_sum,
    resolve_gauge_family,
)

from conftest import divisions

UNIT = Interval(0.0, 1.0)
EPS, ETA, TOL = 1e-3, 1e-2, 1e-6
AS_TOL = 10.0 * TOL
SMOOTH = ("constant", "linear", "monomial2", "monomial3", "poly-deg5",
          "trig-mix")
# Nonnegative on [0, 1].
NONNEGATIVE = ("constant", "linear", "monomial2", "monomial3")

# A random search finds the settle rule's blind spots, which the strict
# xfail below pins.  These tests gate changes to the sums, and a gate must
# not flake, so they run the same examples on every run, locally and in CI.
fixed = settings(derandomize=True)


@st.composite
def spaces(draw):
    n = draw(st.integers(min_value=2, max_value=50))
    raw = draw(st.lists(st.integers(min_value=0, max_value=10), min_size=n,
                        max_size=n).filter(any))
    total = sum(raw)
    return DiscreteProbabilitySpace(labels=tuple(f"w{i}" for i in range(n)),
                                    weights=tuple(r / total for r in raw))


def outcome_values(space, low=-1.0, high=1.0):
    return st.lists(st.floats(min_value=low, max_value=high),
                    min_size=space.size, max_size=space.size)


@st.composite
def separables(draw, space, bases=SMOOTH, low=-1.0):
    ids = draw(st.lists(st.sampled_from(bases), min_size=1, max_size=3))
    return SeparableRandomFunction(
        coefficients=tuple(
            RandomVariable(space=space, values=draw(outcome_values(space, low)))
            for _ in ids),
        bases=tuple(catalog.scalar_integrand(i) for i in ids))


@st.composite
def cosines(draw, space):
    """f(t, w) = cos(a_w t + b_w): no structure beyond its value matrix."""
    a = np.array(draw(outcome_values(space, 1.0, 20.0)))
    b = np.array(draw(outcome_values(space, 0.0, 2.0 * np.pi)))
    return PathwiseRandomFunction(
        space=space,
        matrix_evaluate=lambda ts: np.cos(np.multiply.outer(a, ts)
                                          + b[:, None]))


def functions(space):
    return st.one_of(separables(space), cosines(space))


def dense(f):
    """The same f, summed through its outcomes x tags value matrix."""
    return PathwiseRandomFunction(space=f.space,
                                  matrix_evaluate=as_pathwise(f).matrix_evaluate)


def combination(a, f, b, g):
    """a f + b g, separable when both are, else pathwise."""
    if isinstance(f, SeparableRandomFunction) and isinstance(
            g, SeparableRandomFunction):
        return SeparableRandomFunction(
            coefficients=tuple(c * a for c in f.coefficients)
            + tuple(c * b for c in g.coefficients),
            bases=f.bases + g.bases)
    F, G = as_pathwise(f).matrix_evaluate, as_pathwise(g).matrix_evaluate
    return PathwiseRandomFunction(
        space=f.space, matrix_evaluate=lambda ts: a * F(ts) + b * G(ts))


def integral(f, domain=UNIT) -> RandomVariable:
    result = integrate_pathwise(f, domain, EPS, ETA, TOL)
    assert result.failed_outcomes == ()
    return result.integral


@fixed
@given(st.data())
def test_linearity(data):
    space = data.draw(spaces())
    f, g = data.draw(functions(space)), data.draw(functions(space))
    a, b = (data.draw(st.floats(min_value=-1.0, max_value=1.0))
            for _ in range(2))
    combined = integral(combination(a, f, b, g))
    assert almost_surely_equal(combined, a * integral(f) + b * integral(g),
                               tol=AS_TOL)


def linear_pair(a, b) -> bool:
    space = DiscreteProbabilitySpace.uniform(2)
    f, g = (SeparableRandomFunction(
        coefficients=(RandomVariable.constant(space, 1.0),),
        bases=(catalog.scalar_integrand(name),))
        for name in ("trig-mix", "monomial3"))
    return almost_surely_equal(integral(combination(a, f, b, g)),
                               a * integral(f) + b * integral(g), tol=AS_TOL)


@pytest.mark.xfail(strict=True, reason=(
    "the level-0 and level-1 sums of 0.2575 trig-mix + 0.7192 t^3 agree "
    "within tol by coincidence, so the settle rule freezes the integral at "
    "level 1, 3.2e-4 from its value, and the certificate still verifies it"))
def test_linearity_after_a_coincidental_settle():
    assert linear_pair(0.2575, 0.7192)


def test_linearity_of_the_same_pair_off_the_coincidence():
    assert linear_pair(0.25, 0.72)


def additive(f, c) -> bool:
    parts = integral(f, Interval(0.0, c)) + integral(f, Interval(c, 1.0))
    return almost_surely_equal(parts, integral(f), tol=AS_TOL)


@fixed
@given(st.data())
def test_additivity_over_adjacent_intervals(data):
    # c is dyadic; test_additivity_off_the_dyadic_grid checks fixed points
    # off that grid.
    space = data.draw(spaces())
    f = data.draw(functions(space))
    assert additive(f, data.draw(st.integers(1, 63)) / 64)


@pytest.mark.parametrize("c", [0.1, 0.3, 1 / 3, 0.4, 0.45, 0.7, 0.9])
def test_additivity_off_the_dyadic_grid(c):
    # Under the uniform family, rounding of the points of [0, c] must not
    # let a piece of width delta/2 take its left endpoint as tag.
    space = DiscreteProbabilitySpace.uniform(2)
    f = SeparableRandomFunction(
        coefficients=(RandomVariable.constant(space, 0.5),),
        bases=(catalog.scalar_integrand("trig-mix"),))
    assert additive(f, c)


@fixed
@given(st.data())
def test_monotonicity(data):
    space = data.draw(spaces())
    f = data.draw(functions(space))
    excess = data.draw(separables(space, bases=NONNEGATIVE, low=0.0))
    g = combination(1.0, f, 1.0, excess)  # g >= f on every outcome
    assert np.all(integral(f).values <= integral(g).values + AS_TOL)


@fixed
@given(st.data())
def test_cauchy_criterion_across_splits(data):
    # At the level that certified the requested pair, sums over the sharp
    # divisions split at 0.5 and at 0.45 deviate by eps or more with
    # probability below eta.
    space = data.draw(spaces())
    f = data.draw(functions(space))
    result = integrate_pathwise(f, UNIT, EPS, ETA, TOL)
    assert result.verified
    row = result.certificate[0]
    family = resolve_gauge_family(f, UNIT)
    level = next(level for level in range(result.levels_used,
                                          result.levels_used + 13)
                 if cousin_partition(family(level), UNIT).mesh
                 == row.mesh_bound)
    s1, s2 = (random_riemann_sum(f, cousin_partition(family(level), UNIT,
                                                     split=split))
              for split in (0.5, 0.45))
    assert deviation_probability(s1, s2, row.eps) < row.eta


@fixed
@given(st.data())
def test_separable_sums_agree_with_dense_sums(data):
    space = data.draw(spaces())
    f = data.draw(separables(space))
    if data.draw(st.booleans()):
        division = data.draw(divisions())
    else:
        division = cousin_partition(
            resolve_gauge_family(f, UNIT)(data.draw(st.integers(0, 10))), UNIT,
            split=data.draw(st.sampled_from((0.5, 0.45))))
    np.testing.assert_allclose(random_riemann_sum(f, division).values,
                               random_riemann_sum(dense(f), division).values,
                               rtol=0.0, atol=1e-12)


@fixed
@given(st.data())
def test_separable_integral_agrees_with_dense_integral(data):
    space = data.draw(spaces())
    f = data.draw(separables(space))
    by_terms = integrate_pathwise(f, UNIT, EPS, ETA, TOL)
    by_matrix = integrate_pathwise(dense(f), UNIT, EPS, ETA, TOL)
    np.testing.assert_allclose(by_terms.integral.values,
                               by_matrix.integral.values, rtol=0.0, atol=1e-12)
    assert by_terms.verified == by_matrix.verified
    assert by_terms.levels_used == by_matrix.levels_used
