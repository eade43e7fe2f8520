import math

import pytest

from gaugeprob import ScenarioError, sample_coefficients, sample_space, sample_values


def test_two_point_exact_alternation():
    space, values = sample_space("two-point 1|2", 2, seed=0)
    assert space.weights.tolist() == [0.5, 0.5]
    assert values.values.tolist() == [1.0, 2.0]


def test_two_point_longer_and_seed_independent():
    _, a = sample_space("two-point -1|1", 5, seed=0)
    _, b = sample_space("two-point -1|1", 5, seed=99)
    assert a.values.tolist() == b.values.tolist() == [-1.0, 1.0, -1.0, 1.0, -1.0]


def test_determinism_bitwise():
    for spec in ("two-point 1|2", "uniform01", "uniform -2|2"):
        one = sample_values(spec, 64, seed=7)
        two = sample_values(spec, 64, seed=7)
        assert one == two


def test_different_seeds_differ():
    assert sample_values("uniform01", 16, 1) != sample_values("uniform01", 16, 2)


def test_uniform01_statistics():
    _, values = sample_space("uniform01", 1000, seed=7)
    assert all(0.0 <= v < 1.0 for v in values.values)
    mean = math.fsum(values.values) / 1000
    assert abs(mean - 0.5) < 0.05


def test_uniform_range():
    values = sample_values("uniform -2|2", 256, seed=3)
    assert all(-2.0 <= v < 2.0 for v in values)


def test_unknown_distribution():
    with pytest.raises(ScenarioError):
        sample_values("cauchy", 4, 0)


def test_bad_parameters():
    with pytest.raises(ScenarioError):
        sample_values("two-point 1", 4, 0)
    with pytest.raises(ScenarioError):
        sample_values("uniform a|b", 4, 0)
    with pytest.raises(ScenarioError):
        sample_values("uniform01", 0, 0)


def test_sample_coefficients_offsets_seed():
    coeffs = sample_coefficients("uniform01", 8, seed=5, count=3)
    assert len(coeffs) == 3
    assert tuple(coeffs[0].values) == sample_values("uniform01", 8, 5)
    assert tuple(coeffs[1].values) == sample_values("uniform01", 8, 6)
    assert coeffs[0].space is coeffs[1].space
