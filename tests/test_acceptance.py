"""Acceptance suite: one test per shipped claim, one printed line each.

Every tolerance is pinned here; the suite is the contract that the built
artifact does what its documentation says.
"""

import json
import math
import random
import time

from gaugeprob import (
    DiscreteProbabilitySpace,
    GaugeFamily,
    Interval,
    RandomVariable,
    SeparableRandomFunction,
    constant_gauge,
    cousin_partition,
    derivative_in_probability_at,
    deviation_probability,
    fubini_check,
    ftc_experiment,
    gauge_from_delta,
    integrate_pathwise,
    integrate_riemann_in_probability,
    integrate_separable,
    is_sharp,
    kh_integrate,
    prob_event,
    uniform_gauge_family,
    verify_uniqueness,
)
from gaugeprob import catalog
from gaugeprob.cli import main
from gaugeprob.sampling import sample_values
from gaugeprob.schemas import validate_report

UNIT = Interval(0.0, 1.0)


def _report(number: int, description: str, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


def test_criterion_01_sharp_partition_soundness():
    def body():
        rng = random.Random(20260808)
        gauges = []
        for _ in range(700):
            width = 10.0 ** rng.uniform(math.log10(1e-3), math.log10(0.5))
            gauges.append(constant_gauge(width))
        for _ in range(300):
            lo = 10.0 ** rng.uniform(math.log10(2e-3), math.log10(0.1))
            slope = rng.uniform(0.05, 1.0)
            gauges.append(gauge_from_delta(
                lambda ts, lo=lo, s=slope: lo + s * ts))
        start = time.perf_counter()
        for gauge in gauges:
            division = cousin_partition(gauge, UNIT)
            assert is_sharp(division, gauge)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"partitioning took {elapsed:.2f}s"

    _report(1, "cousin partitions of 1000 randomized gauges are all sharp "
               "in under 5 s", body)


def test_criterion_02_deterministic_quadrature_oracle():
    def body():
        tol = 1e-9
        oracle = {
            "constant": 1.0,
            "linear": 0.5,
            "monomial2": 1.0 / 3.0,
            "monomial3": 0.25,
            "poly-deg5": -1.0 / 3.0,
            "trig-mix": (1.0 - math.cos(3.0)) / 3.0 + math.sin(2.0) / 2.0,
        }
        for name, exact in oracle.items():
            start = time.perf_counter()
            res = kh_integrate(catalog.scalar_integrand(name), UNIT, tol)
            elapsed = time.perf_counter() - start
            assert res.converged, name
            assert abs(res.value - exact) <= 10 * tol, name
            assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"

    _report(2, "polynomial/trig quadrature matches antiderivatives within "
               "10*tol at tol=1e-9, under 1 s each", body)


def test_criterion_03_non_riemann_witnesses():
    def body():
        osc = catalog.scalar_integrand("osc-derivative")
        res = kh_integrate(osc, UNIT, 1e-7)
        assert res.converged
        assert abs(res.value - math.sin(1.0)) <= 1e-6

        indicator = catalog.scalar_integrand("finite-indicator")
        pinched = kh_integrate(indicator, UNIT, 1e-9)
        assert pinched.converged
        assert abs(pinched.value) <= 1e-9

        budget = 11
        constant = kh_integrate(indicator, UNIT, 1e-9,
                                gauge_family=uniform_gauge_family(UNIT),
                                max_levels=budget)
        assert not constant.converged
        assert abs(constant.value) > 1e-3

    _report(3, "singular derivative integrates to sin(1) within 1e-6; "
               "indicator pinches to 0 within 1e-9 while equal-budget "
               "constant gauges miss by more than 1e-3", body)


_SMOOTH_BASES = ("constant", "linear", "monomial2", "monomial3", "trig-mix")


def _seeded_separable(seed: int):
    sizes = (2, 5, 10, 100, 1000)
    n = sizes[seed % len(sizes)]
    p = (seed % 3) + 1
    rng = random.Random(4000 + seed)
    names = [rng.choice(_SMOOTH_BASES) for _ in range(p)]
    space = DiscreteProbabilitySpace.uniform(n)
    coefficients = tuple(
        RandomVariable(space=space,
                       values=sample_values("uniform -2|2", n, 1000 + 17 * seed + k))
        for k in range(p)
    )
    bases = tuple(catalog.scalar_integrand(name) for name in names)
    return SeparableRandomFunction(coefficients=coefficients, bases=bases)


def test_criterion_04_separable_conclusion():
    def body():
        tol = 1e-6
        for seed in range(50):
            f = _seeded_separable(seed)
            res = integrate_separable(f, UNIT, tol)

            scalar_values = [
                kh_integrate(basis, UNIT, tol,
                             gauge_family=basis.gauge_family).value
                for basis in f.bases
            ]
            expected = tuple(
                math.fsum(c.values[i] * v
                          for c, v in zip(f.coefficients, scalar_values))
                for i in range(f.space.size)
            )
            assert tuple(res.integral.values) == expected, f"seed {seed}"

            path = integrate_pathwise(f, UNIT, 1e-3, 1e-2, tol)
            assert path.verified, f"seed {seed}"
            for a, b in zip(res.integral.values, path.integral.values):
                assert abs(a - b) <= 10 * tol, f"seed {seed}"

            row = next(r for r in res.certificate
                       if r.eps == 1e-3 and r.eta == 1e-2)
            assert row.achieved_tail == 0.0, f"seed {seed}"

    _report(4, "50 seeded separable functions: algebraic integral exact, "
               "pathwise route within 10*tol, certificate tail 0 at "
               "eps=1e-3", body)


def test_criterion_05_uniqueness_across_strategies():
    def body():
        eps, eta, tol = 1e-3, 1e-2, 1e-6
        for name in catalog.random_ids():
            entry = catalog.random_entry(name)
            rep = verify_uniqueness(entry.function, entry.domain,
                                    entry.strategies, eps, eta, tol)
            assert rep.conclusive, name
            assert rep.almost_surely_equal, name
            finest_eps, tail = rep.deviation_rows[-1]
            assert finest_eps >= 10 * tol
            assert tail == 0.0, name

    _report(5, "both shipped gauge strategies produce almost-surely-equal "
               "integrals for every catalog random function", body)


def test_criterion_06_exchange_both_sides():
    def body():
        tol = 1e-6
        for name in catalog.dominated_ids():
            entry = catalog.random_entry(name)
            rep = fubini_check(entry.function, entry.domain, entry.dominator,
                               tol)
            assert rep.hypothesis_ok, name
            assert rep.passed, name
            assert rep.abs_difference <= 20 * tol, name
            assert rep.bound_ok, name

        entry = catalog.random_entry("linear-coeff")
        space = entry.function.space
        too_small = RandomVariable(space=space, values=(2.0, 0.5))
        rep = fubini_check(entry.function, entry.domain, too_small, tol)
        assert not rep.hypothesis_ok
        assert not rep.passed
        assert rep.violating_outcomes == (1,)
        assert rep.violation_t is not None
        assert 2.0 * rep.violation_t > 0.5

    _report(6, "integral of the mean equals mean of the integrals within "
               "20*tol for dominated entries; hypothesis violations are "
               "rejected naming t and the outcome", body)


def test_criterion_07_constant_gauge_reduction():
    def body():
        tol = 1e-6
        tilted = GaugeFamily(
            name="tilted",
            at_level=lambda m: gauge_from_delta(
                lambda ts, m=m: (0.5 + 0.3 * ts) * 2.0 ** -m),
        )
        for name in ("linear-coeff", "affine-pair", "quadratic-coeff",
                     "trig-coeff"):
            entry = catalog.random_entry(name)
            gauged = integrate_pathwise(entry.function, entry.domain,
                                        1e-3, 1e-2, tol, gauge_family=tilted)
            constant = integrate_riemann_in_probability(
                entry.function, entry.domain, 1e-3, 1e-2, tol)
            assert gauged.verified and constant.verified, name
            for a, b in zip(gauged.integral.values, constant.integral.values):
                assert abs(a - b) <= 10 * tol, name

    _report(7, "constant-width refinement reproduces gauge integration on "
               "smooth entries within 10*tol", body)


def test_criterion_08_derivative_and_ftc():
    def body():
        pair = catalog.ftc_entry("ftc-quadratic")
        for j in range(10):
            t0 = 0.05 + 0.1 * j
            rep = derivative_in_probability_at(
                pair.antiderivative, pair.derivative, t0, 1e-2, 1e-2,
                radius=1e-3)
            assert rep.passed, f"t0={t0}"
        quad = ftc_experiment(pair.antiderivative, pair.derivative,
                              pair.domain, 1e-3, 1e-2, 1e-6)
        assert quad.almost_surely_equal
        assert quad.derivative_all_passed

        singular = catalog.ftc_entry("ftc-singular")
        osc = ftc_experiment(singular.antiderivative, singular.derivative,
                             singular.domain, 1e-3, 1e-2, 1e-6)
        # exploratory: the report must complete with finite tails; no
        # pass/fail behaviour is asserted
        assert osc.exploratory
        assert all(math.isfinite(tail) and 0.0 <= tail <= 1.0
                   for _, tail in osc.deviation_rows)
        assert all(math.isfinite(w) for _, _, w in osc.derivative_points)

    _report(8, "difference quotients of C*t^2 pass at 10 interior points and "
               "its experiment recovers F(b)-F(a); the singular experiment "
               "completes with finite tails", body)


def _random_dyadic_space(rng: random.Random):
    n = rng.randint(1, 32)
    total = 1 << 20
    cuts = rng.sample(range(1, total), n - 1) if n > 1 else []
    bounds = sorted(set(cuts) | {0, total})
    weights = [(bounds[i + 1] - bounds[i]) / total
               for i in range(len(bounds) - 1)]
    return DiscreteProbabilitySpace(
        labels=tuple(f"w{i}" for i in range(len(weights))),
        weights=tuple(weights),
    )


def test_criterion_09_probability_kernel_exactness():
    def body():
        rng = random.Random(909)
        for _ in range(1000):
            sp = _random_dyadic_space(rng)
            n = sp.size
            x = RandomVariable(
                space=sp, values=tuple(rng.randint(-64, 64) / 64.0
                                       for _ in range(n)))
            y = RandomVariable(
                space=sp, values=tuple(rng.randint(-64, 64) / 64.0
                                       for _ in range(n)))
            modulus = rng.randint(2, 5)
            p_first = prob_event(sp, lambda i: i % modulus == 0)
            p_second = prob_event(sp, lambda i: i % modulus == 1)
            p_union = prob_event(sp, lambda i: i % modulus in (0, 1))
            assert p_union == p_first + p_second
            assert 0.0 <= p_first <= p_union <= 1.0

            tails = [deviation_probability(x, y, 1.0 / m)
                     for m in range(1, 65)]
            assert all(tails[i + 1] >= tails[i]
                       for i in range(len(tails) - 1))
            positive = prob_event(
                sp, lambda i: abs(x.values[i] - y.values[i]) > 0)
            assert tails[-1] == positive

    _report(9, "event additivity, tail monotonicity and the nested-event "
               "limit hold exactly on 1000 random finite spaces", body)


def _cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_10_cli_contract(capsys, tmp_path):
    def body():
        start = time.perf_counter()
        zero_cases = {
            "integrate": ("--catalog", "monomial2"),
            "integrate-prob": ("--catalog", "linear-coeff"),
            "riemann-prob": ("--catalog", "linear-coeff"),
            "uniqueness": ("--catalog", "linear-coeff"),
            "fubini": ("--catalog", "linear-coeff"),
            "derivative": ("--catalog", "ftc-quadratic"),
            "ftc": ("--catalog", "ftc-quadratic"),
            "convergence-table": ("--catalog", "monomial2", "--levels", "4"),
        }
        for command, args in zero_cases.items():
            code, out = _cli(capsys, command, *args)
            assert code == 0, command
            report = json.loads(out)
            validate_report(report)

        violation = tmp_path / "violation.json"
        violation.write_text(json.dumps({
            "catalog": "linear-coeff",
            "dominator": {"values": [2.0, 0.5]},
        }), encoding="utf-8")
        fail_cases = {
            "integrate": ("--catalog", "monomial2", "--tol", "1e-13",
                          "--levels", "3"),
            "integrate-prob": ("--catalog", "quadratic-coeff", "--levels",
                               "2", "--tol", "1e-12"),
            "riemann-prob": ("--catalog", "indicator-coeff", "--levels", "5",
                             "--tol", "1e-9"),
            "uniqueness": ("--catalog", "quadratic-coeff", "--levels", "2",
                           "--tol", "1e-12"),
            "fubini": ("--scenario", str(violation)),
            "derivative": ("--catalog", "ftc-quadratic", "--eps", "1e-9"),
        }
        for command, args in fail_cases.items():
            code, out = _cli(capsys, command, *args)
            assert code == 2, command
            validate_report(json.loads(out))

        error_cases = {
            "integrate": ("--catalog", "missing-id"),
            "integrate-prob": ("--catalog", "linear-coeff", "--eta", "0"),
            "riemann-prob": ("--catalog", "linear-coeff", "--eps", "-1"),
            "uniqueness": ("--catalog", "missing-id"),
            "fubini": ("--catalog", "missing-id"),
            "derivative": ("--catalog", "missing-id"),
            "ftc": ("--catalog", "missing-id"),
            "convergence-table": ("--catalog", "missing-id"),
        }
        for command, args in error_cases.items():
            code, _ = _cli(capsys, command, *args)
            assert code == 1, command

        sampled = tmp_path / "sampled.json"
        sampled.write_text(json.dumps({
            "space": {"sample": {"distribution": "uniform01", "n": 32}},
            "function": {"form": "separable",
                         "terms": [{"values": {"sample": {
                             "distribution": "uniform01"}},
                             "basis": "linear"}]},
        }), encoding="utf-8")
        outputs = []
        for _ in range(2):
            code, out = _cli(capsys, "integrate-prob", "--scenario",
                             str(sampled), "--seed", "11")
            assert code == 0
            outputs.append("\n".join(
                line for line in out.splitlines()
                if '"generated_at"' not in line))
        assert outputs[0] == outputs[1]

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"CLI suite took {elapsed:.2f}s"

    _report(10, "all CLI commands round-trip their schema, honor the seed, "
                "and obey the exit-status contract within 30 s", body)
