"""Gauge integration of random functions, in probability.

A random variable I is accepted as the integral of f when Riemann sums over
sharp divisions converge to I in probability: for tolerance pairs
(eps, eta), the probability that a sum deviates from I by eps or more must
fall below eta once divisions are sharp for a fine enough gauge.

Definitions quantify over *all* sharp divisions; an implementation can only
sample them.  Results therefore carry a certificate -- deviation tails
measured, level by level, on the constructed division and on a fresh
division split off-center, sharp for the same gauge -- plus a
verified/unverified flag instead of a truth claim.
"""

from __future__ import annotations

import logging
import math
from contextlib import closing
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import EvaluationError, NonConvergenceError, SpaceMismatchError
from .gauges import GaugeFamily, Interval, uniform_gauge_family
from .partitions import TaggedDivision
from .probability import (
    RandomVariable,
    almost_surely_equal,
    deviation_probability,
    expectation,
    moment,
)
from .quadrature import (
    DEFAULT_MAX_LEVELS,
    LevelPass,
    Settle,
    kh_integrate,
    riemann_sum_scalar,
    values_in_blocks,
)
from .random_functions import (
    RandomFunction,
    SeparableRandomFunction,
    as_pathwise,
    expectation_function,
    map_blocks,
    values_matrix,
)

DEFAULT_EPS_GRID = (1e-2, 1e-3, 1e-4)
DEFAULT_ETA = 1e-2
# The eps of the difference-quotient checks, in ``ftc_experiment`` and as
# the ``derivative`` command's default.
DERIVATIVE_EPS = 1e-2

# Certification may refine this many levels past the integration level while
# hunting a gauge fine enough for a strict (eps, eta) pair, and never grows
# a division past the piece guard.
_VERIFY_EXTRA_LEVELS = 12
_VERIFY_PIECE_GUARD = 8_000_000

# A rank-K sum is taken only when sum_k max|C_k| max|phi_k(tags)|, times the
# division's width, is below this bound: then no cell, partial sum or total
# of the rank-K or the dense route can overflow.
_SAFE_REACH = np.finfo(float).max / 2.0

log = logging.getLogger("gaugeprob")


@dataclass(frozen=True)
class CertificateRow:
    eps: float
    eta: float
    achieved_tail: float
    mesh_bound: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StochasticIntegralResult:
    """Integral variable plus the (eps, eta) evidence behind it."""

    integral: RandomVariable
    certificate: tuple[CertificateRow, ...]
    method: str
    verified: bool
    levels_used: int
    failed_outcomes: tuple[int, ...] = ()

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "verified": self.verified,
            "levels_used": self.levels_used,
            "failed_outcomes": list(self.failed_outcomes),
            "integral": self.integral.values.tolist(),
            "certificate": [row.as_dict() for row in self.certificate],
        }


def _combine(f: SeparableRandomFunction, scalars) -> RandomVariable:
    """sum_k C_k * scalars[k], outcome by outcome, summed with fsum."""
    products = f.coefficient_matrix() * np.array(scalars, dtype=float)
    return RandomVariable(space=f.space,
                          values=[math.fsum(row) for row in products.tolist()])


def _rank_k_sums(f: SeparableRandomFunction,
                 division: TaggedDivision) -> np.ndarray | None:
    """C @ s, where s holds the K sums riemann_sum_scalar(phi_k, division);
    None when a value is not finite or a cell could overflow.  The bases are
    evaluated in column blocks into one K x n array, whose rows are then
    summed in one np.sum, as riemann_sum_scalar sums its one row."""
    widths = division.widths
    basis_values = values_in_blocks(f.bases, division.tags)
    coefficients = f.coefficient_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        reach = (np.abs(coefficients).max(axis=0)
                 @ np.abs(basis_values).max(axis=1)) * widths.sum()
    if not reach < _SAFE_REACH:  # also False for NaN
        return None
    basis_values *= widths
    return coefficients @ np.sum(basis_values, axis=1)


def random_riemann_sum(f: RandomFunction, division: TaggedDivision) -> RandomVariable:
    """Outcome-wise Riemann sum of f over the division.

    A separable function is summed with rank K: C @ s, where s holds the K
    scalar sums riemann_sum_scalar(phi_k, division), so no outcomes x tags
    matrix is built.  It agrees with the dense sum of ``as_pathwise(f)`` to
    the last bits, not bit for bit.  When a basis value is not finite or a
    cell C_ik phi_k(t) could overflow, f is summed densely instead, so the
    error names the same tag and outcome as the dense sum.

    The dense sum adds each column block's row sums over ``map_blocks``,
    the blocks the mean path and the domination check share, in block
    order: its last bits depend on the fixed block size and never on the
    number of CPUs.  A non-finite value names the lowest outcome that has
    one, then its lowest tag, as one check of the whole matrix would;
    finite values whose sum overflows name the outcome.
    """
    if isinstance(f, SeparableRandomFunction):
        sums = _rank_k_sums(f, division)
        if sums is not None:
            return RandomVariable(space=f.space, values=sums)
        f = as_pathwise(f)
    widths = division.widths

    def block_sums(start, block):
        """(first non-finite (outcome, column) or None, row sums or None)"""
        bad = ~np.isfinite(block)
        if bad.any():
            outcome, col = (int(i) for i in np.argwhere(bad)[0])
            return (outcome, start + col), None
        # einsum, not block @ widths: BLAS threads would take the CPU that
        # the other block runs on.
        with np.errstate(over="ignore", invalid="ignore"):
            return None, np.einsum("ij,j->i", block,
                                   widths[start:start + block.shape[1]])

    sums = np.full(f.space.size, -0.0)  # -0.0 + x == x, bit for bit
    first = None  # (outcome, column) of the first non-finite value
    for place, block_sum in map_blocks(f, division.tags, block_sums):
        if place is not None:
            first = place if first is None else min(first, place)
        elif first is None:
            with np.errstate(over="ignore", invalid="ignore"):
                sums += block_sum
    if first is not None:
        outcome, col = first
        tag = float(division.tags[col])
        raise EvaluationError(
            f"random function returned a non-finite value at tag {tag!r}, "
            f"outcome {outcome}", tag=tag, outcome=outcome,
        )
    overflowed = np.nonzero(~np.isfinite(sums))[0]
    if overflowed.size:
        outcome = int(overflowed[0])
        raise EvaluationError(
            "Riemann sum of the random function is not finite at outcome "
            f"{outcome}", outcome=outcome,
        )
    return RandomVariable(space=f.space, values=sums)


def _check_parameters(max_levels: int | None = None, **positive: float) -> None:
    for name, val in positive.items():
        if not (math.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be positive, got {val}")
    if max_levels is not None and max_levels < 0:
        raise ValueError(f"max_levels must be >= 0, got {max_levels}")


def _settle(levels: LevelPass, tol: float):
    """Advance the pass until every outcome's sum has settled or the pass
    ends (the rest are failed); returns (integral, failed).  The pass stays
    at the final level, so its division and sums are handed on."""
    rule = Settle(tol)
    while not rule.done and levels.advance():
        rule.feed(levels.sums.values)
        log.info("level %d: %d of %d outcomes settled", levels.level,
                 np.count_nonzero(rule.settled), rule.settled.size)
    integral = RandomVariable(space=levels.sums.space, values=rule.values)
    failed = tuple(int(i) for i in np.nonzero(~rule.settled)[0])
    return integral, failed


def _pair_rows(eps: float | None, eta: float | None, tol: float):
    """The (eps, eta) pairs a certificate reports.

    The caller's pair always appears first; default grid pairs are added
    when they are meaningful at this tolerance (eps >= 10 tol) and no
    stricter than the caller's request.
    """
    rows = []
    if eps is not None:
        rows.append((eps, eta))
    floor = 10.0 * tol if eps is None else max(10.0 * tol, eps)
    for e in DEFAULT_EPS_GRID:
        if e >= floor and (e, DEFAULT_ETA) not in rows:
            rows.append((e, DEFAULT_ETA))
    if not rows:
        rows.append((max(10.0 * tol, 1e-12), DEFAULT_ETA))
    return rows


def _certify(integral: RandomVariable, levels: LevelPass, pairs, sums,
             ) -> tuple[tuple[CertificateRow, ...], bool]:
    """Find, per (eps, eta) pair, a gauge level whose sharp divisions all
    stay within eps of the integral outside probability eta.

    Starts at the pass's current level, where integration stopped.  Tails
    are measured on two divisions per level: the constructed one, with the
    pass's sums, and the pass's fresh division, with ``sums(division)``.  A
    pair that keeps failing advances the pass (each pair is entitled to its
    own gauge) until the level or piece budget runs out, at which point its
    row reports the failing tail honestly.
    """
    pending = list(pairs)
    rows: dict[tuple[float, float], CertificateRow] = {}
    last = levels.level + _VERIFY_EXTRA_LEVELS
    while True:
        all_sums = (levels.sums, sums(levels.fresh()))
        for (eps, eta) in pending:
            tail = max(
                deviation_probability(s, integral, eps) for s in all_sums
            )
            rows[(eps, eta)] = CertificateRow(
                eps=eps, eta=eta, achieved_tail=tail,
                mesh_bound=levels.division.mesh)
        pending = [p for p in pending if rows[p].achieved_tail >= rows[p].eta]
        if (not pending or levels.division.pieces > _VERIFY_PIECE_GUARD
                or levels.level == last or not levels.advance()):
            break
    return tuple(rows[pair] for pair in pairs), not pending


def integrate_separable(f: SeparableRandomFunction, domain: Interval,
                        tol: float,
                        max_levels: int = DEFAULT_MAX_LEVELS,
                        ) -> StochasticIntegralResult:
    """Integrate sum_k C_k phi_k exactly through its scalar basis integrals.

    I(omega) = sum_k C_k(omega) * integral(phi_k); each basis integrates
    under its own paired gauge family (uniform halving when none is
    shipped).  A basis that fails to converge raises
    :class:`NonConvergenceError` naming the term.
    """
    _check_parameters(max_levels, tol=tol)
    domain = Interval.coerce(domain)
    if not isinstance(f, SeparableRandomFunction):
        raise TypeError("integrate_separable needs a separable random function")
    scalar_results = []
    for k, basis in enumerate(f.bases):
        res = kh_integrate(basis, domain, tol, max_levels=max_levels)
        if not res.converged:
            raise NonConvergenceError(f"basis {k} ({basis.name!r}) did not "
                                      "converge within the level budget", index=k)
        scalar_results.append(res)
    integral = _combine(f, [r.value for r in scalar_results])

    level = max(r.refinement_levels for r in scalar_results)
    levels = LevelPass(f, domain, None, level, max_levels,
                       lambda division: random_riemann_sum(f, division))
    levels.advance()
    rows, ok = _certify(integral, levels, _pair_rows(None, None, tol),
                        levels.sum_over)
    return StochasticIntegralResult(
        integral=integral, certificate=rows, method="separable",
        verified=ok, levels_used=level,
    )


def integrate_pathwise(f: RandomFunction, domain: Interval, eps: float,
                       eta: float, tol: float,
                       gauge_family: GaugeFamily | None = None,
                       max_levels: int = DEFAULT_MAX_LEVELS,
                       ) -> StochasticIntegralResult:
    """Integrate every sample path under one shared gauge family.

    A single gauge must serve all outcomes simultaneously, so each level
    builds one sharp division and sums every path over it.  A path's value
    freezes at its first successive-level agreement within ``tol``
    (outcome-wise quadrature); paths that never settle are listed in
    ``failed_outcomes`` and the result is left unverified, in-band.

    The certificate re-measures deviation tails on fresh divisions at the
    final level and requires tail < eta for the requested pair and for the
    default grid.
    """
    _check_parameters(max_levels, eps=eps, eta=eta, tol=tol)
    domain = Interval.coerce(domain)
    levels = LevelPass(f, domain, gauge_family, 0, max_levels,
                       lambda division: random_riemann_sum(f, division))
    integral, failed = _settle(levels, tol)
    level = levels.level
    rows, tails_ok = _certify(integral, levels, _pair_rows(eps, eta, tol),
                              levels.sum_over)
    return StochasticIntegralResult(
        integral=integral, certificate=rows, method="pathwise",
        verified=tails_ok and not failed, levels_used=level,
        failed_outcomes=failed,
    )


def convergence_tails(f: RandomFunction, domain: Interval, eps: float,
                      tol: float, gauge_family: GaugeFamily | None = None,
                      max_levels: int = DEFAULT_MAX_LEVELS,
                      ) -> tuple[tuple[int, float, float], ...]:
    """(level, mesh, P(|S - I| >= eps)) for the sums S of each level
    0..max_levels against the pathwise integral I settled on the same
    divisions; no certificate is computed."""
    _check_parameters(max_levels, eps=eps, tol=tol)
    domain = Interval.coerce(domain)
    per_level = []  # (mesh, sums) of levels 0, 1, ...

    def recorded_sums(division):
        per_level.append((division.mesh, random_riemann_sum(f, division)))
        return per_level[-1][1]

    levels = LevelPass(f, domain, gauge_family, 0, max_levels, recorded_sums)
    integral = _settle(levels, tol)[0]
    while levels.advance():
        pass
    return tuple((level, mesh, deviation_probability(sums, integral, eps))
                 for level, (mesh, sums) in enumerate(per_level))


def integrate_riemann_in_probability(f: RandomFunction, domain: Interval,
                                     eps: float, eta: float, tol: float,
                                     max_levels: int = DEFAULT_MAX_LEVELS,
                                     ) -> StochasticIntegralResult:
    """Pathwise integration restricted to constant-width gauges.

    The constant-gauge family (uniform mesh halving) is the degenerate case
    of gauge fineness, so this witnesses plain Riemann integrability in
    probability: smooth integrands reproduce the gauge result, while
    integrands needing local pinching stall or miss under any level budget.
    """
    result = integrate_pathwise(f, domain, eps, eta, tol,
                                gauge_family=uniform_gauge_family(domain),
                                max_levels=max_levels)
    return replace(result, method="riemann")


def _deviation_rows(x: RandomVariable, y: RandomVariable, eps: float,
                    floor: float):
    """(e, P(|x - y| >= e)) on a five-point eps grid descending
    geometrically to floor."""
    if eps <= floor:
        grid = [eps]
    else:
        ratio = (floor / eps) ** 0.25
        grid = [eps * ratio ** j for j in range(4)] + [floor]
    return tuple((e, deviation_probability(x, y, e)) for e in grid)


@dataclass(frozen=True)
class UniquenessReport:
    """Do two gauge strategies land on the same integral (a.e.)?"""

    strategy_names: tuple[str, str]
    verified: tuple[bool, bool]
    conclusive: bool
    almost_surely_equal: bool
    equal_tolerance: float
    deviation_rows: tuple[tuple[float, float], ...]
    integrals: tuple[RandomVariable, RandomVariable]

    def as_dict(self) -> dict:
        return {
            "strategies": list(self.strategy_names),
            "verified": list(self.verified),
            "conclusive": self.conclusive,
            "almost_surely_equal": self.almost_surely_equal,
            "equal_tolerance": self.equal_tolerance,
            "deviation_rows": [
                {"eps": e, "deviation_probability": p}
                for e, p in self.deviation_rows
            ],
            "integral_1": self.integrals[0].values.tolist(),
            "integral_2": self.integrals[1].values.tolist(),
        }


def verify_uniqueness(f: RandomFunction, domain: Interval, strategies,
                      eps: float, eta: float, tol: float,
                      max_levels: int = DEFAULT_MAX_LEVELS) -> UniquenessReport:
    """Integrate f under two gauge strategies and compare the results.

    Any two accepted integrals must agree almost everywhere, so the report
    states almost-sure equality at 10 tol plus exact deviation
    probabilities on an eps grid descending to 10 tol -- the finite-space
    image of shrinking the deviation threshold to zero.  If either strategy
    fails verification the report is inconclusive rather than an error.
    """
    fam1, fam2 = strategies
    r1 = integrate_pathwise(f, domain, eps, eta, tol, gauge_family=fam1,
                            max_levels=max_levels)
    r2 = integrate_pathwise(f, domain, eps, eta, tol, gauge_family=fam2,
                            max_levels=max_levels)
    equal_tol = 10.0 * tol
    rows = _deviation_rows(r1.integral, r2.integral, eps, equal_tol)
    return UniquenessReport(
        strategy_names=(getattr(fam1, "name", "strategy-1"),
                        getattr(fam2, "name", "strategy-2")),
        verified=(r1.verified, r2.verified),
        conclusive=r1.verified and r2.verified,
        almost_surely_equal=almost_surely_equal(r1.integral, r2.integral,
                                                tol=equal_tol),
        equal_tolerance=equal_tol,
        deviation_rows=rows,
        integrals=(r1.integral, r2.integral),
    )


def _chebyshev_grid(domain: Interval) -> np.ndarray:
    """The 257 Chebyshev nodes of the domain, ascending."""
    center = 0.5 * (domain.lower + domain.upper)
    half = 0.5 * domain.width
    nodes = center + half * np.cos(np.pi * np.arange(257) / 256)
    return np.sort(nodes)


@dataclass(frozen=True)
class FubiniReport:
    """Exchange check: integrate-the-mean versus mean-of-the-integrals."""

    hypothesis_ok: bool
    violation_t: float | None
    violating_outcomes: tuple[int, ...]
    lhs: float | None
    rhs: float | None
    abs_difference: float | None
    tolerance: float
    passed: bool
    bound_ok: bool | None
    bound_margin: float | None
    dominator_moment: float
    grid_points: int
    lhs_converged: bool | None
    rhs_verified: bool | None

    def as_dict(self) -> dict:
        return asdict(self)


def _domination_violation(f: RandomFunction, ts: np.ndarray,
                          dominator: RandomVariable):
    """First point of ts where |f(t, .)| exceeds the dominator on outcomes
    of positive weight, with those outcomes; None if there is none.  The
    values are evaluated block by block over ``map_blocks``, which stops
    at the first block with a violation."""
    view = as_pathwise(f)
    positive = (view.space.weights > 0)[:, None]
    bound = dominator.values[:, None]

    def first_violation(start, block):
        exceeded = (np.abs(block) > bound) & positive
        cols = np.nonzero(exceeded.any(axis=0))[0]
        if cols.size:
            col = int(cols[0])
            outcomes = tuple(int(i) for i in np.nonzero(exceeded[:, col])[0])
            return float(ts[start + col]), outcomes
        return None

    with closing(map_blocks(view, ts, first_violation)) as violations:
        return next((v for v in violations if v is not None), None)


def fubini_check(f: RandomFunction, domain: Interval,
                 dominator: RandomVariable, tol: float,
                 max_levels: int = DEFAULT_MAX_LEVELS) -> FubiniReport:
    """Check that integrating in t and averaging over outcomes commute.

    Hypotheses first: the dominator must be nonnegative (a.e.) with
    |f(t, omega)| <= A(omega) almost surely for every t -- verified exactly
    on a Chebyshev grid plus every tag the integrations actually touch.  A
    violation produces a failed report naming t and the outcomes; nothing
    is integrated in that case.

    With hypotheses in force, LHS integrates t -> E[f(t, .)] as a scalar
    function and RHS averages the pathwise integral; they must agree within
    20 tol.  The report also confirms the dominating bound
    |S(omega)| <= A(omega) (b - a) on the final division.
    """
    _check_parameters(max_levels, tol=tol)
    domain = Interval.coerce(domain)
    if dominator.space != f.space:
        raise SpaceMismatchError("dominator must live on the function's space")
    if np.any((dominator.values < 0) & (dominator.space.weights > 0)):
        raise ValueError("dominator must be nonnegative almost everywhere")
    a_moment = moment(dominator, 1)

    grid = _chebyshev_grid(domain)
    violation = _domination_violation(f, grid, dominator)

    mean_fn = expectation_function(f)
    lhs = rhs = diff = bound_ok = bound_margin = None
    lhs_converged = rhs_verified = None
    checked_points = grid.size

    if violation is None:
        # One pass serves both sides: each division feeds the LHS the mean
        # path's sum until it settles, the RHS the outcome sums it needs.
        mean, mean_tags = Settle(tol), None

        def mean_sum(division):
            nonlocal mean_tags
            if not mean.done:
                mean.feed(riemann_sum_scalar(mean_fn, division))
                mean_tags = division.tags

        def both_sums(division):
            mean_sum(division)
            return random_riemann_sum(f, division)

        levels = LevelPass(f, domain, None, 0, max_levels, both_sums)
        integral, failed = _settle(levels, tol)
        rhs_tags = levels.division.tags
        margins = np.abs(levels.sums.values) - dominator.values * domain.width
        margin = float(np.max(margins[f.space.weights > 0]))
        _, tails_ok = _certify(
            integral, levels, _pair_rows(1e-3, DEFAULT_ETA, tol),
            lambda division: random_riemann_sum(f, division))
        rhs = expectation(integral)
        levels.sum_over = mean_sum
        while not mean.done and levels.advance():
            pass
        lhs, lhs_converged = float(mean.values[0]), mean.done
        # The mean path's tags, then the right-hand side's; rhs_verified is
        # reported once the mean path's tags hold.
        for tags in (mean_tags, rhs_tags):
            violation = _domination_violation(f, tags, dominator)
            checked_points += tags.size
            if violation is not None:
                break
            rhs_verified = tails_ok and not failed
        else:
            bound_margin, bound_ok = margin, bool(margin <= 0.0)

    hypothesis_ok = violation is None
    if hypothesis_ok:
        diff = abs(lhs - rhs)
    passed = (hypothesis_ok and lhs_converged and diff is not None
              and diff <= 20.0 * tol)
    return FubiniReport(
        hypothesis_ok=hypothesis_ok,
        violation_t=None if hypothesis_ok else violation[0],
        violating_outcomes=() if hypothesis_ok else violation[1],
        lhs=lhs if hypothesis_ok else None,
        rhs=rhs if hypothesis_ok else None,
        abs_difference=diff,
        tolerance=20.0 * tol,
        passed=bool(passed),
        bound_ok=bound_ok,
        bound_margin=bound_margin,
        dominator_moment=a_moment,
        grid_points=checked_points,
        lhs_converged=lhs_converged,
        rhs_verified=rhs_verified,
    )


@dataclass(frozen=True)
class DerivativeReport:
    """Difference-quotient tails of F around t0 against a candidate slope."""

    t0: float
    eps: float
    eta: float
    rows: tuple[tuple[float, float], ...]
    passed: bool
    worst_tail: float
    worst_t: float

    def as_dict(self) -> dict:
        return {
            "t0": self.t0,
            "eps": self.eps,
            "eta": self.eta,
            "rows": [{"t": t, "tail": tail} for t, tail in self.rows],
            "passed": self.passed,
            "worst_tail": self.worst_tail,
            "worst_t": self.worst_t,
        }


def derivative_grid(t0: float, radius: float, points: int) -> list[float]:
    """The default grid of ``derivative_in_probability_at``: ``points // 2``
    equally spaced offsets within ``radius`` on each side of t0."""
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    half = points // 2
    offsets = [radius * k / half for k in range(1, half + 1)]
    return [t0 - o for o in reversed(offsets)] + [t0 + o for o in offsets]


def derivative_in_probability_at(F: RandomFunction, f_candidate: RandomFunction,
                                 t0: float, eps: float, eta: float,
                                 grid=None, radius: float = 1e-3,
                                 points: int = 16) -> DerivativeReport:
    """Is f_candidate(t0, .) the derivative of F at t0, in probability?

    For each grid point t near t0 the tail
    P(|(F(t) - F(t0)) / (t - t0) - f_candidate(t0)| >= eps) is computed
    exactly; all tails below eta passes.  The grid (default: ``points``
    symmetric offsets within ``radius``) is a finite surrogate for the
    every-t quantifier, so a pass is evidence, not proof.
    """
    _check_parameters(eps=eps, eta=eta)
    viewF = as_pathwise(F)
    viewf = as_pathwise(f_candidate)
    if viewF.space != viewf.space:
        raise SpaceMismatchError("F and its candidate derivative must share a space")
    if grid is None:
        grid = derivative_grid(t0, radius, points)
    grid = [float(t) for t in grid]
    if any(t == t0 for t in grid):
        raise ValueError("grid points must differ from t0")

    space = viewF.space
    ts = np.array(grid + [t0])
    f_matrix = values_matrix(viewF, ts)
    base = f_matrix[:, -1]
    slope = values_matrix(viewf, np.array([t0]))[:, 0]
    slope_rv = RandomVariable(space=space, values=slope)

    rows = []
    for j, t in enumerate(grid):
        quotient = (f_matrix[:, j] - base) / (t - t0)
        q_rv = RandomVariable(space=space, values=quotient)
        rows.append((t, deviation_probability(q_rv, slope_rv, eps)))
    worst_t, worst_tail = max(rows, key=lambda row: row[1])
    return DerivativeReport(
        t0=t0, eps=eps, eta=eta, rows=tuple(rows),
        passed=all(tail < eta for _, tail in rows),
        worst_tail=worst_tail, worst_t=worst_t,
    )


@dataclass(frozen=True, eq=False)
class FtcReport:
    """EXPLORATORY: does the integral of the derivative recover F(b) - F(a)?

    The relationship is an open matter in this generality; the report
    asserts nothing beyond the computed numbers.
    """

    exploratory: bool
    derivative_points: tuple[tuple[float, bool, float], ...]
    derivative_all_passed: bool
    integral_verified: bool
    almost_surely_equal: bool
    equal_tolerance: float
    deviation_rows: tuple[tuple[float, float], ...]
    integral_values: np.ndarray
    increment_values: np.ndarray

    def as_dict(self) -> dict:
        return {
            "exploratory": self.exploratory,
            "note": "exploratory experiment: no claim is asserted",
            "derivative_points": [
                {"t0": t, "passed": ok, "worst_tail": tail}
                for t, ok, tail in self.derivative_points
            ],
            "derivative_all_passed": self.derivative_all_passed,
            "integral_verified": self.integral_verified,
            "almost_surely_equal": self.almost_surely_equal,
            "equal_tolerance": self.equal_tolerance,
            "deviation_rows": [
                {"eps": e, "deviation_probability": p}
                for e, p in self.deviation_rows
            ],
            "integral_values": self.integral_values.tolist(),
            "increment_values": self.increment_values.tolist(),
        }


def ftc_experiment(F: RandomFunction, f: RandomFunction, domain: Interval,
                   eps: float, eta: float, tol: float,
                   max_levels: int = DEFAULT_MAX_LEVELS) -> FtcReport:
    """Compare the pathwise integral of f with the increment F(b) - F(a).

    First records difference-quotient checks at the midpoints of ten equal
    cells, at their own threshold ``DERIVATIVE_EPS`` (they may fail for
    violently oscillating F; the experiment still runs).  Then integrates f
    under its paired gauge family and reports exact deviation tails between
    the integral and the increment, plus almost-sure equality at 10 tol.
    Output is labeled exploratory throughout.
    """
    domain = Interval.coerce(domain)
    width = domain.width
    radius = width * 1e-3
    checks = []
    for j in range(10):
        t0 = domain.lower + width * (j + 0.5) / 10
        rep = derivative_in_probability_at(F, f, t0, DERIVATIVE_EPS, eta,
                                           radius=radius)
        checks.append((t0, rep.passed, rep.worst_tail))

    res = integrate_pathwise(f, domain, eps, eta, tol, max_levels=max_levels)
    viewF = as_pathwise(F)
    ends = values_matrix(viewF, np.array([domain.lower, domain.upper]))
    increment = RandomVariable(space=viewF.space,
                               values=ends[:, 1] - ends[:, 0])
    equal_tol = 10.0 * tol
    rows = _deviation_rows(res.integral, increment, eps, equal_tol)
    return FtcReport(
        exploratory=True,
        derivative_points=tuple(checks),
        derivative_all_passed=all(ok for _, ok, _ in checks),
        integral_verified=res.verified,
        almost_surely_equal=almost_surely_equal(res.integral, increment,
                                                tol=equal_tol),
        equal_tolerance=equal_tol,
        deviation_rows=rows,
        integral_values=res.integral.values,
        increment_values=increment.values,
    )
