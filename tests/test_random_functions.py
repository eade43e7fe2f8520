import logging
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
    catalog,
    cousin_partition,
    expectation_function,
    gauge_from_delta,
    integrate_pathwise,
    integrate_separable,
    random_riemann_sum,
    riemann_sum_scalar,
)
from gaugeprob import quadrature, random_functions, stochastic
from gaugeprob.cli import main
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
        """integrate_separable certifies with random_riemann_sum, so a basis
        that is NaN only at tags the 0.45 split reaches raises the dense
        sum's error, which names the tag and the outcome."""
        f = SeparableRandomFunction(
            coefficients=(rv(1.0, 2.0),),
            bases=(ScalarIntegrand(name="square", fn=square_on_grid),))
        message, tag, outcome = self.raised(lambda: integrate_separable(
            f, Interval(0.0, 1.0), 1e-6))
        assert message == ("random function returned a non-finite value at "
                           f"tag {tag!r}, outcome 0")
        assert tag * 1024 != math.floor(tag * 1024)
        assert outcome == 0


class TestRankKBlocks:
    """A rank-K sum and a scalar sum evaluate their integrands in column
    blocks of at most quadrature._BLOCK_CELLS cells and sum each row whole.
    A NumPy ufunc gives the same bits at any array length, so the sums, and
    the errors, do not depend on the block size."""

    @staticmethod
    def outcome(call):
        try:
            result = call()
        except EvaluationError as exc:
            return str(exc), exc.tag, exc.outcome
        return np.asarray(getattr(result, "values", result)).tobytes()

    @staticmethod
    def division():
        d = cousin_partition(gauge_from_delta(lambda ts: 2e-4 + 4e-4 * ts),
                             Interval(0.0, 1.0), split=0.45)
        assert 2000 < d.pieces < 20_000
        return d

    def assert_block_free(self, monkeypatch, f, division):
        """The outcomes of random_riemann_sum(f) and of riemann_sum_scalar
        on each basis, which are the same in one block and in many."""
        calls = [lambda: random_riemann_sum(f, division)] + [
            lambda basis=basis: riemann_sum_scalar(basis, division)
            for basis in f.bases]
        whole = [self.outcome(call) for call in calls]
        # One block above, about 300 tags per block below.
        assert f.terms * division.pieces <= quadrature._BLOCK_CELLS
        monkeypatch.setattr(quadrature, "_BLOCK_CELLS", 300 * f.terms)
        assert [self.outcome(call) for call in calls] == whole
        return whole

    @pytest.mark.parametrize("basis", catalog.scalar_ids() + ("all",))
    def test_sums_bit_for_bit(self, monkeypatch, basis):
        ids = catalog.scalar_ids() if basis == "all" else (basis, "trig-mix")
        coefficients = (rv(1.0, -2.5), rv(0.3, 4.0), rv(-1.5, 0.25))
        f = SeparableRandomFunction(
            coefficients=tuple(coefficients[k % 3] for k in range(len(ids))),
            bases=tuple(catalog.scalar_integrand(i) for i in ids))
        self.assert_block_free(monkeypatch, f, self.division())

    def test_non_finite_fallback_names_the_same_tag(self, monkeypatch):
        division = self.division()
        bad = float(division.tags[division.pieces * 2 // 3])

        def spike(ts):
            return np.where(ts == bad, np.nan, ts)

        f = SeparableRandomFunction(
            coefficients=(rv(1.0, 2.0), rv(0.0, -1.0)),
            bases=(LINEAR, ScalarIntegrand(name="spike", fn=spike)))
        dense, _, scalar = self.assert_block_free(monkeypatch, f, division)
        assert scalar == (
            f"integrand returned a non-finite value at tag {bad!r}", bad, None)
        assert dense == ("random function returned a non-finite value at "
                         f"tag {bad!r}, outcome 0", bad, 0)


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


def cosine_paths(n: int, seed: int = 0) -> PathwiseRandomFunction:
    """cos(a_w t + b_w) on n equally weighted outcomes."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.5, 8.0, n), rng.uniform(0.0, 6.0, n)
    return PathwiseRandomFunction(
        space=DiscreteProbabilitySpace.uniform(n),
        matrix_evaluate=lambda ts: np.cos(np.multiply.outer(a, ts)
                                          + b[:, None]))


def midpoint_division(pieces: int) -> TaggedDivision:
    points = np.linspace(0.0, 1.0, pieces + 1)
    return TaggedDivision(points=points, tags=(points[:-1] + points[1:]) / 2)


class TestColumnBlocks:
    """The dense sum and the pathwise mean evaluate f in column blocks of at
    most _BLOCK_CELLS cells, with the error contract of one whole matrix."""

    def test_peak_memory_is_a_few_blocks(self):
        f = cosine_paths(2048)
        division = midpoint_division(8192)
        assert 2048 * 8192 >= 16 * random_functions._BLOCK_CELLS
        bound = 5 * random_functions._BLOCK_CELLS * 8
        mean = expectation_function(f)
        tracemalloc.start()
        try:
            for call in (lambda: random_riemann_sum(f, division),
                         lambda: mean.values_at(division.tags)):
                tracemalloc.reset_peak()
                call()
                assert tracemalloc.get_traced_memory()[1] < bound
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("cells, blocks", [(30, 2), (15, 5), (3, 10)])
    def test_blocked_sums_match_one_matrix(self, monkeypatch, cells, blocks):
        monkeypatch.setattr(random_functions, "_BLOCK_CELLS", cells)
        f = cosine_paths(3)
        division = midpoint_division(10)
        calls = []
        evaluate = f.matrix_evaluate
        f = PathwiseRandomFunction(
            space=f.space,
            matrix_evaluate=lambda ts: calls.append((ts[0], ts.size))
            or evaluate(ts))
        whole = evaluate(division.tags)
        sums = random_riemann_sum(f, division).values
        # Blocks of cells // 2 cells, at least one column, on any thread.
        step = 10 // blocks
        assert sorted(calls) == [(division.tags[start], step)
                                 for start in range(0, 10, step)]
        np.testing.assert_allclose(sums, whole @ division.widths,
                                   rtol=0, atol=1e-12)
        weights = f.space.weights
        assert (expectation_function(f).values_at(division.tags).tolist()
                == (weights[:, None] * whole).sum(axis=0).tolist())

    def test_non_finite_cells_in_two_blocks_name_the_lowest_outcome(
            self, monkeypatch):
        monkeypatch.setattr(random_functions, "_BLOCK_CELLS", 16)
        division = midpoint_division(8)  # 4 outcomes: blocks of 2 columns
        tags = division.tags

        def matrix(ts):
            values = np.zeros((4, ts.size))
            values[3, ts == tags[1]] = math.inf  # block 0, outcome 3
            values[1, (ts == tags[6]) | (ts == tags[7])] = math.nan  # block 3
            return values

        f = PathwiseRandomFunction(space=DiscreteProbabilitySpace.uniform(4),
                                   matrix_evaluate=matrix)
        outcome, col = np.argwhere(~np.isfinite(matrix(tags)))[0]
        assert (outcome, col) == (1, 6)
        with pytest.raises(EvaluationError) as err:
            random_riemann_sum(f, division)
        assert (err.value.outcome, err.value.tag) == (1, float(tags[6]))
        assert str(err.value) == (
            "random function returned a non-finite value at tag "
            f"{float(tags[6])!r}, outcome 1")

    def test_overflowing_sum_names_its_outcome(self):
        f = PathwiseRandomFunction(
            space=SPACE,
            matrix_evaluate=lambda ts: np.outer([1.0, 1e308],
                                                np.ones_like(ts)))
        division = TaggedDivision(points=np.array([0.0, 5.0, 10.0]),
                                  tags=np.array([2.5, 7.5]))
        with pytest.raises(EvaluationError) as err:
            random_riemann_sum(f, division)
        assert str(err.value) == (
            "Riemann sum of the random function is not finite at outcome 1")
        assert (err.value.outcome, err.value.tag) == (1, None)


@pytest.fixture
def workers(monkeypatch):
    """use(n): evaluate pathwise blocks on n workers, from a pool of the
    test's own, shut down when the test ends."""
    original = random_functions._pool

    def shut_down():
        if random_functions._pool not in (None, original):
            random_functions._pool.shutdown()

    def use(n):
        shut_down()
        monkeypatch.setattr(random_functions, "_WORKERS", n)
        monkeypatch.setattr(random_functions, "_pool", None)

    yield use
    shut_down()


def block_index(tags):
    """The index of the column block (of one column) that ts starts."""
    return lambda ts: int(np.searchsorted(tags, ts[0]))


def _exit_with_sum_check(f, division, expected):
    same = random_riemann_sum(f, division).values.tobytes() == expected
    sys.exit(0 if same else 1)


class TestParallelBlocks:
    """A genuine pathwise function's blocks run on up to _WORKERS threads;
    the results are combined in block order."""

    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                        workers):
        monkeypatch.setattr(random_functions, "_BLOCK_CELLS", 1 << 12)
        f = cosine_paths(50)
        division = midpoint_division(1000)
        tags = division.tags
        step = (1 << 11) // 50  # 25 blocks of 40 columns
        # Reference: the blocks' row sums added in block order.
        blocks = [values_matrix(f, tags[start:start + step])
                  for start in range(0, tags.size, step)]
        expected = np.full(50, -0.0)
        for k, block in enumerate(blocks):
            expected += np.einsum("ij,j->i", block,
                                  division.widths[k * step:(k + 1) * step])
        whole = np.concatenate(blocks, axis=1)
        # Dominated on the first 600 tags only: the first violation lies in
        # block 15, found from the whole matrix.
        bound = np.abs(whole[:, :600]).max(axis=1)
        dominator = RandomVariable(space=f.space, values=bound)
        exceeded = np.abs(whole) > bound[:, None]
        col = int(np.nonzero(exceeded.any(axis=0))[0][0])
        assert col // step == 15
        violation = (float(tags[col]),
                     tuple(np.nonzero(exceeded[:, col])[0].tolist()))
        weights = f.space.weights
        means = (weights[:, None] * whole).sum(axis=0)

        def results():
            return (random_riemann_sum(f, division).values.tobytes(),
                    expectation_function(f).values_at(tags).tobytes(),
                    stochastic._domination_violation(f, tags, dominator))

        runs = []
        for n in (1, 2):
            workers(n)
            runs += [results() for _ in range(3)]
        assert runs == [(expected.tobytes(), means.tobytes(), violation)] * 6

    @pytest.mark.parametrize("n", [1, 2])
    def test_non_finite_cells_on_two_workers_name_the_lowest_outcome(
            self, monkeypatch, workers, n):
        workers(n)
        monkeypatch.setattr(random_functions, "_BLOCK_CELLS", 8)
        division = midpoint_division(8)  # 4 outcomes: blocks of 1 column
        tags = division.tags

        def matrix(ts):
            values = np.zeros((4, ts.size))
            values[3, ts == tags[0]] = math.nan  # block 0
            values[1, ts == tags[1]] = math.inf  # block 1, the other worker
            values[0, ts == tags[6]] = -math.inf  # lowest outcome, block 6
            values[0, ts == tags[7]] = math.nan
            return values

        f = PathwiseRandomFunction(space=DiscreteProbabilitySpace.uniform(4),
                                   matrix_evaluate=matrix)
        with pytest.raises(EvaluationError) as err:
            random_riemann_sum(f, division)
        assert (err.value.outcome, err.value.tag) == (0, float(tags[6]))

    def test_an_evaluator_error_reaches_the_caller_unchanged(self, monkeypatch,
                                                             workers):
        monkeypatch.setattr(random_functions, "_BLOCK_CELLS", 8)
        division = midpoint_division(8)  # 4 outcomes: blocks of 1 column
        index = block_index(division.tags)

        def matrix(ts):
            if index(ts) >= 3:
                raise ValueError(f"no value in block {index(ts)}")
            return np.zeros((4, ts.size))

        f = PathwiseRandomFunction(space=DiscreteProbabilitySpace.uniform(4),
                                   matrix_evaluate=matrix)
        dominator = RandomVariable(space=f.space, values=np.ones(4))
        calls = (lambda: random_riemann_sum(f, division),
                 lambda: expectation_function(f).values_at(division.tags),
                 lambda: stochastic._domination_violation(f, division.tags,
                                                          dominator))
        raised = []
        for n in (1, 2):
            workers(n)
            for call in calls:
                with pytest.raises(ValueError) as err:
                    call()
                raised.append((type(err.value), str(err.value)))
        assert raised == [(ValueError, "no value in block 3")] * 6

    def test_out_of_memory_on_a_worker_exits_1(self, capsys, monkeypatch,
                                               workers):
        workers(2)
        monkeypatch.setattr(random_functions, "_BLOCK_CELLS", 2)
        threads = []
        dense_sum = stochastic.random_riemann_sum

        def exhausted(ts):
            threads.append(threading.current_thread().name)
            raise MemoryError("Unable to allocate 164. GiB for an array")

        def on_the_pool(f, division):
            return dense_sum(PathwiseRandomFunction(
                space=f.space, matrix_evaluate=exhausted), division)

        monkeypatch.setattr(stochastic, "random_riemann_sum", on_the_pool)
        assert main(["integrate-prob", "--catalog", "linear-coeff"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("gaugeprob: error: out of memory: Unable to "
                                "allocate 164. GiB for an array\n")
        assert threads
        assert all(name.startswith("gaugeprob-blocks") for name in threads)

    def test_an_early_stop_leaves_no_block_running(self, monkeypatch, workers):
        workers(2)
        monkeypatch.setattr(random_functions, "_BLOCK_CELLS", 4)
        ts = np.linspace(0.0, 1.0, 6)  # 2 outcomes: blocks of 1 column
        index = block_index(ts)
        second_started = threading.Event()
        lock = threading.Lock()
        started, running = [], [0]

        def matrix(ts):
            with lock:
                started.append(index(ts))
                running[0] += 1
            try:
                if index(ts) == 0:  # finish only once block 1 is running
                    second_started.wait(timeout=10)
                else:
                    second_started.set()
                    time.sleep(0.2)
                return np.stack([np.full(ts.size, 3.0), np.zeros(ts.size)])
            finally:
                with lock:
                    running[0] -= 1

        f = PathwiseRandomFunction(space=SPACE, matrix_evaluate=matrix)
        violation = stochastic._domination_violation(f, ts, rv(1.0, 1.0))
        assert violation == (0.0, (0,))
        assert running == [0]
        assert sorted(started) == [0, 1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_at_most_workers_blocks_are_outstanding(self, monkeypatch,
                                                    workers, n):
        workers(n)
        # Spare threads, so only the submission window bounds the overlap.
        monkeypatch.setattr(random_functions, "_pool",
                            ThreadPoolExecutor(n + 2))
        monkeypatch.setattr(random_functions, "_BLOCK_CELLS", 4)
        lock = threading.Lock()
        running, peak = [0], [0]
        evaluate = cosine_paths(2).matrix_evaluate

        def matrix(ts):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                time.sleep(0.005)
                return evaluate(ts)
            finally:
                with lock:
                    running[0] -= 1

        f = PathwiseRandomFunction(space=SPACE, matrix_evaluate=matrix)
        division = midpoint_division(40)  # 40 blocks of 1 column
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            random_riemann_sum(f, division)
            expectation_function(f).values_at(division.tags)
        finally:
            sys.setswitchinterval(interval)
        assert peak == [n]

    def test_a_separable_view_runs_in_the_calling_thread(self, monkeypatch,
                                                         workers):
        workers(2)
        monkeypatch.setattr(random_functions, "_BLOCK_CELLS", 8)
        calls = []

        def linear(ts):
            calls.append((threading.current_thread(), ts.size))
            return np.asarray(ts, dtype=float)

        basis = ScalarIntegrand(name="recorded-linear", fn=linear)
        f = SeparableRandomFunction(coefficients=(rv(1.0, 2.0),),
                                    bases=(basis,))
        ts = np.linspace(0.0, 1.0, 10)
        assert stochastic._domination_violation(f, ts, rv(5.0, 5.0)) is None
        here = threading.current_thread()
        assert calls == [(here, 4), (here, 4), (here, 2)]  # 8 cells a block

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_makes_its_own_pool(self, monkeypatch, workers):
        workers(2)
        monkeypatch.setattr(random_functions, "_BLOCK_CELLS", 8)
        f = cosine_paths(4)
        division = midpoint_division(16)
        expected = random_riemann_sum(f, division).values.tobytes()
        assert random_functions._pool is not None
        child = multiprocessing.get_context("fork").Process(
            target=_exit_with_sum_check, args=(f, division, expected))
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


def test_each_settle_level_is_logged(caplog):
    f = PathwiseRandomFunction(space=SPACE,
                               evaluate=lambda t, i: (i + 1) * t * t)
    with caplog.at_level(logging.INFO, logger="gaugeprob"):
        res = integrate_pathwise(f, Interval(0.0, 1.0), 1e-3, 1e-2, 1e-6)
    settled = [r.getMessage() for r in caplog.records
               if r.name == "gaugeprob" and "outcomes settled" in r.getMessage()]
    assert res.verified
    assert len(settled) == res.levels_used + 1
    assert settled[0] == "level 0: 0 of 2 outcomes settled"
    assert settled[-1] == f"level {res.levels_used}: 2 of 2 outcomes settled"


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
