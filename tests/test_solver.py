"""Solver-layer tests: extrapolation search, multi-block sweeps, line search.

A single Euclidean block with a strongly convex quadratic objective is enough
to exercise most of the control flow, because the subproblem minimizer is the
exact closed-form prox step and every quantity can be checked by hand.
"""

import dataclasses
import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bmme import datakit, matcomp, onmf, solver
from bmme.bregman import (
    BlockKernel,
    RelSmoothConstants,
    ValueMemo,
    bregman_divergence,
    quadratic_kernel,
)
from bmme.solver import (
    BacktrackCertificate,
    BlockProblem,
    DescentViolation,
    SolverConfig,
    StopReason,
    initial_state,
    nesterov_next,
    run,
    search_extrapolation,
)


def quadratic_block(a):
    """min over x of 0.5||x - a||^2 as a single Euclidean block."""
    kern = quadratic_kernel()
    return BlockProblem(
        partial_grad=lambda blocks: blocks[0] - a,
        kernel_for=lambda blocks: kern,
        constants_for=lambda blocks: RelSmoothConstants(L=1.0, l=0.0),
        solve_subproblem=lambda blocks, x_bar, g, L, x_prev: x_bar - g / L,
        feasible=lambda x: True,
    )


def quadratic_objective(a):
    return lambda blocks: 0.5 * float(np.sum((blocks[0] - a) ** 2))


class TestNesterovSequence:
    def test_first_step_has_zero_momentum(self):
        step = nesterov_next(1.0)
        assert step.beta_init == 0.0
        assert_allclose(step.nu, (1.0 + np.sqrt(5.0)) / 2.0, rtol=1e-15)

    def test_known_pair(self):
        # reference computed with 50-digit arithmetic:
        #   nu    = 0.5*(1 + sqrt(1 + 4*1.618034^2)) = 2.19352709607965824...
        #   beta  = (1.618034 - 1)/nu               = 0.28175352887346135...
        step = nesterov_next(1.618034)
        assert_allclose(step.nu, 2.1935270960796582, rtol=1e-12)
        assert_allclose(step.beta_init, 0.2817535288734614, rtol=1e-12)

    @pytest.mark.parametrize("nu", [np.inf, np.nan, 0.5, -1.0,
                                    np.float64(np.inf), np.float64(np.nan),
                                    np.float32(0.5)])
    def test_invalid_nu_rejected(self, nu):
        with pytest.raises(ValueError, match="nu_prev"):
            nesterov_next(nu)

    def test_numpy_scalar_nu_gives_the_float_step(self):
        step = nesterov_next(np.float64(1.618034))
        assert step == nesterov_next(1.618034)
        assert type(step.nu) is float and type(step.beta_init) is float

    def test_sequence_grows_and_momentum_approaches_one(self):
        nu = 1.0
        betas = []
        for _ in range(200):
            step = nesterov_next(nu)
            betas.append(step.beta_init)
            nu = step.nu
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))
        assert betas[-1] > 0.97
        assert betas[-1] < 1.0


class TestSearchExtrapolation:
    def test_admissible_beta_accepted_without_shrinking(self):
        kern = quadratic_kernel()
        consts = RelSmoothConstants(L=1.0, l=0.0)
        res = search_extrapolation(kern, consts, consts,
                                   np.array([1.0]), np.array([1.0]), 0.0,
                                   beta_init=0.5,
                                   config=SolverConfig(delta=0.99, eta=0.9))
        # x_curr == x_prev makes the divergence bound trivially satisfied
        assert res.shrinks == 0
        assert res.beta == 0.5
        assert_allclose(res.x_bar, [1.0])

    def test_worked_shrink_example(self):
        # D(x_bar, x_curr) = 0.5 beta^2 must fall below
        # delta * (L_prev / (L + l)) * D_prev(x_prev, x_curr) = 0.81 * 0.5;
        # beta=0.95 fails (0.45125 > 0.405), one shrink to 0.855 passes.
        kern = quadratic_kernel()
        consts = RelSmoothConstants(L=1.0, l=0.0)
        res = search_extrapolation(kern, consts, consts,
                                   np.array([1.0]), np.array([0.0]), 0.5,
                                   beta_init=0.95,
                                   config=SolverConfig(delta=0.81, eta=0.9))
        assert res.shrinks == 1
        assert_allclose(res.beta, 0.855, rtol=1e-15)
        assert_allclose(res.x_bar, [1.855], rtol=1e-15)

    def test_beta_zero_when_shrinks_exhausted(self):
        kern = quadratic_kernel()
        tight = RelSmoothConstants(L=1e8, l=0.0)
        res = search_extrapolation(kern, tight,
                                   RelSmoothConstants(L=1.0, l=0.0),
                                   np.array([1.0]), np.array([0.0]), 0.5,
                                   beta_init=0.9,
                                   config=SolverConfig(delta=0.5, eta=0.9),
                                   max_shrinks=4)
        assert res.beta == 0.0
        assert_allclose(res.x_bar, [1.0])

    @pytest.mark.parametrize("max_shrinks, tried", [(4, 4), (1, 1), (0, 0),
                                                    (-1, 0)])
    def test_shrinks_count_the_rejected_candidates(self, monkeypatch,
                                                   max_shrinks, tried):
        # every candidate fails; the array formula (the screen forced
        # undecided) makes one divergence call per candidate and the screen
        # rejects these clear failures without one
        calls = []
        real = solver.bregman_divergence
        monkeypatch.setattr(solver, "bregman_divergence",
                            lambda *a: calls.append(a) or real(*a))
        kern = quadratic_kernel()
        for per_candidate in (0, 1):
            if per_candidate:
                monkeypatch.setattr(solver, "_screen", lambda *a: None)
            calls.clear()
            res = search_extrapolation(
                kern, RelSmoothConstants(L=1e8, l=0.0),
                RelSmoothConstants(L=1.0, l=0.0), np.array([1.0]),
                np.array([0.0]), 0.5, beta_init=0.9,
                config=SolverConfig(delta=0.5, eta=0.9),
                max_shrinks=max_shrinks)
            assert len(calls) == per_candidate * tried
            assert (res.beta, res.shrinks) == (0.0, tried)
            assert_allclose(res.x_bar, [1.0])

    def test_zero_beta_computes_no_divergence(self, monkeypatch):
        monkeypatch.setattr(solver, "bregman_divergence", None)
        kern = quadratic_kernel()
        cons = RelSmoothConstants(L=1.0, l=0.0)
        res = search_extrapolation(kern, cons, cons, np.array([1.0]),
                                   np.array([0.0]), None, beta_init=0.0,
                                   config=SolverConfig(delta=0.5, eta=0.9))
        assert (res.beta, res.shrinks) == (0.0, 0)


@st.composite
def screen_cases(draw):
    """(kernel, x, x_prev, beta, rel): one candidate and its margin to the rhs.

    ||beta d|| / ||x|| spans 1e-12..10, and d is exactly zero in some cases;
    rel sets the right-hand side to D (1 + rel), from exact ties out to 50%.
    """
    kernel = draw(st.sampled_from([
        BlockKernel(0.0, 1.0), BlockKernel(0.0, 2500.0),
        BlockKernel(6000.0, 2500.0), BlockKernel(3.0, 40.0),
        BlockKernel(1e6, 1e-3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 200))
    x = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3))
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    beta = draw(st.floats(1e-3, 1.0))
    if draw(st.booleans()) and draw(st.booleans()):
        d = np.zeros(n)
    else:
        d = rng.standard_normal(n)
        ratio = 10.0 ** draw(st.floats(-12.0, 1.0))
        d *= ratio * max(np.linalg.norm(x), 1e-3) / (beta * np.linalg.norm(d))
    rel = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.5]))
    return kernel, x, x - d, beta, draw(st.sampled_from([1.0, -1.0])) * rel


class TestExtrapolationScreen:
    """Every block screens its candidates from scalars (``_screen``).

    The reference is the array formula: the search with ``_screen`` forced
    undecided, which forms xbar and a divergence for every candidate.
    """

    @settings(max_examples=400, deadline=None)
    @given(case=screen_cases())
    def test_decision_equals_the_array_formula(self, case):
        kernel, x, x_prev, beta, rel = case
        d_bar = bregman_divergence(kernel, x, x + beta * (x - x_prev))
        # rhs = delta * L_prev / (L + l) * d_prev = 0.5 * d_prev, exactly
        rhs = d_bar * (1.0 + rel)
        cons = RelSmoothConstants(L=1.0, l=0.0)
        args = (kernel, cons, cons, x, x_prev, 2.0 * rhs, beta,
                SolverConfig(delta=0.5, eta=0.9), 1)
        decisions = []
        real = solver._screen
        with mock.patch.object(
                solver, "_screen",
                lambda *a: decisions.append(real(*a)) or decisions[-1]):
            screened = search_extrapolation(*args)
        with mock.patch.object(solver, "_screen", lambda *a: None):
            exact = search_extrapolation(*args)
        assert exact.beta == (beta if d_bar <= rhs else 0.0)
        assert (screened.beta, screened.shrinks) == (exact.beta, exact.shrinks)
        assert np.array_equal(screened.x_bar, exact.x_bar)
        assert len(decisions) == 1
        if decisions[0] is not None:
            assert decisions[0] == (d_bar <= rhs)
        if d_bar > 0.0 and abs(rel) >= 0.5:
            assert decisions[0] is not None  # a clear margin is decided

    def test_clear_candidates_make_no_divergence_call(self, monkeypatch):
        monkeypatch.setattr(solver, "bregman_divergence", None)
        kern = BlockKernel(6.0, 2.0)
        cons = RelSmoothConstants(L=1.0, l=0.0)
        rng = np.random.default_rng(4)
        x, x_prev = rng.standard_normal((5, 20)), rng.standard_normal((5, 20))
        # D = 1.99e5 and 1.46e5 fail the rhs 0.5 * d_prev = 1.2e5, and
        # beta = 0.9^2 * 0.8 passes with D = 1.08e5
        d_prev = 2.4e5
        cfg = SolverConfig(delta=0.5, eta=0.9)
        res = search_extrapolation(kern, cons, cons, x, x_prev, d_prev, 0.8,
                                   cfg)
        monkeypatch.undo()
        monkeypatch.setattr(solver, "_screen", lambda *a: None)
        exact = search_extrapolation(kern, cons, cons, x, x_prev, d_prev,
                                     0.8, cfg)
        assert res.shrinks == exact.shrinks == 2
        assert res.beta == exact.beta == 0.8 * 0.9 * 0.9
        assert np.array_equal(res.x_bar, exact.x_bar)
        assert bregman_divergence(kern, x, res.x_bar) <= 0.5 * d_prev

    @pytest.mark.parametrize("instance, calls", [("completion", 94),
                                                 ("onmf-bt", 192)])
    def test_backtracked_run_equals_the_array_formula_run(
            self, monkeypatch, instance, calls):
        # a backtracked block screens too: the same records and iterates as
        # with the screen forced undecided, with fewer divergence calls, as
        # its rejected candidates form no xbar and no divergence
        counted = []
        real = solver.bregman_divergence
        monkeypatch.setattr(solver, "bregman_divergence",
                            lambda *a: counted.append(a) or real(*a))
        problems, init, objective = (
            completion_instance() if instance == "completion"
            else onmf_instance(backtracked=True))
        cfg = SolverConfig(max_iters=30, delta=0.1, tol_rel_change=0.0)
        runs, counts = [], []
        for screen in (solver._screen, lambda *a: None):
            monkeypatch.setattr(solver, "_screen", screen)
            counted.clear()
            runs.append(run(problems, init, cfg, objective))
            counts.append(len(counted))
        screened, arrays = runs
        assert sum(s for r in screened.trace.records
                   for s in r.per_block_shrinks) > 200
        untimed = [[dataclasses.replace(r, elapsed_seconds=0.0)
                    for r in res.trace.records] for res in runs]
        assert untimed[0] == untimed[1]
        for a, b in zip(screened.final, arrays.final):
            assert np.array_equal(a, b)
        assert counts[0] == calls < counts[1]

    def test_undecided_screen_reproduces_the_run(self, monkeypatch):
        syn = datakit.gen_synthetic_onmf(100, 100, 5, noise=0.05, seed=1)
        p = onmf.OnmfProblem(X=syn.X, r=5, lam=1.0)
        init = list(onmf.spa_init(syn.X, 5))
        cfg = SolverConfig(max_iters=100, tol_rel_change=0.0)
        decisions = []
        real = solver._screen

        def solve():
            return run(onmf.onmf_block_problems(p), init, cfg,
                       lambda b: onmf.onmf_objective(p, b[0], b[1]))

        monkeypatch.setattr(solver, "_screen",
                            lambda *a: decisions.append(real(*a)) or
                            decisions[-1])
        screened = solve()
        monkeypatch.setattr(solver, "_screen", lambda *a: None)
        arrays = solve()
        assert decisions.count(None) < len(decisions)
        assert sum(d is False for d in decisions) > 0
        untimed = [[dataclasses.replace(r, elapsed_seconds=0.0)
                    for r in res.trace.records] for res in (screened, arrays)]
        assert untimed[0] == untimed[1]
        for a, b in zip(screened.final, arrays.final):
            assert np.array_equal(a, b)


class TestRunBasics:
    def test_single_step_reaches_quadratic_minimizer(self):
        a = np.array([2.0, -1.0])
        cfg = SolverConfig(max_iters=1, tol_rel_change=0.0)
        res = run([quadratic_block(a)], [np.zeros(2)], cfg,
                  quadratic_objective(a), algorithm="bmm")
        # with L matching the curvature the first prox step lands exactly
        assert_allclose(res.final[0], a, rtol=0, atol=0)

    def test_tolerance_infinite_stops_after_one_iteration(self):
        a = np.array([2.0, -1.0])
        cfg = SolverConfig(max_iters=50, tol_rel_change=np.inf)
        res = run([quadratic_block(a)], [np.zeros(2)], cfg,
                  quadratic_objective(a))
        assert res.stop_reason is StopReason.TOL_REACHED
        assert len(res.trace.records) == 1

    @pytest.mark.parametrize("k", [-40, -20, 20, 40])
    def test_tolerance_stop_is_scale_free(self, k):
        # (2^k X, 4^k lam, 2^k U0, V0) is the same ONMF problem with F scaled
        # by 4^k: under the default tol it stops at the same sweep, with the
        # same iterates. A floor of tol * 1 would stop 2^-20 after one sweep
        syn = datakit.gen_synthetic_onmf(30, 30, 3, noise=0.05, seed=0)
        U0, V0 = onmf.spa_init(syn.X, 3)

        def solve(s):
            p = onmf.OnmfProblem(X=s * syn.X, r=3, lam=s * s * 10.0)
            return run(onmf.onmf_block_problems(p), [s * U0, V0.copy()],
                       SolverConfig(max_iters=1000),
                       lambda b: onmf.onmf_objective(p, b[0], b[1]))

        s = 2.0 ** k
        base, scaled = solve(1.0), solve(s)
        assert base.stop_reason is StopReason.TOL_REACHED
        assert scaled.stop_reason is StopReason.TOL_REACHED
        assert len(scaled.trace) == len(base.trace) < 1000
        assert ([r.objective for r in scaled.trace.records]
                == [s * s * r.objective for r in base.trace.records])
        assert np.array_equal(scaled.final[0], s * base.final[0])
        assert np.array_equal(scaled.final[1], base.final[1])

    def test_zero_iterations_gives_empty_trace(self):
        a = np.array([1.0])
        res = run([quadratic_block(a)], [np.zeros(1)],
                  SolverConfig(max_iters=0), quadratic_objective(a))
        assert res.stop_reason is StopReason.MAX_ITERS
        assert len(res.trace.records) == 0
        assert_allclose(res.final[0], [0.0])

    def test_time_budget_stops_run(self):
        a = np.array([1.0])
        cfg = SolverConfig(max_iters=10**6, tol_rel_change=0.0,
                           time_budget=1e-9)
        res = run([quadratic_block(a)], [np.zeros(1)], cfg,
                  quadratic_objective(a))
        assert res.stop_reason is StopReason.TIME_BUDGET
        assert len(res.trace.records) >= 1

    def test_first_iteration_identical_across_variants(self):
        # nu_0 = 1 forces beta = 0 on the first sweep, so the accelerated
        # variant must reproduce the plain sweep bit for bit.
        a = np.array([3.0, 0.5, -2.0])
        out = {}
        for alg in ("bmm", "bmme"):
            cfg = SolverConfig(max_iters=1, tol_rel_change=0.0)
            out[alg] = run([quadratic_block(a)], [np.zeros(3)], cfg,
                           quadratic_objective(a), algorithm=alg)
        assert np.array_equal(out["bmm"].final[0], out["bmme"].final[0])
        assert (out["bmm"].trace.records[0].objective
                == out["bmme"].trace.records[0].objective)

    def test_verified_run_evaluates_objective_once_per_point(self):
        # the descent verifier reuses F(x^k), traced one step earlier
        a = np.array([3.0, 0.5, -2.0])
        slow = dataclasses.replace(
            quadratic_block(a),
            constants_for=lambda blocks: RelSmoothConstants(L=2.0, l=0.0))
        f = quadratic_objective(a)
        calls = [0]

        def counted(blocks):
            calls[0] += 1
            return f(blocks)

        cfg = SolverConfig(max_iters=20, tol_rel_change=0.0,
                           verify_descent=True)
        res = run([slow], [np.ones(3)], cfg, counted)
        assert len(res.trace.records) == 20
        assert calls[0] == 20 + 1

    def test_repeat_runs_are_deterministic(self):
        a = np.array([3.0, 0.5, -2.0])
        cfg = SolverConfig(max_iters=25, tol_rel_change=0.0)
        r1 = run([quadratic_block(a)], [np.ones(3)], cfg,
                 quadratic_objective(a), algorithm="bmme")
        r2 = run([quadratic_block(a)], [np.ones(3)], cfg,
                 quadratic_objective(a), algorithm="bmme")
        assert ([r.objective for r in r1.trace.records]
                == [r.objective for r in r2.trace.records])

    def test_rejects_mismatched_block_count(self):
        a = np.array([1.0])
        with pytest.raises(ValueError):
            initial_state([quadratic_block(a)], [np.zeros(1), np.zeros(1)])

    def test_rejects_a_block_with_no_constants_and_no_smooth_part(self):
        block = dataclasses.replace(quadratic_block(np.array([1.0])),
                                    constants_for=None)
        with pytest.raises(ValueError, match="block 0 needs constants_for or, "
                           "to backtrack, smooth_eval"):
            initial_state([block], [np.zeros(1)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_init(self, bad):
        a = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            initial_state([quadratic_block(a)], [np.array([1.0, bad])])

    def test_accepts_init_whose_squares_overflow(self):
        a = np.array([1.0, 2.0])
        init = np.array([1e200, -1e200])
        state = initial_state([quadratic_block(a)], [init])
        assert np.array_equal(state.current[0], init)

    def test_unknown_algorithm_rejected(self):
        a = np.array([1.0])
        with pytest.raises(ValueError):
            run([quadratic_block(a)], [np.zeros(1)], SolverConfig(),
                quadratic_objective(a), algorithm="sgd")


class TestSolverConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_iters", -5), ("max_iters", 2.5), ("tol_rel_change", -1.0),
        ("tol_rel_change", np.nan), ("time_budget", -1.0),
        ("time_budget", 0.0), ("time_budget", np.nan), ("delta", 1.0),
        ("delta", [0.5, 0.0]), ("eta", 0.0), ("eta", [0.9, np.nan]),
        ("delta", np.array(0.5)), ("delta", [[0.5, 0.6]]),
        ("tol_rel_change", None), ("tol_rel_change", "x"),
        ("time_budget", "x"), ("max_iters", True),
        ("verify_descent", "no"), ("keep_certificates", 1),
        ("delta", [0.5, 0.9]), ("eta", (0.9,)), ("eta", np.array([0.8])),
        ("delta", np.array([0.5, 0.9])), ("eta", np.array(0.9)),
        ("delta", 0.0), ("eta", 1.0), ("eta", np.nan)])
    def test_bad_value_rejected_when_built(self, field, value):
        # delta and eta are one real each: a list, a tuple or an array of any
        # shape, even of valid values, is rejected; the non-numbers raised a
        # bare TypeError, max_iters=True ran one sweep and
        # verify_descent="no" turned verification on
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_boundary_values_accepted(self):
        SolverConfig(max_iters=0, tol_rel_change=0.0, time_budget=1e-9)
        SolverConfig(max_iters=np.int64(3), tol_rel_change=np.inf,
                     delta=1e-300, eta=np.nextafter(1.0, 0.0))
        # numpy scalars are stored as Python floats
        cfg = SolverConfig(delta=np.float32(0.5), eta=np.float64(0.8))
        assert (cfg.delta, cfg.eta) == (0.5, 0.8)
        assert type(cfg.delta) is float and type(cfg.eta) is float


class TestDescentVerification:
    def test_clean_problem_passes_and_objective_decreases(self):
        a = np.array([2.0, -1.0, 0.5])
        cfg = SolverConfig(max_iters=40, tol_rel_change=0.0,
                           verify_descent=True)
        res = run([quadratic_block(a)], [np.ones(3) * 10.0], cfg,
                  quadratic_objective(a), algorithm="bmme")
        objs = [r.objective for r in res.trace.records]
        assert np.all(np.diff(objs) <= 1e-8 * (1.0 + np.abs(objs[:-1])))

    def test_overstated_constants_trip_the_verifier(self):
        # claim L = 0.2 for a unit-curvature quadratic: the certified bound
        # is then wrong and the check must raise rather than continue
        a = np.array([2.0, -1.0])
        kern = quadratic_kernel()
        lying = BlockProblem(
            partial_grad=lambda blocks: blocks[0] - a,
            kernel_for=lambda blocks: kern,
            constants_for=lambda blocks: RelSmoothConstants(L=0.2, l=0.0),
            solve_subproblem=lambda blocks, x_bar, g, L, x_prev: x_bar - g / L,
            feasible=lambda x: True,
        )
        cfg = SolverConfig(max_iters=20, tol_rel_change=0.0,
                           verify_descent=True)
        with pytest.raises(DescentViolation):
            run([lying], [np.ones(2) * 5.0], cfg, quadratic_objective(a),
                algorithm="bmme")


def half_sq(x):
    return 0.5 * float(np.vdot(x, x))


def gradient_step(x_bar, g, L):
    return x_bar - g / L


def backtracked_block(f, grad, solve=gradient_step):
    """One Euclidean block with smooth part ``f`` and backtracked (L, l)."""
    kern = quadratic_kernel()
    return BlockProblem(
        partial_grad=lambda blocks: grad(blocks[0]),
        kernel_for=lambda blocks: kern,
        constants_for=None,
        solve_subproblem=lambda blocks, x_bar, g, L, kernel:
            solve(x_bar, g, L),
        smooth_eval=lambda blocks: f(blocks[0]))


def run_backtracked(f, grad, x0, config, solve=gradient_step):
    """``run`` on :func:`backtracked_block`, tracing f itself."""
    return run([backtracked_block(f, grad, solve)], [x0], config,
               lambda blocks: f(blocks[0]))


class TestBacktracking:
    """Line-searched blocks on f = 0.5||x||^2 with the Euclidean kernel."""

    @staticmethod
    def run_half_sq(x0, config):
        return run_backtracked(half_sq, lambda x: x, x0, config)

    def test_L_doubles_from_floor_to_cover_curvature(self):
        # floors are L0 = 0.01, l0 = 0.001; the true curvature is 1, so the
        # upper-bound check forces exactly seven doublings: 0.01 * 2^7 = 1.28.
        cfg = SolverConfig(max_iters=1, tol_rel_change=0.0,
                           keep_certificates=True)
        res = self.run_half_sq(np.array([1.0]), cfg)
        assert res.state.prev_constants[0].L == 1.28
        assert res.state.prev_constants[0].l == 0.001
        cert = res.state.certificates[0]
        assert cert.L == 1.28
        assert_allclose(res.final[0], [1.0 - 1.0 / 1.28], rtol=1e-15)

    def test_constants_monotone_and_objective_decreases(self):
        cfg = SolverConfig(max_iters=30, tol_rel_change=0.0,
                           keep_certificates=True)
        res = self.run_half_sq(np.array([4.0, -3.0]), cfg)
        Ls = [c.L for c in res.state.certificates]
        ls = [c.l for c in res.state.certificates]
        assert all(b >= a for a, b in zip(Ls, Ls[1:]))
        assert all(b >= a for a, b in zip(ls, ls[1:]))
        objs = [r.objective for r in res.trace.records]
        assert objs[-1] < objs[0]
        assert np.linalg.norm(res.final[0]) < 1e-3

    def test_certificates_replay_both_inequalities(self):
        cfg = SolverConfig(max_iters=15, tol_rel_change=0.0,
                           keep_certificates=True)
        res = self.run_half_sq(np.array([2.0, 1.0, -0.5]), cfg)
        kern = quadratic_kernel()
        for cert in res.state.certificates:
            def gap(x, y):
                return half_sq(x) - half_sq(y) - float(np.vdot(y, x - y))
            d_new = (kern.eval(cert.x_new) - kern.eval(cert.x_bar)
                     - float(np.vdot(kern.grad(cert.x_bar),
                                     cert.x_new - cert.x_bar)))
            d_curr = (kern.eval(cert.x_curr) - kern.eval(cert.x_bar)
                      - float(np.vdot(kern.grad(cert.x_bar),
                                      cert.x_curr - cert.x_bar)))
            slack = 1e-12 * (1.0 + abs(half_sq(cert.x_new)))
            assert gap(cert.x_new, cert.x_bar) <= cert.L * d_new + slack
            assert gap(cert.x_curr, cert.x_bar) >= -cert.l * d_curr - slack

    def test_lower_search_doubles_l_to_the_least_that_holds(self):
        # f = sum(x^4)/4 - ||x||^2/2 curves downward near 0, so the lower
        # search must grow l past its floor. Replayed with the true
        # D(x, xbar), each step's l satisfies the lower inequality, and a
        # step that grew l fails it at l / 2: an understated D would leave
        # l too small, an overstated one would double it once too often
        def f(x):
            return 0.25 * float(np.sum(x ** 4)) - 0.5 * float(np.vdot(x, x))

        def grad(x):
            return x ** 3 - x

        cfg = SolverConfig(max_iters=40, tol_rel_change=0.0,
                           keep_certificates=True)
        res = run_backtracked(f, grad, np.array([2.0, -1.5, 0.05]), cfg)
        l_prev, grew = solver.BT_FLOORS.l, 0
        for cert in res.state.certificates:
            gap = f(cert.x_curr) - f(cert.x_bar) - float(
                np.vdot(grad(cert.x_bar), cert.x_curr - cert.x_bar))
            d = 0.5 * float(np.vdot(cert.x_curr - cert.x_bar,
                                    cert.x_curr - cert.x_bar))
            assert gap >= -cert.l * d
            if cert.l > l_prev:
                assert gap < -0.5 * cert.l * d
                grew += 1
            l_prev = cert.l
        assert grew > 0

    def test_lower_search_gives_up_after_max_doublings(self):
        # f = -c ||x||^2 / 2 has lower gap -c D(x, xbar) for the Euclidean
        # kernel, and c = 1e18 exceeds l's floor 1e-3 times 2^60 (1.2e15).
        # Sweep 1 (beta = 0) has D = 0; sweep 2 extrapolates and fails
        c = 1e18
        with pytest.raises(solver.SubproblemError,
                           match="block 0: lower-constant search failed"):
            run_backtracked(lambda x: -0.5 * c * float(np.vdot(x, x)),
                            lambda x: -c * x, np.array([1.0]),
                            SolverConfig(max_iters=2, tol_rel_change=0.0),
                            lambda x_bar, g, L: 2.0 * x_bar)

    def test_upper_search_gives_up_after_max_doublings(self):
        # the gradient 0 is inconsistent with f = c x: the upper gap
        # f(x_new) - f(xbar) = c stays above L D(x_new, xbar) = L / 2 for
        # every L up to the floor 1e-2 times 2^60 (1.2e16)
        c = 1e30
        with pytest.raises(solver.SubproblemError,
                           match="block 0: upper-constant search failed"):
            run_backtracked(lambda x: c * float(x.sum()), np.zeros_like,
                            np.array([1.0]), SolverConfig(max_iters=1),
                            lambda x_bar, g, L: x_bar + 1.0)

    def test_zero_iterations(self):
        res = self.run_half_sq(np.array([1.0]), SolverConfig(max_iters=0))
        assert len(res.trace.records) == 0
        assert_allclose(res.final[0], [1.0])

    def test_beta_retired_when_divergence_underflows(self, monkeypatch):
        # f(x) = c x with c = 3e280 at x, x - x_prev ~ 1e-170: D(x, xbar)
        # underflows to 0 while the rounding residue of f's lower gap is
        # negative, which no finite l absorbs. The step retires beta = 0.5,
        # searches again from 0.5 * eta and keeps the floors; without the
        # retire rule the lower search exhausts MAX_DOUBLINGS. One element
        # keeps every product exactly rounded, so the residue is the same
        # on every machine.
        c, x = np.array([3e280]), np.array([3e-170])
        block = BlockProblem(
            partial_grad=lambda blocks: c,
            kernel_for=lambda blocks: quadratic_kernel(),
            constants_for=None,
            solve_subproblem=lambda blocks, x_bar, g, L, kernel: x_bar,
            smooth_eval=lambda blocks: float(np.vdot(c, blocks[0])))
        state = solver.SolverState(
            current=[x], previous=[x - 2e-170],
            prev_constants=[solver.BT_FLOORS], nesterov_nu=1.0,
            prev_divergences=[0.0])
        starts = []
        real = solver.search_extrapolation

        def search(*args):
            starts.append(args[6])  # beta_init
            return real(*args)

        monkeypatch.setattr(solver, "search_extrapolation", search)
        cfg = SolverConfig()
        beta, shrinks, cons, _, sides = solver._block_update(
            block, 0, [x], quadratic_kernel(), state, 0.5, cfg)
        assert starts == [0.5, 0.5 * cfg.eta]
        assert (beta, shrinks) == (0.5 * cfg.eta, 1)
        assert cons == solver.BT_FLOORS
        assert sides.lower_div == 0.0 and sides.lower_gap >= 0.0


def onmf_instance(m=40, n=30, r=3, seed=2, backtracked=False):
    syn = datakit.gen_synthetic_onmf(m, n, r, noise=0.05, seed=seed)
    # lam below ||U^T U|| / 2, so the V-block kernel moves with U
    p = onmf.OnmfProblem(X=syn.X, r=r, lam=1.0)
    blocks = onmf.onmf_block_problems(p)
    if backtracked:
        blocks = [dataclasses.replace(b, constants_for=None) for b in blocks]
    return (blocks, list(onmf.spa_init(syn.X, r)),
            lambda b: onmf.onmf_objective(p, b[0], b[1]))


def completion_instance(seed=13, backtracked=True):
    obs = datakit.gen_synthetic_ratings(30, 25, 2, 0.4, seed=seed)
    p = matcomp.McProblem(observed=obs, r=2, lam=0.1, theta=5.0)
    block = matcomp.mc_block_problem(p)
    if backtracked:
        block = dataclasses.replace(block, constants_for=None)
    return ([block],
            [matcomp.pack_state(matcomp.mc_random_init(p, seed=seed))],
            matcomp.mc_objective_packed(p))


CARRIED_INSTANCES = [
    pytest.param(onmf_instance, 60, id="onmf"),
    pytest.param(completion_instance, 100, id="completion-bt"),
    pytest.param(lambda: onmf_instance(60, 60, backtracked=True), 100,
                 id="onmf-bt")]


def recording_kernels(problems):
    """``problems`` with each ``kernel_for`` result recorded; the records."""
    records = [[] for _ in problems]

    def wrap(kernel_for, out):
        return lambda blocks: out.append(kernel_for(blocks)) or out[-1]

    return ([dataclasses.replace(p, kernel_for=wrap(p.kernel_for, out))
             for p, out in zip(problems, records)], records)


class TestCarriedDivergence:
    """Each step's D_k(x^k, x^{k+1}) is computed once and kept for the next."""

    @pytest.mark.parametrize("instance, iters, verify", [
        pytest.param(*c.values, verify,
                     id=c.id if verify else f"{c.id}-unverified")
        for verify in (True, False) for c in CARRIED_INSTANCES])
    def test_stored_value_is_the_last_steps_divergence(self, monkeypatch,
                                                      instance, iters,
                                                      verify):
        real_step = solver._step
        nonzero = []
        problems, init, objective = instance()
        problems, kernels = recording_kernels(problems)

        def step(problems, state, *args):
            real_step(problems, state, *args)
            assert state.prev_divergences == [
                bregman_divergence(k[-1], a, b) for k, a, b in zip(
                    kernels, state.previous, state.current)]
            nonzero.append(any(d > 0.0 for d in state.prev_divergences))

        monkeypatch.setattr(solver, "_step", step)
        res = run(problems, init, SolverConfig(max_iters=iters,
                                               tol_rel_change=0.0,
                                               verify_descent=verify),
                  objective)
        assert len(nonzero) == len(res.trace.records) == iters
        assert all(nonzero)
        assert [len(k) for k in kernels] == [iters] * len(problems)
        if len(problems) == 2:
            assert len(set(kernels[-1])) == iters  # a stale kernel would show

    @pytest.mark.parametrize("instance, iters", CARRIED_INSTANCES)
    def test_verification_changes_no_trace_record(self, instance, iters):
        # the slack and sum of L * D are computed whenever bmme runs; the
        # verifier only decides whether a slack raises
        problems, init, objective = instance()
        runs = [run(problems, init, SolverConfig(max_iters=iters,
                                                 tol_rel_change=0.0,
                                                 verify_descent=verify),
                    objective) for verify in (True, False)]
        untimed = [[dataclasses.replace(r, elapsed_seconds=0.0)
                    for r in res.trace.records] for res in runs]
        assert len(untimed[1]) == iters
        assert untimed[0] == untimed[1]
        assert all(r.descent_slack is not None
                   and r.sum_block_divergence is not None for r in untimed[1])
        for a, b in zip(runs[0].final, runs[1].final):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("backtracked", [False, True],
                             ids=["fixed", "backtracked"])
    def test_no_kernel_or_constants_before_the_first_sweep(self, monkeypatch,
                                                          backtracked):
        # the first step's test is vacuous (D(x^0, x^0) = 0), so no block is
        # asked for its kernel or constants before the sweep starts
        problems, init, objective = onmf_instance(backtracked=backtracked)
        started = []

        def guard(fn):
            def call(blocks):
                if not started:
                    raise RuntimeError("called before the first sweep")
                return fn(blocks)
            return call

        guarded = [dataclasses.replace(
            p, kernel_for=guard(p.kernel_for),
            constants_for=p.constants_for and guard(p.constants_for))
            for p in problems]
        state = initial_state(guarded, init)
        assert state.prev_constants == [solver.BT_FLOORS] * 2
        assert state.prev_divergences == [0.0, 0.0]
        real_step = solver._step
        monkeypatch.setattr(solver, "_step",
                            lambda *a: started.append(1) or real_step(*a))
        cfg = SolverConfig(max_iters=5, tol_rel_change=0.0)
        res = run(guarded, init, cfg, objective)
        plain = run(problems, init, cfg, objective)
        assert len(res.trace) == 5
        assert ([r.objective for r in res.trace.records]
                == [r.objective for r in plain.trace.records])

    def count_divergences(self, monkeypatch):
        calls = []
        real = solver.bregman_divergence
        monkeypatch.setattr(solver, "bregman_divergence",
                            lambda *a: calls.append(a) or real(*a))
        return calls

    def test_unverified_bmm_run_computes_no_divergence(self, monkeypatch):
        calls = self.count_divergences(monkeypatch)
        problems, init, objective = onmf_instance()
        res = run(problems, init, SolverConfig(max_iters=30,
                                               tol_rel_change=0.0,
                                               verify_descent=False),
                  objective, algorithm="bmm")
        assert len(res.trace.records) == 30
        assert calls == []
        assert all(d is None for d in res.state.prev_divergences)

    def test_verified_bmme_call_count(self, monkeypatch):
        # one verifier call per block and sweep, plus one per extrapolation
        # candidate the scalar screen leaves to the array formula; the
        # right-hand side is always the carried value
        calls = self.count_divergences(monkeypatch)
        decisions = []
        real = solver._screen
        monkeypatch.setattr(solver, "_screen",
                            lambda *a: decisions.append(real(*a)) or
                            decisions[-1])
        problems, init, objective = onmf_instance()
        res = run(problems, init, SolverConfig(max_iters=20,
                                               tol_rel_change=0.0),
                  objective)
        tried = sum(s + (b > 0.0) for r in res.trace.records
                    for b, s in zip(r.per_block_beta, r.per_block_shrinks))
        assert len(decisions) == tried == 62
        assert len(calls) == 2 * 20 + decisions.count(None) == 40


BACKTRACKED_INSTANCES = [
    pytest.param(completion_instance, 60, id="completion-bt"),
    pytest.param(lambda: onmf_instance(60, 60, backtracked=True), 40,
                 id="onmf-bt")]


def certificates_of(instance, iters, monkeypatch):
    """A certificate-keeping run, and each backtracked step's x_bar as the
    solver passed it to ``solve_subproblem``, in certificate order."""
    problems, init, objective = instance()
    last, recorded = {}, []

    def wrap(i, solve):
        def call(blocks, x_bar, *rest):
            last[i] = x_bar  # the final call of a step solves its x_bar
            return solve(blocks, x_bar, *rest)
        return call

    problems = [dataclasses.replace(p, solve_subproblem=wrap(
        i, p.solve_subproblem)) for i, p in enumerate(problems)]
    real_step = solver._step

    def step(*args):
        last.clear()
        real_step(*args)
        recorded.extend(last[i] for i in sorted(last))

    monkeypatch.setattr(solver, "_step", step)
    res = run(problems, init, SolverConfig(max_iters=iters,
                                           tol_rel_change=0.0,
                                           keep_certificates=True), objective)
    return res, recorded


class TestCertificates:
    """A certificate holds the run's own iterates and rebuilds x_bar."""

    @pytest.mark.parametrize("instance, iters", BACKTRACKED_INSTANCES)
    def test_rebuilt_x_bar_is_the_solvers(self, monkeypatch, instance, iters):
        res, recorded = certificates_of(instance, iters, monkeypatch)
        certs = res.state.certificates
        assert len(certs) == len(recorded) == iters * len(res.final)
        for cert, x_bar in zip(certs, recorded):
            assert np.array_equal(cert.x_bar, x_bar)
            if cert.beta == 0.0:
                assert cert.x_bar is cert.x_curr
        assert any(c.beta > 0.0 for c in certs)

    def test_certificates_hold_one_array_per_step(self):
        # a 600 x 3 packed Z; each certificate object with its three floats
        # takes well under 1 KiB, the allowance per certificate below
        obs = datakit.gen_synthetic_ratings(300, 300, 3, 0.05, seed=4)
        p = matcomp.McProblem(observed=obs, r=3, lam=0.1, theta=5.0)
        z0 = matcomp.pack_state(matcomp.mc_random_init(p, seed=4))
        block = dataclasses.replace(matcomp.mc_block_problem(p),
                                    constants_for=None)
        objective = matcomp.mc_objective_packed(p)
        n = 20
        assert "x_bar" not in {
            f.name for f in dataclasses.fields(BacktrackCertificate)}
        tracemalloc.start()
        try:
            res = run([block], [z0], SolverConfig(max_iters=n,
                                                  tol_rel_change=0.0,
                                                  keep_certificates=True),
                      objective)
            certs = res.state.certificates
            assert len(certs) == n and sum(c.beta > 0.0 for c in certs) > 1
            # x^{-1} = x^0, ..., x^n
            arrays = [getattr(c, f.name) for c in certs
                      for f in dataclasses.fields(c)]
            assert len({id(a) for a in arrays
                        if isinstance(a, np.ndarray)}) == n + 1
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del certs, arrays
            res.state.certificates.clear()
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < held <= (n + 2) * z0.nbytes + n * 1024


def arrays_seen(problems, objective):
    """``problems`` and ``objective`` wrapped to keep every array a callback
    receives, as a block or as ``x_bar``; the kept arrays."""
    seen = []

    def wrap(fn):
        def call(blocks, *rest):
            seen.extend(blocks)
            seen.extend(rest[:1])  # solve_subproblem's x_bar
            return fn(blocks, *rest)
        return call

    names = ("partial_grad", "kernel_for", "constants_for",
             "solve_subproblem", "smooth_eval")
    return ([dataclasses.replace(p, **{n: wrap(getattr(p, n)) for n in names
                                       if getattr(p, n) is not None})
             for p in problems], wrap(objective), seen)


class TestReadOnlyIterates:
    """The solver holds every iterate and x_bar as a read-only array."""

    @pytest.mark.parametrize("instance, iters", [
        pytest.param(onmf_instance, 30, id="onmf"),
        *BACKTRACKED_INSTANCES])
    def test_every_array_a_callback_sees_is_read_only(self, instance, iters):
        problems, init, objective = instance()
        problems, objective, seen = arrays_seen(problems, objective)
        res = run(problems, init, SolverConfig(max_iters=iters,
                                               tol_rel_change=0.0,
                                               keep_certificates=True),
                  objective)
        assert len(res.trace) == iters
        assert any(b > 0.0 for r in res.trace.records
                   for b in r.per_block_beta)
        assert len(seen) > 4 * iters
        assert not any(a.flags.writeable for a in seen)
        assert not any(a.flags.writeable for a in res.final)
        assert all(a.flags.writeable for a in init)  # the caller's, untouched
        for c in res.state.certificates:
            assert not any(a.flags.writeable
                           for a in (c.x_prev, c.x_curr, c.x_new))

    def test_writing_into_x_bar_raises_on_the_first_sweep(self):
        a = np.array([3.0, -1.0])
        calls = []

        def solve(blocks, x_bar, g, L, kernel):
            calls.append(1)
            x_bar -= g / L
            return x_bar

        block = dataclasses.replace(quadratic_block(a), solve_subproblem=solve)
        init = np.zeros(2)
        with pytest.raises(ValueError, match="read-only"):
            run([block], [init], SolverConfig(max_iters=5),
                quadratic_objective(a))
        assert calls == [1]
        assert np.array_equal(init, [0.0, 0.0])

    def test_a_returned_view_is_copied(self, monkeypatch):
        # the subproblem writes each update into one buffer of its own and
        # returns a view of it; without the copy, every certificate's x_new
        # and the final iterate would be that one buffer
        problems, init, objective = completion_instance()
        real = problems[0].solve_subproblem
        buf = np.empty_like(init[0])

        def solve(*args):
            buf[...] = real(*args)
            return buf[:]

        viewing = [dataclasses.replace(problems[0], solve_subproblem=solve)]
        cfg = SolverConfig(max_iters=20, tol_rel_change=0.0,
                           keep_certificates=True)
        res, plain = (run(viewing, init, cfg, objective),
                      run(problems, init, cfg, objective))
        buf[...] = 0.0
        assert np.array_equal(res.final[0], plain.final[0])
        assert res.final[0].flags.owndata and buf.flags.writeable
        assert len(res.state.certificates) == 20
        for c, want in zip(res.state.certificates, plain.state.certificates):
            assert np.array_equal(c.x_new, want.x_new)
            assert np.array_equal(c.x_bar, want.x_bar)


def trace_rows(res):
    return [(r.objective, r.per_block_beta, r.per_block_shrinks,
             r.descent_slack, r.sum_block_divergence, r.per_block_line_search)
            for r in res.trace.records]


def nonnegative_block(backtracked, solve, seen=None):
    """min 0.5||x - a||^2 over x >= 0 with a = (3, -1), solved by ``solve``;
    ``seen`` collects every point ``smooth_eval`` receives."""
    a = np.array([3.0, -1.0])

    def smooth_eval(blocks):
        if seen is not None:
            seen.append(blocks[0])
        return 0.5 * float(np.vdot(blocks[0] - a, blocks[0] - a))

    block = quadratic_block(a)
    return dataclasses.replace(
        block, solve_subproblem=solve,
        constants_for=None if backtracked else block.constants_for,
        feasible=lambda x: bool((x >= 0.0).all()), smooth_eval=smooth_eval)


class TestIterateGate:
    """Every initial block and every solve_subproblem result passes one gate:
    a new read-only float64 copy, checked finite and feasible."""

    def test_a_kept_view_of_a_returned_update_cannot_reach_the_iterate(self):
        # the U solve keeps a view of each array it returns and zeroes the
        # previous one through it; an iterate that were that array would
        # change under the memos, and the verifier would trip at sweep 3
        problems, init, objective = onmf_instance()
        real = problems[0].solve_subproblem
        views = []

        def solve(*args):
            for v in views[-1:]:
                v[...] = 0.0
            out = real(*args)
            views.append(out[:])
            return out

        writing = [dataclasses.replace(problems[0], solve_subproblem=solve),
                   problems[1]]
        cfg = SolverConfig(max_iters=30, tol_rel_change=0.0)
        res = run(writing, init, cfg, objective)
        plain = run(problems, init, cfg, objective)
        assert len(res.trace) == 30 and len(views) == 30
        assert trace_rows(res) == trace_rows(plain)
        assert all(np.array_equal(a, b) for a, b in zip(res.final, plain.final))

    @pytest.mark.parametrize("backtracked", [False, True],
                             ids=["fixed", "backtracked"])
    def test_a_float32_update_is_held_as_float64(self, backtracked):
        def solve(blocks, x_bar, g, L, kernel):
            return np.maximum(x_bar - g / L, 0.0).astype(np.float32)

        block = nonnegative_block(backtracked, solve)
        res = run([block], [np.float32([1.0, 2.0])],
                  SolverConfig(max_iters=5, tol_rel_change=0.0,
                               keep_certificates=True),
                  block.smooth_eval)
        held = [*res.final, *res.state.previous,
                *(c.x_new for c in res.state.certificates)]
        assert len(held) == 2 + 5 * backtracked
        assert all(x.dtype == np.float64 and not x.flags.writeable
                   for x in held)

    def test_an_infeasible_initial_block_is_rejected(self):
        block = nonnegative_block(False, None)
        with pytest.raises(ValueError, match="block 0 initial value is "
                           "infeasible"):
            initial_state([block], [np.array([1.0, -1.0])])

    @pytest.mark.parametrize("backtracked", [False, True],
                             ids=["fixed", "backtracked"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_update_is_rejected(self, backtracked, bad):
        block = nonnegative_block(
            backtracked, lambda blocks, x_bar, g, L, kernel: x_bar + bad)
        with pytest.raises(solver.SubproblemError,
                           match="block 0 update produced non-finite values"):
            run([block], [np.ones(2)], SolverConfig(), block.smooth_eval)

    def test_holds_an_update_whose_squares_overflow(self):
        # ||x||^2 overflows, so the gate must look at each entry
        x = np.array([1e200, -1e200])
        held = solver._hold(quadratic_block(np.zeros(2)), 0, x)
        assert np.array_equal(held, x) and held is not x
        assert held.dtype == np.float64 and not held.flags.writeable

    @pytest.mark.parametrize("backtracked", [False, True],
                             ids=["fixed", "backtracked"])
    def test_an_infeasible_update_is_rejected_before_f_sees_it(
            self, backtracked):
        # the unconstrained step x_bar - g / L leaves x >= 0 on the first
        # sweep; a backtracked block would evaluate f there to test L
        seen = []
        block = nonnegative_block(
            backtracked, lambda blocks, x_bar, g, L, kernel: x_bar - g / L,
            seen)
        with pytest.raises(solver.SubproblemError,
                           match="block 0 update left the feasible set"):
            run([block], [np.ones(2)], SolverConfig(), block.smooth_eval)
        assert all((x >= 0.0).all() for x in seen)
        # F(x^0); a backtracked block's f(x) and f(x_bar), both at x^0
        assert len(seen) == 1 + 2 * backtracked

    @pytest.mark.parametrize("instance, iters", [
        pytest.param(onmf_instance, 20, id="onmf"),
        *BACKTRACKED_INSTANCES])
    def test_every_array_the_solver_holds_comes_from_the_gate(
            self, monkeypatch, instance, iters):
        made, real = [], solver._hold
        monkeypatch.setattr(solver, "_hold",
                            lambda *a, **k: made.append(real(*a, **k)) or
                            made[-1])
        problems, init, objective = instance()
        res = run(problems, init, SolverConfig(max_iters=iters,
                                               tol_rel_change=0.0,
                                               keep_certificates=True),
                  objective)
        ids = {id(x) for x in made}
        held = [*res.final, *res.state.previous,
                *(a for c in res.state.certificates
                  for a in (c.x_prev, c.x_curr, c.x_new))]
        assert len(held) >= 2 * len(problems) and len(made) > iters
        assert all(id(x) in ids for x in held)
        assert not any(np.shares_memory(x, b) for x in held for b in init)


def memo_keys(monkeypatch):
    """Every key any ValueMemo receives from here on, and the hit count."""
    keys, hits = [], [0]
    call, hit = ValueMemo.__call__, ValueMemo.hit

    def recording_call(memo, A):
        keys.append(A)
        return call(memo, A)

    def recording_hit(memo, A):  # __call__ asks it too
        keys.append(A)
        found = hit(memo, A)
        hits[0] += found
        return found

    monkeypatch.setattr(ValueMemo, "__call__", recording_call)
    monkeypatch.setattr(ValueMemo, "hit", recording_hit)
    return keys, hits


class TestMemoPremise:
    """The memos keep and hit only read-only arrays that own their data;
    every key a run gives them is one, so the rule serves every call."""

    @staticmethod
    def check(keys, hits):
        assert len(keys) > 100 and hits[0] > 10
        assert all(not A.flags.writeable and A.flags.owndata for A in keys)

    @pytest.mark.parametrize("instance", [
        pytest.param(onmf_instance, id="onmf"),
        pytest.param(lambda: onmf_instance(backtracked=True), id="onmf-bt"),
        pytest.param(lambda: completion_instance(backtracked=False),
                     id="completion"),
        pytest.param(completion_instance, id="completion-bt")])
    def test_every_key_a_run_gives_is_trusted(self, instance, monkeypatch):
        problems, init, objective = instance()
        keys, hits = memo_keys(monkeypatch)
        res = run(problems, init, SolverConfig(max_iters=30,
                                               tol_rel_change=0.0,
                                               verify_descent=True),
                  objective)
        assert len(res.trace) == 30
        self.check(keys, hits)


def onmf_v_backtracked():
    """:func:`onmf_instance` with a fixed U block and a backtracked V."""
    (u, v), init, objective = onmf_instance()
    return [u, dataclasses.replace(v, constants_for=None)], init, objective


def replay_sides(problems, certs):
    """One sweep's :class:`solver.LineSearchSides`, recomputed from its
    certificates (every block backtracked)."""
    blocks = [c.x_curr for c in certs]
    sides = []
    for i, (p, c) in enumerate(zip(problems, certs)):
        kern, x_bar = p.kernel_for(blocks), c.x_bar
        point = solver._at(blocks, i, x_bar)
        f_bar, g = p.smooth_eval(point), p.partial_grad(point)

        def gap(x):
            return (p.smooth_eval(solver._at(blocks, i, x)) - f_bar
                    - float(np.vdot(g, x - x_bar)))

        sides.append(solver.LineSearchSides(
            gap(c.x_curr), c.l * bregman_divergence(kern, c.x_curr, x_bar),
            gap(c.x_new), c.L * bregman_divergence(kern, c.x_new, x_bar)))
        blocks[i] = c.x_new
    return sides


class TestLineSearchSides:
    """Each record carries both sides of each line-search inequality."""

    @pytest.mark.parametrize("instance, iters", [
        *BACKTRACKED_INSTANCES,
        pytest.param(onmf_v_backtracked, 40, id="onmf-V-bt")])
    def test_every_record_satisfies_both_without_certificates(
            self, instance, iters):
        problems, init, objective = instance()
        res = run(problems, init, SolverConfig(max_iters=iters,
                                               tol_rel_change=0.0), objective)
        assert res.state.certificates == []
        fixed = [p.constants_for is not None for p in problems]
        for rec in res.trace.records:
            assert len(rec.per_block_line_search) == len(problems)
            for is_fixed, s in zip(fixed, rec.per_block_line_search):
                if is_fixed:
                    assert s is None
                    continue
                assert s.lower_gap >= -s.lower_div
                assert s.upper_gap <= s.upper_div

    @pytest.mark.parametrize("instance, iters", BACKTRACKED_INSTANCES)
    def test_values_match_a_replay_from_the_certificates(self, instance,
                                                         iters):
        problems, init, objective = instance()
        res = run(problems, init, SolverConfig(max_iters=iters,
                                               tol_rel_change=0.0,
                                               keep_certificates=True),
                  objective)
        m, certs = len(problems), res.state.certificates
        assert len(certs) == iters * m
        for k, rec in enumerate(res.trace.records):
            want = replay_sides(problems, certs[k * m:(k + 1) * m])
            assert_allclose(np.array(rec.per_block_line_search),
                            np.array(want), rtol=1e-12, atol=0.0)
