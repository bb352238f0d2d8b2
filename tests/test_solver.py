"""Solver-layer tests: extrapolation search, multi-block sweeps, line search.

A single Euclidean block with a strongly convex quadratic objective is enough
to exercise most of the control flow, because the subproblem minimizer is the
exact closed-form prox step and every quantity can be checked by hand.
"""

import dataclasses
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
    bregman_divergence,
    quadratic_kernel,
)
from bmme.solver import (
    BacktrackingProblem,
    BlockProblem,
    DescentViolation,
    SolverConfig,
    StopReason,
    initial_state,
    nesterov_next,
    run,
    run_backtracking,
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
        res = search_extrapolation(kern, consts, kern, consts,
                                   np.array([1.0]), np.array([1.0]),
                                   beta_init=0.5, delta=0.99, eta=0.9)
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
        res = search_extrapolation(kern, consts, kern, consts,
                                   np.array([1.0]), np.array([0.0]),
                                   beta_init=0.95, delta=0.81, eta=0.9)
        assert res.shrinks == 1
        assert_allclose(res.beta, 0.855, rtol=1e-15)
        assert_allclose(res.x_bar, [1.855], rtol=1e-15)

    def test_beta_zero_when_shrinks_exhausted(self):
        kern = quadratic_kernel()
        tight = RelSmoothConstants(L=1e8, l=0.0)
        res = search_extrapolation(kern, tight, kern,
                                   RelSmoothConstants(L=1.0, l=0.0),
                                   np.array([1.0]), np.array([0.0]),
                                   beta_init=0.9, delta=0.5, eta=0.9,
                                   max_shrinks=4)
        assert res.beta == 0.0
        assert_allclose(res.x_bar, [1.0])

    @pytest.mark.parametrize("max_shrinks, tried", [(4, 4), (1, 1), (0, 0),
                                                    (-1, 0)])
    def test_shrinks_count_the_rejected_candidates(self, monkeypatch,
                                                   max_shrinks, tried):
        # every candidate fails; once a candidate is tried, one divergence
        # call is the right-hand side, the array formula (the screen forced
        # undecided) makes one more per candidate and the screen rejects
        # these clear failures without one; a spent budget makes no call
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
                kern, RelSmoothConstants(L=1e8, l=0.0), kern,
                RelSmoothConstants(L=1.0, l=0.0), np.array([1.0]),
                np.array([0.0]), beta_init=0.9, delta=0.5, eta=0.9,
                max_shrinks=max_shrinks)
            assert len(calls) == (1 + per_candidate * tried if tried else 0)
            assert (res.beta, res.shrinks) == (0.0, tried)
            assert_allclose(res.x_bar, [1.0])

    def test_zero_beta_computes_no_divergence(self, monkeypatch):
        monkeypatch.setattr(solver, "bregman_divergence", None)
        kern = quadratic_kernel()
        cons = RelSmoothConstants(L=1.0, l=0.0)
        res = search_extrapolation(kern, cons, kern, cons, np.array([1.0]),
                                   np.array([0.0]), beta_init=0.0,
                                   delta=0.5, eta=0.9)
        assert (res.beta, res.shrinks, res.d_prev) == (0.0, 0, None)

    @pytest.mark.parametrize("beta_init", [0.9, 0.5])
    def test_given_d_prev_replaces_the_right_hand_side_call(self, monkeypatch,
                                                            beta_init):
        kern = quadratic_kernel()
        cons = RelSmoothConstants(L=1.0, l=0.0)
        x, x_prev = np.array([1.0, 2.0]), np.array([0.5, 1.0])
        args = (kern, cons, kern, cons, x, x_prev, beta_init, 0.3, 0.9)
        computed = search_extrapolation(*args)
        assert computed.d_prev == bregman_divergence(kern, x_prev, x)
        calls = []
        real = solver.bregman_divergence
        monkeypatch.setattr(solver, "bregman_divergence",
                            lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(solver, "_screen", lambda *a: None)
        given = search_extrapolation(*args, d_prev=computed.d_prev)
        # the array formula tests only the candidates; the result is
        # bit-identical
        assert len(calls) == given.shrinks + 1
        assert given._replace(x_bar=None) == computed._replace(x_bar=None)
        assert np.array_equal(given.x_bar, computed.x_bar)


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
        args = (kernel, cons, kernel, cons, x, x_prev, beta, 0.5, 0.9, 1,
                2.0 * rhs)
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
        res = search_extrapolation(kern, cons, kern, cons, x, x_prev, 0.8,
                                   0.5, 0.9, d_prev=d_prev)
        monkeypatch.undo()
        monkeypatch.setattr(solver, "_screen", lambda *a: None)
        exact = search_extrapolation(kern, cons, kern, cons, x, x_prev, 0.8,
                                     0.5, 0.9, d_prev=d_prev)
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
        assert np.array_equal(r1.trace.objectives(), r2.trace.objectives())

    def test_rejects_mismatched_block_count(self):
        a = np.array([1.0])
        with pytest.raises(ValueError):
            initial_state([quadratic_block(a)], [np.zeros(1), np.zeros(1)])

    def test_rejects_non_finite_init(self):
        a = np.array([1.0])
        with pytest.raises(ValueError):
            initial_state([quadratic_block(a)], [np.array([np.nan])])

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
        ("delta", np.array(0.5)), ("delta", [[0.5, 0.6]])])
    def test_bad_value_rejected_when_built(self, field, value):
        # the last two passed a check on np.ravel and then made run raise
        # a bare TypeError in per_block
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_boundary_values_accepted(self):
        SolverConfig(max_iters=0, tol_rel_change=0.0, time_budget=1e-9)
        SolverConfig(max_iters=np.int64(3), tol_rel_change=np.inf,
                     delta=[0.5, 0.9], eta=(0.1, 0.99))
        # stored normalized, as per_block reads them
        cfg = SolverConfig(delta=np.float32(0.5), eta=np.array([0.8, 0.9]))
        assert (cfg.delta, cfg.eta) == (0.5, (0.8, 0.9))
        assert type(cfg.delta) is float
        assert cfg.per_block("delta", 2) == (0.5, 0.5)

    def test_per_block_length_must_match(self):
        a = np.array([1.0])
        with pytest.raises(ValueError, match="delta has 2 entries"):
            run([quadratic_block(a)], [np.zeros(1)],
                SolverConfig(delta=[0.5, 0.9]), quadratic_objective(a))

    def test_per_block_values_resolved_once_per_run(self, monkeypatch):
        calls = []
        real = SolverConfig.per_block

        def counted(self, which, m):
            calls.append((which, m))
            return real(self, which, m)

        monkeypatch.setattr(SolverConfig, "per_block", counted)
        problems, init, objective = onmf_instance()
        res = run(problems, init, SolverConfig(max_iters=10,
                                               tol_rel_change=0.0), objective)
        assert len(res.trace) == 10
        assert calls == [("delta", 2), ("eta", 2)]


class TestDescentVerification:
    def test_clean_problem_passes_and_objective_decreases(self):
        a = np.array([2.0, -1.0, 0.5])
        cfg = SolverConfig(max_iters=40, tol_rel_change=0.0,
                           verify_descent=True)
        res = run([quadratic_block(a)], [np.ones(3) * 10.0], cfg,
                  quadratic_objective(a), algorithm="bmme")
        objs = res.trace.objectives()
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


class TestBacktracking:
    """Line-searched variant on f = 0.5||x||^2 with the Euclidean kernel."""

    def problem(self):
        return BacktrackingProblem(
            f_eval=lambda x: 0.5 * float(np.vdot(x, x)),
            grad=lambda x: np.asarray(x, dtype=np.float64),
            kernel=quadratic_kernel(),
            solve_subproblem=lambda x_bar, g, L, x_prev: x_bar - g / L,
            feasible=lambda x: True,
        )

    def test_L_doubles_from_floor_to_cover_curvature(self):
        # floors are L0 = 0.01, l0 = 0.001; the true curvature is 1, so the
        # upper-bound check forces exactly seven doublings: 0.01 * 2^7 = 1.28.
        cfg = SolverConfig(max_iters=1, tol_rel_change=0.0,
                           keep_certificates=True)
        res = run_backtracking(self.problem(), np.array([1.0]), cfg,
                               lambda x: 0.5 * float(np.vdot(x, x)))
        assert res.state.prev_constants[0].L == 1.28
        assert res.state.prev_constants[0].l == 0.001
        cert = res.state.certificates[0]
        assert cert.L == 1.28
        assert_allclose(res.final[0], [1.0 - 1.0 / 1.28], rtol=1e-15)

    def test_constants_monotone_and_objective_decreases(self):
        cfg = SolverConfig(max_iters=30, tol_rel_change=0.0,
                           keep_certificates=True)
        res = run_backtracking(self.problem(), np.array([4.0, -3.0]), cfg,
                               lambda x: 0.5 * float(np.vdot(x, x)))
        Ls = [c.L for c in res.state.certificates]
        ls = [c.l for c in res.state.certificates]
        assert all(b >= a for a, b in zip(Ls, Ls[1:]))
        assert all(b >= a for a, b in zip(ls, ls[1:]))
        objs = res.trace.objectives()
        assert objs[-1] < objs[0]
        assert np.linalg.norm(res.final[0]) < 1e-3

    def test_certificates_replay_both_inequalities(self):
        prob = self.problem()
        cfg = SolverConfig(max_iters=15, tol_rel_change=0.0,
                           keep_certificates=True)
        res = run_backtracking(prob, np.array([2.0, 1.0, -0.5]), cfg,
                               lambda x: 0.5 * float(np.vdot(x, x)))
        kern = prob.kernel
        for cert in res.state.certificates:
            def gap(x, y):
                gy = prob.grad(y)
                return (prob.f_eval(x) - prob.f_eval(y)
                        - float(np.vdot(gy, x - y)))
            d_new = (kern.eval(cert.x_new) - kern.eval(cert.x_bar)
                     - float(np.vdot(kern.grad(cert.x_bar),
                                     cert.x_new - cert.x_bar)))
            d_curr = (kern.eval(cert.x_curr) - kern.eval(cert.x_bar)
                      - float(np.vdot(kern.grad(cert.x_bar),
                                      cert.x_curr - cert.x_bar)))
            slack = 1e-12 * (1.0 + abs(prob.f_eval(cert.x_new)))
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

        prob = BacktrackingProblem(
            f_eval=f, grad=grad, kernel=quadratic_kernel(),
            solve_subproblem=lambda x_bar, g, L, x_prev: x_bar - g / L)
        cfg = SolverConfig(max_iters=40, tol_rel_change=0.0,
                           keep_certificates=True)
        res = run_backtracking(prob, np.array([2.0, -1.5, 0.05]), cfg, f)
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

    def test_zero_iterations(self):
        res = run_backtracking(self.problem(), np.array([1.0]),
                               SolverConfig(max_iters=0),
                               lambda x: 0.5 * float(np.vdot(x, x)))
        assert len(res.trace.records) == 0
        assert_allclose(res.final[0], [1.0])


def onmf_instance(m=40, n=30, r=3, seed=2, backtracked=False):
    syn = datakit.gen_synthetic_onmf(m, n, r, noise=0.05, seed=seed)
    # lam below ||U^T U|| / 2, so the V-block kernel moves with U
    p = onmf.OnmfProblem(X=syn.X, r=r, lam=1.0)
    blocks = onmf.onmf_block_problems(p)
    if backtracked:
        blocks = [dataclasses.replace(b, constants_for=None) for b in blocks]
    return (blocks, list(onmf.spa_init(syn.X, r)),
            lambda b: onmf.onmf_objective(p, b[0], b[1]))


def completion_instance(seed=13):
    obs = datakit.gen_synthetic_ratings(30, 25, 2, 0.4, seed=seed)
    p = matcomp.McProblem(observed=obs, r=2, lam=0.1, theta=5.0)
    return ([dataclasses.replace(matcomp.mc_block_problem(p),
                                 constants_for=None)],
            [matcomp.pack_state(matcomp.mc_random_init(p, seed=seed))],
            lambda b: matcomp.mc_objective_packed(p)(b[0]))


class TestCarriedDivergence:
    """The verifier's D_k(x^k, x^{k+1}) is kept for the next step."""

    @pytest.mark.parametrize("instance, iters", [
        (onmf_instance, 60),
        (completion_instance, 100),
        (lambda: onmf_instance(60, 60, backtracked=True), 100),
    ], ids=["onmf", "completion-bt", "onmf-bt"])
    def test_stored_value_is_the_last_steps_divergence(self, monkeypatch,
                                                      instance, iters):
        real_step = solver._step
        nonzero, kernels = [], set()

        def step(problems, state, *args):
            real_step(problems, state, *args)
            assert state.prev_divergences == [
                bregman_divergence(k, a, b) for k, a, b in zip(
                    state.prev_kernels, state.previous, state.current)]
            nonzero.append(any(d > 0.0 for d in state.prev_divergences))
            kernels.add(state.prev_kernels[-1])

        monkeypatch.setattr(solver, "_step", step)
        problems, init, objective = instance()
        res = run(problems, init, SolverConfig(max_iters=iters,
                                               tol_rel_change=0.0),
                  objective)
        assert len(nonzero) == len(res.trace.records) == iters
        assert all(nonzero)
        if len(problems) == 2:
            assert len(kernels) == iters  # a stale kernel would show

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
