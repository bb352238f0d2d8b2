"""Tests for the sparse matrix-completion problem with exponential penalties.

The packed variable Z stacks [U; V^T]; the kernel is the polynomial
c1 * s^2 + c2 * s in s = ||Z||^2 / 2, so every closed form below can be
re-derived from the scalar cubic it induces.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse import csr_matrix

from bmme import datakit, matcomp, verify
from bmme.bregman import (
    RelSmoothConstants,
    bregman_divergence,
    check_gradient,
    check_relative_smoothness,
)
from bmme.matcomp import (
    McProblem,
    McState,
    cubic_step_scale,
    mc_backtracking_problem,
    mc_block_problem,
    mc_kernel,
    mc_objective_packed,
    mc_random_init,
    mc_surrogate,
    pack_state,
    rmse,
    soft_threshold,
    surrogate_weights,
    unpack_state,
)
from bmme.solver import BT_FLOORS, SolverConfig, run, run_backtracking


def diagonal_problem():
    obs = datakit.ObservedMatrix(
        rows=3, cols=3,
        row_idx=np.array([0, 1, 2]), col_idx=np.array([0, 1, 2]),
        values=np.array([1.0, 2.0, 3.0]))
    return McProblem(observed=obs, r=2, lam=0.1, theta=5.0)


def penalty(lam, theta, M):
    return lam * float(np.sum(1.0 - np.exp(-theta * np.abs(M))))


def objective_at(p, state):
    return mc_objective_packed(p)(pack_state(state))


def mc_step(p, anchor, x_bar, L):
    """The solver's completion step around ``x_bar``, anchored at ``anchor``.

    It goes through the packed block problem, as a solver step does.
    """
    Z = verify._block_update(mc_block_problem(p), [pack_state(anchor)], 0,
                             pack_state(x_bar), L)
    return unpack_state(Z, p.observed.rows)


class TestObjective:
    def test_zero_factors_leave_data_term(self):
        p = diagonal_problem()
        st = McState(U=np.zeros((3, 2)), V=np.zeros((2, 3)))
        # penalties vanish at zero; only 0.5 * sum A_ij^2 remains
        assert_allclose(objective_at(p, st), 0.5 * (1 + 4 + 9))

    def test_no_observations_no_data_term(self):
        obs = datakit.ObservedMatrix(
            rows=2, cols=2, row_idx=np.zeros(0, dtype=np.int64),
            col_idx=np.zeros(0, dtype=np.int64), values=np.zeros(0))
        p = McProblem(observed=obs, r=1, lam=0.1, theta=5.0)
        st = McState(U=np.zeros((2, 1)), V=np.zeros((1, 2)))
        assert objective_at(p, st) == 0.0

    def test_matches_elementwise_formula(self):
        rng = np.random.default_rng(0)
        obs = datakit.gen_synthetic_ratings(6, 5, 2, 0.6, seed=3)
        p = McProblem(observed=obs, r=2, lam=0.3, theta=2.0)
        st = McState(U=rng.standard_normal((6, 2)),
                     V=rng.standard_normal((2, 5)))
        want = 0.0
        full = st.U @ st.V
        for i, j, a in zip(obs.row_idx, obs.col_idx, obs.values):
            want += 0.5 * (full[i, j] - a) ** 2
        want += penalty(0.3, 2.0, st.U) + penalty(0.3, 2.0, st.V)
        assert_allclose(objective_at(p, st), want, rtol=1e-12)


class TestKernel:
    def test_gradient_vanishes_at_zero(self):
        kern = mc_kernel(diagonal_problem())
        Z0 = np.zeros((6, 2))
        assert kern.eval(Z0) == 0.0
        assert np.all(kern.grad(Z0) == 0.0)

    def test_gradient_against_finite_differences(self):
        p = diagonal_problem()
        kern = mc_kernel(p)
        rng = np.random.default_rng(2)
        err = check_gradient(kern.eval, kern.grad,
                             rng.standard_normal((6, 2)), rng=rng)
        assert err < 1e-5

    def test_smooth_part_is_one_one_relative_to_kernel(self):
        p = diagonal_problem()
        kern = mc_kernel(p)
        f = mc_objective_packed(p)
        smooth = lambda Z: f(Z) - penalty(p.lam, p.theta, Z)
        grad = mc_block_problem(p).partial_grad
        rng = np.random.default_rng(3)
        samples = [(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
                   for _ in range(300)]
        rep = check_relative_smoothness(
            smooth, lambda Z: grad([Z]), kern,
            RelSmoothConstants(L=1.0, l=1.0), samples)
        assert rep.ok(tol=1e-9)


class TestSurrogateWeights:
    def test_weight_at_zero(self):
        # d/dM of lam (1 - exp(-theta |M|)) evaluated at 0+ is lam * theta
        w = surrogate_weights(np.zeros((2, 2)), 0.1, 5.0)
        assert np.all(w == 0.5)

    def test_known_value(self):
        # 0.1 * 5 * exp(-5 * 0.2) = 0.5 / e
        w = surrogate_weights(np.array([0.2]), 0.1, 5.0)
        assert_allclose(w, [0.18393972058572116], rtol=1e-15)

    def test_monotone_decay_in_magnitude(self):
        M = np.linspace(0.0, 3.0, 50)
        w = surrogate_weights(M, 0.1, 5.0)
        assert np.all(np.diff(w) < 0.0)
        assert w[-1] > 0.0


class TestSoftThreshold:
    def test_zero_threshold_is_identity(self):
        A = np.array([[1.0, -2.0], [0.5, 0.0]])
        assert np.array_equal(soft_threshold(A, np.zeros((2, 2))), A)

    def test_small_entries_zeroed(self):
        A = np.array([0.5, -0.3, 1.0])
        B = np.array([1.0, 1.0, 1.0])
        assert np.array_equal(soft_threshold(A, B), [0.0, 0.0, 0.0])

    def test_worked_example(self):
        out = soft_threshold(np.array([[-3.0, 1.0]]), np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[-2.0, 0.0]])

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_negative_or_nan_threshold_rejected(self, bad):
        # np.any(B < 0) is False for NaN, which let [nan, 1, 1] through
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(np.ones(3), np.array([bad, 0.0, 0.0]))


class TestCubicStepScale:
    def test_zero_s_linear_case(self):
        # c1 s tau^3 + c2 tau = 1 degenerates to tau = 1/c2
        assert cubic_step_scale(3.0, 2.0, 0.0) == 0.5

    def test_worked_example(self):
        # 3 * (4/3) * tau^3 + tau = 1 has the root tau = 0.5
        assert_allclose(cubic_step_scale(3.0, 1.0, 4.0 / 3.0), 0.5, rtol=1e-12)

    def test_residual_across_scales(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            c1 = 10.0 ** rng.uniform(-1, 1)
            c2 = 10.0 ** rng.uniform(-2, 3)
            s = 10.0 ** rng.uniform(-6, 4)
            tau = cubic_step_scale(c1, c2, s)
            assert 0.0 < tau <= 1.0 / c2
            assert abs(c1 * s * tau**3 + c2 * tau - 1.0) <= 1e-10


class TestSubproblem:
    def test_zero_anchor_zero_gradient_stays_at_zero(self):
        p = diagonal_problem()
        z0 = McState(U=np.zeros((3, 2)), V=np.zeros((2, 3)))
        out = mc_step(p, z0, z0, 1.0)
        assert np.all(out.U == 0.0)
        assert np.all(out.V == 0.0)

    def test_reconstruction_identity(self):
        # re-derive the minimizer from its pieces: threshold the shifted
        # gradient, rescale by the cubic root, flip sign
        p = diagonal_problem()
        rng = np.random.default_rng(2)
        st = McState(U=rng.standard_normal((3, 2)) * 0.5,
                     V=rng.standard_normal((2, 3)) * 0.5)
        L = 2.0
        out = pack_state(mc_step(p, st, st, L))

        kern = mc_kernel(p)
        Z_bar = pack_state(st)
        g = mc_block_problem(p).partial_grad([Z_bar])
        W = surrogate_weights(Z_bar, p.lam, p.theta)
        S = soft_threshold(g - L * kern.grad(Z_bar), W) / L
        s = float(np.vdot(S, S))
        tau = cubic_step_scale(3.0, p.observed.frobenius(), s)
        assert np.linalg.norm(out - (-tau * S)) <= 1e-12
        assert abs(3.0 * s * tau**3
                   + p.observed.frobenius() * tau - 1.0) <= 1e-10

    def test_against_numerical_oracle(self):
        p = diagonal_problem()
        rng = np.random.default_rng(5)
        st = McState(U=rng.standard_normal((3, 2)) * 0.5,
                     V=rng.standard_normal((2, 3)) * 0.5)
        got = mc_step(p, st, st, 1.5)
        want = verify.oracle_completion_block(p, st, st, 1.5)
        diff = np.linalg.norm(pack_state(got) - pack_state(want))
        assert diff <= 1e-5

    def test_unobserved_entries_do_not_steer_the_step(self):
        # two observation patterns that agree on the observed set produce
        # identical steps even though the dense matrices they came from differ
        rng = np.random.default_rng(6)
        idx = (np.array([0, 1, 2, 0]), np.array([0, 1, 2, 2]))
        vals = rng.standard_normal(4)
        obs_a = datakit.ObservedMatrix(3, 3, idx[0], idx[1], vals)
        obs_b = datakit.ObservedMatrix(3, 3, idx[0].copy(), idx[1].copy(),
                                       vals.copy())
        st = McState(U=rng.standard_normal((3, 2)) * 0.3,
                     V=rng.standard_normal((2, 3)) * 0.3)
        p_a = McProblem(observed=obs_a, r=2, lam=0.1, theta=5.0)
        p_b = McProblem(observed=obs_b, r=2, lam=0.1, theta=5.0)
        out_a = mc_step(p_a, st, st, 1.0)
        out_b = mc_step(p_b, st, st, 1.0)
        assert np.array_equal(out_a.U, out_b.U)
        assert np.array_equal(out_a.V, out_b.V)


class TestSurrogate:
    def test_equals_penalty_at_anchor(self):
        p = diagonal_problem()
        su = mc_surrogate(p)
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = rng.standard_normal((6, 2))
            assert_allclose(su(z, z), penalty(p.lam, p.theta, z),
                            rtol=1e-12)

    def test_majorizes_penalty(self):
        # concavity of 1 - exp(-theta t) in t = |M| makes the tangent-plane
        # surrogate an upper bound everywhere
        p = diagonal_problem()
        su = mc_surrogate(p)
        rng = np.random.default_rng(8)
        anchor = rng.standard_normal((6, 2)) * 0.4
        for _ in range(1000):
            x = anchor + rng.standard_normal((6, 2)) * 10.0 ** rng.uniform(-3, 1)
            gap = su(x, anchor) - penalty(p.lam, p.theta, x)
            assert gap >= -1e-12


class TestStateHandling:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(9)
        st = McState(U=rng.standard_normal((4, 2)),
                     V=rng.standard_normal((2, 5)))
        back = unpack_state(pack_state(st), 4)
        assert np.array_equal(back.U, st.U)
        assert np.array_equal(back.V, st.V)

    def test_mismatched_factor_shapes_rejected(self):
        with pytest.raises(ValueError):
            McState(U=np.zeros((3, 2)), V=np.zeros((3, 3)))

    @pytest.mark.parametrize("field, value", [
        ("r", 2.5), ("r", True), ("r", 0), ("r", 4), ("lam", "1"),
        ("lam", None), ("lam", 0.0), ("lam", np.inf), ("theta", "x"),
        ("theta", np.nan), ("theta", False)])
    def test_bad_field_rejected_by_name(self, field, value):
        # r=2.5 and r=True used to be accepted, and a string or None weight
        # raised a bare TypeError from the comparison
        with pytest.raises(ValueError, match=f"^{field} must"):
            dataclasses.replace(diagonal_problem(), **{field: value})

    def test_random_init_shapes_and_determinism(self):
        p = diagonal_problem()
        a = mc_random_init(p, seed=3)
        b = mc_random_init(p, seed=3)
        assert a.U.shape == (3, 2) and a.V.shape == (2, 3)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
        c = mc_random_init(p, seed=4)
        assert not np.array_equal(a.U, c.U)


class TestRmse:
    def test_exact_fit_is_zero(self):
        rng = np.random.default_rng(10)
        U = rng.standard_normal((4, 2))
        V = rng.standard_normal((2, 5))
        full = U @ V
        ri = np.array([0, 1, 2, 3])
        ci = np.array([1, 0, 4, 2])
        obs = datakit.ObservedMatrix(4, 5, ri, ci, full[ri, ci])
        assert rmse(obs, McState(U=U, V=V)) <= 1e-15

    def test_zero_prediction(self):
        obs = datakit.ObservedMatrix(2, 2, np.array([0, 1]),
                                     np.array([0, 1]), np.array([3.0, 4.0]))
        st = McState(U=np.zeros((2, 1)), V=np.zeros((1, 2)))
        assert_allclose(rmse(obs, st), np.sqrt((9.0 + 16.0) / 2.0))

    def test_empty_observation_set_rejected(self):
        obs = datakit.ObservedMatrix(2, 2, np.zeros(0, dtype=np.int64),
                                     np.zeros(0, dtype=np.int64), np.zeros(0))
        with pytest.raises(ValueError):
            rmse(obs, McState(U=np.zeros((2, 1)), V=np.zeros((1, 2))))


class TestEndToEnd:
    def test_fixed_constants_run_decreases_objective(self):
        obs = datakit.gen_synthetic_ratings(20, 15, 2, 0.4, seed=11)
        p = McProblem(observed=obs, r=2, lam=0.1, theta=5.0)
        z0 = pack_state(mc_random_init(p, seed=1))
        cfg = SolverConfig(max_iters=50, tol_rel_change=0.0,
                           verify_descent=True)
        f = mc_objective_packed(p)
        res = run([mc_block_problem(p)], [z0], cfg,
                  lambda blocks: f(blocks[0]), algorithm="bmme")
        objs = res.trace.objectives()
        assert objs[-1] < objs[0]

    def test_backtracked_run_decreases_objective(self):
        obs = datakit.gen_synthetic_ratings(20, 15, 2, 0.4, seed=11)
        p = McProblem(observed=obs, r=2, lam=0.1, theta=5.0)
        z0 = pack_state(mc_random_init(p, seed=1))
        cfg = SolverConfig(max_iters=50, tol_rel_change=0.0)
        res = run_backtracking(mc_backtracking_problem(p), z0, cfg,
                               mc_objective_packed(p))
        objs = res.trace.objectives()
        assert objs[-1] < objs[0]
        final = unpack_state(res.final[0], 20)
        assert rmse(obs, final) < rmse(obs, unpack_state(z0, 20))

    def test_backtracked_run_passes_descent_verifier_as_L_grows(self):
        # L doubles (0.08 -> 0.16) at step 80 while extrapolating; the line
        # search re-tests that step's beta against the grown pair, so the
        # verifier's unscaled relaxation term delta * L_prev * D_prev holds
        obs = datakit.gen_synthetic_ratings(30, 25, 2, 0.4, seed=13)
        p = McProblem(observed=obs, r=2, lam=0.1, theta=5.0)
        z0 = pack_state(mc_random_init(p, seed=13))
        cfg = SolverConfig(max_iters=100, tol_rel_change=0.0,
                           verify_descent=True, keep_certificates=True)
        res = run_backtracking(mc_backtracking_problem(p), z0, cfg,
                               mc_objective_packed(p))
        assert len(res.trace.records) == 100
        certs = res.state.certificates
        assert any(b.L > a.L and b.beta > 0 for a, b in zip(certs, certs[1:]))

    @pytest.mark.parametrize("seed", [13, 18])
    def test_certificates_replay_extrapolation_test_against_final_pair(
            self, seed):
        # D(x, xbar) <= delta * L_prev / (L + l) * D(x_prev, x) with the
        # step's final (L, l), also at the step where the upper search grows
        # L (step 80 for seed 13, step 60 for seed 18)
        obs = datakit.gen_synthetic_ratings(30, 25, 2, 0.4, seed=seed)
        p = McProblem(observed=obs, r=2, lam=0.1, theta=5.0)
        z0 = pack_state(mc_random_init(p, seed=seed))
        cfg = SolverConfig(delta=0.99, max_iters=100, tol_rel_change=0.0,
                           verify_descent=False, keep_certificates=True)
        res = run_backtracking(mc_backtracking_problem(p), z0, cfg,
                               mc_objective_packed(p))
        kern = mc_kernel(p)
        L_prev = BT_FLOORS.L
        grew_extrapolating = False
        for k, c in enumerate(res.state.certificates, 1):
            d_bar = bregman_divergence(kern, c.x_curr, c.x_bar)
            d_prev = bregman_divergence(kern, c.x_prev, c.x_curr)
            assert d_bar <= cfg.delta * L_prev / (c.L + c.l) * d_prev, k
            grew_extrapolating |= c.L > L_prev and c.beta > 0.0
            L_prev = c.L
        assert grew_extrapolating

    def test_backtracked_run_golden(self):
        # exact values of the line-searched path, pinned so that a change to
        # its floating-point order or its doubling and shrinking shows
        obs = datakit.gen_synthetic_ratings(30, 25, 2, 0.4, seed=5)
        p = McProblem(observed=obs, r=2, lam=0.1, theta=5.0)
        z0 = pack_state(mc_random_init(p, seed=5))
        cfg = SolverConfig(delta=0.5, max_iters=60, tol_rel_change=0.0,
                           verify_descent=False, keep_certificates=True)
        res = run_backtracking(mc_backtracking_problem(p), z0, cfg,
                               mc_objective_packed(p))
        assert len(res.trace.records) == 60
        assert res.trace.records[-1].objective == 8.933217945513968
        last = res.state.certificates[-1]
        assert last.L == 0.16
        assert last.l == 0.001
        assert sum(s for r in res.trace.records
                   for s in r.per_block_shrinks) == 144


def left_to_right_residuals(observed, U, Vt):
    # reference residual pass: each entry's r products summed left to right
    ri, ci = observed.row_idx, observed.col_idx
    pred = sum(U[ri, k] * Vt[ci, k] for k in range(U.shape[1]))
    return pred - observed.values


def per_call_csr_grad(observed, Z):
    # reference gradient that shares nothing with the kept CSR pattern:
    # column-by-column residuals, COO -> CSR conversion on every call
    m = observed.rows
    U, V = Z[:m], Z[m:].T
    res = left_to_right_residuals(observed, U, V.T)
    R = csr_matrix((res, (observed.row_idx, observed.col_idx)),
                   shape=(observed.rows, observed.cols))
    return np.vstack([R @ V.T, R.T @ U])


@pytest.fixture
def fresh_passes(monkeypatch):
    """Count the residual passes that are computed, not served by the memo."""
    count = [0]
    inner = matcomp._residuals

    def counted(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(matcomp, "_residuals", counted)
    return count


class TestResidualMemo:
    def test_memo_is_keyed_by_value(self, fresh_passes):
        obs = datakit.gen_synthetic_ratings(20, 15, 2, 0.4, seed=11)
        p = McProblem(observed=obs, r=2, lam=0.1, theta=5.0)
        prob = mc_backtracking_problem(p)
        Z = pack_state(mc_random_init(p, seed=1))
        f_before = prob.f_eval(Z)
        Z[0, 0] += 1.0
        Z[-1, 1] -= 0.5
        f_after, g_after = prob.f_eval(Z), prob.grad(Z)
        assert fresh_passes[0] == 2

        fresh = mc_backtracking_problem(
            McProblem(observed=obs, r=2, lam=0.1, theta=5.0))
        assert f_after != f_before
        assert f_after == fresh.f_eval(Z.copy())
        assert np.array_equal(g_after, fresh.grad(Z.copy()))

        count = fresh_passes[0]
        twin = Z.copy()  # another array, equal contents: served by the memo
        assert prob.f_eval(twin) == f_after
        assert np.array_equal(prob.grad(twin), g_after)
        assert mc_objective_packed(p)(twin) == f_after + penalty(
            p.lam, p.theta, Z)
        assert fresh_passes[0] == count

    def test_backtracked_run_makes_one_fresh_pass_per_point(self, fresh_passes):
        obs = datakit.gen_synthetic_ratings(30, 25, 2, 0.4, seed=5)
        p = McProblem(observed=obs, r=2, lam=0.1, theta=5.0)
        calls = {"f_eval": 0, "grad": 0, "subproblem": 0, "objective": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        prob = mc_backtracking_problem(p)
        prob = dataclasses.replace(
            prob, f_eval=counted("f_eval", prob.f_eval),
            grad=counted("grad", prob.grad),
            solve_subproblem=counted("subproblem", prob.solve_subproblem))
        objective = counted("objective", mc_objective_packed(p))
        cfg = SolverConfig(delta=0.5, max_iters=50, tol_rel_change=0.0,
                           verify_descent=False)
        res = run_backtracking(prob, pack_state(mc_random_init(p, seed=5)),
                               cfg, objective)
        assert len(res.trace.records) == 50
        passes = fresh_passes[0]
        assert passes <= calls["grad"] + calls["subproblem"] + 1
        assert 2 * passes < calls["f_eval"] + calls["grad"] + calls["objective"]


# zero, or a magnitude from 1e-100 to 1e100 of either sign: no product or
# sum of up to 8 products underflows or overflows
moderate = st.one_of(st.just(0.0), st.builds(
    lambda sign, m, k: sign * m * 10.0 ** k, st.sampled_from([-1.0, 1.0]),
    st.floats(1.0, 10.0), st.integers(-100, 100)))


@st.composite
def residual_pass_cases(draw):
    """Observed entries in drawn order (sorted or not), factors, values."""
    m, n, r = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(
        st.integers(1, 8))
    lin = np.array(draw(st.lists(st.integers(0, m * n - 1), unique=True,
                                 max_size=m * n)), dtype=np.int64)
    if draw(st.booleans()):
        lin.sort()
    floats = st.lists(moderate, min_size=(m + n) * r + lin.size,
                      max_size=(m + n) * r + lin.size)
    draws = np.array(draw(floats))
    U = draws[:m * r].reshape(m, r)
    V = draws[m * r:(m + n) * r].reshape(r, n)
    ri, ci = np.divmod(lin, n)
    obs = datakit.ObservedMatrix(m, n, ri, ci, draws[(m + n) * r:])
    return obs, U, V


class TestResidualPass:
    @settings(max_examples=200, deadline=None)
    @given(case=residual_pass_cases())
    def test_matches_dense_product_within_rounding(self, case):
        # the standard bound for a sum of r products and one value, doubled
        obs, U, V = case
        got = matcomp._residuals(obs, U, V.T)
        kept = matcomp._ResidualPasses(obs, U.shape[1]).residuals(
            np.vstack([U, V.T]))
        assert np.array_equal(kept, got)
        ri, ci = obs.row_idx, obs.col_idx
        want = (U @ V)[ri, ci] - obs.values
        size = (np.abs(U[ri]) * np.abs(V.T[ci])).sum(axis=1) + np.abs(
            obs.values)
        assert got.shape == (obs.n_obs,)
        assert np.all(np.abs(got - want) <= 4 * U.shape[1] * 2.0**-53 * size)

    @pytest.mark.parametrize("r", range(1, 11))
    def test_sums_each_entry_left_to_right(self, r):
        # one CSR row per entry: its r products summed left to right from 0,
        # the order of Python's sum over the columns, whatever the entry order
        obs = datakit.gen_synthetic_ratings(60, 50, 4, 0.3, seed=r)
        order = np.random.default_rng(r).permutation(obs.n_obs)
        shuffled = datakit.ObservedMatrix(
            obs.rows, obs.cols, obs.row_idx[order], obs.col_idx[order],
            obs.values[order])
        rng = np.random.default_rng(r)
        U, Vt = rng.standard_normal((60, r)), rng.standard_normal((50, r))
        for observed in (obs, shuffled):
            assert np.array_equal(matcomp._residuals(observed, U, Vt),
                                  left_to_right_residuals(observed, U, Vt))


class TestCsrPattern:
    @staticmethod
    def check(observed, r, seed):
        p = McProblem(observed=observed, r=r, lam=0.1, theta=5.0)
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((observed.rows + observed.cols, r))
        got = matcomp._smooth_grad_packed(p, Z)
        assert np.array_equal(got, per_call_csr_grad(observed, Z))
        return got

    def test_shuffled_entries(self):
        obs = datakit.gen_synthetic_ratings(305, 203, 4, 0.1, seed=7)
        order = np.random.default_rng(8).permutation(obs.n_obs)
        shuffled = datakit.ObservedMatrix(
            obs.rows, obs.cols, obs.row_idx[order], obs.col_idx[order],
            obs.values[order])
        got = self.check(shuffled, r=4, seed=9)
        assert np.array_equal(got, self.check(obs, r=4, seed=9))

    def test_entries_in_csr_order_need_no_gather(self, monkeypatch):
        # entries are stored row-major, so in any given order the memo's
        # residual array is the gradient matrix's data, read in place
        obs = datakit.gen_synthetic_ratings(305, 203, 4, 0.1, seed=7)
        train, _ = datakit.train_test_split(obs, 0.8, seed=3)
        order = np.random.default_rng(8).permutation(obs.n_obs)
        shuffled = datakit.ObservedMatrix(
            obs.rows, obs.cols, obs.row_idx[order], obs.col_idx[order],
            obs.values[order])
        for observed in (obs, train, shuffled):
            p = McProblem(observed=observed, r=4, lam=0.1, theta=5.0)
            assert p._passes.indices.dtype == np.int32
            Z = np.random.default_rng(9).standard_normal(
                (observed.rows + observed.cols, 4))
            res = p._passes.residuals(Z)
            before = res.copy()
            data = []
            with monkeypatch.context() as mp:
                mp.setattr(matcomp, "csr_matrix", lambda arg, **kw: (
                    data.append(arg[0]) or csr_matrix(arg, **kw)))
                got = matcomp._smooth_grad_packed(p, Z)
            assert len(data) == 1 and data[0] is res
            assert np.array_equal(got, per_call_csr_grad(observed, Z))
            assert p._passes.residuals.value is res
            assert np.array_equal(res, before)

    def test_empty_rows_and_columns(self):
        # rows 0, 2, 5 and columns 1, 3 hold no entry
        obs = datakit.ObservedMatrix(
            6, 5, np.array([4, 1, 3, 1, 4]), np.array([2, 0, 4, 4, 0]),
            np.array([1.5, -2.0, 0.25, 3.0, -1.0]))
        got = self.check(obs, r=2, seed=10)
        assert np.all(got[[0, 2, 5, 6 + 1, 6 + 3]] == 0.0)

    def test_no_observed_entries(self):
        obs = datakit.ObservedMatrix(
            3, 4, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0))
        assert np.all(self.check(obs, r=2, seed=11) == 0.0)
