"""Tests for the orthogonal-NMF problem: objective, block updates, cubic
scaling, SPA seeding, and cluster scoring.

Expected values fall in three groups: hand-computable cases (identity data,
zero factors), closed-form roots cross-checked against bisection, and
structural properties sampled with a seeded generator.
"""

import dataclasses
import itertools
import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import CountingExecutor
from numpy.testing import assert_allclose

from bmme import bregman, cli, datakit, onmf, verify
from bmme.bregman import (RelSmoothConstants, bregman_divergence,
                          cubic_norm_scale)
from bmme.onmf import (
    OnmfProblem,
    clustering_accuracy,
    default_lambda,
    onmf_block_problems,
    onmf_constants_U,
    onmf_objective,
    predict_clusters,
    spa_init,
    spa_select_rows,
    spectral_norm,
    v_block_kernel,
    v_kernel_weight,
)
from bmme.solver import SolverConfig, run

EPS = np.finfo(np.float64).eps


def block_update(p, i, U, V, L):
    """The solver's update of block i (0 for U, 1 for V) at x_bar = [U, V][i]."""
    blocks = [U, V]
    return verify._block_update(onmf_block_problems(p)[i], blocks, i,
                                blocks[i], L)


def v_target(p, U, V_bar, L):
    """The V-update target grad phi(V_bar) - grad_V f(U, V_bar) / L.

    The V update is the kernel-gradient inverse of its positive part.
    """
    v_block = onmf_block_problems(p)[1]
    kern = v_block.kernel_for([U, V_bar])
    return kern.grad(V_bar) - v_block.partial_grad([U, V_bar]) / L


def direct_objective(p, U, V):
    """F from the residual X - U V, written out here independently."""
    R = p.X - U @ V
    O = np.eye(V.shape[0]) - V @ V.T
    return 0.5 * float(np.vdot(R, R)) + 0.5 * p.lam * float(np.vdot(O, O))


def warm(p, which, U, V):
    """Put U^T X (which="U") or X V^T (which="V") in the product memo."""
    if which == "U":
        p._products.UtX(U)
    else:
        p._products.XVt(V)


def sweeps_read_X_twice(monkeypatch, m, n):
    """50 verified sweeps on an m x n instance form each X product 50 times."""
    syn = datakit.gen_synthetic_onmf(m, n, 3, noise=0.05, seed=1)
    p = OnmfProblem(X=syn.X, r=3, lam=100.0)
    prod = p._products
    fresh = {"UtX": 0, "XVt": 0, "residual": 0}
    real_objective = onmf._objective

    def objective_part(p, U, V, fit, VVt):
        fresh["residual"] += fit is None
        return real_objective(p, U, V, fit, VVt)

    monkeypatch.setattr(onmf, "_objective", objective_part)

    def counted(name, fn):
        def product(A):
            fresh[name] += 1
            return fn(A)
        return product

    for name in ("UtX", "XVt"):
        memo = getattr(prod, name)
        memo.fn = counted(name, memo.fn)
    hits = []

    def objective(blocks):
        U, V = blocks
        hits.append(prod.UtX.hit(U) or prod.XVt.hit(V))
        return onmf_objective(p, U, V)

    cfg = SolverConfig(max_iters=50, tol_rel_change=0.0,
                       verify_descent=True)
    res = run(onmf_block_problems(p), list(spa_init(syn.X, 3)), cfg,
              objective)
    # only the starting point, before any gradient, misses the memo: its
    # objective forms X V^T there, which sweep 1's U gradient reuses, and
    # no residual is formed
    assert fresh == {"UtX": 50, "XVt": 50, "residual": 0}
    assert hits == [False] + [True] * 50
    # the line search's f stays the residual form with the memo warm
    U, V = res.final
    assert prod.UtX.hit(U)
    for block in onmf_block_problems(p):
        assert block.smooth_eval([U, V]) == direct_objective(p, U, V)


class TestObjective:
    def test_zero_factors(self):
        # both residual terms survive: 0.5||X||^2 + 0.5 lam ||I_r||^2
        X = np.arange(6, dtype=float).reshape(2, 3)
        p = OnmfProblem(X=X, r=2, lam=3.0)
        val = onmf_objective(p, np.zeros((2, 2)), np.zeros((2, 3)))
        assert_allclose(val, 0.5 * np.sum(X**2) + 0.5 * 3.0 * 2)

    def test_exact_orthogonal_factorization_is_zero(self):
        syn = datakit.gen_synthetic_onmf(10, 8, 3, noise=0.0, seed=2)
        p = OnmfProblem(X=syn.X, r=3, lam=7.0)
        assert onmf_objective(p, syn.U, syn.V) < 1e-20

    @pytest.mark.parametrize("which", ["U", "V"])
    def test_exact_factorization_with_warm_memo_is_zero(self, which):
        # here the Gram fit alone is +-1.8e-15; the near-zero fallback
        # takes the residual's, which is exactly 0
        syn = datakit.gen_synthetic_onmf(10, 8, 3, noise=0.0, seed=2)
        p = OnmfProblem(X=syn.X, r=3, lam=7.0)
        warm(p, which, syn.U, syn.V)
        got = onmf_objective(p, syn.U, syn.V)
        assert got == direct_objective(p, syn.U, syn.V) < 1e-20

    def test_matches_elementwise_formula(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(7, 5))
        U = rng.uniform(size=(7, 3))
        V = rng.uniform(size=(3, 5))
        p = OnmfProblem(X=X, r=3, lam=2.5)
        want = 0.0
        R = X - U @ V
        for i in range(7):
            for j in range(5):
                want += 0.5 * R[i, j] ** 2
        Q = np.eye(3) - V @ V.T
        for i in range(3):
            for j in range(3):
                want += 0.5 * 2.5 * Q[i, j] ** 2
        assert_allclose(onmf_objective(p, U, V), want, rtol=1e-12)


@st.composite
def factor_cases(draw):
    """X = scale (U V + noise N), U, V >= 0; factors near sqrt(scale) (U, V).

    noise = 0 with unperturbed factors is an exact factorization, F -> 0.
    """
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    r = draw(st.integers(1, min(m, n, 5)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    noise = draw(st.sampled_from([0.0, 1e-8, 1e-4, 0.1]))
    perturb = draw(st.sampled_from([0.0, 1e-6, 0.1]))
    lam = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, V = rng.uniform(size=(m, r)), rng.uniform(size=(r, n))
    X = scale * (U @ V + noise * rng.standard_normal((m, n)))
    U = np.sqrt(scale) * U * (1.0 + perturb * rng.standard_normal(U.shape))
    return OnmfProblem(X=X, r=r, lam=lam), U, np.sqrt(scale) * V


class TestProductMemo:
    @settings(max_examples=300, deadline=None)
    @given(case=factor_cases(), which=st.sampled_from(["U", "V"]))
    def test_warm_memo_matches_direct_form(self, case, which):
        p, U, V = case
        warm(p, which, U, V)
        got, want = onmf_objective(p, U, V), direct_objective(p, U, V)
        gram = float(np.vdot(U.T @ U, V @ V.T))
        assert got >= 0.0
        # the Gram form errs by a few eps (||X||^2 + ||U V||^2), far inside
        # the descent verifier's slack
        assert abs(got - want) <= 64 * EPS * (p._products.xx + gram + want)
        assert abs(got - want) <= 1e-8 * (1.0 + want)
        R = p.X - U @ V
        if float(np.vdot(R, R)) < 0.5e-5 * (p._products.xx + gram):
            # well inside the fallback band, so the Gram fit is in it too
            assert got == want

    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e3])
    def test_verified_run_on_noise_free_data(self, scale):
        # F falls far below ||X||^2, into the fallback band, and every
        # sweep still passes the descent verifier
        syn = datakit.gen_synthetic_onmf(40, 60, 3, noise=0.0, seed=1)
        p = OnmfProblem(X=scale * syn.X, r=3, lam=100.0)
        cfg = SolverConfig(max_iters=300, tol_rel_change=0.0,
                           verify_descent=True)
        res = run(onmf_block_problems(p), list(spa_init(p.X, 3)), cfg,
                  lambda blocks: onmf_objective(p, blocks[0], blocks[1]))
        assert len(res.trace) == 300
        U, V = res.final
        R = p.X - U @ V
        assert float(np.vdot(R, R)) < 1e-5 * p._products.xx

    def test_cold_memo_takes_the_gram_form_and_keeps_X_Vt(self):
        syn = datakit.gen_synthetic_onmf(60, 60, 3, noise=0.05, seed=7)
        p = OnmfProblem(X=syn.X, r=3, lam=10.0)
        U0, V0 = spa_init(p.X, 3)
        for A in (U0, V0):
            A.setflags(write=False)  # as run keeps its iterates
        got = onmf_objective(p, U0, V0)
        want = onmf._objective(p, U0, V0, None, V0 @ V0.T)
        gram = float(np.vdot(U0.T @ U0, V0 @ V0.T))
        assert abs(got - want) <= 64 * EPS * (p._products.xx + gram + want)
        assert p._products.XVt.hit(V0)
        assert not p._products.UtX.hit(U0)

    def test_writeable_factors_are_recomputed_and_never_kept(self):
        syn = datakit.gen_synthetic_onmf(30, 20, 3, noise=0.05, seed=7)
        p = OnmfProblem(X=syn.X, r=3, lam=10.0)
        U, V = spa_init(p.X, 3)
        prod, calls = p._products, []
        for name in ("XVt", "UtU", "VVt"):
            memo = getattr(prod, name)
            memo.fn = (lambda fn: lambda A: calls.append(A) or fn(A))(memo.fn)
        first = onmf_objective(p, U, V)
        assert onmf_objective(p, U, V) == first and len(calls) == 6
        assert all(A is U or A is V for A in calls)
        assert all(getattr(prod, n).key is None for n in ("XVt", "UtU", "VVt"))
        U[0, 0] += 1.0
        fresh = OnmfProblem(X=syn.X, r=3, lam=10.0)
        assert onmf_objective(p, U, V) == onmf_objective(fresh, U.copy(), V)

    def test_fixed_constant_sweep_reads_X_twice(self, monkeypatch):
        sweeps_read_X_twice(monkeypatch, 30, 40)

    def test_each_iterate_s_gram_is_formed_once(self, monkeypatch):
        # lam = 1 keeps eps(U) = ||U^T U||_2 above 2 lam, so the V kernel
        # weight takes its SVD path; U^T U of U^{k+1} serves it, the V
        # gradient and the objective, and V V^T of V^{k+1} the objective,
        # the next U constants and gradient. The V gradient forms Vbar's
        # own Gram outside the memo, which so never holds Vbar.
        syn = datakit.gen_synthetic_onmf(40, 30, 3, noise=0.05, seed=2)
        p = OnmfProblem(X=syn.X, r=3, lam=1.0)
        prod = p._products
        formed = {"UtU": [], "VVt": []}
        for name in formed:
            memo = getattr(prod, name)
            memo.fn = (lambda fn, out: lambda A: out.append(A) or fn(A))(
                memo.fn, formed[name])
        from_memo = []
        real = onmf.spectral_norm
        monkeypatch.setattr(onmf, "spectral_norm", lambda M: from_memo.append(
            M is prod.UtU.value or M is prod.VVt.value) or real(M))
        sweeps = 40
        res = run(onmf_block_problems(p), list(spa_init(syn.X, 3)),
                  SolverConfig(max_iters=sweeps, tol_rel_change=0.0),
                  lambda blocks: onmf_objective(p, blocks[0], blocks[1]))
        monkeypatch.undo()
        assert from_memo == [True] * (2 * sweeps)  # both SVDs, each sweep
        assert sum(r.per_block_beta[1] > 0.0 for r in res.trace.records) > 0
        assert all(v_kernel_weight(U, p.lam) > 2.0 * p.lam
                   for U in formed["UtU"])
        assert len(formed["UtU"]) == sweeps + 1
        assert len(formed["VVt"]) == sweeps + 1
        U, V = res.final
        assert prod.UtU.key is U and prod.VVt.key is V
        assert np.array_equal(prod.UtU.value, U.T @ U)
        assert np.array_equal(prod.VVt.value, V @ V.T)


class TestSplitProducts:
    """From ``onmf._SPLIT_SIZE`` entries on, each X product runs in halves
    that the caller and one pool worker share."""

    @pytest.mark.parametrize("r", [1, 10])
    def test_halves_equal_the_single_call(self, r, counting_pool):
        # odd sizes: neither split falls in the middle
        rng = np.random.default_rng(r)
        X = rng.random((1001, 2003)) - 0.25
        U, V = rng.random((1001, r)), rng.random((r, 2003))
        p = OnmfProblem(X=X, r=r, lam=1.0)
        assert X.size >= onmf._SPLIT_SIZE
        assert np.array_equal(p._products.UtX(U), U.T @ X)
        assert np.array_equal(p._products.XVt(V), (V @ X.T).T)
        assert counting_pool.submitted == 2

    @pytest.mark.parametrize("product", [onmf._utx, onmf._xvt])
    def test_caller_runs_both_halves_past_a_busy_worker(self, product,
                                                        monkeypatch):
        # the only worker is busy until released, so a product that returns
        # before that ran both halves on the calling thread
        pool = CountingExecutor(1)
        monkeypatch.setattr(bregman, "_pool", (os.getpid(), pool))
        release = threading.Event()
        busy = pool.submit(release.wait, 20)
        rng = np.random.default_rng(10)
        X = rng.random((1001, 2003)) - 0.25
        U, V = rng.random((1001, 10)), rng.random((10, 2003))
        F, want = (U, U.T @ X) if product is onmf._utx else (V, (V @ X.T).T)
        t0 = time.monotonic()
        try:
            got = product(F, X)
            assert time.monotonic() - t0 < 10
            assert not busy.done()
        finally:
            release.set()
            pool.shutdown()
        assert np.array_equal(got, want)
        assert pool.submitted == 2

    def test_below_the_threshold_no_thread_starts(self, monkeypatch):
        monkeypatch.setattr(bregman, "_pool", None)
        threads = threading.enumerate()
        rng = np.random.default_rng(0)
        m, n = 1024, onmf._SPLIT_SIZE // 1024 - 1
        X, U, V = rng.random((m, n)), rng.random((m, 5)), rng.random((5, n))
        p = OnmfProblem(X=X, r=5, lam=1.0)
        assert np.array_equal(p._products.UtX(U), U.T @ X)
        assert np.array_equal(p._products.XVt(V), (V @ X.T).T)
        assert bregman._pool is None
        assert set(threading.enumerate()) <= set(threads)

    def test_split_sweep_reads_X_twice(self, monkeypatch, counting_pool):
        assert 1024 * 1024 >= onmf._SPLIT_SIZE
        sweeps_read_X_twice(monkeypatch, 1024, 1024)
        assert counting_pool.submitted == 50 + 50

    def test_one_worker_writes_the_same_trace(self, tmp_path, monkeypatch):
        # the halves are fixed, so the worker count cannot move a bit
        argv = ["run", "--problem", "onmf", "--m", "1024", "--n", "1024",
                "--r", "5", "--lambda", "1000", "--seed", "1",
                "--max-iters", "20", "--verify-descent"]
        columns = []
        for workers in (2, 1):
            pool = CountingExecutor(workers)
            monkeypatch.setattr(bregman, "_pool", (os.getpid(), pool))
            out = tmp_path / str(workers)
            assert cli.main([*argv, "--out", str(out)]) == 0
            pool.shutdown()
            assert pool.submitted == 20 + 20
            columns.append([line.split(b",")[2] for line in
                            (out / "trace.csv").read_bytes().splitlines()[1:]])
        assert len(columns[0]) == 20
        assert columns[0] == columns[1]


class TestSpectralNorm:
    def test_identity(self):
        assert_allclose(spectral_norm(np.eye(3)), 1.0, rtol=1e-9)

    def test_diagonal(self):
        assert_allclose(spectral_norm(np.diag([4.0, 1.0])), 4.0, rtol=1e-9)

    def test_random_psd_against_eigvalsh(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A = rng.standard_normal((8, 8))
            M = A @ A.T
            want = float(np.linalg.eigvalsh(M)[-1])
            assert_allclose(spectral_norm(M), want, rtol=1e-6)

    def test_known_spectrum_with_small_eigengap(self):
        # eigenvalues 1 and 1 - 1e-5 are hard for an iterative estimate;
        # the U-block L = ||V V^T||_2 must not fall below the true value 1
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        W, _ = np.linalg.qr(rng.standard_normal((40, 5)))
        eigs = np.array([1.0, 1.0 - 1e-5, 0.5, 0.2, 0.1])
        V = Q @ np.diag(np.sqrt(eigs)) @ W.T
        assert_allclose(spectral_norm(Q @ np.diag(eigs) @ Q.T), 1.0, rtol=1e-13)
        assert_allclose(onmf_constants_U(V).L, 1.0, rtol=1e-13)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected(self, bad):
        # an SVD returns NaN for inf entries and fails to converge for NaN
        M = np.eye(3)
        M[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm(M)

    def test_equals_two_norm_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for shape in [(5, 5), (10, 10), (3, 7)]:
            A = rng.standard_normal(shape)
            for M in (A, A @ A.T):
                assert spectral_norm(M) == np.linalg.norm(M, 2)

    @pytest.mark.parametrize("r", range(1, 21))
    def test_equals_two_norm_bit_for_bit_at_every_rank(self, r):
        rng = np.random.default_rng(r)
        square = rng.standard_normal((r, r))
        wide = rng.uniform(size=(r, 100))
        tall = rng.uniform(size=(100, r))
        for M in (square, wide, wide.T, wide @ wide.T, tall.T @ tall):
            assert spectral_norm(M) == np.linalg.norm(M, 2)

    def test_numpy_2_takes_the_gufunc(self):
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
            assert onmf._dgesdd_values is not None

    def test_failed_svd_raises_without_a_warning(self, monkeypatch):
        # the gufunc marks a failed SVD by NaN and the invalid flag
        def failing(M, signature):
            return np.sqrt(-np.ones(M.shape[-1]))

        with pytest.warns(RuntimeWarning):
            failing(np.eye(3), "d->d")
        monkeypatch.setattr(onmf, "_dgesdd_values", failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                spectral_norm(np.eye(3))

    def test_falls_back_to_numpy_svd_without_the_gufunc(self, monkeypatch):
        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(onmf, "_dgesdd_values", None)
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        M = np.random.default_rng(2).standard_normal((4, 6))
        assert spectral_norm(M) == np.linalg.norm(M, 2)
        assert len(calls) == 1
        assert spectral_norm(np.zeros((0, 3))) == 0.0
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm(np.full((2, 2), np.nan))
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
    def test_non_2d_input_rejected(self, shape):
        with pytest.raises(ValueError,
                           match="spectral_norm expects a 2-D array"):
            spectral_norm(np.ones(shape))


class TestConstantsU:
    def test_orthonormal_rows_give_unit_L(self):
        syn = datakit.gen_synthetic_onmf(6, 9, 3, noise=0.0, seed=1)
        consts = onmf_constants_U(syn.V)
        assert_allclose(consts.L, 1.0, rtol=1e-9)
        assert consts.l == 0.0

    def test_zero_V_hits_floor(self):
        consts = onmf_constants_U(np.zeros((2, 5)))
        assert consts.L == 1e-12


def kernel_weight_oracle(U, lam):
    return max(float(np.linalg.norm(U.T @ U, 2)), 2.0 * lam)


def rank_one(seed, m, r):
    """An m x r rank-one U >= 0, whose ||U^T U||_2 is ||U||_F^2."""
    rng = np.random.default_rng(seed)
    return np.outer(rng.uniform(size=m), rng.uniform(size=r))


@st.composite
def gram_factors(draw):
    """An m x r U >= 0, rank one or generic."""
    m = draw(st.integers(1, 40))
    r = draw(st.integers(1, min(m, 8)))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return rank_one(seed, m, r)
    return np.random.default_rng(seed).uniform(size=(m, r))


class TestKernelWeight:
    # ||U^T U||_2 <= ||U||_F^2 screens the SVD out when 2 lam is the max;
    # the result must be the SVD's either way

    @settings(max_examples=500, deadline=None)
    @given(U=gram_factors(), lam=st.floats(1e-3, 1e3),
           offset=st.one_of(st.floats(-1e-6, 1e-6),
                            st.integers(-16, 16).map(lambda k: k * EPS)))
    # fl(||U||_F^2) < 2 lam < the computed ||U^T U||_2: the margin decides
    @example(U=rank_one(88, 6, 3), lam=1.0, offset=0.0)
    def test_bit_for_bit_near_the_threshold(self, U, lam, offset):
        # ||U||_F^2 within 1 +- 1e-6 of 2 lam, and within a few ulps of it,
        # where the computed ||U^T U||_2 may exceed fl(||U||_F^2)
        U = U * np.sqrt(2.0 * lam * (1.0 + offset) / np.vdot(U, U))
        assert v_kernel_weight(U, lam) == kernel_weight_oracle(U, lam)

    @settings(max_examples=300, deadline=None)
    @given(U=gram_factors(), k=st.integers(-200, 200),
           ratio=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
    def test_bit_for_bit_at_power_of_two_scales(self, U, k, ratio):
        U = U * 2.0**k
        lam = ratio * float(np.vdot(U, U))
        assert v_kernel_weight(U, lam) == kernel_weight_oracle(U, lam)

    def test_paper_setting_takes_one_svd_per_sweep(self, monkeypatch):
        # ||U||_F^2 stays far below 2 lam = 2000, so of the two r x r
        # norms per sweep only the U block's L = ||V V^T||_2 is computed
        calls = []
        real = onmf.spectral_norm
        monkeypatch.setattr(onmf, "spectral_norm",
                            lambda M: calls.append(1) or real(M))
        syn = datakit.gen_synthetic_onmf(100, 100, 5, noise=0.05, seed=1)
        p = OnmfProblem(X=syn.X, r=5, lam=1000.0)
        cfg = SolverConfig(max_iters=500, tol_rel_change=0.0,
                           verify_descent=True)
        res = run(onmf_block_problems(p), list(spa_init(syn.X, 5)), cfg,
                  lambda blocks: onmf_objective(p, blocks[0], blocks[1]))
        assert len(res.trace.records) == 500
        assert len(calls) == 500

    def test_v_kernel_is_rebuilt_only_when_eps_changes(self):
        syn = datakit.gen_synthetic_onmf(20, 30, 3, noise=0.0, seed=1)
        kernel_for = onmf_block_problems(
            OnmfProblem(X=syn.X, r=3, lam=1.0))[1].kernel_for
        small = np.full((20, 3), 0.01)  # ||U||_F^2 < 2 lam: eps = 2 lam
        big = np.full((20, 3), 1.0)     # ||U^T U||_2 = 60 > 2 lam
        first = kernel_for([small, syn.V])
        assert first == v_block_kernel(small, 1.0)
        assert kernel_for([2.0 * small, syn.V]) is first
        grown = kernel_for([big, syn.V])
        assert grown == v_block_kernel(big, 1.0) != first
        assert kernel_for([big.copy(), syn.V]) is grown
        assert kernel_for([small, syn.V]) == first


@pytest.mark.parametrize("x", [
    np.zeros((0, 3)), np.array([[0.0, 2.0]]), np.array([[-0.0, 1.0]]),
    np.array([[1.0, -1e-300]]), np.array([[np.nan, 1.0]]),
    np.array([[1.0, np.inf]]), np.array([[-np.inf, 1.0]])])
def test_feasible_equals_nonnegative_entries(x):
    # both blocks' feasible set: every entry >= 0, so a NaN is infeasible
    for block in onmf_block_problems(OnmfProblem(np.eye(2), 1, 1.0)):
        assert block.feasible(x) == (x >= 0.0).all()


class TestUpdateU:
    def test_identity_instance(self):
        # grad at Ubar = (Ubar - I) = -0.5 I, so the prox step from 0.5 I
        # with L1 = 1 lands exactly on the identity
        p = OnmfProblem(X=np.eye(3), r=3, lam=1.0)
        out = block_update(p, 0, 0.5 * np.eye(3), np.eye(3), 1.0)
        assert_allclose(out, np.eye(3), rtol=0, atol=0)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            X = rng.uniform(size=(6, 5))
            U_bar = rng.standard_normal((6, 2))  # deliberately signed
            V = rng.uniform(size=(2, 5))
            out = block_update(OnmfProblem(X=X, r=2, lam=1.0), 0, U_bar, V,
                               2.0)
            assert np.all(out >= 0.0)

    def test_matches_numerical_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(5, 4))
        V = rng.uniform(size=(2, 4))
        U_bar = rng.uniform(size=(5, 2))
        p = OnmfProblem(X=X, r=2, lam=1.0)
        L1 = onmf_constants_U(V).L
        got = block_update(p, 0, U_bar, V, L1)
        want = verify.oracle_u_block(p, U_bar, V, L1)
        assert np.linalg.norm(got - want) <= 1e-6


class TestCubicNormScale:
    def test_zero_c_returns_a(self):
        # t^2 (t - 2) = 0 with t > 0 forces t = 2
        assert cubic_norm_scale(2.0, 0.0) == 2.0

    def test_zero_a(self):
        # t^3 = 8
        assert_allclose(cubic_norm_scale(0.0, 8.0), 2.0, rtol=1e-12)

    def test_generic_root_against_bisection(self):
        got = cubic_norm_scale(1.7, 3.3)
        assert_allclose(got, 2.315496587407873, rtol=1e-13)
        h = lambda t: t * t * (t - 1.7) - 3.3
        want = verify.bisect_root(h, 1.7, 1.7 + 3.3 + 1.0)
        assert_allclose(got, want, rtol=1e-10)

    def test_residual_small_across_scales(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            a = 10.0 ** rng.uniform(-3, 2)
            c = 10.0 ** rng.uniform(-3, 3)
            t = cubic_norm_scale(a, c)
            assert t > max(a, 0.0)
            assert abs(t * t * (t - a) - c) <= 1e-8 * (1.0 + c)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError):
            cubic_norm_scale(0.0, 0.0)
        with pytest.raises(ValueError):
            cubic_norm_scale(-1.0, 2.0)


class TestUpdateV:
    def test_nonpositive_target_gives_zero(self):
        # X <= 0 drives the whole target matrix negative; the positive part
        # is empty, so the minimizer collapses to V = 0
        p = OnmfProblem(X=-np.ones((3, 4)), r=2, lam=1.0)
        U = np.ones((3, 2))
        G = v_target(p, U, np.zeros((2, 4)), 1.0)
        assert np.all(G <= 0.0)
        assert np.all(block_update(p, 1, U, np.zeros((2, 4)), 1.0) == 0.0)

    def test_rescaled_positive_part_identity(self):
        # the closed form asserts rho * V == max(G, 0) where rho solves
        # rho^2 (rho - eps(U)) = 6 lam ||max(G,0)||^2; re-derive both sides
        rng = np.random.default_rng(5)
        p = OnmfProblem(X=rng.uniform(size=(6, 5)), r=3, lam=2.0)
        U = rng.uniform(size=(6, 3))
        V_bar = rng.uniform(size=(3, 5))
        V = block_update(p, 1, U, V_bar, 1.0)
        G = v_target(p, U, V_bar, 1.0)
        Gp = np.maximum(G, 0.0)
        rho = cubic_norm_scale(v_kernel_weight(U, p.lam),
                               6.0 * p.lam * float(np.sum(Gp * Gp)))
        assert np.linalg.norm(rho * V - Gp) <= 1e-8 * (1.0 + np.linalg.norm(Gp))

    def test_minimizes_block_majorizer_over_perturbations(self):
        rng = np.random.default_rng(6)
        p = OnmfProblem(X=rng.uniform(size=(5, 6)), r=2, lam=1.5)
        U = rng.uniform(size=(5, 2))
        V_bar = rng.uniform(size=(2, 6))
        L2 = 1.0
        kern = v_block_kernel(U, p.lam)
        grad = onmf_block_problems(p)[1].partial_grad([U, V_bar])

        def majorizer(V):
            return (L2 * bregman_divergence(kern, V, V_bar)
                    + float(np.vdot(grad, V - V_bar)))

        V_opt = block_update(p, 1, U, V_bar, L2)
        base = majorizer(V_opt)
        for _ in range(1000):
            pert = V_opt + rng.standard_normal(V_opt.shape) * 10.0 ** rng.uniform(-4, 0)
            pert = np.maximum(pert, 0.0)
            assert majorizer(pert) >= base - 1e-10 * (1.0 + abs(base))

    def test_fixed_point_at_stationarity(self):
        # run the update to convergence from a benign start; the update must
        # then reproduce its own input
        rng = np.random.default_rng(8)
        p = OnmfProblem(X=rng.uniform(size=(8, 7)), r=3, lam=5.0)
        U = rng.uniform(size=(8, 3))
        V = rng.uniform(size=(3, 7))
        for _ in range(5000):
            V = block_update(p, 1, U, V, 1.0)
        V_next = block_update(p, 1, U, V, 1.0)
        assert np.linalg.norm(V_next - V) <= 1e-8 * (1.0 + np.linalg.norm(V))


def spa_deflation_oracle(X, r):
    """SPA by explicit deflation: the residual matrix is kept and projected.

    Recomputes every residual norm from the deflated copy at each pick; the
    reference the recursion in ``spa_select_rows`` must match pick for pick.
    """
    X = np.asarray(X, dtype=np.float64)
    floor = (1e-12 * float(np.linalg.norm(X))) ** 2
    Y = X.copy()
    selected = []
    for _ in range(r):
        norms2 = np.einsum("ij,ij->i", Y, Y)
        norms2[selected] = -1.0
        pick = int(np.argmax(norms2))
        if norms2[pick] <= floor:
            raise ValueError(
                f"only {len(selected)} informative rows found, need {r}")
        d = Y[pick] / np.sqrt(norms2[pick])
        Y -= np.outer(Y @ d, d)
        selected.append(pick)
    return selected


@st.composite
def spa_cases(draw):
    """(X, r): uniform or clustered nonnegative data, either orientation."""
    m = draw(st.integers(2, 40))
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        r = draw(st.integers(1, min(m, n)))
        X = np.random.default_rng(seed).uniform(size=(m, n))
    else:
        # three columns per cluster, so every cluster is drawn nonempty
        r = draw(st.integers(1, max(1, min(m, n // 3))))
        noise = draw(st.sampled_from([0.0, 0.05]))
        X = datakit.gen_synthetic_onmf(m, n, r, noise=noise, seed=seed).X
    return (X.T if draw(st.booleans()) else X), r


class TestSpa:
    @settings(max_examples=300, deadline=None)
    @given(case=spa_cases())
    def test_recursion_matches_explicit_deflation(self, case):
        X, r = case
        try:
            want = spa_deflation_oracle(X, r)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                spa_select_rows(X, r)
        else:
            assert spa_select_rows(X, r) == want

    def test_nearly_dependent_row_above_the_floor_is_picked(self):
        # row 1 leaves a residual of 1e-9 after row 0, below the rounding of
        # the updated norms but far above the floor; picked rows must stay out
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.uniform(size=(3, 6))
            X[1] = X[0]
            X[1, 0] += 1e-9
            picked = spa_select_rows(X, 3)
            assert sorted(picked) == [0, 1, 2]
            assert picked == spa_deflation_oracle(X, 3)

    @pytest.mark.parametrize("m, n, rank, r", [(5, 4, 1, 2), (50, 40, 3, 4)])
    def test_rank_deficient_input_rejected(self, m, n, rank, r):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(m, rank)) @ rng.uniform(size=(rank, n))
        with pytest.raises(ValueError,
                           match=f"only {rank} informative rows found"):
            spa_select_rows(X, r)

    @pytest.mark.parametrize("scale, word", [(1e200, "overflows"),
                                             (1e-200, "underflows")])
    def test_extreme_scale_names_the_squared_norm(self, scale, word,
                                                  tmp_path, capsys):
        # SPA picks the same rows at any scale in exact arithmetic; here
        # ||X||_F^2 and the squared row norms leave float64
        X = scale * np.random.default_rng(0).uniform(size=(30, 40))
        path = tmp_path / "X.csv"
        datakit.save_dense_csv(path, X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pick in (spa_select_rows, spa_init):
                with pytest.raises(ValueError,
                                   match=rf"\|\|X\|\|_F\^2 {word}"):
                    pick(X, 3)
            assert cli.main(["run", "--problem", "onmf", "--data", str(path),
                             "--r", "3", "--out", str(tmp_path)]) == 1
        assert f"||X||_F^2 {word}" in capsys.readouterr().err

    def test_only_an_all_zero_X_is_identically_zero(self):
        with pytest.raises(ValueError, match="identically zero"):
            spa_select_rows(np.zeros((4, 3)), 2)
        for tiny in (1e-300, 1e-160):  # squares to zero, to a subnormal
            X = np.zeros((4, 3))
            X[2, 1] = tiny
            with pytest.raises(ValueError, match="underflows"):
                spa_select_rows(X, 1)

    def test_orthogonal_rows_picked_in_norm_order(self):
        X = np.array([[3.0, 0.0, 0.0, 0.0],
                      [0.0, 2.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0]])
        assert list(spa_select_rows(X, 3)) == [0, 1, 2]

    def test_selected_indices_distinct(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(12, 9))
        sel = spa_select_rows(X, 5)
        assert len(set(sel)) == 5

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            spa_select_rows(np.zeros((3, 4)), 2)

    def test_column_geometry_recovers_one_row_per_cluster(self):
        # each synthetic column is a scaled pure cluster direction, so the
        # projections applied to X^T must pick columns from r distinct
        # clusters, noise-free or lightly perturbed
        for seed in (1, 2, 3, 4, 5):
            for noise in (0.0, 0.05):
                syn = datakit.gen_synthetic_onmf(40, 30, 4, noise=noise,
                                                 seed=seed)
                picked = spa_select_rows(syn.X.T, 4)
                assert sorted(syn.labels[picked]) == [1, 2, 3, 4]

    def test_spa_init_validates_X_once(self, monkeypatch):
        syn = datakit.gen_synthetic_onmf(20, 15, 3, noise=0.05, seed=9)
        want_rows = spa_select_rows(syn.X, 3)
        calls = []
        real = onmf.as_matrix

        def counted(a, name="matrix"):
            calls.append(name)
            return real(a, name)

        monkeypatch.setattr(onmf, "as_matrix", counted)
        U0, V0 = spa_init(syn.X, 3)
        assert calls == ["X"]
        V = syn.X[want_rows] / np.linalg.norm(syn.X[want_rows], axis=1,
                                              keepdims=True)
        assert np.array_equal(V0, V)
        assert np.array_equal(U0, np.maximum(syn.X @ V.T, 0.0))
        X = syn.X.copy()
        X[4, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            spa_init(X, 3)

    def test_spa_init_shapes_and_feasibility(self):
        syn = datakit.gen_synthetic_onmf(20, 15, 3, noise=0.05, seed=9)
        U0, V0 = spa_init(syn.X, 3)
        assert U0.shape == (20, 3)
        assert V0.shape == (3, 15)
        assert np.all(U0 >= 0.0)
        assert_allclose(np.linalg.norm(V0, axis=1), np.ones(3), rtol=1e-12)


class TestPredictClusters:
    def test_identity_rows(self):
        assert_allclose(predict_clusters(np.eye(3)), [1, 2, 3])

    def test_tie_goes_to_first_row(self):
        V = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert_allclose(predict_clusters(V), [1, 1])

    def test_duplicate_argmax_allowed(self):
        V = np.array([[3.0, 3.0], [1.0, 0.5]])
        assert_allclose(predict_clusters(V), [1, 1])


class TestClusteringAccuracy:
    def test_identical_labelings(self):
        labels = np.array([1, 2, 3, 1, 2, 3])
        assert clustering_accuracy(labels, labels) == 1.0

    def test_label_permutation_is_perfect(self):
        labels_true = np.array([1, 1, 2, 2, 3, 3])
        labels_pred = np.array([3, 3, 1, 1, 2, 2])
        assert clustering_accuracy(labels_true, labels_pred) == 1.0

    def test_small_worked_example(self):
        # best alignment keeps clusters 2 and 3 and sacrifices one point of
        # cluster 1 and one point of 3: 4 of 6 correct
        labels_true = np.array([1, 1, 2, 2, 3, 3])
        labels_pred = np.array([1, 2, 2, 3, 3, 3])
        assert_allclose(clustering_accuracy(labels_true, labels_pred), 4 / 6)

    def test_agrees_with_exhaustive_search(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            r = int(rng.integers(2, 6))
            n = int(rng.integers(r, 30))
            labels_true = rng.integers(1, r + 1, size=n)
            labels_pred = rng.integers(1, r + 1, size=n)
            got = clustering_accuracy(labels_true, labels_pred)
            want = verify.brute_force_accuracy(labels_true, labels_pred)
            assert got == want

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            clustering_accuracy(np.array([1, 2]), np.array([1, 2, 3]))

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="label arrays are empty"):
            clustering_accuracy(np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64))

    @pytest.mark.parametrize("true, pred", [([0, 1, 2], [1, 1, 2]),
                                            ([1, 2, 2], [1, -1, 2])])
    def test_ids_below_one_rejected(self, true, pred):
        with pytest.raises(ValueError, match="cluster ids must be >= 1"):
            clustering_accuracy(true, pred)

    def test_integer_valued_floats_accepted(self):
        assert clustering_accuracy([1.0, 2.0, 1.0], np.array([2, 1, 2])) == 1.0

    @pytest.mark.parametrize("true, pred, name", [
        ([1.5, 2.7, 1.0], [1, 2, 1], "labels_true"),
        ([1, 2, 1], [1.0, 2.0, np.nan], "labels_pred"),
        ([1, 2, 1], [1.0, np.inf, 1.0], "labels_pred"),
        (["1", "2"], [1, 2], "labels_true")])
    def test_non_integer_labels_rejected_by_name(self, true, pred, name):
        # these used to be truncated to int64: [1.5, 2.7, 1.0] scored 1.0
        with pytest.raises(ValueError, match=name):
            clustering_accuracy(true, pred)

    def test_far_apart_ids_need_no_dense_matrix(self):
        # the r x r matrix over ids 1..10**6 needed 7.28 TiB
        assert clustering_accuracy([1, 10**6], [1, 2]) == 1.0
        assert clustering_accuracy([1, 10**6, 10**6], [2, 2, 1]) == 2 / 3

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), r=st.integers(1, 7))
    def test_matches_brute_force(self, data, r):
        n = data.draw(st.integers(1, 40))
        ids = st.lists(st.integers(1, r), min_size=n, max_size=n)
        t, q = data.draw(ids), data.draw(ids)
        assert clustering_accuracy(t, q) == verify.brute_force_accuracy(t, q)

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 40), high=st.sampled_from([0, 1, 3, 10**6]),
           seed=st.integers(0, 2**32 - 1))
    @example(k=1, high=0, seed=0)
    @example(k=1, high=10**6, seed=1)
    @example(k=40, high=0, seed=0)
    @example(k=40, high=1, seed=2)
    def test_assignment_matches_scipy(self, k, high, seed):
        from scipy.optimize import linear_sum_assignment

        # small ``high`` makes many ties; 0 gives the all-zero matrix
        W = np.random.default_rng(seed).integers(0, high + 1, size=(k, k))
        rows, cols = linear_sum_assignment(W, maximize=True)
        assert onmf._max_assignment(W) == int(W[rows, cols].sum())

    def test_planted_suite_cases_defeat_greedy_matching(self, monkeypatch):
        # the planted cases lie beyond brute force (r >= 10); a matching
        # that takes row maxima, or the largest entry first, misses them
        assert verify.suite_accuracy(n_cases=0) == []

        def row_maxima(W):
            return int(W.max(axis=1).sum())

        def largest_first(W):
            W, total = W.astype(float), 0
            for _ in range(len(W)):
                i, j = np.unravel_index(np.argmax(W), W.shape)
                total += int(W[i, j])
                W[i, :] = W[:, j] = -1.0
            return total

        for greedy in (row_maxima, largest_first):
            monkeypatch.setattr(onmf, "_max_assignment", greedy)
            assert len(verify.suite_accuracy(n_cases=0)) == 20

    def test_exhaustive_alignment_definition(self):
        # double-check the Hungarian score against raw permutation search on
        # one fixed instance (r small enough to enumerate)
        labels_true = np.array([1, 2, 1, 3, 3, 2, 1])
        labels_pred = np.array([2, 2, 3, 1, 1, 3, 2])
        best = 0
        for perm in itertools.permutations(range(1, 4)):
            mapped = np.array([perm[p - 1] for p in labels_pred])
            best = max(best, int(np.sum(mapped == labels_true)))
        assert_allclose(clustering_accuracy(labels_true, labels_pred),
                        best / 7)


class TestProblemAssembly:
    @pytest.mark.parametrize("field, value", [
        ("r", 2.5), ("r", True), ("r", 0), ("r", 5), ("lam", "1"),
        ("lam", None), ("lam", -1.0), ("lam", np.nan), ("lam", True)])
    def test_bad_field_rejected_by_name(self, field, value):
        # r=2.5 and r=True used to be accepted, and a string or None lam
        # raised a bare TypeError from the comparison
        kwargs = {"X": np.ones((4, 4)), "r": 2, "lam": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must"):
            OnmfProblem(**kwargs)

    def test_numpy_integer_rank_accepted(self):
        assert OnmfProblem(X=np.ones((4, 4)), r=np.int64(2), lam=1).r == 2

    def test_spa_rejects_non_integer_rank(self):
        with pytest.raises(ValueError, match="r must"):
            spa_select_rows(np.eye(4), 2.5)

    def test_default_lambda_positive_and_scales_with_X(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(size=(10, 8))
        U0, V0 = spa_init(X, 3)
        lam = default_lambda(X, U0, V0)
        assert lam > 0
        lam_big = default_lambda(10.0 * X, 10.0 * U0, V0)
        assert lam_big > lam

    def test_block_problems_run_one_sweep(self):
        syn = datakit.gen_synthetic_onmf(12, 10, 3, noise=0.05, seed=4)
        p = OnmfProblem(X=syn.X, r=3, lam=100.0)
        blocks = onmf_block_problems(p)
        assert len(blocks) == 2
        U0, V0 = spa_init(syn.X, 3)
        # one hand-driven sweep: both updates must keep factors feasible
        # and not increase the objective when applied without extrapolation
        f0 = onmf_objective(p, U0, V0)
        L1 = onmf_constants_U(V0).L
        U1 = block_update(p, 0, U0, V0, L1)
        V1 = block_update(p, 1, U1, V0, 1.0)
        assert blocks[0].feasible(U1)
        assert blocks[1].feasible(V1)
        assert onmf_objective(p, U1, V1) <= f0 + 1e-8 * (1.0 + abs(f0))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_backtracked_blocks_pass_descent_verifier(self, seed):
        # both blocks find (L, l) by line search instead of constants_for;
        # the descent verifier certifies every one of the 300 sweeps
        syn = datakit.gen_synthetic_onmf(60, 60, 3, noise=0.05, seed=seed)
        p = OnmfProblem(X=syn.X, r=3, lam=100.0)
        blocks = [dataclasses.replace(b, constants_for=None)
                  for b in onmf_block_problems(p)]
        cfg = SolverConfig(max_iters=300, tol_rel_change=0.0,
                           verify_descent=True)
        res = run(blocks, list(spa_init(syn.X, 3)), cfg,
                  lambda blocks: onmf_objective(p, blocks[0], blocks[1]))
        objs = res.trace.objectives()
        assert len(objs) == 300
        assert objs[-1] < objs[0]
        assert all(r.descent_slack is not None for r in res.trace.records)

    def test_verified_fixed_run_golden(self):
        # exact values of the fixed-constant path with its extrapolation
        # screen, pinned so that a change to its floating-point order or
        # its beta decisions shows
        syn = datakit.gen_synthetic_onmf(30, 30, 3, noise=0.05, seed=2)
        p = OnmfProblem(X=syn.X, r=3, lam=10.0)
        cfg = SolverConfig(max_iters=100, tol_rel_change=0.0,
                           verify_descent=True)
        res = run(onmf_block_problems(p), list(spa_init(syn.X, 3)), cfg,
                  lambda blocks: onmf_objective(p, blocks[0], blocks[1]))
        assert len(res.trace.records) == 100
        assert res.trace.records[-1].objective == 0.008337603118399131
        assert sum(s for r in res.trace.records
                   for s in r.per_block_shrinks) == 282

    def test_oracle_suite_checks_the_block_problems(self, monkeypatch):
        # a step taken with 1.01 L in the solver's own U and V updates must
        # show up as oracle mismatches on every instance
        real = onmf.onmf_block_problems

        def with_larger_L(solve):
            return lambda blocks, x_bar, g, L, kernel: solve(
                blocks, x_bar, g, 1.01 * L, kernel)

        def perturbed(p):
            return [dataclasses.replace(b, solve_subproblem=with_larger_L(
                b.solve_subproblem)) for b in real(p)]

        monkeypatch.setattr(onmf, "onmf_block_problems", perturbed)
        bad = verify.suite_oracles(n_instances=2, seed=0)
        assert sum(m.startswith("U block mismatch") for m in bad) == 2
        assert sum(m.startswith("V block mismatch") for m in bad) == 2
        assert len(bad) == 4

    def test_relsmooth_suite_checks_the_declared_constants(self, monkeypatch):
        # the V block declares (L, l) = (1, 1); a declared L = 0.25 must be
        # flagged. L = 0.5 would pass: at the suite's sample scales the
        # worst gap / D on the V block is about 0.35
        real = onmf.onmf_block_problems
        understated = RelSmoothConstants(L=0.25, l=1.0)

        def perturbed(p):
            u_block, v_block = real(p)
            return [u_block, dataclasses.replace(
                v_block, constants_for=lambda blocks: understated)]

        assert verify.suite_relsmooth(n_samples=50) == []
        monkeypatch.setattr(onmf, "onmf_block_problems", perturbed)
        bad = verify.suite_relsmooth(n_samples=50)
        assert len(bad) == 1
        assert bad[0].startswith("V block relative smoothness violated")
