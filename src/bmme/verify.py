"""Independent numerical oracles and named verification suites.

The oracles deliberately avoid the closed-form production code paths: block
updates are re-solved by an iterative first-order method run to tight
stationarity, cubic roots are re-derived by bisection, and assignment-based
accuracy is re-derived by brute-force permutation search and checked against
optima that dual certificates fix by construction. The closed forms
they are checked against are the ones the solver runs: each problem's
``BlockProblem`` list, driven by :func:`_block_update` the way a fixed-constant
solver step drives it. Each ``suite_*`` function returns a list of violation
strings (empty means the suite passed); the command-line ``verify``
subcommand exposes them by name.
"""

import itertools
from fractions import Fraction

import numpy as np

from . import bregman, datakit, matcomp, onmf
from .bregman import check_gradient, check_relative_smoothness, check_surrogate
from .solver import DescentViolation, SolverConfig, _at, run

__all__ = [
    "bisect_cubic_root",
    "prox_gradient",
    "brute_force_accuracy",
    "suite_relsmooth",
    "suite_descent",
    "suite_oracles",
    "suite_cubic",
    "suite_accuracy",
    "SUITES",
]


def bisect_cubic_root(a, c):
    """Root of t^2 (t - a) = c by float bisection with exact sign tests.

    The root lies in [max(a, cbrt c), a + cbrt c], inside (0, 2 (a + cbrt c)).
    Each sign is decided in rational arithmetic, so at any scale, and with
    a or c zero, the result is the least float at or above the root.
    """
    A, C = Fraction(a), Fraction(c)
    lo, hi = 0.0, 2.0 * (a + float(np.cbrt(c)))
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        T = Fraction(mid)
        if T * T * (T - A) - C < 0:
            lo = mid
        else:
            hi = mid


def _polish_fixed_step(grad, step_to, map_to, x, t, tol, max_iters):
    """Constant-step first-order polish with a map-norm-guarded step.

    No objective comparisons (their cancellation noise near the optimum is
    what blocks tight stationarity); instead the iteration is treated as a
    contraction and the step halves whenever the unit-step map norm stops
    shrinking (4x the best seen, or non-finite).
    """
    best = x.copy()
    best_map = np.inf
    for _ in range(max_iters):
        g = grad(x)
        mapn = float(np.linalg.norm(map_to(x, g) - x))
        if mapn <= tol:
            return x
        if mapn < best_map:
            best_map = mapn
            best = x.copy()
        elif not np.isfinite(mapn) or mapn > 4.0 * best_map:
            x = best.copy()
            t *= 0.5
            if t < 1e-18:
                return best
            continue
        x = step_to(x, g, t)
    return best


def prox_gradient(obj, grad, prox, x0, tol=1e-10, max_iters=200_000, t0=1.0):
    """Proximal gradient for obj(x) + h(x), to a unit-step map norm <= tol.

    ``prox(z, t)`` is the proximal map of ``t * h`` (a projection when h is
    an indicator). A backtracked phase takes the iterate close to the
    solution; a constant-step contraction phase (see
    :func:`_polish_fixed_step`) then drives the map norm the rest of the way —
    sufficient-decrease tests are useless at that depth because the objective
    differences drown in rounding. Stationarity is always measured with a
    unit reference step (the map norm at a grown line-search step understates
    it).
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    fx = float(obj(x))
    t = t0
    coarse = max(tol, 1e-7)
    for _ in range(max_iters // 2):
        g = grad(x)
        if float(np.linalg.norm(prox(x - g, 1.0) - x)) <= coarse:
            break
        while True:
            xn = prox(x - t * g, t)
            diff = xn - x
            model = fx + float(np.vdot(g, diff)) + float(np.vdot(diff, diff)) / (2 * t)
            fn = float(obj(xn))
            if fn <= model + 1e-12 * (1.0 + abs(model)) or t < 1e-18:
                break
            t *= 0.5
        x, fx = xn, fn
        t *= 1.2
    return _polish_fixed_step(
        grad,
        lambda y, g, s: prox(y - s * g, s),
        lambda y, g: prox(y - g, 1.0),
        x, t0, tol, max_iters // 2)


def brute_force_accuracy(labels_true, labels_pred):
    """Exact matching maximum over all permutations of the cluster ids."""
    t = np.asarray(labels_true, dtype=np.int64)
    q = np.asarray(labels_pred, dtype=np.int64)
    r = int(max(t.max(), q.max()))
    best = 0
    for perm in itertools.permutations(range(1, r + 1)):
        mapped = np.array(perm)[t - 1]
        best = max(best, int(np.sum(mapped == q)))
    return best / t.size


# ---------------------------------------------------------------------------
# oracle solves of the three block majorizers
# ---------------------------------------------------------------------------

def oracle_u_block(p, U_bar, V, L1, tol=1e-10):
    """U block majorizer minimized by projected gradient (step 0.7 / L1)."""
    g = U_bar @ (V @ V.T) - p.X @ V.T

    def obj(U):
        d = U - U_bar
        return float(np.vdot(g, U)) + 0.5 * L1 * float(np.vdot(d, d))

    def grad(U):
        return g + L1 * (U - U_bar)

    return prox_gradient(obj, grad, lambda z, t: np.maximum(z, 0.0),
                         np.maximum(U_bar, 0.0), tol=tol, t0=0.7 / L1)


def oracle_v_block(p, U, V_bar, L2, tol=1e-10):
    """V block majorizer minimized by backtracked projected gradient.

    The kernel is the one the V block's ``kernel_for`` builds."""
    kern = onmf.onmf_block_problems(p)[1].kernel_for([U, V_bar])
    g = U.T @ U @ V_bar - U.T @ p.X + 2 * p.lam * ((V_bar @ V_bar.T) @ V_bar - V_bar)
    phi_bar = kern.grad(V_bar)

    def obj(V):
        return (float(np.vdot(g - L2 * phi_bar, V)) + L2 * float(kern.eval(V)))

    def grad(V):
        return g - L2 * phi_bar + L2 * kern.grad(V)

    return prox_gradient(obj, grad, lambda z, t: np.maximum(z, 0.0),
                         np.maximum(V_bar, 0.0), tol=tol)


def oracle_completion_block(p, state, x_bar, L, tol=1e-10):
    """Packed matrix-completion majorizer re-solved by proximal gradient."""
    kern = matcomp.mc_kernel(p)
    Zb = matcomp.pack_state(x_bar)
    g = matcomp._smooth_grad_packed(p, Zb)
    lin = g - L * kern.grad(Zb)
    W = p.lam * p.theta * np.exp(-p.theta * np.abs(matcomp.pack_state(state)))

    def sobj(Z):
        return float(np.vdot(lin, Z)) + L * float(kern.eval(Z))

    def sgrad(Z):
        return lin + L * kern.grad(Z)

    # the shrink is written here on purpose: this oracle must not share the
    # shrinkage code it certifies
    def shrink(Z, t):
        return np.sign(Z) * np.maximum(np.abs(Z) - t * W, 0.0)

    Z = prox_gradient(sobj, sgrad, shrink, np.zeros_like(Zb), tol=tol)
    return matcomp.unpack_state(Z, p.observed.rows)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _block_update(block, blocks, i, x_bar, L):
    """Block i's update at ``x_bar`` with constant L, as a solver step makes it.

    The calls and their order are those ``solver._block_update`` makes for a
    fixed-constant block: the kernel at ``blocks``, the gradient at x_bar, then
    the block's ``solve_subproblem``.
    """
    kernel = block.kernel_for(blocks)
    grad = block.partial_grad(_at(blocks, i, x_bar))
    return block.solve_subproblem(blocks, x_bar, grad, L, kernel)


def suite_relsmooth(n_samples=1000, seed=0, tol=1e-9):
    """Certify the blocks the solver runs: gradients and declared (L, l).

    For each block of ``onmf_block_problems`` and ``mc_block_problem``, on
    sampled points, ``partial_grad`` is checked against central differences
    of ``smooth_eval``, and ``constants_for`` against ``kernel_for`` on
    sampled pairs. The other blocks are sampled as well, since the kernel and
    the constants may depend on them.
    """
    rng = np.random.default_rng(seed)
    m, n, r = 8, 6, 3
    obs = datakit.gen_synthetic_ratings(6, 5, 2, 0.6, seed=seed)
    mc_block = matcomp.mc_block_problem(
        matcomp.McProblem(observed=obs, r=2, lam=0.1, theta=5.0))
    mc_shape = (obs.rows + obs.cols, 2)

    def onmf_draw(i):
        X = 10.0 * rng.uniform(size=(m, n))
        blocks = [10.0 * rng.uniform(size=(m, r)),
                  10.0 * rng.uniform(size=(r, n))]
        block = onmf.onmf_block_problems(onmf.OnmfProblem(X=X, r=r, lam=1.0))[i]
        shape = blocks[i].shape
        return block, blocks, (10.0 * rng.uniform(size=shape),
                               10.0 * rng.uniform(size=shape))

    def mc_draw(i):
        return mc_block, [None], (rng.standard_normal(mc_shape),
                                  rng.standard_normal(mc_shape))

    bad = []
    for name, i, draw in (("U", 0, onmf_draw), ("V", 1, onmf_draw),
                          ("completion", 0, mc_draw)):
        worst_rel = worst_grad = -np.inf
        for _ in range(n_samples):
            block, blocks, (x, y) = draw(i)
            f = lambda z: block.smooth_eval(_at(blocks, i, z))
            g = lambda z: block.partial_grad(_at(blocks, i, z))
            at_y = _at(blocks, i, y)
            worst_rel = max(worst_rel, check_relative_smoothness(
                f, g, block.kernel_for(at_y), block.constants_for(at_y),
                [(x, y)]))
            worst_grad = max(worst_grad, check_gradient(f, g, y, rng=rng))
        if worst_rel > tol:
            bad.append(f"{name} block relative smoothness violated by "
                       f"{worst_rel:.3e}")
        if worst_grad > 1e-5:
            bad.append(f"{name} block gradient mismatch {worst_grad:.3e}")
    return bad


def suite_descent(seed=1, iters=100, size=(60, 60, 3), lam=100.0):
    """Run extrapolated sweeps with the certified-descent assertion armed."""
    m, n, r = size
    data = datakit.gen_synthetic_onmf(m, n, r, noise=0.05, seed=seed)
    p = onmf.OnmfProblem(X=data.X, r=r, lam=lam)
    problems = onmf.onmf_block_problems(p)
    U0, V0 = onmf.spa_init(data.X, r)
    config = SolverConfig(max_iters=iters, verify_descent=True,
                          tol_rel_change=0.0)
    objective = lambda blocks: onmf.onmf_objective(p, blocks[0], blocks[1])
    try:
        run(problems, [U0, V0], config, objective)
    except DescentViolation as exc:
        return [f"descent inequality failed: {exc}"]
    return []


def suite_oracles(n_instances=10, seed=0, tol=1e-6):
    """Closed-form block updates against iterative re-solves, plus surrogates."""
    rng = np.random.default_rng(seed)
    bad = []
    for k in range(n_instances):
        X = 10.0 * rng.uniform(size=(5, 4))
        lam = float(rng.uniform(0.5, 2.0))
        p = onmf.OnmfProblem(X=X, r=2, lam=lam)

        V = rng.uniform(size=(2, 4)) + 0.05
        U_bar = 2.0 * rng.uniform(size=(5, 2))
        u_block, v_block = onmf.onmf_block_problems(p)
        L1 = onmf.onmf_constants_U(p, V).L
        closed = _block_update(u_block, [U_bar, V], 0, U_bar, L1)
        ref = oracle_u_block(p, U_bar, V, L1)
        err = float(np.linalg.norm(closed - ref))
        if err > tol:
            bad.append(f"U block mismatch {err:.3e} on instance {k}")

        U = 2.0 * rng.uniform(size=(5, 2))
        V_bar = rng.uniform(size=(2, 4))
        closed = _block_update(v_block, [U, V_bar], 1, V_bar, 1.0)
        ref = oracle_v_block(p, U, V_bar, 1.0)
        err = float(np.linalg.norm(closed - ref))
        if err > tol:
            bad.append(f"V block mismatch {err:.3e} on instance {k}")

        obs = datakit.gen_synthetic_ratings(5, 4, 2, 0.6, seed=seed + 100 + k)
        mp = matcomp.McProblem(observed=obs, r=2, lam=0.1, theta=5.0)
        anchor = matcomp.McState(U=rng.standard_normal((5, 2)),
                                 V=rng.standard_normal((2, 4)))
        x_bar = matcomp.McState(U=rng.standard_normal((5, 2)),
                                V=rng.standard_normal((2, 4)))
        L = float(rng.uniform(0.5, 2.0))
        closed = matcomp.unpack_state(_block_update(
            matcomp.mc_block_problem(mp), [matcomp.pack_state(anchor)], 0,
            matcomp.pack_state(x_bar), L), obs.rows)
        ref = oracle_completion_block(mp, anchor, x_bar, L)
        err = float(np.hypot(np.linalg.norm(closed.U - ref.U),
                             np.linalg.norm(closed.V - ref.V)))
        if err > tol:
            bad.append(f"completion block mismatch {err:.3e} on instance {k}")

        # surrogate majorization of the concave penalty
        g_eval = lambda Z: matcomp._penalty(mp, Z)
        anchors = [rng.standard_normal((9, 2)) for _ in range(3)]
        cands = [rng.standard_normal((9, 2)) for _ in range(4)]
        bad.extend(f"instance {k}: {msg}" for msg in check_surrogate(
            matcomp.mc_surrogate(mp), g_eval, anchors, cands))
    return bad


def suite_cubic(n_draws=10_000, seed=0, n_bisect=200):
    """Residual identity of the one cubic solver, plus bisection checks.

    Each bisection check compares ``bregman.cubic_norm_scale`` with
    :func:`bisect_cubic_root`: ``n_bisect`` draws within 1e-9 (1 + root)
    for a, c from 1e-2 to 1e3, and ``n_bisect`` more within 2 ulps for a, c
    from 1e-300 to 1e300, zeros included.
    """
    rng = np.random.default_rng(seed)
    bad = []
    # Residual draws keep a <= 1e2: evaluating rho^2 (rho - a) - c in float64
    # has an eps * rho^3 rounding floor, which swamps the 1e-8 (1 + c) bound
    # for huge a with tiny c no matter how accurate the root is. The wide-a
    # regime is covered below by the bisection cross-check, which compares
    # roots (well-conditioned) instead of residuals.
    worst_rho = 0.0
    for _ in range(n_draws):
        a = 10.0 ** rng.uniform(-3, 2)
        c = 10.0 ** rng.uniform(-3, 3)
        rho = bregman.cubic_norm_scale(a, c)
        worst_rho = max(worst_rho, abs(rho * rho * (rho - a) - c) / (1.0 + c))
    if worst_rho > 1e-8:
        bad.append(f"norm-scale cubic residual {worst_rho:.3e} exceeds 1e-8")

    for _ in range(n_bisect):
        a = 10.0 ** rng.uniform(-2, 3)
        c = 10.0 ** rng.uniform(-2, 3)
        ref = bisect_cubic_root(a, c)
        if abs(bregman.cubic_norm_scale(a, c) - ref) > 1e-9 * (1.0 + ref):
            bad.append(f"norm-scale cubic disagrees with bisection at ({a}, {c})")

    def wide():  # log-uniform from 1e-300 to 1e300, or exactly zero
        return 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-300, 300)

    for _ in range(n_bisect):
        a, c = wide(), wide()
        if a or c:
            ref = bisect_cubic_root(a, c)
            ulps = abs(bregman.cubic_norm_scale(a, c) - ref) / np.spacing(ref)
            if ulps > 2.0:
                bad.append(f"norm-scale cubic off by {ulps:.0f} ulps at "
                           f"({a!r}, {c!r})")
    return bad


def suite_accuracy(n_cases=100, seed=0):
    """Accuracy against brute force (r = 2..6), planted optima, recovery.

    Each of 20 planted cases (r = 10..40) has integer duals u, v >= 1 and
    counts W <= u_a + v_b, equal on a random permutation, which therefore
    scores the optimum sum(u) + sum(v). Row maxima collide, so paths augment.
    """
    rng = np.random.default_rng(seed)
    bad = []
    for k in range(n_cases):
        r = int(rng.integers(2, 7))
        n = int(rng.integers(r, 61))
        t = rng.integers(1, r + 1, size=n)
        q = rng.integers(1, r + 1, size=n)
        fast = onmf.clustering_accuracy(t, q)
        slow = brute_force_accuracy(t, q)
        if fast != slow:
            bad.append(f"accuracy mismatch on case {k}: {fast} vs {slow}")
    for k in range(20):
        r = int(rng.integers(10, 41))
        u, v = rng.integers(1, 6, size=(2, r))
        W, pi = rng.integers(0, u[:, None] + v + 1), rng.permutation(r)
        W[np.arange(r), pi] = u + v[pi]
        t, q = np.repeat(np.indices((r, r)).reshape(2, -1) + 1, W.ravel(), 1)
        fast, want = onmf.clustering_accuracy(t, q), (u.sum() + v.sum()) / t.size
        if fast != want:
            bad.append(f"planted case {k} (r={r}): {fast} vs optimum {want}")
    data = datakit.gen_synthetic_onmf(40, 120, 4, noise=0.0, seed=seed)
    acc = onmf.clustering_accuracy(data.labels, onmf.predict_clusters(data.V))
    if acc != 1.0:
        bad.append(f"noise-free ground truth not recovered: accuracy {acc}")
    return bad


SUITES = {
    "relsmooth": suite_relsmooth,
    "descent": suite_descent,
    "oracles": suite_oracles,
    "cubic": suite_cubic,
    "accuracy": suite_accuracy,
}
