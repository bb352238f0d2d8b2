"""Acceptance gate: the nine correctness/performance properties the package
commits to, each one as a single test that prints one PASS/FAIL line with the
measured quantities.

All expected values are either analytic, cross-checked against an independent
numerical method (bisection, projected gradient, brute-force search), or
stated as inequalities with explicit slack. Runtime budgets are asserted
where the property includes one; the measured margins are wide (the heaviest
case below runs in well under half its budget on a laptop-class machine).
"""

import dataclasses
import time

import numpy as np

from bmme import bregman, cli, datakit, matcomp, onmf, verify
from bmme.solver import SolverConfig, run


def _emit(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. relative-smoothness certificates for all three shipped blocks


def test_relative_smoothness_certified():
    t0 = time.perf_counter()
    bad = verify.suite_relsmooth(n_samples=1000, seed=0, tol=1e-9)
    dt = time.perf_counter() - t0
    ok = not bad and dt < 30.0
    _emit("relative smoothness (3 blocks x 1000 samples, tol 1e-9)",
          ok, f"{len(bad)} violations, {dt:.2f}s")
    assert bad == []
    assert dt < 30.0


# ---------------------------------------------------------------------------
# 2. closed-form block updates match independent numerical oracles


def test_block_updates_match_numerical_oracles():
    t0 = time.perf_counter()
    bad = verify.suite_oracles(n_instances=50, seed=0, tol=1e-6)
    dt = time.perf_counter() - t0
    ok = not bad and dt < 120.0
    _emit("subproblem oracles (50 instances each, tol 1e-6 Frobenius)",
          ok, f"{len(bad)} mismatches, {dt:.2f}s")
    assert bad == []
    assert dt < 120.0


# ---------------------------------------------------------------------------
# 3. scalar cubic identities at scale, plus the analytic corner cases


def test_cubic_root_identities():
    t0 = time.perf_counter()
    bad = verify.suite_cubic(n_draws=10000, seed=0)
    dt = time.perf_counter() - t0
    analytic = (bregman.cubic_norm_scale(2.0, 0.0) == 2.0
                and bregman.cubic_norm_scale(0.0, 8.0) == 2.0)
    ok = not bad and analytic and dt < 5.0
    _emit("cubic identities (10^4 draws + analytic cases)",
          ok, f"{len(bad)} violations, analytic={analytic}, {dt:.2f}s")
    assert bad == []
    assert analytic
    assert dt < 5.0


# ---------------------------------------------------------------------------
# 4. certified per-iteration descent on the clustering problem


def _onmf_instance(seed, m=100, n=100, r=5, lam=1000.0):
    syn = datakit.gen_synthetic_onmf(m, n, r, noise=0.05, seed=seed)
    p = onmf.OnmfProblem(X=syn.X, r=r, lam=lam)
    U0, V0 = onmf.spa_init(syn.X, r)
    return syn, p, [U0, V0]


def _onmf_run(seed, algorithm, iters, verify_descent=False):
    _, p, init = _onmf_instance(seed)
    cfg = SolverConfig(delta=0.99, eta=0.9, max_iters=iters,
                       tol_rel_change=0.0, verify_descent=verify_descent)
    return run(onmf.onmf_block_problems(p), init, cfg,
               lambda blocks: onmf.onmf_objective(p, blocks[0], blocks[1]),
               algorithm=algorithm)


def test_descent_inequality_over_500_iterations():
    t0 = time.perf_counter()
    for seed in range(1, 6):
        # verify_descent raises on the first violated iteration
        res = _onmf_run(seed, "bmme", 500, verify_descent=True)
        assert len(res.trace.records) == 500
        res_mono = _onmf_run(seed, "bmm", 500)
        objs = [r.objective for r in res_mono.trace.records]
        drops = np.diff(objs) <= 1e-8 * (1.0 + np.abs(objs[:-1]))
        assert np.all(drops), f"seed {seed}: objective rose"
    dt = time.perf_counter() - t0
    ok = dt < 120.0
    _emit("certified descent, seeds 1-5, 500 iterations each",
          ok, f"all inequalities held, {dt:.1f}s")
    assert dt < 120.0


# ---------------------------------------------------------------------------
# 5. extrapolation reaches the plain method's final objective early (trend)


def test_extrapolation_reaches_plain_objective_earlier():
    wins = 0
    iters_to_target = []
    for seed in range(1, 21):
        plain = _onmf_run(seed, "bmm", 500)
        target = plain.trace.records[-1].objective
        accel = _onmf_run(seed, "bmme", 500)
        objs = np.array([r.objective for r in accel.trace.records])
        hit = np.flatnonzero(objs <= target)
        k = int(hit[0]) + 1 if hit.size else 501
        iters_to_target.append(k)
        if k < 500:
            wins += 1
    dist = np.array(iters_to_target)
    ok = wins >= 15
    _emit("extrapolation benefit (20 seeds)",
          ok, f"{wins}/20 strictly earlier; iterations to target: "
              f"min {dist.min()}, median {int(np.median(dist))}, "
              f"max {dist.max()}; full distribution {sorted(dist.tolist())}")
    # trend property, asserted with the agreed threshold
    assert wins >= 15


# ---------------------------------------------------------------------------
# 6. assignment-based accuracy equals brute force; exact recovery


def test_clustering_accuracy_exact():
    t0 = time.perf_counter()
    bad = verify.suite_accuracy(n_cases=100, seed=0)
    dt = time.perf_counter() - t0
    ok = not bad and dt < 10.0
    _emit("clustering accuracy (100 brute-force comparisons + recovery)",
          ok, f"{len(bad)} mismatches, {dt:.2f}s")
    assert bad == []
    assert dt < 10.0


# ---------------------------------------------------------------------------
# 7. line-searched completion run: both certificates, test error improves


def test_backtracked_completion_certificates_and_rmse():
    t0 = time.perf_counter()
    obs = datakit.gen_synthetic_ratings(200, 200, 3, 0.3, seed=1)
    train, test = datakit.train_test_split(obs, 0.7, seed=1)
    p = matcomp.McProblem(observed=train, r=3, lam=0.1, theta=5.0)
    init = matcomp.mc_random_init(p, seed=1)
    z0 = matcomp.pack_state(init)

    # one packed block whose (L, l) the sweep finds by line search
    block = dataclasses.replace(matcomp.mc_block_problem(p),
                                constants_for=None)
    cfg = SolverConfig(delta=0.99, max_iters=300, tol_rel_change=0.0,
                       keep_certificates=True)
    res = run([block], [z0], cfg, matcomp.mc_objective_packed(p))
    assert len(res.trace.records) == 300

    # replay both line-search inequalities from the stored certificates
    kern, worst_up, worst_low = matcomp.mc_kernel(p), -np.inf, -np.inf

    def f_eval(Z):
        return block.smooth_eval([Z])

    for cert in res.state.certificates:
        g_bar = block.partial_grad([cert.x_bar])
        f_bar = f_eval(cert.x_bar)

        def dv(x):
            return (kern.eval(x) - kern.eval(cert.x_bar)
                    - float(np.vdot(kern.grad(cert.x_bar), x - cert.x_bar)))

        slack = 1e-8 * (1.0 + abs(f_eval(cert.x_new)))
        up = (f_eval(cert.x_new) - f_bar
              - float(np.vdot(g_bar, cert.x_new - cert.x_bar))
              - cert.L * dv(cert.x_new))
        low = (f_bar + float(np.vdot(g_bar, cert.x_curr - cert.x_bar))
               - cert.l * dv(cert.x_curr) - f_eval(cert.x_curr))
        worst_up = max(worst_up, up)
        worst_low = max(worst_low, low)
        assert up <= slack
        assert low <= slack

    final = matcomp.unpack_state(res.final[0], 200)
    rmse_init = matcomp.rmse(test, init)
    rmse_final = matcomp.rmse(test, final)
    dt = time.perf_counter() - t0
    ok = rmse_final < rmse_init and dt < 120.0
    _emit("backtracked completion (300 steps, both certificates replayed)",
          ok, f"worst upper slack {worst_up:.2e}, worst lower {worst_low:.2e}, "
              f"test RMSE {rmse_init:.4f} -> {rmse_final:.4f}, {dt:.1f}s")
    assert rmse_final < rmse_init
    assert dt < 120.0


# ---------------------------------------------------------------------------
# 8. per-iteration cost scales like the data size


def test_per_iteration_cost_scaling():
    m, r, iters = 200, 5, 50
    per_iter = []
    _onmf_scaling_run(m, 200, r, iters)  # warm caches before timing
    for n in (200, 400, 800, 1600):
        per_iter.append(_onmf_scaling_run(m, n, r, iters))
    ratios = [b / a for a, b in zip(per_iter, per_iter[1:])]
    geomean = float(np.prod(ratios)) ** (1.0 / len(ratios))
    ok = geomean <= 2.3
    _emit("per-iteration scaling (n doubling at m=200, r=5)",
          ok, "ms/iter " + "/".join(f"{1e3 * t:.3f}" for t in per_iter)
              + f", ratio geomean {geomean:.3f} <= 2.3")
    assert geomean <= 2.3


def _onmf_scaling_run(m, n, r, iters):
    syn = datakit.gen_synthetic_onmf(m, n, r, noise=0.05, seed=0)
    p = onmf.OnmfProblem(X=syn.X, r=r, lam=1000.0)
    U0, V0 = onmf.spa_init(syn.X, r)
    cfg = SolverConfig(max_iters=iters, tol_rel_change=0.0)
    res = run(onmf.onmf_block_problems(p), [U0, V0], cfg,
              lambda blocks: onmf.onmf_objective(p, blocks[0], blocks[1]),
              algorithm="bmm")
    # block-update time only; objective evaluation is excluded by the trace
    return res.trace.records[-1].elapsed_seconds / len(res.trace.records)


# ---------------------------------------------------------------------------
# 9. bit-level reproducibility of the command-line traces


def test_trace_objective_columns_reproducible(tmp_path):
    columns = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli.main(["run", "--problem", "onmf", "--m", "100", "--n", "100",
                       "--r", "5", "--lambda", "1000", "--seed", "1",
                       "--max-iters", "40", "--algorithm", "bmme",
                       "--out", str(out)])
        assert rc == 0
        lines = (out / "trace.csv").read_bytes().splitlines()[1:]
        columns.append([ln.split(b",")[2] for ln in lines])
    ok = columns[0] == columns[1] and len(columns[0]) == 40
    _emit("trace reproducibility (same seed, same config)",
          ok, f"{len(columns[0])} objective values byte-identical")
    assert columns[0] == columns[1]
