"""Command-line experiment harness.

Three subcommands:

``run``
    one (problem, algorithm, seed) job; writes ``trace.csv`` and
    ``report.json`` under ``--out``.
``compare``
    a grid of algorithms x seeds on matched data; writes per-run traces,
    ``summary.csv`` and a log-log ``plot.svg``.
``verify``
    one of the named self-check suites; exits nonzero on any violation.

Options may also come from a JSON file via ``--config``; explicit flags
override file values. ``SolverConfig`` owns the solver's rules and ``_RULES``
the rest; ``_resolve_options`` applies both before any data is generated or
output written. The checks that need the data (``--r`` against a file's
shape, the ``--init-u``/``--init-v`` shapes and a one-sided
``--train-fraction``) come after it is built, before any solve or output.
"""

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import datakit, matcomp, onmf, svgplot
from .solver import SolverConfig, run
from .verify import SUITES

__all__ = ["main", "entry"]

_ALGORITHMS = ("bmm", "bmme", "bmme_bt")

_SOLVER = SolverConfig()  # the library's defaults

# Every run/compare option and --config key, in flag order: key -> (default,
# type or tuple of choices, help). ``lam`` is set by ``--lambda``. The CLI
# leaves verify_descent off, where the library default is on.
OPTIONS = {
    "problem": ("onmf", ("onmf", "matcomp"), None),
    "algorithm": ("bmme", str,
                  "bmm | bmme | bmme_bt, where bmme_bt backtracks (L, l) on "
                  "every block (compare accepts a comma-separated list, "
                  "each name once)"),
    "m": (100, int, "rows of the synthetic data matrix"),
    "n": (100, int, "columns of the synthetic data matrix"),
    "r": (5, int, "factorization rank"),
    "lam": (None, float, "regularization weight"),  # resolved per problem
    "theta": (5.0, float, "exponential penalty sharpness (matcomp)"),
    "delta": (_SOLVER.delta, float, "extrapolation safety factor in (0, 1)"),
    "eta": (_SOLVER.eta, float, "extrapolation shrink factor in (0, 1)"),
    "max_iters": (_SOLVER.max_iters, int, None),
    "time_budget": (None, float, "seconds of block-update time"),
    "tol": (_SOLVER.tol_rel_change, float,
            "relative objective-change stopping tolerance"),
    "seed": (1, int, None),
    "seeds": (1, int, "number of consecutive seeds (compare)"),
    "data": (None, str, "input data file (omit for synthetic data)"),
    "data_format": ("csv", ("csv", "mm", "ratings"), None),
    "init": (None, ("spa", "random", "file"), None),  # spa (onmf), random
    "init_u": (None, str,
               "CSV with the initial left factor (with --init file)"),
    "init_v": (None, str,
               "CSV with the initial right factor (with --init file)"),
    "noise": (0.05, float, "synthetic onmf noise level"),
    "obs_fraction": (0.3, float, "synthetic matcomp sampling rate"),
    "train_fraction": (0.7, float, "train share of observed entries"),
    "out": ("bmme_out", str, "output directory"),
    "verify_descent": (False, bool, "check the certified descent inequality "
                                    "every iteration"),
}
DEFAULTS = {key: default for key, (default, _, _) in OPTIONS.items()}

# The rules on options that SolverConfig does not judge, checked in order:
# (option, test on the resolved options, what the option requires).
_RULES = (
    ("m", lambda o: o.m >= 1, "must be >= 1"),
    ("n", lambda o: o.n >= 1, "must be >= 1"),
    ("r", lambda o: o.r >= 1, "must be >= 1"),
    ("r", lambda o: o.data is not None or o.r <= min(o.m, o.n),
     "must be <= min(--m, --n) for synthetic data"),
    ("lam", lambda o: o.lam is None or 0.0 < o.lam < np.inf,
     "must be positive"),
    ("theta", lambda o: 0.0 < o.theta < np.inf, "must be positive"),
    ("seed", lambda o: o.seed >= 0, "must be >= 0"),
    ("seeds", lambda o: o.seeds >= 1, "must be >= 1"),
    ("data_format", lambda o: o.data is None or o.problem == "matcomp"
     or o.data_format == "csv", "needs --problem matcomp"),
    ("init", lambda o: o.init != "spa" or o.problem == "onmf",
     "needs --problem onmf"),
    ("init", lambda o: o.init != "file" or o.init_u and o.init_v,
     "needs --init-u and --init-v"),
    ("noise", lambda o: 0.0 <= o.noise < np.inf, "must be finite and >= 0"),
    ("obs_fraction", lambda o: 0.0 < o.obs_fraction <= 1.0,
     "must lie in (0, 1]"),
    ("train_fraction", lambda o: 0.0 < o.train_fraction <= 1.0,
     "must lie in (0, 1]"),
)


class UsageError(Exception):
    """Bad flag/config combination; maps to exit code 2."""


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _flag(key):
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


def _common_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", help="JSON file with option defaults (flags override)")
    for key, (_, kind, text) in OPTIONS.items():
        extra = ({"action": "store_true", "default": None} if kind is bool
                 else {"choices": kind} if isinstance(kind, tuple)
                 else {"type": kind})
        common.add_argument(_flag(key), dest=key, help=text, **extra)
    return common


def _build_parser():
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="bmme",
        description="Block-alternating Bregman MM experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common],
                   help="run one algorithm and write trace + report")
    sub.add_parser("compare", parents=[common],
                   help="run algorithms x seeds and write summary + plot")
    pv = sub.add_parser("verify", help="run a named self-check suite")
    pv.add_argument("suite", choices=sorted(SUITES))
    return parser


def _resolve_options(args):
    """Merge defaults, ``--config`` and flags into (options, algorithms,
    SolverConfig); any bad setting raises UsageError naming its flag."""
    cfg = dict(DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
            raise UsageError(f"--config {args.config}: not a readable JSON "
                             f"file ({exc})") from None
        if not isinstance(loaded, dict):
            raise UsageError(f"--config {args.config}: expected a JSON object")
        unknown = sorted(set(loaded) - set(DEFAULTS))
        if unknown:
            raise UsageError(
                f"--config {args.config}: unknown option(s) {', '.join(unknown)}")
        for key, value in loaded.items():
            if not _config_value_ok(key, value):
                raise UsageError(f"--config: invalid {key} {value!r}")
        cfg.update(loaded)
    cfg.update({key: val for key in DEFAULTS
                if (val := getattr(args, key, None)) is not None})
    opts = SimpleNamespace(**cfg)
    for key, ok, want in _RULES:
        if not ok(opts):
            raise UsageError(f"{_flag(key)} {cfg[key]} {want}")
    try:
        solver = SolverConfig(
            delta=cfg["delta"], eta=cfg["eta"], max_iters=cfg["max_iters"],
            time_budget=cfg["time_budget"], tol_rel_change=cfg["tol"],
            verify_descent=cfg["verify_descent"])
    except ValueError as exc:  # its message starts with the field's name
        field, _, rest = str(exc).partition(" ")
        flag = _flag("tol" if field == "tol_rel_change" else field)
        raise UsageError(f"{flag} {rest}") from None
    algorithms = [a.strip() for a in cfg["algorithm"].split(",") if a.strip()]
    if (not algorithms or not set(algorithms) <= set(_ALGORITHMS)
            or len(set(algorithms)) < len(algorithms)
            or args.command == "run" and len(algorithms) > 1):
        raise UsageError(
            f"--algorithm {cfg['algorithm']!r}: choose from "
            f"{', '.join(_ALGORITHMS)} (compare takes a comma-separated list, "
            "each name once)")
    return cfg, algorithms, solver


def _config_value_ok(key, value):
    """Whether ``key`` takes JSON ``value``: type, choices or null."""
    default, kind, _ = OPTIONS[key]
    if value is None:
        return default is None
    if isinstance(kind, tuple):
        return value in kind
    return type(value) is kind or kind is float and type(value) is int


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _atomic_write_text(path, text):
    # O_EXCL under a fresh name, as mkstemp, but with the mode a plain
    # open gives (0666 less the umask) rather than mkstemp's 0600
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trace_csv_text(trace, scale):
    lines = ["iter,elapsed_seconds,objective,scaled_objective"]
    for rec in trace.records:
        lines.append(",".join([
            str(rec.iter),
            repr(rec.elapsed_seconds),
            repr(rec.objective),
            repr(rec.objective / scale),
        ]))
    return "\n".join(lines) + "\n"


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# job setup and execution
# ---------------------------------------------------------------------------

def _load_init(cfg, rows, cols):
    """The ``--init file`` factors (U, V) for a rows x cols data matrix."""
    U0, V0 = (np.asarray(datakit.load_dense_csv(cfg[key]), dtype=np.float64)
              for key in ("init_u", "init_v"))
    if U0.shape != (rows, cfg["r"]) or V0.shape != (cfg["r"], cols):
        raise UsageError("--init-u/--init-v shapes do not match the data")
    return U0, V0


def _check_rank(cfg, rows, cols):
    """The ``--r`` bound on a rows x cols data matrix, from a file or not."""
    if cfg["r"] > min(rows, cols):
        raise UsageError(f"--r {cfg['r']} must be <= min(m, n) = "
                         f"{min(rows, cols)} for the {rows} x {cols} data")


def _init_seed(seed):
    """Seed of a run's random start: a child of ``seed``, so the start draws
    from a stream independent of the one that generated synthetic data."""
    return np.random.SeedSequence(seed).spawn(1)[0]


def _prepare_onmf(cfg, seed):
    if cfg["data"] is not None:
        X = datakit.load_dense_csv(cfg["data"])
        labels = None
        synthetic = False
    else:
        sample = datakit.gen_synthetic_onmf(
            cfg["m"], cfg["n"], cfg["r"], noise=cfg["noise"], seed=seed)
        X, labels = sample.X, sample.labels
        synthetic = True
    _check_rank(cfg, *X.shape)

    init = cfg["init"] or "spa"
    if init == "spa":
        U0, V0 = onmf.spa_init(X, cfg["r"])
    elif init == "random":
        rng = np.random.default_rng(_init_seed(seed))
        U0 = rng.uniform(size=(X.shape[0], cfg["r"]))
        V0 = rng.uniform(size=(cfg["r"], X.shape[1]))
    else:
        U0, V0 = _load_init(cfg, *X.shape)

    if cfg["lam"] is not None:
        lam = float(cfg["lam"])
    elif synthetic:
        lam = 1000.0
    else:
        lam = onmf.default_lambda(X, U0, V0)
    p = onmf.OnmfProblem(X=X, r=cfg["r"], lam=lam)

    def objective(blocks):
        return onmf.onmf_objective(p, blocks[0], blocks[1])

    def quality(final):
        if labels is None:
            return {}
        pred = onmf.predict_clusters(final[1])
        return {"accuracy": onmf.clustering_accuracy(labels, pred)}

    return SimpleNamespace(problems=onmf.onmf_block_problems(p),
                           init_blocks=[U0, V0], objective=objective,
                           quality=quality, scale=float(np.vdot(X, X)) or 1.0,
                           lam=lam, idmaps=None)


def _prepare_matcomp(cfg, seed):
    idmaps = None
    if cfg["data"] is not None:
        fmt = cfg["data_format"]
        if fmt == "mm":
            observed = datakit.load_matrix_market(cfg["data"])
        elif fmt == "ratings":
            observed, idmaps = datakit.load_ratings(cfg["data"])
        else:
            X = datakit.load_dense_csv(cfg["data"])
            rr, cc = np.meshgrid(np.arange(X.shape[0]), np.arange(X.shape[1]),
                                 indexing="ij")
            observed = datakit.ObservedMatrix(
                rows=X.shape[0], cols=X.shape[1],
                row_idx=rr.ravel(), col_idx=cc.ravel(), values=X.ravel())
    else:
        observed = datakit.gen_synthetic_ratings(
            cfg["m"], cfg["n"], cfg["r"], cfg["obs_fraction"], seed=seed)
    _check_rank(cfg, observed.rows, observed.cols)

    frac = float(cfg["train_fraction"])
    if frac < 1.0:
        train, test = datakit.train_test_split(observed, frac, seed=seed)
        if not (train.n_obs and test.n_obs):
            raise UsageError(
                f"--train-fraction {frac} leaves {train.n_obs} training and "
                f"{test.n_obs} test entries of {observed.n_obs}; each side "
                "needs at least one")
    else:
        train, test = observed, None

    lam = float(cfg["lam"]) if cfg["lam"] is not None else 0.1
    p = matcomp.McProblem(observed=train, r=cfg["r"], lam=lam,
                          theta=cfg["theta"])

    if cfg["init"] != "file":
        state0 = matcomp.mc_random_init(p, seed=_init_seed(seed))
    else:
        state0 = matcomp.McState(*_load_init(cfg, train.rows, train.cols))

    def quality(final):
        state = matcomp.unpack_state(final[0], train.rows)
        out = {"rmse_train": matcomp.rmse(train, state),
               "rmse_train_init": matcomp.rmse(train, state0)}
        if test is not None:
            out["rmse_test"] = matcomp.rmse(test, state)
            out["rmse_test_init"] = matcomp.rmse(test, state0)
        return out

    return SimpleNamespace(problems=[matcomp.mc_block_problem(p)],
                           init_blocks=[matcomp.pack_state(state0)],
                           objective=matcomp.mc_objective_packed(p),
                           quality=quality,
                           scale=train.frobenius() ** 2 or 1.0,
                           lam=lam, idmaps=idmaps)


def _run_single(cfg, solver_cfg, algorithm, seed):
    """Execute one job; returns a namespace with the result and report."""
    t0 = time.perf_counter()

    prepare = _prepare_onmf if cfg["problem"] == "onmf" else _prepare_matcomp
    prep = prepare(cfg, seed)
    problems = prep.problems
    if algorithm == "bmme_bt":
        problems = [dataclasses.replace(b, constants_for=None)
                    for b in problems]
    result = run(problems, prep.init_blocks, solver_cfg, prep.objective,
                 algorithm="bmm" if algorithm == "bmm" else "bmme")
    final_obj = result.state.objective
    extras = prep.quality(result.final)

    wall = time.perf_counter() - t0
    resolved = dict(cfg)
    resolved.update(algorithm=algorithm, seed=seed, lam=prep.lam)
    report = {
        "problem": cfg["problem"],
        "algorithm": algorithm,
        "seed": seed,
        "config": resolved,
        "iterations": len(result.trace),
        "stop_reason": str(result.stop_reason.value),
        "objective": final_obj,
        "scaled_objective": final_obj / prep.scale,
        "wall_time_seconds": wall,
    }
    report.update(extras)
    return SimpleNamespace(result=result, report=report, scale=prep.scale,
                           idmaps=prep.idmaps, algorithm=algorithm, seed=seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(cfg, algorithms, solver_cfg):
    algorithm = algorithms[0]
    job = _run_single(cfg, solver_cfg, algorithm, cfg["seed"])
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    _atomic_write_text(os.path.join(out, "trace.csv"),
                       _trace_csv_text(job.result.trace, job.scale))
    _atomic_write_text(os.path.join(out, "report.json"),
                       _json_text(job.report))
    if job.idmaps is not None:
        _atomic_write_text(os.path.join(out, "idmap.json"),
                           _json_text(job.idmaps))
    print(f"{cfg['problem']} {algorithm} seed {cfg['seed']}: "
          f"objective {job.report['objective']:.6e} after "
          f"{job.report['iterations']} iters "
          f"({job.report['stop_reason']}) -> {out}/")
    return 0


def _mean_curve(runs):
    """Resample each run's (time, objective) trace and average them."""
    curves = []
    for ts, ys in runs:
        keep = [(t, y) for t, y in zip(ts, ys) if t > 0 and y > 0]
        if keep:
            curves.append(([t for t, _ in keep], [y for _, y in keep]))
    if not curves:
        return None
    lo = max(c[0][0] for c in curves)
    hi = min(c[0][-1] for c in curves)
    if not hi > lo:  # no common range: the union, each run held at its ends
        lo = min(c[0][0] for c in curves)
        hi = max(c[0][-1] for c in curves)
    grid = np.geomspace(lo, hi, 60 if hi > lo else 1)
    stack = [np.interp(grid, np.asarray(ts), np.asarray(ys))
             for ts, ys in curves]
    return list(grid), list(np.mean(stack, axis=0))


def cmd_compare(cfg, algorithms, solver_cfg):
    seeds = [cfg["seed"] + i for i in range(cfg["seeds"])]
    out = cfg["out"]

    jobs = []
    for algorithm in algorithms:
        for seed in seeds:
            job = _run_single(cfg, solver_cfg, algorithm, seed)
            os.makedirs(out, exist_ok=True)
            _atomic_write_text(
                os.path.join(out, f"trace_{algorithm}_{seed}.csv"),
                _trace_csv_text(job.result.trace, job.scale))
            jobs.append(job)
            print(f"{cfg['problem']} {algorithm} seed {seed}: "
                  f"objective {job.report['objective']:.6e} after "
                  f"{job.report['iterations']} iters")

    medians = {}
    for algorithm in algorithms:
        finals = [j.report["objective"] for j in jobs
                  if j.algorithm == algorithm]
        medians[algorithm] = statistics.median(finals)

    lines = ["algorithm,seed,iterations,elapsed_seconds,final_objective,"
             "scaled_final_objective,algorithm_median_final"]
    for j in jobs:
        elapsed = (j.result.trace.records[-1].elapsed_seconds
                   if len(j.result.trace) else 0.0)
        lines.append(",".join([
            j.algorithm,
            str(j.seed),
            str(j.report["iterations"]),
            repr(elapsed),
            repr(j.report["objective"]),
            repr(j.report["scaled_objective"]),
            repr(medians[j.algorithm]),
        ]))
    _atomic_write_text(os.path.join(out, "summary.csv"),
                       "\n".join(lines) + "\n")

    thin, bold = [], []
    for gi, algorithm in enumerate(algorithms):
        per_alg = []
        for j in jobs:
            if j.algorithm != algorithm:
                continue
            ts = [r.elapsed_seconds for r in j.result.trace.records]
            ys = [r.objective for r in j.result.trace.records]
            if ts:
                thin.append((ts, ys, gi))
                per_alg.append((ts, ys))
        mean = _mean_curve(per_alg)
        if mean is not None:
            bold.append((mean[0], mean[1], gi, algorithm))
    if thin or bold:
        svg = svgplot.render_loglog_svg(
            thin, bold_curves=bold,
            title=f"{cfg['problem']}: objective vs block-update time")
        _atomic_write_text(os.path.join(out, "plot.svg"), svg)
    print(f"summary for {len(jobs)} runs -> {out}/")
    return 0


def cmd_verify(suite):
    violations = SUITES[suite]()
    for line in violations:
        print(line)
    if violations:
        print(f"{suite}: {len(violations)} violation(s)")
        return 1
    print(f"{suite}: ok")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite)
        resolved = _resolve_options(args)
        if args.command == "run":
            return cmd_run(*resolved)
        return cmd_compare(*resolved)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
