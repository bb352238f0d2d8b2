"""The norm-polynomial kernel family, its Bregman divergence, and checkers.

Every block kernel is phi(x) = c1/4 ||x||_F^4 + c2/2 ||x||_F^2 with c1 >= 0
and c2 > 0, the quartic-plus-quadratic family of Bolte, Sabach, Teboulle and
Vaisbourd (2018) and Mukkamala and Ochs (2019). phi is c2-strongly convex,
and with d = x - y its Bregman divergence has the closed form

    D(x, y) = c2/2 ||d||^2 + c1/4 <d, x + y>^2 + c1/2 ||y||^2 ||d||^2,

a sum of nonnegative terms, so D >= 0 and D(x, x) = 0 hold exactly; the
textbook phi(x) - phi(y) - <grad phi(y), x - y> cancels once D << phi.
Along a line y = x + beta d it is a quartic in beta: with s = ||d||^2,
p = <x, d>, q = ||x||^2 and t = beta (2p + beta s),

    D(x, x + beta d) = c2/2 beta^2 s + c1/4 t^2 + c1/2 (q + t) beta^2 s,

which for c1 = 0 needs only s. The solver's extrapolation search decides
its candidates from these scalars.
The solver needs the smooth part f to be relatively smooth against phi:

    -l * D(x, y) <= f(x) - f(y) - <grad f(y), x - y> <= L * D(x, y).

The sampling-based checkers below serve the test suite and ``verify``.
``ValueMemo`` is the one-entry memo that the problems keep data passes and
Grams in. It keeps only a read-only key that owns its data, as every
iterate the solver holds is, and hits that array by identity; any other
key is computed afresh on every call.
Above a size threshold each problem splits its data passes into fixed
parts that the calling thread and one worker of a lazily built thread pool
(``_executor``) take in turn (``_shared``): ONMF's X products in two halves,
completion's residual passes in fixed parts of the entries and its gradients
in their two products.
"""

import math
import numbers
import os
from dataclasses import dataclass
from threading import Lock

import numpy as np

__all__ = [
    "BlockKernel",
    "RelSmoothConstants",
    "RelSmoothReport",
    "ValueMemo",
    "as_matrix",
    "bregman_divergence",
    "check_relative_smoothness",
    "check_gradient",
    "check_surrogate",
    "cubic_norm_scale",
    "quadratic_kernel",
]


def _number(v, kind=numbers.Real):
    return isinstance(v, kind) and not isinstance(v, bool)  # no True/False


def _check_problem(shape, r, **weights):
    """ValueError unless ``r`` is an integer in [1, min(shape)] and each of
    the ``weights`` a positive finite real, naming the first bad value."""
    if not (_number(r, numbers.Integral) and 1 <= r <= min(shape)):
        raise ValueError(f"r must lie in [1, min(m, n)] as an integer, got {r!r}")
    for name, v in weights.items():
        if not (_number(v) and 0.0 < v < math.inf):
            raise ValueError(f"{name} must be a positive real, got {v!r}")


def as_matrix(a, name="matrix"):
    """Validate and return a 2-D float64 array with finite entries.

    Parameters
    ----------
    a : array_like
        Anything convertible to a 2-D numpy array.
    name : str
        Used in error messages.

    Returns
    -------
    numpy.ndarray of float64, shape (rows, cols), rows >= 1 and cols >= 1.
    """
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column")
    if not _all_finite(out):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _all_finite(a):
    """``np.isfinite(a).all()``, from one dot product unless it overflows.

    A sum of squares is finite exactly when every entry is finite and the
    sum does not overflow; only an overflowing sum looks at each entry.
    """
    return math.isfinite(float(np.vdot(a, a))) or bool(np.isfinite(a).all())


def _check_square(norm, name):
    """ValueError naming the overflow or underflow of ``name``^2 unless the
    square of the computed ``norm`` is a normal float64."""
    sq = norm * norm
    if not np.finfo(np.float64).tiny <= sq < math.inf:
        word = "overflows" if sq == math.inf else "underflows"
        raise ValueError(f"{name}^2 {word} the float64 range; rescale the "
                         "data")


class ValueMemo:
    """fn(A) for the last A, if the memo may keep it.

    Only a read-only A that owns its data, as every iterate the solver
    holds is, is kept, by reference. While it stays read-only the same
    array hits by identity, with no compare of its entries. Any other A
    may change in place at any time, so fn runs on it at every call, and
    the call drops what the memo kept: a kept key passed again after being
    made writeable misses, and stays unkept when frozen again. One that a
    caller made writeable, edited and froze again between two calls would
    hit with the old value, which the memo cannot tell. Nor can it tell a
    frozen A edited through a view taken before the freeze, which numpy
    leaves writeable. The solver's iterates have no such views
    (:func:`bmme.solver._hold`); other callers who keep views pass copies.
    """

    def __init__(self, fn):
        self.fn, self.key, self.value = fn, None, None

    def hit(self, A):
        return A is self.key and not A.flags.writeable

    def __call__(self, A):
        if self.hit(A):
            return self.value
        value = self.fn(A)
        kept = not A.flags.writeable and A.flags.owndata
        self.key, self.value = (A, value) if kept else (None, None)
        return value


# (pid, two-worker executor) for the split passes, built on first use
_pool = None


def _executor():
    # a forked child inherits the pool but not its threads, so a submit
    # there would wait forever: each process builds its own. The import
    # waits for the first split too (it adds 0.4 MB to a process's RSS).
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(), ThreadPoolExecutor(2))
    return _pool[1]


def _shared(*calls):
    """Run the zero-argument calls on this thread and one pool worker, each
    taking the next call not yet started; return their results in order.

    A worker that starts late, its CPU busy, leaves the rest to this
    thread, so a busy second CPU holds up at most the calls it started; one
    that has not started by the time this thread runs out is cancelled, not
    waited for. A single call runs here and submits nothing.
    """
    if len(calls) < 2:
        return [f() for f in calls]
    results, todo, lock = [None] * len(calls), iter(range(len(calls))), Lock()

    def drain():
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            results[i] = calls[i]()

    helper = _executor().submit(drain)
    try:
        drain()
    finally:  # even after a raise here, the helper's calls end first
        if not helper.cancel():
            helper.result()
    return results


def cubic_norm_scale(a, c):
    """Unique positive root of ``t^2 (t - a) = c`` for a >= 0, c >= 0, a+c > 0.

    Closed form: with D = c^2 + (4/27) c a^3, the root is
    ``a/3 + cbrt((c + sqrt(D))/2 + a^3/27) + cbrt((c - sqrt(D))/2 + a^3/27)``;
    the two cube-root arguments multiply to (a^2/9)^3, which gives the
    cancellation-free evaluation used here, plus one Newton polish.

    The root scales like a and like cbrt(c), so the form is evaluated on
    a 2^-e and c 2^-3e, with 2^e the power of two just above
    max(a, cbrt(c)), and the root is scaled back by 2^e. Power-of-two
    scaling is exact, so no intermediate overflows or underflows at any
    scale, and in the range where none did the result is unchanged.
    """
    for name, v in (("a", a), ("c", c)):
        if not math.isfinite(v):
            raise ValueError(f"cubic_norm_scale needs finite {name}, got {v}")
    if a < 0 or c < 0:
        raise ValueError("cubic_norm_scale needs a >= 0 and c >= 0")
    if a == 0.0 and c == 0.0:
        raise ValueError("cubic_norm_scale needs a + c > 0")
    # 2^e from the exponents alone: cbrt(c) < 2^k exactly when c < 8^k;
    # a zero gets -1075, below every double's exponent
    e = max(math.frexp(a)[1] if a else -1075,
            -(-math.frexp(c)[1] // 3) if c else -1075)
    a, c = math.ldexp(a, -e), math.ldexp(c, -3 * e)
    disc = c * c + (4.0 / 27.0) * c * a**3
    t1 = float(np.cbrt((c + math.sqrt(disc)) / 2.0 + a**3 / 27.0))
    rho = a / 3.0 + t1 + (a * a / 9.0) / t1
    # one Newton step on t^3 - a t^2 - c sharpens the last bits
    h = rho * rho * (rho - a) - c
    dh = rho * (3.0 * rho - 2.0 * a)
    if dh > 0:
        rho -= h / dh
    return math.ldexp(rho, e)


@dataclass(frozen=True)
class BlockKernel:
    """The kernel ``phi(x) = c1/4 ||x||_F^4 + c2/2 ||x||_F^2`` of one block.

    Attributes
    ----------
    c1 : float
        Quartic weight, finite and >= 0.
    c2 : float
        Quadratic weight, finite and > 0; also the strong-convexity modulus,
        ``D(x, y) >= c2/2 * ||x - y||_F^2``.
    """

    c1: float
    c2: float

    def __post_init__(self):
        if not (math.isfinite(self.c1) and self.c1 >= 0):
            raise ValueError(f"c1 must be nonnegative and finite, got {self.c1}")
        if not (math.isfinite(self.c2) and self.c2 > 0):
            raise ValueError(f"c2 must be positive and finite, got {self.c2}")

    def eval(self, x):
        """The kernel value phi(x)."""
        s = float(np.vdot(x, x))
        return 0.25 * self.c1 * s * s + 0.5 * self.c2 * s

    def grad(self, x):
        """``grad phi(x) = (c1 ||x||^2 + c2) x``, as a new array."""
        x = np.asarray(x, dtype=np.float64)
        return (self.c1 * float(np.vdot(x, x)) + self.c2) * x

    def grad_inverse(self, G):
        """The x with ``grad phi(x) = G``: ``G / rho``, where
        ``rho = c1 ||x||^2 + c2`` solves ``rho^2 (rho - c2) = c1 ||G||^2``.

        Where c1 ||G||^2 would overflow, rho is found from G 2^-k, with
        2^k just above max |G_ij|: rho(c2, c) = 2^e rho(c2 2^-e, c 2^-3e)
        and c 2^-3e = c1 ||G 2^-k||^2 2^(2k - 3e), with e = ceil(2k / 3).
        Raises FloatingPointError if G has a non-finite entry."""
        s = float(np.vdot(G, G))
        if not math.isfinite(s) and not np.isfinite(G).all():
            raise FloatingPointError("G has a non-finite entry")
        c = self.c1 * s if self.c1 else 0.0
        if math.isfinite(c):
            return G / cubic_norm_scale(self.c2, c)
        k = math.frexp(float(np.abs(G).max()))[1]
        Gk = np.ldexp(G, -k)
        e = -(-2 * k // 3)
        rho = cubic_norm_scale(
            math.ldexp(self.c2, -e),
            math.ldexp(self.c1 * float(np.vdot(Gk, Gk)), 2 * k - 3 * e))
        return G / math.ldexp(rho, e)


@dataclass(frozen=True)
class RelSmoothConstants:
    """Relative-smoothness pair (L, l) of a function against a kernel."""

    L: float
    l: float

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if not (math.isfinite(self.l) and self.l >= 0):
            raise ValueError(f"l must be nonnegative and finite, got {self.l}")


def quadratic_kernel():
    """The Euclidean kernel ``phi(x) = 0.5 * ||x||_F^2``: (c1, c2) = (0, 1)."""
    return BlockKernel(c1=0.0, c2=1.0)


def bregman_divergence(kernel, x, y):
    """Bregman divergence ``phi(x) - phi(y) - <grad phi(y), x - y>``.

    Evaluated in the closed form of the module docstring, a sum of
    nonnegative terms, so the result is >= 0 and ``D(x, x) == 0`` exactly.
    With c1 = 0 or ``||d||^2 == 0`` only ``c2/2 ||d||^2`` is formed, so no
    quartic term can overflow (or make inf * 0 of a huge ``||y||^2``); with
    c1 = 0 an overflowing ``||d||^2`` is re-formed at a power-of-two scale.
    Raises FloatingPointError if the value is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    d = x - y
    dd = float(np.vdot(d, d))
    if kernel.c1 == 0.0 and not math.isfinite(dd):
        # ||d||^2 overflowed, yet c2/2 ||d||^2 may fit: form it on x, y
        # scaled by 2^-e below 1 in magnitude and scale back by 2^(2e)
        e = math.frexp(max(float(np.max(np.abs(x))),
                           float(np.max(np.abs(y)))))[1]
        ds = np.ldexp(x, -e) - np.ldexp(y, -e)
        with np.errstate(over="ignore"):  # an inf raises below
            div = float(np.ldexp(0.5 * kernel.c2 * np.vdot(ds, ds), 2 * e))
    elif kernel.c1 == 0.0 or dd == 0.0:  # the quartic terms vanish
        div = 0.5 * kernel.c2 * dd
    else:
        t = float(np.vdot(d, x + y))
        yy = float(np.vdot(y, y))
        div = (0.5 * kernel.c2 * dd + 0.25 * kernel.c1 * t * t
               + 0.5 * kernel.c1 * yy * dd)
    if not math.isfinite(div):
        raise FloatingPointError("Bregman divergence is not finite")
    return div


@dataclass(frozen=True)
class RelSmoothReport:
    """Worst-case violations found by :func:`check_relative_smoothness`.

    Nonpositive values mean the corresponding inequality held on every sample.
    """

    max_upper_violation: float
    max_lower_violation: float

    def ok(self, tol=1e-9):
        return self.max_upper_violation <= tol and self.max_lower_violation <= tol


def check_relative_smoothness(f_eval, f_grad, kernel, constants, samples):
    """Check -l*D(x,y) <= f(x)-f(y)-<grad f(y),x-y> <= L*D(x,y) on samples.

    Parameters
    ----------
    f_eval, f_grad : callables
        Smooth-part value and gradient for the block being certified.
    kernel : BlockKernel
    constants : RelSmoothConstants
    samples : iterable of (x, y) pairs

    Returns
    -------
    RelSmoothReport
        ``max_upper_violation`` is max over samples of ``gap - L*D`` and
        ``max_lower_violation`` of ``-l*D - gap`` where
        ``gap = f(x) - f(y) - <grad f(y), x - y>``.
    """
    up = -np.inf
    lo = -np.inf
    n = 0
    for x, y in samples:
        d = bregman_divergence(kernel, x, y)
        gap = float(f_eval(x)) - float(f_eval(y)) - float(np.vdot(f_grad(y), x - y))
        up = max(up, gap - constants.L * d)
        lo = max(lo, -constants.l * d - gap)
        n += 1
    if n == 0:
        raise ValueError("no samples supplied")
    return RelSmoothReport(max_upper_violation=up, max_lower_violation=lo)


def check_gradient(f_eval, f_grad, x, rng=None):
    """Max relative mismatch between <grad, d> and a central finite difference.

    Five directions d are drawn from ``rng`` (by default seeded with 0). The
    step is ``1e-6 * (1 + ||x||_F)``; the mismatch is measured relative to
    ``1 + |directional derivative|``.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(0) if rng is None else rng
    h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    g = f_grad(x)
    worst = 0.0
    for d in [rng.standard_normal(x.shape) for _ in range(5)]:
        nd = float(np.linalg.norm(d))
        if nd == 0.0:
            continue
        d = d / nd
        fd = (float(f_eval(x + h * d)) - float(f_eval(x - h * d))) / (2.0 * h)
        an = float(np.vdot(g, d))
        worst = max(worst, abs(fd - an) / (1.0 + abs(an)))
    return worst


def check_surrogate(u, g_eval, anchors, candidates, tol=1e-9):
    """Check that ``u(x, y)`` is a convex majorizer of g anchored at y.

    The checks are u(y, y) = g(y), u(x, y) >= g(x), and midpoint convexity
    in x. Returns a list of violation strings (empty when all checks pass).
    """
    bad = []
    for idx, y in enumerate(anchors):
        uy = float(u(y, y))
        gy = float(g_eval(y))
        if abs(uy - gy) > tol * (1.0 + abs(gy)):
            bad.append(f"u(y,y) != g(y) at anchor {idx}: {uy} vs {gy}")
        for jdx, x in enumerate(candidates):
            if x.shape != y.shape:
                continue
            ux = float(u(x, y))
            gx = float(g_eval(x))
            if ux < gx - tol * (1.0 + abs(gx)):
                bad.append(f"u(x,y) < g(x) at ({jdx},{idx}): {ux} vs {gx}")
        for jdx in range(len(candidates) - 1):
            a, b = candidates[jdx], candidates[jdx + 1]
            if a.shape != y.shape or b.shape != y.shape:
                continue
            mid = float(u(0.5 * (a + b), y))
            avg = 0.5 * (float(u(a, y)) + float(u(b, y)))
            if mid > avg + tol * (1.0 + abs(avg)):
                bad.append(f"midpoint convexity failed at ({jdx},{idx})")
    return bad
