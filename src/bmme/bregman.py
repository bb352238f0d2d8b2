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
``ValueMemo`` is the value-keyed memo that the problems keep data passes in.
"""

import math
import numbers
from dataclasses import dataclass

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
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


class ValueMemo:
    """fn(A) for the last A, keyed by a snapshot copy compared by value.

    A caller may update A in place, so the memo never trusts identity.
    """

    def __init__(self, fn):
        self.fn, self.key, self.value = fn, None, None

    def hit(self, A):
        # shape before values, so that no broadcast compare can hit
        k = self.key
        return (k is not None and k.dtype == A.dtype and k.shape == A.shape
                and (k == A).all())

    def __call__(self, A):
        if not self.hit(A):
            self.value, self.key = self.fn(A), A.copy()
        return self.value


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

    @property
    def strong_convexity_modulus(self):
        return self.c2

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
        div = (0.5 * kernel.c2 * dd + 0.25 * kernel.c1 * t * t
               + 0.5 * kernel.c1 * float(np.vdot(y, y)) * dd)
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


def check_gradient(f_eval, f_grad, x, directions=None, rng=None, n_dirs=5):
    """Max relative mismatch between <grad, d> and a central finite difference.

    The step is ``1e-6 * (1 + ||x||_F)``; the mismatch is measured relative to
    ``1 + |directional derivative|``.
    """
    x = np.asarray(x, dtype=np.float64)
    if directions is None:
        rng = np.random.default_rng(0) if rng is None else rng
        directions = [rng.standard_normal(x.shape) for _ in range(n_dirs)]
    h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    g = f_grad(x)
    worst = 0.0
    for d in directions:
        d = np.asarray(d, dtype=np.float64)
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
