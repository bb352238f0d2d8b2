"""Tests for the Bregman kernel/divergence layer and its validators."""

import math
import os
import subprocess
import sys
import textwrap
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import CountingExecutor
from numpy.testing import assert_allclose

from bmme import bregman
from bmme.bregman import (
    BlockKernel,
    RelSmoothConstants,
    ValueMemo,
    as_matrix,
    bregman_divergence,
    check_gradient,
    check_relative_smoothness,
    check_surrogate,
    cubic_norm_scale,
    quadratic_kernel,
)
from bmme.datakit import gen_synthetic_onmf
from bmme.solver import nesterov_next
from bmme.verify import bisect_cubic_root


class TestQuadraticKernel:
    def test_divergence_is_half_squared_distance(self):
        kern = quadratic_kernel()
        x = np.array([1.0, 2.0])
        y = np.array([0.0, 0.0])
        # 0.5 * (1 + 4) = 2.5
        assert_allclose(bregman_divergence(kern, x, y), 2.5)

    def test_divergence_matrix_arguments(self):
        kern = quadratic_kernel()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((4, 3))
        d = bregman_divergence(kern, x, y)
        assert_allclose(d, 0.5 * np.sum((x - y) ** 2), rtol=1e-12)

    def test_divergence_at_same_point_is_exactly_zero(self):
        kern = quadratic_kernel()
        x = np.array([1.0, 2.0, -3.0])
        assert bregman_divergence(kern, x, x) == 0.0

    def test_divergence_never_negative_under_rounding(self):
        # phi(x) - phi(y) - <grad, x-y> can round below zero for nearly
        # equal arguments; the divergence must not.
        kern = quadratic_kernel()
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = rng.standard_normal(5) * 1e3
            x = y + rng.standard_normal(5) * 1e-12
            assert bregman_divergence(kern, x, y) >= 0.0

    def test_modulus(self):
        # c2 is the strong-convexity modulus: D(x, y) >= c2/2 ||x - y||^2
        kern = BlockKernel(c1=0.5, c2=1.0)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = rng.standard_normal((2, 6))
            assert (bregman_divergence(kern, x, y)
                    >= 0.5 * kern.c2 * float(np.vdot(x - y, x - y)))


def exact_divergence(kernel, x, y):
    """phi(x) - phi(y) - <grad phi(y), x - y> in exact rational arithmetic."""
    c1, c2 = Fraction(kernel.c1), Fraction(kernel.c2)
    X = [Fraction(v) for v in x.ravel().tolist()]
    Y = [Fraction(v) for v in y.ravel().tolist()]

    def phi(v):
        s = sum(a * a for a in v)
        return c1 / 4 * s * s + c2 / 2 * s

    slope = c1 * sum(b * b for b in Y) + c2
    return phi(X) - phi(Y) - sum(slope * b * (a - b) for a, b in zip(X, Y))


# The three shipped shapes: Euclidean (0, 1), ONMF V block (6 lam, eps(U))
# with eps(U) >= 2 lam, and completion (3, ||P(A)||_F).
weights = st.floats(1e-3, 1e3)
kernels = st.one_of(
    st.builds(lambda c2: BlockKernel(0.0, c2), weights),
    st.builds(lambda lam, e: BlockKernel(6.0 * lam, 2.0 * lam + e),
              weights, weights),
    st.builds(lambda c2: BlockKernel(3.0, c2), weights),
)
# entries are 0 or of magnitude in [0.5, 1], so no product underflows
entries = st.one_of(st.just(0.0), st.floats(0.5, 1.0), st.floats(-1.0, -0.5))


@st.composite
def points(draw, n):
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    return scale * np.array(draw(st.lists(entries, min_size=n, max_size=n)))


@st.composite
def close_pairs(draw):
    """(x, y) with y = +-x + sep * |x|-scale noise, sep down to 1e-12."""
    n = draw(st.integers(1, 8))
    x = draw(points(n))
    scale = max(float(np.max(np.abs(x))), 1e-8)
    sep = 10.0 ** draw(st.floats(-12.0, 0.0))
    noise = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    y = draw(st.sampled_from([1.0, -1.0])) * x + sep * scale * noise
    return x, y


class TestDivergenceProperties:
    @settings(max_examples=300, deadline=None)
    @given(kernel=kernels, x=st.integers(1, 8).flatmap(points))
    def test_zero_at_same_point(self, kernel, x):
        assert bregman_divergence(kernel, x, x) == 0.0

    @settings(max_examples=500, deadline=None)
    @given(kernel=kernels, pair=close_pairs())
    def test_nonnegative_and_exact_to_1e12(self, kernel, pair):
        x, y = pair
        d = bregman_divergence(kernel, x, y)
        exact = exact_divergence(kernel, x, y)
        assert d >= 0.0
        assert abs(Fraction(d) - exact) <= Fraction(1e-12) * exact
        # c2-strong convexity: D(x, y) >= c2/2 ||x - y||^2
        assert d >= 0.5 * kernel.c2 * float(np.vdot(x - y, x - y))


@st.composite
def wide_cases(draw):
    """(kernel, x, y) with (x, y) as in close_pairs at a scale 10^k.

    k spans -150..150, and -300..300 for the Euclidean kernels, whose
    divergence forms no product of two scaled terms.
    """
    kernel = draw(kernels)
    k = 300 if kernel.c1 == 0.0 else 150
    n = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-k, k))
    x = scale * np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    sep = 10.0 ** draw(st.floats(-12.0, 0.0))
    noise = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    y = draw(st.sampled_from([1.0, -1.0])) * x + sep * scale * noise
    return kernel, x, y


FLOAT_MAX = Fraction(np.finfo(np.float64).max)


class TestWideScales:
    @settings(max_examples=500, deadline=None)
    @given(case=wide_cases())
    def test_overflow_only_when_the_true_value_overflows(self, case):
        kernel, x, y = case
        exact = exact_divergence(kernel, x, y)
        assert bregman_divergence(kernel, x, x) == 0.0
        try:
            d = bregman_divergence(kernel, x, y)
        except FloatingPointError:
            # rounding may tip a value within a few eps of the limit over
            assert exact > FLOAT_MAX * (1 - Fraction(1e-12))
            return
        assert exact <= FLOAT_MAX * (1 + Fraction(1e-12))
        assert d >= 0.0
        euclid = 0.5 * kernel.c2 * float(np.vdot(x - y, x - y))
        if kernel.c1 == 0.0 and math.isfinite(euclid):
            # where ||x - y||^2 overflows but the value fits, only the
            # exact-value check below applies
            assert d == euclid
        if exact >= Fraction(1e-290):  # clear of subnormal products
            assert abs(Fraction(d) - exact) <= Fraction(1e-12) * exact

    @settings(max_examples=300, deadline=None)
    @given(kernel=kernels.filter(lambda kern: kern.c1 > 0.0),
           k=st.integers(-300, 300),
           unit=st.lists(entries, min_size=1, max_size=4))
    def test_quartic_kernel_zero_at_same_point_up_to_1e300(self, kernel, k,
                                                           unit):
        # ||y||^2 overflows above about 1.3e154, so at d = 0 the quartic
        # term's inf * 0 must not be formed
        x = 10.0 ** k * np.array(unit)
        assert bregman_divergence(kernel, x, x.copy()) == 0.0

    def test_quartic_kernel_same_huge_point_is_zero(self):
        kern = BlockKernel(1.0, 1.0)
        assert bregman_divergence(kern, [1e160], [1e160]) == 0.0

    def test_euclidean_value_near_the_limit_is_finite(self):
        # (1e153)^2 / 2 = 5e305; the quartic terms' 0 * inf once made NaN
        x, y = np.array([1e160]), np.array([1.0000001e160])
        d = bregman_divergence(quadratic_kernel(), x, y)
        assert d == 0.5 * float(np.vdot(x - y, x - y))
        assert_allclose(d, 5e305, rtol=1e-8)

    def test_euclidean_value_fits_though_squared_distance_overflows(self):
        # ||x - y||^2 = 4e308 overflows; c2/2 ||x - y||^2 = 1e308 does not
        d = bregman_divergence(BlockKernel(0.0, 0.5), np.array([-1e154]),
                               np.array([1e154]))
        assert_allclose(d, 1e308, rtol=1e-15)

    def test_overflowing_value_raises(self):
        with pytest.raises(FloatingPointError):
            bregman_divergence(quadratic_kernel(), np.array([1e200]),
                               np.array([-1e200]))


class TestNormPolynomialKernel:
    @pytest.mark.parametrize("c1, c2", [(0.0, 1.0), (6000.0, 2500.0),
                                        (3.0, 40.0)])
    def test_grad_inverse_round_trip(self, c1, c2):
        kern = BlockKernel(c1, c2)
        G = np.random.default_rng(6).standard_normal((4, 3)) * 100.0
        x = kern.grad_inverse(G)
        assert_allclose(kern.grad(x), G, rtol=1e-12)
        assert check_gradient(kern.eval, kern.grad, x) < 1e-5

    @pytest.mark.parametrize("c1, c2", [
        (-1.0, 1.0), (1.0, 0.0), (np.inf, 1.0), (1.0, np.nan),
        (np.float64(-np.inf), 1.0), (np.float64(-2.0), 1.0),
        (1.0, np.float32(np.nan)), (1.0, np.float64(np.inf)),
        (0.0, np.float64(0.0))])
    def test_invalid_weights_rejected(self, c1, c2):
        with pytest.raises(ValueError):
            BlockKernel(c1, c2)

    def test_numpy_scalar_weights_accepted(self):
        kern = BlockKernel(np.float64(6.0), np.float32(2.0))
        assert (kern.c1, kern.c2) == (6.0, 2.0)

    @pytest.mark.parametrize("c1", [0.0, 3.0])
    @pytest.mark.parametrize("G", [np.array([[1.0, np.nan]]),
                                   np.array([[np.inf, 1.0]]),
                                   np.array([[1e300, -np.inf]])])
    def test_grad_inverse_non_finite_G_raises(self, c1, G):
        with pytest.raises(FloatingPointError, match="non-finite entry"):
            BlockKernel(c1, 1.0).grad_inverse(G)

    @pytest.mark.parametrize("c1", [0.0, 3.0])
    def test_grad_inverse_where_norm_squared_overflows(self, c1):
        # ||G||^2 = 4e320 overflows; the root and x are representable
        G = np.full((2, 2), 1e160)
        x = BlockKernel(c1, 1.0).grad_inverse(G)
        # rho^2 (rho - c2) = c1 ||G||^2 is homogeneous: with G 2^-600 and
        # c2 2^-400, rho becomes rho 2^-400 and x becomes x 2^-200
        small = BlockKernel(c1, 2.0**-400).grad_inverse(np.ldexp(G, -600))
        assert np.all(np.isfinite(x))
        assert_allclose(np.ldexp(x, -200), small, rtol=1e-15)


def closed_form_cubic_root(a, c):
    """cubic_norm_scale as it was before scaling: the oracle on normal ranges."""
    disc = c * c + (4.0 / 27.0) * c * a**3
    t1 = np.cbrt((c + np.sqrt(disc)) / 2.0 + a**3 / 27.0)
    rho = a / 3.0 + t1 + (a * a / 9.0) / t1
    h = rho * rho * (rho - a) - c
    dh = rho * (3.0 * rho - 2.0 * a)
    if dh > 0:
        rho -= h / dh
    return float(rho)


# magnitudes from 1e-300 to 1e300, or exactly zero
wide = st.one_of(st.just(0.0),
                 st.builds(lambda m, k: m * 10.0 ** k, st.floats(1.0, 10.0),
                           st.integers(-300, 299)))


class TestCubicNormScaleScales:
    @settings(max_examples=300, deadline=None)
    @given(a=wide, c=wide)
    def test_root_within_two_ulps_at_any_scale(self, a, c):
        if a == 0.0 and c == 0.0:
            return
        got = cubic_norm_scale(a, c)
        want = bisect_cubic_root(a, c)
        assert abs(got - want) <= 2.0 * np.spacing(want)

    @settings(max_examples=500, deadline=None)
    @given(a=st.floats(1e-3, 1e4), c=st.floats(1e-3, 1e8))
    def test_unchanged_where_the_closed_form_did_not_overflow(self, a, c):
        assert cubic_norm_scale(a, c) == closed_form_cubic_root(a, c)

    @pytest.mark.parametrize("a, c, want", [
        (1e103, 1.0, 1e103),        # a^3 overflowed: OverflowError
        (1e-110, 0.0, 1e-110),      # a^3 underflowed to 0: NaN
        (0.0, 1e155, 4.641588833612779e51),  # c^2 overflowed: NaN
        (1e-110, 1e-300, 1.0000000000333333e-100),  # 6% off
    ])
    def test_extreme_cases(self, a, c, want):
        assert_allclose(cubic_norm_scale(a, c), want, rtol=1e-15)

    @pytest.mark.parametrize("a, c, name", [
        (1.0, np.inf, "c"), (np.nan, 1.0, "a"), (np.inf, 0.0, "a"),
        (0.0, np.nan, "c"), (np.float64(np.inf), 1.0, "a")])
    def test_non_finite_argument_rejected(self, a, c, name):
        with pytest.raises(ValueError, match=f"finite {name},"):
            cubic_norm_scale(a, c)


class TestRelSmoothConstants:
    # the solver builds its (L, l) here, so no L <= 0 reaches a subproblem
    @pytest.mark.parametrize("L, l", [(0.0, 1.0), (-1.0, 0.0), (np.inf, 0.0),
                                      (1.0, -1e-3), (1.0, np.nan),
                                      (np.float64(np.nan), 0.0),
                                      (np.float64(0.0), 0.0),
                                      (1.0, np.float32(-np.inf)),
                                      (1.0, np.float64(-1e-2))])
    def test_invalid_pair_rejected(self, L, l):
        with pytest.raises(ValueError):
            RelSmoothConstants(L=L, l=l)


class TestScalarRule:
    """Each scalar setting passes bregman._number's rule (a real, not a
    bool), as the problem checks do: a bool, a string or a 1-element array
    raises a ValueError naming the argument, and numpy floats pass."""

    SITES = {
        "BlockKernel.c1": (lambda v: BlockKernel(c1=v, c2=1.0), "c1"),
        "BlockKernel.c2": (lambda v: BlockKernel(c1=0.0, c2=v), "c2"),
        "RelSmoothConstants.L":
            (lambda v: RelSmoothConstants(L=v, l=0.0), "L"),
        "RelSmoothConstants.l":
            (lambda v: RelSmoothConstants(L=1.0, l=v), "l"),
        "cubic_norm_scale": (lambda v: cubic_norm_scale(v, 1.0), "finite a"),
        "nesterov_next": (nesterov_next, "nu_prev"),
        "gen_synthetic_onmf":
            (lambda v: gen_synthetic_onmf(4, 3, 2, noise=v), "noise"),
    }

    @pytest.mark.parametrize("value", [True, "1", np.array([0.1])],
                             ids=["bool", "str", "array"])
    @pytest.mark.parametrize("site", list(SITES))
    def test_non_real_rejected_naming_the_argument(self, site, value):
        build, name = self.SITES[site]
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            build(value)

    @pytest.mark.parametrize("site", list(SITES))
    @pytest.mark.parametrize("kind", [np.float64, np.float32])
    def test_numpy_float_accepted(self, site, kind):
        self.SITES[site][0](kind(1.0))


class Watched(np.ndarray):
    """An array that counts the entry reads a value compare would make."""

    reads = 0

    def __eq__(self, other):
        Watched.reads += 1
        return np.ndarray.__eq__(self, other)

    def item(self, *args):
        Watched.reads += 1
        return np.ndarray.item(self, *args)


def frozen(A):
    """A new read-only array that owns its data, as ``run`` keeps iterates."""
    A = np.array(A, dtype=np.float64)
    A.flags.writeable = False
    return A


@st.composite
def memo_histories(draw):
    """Arrays of every kind the memo may see, and a history of calls, flag
    flips and in-place edits on them."""
    base = np.arange(12.0)
    makers = {
        "owning": lambda: np.arange(6.0).reshape(2, 3),
        "fortran": lambda: np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        "view": lambda: base[2:8].reshape(2, 3),
        "0-d": lambda: np.array(2.5),
        "empty": lambda: np.zeros((0, 3)),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=1,
                          max_size=4))
    arrays = [makers[k]() for k in kinds]
    if draw(st.booleans()):
        base.flags.writeable = False  # its views can be made writeable no more
    for A in arrays:
        if draw(st.booleans()):
            A.flags.writeable = False
    ops = draw(st.lists(st.tuples(st.sampled_from(["call", "flip", "edit"]),
                                  st.integers(0, len(arrays) - 1)),
                        min_size=1, max_size=30))
    return arrays, ops


class TestValueMemo:
    @staticmethod
    def counted():
        calls = []

        def fn(A):
            calls.append(A.shape)
            return A.sum()

        return ValueMemo(fn), calls

    def test_equal_writeable_copy_is_recomputed(self):
        memo, calls = self.counted()
        A = np.arange(6.0).reshape(2, 3)
        assert not memo.hit(A)
        assert memo(A) == 15.0
        assert not memo.hit(A) and not memo.hit(A.copy())
        assert memo(A.copy()) == 15.0 and memo(A) == 15.0
        assert len(calls) == 3 and memo.key is None

    @pytest.mark.parametrize("key, other", [
        (np.ones((1, 5)), np.ones((5, 5))),          # broadcastable
        (np.zeros((2, 3)), np.zeros((3, 2))),        # same size
        (np.ones((2, 2)), np.ones((2, 2), dtype=np.float32)),  # dtype
    ], ids=["broadcastable", "same-size", "dtype"])
    def test_miss_on_other_shape_or_dtype(self, key, other):
        memo, calls = self.counted()
        memo(key)
        assert not memo.hit(other)
        memo(other)
        assert calls == [key.shape, other.shape]

    def test_miss_after_source_changed_in_place(self):
        memo, calls = self.counted()
        A = np.ones((3, 3))
        assert memo(A) == 9.0
        A[1, 2] = 2.0
        assert not memo.hit(A)
        assert memo(A) == 10.0
        assert len(calls) == 2

    def test_nan_entries_never_hit(self):
        memo, calls = self.counted()
        A = np.array([[1.0, np.nan]])
        memo(A)
        assert not memo.hit(A)
        memo(A)
        assert len(calls) == 2

    @pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
    def test_miss_when_one_end_entry_differs(self, index):
        memo, calls = self.counted()
        A = frozen(np.arange(12.0).reshape(3, 4))
        memo(A)
        B = A.copy()
        B.flat[index] += 0.5
        assert not memo.hit(B)
        assert memo(B) == A.sum() + 0.5
        assert len(calls) == 2

    @pytest.mark.parametrize("A", [np.zeros((0, 3)), np.zeros(0),
                                   np.array(2.5)],
                             ids=["empty-2d", "empty-1d", "0-d"])
    def test_empty_and_0d_arrays_hit_by_identity(self, A):
        memo, calls = self.counted()
        A = frozen(A)
        memo(A)
        assert memo.hit(A) and memo.key is A
        memo(A)
        assert not memo.hit(frozen(A)) and not memo.hit(A.copy())
        assert len(calls) == 1

    def test_read_only_key_hits_by_identity_without_compare(self):
        memo, calls = self.counted()
        A = Watched((50, 4))  # owns its data
        A[...] = np.arange(200.0).reshape(50, 4)
        A.flags.writeable = False
        memo(A)
        assert memo.key is A  # kept by reference, not copied
        Watched.reads = 0
        assert memo.hit(A)
        memo(A)
        assert len(calls) == 1
        B = A.copy()
        B.flags.writeable = False  # equal, trusted, and not the kept key
        assert not memo.hit(B)
        assert not memo.hit(A.copy())  # equal and writeable
        assert Watched.reads == 0

    def test_read_only_key_holding_nan_hits_itself_only(self):
        memo, calls = self.counted()
        A = frozen([[1.0, np.nan], [2.0, 3.0]])
        memo(A)
        assert memo.hit(A)
        assert not memo.hit(frozen(A))
        assert len(calls) == 1

    def test_read_only_key_made_writeable_and_edited_misses(self):
        memo, calls = self.counted()
        A = frozen(np.ones((3, 3)))
        assert memo(A) == 9.0
        A.flags.writeable = True
        A[1, 2] = 2.0
        assert not memo.hit(A)
        assert memo(A) == 10.0
        assert len(calls) == 2 and memo.key is None
        A.flags.writeable = False  # seen writeable, so not kept any more
        assert not memo.hit(A)
        assert memo(A) == 10.0 and len(calls) == 3 and memo.key is A

    def test_read_only_view_is_recomputed_and_never_kept(self):
        memo, calls = self.counted()
        base = np.arange(6.0)
        view = base.reshape(2, 3)
        view.flags.writeable = False
        assert not view.flags.owndata
        assert memo(view) == 15.0
        assert memo.key is None and not memo.hit(view)
        base[0] = 10.0  # the view is read-only, its buffer is not
        assert memo(view) == 25.0
        assert len(calls) == 2

    def test_writeable_key_is_neither_kept_nor_frozen(self):
        memo, _ = self.counted()
        kept = frozen(np.zeros(4))
        memo(kept)
        A = np.ones(4)
        memo(A)
        assert memo.key is None and memo.value is None
        assert A.flags.writeable  # the caller's array is left as it was
        assert not memo.hit(kept)

    @settings(max_examples=300, deadline=None)
    @given(history=memo_histories())
    def test_only_trusted_keys_are_kept_and_hit_by_identity(self, history):
        # fn's value is the index of its call; ``sources`` holds the array
        # each call was for. A trusted key is read-only and owns its data.
        arrays, ops = history
        sources = []
        memo = ValueMemo(lambda A: sources.append(A) or len(sources) - 1)
        kept = None  # the key the rule says the memo holds
        for op, i in ops:
            A = arrays[i]
            if op == "flip":
                try:
                    A.flags.writeable = not A.flags.writeable
                except ValueError:  # a view of a read-only base
                    assert not A.flags.owndata
            elif op == "edit" and A.flags.writeable:
                A += 1.0
            elif op == "call":
                trusted = not A.flags.writeable and A.flags.owndata
                hit = A is kept and not A.flags.writeable
                n = len(sources)
                got = memo(A)
                assert sources[got] is A  # a value computed for A itself
                assert len(sources) == n + (not hit)  # fn ran unless hit
                kept = A if trusted else None
                assert memo.key is kept
            for B in arrays:
                assert memo.hit(B) == (B is kept and not B.flags.writeable)


class TestAllFinite:
    @pytest.mark.parametrize("fill", [0.0, 1.0, 1e200, -1e308, np.inf,
                                      -np.inf, np.nan])
    @pytest.mark.parametrize("shape", [(0,), (1,), (7, 3)])
    def test_equals_isfinite_all(self, fill, shape):
        # 1e200 and -1e308 overflow the sum of squares but are finite
        a = np.ones(shape)
        a.flat[-1:] = fill
        assert bregman._all_finite(a) == np.isfinite(a).all()


class TestSplitPool:
    """The two-worker pool that ONMF's and completion's passes split on."""

    def test_shared_calls_return_in_call_order(self, counting_pool):
        calls = [lambda i=i: i * i for i in range(5)]
        assert bregman._shared(*calls) == [0, 1, 4, 9, 16]
        assert counting_pool.submitted == 1

    def test_a_single_call_runs_here_and_submits_nothing(self,
                                                          counting_pool):
        assert bregman._shared(threading.get_ident) == [threading.get_ident()]
        assert counting_pool.submitted == 0

    def test_every_call_runs_once_under_rapid_switching(self,
                                                        counting_pool):
        # a call taken twice or never would show in the counts
        runs = [0] * 2000
        calls = [lambda i=i: runs.__setitem__(i, runs[i] + 1) or i
                 for i in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert bregman._shared(*calls) == list(range(len(runs)))
        finally:
            sys.setswitchinterval(interval)
        assert runs == [5] * len(runs)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_a_raising_call_raises_in_the_caller(self, bad, counting_pool):
        def call(i):
            if i == bad:
                raise ZeroDivisionError(i)
            return i

        with pytest.raises(ZeroDivisionError):
            bregman._shared(*(lambda i=i: call(i) for i in range(3)))
        assert counting_pool.submitted == 1

    def test_caller_runs_what_a_late_worker_has_not_taken(self, monkeypatch):
        # the only worker is busy, so every call runs on the calling thread,
        # which then cancels the helper it submitted instead of waiting
        pool = CountingExecutor(1)
        monkeypatch.setattr(bregman, "_pool", (os.getpid(), pool))
        release = threading.Event()
        busy = pool.submit(release.wait, 20)
        ran_on = []
        calls = [lambda: ran_on.append(threading.get_ident())] * 3
        t0 = time.monotonic()
        try:
            bregman._shared(*calls)
            assert time.monotonic() - t0 < 10
        finally:
            release.set()
            pool.shutdown()
        assert busy.result() is True
        assert ran_on == [threading.get_ident()] * 3
        assert pool.submitted == 2

    def test_forked_child_builds_its_own_pool(self):
        # the child inherits the parent's pool without its threads; were it
        # used, the caller would run every call and cancel the helper, so
        # the child checks the pool's pid (the alarm ends a hang)
        code = textwrap.dedent("""
            import os, signal, sys, time
            from bmme import bregman

            def work():
                time.sleep(0.1)  # the worker starts, so the child has none
                return os.getpid()

            assert bregman._shared(work, work) == [os.getpid()] * 2
            pid = os.fork()
            if pid == 0:
                signal.alarm(30)
                ok = bregman._shared(work, work) == [os.getpid()] * 2
                sys.exit(0 if ok and bregman._pool[0] == os.getpid() else 1)
            _, status = os.waitpid(pid, 0)
            sys.exit(os.waitstatus_to_exitcode(status))
        """)
        src = str(Path(bregman.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestValidators:
    def test_check_gradient_accepts_exact_gradient(self):
        rng = np.random.default_rng(1)
        err = check_gradient(lambda z: 0.5 * float(np.vdot(z, z)),
                             lambda z: z, rng.standard_normal(6), rng=rng)
        assert err < 1e-7

    def test_check_gradient_flags_wrong_gradient(self):
        rng = np.random.default_rng(1)
        err = check_gradient(lambda z: 0.5 * float(np.vdot(z, z)),
                             lambda z: 2.0 * z, rng.standard_normal(6),
                             rng=rng)
        assert err > 1e-3

    def test_relative_smoothness_report_quadratic(self):
        # f = phi = 0.5||x||^2 is (1,1)-smooth relative to itself, exactly.
        kern = quadratic_kernel()
        rng = np.random.default_rng(4)
        samples = [(rng.standard_normal(5), rng.standard_normal(5))
                   for _ in range(100)]
        worst = check_relative_smoothness(
            lambda z: 0.5 * float(np.vdot(z, z)), lambda z: z, kern,
            RelSmoothConstants(L=1.0, l=1.0), samples)
        assert worst <= 1e-9

    def test_relative_smoothness_flags_understated_L(self):
        # f = ||x||^2 has Hessian 2I; L=1 against the Euclidean kernel is a lie
        kern = quadratic_kernel()
        rng = np.random.default_rng(4)
        samples = [(rng.standard_normal(5), rng.standard_normal(5))
                   for _ in range(100)]
        def worst(L):
            return check_relative_smoothness(
                lambda z: float(np.vdot(z, z)), lambda z: 2.0 * z, kern,
                RelSmoothConstants(L=L, l=0.0), samples)

        assert worst(1.0) > 0.1
        # the violation is the upper one: the true L = 2 clears it
        assert worst(2.0) <= 1e-9

    def test_check_surrogate_zero_on_zero(self):
        rng = np.random.default_rng(5)
        anchors = [rng.standard_normal(3) for _ in range(4)]
        cands = [rng.standard_normal(3) for _ in range(4)]
        out = check_surrogate(lambda x, y: 0.0, lambda z: 0.0, anchors, cands)
        assert out == []

    def test_relative_smoothness_needs_a_sample(self):
        with pytest.raises(ValueError, match="no samples supplied"):
            check_relative_smoothness(
                lambda z: 0.0, lambda z: z, quadratic_kernel(),
                RelSmoothConstants(L=1.0, l=1.0), [])

    def test_divergence_shape_mismatch_rejected(self):
        with pytest.raises(ValueError,
                           match=r"shape mismatch: \(3,\) vs \(1, 3\)"):
            bregman_divergence(quadratic_kernel(), np.ones(3),
                               np.ones((1, 3)))

    def test_check_surrogate_skips_candidates_of_other_shapes(self):
        # u(x, y) = 0 on g = 0 holds; a candidate of another shape than the
        # anchor is neither compared nor paired for the midpoint test, where
        # evaluating it would raise
        def u(x, y):
            assert x.shape == y.shape
            return 0.0

        anchors = [np.zeros(3)]
        cands = [np.ones(3), np.ones(2), np.ones(3), np.ones((3, 1))]
        assert check_surrogate(u, lambda z: 0.0, anchors, cands) == []

    def test_check_surrogate_reports_midpoint_convexity_failure(self):
        # u(x, y) = -||x||^2 equals g = -10 ||x||^2 at y = 0 and lies above
        # it everywhere, but it is concave: at the midpoint 0 of candidates
        # x = 1 and x = -1 (each entry), u = 0 exceeds their average -2
        def u(x, y):
            return -float(np.vdot(x, x))

        def g(z):
            return -10.0 * float(np.vdot(z, z))

        out = check_surrogate(u, g, [np.zeros(2)],
                              [np.ones(2), -np.ones(2)])
        assert out == ["midpoint convexity failed at (0,0)"]

    def test_check_surrogate_flags_non_majorizer(self):
        # u(x,y) = 0 fails to majorize g(x) = ||x||_1
        rng = np.random.default_rng(5)
        anchors = [rng.standard_normal(3) for _ in range(2)]
        cands = [rng.standard_normal(3) for _ in range(3)]
        out = check_surrogate(lambda x, y: 0.0,
                              lambda z: float(np.sum(np.abs(z))),
                              anchors, cands)
        assert len(out) > 0


class TestAsMatrix:
    def test_passthrough(self):
        M = np.array([[1.0, 2.0]])
        out = as_matrix(M)
        assert out.shape == (1, 2)
        assert out.dtype == np.float64

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros(3))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_an_empty_dimension(self, shape):
        with pytest.raises(ValueError,
                           match="X must have at least one row and column"):
            as_matrix(np.zeros(shape), name="X")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(np.array([[bad, 1.0], [2.0, 3.0]]))

    @pytest.mark.parametrize("big", [1e200, -1.7e308])
    def test_accepts_entries_whose_squares_overflow(self, big):
        # the sum of squares overflows, so each entry is tested
        M = np.array([[big, 1.0], [2.0, big]])
        assert np.array_equal(as_matrix(M), M)
        assert np.array_equal(as_matrix(M.T), M.T)  # not C-contiguous
