"""Host speed probes: fixed computations timed around every measurement.

The benchmark was built on a 2-CPU x86_64 VM whose speed drifts with the
load of other guests on its host. The same 500-sweep onmf-small-verified
solve took 1.42-3.31 s within six minutes, in slow and fast phases lasting
seconds to minutes; its CPU time followed its wall time and the guest saw no
steal time. Longer runs did not help: in noisy phases, the median wall time
of the solves in 25-60 second windows spread by 0.13-0.25 of its median
(interquartile range), and that of ten 30-second runs by up to 0.31. The
minimum, lower quartile or mean of a window did no better.

So each timed set-up and solve is bracketed by two runs of a probe, and its
time is scaled by the probe's nominal time over the mean of the two probe
times. A slow phase of the host slows the probe too and cancels out, while a
change to the package moves the scaled time just as it moves the wall time:
the probes use numpy only, on arrays of their own, and no code of ``bmme``.

The host's slow phases do not slow all kinds of work alike: a probe of
Python-level loops over tiny matrices did not follow onmf-large, whose time
goes to dense passes over a 1000x2000 matrix. Each workload therefore names
the probe that does the kind of work its solve is bound by.
"""

import time

import numpy as np
from scipy.sparse import csr_matrix

clock = time.perf_counter


class Probe:
    """One probe kind, its arrays built once from a fixed seed."""

    # The median time of each probe on the 2-CPU x86_64 VM (Intel Xeon,
    # 2.1 GHz, one BLAS thread) the benchmark was built on. Scaled times are
    # seconds at that host's typical speed.
    NOMINAL_S = {"loops": 0.17, "dense": 0.16, "sparse": 0.28}

    def __init__(self, kind):
        self.kind = kind
        self.nominal_s = self.NOMINAL_S[kind]
        self._work = getattr(self, "_" + kind)
        rng = np.random.default_rng(0x5EED)
        if kind == "loops":
            self.M = rng.random((5, 5))
        elif kind == "dense":
            self.X = rng.random((1000, 2000))
            self.U = rng.random((1000, 10))
            self.V = rng.random((10, 2000))
        else:
            rows = rng.integers(0, 2000, 140_000)
            cols = rng.integers(0, 2000, 140_000)
            order = np.lexsort((cols, rows))
            self.rows, self.cols = rows[order], cols[order]
            self.values = rng.random(140_000)
            self.U = rng.random((2000, 5))
            self.V = rng.random((5, 2000))

    def _loops(self):
        """Power-iteration steps on a 5x5 matrix, as in ``spectral_norm``."""
        M = self.M
        for _ in range(18_000):
            v = np.ones(5) / np.sqrt(5.0)
            w = M.T @ (M @ v)
            float(v @ w)
            float(np.linalg.norm(w))

    def _dense(self):
        """The dense passes of ONMF sweeps over a 1000x2000 matrix: the
        objective's residual and the products of both gradients."""
        X, U, V = self.X, self.U, self.V
        for _ in range(10):
            R = X - U @ V
            float(np.vdot(R, R))
            X @ V.T
            U.T @ X

    def _sparse(self):
        """The sparse passes of completion steps on 140,000 observed entries:
        residuals four times, then a gradient through a CSR matrix."""
        U, V = self.U, self.V
        for _ in range(8):
            for _ in range(4):
                res = np.einsum("ij,ij->i", U[self.rows], V[:, self.cols].T) - self.values
                float(res @ res)
            R = csr_matrix((res, (self.rows, self.cols)), shape=(2000, 2000))
            np.vstack([R @ V.T, R.T @ U])

    def time(self):
        """Seconds one run of the probe takes now."""
        t0 = clock()
        self._work()
        return clock() - t0


class Scaler:
    """Scale factors for the intervals between consecutive probes."""

    def __init__(self, probe):
        self.probe = probe
        probe.time()  # the first run pays for page faults and lazy set-up
        self.probe_s = [probe.time()]

    def next(self):
        """Probe again. Return the factors for the interval just ended: the
        nominal probe time over the mean of the probes at its two ends, and
        over the probe at its start alone."""
        self.probe_s.append(self.probe.time())
        before, after = self.probe_s[-2:]
        nominal = self.probe.nominal_s
        return nominal / ((before + after) / 2), nominal / before
