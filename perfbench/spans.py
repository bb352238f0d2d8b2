"""Spans recorded from outside the package, around the calls into each layer.

A span is one call of a wrapped callable: its name, start, end and the span
that was open when it began (its parent). Spans live in memory for one solve
and are folded into per-name totals by :meth:`Spans.summary`.
"""

import contextlib
import time
from collections import defaultdict


class Spans:
    """In-memory span recorder for one single-threaded solve."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open)
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()

        return wrapped

    def summary(self):
        """Per-name call counts, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children. Returns ``{name: (calls, inclusive_s, self_s)}``.
        """
        if self._open:
            raise RuntimeError("summary taken while spans are still open")
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        excl = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            incl[name] += dur[i]
            excl[name] += dur[i] - child[i]
        return {n: (calls[n], incl[n], excl[n]) for n in calls}


@contextlib.contextmanager
def patched(spans, targets):
    """Replace module attributes by span-recording wrappers, then restore them.

    ``targets`` holds ``(module, attribute, span_name)`` triples. Only
    attributes the package looks up at call time are worth patching.
    """
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, name in targets:
            setattr(mod, attr, spans.wrap(name, getattr(mod, attr)))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
