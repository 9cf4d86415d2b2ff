"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and an end (``time.perf_counter`` seconds) and
a parent: the span that was open when it started, -1 at the top.  Spans
are kept in parallel lists while the run goes and written out once, at
the end.  The self time of a span is its duration minus the durations of
its direct children; calls are sequential in one thread, so the children
never overlap and their sum is the time they cover.

Spans come from the benchmark's own files: :meth:`Tracer.patch` swaps a
public function for a timing wrapper in every ``squeezesim`` module that
binds it, and :meth:`Tracer.restore` puts the originals back.  Nothing
under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def patch(self, module, attr: str) -> None:
        """Time ``module.attr`` as ``<module>.<attr>`` wherever squeezesim binds it."""
        original = getattr(module, attr)
        traced = self.wrap(f"{module.__name__.split('.')[-1]}.{attr}", original)
        owners = [module] + [
            m for key, m in list(sys.modules.items())
            if key.startswith("squeezesim") and m is not module and m is not None
        ]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, traced)
                    self._patches.append((owner, key, original))

    def patch_numpy(self) -> None:
        """Time the generator's ``standard_normal`` and ``numpy.fft.rfft``.

        ``default_rng`` is replaced by a factory whose generators delegate
        to the real ones, so every draw, and hence every output, is
        unchanged.
        """
        import numpy as np

        make_rng = np.random.default_rng
        tracer = self

        def default_rng(*args, **kwargs):
            return _TracedGenerator(tracer, make_rng(*args, **kwargs))

        self._patches.append((np.random, "default_rng", make_rng))
        np.random.default_rng = default_rng
        rfft = np.fft.rfft
        self._patches.append((np.fft, "rfft", rfft))
        np.fft.rfft = self.wrap("numpy.rfft", rfft)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return dict(out)

    def children_of(self, parent_name: str, child_name: str) -> float:
        """Seconds spent in ``child_name`` spans directly under ``parent_name``."""
        return sum(
            self.ends[i] - self.starts[i]
            for i, name in enumerate(self.names)
            if name == child_name
            and self.parents[i] >= 0
            and self.names[self.parents[i]] == parent_name
        )

    def durations(self, name: str) -> list[float]:
        return [
            self.ends[i] - self.starts[i] for i, n in enumerate(self.names) if n == name
        ]

    def dump(self, path) -> None:
        """Write every span as columns: names table, name index, start, end, parent."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        payload = {
            "names": table,
            "name": [index[n] for n in self.names],
            "start_s": [round(s - t0, 9) for s in self.starts],
            "end_s": [round(e - t0, 9) for e in self.ends],
            "parent": self.parents,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._index = -1

    def __enter__(self):
        self._index = self._tracer._open(self._name)
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._index)
        return False


class _TracedGenerator:
    def __init__(self, tracer: Tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def standard_normal(self, *args, **kwargs):
        index = self._tracer._open("numpy.standard_normal")
        try:
            return self._generator.standard_normal(*args, **kwargs)
        finally:
            self._tracer._close(index)

    def __getattr__(self, attr):
        return getattr(self._generator, attr)
