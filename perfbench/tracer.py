"""In-memory span tracer used only by the traced benchmark run.

Each span records an id, its parent's id, the operation it belongs to, a
layer name such as ``dsp.stft``, and its start and end on the
``perf_counter`` clock.  Spans stay in memory while the run lasts and are
written out once, when it ends.

Spans come from the benchmark's own files: :meth:`Tracer.installed` swaps
each name a calling module imported (``nnmm.enhancer.speech_dominance``,
``nnmm.cli.stft``, ...) for a timing wrapper and puts the original back on
exit.  A name that no longer exists is skipped and reported, so its layer
reads as 0 calls instead of breaking the run after a refactor.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float


@dataclass(frozen=True)
class Wrap:
    """Replace ``module.attr`` with a span named ``layer``.

    ``on_result`` sees each return value, for counts that only the result
    carries (frames analysed, fallback counters).
    """

    module: str
    attr: str
    layer: str
    on_result: Callable | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self.missing: list[str] = []
        self.notes: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        self._stack: list[tuple[int, str, float]] = []
        self._next_id = 0

    def begin_op(self) -> int:
        self.op += 1
        return self.op

    def note(self, name: str, value) -> None:
        """Keep a value the current operation produced, for per-op totals."""
        self.notes[self.op][name].append(value)

    def begin(self, name: str) -> None:
        self._stack.append((self._next_id, name, self.clock()))
        self._next_id += 1

    def end(self) -> None:
        end = self.clock()
        sid, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(sid, parent, self.op, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def _wrapper(self, fn, w: Wrap):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(w.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if w.on_result is not None:
                w.on_result(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, wraps: list[Wrap]):
        """Wrap every name in ``wraps`` for the duration of the block."""
        saved = []
        try:
            for w in wraps:
                try:
                    module = importlib.import_module(w.module)
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, w.attr, None)
                if original is None:
                    if f"{w.module}.{w.attr}" not in self.missing:
                        self.missing.append(f"{w.module}.{w.attr}")
                    continue
                saved.append((module, w.attr, original))
                setattr(module, w.attr, self._wrapper(original, w))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        """All spans as gzip'd TSV: id, parent, op, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.id}\t{parent}\t{s.op}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end)
        for s in spans
    }


def per_op_layers(spans: list[Span]) -> dict[int, dict[str, tuple[float, int]]]:
    """op -> layer -> (summed self time in seconds, call count)."""
    selfs = self_times(spans)
    out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
    for s in spans:
        acc = out[s.op][s.name]
        acc[0] += selfs[s.id]
        acc[1] += 1
    return {op: {name: (v[0], v[1]) for name, v in layers.items()} for op, layers in out.items()}


def median_over_ops(layers: dict[int, dict[str, tuple[float, int]]], ops, name: str):
    """Median self ms and median calls of one layer over the given ops."""
    ms = [1e3 * layers.get(op, {}).get(name, (0.0, 0))[0] for op in ops]
    calls = [layers.get(op, {}).get(name, (0.0, 0))[1] for op in ops]
    if not ops:
        return 0.0, 0
    return statistics.median(ms), statistics.median(calls)
