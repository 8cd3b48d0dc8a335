"""In-memory spans recorded around calls into the library's layers.

The benchmark times layers from its own files: :class:`TracedBackend` wraps
the engine backend that :func:`repro.engine.dimtree.resolve_ttmc_backend`
returns and times each hook the engine calls, and the engine's own
``cancel_check`` / ``callback`` seams mark sweep boundaries.  Spans stay in
memory until :meth:`SpanRecorder.chrome_trace` writes them as Chrome
trace-event JSON (``chrome://tracing``, https://ui.perfetto.dev).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed interval; ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: Optional[int] = None
    track: str = "main"
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    covered = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for a, b in clipped:
        if cur_start is None or a > cur_end:
            if cur_start is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_start is not None:
        covered += cur_end - cur_start
    return covered


class SpanRecorder:
    """Collects spans; a stack of open spans supplies each new span's parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    def begin(self, name: str, *, track: str = "main", **args) -> int:
        parent = self._open[-1] if self._open else None
        now = time.perf_counter()
        self.spans.append(Span(name, now, now, parent, track, dict(args)))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> Span:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._open.pop()
        span = self.spans[index]
        span.end = time.perf_counter()
        return span

    @contextmanager
    def span(self, name: str, **args) -> Iterator[int]:
        index = self.begin(name, **args)
        try:
            yield index
        finally:
            self.end(index)

    def add(self, name: str, start: float, end: float, *, parent: Optional[int] = None,
            track: str = "main", **args) -> int:
        """Record an interval measured elsewhere (e.g. one served request)."""
        self.spans.append(Span(name, start, end, parent, track, dict(args)))
        return len(self.spans) - 1

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(index)
        return kids

    def self_times(self) -> List[float]:
        """Each span's duration minus the part of it its children cover."""
        kids = self.children()
        out = []
        for index, span in enumerate(self.spans):
            child_iv = [(self.spans[k].start, self.spans[k].end) for k in kids.get(index, [])]
            out.append(span.duration - covered_length(child_iv, span.start, span.end))
        return out

    def chrome_trace(self, *, process_name: str) -> dict:
        """The spans as Chrome trace-event JSON (complete ``"X"`` events, µs)."""
        origin = min((s.start for s in self.spans), default=0.0)
        tracks: Dict[str, int] = {}
        events = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": process_name},
        }]
        for span, self_s in zip(self.spans, self.self_times()):
            tid = tracks.setdefault(span.track, len(tracks) + 1)
            args = dict(span.args)
            args["self_us"] = round(self_s * 1e6, 3)
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": tid,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": args,
            })
        for track, tid in tracks.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": track},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class TracedBackend:
    """Times every hook the engine calls on the wrapped backend.

    Under the caller's run span they nest as setup → {prepare_tensor,
    initial_factors, prepare, tensor_norm}, then sweep → {ttmc → pool.ttmc,
    trsvd → pool.write_factor, core, fit} per sweep, then finalize.  After
    ``prepare`` the live process pool's ``ttmc`` and
    ``write_factor`` (when the backend has one) are wrapped as well, so the
    dispatch shows up as a child of the engine's TTMc step.  Sweep spans open
    at the engine's sweep-boundary ``cancel_check`` (every ``order + 1``-th
    call) and close at its ``callback``; use :meth:`cancel_check` and
    :meth:`callback` as the run's seams.
    """

    def __init__(self, inner, recorder: SpanRecorder, order: int) -> None:
        self._inner = inner
        self._rec = recorder
        self._order = order
        self._checks = 0
        self._setup: Optional[int] = None
        self._sweep: Optional[int] = None
        self._core_end: Optional[float] = None

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _timed(self, name: str, fn, *args, **span_args):
        with self._rec.span(name, **span_args):
            return fn(*args)

    # -- run-level seams ------------------------------------------------ #
    def open_setup(self) -> None:
        self._setup = self._rec.begin("setup")

    def cancel_check(self) -> None:
        if self._checks % (self._order + 1) == 0:
            if self._setup is not None:
                self._rec.end(self._setup)
                self._setup = None
            self._sweep = self._rec.begin("sweep", sweep=self._checks // (self._order + 1))
        self._checks += 1

    def callback(self, iteration: int, fit: float) -> None:
        if self._core_end is not None:
            self._rec.add("fit", self._core_end, time.perf_counter(), parent=self._sweep)
            self._core_end = None
        self._rec.end(self._sweep)
        self._sweep = None

    # -- backend hooks -------------------------------------------------- #
    def prepare_tensor(self, eng):
        return self._timed("prepare_tensor", self._inner.prepare_tensor, eng)

    def initial_factors(self, eng):
        return self._timed("initial_factors", self._inner.initial_factors, eng)

    def prepare(self, eng):
        self._timed("prepare", self._inner.prepare, eng)
        pool = getattr(self._inner, "pool", None)
        if pool is not None:
            ttmc, write_factor = pool.ttmc, pool.write_factor
            pool.ttmc = lambda mode, **kw: self._timed(
                "pool.ttmc", lambda: ttmc(mode, **kw), mode=mode)
            pool.write_factor = lambda mode, array, **kw: self._timed(
                "pool.write_factor", lambda: write_factor(mode, array, **kw), mode=mode)

    def tensor_norm(self, eng):
        return self._timed("tensor_norm", self._inner.tensor_norm, eng)

    def compute_ttmc(self, eng, mode):
        return self._timed("ttmc", self._inner.compute_ttmc, eng, mode, mode=mode)

    def update_factor(self, eng, mode, y_mat):
        return self._timed("trsvd", self._inner.update_factor, eng, mode, y_mat, mode=mode)

    def form_core(self, eng, last_ttmc):
        core = self._timed("core", self._inner.form_core, eng, last_ttmc)
        self._core_end = time.perf_counter()
        return core

    def finalize(self, eng):
        return self._timed("finalize", self._inner.finalize, eng)
