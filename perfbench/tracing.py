"""Benchmark-side spans: wrappers around the program's public calls.

The program is not edited.  A traced pass installs wrappers on module
and class attributes, records one span per wrapped call in memory, and
removes the wrappers afterwards, so untraced passes run the program
untouched.  A span opened on another thread that has none open hangs
under ``Tracer.anchor`` (the corpus driver runs each binary on its own
thread).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, NamedTuple

#: The root span of one timed operation; its self time is the
#: operation's ``unattributed_s``.
ROOT_SPAN = "op"


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    start: float
    end: float


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: values recorded by wrapper hooks, summed per name
        self.counts: dict[str, float] = defaultdict(float)
        self._count_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        #: parent of the outermost spans of threads other than the owner
        self.anchor: int | None = None
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: attributes that were not there to wrap (renamed or removed)
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._count_lock:
            self.counts[name] += value

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = None if stack is self._owner_stack else self.anchor
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, parent, start, end))

    def wrap(self, owner: Any, attr: str,
             name: str | Callable[[tuple], str],
             hook: Callable[["Tracer", Any], None] | None = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` may be a function of the call's positional arguments;
        ``hook`` sees each return value.
        """
        orig = vars(owner).get(attr)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        is_cm = isinstance(orig, classmethod)
        fn = orig.__func__ if is_cm else orig

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            with self.span(label):
                try:
                    out = fn(*args, **kwargs)
                except Exception:
                    self.count(label + ".errors")
                    raise
            if hook is not None:
                hook(self, out)
            return out

        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float
            ) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part its children cover."""
    children: dict[int | None, list[tuple[float, float]]] = \
        defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - covered(children[s.id], s.start, s.end) for s in spans}


def span_metrics(spans: list[Span]) -> tuple[dict[str, float], float, float]:
    """Self time per metric name for one traced pass, the wall its
    root spans (one per timed operation) cover, and how far the
    top-level spans plus ``unattributed_s`` miss that wall."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out["unattributed_s" if s.name == ROOT_SPAN else s.name + "_s"] += \
            own[s.id]
    roots = {s.id for s in spans if s.parent is None}
    wall = sum(s.end - s.start for s in spans if s.id in roots)
    top = sum(s.end - s.start for s in spans if s.parent in roots)
    return dict(out), wall, wall - top - sum(own[r] for r in roots)


def pass_layers(tracer: Tracer) -> tuple[dict[str, float], float, float]:
    """:func:`span_metrics` of a traced pass plus the counts the
    :func:`wrap_core` hooks recorded."""
    values, wall, gap = span_metrics(tracer.spans)
    values["runtime.shm.bytes"] = tracer.counts["runtime.shm.bytes"]
    values["runtime.shm.fallback"] = \
        tracer.counts["runtime.shm.publish.errors"]
    return values, wall, gap


def wrap_core(tracer: Tracer) -> None:
    """Spans inside ``parse_binary``, on every backend."""
    import repro.core.parallel_parser as parallel_parser
    import repro.core.shard_merge as shard_merge
    from repro.core.noreturn import NoReturnState
    from repro.runtime.shm import ImageSegment

    def published(tr: Tracer, segment) -> None:
        tr.count("runtime.shm.bytes", segment.size)

    tracer.wrap(parallel_parser, "finalize", "core.finalize")
    tracer.wrap(shard_merge, "finalize", "core.finalize")
    tracer.wrap(NoReturnState, "resolve_wave", "core.noreturn.wave")
    tracer.wrap(ImageSegment, "create", "runtime.shm.publish",
                hook=published)
