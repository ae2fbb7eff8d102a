"""Spans around the program's public functions, installed from outside.

The traced run wraps each layer's public entry points (attributes of
``repro`` classes, or of one program object) with a recorder.  Each call
becomes a span ``(id, layer, start, end, parent, tag)`` kept in a
per-thread list; the parent is the innermost wrapped call still open on
the same thread, and the tag is the epoch or request the workload is
working on.  Nothing is written until the run ends.
:meth:`Tracer.uninstall` puts every original attribute back, so later
untraced work in the same process runs the program exactly as shipped.

Wrappers record only between :meth:`Tracer.start` and :meth:`Tracer.stop`,
so they can be installed before a server binds its handlers.  A tracer
can be started and stopped many times; its wall time sums the recorded
intervals only.  Single-thread workloads record just the program's own
work (see :func:`recording`) and leave the benchmark's per-epoch work
(input generation, garbage-collection settles, the reference kernel,
output checks) unrecorded, so shares are of the program's time.

A layer's *self time* is its spans' duration minus the time their child
spans cover.  Self times of all spans on a thread partition the time
covered by that thread's root spans, so per-layer self shares plus the
unattributed remainder add up to the traced wall time of each thread.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class _ThreadSpans:
    __slots__ = ("name", "stack", "spans", "flags", "tag")

    def __init__(self) -> None:
        self.name = threading.current_thread().name
        self.stack: List[int] = []
        self.spans: List[tuple] = []
        self.flags: Dict[str, object] = {}
        self.tag: object = None


class Tracer:
    """Install span wrappers; collect spans and counts; uninstall."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._patches: List[tuple] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, list] = defaultdict(list)
        self.recording = False
        self.wall = 0.0
        self._since = 0.0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def thread(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadSpans()
            with self._lock:
                self._threads.append(state)
        return state

    def add(self, name: str, amount: float = 1) -> None:
        """Add to a count; wrappers on several threads share counts."""
        with self._lock:
            self.counts[name] += amount

    def set_tag(self, tag) -> None:
        """Tag the calling thread's next spans (an epoch index)."""
        self.thread().tag = tag

    def _open(self, state: _ThreadSpans):
        sid = next(self._ids)
        parent = state.stack[-1] if state.stack else 0
        state.stack.append(sid)
        return sid, parent, _clock()

    def _close(self, state: _ThreadSpans, sid: int, parent: int,
               layer: str, start: float) -> None:
        end = _clock()
        stack = state.stack
        if stack and stack[-1] == sid:
            stack.pop()
        else:  # an async span closed out of order
            stack.remove(sid)
        state.spans.append((sid, layer, start, end, parent, state.tag))

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, layer: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Span every call of ``owner.attr`` as ``layer``.

        ``before(args, kwargs)`` runs before the span opens and its
        result is handed to ``after(pre, args, kwargs, result)``, which
        runs after the span closed; both keep counts, not time.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            pre = before(args, kwargs) if before is not None else None
            state = tracer.thread()
            sid, parent, start = tracer._open(state)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(state, sid, parent, layer, start)
            if after is not None:
                after(pre, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        self._patch(owner, attr,
                    classmethod(traced) if is_classmethod else traced)

    def wrap_async(self, owner, attr: str, layer: str) -> None:
        """Span a coroutine method from its first step to its return.

        Each call is one request: it and the synchronous calls it makes
        are tagged with a fresh request id.  The span stays on the
        thread's stack across awaits, so those calls are its children;
        the client keeps one request in flight at a time, so these spans
        never interleave.
        """
        fn = owner.__dict__[attr]
        tracer = self

        async def traced(*args, **kwargs):
            if not tracer.recording:
                return await fn(*args, **kwargs)
            state = tracer.thread()
            state.tag = f"request-{next(tracer._requests)}"
            sid, parent, start = tracer._open(state)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._close(state, sid, parent, layer, start)

        traced.__wrapped__ = fn
        self._patch(owner, attr, traced)

    def count_calls(self, owner, attr: str,
                    after: Callable) -> None:
        """Observe results of ``owner.attr`` without a span."""
        fn = owner.__dict__[attr]
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.recording:
                after(args, kwargs, result)
            return result

        counted.__wrapped__ = fn
        self._patch(owner, attr, counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Begin or resume recording; wrappers installed earlier pass
        calls straight through until now."""
        self._since = _clock()
        self.recording = True

    def stop(self) -> None:
        """Pause recording and add the interval to :attr:`wall`."""
        self.recording = False
        self.wall += _clock() - self._since

    def threads(self) -> List[_ThreadSpans]:
        with self._lock:
            return [t for t in self._threads if t.spans]

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time, summed over every thread."""
        out: Dict[str, float] = defaultdict(float)
        for state in self.threads():
            child_time: Dict[int, float] = defaultdict(float)
            for sid, layer, start, end, parent, _tag in state.spans:
                if parent:
                    child_time[parent] += end - start
            for sid, layer, start, end, parent, _tag in state.spans:
                out[layer] += (end - start) - child_time.get(sid, 0.0)
        return dict(out)

    def root_time(self) -> float:
        """Time covered by root spans, summed over threads."""
        return sum(end - start
                   for state in self.threads()
                   for _sid, _layer, start, end, parent, _tag in state.spans
                   if not parent)

    def durations(self, layer: str) -> List[float]:
        return [end - start for state in self.threads()
                for _sid, name, start, end, _parent, _tag in state.spans
                if name == layer]

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (written once, at the end)."""
        with open(path, "w", encoding="utf-8") as out:
            for state in self.threads():
                for sid, layer, start, end, parent, tag in state.spans:
                    out.write(json.dumps({
                        "thread": state.name, "id": sid, "name": layer,
                        "start": start, "end": end, "parent": parent,
                        "tag": tag}) + "\n")


@contextmanager
def recording(tracer: Optional[Tracer], tag=None):
    """Record spans inside the block only, tagged ``tag``: wrap the
    program's own work in it.  Does nothing when ``tracer`` is None."""
    if tracer is None:
        yield
        return
    tracer.set_tag(tag)
    tracer.start()
    try:
        yield
    finally:
        tracer.stop()
