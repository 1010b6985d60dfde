"""Span tracer for the benchmark's traced runs.

The runtime has no tracing of its own yet, so the benchmark records spans
from its own files: :meth:`Tracer.patch` swaps a public function or method
for a timing wrapper and :meth:`Tracer.uninstall` puts every original
back.  A span records its name, start, end, parent span, thread and an
optional job/array id.  Self time (a span's duration minus the time its
child spans cover) is accumulated per name as spans close, so the layer
table is exact even when the span list is capped.

Spans stay in memory and are written when the run ends, as Chrome
trace-event JSON (open it in Perfetto or ``chrome://tracing``) plus a
plain-text per-layer self-time table.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: spans kept for the Chrome trace; later spans still count in the
#: self-time table, only their trace records are dropped
MAX_SPANS = 200_000


class _ThreadState:
    def __init__(self, tid: int):
        self.tid = tid
        self.stack: List[list] = []      # [name, start, child_seconds, id]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)


class Tracer:
    """In-memory span recorder with install/uninstall of timing wrappers."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._patches: List[tuple] = []
        #: (name, start, end, span id, parent id, thread id, job/array id)
        self.spans: List[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self.origin = time.perf_counter()
        #: cleared by uninstall: later patch() calls are ignored
        self.active = True

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def span(self, name: str, fn: Callable, args, kwargs, ident=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        state = self._state()
        stack = state.stack
        parent = stack[-1][3] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, span_id]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            state.self_s[name] += duration - frame[2]
            state.total_s[name] += duration
            state.calls[name] += 1
            if stack:
                stack[-1][2] += duration
            with self._lock:
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((name, frame[1], end, span_id,
                                       parent, state.tid, ident))
                else:
                    self.dropped += 1

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def patch(self, owner, attr: str, name, ident: Optional[Callable] = None,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (a class or module attribute) in a span.

        ``name`` is the span name, or a callable ``name(args)`` choosing it
        per call.  ``ident(args)`` gives the span's job/array id.
        ``before(args)`` runs first and returns a token;
        ``after(args, result, token, seconds)`` runs once the call returns
        normally.  Static methods stay static.  Idempotent per
        ``(owner, attr)``.
        """
        if not self.active or any(o is owner and a == attr
                                  for o, a, _, _ in self._patches):
            return
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span_ident = ident(args) if ident is not None else None
            if before is None and after is None:
                return tracer.span(span_name, fn, args, kwargs, span_ident)
            token = before(args) if before is not None else None
            start = time.perf_counter()
            result = tracer.span(span_name, fn, args, kwargs, span_ident)
            if after is not None:
                after(args, result, token, time.perf_counter() - start)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, raw, own))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.active = False
        for owner, attr, raw, own in reversed(self._patches):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def _merged(self, field: str) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for key, value in getattr(state, field).items():
                out[key] += value
        return out

    def self_seconds(self) -> Dict[str, float]:
        """Span name -> summed self time (children excluded)."""
        return self._merged("self_s")

    def total_seconds(self) -> Dict[str, float]:
        """Span name -> summed inclusive time."""
        return self._merged("total_s")

    def calls(self) -> Dict[str, int]:
        """Span name -> number of spans closed."""
        return self._merged("calls")

    def write(self, trace_path: str, table_path: str) -> None:
        """Write the Chrome trace-event JSON and the self-time table."""
        events = []
        for name, start, end, span_id, parent, tid, ident in self.spans:
            args = {"span": span_id, "parent": parent}
            if ident is not None:
                args["id"] = ident
            events.append({"name": name, "cat": name.rsplit(".", 1)[0],
                           "ph": "X", "pid": 0, "tid": tid,
                           "ts": (start - self.origin) * 1e6,
                           "dur": (end - start) * 1e6, "args": args})
        with open(trace_path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": self.dropped}}, fh)
        self_s, total_s, calls = (self.self_seconds(), self.total_seconds(),
                                  self.calls())
        lines = [f"{'span':<44}{'calls':>10}{'self_s':>12}{'total_s':>12}"]
        for key in sorted(self_s, key=self_s.get, reverse=True):
            lines.append(f"{key:<44}{calls[key]:>10}{self_s[key]:>12.4f}"
                         f"{total_s[key]:>12.4f}")
        with open(table_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
