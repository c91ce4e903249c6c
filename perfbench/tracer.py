"""An in-memory call tracer that wraps a program's functions from outside.

Each wrapped call is a span.  Spans are aggregated as they close, per
function name: calls, inclusive time (outermost spans only, so recursion
is not counted twice), self time (the span minus the time its child spans
cover) and, where a counter is given, items produced.  Scopes count calls
made anywhere inside a chosen span, such as engine applies inside the win
checker.  While `enabled` is false the stand-ins call straight through and
record nothing.

A function is wrapped in every module that holds it: a name imported
with ``from x import f`` is a separate binding, so patching only the
defining module would miss the calls made through the others.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class _Stat:
    __slots__ = ("calls", "total", "self", "items", "open")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.items = 0
        self.open = 0


class Tracer:
    def __init__(self, clock=time.perf_counter, scopes=()):
        self.clock = clock
        self.enabled = True
        self.stats: dict[str, _Stat] = {}
        self.scoped: dict[str, dict[str, int]] = {s: {} for s in scopes}
        self._stack: list[list] = []  # [name, start, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _count_call(self, name: str) -> None:
        self._stat(name).calls += 1
        for scope, counts in self.scoped.items():
            if self._stat(scope).open:
                counts[name] = counts.get(name, 0) + 1

    def _enter(self, name: str) -> list:
        self._stat(name).open += 1
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, child = frame
        dur = end - start
        st = self.stats[name]
        st.open -= 1
        if st.open == 0:
            st.total += dur
        st.self += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str, count=None):
        """A traced stand-in for fn; count(result) gives items produced.

        A generator function is timed over each resumption, and each item
        it yields counts as one item.
        """
        if inspect.isgeneratorfunction(fn):
            def resume(inner):
                while True:
                    frame = self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame)
                    self.stats[name].items += 1
                    yield item

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                self._count_call(name)
                return resume(fn(*args, **kwargs))

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._count_call(name)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if count is not None:
                self.stats[name].items += count(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr, and every module-level binding of the same
        function object, with a traced stand-in."""
        original = vars(owner)[attr]
        wrapper = self.wrap(original, name, count)
        holders = [owner] + [m for m in list(sys.modules.values())
                             if m is not None and m is not owner]
        for holder in holders:
            try:
                names = [k for k, v in vars(holder).items() if v is original]
            except TypeError:
                continue
            for key in names:
                self._patches.append((holder, key, original))
                setattr(holder, key, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)
