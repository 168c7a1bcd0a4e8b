"""In-memory spans around calls into each layer, recorded from outside.

A :class:`Recorder` wraps bound methods of *live instances* (an instance
attribute shadows the class method, so no source file is edited and other
instances are untouched).  Each wrapped call records one span
``(name, start, end, parent)``; synchronous spans nest on a stack, and a
name's *self time* is its spans' duration minus the part covered by nested
wrapped calls, so self times of different names never overlap and their
sum plus the unattributed rest equals the wall time of the section.

Coroutine methods that suspend (``submit``, ``sleep_ticks``) interleave
with everything else on the loop, so their spans are recorded flat — count
and wall extent only, no parent, no self time.

Untraced runs construct no recorder and install no wrapper.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int]  # name, start, end, parent id or -1


class Recorder:
    """Spans, call counts and self times of one traced repetition."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Optional[Span]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = defaultdict(float)  # hook counters
        self._stack: List[List[Any]] = []  # [span index, child seconds]

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording synchronous wrapper.

        ``after(result)`` runs outside the span (its cost is the
        tracer's, not the layer's)."""
        setattr(obj, attr, self.traced(name, getattr(obj, attr), after))

    def traced(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        spans, stack, now = self.spans, self._stack, time.perf_counter
        calls, self_s = self.calls, self.self_s

        def wrapped(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                parent = -1
                if stack:
                    top = stack[-1]
                    top[1] += duration
                    parent = top[0]
                spans[index] = (name, start, end, parent)
                calls[name] += 1
                self_s[name] += duration - frame[1]
            if after is not None:
                after(result)
            return result

        return wrapped

    def wrap_coroutine(
        self,
        obj: Any,
        attr: str,
        name: str,
        nests: bool = False,
        on_done: Optional[Callable[[tuple, float], None]] = None,
    ) -> None:
        """Shadow the coroutine method ``obj.attr``.

        ``nests=True`` is for coroutines that never suspend (``read``):
        they run to completion inside one ``await`` and take part in the
        synchronous stack.  Otherwise the span is flat, and
        ``on_done(args, seconds)`` sees each completed await."""
        fn = getattr(obj, attr)
        spans, now, calls = self.spans, time.perf_counter, self.calls
        if nests:
            inner = self.traced(name, _run_unsuspended)

            async def wrapped_sync(*args, **kwargs):
                return inner(fn(*args, **kwargs))

            setattr(obj, attr, wrapped_sync)
            return

        async def wrapped(*args, **kwargs):
            start = now()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = now()
                spans.append((name, start, end, -1))
                calls[name] += 1
            if on_done is not None:
                on_done(args, end - start)
            return result

        setattr(obj, attr, wrapped)

    # -- results -------------------------------------------------------

    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def write_jsonl(self, handle) -> None:
        for index, span in enumerate(self.spans):
            if span is None:  # a call still open when the section ended
                continue
            name, start, end, parent = span
            handle.write(
                json.dumps(
                    {
                        "workload": self.workload,
                        "id": index,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                    }
                )
                + "\n"
            )


def _run_unsuspended(coro):
    """Drive a coroutine that must finish without yielding to the loop."""
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise RuntimeError("traced coroutine suspended; record it flat instead")
