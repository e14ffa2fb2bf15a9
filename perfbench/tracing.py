"""In-memory spans around calls into the spectop modules.

A span is ``[name, start, end, parent]``: ``start``/``end`` are
``time.perf_counter()`` seconds and ``parent`` is the index of the
enclosing span in the same list, or -1 for a root.  Spans of one request
or one benchmark pass hang under a single root span, whose index is the
shared identifier.  Nothing is written until :meth:`Tracer.dump`.

Wrapping is done from the benchmark's side only: :meth:`Tracer.patch`
replaces a module or class attribute with a recording wrapper and
:meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable

SCHEMA = "spectop-perfbench-trace/1"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner: object, attr: str, name: str | Callable[..., str]) -> None:
        """Route calls of ``owner.attr`` through a span.  ``name`` may be a
        function of the call's arguments, to split one function into
        several spans.  A missing attribute raises AttributeError: the
        layer has moved, and the benchmark must follow it rather than
        report zero time for it."""
        if not hasattr(owner, attr):
            raise AttributeError(f"cannot trace {name if isinstance(name, str) else attr}: "
                                 f"{getattr(owner, '__name__', owner)!s} has no attribute {attr!r}")
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def total(self, name: str) -> float:
        """Seconds spent under spans called ``name``, outermost ones only."""
        names = [s[0] for s in self.spans]
        out = 0.0
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                out += s[2] - s[1]
        return out

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus their direct children."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == name}
        for s in self.spans:
            if s[3] in own:
                own[s[3]] -= s[2] - s[1]
        return sum(own.values())

    def dump(self, path: str, **header) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"schema": SCHEMA, **header,
                       "span_fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, handle)
