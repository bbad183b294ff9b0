"""In-memory spans around calls into qellip, used by the traced run only.

Spans are recorded by wrappers that replace chosen public functions in
every loaded ``qellip`` module for the duration of one traced operation,
so a call made inside the library (``cli.main`` calling ``simulate_counts``,
which calls ``expected_counts``) is caught at its layer boundary without
any change to the library. Untraced operations run the library untouched.
"""

import functools
import sys
import time
from contextlib import contextmanager

from stats import remainder


class Span:
    __slots__ = ("name", "parent", "start", "end", "count")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent  # index of the enclosing span in the same op, or None
        self.start = self.end = 0.0
        self.count = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans grouped by operation index; all spans of one op share that id.

    `targets` lists (module name, function name, span name, count function
    or None). The count function maps the call's result to a work count
    recorded on the span, such as bytes written or rows parsed.
    """

    def __init__(self, targets):
        self.ops = {}
        self._spans = None
        self._stack = []
        self._wrappers = {}
        for module, attr, name, count in targets:
            original = getattr(sys.modules[module], attr)
            self._wrappers[id(original)] = (original, self._wrap(original, name, count))

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self._spans
            span = Span(name, self._stack[-1] if self._stack else None)
            spans.append(span)
            self._stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.count = count(result)
            return result

        return wrapper

    @contextmanager
    def recording(self, op: int):
        """Route every binding of a target function through its wrapper
        while operation `op` runs, then restore the originals."""
        self._spans = self.ops[op] = []
        patched = []
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "qellip" or mod_name.startswith("qellip.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(mod, attr, entry[1])
                        patched.append((mod, attr, value))
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)
            self._spans = None
            self._stack.clear()

    def busy(self, op: int, name: str) -> float:
        return sum(s.duration for s in self.ops[op] if s.name == name)

    def count(self, op: int, name: str) -> float:
        return sum(s.count for s in self.ops[op] if s.name == name and s.count is not None)

    def self_times(self, op: int, name: str) -> list:
        """Per `name` span, in call order: its duration minus what its
        direct children cover."""
        spans = self.ops[op]
        return [remainder(span.duration, [s.duration for s in spans if s.parent == idx])
                for idx, span in enumerate(spans) if span.name == name]

    def self_time(self, op: int, name: str) -> float:
        return sum(self.self_times(op, name))
