"""Per-layer timing and counting from outside the program.

The tracer replaces public functions in imsk's module namespaces, and
swaps the class of chosen layer objects for a subclass whose __call__ is
timed, so no program file changes. Wrappers only add time and counts to a
table; they pass arguments and results through untouched, and with the
tracer disabled they time nothing. Times are inclusive: a span nested in
another is counted in both, except where a wrapper names the spans it
must not be counted inside (extract_mfcc runs extract_logmel internally).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.enabled = False
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[str] = []
        self._undo: list = []

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    @contextmanager
    def _timed(self, name: str):
        self._open.append(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - started
            self._open.pop()

    def span(self, name: str):
        """Context manager timing a block of the benchmark's own code."""
        return self._timed(name) if self.enabled else nullcontext()

    def _active(self, skip_inside) -> bool:
        return self.enabled and not any(s in self._open for s in skip_inside)

    def wrap(self, owner, attr: str, name: str, on_result=None, skip_inside=()):
        """Time every call of owner.attr as span `name`.

        on_result(tracer, args, kwargs, result) may add counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._active(skip_inside):
                return original(*args, **kwargs)
            with tracer._timed(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append(lambda: setattr(owner, attr, original))

    def wrap_object(self, obj, name: str) -> None:
        """Time every call of one layer object, leaving its class's other
        instances and its parameters as they are."""
        cls = type(obj)
        tracer = self

        def __call__(self_, *args, **kwargs):
            if not tracer.enabled:
                return cls.__call__(self_, *args, **kwargs)
            with tracer._timed(name):
                return cls.__call__(self_, *args, **kwargs)

        obj.__class__ = type(cls.__name__, (cls,), {"__call__": __call__})
        self._undo.append(lambda: setattr(obj, "__class__", cls))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
