"""In-memory span recorder that wraps functions from outside their package.

A wrapped function records one span per call: name, start, end, the span
that was open on the same thread when it was called (its parent), and an
optional dict of computed work counts.  Self time is the span's duration
minus the time its children cover; children on one thread are nested and
sequential, so that is the sum of their durations.  Nothing is written
until the caller asks for a summary after the run.
"""

import sys
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "work")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.work = None
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child_s


class Tracer:
    """Patches functions in place; ``uninstall`` restores every original."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.dur
                self.spans.append(span)
            if count is not None:
                span.work = count(args, result)
            return result

        return traced

    def wrap(self, module, attr, name, count=None):
        """Trace ``module.attr`` under span ``name``.

        The wrapper replaces the function wherever it is looked up: in the
        defining module and under every name that any module of the same
        top-level package imported it as (``from .conv import conv2d_fwd``
        binds a second name that patching the defining module alone would
        miss).
        """
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, count)
        prefix = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def summary(self):
        """name -> {"calls", "total_s", "self_s", <summed numeric work>}."""
        out = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += s.dur
            agg["self_s"] += s.self_s
            for k, v in (s.work or {}).items():
                if isinstance(v, (int, float)):
                    agg[k] = agg.get(k, 0) + v
        return out

    def named(self, name):
        return [s for s in self.spans if s.name == name]
