"""In-memory spans recorded around calls into nllc, and self-time arithmetic.

A Tracer wraps public functions from outside the package and re-binds each
wrapper in every loaded nllc module that holds the original, so calls made
between modules (``nllc.solver.dual_map``, ``nllc.field.psi_s``, ...) are
recorded too.  A span holds its name, start, end, the index of the enclosing
span and the operation id current when it opened.  Self time is a span's
duration minus the union of its children's intervals.
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: str | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._bound: list[tuple] = []
        self.active = False  # between install() and uninstall()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code, while active."""
        if not self.active:
            yield None
            return
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name: str) -> Span:
        sp = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        """A wrapper of fn that records a span; attrs(args, kwargs, result) adds counts.

        When fn raises an exception that carries a ``result`` (MaxIterations),
        the counts are taken from that result.
        """

        def wrapper(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(sp)
                sp.attrs["error"] = type(exc).__name__
                partial = getattr(exc, "result", None)
                if attrs is not None and partial is not None:
                    sp.attrs.update(attrs(args, kwargs, partial))
                raise
            self._close(sp)
            if attrs is not None:
                sp.attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def install(self, targets: dict) -> None:
        """Re-bind wrappers for targets {"module.function": attrs or None}.

        Every loaded ``nllc`` module whose namespace holds the original
        function object gets the wrapper under the same name.  Targets in
        modules that were never imported are skipped: nothing can call them.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "nllc" or n.startswith("nllc.")]
        for qualname, attrs in targets.items():
            mod_name, fn_name = qualname.rsplit(".", 1)
            if f"nllc.{mod_name}" not in sys.modules:
                continue
            original = getattr(sys.modules[f"nllc.{mod_name}"], fn_name)
            wrapper = self.wrap(qualname, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._bound.append((mod, key, original))
        self.active = True

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._bound):
            setattr(mod, key, original)
        self._bound.clear()
        self.active = False


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Duration of each span minus the union of its children, clipped to the span."""
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        kids = children.get(i, ())
        covered = union_length((max(c.start, sp.start), min(c.end, sp.end)) for c in kids)
        out.append(sp.end - sp.start - covered)
    return out


def coverage(spans, start: float, end: float) -> float:
    """Share of [start, end] covered by top-level spans."""
    if end <= start:
        return 0.0
    tops = ((max(s.start, start), min(s.end, end)) for s in spans if s.parent is None)
    return union_length(tops) / (end - start)
