"""Outside-in span tracing for the benchmark.

The program under test is not edited.  A Tracer swaps selected public
attributes of the ``ahgnn`` package (module functions and class methods)
for wrappers that record a span around every call, and puts the
originals back on ``uninstall``.  A module function is rebound in every
loaded ``ahgnn`` module that imported it by name, because that binding is
the one its callers look up.

Each span holds a name, start and end (``time.perf_counter`` seconds),
its parent span and the operation it belongs to; spans of one operation
share that operation's id.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "info")

    def __init__(self, sid: int, name: str, op: str, parent: int | None):
        self.id = sid
        self.name = name
        self.op = op
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info: dict = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "op": self.op,
                "parent": self.parent, "start": self.start, "end": self.end,
                **({"info": self.info} if self.info else {})}


def _resolve(target: str):
    """'pkg.mod.attr' or 'pkg.mod.Class.attr' -> (owner, attr, original)."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(f"cannot resolve {target!r}")


class Tracer:
    """Span recorder that wraps program attributes while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "none"
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._suspended = 0

    # ------------------------------------------------------------ spans

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, self.op, parent)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def enclosing(self, *names: str) -> Span | None:
        """Innermost open span whose name is one of `names`."""
        for s in reversed(self._stack):
            if s.name in names:
                return s
        return None

    @contextmanager
    def suspended(self):
        """Calls made inside pass through the wrappers unrecorded."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # --------------------------------------------------------- patching

    def wrap(self, target: str, name, on_exit=None) -> None:
        """Record a span around every call of `target`.

        `name` is a span name or a callable(args) -> name, evaluated at
        call time.  `on_exit(span, args, result)` may store facts about
        the call in ``span.info``.
        """
        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if self._suspended:
                    return original(*args, **kwargs)
                label = name(args) if callable(name) else name
                with self.span(label) as s:
                    result = original(*args, **kwargs)
                    if on_exit is not None:
                        on_exit(s, args, result)
                return result
            return wrapper
        self._install(target, factory)

    def observe(self, target: str, on_return) -> None:
        """Call `on_return(result)` after every call of `target`; no span."""
        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                on_return(result)
                return result
            return wrapper
        self._install(target, factory)

    def _install(self, target: str, factory) -> None:
        owner, attr, original = _resolve(target)
        wrapper = factory(original)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "ahgnn" or mod_name.startswith("ahgnn.")) \
                    and getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Stats:
    """Per-layer figures from a finished span list.

    A span name is looked up in the phase where it occurs: the timed
    operations (op ids ``op-<k>``) when any span of that name ran there,
    otherwise set-up (``setup-<r>``).  Times are medians per call over
    that phase; counts are taken over the phase's first unit (``op-0``
    or ``setup-0``), whose inputs are fixed by the seed, so they repeat
    exactly from run to run.
    """

    def __init__(self, spans: list[Span]):
        self.spans = [s for s in spans if s.op.startswith(("op-", "setup-"))]
        self.kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                self.kids.setdefault(s.parent, []).append(s)

    def _phase(self, name: str) -> list[Span]:
        named = [s for s in self.spans if s.name == name]
        ops = [s for s in named if s.op.startswith("op-")]
        return ops or named

    def first_unit(self, name: str) -> list[Span]:
        spans = self._phase(name)
        if not spans:
            return []
        first = "op-0" if spans[0].op.startswith("op-") else "setup-0"
        return [s for s in spans if s.op == first]

    def ms(self, name: str) -> float:
        spans = self._phase(name)
        if not spans:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(s.ms for s in spans)

    def self_ms(self, name: str, child: str | None = None) -> float:
        """Median per call of the span's time not covered by its children.

        With `child`, only the children of that name are taken out.
        """
        spans = self._phase(name)
        if not spans:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(
            s.ms - sum(c.ms for c in self.kids.get(s.id, ())
                       if child is None or c.name == child)
            for s in spans)

    def calls(self, name: str) -> int:
        return len(self.first_unit(name))

    def first(self, name: str) -> Span:
        spans = self.first_unit(name)
        if not spans:
            raise KeyError(f"no span named {name!r} was recorded")
        return spans[0]

    def per_unit(self, name: str, value=None) -> dict[str, int]:
        """Count of `name` spans (or sum of value(span)) in every unit."""
        out: dict[str, int] = {}
        for s in self.spans:
            if s.name == name:
                out[s.op] = out.get(s.op, 0) + (1 if value is None else value(s))
        return out

    def child_spans(self, span: Span, name: str) -> list[Span]:
        return [c for c in self.kids.get(span.id, ()) if c.name == name]
