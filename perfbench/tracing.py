"""In-memory span tracer installed from outside the traced package.

A ``Boundary`` names a function a module exposes. ``Tracer.installed``
replaces that function with a wrapper in every namespace of the package
that holds it (the defining module and each module that imported the
name), and puts the originals back on exit. Nothing in the traced package
changes on disk.

Wrapper kinds:

- ``SPAN``: one record per call: id, parent, name, start, end, self time.
- ``AGGREGATE``: for very hot functions, a count and summed total and self
  time per (parent, name) instead of one record per call.
- ``COUNT``: a call count only, untimed (its time stays in the caller).
- ``YIELDS``: for generator functions, a count of the items yielded.

Self time is a call's duration minus the time its traced children cover,
so the self times of a span and all its descendants add up to the span's
duration.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

SPAN, AGGREGATE, COUNT, YIELDS = "span", "aggregate", "count", "yields"


@dataclass(frozen=True)
class Boundary:
    """``attr`` of module ``module`` (``Cls.method`` for a method), traced
    under ``name``. ``weigh(args, result)`` adds to the record's units, e.g.
    the order of a determinant or the length of a returned list."""

    name: str
    module: str
    attr: str
    kind: str = SPAN
    weigh: Optional[Callable[[tuple, object], float]] = None


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    self_s: float
    units: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, aggregates and counts while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        # (parent key, name) -> [count, total_s, self_s, units]; the parent
        # key is a span id, an aggregate's own key, or None at the root
        self.aggregates: Dict[tuple, list] = {}
        self.counts: Dict[str, int] = {}
        self._stack: list = []  # frames: [key, start, child_s]
        self._ids = itertools.count()

    @contextlib.contextmanager
    def installed(self, boundaries: Iterable[Boundary], package: str):
        patches = []
        try:
            for b in boundaries:
                patches.extend(self._install(b, package))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _install(self, b: Boundary, package: str):
        module = sys.modules[b.module]
        if "." in b.attr:
            cls_name, attr = b.attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(b, original))
            return [(owner, attr, original)]
        original = getattr(module, b.attr)
        wrapper = self._wrap(b, original)
        patches = []
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == package or mod_name.startswith(package + ".")) \
                    and mod is not None \
                    and mod.__dict__.get(b.attr) is original:
                setattr(mod, b.attr, wrapper)
                patches.append((mod, b.attr, original))
        return patches

    def _wrap(self, b: Boundary, fn):
        return {SPAN: self._span, AGGREGATE: self._aggregate,
                COUNT: self._count, YIELDS: self._yields}[b.kind](b, fn)

    def _span(self, b: Boundary, fn):
        stack, spans, clock = self._stack, self.spans, self.clock
        ids = self._ids
        name, weigh = b.name, b.weigh

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), clock(), 0.0]
            stack.append(frame)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                units = weigh(args, result) if weigh and ok else 0
                spans.append(Span(frame[0], parent[0] if parent else None,
                                  name, frame[1], end, duration - frame[2],
                                  units))

        return wrapper

    def _aggregate(self, b: Boundary, fn):
        stack, aggregates, clock = self._stack, self.aggregates, self.clock
        name, weigh = b.name, b.weigh

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            key = (parent[0] if parent else None, name)
            frame = [key, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                if parent is not None:
                    parent[2] += duration
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[2]
                if weigh:
                    agg[3] += weigh(args, None)

        return wrapper

    def _count(self, b: Boundary, fn):
        counts, name = self.counts, b.name
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yields(self, b: Boundary, fn):
        counts, name = self.counts, b.name
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def totals(self) -> Dict[str, List[float]]:
        """name -> [calls, total_s, self_s, units] over spans and
        aggregates; counted boundaries appear with their count only."""
        out: Dict[str, List[float]] = {}
        for s in self.spans:
            t = out.setdefault(s.name, [0, 0.0, 0.0, 0])
            t[0] += 1
            t[1] += s.duration
            t[2] += s.self_s
            t[3] += s.units
        for (_, name), agg in self.aggregates.items():
            t = out.setdefault(name, [0, 0.0, 0.0, 0])
            for k in range(4):
                t[k] += agg[k]
        for name, count in self.counts.items():
            out.setdefault(name, [0, 0.0, 0.0, 0])[0] += count
        return out

    def dump(self, path: str) -> None:
        """Write every span, aggregate and count as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "spans": [[s.id, s.parent, s.name, s.start, s.end, s.self_s,
                           s.units] for s in self.spans],
                "aggregates": [[repr(key[0]), key[1], *vals]
                               for key, vals in self.aggregates.items()],
                "counts": self.counts,
            }, fh)
