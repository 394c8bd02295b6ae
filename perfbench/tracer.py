"""Span tracing from outside the package.

The tracer rebinds module attributes: every public function that one
worldfunc module imports from another (``worldfunc.equivalence.sigma``,
``worldfunc.cli.solve_equivalent``, ...) and the entry points the benchmark
itself calls are replaced by wrappers that time each call.  Spans are not
kept one by one: they are aggregated in memory per (caller module, callee)
into a call count, total seconds, seconds spent in child spans and an item
count (sigma pairs for ``geometry.sigma``).  ``uninstall`` restores the
original bindings, so untraced runs execute the package untouched.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Record:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0
    items: int = 0


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def sigma_pairs(args, kwargs) -> int:
    """Point pairs one ``sigma(g, p, q)`` call evaluates: the broadcast batch size."""
    p = args[1] if len(args) > 1 else kwargs["p"]
    q = args[2] if len(args) > 2 else kwargs["q"]
    return int(np.prod(np.broadcast_shapes(np.shape(p), np.shape(q))[:-1], dtype=np.int64))


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records: dict = {}
        self._stack: list = []  # one child-seconds accumulator per open span
        self._saved: list = []

    def wrap(self, caller: str, fn):
        callee = f"{_short(fn.__module__)}.{fn.__name__}"
        rec = self.records.setdefault((caller, callee), Record())
        count = sigma_pairs if callee == "geometry.sigma" else None
        clock, stack = self.clock, self._stack

        def traced(*args, **kwargs):
            if count is not None:
                rec.items += count(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec.calls += 1
                rec.total += dt
                rec.child += frame[0]

        return traced

    def install(self, modules, entries) -> None:
        """Wrap the cross-module public function bindings of ``modules``, and
        each (module, name) of ``entries`` with caller ``bench``."""
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ != mod.__name__
                        and obj.__module__.startswith("worldfunc.")):
                    self._rebind(mod, name, self.wrap(_short(mod.__name__), obj))
        for mod, name in entries:
            self._rebind(mod, name, self.wrap("bench", getattr(mod, name)))

    def _rebind(self, mod, name, new):
        self._saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, new)

    def uninstall(self) -> None:
        while self._saved:
            mod, name, old = self._saved.pop()
            setattr(mod, name, old)

    def dump(self) -> list:
        """Aggregated spans as JSON-ready rows, heaviest first."""
        rows = [{"caller": c, "callee": f, "calls": r.calls, "total_s": r.total,
                 "self_s": r.total - r.child, "items": r.items}
                for (c, f), r in self.records.items() if r.calls]
        return sorted(rows, key=lambda row: -row["total_s"])
