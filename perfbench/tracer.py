"""Per-layer timing of calls into a package's public functions.

While installed, a `Tracer` replaces every public module-level function
of the traced layer modules with a timing wrapper, in every namespace
of the package that holds the function (so `matroid.is_totally_unimodular`,
imported by name from `intmat`, is caught too).  Each call is a span
whose parent is the innermost span open when it began; self time is a
span's duration minus the durations of its child spans.  A generator
function's spans are its creation and each `next()`, so time spent in
the generator body is not charged to the caller that iterates it.
Spans are aggregated as they close, per function and per
(parent, child) pair, so memory stays flat however many calls run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    truthy: int = 0      # calls whose result was true
    returned: int = 0    # items in returned tuples/lists, or items yielded


def public_functions(module):
    """Public functions defined in `module` (including lru_cache wrappers)."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj)
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Context manager that times the public functions of `layers`.

    `layers` maps a layer name to its module; `namespaces` are the
    modules whose bindings are rewritten (default: every loaded module
    of the layers' package).  `clock` lets a test substitute a fake.
    """

    def __init__(self, layers: dict, namespaces=None, clock=time.perf_counter):
        self.layers = layers
        self.namespaces = namespaces
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str | None, str], Stat] = {}
        self._stack: list[list] = []      # [key, start, child_time]
        self._active: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, key):
        self._active[key] = self._active.get(key, 0) + 1
        self._stack.append([key, self.clock(), 0.0])

    def _exit(self, calls):
        key, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self._active[key] -= 1
        rec = self.stats[key]
        rec.calls += calls
        if not self._active[key]:      # recursion: count the outermost span only
            rec.total_s += elapsed
        rec.self_s += elapsed - child
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += elapsed
        edge = self.edges.setdefault((parent, key), Stat())
        edge.calls += calls
        edge.total_s += elapsed

    # -- wrappers ---------------------------------------------------------

    def _wrap_function(self, key, fn):
        rec = self.stats[key]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(key)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(1)
            rec.truthy += bool(out)
            if isinstance(out, (tuple, list)):
                rec.returned += len(out)
            return out

        return traced

    def _wrap_generator(self, key, fn):
        rec = self.stats[key]

        def iterate(gen):
            try:
                while True:
                    self._enter(key)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(0)
                    rec.returned += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(key)
            try:
                gen = fn(*args, **kwargs)
            finally:
                self._exit(1)
            return iterate(gen)

        return traced

    # -- install / restore ------------------------------------------------

    def __enter__(self):
        namespaces = self.namespaces
        if namespaces is None:
            package = next(iter(self.layers.values())).__name__.rpartition(".")[0]
            namespaces = [m for n, m in list(sys.modules.items())
                          if m is not None and (n == package or n.startswith(package + "."))]
        wrappers = {}
        for layer, module in self.layers.items():
            for name, fn in public_functions(module).items():
                key = f"{layer}.{name}"
                self.stats[key] = Stat()
                target = getattr(fn, "__wrapped__", fn)
                make = self._wrap_generator if inspect.isgeneratorfunction(target) \
                    else self._wrap_function
                wrappers[id(fn)] = (fn, make(key, fn))
        try:
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._saved.append((ns, attr, value))
                        setattr(ns, attr, hit[1])
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            ns, attr, value = self._saved.pop()
            setattr(ns, attr, value)
        return False

    # -- reports ----------------------------------------------------------

    def layer_totals(self) -> dict[str, Stat]:
        out = {layer: Stat() for layer in self.layers}
        for key, rec in self.stats.items():
            layer = key.split(".", 1)[0]
            out[layer].calls += rec.calls
            out[layer].self_s += rec.self_s
        return out
