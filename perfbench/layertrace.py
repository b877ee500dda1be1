"""Per-layer call counts and self times, recorded from outside the program.

A `LayerTrace` wraps named functions and methods of the `waring` modules
for the duration of a `with trace.active():` block.  Module-level
functions are rebound in every scanned module namespace that holds them
(so `from .roots import poly_gcd` copies are caught too); methods are
rebound on their class.  Everything is restored when the block exits.

Self time is a call's span minus the spans of wrapped calls made inside
it, so unwrapped private helpers are billed to their nearest wrapped
caller and the self times of nested calls add up to the outer span.
Spans are CPU time of the calling thread by default.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager


class LayerTrace:
    """Counts calls, self time, inclusive time and exceptions per target.

    `targets` is a list of `(layer, owner, attr)`: `owner` is the module
    or class that defines `attr`, and `layer` names the layer the time
    is billed to.  `modules` are the namespaces searched for other
    bindings of module-level functions.  `clock` times the spans.
    """

    def __init__(self, targets, modules, clock=time.thread_time):
        self.targets = list(targets)
        self.modules = list(modules)
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        # (namespace, attr, original), filled while active
        self.bindings: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        for layer, owner, attr in self.targets:
            name = self.name_of(layer, owner, attr)
            self.stats[name] = [0, 0.0, 0.0, 0]  # calls, self_s, total_s, raised
            self.layer_of[name] = layer

    @staticmethod
    def name_of(layer, owner, attr) -> str:
        if inspect.isclass(owner):
            return f"{layer}.{owner.__name__}.{attr}"
        return f"{layer}.{attr}"

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def self_s(self, name: str) -> float:
        return self.stats[name][1]

    def total_s(self, name: str) -> float:
        return self.stats[name][2]

    def raised(self, name: str) -> int:
        return self.stats[name][3]

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, self_s, _, _) in self.stats.items():
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                span = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += span - children
                stats[2] += span
                if stack:
                    stack[-1] += span

        return traced

    def _install(self):
        for layer, owner, attr in self.targets:
            name = self.name_of(layer, owner, attr)
            if inspect.isclass(owner):
                fn = owner.__dict__[attr]
                self.bindings.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
                continue
            fn = getattr(owner, attr)
            traced = self._wrap(name, fn)
            for module in self.modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self.bindings.append((module, key, fn))
                        setattr(module, key, traced)

    def _uninstall(self):
        while self.bindings:
            namespace, attr, original = self.bindings.pop()
            setattr(namespace, attr, original)

    @contextmanager
    def active(self):
        """Wrap every target for the duration of the block, then restore."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()
