"""Per-layer tracing by wrapping the public functions of each contextnet module.

A layer is one module of the package. Each traced function is replaced, in
every loaded ``contextnet`` module that holds a reference to it, by a wrapper
that counts calls and accumulates self time: the call's duration minus the
time spent in nested traced calls. ``StateVector`` is a class, so its
``__init__`` is wrapped instead, which keeps ``isinstance`` checks intact.

The wrappers live only in this benchmark and are installed only for the
traced phase of a run; ``Tracer.uninstall`` restores the originals. A
function that a later version of the package no longer has is recorded in
``Tracer.absent`` and reported with zero calls, never as a crash.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

#: Traced public functions, by module (layer).
LAYERS: dict[str, tuple[str, ...]] = {
    "hilbert": ("StateVector", "inner", "orthogonal_complement", "complete_context"),
    "hardy3": ("build_scenario", "verify_all", "predicted_paradox"),
    "nonlocal4": ("build_nonlocal", "verify_all"),
    "network": ("validate_realization",),
    "oracle": ("sample_context",),
    "report": ("report_to_json",),
    "cli": ("build_parser", "cmd_sweep"),
}

TRACED = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)


class Tracer:
    """Call counts and self time of every function in ``LAYERS``.

    Wrappers record only while ``active`` is true, so the benchmark can
    switch recording on around the timed operation and off around its own
    output checks, which call into the same modules.
    """

    def __init__(self) -> None:
        keys = [f"{module}.{name}" for module, names in LAYERS.items() for name in names]
        self.calls = dict.fromkeys(keys, 0)
        self.self_ns = dict.fromkeys(keys, 0)
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []  # child time accumulated per open call
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                calls[key] += 1
                self_ns[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def install(self) -> None:
        layers = {}
        for module_name, names in LAYERS.items():
            try:
                layers[module_name] = importlib.import_module(f"contextnet.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{n}" for n in names)
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "contextnet" or n.startswith("contextnet."))
        ]
        for module_name, module in layers.items():
            for name in LAYERS[module_name]:
                key = f"{module_name}.{name}"
                original = getattr(module, name, None)
                if original is None:
                    self.absent.append(key)
                elif isinstance(original, type):
                    init = original.__init__
                    self._undo.append((original, "__init__", init))
                    original.__init__ = self._wrap(key, init)
                else:
                    wrapper = self._wrap(key, original)
                    for holder in modules:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._undo.append((holder, attr, original))
                                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()
        self.active = False
