"""Per-layer timing from outside the program: wrappers, span stacks, self time.

A :class:`Tracer` replaces chosen public functions of the program's
layers with timing wrappers, at class (or module) level, for the life of
a traced pass, and restores the originals afterwards.  Each wrapper is a
span: it pushes a child-time accumulator on its thread's stack, times
the wrapped call, and on return charges

- the call's *inclusive* duration to its layer's samples, and
- its *self* time (duration minus the time its child spans covered) to
  the layer's self total,

then adds its duration to the parent span's child time.  The replayer is
the root span of every interposer call (:meth:`Tracer.call`), so the
self times of all layers plus the runtime shim's self time add up to the
measured call latency; whatever a phase's wall time holds beyond that
(the replay loop itself, collections between calls) is the residual.

Spans stay in memory; nothing is written until the benchmark reports.
The program's own code is never edited: a wrapper is installed only in a
traced pass of a benchmark process and removed when the pass ends.
"""

from __future__ import annotations

import gc
import math
import threading
from time import perf_counter

__all__ = ["GcWatch", "Layer", "Tracer", "percentile"]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Layer:
    """Counters of one layer (or one sub-operation of a layer)."""

    __slots__ = ("calls", "self_s", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.samples: list[float] = []

    def add(self, duration: float, self_s: float) -> None:
        self.calls += 1
        self.self_s += self_s
        self.samples.append(duration)

    def merge(self, other: "Layer") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.samples += other.samples


class Tracer:
    """Timing wrappers around layer entry points, one span stack per thread.

    ``ledger`` dicts (layer name -> :class:`Layer`) are bound per thread
    with :meth:`bind`; wrappers called on an unbound thread run untimed.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- binding ----------------------------------------------------------

    def bind(self, ledger: dict[str, Layer]) -> None:
        """Charge this thread's spans to ``ledger`` from now on."""
        self._local.ledger = ledger
        self._local.stack = []

    def charge(self, name: str, duration: float, self_s: float | None = None) -> None:
        """Record a span measured elsewhere (e.g. from a reply's timing)."""
        ledger = self._local.ledger
        layer = ledger.get(name)
        if layer is None:
            layer = ledger[name] = Layer()
        layer.add(duration, duration if self_s is None else self_s)

    def call(self, root: str, fn, args) -> float:
        """Run ``fn(*args)`` as a root span; returns its duration (s)."""
        stack = self._local.stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            fn(*args)
        finally:
            duration = perf_counter() - t0
            child = stack.pop()
            self.charge(root, duration, duration - child)
        return duration

    # -- patching ---------------------------------------------------------

    def wrap(self, owner, attr: str, name, *, after=None, static: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span of layer ``name``.

        ``owner`` is a class or a module.  ``name`` is a string or
        ``name(args, kwargs) -> str`` (to split a layer by argument, e.g.
        prediction distance).  ``after(args, result)`` runs outside the
        span once the call returned, on bound threads only.  ``static``
        marks a ``staticmethod`` or ``classmethod``: the wrapper is
        installed as a static method calling the original binding.
        """
        is_class = isinstance(owner, type)
        original = owner.__dict__[attr] if is_class else getattr(owner, attr)
        fn = getattr(owner, attr) if static or not is_class else original
        local = self._local
        charge = self.charge
        fixed = name if isinstance(name, str) else None

        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                child = stack.pop()
                charge(fixed or name(args, kwargs), duration, duration - child)
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, staticmethod(span) if static else span)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped function (reverse order of wrapping)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class GcWatch:
    """Collections per generation and total pause time while active."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_s = 0.0
        self._t0 = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.pause_s += perf_counter() - self._t0
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
