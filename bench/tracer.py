"""Outside-in tracer: wraps the program's module-level names from the benchmark.

Each binding ``"module.attr"`` or ``"module.Class.attr"`` is replaced by a
wrapper that records a span (layer, start, end, parent, operation id) and
folds it into per-layer aggregates.  Self time is a span's duration minus
the durations of its direct children.  Calls and bytes count only the
outermost span of a layer, so a layer function that calls another binding
of the same layer (``atomic_write_json`` -> ``atomic_write_text``, a
reparameterized curve -> its base curve) counts as one call.

A binding that no longer exists is reported in ``absent`` and otherwise
ignored, so a refactor that deletes a wrapped name does not break the
benchmark; its layer then reads zero calls.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter
from typing import Callable, Mapping

# Extra per-call accounting: binding -> fn(args, result) -> (bytes, dim).
Extra = Callable[[tuple, object], tuple[int, int]]


class LayerStats:
    __slots__ = ("calls", "self_s", "bytes", "dim_sum")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.bytes = 0
        self.dim_sum = 0


class Tracer:
    """Install/uninstall wrappers and collect one session of spans at a time."""

    def __init__(self, bindings: Mapping[str, str], extras: Mapping[str, Extra] | None = None):
        self.bindings = dict(bindings)
        self.extras = dict(extras or {})
        self.layers = sorted(set(self.bindings.values()) | {"op"})
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.absent: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self.begin(keep_spans=False)

    # -- sessions ----------------------------------------------------------

    def begin(self, keep_spans: bool) -> None:
        """Reset aggregates; keep individual spans only if asked."""
        self.stats = {name: LayerStats() for name in self.layers}
        self.binding_calls = {name: 0 for name in self.bindings}
        self.keep_spans = keep_spans
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("i")
        self._op_id = -1
        # Sentinel frame: [layer, child time, span index].
        self._stack = [[None, 0.0, -1]]

    @contextlib.contextmanager
    def operation(self):
        """Root span of one benchmark operation; children share its id."""
        self._op_id += 1
        frame, token = self._enter("op")
        try:
            yield
        finally:
            self._exit(frame, token, None, None, None)

    # -- installation ------------------------------------------------------

    def install(self, modules: Mapping[str, object]) -> None:
        """Wrap every binding found under ``modules`` (short name -> module)."""
        self.absent = []
        for binding, layer in self.bindings.items():
            owner, attr = _resolve_owner(modules, binding)
            if owner is None or attr not in vars(owner):
                self.absent.append(binding)
                continue
            original = vars(owner)[attr]
            if isinstance(original, (staticmethod, classmethod)) or not callable(original):
                self.absent.append(binding)
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, binding, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str):
        parent = self._stack[-1]
        index = -1
        if self.keep_spans:
            index = len(self.span_start)
            self.span_layer.append(self._layer_id[layer])
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent[2])
            self.span_op.append(self._op_id)
        frame = [layer, 0.0, index]
        self._stack.append(frame)
        start = perf_counter()
        return frame, start

    def _exit(self, frame, start, binding, args, result) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        parent[1] += duration
        layer = frame[0]
        stats = self.stats[layer]
        stats.self_s += duration - frame[1]
        if frame[2] >= 0:
            self.span_start[frame[2]] = start
            self.span_end[frame[2]] = end
        if binding is not None:
            self.binding_calls[binding] += 1
        if parent[0] == layer:
            return
        stats.calls += 1
        extra = self.extras.get(binding)
        if extra is not None and args is not None:
            nbytes, dim = extra(args, result)
            stats.bytes += nbytes
            stats.dim_sum += dim

    def _wrap(self, fn, binding: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, start = tracer._enter(layer)
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = args
            finally:
                # Extras see the arguments only of calls that returned.
                tracer._exit(frame, start, binding, done, result)
            return result

        return wrapper

    def save_spans(self, path: str, operations: list[str]) -> None:
        """Write the current session's spans as numpy columns (times in seconds)."""
        import numpy as np

        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            operations=np.array(operations),
            layer=np.frombuffer(self.span_layer, dtype=np.intc),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            parent=np.frombuffer(self.span_parent, dtype=np.int_),
            op=np.frombuffer(self.span_op, dtype=np.intc),
        )


def _resolve_owner(modules: Mapping[str, object], binding: str):
    parts = binding.split(".")
    owner = modules.get(parts[0])
    for name in parts[1:-1]:
        if owner is None:
            break
        owner = vars(owner).get(name)
    return owner, parts[-1]
