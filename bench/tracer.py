"""Span tracing of switchsde from outside the program.

Each target in targets.json (a dotted name mapped to a layer) is replaced by
a wrapper that records a span (layer, start, end, parent span, job id,
size) around every call.  Functions are rebound in every ``switchsde``
module that holds them, methods on their class.  A dataclass field such as
``Scenario.drift_fn`` names a nested list of compiled closures; each
outermost closure is wrapped when an instance is built.  A target that no
longer resolves raises ``TraceError``: a renamed layer must not read as an
idle one.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time


class TraceError(RuntimeError):
    pass


def _chunk_paths(sc, params, path_index=0):
    start = path_index // params.chunk_size * params.chunk_size
    return min(params.n_paths - start, params.chunk_size)


# work per call, for the layers whose batch width matters
_SIZE = {
    "scenario.rates": lambda rates, X: X.shape[0],
    "coupling.rows": lambda R1, R2, ii, jj: len(R1),
    "engine.simulate": _chunk_paths,
}


def _resolve(dotted):
    """Return (owner, attribute name, object); object is None for a dataclass field."""
    parts = dotted.split(".")
    try:
        owner = importlib.import_module(".".join(parts[:2]))
    except ImportError as exc:
        raise TraceError(f"trace target {dotted}: {exc}") from exc
    for name in parts[2:-1]:
        if not hasattr(owner, name):
            raise TraceError(f"trace target {dotted}: {owner.__name__} has no {name}")
        owner = getattr(owner, name)
    name = parts[-1]
    if hasattr(owner, name) and callable(getattr(owner, name)):
        return owner, name, getattr(owner, name)
    if dataclasses.is_dataclass(owner) and name in {f.name for f in dataclasses.fields(owner)}:
        return owner, name, None
    raise TraceError(f"trace target {dotted} no longer resolves to a function or closure field")


def _map_callables(tree, fn):
    if isinstance(tree, list):
        return [_map_callables(t, fn) for t in tree]
    if callable(tree):
        return fn(tree)
    raise TraceError(f"expected nested lists of closures, found {type(tree).__name__}")


class Tracer:
    def __init__(self):
        self.spans = []  # (layer, start, end, parent index, job id, size)
        self._stack = []
        self.job = 0

    def install(self, targets: dict):
        fields = {}
        for dotted, layer in targets.items():
            owner, name, obj = _resolve(dotted)
            if obj is None:
                fields.setdefault(owner, []).append((name, layer))
            elif isinstance(owner, type):
                setattr(owner, name, self._wrap(obj, layer))
            else:
                wrapped = self._wrap(obj, layer)
                for modname, mod in list(sys.modules.items()):
                    if modname == "switchsde" or modname.startswith("switchsde."):
                        for key, val in list(vars(mod).items()):
                            if val is obj:
                                setattr(mod, key, wrapped)
        for cls, names in fields.items():
            self._wrap_fields(cls, names)

    def _wrap(self, fn, layer):
        size = _SIZE.get(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = size(*args, **kwargs) if size else 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.job, n)

        traced.traced_layer = layer
        return traced

    def call(self, layer, fn):
        """Call fn() inside a span of the given layer."""
        return self._wrap(fn, layer)()

    def _wrap_fields(self, cls, names):
        original = getattr(cls, "__post_init__", None)
        if original is None:
            raise TraceError(f"{cls.__name__} builds no closures in __post_init__ any more")

        def wrap_one(layer):
            return lambda f: f if hasattr(f, "traced_layer") else self._wrap(f, layer)

        def __post_init__(obj):
            original(obj)
            for name, layer in names:
                setattr(obj, name, _map_callables(getattr(obj, name), wrap_one(layer)))

        cls.__post_init__ = __post_init__

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise TraceError("spans taken while a traced call is open")
        out = list(self.spans)
        self.spans.clear()
        return out


def aggregate(spans) -> dict:
    """Per layer: self time (duration minus direct children), calls, size."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (layer, start, end, _, _, n) in enumerate(spans):
        agg = out.setdefault(layer, {"self_s": 0.0, "calls": 0, "size": 0})
        agg["self_s"] += end - start - child[i]
        agg["calls"] += 1
        agg["size"] += n
    return out
