"""In-memory span tracer that wraps fedsim's public functions where they are looked up.

A layer is one fedsim module. Installing the tracer replaces every public
module-level function and every public method of a public class of a layer
with a thin wrapper that records a span: name, start, end and parent span.
Functions are patched under every name the program looks them up by: the
defining module, each module that imported them by name (for example
``fedsim.engine.train_local`` and ``fedsim.cli.load_checkpoint``) and the
package namespace. Methods and classmethods, such as
``ParamSet.from_arrays``, are patched on their class.

``loss_xent`` stays unwrapped in ``fedsim.evaluation``, so the linear probe's
loss steps count as ``evaluation`` time, not ``learners`` time.

Spans live in flat integer arrays while the benchmark runs and are written
out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = (
    "config",
    "partition",
    "learners",
    "params",
    "divergence",
    "aggregation",
    "engine",
    "evaluation",
    "cli",
)

# The tensor library: its time is charged to the layer that called it when
# shares are computed (its own self time is still reported by name).
LIBRARY_LAYER = "params"

# (module, attribute) lookup sites that keep the original function.
UNPATCHED = {("fedsim.evaluation", "loss_xent")}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_file_bytes(index, name, key):
    def hook(counts, args, kwargs, result):
        counts[key] += os.path.getsize(_arg(args, kwargs, index, name))

    return hook


def _count_cosine_bytes(counts, args, kwargs, result):
    # cosine reads both operands twice: once for their norms, once for the dot.
    a, b = args[0], args[1]
    counts["divergence.bytes_computed"] += 2 * (a.values.nbytes + b.values.nbytes)


def _count_csv_rows(counts, args, kwargs, result):
    counts["partition.load_csv.rows"] += len(result)


# Span name -> (tag, count): ``tag(args)`` suffixes the span name, ``count``
# adds counters after a successful call.
HOOKS = {
    "divergence.cosine": (lambda args: args[0].name, _count_cosine_bytes),
    "params.load_checkpoint": (None, _count_file_bytes(0, "path", "params.load_checkpoint.bytes")),
    "params.save_checkpoint": (None, _count_file_bytes(1, "path", "params.save_checkpoint.bytes")),
    "engine.write_rounds_csv": (None, _count_file_bytes(2, "path", "engine.write_rounds_csv.bytes")),
    "partition.load_csv": (None, _count_csv_rows),
}


class Tracer:
    """Records nested spans while enabled; a no-op pass-through otherwise."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.nested = array("b")  # 1 if a span of the same name was already open
        self.counts: dict[str, int] = defaultdict(int)
        self.enabled = False
        self._stack: list[int] = []
        self._open: list[int] = []  # open spans per name id
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(self._open[nid] > 0)
        self._open[nid] += 1
        self._stack.append(idx)
        self.end_ns.append(0)
        self.start_ns.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        self.end_ns[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._open[self.name_id[idx]] -= 1

    @contextmanager
    def span(self, name: str):
        """Span around benchmark code; recorded only while enabled."""
        if not self.enabled:
            yield
            return
        idx = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(idx)

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without recording them."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, fn, name: str):
        tag, count = HOOKS.get(name, (None, None))
        tracer = self
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._enter(nid if tag is None else tracer._id(f"{name}.{tag(args)}"))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every public function and method of every layer."""
        import fedsim

        modules = [sys.modules[f"fedsim.{layer}"] for layer in LAYERS]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._patch_methods(obj, layer)
        for mod in [fedsim, *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj and (mod.__name__, attr) not in UNPATCHED:
                    self._set(mod, attr, hit[1])

    def _patch_methods(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(member.__func__, f"{layer}.{attr}"))
            elif inspect.isfunction(member):
                wrapped = self._wrap(member, f"{layer}.{attr}")
            else:
                continue
            self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as gzipped CSV: name, start_ns, end_ns, parent index."""
        lines = ["name,start_ns,end_ns,parent"]
        names = self.names
        for nid, s, e, p in zip(self.name_id, self.start_ns, self.end_ns, self.parent):
            lines.append(f"{names[nid]},{s},{e},{p}")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("\n".join(lines))
            fh.write("\n")


@dataclass
class Summary:
    """Aggregates of a finished trace.

    ``stats[stat][name]`` holds, per span name, ``calls``; ``busy_s``, the
    time a span of that name was open (a span nested in a same-name span is
    not counted twice); and ``self_s``, span durations minus the part their
    child spans cover. ``layer_self_s`` sums self time per layer.
    ``layer_share_pct`` charges every span's self time to the span's layer,
    except that the tensor library's time goes to the layer that called it,
    and divides by the time of the benchmark's ``bench.unit`` spans.
    """

    spans: int
    stats: dict[str, dict[str, float]]
    counts: dict[str, int]
    layer_self_s: dict[str, float]
    layer_share_pct: dict[str, float]


def summarize(tracer: Tracer) -> Summary:
    names = tracer.names
    nid = np.frombuffer(tracer.name_id, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    nested = np.frombuffer(tracer.nested, dtype=np.int8).astype(bool)
    dur = (np.frombuffer(tracer.end_ns, dtype=np.int64) - np.frombuffer(tracer.start_ns, dtype=np.int64)) / 1e9
    has_parent = parent >= 0
    child = np.zeros(nid.size)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    def per_name(weights=None):
        return dict(zip(names, np.bincount(nid, weights=weights, minlength=len(names)).tolist()))

    stats = {"calls": per_name(), "busy_s": per_name(np.where(nested, 0.0, dur)), "self_s": per_name(self_t)}

    layer_of = [name.split(".", 1)[0] for name in names]
    layer_self: dict[str, float] = defaultdict(float)
    owned: dict[str, float] = defaultdict(float)
    owner = [""] * nid.size
    root_name = [""] * nid.size
    for i in range(nid.size):
        layer, p = layer_of[nid[i]], parent[i]
        owner[i] = owner[p] if layer == LIBRARY_LAYER and p >= 0 else layer
        root_name[i] = names[nid[i]] if p < 0 else root_name[p]
        layer_self[layer] += self_t[i]
        if root_name[i] == "bench.unit":
            owned[owner[i]] += self_t[i]
    unit_time = stats["busy_s"].get("bench.unit", 0.0)
    share = {layer: 100.0 * t / unit_time for layer, t in owned.items()} if unit_time else {}
    return Summary(int(nid.size), stats, dict(tracer.counts), dict(layer_self), share)
