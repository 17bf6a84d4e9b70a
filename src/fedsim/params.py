"""Named parameter tensors, the linear algebra behind aggregation, and checkpoint I/O.

A model is a :class:`ParamSet`: one contiguous, read-only float64 ``vector``
plus a ``layout`` of uniquely named ``(name, shape)`` layers, each stored
row-major in its segment of the vector. ParamSets are immutable after
construction, so every operation in this module is a pure function.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

CHECKPOINT_MAGIC = b"FSIMPSET"
CHECKPOINT_VERSION = 1
_PREAMBLE = struct.Struct("<IQ")

Layout = tuple[tuple[str, tuple[int, ...]], ...]


class IncompatibleModelError(ValueError):
    """Tensors or parameter sets do not share names, order, or shapes."""


@dataclass(frozen=True, eq=False)
class LayerTensor:
    """One named parameter tensor, stored flat in row-major order."""

    name: str
    shape: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        if any(s < 0 for s in shape):
            raise ValueError(f"layer {self.name!r}: negative dimension in shape {shape}")
        flat = np.ascontiguousarray(self.values, dtype=np.float64).reshape(-1)
        expected = math.prod(shape)
        if flat.size != expected:
            raise ValueError(
                f"layer {self.name!r}: shape {shape} implies {expected} values, got {flat.size}"
            )
        if flat.size and not np.isfinite(flat).all():
            raise ValueError(f"layer {self.name!r} contains non-finite values")
        flat.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", flat)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayerTensor):
            return NotImplemented
        return (
            self.name == other.name
            and self.shape == other.shape
            and np.array_equal(self.values, other.values)
        )

    @property
    def size(self) -> int:
        return self.values.size


def segments(vector: np.ndarray, layout: Layout) -> dict[str, np.ndarray]:
    """Views of ``vector``'s consecutive segments in the layers' shapes, keyed by name.

    A (K, P) block of K vectors gives (K, *shape) views, one row per vector.
    """
    out, offset = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        out[name] = vector[..., offset : offset + size].reshape(vector.shape[:-1] + shape)
        offset += size
    return out


class ParamSet:
    """A model: one read-only float64 vector and its (name, shape) layout.

    ``layers`` holds one :class:`LayerTensor` per layer whose ``values`` view
    the layer's segment of ``vector``; ``params[name]`` is the same segment in
    the layer's shape. Two ParamSets are *compatible* iff their layouts are
    equal: the same layer names in the same order with identical shapes. All
    aggregation operations require compatibility.
    """

    __slots__ = ("vector", "layout", "layers", "_by_name")

    def __init__(self, layers: Iterable[LayerTensor]) -> None:
        layers = tuple(layers)
        vector = np.concatenate([t.values for t in layers]) if layers else np.zeros(0)
        self._adopt(vector, tuple((t.name, t.shape) for t in layers))

    @classmethod
    def from_vector(cls, vector: np.ndarray, layout: Layout) -> "ParamSet":
        """Adopt a vector as the values of ``layout``; a float64 one is frozen in place, not copied."""
        self = cls.__new__(cls)
        self._adopt(np.ascontiguousarray(vector, dtype=np.float64), layout)
        return self

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ParamSet":
        """Build a ParamSet from an ordered name -> array mapping."""
        return cls(LayerTensor(name, np.shape(arr), arr) for name, arr in arrays.items())

    def _adopt(self, vector: np.ndarray, layout: Layout) -> None:
        layout = tuple((name, tuple(int(s) for s in shape)) for name, shape in layout)
        names = [name for name, _ in layout]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ValueError(f"duplicate layer name {dup!r}")
        expected = sum(math.prod(shape) for _, shape in layout)
        if vector.shape != (expected,):
            raise IncompatibleModelError(f"{vector.size} values for a layout of {expected} parameters")
        vector.setflags(write=False)
        views = segments(vector, layout)
        layers = tuple(LayerTensor(name, shape, views[name]) for name, shape in layout)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_by_name", dict(zip(names, layers)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ParamSet is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamSet):
            return NotImplemented
        return self.layout == other.layout and np.array_equal(self.vector, other.vector)

    def __repr__(self) -> str:
        return f"ParamSet({self.layout!r}, vector={self.vector!r})"

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[LayerTensor]:
        return iter(self.layers)

    def __getitem__(self, name: str) -> np.ndarray:
        """The layer's values as a read-only view in the layer's shape."""
        t = self.layer(name)
        return t.values.reshape(t.shape)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.layout)

    @property
    def num_params(self) -> int:
        return self.vector.size

    def layer(self, name: str) -> LayerTensor:
        return self._by_name[name]

    def require_compatible(self, other: "ParamSet") -> None:
        """Raise :class:`IncompatibleModelError` naming the first mismatching layer."""
        if len(self.layers) != len(other.layers):
            raise IncompatibleModelError(
                f"layer count mismatch: {len(self.layers)} vs {len(other.layers)}"
            )
        for (a, a_shape), (b, b_shape) in zip(self.layout, other.layout):
            if a != b:
                raise IncompatibleModelError(f"layer name mismatch: {a!r} vs {b!r}")
            if a_shape != b_shape:
                raise IncompatibleModelError(f"layer {a!r}: shape mismatch {a_shape} vs {b_shape}")


def dot(a: LayerTensor, b: LayerTensor) -> float:
    """Inner product of two same-shaped tensors."""
    if a.shape != b.shape:
        raise IncompatibleModelError(
            f"dot: shape mismatch {a.shape} vs {b.shape} ({a.name!r} vs {b.name!r})"
        )
    return float(np.dot(a.values, b.values))


def norm(a: LayerTensor) -> float:
    """Euclidean norm of a tensor."""
    return float(np.linalg.norm(a.values))


def weighted_sum(models: Sequence[ParamSet], coeffs) -> ParamSet:
    """Layer-by-layer linear combination: layer l = sum_k C[k, l] * models[k](l).

    ``coeffs`` is the (K, L) matrix C with one coefficient per (model,
    layer), or a length-K vector applied to every layer. Accumulation
    follows the given model order, so callers that need bit-reproducible
    output must fix that order themselves.
    """
    models = list(models)
    if not models:
        raise ValueError("weighted_sum: no models given")
    base = models[0]
    for m in models[1:]:
        base.require_compatible(m)
    table = np.asarray(coeffs, dtype=np.float64)
    if table.shape == (len(models),):
        table = table[:, None].repeat(len(base), axis=1)
    if table.shape != (len(models), len(base)):
        raise ValueError(
            f"weighted_sum: coefficients of shape {table.shape} for "
            f"{len(models)} models of {len(base)} layers"
        )
    sizes = [t.size for t in base.layers]
    acc = np.zeros(base.num_params)
    for m, row in zip(models, table):
        acc += np.repeat(row, sizes) * m.vector
    return ParamSet.from_vector(acc, base.layout)


def flatten(m: ParamSet, name: str = "flat") -> LayerTensor:
    """The whole model as one flat tensor in canonical order: a view of its vector.

    The vector is not validated again: a ParamSet's values are already
    finite, read-only float64.
    """
    flat = object.__new__(LayerTensor)  # skips __post_init__: no copy and no isfinite pass
    object.__setattr__(flat, "name", name)
    object.__setattr__(flat, "shape", (m.num_params,))
    object.__setattr__(flat, "values", m.vector)
    return flat


# ---------------------------------------------------------------------------
# Checkpoint I/O
#
# Binary container: 8-byte magic, uint32 LE version, uint64 LE header length,
# UTF-8 JSON header listing (name, shape, offset) per layer, then the
# concatenated little-endian float64 payloads. Offsets are relative to the
# start of the payload section. A JSON text variant exists for small models;
# both round-trip bit-exactly.
# ---------------------------------------------------------------------------


def save_checkpoint(params: ParamSet, path) -> None:
    """Write the binary checkpoint container."""
    entries, offset = [], 0
    for name, shape in params.layout:
        entries.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    header = json.dumps({"layers": entries}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(_PREAMBLE.pack(CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        fh.write(params.vector.astype("<f8").tobytes())


def paramset_to_json(params: ParamSet) -> dict:
    return {
        "format": "fedsim-paramset",
        "version": CHECKPOINT_VERSION,
        "layers": [
            {"name": t.name, "shape": list(t.shape), "values": [float(v) for v in t.values]}
            for t in params.layers
        ],
    }


def paramset_from_json(obj: Mapping) -> ParamSet:
    if not isinstance(obj, Mapping) or obj.get("format") != "fedsim-paramset":
        raise ValueError("not a fedsim parameter-set JSON document")
    layers = tuple(
        LayerTensor(e["name"], tuple(e["shape"]), np.asarray(e["values"], dtype=np.float64))
        for e in obj["layers"]
    )
    return ParamSet(layers)


def save_checkpoint_json(params: ParamSet, path) -> None:
    """Write the JSON text variant of the checkpoint."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(paramset_to_json(params), fh)
        fh.write("\n")


def load_checkpoint(path) -> ParamSet:
    """Read either checkpoint variant, sniffing the binary magic.

    Malformed content of any kind raises ValueError naming ``path``.
    """
    with open(path, "rb") as fh:
        try:
            if fh.read(len(CHECKPOINT_MAGIC)) == CHECKPOINT_MAGIC:
                return _load_binary(fh)
            fh.seek(0)
            try:
                obj = json.loads(fh.read().decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValueError("neither a binary nor a JSON checkpoint") from exc
            return paramset_from_json(obj)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"{path}: malformed checkpoint layout ({exc!r})") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _load_binary(fh) -> ParamSet:
    """The rest of a binary checkpoint after its magic; each layer's payload is read straight into the vector."""
    file_size = os.fstat(fh.fileno()).st_size
    preamble = fh.read(_PREAMBLE.size)
    if len(preamble) < _PREAMBLE.size:
        raise ValueError("truncated checkpoint: no version and header length")
    version, header_len = _PREAMBLE.unpack(preamble)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    payload_start = len(CHECKPOINT_MAGIC) + _PREAMBLE.size + header_len
    if payload_start > file_size:
        raise ValueError(f"header length {header_len} runs past the end of the file")
    header = json.loads(fh.read(header_len).decode("utf-8"))
    layout, extents = [], []
    for entry in header["layers"]:
        shape = tuple(int(s) for s in entry["shape"])
        count = math.prod(shape)  # exact: a huge shape cannot wrap around
        offset = int(entry["offset"])
        if offset < 0 or count < 0 or offset + 8 * count > file_size - payload_start:
            raise ValueError(
                f"layer {entry['name']!r}: {count} values at offset {offset} run past the payload"
            )
        layout.append((entry["name"], shape))
        extents.append((offset, count))
    vector = np.empty(sum(count for _, count in extents), dtype="<f8")
    at = 0
    for offset, count in extents:
        fh.seek(payload_start + offset)
        if fh.readinto(memoryview(vector[at : at + count]).cast("B")) != 8 * count:
            raise ValueError("checkpoint payload ended early")
        at += count
    return ParamSet.from_vector(vector, layout)
