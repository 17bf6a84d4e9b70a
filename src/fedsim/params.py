"""Named parameter tensors, the linear algebra behind aggregation, and checkpoint I/O.

A model is represented as a :class:`ParamSet`: an ordered collection of
uniquely named flat float64 tensors. ParamSets are immutable after
construction, so every operation in this module is a pure function.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

CHECKPOINT_MAGIC = b"FSIMPSET"
CHECKPOINT_VERSION = 1
_PREAMBLE = struct.Struct("<IQ")


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
        expected = int(np.prod(shape, dtype=np.int64))
        if flat.size != expected:
            raise ValueError(
                f"layer {self.name!r}: shape {shape} implies {expected} values, got {flat.size}"
            )
        if flat.size and not np.isfinite(flat).all():
            raise ValueError(f"layer {self.name!r} contains non-finite values")
        flat.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", flat)

    __hash__ = None

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

    def array(self) -> np.ndarray:
        """Writable copy reshaped to the declared shape."""
        return self.values.reshape(self.shape).copy()

    @classmethod
    def from_array(cls, name: str, array) -> "LayerTensor":
        arr = np.asarray(array, dtype=np.float64)
        return cls(name, arr.shape, arr.reshape(-1))


@dataclass(frozen=True, eq=False)
class ParamSet:
    """Ordered, immutable collection of uniquely named layer tensors.

    Two ParamSets are *compatible* iff they carry the same layer names in the
    same order with identical shapes. All aggregation operations require
    compatibility.
    """

    layers: tuple[LayerTensor, ...]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        names = [t.name for t in layers]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ValueError(f"duplicate layer name {dup!r}")
        object.__setattr__(self, "layers", layers)

    __hash__ = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamSet):
            return NotImplemented
        return len(self.layers) == len(other.layers) and all(
            a == b for a, b in zip(self.layers, other.layers)
        )

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[LayerTensor]:
        return iter(self.layers)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.layers)

    @property
    def num_params(self) -> int:
        return sum(t.size for t in self.layers)

    def layer(self, name: str) -> LayerTensor:
        for t in self.layers:
            if t.name == name:
                return t
        raise KeyError(name)

    def compatible_with(self, other: "ParamSet") -> bool:
        return len(self.layers) == len(other.layers) and all(
            a.name == b.name and a.shape == b.shape
            for a, b in zip(self.layers, other.layers)
        )

    def require_compatible(self, other: "ParamSet") -> None:
        """Raise :class:`IncompatibleModelError` naming the first mismatching layer."""
        if len(self.layers) != len(other.layers):
            raise IncompatibleModelError(
                f"layer count mismatch: {len(self.layers)} vs {len(other.layers)}"
            )
        for a, b in zip(self.layers, other.layers):
            if a.name != b.name:
                raise IncompatibleModelError(f"layer name mismatch: {a.name!r} vs {b.name!r}")
            if a.shape != b.shape:
                raise IncompatibleModelError(
                    f"layer {a.name!r}: shape mismatch {a.shape} vs {b.shape}"
                )

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Shaped writable copies keyed by layer name, in canonical order."""
        return {t.name: t.array() for t in self.layers}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ParamSet":
        """Build a ParamSet from an ordered name -> array mapping."""
        return cls(tuple(LayerTensor.from_array(name, arr) for name, arr in arrays.items()))


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
    out = []
    for idx, (ref, column) in enumerate(zip(base.layers, table.T.tolist())):
        acc = np.zeros(ref.size, dtype=np.float64)
        for m, c in zip(models, column):
            acc += c * m.layers[idx].values
        out.append(LayerTensor(ref.name, ref.shape, acc))
    return ParamSet(tuple(out))


def flatten(m: ParamSet, name: str = "flat") -> LayerTensor:
    """Concatenate all layers into one flat tensor in canonical order."""
    if not m.layers:
        return LayerTensor(name, (0,), np.zeros(0))
    values = np.concatenate([t.values for t in m.layers])
    return LayerTensor(name, (values.size,), values)


def unflatten(flat: LayerTensor, like: ParamSet) -> ParamSet:
    """Split a flat tensor back into the layer layout of ``like``."""
    if flat.size != like.num_params:
        raise IncompatibleModelError(
            f"unflatten: {flat.size} values for a layout of {like.num_params} parameters"
        )
    out = []
    offset = 0
    for ref in like.layers:
        out.append(LayerTensor(ref.name, ref.shape, flat.values[offset : offset + ref.size]))
        offset += ref.size
    return ParamSet(tuple(out))


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
    entries = []
    offset = 0
    payloads = []
    for t in params.layers:
        entries.append({"name": t.name, "shape": list(t.shape), "offset": offset})
        raw = t.values.astype("<f8").tobytes()
        payloads.append(raw)
        offset += len(raw)
    header = json.dumps({"layers": entries}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(_PREAMBLE.pack(CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        for raw in payloads:
            fh.write(raw)


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
        blob = fh.read()
    try:
        if blob[: len(CHECKPOINT_MAGIC)] == CHECKPOINT_MAGIC:
            return _load_binary(blob)
        try:
            obj = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError("neither a binary nor a JSON checkpoint") from exc
        return paramset_from_json(obj)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed checkpoint layout ({exc!r})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_binary(blob: bytes) -> ParamSet:
    pos = len(CHECKPOINT_MAGIC) + _PREAMBLE.size
    if len(blob) < pos:
        raise ValueError("truncated checkpoint: no version and header length")
    version, header_len = _PREAMBLE.unpack_from(blob, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if header_len > len(blob) - pos:
        raise ValueError(f"header length {header_len} runs past the end of the file")
    header = json.loads(blob[pos : pos + header_len].decode("utf-8"))
    payload = memoryview(blob)[pos + header_len :]
    layers = []
    for entry in header["layers"]:
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape, dtype=np.int64))
        offset = int(entry["offset"])
        if offset < 0 or count < 0 or offset + 8 * count > len(payload):
            raise ValueError(
                f"layer {entry['name']!r}: {count} values at offset {offset} run past the payload"
            )
        values = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        layers.append(LayerTensor(entry["name"], shape, values))
    return ParamSet(tuple(layers))
