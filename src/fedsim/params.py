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
from typing import Mapping, NamedTuple

import numpy as np

CHECKPOINT_MAGIC = b"FSIMPSET"
CHECKPOINT_VERSION = 1
_PREAMBLE = struct.Struct("<IQ")

Layout = tuple[tuple[str, tuple[int, ...]], ...]


class IncompatibleModelError(ValueError):
    """Parameter sets do not share names, order, or shapes."""


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


class _Layer(NamedTuple):
    name: str
    shape: tuple[int, ...]
    values: np.ndarray  # flat view of the layer's segment

    @property
    def size(self) -> int:
        return self.values.size


class ParamSet:
    """A model: one read-only float64 vector and its (name, shape) layout.

    ``params[name]`` is a layer's segment of ``vector`` in the layer's shape.
    Two ParamSets are *compatible* iff their layouts are equal: the same
    layer names in the same order with identical shapes. All aggregation
    operations require compatibility.
    """

    __slots__ = ("vector", "layout")

    def __init__(self, vector: np.ndarray, layout: Layout) -> None:
        """Adopt ``vector`` as the values of ``layout``; a float64 one is frozen in place, not copied."""
        vector = np.ascontiguousarray(vector, dtype=np.float64)
        layout = tuple((name, tuple(int(s) for s in shape)) for name, shape in layout)
        names = [name for name, _ in layout]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ValueError(f"duplicate layer name {dup!r}")
        for name, shape in layout:
            if any(s < 0 for s in shape):
                raise ValueError(f"layer {name!r}: negative dimension in shape {shape}")
        expected = sum(math.prod(shape) for _, shape in layout)
        if vector.shape != (expected,):
            raise IncompatibleModelError(f"{vector.size} values for a layout of {expected} parameters")
        _require_finite(vector, layout)
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "layout", layout)

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ParamSet":
        """Build a ParamSet from an ordered name -> array mapping (copied)."""
        flat = [np.asarray(arr, dtype=np.float64).reshape(-1) for arr in arrays.values()]
        vector = np.concatenate(flat) if flat else np.zeros(0)
        return cls(vector, tuple((name, np.shape(arr)) for name, arr in arrays.items()))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ParamSet is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamSet):
            return NotImplemented
        return self.layout == other.layout and np.array_equal(self.vector, other.vector)

    def __repr__(self) -> str:
        return f"ParamSet({self.layout!r}, vector={self.vector!r})"

    def __getitem__(self, name: str) -> np.ndarray:
        """The layer's values as a read-only view in the layer's shape."""
        return segments(self.vector, self.layout)[name]

    @property
    def layers(self) -> tuple[_Layer, ...]:
        """``(name, shape, values)`` records over flat views of the vector, built on each access.

        Kept for readers outside this package; fedsim itself uses ``layout``
        and ``params[name]``.
        """
        flat = tuple((name, (math.prod(shape),)) for name, shape in self.layout)
        views = segments(self.vector, flat).values()
        return tuple(_Layer(name, shape, v) for (name, shape), v in zip(self.layout, views))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.layout)

    @property
    def num_params(self) -> int:
        return self.vector.size

    def require_compatible(self, other) -> None:
        """Raise :class:`IncompatibleModelError` at the first layer where ``other`` (a layout, or has one) differs."""
        theirs = getattr(other, "layout", other)
        if len(self.layout) != len(theirs):
            raise IncompatibleModelError(f"layer count mismatch: {len(self.layout)} vs {len(theirs)}")
        for (a, a_shape), (b, b_shape) in zip(self.layout, theirs):
            if a != b:
                raise IncompatibleModelError(f"layer name mismatch: {a!r} vs {b!r}")
            if a_shape != b_shape:
                raise IncompatibleModelError(f"layer {a!r}: shape mismatch {a_shape} vs {b_shape}")


def _require_finite(vector: np.ndarray, layout: Layout) -> None:
    if not np.isfinite(vector).all():
        bad = next(n for n, seg in segments(vector, layout).items() if not np.isfinite(seg).all())
        raise ValueError(f"layer {bad!r} contains non-finite values")


def weighted_sum(block: np.ndarray, layout: Layout, coeffs, out: np.ndarray | None = None) -> ParamSet | None:
    """Layer-by-layer linear combination of a (K, P) block's rows: layer l = sum_k C[k, l] * row_k(l).

    ``coeffs`` is the (K, L) matrix C with one coefficient per (row, layer).
    Each layer accumulates from zeros, one row at a time in row order, so
    callers that need bit-reproducible output must fix that order themselves.
    With ``out``, the rows are added to that vector instead, and None returned.
    """
    table = np.asarray(coeffs, dtype=np.float64)
    width = sum(math.prod(shape) for _, shape in layout)
    if block.ndim != 2 or not len(block) or block.shape[1] != width:
        raise ValueError(f"weighted_sum: expected a (K >= 1, {width}) block, got shape {block.shape}")
    if table.shape != (len(block), len(layout)):
        raise ValueError(
            f"weighted_sum: coefficients of shape {table.shape} for {len(block)} models of {len(layout)} layers"
        )
    acc = np.zeros(block.shape[1]) if out is None else out
    for acc_l, rows_l, column in zip(segments(acc, layout).values(), segments(block, layout).values(), table.T):
        for c, row in zip(column, rows_l):
            acc_l += c * row
    return ParamSet(acc, layout) if out is None else None


# ---------------------------------------------------------------------------
# Checkpoint I/O
#
# Binary container: 8-byte magic, uint32 LE version, uint64 LE header length,
# UTF-8 JSON header listing (name: str, shape: [int >= 0], offset: int) per
# layer, then the layers' little-endian float64 payloads in order, back to back
# to the end of the file: each offset is the byte total of the layers before it.
# It round-trips bit-exactly.
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
        fh.write(np.ascontiguousarray(params.vector, dtype="<f8"))  # no copy on a little-endian host


def load_checkpoint(path, *, like: ParamSet | None = None, out: np.ndarray | None = None) -> ParamSet | None:
    """Read a binary checkpoint; malformed content of any kind raises ValueError naming ``path``.

    With ``like``, the file must hold ``like``'s layout (else IncompatibleModelError naming
    ``path``). With ``out`` as well, a writable, C-contiguous float64 array of ``like``'s width
    such as a row of a round's block, the values go straight into ``out`` and are checked finite;
    nothing is returned. A bad ``out`` raises ValueError before the file is opened.
    """
    if out is not None and like is None:
        raise ValueError("load_checkpoint: out= needs like= to give its layout")
    if out is not None and not (isinstance(out, np.ndarray) and out.flags.carray  # writable and C-contiguous
                                and out.dtype == np.float64 and out.shape == like.vector.shape):
        raise ValueError(f"load_checkpoint: out= is not a writable, C-contiguous array of {like.num_params} float64s")
    with open(path, "rb") as fh:
        try:
            layout, vector = _read(fh, like, out)
            if out is None:
                return ParamSet(vector, layout)
            _require_finite(out, layout)
        except IncompatibleModelError as exc:
            raise IncompatibleModelError(f"{path}: {exc}") from exc
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"{path}: malformed checkpoint layout ({exc!r})") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _read(fh, like: ParamSet | None, out: np.ndarray | None) -> tuple[Layout, np.ndarray]:
    """The file's layout, checked against ``like`` first, and its values read into ``out`` or a new array."""
    if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise ValueError("not a fedsim checkpoint (no FSIMPSET magic)")
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
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except RecursionError as exc:  # not a ValueError, unlike every other JSON fault
        raise ValueError("checkpoint header nested too deep to parse") from exc
    found, total = [], 0  # total: the values of the layers so far, which end where the next one starts
    for entry in header["layers"]:
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        if type(name) is not str or type(shape) is not list or not all(type(s) is int and s >= 0 for s in shape):
            raise ValueError(f"layer {name!r} of shape {shape!r}: expected a string name and a list of ints >= 0")
        if type(offset) is not int or offset != 8 * total:
            raise ValueError(f"layer {name!r}: offset {offset!r}, expected {8 * total}: layers are stored in order")
        found.append((name, tuple(shape)))
        total += math.prod(shape)  # exact: a huge shape cannot wrap around
    if 8 * total != file_size - payload_start:  # checked before anything is allocated or read
        raise ValueError(f"the header's layers hold {8 * total} bytes, the payload {file_size - payload_start}")
    if like is not None:
        like.require_compatible(found)
    vector = np.empty(total) if out is None else out
    if fh.readinto(memoryview(vector).cast("B")) != 8 * total:  # the payload starts where the header ends
        raise ValueError("checkpoint payload ended early")
    return tuple(found), vector
