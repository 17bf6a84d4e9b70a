"""A reader for fedsim's binary checkpoint container, independent of fedsim.

Layout: 8-byte magic ``FSIMPSET``, uint32 LE version, uint64 LE header
length, a UTF-8 JSON header listing name, shape and payload offset per layer,
then little-endian float64 payloads.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"FSIMPSET"


def read_checkpoint(path) -> list[tuple[str, np.ndarray]]:
    """(name, shaped float64 array) per layer, in file order."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a binary fedsim checkpoint")
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20 : 20 + header_len].decode("utf-8"))
    base = 20 + header_len
    layers = []
    for entry in header["layers"]:
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape, dtype=np.int64))
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=base + int(entry["offset"]))
        layers.append((entry["name"], values.reshape(shape).astype(np.float64)))
    return layers
