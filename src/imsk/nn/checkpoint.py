"""Binary checkpoint container: "NNK1" magic, JSON config, named float32 arrays.

Layout (little-endian throughout):
    magic "NNK1"
    u32 config_json_length, config JSON (UTF-8)
    u32 parameter_count
    per parameter: u32 name_length, name (UTF-8), u32 ndim, ndim * u32 shape,
                   row-major float32 values
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"NNK1"


class CheckpointError(ValueError):
    """Raised for malformed or truncated checkpoint files."""


def save_checkpoint(path, config: dict, params: dict[str, np.ndarray]):
    blob = bytearray()
    blob += MAGIC
    cfg = json.dumps(config, sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(cfg)) + cfg
    blob += struct.pack("<I", len(params))
    for name, arr in params.items():
        nb = name.encode("utf-8")
        a = np.ascontiguousarray(arr, dtype="<f4")
        blob += struct.pack("<I", len(nb)) + nb
        blob += struct.pack("<I", a.ndim)
        blob += struct.pack(f"<{a.ndim}I", *a.shape)
        blob += a.tobytes()
    Path(path).write_bytes(bytes(blob))


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"truncated checkpoint: {self.path}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def text(self) -> str:
        try:
            return self.read(self.u32()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"invalid UTF-8 in checkpoint: {self.path}") from e


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    r = _Reader(Path(path).read_bytes(), path)
    if r.read(4) != MAGIC:
        raise CheckpointError(f"not a checkpoint file (bad magic): {path}")
    try:
        config = json.loads(r.text())
    except json.JSONDecodeError as e:
        raise CheckpointError(f"malformed config in checkpoint: {path}") from e
    if not isinstance(config, dict):
        raise CheckpointError(f"checkpoint config is not a JSON object: {path}")
    params: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.text()
        ndim = r.u32()
        shape = struct.unpack(f"<{ndim}I", r.read(4 * ndim))
        count = math.prod(shape)
        data = np.frombuffer(r.read(4 * count), dtype="<f4").reshape(shape)
        params[name] = data.astype(np.float32)
    if r.pos != len(r.buf):
        raise CheckpointError(f"trailing bytes in checkpoint: {path}")
    return config, params
