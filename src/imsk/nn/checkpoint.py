"""Binary checkpoint container: "NNK1" magic, JSON config, named float32 arrays,
and the one path between a model and its file (`save_model`, `load_model`).

It holds every array file imsk writes: model checkpoints (config kind
"asr", "lm" or "sad") and the per-segment features that `transcribe
--keep-intermediates` keeps (kind "features", one array per segment id).
`save_checkpoint` writes one record at a time to the open file, and a
contiguous float32 array straight from its own memory, without a copy.

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
    cfg = json.dumps(config, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<I", len(cfg)) + cfg + struct.pack("<I", len(params)))
        for name, arr in params.items():
            nb = name.encode("utf-8")
            a = np.ascontiguousarray(arr, dtype="<f4")
            f.write(struct.pack("<I", len(nb)) + nb + struct.pack(f"<I{a.ndim}I", a.ndim, *a.shape))
            f.write(a)


class _Reader:
    def __init__(self, buf: memoryview, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def read(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"truncated checkpoint: {self.path}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def text(self) -> str:
        try:
            return str(self.read(self.u32()), "utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"invalid UTF-8 in checkpoint: {self.path}") from e


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The config and the named arrays of checkpoint `path`, the arrays
    read-only views of the file's bytes."""
    r = _Reader(memoryview(Path(path).read_bytes()), path)
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
        if name in params:
            raise CheckpointError(f"repeated array name {name!r} in checkpoint: {path}")
        ndim = r.u32()
        shape = struct.unpack(f"<{ndim}I", r.read(4 * ndim))
        count = math.prod(shape)
        params[name] = np.frombuffer(r.read(4 * count), dtype="<f4").reshape(shape)
    if r.pos != len(r.buf):
        raise CheckpointError(f"trailing bytes in checkpoint: {path}")
    return config, params


def save_model(path, model, **extra) -> None:
    """Write `model` (kind `model.KIND`), its `config_dict()` and `extra` config fields."""
    params = {name: p.data for name, p in model.named_params()}
    save_checkpoint(path, {"kind": model.KIND, **extra, **model.config_dict()}, params)


def load_model(path, cls, what: str):
    """(model, config) of checkpoint `path`, of kind `cls.KIND`: the model
    is `cls.from_config(config)` with the file's arrays. An error met while
    building it (a missing field, a wrong shape) is a CheckpointError that
    names the path."""
    config, params = load_checkpoint(path)
    if config.get("kind") != cls.KIND:
        raise ValueError(f"{path} is not a {what} checkpoint")
    try:
        model = cls.from_config(config)
        model.load_state_dict(params)
    except KeyError as e:
        raise CheckpointError(f"{path}: checkpoint config lacks {e}") from e
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: {e}") from e
    return model, config
