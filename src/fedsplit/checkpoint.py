"""Binary checkpoint files for model parameters.

Layout (all integers little-endian):

    magic        4 bytes  b"VFCK"
    version      1 byte
    schema_hash  2-byte length + UTF-8
    meta count   2 bytes, then per entry: key and value each 2-byte length + UTF-8
    tensor count 4 bytes, then per tensor:
        name     2-byte length + UTF-8
        rows     4 bytes unsigned
        cols     4 bytes unsigned
        data     rows * cols float32 little-endian

Vectors are stored with rows = 1; the loader returns 2-D arrays and
set_params reshapes them against the live parameter shapes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .numeric import F32

MAGIC = b"VFCK"
VERSION = 1


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValidationError("string too long for checkpoint header")
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValidationError("truncated checkpoint file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        try:
            return self.take(self.u16()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"checkpoint string is not UTF-8: {exc}") from None


def save_checkpoint(path, params: dict, schema_hash: str, meta: dict | None = None) -> None:
    """Write named float32 tensors with a versioned header."""
    meta = meta or {}
    parts = [MAGIC, struct.pack("<B", VERSION), _pack_str(schema_hash)]
    parts.append(struct.pack("<H", len(meta)))
    for key in sorted(meta):
        parts.append(_pack_str(key))
        parts.append(_pack_str(str(meta[key])))
    names = sorted(params)
    parts.append(struct.pack("<I", len(names)))
    for name in names:
        tensor = np.asarray(params[name], dtype=F32)
        if tensor.ndim == 1:
            tensor = tensor.reshape(1, -1)
        if tensor.ndim != 2:
            raise ValidationError(f"tensor '{name}' must be 1-D or 2-D")
        parts.append(_pack_str(name))
        parts.append(struct.pack("<II", tensor.shape[0], tensor.shape[1]))
        parts.append(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> tuple[dict, str, dict]:
    """Read (params, schema_hash, meta); tensors come back 2-D float32."""
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != MAGIC:
        raise ValidationError(f"{path}: not a checkpoint file")
    version = reader.u8()
    if version != VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint version {version}")
    schema_hash = reader.string()
    meta = {}
    for _ in range(reader.u16()):
        key = reader.string()
        if key in meta:
            raise ValidationError(f"{path}: meta key '{key}' is stored twice")
        meta[key] = reader.string()
    params = {}
    for _ in range(reader.u32()):
        name = reader.string()
        if name in params:
            raise ValidationError(f"{path}: tensor '{name}' is stored twice")
        rows, cols = struct.unpack("<II", reader.take(8))
        data = np.frombuffer(reader.take(rows * cols * 4), dtype="<f4")
        params[name] = data.astype(F32).reshape(rows, cols)
    if reader.pos != len(reader.data):
        raise ValidationError(
            f"{path}: {len(reader.data) - reader.pos} bytes follow the last tensor")
    return params, schema_hash, meta
