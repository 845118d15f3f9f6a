"""The one binary container of datasets (``CGDS``), checkpoints and attention
exports (``CGCK``), laid out as README "File formats" describes: magic,
version, tag, JSON header, then named tensors, each with a dtype code, shape
and little-endian data, then a checksum trailer.  Version 2, the one written,
ends in a CRC-32; version 1, still read for checkpoints and attention
exports, has no dtype codes (every tensor is <f8) and ends in a 64-bit FNV-1a.
"""
from __future__ import annotations

import io
import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

VERSION = 2
DTYPES = {ord("f"): np.dtype("<f4"), ord("d"): np.dtype("<f8"),
          ord("i"): np.dtype("<i4")}
_CODES = {dtype: code for code, dtype in DTYPES.items()}


class CorruptionError(RuntimeError):
    """A file that is not a well-formed artifact of the expected kind."""


def fnv1a64(data) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _trailer(version: int, payload) -> bytes:
    if version == 1:
        return struct.pack("<Q", fnv1a64(payload))
    return struct.pack("<I", zlib.crc32(payload))


def seal(payload: bytes) -> bytes:
    """A version-2 payload followed by its checksum trailer."""
    return payload + _trailer(VERSION, payload)


def _str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def write(fh, magic: bytes, tag: str, meta, tensors) -> None:
    """Stream a version-2 table of the JSON value meta and the (name, array)
    tensors, each of one of the DTYPES, to the binary file fh.  Arrays are
    written from their own buffers while the CRC-32 is updated, so the
    tensor data is never copied."""
    crc = 0

    def put(chunk) -> None:
        nonlocal crc
        fh.write(chunk)
        crc = zlib.crc32(chunk, crc)

    put(magic + struct.pack("<I", VERSION) + _str(tag)
        + _str(json.dumps(meta, sort_keys=True)) + struct.pack("<I", len(tensors)))
    for name, data in tensors:
        data = np.ascontiguousarray(data)
        dtype = data.dtype.newbyteorder("<")
        if dtype not in _CODES:
            raise ValueError(f"tensor {name!r} has unsupported dtype {data.dtype}")
        put(_str(name) + bytes([_CODES[dtype]])
            + struct.pack(f"<{1 + data.ndim}I", data.ndim, *data.shape))
        put(data.astype(dtype, copy=False).reshape(-1).view(np.uint8))
    fh.write(struct.pack("<I", crc))


@contextmanager
def replacing(path):
    """A binary handle on a temporary file beside path that replaces path in
    one os.replace when the block ends; on any error the temporary file is
    removed and path is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save(path, magic: bytes, tag: str, meta, tensors) -> None:
    with replacing(path) as fh:
        write(fh, magic, tag, meta, tensors)


def to_bytes(magic: bytes, tag: str, meta, tensors) -> bytes:
    fh = io.BytesIO()
    write(fh, magic, tag, meta, tensors)
    return fh.getvalue()


def parse(buf, magic: bytes, versions=(VERSION,)) -> tuple[str, object, dict]:
    """(tag, meta, {name: array}) of a table of kind magic in one of versions.

    Raises CorruptionError on a bad magic, another version, a checksum
    mismatch, invalid UTF-8 or JSON, an unknown dtype code, a repeated
    tensor name, a truncated table, or bytes left after the last tensor.
    Each tensor is copied out of buf once, into a native-endian array.
    """
    view = memoryview(buf)
    kind = magic.decode()
    if len(view) < 8 or view[:4] != magic:
        raise CorruptionError(f"not a {kind} file (bad magic)")
    version = int.from_bytes(view[4:8], "little")
    if version not in versions:
        raise CorruptionError(f"unsupported {kind} version {version} (this "
                              f"reader takes {', '.join(map(str, versions))})")
    end = len(view) - len(_trailer(version, b""))
    if end < 8 or view[end:] != _trailer(version, view[:end]):
        raise CorruptionError(f"{kind} checksum mismatch")
    off = 8

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > end:
            raise CorruptionError("unexpected end of file")
        off += n
        return view[off - n: off]

    def u32s(n: int) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", take(4 * n))

    def string() -> str:
        raw = take(u32s(1)[0])
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError(f"text field is not UTF-8: {exc}") from exc

    tag = string()
    try:
        meta = json.loads(string())
    except (ValueError, RecursionError) as exc:
        raise CorruptionError(f"header is not JSON: {exc}") from exc
    tensors = {}
    for _ in range(u32s(1)[0]):
        name = string()
        code = take(1)[0] if version > 1 else ord("d")
        if code not in DTYPES:
            raise CorruptionError(f"tensor {name!r} has unknown dtype code {code}")
        if name in tensors:
            raise CorruptionError(f"tensor {name!r} appears twice")
        shape = u32s(u32s(1)[0])
        data = take(DTYPES[code].itemsize * math.prod(shape))
        tensors[name] = np.frombuffer(data, DTYPES[code]).astype(
            DTYPES[code].newbyteorder("=")).reshape(shape)
    if off != end:
        raise CorruptionError("trailing bytes after the tensor table")
    return tag, meta, tensors


def load(path, magic: bytes, versions=(VERSION,)) -> tuple[str, object, dict]:
    with open(path, "rb") as fh:
        return parse(fh.read(), magic, versions)
