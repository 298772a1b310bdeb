"""Binary containers, the one layout behind the feature, codebook, topic-model
and document files.

A container is little-endian: a ``struct`` header that starts with a 4-byte
magic and a u32 version, then arrays back to back with no padding. A format
declares its header, its arrays as (dtype, count) specs and its own value
checks. Reading checks the header length, magic, version and the exact size
the specs imply; each failure raises :class:`FormatError` naming the path
and saying "truncated", "magic", "version", or "expected N bytes".
"""

import struct

import numpy as np

from .errors import FormatError


def write(path, header: struct.Struct, fields, parts) -> None:
    """Write ``header`` packed from ``fields`` (magic and version first), then
    each of ``parts``: bytes as they are, arrays in C order in their dtype."""
    with open(path, "wb") as fh:
        fh.write(header.pack(*fields))
        for part in parts:
            fh.write(part.tobytes() if isinstance(part, np.ndarray) else part)


def read(data: bytes, path, header: struct.Struct, magic: bytes, version: int, what: str):
    """The header fields after magic and version, checked to be ``magic`` and
    ``version``; ``what`` names the format in errors."""
    if len(data) < header.size:
        raise FormatError(f"{path}: truncated {what} header")
    got, got_version, *rest = header.unpack_from(data)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    if got_version != version:
        raise FormatError(f"{path}: unsupported {what} version {got_version}")
    return rest


def arrays(data: bytes, path, header: struct.Struct, *specs) -> list[np.ndarray]:
    """Read-only views of the arrays that follow ``header``, one per
    ``(dtype, count)`` spec, after checking that they fill ``data`` exactly."""
    specs = [(np.dtype(dtype), count) for dtype, count in specs]
    expected = header.size + sum(dtype.itemsize * count for dtype, count in specs)
    if len(data) != expected:
        problem = "truncated payload" if len(data) < expected else "trailing data"
        raise FormatError(f"{path}: {problem}, expected {expected} bytes, got {len(data)}")
    views, offset = [], header.size
    for dtype, count in specs:
        views.append(np.frombuffer(data, dtype, count, offset))
        offset += dtype.itemsize * count
    return views
