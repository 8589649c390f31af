"""Binary tensor container (.ttn files).

Single-tensor layout::

    magic "TTN1" | u32 d | d x u32 dims | prod(dims) x f64 values

Multi-sample layout (all samples share dims)::

    magic "TTN1" | u32 M | u32 d | d x u32 dims | M x prod(dims) x f64 values

All integers and floats are little-endian; values are stored in
first-index-fastest order, the package-wide linearization convention.
A NaN or inf value is a format error, and so is a path that exists but
cannot be read (a directory, or no permission); a missing file stays a
``FileNotFoundError``.
The two layouts are distinguished by the operation used to read them —
``read_tensor`` and ``read_dataset`` each validate the exact payload
length and reject files of the other layout.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import DataFormatError
from .tensor import DenseTensor

MAGIC = b"TTN1"


def read_bytes(path, opener=open) -> bytes:
    """All bytes of ``path``, read through ``opener``.

    A path that exists but cannot be read (a directory, no permission, a
    corrupt compressed stream) is a DataFormatError; a missing path stays
    a FileNotFoundError.  Every file reader in the package reads this way.
    """
    try:
        with opener(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise
    except (EOFError, OSError, zlib.error) as exc:  # gzip.BadGzipFile is an OSError
        raise DataFormatError(f"{path}: cannot read ({exc})") from exc


class _Reader:
    """Cursor over a byte string with format-error reporting."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def _need(self, n: int) -> None:
        if self.pos + n > len(self.data):
            raise DataFormatError(
                f"{self.path}: truncated file (needed {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos})"
            )

    def take(self, n: int) -> bytes:
        self._need(n)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def f64(self, count: int) -> np.ndarray:
        """The next ``count`` float64 values, as a view into the buffer."""
        self._need(8 * count)
        out = np.frombuffer(self.data, dtype="<f8", count=count, offset=self.pos)
        self.pos += 8 * count
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def expect_end(self):
        if self.pos != len(self.data):
            raise DataFormatError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes after payload"
            )


def _check_magic(r: _Reader):
    magic = r.take(4)
    if magic != MAGIC:
        raise DataFormatError(f"{r.path}: bad magic {magic!r}, expected {MAGIC!r}")


def _read_dims(r: _Reader) -> tuple[int, ...]:
    d = r.u32()
    if d == 0:
        raise DataFormatError(f"{r.path}: order 0 is not a valid tensor")
    dims = tuple(r.u32() for _ in range(d))
    if any(n == 0 for n in dims):
        raise DataFormatError(f"{r.path}: zero-length mode in dims {dims}")
    return dims


def _read_tensors(r: _Reader, dims: tuple[int, ...], count: int) -> list[DenseTensor]:
    """``count`` tensors, each a view into one array over the payload."""
    size = math.prod(dims)
    flat = r.f64(count * size)
    try:
        return [
            DenseTensor(flat[i * size:(i + 1) * size].reshape(dims, order="F"))
            for i in range(count)
        ]
    except ValueError as exc:  # non-finite values
        raise DataFormatError(f"{r.path}: {exc}") from exc


def _header_bytes(dims: tuple[int, ...]) -> bytes:
    return struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)


def _payload_bytes(t: DenseTensor) -> bytes:
    return t.values.ravel(order="F").astype("<f8").tobytes()


def write_tensor(path, t: DenseTensor) -> None:
    """Write one tensor in the single-tensor layout."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_header_bytes(t.dims))
        fh.write(_payload_bytes(t))


def read_tensor(path) -> DenseTensor:
    """Read a single-tensor file; rejects multi-sample files."""
    r = _Reader(read_bytes(path), path)
    _check_magic(r)
    dims = _read_dims(r)
    (tensor,) = _read_tensors(r, dims, 1)
    r.expect_end()
    return tensor


def write_dataset(path, samples) -> None:
    """Write same-shape tensors contiguously in the multi-sample layout."""
    samples = list(samples)
    if not samples:
        raise ValueError("cannot write an empty dataset")
    dims = samples[0].dims
    for i, s in enumerate(samples):
        if s.dims != dims:
            raise ValueError(f"sample {i} has dims {s.dims}, expected {dims}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(samples)))
        fh.write(_header_bytes(dims))
        for s in samples:
            fh.write(_payload_bytes(s))


def read_dataset(path) -> list[DenseTensor]:
    """Read a multi-sample file; rejects single-tensor files.

    The file is read once; every sample's values are a read-only view into
    that one buffer, so no sample is copied.
    """
    r = _Reader(read_bytes(path), path)
    _check_magic(r)
    m = r.u32()
    if m == 0:
        raise DataFormatError(f"{path}: multi-sample file with sample count 0")
    dims = _read_dims(r)
    samples = _read_tensors(r, dims, m)
    r.expect_end()
    return samples
