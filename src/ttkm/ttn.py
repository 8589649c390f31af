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
length and reject files of the other layout; when a read fails and the
file fits the other layout exactly, the error says what the file holds.

Every binary input the package reads (``.ttn``, ``.ttkm`` and IDX) is
read through one cursor, ``_Reader``: a short input, bytes left over and
a NaN or inf float are each a DataFormatError naming the path.  Every
JSON input (the ``.ttkm`` header, ``.json`` labels) goes through one
decode, ``read_json``.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .errors import DataFormatError
from .tensor import DenseTensor, common_dims

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


def read_json(data: bytes, path, what: str):
    """The JSON value of the UTF-8 ``data`` read from ``path``.  Bytes that
    are not UTF-8, text that is not JSON and nesting too deep to decode are
    a DataFormatError, ``"<path>: <what> (<reason>)"``."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise DataFormatError(f"{path}: {what} ({exc})") from exc


class _Reader:
    """Cursor over the bytes of ``path``, whose numbers have byte order
    ``order``: ``"<"``, or ``">"`` for IDX."""

    def __init__(self, data: bytes, path, order: str = "<"):
        self.data = data
        self.pos = 0
        self.path = path
        self.order = order

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

    def rest(self) -> bytes:
        """Every byte not read yet."""
        return self.take(len(self.data) - self.pos)

    def magic(self, expected: bytes) -> None:
        """Read ``expected``'s bytes; a DataFormatError if they differ."""
        got = self.take(len(expected))
        if got != expected:
            raise DataFormatError(f"{self.path}: bad magic {got!r}, expected {expected!r}")

    def u32s(self, count: int) -> tuple[int, ...]:
        return struct.unpack(f"{self.order}{count}I", self.take(4 * count))

    def u32(self) -> int:
        return self.u32s(1)[0]

    def f64(self, count: int) -> np.ndarray:
        """The next ``count`` float64 values, as a view into the buffer; a
        NaN or inf among them is a DataFormatError."""
        self._need(8 * count)
        out = np.frombuffer(self.data, dtype=f"{self.order}f8", count=count, offset=self.pos)
        if not np.isfinite(out).all():
            raise DataFormatError(f"{self.path}: values must be finite, found NaN or inf")
        self.pos += 8 * count
        return out

    def expect_end(self):
        if self.pos != len(self.data):
            raise DataFormatError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes after payload"
            )


def _read_dims(r: _Reader) -> tuple[int, ...]:
    d = r.u32()
    if d == 0:
        raise DataFormatError(f"{r.path}: order 0 is not a valid tensor")
    dims = r.u32s(d)
    if any(n == 0 for n in dims):
        raise DataFormatError(f"{r.path}: zero-length mode in dims {dims}")
    return dims


def _read_tensors(r: _Reader, dims: tuple[int, ...], count: int) -> list[DenseTensor]:
    """``count`` tensors, each a view into one array over the payload.

    The payload, which the cursor has checked for NaN and inf in one pass,
    is converted to native float64 once, as ``DenseTensor`` converts, so
    the samples are built without checking each again.
    """
    flat = np.asarray(r.f64(count * math.prod(dims)), dtype=np.float64)
    # row i of the C-ordered (count, I_d, ..., I_1) view, transposed, is
    # sample i's first-index-fastest block as a (I_1, ..., I_d) view
    rows = flat.reshape((count,) + dims[::-1])
    return [DenseTensor._trusted(rows[i].T) for i in range(count)]


def _header_bytes(dims: tuple[int, ...]) -> bytes:
    return struct.pack(f"<{len(dims) + 1}I", len(dims), *dims)


def _f64_bytes(arr) -> bytes:
    """``arr`` as little-endian float64 in first-index-fastest order: the one
    float encoder of ``.ttn`` and ``.ttkm``."""
    return np.asarray(arr, dtype=np.float64).ravel(order="F").astype("<f8").tobytes()


def write_tensor(path, t: DenseTensor) -> None:
    """Write one tensor in the single-tensor layout."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + _header_bytes(t.dims) + _f64_bytes(t.values))


def _other_layout(data: bytes, path, dataset: bool) -> None:
    """Raise DataFormatError saying what ``data`` holds when its header and
    size fit the multi-sample layout (``dataset``) or the single-tensor one
    exactly.  Only a read that has failed calls this, so a valid file's
    read does no extra work."""
    r = _Reader(data, path)
    try:
        r.magic(MAGIC)
        m = r.u32() if dataset else 1
        dims = _read_dims(r)
    except DataFormatError:
        return
    if m and len(data) - r.pos == 8 * m * math.prod(dims):
        held = f"a dataset of {m} samples" if dataset else "a single tensor"
        wanted = "a single tensor" if dataset else "a dataset"
        raise DataFormatError(f"{path}: the file holds {held} of dims {dims}, not {wanted}")


def read_tensor(path) -> DenseTensor:
    """Read a single-tensor file; rejects multi-sample files."""
    data = read_bytes(path)
    r = _Reader(data, path)
    r.magic(MAGIC)
    try:
        dims = _read_dims(r)
        (tensor,) = _read_tensors(r, dims, 1)
        r.expect_end()
    except DataFormatError:
        _other_layout(data, path, dataset=True)
        raise
    return tensor


def write_dataset(path, samples) -> None:
    """Write same-shape tensors contiguously in the multi-sample layout."""
    samples = list(samples)
    if not samples:
        raise ValueError("cannot write an empty dataset")
    dims = common_dims(samples)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(samples)))
        fh.write(_header_bytes(dims))
        for s in samples:
            fh.write(_f64_bytes(s.values))


def read_dataset(path) -> list[DenseTensor]:
    """Read a multi-sample file; rejects single-tensor files.

    The file is read once; every sample's values are a read-only view into
    that one buffer, so no sample is copied.
    """
    data = read_bytes(path)
    r = _Reader(data, path)
    r.magic(MAGIC)
    try:
        m = r.u32()
        if m == 0:
            raise DataFormatError(f"{path}: multi-sample file with sample count 0")
        dims = _read_dims(r)
        samples = _read_tensors(r, dims, m)
        r.expect_end()
    except DataFormatError:
        _other_layout(data, path, dataset=False)
        raise
    return samples
