"""IDX file ingestion (the MNIST on-disk format).

An IDX file starts with a four-byte magic — two zero bytes, a type code
(0x08 for unsigned bytes), and the number of dimensions — followed by
that many big-endian u32 dimension sizes and the raw payload.  Image
files carry magic 0x00000803 (60000 x rows x cols), label files
0x00000801.  Files ending in ``.gz`` are decompressed transparently.  The
header is read through ``ttn``'s one byte cursor, big-endian, so a short
file is its truncation error; the payload must be exactly the dims' size.

Pixel bytes are scaled to [0, 1] by dividing by 255.  The ``reshape``
argument reinterprets each image's byte sequence over new dims in
first-index-fastest order, the package-wide linearization convention, so
any reshape with the same element count preserves the flat sequence.
"""

from __future__ import annotations

import gzip
import math

import numpy as np

from .errors import DataFormatError
from .tensor import DenseTensor, check_reshape
from .ttn import _Reader, read_bytes

UBYTE_TYPE = 0x08
IMAGE_NDIM = 3
LABEL_NDIM = 1


def _read_file(path) -> bytes:
    return read_bytes(path, gzip.open if str(path).endswith(".gz") else open)


def _parse_header(data: bytes, path, expected_ndim: int):
    r = _Reader(data, path, ">")
    r.magic(bytes((0, 0, UBYTE_TYPE)))
    ndim = r.take(1)[0]
    if ndim != expected_ndim:
        raise DataFormatError(
            f"{path}: {ndim} dimensions in header, expected {expected_ndim}"
        )
    dims = r.u32s(ndim)
    payload = r.rest()
    expected = math.prod(dims)
    if len(payload) != expected:
        raise DataFormatError(
            f"{path}: payload of {len(payload)} bytes does not match dims {dims} "
            f"({expected} bytes)"
        )
    return dims, payload


def load_idx_images(path, reshape=None) -> list[DenseTensor]:
    """Load an IDX image file into [0,1]-scaled tensors, one per image.

    ``reshape`` gives the per-image dims (default: the file's rows x
    columns), positive with product the image size in bytes.
    """
    dims, payload = _parse_header(_read_file(path), path, IMAGE_NDIM)
    if 0 in dims:
        raise DataFormatError(f"{path}: zero-length dimension in image dims {dims}")
    count, rows, cols = dims
    pixels = rows * cols
    reshape = check_reshape((rows, cols) if reshape is None else reshape, pixels)
    flat = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    per_image = flat.reshape(count, pixels)
    # bytes / 255 are finite, so the images are built as .ttn samples are
    return [DenseTensor._trusted(per_image[i].reshape(reshape, order="F"))
            for i in range(count)]


def load_idx_labels(path) -> np.ndarray:
    """Load an IDX label file as an int64 array of class ids."""
    dims, payload = _parse_header(_read_file(path), path, LABEL_NDIM)
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_idx_pair(images_path, labels_path, reshape=None):
    """Load matching image and label files; lengths must agree."""
    samples = load_idx_images(images_path, reshape=reshape)
    labels = load_idx_labels(labels_path)
    if len(samples) != len(labels):
        raise DataFormatError(
            f"{images_path} has {len(samples)} images but {labels_path} has "
            f"{len(labels)} labels"
        )
    return samples, labels
