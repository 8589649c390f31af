"""Model persistence (.ttkm files).

Layout::

    magic "TTKM" | u32 version | u32 header_len | header JSON | binary blob

The header is human-readable JSON carrying the kernel settings, dims,
rank chain, class ids, grid metadata, and a CRC-32 of the blob; the blob
carries the exact float64 payload (little-endian): the support set, the
model's ``TrainStack`` (its shared trailing cores once, then all first
cores as one Fortran-order block), coef (alpha_i * y_i), and the bias.
Keeping floats out of the header preserves bit-identical predictions
across a round trip; keeping structure out of the blob keeps diffs
reviewable.

A file holds either one binary model (``kind: "binary"``) or a
one-vs-one ensemble (``kind: "ovo"``) whose per-pair blobs are
concatenated and indexed by offsets in the header.

The checksum covers only the blob, so every header field is validated on
load: a missing or ill-typed key is a DataFormatError, never a crash.  So
is a NaN or inf in the blob, a one-vs-one file whose pair blobs do not lie
end to end or whose entries are not each ascending pair of its classes
once, each over its own model, and a path that cannot be read; a missing
file is a FileNotFoundError.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import zlib

import numpy as np

from .errors import DataFormatError
from .kernels import KernelSpec, _stack
from .pipeline import OvoModel, SvmModel
from .tensor import TrainStack
from .ttn import read_bytes

MAGIC = b"TTKM"
VERSION = 1


def _core_shapes(dims, interior_ranks):
    chain = (1,) + tuple(interior_ranks) + (1,)
    return [(chain[k], dims[k], chain[k + 1]) for k in range(len(dims))]


def _f64_bytes(arr: np.ndarray) -> bytes:
    return np.asarray(arr, dtype=np.float64).ravel(order="F").astype("<f8").tobytes()


def _model_header(model: SvmModel, meta) -> dict:
    return {
        "spec": model.spec.to_dict(),
        "dims": [int(n) for n in model.dims],
        "interior_ranks": [int(r) for r in model.interior_ranks],
        "neg_class": int(model.neg_class),
        "pos_class": int(model.pos_class),
        "normalize": bool(model.normalize),
        "grid_point": model.grid_point,
        "validation_accuracy": model.validation_accuracy,
        "support_count": len(model.support),
        "meta": meta if meta is not None else {},
    }


def _model_blob(model: SvmModel) -> bytes:
    arrays = []
    if model.support:
        stack = _stack(model.support, "support")
        if len(stack.lead) > 1:
            raise ValueError("support vectors without shared trailing cores cannot be saved")
        # the first cores, one after another, are one (1, I1, R2, n) block
        arrays = [*stack.tail, stack.lead[0].transpose(1, 2, 3, 0)]
    arrays.append(model.coef)
    return b"".join(map(_f64_bytes, arrays)) + struct.pack("<d", float(model.bias))


def _is_int(v) -> bool:
    return type(v) is int


def _is_dict(v) -> bool:
    return isinstance(v, dict)


def _int_list(v, minimum=-math.inf) -> bool:
    return isinstance(v, list) and all(_is_int(x) and x >= minimum for x in v)


def _get(header, key: str, ok, path):
    """``header[key]``; DataFormatError when it is missing or ``ok`` rejects it."""
    value = header.get(key) if isinstance(header, dict) else None
    if value is None or not ok(value):
        raise DataFormatError(f"{path}: header key {key!r} is missing or invalid: {value!r}")
    return value


def _model_from_parts(header: dict, blob: bytes, path) -> SvmModel:
    dims = tuple(_get(header, "dims", lambda v: _int_list(v, 1) and len(v) > 0, path))
    ranks = tuple(_get(
        header, "interior_ranks", lambda v: _int_list(v, 1) and len(v) == len(dims) - 1, path
    ))
    shapes = _core_shapes(dims, ranks)
    count = _get(header, "support_count", lambda v: _is_int(v) and v >= 0, path)
    need = 8 * (sum(math.prod(s) for s in shapes[1:]) if count else 0)
    need += 8 * count * math.prod(shapes[0])
    need += 8 * count + 8
    if len(blob) != need:
        raise DataFormatError(
            f"{path}: blob of {len(blob)} bytes does not match header "
            f"(expected {need})"
        )
    # the checksum only shows the blob is as written; a NaN written into it
    # would reach lstsq at predict time
    if not np.all(np.isfinite(np.frombuffer(blob, dtype="<f8"))):
        raise DataFormatError(f"{path}: model holds a NaN or inf value")
    pos = 0

    def take(shape):
        nonlocal pos
        n = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=pos)
        pos += 8 * n
        return arr.reshape(shape, order="F")

    support = ()
    if count:
        tail = tuple(take(s) for s in shapes[1:])
        first = take(shapes[0] + (count,)).transpose(3, 0, 1, 2)
        support = tuple(TrainStack((first,), tail))
    coef = take((count,)).astype(np.float64)
    bias = struct.unpack_from("<d", blob, pos)[0]
    try:
        spec = KernelSpec.from_dict(header["spec"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad kernel spec in header ({exc})") from exc
    if spec.order != len(dims):
        raise DataFormatError(
            f"{path}: kernel spec has {spec.order} per-mode kernels but dims has "
            f"{len(dims)} modes"
        )
    return SvmModel(
        support=support,
        coef=coef,
        bias=float(bias),
        spec=spec,
        dims=dims,
        interior_ranks=ranks,
        neg_class=_get(header, "neg_class", _is_int, path),
        pos_class=_get(header, "pos_class", _is_int, path),
        normalize=_get(header, "normalize", lambda v: isinstance(v, bool), path),
        grid_point=_get(header, "grid_point", _is_dict, path),
        validation_accuracy=_get(
            header, "validation_accuracy", lambda v: isinstance(v, (int, float)), path
        ),
        info={"meta": header.get("meta", {})},
    )


def save_model(path, model, meta=None) -> None:
    """Write a binary or one-vs-one model; ``meta`` lands in the header."""
    if isinstance(model, SvmModel):
        blob = _model_blob(model)
        header = {
            "kind": "binary",
            "model": _model_header(model, meta),
        }
    elif isinstance(model, OvoModel):
        blobs, entries = [], []
        offset = 0
        for pair in sorted(model.models):
            sub = model.models[pair]
            blob = _model_blob(sub)
            entries.append(
                {
                    "pair": [int(pair[0]), int(pair[1])],
                    "model": _model_header(sub, None),
                    "blob_offset": offset,
                    "blob_len": len(blob),
                }
            )
            blobs.append(blob)
            offset += len(blob)
        blob = b"".join(blobs)
        header = {
            "kind": "ovo",
            "classes": [int(c) for c in model.classes],
            "models": entries,
            "meta": meta if meta is not None else {},
        }
    else:
        raise ValueError(f"cannot save object of type {type(model).__name__}")
    header["checksum"] = zlib.crc32(blob) & 0xFFFFFFFF
    header["blob_len"] = len(blob)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(blob)


def load_model(path):
    """Read a .ttkm file back into an SvmModel or OvoModel."""
    data = read_bytes(path)
    if len(data) < 12:
        raise DataFormatError(f"{path}: too short for a model file")
    if data[:4] != MAGIC:
        raise DataFormatError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != VERSION:
        raise DataFormatError(
            f"{path}: file version {version} is not supported (this build reads "
            f"version {VERSION})"
        )
    if len(data) < 12 + header_len:
        raise DataFormatError(f"{path}: truncated header")
    try:
        header = json.loads(data[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: header is not a JSON object")
    blob = data[12 + header_len:]
    blob_len = _get(header, "blob_len", _is_int, path)
    if len(blob) != blob_len:
        raise DataFormatError(f"{path}: blob of {len(blob)} bytes, header says {blob_len}")
    checksum = zlib.crc32(blob) & 0xFFFFFFFF
    expected = _get(header, "checksum", _is_int, path)
    if checksum != expected:
        raise DataFormatError(
            f"{path}: checksum mismatch (blob is corrupt: {checksum:#010x} != "
            f"{expected:#010x})"
        )
    kind = header.get("kind")
    if kind == "binary":
        return _model_from_parts(_get(header, "model", _is_dict, path), blob, path)
    if kind == "ovo":
        classes = _get(header, "classes", lambda v: _int_list(v) and len(v) >= 2
                       and len(set(v)) == len(v), path)
        models = []
        end = 0  # the pair blobs lie end to end in order, as save_model writes them
        for entry in _get(header, "models", lambda v: isinstance(v, list) and v, path):
            pair = _get(entry, "pair", lambda v: _int_list(v) and len(v) == 2, path)
            start = _get(entry, "blob_offset", lambda v: _is_int(v) and v == end, path)
            length = _get(entry, "blob_len", lambda v: _is_int(v) and v >= 0, path)
            end += length
            model = _model_from_parts(
                _get(entry, "model", _is_dict, path), blob[start:start + length], path
            )
            # the checksum does not cover the header: a pair must be its model's
            if tuple(pair) != model.classes:
                raise DataFormatError(f"{path}: one-vs-one pair {pair} holds the model "
                                      f"of classes {list(model.classes)}")
            models.append(model)
        pairs = sorted(m.classes for m in models)
        if pairs != list(itertools.combinations(sorted(classes), 2)):
            raise DataFormatError(f"{path}: one-vs-one pairs {pairs} are not each "
                                  f"ascending pair of classes {classes} once")
        return OvoModel(classes=tuple(classes), models={m.classes: m for m in models})
    raise DataFormatError(f"{path}: unknown model kind {kind!r}")
