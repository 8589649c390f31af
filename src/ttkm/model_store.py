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

The file and its blob are read through ``ttn``'s one byte cursor, and the
header through its one JSON decode.  The checksum covers only the blob,
so every header field is validated on load: a missing or ill-typed key is
a DataFormatError, never a crash.  So is a class id outside int64, a
binary model whose ``neg_class`` is not below its ``pos_class``, a NaN or
inf in the blob, a blob longer or shorter than its models, a one-vs-one
file whose pair blobs do not lie end to end and cover the blob or whose
entries are not each ascending pair of its classes once, each over its
own model, a header that is not UTF-8 JSON (or nests too deep to decode),
and a path that cannot be read; a missing file is a FileNotFoundError.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import zlib

import numpy as np

from .errors import DataFormatError
from .kernels import KernelSpec
from .pipeline import OvoModel, SvmModel
from .tensor import TrainStack
from .ttn import _f64_bytes, _Reader, read_bytes, read_json

MAGIC = b"TTKM"
VERSION = 1


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
        # the first cores, one after another, are one (1, I1, R2, n) block
        arrays = [*model.support.tail, model.support.lead[0].transpose(1, 2, 3, 0)]
    return b"".join(map(_f64_bytes, [*arrays, model.coef, model.bias]))


def _is_int(v) -> bool:
    return type(v) is int


def _is_class(v) -> bool:
    """A class id: an integer within int64, as labels are held."""
    return _is_int(v) and -2**63 <= v < 2**63


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


def _model_from_parts(header: dict, r: _Reader) -> SvmModel:
    """The model that ``header`` describes, read from the whole of ``r``."""
    path = r.path
    dims = tuple(_get(header, "dims", lambda v: _int_list(v, 1) and len(v) > 0, path))
    ranks = tuple(_get(
        header, "interior_ranks", lambda v: _int_list(v, 1) and len(v) == len(dims) - 1, path
    ))
    chain = (1,) + ranks + (1,)
    shapes = [(chain[k], n, chain[k + 1]) for k, n in enumerate(dims)]
    count = _get(header, "support_count", lambda v: _is_int(v) and v >= 0, path)
    support = ()
    if count:
        tail = tuple(r.f64(math.prod(s)).reshape(s, order="F") for s in shapes[1:])
        # every first core, one after another: one (1, I1, R2, count) block
        block = shapes[0] + (count,)
        first = r.f64(math.prod(block)).reshape(block, order="F").transpose(3, 0, 1, 2)
        support = tuple(TrainStack((first,), tail))
    coef = r.f64(count).astype(np.float64)
    bias = float(r.f64(1)[0])
    r.expect_end()
    try:
        spec = KernelSpec.from_dict(header["spec"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad kernel spec in header ({exc})") from exc
    if spec.order != len(dims):
        raise DataFormatError(
            f"{path}: kernel spec has {spec.order} per-mode kernels but dims has "
            f"{len(dims)} modes"
        )
    neg_class = _get(header, "neg_class", _is_class, path)
    pos_class = _get(header, "pos_class", _is_class, path)
    # training orders a pair's classes; swapped ones would invert every label
    if neg_class >= pos_class:
        raise DataFormatError(
            f"{path}: neg_class {neg_class} is not below pos_class {pos_class}"
        )
    return SvmModel(
        support=support,
        coef=coef,
        bias=bias,
        spec=spec,
        dims=dims,
        interior_ranks=ranks,
        neg_class=neg_class,
        pos_class=pos_class,
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
    r = _Reader(read_bytes(path), path)
    r.magic(MAGIC)
    version = r.u32()
    if version != VERSION:
        raise DataFormatError(
            f"{path}: file version {version} is not supported (this build reads "
            f"version {VERSION})"
        )
    header = read_json(r.take(r.u32()), path, "unreadable header")
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: header is not a JSON object")
    blob = _Reader(r.rest(), path)
    blob_len = _get(header, "blob_len", _is_int, path)
    if len(blob.data) != blob_len:
        raise DataFormatError(f"{path}: blob of {len(blob.data)} bytes, header says {blob_len}")
    checksum = zlib.crc32(blob.data) & 0xFFFFFFFF
    expected = _get(header, "checksum", _is_int, path)
    if checksum != expected:
        raise DataFormatError(
            f"{path}: checksum mismatch (blob is corrupt: {checksum:#010x} != "
            f"{expected:#010x})"
        )
    kind = header.get("kind")
    if kind == "binary":
        return _model_from_parts(_get(header, "model", _is_dict, path), blob)
    if kind == "ovo":
        classes = _get(header, "classes", lambda v: _int_list(v) and len(v) >= 2
                       and len(set(v)) == len(v), path)
        models = []
        # the pair blobs lie end to end in order, as save_model writes them,
        # and cover the whole blob
        for entry in _get(header, "models", lambda v: isinstance(v, list) and v, path):
            pair = _get(entry, "pair", lambda v: _int_list(v) and len(v) == 2, path)
            _get(entry, "blob_offset", lambda v: _is_int(v) and v == blob.pos, path)
            length = _get(entry, "blob_len", lambda v: _is_int(v) and v >= 0, path)
            model = _model_from_parts(_get(entry, "model", _is_dict, path),
                                      _Reader(blob.take(length), path))
            # the checksum does not cover the header: a pair must be its model's
            if tuple(pair) != model.classes:
                raise DataFormatError(f"{path}: one-vs-one pair {pair} holds the model "
                                      f"of classes {list(model.classes)}")
            models.append(model)
        blob.expect_end()
        pairs = sorted(m.classes for m in models)
        if pairs != list(itertools.combinations(sorted(classes), 2)):
            raise DataFormatError(f"{path}: one-vs-one pairs {pairs} are not each "
                                  f"ascending pair of classes {classes} once")
        return OvoModel(classes=tuple(classes), models={m.classes: m for m in models})
    raise DataFormatError(f"{path}: unknown model kind {kind!r}")
