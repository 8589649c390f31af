"""Fuzzed readers: a truncated, bit-flipped or integer-spliced copy of a
valid ``.ttn``, IDX or ``.ttkm`` file gives a value or DataFormatError,
within a per-example deadline; nothing else escapes."""

import functools
import gzip
import re
import struct
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkm.errors import DataFormatError
from ttkm.idx import load_idx_images, load_idx_labels
from ttkm.model_store import load_model, save_model
from ttkm.pipeline import Dataset, GridConfig, train_binary, train_multiclass_ovo
from ttkm.tensor import DenseTensor
from ttkm.ttn import read_dataset, read_tensor, write_dataset, write_tensor

FUZZ = settings(max_examples=150, derandomize=True, database=None,
                deadline=timedelta(seconds=5))
SPLICE_VALUES = (0, 1, 2**31, 2**32 - 1)

# each header integer kept (None) or overwritten, then the payload kept or cut off
HEADERS = st.tuples(st.lists(st.sampled_from((None,) + SPLICE_VALUES), min_size=4, max_size=4),
                    st.booleans())
OPS = st.lists(st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True),
              st.integers(0, 255)),
    st.tuples(st.just("json"), st.integers(0, 255), st.sampled_from(SPLICE_VALUES)),
), max_size=3)


def splice_json_int(data: bytes, k: int, value: int) -> bytes:
    """Replace the k-th integer (mod their count) in a .ttkm JSON header,
    and fix the header length so the header still parses."""
    if len(data) < 12:
        return data
    version, n = struct.unpack("<II", data[4:12])
    header = data[12:12 + n]
    ints = list(re.finditer(rb"(?<![\d.eE+-])\d+(?![\d.eE])", header))
    if not ints:
        return data
    m = ints[k % len(ints)]
    header = header[:m.start()] + str(value).encode() + header[m.end():]
    return data[:4] + struct.pack("<II", version, len(header)) + header + data[12 + n:]


def mutate(data: bytes, header, ops, int_offsets, int_format: str, json_header=False) -> bytes:
    """Splice the header integers at ``int_offsets`` (``int_format`` gives
    their byte order) as ``header`` says, then apply the (truncate | flip |
    json) operations in turn.  ``json`` applies only to a ``.ttkm`` file
    (``json_header``), whose other integers sit in a JSON header."""
    out = bytearray(data)
    values, cut = header
    for at, value in zip(int_offsets, values):
        if value is not None:
            out[at:at + 4] = struct.pack(int_format, value)
    if cut and int_offsets:
        del out[int_offsets[-1] + 4:]
    for op in ops:
        if op[0] == "truncate":
            del out[int(op[1] * len(out)):]
        elif op[0] == "flip" and out:
            out[int(op[1] * len(out))] = op[2]
        elif op[0] == "json" and json_header:
            out = bytearray(splice_json_int(bytes(out), op[1], op[2]))
    return bytes(out)


def read_or_format_error(read, data: bytes, suffix: str):
    """``read`` on a file holding ``data``: its value, or None on DataFormatError."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"input{suffix}"
        path.write_bytes(data)
        try:
            return read(path)
        except DataFormatError:
            return None


def saved_bytes(write, value, suffix: str) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"valid{suffix}"
        write(path, value)
        return path.read_bytes()


@functools.cache
def valid_ttn_tensor() -> bytes:
    t = DenseTensor(np.arange(12.0).reshape(2, 3, 2))
    return saved_bytes(write_tensor, t, ".ttn")


@functools.cache
def valid_ttn_dataset() -> bytes:
    rng = np.random.default_rng(1)
    return saved_bytes(write_dataset, [DenseTensor(rng.standard_normal((2, 3)))
                                       for _ in range(3)], ".ttn")


def idx_images(count=3, rows=2, cols=3) -> bytes:
    return (struct.pack(">BBBB", 0, 0, 0x08, 3) + struct.pack(">III", count, rows, cols)
            + bytes(range(count * rows * cols)))


def idx_labels() -> bytes:
    return struct.pack(">BBBB", 0, 0, 0x08, 1) + struct.pack(">I", 4) + bytes([7, 2, 1, 0])


@functools.cache
def valid_models() -> tuple[bytes, bytes]:
    """A binary and a one-vs-one model, each saved as .ttkm bytes."""
    rng = np.random.default_rng(2)
    centers = [rng.standard_normal((3, 2, 2)) for _ in range(3)]
    samples, labels, split = [], [], []
    for c, center in enumerate(centers):
        for name in ("train",) * 4 + ("validation",) * 2:
            samples.append(DenseTensor(center + 0.1 * rng.standard_normal((3, 2, 2))))
            labels.append(c)
            split.append(name)
    ds = Dataset(samples=samples, labels=np.array(labels), split=np.array(split, dtype=object))
    grid = GridConfig(c_values=(10.0,), sigma_values=(1.0,), rank_values=(2,),
                      mode_kinds=("rbf", "linear", "poly"))
    binary = train_binary(ds.restrict_classes((0, 1)), grid)
    ovo = train_multiclass_ovo(ds, grid)
    return (saved_bytes(lambda p, m: save_model(p, m, meta={"seed": 2}), binary, ".ttkm"),
            saved_bytes(save_model, ovo, ".ttkm"))


class TestFuzzedReaders:
    def test_valid_inputs_read(self):
        # the unmutated inputs are values, so every rejection below is the mutation's
        assert read_or_format_error(read_tensor, valid_ttn_tensor(), ".ttn").dims == (2, 3, 2)
        assert len(read_or_format_error(read_dataset, valid_ttn_dataset(), ".ttn")) == 3
        assert len(read_or_format_error(load_idx_images, idx_images(), ".idx")) == 3
        assert len(read_or_format_error(load_idx_images, gzip.compress(idx_images()),
                                        ".idx.gz")) == 3
        assert len(read_or_format_error(load_idx_labels, idx_labels(), ".idx")) == 4
        for data in valid_models():
            assert read_or_format_error(load_model, data, ".ttkm") is not None

    @FUZZ
    @given(HEADERS, OPS)
    def test_ttn_tensor(self, header, ops):
        data = mutate(valid_ttn_tensor(), header, ops, (4, 8, 12, 16), "<I")
        read_or_format_error(read_tensor, data, ".ttn")

    @FUZZ
    @given(HEADERS, OPS)
    def test_ttn_dataset(self, header, ops):
        data = mutate(valid_ttn_dataset(), header, ops, (4, 8, 12, 16), "<I")
        read_or_format_error(read_dataset, data, ".ttn")

    @FUZZ
    @given(HEADERS, OPS)
    def test_idx_images(self, header, ops):
        data = mutate(idx_images(), header, ops, (0, 4, 8, 12), ">I")
        read_or_format_error(load_idx_images, data, ".idx")

    @FUZZ
    @given(HEADERS, OPS, st.booleans())
    def test_idx_images_gzip(self, header, ops, compress_first):
        # mutate the compressed stream, or the file before compressing it
        if compress_first:
            data = mutate(gzip.compress(idx_images(), mtime=0), header, ops, (), ">I")
        else:
            data = gzip.compress(mutate(idx_images(), header, ops, (0, 4, 8, 12), ">I"),
                                 mtime=0)
        read_or_format_error(load_idx_images, data, ".idx.gz")

    @FUZZ
    @given(HEADERS, OPS)
    def test_idx_labels(self, header, ops):
        data = mutate(idx_labels(), header, ops, (0, 4), ">I")
        read_or_format_error(load_idx_labels, data, ".idx")

    @FUZZ
    @given(HEADERS, OPS, st.booleans())
    def test_ttkm(self, header, ops, ovo):
        data = mutate(valid_models()[ovo], header, ops, (4, 8), "<I", json_header=True)
        read_or_format_error(load_model, data, ".ttkm")
