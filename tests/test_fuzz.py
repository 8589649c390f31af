"""Fuzzed readers: a truncated, bit-flipped or integer-spliced copy of a
valid ``.ttn``, IDX or ``.ttkm`` file gives a value or DataFormatError, a
generated ``.json`` labels text gives an int64 array or DataFormatError,
and a mutated run INI gives a RunConfig or ConfigError, within a
per-example deadline; nothing else escapes.  The mutated ``.ttkm`` and
``.ttn`` files also run through ``ttkm predict``, the mutated IDX files
through ``ttkm gram``, ``predict`` and ``evaluate``, and a handful of
mutated INIs and label files through ``ttkm train``: none may exit 1
("unexpected"), and a failure prints one ``error:`` line."""

import contextlib
import functools
import gzip
import io
import json
import re
import struct
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkm.cli import main
from ttkm.config import RunConfig, load_config, load_labels
from ttkm.errors import ConfigError, DataFormatError
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
# the same, or (as often) the header left as it is, so more inputs read and
# reach the code behind the reader
KEPT_HEADERS = st.one_of(st.just(([None] * 4, False)), HEADERS)
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


@functools.cache
def valid_request() -> bytes:
    """Three samples of the dims (3, 2, 2) of ``valid_models``, as a .ttn dataset."""
    rng = np.random.default_rng(4)
    return saved_bytes(write_dataset, [DenseTensor(rng.standard_normal((3, 2, 2)))
                                       for _ in range(3)], ".ttn")


def cli_outcome(argv, files: dict) -> tuple[int, str]:
    """``ttkm`` run with ``argv`` on files holding ``files`` (file name ->
    bytes; an argument equal to a file name becomes that file's path): its
    exit code and standard error, after checking that it did not exit 1
    and that a failure printed one ``error:`` line and nothing else."""
    with tempfile.TemporaryDirectory() as d:
        paths = {name: Path(d) / name for name in files}
        for name, data in files.items():
            paths[name].write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(paths.get(arg, arg)) for arg in argv])
    err = err.getvalue()
    assert code != 1, err
    assert code == 0 or (err.startswith("error:") and err.count("\n") == 1), err
    return code, err


def predict_outcome(model: bytes, request: bytes) -> tuple[int, str]:
    """``ttkm predict`` on files holding ``model`` and ``request``, as
    ``cli_outcome`` runs it."""
    return cli_outcome(["predict", "--model", "model.ttkm", "--input", "request.ttn"],
                       {"model.ttkm": model, "request.ttn": request})


class TestFuzzedPredict:
    def test_valid_inputs_predict(self):
        for model in valid_models():
            assert predict_outcome(model, valid_request())[0] == 0

    def test_misaligned_pair_blob_is_a_format_error(self):
        # found by these tests: the first pair's blob_offset (the header's
        # 7th integer) spliced to 1 read misaligned floats past the checksum,
        # and predict printed numpy warnings, then "error:usage" from lstsq
        code, err = predict_outcome(splice_json_int(valid_models()[1], 6, 1), valid_request())
        assert code == 5 and "'blob_offset'" in err

    @pytest.mark.parametrize("ovo, k, degree", [(False, 12, 2**31), (True, 16, 2**32 - 1),
                                                (True, 31, 2**32 - 1)])
    def test_huge_poly_degree_is_a_capacity_error(self, ovo, k, degree):
        # found by these tests: the poly degree (the header's k-th integer)
        # spliced huge gave NaN decision values; binary predict exited 0
        # with null values after numpy warnings, one-vs-one exited 2 "usage"
        # from an empty vote tie, or 0 with labels voted from NaN
        model = splice_json_int(valid_models()[ovo], k, degree)
        assert f'"degree": {degree}'.encode() in model
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = predict_outcome(model, valid_request())
        assert code == 6 and err.startswith("error:capacity:") and "NaN or inf" in err
        assert not caught

    @FUZZ
    @given(KEPT_HEADERS, OPS, st.booleans())
    def test_ttkm(self, header, ops, ovo):
        predict_outcome(mutate(valid_models()[ovo], header, ops, (4, 8), "<I",
                               json_header=True), valid_request())

    @FUZZ
    @given(KEPT_HEADERS, OPS, st.booleans())
    def test_ttn(self, header, ops, ovo):
        predict_outcome(valid_models()[ovo],
                        mutate(valid_request(), header, ops, (4, 8, 12, 16), "<I"))


@functools.cache
def idx_model() -> bytes:
    """A binary model of classes 0 and 1 over the (2, 3) images of
    ``idx_images``, saved as .ttkm bytes."""
    rng = np.random.default_rng(5)
    centers = [rng.uniform(0.0, 1.0, (2, 3)) for _ in range(2)]
    samples, labels, split = [], [], []
    for c, center in enumerate(centers):
        for name in ("train",) * 4 + ("validation",) * 2:
            samples.append(DenseTensor(center + 0.1 * rng.standard_normal((2, 3))))
            labels.append(c)
            split.append(name)
    ds = Dataset(samples=samples, labels=np.array(labels), split=np.array(split, dtype=object))
    grid = GridConfig(c_values=(10.0,), sigma_values=(1.0,), rank_values=(2,),
                      mode_kinds=("rbf", "linear"))
    return saved_bytes(save_model, train_binary(ds, grid), ".ttkm")


def idx_test_labels() -> bytes:
    """Labels of the three images of ``idx_images``, in the model's classes."""
    return struct.pack(">BBBB", 0, 0, 0x08, 1) + struct.pack(">I", 3) + bytes([0, 1, 1])


IDX_GRAM = ["gram", "--input", "images.idx", "--kinds", "rbf,linear", "--sigma", "1",
            "--ranks", "2"]
IDX_PREDICT = ["predict", "--model", "model.ttkm", "--input", "images.idx"]
IDX_EVALUATE = ["evaluate", "--model", "model.ttkm", "--input", "images.idx",
                "--labels", "labels.idx"]


def idx_files(images: bytes = None, labels: bytes = None) -> dict:
    return {"images.idx": idx_images() if images is None else images,
            "labels.idx": idx_test_labels() if labels is None else labels,
            "model.ttkm": idx_model()}


class TestFuzzedIdxCommands:
    """Mutated IDX image and label files through ``ttkm gram``, ``predict``
    and ``evaluate``: none exits 1, and a failure prints one ``error:``
    line."""

    def test_valid_inputs_run(self):
        for argv in (IDX_GRAM, IDX_PREDICT, IDX_EVALUATE):
            assert cli_outcome(argv, idx_files())[0] == 0

    @FUZZ
    @given(KEPT_HEADERS, OPS, st.booleans())
    def test_gram(self, header, ops, compress):
        data = mutate(idx_images(), header, ops, (0, 4, 8, 12), ">I")
        argv = IDX_GRAM
        if compress:
            data = gzip.compress(data, mtime=0)
            argv = [a.replace("images.idx", "images.idx.gz") for a in argv]
        cli_outcome(argv, {"images.idx.gz" if compress else "images.idx": data})

    @FUZZ
    @given(KEPT_HEADERS, OPS)
    def test_predict(self, header, ops):
        images = mutate(idx_images(), header, ops, (0, 4, 8, 12), ">I")
        cli_outcome(IDX_PREDICT, idx_files(images=images))

    @FUZZ
    @given(KEPT_HEADERS, OPS, st.booleans())
    def test_evaluate(self, header, ops, on_labels):
        if on_labels:
            files = idx_files(labels=mutate(idx_test_labels(), header, ops, (0, 4), ">I"))
        else:
            files = idx_files(images=mutate(idx_images(), header, ops, (0, 4, 8, 12), ">I"))
        cli_outcome(IDX_EVALUATE, files)


# A valid run INI, with {train} and {labels} for the data paths.  Every key
# of config._KEYS appears, so each mutation below can reach every parser.
VALID_INI = """[data]
train_images = {train}
train_labels = {labels}
reshape = 4, 3, 3
normalize = false

[split]
train_per_class = 6
val_per_class = 3
seed = 1

[grid]
c_values = 10
sigma_values = 1
rank_values = 2
combine = prod

[kernel]
mode_kinds = rbf, linear, poly
poly_c = 1
poly_degree = 2

[solver]
tol = 0.001
max_iter = 5000
"""
# values spliced over a key's value: a bare '%', an empty value, multi-valued
# scalars, unknown kinds, integers that are not, and non-finite numbers
INI_VALUES = (b"%", b"a%1", b"%(x)s", b"", b"1, 2", b"2 3", b"bogus", b"rbf, bogus, linear",
              b"2.5", b"2x", b"x", b"-1", b"0", b"nan", b"inf", b"1e400")
INI_BYTES = (b"\xff", b"\xc3\x28", b"\x80abc", b"\xe2\x82")  # none is UTF-8
INI_OPS = st.lists(st.one_of(
    st.tuples(st.just("delete"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("duplicate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("section"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("value"), st.floats(0.0, 1.0, exclude_max=True),
              st.sampled_from(INI_VALUES)),
    st.tuples(st.just("bytes"), st.floats(0.0, 1.0, exclude_max=True),
              st.sampled_from(INI_BYTES)),
), max_size=4)


def mutate_ini(data: bytes, ops) -> bytes:
    """Apply (delete | duplicate | section | value | bytes) operations in
    turn.  ``delete`` and ``duplicate`` act on one line, a key or a section
    header; ``section`` appends a copy of the section around a line;
    ``value`` replaces the value of a key line; ``bytes`` inserts bytes."""
    for op in ops:
        lines = data.split(b"\n")
        at = int(op[1] * len(lines))
        if op[0] == "delete":
            del lines[at]
        elif op[0] == "duplicate":
            lines.insert(at, lines[at])
        elif op[0] == "section":
            start = max((i for i in range(at + 1) if lines[i].startswith(b"[")), default=0)
            end = next((i for i in range(start + 1, len(lines))
                        if lines[i].startswith(b"[")), len(lines))
            lines += lines[start:end]
        elif op[0] == "value" and b"=" in lines[at]:
            lines[at] = lines[at].partition(b"=")[0] + b"= " + op[2]
        elif op[0] == "bytes":
            pos = int(op[1] * len(data))
            lines = (data[:pos] + op[2] + data[pos:]).split(b"\n")
        data = b"\n".join(lines)
    return data


def write_ini_data(d: Path) -> None:
    """Two classes of 4x3x3 samples as .ttn plus JSON labels; a training on
    them takes a fraction of a second."""
    rng = np.random.default_rng(3)
    centers = [rng.standard_normal((4, 3, 3)) for _ in range(2)]
    samples = [DenseTensor(c + 0.2 * rng.standard_normal((4, 3, 3)))
               for c in centers for _ in range(10)]
    write_dataset(d / "train.ttn", samples)
    (d / "train_y.json").write_text(json.dumps([0] * 10 + [1] * 10))


def valid_ini(d: Path) -> bytes:
    """VALID_INI naming the data under ``d``, which load_config never reads."""
    return VALID_INI.format(train=d / "train.ttn", labels=d / "train_y.json").encode()


def config_or_error(data: bytes, path: Path):
    """``load_config`` on a file holding ``data``: a RunConfig, or None on ConfigError."""
    path.write_bytes(data)
    try:
        cfg = load_config(path)
    except ConfigError:
        return None
    assert isinstance(cfg, RunConfig)
    return cfg


def at(prefix: str) -> float:
    """The position, as a mutation takes it, of the VALID_INI line starting with ``prefix``."""
    lines = VALID_INI.split("\n")
    return (next(i for i, line in enumerate(lines) if line.startswith(prefix)) + 0.5) / len(lines)


# mutated INIs run through ``ttkm train --config``: one per kind of mutation,
# plus the inputs the fuzzer found escaping (non-finite integers, non-UTF-8)
CLI_INI_CASES = {
    "unmutated": [],
    "key deleted": [("delete", at("train_images"))],
    "section header deleted": [("delete", at("[split]"))],
    "key duplicated": [("duplicate", at("train_per_class"))],
    "section duplicated": [("section", at("c_values"))],
    "bare percent": [("value", at("train_labels"), b"a%1")],
    "empty value": [("value", at("seed"), b"")],
    "multi-valued scalar": [("value", at("seed"), b"1, 2")],
    "unknown kind": [("value", at("mode_kinds"), b"rbf, bogus, linear")],
    "infinite integer": [("value", at("seed"), b"inf")],
    "nan rank": [("value", at("rank_values"), b"nan")],
    "non-utf-8 byte": [("bytes", 0.5, b"\xff")],
    "zero class count": [("value", at("train_per_class"), b"0")],
}


class TestFuzzedConfig:
    def test_valid_ini_loads(self, tmp_path):
        cfg = config_or_error(valid_ini(tmp_path), tmp_path / "run.ini")
        assert cfg is not None and cfg.grid(3).mode_kinds == ("rbf", "linear", "poly")

    @FUZZ
    @given(INI_OPS)
    def test_load_config(self, ops):
        with tempfile.TemporaryDirectory() as d:
            config_or_error(mutate_ini(valid_ini(Path("data")), ops), Path(d) / "run.ini")

    @pytest.mark.parametrize("case", sorted(CLI_INI_CASES))
    def test_train_never_exits_unexpected(self, tmp_path, capsys, case):
        write_ini_data(tmp_path)
        path = tmp_path / "run.ini"
        path.write_bytes(mutate_ini(valid_ini(tmp_path), CLI_INI_CASES[case]))
        code = main(["train", "--config", str(path), "--pair", "0,1"])
        err = capsys.readouterr().err
        assert code != 1, err
        assert code == 0 or err.startswith("error:")
        if case == "unmutated":
            assert code == 0


# JSON label texts: values nested to any depth, integers in and far outside
# int64, fractions and integral floats, NaN and infinities, booleans, null
# and strings; lists of raw tokens (1e400 is inf to the decoder); and
# nesting deeper than the decoder goes
LABEL_TOKENS = ("0", "1", "2.0", "-0.0", "1.5", "1e400", "-1e400", "true", "false", "null",
                '"1"', "[1]", "100000000000000000000000000000", "9223372036854775807",
                "-9223372036854775808", "9223372036854775808", "-9223372036854775809")
LABEL_TEXTS = st.one_of(
    st.recursive(st.one_of(st.integers(), st.integers(-2**70, 2**70), st.floats(),
                           st.booleans(), st.none(), st.text(max_size=2)),
                 lambda inner: st.lists(inner, max_size=4), max_leaves=12).map(json.dumps),
    st.lists(st.sampled_from(LABEL_TOKENS), max_size=6).map(lambda t: f"[{', '.join(t)}]"),
    st.tuples(st.integers(1, 200_000), st.booleans()).map(
        lambda n: "[" * n[0] + "]" * (n[0] if n[1] else 0)),
)

# label files run through ``ttkm train --config``: 20 labels, as the INI's
# data has 20 samples, with the last one replaced
CLI_LABEL_CASES = {
    "valid": "1",
    "integral float": "1.0",
    "fraction": "1.5",
    "boolean": "true",
    "null": "null",
    "infinite": "1e400",
    "huge": "100000000000000000000000000000",
    "nested": "[1]",
    "deep nesting": None,
}


class TestFuzzedJsonLabels:
    @FUZZ
    @given(LABEL_TEXTS)
    def test_load_labels(self, text):
        labels = read_or_format_error(load_labels, text.encode(), ".json")
        if labels is not None:
            values = json.loads(text)
            assert labels.dtype == np.int64 and labels.ndim == 1
            # each value an integral JSON number equal to its label, not a
            # boolean, a fraction or a value that wrapped
            assert all(type(v) in (int, float) for v in values)
            assert labels.tolist() == values

    @pytest.mark.parametrize("case", sorted(CLI_LABEL_CASES))
    def test_train_never_exits_unexpected(self, tmp_path, capsys, case):
        write_ini_data(tmp_path)
        last = CLI_LABEL_CASES[case]
        (tmp_path / "train_y.json").write_text(
            "[" * 200_000 if last is None else f"[{'0, ' * 10}{'1, ' * 9}{last}]")
        path = tmp_path / "run.ini"
        path.write_bytes(valid_ini(tmp_path))
        code = main(["train", "--config", str(path), "--pair", "0,1"])
        err = capsys.readouterr().err
        assert code != 1, err
        assert code == 0 or (err.startswith("error:") and err.count("\n") == 1), err
        assert code == (0 if case in ("valid", "integral float") else 5), err
