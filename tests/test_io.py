"""File formats: .ttn tensors, IDX images/labels, .ttkm models, INI configs."""

import dataclasses
import gzip
import json
import math
import re
import struct
import zlib

import numpy as np
import pytest

from ttkm import config
from ttkm.cli import _RUN_FLAGS, _load_run_config, build_parser, main
from ttkm.config import PAPER_GRID, RunConfig, load_config, load_labels, load_samples
from ttkm.errors import CapacityError, ConfigError, DataFormatError
from ttkm.idx import load_idx_images, load_idx_labels, load_idx_pair
from ttkm.kernels import RbfKernel
from ttkm.model_store import load_model, save_model
from ttkm.pipeline import (
    Dataset,
    GridConfig,
    decision_function,
    train_binary,
    train_multiclass_ovo,
)
from ttkm.tensor import DenseTensor, TensorTrain, TrainStack
from ttkm.ttn import read_dataset, read_tensor, write_dataset, write_tensor


def idx_images_bytes(count, rows, cols, payload):
    return struct.pack(">BBBB", 0, 0, 0x08, 3) + struct.pack(
        ">III", count, rows, cols
    ) + bytes(payload)


def idx_labels_bytes(labels):
    return struct.pack(">BBBB", 0, 0, 0x08, 1) + struct.pack(
        ">I", len(labels)
    ) + bytes(labels)


def blob_dataset(rng, classes=(0, 1), n_train=6, n_val=4, n_test=4,
                 dims=(3, 3, 4), noise=0.05):
    centers = {}
    for c in classes:
        base = rng.standard_normal(dims)
        centers[c] = base / np.linalg.norm(base)
    samples, labels, split = [], [], []
    for c in classes:
        for name, count in (("train", n_train), ("validation", n_val), ("test", n_test)):
            for _ in range(count):
                x = centers[c] + noise * rng.standard_normal(dims)
                samples.append(DenseTensor(x))
                labels.append(c)
                split.append(name)
    return Dataset(samples=samples, labels=np.array(labels), split=np.array(split, dtype=object))


def tiny_grid(d=3):
    return GridConfig(
        c_values=(10.0,),
        sigma_values=(1.0,),
        rank_values=(2,),
        mode_kinds=("rbf",) * d,
    )


class TestTtnTensor:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = DenseTensor(rng.standard_normal((4, 3, 5, 2)))
        path = tmp_path / "x.ttn"
        write_tensor(path, x)
        back = read_tensor(path)
        assert back.dims == (4, 3, 5, 2)
        assert np.array_equal(back.values, x.values)

    def test_order_one_and_scalar_like_dims(self, tmp_path):
        x = DenseTensor(np.array([1.5, -2.0, 0.0]))
        path = tmp_path / "v.ttn"
        write_tensor(path, x)
        back = read_tensor(path)
        assert back.dims == (3,)
        assert np.array_equal(back.values, x.values)

    def test_payload_is_first_index_fastest(self, tmp_path):
        # entry (i, j) sits at flat position i + 2*j in the payload
        x = DenseTensor(np.array([[1.0, 3.0], [2.0, 4.0]]))
        path = tmp_path / "m.ttn"
        write_tensor(path, x)
        data = path.read_bytes()
        floats = np.frombuffer(data[4 + 4 + 8:], dtype="<f8")
        assert np.array_equal(floats, [1.0, 2.0, 3.0, 4.0])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ttn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataFormatError, match="magic"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "t.ttn"
        write_tensor(path, DenseTensor(rng.standard_normal((3, 3))))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataFormatError):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "t.ttn"
        write_tensor(path, DenseTensor(rng.standard_normal((3, 3))))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError):
            read_tensor(path)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_value_is_format_error(self, tmp_path, bad):
        path = tmp_path / "t.ttn"
        write_tensor(path, DenseTensor(np.ones((2, 3))))
        data = bytearray(path.read_bytes())
        data[-8:] = struct.pack("<d", bad)
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="finite"):
            read_tensor(path)

    def test_zero_order_rejected(self, tmp_path):
        path = tmp_path / "z.ttn"
        path.write_bytes(b"TTN1" + struct.pack("<I", 0))
        with pytest.raises(DataFormatError, match="order 0"):
            read_tensor(path)


class TestTtnDataset:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "d.ttn"
        for dims in [(2, 3, 2), (7,), (3, 1, 4)]:
            samples = [DenseTensor(rng.standard_normal(dims)) for _ in range(5)]
            write_dataset(path, samples)
            back = read_dataset(path)
            assert len(back) == 5
            for a, b in zip(samples, back):
                assert b.dims == dims
                assert np.array_equal(a.values, b.values)

    def test_single_sample_dataset(self, tmp_path):
        path = tmp_path / "d.ttn"
        write_dataset(path, [DenseTensor(np.ones((2, 2)))])
        back = read_dataset(path)
        assert len(back) == 1

    def test_mixed_dims_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="dims"):
            write_dataset(tmp_path / "d.ttn", [
                DenseTensor(np.ones((2, 2))),
                DenseTensor(np.ones((2, 3))),
            ])

    def test_empty_dataset_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_dataset(tmp_path / "d.ttn", [])

    def test_layouts_are_not_interchangeable(self, tmp_path):
        rng = np.random.default_rng(4)
        single = tmp_path / "one.ttn"
        multi = tmp_path / "many.ttn"
        write_tensor(single, DenseTensor(rng.standard_normal((3, 4))))
        write_dataset(multi, [DenseTensor(rng.standard_normal((3, 4)))
                              for _ in range(3)])
        with pytest.raises(DataFormatError):
            read_dataset(single)
        with pytest.raises(DataFormatError):
            read_tensor(multi)

    @pytest.mark.parametrize("count", [1, 3, 20])
    def test_wrong_layout_says_what_the_file_holds(self, tmp_path, count):
        # each read once reported a nonsense payload size, as the other
        # layout's header fields were taken for its own
        single = tmp_path / "one.ttn"
        multi = tmp_path / "many.ttn"
        write_tensor(single, DenseTensor(np.ones((4, 7, 4))))
        write_dataset(multi, [DenseTensor(np.ones((2, 3))) for _ in range(count)])
        with pytest.raises(DataFormatError) as err:
            read_tensor(multi)
        assert str(err.value) == (f"{multi}: the file holds a dataset of {count} samples "
                                  "of dims (2, 3), not a single tensor")
        with pytest.raises(DataFormatError) as err:
            read_dataset(single)
        assert str(err.value) == (f"{single}: the file holds a single tensor of dims "
                                  "(4, 7, 4), not a dataset")

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_value_is_format_error(self, tmp_path, bad):
        path = tmp_path / "d.ttn"
        write_dataset(path, [DenseTensor(np.ones((2, 2))) for _ in range(3)])
        data = bytearray(path.read_bytes())
        data[-8:] = struct.pack("<d", bad)
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="finite"):
            read_dataset(path)

    @pytest.mark.parametrize("at", [0, 5, 11])
    def test_one_non_finite_value_anywhere_names_the_file(self, tmp_path, at):
        # the payload is checked once, as a whole, not sample by sample
        path = tmp_path / "d.ttn"
        write_dataset(path, [DenseTensor(np.ones((2, 2))) for _ in range(3)])
        data = bytearray(path.read_bytes())
        start = len(data) - 12 * 8 + 8 * at
        data[start:start + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: .*finite"):
            read_dataset(path)

    def test_samples_read_as_written(self, tmp_path):
        rng = np.random.default_rng(7)
        written = [DenseTensor(rng.standard_normal((2, 3, 4))) for _ in range(5)]
        path = tmp_path / "d.ttn"
        write_dataset(path, written)
        for got, want in zip(read_dataset(path), written):
            assert got.dims == want.dims and got.values.dtype == np.float64
            assert got.values.flags.f_contiguous and not got.values.flags.writeable
            assert np.array_equal(got.values, want.values)

    def test_samples_are_views_of_one_buffer(self, tmp_path):
        def owner(a):
            while isinstance(a, np.ndarray):
                a = a.base
            return a

        rng = np.random.default_rng(6)
        path = tmp_path / "d.ttn"
        write_dataset(path, [DenseTensor(rng.standard_normal((2, 3))) for _ in range(3)])
        back = read_dataset(path)
        assert owner(back[0].values) is not None
        assert all(owner(b.values) is owner(back[0].values) for b in back)

    def test_truncated_and_trailing_payload_rejected(self, tmp_path):
        path = tmp_path / "d.ttn"
        write_dataset(path, [DenseTensor(np.ones((2, 2))) for _ in range(3)])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataFormatError, match="truncated"):
            read_dataset(path)
        # it fits neither layout, so neither read says what it holds
        with pytest.raises(DataFormatError, match="^(?!.*holds)"):
            read_tensor(path)
        path.write_bytes(data + b"\x00")
        with pytest.raises(DataFormatError, match="trailing"):
            read_dataset(path)

    def test_zero_count_rejected(self, tmp_path):
        path = tmp_path / "d.ttn"
        path.write_bytes(b"TTN1" + struct.pack("<II", 0, 2))
        with pytest.raises(DataFormatError, match="count 0"):
            read_dataset(path)


class TestIdx:
    def test_golden_images(self, tmp_path):
        # two 2x3 images; per-image bytes are reinterpreted first-index-fastest
        path = tmp_path / "im.idx"
        path.write_bytes(idx_images_bytes(2, 2, 3, range(12)))
        images = load_idx_images(path)
        assert len(images) == 2
        assert images[0].dims == (2, 3)
        expected0 = np.array([[0, 2, 4], [1, 3, 5]]) / 255.0
        expected1 = np.array([[6, 8, 10], [7, 9, 11]]) / 255.0
        assert np.allclose(images[0].values, expected0)
        assert np.allclose(images[1].values, expected1)

    def test_reshape_reinterprets_flat_order(self, tmp_path):
        path = tmp_path / "im.idx"
        path.write_bytes(idx_images_bytes(1, 2, 3, range(6)))
        (img,) = load_idx_images(path, reshape=(3, 2))
        expected = np.array([[0, 3], [1, 4], [2, 5]]) / 255.0
        assert img.dims == (3, 2)
        assert np.allclose(img.values, expected)

    def test_reshape_wrong_size(self, tmp_path):
        path = tmp_path / "im.idx"
        path.write_bytes(idx_images_bytes(1, 2, 3, range(6)))
        with pytest.raises(ValueError, match="reshape"):
            load_idx_images(path, reshape=(2, 2))

    def test_golden_labels(self, tmp_path):
        path = tmp_path / "lb.idx"
        path.write_bytes(idx_labels_bytes([7, 2, 1, 0]))
        labels = load_idx_labels(path)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, [7, 2, 1, 0])

    def test_gzip_transparent(self, tmp_path):
        raw = idx_images_bytes(1, 2, 2, [10, 20, 30, 40])
        path = tmp_path / "im.idx.gz"
        path.write_bytes(gzip.compress(raw))
        (img,) = load_idx_images(path)
        assert np.allclose(img.values.ravel(order="F") * 255.0, [10, 20, 30, 40])

    def test_wrong_type_code(self, tmp_path):
        path = tmp_path / "im.idx"
        bad = struct.pack(">BBBB", 0, 0, 0x0D, 3) + struct.pack(">III", 1, 2, 2) + bytes(4)
        path.write_bytes(bad)
        with pytest.raises(DataFormatError):
            load_idx_images(path)

    def test_images_file_is_not_labels(self, tmp_path):
        path = tmp_path / "im.idx"
        path.write_bytes(idx_images_bytes(1, 2, 2, range(4)))
        with pytest.raises(DataFormatError):
            load_idx_labels(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "im.idx"
        path.write_bytes(idx_images_bytes(2, 2, 3, range(12))[:-1])
        with pytest.raises(DataFormatError):
            load_idx_images(path)

    @pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (2**31, 2**31, 2**31)])
    def test_header_product_overflowing_int64_is_format_error(self, tmp_path, dims):
        # the payload size 2^64 (or 2^93) wrapped to 0 in int64 and matched
        # the empty payload
        path = tmp_path / "im.idx"
        path.write_bytes(idx_images_bytes(*dims, b""))
        with pytest.raises(DataFormatError, match="payload"):
            load_idx_images(path)

    @pytest.mark.parametrize("dims", [(2, 0, 3), (2, 3, 0), (0, 2, 3), (0, 0, 0)])
    def test_zero_image_dimension_is_format_error(self, tmp_path, dims):
        path = tmp_path / "im.idx"
        path.write_bytes(idx_images_bytes(*dims, b""))
        with pytest.raises(DataFormatError, match="zero-length"):
            load_idx_images(path)

    @pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (2, 0, 3)])
    def test_bad_image_header_exits_5(self, tmp_path, capsys, dims):
        path = tmp_path / "im.idx"
        path.write_bytes(idx_images_bytes(*dims, b""))
        assert main(["gram", "--input", str(path), "--kinds", "rbf,rbf",
                     "--sigma", "1", "--ranks", "2"]) == 5
        assert capsys.readouterr().err.startswith("error:data-format:")

    def test_corrupt_gzip_stream_is_format_error(self, tmp_path):
        # a damaged deflate stream raised zlib.error, which is no OSError
        data = bytearray(gzip.compress(idx_images_bytes(2, 3, 3, range(18)), mtime=0))
        data[12] ^= 0xFF
        path = tmp_path / "im.idx.gz"
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="cannot read"):
            load_idx_images(path)

    def test_pair_length_mismatch(self, tmp_path):
        images = tmp_path / "im.idx"
        labels = tmp_path / "lb.idx"
        images.write_bytes(idx_images_bytes(2, 2, 2, range(8)))
        labels.write_bytes(idx_labels_bytes([0, 1, 0]))
        with pytest.raises(DataFormatError, match="labels"):
            load_idx_pair(images, labels)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_idx_images(tmp_path / "absent.idx")


class TestUnreadablePaths:
    """Every file reader: a path that exists but cannot be read is a
    DataFormatError, as in the IDX reader; a missing one is not."""

    READERS = {
        "ttn-tensor": (read_tensor, "x.ttn"),
        "ttn-dataset": (read_dataset, "x.ttn"),
        "ttkm": (load_model, "x.ttkm"),
        "json-labels": (load_labels, "y.json"),
        "idx-labels": (load_labels, "y.idx"),
        "samples": (load_samples, "x.ttn"),
    }

    @pytest.mark.parametrize("reader", READERS)
    def test_directory_is_format_error(self, tmp_path, reader):
        read, name = self.READERS[reader]
        (tmp_path / name).mkdir()
        with pytest.raises(DataFormatError, match="cannot read"):
            read(tmp_path / name)

    @pytest.mark.parametrize("text", [
        "[1, 2", '{"a": 1}', '["a"]', "[[1], [2]]", "7",
        # nesting too deep for the decoder raised RecursionError; a label
        # outside int64 raised OverflowError; a fraction and booleans loaded
        # as integers
        pytest.param("[" * 200_000, id="deep-nesting"), "[0, 1, 100000000000000000000000000000]", "[0, 1, 1e400]",
        "[0, 1, 9223372036854775808]", "[-9223372036854775809]", "[0, 1.5, 1]",
        "[true, false]", "[0, NaN]", "[0, -Infinity]",
    ])
    def test_json_labels_not_a_list_of_integers(self, tmp_path, text):
        # through the CLI, invalid JSON exited 2 "usage" and an object 1
        path = tmp_path / "y.json"
        path.write_text(text)
        with pytest.raises(DataFormatError, match="JSON list of integer labels"):
            load_labels(path)

    def test_json_labels_not_utf8(self, tmp_path):
        path = tmp_path / "y.json"
        path.write_bytes(b"[0, 1, \xff]")
        with pytest.raises(DataFormatError, match="JSON list of integer labels"):
            load_labels(path)

    @pytest.mark.parametrize("text, want", [
        ("[0, 2.0, 1]", [0, 2, 1]),
        ("[-9223372036854775808, 9223372036854775807]", [-2**63, 2**63 - 1]),
        ("[]", []),
    ])
    def test_json_labels_integral_numbers_load(self, tmp_path, text, want):
        path = tmp_path / "y.json"
        path.write_text(text)
        labels = load_labels(path)
        assert labels.dtype == np.int64 and labels.tolist() == want

    @pytest.mark.parametrize("reader", READERS)
    def test_missing_file_stays_missing(self, tmp_path, reader):
        read, name = self.READERS[reader]
        with pytest.raises(FileNotFoundError):
            read(tmp_path / name)


class TestModelStore:
    def train_small(self, seed=5):
        rng = np.random.default_rng(seed)
        ds = blob_dataset(rng)
        return ds, train_binary(ds, tiny_grid())

    def test_binary_round_trip_predictions(self, tmp_path):
        ds, model = self.train_small()
        path = tmp_path / "m.ttkm"
        save_model(path, model, meta={"seed": 5})
        loaded = load_model(path)
        assert loaded.classes == model.classes
        assert loaded.bias == model.bias
        assert np.array_equal(loaded.coef, model.coef)
        assert loaded.interior_ranks == model.interior_ranks
        assert loaded.spec == model.spec
        test_s, test_y = ds.subset("test")
        assert np.array_equal(
            decision_function(loaded, test_s), decision_function(model, test_s)
        )
        assert np.array_equal(loaded.predict(test_s), model.predict(test_s))

    @pytest.mark.parametrize("classes", [(0, 1), (0, 1, 2)])
    def test_loaded_decision_values_equal_trained_on_4x7x4x7(self, tmp_path, classes):
        # a loaded model's cores are Fortran-ordered views of the blob, a
        # trained one's are views of the SVDs; kernel values must not
        # depend on that layout (they differed by up to 1.5e-10)
        rng = np.random.default_rng(7)
        ds = blob_dataset(rng, classes=classes, n_train=12, n_val=6, n_test=8,
                          dims=(4, 7, 4, 7), noise=0.3)
        grid = GridConfig(c_values=(10.0,), sigma_values=(0.5,), rank_values=(4,),
                          mode_kinds=("rbf",) * 4)
        model = (train_binary if len(classes) == 2 else train_multiclass_ovo)(ds, grid)
        path = tmp_path / "m.ttkm"
        save_model(path, model)
        loaded = load_model(path)
        pairs = model.models if len(classes) > 2 else {classes: model}
        back = loaded.models if len(classes) > 2 else {classes: loaded}
        test_s, _ = ds.subset("test")
        for pair, trained in pairs.items():
            want = decision_function(trained, test_s)
            assert np.all(np.abs(want) > 1e-6)
            assert np.array_equal(decision_function(back[pair], test_s), want)

    def test_trailing_cores_shared_after_load(self, tmp_path):
        _, model = self.train_small()
        path = tmp_path / "m.ttkm"
        save_model(path, model)
        loaded = load_model(path)
        assert len(loaded.support) >= 2
        first = loaded.support[0]
        for other in loaded.support[1:]:
            for k in range(1, len(first.cores)):
                assert other.cores[k] is first.cores[k]

    def test_save_twice_is_byte_identical(self, tmp_path):
        _, model = self.train_small()
        a, b = tmp_path / "a.ttkm", tmp_path / "b.ttkm"
        save_model(a, model, meta={"seed": 5})
        save_model(b, model, meta={"seed": 5})
        assert a.read_bytes() == b.read_bytes()

    def test_blob_layout_decoded_independently(self, tmp_path):
        # the README's v1 layout, read with struct and numpy alone: tail
        # cores, then each support vector's first core, all in Fortran
        # order, then coef, then bias
        _, model = self.train_small()
        path = tmp_path / "m.ttkm"
        save_model(path, model)
        data = path.read_bytes()
        assert data[:4] == b"TTKM"
        version, header_len = struct.unpack("<II", data[4:12])
        assert version == 1
        header = json.loads(data[12:12 + header_len])["model"]
        blob = data[12 + header_len:]
        chain = [1] + header["interior_ranks"] + [1]
        shapes = [(chain[k], n, chain[k + 1]) for k, n in enumerate(header["dims"])]
        count = header["support_count"]
        assert count == len(model.support) >= 2
        pos = 0

        def read(shape):
            nonlocal pos
            n = int(np.prod(shape))
            arr = np.frombuffer(blob, "<f8", n, pos).reshape(shape, order="F")
            pos += 8 * n
            return arr

        def same_bits(a, b):
            return a.shape == b.shape and a.tobytes() == np.asarray(b, np.float64).tobytes()

        for k, shape in enumerate(shapes[1:], start=1):
            assert same_bits(read(shape), model.support[0].cores[k])
        for tt in model.support:
            assert same_bits(read(shapes[0]), tt.cores[0])
        assert same_bits(read((count,)), model.coef)
        assert struct.unpack_from("<d", blob, pos) == (model.bias,)
        assert pos + 8 == len(blob)

    @pytest.mark.parametrize("kind", ["binary", "ovo", "bias-only"])
    def test_load_then_save_reproduces_the_file(self, tmp_path, kind):
        if kind == "ovo":
            ds = blob_dataset(np.random.default_rng(6), classes=(0, 1, 2))
            model = train_multiclass_ovo(ds, tiny_grid())
        else:
            _, model = self.train_small()
            if kind == "bias-only":
                model = dataclasses.replace(model, support=(), coef=np.zeros(0))
        first, again = tmp_path / "a.ttkm", tmp_path / "b.ttkm"
        save_model(first, model, meta={"seed": 5})
        loaded = load_model(first)
        save_model(again, loaded, meta={"seed": 5})
        assert again.read_bytes() == first.read_bytes()
        if kind == "bias-only":
            assert loaded.support == () and loaded.bias == model.bias

    @pytest.mark.parametrize("kind", ["binary", "ovo"])
    def test_loaded_support_is_one_stack(self, tmp_path, kind):
        # every loaded binary model holds its support set as one stack over
        # one shared tail, as training leaves it
        if kind == "ovo":
            ds = blob_dataset(np.random.default_rng(6), classes=(0, 1, 2))
            model = train_multiclass_ovo(ds, tiny_grid())
        else:
            ds, model = self.train_small()
        path = tmp_path / "m.ttkm"
        save_model(path, model)
        loaded = load_model(path)
        binaries = (zip(loaded.models.values(), model.models.values()) if kind == "ovo"
                    else [(loaded, model)])
        test_s, _ = ds.subset("test")
        for got, trained in binaries:
            assert isinstance(got.support, TrainStack) and len(got.support.lead) == 1
            assert len(got.support) == len(got.coef) > 0
            assert np.array_equal(decision_function(got, test_s),
                                  decision_function(trained, test_s))

    def test_support_without_shared_tail_objects_refused(self):
        # equal tail values are not enough: the trains must hold the same
        # tail arrays, as training, loading and copying leave them.  The
        # model refuses them when it is built, so save_model never sees one
        _, model = self.train_small()
        copied = TensorTrain(tuple(c.copy() for c in model.support[1].cores))
        support = (model.support[0], copied, *model.support[2:])
        with pytest.raises(ValueError, match="must share one tail"):
            dataclasses.replace(model, support=support)

    def test_model_fields_cannot_be_reassigned(self):
        # the support set is checked once, when the model is built
        _, model = self.train_small()
        for name, value in (("support", ()), ("coef", model.coef), ("bias", 0.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, value)

    def test_ovo_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = blob_dataset(rng, classes=(0, 1, 2))
        model = train_multiclass_ovo(ds, tiny_grid())
        path = tmp_path / "m.ttkm"
        save_model(path, model, meta={"seed": 6})
        loaded = load_model(path)
        assert loaded.classes == model.classes
        assert sorted(loaded.models) == sorted(model.models)
        test_s, _ = ds.subset("test")
        assert np.array_equal(loaded.predict(test_s), model.predict(test_s))

    def test_blob_corruption_detected(self, tmp_path):
        _, model = self.train_small()
        path = tmp_path / "m.ttkm"
        save_model(path, model)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="checksum"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["tail", "coef", "bias"])
    def test_non_finite_blob_value_rejected(self, tmp_path, where, value):
        # the checksum matches what was written, so the value itself is
        # refused; a NaN tail core made predict print LAPACK errors to
        # stdout and exit 2 "usage"
        _, model = self.train_small()
        if where == "tail":
            core = np.array(model.support[0].cores[-1])
            core.flat[0] = value
            change = {"support": tuple(TensorTrain(tt.cores[:-1] + (core,))
                                       for tt in model.support)}
        elif where == "coef":
            change = {"coef": np.where(np.arange(model.coef.size) == 0, value, model.coef)}
        else:
            change = {"bias": value}
        model = dataclasses.replace(model, **change)
        path = tmp_path / "m.ttkm"
        save_model(path, model)
        with pytest.raises(DataFormatError, match="NaN or inf"):
            load_model(path)

    def test_overflowing_decision_values_are_a_capacity_error(self, tmp_path, capsys):
        # every kernel value is finite, but coef of 1e308 sums past float64:
        # decision_function's own check, not the kernel engine's, refuses it
        ds, model = self.train_small()
        model = dataclasses.replace(model, coef=np.full_like(model.coef, 1e308))
        test_s, _ = ds.subset("test")
        with pytest.raises(CapacityError, match="decision values are NaN or inf"):
            decision_function(model, test_s)
        path = tmp_path / "m.ttkm"
        save_model(path, model)
        write_dataset(tmp_path / "s.ttn", test_s)
        assert main(["predict", "--model", str(path), "--input", str(tmp_path / "s.ttn")]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error:capacity:") and "decision values" in err

    def test_unsupported_version(self, tmp_path):
        _, model = self.train_small()
        path = tmp_path / "m.ttkm"
        save_model(path, model)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="version"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ttkm"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(DataFormatError, match="magic"):
            load_model(path)

    def test_truncated_header(self, tmp_path):
        _, model = self.train_small()
        path = tmp_path / "m.ttkm"
        save_model(path, model)
        path.write_bytes(path.read_bytes()[:16])
        with pytest.raises(DataFormatError):
            load_model(path)


def edit_header(path, edit):
    """Rewrite a .ttkm header in place; the blob, and so its CRC, stay intact."""
    data = path.read_bytes()
    version, n = struct.unpack("<II", data[4:12])
    header = json.loads(data[12:12 + n])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:4] + struct.pack("<II", version, len(raw)) + raw + data[12 + n:])


DELETE = object()
HEADER_MUTATIONS = (("delete", DELETE), ("null", None), ("string", "x"),
                    ("list", [1]), ("minus-one", -1), ("huge", 2**63),
                    ("huge-negative", -2**63 - 1))


def set_header_key(header, key_path, value):
    """Set the key at ``key_path`` to ``value``, or delete it for DELETE."""
    *parents, key = key_path
    for step in parents:
        header = header[step]
    if value is DELETE:
        del header[key]
    else:
        header[key] = value


def header_key_paths(node, path=()):
    """The path to every dict key in a JSON header, at every nesting level."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from header_key_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from header_key_paths(value, path + (i,))


class TestModelHeaderValidation:
    """Missing or ill-typed header keys are format errors, not crashes."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        rng = np.random.default_rng(7)
        root = tmp_path_factory.mktemp("models")
        save_model(root / "binary.ttkm", train_binary(blob_dataset(rng), tiny_grid()),
                   meta={"seed": 3, "classes": [0, 1]})
        ds = blob_dataset(rng, classes=(0, 1, 2))
        save_model(root / "ovo.ttkm", train_multiclass_ovo(ds, tiny_grid()),
                   meta={"seed": 3, "classes": [0, 1, 2]})
        write_dataset(root / "samples.ttn", ds.subset("test")[0])
        return root

    @pytest.mark.parametrize("edit", [
        lambda h: h["model"].pop("dims"),
        lambda h: h["model"].update(dims="4x3x3"),
        lambda h: h["model"].update(interior_ranks=[2]),
        lambda h: h["model"].update(support_count="3"),
        lambda h: h["model"].pop("neg_class"),
        lambda h: h["model"].update(normalize=1),
        lambda h: h["model"].update(spec={"per_mode": [3], "combine": "prod"}),
        lambda h: h.update(model=[]),
        lambda h: h.pop("checksum"),
        lambda h: h["model"]["spec"]["per_mode"].pop(),
        lambda h: h["model"]["spec"]["per_mode"].append({"kind": "linear"}),
        # the checksum covers only the blob: swapped classes loaded and
        # inverted every label, equal ones gave one label for every sample,
        # and a class id outside int64 made predict exit 1
        lambda h: h["model"].update(neg_class=1, pos_class=0),
        lambda h: h["model"].update(neg_class=1),
        lambda h: h["model"].update(neg_class=-10**30),
        lambda h: h["model"].update(pos_class=10**30),
    ], ids=["no-dims", "str-dims", "short-ranks", "str-count", "no-neg-class",
            "int-normalize", "bad-spec", "list-model", "no-checksum",
            "short-per-mode", "long-per-mode", "swapped-classes", "equal-classes",
            "huge-negative-neg-class", "huge-pos-class"])
    def test_binary(self, saved, tmp_path, edit):
        path = tmp_path / "m.ttkm"
        path.write_bytes((saved / "binary.ttkm").read_bytes())
        edit_header(path, edit)
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_ovo_blob_with_trailing_bytes(self, saved, tmp_path, capsys):
        # 16 bytes after the last pair blob, with the CRC and blob_len fixed,
        # loaded: the pair blobs must cover the whole blob
        path = tmp_path / "m.ttkm"
        data = (saved / "ovo.ttkm").read_bytes()
        n = struct.unpack("<I", data[8:12])[0]
        header = json.loads(data[12:12 + n])
        blob = data[12 + n:] + bytes(16)
        header.update(blob_len=len(blob), checksum=zlib.crc32(blob))
        raw = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<I", len(raw)) + raw + blob)
        with pytest.raises(DataFormatError, match="16 trailing bytes"):
            load_model(path)
        assert main(["predict", "--model", str(path), "--input",
                     str(saved / "samples.ttn")]) == 5
        assert capsys.readouterr().err.startswith("error:data-format:")

    def test_nested_header_is_a_format_error(self, saved, tmp_path, capsys):
        # a header of 200,000 '[' raised RecursionError, and predict exited 1
        path = tmp_path / "m.ttkm"
        raw = b"[" * 200_000
        path.write_bytes(b"TTKM" + struct.pack("<II", 1, len(raw)) + raw)
        with pytest.raises(DataFormatError, match="unreadable header"):
            load_model(path)
        assert main(["predict", "--model", str(path), "--input",
                     str(saved / "samples.ttn")]) == 5
        assert capsys.readouterr().err.startswith("error:data-format:")

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("classes"),
        lambda h: h.update(models={}),
        lambda h: h["models"][0].update(pair=[0, 7]),
        lambda h: h["models"][0].update(blob_offset="0"),
        lambda h: h["models"][1]["model"].pop("dims"),
        lambda h: h.update(models=[]),
        lambda h: h.update(classes=[0], models=[]),
        lambda h: h["models"][2]["model"]["spec"]["per_mode"].pop(),
        # a pair blob that starts inside another reads misaligned floats the
        # checksum cannot catch; predict then failed in lstsq (fuzzed CLI)
        lambda h: h["models"][0].update(blob_offset=1),
        lambda h: h["models"][1].update(blob_offset=0),
        lambda h: h["models"][0].update(blob_offset=0.0),
    ], ids=["no-classes", "dict-models", "pair-outside-classes", "str-offset",
            "no-dims", "no-models", "one-class", "short-per-mode", "misaligned-offset",
            "overlapping-offset", "float-offset"])
    def test_ovo(self, saved, tmp_path, edit):
        path = tmp_path / "m.ttkm"
        path.write_bytes((saved / "ovo.ttkm").read_bytes())
        edit_header(path, edit)
        with pytest.raises(DataFormatError):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h["models"][0].update(pair=[1, 0]),
        lambda h: h["models"][1].update(pair=h["models"][0]["pair"]),
        lambda h: h["models"][0].update(pair=[0, 0]),
        lambda h: h["models"][0]["model"].update(pos_class=7),
        lambda h: h.update(classes=[0, 1, 2, 3]),
        lambda h: h.update(classes=[0, 1, 2, 2]),
    ], ids=["swapped-pair", "repeated-pair", "self-pair", "foreign-pos-class",
            "missing-pair", "repeated-class"])
    def test_ovo_pairs_match_their_models(self, saved, tmp_path, capsys, edit):
        # the checksum covers only the blob: each of these headers loaded,
        # and predict voted with a pair's classes swapped, missing or
        # counted twice, and exited 0
        path = tmp_path / "m.ttkm"
        path.write_bytes((saved / "ovo.ttkm").read_bytes())
        edit_header(path, edit)
        with pytest.raises(DataFormatError):
            load_model(path)
        assert main(["predict", "--model", str(path), "--input",
                     str(saved / "samples.ttn")]) == 5
        assert capsys.readouterr().err.startswith("error:data-format:")

    def test_unedited_header_loads(self, saved, tmp_path):
        for name in ("binary.ttkm", "ovo.ttkm"):
            path = tmp_path / name
            path.write_bytes((saved / name).read_bytes())
            edit_header(path, lambda h: None)
            load_model(path)

    @pytest.mark.parametrize("name,edit", [
        ("binary.ttkm", lambda h: h["model"]["spec"]["per_mode"].pop()),
        ("binary.ttkm", lambda h: h["model"]["spec"]["per_mode"].append({"kind": "linear"})),
        ("ovo.ttkm", lambda h: h.update(models=[])),
        # json reads Infinity and NaN: an infinite sigma loaded and predict
        # exited 0, a non-finite poly c loaded and predict exited 6
        ("binary.ttkm", lambda h: h["model"]["spec"]["per_mode"][0].update(sigma=math.inf)),
        ("binary.ttkm", lambda h: h["model"]["spec"]["per_mode"].__setitem__(
            0, {"kind": "poly", "c": math.nan, "degree": 2})),
        ("binary.ttkm", lambda h: h["model"]["spec"]["per_mode"].__setitem__(
            0, {"kind": "poly", "c": math.inf, "degree": 2})),
    ], ids=["short-per-mode", "long-per-mode", "ovo-without-models", "inf-sigma",
            "nan-poly-c", "inf-poly-c"])
    def test_predict_exits_5(self, saved, tmp_path, capsys, name, edit):
        path = tmp_path / "m.ttkm"
        path.write_bytes((saved / name).read_bytes())
        edit_header(path, edit)
        with pytest.raises(DataFormatError):
            load_model(path)
        assert main(["predict", "--model", str(path), "--input",
                     str(saved / "samples.ttn")]) == 5
        assert capsys.readouterr().err.startswith("error:data-format:")

    def test_every_header_key_mutation(self, saved, tmp_path, capsys):
        """Delete each header key at every nesting level, or set it to null,
        a string, a list, -1 or an integer just outside int64 (2**63 wraps
        silently in a label, -2**63 - 1 made predict exit 1); also drop
        every one-vs-one model and make a
        per-mode kernel list one short or one long.  Each file loads or is a
        DataFormatError, and ``ttkm predict`` on any that loads exits 0 or 5."""
        path = tmp_path / "m.ttkm"
        samples = str(saved / "samples.ttn")
        failures, checked = [], 0
        for name, spec_of in (("binary.ttkm", lambda h: h["model"]["spec"]),
                              ("ovo.ttkm", lambda h: h["models"][0]["model"]["spec"])):
            data = (saved / name).read_bytes()
            n = struct.unpack("<I", data[8:12])[0]
            edits = [
                (f"{label} {key_path}", lambda h, k=key_path, v=value: set_header_key(h, k, v))
                for key_path in header_key_paths(json.loads(data[12:12 + n]))
                for label, value in HEADER_MUTATIONS
            ] + [
                ("short per_mode", lambda h: spec_of(h)["per_mode"].pop()),
                ("long per_mode", lambda h: spec_of(h)["per_mode"].append({"kind": "linear"})),
                ("no models", lambda h: h.update(models=[])),
            ]
            for label, edit in edits:
                path.write_bytes(data)
                edit_header(path, edit)
                checked += 1
                try:
                    load_model(path)
                except DataFormatError:
                    continue
                code = main(["predict", "--model", str(path), "--input", samples])
                err = capsys.readouterr().err
                if code not in (0, 5):
                    failures.append((name, label, code, err))
        assert checked > 300
        assert not failures, failures


class TestConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return path

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.train_per_class == 50 and cfg.val_per_class == 50
        grid = cfg.grid(3)
        assert grid.c_values == (1.0, 10.0, 100.0, 1000.0)
        assert grid.sigma_values == (1.0, 10.0, 100.0, 1000.0)
        assert grid.rank_values == (2, 3, 4, 5, 6, 7, 8)
        assert grid.combine == "prod"

    def test_full_file(self, tmp_path):
        path = self.write(tmp_path, """
[data]
train_images = a.ttn
train_labels = a.json
reshape = 4, 7, 4, 7
normalize = true

[split]
train_per_class = 10
val_per_class = 20
seed = 42

[grid]
c_values = 1, 10
sigma_values = 0.5
rank_values = 2, 3x4
combine = sum

[kernel]
mode_kinds = rbf, rbf, linear, rbf
poly_c = 2.0
poly_degree = 3

[solver]
tol = 1e-4
max_iter = 5000
""")
        cfg = load_config(path)
        grid = cfg.grid(4)
        assert cfg.train_images == "a.ttn"
        assert cfg.reshape == (4, 7, 4, 7)
        assert grid.normalize is True
        assert cfg.train_per_class == 10 and cfg.val_per_class == 20
        assert cfg.seed == 42
        assert grid.c_values == (1.0, 10.0)
        assert grid.rank_values == (2, (3, 4))
        assert grid.combine == "sum"
        assert grid.mode_kinds == ("rbf", "rbf", "linear", "rbf")
        assert grid.solver_tol == 1e-4 and grid.solver_max_iter == 5000

    def test_unknown_key(self, tmp_path):
        path = self.write(tmp_path, "[grid]\nc_valuess = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_unknown_section(self, tmp_path):
        path = self.write(tmp_path, "[extras]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_bad_boolean(self, tmp_path):
        path = self.write(tmp_path, "[data]\nnormalize = maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            load_config(path)

    def test_bad_rank_chain(self, tmp_path):
        path = self.write(tmp_path, "[grid]\nrank_values = 2.5\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("section,key,value", [
        ("split", "train_per_class", "10, 20"),
        ("split", "val_per_class", "10 20"),
        ("split", "seed", "1, 2"),
        ("split", "seed", ","),
        ("kernel", "poly_c", "1 2"),
        ("kernel", "poly_degree", "2, 3"),
        ("solver", "tol", "1e-3 5"),
        ("solver", "max_iter", "10, 20"),
    ])
    def test_scalar_key_takes_exactly_one_value(self, tmp_path, capsys, section, key, value):
        path = self.write(tmp_path, f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match="exactly one value"):
            load_config(path)
        assert main(["train", "--config", str(path), "--pair", "0,1"]) == 3
        assert "exactly one value" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("split", "seed", "inf"),  # int(inf) raised OverflowError: exit 1
        ("split", "train_per_class", "-inf"),
        ("split", "seed", "nan"),  # int(nan) raised ValueError: exit 2
        ("grid", "rank_values", "2, inf"),
        ("grid", "c_values", "1e400"),  # parsed as inf
        ("solver", "tol", "nan"),
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, section, key, value):
        path = self.write(tmp_path, f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)
        assert main(["train", "--config", str(path), "--pair", "0,1"]) == 3
        assert capsys.readouterr().err.startswith("error:config:")

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        # UnicodeDecodeError escaped load_config and became exit 2 "usage"
        path = tmp_path / "run.ini"
        path.write_bytes(b"[split]\nseed = 1\xff\n")
        with pytest.raises(ConfigError, match="utf-8"):
            load_config(path)
        assert main(["train", "--config", str(path), "--pair", "0,1"]) == 3

    def test_unreadable_config_path_is_config_error(self, tmp_path, capsys):
        # a directory raised IsADirectoryError: exit 1 "unexpected"
        assert main(["train", "--config", str(tmp_path), "--pair", "0,1"]) == 3
        assert capsys.readouterr().err.startswith("error:config:")
        missing = tmp_path / "missing.ini"
        with pytest.raises(FileNotFoundError):
            load_config(missing)
        assert main(["train", "--config", str(missing), "--pair", "0,1"]) == 4

    def test_bare_percent_is_config_error(self, tmp_path):
        path = self.write(tmp_path, "[data]\ntrain_images = a%1.ttn\n")
        with pytest.raises(ConfigError, match="train_images"):
            load_config(path)

    def test_grid_defaults_to_rbf_modes(self):
        grid = RunConfig().grid(3)
        assert grid.mode_kinds == ("rbf", "rbf", "rbf")
        spec = grid.make_spec(2.0)
        assert all(isinstance(k, RbfKernel) for k in spec.per_mode)

    def test_grid_rejects_wrong_mode_count(self):
        cfg = RunConfig(grid_keys={"mode_kinds": ("rbf", "linear")})
        with pytest.raises(ConfigError):
            cfg.grid(3)

    # one INI value per [section] key that sets a GridConfig field, and the
    # (field, value) it gives the grid; none is that field's default
    GRID_KEYS = {
        ("data", "normalize"): ("true", "normalize", True),
        ("grid", "c_values"): ("2, 20", "c_values", (2.0, 20.0)),
        ("grid", "sigma_values"): ("0.5, 5", "sigma_values", (0.5, 5.0)),
        ("grid", "rank_values"): ("3, 2x4", "rank_values", (3, (2, 4))),
        ("grid", "combine"): ("sum", "combine", "sum"),
        ("kernel", "mode_kinds"): ("rbf, linear, poly", "mode_kinds", ("rbf", "linear", "poly")),
        ("kernel", "poly_c"): ("2.5", "poly_c", 2.5),
        ("kernel", "poly_degree"): ("3", "poly_degree", 3),
        ("solver", "tol"): ("1e-5", "solver_tol", 1e-5),
        ("solver", "max_iter"): ("77", "solver_max_iter", 77),
    }

    @staticmethod
    def default_grid(order):
        """Every GridConfig field as RunConfig.grid fills it when nothing
        sets it: the paper's grid, all-RBF modes, else GridConfig's default."""
        out = {**PAPER_GRID, "mode_kinds": ("rbf",) * order}
        for f in dataclasses.fields(GridConfig):
            out.setdefault(f.name, f.default)
        return out

    def test_grid_keys_table_covers_every_grid_key(self):
        grid_fields = {f.name for f in dataclasses.fields(GridConfig)}
        keys = {(section, key) for section, entries in config._KEYS.items()
                for key, (name, _) in entries.items() if name in grid_fields}
        assert keys == set(self.GRID_KEYS)
        assert {name for _, name, _ in self.GRID_KEYS.values()} == grid_fields

    @pytest.mark.parametrize("section,key", sorted(GRID_KEYS))
    def test_grid_key_reaches_the_grid(self, tmp_path, section, key):
        text, name, value = self.GRID_KEYS[section, key]
        cfg = load_config(self.write(tmp_path, f"[{section}]\n{key} = {text}\n"))
        assert cfg.grid_keys == {name: value}
        got = dataclasses.asdict(cfg.grid(3))
        want = self.default_grid(3)
        assert value != want[name]
        assert got == {**want, name: value}

    def test_flags_override_the_file(self, tmp_path):
        path = self.write(tmp_path, """
[grid]
rank_values = 2
combine = sum

[kernel]
mode_kinds = rbf, linear
poly_c = 3
""")
        args = build_parser().parse_args(
            ["train", "--config", str(path), "--combine", "prod", "--ranks", "3,4x5",
             "--kinds", "LINEAR, Poly"])
        grid = _load_run_config(args).grid(2)
        assert grid.combine == "prod"
        assert grid.rank_values == (3, (4, 5))
        assert grid.mode_kinds == ("linear", "poly")
        assert grid.poly_c == 3.0  # set by the file, not by a flag
        assert load_config(path).grid(2).combine == "sum"

    def test_load_samples_ttn(self, tmp_path):
        rng = np.random.default_rng(7)
        samples = [DenseTensor(rng.standard_normal((2, 3))) for _ in range(4)]
        path = tmp_path / "d.ttn"
        write_dataset(path, samples)
        back = load_samples(path)
        assert len(back) == 4
        assert np.array_equal(back[0].values, samples[0].values)

    def test_load_samples_ttn_reshape(self, tmp_path):
        rng = np.random.default_rng(8)
        samples = [DenseTensor(rng.standard_normal((2, 3))) for _ in range(2)]
        path = tmp_path / "d.ttn"
        write_dataset(path, samples)
        back = load_samples(path, reshape=(6,))
        assert back[0].dims == (6,)
        assert np.array_equal(
            back[0].values, samples[0].values.ravel(order="F")
        )

    @pytest.mark.parametrize("reshape", [(-2, -3), (0, 6), (-1, -6), (4,), ()])
    @pytest.mark.parametrize("suffix", [".ttn", ".idx"])
    def test_load_samples_refuses_a_bad_reshape(self, tmp_path, suffix, reshape):
        # (-2, -3) and (-1, -6) have the sample size as product, and used to
        # get past the size check to numpy's "only one unknown dimension"
        path = tmp_path / f"d{suffix}"
        if suffix == ".ttn":
            write_dataset(path, [DenseTensor(np.ones((2, 3)))])
        else:
            path.write_bytes(idx_images_bytes(1, 2, 3, range(6)))
        loaders = [load_samples] + ([load_idx_images] if suffix == ".idx" else [])
        for load in loaders:
            with pytest.raises(ValueError, match=re.escape(f"reshape {reshape}")):
                load(path, reshape=reshape)

    # a run-setting flag and its INI key read the same text: the same value,
    # or a refusal naming the flag (exit 2) and the key (exit 3)
    @pytest.mark.parametrize("flag,text,value", [
        ("--train-per-class", "5.0", 5),
        ("--val-per-class", "5.0", 5),
        ("--seed", "5.0", 5),
        ("--seed", "0", 0),
        ("--reshape", "3.0, 2", (3, 2)),
        ("--reshape", "-2, -3", None),
        ("--reshape", "0, 6", None),
        ("--reshape", ",", None),  # once refused later, as "reshape ()", exit 2
        ("--train-per-class", "0", None),
        ("--val-per-class", "0", None),
        ("--seed", "-1", None),
        ("--ranks", "2, 0", None),
        ("--ranks", "2x0", None),
    ])
    def test_flag_reads_its_ini_key_grammar(self, tmp_path, capsys, flag, text, value):
        section, key = _RUN_FLAGS[flag]
        path = self.write(tmp_path, f"[{section}]\n{key} = {text}\n")
        argv = ["train", "--pair", "0,1", f"{flag}={text}"]
        if value is not None:
            name = config._KEYS[section][key][0]
            assert getattr(_load_run_config(build_parser().parse_args(argv)), name) == value
            assert getattr(load_config(path), name) == value
            return
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:usage: {flag}:") and err.count("\n") == 1
        assert main(["train", "--pair", "0,1", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error:config: {key}:") and err.count("\n") == 1

    def test_run_flags_table_names_ini_keys(self):
        for flag, (section, key) in _RUN_FLAGS.items():
            assert key in config._KEYS[section], flag
        train = vars(build_parser().parse_args(["train"]))
        assert {flag[2:].replace("-", "_") for flag in _RUN_FLAGS} <= set(train)

    def test_load_samples_idx(self, tmp_path):
        path = tmp_path / "im.idx"
        path.write_bytes(idx_images_bytes(1, 2, 2, [255, 0, 0, 255]))
        (img,) = load_samples(path)
        assert img.dims == (2, 2)

    def test_load_labels_json_and_idx(self, tmp_path):
        jpath = tmp_path / "y.json"
        jpath.write_text(json.dumps([1, 0, 2]))
        assert np.array_equal(load_labels(jpath), [1, 0, 2])
        ipath = tmp_path / "y.idx"
        ipath.write_bytes(idx_labels_bytes([3, 4]))
        assert np.array_equal(load_labels(ipath), [3, 4])
