"""Command-line interface: subcommands, exit codes, deterministic output."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ttkm import pipeline
from ttkm.cli import _CATEGORIES, _parse_kinds, dump_json, format_float, main
from ttkm.model_store import load_model
from ttkm.tensor import DenseTensor
from ttkm.ttn import read_dataset, write_dataset, write_tensor


@pytest.fixture
def data_dir(tmp_path):
    """Two well-separated order-3 classes plus an INI run configuration."""
    rng = np.random.default_rng(9)
    centers = {c: rng.standard_normal((4, 3, 3)) for c in (0, 1, 2)}

    def blob(c, n):
        return [DenseTensor(centers[c] + 0.25 * rng.standard_normal((4, 3, 3)))
                for _ in range(n)]

    train, train_y, test, test_y = [], [], [], []
    for c in (0, 1, 2):
        train += blob(c, 24)
        train_y += [c] * 24
        test += blob(c, 6)
        test_y += [c] * 6
    write_dataset(tmp_path / "train.ttn", train)
    write_dataset(tmp_path / "test.ttn", test)
    (tmp_path / "train_y.json").write_text(json.dumps(train_y))
    (tmp_path / "test_y.json").write_text(json.dumps(test_y))
    (tmp_path / "run.ini").write_text(f"""
[data]
train_images = {tmp_path / 'train.ttn'}
train_labels = {tmp_path / 'train_y.json'}
test_images = {tmp_path / 'test.ttn'}
test_labels = {tmp_path / 'test_y.json'}

[split]
train_per_class = 14
val_per_class = 8
seed = 3

[grid]
c_values = 10
sigma_values = 1
rank_values = 2
""")
    u = rng.standard_normal(5)
    v = rng.standard_normal(4)
    w = rng.standard_normal(3)
    planted = np.einsum("i,j,k->ijk", u, v, w)
    write_tensor(tmp_path / "one.ttn", DenseTensor(planted))
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m ttkm`` in a fresh process, with src/ on the path and
    nothing installed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-m", "ttkm", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


class TestSerialization:
    def test_float_formatting(self):
        assert format_float(1.0) == "1"
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(float("nan")) == "null"
        assert format_float(float("inf")) == "null"

    def test_json_sorted_keys_and_types(self):
        text = dump_json({"b": 2, "a": [True, None, 0.5], "c": np.float64(1.5)})
        assert text == '{"a": [true, null, 0.5], "b": 2, "c": 1.5}'

    def test_json_numpy_arrays(self):
        assert dump_json(np.arange(3)) == "[0, 1, 2]"


class TestTtSvdCommand:
    def test_planted_rank_one(self, data_dir, capsys):
        code, out, _ = run(capsys, "tt-svd", "--input", data_dir / "one.ttn",
                           "--eps", "1e-8")
        assert code == 0
        report = json.loads(out)
        assert report["dims"] == [5, 4, 3]
        assert report["interior_ranks"] == [1, 1]
        assert report["rel_error"] < 1e-8

    def test_requested_ranks(self, data_dir, capsys):
        code, out, _ = run(capsys, "tt-svd", "--input", data_dir / "one.ttn",
                           "--ranks", "2,2")
        assert code == 0
        report = json.loads(out)
        assert report["requested_ranks"] == [2, 2]
        assert all(r <= 2 for r in report["interior_ranks"])

    def test_output_file(self, data_dir, capsys):
        path = data_dir / "svd.json"
        code, out, _ = run(capsys, "tt-svd", "--input", data_dir / "one.ttn",
                           "--eps", "1e-6", "--output", path)
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["dims"] == [5, 4, 3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("flag", [("--ranks", "2"), ("--eps", "1e-6")])
    def test_non_finite_input_is_data_format_error(self, tmp_path, capsys, bad, flag):
        # used to hang (inf with --eps) or exit 2 on an SVD failure
        raw = tmp_path / "bad.ttn"
        write_tensor(raw, DenseTensor(np.ones((4, 4, 4))))
        data = bytearray(raw.read_bytes())
        data[-8:] = struct.pack("<d", bad)
        raw.write_bytes(bytes(data))
        code, _, err = run(capsys, "tt-svd", "--input", raw, *flag)
        assert code == 5 and err.startswith("error:data-format:")

    def test_dataset_file_is_named_as_one(self, data_dir, capsys):
        # it used to report a truncated file that needed ~1e159 bytes
        path = data_dir / "train.ttn"
        code, out, err = run(capsys, "tt-svd", "--input", path, "--eps", "0.1")
        assert code == 5 and not out
        assert err == (f"error:data-format: {path}: the file holds a dataset of 72 "
                       "samples of dims (4, 3, 3), not a single tensor\n")

    @pytest.mark.parametrize("eps", ["inf", "nan", "0"])
    def test_eps_must_be_positive_and_finite(self, data_dir, capsys, eps):
        # an infinite --eps used to exit 0
        code, _, err = run(capsys, "tt-svd", "--input", data_dir / "one.ttn", "--eps", eps)
        assert code == 2 and err.startswith("error:usage:") and "rel_tol" in err

    def test_eps_and_ranks_together_is_usage_error(self, data_dir, capsys):
        code, _, err = run(capsys, "tt-svd", "--input", data_dir / "one.ttn",
                           "--eps", "1e-6", "--ranks", "2")
        assert code == 2
        assert err.startswith("error:usage:")


class TestGramCommand:
    def test_csv_and_sidecar(self, data_dir, capsys):
        out_path = data_dir / "gram.csv"
        code, _, _ = run(capsys, "gram", "--input", data_dir / "test.ttn",
                         "--kinds", "rbf,rbf,rbf", "--sigma", "2.0",
                         "--ranks", "2", "--output", out_path)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("k0,")
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert values.shape == (18, 18)
        assert np.allclose(values, values.T)
        sidecar = json.loads((data_dir / "gram.json").read_text())
        assert sidecar["kernel"]["combine"] == "prod"
        assert sidecar["interior_ranks"] == [2, 2]

    def test_mode_count_mismatch(self, data_dir, capsys):
        code, _, err = run(capsys, "gram", "--input", data_dir / "test.ttn",
                           "--kinds", "rbf,rbf", "--sigma", "2.0", "--ranks", "2")
        assert code == 2 and "modes" in err

    def test_rbf_without_sigma(self, data_dir, capsys):
        code, _, err = run(capsys, "gram", "--input", data_dir / "test.ttn",
                           "--kinds", "rbf,rbf,rbf", "--ranks", "2")
        assert code == 2 and "sigma" in err

    @pytest.mark.parametrize("kinds,want", [
        ("rbf:sigma=3,poly:c=2,degree=3,rbf",
         [{"kind": "rbf", "sigma": 3.0}, {"kind": "poly", "c": 2.0, "degree": 3},
          {"kind": "rbf", "sigma": 2.0}]),
        ("poly:degree=3,c=0.5,linear,rbf:1.5",
         [{"kind": "poly", "c": 0.5, "degree": 3}, {"kind": "linear"},
          {"kind": "rbf", "sigma": 1.5}]),
        ("RBF,linear,Rbf",
         [{"kind": "rbf", "sigma": 2.0}, {"kind": "linear"}, {"kind": "rbf", "sigma": 2.0}]),
    ])
    def test_kinds_with_parameters_and_case(self, data_dir, capsys, kinds, want):
        code, _, _ = run(capsys, "gram", "--input", data_dir / "test.ttn",
                         "--kinds", kinds, "--sigma", "2.0", "--ranks", "2",
                         "--output", data_dir / "gram.csv")
        assert code == 0
        sidecar = json.loads((data_dir / "gram.json").read_text())
        assert sidecar["kernel"]["per_mode"] == want

    @pytest.mark.parametrize("kinds", [
        "rbf:sigma=3,linear,degree=3",  # a parameter after a kernel without any
        "degree=3,rbf,rbf",
        "RBF,RBF,RBF",  # no --sigma
        "poly:degree=inf,linear,rbf:1",  # a degree is a finite whole number
        "poly:degree=2.5,linear,rbf:1",
    ])
    def test_bad_kinds_are_usage_errors(self, data_dir, capsys, kinds):
        code, _, err = run(capsys, "gram", "--input", data_dir / "test.ttn",
                           "--kinds", kinds, "--ranks", "2")
        assert code == 2 and err.startswith("error:usage:")

    @pytest.mark.parametrize("kinds,name", [("rbf:sigma=inf,linear,linear", "sigma"),
                                            ("poly:c=nan,linear,linear", "c must be finite")])
    def test_non_finite_kernel_parameter_is_named(self, data_dir, capsys, kinds, name):
        # an infinite sigma made the RBF mode the constant 1, and exited 0
        code, _, err = run(capsys, "gram", "--input", data_dir / "test.ttn",
                           "--kinds", kinds, "--ranks", "2")
        assert code == 2 and err.startswith("error:usage:") and name in err

    @pytest.mark.parametrize("kinds,key", [("poly:degre=3,rbf:1,rbf:1", "degre"),
                                           ("linear:sigma=4,rbf:1,rbf:1", "sigma")])
    def test_parameter_the_kind_does_not_take_is_named(self, data_dir, capsys, kinds, key):
        code, _, err = run(capsys, "gram", "--input", data_dir / "test.ttn",
                           "--kinds", kinds, "--ranks", "2")
        assert code == 2 and err.startswith("error:usage:") and repr(key) in err

    @pytest.mark.parametrize("kinds", ["rbf:sigma=1,sigma=2,rbf:1,rbf:1",
                                       "rbf:1,sigma=2,rbf:1,rbf:1"])
    def test_parameter_given_twice_is_named(self, data_dir, capsys, kinds):
        # the last value used to win silently
        code, _, err = run(capsys, "gram", "--input", data_dir / "test.ttn",
                           "--kinds", kinds, "--ranks", "2")
        assert code == 2 and err.startswith("error:usage:") and "'sigma'" in err

    def test_kernel_overflow_is_one_capacity_line(self, data_dir):
        # in a fresh process, so numpy's warnings print as they would:
        # "overflow encountered in power" used to precede error:usage
        out = run_module("gram", "--input", data_dir / "test.ttn", "--ranks", "2",
                         "--kinds", "poly:degree=1e300,linear,linear")
        assert out.returncode == 6
        assert out.stderr.startswith("error:capacity:") and len(out.stderr.splitlines()) == 1

    def test_parse_kinds_continues_parameters(self):
        kernels = _parse_kinds("rbf:sigma=3,linear,poly:c=2,degree=3,rbf", 1.0)
        assert [type(k).__name__ for k in kernels] == [
            "RbfKernel", "LinearKernel", "PolynomialKernel", "RbfKernel"]
        assert (kernels[2].c, kernels[2].degree) == (2.0, 3)
        assert kernels[0].sigma == 3.0 and kernels[3].sigma == 1.0


class TestTrainCommand:
    def test_binary_pair(self, data_dir, capsys):
        model_path = data_dir / "m.ttkm"
        code, out, _ = run(capsys, "train", "--config", data_dir / "run.ini",
                           "--pair", "0,1", "--output", model_path)
        assert code == 0
        report = json.loads(out)
        assert report["classes"] == [0, 1]
        assert report["seed"] == 3
        assert report["validation_accuracy"] >= 0.9
        assert report["test"]["accuracy"] >= 0.9
        model = load_model(model_path)
        assert model.classes == (0, 1)

    def test_dump_solution(self, data_dir, capsys):
        sol_path = data_dir / "sol.json"
        code, _, _ = run(capsys, "train", "--config", data_dir / "run.ini",
                         "--pair", "0,1", "--dump-solution", sol_path)
        assert code == 0
        sol = json.loads(sol_path.read_text())
        alphas = np.array(sol["alphas"])
        assert np.all(alphas >= 0) and np.all(alphas <= 10.0 + 1e-12)
        assert isinstance(sol["bias"], float) or isinstance(sol["bias"], int)
        assert "objective" in sol

    def test_ovo_classes(self, data_dir, capsys):
        model_path = data_dir / "ovo.ttkm"
        code, out, _ = run(capsys, "train", "--config", data_dir / "run.ini",
                           "--classes", "0,1,2", "--output", model_path)
        assert code == 0
        report = json.loads(out)
        assert report["classes"] == [0, 1, 2]
        assert sorted(report["models"]) == ["0-1", "0-2", "1-2"]
        assert report["test"]["accuracy"] >= 0.9
        model = load_model(model_path)
        assert model.classes == (0, 1, 2)

    def test_deterministic_metrics_and_model_bytes(self, data_dir, capsys):
        # identical invocations must produce byte-identical outputs
        m1, m2 = data_dir / "m1.json", data_dir / "m2.json"
        model = data_dir / "f.ttkm"
        code, _, _ = run(capsys, "train", "--config", data_dir / "run.ini",
                         "--pair", "0,1", "--metrics", m1, "--output", model)
        assert code == 0
        first_model = model.read_bytes()
        code, _, _ = run(capsys, "train", "--config", data_dir / "run.ini",
                         "--pair", "0,1", "--metrics", m2, "--output", model)
        assert code == 0
        metrics_1 = m1.read_bytes()
        metrics_2 = m2.read_bytes()
        assert metrics_1 == metrics_2
        assert model.read_bytes() == first_model

    def test_class_order_does_not_change_the_draw(self, data_dir, capsys):
        # classes are drawn in sorted order, so listing them differently
        # yields the same dataset and so the same model and metrics
        model, metrics = data_dir / "ovo.ttkm", data_dir / "ovo.json"
        outputs = []
        for classes in ("2,0,1", "0,1,2"):
            code, _, _ = run(capsys, "train", "--config", data_dir / "run.ini",
                             "--classes", classes, "--metrics", metrics,
                             "--output", model)
            assert code == 0
            outputs.append((model.read_bytes(), metrics.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_unknown_class_id(self, data_dir, capsys):
        code, _, err = run(capsys, "train", "--config", data_dir / "run.ini",
                           "--pair", "0,9")
        assert code == 2 and err.startswith("error:usage:")

    @pytest.mark.parametrize("value", ["a%1.ttn", "%(missing)s.ttn", "%(x"])
    def test_bad_interpolation_is_config_error(self, tmp_path, capsys, value):
        ini = tmp_path / "pct.ini"
        ini.write_text(f"[data]\ntrain_images = {value}\n")
        code, _, err = run(capsys, "train", "--config", ini, "--pair", "0,1")
        assert code == 3 and err.startswith("error:config:")
        assert "train_images" in err

    def test_missing_data_paths(self, tmp_path, capsys):
        ini = tmp_path / "empty.ini"
        ini.write_text("[split]\nseed = 1\n")
        code, _, err = run(capsys, "train", "--config", ini, "--pair", "0,1")
        assert code == 3 and err.startswith("error:config:")


class TestPredictEvaluateCommands:
    @pytest.fixture
    def model_path(self, data_dir, capsys):
        path = data_dir / "m.ttkm"
        code, _, _ = run(capsys, "train", "--config", data_dir / "run.ini",
                         "--pair", "0,1", "--output", path)
        assert code == 0
        return path

    def test_predict_labels_match_truth(self, data_dir, model_path, capsys):
        code, out, _ = run(capsys, "predict", "--model", model_path,
                           "--input", data_dir / "test.ttn")
        assert code == 0
        report = json.loads(out)
        truth = json.loads((data_dir / "test_y.json").read_text())
        # the model only knows classes 0 and 1; check those positions
        hits = [p == t for p, t in zip(report["labels"], truth) if t in (0, 1)]
        assert np.mean(hits) >= 0.9
        assert len(report["decision_values"]) == len(truth)

    def test_binary_predict_takes_one_cross_gram(self, data_dir, model_path, capsys,
                                                  monkeypatch):
        # the labels come from the decision values, not from a second pass
        calls = []
        real = pipeline.cross_gram
        monkeypatch.setattr(pipeline, "cross_gram",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        code, out, _ = run(capsys, "predict", "--model", model_path,
                           "--input", data_dir / "test.ttn", "--seed", "4")
        assert code == 0 and len(calls) == 1
        model = load_model(model_path)
        samples = read_dataset(data_dir / "test.ttn")
        want = {"labels": [int(v) for v in pipeline.predict(model, samples)], "seed": 4,
                "decision_values": list(pipeline.decision_function(model, samples))}
        assert out == dump_json(want) + "\n"

    def test_ovo_predict_labels(self, data_dir, capsys):
        path = data_dir / "ovo.ttkm"
        assert run(capsys, "train", "--config", data_dir / "run.ini",
                   "--classes", "0,1,2", "--output", path)[0] == 0
        code, out, _ = run(capsys, "predict", "--model", path, "--input", data_dir / "test.ttn")
        assert code == 0
        report = json.loads(out)
        samples = read_dataset(data_dir / "test.ttn")
        assert report["labels"] == load_model(path).predict(samples).tolist()
        assert "decision_values" not in report

    def test_evaluate_filters_other_classes(self, data_dir, model_path, capsys):
        code, out, _ = run(capsys, "evaluate", "--model", model_path,
                           "--input", data_dir / "test.ttn",
                           "--labels", data_dir / "test_y.json")
        assert code == 0
        report = json.loads(out)
        assert report["evaluated"] == 12
        assert report["skipped_other_classes"] == 6
        assert report["accuracy"] >= 0.9
        assert len(report["confusion"]) == 2

    def test_evaluate_via_config(self, data_dir, model_path, capsys):
        code, out, _ = run(capsys, "evaluate", "--model", model_path,
                           "--config", data_dir / "run.ini")
        assert code == 0
        assert json.loads(out)["evaluated"] == 12

    def test_evaluate_labels_of_no_model_class(self, data_dir, model_path, capsys):
        # the message names the cause, not the empty internal split
        labels = data_dir / "sevens.json"
        labels.write_text(json.dumps([7] * 18))
        code, out, err = run(capsys, "evaluate", "--model", model_path,
                             "--input", data_dir / "test.ttn", "--labels", labels)
        assert (code, out) == (2, "")
        assert err == "error:usage: none of the 18 labels is one of the model's classes [0, 1]\n"

    def test_predict_missing_model(self, data_dir, capsys):
        code, _, err = run(capsys, "predict", "--model", data_dir / "no.ttkm",
                           "--input", data_dir / "test.ttn")
        assert code == 4 and err.startswith("error:missing-input:")

    def test_predict_on_corrupt_input(self, data_dir, model_path, capsys):
        bad = data_dir / "bad.ttn"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code, _, err = run(capsys, "predict", "--model", model_path,
                           "--input", bad)
        assert code == 5 and err.startswith("error:data-format:")


    def test_predict_on_model_without_dims(self, data_dir, model_path, capsys):
        # the CRC covers only the blob, so a header edit must be caught on its own
        data = model_path.read_bytes()
        version, n = struct.unpack("<II", data[4:12])
        header = json.loads(data[12:12 + n])
        del header["model"]["dims"]
        raw = json.dumps(header).encode("utf-8")
        model_path.write_bytes(data[:4] + struct.pack("<II", version, len(raw))
                               + raw + data[12 + n:])
        code, _, err = run(capsys, "predict", "--model", model_path,
                           "--input", data_dir / "test.ttn")
        assert code == 5 and err.startswith("error:data-format:")


class TestGridCommand:
    def test_report_structure(self, data_dir, capsys):
        code, out, _ = run(capsys, "grid", "--config", data_dir / "run.ini",
                           "--pair", "1,2", "--ranks", "1,2")
        assert code == 0
        report = json.loads(out)
        assert len(report["grid"]) == 2  # two rank settings, one sigma, one C
        assert set(report["winner"]) == {"grid_point", "validation_accuracy"}
        assert report["test"]["accuracy"] >= 0.9

    def test_multiclass_rejected(self, data_dir, capsys):
        code, _, err = run(capsys, "grid", "--config", data_dir / "run.ini",
                           "--classes", "0,1,2")
        assert code == 2 and "pair" in err


class TestTrainingKinds:
    """``--kinds`` of train, grid and rank-sweep, and ``[kernel] mode_kinds``:
    bare kind names, any case."""

    COMMANDS = ["train", "grid", "rank-sweep"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_names_are_case_insensitive(self, data_dir, capsys, command):
        outputs = []
        for kinds in ("RBF,rbf,Rbf", "rbf,rbf,rbf"):
            code, out, err = run(capsys, command, "--config", data_dir / "run.ini",
                                 "--pair", "0,1", "--ranks", "2", "--kinds", kinds)
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_ini_names_are_case_insensitive(self, data_dir, capsys):
        models = []
        for kinds in ("RBF, rbf, Rbf", "rbf, rbf, rbf"):
            path = data_dir / "kinds.ini"
            path.write_text((data_dir / "run.ini").read_text()
                            + f"\n[kernel]\nmode_kinds = {kinds}\n")
            model = data_dir / "kinds.ttkm"
            code, _, err = run(capsys, "train", "--config", path, "--pair", "0,1",
                               "--output", model)
            assert code == 0, err
            models.append(model.read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize("kinds", [
        "rbf:sigma=2,rbf,rbf",  # the grid sets sigma
        "rbf,gauss,rbf",
        "poly:degree=3,linear,rbf",
    ])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_kinds_are_usage_errors(self, data_dir, capsys, command, kinds):
        code, _, err = run(capsys, command, "--config", data_dir / "run.ini",
                           "--pair", "0,1", "--ranks", "2", "--kinds", kinds)
        assert code == 2 and err.startswith("error:usage:")
        assert "--kinds" in err


class TestRankSweepCommand:
    def test_csv_table(self, data_dir, capsys):
        out_path = data_dir / "sweep.csv"
        code, _, _ = run(capsys, "rank-sweep", "--config", data_dir / "run.ini",
                         "--pair", "0,1", "--ranks", "1,2", "--output", out_path)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "# seed=3"
        assert lines[1] == "# classes=0,1"
        assert lines[2].split(",")[0] == "ranks"
        assert len(lines) == 5  # two comments, header, two rank rows
        assert lines[3].startswith("1x1,")
        assert lines[4].startswith("2x2,")


def write_idx(path, array):
    """``array`` of unsigned bytes as an IDX file (magic 0x0000 08 nn)."""
    array = np.asarray(array, dtype=np.uint8)
    header = bytes([0, 0, 0x08, array.ndim]) + struct.pack(f">{array.ndim}I", *array.shape)
    path.write_bytes(header + array.tobytes())


class TestOrderTwoProfile:
    """The acceptance file's order-2 profile (criteria 6 and 7, which skip
    without MNIST) end to end on small synthetic 28x28 IDX files: all-RBF
    prod kernels over the paper's sigma and C grid at ranks 5 and 15.  No
    accuracy is bounded: each rank-sweep row is checked against the winner
    of a single-rank grid run."""

    @pytest.fixture
    def ini(self, tmp_path):
        # two bars a pixel apart under heavy noise: the classes overlap, so
        # the winners differ across the grid and between the two ranks
        rng = np.random.default_rng(28)
        strokes = {1: np.zeros((28, 28)), 2: np.zeros((28, 28))}
        strokes[1][4:24, 12:16] = 1.0
        strokes[2][4:24, 13:17] = 1.0

        def images(labels):
            noisy = np.stack([strokes[c] for c in labels]) + rng.random((len(labels), 28, 28))
            return 255 * noisy / 2

        for name, labels in (("train", [1, 2] * 10), ("test", [2, 1] * 6)):
            write_idx(tmp_path / f"{name}-images", images(labels))
            write_idx(tmp_path / f"{name}-labels", labels)
        path = tmp_path / "mnist.ini"
        path.write_text(f"""
[data]
train_images = {tmp_path / 'train-images'}
train_labels = {tmp_path / 'train-labels'}
test_images = {tmp_path / 'test-images'}
test_labels = {tmp_path / 'test-labels'}

[split]
train_per_class = 5
val_per_class = 5
seed = 7

[kernel]
mode_kinds = rbf, rbf
""")
        return path

    def test_rank_sweep_rows_are_single_rank_grid_winners(self, ini, capsys):
        code, out, err = run(capsys, "rank-sweep", "--config", ini, "--pair", "1,2",
                             "--ranks", "5,15", "--combine", "prod")
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[:3] == ["# seed=7", "# classes=1,2",
                             "ranks,C,sigma,validation_accuracy,test_accuracy,support_count"]
        assert len(lines) == 5
        for rank, line in zip((5, 15), lines[3:]):
            code, out, err = run(capsys, "grid", "--config", ini, "--pair", "1,2",
                                 "--ranks", str(rank), "--combine", "prod")
            assert code == 0, err
            report = json.loads(out)
            winner = report["winner"]
            assert len(report["grid"]) == 4 * 4
            ranks, c, sigma, val_acc, test_acc, support = line.split(",")
            assert ranks == str(rank)
            point = {"ranks": [rank], "C": float(c), "sigma": float(sigma)}
            assert winner["grid_point"] == point
            assert winner["validation_accuracy"] == float(val_acc)
            assert report["test"]["accuracy"] == float(test_acc)
            entry, = (e for e in report["grid"]
                      if {k: e[k] for k in ("ranks", "C", "sigma")} == point)
            assert entry["support_count"] == int(support)


class TestSolverOptions:
    """``[solver]`` reaches every training command through one grid."""

    COMMANDS = ["train", "grid", "rank-sweep"]

    def ini(self, data_dir, solver):
        text = (data_dir / "run.ini").read_text().replace("c_values = 10", "c_values = 1000")
        path = data_dir / "solver.ini"
        path.write_text(text + "\n[solver]\n" + solver + "\n")
        return path

    @pytest.mark.parametrize("command", COMMANDS)
    def test_max_iter_binds(self, data_dir, capsys, command):
        code, _, err = run(capsys, command, "--config", self.ini(data_dir, "max_iter = 1"),
                           "--pair", "0,1", "--ranks", "1,2")
        assert code == 7 and err.splitlines()[-1].startswith("error:convergence:")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unconverged_run_prints_one_stderr_line(self, data_dir, command):
        # in a fresh process, as pytest's log capture would take the solver's
        # warnings that logging's last-resort handler otherwise prints
        done = run_module(command, "--config", self.ini(data_dir, "max_iter = 1"),
                          "--pair", "0,1", "--ranks", "1,2")
        assert done.returncode == 7
        assert done.stderr.startswith("error:convergence:")
        assert done.stderr.count("\n") == 1, done.stderr

    def test_verbose_shows_the_solver_warnings(self, data_dir):
        done = run_module("--verbose", "train", "--config",
                          self.ini(data_dir, "max_iter = 1"), "--pair", "0,1")
        assert done.returncode == 7
        assert "WARNING:ttkm.solver:SMO stopped" in done.stderr

    @pytest.mark.parametrize("command", COMMANDS)
    def test_zero_tol_is_usage_error(self, data_dir, capsys, command):
        code, _, err = run(capsys, command, "--config", self.ini(data_dir, "tol = 0"),
                           "--pair", "0,1")
        assert code == 2 and err.splitlines()[-1].startswith("error:usage:")


class TestBenchCommand:
    def test_compare(self, capsys):
        code, out, _ = run(capsys, "bench", "--d", "3", "--dims", "6",
                           "--ranks", "3", "--pairs", "5", "--seed", "0")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "compare"
        assert report["naive_seconds"] > 0 and report["fast_seconds"] > 0
        assert report["speedup"] == pytest.approx(
            report["naive_seconds"] / report["fast_seconds"]
        )

    def test_rank_sweep_mode(self, capsys):
        code, out, _ = run(capsys, "bench", "--sweep", "ranks", "--d", "3",
                           "--dims", "4", "--ranks", "2,4", "--pairs", "3",
                           "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "fast-prod-ranks"
        assert [row["rank"] for row in report["rows"]] == [2, 4]
        # one --ranks value sweeps that rank alone; none sweeps 2, 4, 8, 16
        for ranks, want in ((("--ranks", "8"), [8]), ((), [2, 4, 8, 16])):
            code, out, _ = run(capsys, "bench", "--sweep", "ranks", "--d", "2",
                               "--dims", "3", "--pairs", "1", *ranks)
            assert code == 0
            assert [row["rank"] for row in json.loads(out)["rows"]] == want

    @pytest.mark.parametrize("d, orders", [("2", [2]), ("3", [2, 3])])
    def test_order_sweep_runs_orders_two_to_d(self, capsys, d, orders):
        code, out, _ = run(capsys, "bench", "--sweep", "orders", "--d", d,
                           "--dims", "3", "--ranks", "2", "--pairs", "1")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "naive-orders"
        assert [row["order"] for row in report["rows"]] == orders

    @pytest.mark.parametrize("flags", [
        ("--ranks", ","),
        ("--ranks", "0"),
        ("--pairs", "0"),
        ("--pairs", "-1"),
        ("--sweep", "orders", "--d", "1"),
        ("--seed", "-1"),
        ("--seed", "1.5"),
    ])
    def test_bad_flags_are_usage_errors(self, capsys, flags):
        code, _, err = run(capsys, "bench", "--dims", "3", *flags)
        assert code == 2 and err.startswith("error:usage:") and flags[0] in err
        assert err.count("\n") == 1


class TestUnreadablePaths:
    """A directory where a file is read is malformed input (exit 5), and
    one where a file is written is a usage error (exit 2); never exit 1.
    A file without read or write permission takes the same path, but is
    not tested: root may read and write any file."""

    @pytest.fixture
    def model_path(self, data_dir, capsys):
        path = data_dir / "m.ttkm"
        assert run(capsys, "train", "--config", data_dir / "run.ini",
                   "--pair", "0,1", "--output", path)[0] == 0
        return path

    @staticmethod
    def directory(data_dir, name):
        path = data_dir / name
        path.mkdir()
        return path

    def assert_unreadable(self, result, path):
        code, _, err = result
        assert code == 5 and err.startswith("error:data-format:")
        assert f"{path}: cannot read" in err

    def assert_unwritable(self, result, path):
        code, _, err = result
        assert code == 2 and err.startswith("error:usage:")
        assert f"{path}: cannot write" in err

    def test_predict_model(self, data_dir, capsys):
        d = self.directory(data_dir, "dir.ttkm")
        self.assert_unreadable(
            run(capsys, "predict", "--model", d, "--input", data_dir / "test.ttn"), d)

    def test_predict_input(self, data_dir, model_path, capsys):
        d = self.directory(data_dir, "dir.ttn")
        self.assert_unreadable(run(capsys, "predict", "--model", model_path, "--input", d), d)

    def test_tt_svd_input(self, data_dir, capsys):
        d = self.directory(data_dir, "dir.ttn")
        self.assert_unreadable(run(capsys, "tt-svd", "--input", d, "--eps", "1e-6"), d)

    def test_gram_input(self, data_dir, capsys):
        # read as IDX, whose reader mapped directories before the others
        d = self.directory(data_dir, "dir")
        self.assert_unreadable(run(capsys, "gram", "--input", d, "--kinds", "rbf"), d)

    @pytest.mark.parametrize("name", ["dir.json", "dir"], ids=["json", "idx"])
    def test_evaluate_labels(self, data_dir, model_path, capsys, name):
        d = self.directory(data_dir, name)
        self.assert_unreadable(
            run(capsys, "evaluate", "--model", model_path,
                "--input", data_dir / "test.ttn", "--labels", d), d)

    def test_tt_svd_output(self, data_dir, capsys):
        d = self.directory(data_dir, "out")
        self.assert_unwritable(
            run(capsys, "tt-svd", "--input", data_dir / "one.ttn", "--eps", "1e-6",
                "--output", d), d)

    def test_output_in_a_missing_directory(self, data_dir, capsys):
        path = data_dir / "no" / "out.json"
        self.assert_unwritable(
            run(capsys, "tt-svd", "--input", data_dir / "one.ttn", "--eps", "1e-6",
                "--output", path), path)

    def test_train_model_output(self, data_dir, capsys):
        d = self.directory(data_dir, "out.ttkm")
        self.assert_unwritable(
            run(capsys, "train", "--config", data_dir / "run.ini", "--pair", "0,1",
                "--output", d), d)

    def test_grid_model_output(self, data_dir, capsys):
        d = self.directory(data_dir, "out.ttkm")
        self.assert_unwritable(
            run(capsys, "grid", "--config", data_dir / "run.ini", "--pair", "0,1",
                "--output-model", d), d)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["not-a-command"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "tt-svd" in capsys.readouterr().out

    def test_python_dash_m_runs_from_a_checkout(self, data_dir):
        # src/ on the path, nothing installed: the exit code and output of main
        ok = run_module("tt-svd", "--input", data_dir / "one.ttn", "--eps", "1e-8")
        assert ok.returncode == 0, ok.stderr
        assert json.loads(ok.stdout)["interior_ranks"] == [1, 1]
        missing = run_module("tt-svd", "--input", data_dir / "nope.ttn", "--eps", "1e-8")
        assert missing.returncode == 4
        assert missing.stderr.startswith("error:missing-input:")

    def test_stderr_is_machine_parseable(self, data_dir, capsys):
        code, _, err = run(capsys, "tt-svd", "--input", data_dir / "nope.ttn",
                           "--eps", "1e-6")
        assert code == 4
        line = err.strip().splitlines()[-1]
        category, message = line.split(":", 2)[:2], line.split(": ", 1)[1]
        assert category[0] == "error" and category[1] == "missing-input"
        assert message

    def test_readme_exit_code_table_lists_every_category(self):
        # a new error category cannot ship without its row in the README
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Exit codes", 1)[1].split("\n\n", 2)[1]
        codes = [int(row.split("|")[1]) for row in table.splitlines()
                 if row.startswith("|") and row.split("|")[1].strip().isdigit()]
        assert codes == list(range(8))
        assert {code for _, _, code in _CATEGORIES} <= set(codes)
