"""Command-line interface: subcommands, exit codes, deterministic output."""

import json
import struct

import numpy as np
import pytest

from ttkm.cli import dump_json, format_float, main
from ttkm.model_store import load_model
from ttkm.tensor import DenseTensor
from ttkm.ttn import write_dataset, write_tensor


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


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["not-a-command"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "tt-svd" in capsys.readouterr().out

    def test_stderr_is_machine_parseable(self, data_dir, capsys):
        code, _, err = run(capsys, "tt-svd", "--input", data_dir / "nope.ttn",
                           "--eps", "1e-6")
        assert code == 4
        line = err.strip().splitlines()[-1]
        category, message = line.split(":", 2)[:2], line.split(": ", 1)[1]
        assert category[0] == "error" and category[1] == "missing-input"
        assert message
