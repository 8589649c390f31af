"""Command-line interface.

Subcommands: tt-svd, gram, train, predict, evaluate, grid, rank-sweep,
bench.  Outputs are deterministic: floats print at fixed "%.17g", JSON
keys are sorted, and the --seed value is recorded in every output.

Exit codes (also in the README): 0 success, 1 unexpected error, 2 usage
error (an output path that cannot be written too), 3 configuration
error, 4 missing input file, 5 data format error (an input path that
exists but cannot be read too), 6 capacity exceeded, 7 solver
non-convergence.  Failures print a single machine-parseable line
``error:<category>: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import replace

import numpy as np

from .bench import bench_compare, bench_fast_prod_ranks, bench_naive_orders
from .config import _GRID_FIELDS, _KEYS, RunConfig, _ints, load_config, load_labels, load_samples
from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    DataFormatError,
)
from .kernels import COMBINE_RULES, KernelSpec, build_gram, kernel_from_dict, parse_kernel
from .model_store import load_model, save_model
from .pipeline import (
    Dataset,
    OvoModel,
    class_labels,
    decision_function,
    draw_dataset,
    evaluate,
    rank_sweep,
    train_binary,
    train_multiclass_ovo,
)
from .tensor import (
    DenseTensor,
    TtSvdConfig,
    interior_rank_chain,
    reconstruct,
    stack_and_decompose,
    tt_svd,
)
from .ttn import read_tensor

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# deterministic serialization


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return "null"
    return "%.17g" % x


def dump_json(obj) -> str:
    """JSON with sorted keys and %.17g floats, for byte-identical output."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return "[" + ", ".join(dump_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(f"{json.dumps(str(k))}: {dump_json(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def dump_csv(header, rows, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _unwritable(path, exc: OSError) -> ValueError:
    """An output path that cannot be written is a usage error (exit 2)."""
    return ValueError(f"{path}: cannot write ({exc})")


def emit(text: str, path=None) -> None:
    """Write to the path, or stdout when no path is given."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _unwritable(path, exc) from exc
    else:
        sys.stdout.write(text)


def _save_model(path, model, meta) -> None:
    try:
        save_model(path, model, meta=meta)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def emit_json(obj, path=None) -> None:
    emit(dump_json(obj) + "\n", path)


# ---------------------------------------------------------------------------
# shared argument plumbing


# run-setting flag -> the INI (section, key) whose parser reads its value
_RUN_FLAGS = {
    "--train-per-class": ("split", "train_per_class"),
    "--val-per-class": ("split", "val_per_class"),
    "--seed": ("split", "seed"),
    "--reshape": ("data", "reshape"),
    "--combine": ("grid", "combine"),
    "--ranks": ("grid", "rank_values"),
    "--kinds": ("kernel", "mode_kinds"),
}


def _flag(args, flag: str, parse=None):
    """``flag``'s value read by ``parse``, by default by its INI key's parser;
    None when the flag is absent or empty, as an empty INI value keeps the
    default.  A bad value is a usage error naming the flag."""
    text = getattr(args, flag[2:].replace("-", "_"), None)
    if text is None or not text.strip():
        return None
    if parse is None:
        section, key = _RUN_FLAGS[flag]
        parse = _KEYS[section][key][1]
    try:
        return parse(text.strip(), flag)
    except ConfigError as exc:
        raise ValueError(str(exc)) from None


def _svd_config(args, order: int) -> TtSvdConfig:
    """The truncation of ``--eps`` or ``--ranks``; exactly one must be given."""
    ranks = _flag(args, "--ranks", _ints)
    if (args.eps is None) == (ranks is None):
        raise ValueError("give exactly one of --eps or --ranks")
    if args.eps is not None:
        return TtSvdConfig(rel_tol=float(args.eps))
    entry = ranks[0] if len(ranks) == 1 else ranks
    return TtSvdConfig(
        max_ranks=interior_rank_chain(entry, order, f"rank chain {args.ranks!r}")
    )


def _parse_kinds(text: str, sigma) -> tuple:
    """Build per-mode kernels from 'rbf,linear,poly:c=2,degree=3' style text.

    A ``key=value`` piece after a kernel with parameters continues that
    kernel's parameters; ``sigma`` sets the bandwidth of bare 'rbf' modes.
    """
    parts = []
    for piece in (p.strip() for p in text.split(",")):
        if parts and ":" in parts[-1] and "=" in piece and ":" not in piece:
            parts[-1] += "," + piece
        else:
            parts.append(piece)
    return tuple(
        kernel_from_dict({"kind": "rbf", "sigma": sigma})
        if part.lower() == "rbf" and sigma is not None
        else parse_kernel(part)
        for part in parts
    )


def _load_run_config(args) -> RunConfig:
    """Config file values with command-line flags layered on top."""
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides, grid_keys = {}, {}
    for flag, (section, key) in _RUN_FLAGS.items():
        value, name = _flag(args, flag), _KEYS[section][key][0]
        if value is not None:
            (grid_keys if name in _GRID_FIELDS else overrides)[name] = value
    return replace(cfg, **overrides, grid_keys={**cfg.grid_keys, **grid_keys})


def _load_labeled(images, labels, reshape):
    """Samples and their labels, or (None, None) when either path is unset."""
    if images is None or labels is None:
        return None, None
    samples = load_samples(images, reshape=reshape)
    y = load_labels(labels)
    if len(samples) != len(y):
        raise DataFormatError(
            f"{images} has {len(samples)} samples but {labels} has {len(y)} labels"
        )
    return samples, y


def _build_dataset(args, cfg: RunConfig):
    """Dataset plus the class tuple for train/grid/rank-sweep commands."""
    train_s, train_y = _load_labeled(cfg.train_images, cfg.train_labels, cfg.reshape)
    if train_s is None:
        raise ConfigError("train_images/train_labels are required (config [data])")
    test_s, test_y = _load_labeled(cfg.test_images, cfg.test_labels, cfg.reshape)
    classes = _flag(args, "--pair", _ints)
    if classes is None:
        classes = _flag(args, "--classes", _ints)
    elif len(classes) != 2:
        raise ValueError(f"--pair needs exactly two class ids, got {args.pair!r}")
    if classes is None:
        classes = tuple(int(c) for c in np.unique(train_y))
    if len(classes) < 2:
        raise ValueError(f"need at least two classes, got {classes}")
    ds = draw_dataset(
        train_s, train_y, test_s, test_y, classes,
        cfg.train_per_class, cfg.val_per_class, cfg.seed,
    )
    return ds, tuple(sorted(classes))


def _train_model(ds: Dataset, classes, cfg: RunConfig):
    grid = cfg.grid(len(ds.dims))
    if len(classes) == 2:
        return train_binary(ds, grid)
    return train_multiclass_ovo(ds, grid)


def _test_metrics(model, ds: Dataset):
    if int(np.sum(ds.split == "test")) == 0:
        return None
    return evaluate(model, ds, split="test").to_dict()


# ---------------------------------------------------------------------------
# subcommands


def cmd_tt_svd(args) -> int:
    seed = _flag(args, "--seed")
    tensor = read_tensor(args.input)
    cfg = _svd_config(args, tensor.order)
    tt = tt_svd(tensor, cfg)
    nrm = tensor.norm()
    err = float(np.linalg.norm(tensor.values - reconstruct(tt).values))
    out = {
        "dims": list(tensor.dims),
        "interior_ranks": list(tt.interior_ranks),
        "rel_error": err / nrm if nrm > 0 else 0.0,
        "eps": args.eps,
        "requested_ranks": list(cfg.max_ranks) if cfg.max_ranks is not None else None,
        "seed": seed,
    }
    emit_json(out, args.output)
    return 0


def cmd_gram(args) -> int:
    seed = _flag(args, "--seed")
    samples = load_samples(args.input, reshape=_flag(args, "--reshape"))
    order = samples[0].order
    per_mode = _parse_kinds(args.kinds, args.sigma)
    if len(per_mode) != order:
        raise ValueError(f"--kinds names {len(per_mode)} modes, data has order {order}")
    spec = KernelSpec(per_mode=per_mode, combine=args.combine)
    tts = stack_and_decompose(samples, _svd_config(args, order))
    gram = build_gram(tts, spec)
    n = gram.values.shape[0]
    csv_text = dump_csv(
        [f"k{j}" for j in range(n)],
        [list(gram.values[i]) for i in range(n)],
    )
    emit(csv_text, args.output)
    sidecar = {
        "kernel": spec.to_dict(),
        "interior_ranks": list(tts[0].interior_ranks),
        "dims": list(samples[0].dims),
        "count": n,
        "seed": seed,
    }
    if args.output:
        base = args.output[:-4] if args.output.endswith(".csv") else args.output
        emit_json(sidecar, base + ".json")
    else:
        emit_json(sidecar)
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    ds, classes = _build_dataset(args, cfg)
    model = _train_model(ds, classes, cfg)
    meta = {
        "seed": cfg.seed,
        "classes": list(classes),
        "train_per_class": cfg.train_per_class,
        "val_per_class": cfg.val_per_class,
    }
    if args.output:
        _save_model(args.output, model, meta)
    report = {
        "seed": cfg.seed,
        "classes": list(classes),
        "model_path": args.output,
        "test": _test_metrics(model, ds),
    }
    if isinstance(model, OvoModel):
        report["models"] = {
            f"{a}-{b}": {
                "grid_point": m.grid_point,
                "validation_accuracy": m.validation_accuracy,
            }
            for (a, b), m in model.models.items()
        }
    else:
        report["grid_point"] = model.grid_point
        report["validation_accuracy"] = model.validation_accuracy
        if args.dump_solution:
            emit_json(
                {
                    "alphas": [float(abs(c)) for c in model.coef],
                    "bias": model.bias,
                    "objective": model.info["solver"]["objective"],
                    "seed": cfg.seed,
                },
                args.dump_solution,
            )
    emit_json(report, args.metrics)
    return 0


def cmd_grid(args) -> int:
    cfg = _load_run_config(args)
    ds, classes = _build_dataset(args, cfg)
    if len(classes) != 2:
        raise ValueError("grid reports are binary; give --pair a,b")
    model = _train_model(ds, classes, cfg)
    if args.output_model:
        _save_model(args.output_model, model, {"seed": cfg.seed})
    report = {
        "seed": cfg.seed,
        "classes": list(classes),
        "winner": {
            "grid_point": model.grid_point,
            "validation_accuracy": model.validation_accuracy,
        },
        "grid": model.info["grid"],
        "test": _test_metrics(model, ds),
    }
    emit_json(report, args.output)
    return 0


def cmd_rank_sweep(args) -> int:
    cfg = _load_run_config(args)
    ds, classes = _build_dataset(args, cfg)
    if len(classes) != 2:
        raise ValueError("rank-sweep is binary; give --pair a,b")
    rows = rank_sweep(ds, cfg.grid(len(ds.dims)))
    csv_text = dump_csv(
        ["ranks", "C", "sigma", "validation_accuracy", "test_accuracy", "support_count"],
        [
            [
                "x".join(str(r) for r in row["ranks"]),
                row["C"],
                row["sigma"] if row["sigma"] is not None else "",
                row["validation_accuracy"],
                row["test_accuracy"],
                row["support_count"],
            ]
            for row in rows
        ],
        comments=[f"seed={cfg.seed}", f"classes={classes[0]},{classes[1]}"],
    )
    emit(csv_text, args.output)
    return 0


def cmd_predict(args) -> int:
    seed, reshape = _flag(args, "--seed"), _flag(args, "--reshape")
    model = load_model(args.model)
    samples = load_samples(args.input, reshape=reshape or model.dims)
    if isinstance(model, OvoModel):
        out = {"labels": [int(v) for v in model.predict(samples)], "seed": seed}
    else:
        # one projection and one cross-Gram give both the values and the labels
        values = decision_function(model, samples)
        out = {"labels": [int(v) for v in class_labels(model, values)], "seed": seed,
               "decision_values": list(values)}
    emit_json(out, args.output)
    return 0


def cmd_evaluate(args) -> int:
    seed, reshape = _flag(args, "--seed"), _flag(args, "--reshape")
    model = load_model(args.model)
    if args.input:
        if args.labels is None:
            raise ValueError("--labels is required with --input")
        paths = args.input, args.labels
    else:
        cfg = _load_run_config(args)
        paths = cfg.test_images, cfg.test_labels
    samples, labels = _load_labeled(*paths, reshape or model.dims)
    if samples is None:
        raise ConfigError("need --input/--labels or test paths in the config")
    keep = np.isin(labels, list(model.classes))
    if not keep.any():
        raise ValueError(f"none of the {len(labels)} labels is one of the model's "
                         f"classes {list(model.classes)}")
    ds = Dataset(
        samples=[samples[i] for i in np.nonzero(keep)[0]],
        labels=np.asarray(labels)[keep],
        split=np.array(["test"] * int(np.sum(keep)), dtype=object),
    )
    metrics = evaluate(model, ds, split="test")
    out = dict(metrics.to_dict())
    out["seed"] = seed
    out["evaluated"] = int(np.sum(keep))
    out["skipped_other_classes"] = int(np.sum(~keep))
    emit_json(out, args.output)
    return 0


def cmd_bench(args) -> int:
    seed = _flag(args, "--seed")
    default = (2, 4, 8, 16) if args.sweep == "ranks" else (4,)
    ranks = _flag(args, "--ranks", _ints) if args.ranks else default
    if not ranks or min(ranks) < 1:
        raise ValueError(f"--ranks must name ranks of at least 1, got {args.ranks!r}")
    if args.pairs < 1:
        raise ValueError(f"--pairs must be at least 1, got {args.pairs}")
    if args.sweep == "ranks":
        result = {
            "mode": "fast-prod-ranks",
            "rows": bench_fast_prod_ranks(
                ranks=ranks, order=args.d, dim_size=args.dims, pairs=args.pairs, seed=seed or 0,
            ),
        }
    elif args.sweep == "orders":
        if args.d < 2:
            raise ValueError(f"--sweep orders sweeps orders 2..--d, got --d {args.d}")
        result = {
            "mode": "naive-orders",
            "rows": bench_naive_orders(
                orders=tuple(range(2, args.d + 1)),
                rank=ranks[0], dim_size=args.dims, pairs=args.pairs, seed=seed or 0,
            ),
        }
    else:
        result = {
            "mode": "compare",
            **bench_compare(
                order=args.d, dim_size=args.dims, rank=ranks[0],
                pairs=args.pairs, seed=seed or 0, combine=args.combine,
            ),
        }
    result["seed"] = seed
    emit_json(result, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttkm",
        description="Tensor-train kernel machines: decomposition, kernels, training.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--seed", default=None,
                       help="seed recorded in outputs and used for sampling")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        return p

    p = add("tt-svd", cmd_tt_svd, "decompose one tensor and report ranks/error")
    p.add_argument("--input", required=True, help="single-tensor .ttn file")
    p.add_argument("--eps", type=float, default=None, help="relative tolerance")
    p.add_argument("--ranks", default=None, help="interior ranks, e.g. 4 or 3,4")

    p = add("gram", cmd_gram, "Gram matrix as CSV plus a JSON sidecar")
    p.add_argument("--input", required=True, help="multi-sample .ttn or IDX images")
    p.add_argument("--kinds", required=True,
                   help="per-mode kernels, e.g. rbf,linear,poly:c=2,degree=3")
    p.add_argument("--sigma", type=float, default=None, help="bandwidth for bare rbf modes")
    p.add_argument("--combine", choices=COMBINE_RULES, default="prod")
    p.add_argument("--eps", type=float, default=None, help="relative tolerance")
    p.add_argument("--ranks", default=None, help="interior ranks, e.g. 4 or 3,4")
    p.add_argument("--reshape", default=None, help="per-sample dims, e.g. 4,7,4,7")

    def add_training(name, func, help_text):
        p = add(name, func, help_text)
        p.add_argument("--config", default=None, help="INI run configuration")
        p.add_argument("--pair", default=None, help="two class ids, e.g. 1,2")
        p.add_argument("--classes", default=None, help="class ids for one-vs-one")
        p.add_argument("--train-per-class", default=None, dest="train_per_class")
        p.add_argument("--val-per-class", default=None, dest="val_per_class")
        p.add_argument("--combine", default=None, help="prod or sum")
        p.add_argument("--ranks", default=None, help="rank settings, e.g. 2,3,4")
        p.add_argument("--kinds", default=None, help="per-mode kernel kinds")
        p.add_argument("--reshape", default=None, help="per-sample dims")
        return p

    p = add_training("train", cmd_train, "grid-search training; saves a model")
    p.add_argument("--metrics", default=None, help="metrics JSON path")
    p.add_argument("--dump-solution", default=None, dest="dump_solution",
                   help="write solver (alphas, bias, objective) JSON")

    p = add_training("grid", cmd_grid, "full grid report for one class pair")
    p.add_argument("--output-model", default=None, dest="output_model")

    add_training("rank-sweep", cmd_rank_sweep, "accuracy vs rank CSV table")

    p = add("predict", cmd_predict, "predict class ids for new samples")
    p.add_argument("--model", required=True, help=".ttkm model file")
    p.add_argument("--input", required=True, help="multi-sample .ttn or IDX images")
    p.add_argument("--reshape", default=None, help="per-sample dims")

    p = add("evaluate", cmd_evaluate, "metrics on labeled samples")
    p.add_argument("--model", required=True, help=".ttkm model file")
    p.add_argument("--input", default=None, help="multi-sample .ttn or IDX images")
    p.add_argument("--labels", default=None, help="IDX labels or JSON list")
    p.add_argument("--config", default=None, help="INI with test paths")
    p.add_argument("--reshape", default=None, help="per-sample dims")

    p = add("bench", cmd_bench, "time naive vs fast kernel evaluation")
    p.add_argument("--d", type=int, default=3, help="tensor order (--sweep orders: the largest)")
    p.add_argument("--dims", type=int, default=8, help="size of every mode")
    p.add_argument("--ranks", default=None, help="TT rank(s)")
    p.add_argument("--pairs", type=int, default=100, help="random pairs per timing")
    p.add_argument("--combine", choices=COMBINE_RULES, default="prod")
    p.add_argument("--sweep", choices=("compare", "ranks", "orders"), default="compare")

    return parser


_CATEGORIES = (
    (ConfigError, "config", 3),
    (FileNotFoundError, "missing-input", 4),
    (DataFormatError, "data-format", 5),
    (CapacityError, "capacity", 6),
    (ConvergenceError, "convergence", 7),
    (ValueError, "usage", 2),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles help (exit 0) and usage errors (exit 2) itself
        return int(exc.code) if exc.code is not None else 0
    if args.verbose:
        logging.basicConfig(level=logging.DEBUG)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single mapping point to exit codes
        for cls, category, code in _CATEGORIES:
            if isinstance(exc, cls):
                print(f"error:{category}: {exc}", file=sys.stderr)
                return code
        logger.exception("unexpected failure")
        print(f"error:unexpected: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
