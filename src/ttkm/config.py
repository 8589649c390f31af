"""Run configuration: INI files describing data, splits, grid, and solver.

Sections and keys (all optional unless a command needs them)::

    [data]    train_images, train_labels, test_images, test_labels,
              reshape (comma ints of at least 1), normalize (bool)
    [split]   train_per_class, val_per_class (at least 1), seed (at least 0)
    [grid]    c_values, sigma_values (comma floats),
              rank_values (comma ints of at least 1, or AxBxC for
              per-position chains), combine (prod|sum)
    [kernel]  mode_kinds (comma of linear|poly|rbf), poly_c, poly_degree
    [solver]  tol, max_iter

The keys of [grid], [kernel] and [solver], and [data] normalize, set
``GridConfig`` fields: ``RunConfig.grid`` lays them over ``PAPER_GRID``,
and a field set nowhere keeps ``GridConfig``'s default.  Kernel kind
names are case-insensitive.

The scalar keys (train_per_class, val_per_class, seed, poly_c,
poly_degree, tol, max_iter) take exactly one value; ``seed = 1, 2`` is a
ConfigError, not seed 1.  An empty value leaves the default in place.
Numbers must be finite: ``nan`` or ``inf`` anywhere is a ConfigError.
A file that is not UTF-8 text, or cannot be read, is a ConfigError too;
a missing file stays a FileNotFoundError.

Sample/label files are dispatched on extension: ``.ttn`` for the binary
tensor container, ``.json`` for a plain list of labels, anything else is
parsed as IDX (with transparent ``.gz``).  A sample or label path that
exists but cannot be read is a DataFormatError, and so is a ``.json``
label file that is not a list of integers.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .errors import ConfigError, DataFormatError
from .idx import load_idx_images, load_idx_labels
from .kernels import COMBINE_RULES, KERNEL_KINDS
from .pipeline import GridConfig
from .tensor import DenseTensor
from .ttn import read_bytes, read_dataset

_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


# The search space of the paper's experiments: sigma and C in
# {1, 10, 100, 1000}, interior ranks 2 to 8.
PAPER_GRID = {
    "c_values": (1.0, 10.0, 100.0, 1000.0),
    "sigma_values": (1.0, 10.0, 100.0, 1000.0),
    "rank_values": (2, 3, 4, 5, 6, 7, 8),
}

_GRID_FIELDS = frozenset(f.name for f in fields(GridConfig))


@dataclass(frozen=True)
class RunConfig:
    """Where a run's data is, how it is split, and ``grid_keys``: the
    ``GridConfig`` fields that the INI file or a flag set."""

    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    reshape: tuple[int, ...] | None = None
    train_per_class: int = 50
    val_per_class: int = 50
    seed: int = 0
    grid_keys: dict = field(default_factory=dict)

    def grid(self, order: int) -> GridConfig:
        """The whole training run, for data of the given tensor order: the
        paper's grid over all-RBF modes, with ``grid_keys`` on top."""
        keys = {**PAPER_GRID, "mode_kinds": ("rbf",) * order, **self.grid_keys}
        kinds = keys["mode_kinds"]
        if len(kinds) != order:
            raise ConfigError(
                f"mode_kinds names {len(kinds)} modes but the data has order {order}"
            )
        try:
            return GridConfig(**keys)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _floats(text: str, key: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{key}: expected finite numbers, got {text!r}")
    return values


def _ints(text: str, key: str, low: int | None = None) -> tuple[int, ...]:
    vals = _floats(text, key)
    out = tuple(int(v) for v in vals)
    if any(o != v for o, v in zip(out, vals)):
        raise ConfigError(f"{key}: expected integers, got {text!r}")
    if low is not None and any(o < low for o in out):
        raise ConfigError(f"{key}: expected integers of at least {low}, got {text!r}")
    return out


def _ranks(text: str, key: str) -> tuple:
    out = []
    for part in text.replace(",", " ").split():
        if "x" in part:
            out.append(tuple(_ints(part.replace("x", " "), key, low=1)))
        else:
            out.append(_ints(part, key, low=1)[0])
    if not out:
        raise ConfigError(f"{key}: no rank settings in {text!r}")
    return tuple(out)


def _bool(text: str, key: str) -> bool:
    try:
        return _BOOL[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected a boolean, got {text!r}") from None


def _one(parse):
    """``parse`` for a scalar key: exactly one value, or ConfigError."""
    def one(text: str, key: str):
        values = parse(text, key)
        if len(values) != 1:
            raise ConfigError(f"{key}: expected exactly one value, got {text!r}")
        return values[0]
    return one


def _text(text: str, key: str) -> str:
    return text


def _combine(text: str, key: str) -> str:
    if text not in COMBINE_RULES:
        raise ConfigError(f"{key}: expected {' or '.join(COMBINE_RULES)}, got {text!r}")
    return text


def _kinds(text: str, key: str) -> tuple[str, ...]:
    kinds = tuple(p.strip().lower() for p in text.split(",") if p.strip())
    for kind in kinds:
        if kind not in KERNEL_KINDS:
            raise ConfigError(f"{key}: unknown kernel kind {kind!r}")
    return kinds


# section -> key -> (field, parser).  These are the accepted keys, parsed in
# this order; a GridConfig field goes into RunConfig.grid_keys.
_KEYS = {
    "data": {
        "train_images": ("train_images", _text),
        "train_labels": ("train_labels", _text),
        "test_images": ("test_images", _text),
        "test_labels": ("test_labels", _text),
        "reshape": ("reshape", partial(_ints, low=1)),
        "normalize": ("normalize", _bool),
    },
    "split": {
        "train_per_class": ("train_per_class", _one(partial(_ints, low=1))),
        "val_per_class": ("val_per_class", _one(partial(_ints, low=1))),
        "seed": ("seed", _one(partial(_ints, low=0))),
    },
    "grid": {
        "c_values": ("c_values", _floats),
        "sigma_values": ("sigma_values", _floats),
        "rank_values": ("rank_values", _ranks),
        "combine": ("combine", _combine),
    },
    "kernel": {
        "mode_kinds": ("mode_kinds", _kinds),
        "poly_c": ("poly_c", _one(_floats)),
        "poly_degree": ("poly_degree", _one(_ints)),
    },
    "solver": {
        "tol": ("solver_tol", _one(_floats)),
        "max_iter": ("solver_max_iter", _one(_ints)),
    },
}


def load_config(path) -> RunConfig:
    """Parse an INI file into a RunConfig; unknown keys are rejected."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise
    except (configparser.Error, UnicodeDecodeError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")

    kwargs, grid_keys = {}, {}
    for section, keys in _KEYS.items():
        for key, (name, parse) in keys.items():
            try:
                text = parser.get(section, key, fallback="").strip()
            except configparser.Error as exc:  # e.g. a bare '%' in a value
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc
            if text:
                (grid_keys if name in _GRID_FIELDS else kwargs)[name] = parse(text, key)

    reshape, kinds = kwargs.get("reshape"), grid_keys.get("mode_kinds")
    if reshape is not None and kinds is not None and len(reshape) != len(kinds):
        raise ConfigError(
            f"reshape has {len(reshape)} modes but mode_kinds names {len(kinds)}"
        )
    return RunConfig(**kwargs, grid_keys=grid_keys)


def load_samples(path, reshape=None):
    """Load tensor samples from a .ttn container or an IDX image file."""
    if str(path).endswith(".ttn"):
        samples = read_dataset(path)
        if reshape is not None and tuple(reshape) != samples[0].dims:
            samples = [DenseTensor.from_flat(reshape, s.to_flat()) for s in samples]
        return samples
    return load_idx_images(path, reshape=reshape)


def load_labels(path) -> np.ndarray:
    """Load labels from an IDX label file or a JSON list."""
    if str(path).endswith(".json"):
        try:
            labels = np.asarray(json.loads(read_bytes(path)), dtype=np.int64)
        except (ValueError, TypeError) as exc:  # not JSON, or not integers
            raise DataFormatError(f"{path}: not a JSON list of integer labels ({exc})") from exc
        if labels.ndim != 1:
            raise DataFormatError(f"{path}: not a JSON list of integer labels")
        return labels
    return load_idx_labels(path)
