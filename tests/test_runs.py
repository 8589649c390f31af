"""Whole tiny runs drawn at random: train, save, load, decide.

Each example draws a dataset (order 1-4, dims 1-4, 1-5 train and 1-3
validation samples per class, at scale 1e-3, 1 or 30) and a run (a kernel
kind per mode, ``prod`` or ``sum``, ``normalize`` on or off, ranks 1-3),
trains it with ``train_binary`` (two classes) or ``train_multiclass_ovo``
(three), saves and loads the model, and checks exact invariants only:

- only ``ConvergenceError`` or ``CapacityError`` escapes;
- a loaded binary model gives bitwise the trained model's decision values;
- each pair of a loaded one-vs-one model gives bitwise the decision values
  of ``train_binary`` on that pair.

No bound against ``tt_kernel_naive`` is checked: at scale 30 the engine's
RBF entries (from |x|^2 + |y|^2 - 2 x.y) differ from the oracle's by up to
~1e-11 relative, which a cancelling decision sum can magnify past any
n * eps bound.
"""

import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkm.errors import CapacityError, ConvergenceError
from ttkm.model_store import load_model, save_model
from ttkm.pipeline import (
    Dataset,
    GridConfig,
    decision_function,
    train_binary,
    train_multiclass_ovo,
)
from ttkm.tensor import DenseTensor

RUNS = settings(max_examples=60, derandomize=True, database=None,
                deadline=timedelta(seconds=5))

DIMS = st.lists(st.integers(1, 4), min_size=1, max_size=4)
KINDS = st.sampled_from(("linear", "poly", "rbf"))


@st.composite
def tiny_runs(draw):
    dims = tuple(draw(DIMS))
    grid = GridConfig(
        c_values=(1.0, 10.0),
        sigma_values=(1.0,),
        rank_values=(draw(st.integers(1, 3)),),
        mode_kinds=tuple(draw(KINDS) for _ in dims),
        combine=draw(st.sampled_from(("prod", "sum"))),
        normalize=draw(st.booleans()),
    )
    classes = (0, 1, 2)[:draw(st.integers(2, 3))]
    counts = {c: (draw(st.integers(1, 5)), draw(st.integers(1, 3))) for c in classes}
    scale = draw(st.sampled_from((1e-3, 1.0, 30.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples, labels, split = [], [], []
    for c in classes:
        center = rng.standard_normal(dims)
        for name, n in zip(("train", "validation"), counts[c]):
            for _ in range(n):
                samples.append(DenseTensor(scale * (center + 0.5 * rng.standard_normal(dims))))
                labels.append(c)
                split.append(name)
    return Dataset(samples=samples, labels=labels, split=split), grid


def reloaded(model):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.ttkm"
        save_model(path, model)
        return load_model(path)


@RUNS
@given(tiny_runs())
def test_tiny_runs_train_save_load_and_decide(run):
    ds, grid = run
    samples = ds.samples
    try:
        if len(ds.classes) == 2:
            model = train_binary(ds, grid)
            want = decision_function(model, samples)
            assert np.array_equal(decision_function(reloaded(model), samples), want)
        else:
            loaded = reloaded(train_multiclass_ovo(ds, grid))
            assert sorted(loaded.models) == [(0, 1), (0, 2), (1, 2)]
            for pair, pair_model in loaded.models.items():
                want = decision_function(train_binary(ds.restrict_classes(pair), grid), samples)
                assert np.array_equal(decision_function(pair_model, samples), want)
    except (ConvergenceError, CapacityError):
        pass  # documented failures of a run; anything else fails the test
