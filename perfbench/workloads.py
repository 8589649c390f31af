"""The benchmark's workloads: data sizes, search grids, request shapes.

Why each workload exists, and which layer it should stress:

* ``pair-rbf-prod`` is the paper's headline setting: a binary pair with
  all-RBF ``prod`` kernels over a rank x sigma x C grid.  ``kernels``
  (``build_gram`` and ``cross_gram``) does about three quarters of the
  training and ``solver`` most of the rest; the two rank settings also
  expose the winner refit (3 decompositions for 2 ranks).
* ``predict-stream`` serves a model trained in set-up at one grid point.
  One client sends 16-sample requests in a closed loop; each mirrors
  ``ttkm predict`` (``load_model``, ``read_dataset``, ``predict``).  Only
  the rectangular ``cross_gram`` and the first-core projection matter
  here; once the Gram is batched, ``model_store`` and ``ttn`` show too.

The training workloads also serve single-sample requests from their own
trained model, so every workload reports predict latency.  Test accuracy
below a workload's floor fails the run; each floor sits about four
standard deviations of the test draw below the accuracy measured here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

MIN_REQUESTS = 100  # p90 then has at least ten samples beyond it
# A run is this many rounds of set-up, training and requests, so set-up,
# training and request times are spread over the whole run.  The 2-core
# machine the benchmark was tuned on ran about 40% slower for stretches of
# up to half a minute: one 17-second training per run varied from 13.3 to
# 19.4 s over nine runs of identical work.  Trainings are sized to fit six
# to a run.
ROUNDS = 6
# The training and validation splits are one fixed draw; --seed draws the
# test split and with it the requests.  Independent training draws for
# pair-rbf-prod (five seeds) gave grid-searched models of 11 to 33 support
# vectors, moving predict latency by up to 4x and training time by a third,
# far outside any bound the benchmark could hold.
CORPUS_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    train_per_class: int
    val_per_class: int
    test_per_class: int
    grid: dict  # GridConfig keyword arguments
    request_size: int  # samples per predict request
    request_files: int  # distinct request files, cycled through
    accuracy_floor: float  # test accuracy below this fails the run
    train_in_setup: bool = False  # model is trained once, in set-up


RBF4 = ("rbf",) * 4

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pair-rbf-prod",
            train_per_class=30, val_per_class=20, test_per_class=200,
            grid=dict(rank_values=(2, 4), sigma_values=(1.0, 10.0, 100.0, 1000.0),
                      c_values=(1.0, 10.0, 100.0, 1000.0), mode_kinds=RBF4,
                      combine="prod"),
            request_size=1, request_files=25, accuracy_floor=0.65,
        ),
        Workload(
            name="predict-stream",
            train_per_class=60, val_per_class=40, test_per_class=128,
            grid=dict(rank_values=(4,), sigma_values=(1.0,), c_values=(100.0,),
                      mode_kinds=RBF4, combine="prod"),
            request_size=16, request_files=16, accuracy_floor=0.7,
            train_in_setup=True,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """A few samples per split: checks the harness, not the model."""
    return dataclasses.replace(
        w, train_per_class=6, val_per_class=4,
        test_per_class=max(4, w.request_size), request_files=2,
        accuracy_floor=0.0,
    )
