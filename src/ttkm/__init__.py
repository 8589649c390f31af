"""Tensor-train kernel machines.

Classify tensor-shaped samples by decomposing them into tensor trains,
evaluating per-mode kernels combined across modes in polynomial cost,
and training a soft-margin SVM on the resulting Gram matrix.
"""

import logging

from .bench import bench_compare, bench_fast_prod_ranks, bench_naive_orders
from .config import RunConfig, load_config, load_labels, load_samples
from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    DataFormatError,
    TtkmError,
)
from .idx import load_idx_images, load_idx_labels, load_idx_pair
from .kernels import (
    GramMatrix,
    KernelSpec,
    LinearKernel,
    PolynomialKernel,
    RbfKernel,
    build_gram,
    cross_gram,
    parse_kernel,
    tt_kernel,
    tt_kernel_naive,
    tt_kernel_prod_fast,
    tt_kernel_sum_fast,
)
from .model_store import load_model, save_model
from .pipeline import (
    Dataset,
    GridConfig,
    Metrics,
    OvoModel,
    SvmModel,
    compute_metrics,
    decision_function,
    evaluate,
    make_pair_dataset,
    predict,
    rank_sweep,
    train_binary,
    train_multiclass_ovo,
)
from .solver import (
    DualProblem,
    DualSolution,
    KktReport,
    brute_force_dual,
    kkt_report,
    solve_dual,
)
from .tensor import (
    DenseTensor,
    StackedSamples,
    TensorTrain,
    TtSvdConfig,
    random_tensor_train,
    reconstruct,
    stack_and_decompose,
    tt_inner_product,
    tt_svd,
    unfold,
)
from .ttn import read_dataset, read_tensor, write_dataset, write_tensor

__version__ = "0.1.0"

# A library logs; it does not print.  Without a handler of its own, logging's
# last-resort handler would write every warning (an unconverged solve, say)
# to stderr, where the CLI promises one line per failure.  ``ttkm --verbose``
# installs a root handler, which still shows them.
logging.getLogger("ttkm").addHandler(logging.NullHandler())

__all__ = [
    "CapacityError",
    "ConfigError",
    "ConvergenceError",
    "DataFormatError",
    "Dataset",
    "DenseTensor",
    "DualProblem",
    "DualSolution",
    "GramMatrix",
    "GridConfig",
    "KernelSpec",
    "KktReport",
    "LinearKernel",
    "Metrics",
    "OvoModel",
    "PolynomialKernel",
    "RbfKernel",
    "RunConfig",
    "StackedSamples",
    "SvmModel",
    "TensorTrain",
    "TtSvdConfig",
    "TtkmError",
    "bench_compare",
    "bench_fast_prod_ranks",
    "bench_naive_orders",
    "brute_force_dual",
    "build_gram",
    "compute_metrics",
    "cross_gram",
    "decision_function",
    "evaluate",
    "kkt_report",
    "load_config",
    "load_idx_images",
    "load_idx_labels",
    "load_idx_pair",
    "load_labels",
    "load_model",
    "load_samples",
    "make_pair_dataset",
    "parse_kernel",
    "predict",
    "random_tensor_train",
    "rank_sweep",
    "read_dataset",
    "read_tensor",
    "reconstruct",
    "save_model",
    "solve_dual",
    "stack_and_decompose",
    "train_binary",
    "train_multiclass_ovo",
    "tt_inner_product",
    "tt_kernel",
    "tt_kernel_naive",
    "tt_kernel_prod_fast",
    "tt_kernel_sum_fast",
    "tt_svd",
    "unfold",
    "write_dataset",
    "write_tensor",
]
