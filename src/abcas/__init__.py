"""ABCAS: adaptive bound control of the discriminator's spectral norm.

A small numpy stack for spectrally normalized GAN training at desk
scale: power iteration, manually differentiated layers, the adaptive
multiplier controller, an alternating training loop, kernel-MMD
evaluation, synthetic datasets and a binary tensor file format.
"""

__version__ = "0.1.0"

from .controller import AbcasState, target_multiplier
from .data import DatasetSpec, generate_blobs, generate_ring2d, read_tensor_file, write_tensor_file
from .linalg import (
    PowerIterState,
    init_power_iter_state,
    power_iterate,
    power_iteration_step,
    reshape_conv_weight,
    spectral_norm_exact,
)
from .metrics import MetricsRecord, median_heuristic_bandwidth, mmd2_unbiased
from .nn import NetworkSpec, ParamStore, backward, forward
from .specnorm import backward_through_norm, normalized_weight, refresh
from .train import TrainConfig, d_loss, g_loss, run_training

__all__ = [
    "__version__",
    "AbcasState",
    "DatasetSpec",
    "MetricsRecord",
    "NetworkSpec",
    "ParamStore",
    "PowerIterState",
    "TrainConfig",
    "backward",
    "backward_through_norm",
    "d_loss",
    "forward",
    "g_loss",
    "generate_blobs",
    "generate_ring2d",
    "init_power_iter_state",
    "median_heuristic_bandwidth",
    "mmd2_unbiased",
    "normalized_weight",
    "power_iterate",
    "power_iteration_step",
    "read_tensor_file",
    "refresh",
    "reshape_conv_weight",
    "run_training",
    "spectral_norm_exact",
    "target_multiplier",
    "write_tensor_file",
]
