"""Criticality diagnostics and automatic initialization tuning.

A numpy library for measuring block-to-block average partial Jacobian
norms of feedforward networks, tuning per-layer auxiliary scalars until
every norm sits at 1, and checking both against closed-form wide-network
oracles. See the README for a tour and ``demos/`` for worked examples.
"""

from .apjn import (
    ApjnPair,
    ApjnReport,
    ResourceBudgetError,
    apjn_profile,
    estimate_apjn,
    exact_apjn,
    factorization_residual,
)
from .blocks import (
    AuxScalars,
    BatchActivations,
    BlockSpec,
    NetworkSpec,
    activation,
    affine_norm,
    avg_pool,
    batchnorm,
    conv2d,
    dense,
    flatten_block,
    forward,
    gelu,
    init_params,
    layer_scale,
    normalize_unit_second_moment,
    patch_embed,
    residual_close,
    residual_open,
    run_network,
    scale_params,
    scale_spec_sigmas,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
)
from .data import FormatError, gaussian_batch, load_cifar10, make_batch
from .losses import LossValue, jkl, jll, jsl, kernel_profile
from .meanfield import (
    ActivationStats,
    MeanFieldState,
    SingularKernelError,
    bn_apjn_limit,
    bn_chaos_value,
    bn_kernel_at_depth,
    chi,
    gauss_expect,
    kernel_fixed_point,
    nngp_step,
    relu_dynamics,
    resmlp_apjn,
    resmlp_kernel_step,
)
from .presets import (
    conv_bn_relu_stack,
    linear_mlp,
    mlp,
    prebn_residual_mlp,
    relu_mlp,
    resmlp_toy,
)
from .tensor import RngStream
from .tuner import (
    DivergenceError,
    TuneConfig,
    TuneResult,
    TuneTrace,
    eta_bound,
    eta_one_step,
    eta_zero,
    grad_aux,
    tune,
)

__version__ = "0.1.0"
