"""NumPy-based neural-network substrate (autograd, layers, optimisers, losses).

The CERL paper builds on PyTorch; this subpackage provides the minimal
equivalent stack implemented from scratch so the reproduction has no deep
learning framework dependency.
"""

from .tensor import Tensor, no_grad, is_grad_enabled, concatenate, stack
from .infer import Workspace
from .module import Module, Parameter
from .layers import (
    Linear,
    CosineNormLinear,
    ReLU,
    ELU,
    Tanh,
    Sigmoid,
    Identity,
    Dropout,
    Sequential,
    MLP,
    make_activation,
)
from .optim import Optimizer, SGD, Adam, StepLR, CosineAnnealingLR, clip_grad_norm
from .losses import (
    mse_loss,
    mae_loss,
    binary_cross_entropy,
    elastic_net_penalty,
    cosine_similarity,
    cosine_distance_loss,
)
from . import init

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "Workspace",
    "Module",
    "Parameter",
    "Linear",
    "CosineNormLinear",
    "ReLU",
    "ELU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Dropout",
    "Sequential",
    "MLP",
    "make_activation",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "CosineAnnealingLR",
    "clip_grad_norm",
    "mse_loss",
    "mae_loss",
    "binary_cross_entropy",
    "elastic_net_penalty",
    "cosine_similarity",
    "cosine_distance_loss",
    "init",
]
