"""Loss functions and regularisers used by the CERL objectives.

The paper's objectives combine:

* factual-outcome mean squared error (Eq. 4 and Eq. 8),
* elastic-net regularisation of the first representation layer (Eq. 1),
* cosine-distance feature-representation distillation (Eq. 6),
* cosine-distance feature-transformation alignment (Eq. 7),
* an integral probability metric between treated and control representation
  distributions (Eq. 3) — implemented in :mod:`repro.balance`.
"""

from __future__ import annotations

from typing import Iterable

from .module import Parameter
from .tensor import Tensor

__all__ = [
    "mse_loss",
    "mae_loss",
    "binary_cross_entropy",
    "elastic_net_penalty",
    "cosine_similarity",
    "cosine_distance_loss",
]


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between predictions and targets."""
    diff = prediction - target
    return (diff * diff).mean()


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error between predictions and targets."""
    return (prediction - target).abs().mean()


def binary_cross_entropy(prediction: Tensor, target: Tensor, eps: float = 1e-7) -> Tensor:
    """Binary cross-entropy on probabilities in ``(0, 1)``.

    Used by the optional propensity head and by tests of the substrate; the
    predictions are clipped away from {0, 1} for numerical stability.
    """
    clipped = prediction.clip(eps, 1.0 - eps)
    loss = -(target * clipped.log() + (1.0 - target) * (1.0 - clipped).log())
    return loss.mean()


def elastic_net_penalty(parameters: Iterable[Parameter | Tensor], l1_ratio: float = 0.5) -> Tensor:
    """Elastic-net penalty over the given parameters (Eq. 1).

    The paper applies ``||w||_2^2 + ||w||_1`` to the representation layers so
    that irrelevant covariates receive small weights (deep feature selection).
    ``l1_ratio`` interpolates between pure ridge (0) and pure lasso (1); the
    paper's formulation corresponds to equal weighting, i.e. ``l1_ratio=0.5``
    with an overall scale of 2, which only rescales the hyper-parameter λ.
    """
    if not 0.0 <= l1_ratio <= 1.0:
        raise ValueError("l1_ratio must lie in [0, 1]")
    params = list(parameters)
    if not params:
        raise ValueError("elastic_net_penalty received no parameters")
    total: Tensor | None = None
    for param in params:
        l2 = (param * param).sum()
        l1 = param.abs().sum()
        term = (1.0 - l1_ratio) * l2 + l1_ratio * l1
        total = term if total is None else total + term
    assert total is not None
    return total


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Row-wise cosine similarity between two ``(n, d)`` tensors."""
    dot = (a * b).sum(axis=1)
    norms = a.norm(axis=1, eps=eps) * b.norm(axis=1, eps=eps)
    return dot / norms


def cosine_distance_loss(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Mean cosine distance ``1 - cos(a_i, b_i)`` over rows (Eq. 6 and Eq. 7).

    Because representations are cosine-normalised, this equals half of the
    squared Euclidean distance between unit-norm vectors, which is the
    justification the paper gives for the distillation loss form.
    """
    return (1.0 - cosine_similarity(a, b, eps=eps)).mean()
