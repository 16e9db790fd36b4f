"""Configuration objects for the baseline and continual causal-effect models."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal, Tuple

__all__ = ["ModelConfig", "ContinualConfig"]

IPMKind = Literal["wasserstein", "mmd_linear", "mmd_rbf"]
MemoryStrategy = Literal["herding", "random"]
LRSchedule = Literal["constant", "step", "cosine"]


@dataclass
class ModelConfig:
    """Hyper-parameters of the selective & balanced representation learner.

    The names mirror the paper's objective (Eq. 5): ``alpha`` weights the IPM
    term, ``lambda_reg`` the elastic-net term.  When a validation dataset is
    passed to ``fit``/``observe``, training stops early once the validation
    factual loss has not improved by ``early_stopping_min_delta`` for
    ``early_stopping_patience`` epochs, and the best parameters are restored;
    ``early_stopping_patience=0`` disables early stopping entirely.

    ``lr_schedule`` selects the per-epoch learning-rate schedule advanced by
    the training engine: ``"constant"`` (default), ``"step"`` (decay by
    ``lr_gamma`` every ``lr_step_size`` epochs) or ``"cosine"`` (anneal to 0
    over the epoch budget).
    """

    representation_dim: int = 32
    encoder_hidden: Tuple[int, ...] = (64,)
    outcome_hidden: Tuple[int, ...] = (32,)
    activation: str = "elu"
    use_cosine_norm: bool = True
    alpha: float = 1.0
    lambda_reg: float = 1e-4
    elastic_net_l1_ratio: float = 0.5
    ipm_kind: IPMKind = "wasserstein"
    sinkhorn_epsilon: float = 0.1
    sinkhorn_iterations: int = 20
    learning_rate: float = 1e-2
    weight_decay: float = 1e-3
    batch_size: int = 128
    epochs: int = 60
    grad_clip: float = 5.0
    early_stopping_patience: int = 10
    early_stopping_min_delta: float = 1e-4
    lr_schedule: LRSchedule = "constant"
    lr_step_size: int = 20
    lr_gamma: float = 0.5
    standardize_covariates: bool = True
    standardize_outcomes: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.representation_dim <= 0:
            raise ValueError("representation_dim must be positive")
        if self.alpha < 0 or self.lambda_reg < 0:
            raise ValueError("alpha and lambda_reg must be non-negative")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.early_stopping_patience < 0:
            raise ValueError(
                "early_stopping_patience must be non-negative (0 disables early stopping)"
            )
        if self.lr_schedule not in ("constant", "step", "cosine"):
            raise ValueError(f"unknown lr_schedule '{self.lr_schedule}'")
        if self.lr_step_size <= 0:
            raise ValueError("lr_step_size must be positive")
        if self.lr_gamma <= 0:
            raise ValueError("lr_gamma must be positive")
        self.encoder_hidden = tuple(self.encoder_hidden)
        self.outcome_hidden = tuple(self.outcome_hidden)

    def with_updates(self, **kwargs) -> "ModelConfig":
        """Return a copy of the config with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass
class ContinualConfig:
    """Hyper-parameters specific to the continual stages of CERL (Eq. 9).

    ``beta`` weights the feature-representation distillation loss (Eq. 6,
    set to 1 in the paper), ``delta`` the feature-transformation loss (Eq. 7).
    ``memory_budget`` is the maximum number of stored feature representations
    (denoted M in the paper's experiments).
    """

    beta: float = 1.0
    delta: float = 1.0
    memory_budget: int = 500
    memory_strategy: MemoryStrategy = "herding"
    transform_hidden: Tuple[int, ...] = (64,)
    use_feature_transformation: bool = True
    use_distillation: bool = True
    warm_start_encoder: bool = True
    rehearsal_batch_size: int = 64

    def __post_init__(self) -> None:
        if self.beta < 0 or self.delta < 0:
            raise ValueError("beta and delta must be non-negative")
        if self.memory_budget <= 0:
            raise ValueError("memory_budget must be positive")
        if self.rehearsal_batch_size <= 0:
            raise ValueError("rehearsal_batch_size must be positive")
        self.transform_hidden = tuple(self.transform_hidden)

    def with_updates(self, **kwargs) -> "ContinualConfig":
        """Return a copy of the config with selected fields replaced."""
        return replace(self, **kwargs)
