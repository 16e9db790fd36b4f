"""Shared training engine: one loop, callbacks and loss composition.

Layer stack (see ARCHITECTURE.md)::

    repro.nn  ->  repro.engine  ->  repro.core learners  ->  repro.experiments

The engine sits directly on the autograd substrate and knows nothing about
causal inference; the core learners express their objectives as
:class:`LossBundle` terms and run them through a :class:`Trainer`.
"""

from .history import TrainingHistory
from .loss import LossBundle, LossResult, TraceableLoss
from .callbacks import Callback, Checkpoint, EarlyStopping, History
from .trainer import Trainer, TrainerState, iterate
from .validation import mse_validator

__all__ = [
    "TrainingHistory",
    "LossBundle",
    "LossResult",
    "TraceableLoss",
    "Callback",
    "Checkpoint",
    "EarlyStopping",
    "History",
    "Trainer",
    "TrainerState",
    "iterate",
    "mse_validator",
]
