"""The shared training engine: one minibatch/epoch loop for every learner.

Before this layer existed, ``BaselineCausalModel``, the CERL continual stage
and each adaptation strategy hand-rolled the same epoch loop (shuffled
minibatches, backward pass, gradient clipping, optimiser step, component
averaging, validation, early stopping).  :class:`Trainer` owns that loop once:
learners supply a batch-loss closure returning a
:class:`~repro.engine.loss.LossResult` (usually built with a
:class:`~repro.engine.loss.LossBundle`) and compose behaviour through
:class:`~repro.engine.callbacks.Callback` objects.

The loop is deliberately structured to be numerically indistinguishable from
the seed learners' hand-written versions: batches come from the same
``minibatches`` iterator driven by the learner's RNG, component averages are
accumulated in the same order, and validation/early-stopping run after the
history update exactly as before.  The parity test suite pins this down
against pre-refactor metric values.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import minibatches
from ..nn import Optimizer, clip_grad_norm
from .callbacks import Callback
from .loss import LossResult

__all__ = ["Trainer", "TrainerState", "iterate"]

BatchLossFn = Callable[[np.ndarray], LossResult]
ValidateFn = Callable[[], float]


class TrainerState:
    """Mutable snapshot of the loop that callbacks observe and steer."""

    def __init__(self) -> None:
        self.epoch: int = -1
        self.logs: Dict[str, float] = {}
        self.validation_loss: Optional[float] = None
        self.stop_training: bool = False


def iterate(
    step: Callable[[int], float],
    max_iterations: int,
    tol: Optional[float] = None,
) -> int:
    """Drive a fixed-point/Newton-style solver until convergence.

    Calls ``step(iteration)`` up to ``max_iterations`` times; when ``tol`` is
    given, stops as soon as the returned update magnitude drops below it.
    Returns the number of iterations performed.  This is the engine's
    full-batch counterpart to the epoch loop, used by the closed-form learners
    in :mod:`repro.core.classic`.
    """
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    performed = 0
    for iteration in range(max_iterations):
        delta = step(iteration)
        performed = iteration + 1
        if tol is not None and delta < tol:
            break
    return performed


class Trainer:
    """Epoch/minibatch training loop with callbacks and LR scheduling hooks.

    Parameters
    ----------
    parameters:
        Flat list of trainable parameters (used for gradient clipping).
    optimizer:
        Any :class:`repro.nn.Optimizer` over the same parameters.
    batch_size:
        Minibatch size; batches are drawn with the learner-supplied ``rng``
        so training trajectories are reproducible.
    grad_clip:
        Global gradient-norm clip; ``0`` disables clipping.
    rng:
        Generator driving the minibatch shuffling.  Defaults to a fresh
        deterministic generator so engine-driven training is reproducible even
        when a learner forgets to pass one.
    scheduler:
        Optional learning-rate schedule with a ``step()`` method (e.g.
        :class:`repro.nn.StepLR`), advanced once per epoch.
    callbacks:
        :class:`Callback` objects invoked in order at every hook.
    """

    # Exposed so callers can route convergence-style fitting "through the
    # Trainer" without instantiating one (see repro.core.classic).
    converge = staticmethod(iterate)

    def __init__(
        self,
        parameters: Sequence,
        optimizer: Optimizer,
        *,
        batch_size: int,
        grad_clip: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        scheduler: Optional[object] = None,
        callbacks: Sequence[Callback] = (),
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.parameters = list(parameters)
        self.optimizer = optimizer
        self.batch_size = batch_size
        self.grad_clip = grad_clip
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.scheduler = scheduler
        self.callbacks: List[Callback] = list(callbacks)
        self.state = TrainerState()

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def fit(
        self,
        n_units: int,
        batch_loss: BatchLossFn,
        epochs: int,
        validate: Optional[ValidateFn] = None,
    ) -> TrainerState:
        """Run ``epochs`` epochs of minibatch optimisation.

        ``batch_loss`` receives the index array of one minibatch and returns
        the evaluated :class:`LossResult`; ``validate`` (when given) is called
        once per epoch after the minibatch sweep and its value exposed to
        callbacks via ``state.validation_loss``.
        """
        if n_units <= 0:
            raise ValueError("n_units must be positive")
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        state = self.state = TrainerState()
        self._dispatch("on_train_begin", state)
        for epoch in range(epochs):
            state.epoch = epoch
            self._dispatch("on_epoch_begin", state)
            sums: Dict[str, float] = {}
            n_batches = 0
            for batch in minibatches(n_units, self.batch_size, rng=self.rng):
                result = batch_loss(batch)
                self.optimizer.zero_grad()
                result.total.backward()
                clip_grad_norm(self.parameters, self.grad_clip)
                self.optimizer.step()
                for name, value in result.components.items():
                    sums[name] = sums.get(name, 0.0) + value
                n_batches += 1
            state.logs = {name: value / n_batches for name, value in sums.items()}
            state.validation_loss = validate() if validate is not None else None
            self._dispatch("on_epoch_end", state)
            if self.scheduler is not None:
                self.scheduler.step()
            if state.stop_training:
                break
        self._dispatch("on_train_end", state)
        return state

    def _dispatch(self, hook: str, state: TrainerState) -> None:
        for callback in self.callbacks:
            getattr(callback, hook)(state)
