"""Baseline causal-effect learning model (Sec. III-A.1).

This is the learner CERL uses for the *first* domain, and it also serves as
the CFR-style baseline that the three adaptation strategies (Sec. IV-B) are
built on.  It combines:

* the selective representation network ``g_w`` with elastic-net feature
  selection and cosine normalisation (:class:`RepresentationNetwork`),
* the Wasserstein IPM between treated and control representations (Eq. 3),
* the two-headed factual-outcome regression (Eq. 4),

trained jointly with the objective of Eq. (5):
``L = L_Y + alpha * Wass(P, Q) + lambda * L_w``.

Training runs entirely on the shared engine layer: the Eq. (5) objective is
expressed as a :class:`repro.engine.LossBundle` and driven by a
:class:`repro.engine.Trainer` with :class:`~repro.engine.History` and
:class:`~repro.engine.EarlyStopping` callbacks — the epoch/minibatch loop
itself lives in ``repro.engine``, not here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..balance import ipm_distance
from ..data.dataset import CausalDataset
from ..engine import (
    EarlyStopping,
    History,
    LossBundle,
    LossResult,
    Trainer,
    TrainingHistory,
    mse_validator,
)
from ..metrics import EffectEstimate, evaluate_effect_estimate
from ..nn import Adam, CosineAnnealingLR, StepLR, Tensor, mse_loss
from ..utils import Standardizer
from .config import ModelConfig
from .evaluation import evaluate_datasets
from .outcome import OutcomeHeads
from .representation import RepresentationNetwork

__all__ = ["BaselineCausalModel", "TrainingHistory", "EarlyStopping"]


def make_lr_scheduler(config: ModelConfig, optimizer, epochs: int):
    """Build the optional per-epoch LR schedule the Trainer advances.

    ``epochs`` is the *resolved* epoch budget of this fit call (callers may
    override ``config.epochs``), so the cosine schedule anneals over exactly
    the epochs that actually run.
    """
    if config.lr_schedule == "constant":
        return None
    if config.lr_schedule == "step":
        return StepLR(optimizer, step_size=config.lr_step_size, gamma=config.lr_gamma)
    if config.lr_schedule == "cosine":
        return CosineAnnealingLR(optimizer, total_steps=epochs)
    raise ValueError(f"unknown lr_schedule '{config.lr_schedule}'")


class BaselineCausalModel:
    """Selective & balanced representation learner for a single data source.

    Parameters
    ----------
    n_features:
        Covariate dimensionality.
    config:
        Model hyper-parameters (Eq. 5 weights, architecture, optimisation).
    """

    def __init__(self, n_features: int, config: Optional[ModelConfig] = None) -> None:
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        self.config = config if config is not None else ModelConfig()
        self.n_features = n_features
        rng = np.random.default_rng(self.config.seed)
        self.encoder = RepresentationNetwork(
            in_features=n_features,
            representation_dim=self.config.representation_dim,
            hidden_sizes=self.config.encoder_hidden,
            activation=self.config.activation,
            use_cosine_norm=self.config.use_cosine_norm,
            standardize=self.config.standardize_covariates,
            l1_ratio=self.config.elastic_net_l1_ratio,
            rng=rng,
        )
        self.heads = OutcomeHeads(
            representation_dim=self.config.representation_dim,
            hidden_sizes=self.config.outcome_hidden,
            activation=self.config.activation,
            rng=rng,
        )
        self.outcome_scaler = Standardizer()
        self.history = TrainingHistory()
        self._rng = rng
        self._fitted = False

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        dataset: CausalDataset,
        epochs: Optional[int] = None,
        val_dataset: Optional[CausalDataset] = None,
    ) -> TrainingHistory:
        """Train the model from scratch on ``dataset`` (objective of Eq. 5).

        When ``val_dataset`` is given, training stops once the validation
        factual loss stops improving and the best parameters are restored
        (disabled when ``early_stopping_patience`` is 0).
        """
        self._validate_dataset(dataset)
        self.encoder.fit_scaler(dataset.covariates)
        if self.config.standardize_outcomes:
            self.outcome_scaler.fit(dataset.outcomes)
        self._fitted = True
        return self._train(dataset, epochs=epochs, val_dataset=val_dataset)

    def fine_tune(
        self,
        dataset: CausalDataset,
        epochs: Optional[int] = None,
        val_dataset: Optional[CausalDataset] = None,
    ) -> TrainingHistory:
        """Continue training on new data only (adaptation strategy CFR-B).

        The covariate and outcome scalers fitted on the original data are
        kept, so the model is genuinely updated rather than re-initialised —
        which is exactly what exposes it to catastrophic forgetting.
        """
        if not self._fitted:
            raise RuntimeError("fine_tune called before fit")
        self._validate_dataset(dataset)
        return self._train(dataset, epochs=epochs, val_dataset=val_dataset)

    def _train(
        self,
        dataset: CausalDataset,
        epochs: Optional[int],
        val_dataset: Optional[CausalDataset] = None,
    ) -> TrainingHistory:
        """Assemble the Eq. (5) objective and hand the loop to the engine."""
        config = self.config
        epochs = epochs if epochs is not None else config.epochs
        inputs = self.encoder.prepare_inputs(dataset.covariates)
        outcomes = self._scale_outcomes(dataset.outcomes)
        treatments = dataset.treatments

        parameters = self.encoder.parameters() + self.heads.parameters()
        optimizer = Adam(parameters, lr=config.learning_rate, weight_decay=config.weight_decay)

        callbacks = [History(self.history)]
        validate = None
        if val_dataset is not None:
            callbacks.append(
                EarlyStopping(
                    [self.encoder, self.heads],
                    patience=config.early_stopping_patience,
                    min_delta=config.early_stopping_min_delta,
                )
            )
            validate = lambda: self.validation_loss(val_dataset)  # noqa: E731

        def batch_loss(batch: np.ndarray) -> LossResult:
            batch_treatments = treatments[batch]
            y = Tensor(outcomes[batch])
            representations = self.encoder.forward(Tensor(inputs[batch]))
            predictions = self.heads.factual(representations, batch_treatments)
            factual = mse_loss(predictions, y)

            treated_idx = np.flatnonzero(batch_treatments == 1)
            control_idx = np.flatnonzero(batch_treatments == 0)
            if config.alpha > 0.0 and treated_idx.size > 1 and control_idx.size > 1:
                imbalance = ipm_distance(
                    representations[treated_idx],
                    representations[control_idx],
                    kind=config.ipm_kind,
                    epsilon=config.sinkhorn_epsilon,
                    num_iters=config.sinkhorn_iterations,
                )
            else:
                imbalance = Tensor(0.0)

            bundle = LossBundle()
            bundle.add("factual", factual)
            bundle.add("ipm", imbalance, weight=config.alpha)
            bundle.add("regularization", self.encoder.elastic_net(), weight=config.lambda_reg)
            return bundle.result()

        trainer = Trainer(
            parameters,
            optimizer,
            batch_size=config.batch_size,
            grad_clip=config.grad_clip,
            rng=self._rng,
            scheduler=make_lr_scheduler(config, optimizer, epochs),
            callbacks=callbacks,
        )
        trainer.fit(len(dataset), batch_loss, epochs=epochs, validate=validate)
        return self.history

    def validation_loss(self, dataset: CausalDataset) -> float:
        """Factual mean squared error (on the standardised outcome scale)."""
        self._check_fitted()
        validate = mse_validator(
            lambda: self.heads.infer_factual(
                self.encoder.infer_representations(dataset.covariates), dataset.treatments
            ),
            self._scale_outcomes(dataset.outcomes),
        )
        return validate()

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        """Predict both potential outcomes for raw covariates.

        Runs entirely on the no-graph inference fast path: representations
        and head outputs are computed on raw ndarrays with reusable
        workspaces, bitwise identical to the Tensor forward under ``no_grad``.
        """
        self._check_fitted()
        representations = self.encoder.infer_representations(covariates)
        y0, y1 = self.heads.infer_potential_outcomes(representations)
        return EffectEstimate(
            y0_hat=self._unscale_outcomes(y0), y1_hat=self._unscale_outcomes(y1)
        )

    def predict_ite(self, covariates: np.ndarray) -> np.ndarray:
        """Canonical ITE point estimate (``predict(x).ite_hat``)."""
        return self.predict(covariates).ite_hat

    def extract_representations(self, covariates: np.ndarray) -> np.ndarray:
        """Return the learned representations ``g_w(x)`` of raw covariates."""
        self._check_fitted()
        return self.encoder.representations(covariates)

    def evaluate(self, dataset: CausalDataset) -> Dict[str, float]:
        """Evaluate sqrt(PEHE), ATE error and factual RMSE on a dataset."""
        self._check_fitted()
        if not dataset.has_counterfactuals:
            raise ValueError("evaluation requires a dataset with true potential outcomes")
        estimate = self.predict(dataset.covariates)
        return evaluate_effect_estimate(
            estimate,
            dataset.true_ite,
            treatments=dataset.treatments,
            factual_outcomes=dataset.outcomes,
        )

    def evaluate_many(self, datasets: Sequence[CausalDataset]) -> List[Dict[str, float]]:
        """Evaluate several datasets with one batched forward pass.

        Covariates are concatenated into a single matrix, predicted in one
        forward (one GEMM per layer instead of one per dataset), and the
        metrics are split back per dataset — numerically identical to calling
        :meth:`evaluate` per dataset, but much faster for the seen-test-sets
        sweeps of the stream protocol.
        """
        self._check_fitted()
        return evaluate_datasets(self.predict, datasets)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _scale_outcomes(self, outcomes: np.ndarray) -> np.ndarray:
        if self.config.standardize_outcomes:
            return self.outcome_scaler.transform(outcomes)
        return np.asarray(outcomes, dtype=np.float64)

    def _unscale_outcomes(self, outcomes: np.ndarray) -> np.ndarray:
        if self.config.standardize_outcomes:
            return self.outcome_scaler.inverse_transform(outcomes)
        return outcomes

    def _validate_dataset(self, dataset: CausalDataset) -> None:
        if dataset.n_features != self.n_features:
            raise ValueError(
                f"dataset has {dataset.n_features} covariates, model expects {self.n_features}"
            )
        if len(dataset) < 4:
            raise ValueError("dataset too small to train on")
        if dataset.n_treated == 0 or dataset.n_control == 0:
            raise ValueError("training data must contain both treated and control units")

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("model used before fit()")
