"""CERL: Continual Causal Effect Representation Learning (Sec. III).

The :class:`CERL` learner estimates treatment effects from observational data
that arrive sequentially from non-stationary domains, without keeping raw data
from previous domains.  Per Algorithm 1 of the paper:

* the **first** domain is handled by the baseline selective & balanced
  representation learner (Eq. 5); after training, a herded, budget-limited
  memory of feature representations (plus outcomes and treatments) is stored;
* every **subsequent** domain trains a new encoder ``g_{w_d}``, outcome heads
  ``h_{theta_d}`` and a feature transformation ``phi_{d-1->d}`` with the
  objective of Eq. (9):

  ``L = L_G + alpha * Wass(P, Q) + lambda * L_w + beta * L_FD + delta * L_FT``

  where ``L_G`` is the factual loss over transformed memory and new data
  (Eq. 8), ``L_FD`` the feature-representation distillation loss (Eq. 6) and
  ``L_FT`` the transformation alignment loss (Eq. 7).  The memory is then
  replaced by the herded union of the transformed old memory and the new
  representations.

Both stages run on the shared training engine (``repro.engine``): the Eq. (9)
terms are composed as a :class:`repro.engine.LossBundle` inside a batch-loss
closure, and :class:`repro.engine.Trainer` drives the epoch/minibatch loop
with :class:`~repro.engine.History` and :class:`~repro.engine.EarlyStopping`
callbacks.  There is no hand-rolled training loop in this module.

Ablation switches reproduce the paper's Table II variants: ``w/o FRT``
(``use_feature_transformation=False``), ``w/o herding``
(``memory_strategy="random"``) and ``w/o cosine norm``
(``use_cosine_norm=False`` in the model config).
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
from ..memory import MemoryBuffer
from ..metrics import EffectEstimate, evaluate_effect_estimate
from ..nn import Adam, Tensor, concatenate, cosine_distance_loss, mse_loss
from ..utils import Standardizer
from .baseline import BaselineCausalModel, make_lr_scheduler
from .config import ContinualConfig, ModelConfig
from .evaluation import evaluate_datasets
from .outcome import OutcomeHeads
from .representation import RepresentationNetwork
from .transform import FeatureTransform

__all__ = ["CERL"]


class CERL:
    """Continual causal-effect learner over incrementally available domains.

    Parameters
    ----------
    n_features:
        Covariate dimensionality (shared across domains).
    model_config:
        Hyper-parameters of the representation/outcome networks (Eq. 5 / 9).
    continual_config:
        Continual-learning hyper-parameters: distillation and transformation
        weights, memory budget and selection strategy, warm starting.
    """

    name = "CERL"

    def __init__(
        self,
        n_features: int,
        model_config: Optional[ModelConfig] = None,
        continual_config: Optional[ContinualConfig] = None,
    ) -> None:
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        self.n_features = n_features
        self.model_config = model_config if model_config is not None else ModelConfig()
        self.continual_config = (
            continual_config if continual_config is not None else ContinualConfig()
        )
        self._rng = np.random.default_rng(self.model_config.seed)
        self.encoder: Optional[RepresentationNetwork] = None
        self.heads: Optional[OutcomeHeads] = None
        self.memory: Optional[MemoryBuffer] = None
        self.outcome_scaler = Standardizer()
        self.domains_seen = 0
        self.histories: List[TrainingHistory] = []

    # ------------------------------------------------------------------ #
    # public protocol
    # ------------------------------------------------------------------ #
    def observe(
        self,
        dataset: CausalDataset,
        epochs: Optional[int] = None,
        val_dataset: Optional[CausalDataset] = None,
    ) -> TrainingHistory:
        """Train on the next available domain (Algorithm 1 dispatch)."""
        if self.domains_seen == 0:
            return self.fit_first(dataset, epochs=epochs, val_dataset=val_dataset)
        return self.fit_next(dataset, epochs=epochs, val_dataset=val_dataset)

    def fit_first(
        self,
        dataset: CausalDataset,
        epochs: Optional[int] = None,
        val_dataset: Optional[CausalDataset] = None,
    ) -> TrainingHistory:
        """Train the baseline model on the first domain and build the memory."""
        if self.domains_seen != 0:
            raise RuntimeError("fit_first can only be called on the first domain")
        baseline = BaselineCausalModel(self.n_features, self.model_config)
        history = baseline.fit(dataset, epochs=epochs, val_dataset=val_dataset)

        self.encoder = baseline.encoder
        self.heads = baseline.heads
        self.outcome_scaler = baseline.outcome_scaler
        representations = baseline.extract_representations(dataset.covariates)
        memory = MemoryBuffer(representations, dataset.outcomes, dataset.treatments)
        self.memory = memory.reduce(
            self.continual_config.memory_budget,
            strategy=self.continual_config.memory_strategy,
            rng=self._rng,
        )
        self.domains_seen = 1
        self.histories.append(history)
        return history

    def fit_next(
        self,
        dataset: CausalDataset,
        epochs: Optional[int] = None,
        val_dataset: Optional[CausalDataset] = None,
    ) -> TrainingHistory:
        """Train the continual model on the next domain (Eq. 9)."""
        if self.domains_seen == 0:
            raise RuntimeError("fit_next called before fit_first")
        self._validate_dataset(dataset)
        model_cfg = self.model_config
        cont_cfg = self.continual_config
        epochs = epochs if epochs is not None else model_cfg.epochs

        old_encoder = self.encoder
        assert old_encoder is not None and self.heads is not None

        new_encoder = self._build_new_encoder(dataset)
        new_heads = self._build_new_heads()
        transform = FeatureTransform(
            representation_dim=model_cfg.representation_dim,
            hidden_sizes=cont_cfg.transform_hidden,
            activation=model_cfg.activation,
            normalize_output=model_cfg.use_cosine_norm,
            rng=self._rng,
        )

        history = self._train_continual(
            dataset, old_encoder, new_encoder, new_heads, transform, epochs, val_dataset
        )

        # Memory update: M_d = herding({R_d, Y_d, T_d} ∪ phi(M_{d-1})).
        new_representations = new_encoder.representations(dataset.covariates)
        new_memory = MemoryBuffer(new_representations, dataset.outcomes, dataset.treatments)
        if cont_cfg.use_feature_transformation and self.memory is not None and len(self.memory):
            transformed_old = self.memory.with_representations(
                transform.transform_array(self.memory.representations)
            )
            new_memory = new_memory.merge(transformed_old)
        self.memory = new_memory.reduce(
            cont_cfg.memory_budget, strategy=cont_cfg.memory_strategy, rng=self._rng
        )

        self.encoder = new_encoder
        self.heads = new_heads
        self.domains_seen += 1
        self.histories.append(history)
        return history

    # ------------------------------------------------------------------ #
    # continual-stage internals
    # ------------------------------------------------------------------ #
    def _build_new_encoder(self, dataset: CausalDataset) -> RepresentationNetwork:
        model_cfg = self.model_config
        new_encoder = RepresentationNetwork(
            in_features=self.n_features,
            representation_dim=model_cfg.representation_dim,
            hidden_sizes=model_cfg.encoder_hidden,
            activation=model_cfg.activation,
            use_cosine_norm=model_cfg.use_cosine_norm,
            standardize=model_cfg.standardize_covariates,
            l1_ratio=model_cfg.elastic_net_l1_ratio,
            rng=self._rng,
        )
        if self.continual_config.warm_start_encoder and self.encoder is not None:
            new_encoder.load_state_dict(self.encoder.state_dict())
        new_encoder.fit_scaler(dataset.covariates)
        return new_encoder

    def _build_new_heads(self) -> OutcomeHeads:
        model_cfg = self.model_config
        new_heads = OutcomeHeads(
            representation_dim=model_cfg.representation_dim,
            hidden_sizes=model_cfg.outcome_hidden,
            activation=model_cfg.activation,
            rng=self._rng,
        )
        if self.continual_config.warm_start_encoder and self.heads is not None:
            new_heads.load_state_dict(self.heads.state_dict())
        return new_heads

    def _train_continual(
        self,
        dataset: CausalDataset,
        old_encoder: RepresentationNetwork,
        new_encoder: RepresentationNetwork,
        new_heads: OutcomeHeads,
        transform: FeatureTransform,
        epochs: int,
        val_dataset: Optional[CausalDataset] = None,
    ) -> TrainingHistory:
        """Assemble the Eq. (9) objective and hand the loop to the engine."""
        model_cfg = self.model_config
        cont_cfg = self.continual_config

        new_inputs = new_encoder.prepare_inputs(dataset.covariates)
        old_inputs = old_encoder.prepare_inputs(dataset.covariates)
        outcomes = self._scale_outcomes(dataset.outcomes)
        treatments = dataset.treatments

        memory_arrays = None
        if (
            cont_cfg.use_feature_transformation
            and self.memory is not None
            and len(self.memory) > 0
        ):
            memory_arrays = (
                self.memory.representations,
                self._scale_outcomes(self.memory.outcomes),
                self.memory.treatments,
            )

        parameters = new_encoder.parameters() + new_heads.parameters() + transform.parameters()
        optimizer = Adam(
            parameters, lr=model_cfg.learning_rate, weight_decay=model_cfg.weight_decay
        )
        old_encoder.eval()
        old_encoder.freeze()

        history = TrainingHistory()
        callbacks = [History(history)]
        validate = None
        if val_dataset is not None:
            callbacks.append(
                EarlyStopping(
                    [new_encoder, new_heads, transform],
                    patience=model_cfg.early_stopping_patience,
                    min_delta=model_cfg.early_stopping_min_delta,
                )
            )
            val_inputs = new_encoder.prepare_inputs(val_dataset.covariates)
            val_outcomes = self._scale_outcomes(val_dataset.outcomes)
            val_treatments = val_dataset.treatments

            # Per-epoch validation runs on the inference fast path: no
            # Tensor wrappers, no graph bookkeeping, reused workspaces.
            validate = mse_validator(
                lambda: new_heads.infer_factual(
                    new_encoder.infer(val_inputs), val_treatments
                ),
                val_outcomes,
            )

        def batch_loss(batch: np.ndarray) -> LossResult:
            new_batch_y = Tensor(outcomes[batch])
            new_batch_t = treatments[batch]
            representations_new = new_encoder.forward(Tensor(new_inputs[batch]))
            # Detached old-encoder representations from the inference fast path
            # (bitwise identical to the Tensor forward under no_grad, pinned by
            # tests); ``infer`` reuses its workspace, hence the copy.
            representations_old = Tensor(old_encoder.infer(old_inputs[batch]).copy())

            # Factual loss on new data (second term of Eq. 8).
            predictions_new = new_heads.factual(representations_new, new_batch_t)
            factual = mse_loss(predictions_new, new_batch_y)

            # Feature-representation distillation (Eq. 6).
            if cont_cfg.use_distillation and cont_cfg.beta > 0.0:
                distill = cosine_distance_loss(representations_old, representations_new)
            else:
                distill = Tensor(0.0)

            ipm_reps = representations_new
            ipm_treatments = new_batch_t

            transform_loss = Tensor(0.0)
            if memory_arrays is not None:
                memory_reps, memory_outcomes, memory_treatments = memory_arrays

                # Transformation alignment (Eq. 7): phi(g_old(x)) ≈ g_new(x).
                transformed_new = transform.forward(representations_old)
                target_new = Tensor(representations_new.numpy())
                transform_loss = cosine_distance_loss(transformed_new, target_new)

                # Factual loss on the transformed memory (first term of Eq. 8).
                memory_idx = self._rng.choice(
                    len(memory_reps),
                    size=min(cont_cfg.rehearsal_batch_size, len(memory_reps)),
                    replace=False,
                )
                memory_batch = transform.forward(Tensor(memory_reps[memory_idx]))
                predictions_memory = new_heads.factual(memory_batch, memory_treatments[memory_idx])
                factual = factual + mse_loss(
                    predictions_memory, Tensor(memory_outcomes[memory_idx])
                )

                # Global balancing over transformed-old ∪ new representations.
                ipm_reps = concatenate([memory_batch, representations_new], axis=0)
                ipm_treatments = np.concatenate([memory_treatments[memory_idx], new_batch_t])

            treated_idx = np.flatnonzero(ipm_treatments == 1)
            control_idx = np.flatnonzero(ipm_treatments == 0)
            if model_cfg.alpha > 0.0 and treated_idx.size > 1 and control_idx.size > 1:
                imbalance = ipm_distance(
                    ipm_reps[treated_idx],
                    ipm_reps[control_idx],
                    kind=model_cfg.ipm_kind,
                    epsilon=model_cfg.sinkhorn_epsilon,
                    num_iters=model_cfg.sinkhorn_iterations,
                )
            else:
                imbalance = Tensor(0.0)

            bundle = LossBundle()
            bundle.add("factual", factual)
            bundle.add("ipm", imbalance, weight=model_cfg.alpha)
            bundle.add(
                "regularization", new_encoder.elastic_net(), weight=model_cfg.lambda_reg
            )
            bundle.add("distillation", distill, weight=cont_cfg.beta)
            bundle.add("transformation", transform_loss, weight=cont_cfg.delta)
            return bundle.result()

        trainer = Trainer(
            parameters,
            optimizer,
            batch_size=model_cfg.batch_size,
            grad_clip=model_cfg.grad_clip,
            rng=self._rng,
            scheduler=make_lr_scheduler(model_cfg, optimizer, epochs),
            callbacks=callbacks,
        )
        trainer.fit(len(dataset), batch_loss, epochs=epochs, validate=validate)
        old_encoder.unfreeze()
        return history

    # ------------------------------------------------------------------ #
    # inference & evaluation
    # ------------------------------------------------------------------ #
    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        """Predict both potential outcomes for raw covariates using the current model.

        Runs on the no-graph inference fast path (raw ndarrays, reusable
        workspaces), bitwise identical to the Tensor forward under ``no_grad``.
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

    def evaluate(self, dataset: CausalDataset) -> Dict[str, float]:
        """Evaluate the current model on one dataset with known counterfactuals."""
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

        One concatenated forward (a single GEMM per layer) replaces the
        per-dataset passes; the metrics are split back per dataset and are
        numerically identical to calling :meth:`evaluate` on each.
        """
        self._check_fitted()
        return evaluate_datasets(self.predict, datasets)

    def evaluate_stream(self, test_sets: Sequence[CausalDataset]) -> List[Dict[str, float]]:
        """Evaluate the current model on each of the given test sets."""
        return self.evaluate_many(test_sets)

    @property
    def memory_size(self) -> int:
        """Number of stored feature representations."""
        return 0 if self.memory is None else len(self.memory)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _scale_outcomes(self, outcomes: np.ndarray) -> np.ndarray:
        if self.model_config.standardize_outcomes:
            return self.outcome_scaler.transform(outcomes)
        return np.asarray(outcomes, dtype=np.float64)

    def _unscale_outcomes(self, outcomes: np.ndarray) -> np.ndarray:
        if self.model_config.standardize_outcomes:
            return self.outcome_scaler.inverse_transform(outcomes)
        return outcomes

    def _validate_dataset(self, dataset: CausalDataset) -> None:
        if dataset.n_features != self.n_features:
            raise ValueError(
                f"dataset has {dataset.n_features} covariates, model expects {self.n_features}"
            )
        if dataset.n_treated == 0 or dataset.n_control == 0:
            raise ValueError("training data must contain both treated and control units")

    def _check_fitted(self) -> None:
        if self.domains_seen == 0 or self.encoder is None or self.heads is None:
            raise RuntimeError("CERL used before observing any domain")
