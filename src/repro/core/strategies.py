"""Adaptation strategies for traditional causal-effect models (Sec. IV-B).

The paper compares CERL against three ways of adapting a CFR-style estimator
to incrementally available data:

* **CFR-A** — train on the original data and apply the frozen model to every
  later domain.  Fails on new domains under shift.
* **CFR-B** — fine-tune the previously trained model on the newly available
  data only.  Suffers catastrophic forgetting on previous domains.
* **CFR-C** — keep all raw data, and retrain from scratch on the union every
  time a new domain arrives.  The resource-unconstrained ideal.

All strategies (and :class:`~repro.core.cerl.CERL`) implement the
:class:`repro.core.api.ContinualEstimator` protocol so the experiment harness
can treat them uniformly.  None of them owns a training loop: each observe
call delegates to :class:`~repro.core.baseline.BaselineCausalModel`, whose
optimisation runs on the shared :class:`repro.engine.Trainer`.

The estimator surface (protocol, registry, ``make_estimator``) lives in
:mod:`repro.core.api`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import CausalDataset
from ..metrics import EffectEstimate
from .api import ContinualEstimator
from .baseline import BaselineCausalModel
from .config import ModelConfig
from .persistence import _extract, _flatten_state

__all__ = [
    "ContinualEstimator",
    "CFRStrategyA",
    "CFRStrategyB",
    "CFRStrategyC",
]


class _CFRStrategyBase:
    """Common machinery of the CFR adaptation strategies."""

    name = "CFR"

    def __init__(self, n_features: int, config: Optional[ModelConfig] = None) -> None:
        self.n_features = n_features
        self.config = config if config is not None else ModelConfig()
        self.model = BaselineCausalModel(n_features, self.config)
        self.domains_seen = 0

    @property
    def model_config(self) -> ModelConfig:
        """Alias for :attr:`config` (the generic checkpoint path reads it)."""
        return self.config

    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        """Predict potential outcomes with the currently held model."""
        return self.model.predict(covariates)

    def predict_ite(self, covariates: np.ndarray) -> np.ndarray:
        """Canonical ITE point estimate."""
        return self.model.predict(covariates).ite_hat

    def state_arrays(self) -> dict:
        """Model state for the generic checkpoint format.

        Only the *model* is persisted — network parameters and scalers.
        CFR-C's raw-data hoard is deliberately not serialised: the registry
        stores models, never raw data, so a restored CFR-C retrains only on
        domains observed after the restore (documented resource accounting).
        """
        arrays = _flatten_state("encoder/", self.model.encoder.state_dict())
        arrays.update(_flatten_state("heads/", self.model.heads.state_dict()))
        if self.model.encoder.scaler.is_fitted:
            arrays["scaler/covariates/mean"] = self.model.encoder.scaler.mean_
            arrays["scaler/covariates/std"] = self.model.encoder.scaler.std_
        if self.model.outcome_scaler.is_fitted:
            arrays["scaler/outcomes/mean"] = self.model.outcome_scaler.mean_
            arrays["scaler/outcomes/std"] = self.model.outcome_scaler.std_
        return arrays

    def load_state_arrays(self, archive: dict) -> None:
        """Restore the held model from :meth:`state_arrays` output."""
        self.model.encoder.load_state_dict(_extract(archive, "encoder/"))
        self.model.heads.load_state_dict(_extract(archive, "heads/"))
        if "scaler/covariates/mean" in archive:
            self.model.encoder.scaler.mean_ = archive["scaler/covariates/mean"]
            self.model.encoder.scaler.std_ = archive["scaler/covariates/std"]
        if "scaler/outcomes/mean" in archive:
            self.model.outcome_scaler.mean_ = archive["scaler/outcomes/mean"]
            self.model.outcome_scaler.std_ = archive["scaler/outcomes/std"]
        self.model._fitted = True

    def evaluate(self, dataset: CausalDataset) -> Dict[str, float]:
        """Evaluate the currently held model on a labelled dataset."""
        return self.model.evaluate(dataset)

    def evaluate_many(self, datasets: Sequence[CausalDataset]) -> List[Dict[str, float]]:
        """Batched evaluation of several datasets (one forward pass)."""
        return self.model.evaluate_many(datasets)

    def observe(
        self,
        dataset: CausalDataset,
        epochs: Optional[int] = None,
        val_dataset: Optional[CausalDataset] = None,
    ) -> object:
        raise NotImplementedError

    @property
    def stored_raw_units(self) -> int:
        """Number of raw units the strategy keeps around (resource accounting)."""
        return 0


class CFRStrategyA(_CFRStrategyBase):
    """Strategy A: train once on the first domain, freeze afterwards."""

    name = "CFR-A"

    def observe(
        self,
        dataset: CausalDataset,
        epochs: Optional[int] = None,
        val_dataset: Optional[CausalDataset] = None,
    ) -> object:
        """Train only on the first observed domain; ignore later domains."""
        if self.domains_seen == 0:
            history = self.model.fit(dataset, epochs=epochs, val_dataset=val_dataset)
        else:
            history = self.model.history
        self.domains_seen += 1
        return history


class CFRStrategyB(_CFRStrategyBase):
    """Strategy B: fine-tune the previous model on each newly available domain."""

    name = "CFR-B"

    def observe(
        self,
        dataset: CausalDataset,
        epochs: Optional[int] = None,
        val_dataset: Optional[CausalDataset] = None,
    ) -> object:
        """Fit on the first domain, fine-tune on every later one."""
        if self.domains_seen == 0:
            history = self.model.fit(dataset, epochs=epochs, val_dataset=val_dataset)
        else:
            history = self.model.fine_tune(dataset, epochs=epochs, val_dataset=val_dataset)
        self.domains_seen += 1
        return history


class CFRStrategyC(_CFRStrategyBase):
    """Strategy C: store all raw data and retrain from scratch on the union."""

    name = "CFR-C"

    def __init__(self, n_features: int, config: Optional[ModelConfig] = None) -> None:
        super().__init__(n_features, config)
        self._seen: List[CausalDataset] = []
        self._seen_val: List[CausalDataset] = []

    def observe(
        self,
        dataset: CausalDataset,
        epochs: Optional[int] = None,
        val_dataset: Optional[CausalDataset] = None,
    ) -> object:
        """Accumulate raw data and retrain a fresh model on everything seen.

        Validation data are also accumulated (CFR-C has no data-access
        constraint), so early stopping sees the union of all validation sets.
        """
        self._seen.append(dataset)
        merged = CausalDataset.concat(self._seen)
        if val_dataset is not None:
            self._seen_val.append(val_dataset)
        merged_val = CausalDataset.concat(self._seen_val) if self._seen_val else None
        # Retrain from scratch: a fresh model with the same configuration.
        self.model = BaselineCausalModel(self.n_features, self.config)
        history = self.model.fit(merged, epochs=epochs, val_dataset=merged_val)
        self.domains_seen += 1
        return history

    @property
    def stored_raw_units(self) -> int:
        """Raw units retained across observations (all of them, by design)."""
        return int(sum(len(d) for d in self._seen))
