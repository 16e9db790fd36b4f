"""Meta-learner estimator zoo: S-, T-, X- and DML-style R-learner.

The paper compares CERL only against CFR adaptation strategies; ROADMAP open
item 1 calls for the standard meta-learner constructions as additional
columns.  All four learners here

* train every regression head on the shared :class:`repro.engine.Trainer`
  through a plain batch-loss closure, so grad clipping and LR schedules
  apply to them unchanged;
* implement the :class:`repro.core.api.ContinualEstimator` protocol
  (``observe`` / ``predict`` / ``predict_ite`` / ``evaluate`` /
  ``evaluate_many``), so they drop into streams, serving, drift adaptation,
  the multiprocess fleet and the SLO harness with zero call-site changes;
* checkpoint through the generic ``state_arrays`` / ``load_state_arrays``
  hooks consumed by :func:`repro.core.persistence.save_estimator`.

Constructions (potential outcomes are reconstructed so ``predict`` returns a
full :class:`~repro.metrics.EffectEstimate`, not just the ITE):

* **S-learner** — one regression ``f(x, t)`` on the treatment-augmented
  covariates; ``mu_t(x) = f(x, t)``.
* **T-learner** — per-arm regressions ``f0``/``f1``; ``mu_t(x) = f_t(x)``.
* **X-learner** — T-nuisances plus imputed-effect regressions
  ``tau0`` (on ``f1(X0) - Y0``) and ``tau1`` (on ``Y1 - f0(X1)``), blended by
  the :class:`~repro.core.classic.LogisticPropensityModel` score ``g(x)``:
  ``tau(x) = g(x) tau0(x) + (1 - g(x)) tau1(x)``, anchored at ``mu0 = f0``.
* **R-learner** — DML/orthogonal construction: K-fold *crossfit* nuisances
  ``m(x) = E[Y|X]`` (engine-trained regression) and ``e(x) = P(T=1|X)`` (the
  existing logistic propensity), then the residual-on-residual objective
  ``min_tau mean(((Y - m(X)) - (T - e(X)) tau(X))^2)``.  Potential outcomes
  are reconstructed from full-data nuisances as ``mu0 = m - e tau`` and
  ``mu1 = m + (1 - e) tau``.  The fold loop runs through
  :func:`repro.experiments.parallel.parallel_map`; every fold task is a pure
  function of its payload and a :func:`derive_seed`-derived seed, so
  ``crossfit_workers=N`` is bit-identical to the serial loop (pinned by the
  test suite).

Continual behaviour: the first ``observe`` fits the scalers and trains from
scratch; every later ``observe`` keeps the scalers and warm-starts the
regression heads on the new domain only (CFR-B-style fine-tuning — the
meta-learners keep no raw data and no memory).  ``val_dataset`` is accepted
for protocol compatibility and ignored: the nuisance fits are short and the
meta-learner literature tunes them by crossfitting, not early stopping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import CausalDataset
from ..engine import History, LossBundle, LossResult, Trainer, TrainingHistory
from ..metrics import EffectEstimate, evaluate_effect_estimate
from ..nn import MLP, Adam, Tensor, mse_loss
from ..utils import Standardizer
from .baseline import make_lr_scheduler
from .classic import LogisticPropensityModel
from .config import ContinualConfig, ModelConfig
from .evaluation import evaluate_datasets
from .persistence import _extract, _flatten_state

__all__ = ["SLearner", "TLearner", "XLearner", "RLearner"]

#: Propensity scores are clipped to [eps, 1-eps] wherever they divide or
#: blend, the standard guard against near-positivity violations.
_PROPENSITY_CLIP = 0.05


class _EngineRegressor:
    """One MLP regression head trained on the shared engine.

    The building block of every meta-learner: standardises inputs (and
    optionally targets), expresses the squared-error objective as a
    ``batch_loss(batch) -> LossResult`` closure, and hands the
    epoch/minibatch loop to :class:`repro.engine.Trainer` — so grad
    clipping and LR schedules apply unchanged.

    ``fit_residual`` trains the same head against the R-learner objective
    ``mean((y_res - t_res * f(x))^2)`` instead of plain regression.
    """

    def __init__(
        self,
        in_features: int,
        config: ModelConfig,
        rng: np.random.Generator,
        scale_targets: bool = True,
    ) -> None:
        self.config = config
        self.net = MLP(
            in_features,
            config.outcome_hidden,
            1,
            activation=config.activation,
            rng=rng,
        )
        self.input_scaler = Standardizer()
        self.target_scaler = Standardizer()
        self.scale_targets = scale_targets and config.standardize_outcomes
        self._rng = rng
        self.fitted = False

    # -- training ------------------------------------------------------- #
    def fit(self, inputs: np.ndarray, targets: np.ndarray, epochs: int) -> TrainingHistory:
        """(Warm-start) fit against plain squared error."""
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if not self.fitted:
            self.input_scaler.fit(inputs)
            if self.scale_targets:
                self.target_scaler.fit(targets)
        x = self.input_scaler.transform(inputs)
        y = self.target_scaler.transform(targets) if self.scale_targets else targets

        def batch_loss(batch: np.ndarray) -> LossResult:
            predictions = self.net.forward(Tensor(x[batch]))
            bundle = LossBundle()
            bundle.add("mse", mse_loss(predictions, Tensor(y[batch][:, None])))
            return bundle.result()

        return self._run(batch_loss, len(x), epochs)

    def fit_residual(
        self,
        inputs: np.ndarray,
        y_residuals: np.ndarray,
        t_residuals: np.ndarray,
        epochs: int,
    ) -> TrainingHistory:
        """(Warm-start) fit against the R-loss ``mean((y_res - t_res f(x))^2)``."""
        inputs = np.asarray(inputs, dtype=np.float64)
        y_res = np.asarray(y_residuals, dtype=np.float64).ravel()
        t_res = np.asarray(t_residuals, dtype=np.float64).ravel()
        if not self.fitted:
            self.input_scaler.fit(inputs)
        x = self.input_scaler.transform(inputs)

        def batch_loss(batch: np.ndarray) -> LossResult:
            tau = self.net.forward(Tensor(x[batch]))
            predictions = tau * Tensor(t_res[batch][:, None])
            bundle = LossBundle()
            bundle.add("r_loss", mse_loss(predictions, Tensor(y_res[batch][:, None])))
            return bundle.result()

        return self._run(batch_loss, len(x), epochs)

    def _run(self, batch_loss, n_units: int, epochs: int) -> TrainingHistory:
        config = self.config
        parameters = self.net.parameters()
        optimizer = Adam(
            parameters, lr=config.learning_rate, weight_decay=config.weight_decay
        )
        history = TrainingHistory()
        trainer = Trainer(
            parameters,
            optimizer,
            batch_size=config.batch_size,
            grad_clip=config.grad_clip,
            rng=self._rng,
            scheduler=make_lr_scheduler(config, optimizer, epochs),
            callbacks=[History(history)],
        )
        trainer.fit(n_units, batch_loss, epochs=epochs)
        self.fitted = True
        return history

    # -- inference ------------------------------------------------------ #
    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predict on the no-graph inference fast path."""
        if not self.fitted:
            raise RuntimeError("regressor used before fit()")
        x = self.input_scaler.transform(np.asarray(inputs, dtype=np.float64))
        out = self.net.infer(x).ravel()
        return self.target_scaler.inverse_transform(out) if self.scale_targets else out

    # -- checkpoint state ----------------------------------------------- #
    def state_arrays(self, prefix: str) -> dict:
        arrays = _flatten_state(f"{prefix}net/", self.net.state_dict())
        if self.input_scaler.is_fitted:
            arrays[f"{prefix}input_scaler/mean"] = self.input_scaler.mean_
            arrays[f"{prefix}input_scaler/std"] = self.input_scaler.std_
        if self.target_scaler.is_fitted:
            arrays[f"{prefix}target_scaler/mean"] = self.target_scaler.mean_
            arrays[f"{prefix}target_scaler/std"] = self.target_scaler.std_
        return arrays

    def load_state_arrays(self, archive: dict, prefix: str) -> None:
        self.net.load_state_dict(_extract(archive, f"{prefix}net/"))
        if f"{prefix}input_scaler/mean" in archive:
            self.input_scaler.mean_ = archive[f"{prefix}input_scaler/mean"]
            self.input_scaler.std_ = archive[f"{prefix}input_scaler/std"]
            self.fitted = True
        if f"{prefix}target_scaler/mean" in archive:
            self.target_scaler.mean_ = archive[f"{prefix}target_scaler/mean"]
            self.target_scaler.std_ = archive[f"{prefix}target_scaler/std"]


def _propensity_arrays(model: LogisticPropensityModel, prefix: str) -> dict:
    arrays = {}
    if model.coefficients_ is not None:
        arrays[f"{prefix}coefficients"] = model.coefficients_
        arrays[f"{prefix}scaler/mean"] = model._scaler.mean_
        arrays[f"{prefix}scaler/std"] = model._scaler.std_
    return arrays


def _load_propensity(model: LogisticPropensityModel, archive: dict, prefix: str) -> None:
    if f"{prefix}coefficients" in archive:
        model.coefficients_ = np.asarray(archive[f"{prefix}coefficients"])
        model._scaler.mean_ = archive[f"{prefix}scaler/mean"]
        model._scaler.std_ = archive[f"{prefix}scaler/std"]


class _MetaLearnerBase:
    """Shared machinery of the meta-learners (protocol + validation + eval)."""

    name = "meta"

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
        # Accepted so every estimator shares one construction signature (and
        # one checkpoint meta layout); the meta-learners have no continual
        # stage and never read it.
        self.continual_config = (
            continual_config if continual_config is not None else ContinualConfig()
        )
        self._rng = np.random.default_rng(self.model_config.seed)
        self.domains_seen = 0
        self.histories: List[TrainingHistory] = []

    # -- protocol ------------------------------------------------------- #
    def observe(
        self,
        dataset: CausalDataset,
        epochs: Optional[int] = None,
        val_dataset: Optional[CausalDataset] = None,
    ) -> TrainingHistory:
        """Train on the next available domain (warm-started after the first)."""
        self._validate_dataset(dataset)
        epochs = epochs if epochs is not None else self.model_config.epochs
        history = self._fit_domain(dataset, epochs)
        self.domains_seen += 1
        self.histories.append(history)
        return history

    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        raise NotImplementedError

    def predict_ite(self, covariates: np.ndarray) -> np.ndarray:
        """Canonical ITE point estimate."""
        return self.predict(covariates).ite_hat

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
        """Evaluate several datasets with one batched forward pass."""
        self._check_fitted()
        return evaluate_datasets(self.predict, datasets)

    # -- subclass hooks -------------------------------------------------- #
    def _fit_domain(self, dataset: CausalDataset, epochs: int) -> TrainingHistory:
        raise NotImplementedError

    def state_arrays(self) -> dict:
        raise NotImplementedError

    def load_state_arrays(self, archive: dict) -> None:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------- #
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
        if self.domains_seen == 0:
            raise RuntimeError(f"{self.name} used before observing any domain")


class SLearner(_MetaLearnerBase):
    """Single-model meta-learner: one regression on treatment-augmented X."""

    name = "S-learner"

    def __init__(
        self,
        n_features: int,
        model_config: Optional[ModelConfig] = None,
        continual_config: Optional[ContinualConfig] = None,
    ) -> None:
        super().__init__(n_features, model_config, continual_config)
        self._regressor = _EngineRegressor(n_features + 1, self.model_config, self._rng)

    def _fit_domain(self, dataset: CausalDataset, epochs: int) -> TrainingHistory:
        augmented = self._augment(dataset.covariates, dataset.treatments)
        return self._regressor.fit(augmented, dataset.outcomes, epochs)

    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        self._check_fitted()
        covariates = np.asarray(covariates, dtype=np.float64)
        y0 = self._regressor.predict(self._augment(covariates, np.zeros(len(covariates))))
        y1 = self._regressor.predict(self._augment(covariates, np.ones(len(covariates))))
        return EffectEstimate(y0_hat=y0, y1_hat=y1)

    @staticmethod
    def _augment(covariates: np.ndarray, treatments: np.ndarray) -> np.ndarray:
        covariates = np.asarray(covariates, dtype=np.float64)
        column = np.asarray(treatments, dtype=np.float64).reshape(-1, 1)
        return np.hstack([covariates, column])

    def state_arrays(self) -> dict:
        return self._regressor.state_arrays("regressor/")

    def load_state_arrays(self, archive: dict) -> None:
        self._regressor.load_state_arrays(archive, "regressor/")


class TLearner(_MetaLearnerBase):
    """Two-model meta-learner: one outcome regression per treatment arm."""

    name = "T-learner"

    def __init__(
        self,
        n_features: int,
        model_config: Optional[ModelConfig] = None,
        continual_config: Optional[ContinualConfig] = None,
    ) -> None:
        super().__init__(n_features, model_config, continual_config)
        # Fixed construction order (control, treated) pins the RNG draws.
        self._arms: Dict[int, _EngineRegressor] = {
            arm: _EngineRegressor(n_features, self.model_config, self._rng)
            for arm in (0, 1)
        }

    def _fit_domain(self, dataset: CausalDataset, epochs: int) -> TrainingHistory:
        history = TrainingHistory()
        for arm in (0, 1):
            mask = dataset.treatments == arm
            history = self._arms[arm].fit(
                dataset.covariates[mask], dataset.outcomes[mask], epochs
            )
        return history

    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        self._check_fitted()
        return EffectEstimate(
            y0_hat=self._arms[0].predict(covariates),
            y1_hat=self._arms[1].predict(covariates),
        )

    def state_arrays(self) -> dict:
        arrays = self._arms[0].state_arrays("arm0/")
        arrays.update(self._arms[1].state_arrays("arm1/"))
        return arrays

    def load_state_arrays(self, archive: dict) -> None:
        self._arms[0].load_state_arrays(archive, "arm0/")
        self._arms[1].load_state_arrays(archive, "arm1/")


class XLearner(_MetaLearnerBase):
    """X-learner: imputed-effect regressions blended by the propensity score."""

    name = "X-learner"

    def __init__(
        self,
        n_features: int,
        model_config: Optional[ModelConfig] = None,
        continual_config: Optional[ContinualConfig] = None,
    ) -> None:
        super().__init__(n_features, model_config, continual_config)
        self._outcome: Dict[int, _EngineRegressor] = {
            arm: _EngineRegressor(n_features, self.model_config, self._rng)
            for arm in (0, 1)
        }
        # Effect targets are imputed ITEs (already roughly centred); leave
        # them unscaled so tau predictions stay on the outcome scale.
        self._effect: Dict[int, _EngineRegressor] = {
            arm: _EngineRegressor(
                n_features, self.model_config, self._rng, scale_targets=False
            )
            for arm in (0, 1)
        }
        self._propensity = LogisticPropensityModel()

    def _fit_domain(self, dataset: CausalDataset, epochs: int) -> TrainingHistory:
        control = dataset.treatments == 0
        treated = dataset.treatments == 1
        x0, y0 = dataset.covariates[control], dataset.outcomes[control]
        x1, y1 = dataset.covariates[treated], dataset.outcomes[treated]

        # Stage 1: per-arm outcome nuisances.
        self._outcome[0].fit(x0, y0, epochs)
        self._outcome[1].fit(x1, y1, epochs)

        # Stage 2: imputed individual effects, regressed per arm.
        d0 = self._outcome[1].predict(x0) - y0
        d1 = y1 - self._outcome[0].predict(x1)
        self._effect[0].fit(x0, d0, epochs)
        history = self._effect[1].fit(x1, d1, epochs)

        # Blend weights: the propensity reflects the newest domain.
        self._propensity.fit(dataset.covariates, dataset.treatments)
        return history

    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        self._check_fitted()
        covariates = np.asarray(covariates, dtype=np.float64)
        g = np.clip(
            self._propensity.predict_proba(covariates),
            _PROPENSITY_CLIP,
            1.0 - _PROPENSITY_CLIP,
        )
        tau = g * self._effect[0].predict(covariates) + (1.0 - g) * self._effect[
            1
        ].predict(covariates)
        y0 = self._outcome[0].predict(covariates)
        return EffectEstimate(y0_hat=y0, y1_hat=y0 + tau)

    def state_arrays(self) -> dict:
        arrays = self._outcome[0].state_arrays("outcome0/")
        arrays.update(self._outcome[1].state_arrays("outcome1/"))
        arrays.update(self._effect[0].state_arrays("effect0/"))
        arrays.update(self._effect[1].state_arrays("effect1/"))
        arrays.update(_propensity_arrays(self._propensity, "propensity/"))
        return arrays

    def load_state_arrays(self, archive: dict) -> None:
        self._outcome[0].load_state_arrays(archive, "outcome0/")
        self._outcome[1].load_state_arrays(archive, "outcome1/")
        self._effect[0].load_state_arrays(archive, "effect0/")
        self._effect[1].load_state_arrays(archive, "effect1/")
        _load_propensity(self._propensity, archive, "propensity/")


def _crossfit_fold(task: tuple) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit both nuisances on one fold's training split; predict its eval split.

    Module-level so :func:`parallel_map` can pickle it, and a pure function of
    the payload: the regressor draws every random number from the
    fold-derived seed, so the result is independent of which process (or
    order) executes the fold — that is what makes ``crossfit_workers=N``
    bit-identical to the serial loop.
    """
    (
        eval_indices,
        train_x,
        train_y,
        train_t,
        eval_x,
        config,
        epochs,
        fold_seed,
    ) = task
    regressor = _EngineRegressor(
        train_x.shape[1], config, np.random.default_rng(fold_seed)
    )
    regressor.fit(train_x, train_y, epochs)
    propensity = LogisticPropensityModel().fit(train_x, train_t)
    return eval_indices, regressor.predict(eval_x), propensity.predict_proba(eval_x)


class RLearner(_MetaLearnerBase):
    """DML-style R-learner with crossfit nuisances.

    Parameters
    ----------
    n_features, model_config, continual_config:
        As for every registered estimator (``continual_config`` unused).
    n_folds:
        Crossfitting folds K (adaptively reduced on tiny domains so every
        fold keeps something to train on).
    crossfit_workers:
        Fan the K fold fits over a process pool
        (:func:`~repro.experiments.parallel.parallel_map`); any value returns
        bit-identical nuisances because each fold seeds itself from
        :func:`~repro.experiments.parallel.derive_seed`.
    crossfit_force_parallel:
        Bypass the core-count clamp (determinism tests on small machines).
    """

    name = "R-learner"

    def __init__(
        self,
        n_features: int,
        model_config: Optional[ModelConfig] = None,
        continual_config: Optional[ContinualConfig] = None,
        n_folds: int = 3,
        crossfit_workers: int = 1,
        crossfit_force_parallel: bool = False,
    ) -> None:
        super().__init__(n_features, model_config, continual_config)
        if n_folds < 2:
            raise ValueError("crossfitting needs at least 2 folds")
        self.n_folds = n_folds
        self.crossfit_workers = crossfit_workers
        self.crossfit_force_parallel = crossfit_force_parallel
        # tau is an effect head: residual targets are centred, keep them raw.
        self._tau = _EngineRegressor(
            n_features, self.model_config, self._rng, scale_targets=False
        )
        # Full-data nuisances, kept for potential-outcome reconstruction.
        self._outcome = _EngineRegressor(n_features, self.model_config, self._rng)
        self._propensity = LogisticPropensityModel()

    def _fit_domain(self, dataset: CausalDataset, epochs: int) -> TrainingHistory:
        from ..experiments.parallel import derive_seed, parallel_map

        x = np.asarray(dataset.covariates, dtype=np.float64)
        y = np.asarray(dataset.outcomes, dtype=np.float64).ravel()
        t = np.asarray(dataset.treatments, dtype=np.float64).ravel()
        n = len(y)
        n_folds = max(2, min(self.n_folds, n // 4))
        if n < 8:
            raise ValueError("R-learner crossfitting needs at least 8 units")

        # Deterministic fold assignment: a seed-derived permutation split into
        # K near-equal chunks.  Derived (not drawn from self._rng) so the
        # serial and parallel paths consume identical randomness.
        assign_seed = derive_seed(
            self.model_config.seed, "rlearner", "folds", self.domains_seen
        )
        order = np.random.default_rng(assign_seed).permutation(n)
        folds = np.array_split(order, n_folds)

        tasks = []
        for k, eval_indices in enumerate(folds):
            train_mask = np.ones(n, dtype=bool)
            train_mask[eval_indices] = False
            tasks.append(
                (
                    eval_indices,
                    x[train_mask],
                    y[train_mask],
                    t[train_mask],
                    x[eval_indices],
                    self.model_config,
                    epochs,
                    derive_seed(
                        self.model_config.seed, "rlearner", "fold", self.domains_seen, k
                    ),
                )
            )
        fold_results = parallel_map(
            _crossfit_fold,
            tasks,
            workers=self.crossfit_workers,
            force_parallel=self.crossfit_force_parallel,
        )

        m_hat = np.empty(n, dtype=np.float64)
        e_hat = np.empty(n, dtype=np.float64)
        for eval_indices, fold_m, fold_e in fold_results:
            m_hat[eval_indices] = fold_m
            e_hat[eval_indices] = fold_e
        e_hat = np.clip(e_hat, _PROPENSITY_CLIP, 1.0 - _PROPENSITY_CLIP)

        # Residual-on-residual effect regression (the orthogonal objective).
        history = self._tau.fit_residual(x, y - m_hat, t - e_hat, epochs)

        # Full-data nuisances for mu0/mu1 reconstruction at predict time.
        self._outcome.fit(x, y, epochs)
        self._propensity.fit(x, t)
        return history

    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        self._check_fitted()
        covariates = np.asarray(covariates, dtype=np.float64)
        m = self._outcome.predict(covariates)
        e = np.clip(
            self._propensity.predict_proba(covariates),
            _PROPENSITY_CLIP,
            1.0 - _PROPENSITY_CLIP,
        )
        tau = self._tau.predict(covariates)
        return EffectEstimate(y0_hat=m - e * tau, y1_hat=m + (1.0 - e) * tau)

    def state_arrays(self) -> dict:
        arrays = self._tau.state_arrays("tau/")
        arrays.update(self._outcome.state_arrays("outcome/"))
        arrays.update(_propensity_arrays(self._propensity, "propensity/"))
        return arrays

    def load_state_arrays(self, archive: dict) -> None:
        self._tau.load_state_arrays(archive, "tau/")
        self._outcome.load_state_arrays(archive, "outcome/")
        _load_propensity(self._propensity, archive, "propensity/")
