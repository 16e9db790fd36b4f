"""Protocol-conformance suite for every registered estimator.

Every name in :func:`repro.core.api.estimator_names` must honour the
``ContinualEstimator`` contract: deterministic observe -> predict_ite,
``evaluate_many`` bit-identical to per-dataset ``evaluate``, and a bitwise
checkpoint round trip through the serving :class:`~repro.serve.ModelRegistry`.
Registering a new estimator automatically enrolls it here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ContinualConfig, ModelConfig
from repro.core.api import (
    ESTIMATORS,
    ContinualEstimator,
    EstimatorRegistry,
    estimator_names,
    estimator_specs,
    make_estimator,
)
from repro.data import DomainStream, SyntheticConfig, SyntheticDomainGenerator
from repro.serve import ModelRegistry


def _configs():
    model_config = ModelConfig(
        representation_dim=8,
        encoder_hidden=(16,),
        outcome_hidden=(8,),
        epochs=3,
        batch_size=64,
        sinkhorn_iterations=10,
        seed=11,
    )
    continual_config = ContinualConfig(memory_budget=40, rehearsal_batch_size=32)
    return model_config, continual_config


@pytest.fixture(scope="module")
def api_stream() -> DomainStream:
    generator = SyntheticDomainGenerator(
        SyntheticConfig(
            n_confounders=6,
            n_instruments=3,
            n_irrelevant=4,
            n_adjustment=6,
            n_units=160,
            domain_mean_shift=1.5,
        ),
        seed=9,
    )
    return DomainStream(
        [generator.generate_domain(0), generator.generate_domain(1)], seed=9
    )


def _train(name: str, stream: DomainStream):
    model_config, continual_config = _configs()
    learner = make_estimator(name, stream.n_features, model_config, continual_config)
    learner.observe(stream.train_data(0), epochs=3, val_dataset=stream.val_data(0))
    learner.observe(stream.train_data(1), epochs=3, val_dataset=stream.val_data(1))
    return learner


@pytest.fixture(scope="module", params=estimator_names())
def fitted(request, api_stream):
    """One trained learner per registered estimator (trained once per module)."""
    return request.param, _train(request.param, api_stream)


class TestRegistry:
    def test_names_cover_paper_and_meta(self):
        names = estimator_names()
        assert names[:4] == ("CFR-A", "CFR-B", "CFR-C", "CERL")
        assert set(estimator_names(tag="meta")) == {
            "S-learner",
            "T-learner",
            "X-learner",
            "R-learner",
        }
        assert estimator_names(tag="paper") == ("CFR-A", "CFR-B", "CFR-C", "CERL")
        assert estimator_names(tag="orthogonal") == ("R-learner",)

    def test_specs_carry_summaries(self):
        for spec in estimator_specs():
            assert spec.summary
            assert spec.name in ESTIMATORS

    def test_lookup_is_case_insensitive(self):
        assert "r-learner" in ESTIMATORS
        assert " R-LEARNER " in ESTIMATORS
        assert ESTIMATORS.spec("x-learner").name == "X-learner"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="CFR-A"):
            make_estimator("Q-learner", 5)

    def test_duplicate_registration_raises(self):
        registry = EstimatorRegistry()
        registry.register("demo", lambda n, mc, cc: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("Demo", lambda n, mc, cc: None)
        registry.register("demo", lambda n, mc, cc: None, overwrite=True)
        assert len(registry) == 1

    def test_registration_order_is_column_order(self):
        registry = EstimatorRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.register(name, lambda n, mc, cc: None)
        assert registry.names() == ("zeta", "alpha", "mid")

    def test_strategy_listings_derive_from_registry(self):
        """Every table's column set is the registry's view, never a literal."""
        from repro.experiments import (
            CONFOUNDING_ESTIMATORS,
            TABLE1_ESTIMATORS,
            TABLE1_STRATEGIES,
            TABLE2_ESTIMATORS,
            TABLE2_STRATEGIES,
        )

        paper = estimator_names(tag="paper")
        everything = estimator_names()
        assert TABLE1_STRATEGIES == paper
        assert TABLE2_STRATEGIES == paper
        assert TABLE1_ESTIMATORS == everything
        assert TABLE2_ESTIMATORS == everything
        assert CONFOUNDING_ESTIMATORS == everything


class TestConformance:
    def test_protocol_and_attributes(self, fitted, api_stream):
        name, learner = fitted
        assert isinstance(learner, ContinualEstimator)
        assert learner.name == name
        assert learner.n_features == api_stream.n_features
        assert learner.domains_seen == 2

    def test_training_is_deterministic(self, fitted, api_stream):
        """A fresh learner trained identically predicts bitwise identically."""
        name, learner = fitted
        retrained = _train(name, api_stream)
        probe = api_stream[1].test.covariates
        np.testing.assert_array_equal(
            learner.predict_ite(probe), retrained.predict_ite(probe)
        )

    def test_predict_is_repeatable_and_consistent(self, fitted, api_stream):
        name, learner = fitted
        probe = api_stream[1].test.covariates
        estimate = learner.predict(probe)
        np.testing.assert_array_equal(
            estimate.ite_hat, learner.predict(probe).ite_hat
        )
        np.testing.assert_array_equal(learner.predict_ite(probe), estimate.ite_hat)
        np.testing.assert_array_equal(
            estimate.ite_hat, estimate.y1_hat - estimate.y0_hat
        )

    def test_evaluate_many_matches_per_dataset(self, fitted, api_stream):
        name, learner = fitted
        previous, new = api_stream.previous_and_new_test(1)
        batched = learner.evaluate_many([previous, new])
        assert batched == [learner.evaluate(previous), learner.evaluate(new)]

    def test_registry_round_trip_is_bitwise(self, fitted, api_stream, tmp_path):
        """save -> ModelRegistry -> load (eager and mmap) reproduces predictions."""
        name, learner = fitted
        registry = ModelRegistry(tmp_path / "registry")
        entry = registry.save(name, 1, learner, metadata={"trigger": "conformance"})
        assert entry.domains_seen == 2
        probe = api_stream[1].test.covariates
        reference = learner.predict(probe)
        for mmap_mode in (None, "r"):
            restored = registry.load(name, mmap_mode=mmap_mode)
            assert restored.name == name
            assert restored.domains_seen == learner.domains_seen
            estimate = restored.predict(probe)
            np.testing.assert_array_equal(estimate.y0_hat, reference.y0_hat)
            np.testing.assert_array_equal(estimate.y1_hat, reference.y1_hat)
            np.testing.assert_array_equal(estimate.ite_hat, reference.ite_hat)
