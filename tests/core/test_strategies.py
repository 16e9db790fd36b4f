"""Tests for the CFR adaptation strategies and the strategy factory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CERL,
    CFRStrategyA,
    CFRStrategyB,
    CFRStrategyC,
    ContinualEstimator,
    estimator_names,
    make_estimator,
)
from repro.data import DomainStream


@pytest.fixture
def stream(tiny_domains):
    return DomainStream(list(tiny_domains), seed=0)


class TestFactory:
    @pytest.mark.parametrize("name", estimator_names(tag="paper"))
    def test_make_estimator_builds_all_names(self, name, fast_model_config, fast_continual_config):
        learner = make_estimator(name, 19, fast_model_config, fast_continual_config)
        assert isinstance(learner, ContinualEstimator)

    def test_case_insensitive(self, fast_model_config):
        assert isinstance(make_estimator("cfr-a", 10, fast_model_config), CFRStrategyA)
        assert isinstance(make_estimator("cerl", 10, fast_model_config), CERL)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_estimator("CFR-D", 10)


class TestStrategyA:
    def test_second_domain_is_ignored(self, stream, fast_model_config):
        strategy = CFRStrategyA(stream.n_features, fast_model_config)
        strategy.observe(stream.train_data(0), epochs=3)
        state_after_first = strategy.model.encoder.state_dict()
        strategy.observe(stream.train_data(1), epochs=3)
        state_after_second = strategy.model.encoder.state_dict()
        for key in state_after_first:
            np.testing.assert_array_equal(state_after_first[key], state_after_second[key])
        assert strategy.domains_seen == 2
        assert strategy.stored_raw_units == 0


class TestStrategyB:
    def test_second_domain_updates_model(self, stream, fast_model_config):
        strategy = CFRStrategyB(stream.n_features, fast_model_config)
        strategy.observe(stream.train_data(0), epochs=3)
        state_after_first = strategy.model.encoder.state_dict()
        strategy.observe(stream.train_data(1), epochs=3)
        state_after_second = strategy.model.encoder.state_dict()
        assert any(
            not np.allclose(state_after_first[k], state_after_second[k]) for k in state_after_first
        )
        assert strategy.stored_raw_units == 0


class TestStrategyC:
    def test_accumulates_all_raw_data(self, stream, fast_model_config):
        strategy = CFRStrategyC(stream.n_features, fast_model_config)
        strategy.observe(stream.train_data(0), epochs=2)
        strategy.observe(stream.train_data(1), epochs=2)
        expected = len(stream.train_data(0)) + len(stream.train_data(1))
        assert strategy.stored_raw_units == expected

    def test_retrains_from_scratch_each_time(self, stream, fast_model_config):
        strategy = CFRStrategyC(stream.n_features, fast_model_config)
        strategy.observe(stream.train_data(0), epochs=2)
        first_model = strategy.model
        strategy.observe(stream.train_data(1), epochs=2)
        assert strategy.model is not first_model

    def test_accumulates_validation_data(self, stream, fast_model_config):
        strategy = CFRStrategyC(stream.n_features, fast_model_config)
        strategy.observe(stream.train_data(0), epochs=2, val_dataset=stream.val_data(0))
        strategy.observe(stream.train_data(1), epochs=2, val_dataset=stream.val_data(1))
        assert len(strategy._seen_val) == 2


class TestCommonProtocol:
    @pytest.mark.parametrize("name", estimator_names(tag="paper"))
    def test_observe_predict_evaluate_cycle(
        self, name, stream, fast_model_config, fast_continual_config
    ):
        learner = make_estimator(name, stream.n_features, fast_model_config, fast_continual_config)
        learner.observe(stream.train_data(0), epochs=2)
        learner.observe(stream.train_data(1), epochs=2)
        previous, new = stream.previous_and_new_test(1)
        estimate = learner.predict(new.covariates)
        assert estimate.ite_hat.shape == (len(new),)
        metrics = learner.evaluate(previous)
        assert np.isfinite(metrics["sqrt_pehe"])

    def test_base_strategy_observe_not_implemented(self, fast_model_config):
        from repro.core.strategies import _CFRStrategyBase

        base = _CFRStrategyBase(5, fast_model_config)
        with pytest.raises(NotImplementedError):
            base.observe(None)
