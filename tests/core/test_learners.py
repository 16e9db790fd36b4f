"""Tests for the S/T/X/R meta-learner zoo (:mod:`repro.core.learners`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RLearner, SLearner, TLearner, XLearner
from repro.data import DomainStream


@pytest.fixture
def stream(tiny_domains):
    return DomainStream(list(tiny_domains), seed=0)


def _fit(cls, stream, config, epochs=3, **kwargs):
    learner = cls(stream.n_features, config, **kwargs)
    learner.observe(stream.train_data(0), epochs=epochs)
    return learner


class TestConstructions:
    def test_s_learner_treatment_column_drives_ite(self, stream, fast_model_config):
        learner = _fit(SLearner, stream, fast_model_config)
        probe = stream[0].test.covariates
        estimate = learner.predict(probe)
        # y0/y1 come from the same regressor with the treatment column flipped.
        np.testing.assert_array_equal(
            estimate.y0_hat,
            learner._regressor.predict(learner._augment(probe, np.zeros(len(probe)))),
        )
        np.testing.assert_array_equal(
            estimate.y1_hat,
            learner._regressor.predict(learner._augment(probe, np.ones(len(probe)))),
        )

    def test_t_learner_uses_separate_arms(self, stream, fast_model_config):
        learner = _fit(TLearner, stream, fast_model_config)
        probe = stream[0].test.covariates
        estimate = learner.predict(probe)
        np.testing.assert_array_equal(estimate.y0_hat, learner._arms[0].predict(probe))
        np.testing.assert_array_equal(estimate.y1_hat, learner._arms[1].predict(probe))

    def test_x_learner_anchors_outcomes_on_control_surface(self, stream, fast_model_config):
        learner = _fit(XLearner, stream, fast_model_config)
        probe = stream[0].test.covariates
        estimate = learner.predict(probe)
        np.testing.assert_array_equal(
            estimate.y0_hat, learner._outcome[0].predict(probe)
        )
        np.testing.assert_array_equal(
            estimate.ite_hat, estimate.y1_hat - estimate.y0_hat
        )

    def test_r_learner_effect_is_mu_spread(self, stream, fast_model_config):
        learner = _fit(RLearner, stream, fast_model_config)
        probe = stream[0].test.covariates
        estimate = learner.predict(probe)
        np.testing.assert_array_equal(
            estimate.ite_hat, estimate.y1_hat - estimate.y0_hat
        )
        assert np.all(np.isfinite(estimate.ite_hat))


class TestValidation:
    def test_r_learner_rejects_single_fold(self, fast_model_config):
        with pytest.raises(ValueError, match="at least 2 folds"):
            RLearner(5, fast_model_config, n_folds=1)

    def test_r_learner_needs_enough_units(self, stream, fast_model_config):
        learner = RLearner(stream.n_features, fast_model_config)
        train = stream.train_data(0)
        # Six units with both arms present: small enough that the validation
        # gate passes but the crossfit floor must still reject it.
        treated = np.flatnonzero(train.treatments == 1)[:3]
        control = np.flatnonzero(train.treatments == 0)[:3]
        tiny = train.subset(np.concatenate([treated, control]))
        with pytest.raises(ValueError, match="at least 8"):
            learner.observe(tiny, epochs=1)

    def test_predict_before_observe_raises(self, stream, fast_model_config):
        learner = SLearner(stream.n_features, fast_model_config)
        with pytest.raises(RuntimeError):
            learner.predict(stream[0].test.covariates)


class TestContinualBehavior:
    def test_second_domain_warm_starts_heads(self, stream, fast_model_config):
        learner = _fit(TLearner, stream, fast_model_config)
        probe = stream[0].test.covariates
        before = learner.predict_ite(probe)
        learner.observe(stream.train_data(1), epochs=3)
        assert learner.domains_seen == 2
        after = learner.predict_ite(probe)
        assert not np.array_equal(before, after)

    def test_scalers_frozen_after_first_domain(self, stream, fast_model_config):
        learner = _fit(SLearner, stream, fast_model_config)
        mean_before = learner._regressor.input_scaler.mean_.copy()
        learner.observe(stream.train_data(1), epochs=2)
        np.testing.assert_array_equal(
            mean_before, learner._regressor.input_scaler.mean_
        )


class TestCrossfitParallelism:
    def test_crossfit_parallel_is_bit_identical_to_serial(self, stream, fast_model_config):
        serial = _fit(RLearner, stream, fast_model_config, epochs=3)
        parallel = _fit(
            RLearner,
            stream,
            fast_model_config,
            epochs=3,
            crossfit_workers=2,
            crossfit_force_parallel=True,
        )
        probe = stream[0].test.covariates
        reference = serial.predict(probe)
        candidate = parallel.predict(probe)
        np.testing.assert_array_equal(candidate.y0_hat, reference.y0_hat)
        np.testing.assert_array_equal(candidate.y1_hat, reference.y1_hat)
        np.testing.assert_array_equal(candidate.ite_hat, reference.ite_hat)
