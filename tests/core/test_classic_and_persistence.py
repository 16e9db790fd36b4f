"""Tests for the classical baseline estimators and CERL checkpointing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (
    CERL,
    LogisticPropensityModel,
    RidgeTLearner,
    ipw_ate,
    load_cerl,
    load_estimator,
    make_estimator,
    naive_ate,
    save_cerl,
)
from repro.data import CausalDataset, DomainStream
from repro.serve import ModelRegistry


def make_confounded_dataset(n: int = 600, seed: int = 0) -> CausalDataset:
    """Dataset where the naive estimator is biased but IPW is not.

    A single confounder drives both treatment probability and the outcome; the
    true effect is exactly 1.
    """
    rng = np.random.default_rng(seed)
    confounder = rng.normal(size=n)
    noise_feature = rng.normal(size=n)
    covariates = np.column_stack([confounder, noise_feature])
    propensity = 1.0 / (1.0 + np.exp(-2.0 * confounder))
    treatments = (rng.random(n) < propensity).astype(int)
    mu0 = 2.0 * confounder
    mu1 = mu0 + 1.0
    outcomes = np.where(treatments == 1, mu1, mu0) + rng.normal(0, 0.2, n)
    return CausalDataset(covariates, treatments, outcomes, mu0=mu0, mu1=mu1)


class TestNaiveAndIPW:
    def test_naive_is_biased_under_confounding(self):
        dataset = make_confounded_dataset()
        assert abs(naive_ate(dataset) - 1.0) > 0.5

    def test_ipw_corrects_the_bias(self):
        dataset = make_confounded_dataset()
        estimate = ipw_ate(dataset)
        assert abs(estimate - 1.0) < abs(naive_ate(dataset) - 1.0)
        assert estimate == pytest.approx(1.0, abs=0.45)

    def test_naive_requires_both_arms(self):
        dataset = make_confounded_dataset(100)
        treated_only = dataset.subset(np.flatnonzero(dataset.treatments == 1))
        with pytest.raises(ValueError):
            naive_ate(treated_only)

    def test_ipw_clip_validation(self):
        with pytest.raises(ValueError):
            ipw_ate(make_confounded_dataset(100), clip=0.7)

    def test_ipw_accepts_prefitted_model(self):
        dataset = make_confounded_dataset()
        model = LogisticPropensityModel().fit(dataset.covariates, dataset.treatments)
        assert np.isfinite(ipw_ate(dataset, propensity_model=model))


class TestLogisticPropensityModel:
    def test_recovers_monotone_relationship(self):
        dataset = make_confounded_dataset()
        model = LogisticPropensityModel().fit(dataset.covariates, dataset.treatments)
        scores = model.predict_proba(dataset.covariates)
        assert np.all((scores > 0) & (scores < 1))
        # higher confounder -> higher propensity
        order = np.argsort(dataset.covariates[:, 0])
        assert scores[order[-50:]].mean() > scores[order[:50]].mean()

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LogisticPropensityModel().predict_proba(np.ones((3, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LogisticPropensityModel().fit(np.ones((5, 2)), np.ones(4))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            LogisticPropensityModel(l2=-1.0)
        with pytest.raises(ValueError):
            LogisticPropensityModel(max_iterations=0)


class TestRidgeTLearner:
    def test_recovers_constant_effect(self):
        dataset = make_confounded_dataset()
        learner = RidgeTLearner(l2=1.0).fit(dataset)
        estimate = learner.predict(dataset.covariates)
        assert estimate.ate_hat == pytest.approx(1.0, abs=0.3)
        assert learner.estimate_ate(dataset.covariates) == pytest.approx(estimate.ate_hat)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RidgeTLearner().predict(np.ones((3, 2)))

    def test_requires_units_in_both_arms(self):
        dataset = make_confounded_dataset(200)
        treated_only = dataset.subset(np.flatnonzero(dataset.treatments == 1))
        with pytest.raises(ValueError):
            RidgeTLearner().fit(treated_only)

    def test_invalid_regularisation(self):
        with pytest.raises(ValueError):
            RidgeTLearner(l2=-0.1)


class TestPersistence:
    def test_round_trip_preserves_predictions_and_memory(
        self, tiny_domains, fast_model_config, fast_continual_config, tmp_path
    ):
        stream = DomainStream(list(tiny_domains), seed=0)
        learner = CERL(stream.n_features, fast_model_config, fast_continual_config)
        learner.observe(stream.train_data(0))
        learner.observe(stream.train_data(1))

        checkpoint = save_cerl(learner, tmp_path / "cerl_checkpoint")
        assert checkpoint.exists()
        restored = load_cerl(checkpoint)

        test_covariates = stream[1].test.covariates
        np.testing.assert_allclose(
            learner.predict(test_covariates).ite_hat,
            restored.predict(test_covariates).ite_hat,
        )
        assert restored.domains_seen == learner.domains_seen
        assert restored.memory_size == learner.memory_size
        np.testing.assert_allclose(
            restored.memory.representations, learner.memory.representations
        )

    def test_restored_learner_can_continue_training(
        self, tiny_domains, fast_model_config, fast_continual_config, tmp_path
    ):
        stream = DomainStream(list(tiny_domains), seed=0)
        learner = CERL(stream.n_features, fast_model_config, fast_continual_config)
        learner.observe(stream.train_data(0))
        restored = load_cerl(save_cerl(learner, tmp_path / "after_first"))
        restored.observe(stream.train_data(1), epochs=2)
        assert restored.domains_seen == 2
        metrics = restored.evaluate(stream[1].test)
        assert np.isfinite(metrics["sqrt_pehe"])

    def test_saving_unfitted_learner_raises(
        self, fast_model_config, fast_continual_config, tmp_path
    ):
        learner = CERL(10, fast_model_config, fast_continual_config)
        with pytest.raises(RuntimeError):
            save_cerl(learner, tmp_path / "nope")

    def test_suffix_is_normalised(self, tiny_dataset, fast_model_config, fast_continual_config, tmp_path):
        learner = CERL(tiny_dataset.n_features, fast_model_config, fast_continual_config)
        learner.observe(tiny_dataset)
        checkpoint = save_cerl(learner, tmp_path / "model.bin")
        assert checkpoint.suffix == ".npz"

    def test_dotted_names_are_not_mangled(
        self, tiny_dataset, fast_model_config, fast_continual_config, tmp_path
    ):
        """Regression: ``Path("model.v1").with_suffix(".npz")`` used to drop
        the ``.v1`` component, so two versions collided on ``model.npz``."""
        learner = CERL(tiny_dataset.n_features, fast_model_config, fast_continual_config)
        learner.observe(tiny_dataset)
        v1 = save_cerl(learner, tmp_path / "model.v1")
        v2 = save_cerl(learner, tmp_path / "model.v2")
        assert v1.name == "model.v1.npz"
        assert v2.name == "model.v2.npz"
        assert v1.exists() and v2.exists()
        # An explicit .npz suffix is kept verbatim.
        explicit = save_cerl(learner, tmp_path / "model.v3.npz")
        assert explicit.name == "model.v3.npz"
        assert load_cerl(v1).domains_seen == learner.domains_seen

    def test_mmap_load_is_bit_identical_to_eager(
        self, tiny_domains, fast_model_config, fast_continual_config, tmp_path
    ):
        """The worker fast path: an uncompressed checkpoint loaded with
        ``mmap_mode='r'`` must predict bit-for-bit like the eager load."""
        stream = DomainStream(list(tiny_domains), seed=0)
        learner = CERL(stream.n_features, fast_model_config, fast_continual_config)
        learner.observe(stream.train_data(0))
        checkpoint = save_cerl(learner, tmp_path / "flat", compressed=False)

        eager = load_cerl(checkpoint)
        mapped = load_cerl(checkpoint, mmap_mode="r")
        covariates = stream[0].test.covariates
        eager_prediction = eager.predict(covariates)
        mapped_prediction = mapped.predict(covariates)
        np.testing.assert_array_equal(
            mapped_prediction.ite_hat, eager_prediction.ite_hat
        )
        np.testing.assert_array_equal(mapped_prediction.y0_hat, eager_prediction.y0_hat)
        np.testing.assert_array_equal(mapped_prediction.y1_hat, eager_prediction.y1_hat)

    def test_mmap_load_shares_pages_instead_of_copying(
        self, tiny_domains, fast_model_config, fast_continual_config, tmp_path
    ):
        """Zero-copy means the big buffers really are file-backed views.

        Arrays adopted by reference (the standardiser statistics) stay
        ``np.memmap`` instances; the representation memory passes through
        ``np.asarray``, which downcasts the memmap subclass to a base-class
        *view* — still zero-copy, with the memmap as its ``.base``.
        """
        stream = DomainStream(list(tiny_domains), seed=0)
        learner = CERL(stream.n_features, fast_model_config, fast_continual_config)
        learner.observe(stream.train_data(0))
        checkpoint = save_cerl(learner, tmp_path / "flat", compressed=False)

        mapped = load_cerl(checkpoint, mmap_mode="r")
        assert isinstance(mapped.encoder.scaler.mean_, np.memmap)
        representations = mapped.memory.representations
        assert isinstance(representations, np.memmap) or isinstance(
            representations.base, np.memmap
        )

    def test_mmap_mode_on_compressed_checkpoint_falls_back_eager(
        self, tiny_domains, fast_model_config, fast_continual_config, tmp_path
    ):
        """Compressed members have no on-disk bytes to map; ``mmap_mode``
        must degrade to an eager read with identical values, not fail."""
        stream = DomainStream(list(tiny_domains), seed=0)
        learner = CERL(stream.n_features, fast_model_config, fast_continual_config)
        learner.observe(stream.train_data(0))
        checkpoint = save_cerl(learner, tmp_path / "packed", compressed=True)

        mapped = load_cerl(checkpoint, mmap_mode="r")
        assert not isinstance(mapped.encoder.scaler.mean_, np.memmap)
        covariates = stream[0].test.covariates
        np.testing.assert_array_equal(
            mapped.predict(covariates).ite_hat,
            load_cerl(checkpoint).predict(covariates).ite_hat,
        )

    def test_save_modules_dotted_names(self, tmp_path):
        from repro.core import load_modules, save_modules
        from repro.nn import Linear

        module = Linear(3, 2, rng=np.random.default_rng(0))
        path = save_modules({"m": module}, tmp_path / "enc.stage1")
        assert path.name == "enc.stage1.npz"
        clone = Linear(3, 2, rng=np.random.default_rng(1))
        load_modules({"m": clone}, path)
        np.testing.assert_array_equal(clone.weight.data, module.weight.data)

    def test_crash_mid_save_never_truncates_existing_checkpoint(
        self, tiny_dataset, fast_model_config, fast_continual_config, tmp_path, monkeypatch
    ):
        """Saves go through a temp file + ``os.replace``: a crash while
        writing must leave the previous archive intact and no debris."""
        learner = CERL(tiny_dataset.n_features, fast_model_config, fast_continual_config)
        learner.observe(tiny_dataset)
        target = save_cerl(learner, tmp_path / "stable")
        good_bytes = target.read_bytes()

        import repro.core.persistence as persistence

        def explode(handle, **arrays):
            handle.write(b"partial garbage")
            raise RuntimeError("disk full")

        monkeypatch.setattr(persistence.np, "savez_compressed", explode)
        with pytest.raises(RuntimeError, match="disk full"):
            save_cerl(learner, target)
        assert target.read_bytes() == good_bytes  # old checkpoint untouched
        assert list(tmp_path.iterdir()) == [target]  # no temp debris
        assert load_cerl(target).domains_seen == learner.domains_seen


def _stamp_model_config(path, **fields) -> None:
    """Rewrite an archive's ``meta_json`` with extra ``model_config`` keys."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
    meta["model_config"].update(fields)
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


class TestArchivesWithRetiredBackendKey:
    """Archives store ``asdict(model_config)``, so every archive written while
    ``ModelConfig`` had a ``backend`` field carries that key; both of its
    values trained bit-identical parameters, so such archives must load and
    predict exactly like the learner that was saved."""

    @pytest.fixture
    def stream(self, tiny_domains):
        return DomainStream(list(tiny_domains), seed=0)

    def _save(self, name, stream, model_config, continual_config, tmp_path, **fields):
        learner = make_estimator(name, stream.n_features, model_config, continual_config)
        learner.observe(stream.train_data(0), epochs=2)
        registry = ModelRegistry(tmp_path / "registry")
        path = registry.save("stream", 0, learner).path
        _stamp_model_config(path, **fields)
        return learner, registry, path

    @pytest.mark.parametrize("backend", ["eager", "tape"])
    @pytest.mark.parametrize("name", ["CERL", "R-learner"])
    def test_archive_with_backend_key_loads_bit_identically(
        self, name, backend, stream, fast_model_config, fast_continual_config, tmp_path
    ):
        learner, registry, path = self._save(
            name, stream, fast_model_config, fast_continual_config, tmp_path, backend=backend
        )
        restored = [load_estimator(path), registry.load("stream")]
        if name == "CERL":
            restored.append(load_cerl(path))
        probe = stream[0].test.covariates
        expected = learner.predict(probe)
        for candidate in restored:
            assert type(candidate) is type(learner)
            assert candidate.model_config == learner.model_config
            prediction = candidate.predict(probe)
            np.testing.assert_array_equal(prediction.y0_hat, expected.y0_hat)
            np.testing.assert_array_equal(prediction.y1_hat, expected.y1_hat)

    @pytest.mark.parametrize("name", ["CERL", "R-learner"])
    def test_other_unknown_model_config_keys_still_raise(
        self, name, stream, fast_model_config, fast_continual_config, tmp_path
    ):
        _, registry, path = self._save(
            name,
            stream,
            fast_model_config,
            fast_continual_config,
            tmp_path,
            backend="eager",
            warm_restarts=3,
        )
        loaders = [lambda: load_estimator(path), lambda: registry.load("stream")]
        if name == "CERL":
            loaders.append(lambda: load_cerl(path))
        for load in loaders:
            with pytest.raises(TypeError, match="warm_restarts"):
                load()
