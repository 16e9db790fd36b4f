"""Tests for certified batch padding in the prediction service.

A service pads each micro-batch to the smallest power-of-two size it has
certified to reproduce the ``max_batch`` answers bit for bit, and to
``max_batch`` when none is certified.  The load-bearing properties:

* a size whose answers differ from the canonical ones in the last bit is
  refused, and responses still equal the ``max_batch`` answers;
* the certificate belongs to the learner that executes a batch, across hot
  swaps under concurrent load;
* certification is invisible: its probe rows never reach observers, the
  response cache or any stats counter, and a probe that raises fails only
  the batch that triggered it.

A real CERL model's batch sizes are pinned in ``test_service.py``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.metrics import EffectEstimate
from repro.serve import PredictionService, ServingGateway

N_FEATURES = 4


class DriftingStub:
    """Row-wise learner whose answers move one ulp at some batch sizes.

    Stands in for a BLAS whose kernels for those sizes sum in another
    order: in a batch of ``n`` rows with ``drifts(n)`` every answer rounds
    one ulp up.  ``sizes`` records the row count of every ``predict`` call.
    """

    def __init__(self, drifts, offset: float = 0.0) -> None:
        self.n_features = N_FEATURES
        self.drifts = drifts
        self.offset = offset
        self.sizes: list = []

    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        self.sizes.append(len(covariates))
        mu0 = covariates.sum(axis=1) + self.offset
        if self.drifts(len(covariates)):
            mu0 = np.nextafter(mu0, np.inf)
        return EffectEstimate(y0_hat=mu0, y1_hat=2.0 * mu0 + 1.0)


def below(size: int):
    """Drift in every batch of fewer than ``size`` rows."""
    return lambda n: n < size


class FeaturelessStub(DriftingStub):
    """A learner that does not declare ``n_features``: it cannot be probed."""

    def __init__(self) -> None:
        super().__init__(drifts=below(1))
        del self.n_features


class ExplodingStub:
    """A learner whose every ``predict`` raises, counting the attempts."""

    n_features = N_FEATURES

    def __init__(self) -> None:
        self.calls = 0

    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        self.calls += 1
        raise RuntimeError("probe exploded")


def rows(count: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(count, N_FEATURES))


def assert_canonical(response, reference: EffectEstimate, index: int) -> None:
    assert response.mu0 == reference.y0_hat[index]
    assert response.mu1 == reference.y1_hat[index]
    assert response.ite == reference.ite_hat[index]


class TestCertificate:
    def test_sizes_that_round_differently_are_refused(self):
        stub = DriftingStub(below(16))
        queries = rows(64)
        reference = stub.predict(queries)
        with PredictionService(stub, max_batch=64) as service:
            assert service.certified_sizes is None  # certified lazily
            assert_canonical(service.predict_one(queries[0]), reference, 0)
            assert service.certified_sizes == (16, 32)
            stub.sizes.clear()
            for index in range(1, 5):
                assert_canonical(service.predict_one(queries[index]), reference, index)
        assert stub.sizes == [16] * 4

    def test_learner_without_n_features_pads_to_max_batch(self):
        stub = FeaturelessStub()
        queries = rows(8)
        reference = stub.predict(np.tile(queries[0], (16, 1)))
        with PredictionService(stub, max_batch=16) as service:
            stub.sizes.clear()
            assert_canonical(service.predict_one(queries[0]), reference, 0)
            assert service.predict_one(queries[1]) is not None
            assert service.certified_sizes == ()
        assert stub.sizes == [16, 16]

    def test_every_response_matches_the_certificate_of_its_version(self):
        """Hot swaps between learners certified for disjoint sizes, under
        8 client threads: each answer equals the canonical answer of the
        version it reports, so no batch was padded per the other learner's
        certificate."""
        learners = {
            0: DriftingStub(below(32)),  # certifies (32,)
            1: DriftingStub(lambda n: 8 <= n < 64, offset=0.5),  # certifies (1, 2, 4)
        }
        queries = rows(64, seed=1)
        references = {version: stub.predict(queries) for version, stub in learners.items()}
        n_threads, per_thread = 8, 60
        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PredictionService(learners[0], model_version=0, max_batch=64) as service:
                stop = threading.Event()
                failures: list = []
                versions: list = []

                def swapper() -> None:
                    # Random, not alternating, versions: lock hand-offs can
                    # fall into step with a strict alternation.
                    rng = np.random.default_rng(99)
                    while not stop.is_set():
                        version = int(rng.integers(2))
                        service.swap_model(learners[version], model_version=version)

                def client(thread_index: int) -> None:
                    indices = np.random.default_rng(thread_index).integers(
                        0, len(queries), size=per_thread
                    )
                    for index in indices:
                        response = service.predict_one(queries[index], timeout=60.0)
                        versions.append(response.model_version)
                        reference = references[response.model_version]
                        if (
                            response.mu0 != reference.y0_hat[index]
                            or response.mu1 != reference.y1_hat[index]
                            or response.ite != reference.ite_hat[index]
                        ):
                            failures.append((response.model_version, index))

                swap_thread = threading.Thread(target=swapper)
                clients = [
                    threading.Thread(target=client, args=(index,)) for index in range(n_threads)
                ]
                swap_thread.start()
                for thread in clients:
                    thread.start()
                try:
                    for thread in clients:
                        thread.join(timeout=120.0)
                finally:
                    stop.set()
                    swap_thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous_interval)
        assert not swap_thread.is_alive()
        assert not any(thread.is_alive() for thread in clients)
        assert failures == []
        assert len(versions) == n_threads * per_thread
        assert set(versions) == {0, 1}


class TestCertificationIsInvisible:
    def test_probe_rows_reach_no_observer_cache_or_stats(self):
        stub = DriftingStub(below(8))
        queries = rows(6, seed=2)
        reference = stub.predict(np.tile(queries[0], (32, 1)))
        seen: list = []
        with ServingGateway(
            loader=lambda stream: (stub, 0), n_shards=1, max_batch=32, cache_capacity=64
        ) as gateway:
            service = gateway.service("s")
            service.add_observer(seen.append)
            assert_canonical(gateway.predict_one("s", queries[0]), reference, 0)
            for index in range(1, len(queries)):
                gateway.predict_one("s", queries[index])
            gateway.predict_one("s", queries[0])  # a cache hit
            assert service.certified_sizes == (8, 16)
            stats = gateway.stats()
            service_stats = service.stats()
        np.testing.assert_array_equal(np.concatenate(seen), queries)
        assert stats.answered == len(queries) + 1
        assert stats.cache_hits == 1
        assert stats.shards[0].cache.size == len(queries)
        assert service_stats.queries == len(queries)
        assert service_stats.batches == len(queries)
        assert service_stats.largest_batch == 1

    def test_failed_certification_fails_only_its_batch(self):
        """A probe that raises fails the batch that triggered it; the next
        batch certifies again, and a swap to a good learner serves."""
        exploding = ExplodingStub()
        good = DriftingStub(below(4))
        queries = rows(4, seed=3)
        reference = good.predict(np.tile(queries[2], (16, 1)))
        seen: list = []
        with PredictionService(exploding, model_version=0, max_batch=16) as service:
            service.add_observer(seen.append)
            for index in range(2):
                with pytest.raises(RuntimeError, match="probe exploded"):
                    service.predict_one(queries[index], timeout=30.0)
            assert exploding.calls == 2  # each batch tried to certify
            assert service.certified_sizes is None
            service.swap_model(good, model_version=1)
            response = service.predict_one(queries[2], timeout=30.0)
            assert response.model_version == 1
            assert_canonical(response, reference, 0)
            assert service.certified_sizes == (4, 8)
        np.testing.assert_array_equal(np.concatenate(seen), queries[2:3])
