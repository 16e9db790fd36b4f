"""Tests for the micro-batching prediction service.

The load-bearing property is exactness under concurrency: every coalesced
response must be bit-identical to a direct batched ``predict`` over the same
units, no matter how the dispatcher happened to cut the batches.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import CERL, ContinualConfig, ModelConfig
from repro.data import DomainStream, SyntheticConfig, SyntheticDomainGenerator
from repro.serve import MicroBatcher, PredictionService


@pytest.fixture(scope="module")
def served():
    """A trained learner, its stream, and a bank of query rows.

    Module-scoped (training once is enough): every test treats the learner as
    read-only serving state.
    """
    generator = SyntheticDomainGenerator(
        SyntheticConfig(
            n_confounders=6,
            n_instruments=3,
            n_irrelevant=4,
            n_adjustment=6,
            n_units=160,
            domain_mean_shift=1.5,
            outcome_scale=5.0,
        ),
        seed=7,
    )
    stream = DomainStream(
        [generator.generate_domain(0), generator.generate_domain(1)], seed=0
    )
    model_config = ModelConfig(
        representation_dim=8,
        encoder_hidden=(16,),
        outcome_hidden=(8,),
        epochs=4,
        batch_size=64,
        sinkhorn_iterations=10,
        seed=3,
    )
    continual_config = ContinualConfig(memory_budget=40, rehearsal_batch_size=32)
    learner = CERL(stream.n_features, model_config, continual_config)
    learner.observe(stream.train_data(0))
    learner.observe(stream.train_data(1))
    queries = np.concatenate(
        [stream[0].test.covariates, stream[1].test.covariates], axis=0
    )
    return learner, stream, queries


class TestSingleQueries:
    def test_predict_one_matches_direct_batched_predict(self, served):
        learner, _, queries = served
        # The canonical execution size equals the reference batch, so the
        # bit-identical guarantee is unconditional (see service module doc).
        reference = learner.predict(queries)
        with PredictionService(
            learner, model_version=1, max_batch=len(queries)
        ) as service:
            for index in (0, 3, 17):
                response = service.predict_one(queries[index])
                assert response.mu0 == reference.y0_hat[index]
                assert response.mu1 == reference.y1_hat[index]
                assert response.ite == reference.ite_hat[index]
                assert response.model_version == 1

    def test_accepts_row_and_1xp_shapes(self, served):
        learner, _, queries = served
        with PredictionService(learner) as service:
            flat = service.predict_one(queries[0])
            two_d = service.predict_one(queries[0][None, :])
            assert flat == two_d

    def test_submitted_rows_are_snapshotted(self, served):
        """A client may reuse one buffer across asynchronous submits; each
        queued query must answer for the values at submit time, not whatever
        the buffer holds when the batch is finally cut."""
        learner, _, queries = served
        reference = learner.predict(queries)
        with PredictionService(
            learner, max_batch=len(queries), max_wait_ms=200.0
        ) as service:
            buffer = np.array(queries[0])
            first = service.submit(buffer)
            buffer[:] = queries[1]  # overwritten inside the coalescing window
            second = service.submit(buffer)
            assert first.result(timeout=30.0).ite == reference.ite_hat[0]
            assert second.result(timeout=30.0).ite == reference.ite_hat[1]

    def test_rejects_malformed_queries(self, served):
        learner, _, queries = served
        with PredictionService(learner) as service:
            with pytest.raises(ValueError, match="1-D covariate vector"):
                service.submit(queries[:2])
            with pytest.raises(ValueError, match="model expects"):
                service.submit(queries[0][:3])

    def test_direct_predict_passthrough(self, served):
        learner, _, queries = served
        with PredictionService(learner) as service:
            np.testing.assert_array_equal(
                service.predict(queries).ite_hat, learner.predict(queries).ite_hat
            )

    def test_submit_after_close_raises(self, served):
        learner, _, queries = served
        service = PredictionService(learner)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(queries[0])


class TestConcurrentLoad:
    def test_hammered_service_is_bit_identical_to_serial_reference(self, served):
        """Many client threads, answers checked one by one against a serial
        direct batched ``Module.infer``-path reference (acceptance criterion)."""
        learner, _, queries = served
        reference = learner.predict(queries)
        n_threads, per_thread = 8, 40
        assert len(queries) >= per_thread

        with PredictionService(
            learner, max_batch=len(queries), max_wait_ms=1.0
        ) as service:
            failures: list = []
            barrier = threading.Barrier(n_threads)

            def client(thread_index: int) -> None:
                rng = np.random.default_rng(thread_index)
                indices = rng.integers(0, len(queries), size=per_thread)
                barrier.wait()  # maximise interleaving
                pendings = [(i, service.submit(queries[i])) for i in indices]
                for query_index, pending in pendings:
                    response = pending.result(timeout=30.0)
                    if (
                        response.mu0 != reference.y0_hat[query_index]
                        or response.mu1 != reference.y1_hat[query_index]
                        or response.ite != reference.ite_hat[query_index]
                    ):
                        failures.append(query_index)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()

        assert failures == []
        assert stats.queries == n_threads * per_thread
        # The whole point of the batcher: far fewer forwards than queries.
        assert stats.batches < stats.queries
        assert stats.largest_batch > 1

    def test_hot_swap_under_load_serves_consistent_versions(self, served):
        """Swapping the model mid-stream must never mix versions within one
        response: each answer matches the reference of the version it reports."""
        learner, stream, queries = served

        single = CERL(
            stream.n_features, learner.model_config, learner.continual_config
        )
        single.observe(stream.train_data(0))
        ref_by_version = {
            0: single.predict(queries),
            1: learner.predict(queries),
        }

        with PredictionService(
            learner, model_version=1, max_batch=len(queries)
        ) as service:
            stop = threading.Event()

            def swapper() -> None:
                flip = 0
                while not stop.is_set():
                    flip ^= 1
                    model = learner if flip else single
                    service.swap_model(model, model_version=flip)

            swap_thread = threading.Thread(target=swapper)
            swap_thread.start()
            try:
                for round_index in range(50):
                    query_index = round_index % len(queries)
                    response = service.predict_one(queries[query_index], timeout=30.0)
                    reference = ref_by_version[response.model_version]
                    assert response.mu0 == reference.y0_hat[query_index]
                    assert response.mu1 == reference.y1_hat[query_index]
                    assert response.ite == reference.ite_hat[query_index]
            finally:
                stop.set()
                swap_thread.join()


class TestCertifiedPadding:
    def test_cerl_batches_execute_only_at_certified_sizes(self, served):
        """At ``max_batch=256`` a real CERL model serves lone queries and
        concurrent bursts at certified pad sizes only, with the answers of
        a direct 256-row ``predict``."""
        learner, _, _ = served
        queries = np.random.default_rng(4).normal(size=(256, learner.n_features))
        reference = learner.predict(queries)
        sizes: list = []

        class PredictSpy:
            n_features = learner.n_features

            def predict(self, covariates):
                sizes.append(len(covariates))
                return learner.predict(covariates)

        with PredictionService(PredictSpy(), max_batch=256) as service:
            assert service.predict_one(queries[0]).ite == reference.ite_hat[0]
            certified = service.certified_sizes
            sizes.clear()
            for index in range(1, 4):
                assert service.predict_one(queries[index]).ite == reference.ite_hat[index]
            lone = list(sizes)
            barrier = threading.Barrier(4, timeout=60.0)
            failures: list = []

            def client(thread_index: int) -> None:
                barrier.wait()
                indices = range(thread_index, 256, 4)
                pendings = [(i, service.submit(queries[i])) for i in indices]
                for index, pending in pendings:
                    response = pending.result(timeout=60.0)
                    if (
                        response.mu0 != reference.y0_hat[index]
                        or response.mu1 != reference.y1_hat[index]
                        or response.ite != reference.ite_hat[index]
                    ):
                        failures.append(index)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert set(sizes) <= set(certified) | {256}
        assert lone == [min(certified, default=256)] * 3


class TestMicroBatcher:
    def test_coalesces_up_to_max_batch(self):
        seen_sizes: list = []

        def run_batch(stacked):
            seen_sizes.append(stacked.shape[0])
            total = stacked.sum(axis=1)
            return total, total + 1.0, np.ones(len(stacked)), None

        batcher = MicroBatcher(run_batch, max_batch=4, max_wait_ms=20.0)
        pendings = [batcher.submit(np.full(3, float(i))) for i in range(10)]
        results = [p.result(timeout=10.0) for p in pendings]
        batcher.close()
        assert all(size <= 4 for size in seen_sizes)
        assert [r.mu0 for r in results] == [3.0 * i for i in range(10)]

    def test_batch_failure_propagates_to_every_caller_and_survives(self):
        calls = {"count": 0}

        def run_batch(stacked):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("model exploded")
            total = stacked.sum(axis=1)
            return total, total, np.zeros(len(stacked)), None

        batcher = MicroBatcher(run_batch, max_batch=8, max_wait_ms=0.0)
        failing = batcher.submit(np.ones(2))
        with pytest.raises(RuntimeError, match="model exploded"):
            failing.result(timeout=10.0)
        # The dispatcher must outlive a failed batch.
        ok = batcher.submit(np.ones(2))
        assert ok.result(timeout=10.0).mu0 == 2.0
        batcher.close()

    def test_close_drains_queued_work(self):
        release = threading.Event()

        def run_batch(stacked):
            release.wait(10.0)
            total = stacked.sum(axis=1)
            return total, total, total, None

        batcher = MicroBatcher(run_batch, max_batch=1, max_wait_ms=0.0)
        pendings = [batcher.submit(np.array([float(i)])) for i in range(3)]
        release.set()
        batcher.close()
        assert [p.result(timeout=1.0).mu0 for p in pendings] == [0.0, 1.0, 2.0]

    def test_invalid_parameters(self):
        run = lambda stacked: (None, None, None, None)  # noqa: E731
        with pytest.raises(ValueError):
            MicroBatcher(run, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(run, max_wait_ms=-1.0)


class TestMicroBatcherClose:
    def test_submit_after_close_raises_instead_of_hanging(self):
        """A query enqueued after close() would never be dispatched and its
        caller would block forever on .result(); submit must fail loudly."""

        def run_batch(stacked):
            total = stacked.sum(axis=1)
            return total, total, total, None

        batcher = MicroBatcher(run_batch, max_batch=4)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed MicroBatcher"):
            batcher.submit(np.ones(2))
        batcher.close()  # idempotent

    def test_close_concurrent_with_submitters_never_loses_answers(self):
        """Racing submit against close: every submit either raises the closed
        error or returns a handle that resolves — no silent hangs."""

        def run_batch(stacked):
            total = stacked.sum(axis=1)
            return total, total, total, None

        batcher = MicroBatcher(run_batch, max_batch=4)
        outcomes: list = []
        barrier = threading.Barrier(4)

        def client() -> None:
            barrier.wait()
            for _ in range(50):
                try:
                    pending = batcher.submit(np.ones(2))
                except RuntimeError:
                    outcomes.append("rejected")
                    return
                outcomes.append(pending.result(timeout=10.0).mu0)

        def closer() -> None:
            barrier.wait()
            batcher.close()

        threads = [threading.Thread(target=client) for _ in range(3)]
        threads.append(threading.Thread(target=closer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(outcome == 2.0 or outcome == "rejected" for outcome in outcomes)


class TestTrafficObservers:
    def test_observers_see_submitted_rows_in_order(self, served):
        learner, _, queries = served
        seen: list = []
        with PredictionService(learner, max_batch=8) as service:
            service.add_observer(seen.append)
            for index in range(3):
                service.predict_one(queries[index])
        assert [rows.shape for rows in seen] == [(1, queries.shape[1])] * 3
        np.testing.assert_array_equal(np.concatenate(seen), queries[:3])

    def test_observers_see_direct_predict_batches(self, served):
        learner, _, queries = served
        seen: list = []
        with PredictionService(learner) as service:
            service.add_observer(seen.append)
            service.predict(queries[:5])
        assert len(seen) == 1 and seen[0].shape == (5, queries.shape[1])

    def test_removed_observer_stops_seeing_traffic(self, served):
        learner, _, queries = served
        seen: list = []
        with PredictionService(learner) as service:
            service.add_observer(seen.append)
            service.predict_one(queries[0])
            service.remove_observer(seen.append)
            service.predict_one(queries[1])
        assert len(seen) == 1

    def test_rejected_submit_is_not_recorded(self, served):
        """A closed service must not phantom-record queries it rejected."""
        learner, _, queries = served
        seen: list = []
        service = PredictionService(learner)
        service.add_observer(seen.append)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(queries[0])
        assert seen == []

    def test_failed_predict_is_not_recorded(self, served):
        """Queries that were never answered must not enter drift windows."""
        learner, _, queries = served
        seen: list = []

        class ExplodingLearner:
            n_features = learner.n_features

            def predict(self, covariates):
                raise RuntimeError("model exploded")

        with PredictionService(ExplodingLearner()) as service:
            service.add_observer(seen.append)
            with pytest.raises(RuntimeError, match="model exploded"):
                service.predict(queries[:4])
            failing = service.submit(queries[0])
            with pytest.raises(RuntimeError, match="model exploded"):
                failing.result(timeout=30.0)
        assert seen == []

    def test_observed_rows_are_read_only(self, served):
        """A misbehaving observer must not be able to rewrite queued queries
        or the caller's own covariate array."""
        learner, _, queries = served
        seen: list = []
        with PredictionService(learner, max_batch=4) as service:
            service.add_observer(seen.append)
            service.predict_one(queries[0])
            service.predict(queries[:3])
        assert len(seen) == 2
        for rows in seen:
            assert not rows.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                rows[0, 0] = 0.0
        assert queries.flags.writeable  # the caller's array stays writable
