"""Integration tests for the out-of-process shard fleet.

Two layers are pinned here:

* :class:`WorkerServer` — exercised in-process (served from a thread, spoken
  to over a raw loopback socket) so the worker's protocol edge cases are
  testable without forking: one-row predicts, typed error frames, pipelined
  out-of-order completion, the predicts of one read batched per stream and
  answered with one write, and survival of malformed/oversized/truncated
  frames (the poisoned connection dies, the worker lives).
* :class:`MultiprocGateway` — real spawned worker processes behind the
  blocking-socket front door: bitwise identity across the process boundary,
  writes combined from the callers' threads, the response cache, per-tenant
  rate limits and quotas (typed shedding), hot swaps through the
  ``AdaptationController``-compatible handle, and the kill/restart/close
  lifecycle.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import os
import socket
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import CERL, ContinualConfig, ModelConfig
from repro.data import DomainStream, SyntheticConfig, SyntheticDomainGenerator
from repro.experiments.multiproc import _spanning_names
from repro.serve import (
    ModelRegistry,
    MultiprocGateway,
    ShardRouter,
    TenantPolicy,
)
from repro.serve.fleet import (
    FleetManager,
    QuotaExceeded,
    RateLimited,
    RemoteError,
    WorkerServer,
    WorkerUnavailable,
)
from repro.serve.fleet.wire import (
    WIRE_DTYPE,
    FrameParser,
    encode_frame,
    read_frame,
    write_frame,
)

_PREFIX = struct.Struct(">II")


class FleetSetup:
    """Shared registry + bitwise references for every test in this module."""

    def __init__(self, root) -> None:
        config = SyntheticConfig(
            n_confounders=6,
            n_instruments=3,
            n_irrelevant=4,
            n_adjustment=6,
            n_units=160,
            domain_mean_shift=1.5,
            outcome_scale=5.0,
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
        continual = ContinualConfig(memory_budget=40, rehearsal_batch_size=32)
        generator = SyntheticDomainGenerator(config, seed=7)
        self.stream = DomainStream(
            [generator.generate_domain(0), generator.generate_domain(1)], seed=7
        )
        learner = CERL(self.stream.n_features, model_config, continual)
        learner.observe(self.stream.train_data(0))
        self.learner = learner
        # The adapted lineage for hot-swap tests: one more observed domain.
        self.learner_v1 = copy.deepcopy(learner)
        self.learner_v1.observe(self.stream.train_data(1))

        self.root = root
        self.registry = ModelRegistry(root)
        self.names = _spanning_names("fleet", 4, 2)
        for name in self.names:
            self.registry.save(name, 0, learner)

        self.bank = self.stream[0].test.covariates
        self.reference = learner.predict(self.bank)
        self.reference_v1 = self.learner_v1.predict(self.bank)

    def matches(self, response, index: int, reference=None) -> bool:
        reference = reference if reference is not None else self.reference
        return (
            response.mu0 == reference.y0_hat[index]
            and response.mu1 == reference.y1_hat[index]
            and response.ite == reference.ite_hat[index]
        )


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    return FleetSetup(str(tmp_path_factory.mktemp("fleet-registry")))


# --------------------------------------------------------------------------- #
# worker protocol (in-process server, raw socket client)
# --------------------------------------------------------------------------- #
@pytest.fixture
def worker(setup):
    server = WorkerServer(setup.root, (setup.names[0],), max_batch=len(setup.bank))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5.0)


def connect(server: WorkerServer) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10.0)
    sock.settimeout(10.0)
    return sock


def predict_header(setup, request_id: int, rows: np.ndarray, stream=None) -> dict:
    return {
        "op": "predict",
        "id": request_id,
        "stream": stream or setup.names[0],
        "shape": list(rows.shape),
        "dtype": WIRE_DTYPE,
    }


def roundtrip(sock, header: dict, payload: bytes = b""):
    write_frame(sock, header, payload)
    return read_frame(sock)


def predict_frame(setup, request_id: int, rows: np.ndarray, stream=None) -> bytes:
    return encode_frame(predict_header(setup, request_id, rows, stream), rows.tobytes())


class TestWorkerProtocol:
    def test_predict_is_bitwise_identical_to_in_process(self, setup, worker):
        with connect(worker) as sock:
            for index in (0, 7, len(setup.bank) - 1):
                rows = setup.bank[index : index + 1]
                header, payload = roundtrip(
                    sock, predict_header(setup, index, rows), rows.tobytes()
                )
                assert header["op"] == "result" and header["id"] == index
                assert header["model_version"] == 0
                mu0, mu1, ite = np.frombuffer(payload, dtype=np.float64)
                assert mu0 == setup.reference.y0_hat[index]
                assert mu1 == setup.reference.y1_hat[index]
                assert ite == setup.reference.ite_hat[index]

    def test_pipelined_requests_complete_and_pair_by_id(self, setup, worker):
        indices = [3, 11, 5, 2, 19, 8]
        with connect(worker) as sock:
            for request_id, index in enumerate(indices):
                rows = setup.bank[index : index + 1]
                write_frame(
                    sock, predict_header(setup, request_id, rows), rows.tobytes()
                )
            answers = {}
            for _ in indices:
                header, payload = read_frame(sock)
                assert header["op"] == "result"
                answers[header["id"]] = np.frombuffer(payload, dtype=np.float64)
        assert sorted(answers) == list(range(len(indices)))
        for request_id, index in enumerate(indices):
            assert answers[request_id][2] == setup.reference.ite_hat[index]

    def test_burst_is_answered_with_fewer_writes_than_answers(
        self, setup, worker, monkeypatch
    ):
        writes = []
        sendall = socket.socket.sendall

        def counting(sock, data, *args):
            if sock.getsockname()[1] == worker.port:  # the worker's side
                writes.append(len(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting)
        indices = range(32)
        burst = b"".join(
            encode_frame(
                predict_header(setup, index, setup.bank[index : index + 1]),
                setup.bank[index : index + 1].tobytes(),
            )
            for index in indices
        )
        answers = {}
        with connect(worker) as sock:
            sock.sendall(burst)
            for _ in indices:
                header, payload = read_frame(sock)
                assert header["op"] == "result"
                answers[header["id"]] = np.frombuffer(payload, dtype=np.float64)
        assert sorted(answers) == list(indices)
        for index in indices:
            assert answers[index][2] == setup.reference.ite_hat[index]
        assert 0 < len(writes) < len(indices)

    def test_one_read_is_batched_per_stream_and_answered_bitwise(self, setup):
        """16 predicts for each of two streams and a ping in one write: every
        answer pairs by id and is bit-exact, and the predicts ran in far
        fewer batches than queries."""
        streams = setup.names[:2]
        server = WorkerServer(setup.root, tuple(streams), max_batch=len(setup.bank))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            queries = {
                request_id: (streams[request_id % 2], request_id)
                for request_id in range(32)
            }
            burst = [
                predict_frame(setup, request_id, setup.bank[index : index + 1], stream)
                for request_id, (stream, index) in queries.items()
            ]
            burst.insert(16, encode_frame({"op": "ping", "id": 99}))
            answers, pong = {}, None
            with connect(server) as sock:
                sock.sendall(b"".join(burst))
                for _ in range(len(burst)):
                    header, payload = read_frame(sock)
                    if header["op"] == "pong":
                        pong = header
                        continue
                    assert header["op"] == "result"
                    answers[header["id"]] = (header["model_version"], payload)
                stats, _ = roundtrip(sock, {"op": "stats", "id": 100})
        finally:
            server.shutdown()
            thread.join(timeout=5.0)
        assert pong is not None and pong["id"] == 99
        assert sorted(answers) == sorted(queries)
        for request_id, (_, index) in queries.items():
            version, payload = answers[request_id]
            reference = setup.reference_v1 if version == 1 else setup.reference
            mu0, mu1, ite = np.frombuffer(payload, dtype=np.float64)
            assert (mu0, mu1, ite) == (
                reference.y0_hat[index],
                reference.y1_hat[index],
                reference.ite_hat[index],
            )
        assert stats["op"] == "stats" and stats["queries"] == 32
        assert 0 < stats["batches"] < stats["queries"]

    def test_bad_frames_in_a_read_answer_typed_and_the_rest_bitwise(self, setup, worker):
        good = {0: 3, 2: 8, 4: 15}
        burst = [
            predict_frame(setup, request_id, setup.bank[index : index + 1])
            for request_id, index in good.items()
        ]
        burst.insert(1, predict_frame(setup, 1, setup.bank[:1], stream="nobody"))
        burst.insert(3, predict_frame(setup, 3, setup.bank[:2]))
        with connect(worker) as sock:
            sock.sendall(b"".join(burst))
            frames = {}
            for _ in range(len(burst)):
                header, payload = read_frame(sock)
                frames[header["id"]] = (header, payload)
            assert frames[1][0]["op"] == "error" and frames[1][0]["error"] == "KeyError"
            assert frames[3][0]["op"] == "error" and frames[3][0]["error"] == "ValueError"
            for request_id, index in good.items():
                header, payload = frames[request_id]
                assert header["op"] == "result"
                assert np.frombuffer(payload, dtype=np.float64)[2] == setup.reference.ite_hat[index]
            # The connection keeps serving.
            assert roundtrip(sock, {"op": "ping", "id": 5})[0]["op"] == "pong"
            rows = setup.bank[9:10]
            header, payload = roundtrip(sock, predict_header(setup, 6, rows), rows.tobytes())
            assert np.frombuffer(payload, dtype=np.float64)[2] == setup.reference.ite_hat[9]

    def test_batch_whose_model_raises_answers_each_query_typed(
        self, setup, worker, monkeypatch
    ):
        learner = worker.models[setup.names[0]]._learner
        predict = learner.predict
        calls = []

        def explode_once(covariates):
            calls.append(len(covariates))
            if len(calls) == 1:
                raise RuntimeError("model exploded")
            return predict(covariates)

        monkeypatch.setattr(learner, "predict", explode_once)
        indices = [4, 6, 12]

        def burst():
            return b"".join(
                predict_frame(setup, index, setup.bank[index : index + 1]) for index in indices
            )

        with connect(worker) as sock:
            sock.sendall(burst())
            failed = [read_frame(sock)[0] for _ in indices]
            assert sorted(header["id"] for header in failed) == indices
            for header in failed:
                assert header["op"] == "error" and header["error"] == "RuntimeError"
                assert "model exploded" in header["message"]
            sock.sendall(burst())
            for _ in indices:
                header, payload = read_frame(sock)
                assert header["op"] == "result"
                mu0, mu1, ite = np.frombuffer(payload, dtype=np.float64)
                index = header["id"]
                assert mu0 == setup.reference.y0_hat[index]
                assert mu1 == setup.reference.y1_hat[index]
                assert ite == setup.reference.ite_hat[index]

    def test_zero_row_predict_answers_typed_error(self, setup, worker):
        with connect(worker) as sock:
            rows = setup.bank[:0]
            header, _ = roundtrip(
                sock, predict_header(setup, 1, rows), rows.tobytes()
            )
            assert header["op"] == "error" and header["id"] == 1
            assert header["error"] == "ValueError"
            assert "exactly one query row" in header["message"]
            # The connection survived the refused request.
            assert roundtrip(sock, {"op": "ping", "id": 2})[0]["op"] == "pong"

    def test_multi_row_predict_answers_typed_error(self, setup, worker):
        with connect(worker) as sock:
            rows = setup.bank[:2]
            header, _ = roundtrip(sock, predict_header(setup, 1, rows), rows.tobytes())
            assert header["op"] == "error" and header["error"] == "ValueError"

    def test_unknown_stream_answers_typed_error(self, setup, worker):
        with connect(worker) as sock:
            rows = setup.bank[:1]
            header, _ = roundtrip(
                sock,
                predict_header(setup, 1, rows, stream="nobody"),
                rows.tobytes(),
            )
            assert header["op"] == "error" and header["error"] == "KeyError"

    def test_unknown_op_answers_typed_error(self, setup, worker):
        with connect(worker) as sock:
            header, _ = roundtrip(sock, {"op": "frobnicate", "id": 9})
            assert header["op"] == "error" and header["error"] == "ValueError"

    def test_float32_payload_poisons_only_its_connection(self, setup, worker):
        """A peer that skipped ``encode_rows`` is cut off (ProtocolError is
        connection-fatal), and the worker keeps serving new connections —
        the rejection is symmetric with the client side's ``decode_array``."""
        with connect(worker) as sock:
            rows = setup.bank[:1].astype(np.float32)
            header = predict_header(setup, 1, rows)
            header["dtype"] = "<f4"
            write_frame(sock, header, rows.tobytes())
            assert read_frame(sock) is None  # worker closed the connection
        with connect(worker) as sock:
            assert roundtrip(sock, {"op": "ping", "id": 1})[0]["op"] == "pong"

    def test_oversized_frame_rejected_before_allocation(self, setup, worker):
        with connect(worker) as sock:
            # Declare a 2 GiB payload but send none: a worker that tried to
            # allocate or read it would hang; rejecting up front closes the
            # connection immediately.
            sock.sendall(_PREFIX.pack(2, 2**31) + b"{}")
            assert read_frame(sock) is None
        with connect(worker) as sock:
            assert roundtrip(sock, {"op": "ping", "id": 1})[0]["op"] == "pong"

    def test_truncated_frame_poisons_only_its_connection(self, setup, worker):
        sock = connect(worker)
        rows = setup.bank[:1]
        raw = rows.tobytes()
        sock.sendall(_PREFIX.pack(30, len(raw))+ b'{"op":"predict"')  # partial header
        sock.close()
        with connect(worker) as fresh:
            header, _ = roundtrip(fresh, {"op": "ping", "id": 1})
            assert header["op"] == "pong"
            assert setup.names[0] in header["streams"]

    def test_stats_and_reload_ops(self, setup, worker):
        with connect(worker) as sock:
            rows = setup.bank[:1]
            roundtrip(sock, predict_header(setup, 1, rows), rows.tobytes())
            header, _ = roundtrip(sock, {"op": "stats", "id": 2})
            assert header["op"] == "stats" and header["queries"] >= 1
            # Reload to the (only) registry version succeeds and reports it.
            header, _ = roundtrip(
                sock, {"op": "reload", "id": 3, "stream": setup.names[0]}
            )
            assert header["op"] == "reloaded" and header["model_version"] == 0


class TestWorkerChaos:
    """The SLO harness's straggler fault rides on the worker's chaos op."""

    @pytest.fixture
    def slow_worker(self, setup):
        delays = []
        server = WorkerServer(
            setup.root,
            (setup.names[0],),
            max_batch=len(setup.bank),
            delay_hook=delays.append,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server, delays
        server.shutdown()
        thread.join(timeout=5.0)

    def test_chaos_delay_is_applied_through_the_injected_hook(self, setup, slow_worker):
        server, delays = slow_worker
        rows = setup.bank[:1]
        with connect(server) as sock:
            header, _ = roundtrip(sock, {"op": "chaos", "id": 1, "delay_ms": 40.0})
            assert header["op"] == "chaos_set" and header["delay_ms"] == 40.0
            header, payload = roundtrip(
                sock, predict_header(setup, 2, rows), rows.tobytes()
            )
            assert header["op"] == "result"
            assert delays == [pytest.approx(0.04)]
            # Bitwise identity survives the straggler window: only latency
            # degrades, never the answer.
            mu0 = np.frombuffer(payload, dtype=np.float64)[0]
            assert mu0 == setup.reference.y0_hat[0]
            # Clearing the delay stops the hook firing.
            roundtrip(sock, {"op": "chaos", "id": 3, "delay_ms": 0.0})
            roundtrip(sock, predict_header(setup, 4, rows), rows.tobytes())
            assert len(delays) == 1

    def test_negative_delay_answers_typed_error(self, setup, slow_worker):
        server, _ = slow_worker
        with connect(server) as sock:
            header, _ = roundtrip(sock, {"op": "chaos", "id": 1, "delay_ms": -5.0})
            assert header["op"] == "error" and header["error"] == "ValueError"


# --------------------------------------------------------------------------- #
# multiprocess gateway (spawned workers)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def gateway(setup):
    with MultiprocGateway(
        setup.root,
        setup.names,
        n_workers=2,
        max_batch=len(setup.bank),
        cache_capacity=64,
        tenant_policies={
            setup.names[2]: TenantPolicy(quota=3),
            setup.names[3]: TenantPolicy(rate_qps=0.001, burst=1),
        },
    ) as gw:
        yield gw


class TestMultiprocGateway:
    def test_streams_span_both_workers(self, setup, gateway):
        assert {gateway.worker_for(name) for name in setup.names} == {0, 1}

    def test_bitwise_identity_across_process_boundary(self, setup, gateway):
        for name in setup.names[:2]:
            indices = np.random.default_rng(41).integers(0, len(setup.bank), size=12)
            pendings = [
                (int(i), gateway.submit(name, setup.bank[i])) for i in indices
            ]
            for index, pending in pendings:
                response = pending.result(timeout=60.0)
                assert response.model_version == 0
                assert setup.matches(response, index)

    def test_burst_is_written_in_submit_order(self, setup, gateway, monkeypatch):
        """A burst of submits reaches the wire in submit order, answered bitwise."""
        from repro.serve.fleet import frontdoor

        names = setup.names[:2]
        for name in names:  # fill both workers' connection pools
            for index in range(3):
                response = gateway.predict_one(name, setup.bank[index], timeout=60.0)
                assert setup.matches(response, index)
        written = []
        original = frontdoor.write_frame_async

        def record(writer, header, payload=b""):
            if header.get("op") == "predict":
                written.append((header["stream"], payload))
            return original(writer, header, payload)

        monkeypatch.setattr(frontdoor, "write_frame_async", record)
        # Fresh rows miss the response cache, so every one reaches the wire;
        # a bank-sized predict is their canonical-batch reference.
        rows = np.random.default_rng(43).normal(size=setup.bank.shape)
        reference = setup.learner.predict(rows)
        submitted = [(names[q % 2], q) for q in range(len(rows))]
        pendings = [gateway.submit(name, rows[i]) for name, i in submitted]
        for (_, index), pending in zip(submitted, pendings):
            assert setup.matches(pending.result(timeout=60.0), index, reference)
        assert written == [(name, rows[i].tobytes()) for name, i in submitted]

    def test_repeated_row_hits_the_response_cache(self, setup, gateway):
        name = setup.names[0]
        before = gateway.stats(include_worker_stats=False).cache_hits
        for _ in range(3):
            response = gateway.predict_one(name, setup.bank[5], timeout=60.0)
            assert setup.matches(response, 5)
        after = gateway.stats(include_worker_stats=False).cache_hits
        assert after >= before + 2

    def test_quota_sheds_typed_and_cache_hits_stay_free(self, setup, gateway):
        name = setup.names[2]
        for index in range(3):
            assert setup.matches(
                gateway.predict_one(name, setup.bank[index], timeout=60.0), index
            )
        with pytest.raises(QuotaExceeded) as info:
            gateway.predict_one(name, setup.bank[3], timeout=60.0)
        assert info.value.stream == name
        assert info.value.quota == 3 and info.value.admitted == 3
        # A cached repeat consumes no worker capacity: still served.
        assert setup.matches(gateway.predict_one(name, setup.bank[0], timeout=60.0), 0)
        assert gateway.stats(include_worker_stats=False).shed >= 1

    def test_rate_limit_sheds_typed_with_retry_hint(self, setup, gateway):
        name = setup.names[3]
        assert setup.matches(gateway.predict_one(name, setup.bank[9], timeout=60.0), 9)
        with pytest.raises(RateLimited) as info:
            gateway.predict_one(name, setup.bank[10], timeout=60.0)
        assert info.value.stream == name
        assert info.value.retry_after_s > 0.0
        # The cached first row is exempt from the bucket.
        assert setup.matches(gateway.predict_one(name, setup.bank[9], timeout=60.0), 9)

    def test_set_worker_delay_round_trips_and_validates(self, setup, gateway):
        with pytest.raises(ValueError, match="delay_ms"):
            gateway.set_worker_delay(0, -1.0)
        ack = gateway.set_worker_delay(0, 5.0)
        assert ack["delay_ms"] == 5.0
        try:
            name = setup.names[0]
            index = 11
            response = gateway.predict_one(name, setup.bank[index], timeout=60.0)
            assert setup.matches(response, index)  # slow, never wrong
        finally:
            assert gateway.set_worker_delay(0, 0.0)["delay_ms"] == 0.0

    def test_unrouted_stream_fails_with_remote_keyerror(self, setup, gateway):
        # Digest routing maps any name to *some* worker; the worker itself
        # refuses streams it does not own, and the refusal comes back typed.
        with pytest.raises(RemoteError) as info:
            gateway.predict_one("never-registered", setup.bank[0], timeout=60.0)
        assert info.value.kind == "KeyError"

    def test_stats_include_worker_micro_batcher_totals(self, setup, gateway):
        stats = gateway.stats()
        assert len(stats.shards) == 2
        assert stats.answered > 0
        assert sum(shard.service.queries for shard in stats.shards) > 0

    def test_hot_swap_serves_new_version_bitwise(self, setup, gateway):
        """The AdaptationController-compatible path: save v1, reload through
        the duck-typed handle, and the post-swap wave must match the adapted
        learner bit for bit while co-tenant streams stay on v0."""
        name = setup.names[1]
        setup.registry.save(name, 1, setup.learner_v1)
        handle = gateway.service(name)
        assert handle.reload(setup.registry, name) == 1
        for index in (2, 13):
            response = gateway.predict_one(name, setup.bank[index], timeout=60.0)
            assert response.model_version == 1
            assert setup.matches(response, index, setup.reference_v1)
        # Co-tenant on the same worker pool still serves version 0.
        other = setup.names[0]
        response = gateway.predict_one(other, setup.bank[2], timeout=60.0)
        assert response.model_version == 0
        assert setup.matches(response, 2)


# --------------------------------------------------------------------------- #
# front-door I/O: combined writes from the callers' threads, reader threads
# --------------------------------------------------------------------------- #
def fleet_threads(exclude=()) -> list:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-fleet") and thread not in exclude
    ]


@pytest.mark.slow
class TestFrontDoorIO:
    def test_submits_during_a_send_join_the_next_write(self, setup, monkeypatch):
        """While one caller is inside ``sendall``, 8 more submits from another
        thread return at once; their frames leave in one write, in submit
        order, and every answer is bitwise."""
        name = setup.names[0]
        with MultiprocGateway(
            setup.root, [name], n_workers=1, max_batch=len(setup.bank),
            pool_size=1, cache_capacity=0,
        ) as gateway:
            assert setup.matches(gateway.predict_one(name, setup.bank[0], timeout=60.0), 0)
            writes: list = []
            entered, release = threading.Event(), threading.Event()
            sendall = socket.socket.sendall

            def held(sock, data, *args):
                writes.append(bytes(data))
                if len(writes) == 1:
                    entered.set()
                    release.wait(30.0)
                return sendall(sock, data, *args)

            monkeypatch.setattr(socket.socket, "sendall", held)
            pendings = {}
            first = threading.Thread(
                target=lambda: pendings.update({1: gateway.submit(name, setup.bank[1])})
            )
            first.start()
            assert entered.wait(30.0)
            burst = list(range(2, 10))
            others = threading.Thread(
                target=lambda: pendings.update(
                    {index: gateway.submit(name, setup.bank[index]) for index in burst}
                )
            )
            others.start()
            others.join(timeout=10.0)
            assert not others.is_alive()  # the submits did not wait for the send
            assert len(writes) == 1
            release.set()
            first.join(timeout=30.0)
            assert not first.is_alive()
            for index, pending in pendings.items():
                assert setup.matches(pending.result(timeout=60.0), index)
            monkeypatch.undo()
        assert len(writes) == 2
        frames = list(FrameParser().feed(writes[1]))
        assert [header["op"] for header, _ in frames] == ["predict"] * len(burst)
        assert [payload for _, payload in frames] == [
            setup.bank[index].tobytes() for index in burst
        ]

    def test_concurrent_submitters_lose_no_frame(self, setup, gateway):
        """8 threads submit at once through the shared connections, with a
        short switch interval: every query is answered, bitwise, and no
        frame is left behind in an outbox."""
        names = setup.names[:2]
        n_threads = 8
        blocks = [
            np.random.default_rng(50 + thread).normal(size=setup.bank.shape)
            for thread in range(n_threads)
        ]
        references = [
            {0: setup.learner.predict(rows), 1: setup.learner_v1.predict(rows)}
            for rows in blocks
        ]
        failures: list = []
        barrier = threading.Barrier(n_threads, timeout=30.0)

        def client(thread: int) -> None:
            barrier.wait()
            name = names[thread % 2]
            pendings = [gateway.submit(name, row) for row in blocks[thread]]
            for index, pending in enumerate(pendings):
                response = pending.result(timeout=60.0)
                if not setup.matches(response, index, references[thread][response.model_version]):
                    failures.append((thread, index))

        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(t,)) for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(previous_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert gateway.stats(include_worker_stats=False).in_flight == 0

    def test_close_resolves_every_in_flight_query_and_joins_its_threads(self, setup):
        before = set(threading.enumerate())
        names = setup.names[:2]
        gateway = MultiprocGateway(
            setup.root, names, n_workers=2, max_batch=len(setup.bank), cache_capacity=0
        )
        try:
            for index in range(gateway.n_workers):
                gateway.set_worker_delay(index, 25.0)
            pendings = [
                (index, gateway.submit(names[index % 2], setup.bank[index]))
                for index in range(16)
            ]
            assert fleet_threads(before)  # the pooled connections' readers
        finally:
            gateway.close()
        for index, pending in pendings:
            assert pending.done()
            try:
                response = pending.result(timeout=0.0)
            except WorkerUnavailable:
                continue
            reference = setup.reference_v1 if response.model_version == 1 else None
            assert setup.matches(response, index, reference)
        assert fleet_threads(before) == []


def test_serving_imports_do_not_load_asyncio():
    script = (
        "import sys\n"
        "import repro.serve\n"
        "import repro.serve.fleet.worker\n"
        "print('asyncio' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    output = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert output.stdout.strip() == "False"


# --------------------------------------------------------------------------- #
# lifecycle: kill / restart / close (own gateway — it mutates the fleet)
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestFleetLifecycle:
    def test_kill_restart_and_close(self, setup):
        names = setup.names[:2]

        def check(response, index: int) -> bool:
            # The shared registry may already hold v1 for a stream (the
            # hot-swap test advances it); match against the reported version.
            reference = (
                setup.reference_v1 if response.model_version == 1 else setup.reference
            )
            return setup.matches(response, index, reference)
        with MultiprocGateway(
            setup.root,
            names,
            n_workers=2,
            max_batch=len(setup.bank),
            cache_capacity=0,
        ) as gateway:
            victim, survivor = names
            if gateway.worker_for(victim) == gateway.worker_for(survivor):
                pytest.skip("streams collapsed onto one worker for this digest")
            victim_worker = gateway.worker_for(victim)
            assert check(gateway.predict_one(victim, setup.bank[0], timeout=60.0), 0)

            gateway.kill_worker(victim_worker)
            with pytest.raises(WorkerUnavailable) as info:
                gateway.predict_one(victim, setup.bank[1], timeout=60.0)
            assert info.value.worker_index == victim_worker
            # The surviving tenant never noticed.
            assert check(gateway.predict_one(survivor, setup.bank[3], timeout=60.0), 3)

            gateway.restart_worker(victim_worker)
            response = gateway.predict_one(victim, setup.bank[4], timeout=60.0)
            assert check(response, 4)

        with pytest.raises(RuntimeError, match="closed"):
            gateway.submit(victim, setup.bank[0])

    def test_close_stops_every_worker_gracefully(self, setup):
        """close() drains each worker through its shutdown op: the worker's
        serving thread must wake from accept() and exit cleanly, rather than
        be killed once the manager's join times out."""
        names = setup.names[:2]
        with MultiprocGateway(
            setup.root,
            names,
            n_workers=2,
            max_batch=len(setup.bank),
            cache_capacity=0,
        ) as gateway:
            for name in names:
                assert gateway.predict_one(name, setup.bank[0], timeout=60.0) is not None
            processes = [
                handle.process
                for handle in gateway.manager.workers
                if handle.process is not None
            ]
        assert processes
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode == 0

    def test_failed_start_stops_every_launched_worker(self, setup):
        """Worker 1 cannot load its stream: the start fails naming it, and
        worker 0 — ready or not — is killed rather than left serving."""
        router = ShardRouter(2)
        served = next(name for name in setup.names if router.shard_for(name) == 0)
        missing = next(
            name for name in (f"missing-{i}" for i in range(64)) if router.shard_for(name) == 1
        )
        manager = FleetManager(
            setup.root, [served, missing], n_workers=2, max_batch=len(setup.bank)
        )
        before = {process.pid for process in mp.active_children()}
        with pytest.raises(RuntimeError, match="worker 1 failed to start: FileNotFoundError"):
            MultiprocGateway(manager=manager)
        assert manager.alive() == [False, False]
        assert [p for p in mp.active_children() if p.pid not in before] == []
