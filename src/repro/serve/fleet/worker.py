"""Shard worker process: one OS process serving a subset of the fleet's streams.

A worker is the out-of-process counterpart of a gateway shard.  It is started
by the :class:`~repro.serve.fleet.manager.FleetManager` with a registry root
and its assigned stream names, and it:

* loads each stream's head checkpoint **zero-copy** from the shared registry
  (``registry.load(stream, mmap_mode='r')``) — N workers mapping the same
  archive share one page-cache copy of the model state;
* answers queries through the same canonical batch execution the in-process
  :class:`~repro.serve.service.PredictionService` runs
  (:class:`~repro.serve.service.ServedModel`: certificate, padding, model
  lock), so a worker's response is **bitwise identical** to the in-process
  canonical-batch answer for the version it reports;
* speaks the length-prefixed wire protocol of :mod:`.wire` on a loopback TCP
  socket — JSON header + raw float64 payload, no pickle on the hot path.

Each accepted connection gets one thread, and that thread does all of the
connection's work; the worker starts no other serving thread.  It reads whole
chunks and parses every complete frame in them (:class:`~.wire.FrameParser`).
The predicts of one read are grouped by stream in arrival order, and each
group runs as one batch, or in chunks of at most ``max_batch`` rows.  Control
ops are answered as they are parsed.  Every answer of the read then goes back
with one ``sendall``, tagged with its request ``id``, so a burst of pipelined
queries costs one batch per stream and one write, and answers may come back
in another order than their requests.

Ops (header ``"op"`` field):

``predict``
    ``{"op", "id", "stream", "shape", "dtype"}`` + one-row payload →
    ``result`` frame with a 3-element payload ``[mu0, mu1, ite]`` and the
    serving ``model_version``.
``reload``
    Hot-swap one stream to a registry version (default: head) while every
    other stream keeps serving; replies ``reloaded`` with the new version.
``ping`` / ``stats`` / ``shutdown``
    Liveness, batch counters, graceful exit.
``chaos``
    Failure injection for the SLO harness: ``{"op": "chaos", "delay_ms": X}``
    installs a per-query straggler delay (0 clears it); replies ``chaos_set``.
    The delay runs through an injectable hook so tests can observe it
    without sleeping.

Any per-request failure, including a batch whose model raises, is answered
with an ``error`` frame per request carrying the exception type name and
message; the connection — and every other stream — keeps serving.
"""

from __future__ import annotations

import contextlib
import gc
import os
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..registry import ModelRegistry
from ..service import ServedModel
from .wire import (
    DEFAULT_MAX_PAYLOAD_BYTES,
    READ_SIZE,
    WIRE_DTYPE,
    FrameParser,
    WireError,
    decode_array,
    encode_frame,
)

__all__ = ["worker_main", "WorkerServer"]


def _error_frame(request_id, error: BaseException) -> bytes:
    return encode_frame(
        {
            "op": "error",
            "id": request_id,
            "error": type(error).__name__,
            "message": str(error),
        }
    )


class WorkerServer:
    """The in-process body of one shard worker (testable without forking).

    Parameters
    ----------
    registry_root:
        Root directory of the shared :class:`~repro.serve.ModelRegistry`.
    streams:
        Stream names this worker owns; each one's head version is loaded
        (memory-mapped) into its own :class:`~repro.serve.service.ServedModel`
        at startup.
    max_batch:
        The canonical execution size; it must match the in-process reference
        for bitwise parity.  A read's predicts for one stream run in chunks of
        at most ``max_batch`` rows, each padded to the smallest power-of-two
        size the model certified on this worker's BLAS to answer like
        ``max_batch`` rows (or to ``max_batch``), so the answers stay
        canonical.
    max_payload:
        Per-frame payload ceiling enforced before allocation.
    delay_hook:
        Called with the installed straggler delay (seconds) for each predict
        frame, before batching, while a ``chaos`` delay is active.  Defaults
        to ``time.sleep``; injectable so tests can assert the straggler path
        without wall-clock waits.
    """

    def __init__(
        self,
        registry_root: str,
        streams: Tuple[str, ...],
        max_batch: int = 128,
        max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES,
        mmap_mode: Optional[str] = "r",
        delay_hook: Callable[[float], None] = time.sleep,
    ) -> None:
        self.registry = ModelRegistry(registry_root)
        self.max_payload = max_payload
        self.mmap_mode = mmap_mode
        self._conn_lock = threading.Lock()
        self._connections: List[socket.socket] = []  # guarded-by: _conn_lock
        self.models: Dict[str, ServedModel] = {}
        for stream in streams:
            entry = self.registry.entry(stream)
            learner = self.registry.load(
                stream, entry.domain_index, mmap_mode=mmap_mode
            )
            self.models[stream] = ServedModel(learner, entry.domain_index, max_batch)
        self._stats_lock = threading.Lock()
        self._queries = 0  # guarded-by: _stats_lock
        self._batches = 0  # guarded-by: _stats_lock
        self._largest_batch = 0  # guarded-by: _stats_lock
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._threads: list = []
        self._delay_hook = delay_hook
        # Straggler injection (seconds); written by chaos control frames,
        # read by every predict path.  A torn read is impossible for a
        # Python float attribute swap, so no lock — the worst race is one
        # query seeing the delay a frame early or late, which is exactly
        # the tolerance a chaos schedule has anyway.
        self._chaos_delay_s = 0.0

    # ------------------------------------------------------------------ #
    # serving loop
    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown`; blocks the caller."""
        try:
            while not self._stop.is_set():
                try:
                    sock, _ = self._listener.accept()
                except OSError:
                    break  # listener closed by shutdown()
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with self._conn_lock:
                    self._connections.append(sock)
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(sock,),
                    name="repro-fleet-conn",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        finally:
            self._close_all()

    def shutdown(self) -> None:
        """Stop accepting and drop every connection."""
        if self._stop.is_set():
            return
        self._stop.set()
        # Runs on a connection thread: close() alone does not wake the
        # accept() the serving thread blocks in, shutdown() does.
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()

    def _close_all(self) -> None:
        with self._conn_lock:
            connections, self._connections = self._connections, []
        for sock in connections:
            _close(sock)
        for thread in self._threads:
            thread.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # per-connection protocol
    # ------------------------------------------------------------------ #
    def _serve_connection(self, sock: socket.socket) -> None:
        parser = FrameParser(self.max_payload)
        try:
            while True:
                chunk = sock.recv(READ_SIZE)
                if not chunk:
                    parser.eof()
                    break
                replies: List[bytes] = []
                predicts: Dict[str, List[Tuple[object, np.ndarray]]] = {}
                stopping = False
                for header, payload in parser.feed(chunk):
                    op = header.get("op")
                    try:
                        if op == "predict":
                            stream, row = self._predict_row(header, payload)
                            predicts.setdefault(stream, []).append((header["id"], row))
                        else:
                            replies.append(self._control(op, header))
                            stopping = stopping or op == "shutdown"
                    except WireError:
                        raise  # connection-fatal: handled below
                    except Exception as error:  # answered, not fatal: the worker lives on
                        replies.append(_error_frame(header.get("id"), error))
                for stream, queries in predicts.items():
                    self._answer(self.models[stream], queries, replies)
                if replies:
                    sock.sendall(b"".join(replies))
                if stopping:
                    self.shutdown()
        except WireError:
            # A malformed or truncated frame poisons only its connection:
            # the peer reconnects, every other connection keeps serving.
            pass
        except OSError:
            pass
        finally:
            _close(sock)
            with self._conn_lock:
                if sock in self._connections:
                    self._connections.remove(sock)

    def _predict_row(self, header: dict, payload: bytes) -> Tuple[str, np.ndarray]:
        """The stream and validated query row of one predict frame."""
        stream = header.get("stream")
        model = self.models.get(stream)
        if model is None:
            raise KeyError(
                f"stream {stream!r} is not served by this worker "
                f"(owns: {sorted(self.models)})"
            )
        rows = decode_array(header, payload)
        if rows.ndim != 2 or rows.shape[0] != 1:
            raise ValueError(
                f"a predict frame carries exactly one query row; "
                f"got shape {tuple(rows.shape)}"
            )
        row = model.as_row(rows)
        delay = self._chaos_delay_s
        if delay > 0:
            # Straggler injection: stall on the connection thread, *before*
            # batching, so the slow shard delays only its own streams'
            # queries — co-batched tenants on other workers are untouched,
            # which is the isolation property the SLO harness measures.
            self._delay_hook(delay)
        return stream, row

    def _answer(
        self, model: ServedModel, queries: List[Tuple[object, np.ndarray]], replies: List[bytes]
    ) -> None:
        """Run one stream's queries in canonical batches; append an answer each."""
        for start in range(0, len(queries), model.max_batch):
            batch = queries[start : start + model.max_batch]
            with self._stats_lock:
                self._queries += len(batch)
                self._batches += 1
                self._largest_batch = max(self._largest_batch, len(batch))
            try:
                mu0, mu1, ite, version = model.run(np.stack([row for _, row in batch]))
            except Exception as error:  # every query of the batch answers typed
                for request_id, _ in batch:
                    replies.append(_error_frame(request_id, error))
                continue
            answers = np.stack([mu0, mu1, ite], axis=1)
            for (request_id, _), answer in zip(batch, answers):
                replies.append(
                    encode_frame(
                        {
                            "op": "result",
                            "id": request_id,
                            "model_version": version,
                            "shape": [3],
                            "dtype": WIRE_DTYPE,
                        },
                        answer.tobytes(),
                    )
                )

    def _control(self, op, header: dict) -> bytes:
        """The reply frame of one control op."""
        request_id = header.get("id")
        if op == "reload":
            version = self._reload(header["stream"], header.get("domain_index"))
            return encode_frame({"op": "reloaded", "id": request_id, "model_version": version})
        if op == "ping":
            return encode_frame(
                {"op": "pong", "id": request_id, "pid": os.getpid(), "streams": sorted(self.models)}
            )
        if op == "stats":
            with self._stats_lock:
                totals = {
                    "queries": self._queries,
                    "batches": self._batches,
                    "largest_batch": self._largest_batch,
                }
            return encode_frame({"op": "stats", "id": request_id, **totals})
        if op == "chaos":
            delay_ms = float(header.get("delay_ms", 0.0))
            if delay_ms < 0:
                raise ValueError("delay_ms must be non-negative")
            self._chaos_delay_s = delay_ms / 1000.0
            return encode_frame({"op": "chaos_set", "id": request_id, "delay_ms": delay_ms})
        if op == "shutdown":
            return encode_frame({"op": "bye", "id": request_id})
        raise ValueError(f"unknown op {op!r}")

    def _reload(self, stream: str, domain_index: Optional[int]) -> int:
        model = self.models.get(stream)
        if model is None:
            raise KeyError(f"stream {stream!r} is not served by this worker")
        entry = self.registry.entry(stream, domain_index)
        learner = self.registry.load(
            stream, entry.domain_index, mmap_mode=self.mmap_mode
        )
        model.swap(learner, model_version=entry.domain_index)
        return entry.domain_index


def _close(sock: socket.socket) -> None:
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    sock.close()


def worker_main(
    registry_root: str,
    streams: Tuple[str, ...],
    conn,
    max_batch: int = 128,
    max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES,
) -> None:
    """Process entry point: build a :class:`WorkerServer` and serve forever.

    ``conn`` is the manager's pipe end; the worker performs the startup
    handshake on it — ``("ready", port)`` once listening and loaded, or
    ``("error", message)`` if startup failed — then closes it.  Module-level
    so it is picklable under the ``spawn`` start method.
    """
    try:
        server = WorkerServer(
            registry_root,
            tuple(streams),
            max_batch=max_batch,
            max_payload=max_payload,
        )
    except Exception as error:
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        raise
    # A freshly spawned interpreter has not yet run a full collection: its
    # imports and checkpoint loads allocate too little to trigger one.  Run
    # it here, before anyone waits on this worker; otherwise it lands in the
    # first burst of queries and stalls every one of them for tens of ms.
    gc.collect()
    conn.send(("ready", server.port))
    conn.close()
    server.serve_forever()
