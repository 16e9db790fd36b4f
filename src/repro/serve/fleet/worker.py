"""Shard worker process: one OS process serving a subset of the fleet's streams.

A worker is the out-of-process counterpart of a gateway shard.  It is started
by the :class:`~repro.serve.fleet.manager.FleetManager` with a registry root
and its assigned stream names, and it:

* loads each stream's head checkpoint **zero-copy** from the shared registry
  (``registry.load(stream, mmap_mode='r')``) — N workers mapping the same
  archive share one page-cache copy of the model state;
* serves queries through the exact same workspace-backed
  :class:`~repro.serve.service.PredictionService` micro-batcher the
  in-process gateway uses, so a worker's response is **bitwise identical** to
  the in-process canonical-batch answer for the version it reports;
* speaks the length-prefixed wire protocol of :mod:`.wire` on a loopback TCP
  socket — JSON header + raw float64 payload, no pickle on the hot path.

Requests are pipelined per connection: the connection thread reads whole
chunks, parses every complete frame in them (:class:`~.wire.FrameParser`) and
submits each query to the micro-batcher without waiting for results.  Each
answer is encoded by the query's done-callback and queued on its
connection's outbox; once the micro-batch that answered it has been
delivered, the batcher's completion hook sends each connection's outbox with
one ``sendall``.  Answers are tagged with the request ``id``, so they may
complete out of order.  Queries from many front-door connections therefore
coalesce into batches exactly as threads do in-process, and each batch is
padded to a size certified to give the canonical answers.  Control replies,
and the error frames of requests refused before they reach a batch, are
written at once.

Ops (header ``"op"`` field):

``predict``
    ``{"op", "id", "stream", "shape", "dtype"}`` + one-row payload →
    ``result`` frame with a 3-element payload ``[mu0, mu1, ite]`` and the
    serving ``model_version``.
``reload``
    Hot-swap one stream to a registry version (default: head) while every
    other stream keeps serving; replies ``reloaded`` with the new version.
``ping`` / ``stats`` / ``shutdown``
    Liveness, micro-batcher counters, graceful exit.
``chaos``
    Failure injection for the SLO harness: ``{"op": "chaos", "delay_ms": X}``
    installs a per-query straggler delay (0 clears it); replies ``chaos_set``.
    The delay runs through an injectable hook so tests can observe it
    without sleeping.

Any per-request failure is answered with an ``error`` frame carrying the
exception type name and message; the connection — and every other stream —
keeps serving.
"""

from __future__ import annotations

import contextlib
import gc
import os
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..registry import ModelRegistry
from ..service import PredictionService
from .wire import (
    DEFAULT_MAX_PAYLOAD_BYTES,
    READ_SIZE,
    WIRE_DTYPE,
    FrameParser,
    WireError,
    decode_array,
    encode_frame,
    write_frame,
)

import numpy as np

__all__ = ["worker_main", "WorkerServer"]


class _Connection:
    """One accepted front-door connection with a serialised writer.

    Answers wait in the outbox until :meth:`flush` sends them together;
    :meth:`send` writes a frame at once.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.write_lock = threading.Lock()
        self.outbox: List[bytes] = []  # guarded-by: write_lock

    def send(self, header: dict, payload: bytes = b"") -> None:
        with self.write_lock:
            write_frame(self.sock, header, payload)

    def queue(self, frame: bytes) -> None:
        with self.write_lock:
            self.outbox.append(frame)

    def flush(self) -> None:
        """Send every queued frame with one ``sendall``; drop them if the peer is gone."""
        with self.write_lock:
            if not self.outbox:
                return
            data = b"".join(self.outbox)
            self.outbox.clear()
            with contextlib.suppress(OSError):
                self.sock.sendall(data)

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()


class WorkerServer:
    """The in-process body of one shard worker (testable without forking).

    Parameters
    ----------
    registry_root:
        Root directory of the shared :class:`~repro.serve.ModelRegistry`.
    streams:
        Stream names this worker owns; each one's head version is loaded
        (memory-mapped) into its own :class:`PredictionService` at startup.
    max_batch, max_wait_ms:
        Micro-batching knobs — ``max_batch`` is the canonical execution size
        and must match the in-process reference for bitwise parity.  Each
        service pads a batch to the smallest power-of-two size it certified
        on this worker's BLAS to answer like ``max_batch`` rows (or to
        ``max_batch``), so the answers stay canonical.
    max_payload:
        Per-frame payload ceiling enforced before allocation.
    delay_hook:
        Called with the installed straggler delay (seconds) before each
        predict submit while a ``chaos`` delay is active.  Defaults to
        ``time.sleep``; injectable so tests can assert the straggler path
        without wall-clock waits.
    """

    def __init__(
        self,
        registry_root: str,
        streams: Tuple[str, ...],
        max_batch: int = 128,
        max_wait_ms: float = 0.0,
        max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES,
        mmap_mode: Optional[str] = "r",
        delay_hook: Callable[[float], None] = time.sleep,
    ) -> None:
        self.registry = ModelRegistry(registry_root)
        self.max_payload = max_payload
        self.mmap_mode = mmap_mode
        self._conn_lock = threading.Lock()
        self._connections: list = []  # guarded-by: _conn_lock
        self.services: Dict[str, PredictionService] = {}
        for stream in streams:
            entry = self.registry.entry(stream)
            learner = self.registry.load(
                stream, entry.domain_index, mmap_mode=mmap_mode
            )
            self.services[stream] = PredictionService(
                learner,
                model_version=entry.domain_index,
                max_batch=max_batch,
                max_wait_ms=max_wait_ms,
                on_delivered=self._flush_outboxes,
            )
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
                connection = _Connection(sock)
                with self._conn_lock:
                    self._connections.append(connection)
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    name="repro-fleet-conn",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        finally:
            self._close_all()

    def shutdown(self) -> None:
        """Stop accepting, drop connections and drain the micro-batchers."""
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
        for connection in connections:
            connection.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        for service in self.services.values():
            service.close()

    # ------------------------------------------------------------------ #
    # per-connection protocol
    # ------------------------------------------------------------------ #
    def _flush_outboxes(self) -> None:
        """Send every connection's queued answers (the batchers' completion hook)."""
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.flush()

    def _serve_connection(self, connection: _Connection) -> None:
        parser = FrameParser(self.max_payload)
        try:
            while True:
                chunk = connection.sock.recv(READ_SIZE)
                if not chunk:
                    parser.eof()
                    break
                for header, payload in parser.feed(chunk):
                    self._handle(connection, header, payload)
        except WireError:
            # A malformed or truncated frame poisons only its connection:
            # the peer reconnects, every other connection keeps serving.
            pass
        except OSError:
            pass
        finally:
            connection.close()
            with self._conn_lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    def _handle(self, connection: _Connection, header: dict, payload: bytes) -> None:
        op = header.get("op")
        request_id = header.get("id")
        try:
            if op == "predict":
                self._handle_predict(connection, header, payload)
            elif op == "reload":
                version = self._reload(
                    header["stream"], header.get("domain_index")
                )
                connection.send(
                    {"op": "reloaded", "id": request_id, "model_version": version}
                )
            elif op == "ping":
                connection.send(
                    {
                        "op": "pong",
                        "id": request_id,
                        "pid": os.getpid(),
                        "streams": sorted(self.services),
                    }
                )
            elif op == "stats":
                totals = {"queries": 0, "batches": 0, "largest_batch": 0}
                for service in self.services.values():
                    stats = service.stats()
                    totals["queries"] += stats.queries
                    totals["batches"] += stats.batches
                    totals["largest_batch"] = max(
                        totals["largest_batch"], stats.largest_batch
                    )
                connection.send({"op": "stats", "id": request_id, **totals})
            elif op == "chaos":
                delay_ms = float(header.get("delay_ms", 0.0))
                if delay_ms < 0:
                    raise ValueError("delay_ms must be non-negative")
                self._chaos_delay_s = delay_ms / 1000.0
                connection.send(
                    {"op": "chaos_set", "id": request_id, "delay_ms": delay_ms}
                )
            elif op == "shutdown":
                connection.send({"op": "bye", "id": request_id})
                self.shutdown()
            else:
                raise ValueError(f"unknown op {op!r}")
        except WireError:
            raise  # connection-fatal: handled by the read loop
        except Exception as error:  # answered, not fatal: the worker lives on
            connection.send(
                {
                    "op": "error",
                    "id": request_id,
                    "error": type(error).__name__,
                    "message": str(error),
                }
            )

    def _handle_predict(
        self, connection: _Connection, header: dict, payload: bytes
    ) -> None:
        stream = header.get("stream")
        service = self.services.get(stream)
        if service is None:
            raise KeyError(
                f"stream {stream!r} is not served by this worker "
                f"(owns: {sorted(self.services)})"
            )
        rows = decode_array(header, payload)
        if rows.ndim != 2 or rows.shape[0] != 1:
            raise ValueError(
                f"a predict frame carries exactly one query row; "
                f"got shape {tuple(rows.shape)}"
            )
        request_id = header["id"]
        delay = self._chaos_delay_s
        if delay > 0:
            # Straggler injection: stall on the connection thread, *before*
            # the micro-batcher, so the slow shard delays only its own
            # streams' queries — co-batched tenants on other workers are
            # untouched, which is the isolation property the SLO harness
            # measures.
            self._delay_hook(delay)
        pending = service.submit(rows[0])

        def respond(done) -> None:
            # Runs on the micro-batcher's dispatcher thread during delivery;
            # the batch's completion hook sends the outbox.  Out-of-order
            # completion is fine — the id pairs it back up.
            if done._error is not None:
                frame = encode_frame(
                    {
                        "op": "error",
                        "id": request_id,
                        "error": type(done._error).__name__,
                        "message": str(done._error),
                    }
                )
            else:
                result = done._result
                answer = np.array(
                    [result.mu0, result.mu1, result.ite], dtype=np.float64
                )
                frame = encode_frame(
                    {
                        "op": "result",
                        "id": request_id,
                        "model_version": result.model_version,
                        "shape": [3],
                        "dtype": WIRE_DTYPE,
                    },
                    answer.tobytes(),
                )
            connection.queue(frame)

        pending.add_done_callback(respond)
        if pending.done():
            # The batch may have been delivered before the callback was
            # attached: then it ran right here, after the batch's completion
            # hook, and nothing else would send its answer.
            connection.flush()

    def _reload(self, stream: str, domain_index: Optional[int]) -> int:
        service = self.services.get(stream)
        if service is None:
            raise KeyError(f"stream {stream!r} is not served by this worker")
        entry = self.registry.entry(stream, domain_index)
        learner = self.registry.load(
            stream, entry.domain_index, mmap_mode=self.mmap_mode
        )
        service.swap_model(learner, model_version=entry.domain_index)
        return entry.domain_index


def worker_main(
    registry_root: str,
    streams: Tuple[str, ...],
    conn,
    max_batch: int = 128,
    max_wait_ms: float = 0.0,
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
            max_wait_ms=max_wait_ms,
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
