"""Blocking-socket front door over a fleet of out-of-process shard workers.

:class:`MultiprocGateway` is the process-fleet counterpart of
:class:`~repro.serve.gateway.ServingGateway`: the same digest routing, the
same bitwise-transparent TTL+LRU response cache, the same typed admission
control and :class:`~repro.serve.gateway.GatewayStats` — but the models live
in worker *processes* (spawned by :class:`~.manager.FleetManager`), reached
over loopback sockets with the pickle-free wire protocol of :mod:`.wire`.

Concurrency model: callers stay synchronous (``submit`` returns the familiar
:class:`~repro.serve.service.PendingPrediction`), and a query changes threads
only where a socket forces it.  Each worker gets a small **connection pool**
of blocking sockets, dialled on first use, and requests are **pipelined**: a
connection carries many in-flight queries at once, tagged with request ids,
so responses may return out of order and the worker can batch queries from
every tenant.  ``submit`` encodes its query's frame into the connection's
outbox on the caller's thread; whichever caller finds no send in progress
sends everything queued with one ``sendall``, so a burst still costs one
write.  One reader thread per connection takes whatever the worker has sent
in one read and parses every complete frame in it
(:class:`~.wire.FrameParser`); each response is decoded and its query
resolved in turn, on that thread, which also runs the query's done-callbacks.
The reader never writes, so a full socket buffer cannot deadlock the two
ends; a done-callback must not submit or wait on the fleet for the same
reason.  One stalled tenant therefore never serialises the fleet — and one
*dead* worker fails only its own streams' queries (typed
:class:`WorkerUnavailable`) while every other tenant keeps answering.

Admission control grows a per-tenant dimension over PR 5's per-shard bound:

* per-worker in-flight bound → :class:`~repro.serve.gateway.Overloaded`
  (unchanged semantics: shed before any socket write);
* per-tenant token-bucket **rate limit** → :class:`RateLimited` (carries
  ``retry_after_s``);
* per-tenant lifetime **quota** → :class:`QuotaExceeded`.

Tenant shedding happens before cache misses reach a worker; cache *hits* are
served for free (they consume no worker capacity, which is what the limits
protect).  All shed queries count into the owning shard's ``shed`` total.

Hot swaps ride the same contract as in-process serving: ``reload(stream)``
asks the owning worker to re-load a registry version while its other streams
keep serving, and :meth:`service` returns a handle duck-typed to
``PredictionService.reload`` so the existing
:class:`~repro.monitor.AdaptationController` drives a multi-process fleet
unchanged.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..cache import TTLLRUCache
from ..gateway import GatewayStats, Overloaded, ShardStats
from ..service import PendingPrediction, Prediction, ServiceStats
from .manager import FleetManager
from .wire import (
    READ_SIZE,
    WIRE_DTYPE,
    FrameParser,
    WireError,
    decode_array,
    write_frame_async,
)

__all__ = [
    "FleetError",
    "MultiprocGateway",
    "QuotaExceeded",
    "RateLimited",
    "RemoteError",
    "TenantPolicy",
    "WorkerUnavailable",
]


class FleetError(RuntimeError):
    """Base class of front-door fleet failures."""


class RateLimited(FleetError):
    """A query shed by its tenant's token-bucket rate limit."""

    def __init__(self, stream: str, rate_qps: float, retry_after_s: float) -> None:
        super().__init__(
            f"stream '{stream}' exceeded its rate limit of {rate_qps:g} qps; "
            f"retry in {retry_after_s:.3f}s"
        )
        self.stream = stream
        self.rate_qps = rate_qps
        self.retry_after_s = retry_after_s


class QuotaExceeded(FleetError):
    """A query shed because its tenant's lifetime quota is spent."""

    def __init__(self, stream: str, quota: int, admitted: int) -> None:
        super().__init__(
            f"stream '{stream}' exhausted its quota of {quota} queries "
            f"({admitted} admitted)"
        )
        self.stream = stream
        self.quota = quota
        self.admitted = admitted


class WorkerUnavailable(FleetError):
    """The worker owning the stream is unreachable (dead or restarting)."""

    def __init__(self, worker_index: int, reason: str) -> None:
        super().__init__(f"worker {worker_index} is unavailable: {reason}")
        self.worker_index = worker_index
        self.reason = reason


class RemoteError(FleetError):
    """A worker answered with an error frame (the failure stayed remote)."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.remote_message = message


@dataclass(frozen=True)
class TenantPolicy:
    """Per-stream admission policy enforced at the front door.

    Parameters
    ----------
    rate_qps:
        Sustained admission rate (token bucket, refilled continuously);
        ``None`` disables rate limiting for the tenant.
    burst:
        Bucket capacity — how many queries may be admitted back-to-back
        before the rate applies.  Defaults to ``max(1, round(rate_qps))``.
    quota:
        Lifetime cap on admitted (worker-reaching) queries; ``None`` means
        unlimited.
    """

    rate_qps: Optional[float] = None
    burst: Optional[int] = None
    quota: Optional[int] = None

    def bucket_capacity(self) -> float:
        if self.burst is not None:
            return float(self.burst)
        if self.rate_qps is None:
            return float("inf")
        return float(max(1, round(self.rate_qps)))


class _TenantState:
    """Mutable token bucket + quota counter for one stream."""

    __slots__ = ("policy", "tokens", "last_refill", "admitted", "lock")

    def __init__(self, policy: TenantPolicy, now: float) -> None:
        self.policy = policy
        self.tokens = policy.bucket_capacity()  # guarded-by: lock
        self.last_refill = now  # guarded-by: lock
        self.admitted = 0
        self.lock = threading.Lock()

    def admit(self, stream: str, now: float) -> None:
        """Admit one query or raise the matching typed shed error."""
        policy = self.policy
        with self.lock:
            if policy.quota is not None and self.admitted >= policy.quota:
                raise QuotaExceeded(stream, policy.quota, self.admitted)
            if policy.rate_qps is not None:
                capacity = policy.bucket_capacity()
                self.tokens = min(
                    capacity, self.tokens + (now - self.last_refill) * policy.rate_qps
                )
                self.last_refill = now
                if self.tokens < 1.0:
                    raise RateLimited(
                        stream, policy.rate_qps, (1.0 - self.tokens) / policy.rate_qps
                    )
                self.tokens -= 1.0
            self.admitted += 1


class _WorkerShard:
    """Front-door accounting for one worker: counters and response cache."""

    __slots__ = (
        "index",
        "lock",
        "in_flight",
        "answered",
        "shed",
        "latency_s",
        "latency_samples",
        "cache",
    )

    def __init__(self, index: int, cache: TTLLRUCache) -> None:
        self.index = index
        self.lock = threading.Lock()
        self.in_flight = 0
        self.answered = 0
        self.shed = 0
        self.latency_s = 0.0
        self.latency_samples = 0
        self.cache = cache


class _Request:
    """One in-flight request on one connection (predict or control)."""

    __slots__ = ("kind", "stream", "key", "start", "pending", "shard", "future")

    def __init__(
        self,
        kind: str,
        stream: Optional[str] = None,
        key=None,
        start: float = 0.0,
        pending: Optional[PendingPrediction] = None,
        shard: Optional[_WorkerShard] = None,
        future: Optional[concurrent.futures.Future] = None,
    ) -> None:
        self.kind = kind
        self.stream = stream
        self.key = key
        self.start = start
        self.pending = pending
        self.shard = shard
        self.future = future


class _Connection:
    """One pooled blocking socket to a worker, carrying pipelined tagged requests.

    A submitting thread registers its request and encodes the frame into
    ``outbox`` under ``lock``; the one that finds no send in progress sends
    the outbox, and whatever joins it meanwhile, with one ``sendall`` per
    pass.  The connection's reader thread pops answered requests.  ``dead``
    is set once, under ``lock``, when the connection is dropped.
    """

    __slots__ = ("sock", "lock", "requests", "next_id", "outbox", "sending", "dead", "reader")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()
        self.requests: Dict[int, _Request] = {}  # guarded-by: lock
        self.next_id = 0  # guarded-by: lock
        self.outbox: List[bytes] = []  # guarded-by: lock
        self.sending = False  # guarded-by: lock
        self.dead = False
        self.reader: Optional[threading.Thread] = None


class _WorkerClient:
    """The connection pool of one worker (round-robin, dialled on first use)."""

    __slots__ = ("lock", "connections", "rr")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.connections: List[_Connection] = []  # guarded-by: lock
        self.rr = 0  # guarded-by: lock


class MultiprocGateway:
    """Serve many tenants from a fleet of out-of-process shard workers.

    Parameters
    ----------
    registry_root:
        Shared :class:`~repro.serve.ModelRegistry` root the workers load
        (memory-mapped) checkpoints from.
    streams:
        Every stream the fleet serves (digest-assigned to workers up front —
        out-of-process spin-up is eager, not lazy, so a worker's readiness
        covers all its tenants).
    n_workers:
        Worker process count.
    max_batch:
        Canonical execution size forwarded to every worker; must match the
        in-process reference for bitwise parity.
    pool_size:
        Sockets per worker; each carries pipelined tagged requests and has
        one reader thread.
    max_pending_per_worker:
        Admission bound on in-flight queries per worker (None = unbounded).
    cache_capacity, cache_ttl_s:
        Per-worker-shard response cache (same bitwise-transparency contract
        as the in-process gateway: keys are ``(stream, version, row digest)``
        and every fill keys by the version the response actually reports).
    tenant_policies:
        Optional ``{stream: TenantPolicy}`` per-tenant rate limits / quotas.
    manager:
        Pre-built :class:`FleetManager` (the gateway then does not own its
        lifecycle knobs); default builds one from the parameters above.
    connect_timeout_s:
        Deadline for dialling one pooled connection; a failed dial fails
        the query with :class:`WorkerUnavailable`.
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        registry_root: Optional[Union[str, Path]] = None,
        streams: Optional[Sequence[str]] = None,
        n_workers: int = 2,
        max_batch: int = 128,
        pool_size: int = 2,
        max_pending_per_worker: Optional[int] = None,
        cache_capacity: int = 1024,
        cache_ttl_s: Optional[float] = None,
        tenant_policies: Optional[Dict[str, TenantPolicy]] = None,
        manager: Optional[FleetManager] = None,
        start_method: str = "spawn",
        connect_timeout_s: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if manager is None:
            if registry_root is None or not streams:
                raise ValueError(
                    "provide registry_root and streams, or a prepared manager"
                )
            manager = FleetManager(
                registry_root,
                streams,
                n_workers=n_workers,
                max_batch=max_batch,
                start_method=start_method,
            )
        if pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        if max_pending_per_worker is not None and max_pending_per_worker < 1:
            raise ValueError("max_pending_per_worker must be at least 1 (or None)")
        self.manager = manager
        self._max_pending = max_pending_per_worker
        self._pool_size = pool_size
        self._connect_timeout = connect_timeout_s
        self._clock = clock
        self._closed = False
        self._close_lock = threading.Lock()
        self._shards = [
            _WorkerShard(i, TTLLRUCache(cache_capacity, ttl_s=cache_ttl_s, clock=clock))
            for i in range(manager.n_workers)
        ]
        self._tenants: Dict[str, _TenantState] = {}
        self._tenant_lock = threading.Lock()
        self._policies = dict(tenant_policies or {})
        #: Advisory version per stream for cache lookups; fills key by the
        #: version each response actually reports (same contract as PR 5).
        self._versions: Dict[str, Optional[int]] = {}
        self._started = clock()
        self._clients = [_WorkerClient() for _ in range(manager.n_workers)]
        self.manager.start()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        return self.manager.n_workers

    def worker_for(self, stream: str) -> int:
        """Worker index serving ``stream`` (deterministic across processes)."""
        return self.manager.worker_for(stream)

    def streams(self) -> List[str]:
        """Streams the fleet serves, sorted."""
        return sorted(
            stream for handle in self.manager.workers for stream in handle.streams
        )

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def submit(self, stream: str, covariates: np.ndarray) -> PendingPrediction:
        """Enqueue one unit's query; returns a waitable handle.

        Shedding is typed and side-effect-free, in evaluation order: cache
        hit (free), :class:`QuotaExceeded` / :class:`RateLimited` (tenant),
        :class:`Overloaded` (worker bound).  A shed query never touches a
        socket.  A dead worker resolves the handle with
        :class:`WorkerUnavailable` instead of stalling it.
        """
        if self._closed:
            raise RuntimeError("cannot submit to a closed MultiprocGateway")
        index = self.worker_for(stream)
        shard = self._shards[index]
        row = self._as_row(covariates)
        digest = None
        if shard.cache.capacity:
            # The digest is computed even before any version is known: the
            # first response will report its version and fill the cache, so
            # a stream's very first repeated row already hits on round two.
            digest = hashlib.sha256(row.tobytes()).digest()
            version = self._versions.get(stream)
            if version is not None:
                cached = shard.cache.get((stream, version, digest))
                if cached is not None:
                    with shard.lock:
                        shard.answered += 1
                    pending = PendingPrediction()
                    pending._set_result(cached)
                    return pending
        policy = self._policies.get(stream)
        if policy is not None:
            try:
                self._tenant_state(stream, policy).admit(stream, self._clock())
            except FleetError:
                with shard.lock:
                    shard.shed += 1
                raise
        if self._max_pending is not None:
            with shard.lock:
                if shard.in_flight >= self._max_pending:
                    shard.shed += 1
                    raise Overloaded(stream, index, shard.in_flight, self._max_pending)
                shard.in_flight += 1
        else:
            with shard.lock:
                shard.in_flight += 1
        pending = PendingPrediction()
        request = _Request(
            "predict",
            stream=stream,
            key=digest,
            start=self._clock(),
            pending=pending,
            shard=shard,
        )
        header = {
            "op": "predict",
            "stream": stream,
            "shape": [1, row.shape[0]],
            "dtype": WIRE_DTYPE,
        }
        try:
            self._send(index, request, header, row.tobytes())
        except WorkerUnavailable as error:
            self._resolve_error(request, error)
        return pending

    def predict_one(
        self, stream: str, covariates: np.ndarray, timeout: Optional[float] = None
    ) -> Prediction:
        """Blocking single-unit query (cache → admission → worker socket)."""
        return self.submit(stream, covariates).result(timeout)

    def _tenant_state(self, stream: str, policy: TenantPolicy) -> _TenantState:
        state = self._tenants.get(stream)
        if state is None:
            with self._tenant_lock:
                state = self._tenants.get(stream)
                if state is None:
                    state = _TenantState(policy, self._clock())
                    self._tenants[stream] = state
        return state

    @staticmethod
    def _as_row(covariates: np.ndarray) -> np.ndarray:
        """Canonical float64 1-D row (digest identity — matches the gateway)."""
        row = np.ascontiguousarray(covariates, dtype=np.float64)
        if row.ndim == 2 and row.shape[0] == 1:
            row = row[0]
        if row.ndim != 1:
            raise ValueError(
                f"a single-unit query must be a 1-D covariate vector "
                f"(or a (1, p) array); got shape {row.shape}"
            )
        return row

    # ------------------------------------------------------------------ #
    # connections: pooling, combined writes, pipelined reads
    # ------------------------------------------------------------------ #
    def _send(self, index: int, request: _Request, header: dict, payload: bytes = b"") -> None:
        """Register ``request`` on a pooled connection and write its frame.

        The frame joins the connection's outbox.  If no other thread is
        sending, this one sends the outbox, and whatever joins it meanwhile,
        until it is empty.
        """
        connection = self._connection(index)
        with connection.lock:
            if connection.dead:
                raise WorkerUnavailable(index, "connection lost")
            request_id = connection.next_id
            header["id"] = request_id
            write_frame_async(connection.outbox, header, payload)
            connection.next_id = request_id + 1
            connection.requests[request_id] = request
            if connection.sending:
                return
            connection.sending = True
        while True:
            with connection.lock:
                data = b"".join(connection.outbox)
                connection.outbox.clear()
                if not data:
                    connection.sending = False
                    return
            try:
                connection.sock.sendall(data)
            except OSError as error:
                # A dead connection takes no more frames, so ``sending`` can stay set.
                self._drop(index, connection, f"{type(error).__name__}: {error}")
                return

    def _connection(self, index: int) -> _Connection:
        """A live pooled connection to worker ``index``; dials while the pool is short."""
        client = self._clients[index]
        with client.lock:
            live = [c for c in client.connections if not c.dead]
            if len(live) < self._pool_size:
                if self._closed:
                    raise WorkerUnavailable(index, "the front door is closed")
                live.append(self._dial(index))
            client.connections = live
            client.rr = (client.rr + 1) % len(live)
            return live[client.rr]

    def _dial(self, index: int) -> _Connection:
        handle = self.manager.workers[index]
        if handle.port is None:
            raise WorkerUnavailable(index, "worker is not running")
        try:
            sock = socket.create_connection(
                ("127.0.0.1", handle.port), timeout=self._connect_timeout
            )
        except OSError as error:
            raise WorkerUnavailable(index, f"{type(error).__name__}: {error}") from error
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = _Connection(sock)
        connection.reader = threading.Thread(
            target=self._read_responses,
            args=(index, connection),
            name=f"repro-fleet-reader-{index}",
            daemon=True,
        )
        connection.reader.start()
        return connection

    def _read_responses(self, index: int, connection: _Connection) -> None:
        # One read takes every response the worker has sent so far.  Each
        # frame is decoded and its query resolved before the next is
        # decoded, so a done-callback runs right after its own decode.
        parser = FrameParser()
        try:
            while True:
                chunk = connection.sock.recv(READ_SIZE)
                if not chunk:
                    parser.eof()
                    break
                for header, payload in parser.feed(chunk):
                    self._deliver(connection, header, payload)
        except (OSError, WireError):
            pass  # the worker died or broke the protocol: fail what is left
        finally:
            self._drop(index, connection, "connection lost mid-request")
            connection.sock.close()

    def _drop(self, index: int, connection: _Connection, reason: str) -> None:
        """Mark ``connection`` dead, shut its socket down and fail its requests."""
        with connection.lock:
            connection.dead = True
            failed, connection.requests = connection.requests, {}
            connection.outbox.clear()
        with contextlib.suppress(OSError):
            connection.sock.shutdown(socket.SHUT_RDWR)
        for request in failed.values():
            self._fail_request(request, WorkerUnavailable(index, reason))

    def _hang_up(self, index: int, reason: str) -> None:
        """Drop every connection to worker ``index`` and join its readers."""
        client = self._clients[index]
        with client.lock:
            connections, client.connections = client.connections, []
        for connection in connections:
            self._drop(index, connection, reason)
            connection.reader.join(timeout=10.0)

    def _deliver(self, connection: _Connection, header: dict, payload: bytes) -> None:
        with connection.lock:
            request = connection.requests.pop(header.get("id"), None)
        if request is None:
            return  # late response for an already-failed request
        op = header.get("op")
        if request.kind == "predict":
            if op == "result":
                values = decode_array(header, payload)
                version = header.get("model_version")
                result = Prediction(
                    mu0=float(values[0]),
                    mu1=float(values[1]),
                    ite=float(values[2]),
                    model_version=version,
                )
                self._resolve_result(request, result)
            elif op == "error":
                self._resolve_error(
                    request, RemoteError(header.get("error", "Error"), header.get("message", ""))
                )
            else:
                self._resolve_error(
                    request, RemoteError("ProtocolError", f"unexpected op {op!r}")
                )
        else:
            if op == "error":
                if not request.future.done():
                    request.future.set_exception(
                        RemoteError(header.get("error", "Error"), header.get("message", ""))
                    )
            elif not request.future.done():
                request.future.set_result(header)

    def _fail_request(self, request: _Request, error: BaseException) -> None:
        if request.kind == "predict":
            self._resolve_error(request, error)
        elif not request.future.done():
            request.future.set_exception(error)

    def _resolve_result(self, request: _Request, result: Prediction) -> None:
        shard = request.shard
        elapsed = self._clock() - request.start
        with shard.lock:
            shard.in_flight -= 1
            shard.answered += 1
            shard.latency_s += elapsed
            shard.latency_samples += 1
        if result.model_version is not None:
            # Advisory hint for future lookups; fills key by the reported
            # version, so a swap between lookup and execution only costs a
            # miss, never a wrong answer.
            self._versions[request.stream] = result.model_version
            if request.key is not None:
                shard.cache.put(
                    (request.stream, result.model_version, request.key), result
                )
        request.pending._set_result(result)

    def _resolve_error(self, request: _Request, error: BaseException) -> None:
        with request.shard.lock:
            request.shard.in_flight -= 1
        request.pending._set_error(error)

    # ------------------------------------------------------------------ #
    # control plane: reload, lifecycle, stats
    # ------------------------------------------------------------------ #
    def _control(self, index: int, header: dict, timeout: float = 30.0) -> dict:
        future: concurrent.futures.Future = concurrent.futures.Future()
        self._send(index, _Request("control", future=future), header)
        return future.result(timeout)

    def reload(self, stream: str, domain_index: Optional[int] = None) -> int:
        """Hot-swap one stream to a registry version (default: the head).

        Only the owning worker reloads; its other streams and every other
        worker keep serving throughout.  The returned version becomes the
        stream's cache-key version, making all older answers unreachable.
        """
        index = self.worker_for(stream)
        header = {"op": "reload", "stream": stream}
        if domain_index is not None:
            header["domain_index"] = domain_index
        response = self._control(index, header)
        version = int(response["model_version"])
        self._versions[stream] = version
        return version

    def service(self, stream: str) -> "RemoteStreamHandle":
        """Duck-typed hot-swap hook for :class:`~repro.monitor.AdaptationController`.

        The returned handle implements ``reload(registry, stream,
        domain_index=None) -> int`` with the same signature as
        :class:`~repro.serve.service.PredictionService`, so the existing
        controller can accept/rollback adaptations on an out-of-process
        fleet without modification.
        """
        return RemoteStreamHandle(self, stream)

    def ping(self, index: int, timeout: float = 10.0) -> dict:
        """Liveness probe of one worker (its pid and served streams)."""
        return self._control(index, {"op": "ping"}, timeout=timeout)

    def set_worker_delay(self, index: int, delay_ms: float, timeout: float = 10.0) -> dict:
        """Install (or clear, with 0) a straggler delay on one worker.

        Chaos control for the SLO harness: the worker stalls each predict by
        ``delay_ms`` before batching, making it a slow shard while every
        other worker keeps its latency — the injection is per-process, so
        the blast radius is exactly the worker's own streams.
        """
        if delay_ms < 0:
            raise ValueError("delay_ms must be non-negative")
        return self._control(
            index, {"op": "chaos", "delay_ms": float(delay_ms)}, timeout=timeout
        )

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker (failure injection); its queries fail typed."""
        self.manager.kill(index)

    def restart_worker(self, index: int) -> int:
        """Restart one worker slot and reconnect; returns the new port."""
        self._hang_up(index, "worker restarting")
        return self.manager.restart(index)

    def stats(self, include_worker_stats: bool = True) -> GatewayStats:
        """Fleet-wide :class:`GatewayStats` (same shape as the in-process gateway).

        ``service`` counters come from the workers' own batch counters over
        the control channel, best-effort: a dead worker contributes zeros
        rather than failing the snapshot.
        """
        uptime = self._clock() - self._started
        snapshots = []
        for shard in self._shards:
            handle = self.manager.workers[shard.index]
            with shard.lock:
                answered = shard.answered
                shed = shard.shed
                in_flight = shard.in_flight
                latency_s = shard.latency_s
                latency_samples = shard.latency_samples
            service_totals = ServiceStats(0, 0, 0)
            if include_worker_stats and handle.alive:
                with contextlib.suppress(Exception):
                    response = self._control(shard.index, {"op": "stats"}, timeout=5.0)
                    service_totals = ServiceStats(
                        queries=int(response.get("queries", 0)),
                        batches=int(response.get("batches", 0)),
                        largest_batch=int(response.get("largest_batch", 0)),
                    )
            snapshots.append(
                ShardStats(
                    index=shard.index,
                    streams=handle.streams,
                    answered=answered,
                    shed=shed,
                    in_flight=in_flight,
                    capacity=self._max_pending or 0,
                    latency_s=latency_s,
                    latency_samples=latency_samples,
                    uptime_s=uptime,
                    cache=shard.cache.stats(),
                    service=service_totals,
                )
            )
        return GatewayStats(shards=tuple(snapshots))

    def close(self) -> None:
        """Fail in-flight work, hang up on every worker, and stop the fleet."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for index in range(self.n_workers):
            self._hang_up(index, "the front door closed")
        self.manager.stop()

    def __enter__(self) -> "MultiprocGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemoteStreamHandle:
    """``PredictionService``-shaped hot-swap handle for one fleet stream."""

    def __init__(self, gateway: MultiprocGateway, stream: str) -> None:
        self._gateway = gateway
        self.stream = stream

    def reload(self, registry, stream: Optional[str] = None, domain_index: Optional[int] = None) -> int:
        """Hot-swap to a registry version (default head); returns its index.

        ``registry`` is accepted for signature compatibility with
        :meth:`PredictionService.reload` but the *worker's* registry handle
        (opened on the same root) performs the load — model bytes never
        cross the control socket.
        """
        target = stream if stream is not None else self.stream
        if target != self.stream:
            raise ValueError(
                f"handle is bound to stream '{self.stream}'; got '{target}'"
            )
        return self._gateway.reload(self.stream, domain_index)

    @property
    def version_hint(self) -> Optional[int]:
        """Last version observed in this stream's responses or reloads."""
        return self._gateway._versions.get(self.stream)
