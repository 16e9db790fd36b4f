"""Multi-tenant serving gateway: one front door over a fleet of services.

A single :class:`~repro.serve.service.PredictionService` serves one stream's
model.  A production deployment serves *many* streams — days, subsidiaries,
scenarios — each with its own model lineage in the
:class:`~repro.serve.registry.ModelRegistry`.  :class:`ServingGateway` is the
front door over that fleet:

* **deterministic routing** — :class:`ShardRouter` maps a stream key to a
  shard with a SHA-256 digest, so the same key lands on the same shard in
  every process, across restarts and Python hash randomisation;
* **lazy spin-up** — the first query for a stream loads the stream's head
  version from the registry (or a custom ``loader``) and starts its
  :class:`PredictionService`; idle streams cost nothing;
* **response caching** — each shard keeps a TTL+LRU
  :class:`~repro.serve.cache.TTLLRUCache` keyed on
  ``(stream, model version, row digest)``.  Every query executes at the
  canonical batch size or at a size certified to give the same answers, so a
  response is a pure function of that key: a cache hit is *bitwise* the
  answer a cold query would produce, and a version bump (hot swap after
  adaptation or rollback) changes the key, so stale answers become
  unreachable without an explicit flush.  Models served
  without a version tag are never cached — the tag is the consistency token;
* **admission control** — each shard bounds its in-flight queries
  (``max_pending_per_shard``); a submit beyond the bound is shed with a typed
  :class:`Overloaded` error *before* reaching any service, so shed queries
  never enter a batcher, never execute, and — like rejected submits since the
  monitor PR — never reach traffic observers or drift windows;
* **fleet-wide stats** — :meth:`ServingGateway.stats` snapshots consistent
  per-shard counters (:class:`ShardStats`: throughput, latency, occupancy,
  cache hit rate) aggregated into :class:`GatewayStats`.

Monitoring attaches *per shard stream*: ``gateway.service(stream)`` exposes
the underlying service so a :class:`~repro.monitor.TrafficMonitor` can
register as a traffic observer exactly as it does on a standalone service.
Cache hits are answered at the gateway and therefore do not enter drift
windows — the window sees the rows the model actually executed, which is the
observer contract established by the monitor layer.

Each stream's service owns its learner exclusively (the inference workspaces
are not shareable across dispatcher threads); the registry loader returns a
fresh learner per ``load``, and custom loaders must do the same.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .cache import CacheStats, TTLLRUCache
from .service import PendingPrediction, Prediction, PredictionService, ServiceStats

__all__ = [
    "GatewayStats",
    "Overloaded",
    "ServingGateway",
    "ShardRouter",
    "ShardStats",
    "stable_stream_digest",
]


def stable_stream_digest(stream: str) -> int:
    """A process-independent 64-bit digest of a stream key.

    Built on SHA-256 rather than ``hash()``: Python's string hash is salted
    per process, and routing must send the same stream to the same shard
    across restarts (cache keys, monitor attachments and capacity planning
    all assume stable placement).
    """
    return int.from_bytes(hashlib.sha256(stream.encode("utf-8")).digest()[:8], "big")


class ShardRouter:
    """Deterministic stream-key → shard-index mapping."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self.n_shards = n_shards

    def shard_for(self, stream: str) -> int:
        """Shard index serving ``stream`` (pure function of the key)."""
        return stable_stream_digest(stream) % self.n_shards


class Overloaded(RuntimeError):
    """A query shed by admission control: the target shard's queue is full.

    Carries enough context for the caller to retry elsewhere or back off.
    Shed queries never reach a service, a batcher, or a traffic observer.
    """

    def __init__(
        self,
        stream: str,
        shard_index: int,
        in_flight: int,
        capacity: int,
        retry_after_s: "Optional[float]" = None,
    ) -> None:
        super().__init__(
            f"shard {shard_index} is overloaded: {in_flight}/{capacity} queries "
            f"in flight (stream '{stream}')"
        )
        self.stream = stream
        self.shard_index = shard_index
        self.in_flight = in_flight
        self.capacity = capacity
        #: Uniform back-off hint across every shed type (RateLimited carries a
        #: real estimate); queue pressure has no honest ETA, so None here —
        #: load harnesses read the field, never the type, to decide a retry.
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class ShardStats:
    """Consistent snapshot of one shard's lifetime counters."""

    index: int
    #: Streams spun up on this shard, in first-query order.
    streams: Tuple[str, ...]
    #: Queries answered (cache hits + executed queries + direct predict rows).
    answered: int
    #: Queries shed by admission control.
    shed: int
    #: Queries currently submitted and not yet resolved.
    in_flight: int
    #: Admission bound (0 = unbounded).
    capacity: int
    #: Summed completion latency of executed (non-cache-hit) queries.
    latency_s: float
    #: Number of latency samples behind :attr:`latency_s`.
    latency_samples: int
    #: Seconds since the gateway started (the throughput time base).
    uptime_s: float
    cache: CacheStats = field(default=CacheStats(0, 0, 0, 0, 0, 0))
    #: Micro-batching counters summed over the shard's services.
    service: ServiceStats = field(default=ServiceStats(0, 0, 0))

    @property
    def throughput_qps(self) -> float:
        """Answered queries per second of gateway uptime."""
        return self.answered / self.uptime_s if self.uptime_s > 0 else 0.0

    @property
    def mean_latency_s(self) -> float:
        """Mean submit-to-resolution latency of executed queries."""
        return self.latency_s / self.latency_samples if self.latency_samples else 0.0

    @property
    def occupancy(self) -> float:
        """In-flight fraction of the admission bound (0.0 when unbounded)."""
        return self.in_flight / self.capacity if self.capacity else 0.0


@dataclass(frozen=True)
class GatewayStats:
    """Fleet-wide aggregate over every shard's snapshot."""

    shards: Tuple[ShardStats, ...]

    @property
    def answered(self) -> int:
        return sum(shard.answered for shard in self.shards)

    @property
    def shed(self) -> int:
        return sum(shard.shed for shard in self.shards)

    @property
    def in_flight(self) -> int:
        return sum(shard.in_flight for shard in self.shards)

    @property
    def streams(self) -> Tuple[str, ...]:
        return tuple(stream for shard in self.shards for stream in shard.streams)

    @property
    def cache_hits(self) -> int:
        return sum(shard.cache.hits for shard in self.shards)

    @property
    def cache_misses(self) -> int:
        return sum(shard.cache.misses for shard in self.shards)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def throughput_qps(self) -> float:
        """Aggregate answered queries per second of gateway uptime."""
        return sum(shard.throughput_qps for shard in self.shards)

    @property
    def mean_latency_s(self) -> float:
        samples = sum(shard.latency_samples for shard in self.shards)
        if not samples:
            return 0.0
        return sum(shard.latency_s for shard in self.shards) / samples


class _Shard:
    """One routing target: its services, admission counter and cache."""

    __slots__ = (
        "index",
        "lock",
        "spin_lock",
        "services",
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
        #: Serialises model loading only, so a slow spin-up never blocks
        #: the counter lock (stats stay responsive during cold starts).
        self.spin_lock = threading.Lock()
        self.services: Dict[str, PredictionService] = {}  # guarded-by: lock
        self.in_flight = 0  # guarded-by: lock
        self.answered = 0  # guarded-by: lock
        self.shed = 0  # guarded-by: lock
        self.latency_s = 0.0  # guarded-by: lock
        self.latency_samples = 0  # guarded-by: lock
        self.cache = cache


class ServingGateway:
    """Route, cache, shed and serve single-unit ITE queries for many streams.

    Parameters
    ----------
    registry:
        A :class:`~repro.serve.ModelRegistry`; each stream's first query
        loads that stream's *head* version.  Mutually exclusive default for
        ``loader``.
    loader:
        Alternative spin-up hook ``loader(stream) -> (learner, version)``;
        must return a learner not shared with any other stream (services own
        their learner's inference workspaces).
    n_shards:
        Number of routing targets.  Streams are digest-assigned; several
        streams may share a shard (they keep separate services and models,
        but share the shard's admission bound and cache).
    max_batch, max_wait_ms:
        Micro-batching knobs handed to every spun-up service; ``max_batch``
        is the canonical execution size underpinning cache transparency
        (each service pads a batch only to a size certified to answer like
        ``max_batch`` rows, see :class:`PredictionService`).
    max_pending_per_shard:
        Admission bound on in-flight queries per shard; ``None`` disables
        shedding.
    cache_capacity, cache_ttl_s:
        Per-shard response cache size (0 disables caching) and optional
        entry lifetime.
    clock:
        Monotonic time source (latency/TTL/uptime), injectable for tests.
    """

    def __init__(
        self,
        registry=None,
        loader: Optional[Callable[[str], Tuple[object, Optional[int]]]] = None,
        n_shards: int = 4,
        max_batch: int = 128,
        max_wait_ms: float = 0.0,
        max_pending_per_shard: Optional[int] = None,
        cache_capacity: int = 1024,
        cache_ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if (registry is None) == (loader is None):
            raise ValueError("provide exactly one of registry or loader")
        if max_pending_per_shard is not None and max_pending_per_shard < 1:
            raise ValueError("max_pending_per_shard must be at least 1 (or None)")
        self._loader = loader if loader is not None else self._registry_loader(registry)
        self._router = ShardRouter(n_shards)
        self._max_batch = max_batch
        self._max_wait_ms = max_wait_ms
        self._max_pending = max_pending_per_shard
        self._clock = clock
        self._started = clock()
        self._closed = False
        self._close_lock = threading.Lock()
        self._shards = [
            _Shard(index, TTLLRUCache(cache_capacity, ttl_s=cache_ttl_s, clock=clock))
            for index in range(n_shards)
        ]

    @staticmethod
    def _registry_loader(registry) -> Callable[[str], Tuple[object, Optional[int]]]:
        def load(stream: str):
            entry = registry.entry(stream)  # the stream's head version
            return registry.load(stream, entry.domain_index), entry.domain_index

        return load

    # ------------------------------------------------------------------ #
    # routing and spin-up
    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        return self._router.n_shards

    def shard_for(self, stream: str) -> int:
        """Shard index serving ``stream`` (deterministic across processes)."""
        return self._router.shard_for(stream)

    def streams(self) -> List[str]:
        """Streams with a spun-up service, sorted."""
        return sorted(
            stream for shard in self._shards for stream in shard.services
        )

    def service(self, stream: str) -> PredictionService:
        """The stream's service, spun up from the loader on first use.

        This is the monitor attachment point:
        ``TrafficMonitor(...).attach(gateway.service(stream))`` taps exactly
        the queries the stream's model executes.
        """
        shard = self._shards[self._router.shard_for(stream)]
        service = shard.services.get(stream)
        if service is not None:
            return service
        with shard.spin_lock:
            service = shard.services.get(stream)
            if service is not None:
                return service
            if self._closed:
                raise RuntimeError("cannot spin up a stream on a closed ServingGateway")
            learner, version = self._loader(stream)
            service = PredictionService(
                learner,
                model_version=version,
                max_batch=self._max_batch,
                max_wait_ms=self._max_wait_ms,
            )
            with shard.lock:
                shard.services[stream] = service
            return service

    def reload(self, stream: str) -> Optional[int]:
        """Re-run the loader (registry head) and hot-swap the stream's model.

        The new version tag changes every cache key for the stream, so
        answers produced by the previous version become unreachable — this
        is the invalidation path after an adaptation or rollback.
        """
        learner, version = self._loader(stream)
        self.service(stream).swap_model(learner, model_version=version)
        return version

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def submit(self, stream: str, covariates: np.ndarray) -> PendingPrediction:
        """Enqueue one unit's query for ``stream``; returns a waitable handle.

        Raises :class:`Overloaded` (without side effects on any service or
        observer) when the target shard's admission bound is reached.  A
        cache hit returns an already-resolved handle carrying the bitwise
        answer a cold query would produce.
        """
        if self._closed:
            raise RuntimeError("cannot submit to a closed ServingGateway")
        shard = self._shards[self._router.shard_for(stream)]
        service = self.service(stream)
        row = self._as_row(covariates)
        key = None
        if shard.cache.capacity:
            # version_hint is lock-free on purpose: the model lock is held
            # for whole batch executions, and a submit must not stall behind
            # them.  A stale hint costs one miss; fills key by the version
            # the response actually reports.
            version = service.version_hint
            if version is not None:
                key = (stream, version, hashlib.sha256(row.tobytes()).digest())
                cached = shard.cache.get(key)
                if cached is not None:
                    with shard.lock:
                        shard.answered += 1
                    pending = PendingPrediction()
                    pending._set_result(cached)
                    return pending
        if self._max_pending is not None:
            with shard.lock:
                if shard.in_flight >= self._max_pending:
                    shard.shed += 1
                    raise Overloaded(
                        stream, shard.index, shard.in_flight, self._max_pending
                    )
                shard.in_flight += 1
        else:
            with shard.lock:
                shard.in_flight += 1
        start = self._clock()
        try:
            pending = service.submit(row)
        except BaseException:
            with shard.lock:
                shard.in_flight -= 1
            raise
        pending.add_done_callback(
            lambda done: self._finish(shard, stream, key, start, done)
        )
        return pending

    def predict_one(
        self, stream: str, covariates: np.ndarray, timeout: Optional[float] = None
    ) -> Prediction:
        """Blocking single-unit query (cache → admission → micro-batcher)."""
        return self.submit(stream, covariates).result(timeout)

    def predict(self, stream: str, covariates: np.ndarray):
        """Direct batched prediction on the stream's service.

        Bypasses cache and admission control (a batch is one model execution,
        not per-unit front-door traffic); rows count toward the shard's
        answered total so fleet throughput reflects all served work.
        """
        shard = self._shards[self._router.shard_for(stream)]
        estimate = self.service(stream).predict(covariates)
        rows = covariates.shape[0] if getattr(covariates, "ndim", 1) == 2 else 1
        with shard.lock:
            shard.answered += rows
        return estimate

    def _finish(
        self,
        shard: _Shard,
        stream: str,
        key,
        start: float,
        pending: PendingPrediction,
    ) -> None:
        elapsed = self._clock() - start
        failed = pending._error is not None
        with shard.lock:
            shard.in_flight -= 1
            if not failed:
                shard.answered += 1
                shard.latency_s += elapsed
                shard.latency_samples += 1
        if failed:
            return
        result = pending._result
        if result.model_version is not None:
            # Key by the version that actually answered (a hot swap may have
            # landed between the lookup and the execution); an untagged
            # model is never cached — the tag is the consistency token.
            digest = key[2] if key is not None else None
            if digest is None:
                return
            shard.cache.put((stream, result.model_version, digest), result)

    # ------------------------------------------------------------------ #
    # stats and lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> GatewayStats:
        """Consistent per-shard snapshots, aggregated fleet-wide."""
        uptime = self._clock() - self._started
        snapshots = []
        for shard in self._shards:
            with shard.lock:
                streams = tuple(shard.services)
                answered = shard.answered
                shed = shard.shed
                in_flight = shard.in_flight
                latency_s = shard.latency_s
                latency_samples = shard.latency_samples
                services = list(shard.services.values())
            service_totals = ServiceStats(0, 0, 0)
            for service in services:
                one = service.stats()
                service_totals = ServiceStats(
                    queries=service_totals.queries + one.queries,
                    batches=service_totals.batches + one.batches,
                    largest_batch=max(service_totals.largest_batch, one.largest_batch),
                )
            snapshots.append(
                ShardStats(
                    index=shard.index,
                    streams=streams,
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
        """Drain and stop every spun-up service; reject new work."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for shard in self._shards:
            # Taking the spin lock serialises against an in-flight spin-up:
            # either it finished registering (and its service is closed
            # below) or it has not re-checked _closed yet and will refuse.
            with shard.spin_lock:
                with shard.lock:
                    services = list(shard.services.values())
            for service in services:
                service.close()

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _as_row(covariates: np.ndarray) -> np.ndarray:
        """Canonical float64 1-D view (the digestable cache identity).

        Only read here (digest) — the defensive snapshot copy happens once,
        in the service's own ``submit``, so the hot path pays a single copy
        per query.  Feature-count validation also stays with the service.
        """
        row = np.ascontiguousarray(covariates, dtype=np.float64)
        if row.ndim == 2 and row.shape[0] == 1:
            row = row[0]
        if row.ndim != 1:
            raise ValueError(
                f"a single-unit query must be a 1-D covariate vector "
                f"(or a (1, p) array); got shape {row.shape}"
            )
        return row
