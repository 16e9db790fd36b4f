"""Continual serving layer: versioned model registry + prediction service.

Turns a trained continual learner into a long-lived deployment, per the
paper's scenario (data arrive over days / from different subsidiaries, only
the model and representation memory persist):

* :class:`ModelRegistry` — versioned estimator checkpoints per stream
  (any registered estimator: CERL, the CFR strategies, the meta-learners)
  (save on every domain advance, list/load/rollback by ``(stream,
  domain_index)``, atomic writes, format-versioned manifests);
* :class:`PredictionService` / :class:`MicroBatcher` — single-unit ITE
  queries coalesced into batches on the no-graph inference fast path,
  padded to a size certified per model to stay bit-identical to a direct
  batched ``predict`` over ``max_batch`` rows; traffic observers
  (``add_observer``) let :mod:`repro.monitor` tap the query stream for
  drift detection;
* :class:`ServingGateway` — the multi-tenant front door: deterministic
  digest routing of stream keys onto shards, lazy per-stream service
  spin-up from registry heads, a bitwise-transparent TTL+LRU response
  cache keyed on ``(stream, model version, row digest)``, and admission
  control that sheds overload with a typed :class:`Overloaded` error
  before it can reach any service or traffic observer;
* :mod:`repro.serve.fleet` — the out-of-process tier: a
  :class:`~repro.serve.fleet.FleetManager` of shard worker *processes*
  (memory-mapped checkpoint loads, the same canonical-batch path —
  bitwise identity across the process boundary) behind the
  :class:`~repro.serve.fleet.MultiprocGateway` front door, which writes
  from its callers' threads over blocking sockets and has per-tenant
  rate limits/quotas;
* the end-to-end deployment protocol lives in
  :func:`repro.experiments.run_continual_deployment`, the drift-driven
  closed loop in :func:`repro.experiments.run_auto_adaptation`, and the
  multi-stream fleet scenario in
  :func:`repro.experiments.run_fleet_deployment`.
"""

from .cache import CacheStats, TTLLRUCache
from .fleet import (
    FleetManager,
    MultiprocGateway,
    QuotaExceeded,
    RateLimited,
    TenantPolicy,
    WorkerUnavailable,
)
from .gateway import (
    GatewayStats,
    Overloaded,
    ServingGateway,
    ShardRouter,
    ShardStats,
    stable_stream_digest,
)
from .registry import ModelRegistry, RegistryEntry
from .service import (
    MicroBatcher,
    PendingPrediction,
    Prediction,
    PredictionService,
    ServiceStats,
)

__all__ = [
    "CacheStats",
    "TTLLRUCache",
    "FleetManager",
    "MultiprocGateway",
    "QuotaExceeded",
    "RateLimited",
    "TenantPolicy",
    "WorkerUnavailable",
    "GatewayStats",
    "Overloaded",
    "ServingGateway",
    "ShardRouter",
    "ShardStats",
    "stable_stream_digest",
    "ModelRegistry",
    "RegistryEntry",
    "MicroBatcher",
    "PendingPrediction",
    "Prediction",
    "PredictionService",
    "ServiceStats",
]
