"""Out-of-process shard fleet: multiprocess workers behind a blocking-socket front door.

The in-process :class:`~repro.serve.ServingGateway` scales to the thread
limit of one interpreter; this package crosses the process boundary while
keeping every serving contract intact:

* :mod:`.wire` — the pickle-free length-prefixed protocol (JSON header + raw
  float64 payload) with typed errors and before-allocation size limits;
* :mod:`.worker` — the shard worker process: memory-mapped checkpoint loads,
  the same canonical batch execution as in-process serving (bitwise identity
  across the boundary), each connection's pipelined reads batched and
  answered on its own thread;
* :mod:`.manager` — fleet lifecycle: spawn/drain/restart/kill worker
  processes with digest-stable stream assignment;
* :mod:`.frontdoor` — :class:`MultiprocGateway`: pooled blocking sockets
  written from the callers' threads and read by one thread per connection,
  pipelining, the bitwise-transparent response cache, and per-tenant rate
  limits/quotas with typed shedding.
"""

from .frontdoor import (
    FleetError,
    MultiprocGateway,
    QuotaExceeded,
    RateLimited,
    RemoteError,
    RemoteStreamHandle,
    TenantPolicy,
    WorkerUnavailable,
)
from .manager import FleetManager, WorkerHandle
from .wire import (
    DEFAULT_MAX_PAYLOAD_BYTES,
    MAX_HEADER_BYTES,
    WIRE_DTYPE,
    FrameTooLarge,
    ProtocolError,
    TruncatedFrame,
    WireError,
    decode_array,
    encode_rows,
    read_frame,
    write_frame,
)
from .worker import WorkerServer, worker_main

__all__ = [
    "DEFAULT_MAX_PAYLOAD_BYTES",
    "FleetError",
    "FleetManager",
    "FrameTooLarge",
    "MAX_HEADER_BYTES",
    "MultiprocGateway",
    "ProtocolError",
    "QuotaExceeded",
    "RateLimited",
    "RemoteError",
    "RemoteStreamHandle",
    "TenantPolicy",
    "TruncatedFrame",
    "WIRE_DTYPE",
    "WireError",
    "WorkerHandle",
    "WorkerServer",
    "WorkerUnavailable",
    "decode_array",
    "encode_rows",
    "read_frame",
    "worker_main",
    "write_frame",
]
