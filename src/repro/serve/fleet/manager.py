"""Fleet lifecycle: spawn, restart, drain and address shard worker processes.

:class:`FleetManager` owns the OS processes of the fleet.  Streams are
assigned to workers with the same SHA-256 digest routing the in-process
gateway uses (:class:`~repro.serve.gateway.ShardRouter`), so a stream lands
on the same worker index in every process and across restarts.

Start method defaults to ``spawn``: the manager lives in a threaded serving
process (the front door's connection readers and its callers' threads), and
forking a threaded parent can inherit locks mid-acquisition — ``spawn``
sidesteps the whole class of deadlocks.  A spawned worker re-imports the
package before it can serve, so :meth:`start` launches every worker process
first and only then waits for them: the workers import side by side, and
the fleet is up in roughly the time of its slowest worker rather than the
sum of all of them.

Each worker start performs a pipe handshake: the child sends
``("ready", port)`` once it is listening *and* its streams' checkpoints are
loaded, so :meth:`start` returning means the fleet is serving.  If any worker
fails to start (an ``("error", message)`` handshake, a missed deadline, or an
exception while waiting), every process that start launched is killed and
joined, ready or not, before the first error propagates: a failed start
leaves no worker running.  Workers are daemonic — an abandoned manager cannot
leak serving processes past its own exit.

:meth:`kill` (SIGKILL, no drain) exists deliberately: the failure-injection
experiment uses it to prove that losing one worker neither stalls nor
corrupts any other tenant, and :meth:`restart` brings the dead shard back on
a fresh port (the front door re-resolves addresses through
:meth:`endpoint_for`).
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import socket
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..gateway import ShardRouter
from .wire import read_frame, write_frame
from .worker import worker_main

__all__ = ["FleetManager", "WorkerHandle"]


@dataclass
class WorkerHandle:
    """Book-keeping for one worker process slot."""

    index: int
    streams: Tuple[str, ...]
    process: Optional[mp.process.BaseProcess] = None
    port: Optional[int] = None
    #: Bumped on every (re)start; lets the front door detect stale sockets.
    generation: int = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class FleetManager:
    """Spawn and supervise one worker process per shard.

    Parameters
    ----------
    registry_root:
        Root of the shared :class:`~repro.serve.ModelRegistry`; every worker
        opens its own handle onto it (processes share no Python state, only
        the checkpoint files — which they memory-map).
    streams:
        All stream names the fleet serves; digest-partitioned across workers.
    n_workers:
        Worker process count (streams may share a worker, exactly as streams
        share a shard in-process).
    max_batch, max_payload:
        Forwarded to every worker: its canonical execution size and its
        per-frame payload limit.
    start_method:
        ``multiprocessing`` start method; default ``"spawn"`` (see module
        docstring).
    startup_timeout_s:
        Deadline for a whole start (:meth:`start`, or one :meth:`restart`),
        measured from the launch of its worker processes: every worker must
        report ready within it.
    """

    def __init__(
        self,
        registry_root: Union[str, Path],
        streams: Sequence[str],
        n_workers: int = 2,
        max_batch: int = 128,
        max_payload: Optional[int] = None,
        start_method: str = "spawn",
        startup_timeout_s: float = 60.0,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if not streams:
            raise ValueError("a fleet needs at least one stream")
        self.registry_root = str(registry_root)
        self.router = ShardRouter(n_workers)
        self.max_batch = max_batch
        self.max_payload = max_payload
        self.startup_timeout_s = startup_timeout_s
        self._ctx = mp.get_context(start_method)
        assignments: Dict[int, List[str]] = {index: [] for index in range(n_workers)}
        for stream in streams:
            assignments[self.router.shard_for(stream)].append(stream)
        self.workers: List[WorkerHandle] = [
            WorkerHandle(index=index, streams=tuple(assignments[index]))
            for index in range(n_workers)
        ]
        self._started = False

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        return self.router.n_shards

    def worker_for(self, stream: str) -> int:
        """Worker index serving ``stream`` (pure digest function of the key)."""
        return self.router.shard_for(stream)

    def endpoint_for(self, stream: str) -> Tuple[str, int]:
        """Current ``(host, port)`` of the worker owning ``stream``."""
        handle = self.workers[self.worker_for(stream)]
        if handle.port is None:
            raise RuntimeError(f"worker {handle.index} has not been started")
        return ("127.0.0.1", handle.port)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Launch every worker, then wait until all report ready (and serving).

        The worker processes are launched together and their handshakes are
        awaited against one ``startup_timeout_s`` deadline.  If any worker
        fails, every process this call launched is killed and joined before
        the first error is raised.
        """
        if self._started:
            return
        self._start_workers([handle for handle in self.workers if handle.streams])
        self._started = True

    def _start_workers(self, handles: Sequence[WorkerHandle]) -> None:
        """Launch ``handles``' processes, then wait for each ready handshake.

        All-or-nothing: the handles take their new process and port only
        once every worker is ready; on any failure every launched process is
        killed and joined, and the handles keep their previous state.
        """
        deadline = time.monotonic() + self.startup_timeout_s
        launched: List[Tuple[WorkerHandle, mp.process.BaseProcess, Connection]] = []
        try:
            for handle in handles:
                launched.append((handle, *self._launch(handle)))
            ports = [
                self._await_ready(handle, conn, deadline) for handle, _, conn in launched
            ]
        except BaseException:
            for _, process, conn in launched:
                conn.close()
                process.kill()
                process.join(timeout=10.0)
            raise
        for (handle, process, _), port in zip(launched, ports):
            handle.process = process
            handle.port = port
            handle.generation += 1

    def _launch(self, handle: WorkerHandle) -> Tuple[mp.process.BaseProcess, Connection]:
        """Start one worker process; returns it and the read end of its handshake pipe."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        kwargs = {"max_batch": self.max_batch}
        if self.max_payload is not None:
            kwargs["max_payload"] = self.max_payload
        process = self._ctx.Process(
            target=worker_main,
            args=(self.registry_root, handle.streams, child_conn),
            kwargs=kwargs,
            name=f"repro-fleet-worker-{handle.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def _await_ready(self, handle: WorkerHandle, conn: Connection, deadline: float) -> int:
        """Read one worker's handshake by ``deadline``; returns its port."""
        try:
            if not conn.poll(max(deadline - time.monotonic(), 0.0)):
                raise TimeoutError(
                    f"worker {handle.index} did not report ready within "
                    f"{self.startup_timeout_s:.0f}s of launch"
                )
            status, value = conn.recv()
        finally:
            conn.close()
        if status != "ready":
            raise RuntimeError(f"worker {handle.index} failed to start: {value}")
        return int(value)

    def kill(self, index: int) -> None:
        """SIGKILL one worker — no drain, no goodbye (failure injection)."""
        handle = self.workers[index]
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=10.0)

    def restart(self, index: int) -> int:
        """(Re)spawn one worker slot on a fresh port; returns the new port.

        The other workers are untouched — their streams keep serving while
        this shard reloads its checkpoints (hot restart).
        """
        handle = self.workers[index]
        if not handle.streams:
            raise ValueError(f"worker {index} has no assigned streams")
        if handle.process is not None and handle.process.is_alive():
            self._graceful_stop(handle)
        self._start_workers([handle])
        return handle.port

    def stop(self) -> None:
        """Gracefully stop every live worker (shutdown op, then join/kill)."""
        for handle in self.workers:
            if handle.process is None:
                continue
            if handle.process.is_alive():
                self._graceful_stop(handle)
            handle.process = None
            handle.port = None
        self._started = False

    def _graceful_stop(self, handle: WorkerHandle) -> None:
        with contextlib.suppress(OSError), socket.create_connection(
            ("127.0.0.1", handle.port), timeout=5.0
        ) as sock:
            write_frame(sock, {"op": "shutdown", "id": 0})
            read_frame(sock)  # the "bye" ack; best-effort
        handle.process.join(timeout=10.0)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=10.0)

    # ------------------------------------------------------------------ #
    # liveness
    # ------------------------------------------------------------------ #
    def alive(self) -> List[bool]:
        """Per-worker liveness snapshot."""
        return [handle.alive for handle in self.workers]

    def wait_port(self, index: int, timeout_s: float = 10.0) -> int:
        """Block until worker ``index`` accepts connections; returns its port."""
        handle = self.workers[index]
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if handle.port is not None:
                with contextlib.suppress(OSError), socket.create_connection(
                    ("127.0.0.1", handle.port), timeout=1.0
                ):
                    return handle.port
            time.sleep(0.05)
        raise TimeoutError(f"worker {index} did not become reachable")

    def __enter__(self) -> "FleetManager":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
