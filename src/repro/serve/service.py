"""High-throughput prediction serving over the no-graph inference fast path.

A deployed learner answers single-unit queries ("what is the treatment
effect for this customer?"), but the inference substrate is fastest when it
runs one large GEMM per layer.  :class:`MicroBatcher` bridges the two: client
threads submit single-unit queries, a dispatcher thread coalesces whatever is
queued into one batch (up to ``max_batch``, waiting at most ``max_wait_ms``
after the first query), runs the batch through the learner's
workspace-backed :meth:`~repro.nn.module.Module.infer` path, and scatters the
per-row results back to the waiting callers.

Exactness under micro-batching needs care: every layer of the inference path
is row-wise (dense layers, row-normalisation, element-wise activations), but
BLAS picks its GEMM kernel — and with it the summation order of each row's
dot products — from the *batch size*, so the same unit can round one ulp
differently in a 3-row batch than in a 400-row batch.  Within a fixed shape
each output row is a pure function of its own input row, independent of
batch position and of the other rows' values, so the answers of a
``max_batch``-row execution are the *canonical* ones: a response is bitwise
identical to the corresponding row of a direct batched ``predict`` over any
``max_batch``-row batch containing that unit — the serving tests pin
exactly this against a serial reference.

:class:`PredictionService` keeps that contract without making a lone query
pay for ``max_batch`` rows.  Before a model's first micro-batch it
*certifies* the power-of-two sizes below ``max_batch``: it predicts one
seeded ``max_batch``-row probe whole (the canonical answers), then re-runs
the whole probe as consecutive m-row slices for each power of two m, and
certifies m only if every slice reproduces its canonical rows bit for bit.
The whole probe is needed because a size's other kernel path may touch only
its tail rows.  Each batch is then padded (repeating its last row; padded
outputs are dropped) to the smallest certified size that holds it, or to
``max_batch`` when none does — also for a learner without ``n_features``,
which cannot be probed — so every answer still equals the canonical one and
cache keys, drift windows and bitwise references stay valid.

Certification runs on the thread that executes a batch, under the model
lock, in the same lock hold as the batch it precedes; a swap only resets the
certificate.  So ``swap_model`` and the direct
:meth:`PredictionService.predict` path stay O(1), every batch is padded per
the certificate of the model that executes it, and a probe that raises fails
that batch like any failed execution (the next batch tries again).

:class:`ServedModel` is the one home of that canonical execution: the
learner, its version, its certificate and the model lock, the padded batch
run and the swap.  :class:`PredictionService` runs it from its batcher's
dispatcher thread; a fleet worker runs it from each connection thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics import EffectEstimate

__all__ = [
    "MicroBatcher",
    "PendingPrediction",
    "Prediction",
    "PredictionService",
    "ServedModel",
    "ServiceStats",
]


@dataclass(frozen=True)
class Prediction:
    """Response to one single-unit ITE query."""

    mu0: float
    mu1: float
    ite: float
    model_version: Optional[int] = None


@dataclass(frozen=True)
class ServiceStats:
    """Lifetime counters of one service/batcher instance."""

    queries: int
    batches: int
    #: Largest number of queries coalesced into one batch so far (not the
    #: configured ``max_batch`` knob).
    largest_batch: int

    @property
    def mean_batch(self) -> float:
        """Average number of queries coalesced per executed batch."""
        return self.queries / self.batches if self.batches else 0.0


class PendingPrediction:
    """Future-like handle for one submitted query."""

    __slots__ = ("_event", "_result", "_error", "_lock", "_callbacks")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Optional[Prediction] = None
        self._error: Optional[BaseException] = None
        self._lock = threading.Lock()
        self._callbacks: List[Callable[["PendingPrediction"], None]] = []  # guarded-by: _lock

    def done(self) -> bool:
        """Whether a result (or error) has been delivered."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Prediction:
        """Block until the batch containing this query has executed."""
        if not self._event.wait(timeout):
            raise TimeoutError("prediction did not complete in time")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def add_done_callback(self, callback: Callable[["PendingPrediction"], None]) -> None:
        """Invoke ``callback(self)`` once a result or error is delivered.

        Runs on the delivering (dispatcher) thread, after the waiter is
        released; if the handle is already done the callback runs immediately
        on the calling thread.  Used by the gateway for in-flight accounting
        and cache fills — callbacks must be cheap and must not raise.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def _deliver(self) -> None:
        self._event.set()
        with self._lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _set_result(self, result: Prediction) -> None:
        self._result = result
        self._deliver()

    def _set_error(self, error: BaseException) -> None:
        self._error = error
        self._deliver()


class MicroBatcher:
    """Coalesce single-row queries into batches executed by one function.

    Parameters
    ----------
    run_batch:
        Callable mapping a stacked ``(n, p)`` array to per-row results
        ``(mu0, mu1, ite, version)`` arrays/scalars; executed on the
        dispatcher thread, outside the queue lock.
    max_batch:
        Largest number of queries coalesced into one executed batch.  The
        batcher does not pad: ``run_batch`` gets exactly the queued rows and
        decides the execution shape (:class:`PredictionService` pads to a
        certified size, see the module docstring).
    max_wait_ms:
        Extra time the dispatcher waits for more queries after the first one
        arrives.  The default ``0`` dispatches immediately: batches still
        form naturally because everything that queues up while the previous
        batch executes is coalesced into the next one — under load that
        adapts batch size to throughput without adding a fixed latency floor.
        A positive wait only pays off when execution is far more expensive
        than a thread wake-up and traffic is sparse but bursty.
    on_batch:
        Optional hook ``on_batch(rows)`` invoked on the dispatcher thread
        after each *successfully* executed batch, with the read-only
        ``(k, p)`` array of the batch's query rows in submission order,
        before the per-row results are delivered.  A failed batch never
        reaches the hook, so taps (drift monitors) only ever see answered
        queries.  A hook exception is delivered to the batch's callers like
        an execution failure.
    """

    def __init__(
        self,
        run_batch: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[int]]],
        max_batch: int = 128,
        max_wait_ms: float = 0.0,
        on_batch: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self._run_batch = run_batch
        self._on_batch = on_batch
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1000.0
        self._queue: List[Tuple[np.ndarray, PendingPrediction]] = []  # guarded-by: _cond
        self._cond = threading.Condition()
        self._closed = False  # guarded-by: _cond
        self._queries = 0  # guarded-by: _cond
        self._batches = 0  # guarded-by: _cond
        self._largest_batch = 0  # guarded-by: _cond
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #
    def submit(self, row: np.ndarray) -> PendingPrediction:
        """Enqueue one query row; returns a handle to wait on."""
        pending = PendingPrediction()
        with self._cond:
            if self._closed:
                raise RuntimeError("cannot submit to a closed MicroBatcher")
            self._queue.append((row, pending))
            self._cond.notify_all()
        return pending

    def stats(self) -> ServiceStats:
        """Lifetime queue counters (thread-safe snapshot)."""
        with self._cond:
            return ServiceStats(
                queries=self._queries,
                batches=self._batches,
                largest_batch=self._largest_batch,
            )

    def close(self) -> None:
        """Drain the queue, stop the dispatcher thread and reject new work."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join()

    # ------------------------------------------------------------------ #
    # dispatcher side
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue and self._closed:
                    return
                if self.max_wait > 0.0 and not self._closed:
                    # Coalescing window: give concurrent clients a moment to
                    # pile on before the batch is cut.
                    deadline = time.monotonic() + self.max_wait
                    while len(self._queue) < self.max_batch and not self._closed:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0.0:
                            break
                        self._cond.wait(remaining)
                batch = self._queue[: self.max_batch]
                del self._queue[: self.max_batch]
                self._queries += len(batch)
                self._batches += 1
                self._largest_batch = max(self._largest_batch, len(batch))
            self._execute(batch)

    def _execute(self, batch: Sequence[Tuple[np.ndarray, PendingPrediction]]) -> None:
        try:
            stacked = np.stack([row for row, _ in batch])
            mu0, mu1, ite, version = self._run_batch(stacked)
            if self._on_batch is not None:
                stacked.setflags(write=False)
                self._on_batch(stacked)
            for index, (_, pending) in enumerate(batch):
                pending._set_result(
                    Prediction(
                        mu0=float(mu0[index]),
                        mu1=float(mu1[index]),
                        ite=float(ite[index]),
                        model_version=version,
                    )
                )
        except BaseException as error:  # deliver, don't kill the dispatcher
            for _, pending in batch:
                pending._set_error(error)


#: Seed of the probe rows a learner's pad sizes are certified on.
_PROBE_SEED = 20230403


def _pad(rows: np.ndarray, size: int) -> np.ndarray:
    """``rows`` followed by copies of its last row, ``size`` rows in all."""
    if len(rows) == size:
        return rows
    return np.concatenate([rows, np.repeat(rows[-1:], size - len(rows), axis=0)])


def _answer_bits(estimate) -> np.ndarray:
    """Bit patterns of an estimate's ``(mu0, mu1, ite)`` rows, shape ``(3, n)``."""
    answers = np.array(
        [estimate.y0_hat, estimate.y1_hat, estimate.ite_hat], dtype=np.float64
    )
    return answers.view(np.uint64)


def _certify(learner, n_features: Optional[int], max_batch: int) -> Tuple[int, ...]:
    """Power-of-two sizes below ``max_batch`` that answer like ``max_batch`` rows.

    One seeded ``max_batch``-row probe is predicted whole (the canonical
    answers), then again as consecutive m-row slices per candidate size m,
    the last slice padded like a served batch.  A size is certified only if
    every slice reproduces its canonical rows bit for bit; checking stops at
    the first mismatch.  The probe calls ``learner.predict`` directly, so its
    rows never reach observers, the response cache or :class:`ServiceStats`.
    """
    if n_features is None:
        return ()
    probe = np.random.default_rng(_PROBE_SEED).standard_normal((max_batch, n_features))
    canonical = _answer_bits(learner.predict(probe))
    certified = []
    size = 1
    while size < max_batch:
        for start in range(0, max_batch, size):
            rows = probe[start : start + size]
            answers = _answer_bits(learner.predict(_pad(rows, size)))
            if not np.array_equal(
                answers[:, : len(rows)], canonical[:, start : start + len(rows)]
            ):
                break
        else:
            certified.append(size)
        size *= 2
    return tuple(certified)


class ServedModel:
    """One served learner and its canonical batch execution.

    Holds the learner, the version stamped on its answers, its certificate
    of pad sizes and the model lock.  :meth:`run` answers a stacked batch of
    query rows as a ``max_batch``-row execution would, padding to a certified
    size (see the module docstring); :meth:`swap` replaces the learner
    atomically with respect to running batches.  It starts no thread: the
    caller's thread runs every batch.

    Parameters
    ----------
    learner:
        Any fitted learner exposing ``predict(covariates) -> EffectEstimate``.
    model_version:
        Version tag stamped on answers (the registry's domain index).
    max_batch:
        The canonical execution size, and the most rows :meth:`run` takes.
    """

    def __init__(self, learner, model_version: Optional[int] = None, max_batch: int = 128) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.max_batch = max_batch
        self._model_lock = threading.Lock()
        self._learner = learner  # guarded-by: _model_lock
        self._model_version = model_version  # guarded-by: _model_lock
        self._n_features = self._learner_features(learner)  # guarded-by: _model_lock
        # Certified pad sizes of the serving learner; None until its first
        # batch certifies it.
        self._certified = None  # guarded-by: _model_lock

    @staticmethod
    def _learner_features(learner) -> Optional[int]:
        return getattr(learner, "n_features", None)

    def swap(self, learner, model_version: Optional[int] = None) -> None:
        """Replace the served learner atomically w.r.t. running batches."""
        n_features = self._learner_features(learner)
        with self._model_lock:
            self._learner = learner
            self._model_version = model_version
            self._n_features = n_features
            self._certified = None

    @property
    def version(self) -> Optional[int]:
        """Version tag of the learner currently serving."""
        with self._model_lock:
            return self._model_version

    @property
    def version_hint(self) -> Optional[int]:
        """Lock-free read of the version tag (may lag an in-flight swap).

        The model lock is held for the whole batch execution, so readers
        that only need an *advisory* version — the gateway's cache-key
        lookup — must not take it on the submit path.  A stale hint costs at
        most one cache miss; cache fills key by the version the response
        actually reports, never by this hint.
        """
        return self._model_version

    @property
    def certified_sizes(self) -> Optional[Tuple[int, ...]]:
        """Pad sizes below ``max_batch`` certified for the serving learner."""
        with self._model_lock:
            return self._certified

    def as_row(self, covariates: np.ndarray) -> np.ndarray:
        """One query's covariates as a private 1-D row, or ``ValueError``."""
        row = np.asarray(covariates, dtype=np.float64)
        if row.ndim == 2 and row.shape[0] == 1:
            row = row[0]
        if row.ndim != 1:
            raise ValueError(
                f"a single-unit query must be a 1-D covariate vector "
                f"(or a (1, p) array); got shape {row.shape}"
            )
        expected = self._n_features
        if expected is not None and row.shape[0] != expected:
            raise ValueError(
                f"query has {row.shape[0]} covariates, model expects {expected}"
            )
        # Snapshot the row: a batch reads it later, and a client that reuses
        # one buffer across asynchronous submits must not have queued
        # queries silently follow the buffer's later contents.
        return row.copy()

    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        """Direct batched prediction under the model lock (no padding)."""
        with self._model_lock:
            return self._learner.predict(covariates)

    def run(self, stacked: np.ndarray):
        """Canonical answers ``(mu0, mu1, ite, version)`` for ``stacked``'s rows.

        ``stacked`` holds at most ``max_batch`` rows.  The per-row arrays are
        bitwise identical to those rows of a direct ``max_batch``-row
        ``predict`` by the learner whose version is returned.
        """
        with self._model_lock:
            # Certify under the same lock hold that executes, so a batch is
            # padded per the certificate of the model that answers it even
            # when a swap lands between submit and execution.  A probe that
            # raises fails this batch and leaves the next one to retry.
            if self._certified is None:
                self._certified = _certify(self._learner, self._n_features, self.max_batch)
            size = next(
                (fit for fit in self._certified if fit >= len(stacked)), self.max_batch
            )
            estimate = self._learner.predict(_pad(stacked, size))
            version = self._model_version
        # ite is elementwise over rows, so per-row results stay bitwise
        # identical to a direct batched predict over the same units.
        n = len(stacked)
        return estimate.y0_hat[:n], estimate.y1_hat[:n], estimate.ite_hat[:n], version


class PredictionService:
    """Long-lived ITE prediction service over one (hot-swappable) learner.

    Single-unit queries go through :meth:`submit`/:meth:`predict_one` and are
    micro-batched onto the learner's inference fast path; whole-array queries
    go through :meth:`predict` directly.  The learner can be swapped while
    serving (:meth:`swap_model` / :meth:`reload`), e.g. after a new domain is
    trained or a registry rollback — in-flight batches finish on the model
    they started with, and every response carries the model version that
    produced it.

    Parameters
    ----------
    learner:
        Any fitted learner exposing ``predict(covariates) -> EffectEstimate``
        (CERL, the baseline model, or any registered estimator).
    model_version:
        Version tag stamped on responses (the registry's domain index).
    max_batch, max_wait_ms:
        Micro-batching knobs, see :class:`MicroBatcher`.  ``max_batch`` is
        also the *canonical execution size*: each batch is padded to the
        smallest power-of-two size the serving learner is certified to answer
        bitwise like ``max_batch`` rows, or to ``max_batch`` itself (see the
        module docstring and :attr:`certified_sizes`).
    """

    def __init__(
        self,
        learner,
        model_version: Optional[int] = None,
        max_batch: int = 128,
        max_wait_ms: float = 0.0,
    ) -> None:
        self._model = ServedModel(learner, model_version, max_batch)
        self._observer_lock = threading.Lock()
        self._observers: List[Callable[[np.ndarray], None]] = []  # guarded-by: _observer_lock
        self._batcher = MicroBatcher(
            self._model.run,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            on_batch=self._notify_observers,
        )

    # ------------------------------------------------------------------ #
    # construction from a registry
    # ------------------------------------------------------------------ #
    @classmethod
    def from_registry(
        cls, registry, stream: str, domain_index: Optional[int] = None, **kwargs
    ) -> "PredictionService":
        """Serve a checkpointed model (default: the stream's head version)."""
        entry = registry.entry(stream, domain_index)
        return cls(
            registry.load(stream, entry.domain_index),
            model_version=entry.domain_index,
            **kwargs,
        )

    def reload(self, registry, stream: str, domain_index: Optional[int] = None) -> int:
        """Hot-swap to a registry version (default head); returns its index."""
        entry = registry.entry(stream, domain_index)
        self.swap_model(
            registry.load(stream, entry.domain_index), model_version=entry.domain_index
        )
        return entry.domain_index

    def swap_model(self, learner, model_version: Optional[int] = None) -> None:
        """Replace the served learner atomically w.r.t. in-flight batches."""
        self._model.swap(learner, model_version)

    @property
    def model_version(self) -> Optional[int]:
        """Version tag of the learner currently serving."""
        return self._model.version

    @property
    def certified_sizes(self) -> Optional[Tuple[int, ...]]:
        """Pad sizes below ``max_batch`` certified for the serving learner.

        ``None`` until the learner's first micro-batch has certified it;
        ``()`` when no power-of-two size reproduces the ``max_batch``
        answers or the learner has no ``n_features`` to draw a probe with.
        """
        return self._model.certified_sizes

    @property
    def version_hint(self) -> Optional[int]:
        """Lock-free read of the version tag (see :attr:`ServedModel.version_hint`)."""
        return self._model.version_hint

    # ------------------------------------------------------------------ #
    # traffic observers
    # ------------------------------------------------------------------ #
    def add_observer(self, observer: Callable[[np.ndarray], None]) -> None:
        """Register a traffic tap: ``observer(rows)`` with a ``(k, p)`` array.

        Observers see every *answered* query flowing through the service:
        each successfully executed micro-batch's real rows (one call per
        batch, rows in submission order, on the dispatcher thread, before
        the per-row results are delivered), and each successful direct
        :meth:`predict` matrix (on the calling thread).  Rejected submits
        and failed batches are never recorded, so drift windows only ever
        hold traffic the model actually served.  The row arrays are
        read-only views; observers must not block (they sit on the serving
        path) and an observer exception surfaces to the affected callers —
        monitoring is in-process code, failing loudly beats losing the tap.
        """
        with self._observer_lock:
            self._observers.append(observer)

    def remove_observer(self, observer: Callable[[np.ndarray], None]) -> None:
        """Unregister a previously added traffic tap."""
        with self._observer_lock:
            self._observers.remove(observer)

    def _notify_observers(self, rows: np.ndarray) -> None:
        if not self._observers:
            # Unlocked fast path: the common no-monitor deployment must not
            # pay a lock acquire per query (list truthiness is atomic enough
            # — a racing add_observer only ever misses in-flight rows).
            return
        with self._observer_lock:
            observers = list(self._observers)
        for observer in observers:
            observer(rows)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def submit(self, covariates: np.ndarray) -> PendingPrediction:
        """Enqueue one unit's covariates; returns a waitable handle.

        Traffic observers are notified by the batcher's post-execution hook,
        not here: a query only enters drift windows once it was answered.
        """
        return self._batcher.submit(self._model.as_row(covariates))

    def predict_one(
        self, covariates: np.ndarray, timeout: Optional[float] = None
    ) -> Prediction:
        """Blocking single-unit query through the micro-batcher."""
        return self.submit(covariates).result(timeout)

    def predict(self, covariates: np.ndarray) -> EffectEstimate:
        """Direct batched prediction, bypassing the micro-batcher.

        This is the reference path the micro-batched responses are
        bit-identical to; it shares the model lock so it also serialises
        correctly against hot swaps.
        """
        covariates = np.asarray(covariates, dtype=np.float64)
        estimate = self._model.predict(covariates)
        # Notify only after a successful prediction, mirroring the batcher
        # hook: queries that were never answered must not enter drift
        # windows.  Observers get a read-only view — the caller's array
        # itself must not be frozen.
        if covariates.ndim == 2 and self._observers:
            readonly = covariates[:]
            readonly.setflags(write=False)
            self._notify_observers(readonly)
        return estimate

    def stats(self) -> ServiceStats:
        """Micro-batching counters (queries, batches, largest batch)."""
        return self._batcher.stats()

    def close(self) -> None:
        """Finish queued work and stop the dispatcher thread."""
        self._batcher.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
