"""The four workloads.  Each runs one pass and returns an :class:`Outcome`.

A pass with ``tracer=None`` runs the program exactly as shipped and yields
the end-to-end metrics.  A pass with a :class:`~perfbench.tracing.Tracer`
installs span wrappers around the public calls of each layer and also yields
the per-layer metrics and the *parts*: the per-layer figures, in the unit of
the workload's traced headline, that should add up to that headline.

Only the public API is driven: ``CERL.observe``/``evaluate_many``,
``ServingGateway``, ``MultiprocGateway``, ``ModelRegistry`` and
``TrafficMonitor``/``DriftDetector``/``AdaptationController``.
"""

from __future__ import annotations

import gc
import os
import resource
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cerl import CERL
from repro.data.drift import DriftConfig, DriftScenario
from repro.data.streams import DomainStream
from repro.monitor import (
    AdaptationController,
    DriftDetector,
    TrafficMonitor,
    TriggerPolicy,
    validation_factual_rmse,
)
from repro.serve import MultiprocGateway, Overloaded, ServingGateway
from repro.serve.fleet import FleetError, frontdoor

from .fixtures import (
    LINEAGE_VERSIONS,
    SERVED_STREAMS,
    Scale,
    as_rows,
    domain_stream,
    generator,
    make_cerl,
    query_rows,
    row_pools,
    scratch_registry,
    train_lineages,
)
from .load import Checker, OpenLoopResult, closed_loop, open_loop
from .tracing import Tracer, patched, training_patches

__all__ = ["Outcome", "WORKLOADS"]

#: Canonical serving batch of every gateway in the benchmark.
MAX_BATCH = 256
#: Share of ``--seconds`` the serving workloads spend in the open loop; the
#: closed loop takes the rest.
OPEN_SHARE = 0.5
#: Equal time windows of an open-loop phase; latency percentiles are the
#: median over windows.
LATENCY_WINDOWS = 5
#: Share of in-process serving queries that re-ask a hot row.
HOT_SHARE = 0.25
#: Adapt-workload stream names: one adapting, one bystander (distinct shards).
ADAPT_STREAM, BYSTANDER = "adapt", "bystander"
#: Every n-th answer of each adapt-stream tick is checked bit for bit (each
#: check runs a padded batch through the reference model).
ADAPT_CHECK_EVERY = 8
#: In-process gateway settings shared by ``serve_inproc`` and ``adapt``.
GATEWAY = dict(n_shards=4, max_batch=MAX_BATCH, max_pending_per_shard=4096,
               cache_capacity=4096)

clock = time.perf_counter


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    metrics: Dict[str, float] = field(default_factory=dict)  # end-to-end values
    layers: Dict[str, float] = field(default_factory=dict)  # traced passes only
    parts: Dict[str, float] = field(default_factory=dict)  # in headline units
    headline: float = float("nan")  # the figure the parts add up to
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    notes: List[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _inputs_frozen() -> Iterator[None]:
    """Keep the garbage collector off the benchmark's own input objects.

    Fixture models, query plans and datasets hold many objects; without
    this, collections scanning them would add pauses the program under test
    did not cause.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _snapshot(tracer: Optional[Tracer]) -> Optional[Tuple[dict, dict, dict]]:
    if tracer is None:
        return None
    return dict(tracer.count), dict(tracer.total_s), dict(tracer.self_s)


def _add_delta(acc: Dict[str, Dict[str, float]], tracer: Tracer, before) -> None:
    """Accumulate the tracer's growth since ``before`` into ``acc``."""
    for kind, now, then in zip(
        ("count", "total", "self"), (tracer.count, tracer.total_s, tracer.self_s), before
    ):
        bucket = acc.setdefault(kind, {})
        for name, value in now.items():
            bucket[name] = bucket.get(name, 0.0) + value - then.get(name, 0.0)


def _per_call(acc: Dict[str, Dict[str, float]], span: str, scale: float) -> float:
    """Mean inclusive duration of ``span`` per call, times ``scale``."""
    calls = acc.get("count", {}).get(span, 0.0)
    return scale * acc.get("total", {}).get(span, 0.0) / calls if calls else 0.0


# ---------------------------------------------------------------------- #
# train_stream
# ---------------------------------------------------------------------- #
#: Timed ``evaluate_many`` calls per pass for ``train_stream``'s throughput.
EVAL_REPEATS = 10
#: (metric, span kind, span) of the training layers; ``engine.forward`` is
#: self time, so the Sinkhorn solve it calls is counted once.
TRAINING_PARTS = (
    ("engine.forward_s", "self", "engine.forward"),
    ("balance.ipm_s", "total", "balance.ipm"),
    ("nn.backward_s", "total", "nn.backward"),
    ("nn.optimizer_s", "total", "nn.optimizer"),
    ("engine.validation_s", "total", "engine.validation"),
    ("memory.herding_s", "total", "memory.herding"),
)


def _training_layers(acc: Dict[str, Dict[str, float]], per: int) -> Dict[str, float]:
    """Per-stage (or per-adaptation) training split from accumulated spans."""
    layers = {"engine.steps": acc.get("count", {}).get("engine.forward", 0.0) / per}
    for metric, kind, span in TRAINING_PARTS:
        layers[metric] = acc.get(kind, {}).get(span, 0.0) / per
    return layers


_PROBE_MATRIX = np.full((64, 64), 0.5)


def _probe_s() -> float:
    """Wall time of a fixed interpreter-and-BLAS probe of about 2 ms."""
    start = clock()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(30):
        _PROBE_MATRIX @ _PROBE_MATRIX
    return clock() - start


@contextmanager
def _fastest_cpu() -> Iterator[Callable[[], None]]:
    """Yield ``move()``, which pins the calling thread to the fastest CPU now.

    On a shared host each vCPU slows by about 1.4x for seconds at a time,
    independently of the others: a 10 ms probe alternated between 8 and
    11.5 ms on each vCPU of a 2-vCPU virtual machine, sampled every 2 s.
    A single thread left where the scheduler puts it runs slow about half
    the time, so the median of its stage times flips between the two speeds
    from run to run.  ``move()`` times a short probe on every usable CPU and
    pins the thread to the fastest; the affinity is restored on exit.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

    def move() -> None:
        if len(cpus) < 2:
            return
        timings = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((min(_probe_s(), _probe_s()), cpu))
        os.sched_setaffinity(0, {min(timings)[1]})

    try:
        yield move
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def train_stream(seed: int, seconds: float, scale: Scale,
                 tracer: Optional[Tracer] = None, inject_wrong: bool = False) -> Outcome:
    """CERL over a seeded domain stream: ``observe`` then ``evaluate_many``.

    Passes (set-up plus ``domains - 1`` continual stages) repeat until
    ``seconds`` have passed; quality is reported from the first
    ``scale.passes`` passes only, so it does not depend on speed.
    """
    out = Outcome()
    setups: List[float] = []
    stages: List[float] = []
    eval_qps: List[float] = []
    quality: List[Tuple[float, float]] = []
    acc: Dict[str, Dict[str, float]] = {}
    deadline = clock() + seconds
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(patched(training_patches(tracer)))
        # Every timed step runs on the CPU that is fastest when it starts.
        move = stack.enter_context(_fastest_cpu())
        pass_index = 0
        while pass_index < scale.passes or clock() < deadline:
            move()
            start = clock()
            # The quality passes train on a fixed reference stream, so the
            # quality figures are exact: training numerics move them, noise
            # and seeds do not.  Later passes draw their streams from the seed.
            data_seed = seed if pass_index >= scale.passes else 0
            stream = domain_stream(data_seed, pass_index, scale.domains, scale.units)
            learner = make_cerl(stream.n_features, pass_index, scale.stream_epochs)
            learner.observe(stream.train_data(0), val_dataset=stream.val_data(0))
            setups.append(clock() - start)
            evaluate = learner.evaluate_many
            if tracer is not None:
                evaluate = tracer.wrap("core.evaluate", evaluate)
            results: List[Dict[str, float]] = []
            for d in range(1, scale.domains):
                out.attempted += 1
                seen = stream.test_sets_seen(d)
                move()
                before = _snapshot(tracer)
                start = clock()
                learner.observe(stream.train_data(d), val_dataset=stream.val_data(d))
                results = evaluate(seen)
                done = clock()
                if tracer is not None:
                    _add_delta(acc, tracer, before)
                stages.append(done - start)
                if not all(np.isfinite(r["sqrt_pehe"]) for r in results):
                    out.failed += 1
            # Evaluation throughput after the pass's last stage: the fastest
            # of several evaluate_many calls over every seen test set (one
            # call takes about a millisecond, too short to time once).
            calls = []
            move()
            for _ in range(EVAL_REPEATS):
                start = clock()
                learner.evaluate_many(seen)
                calls.append(clock() - start)
            eval_qps.append(sum(len(test) for test in seen) / min(calls))
            # Output check: the batched evaluation equals per-set evaluation.
            if inject_wrong and pass_index == 0:
                results = [dict(r, sqrt_pehe=r["sqrt_pehe"] + 1.0) for r in results]
            if results != [learner.evaluate(test) for test in seen]:
                out.failed += 1
                out.mismatches += 1
            if pass_index < scale.passes:
                quality.append((
                    float(np.mean([r["sqrt_pehe"] for r in results])),
                    float(np.mean([r["ate_error"] for r in results])),
                ))
            pass_index += 1
    stage_ms = 1000.0 * np.asarray(stages)
    out.metrics = {
        "setup_s": float(np.mean(setups)),  # mean: see the README on set-up time
        "stage_s": float(np.mean(stages)),
        "sqrt_pehe": float(np.mean([q[0] for q in quality])),
        "throughput_qps": float(np.median(eval_qps)),
        "latency_p50_ms": float(np.percentile(stage_ms, 50)),
        "latency_p90_ms": float(np.percentile(stage_ms, 90)),
        "detect_ticks": 1.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.headline = float(np.mean(stages))
    out.notes.append(
        f"train_stream: {pass_index} passes, {len(stages)} stages, set-ups (s) "
        f"{np.round(setups, 4).tolist()}; quality from the first {len(quality)} "
        f"passes, ate_error (unbounded) {np.mean([q[1] for q in quality]):.4g} outcome"
    )
    if tracer is not None:
        n = len(stages)
        out.layers = _training_layers(acc, n)
        out.layers["core.evaluate_s"] = acc.get("total", {}).get("core.evaluate", 0.0) / n
        out.parts = {
            name: out.layers[name]
            for name in [m for m, _, _ in TRAINING_PARTS] + ["core.evaluate_s"]
        }
    return out


# ---------------------------------------------------------------------- #
# serving: shared pieces
# ---------------------------------------------------------------------- #
#: Chunk keys of the serving workloads' query rows (see ``query_rows``).
OPEN_KEY, OPEN_HOT_KEY, CLOSED_HOT_KEY, WARM_KEY = 1, 2, 4, 5
CLOSED_KEYS = (3, 6)  # one per closed-loop thread


@dataclass
class _Plan:
    """Queries in send order."""

    streams: List[str]
    rows: np.ndarray  # one C-contiguous float64 covariate row per query
    ite: np.ndarray  # ground-truth effect of each row


def _plan(rng: np.random.Generator, seed: int, key: int, n: int,
          hot: Optional[Dict[str, object]]) -> _Plan:
    """``n`` queries over the served streams; a share re-asks hot rows.

    Every other query carries a fresh row, drawn for this plan as chunk
    ``key`` of its stream's query rows, so no fresh row is sent twice and
    the cache can only hit on the hot rows.
    """
    stream_of = rng.integers(len(SERVED_STREAMS), size=n)
    is_hot = rng.random(n) < (HOT_SHARE if hot else 0.0)
    hot_index = rng.integers(1 << 30, size=n)
    rows: Optional[np.ndarray] = None
    ite = np.empty(n)
    for s, name in enumerate(SERVED_STREAMS):
        for again in (False, True):
            mask = (stream_of == s) & (is_hot == again)
            if not mask.any():
                continue
            if again:
                pool = hot[name]
                pick = hot_index[mask] % len(pool.outcomes)
            else:
                pool = query_rows(seed, name, int(mask.sum()), key)
                pick = slice(None)
            if rows is None:
                rows = np.empty((n, pool.covariates.shape[1]))
            rows[mask] = pool.covariates[pick]
            ite[mask] = (pool.mu1 - pool.mu0)[pick]
    return _Plan([SERVED_STREAMS[s] for s in stream_of], rows, ite)


def _answers(result: OpenLoopResult) -> List[Tuple[int, object]]:
    """``(query index, Prediction)`` of every answered open-loop query."""
    answered = []
    for index, pending in enumerate(result.pendings):
        if pending is None or np.isnan(result.done[index]):
            continue
        try:
            answered.append((index, pending.result(0)))
        except Exception:  # a typed failure delivered to the handle
            continue
    return answered


def _windowed_ms(result: OpenLoopResult, windows: Sequence[Tuple[float, float]],
                 q: float) -> float:
    """Median over time windows of the q-th latency percentile, in ms.

    Queries are grouped by the window their due time falls in.  A burst of
    interference on a shared machine then moves one window's percentile,
    not the reported figure.  Windows with fewer than 10 queries are pooled.
    """
    due = result.due[result.answered]
    latency = result.latency_s
    values, pooled = [], []
    for begin, end in windows:
        inside = latency[(due >= begin) & (due < end)]
        if inside.size >= 10:
            values.append(np.percentile(inside, q))
        else:
            pooled.extend(inside)
    if len(pooled) >= 10 or (pooled and not values):
        values.append(np.percentile(pooled, q))
    return 1000.0 * float(np.median(values)) if values else float("nan")


def _even_windows(result: OpenLoopResult, n: int) -> List[Tuple[float, float]]:
    """``n`` equal windows spanning the due times of an open-loop phase."""
    due = result.due[~np.isnan(result.due)]
    edges = np.linspace(due.min(), np.nextafter(due.max(), np.inf), n + 1)
    return list(zip(edges[:-1], edges[1:]))


def _service_totals(stats) -> Tuple[int, int]:
    return (
        sum(shard.service.queries for shard in stats.shards),
        sum(shard.service.batches for shard in stats.shards),
    )


def _latency_notes(name: str, result: OpenLoopResult) -> List[str]:
    latency_ms = 1000.0 * result.latency_s
    late_ms = 1000.0 * result.lateness_s
    return [
        f"{name} open loop: {latency_ms.size} answered; latency p50 "
        f"{np.percentile(latency_ms, 50):.3f} ms, p90 {np.percentile(latency_ms, 90):.3f} ms, "
        f"p99 {np.percentile(latency_ms, 99):.3f} ms (n={latency_ms.size}, "
        f"{int(latency_ms.size * 0.01)} beyond p99)",
        f"{name} generator lateness: p50 {np.percentile(late_ms, 50):.3f} ms, "
        f"p99 {np.percentile(late_ms, 99):.3f} ms, max {late_ms.max():.3f} ms",
    ]


class _BatchProbe:
    """Per-query split of in-process latency, read in each done-callback.

    The callback of a query that went through a micro-batch runs on the
    service's dispatcher thread right after that batch's ``learner.predict``,
    so the latest ``core.predict`` span on the thread is the query's batch.
    A cache hit resolves on the submitting thread and has no batch.
    """

    def __init__(self, tracer: Tracer, n: int) -> None:
        self.tracer = tracer
        self.predict = np.full((n, 2), np.nan)
        self.submitter = threading.get_ident()

    def patches(self, registry) -> list:
        return [(registry, "load", self.tracer.wrap("registry.load", registry.load))]

    def on_done(self, index: int, pending) -> None:
        if threading.get_ident() != self.submitter:
            self.predict[index] = self.tracer.last("core.predict")

    def parts_us(self, result: OpenLoopResult) -> Dict[str, float]:
        ok = result.answered
        start, end, done, due = result.start[ok], result.end[ok], result.done[ok], result.due[ok]
        p_start, p_end = self.predict[ok, 0], self.predict[ok, 1]
        batched = ~np.isnan(p_start)
        # The dispatcher may start the batch while the submitting thread is
        # still waiting to get the interpreter lock back, so the submit part
        # ends where the batch starts if that is earlier: the parts partition
        # each query's latency.
        submitted = np.where(batched, np.fmin(end, p_start), end)
        n = max(int(ok.sum()), 1)

        def mean(values):
            return float(np.sum(values)) / n * 1e6

        return {
            "loadgen.late_us": mean(start - due),
            "gateway.submit_us": mean(submitted - start),
            "service.wait_us": mean((p_start - submitted)[batched]),
            "core.predict_us": mean((p_end - p_start)[batched]),
            "service.scatter_us": mean((done - p_end)[batched]),
        }


class _WireProbe:
    """Front-door wire spans matched to open-loop queries.

    Predict frames are written on the front door's event loop in submit
    order, so the k-th predict frame written during the phase belongs to
    the k-th query (the stream in each frame header is checked).  A
    response is decoded and its handle resolved in one synchronous step on
    the loop thread, so the query's done-callback sees its own decode span
    as the latest one on that thread.  The front-door part of a query runs
    from its submit call to the start of its frame encode.
    """

    def __init__(self, tracer: Tracer, n: int) -> None:
        self.tracer = tracer
        self.encodes: List[Tuple[str, float, float]] = []
        self.decode = np.full((n, 2), np.nan)
        self.origin = 0

    def patches(self, registry) -> list:
        original = frontdoor.write_frame_async
        timed = self.tracer.wrap("wire.encode", original)

        def encode(writer, header, payload=b""):
            if header.get("op") != "predict":
                return original(writer, header, payload)
            timed(writer, header, payload)
            self.encodes.append((header.get("stream"), *self.tracer.last("wire.encode")))

        return [
            (frontdoor, "write_frame_async", encode),
            (frontdoor, "decode_array", self.tracer.wrap("wire.decode", frontdoor.decode_array)),
        ]

    def start_phase(self) -> None:
        self.origin = len(self.encodes)

    def on_done(self, index: int, pending) -> None:
        self.decode[index] = self.tracer.last("wire.decode")

    def parts_us(self, result: OpenLoopResult, streams: Sequence[str]) -> Dict[str, float]:
        ok = result.answered
        n = max(int(ok.sum()), 1)
        encode = np.full((len(streams), 2), np.nan)
        for k, (stream, begin, end) in enumerate(self.encodes[self.origin:][: len(streams)]):
            if stream == streams[k]:
                encode[k] = (begin, end)
        use = ok & ~np.isnan(encode[:, 0]) & ~np.isnan(self.decode[:, 0])
        submitted = np.where(use, encode[:, 0], result.end)

        def mean(values):
            return float(np.sum(values)) / n * 1e6

        return {
            "loadgen.late_us": mean((result.start - result.due)[ok]),
            "frontdoor.submit_us": mean((submitted - result.start)[ok]),
            "wire.encode_us": mean((encode[:, 1] - encode[:, 0])[use]),
            "fleet.remote_us": mean((self.decode[:, 0] - encode[:, 1])[use]),
            "wire.decode_us": mean((self.decode[:, 1] - self.decode[:, 0])[use]),
        }


def _traced_loader(registry, tracer: Tracer):
    """The gateway's registry loader, with each learner's ``predict`` timed."""

    def load(stream: str):
        entry = registry.entry(stream)
        learner = registry.load(stream, entry.domain_index)
        learner.predict = tracer.wrap("core.predict", learner.predict)
        return learner, entry.domain_index

    return load


def _inproc_gateway(registry, tracer: Optional[Tracer]) -> ServingGateway:
    if tracer is None:
        return ServingGateway(registry=registry, **GATEWAY)
    return ServingGateway(loader=_traced_loader(registry, tracer), **GATEWAY)


def _stop_fleet(gateway: MultiprocGateway) -> None:
    """Stop a fleet: kill its workers, then close the front door.

    ``MultiprocGateway.close()`` alone stops each worker gracefully, but the
    worker's shutdown closes its listening socket from another thread,
    which does not wake the ``accept()`` its main thread is blocked in; the
    manager then waits out its 10 s join timeout per worker before killing
    it.  Killing first ends every worker at once (and waits for it).
    """
    try:
        for index in range(gateway.n_workers):
            gateway.kill_worker(index)
    finally:
        gateway.close()


# ---------------------------------------------------------------------- #
# serve_inproc and serve_fleet
# ---------------------------------------------------------------------- #
def _serve(fleet: bool, seed: int, seconds: float, scale: Scale,
           tracer: Optional[Tracer], inject_wrong: bool) -> Outcome:
    """The 4 served streams: set-ups, open loop, closed loop."""
    out = Outcome()
    name = "serve_fleet" if fleet else "serve_inproc"
    rng = np.random.default_rng([seed, int(fleet)])
    n_open = int(scale.open_rate * seconds * OPEN_SHARE)
    # The fleet's rows are all unique, so its cache never hits.
    open_plan = _plan(rng, seed, OPEN_KEY, n_open,
                      None if fleet else row_pools(seed, scale.hot_rows, OPEN_HOT_KEY))
    closed_hot = None if fleet else row_pools(seed, scale.hot_rows, CLOSED_HOT_KEY)
    plans = [_plan(rng, seed, key, scale.closed_queries, closed_hot) for key in CLOSED_KEYS]
    warm = row_pools(seed, scale.warm_queries, WARM_KEY)
    with scratch_registry() as registry, ExitStack() as stack:
        train_lineages(registry, scale)
        models = {(s, v): registry.load(s, v) for s in SERVED_STREAMS for v in LINEAGE_VERSIONS}
        probe = None
        if tracer is not None:
            probe = (_WireProbe if fleet else _BatchProbe)(tracer, n_open)
            stack.enter_context(patched(probe.patches(registry)))

        def build():
            if fleet:
                return MultiprocGateway(
                    registry.root, SERVED_STREAMS, n_workers=2, max_batch=MAX_BATCH,
                    pool_size=1, max_pending_per_worker=4096, cache_capacity=4096,
                )
            return _inproc_gateway(registry, tracer)

        stop = _stop_fleet if fleet else ServingGateway.close
        setups, spawns = [], []

        def set_up():
            """A gateway built, spun up and warmed on every stream, timed."""
            start = clock()
            gateway = build()
            spawns.append(clock() - start)
            try:
                for stream in SERVED_STREAMS:
                    for row in as_rows(warm[stream]):
                        gateway.submit(stream, row).result(30.0)
            except BaseException:
                stop(gateway)
                raise
            setups.append(clock() - start)
            return gateway

        stack.enter_context(_inputs_frozen())
        repeats = scale.slow_setup_repeats if fleet else scale.setup_repeats
        for _ in range(repeats // 2):
            stop(set_up())
        gateway = set_up()
        try:
            shed = (Overloaded, FleetError)
            s0 = gateway.stats()
            if isinstance(probe, _WireProbe):
                probe.start_phase()
            open_result = open_loop(
                gateway.submit,
                list(zip(open_plan.streams, open_plan.rows)),
                scale.open_rate,
                on_done=probe.on_done if probe is not None else None,
                shed_errors=shed,
            )
            s1 = gateway.stats()
            closed = closed_loop(
                gateway.submit,
                [(plan.streams, plan.rows) for plan in plans],
                scale.window,
                seconds * (1.0 - OPEN_SHARE),
                sample_every=16 if fleet else 32,
                shed_errors=shed,
            )
            s2 = gateway.stats()
        finally:
            stop(gateway)
        # The other half of the set-ups run after the measured phases, so the
        # mean does not hinge on the first seconds of the process.
        for _ in range(repeats - repeats // 2 - 1):
            stop(set_up())

    checker = Checker(models, MAX_BATCH, inject_wrong)
    answered = _answers(open_result)
    for index, answer in answered:
        checker.check(open_plan.streams[index], open_plan.rows[index], answer)
    for thread, index, answer in closed.sampled:
        checker.check(plans[thread].streams[index], plans[thread].rows[index], answer)
    truth = open_plan.ite[[i for i, _ in answered]]
    served = np.array([a.ite for _, a in answered])
    windows = _even_windows(open_result, LATENCY_WINDOWS)
    out.metrics = {
        "setup_s": float(np.mean(setups)),  # mean: see the README on set-up time
        "sqrt_pehe": float(np.sqrt(np.mean((served - truth) ** 2))),
        "throughput_qps": closed.qps,
        "latency_p50_ms": _windowed_ms(open_result, windows, 50),
        "latency_p90_ms": _windowed_ms(open_result, windows, 90),
        "detect_ticks": 1.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.headline = float(np.mean(open_result.latency_s)) * 1e6
    out.attempted = open_result.sent + sum(closed.sent)
    out.mismatches = checker.mismatches
    out.failed = checker.mismatches + (open_result.sent - len(answered)) + closed.failed
    q0, b0 = _service_totals(s0)
    q1, b1 = _service_totals(s1)
    q2, b2 = _service_totals(s2)
    out.notes += _latency_notes(name, open_result)
    out.notes.append(f"{name} per-window p50/p90 (ms): " + ", ".join(
        f"{_windowed_ms(open_result, [w], 50):.3f}/{_windowed_ms(open_result, [w], 90):.3f}"
        for w in windows))
    out.notes.append(
        f"{name} closed loop: {closed.answered} answered, {closed.qps:.0f} q/s (median of "
        f"sub-window rates {np.round(closed.rates).astype(int).tolist()} over "
        f"{closed.seconds:.3f} s), sent {closed.sent} of "
        f"{scale.closed_queries} per thread, mean batch {(q2 - q1) / max(b2 - b1, 1):.1f}; "
        f"set-ups (s) {np.round(setups, 4).tolist()}, construction {np.mean(spawns):.4f} s; "
        f"ate_error (unbounded) {abs(np.mean(served) - np.mean(truth)):.4g} outcome; "
        f"checked {checker.checked} answers bit for bit"
    )
    if tracer is not None:
        lookups = (s2.cache_hits + s2.cache_misses) - (s0.cache_hits + s0.cache_misses)
        if fleet:
            out.parts = probe.parts_us(open_result, open_plan.streams)
        else:
            out.parts = probe.parts_us(open_result)
        batcher = "worker" if fleet else "service"
        out.layers = dict(out.parts)
        out.layers.update({
            "gateway.cache_hit_ratio": (s2.cache_hits - s0.cache_hits) / max(lookups, 1),
            "gateway.shed": float(s2.shed),
            f"{batcher}.mean_batch": (q2 - q1) / max(b2 - b1, 1),
            f"{batcher}.useful_row_ratio": (q1 - q0) / max((b1 - b0) * MAX_BATCH, 1),
        })
        if fleet:
            out.layers["fleet.spawn_s"] = float(np.mean(spawns))
        else:
            out.layers["registry.load_ms"] = 1e3 * tracer.total_s["registry.load"] / max(
                tracer.count["registry.load"], 1)
    return out


def serve_inproc(seed: int, seconds: float, scale: Scale,
                 tracer: Optional[Tracer] = None, inject_wrong: bool = False) -> Outcome:
    """4 registry streams behind ``ServingGateway``; one query in four is hot."""
    return _serve(False, seed, seconds, scale, tracer, inject_wrong)


def serve_fleet(seed: int, seconds: float, scale: Scale,
                tracer: Optional[Tracer] = None, inject_wrong: bool = False) -> Outcome:
    """The same 4 streams through a 2-worker ``MultiprocGateway``; unique rows."""
    return _serve(True, seed, seconds, scale, tracer, inject_wrong)


# ---------------------------------------------------------------------- #
# adapt
# ---------------------------------------------------------------------- #
#: Top-level spans inside one adaptation window (first drifted tick sent to
#: the adapting check returned), as (part name, span name).
ADAPT_PARTS = (
    ("adapt.traffic_s", "adapt.traffic"),
    ("monitor.score_s", "monitor.score"),
    ("adapt.labeler_s", "adapt.labeler"),
    ("adapt.gate_s", "adapt.gate"),
    ("adapt.retrain_s", "adapt.retrain"),
    ("registry.save_s", "registry.save"),
    ("service.reload_s", "service.reload"),
    ("monitor.calibrate_s", "monitor.calibrate"),
)


def adapt(seed: int, seconds: float, scale: Scale,
          tracer: Optional[Tracer] = None, inject_wrong: bool = False) -> Outcome:
    """Drift → detect → retrain → save → hot swap → recalibrate, under load.

    Each cycle serves two clean ticks (the second is a clean, full-window
    check) and then drifted ticks until the controller adapts; the next
    cycle drifts back.  A bystander stream on the same gateway takes
    open-loop traffic from a second thread throughout.
    """
    out = Outcome()
    gen = generator()
    scenarios = [
        DriftScenario(gen, DriftConfig(), seed=seed, base_domain=0, drifted_domain=1),
        DriftScenario(gen, DriftConfig(), seed=seed, base_domain=1, drifted_domain=0),
    ]
    rows = scale.rows_per_tick
    base = scenarios[0].base_dataset(n_units=scale.adapt_units, repetition=1000 * seed + 1)
    split = DomainStream([base], seed=seed)[0]
    bystander_rows = as_rows(gen.generate_domain(
        0, n_units=int(scale.bystander_rate * (seconds + 60)), repetition=1000 * seed + 2))
    wrap = tracer.wrap if tracer is not None else (lambda name, fn: fn)
    setups: List[float] = []

    def set_up(registry, warm_row: np.ndarray):
        """Initial fit, registry saves, gateway spin-up and first calibration, timed."""
        start = clock()
        learner = make_cerl(base.n_features, 0, scale.epochs)
        learner.observe(split.train, val_dataset=split.val)
        registry.save(ADAPT_STREAM, 0, learner, metadata={"trigger": "initial"})
        registry.save(BYSTANDER, 0, learner, metadata={"trigger": "initial"})
        gateway = _inproc_gateway(registry, tracer)
        try:
            for stream in (ADAPT_STREAM, BYSTANDER):
                gateway.submit(stream, warm_row).result(30.0)
            monitor = TrafficMonitor(split.train.covariates, window_capacity=2 * rows)
            detector = DriftDetector("mmd_rbf", quantile=0.99, n_permutations=100, seed=0)
            detector.calibrate(monitor.reference, monitor.window_capacity)
        except BaseException:
            gateway.close()
            raise
        setups.append(clock() - start)
        return learner, gateway, monitor, detector

    def spare_set_up(index: int) -> None:
        """One more set-up on an empty registry of its own, torn down at once."""
        with scratch_registry() as spare:
            set_up(spare, bystander_rows[-2 - index])[1].close()

    repeats = scale.slow_setup_repeats
    with scratch_registry() as registry, ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(patched(training_patches(tracer) + [
                (registry, "save", tracer.wrap("registry.save", registry.save)),
                (registry, "load", tracer.wrap("registry.load", registry.load)),
            ]))
        stack.enter_context(_inputs_frozen())
        for index in range(repeats // 2):
            spare_set_up(index)
        learner, gateway, monitor, detector = set_up(registry, bystander_rows[-1])
        stack.callback(gateway.close)
        service = gateway.service(ADAPT_STREAM)
        monitor.attach(service)
        if tracer is not None:
            # From here on every CERL.observe is an adaptation's retrain (the
            # controller may swap in a reloaded learner after a rollback, so
            # the class is wrapped rather than one instance).
            stack.enter_context(patched([
                (CERL, "observe", tracer.wrap("adapt.retrain", CERL.observe)),
                (detector, "score", tracer.wrap("monitor.score", detector.score)),
                (detector, "calibrate", tracer.wrap("monitor.calibrate", detector.calibrate)),
                (service, "reload", tracer.wrap("service.reload", service.reload)),
            ]))
        labels = {"scenario": scenarios[0], "calls": 0}

        def labeler(covariates):
            labels["calls"] += 1
            return labels["scenario"].label(covariates, key=10**6 + labels["calls"])

        controller = AdaptationController(
            learner, monitor, detector, registry, ADAPT_STREAM,
            labeler=wrap("adapt.labeler", labeler),
            service=service,
            policy=TriggerPolicy(consecutive_breaches=2, cooldown_checks=0),
            epochs=scale.epochs,
            # Retrained on two ticks of traffic, the adapted model's factual
            # RMSE lands within about 1.2x the old model's; a 50% slack makes
            # every cycle end in a swap, so the swap path is always measured.
            regression_tolerance=0.5,
            metric_fn=wrap("adapt.gate", validation_factual_rmse),
            seed=0,
        )

        stop = threading.Event()
        bystander_out: Dict[str, OpenLoopResult] = {}
        probe = _BatchProbe(tracer, len(bystander_rows)) if tracer is not None else None

        def bystander() -> None:
            if probe is not None:
                probe.submitter = threading.get_ident()
            bystander_out["result"] = open_loop(
                gateway.submit,
                [(BYSTANDER, row) for row in bystander_rows],
                scale.bystander_rate,
                on_done=probe.on_done if probe is not None else None,
                shed_errors=(Overloaded,),
                stop=stop,
            )

        checked: List[Tuple[np.ndarray, object]] = []  # (row, answer) of the adapt stream
        clean: List[Tuple[np.ndarray, List[object]]] = []  # (true ITE, answers)
        adapt_s: List[float] = []
        windows: List[Tuple[float, float]] = []  # (onset, adapted) of each cycle
        detect_ticks: List[int] = []
        tick_qps: List[float] = []
        tick_ms: List[float] = []
        acc: Dict[str, Dict[str, float]] = {}

        def make_tick(scenario, cycle: int, tick: int, fraction: float):
            key = 1000 * seed + 20 * cycle + tick
            covariates = scenario.tick_covariates(key, rows, fraction)
            return scenario.label(covariates, key=key, fraction=fraction)

        def serve_tick(labelled) -> List[object]:
            """Send one tick's rows to the adapt stream and wait for every answer."""
            begin = clock()
            pendings = []
            for row in labelled.covariates:
                out.attempted += 1
                try:
                    pendings.append((row, gateway.submit(ADAPT_STREAM, row)))
                except Overloaded:
                    out.failed += 1
            answers = []
            for row, pending in pendings:
                try:
                    answers.append((row, pending.result(30.0)))
                except Exception:  # timeout or a typed failure on the handle
                    out.failed += 1
            elapsed = clock() - begin
            if tracer is not None:
                tracer.record("adapt.traffic", elapsed)
            tick_qps.append(len(answers) / elapsed)
            tick_ms.append(1000.0 * elapsed)
            checked.extend(answers[::ADAPT_CHECK_EVERY])
            return [answer for _, answer in answers]

        def clean_ticks(scenario, cycle: int) -> None:
            for tick in range(2):
                labelled = make_tick(scenario, cycle, tick, 0.0)
                clean.append((labelled.true_ite, serve_tick(labelled)))
                controller.check()

        load_thread = threading.Thread(target=bystander, name="perfbench-bystander")
        load_thread.start()
        cycles = 0
        try:
            deadline = clock() + seconds
            while cycles < scale.min_cycles or clock() < deadline:
                scenario = scenarios[cycles % 2]
                labels["scenario"] = scenario
                clean_ticks(scenario, cycles)
                drifted = [make_tick(scenario, cycles, 2 + t, 1.0) for t in range(8)]
                out.attempted += 1
                before = _snapshot(tracer)
                onset = clock()
                for tick, labelled in enumerate(drifted, start=1):
                    serve_tick(labelled)
                    if controller.check().action == "adapted":
                        windows.append((onset, clock()))
                        adapt_s.append(windows[-1][1] - onset)
                        detect_ticks.append(tick)
                        if tracer is not None:
                            _add_delta(acc, tracer, before)
                        break
                cycles += 1
                if len(adapt_s) < cycles:  # no accepted adaptation: stop cycling
                    out.failed += 1
                    break
            clean_ticks(scenarios[cycles % 2], cycles)
        finally:
            stop.set()
            load_thread.join()
        by = bystander_out["result"]
        versions = registry.list_versions(ADAPT_STREAM)
        models = {(ADAPT_STREAM, v): registry.load(ADAPT_STREAM, v) for v in versions}
        models[(BYSTANDER, 0)] = registry.load(BYSTANDER, 0)
    # The other half of the set-ups run after the measured cycles, so the
    # mean does not hinge on the first seconds of the process.
    with _inputs_frozen():
        for index in range(repeats // 2, repeats - 1):
            spare_set_up(index)

    checker = Checker(models, MAX_BATCH, inject_wrong)
    for row, answer in checked:
        checker.check(ADAPT_STREAM, row, answer)
    by_answers = _answers(by)
    for index, answer in by_answers:
        checker.check(BYSTANDER, bystander_rows[index], answer)
    truth = np.concatenate([t for t, _ in clean])
    served = np.array([a.ite for _, answers in clean for a in answers])
    adapt_ms = 1000.0 * np.asarray(adapt_s)
    out.metrics = {
        "setup_s": float(np.mean(setups)),  # mean: see the README on set-up time
        "sqrt_pehe": float(np.sqrt(np.mean((served - truth) ** 2))),
        "throughput_qps": float(np.median(tick_qps)),
        # An adaptation's latency: from sending the first drifted tick until
        # the check that swapped, rebased and recalibrated returns.
        "latency_p50_ms": float(np.percentile(adapt_ms, 50)) if adapt_s else float("nan"),
        "latency_p90_ms": float(np.percentile(adapt_ms, 90)) if adapt_s else float("nan"),
        "adapt_s": float(np.mean(adapt_s)) if adapt_s else float("nan"),
        "detect_ticks": float(np.median(detect_ticks)) if detect_ticks else float("nan"),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.headline = float(np.mean(adapt_s)) if adapt_s else float("nan")
    out.attempted += by.sent
    out.mismatches = checker.mismatches
    out.failed += checker.mismatches + (by.sent - len(by_answers))
    out.notes += _latency_notes("adapt bystander", by)
    out.notes.append(
        f"adapt bystander during adaptations (unbounded): p50 "
        f"{_windowed_ms(by, windows, 50):.3f} ms, p90 {_windowed_ms(by, windows, 90):.3f} ms "
        f"(each adaptation's percentile, median over adaptations)"
    )
    # Ticks are the adapting stream's unit of traffic: all its rows are sent
    # at once and the tick ends when the last one is answered.
    out.notes.append(
        f"adapt: {len(tick_ms)} ticks, tick latency (unbounded) p50 "
        f"{np.percentile(tick_ms, 50):.3f} ms, p90 {np.percentile(tick_ms, 90):.3f} ms; "
        f"adaptations (ms) {np.round(adapt_ms, 1).tolist()}"
    )
    out.notes.append(
        f"adapt: {cycles} cycles, {len(adapt_s)} adapted (detect ticks {detect_ticks}), "
        f"versions {versions}; set-ups (s) {np.round(setups, 4).tolist()}; ate_error (unbounded) "
        f"{abs(np.mean(served) - np.mean(truth)):.4g} outcome; "
        f"checked {checker.checked} answers bit for bit"
    )
    if tracer is not None:
        n = max(len(adapt_s), 1)
        out.parts = {
            part: acc.get("total", {}).get(span, 0.0) / n for part, span in ADAPT_PARTS
        }
        out.layers = _training_layers(acc, n)
        out.layers.update({
            name: out.parts[name]
            for name in ("adapt.traffic_s", "adapt.labeler_s", "adapt.gate_s",
                         "adapt.retrain_s", "monitor.calibrate_s")
        })
        out.layers.update({
            "monitor.score_us": _per_call(acc, "monitor.score", 1e6),
            "registry.save_ms": _per_call(acc, "registry.save", 1e3),
            "service.reload_ms": _per_call(acc, "service.reload", 1e3),
            "registry.load_ms": 1e3 * tracer.total_s["registry.load"]
            / max(tracer.count["registry.load"], 1),
            "service.wait_us": probe.parts_us(by)["service.wait_us"],
        })
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "train_stream": train_stream,
    "serve_inproc": serve_inproc,
    "serve_fleet": serve_fleet,
    "adapt": adapt,
}
