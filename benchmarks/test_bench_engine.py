"""Engine perf guard: substrate hot paths versus the frozen seed implementation.

Measures the hot paths below and records them into ``BENCH_engine.json`` (via
the ``engine_bench`` fixture in ``conftest.py``; enforced against
``benchmarks/baseline/BENCH_baseline.json`` by ``check_regression.py``):

* the autograd **backward pass** of a CERL-shaped batch loss (encoder MLP,
  two outcome heads, elastic net, group-balancing term) — new ``repro.nn``
  tensors versus the verbatim seed autograd in ``_seed_reference.py``;
* the **Sinkhorn** transport-plan solver — vectorised in-place inner loop
  versus the seed's allocate-per-iteration loop;
* the **inference forward** fast path (``Module.infer`` on raw ndarrays with
  reusable workspaces) versus the Tensor forward under ``no_grad``, on the
  full CERL evaluation stack at batch 1024;
* **suite evaluation**: the batched ``evaluate_many`` (one concatenated
  forward for all seen test sets) versus the seed's per-dataset Tensor-path
  evaluation loop on an 8-domain stream;
* **parallel Table I**: the process-pool experiment executor versus the
  serial cell loop, with the tables asserted identical;
* **serving throughput**: the micro-batched ``repro.serve.PredictionService``
  under pipelined multi-thread load versus naive per-query (batch-1)
  serving, with every response asserted bit-identical to the direct batched
  reference;
* **gateway throughput**: the sharded multi-tenant ``ServingGateway`` under
  interleaved multi-stream traffic versus a single-service front door that
  must hot-swap models between queries, responses asserted bit-identical;
* **gateway cache**: the TTL+LRU response-cache hit path versus re-executing
  repeated queries, transparency asserted bitwise first;
* **drift detection**: one ``repro.monitor`` drift check (RBF-MMD of the
  rolling traffic window against the frozen reference) on the cached ndarray
  scorer versus recomputing the full statistic through the Tensor IPM path,
  scores asserted bit-identical;
* one **CERL continual stage** (fit_next) at a small fixed size, as an
  absolute wall-time trajectory point for future PRs.

The timed sections isolate exactly the code the engine PRs optimised.
Gradients, transport plans, forward outputs and metric tables are asserted
bit-identical to the reference paths before any timing is trusted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _seed_reference import SeedTensor, seed_sinkhorn_plan
from repro.balance.ipm import _sinkhorn_plan
from repro.core import CERL, BaselineCausalModel, ContinualConfig, ModelConfig
from repro.data import DomainStream, SyntheticDomainGenerator
from repro.experiments import QUICK, SMOKE, run_table1
from repro.metrics import EffectEstimate, evaluate_effect_estimate
from repro.nn import Tensor, no_grad

# --------------------------------------------------------------------------- #
# shared workload: a batch loss with the same structure as the CERL objective
# --------------------------------------------------------------------------- #
_RNG = np.random.default_rng(0)
_N, _P, _D, _H = 128, 25, 32, 64
_X = _RNG.normal(size=(_N, _P))
_Y = _RNG.normal(size=(_N, 1))
_WEIGHTS = {
    "w1": _RNG.normal(size=(_P, _H)),
    "b1": _RNG.normal(size=(1, _H)),
    "w2": _RNG.normal(size=(_H, _D)),
    "b2": _RNG.normal(size=(1, _D)),
    "h0w": _RNG.normal(size=(_D, 1)),
    "h0b": _RNG.normal(size=(1, 1)),
    "h1w": _RNG.normal(size=(_D, 1)),
    "h1b": _RNG.normal(size=(1, 1)),
}
_TMASK = (_RNG.random(_N) > 0.5).astype(np.float64)
_CMASK = 1.0 - _TMASK
_ONES_D = np.ones((_D, 1))


def _loss_graph(tensor_cls):
    """Build the CERL-shaped loss with either tensor implementation."""
    T = tensor_cls
    params = {k: T(v, requires_grad=True) for k, v in _WEIGHTS.items()}
    x = T(_X)
    y = T(_Y)
    hidden = (x @ params["w1"] + params["b1"]).relu()
    reps = hidden @ params["w2"] + params["b2"]
    row_energy = (reps * reps) @ T(_ONES_D)
    y0 = (reps @ params["h0w"] + params["h0b"]).relu()
    y1 = (reps @ params["h1w"] + params["h1b"]).relu()
    pred = y0 * T(_CMASK.reshape(_N, 1)) + y1 * T(_TMASK.reshape(_N, 1))
    diff = pred - y
    factual = (diff * diff).sum()
    enet = (params["w1"] * params["w1"]).sum()
    for key in ("w2", "h0w", "h1w"):
        enet = enet + (params[key] * params[key]).sum()
    group_t = T(_TMASK.reshape(1, _N) / _TMASK.sum()) @ reps
    group_c = T(_CMASK.reshape(1, _N) / _CMASK.sum()) @ reps
    group_diff = group_t - group_c
    balance = (group_diff * group_diff).sum()
    total = factual + balance * T(1.0) + enet * T(1e-4) + (row_energy * T(1.0 / _N)).sum()
    return total, params


def _timed_round(fn, repetitions):
    """One measurement round for :func:`_interleaved_best`: mean time of ``fn``."""

    def measure() -> float:
        start = time.perf_counter()
        for _ in range(repetitions):
            fn()
        return (time.perf_counter() - start) / repetitions

    return measure


def _interleaved_best(measure_a, measure_b, rounds: int = 6):
    """Alternate measurement rounds of two subjects and keep each one's best.

    Interleaving keeps slow drifts of the machine (frequency scaling, noisy
    neighbours) from biasing one side of the comparison.
    """
    best_a = best_b = float("inf")
    for _ in range(rounds):
        best_a = min(best_a, measure_a())
        best_b = min(best_b, measure_b())
    return best_a, best_b


def _backward_round(tensor_cls, repetitions: int = 150):
    """Mean backward time over one round; forward construction is untimed."""

    def measure() -> float:
        total = 0.0
        for _ in range(repetitions):
            loss, _ = _loss_graph(tensor_cls)
            start = time.perf_counter()
            loss.backward()
            total += time.perf_counter() - start
        return total / repetitions

    return measure


@pytest.mark.benchmark(group="engine")
def test_bench_backward_pass_vs_seed(engine_bench):
    """Optimised autograd backward vs the frozen seed implementation."""
    new_loss, new_params = _loss_graph(Tensor)
    new_loss.backward()
    seed_loss, seed_params = _loss_graph(SeedTensor)
    seed_loss.backward()
    for key in new_params:
        assert np.array_equal(new_params[key].grad, seed_params[key].grad), key

    seed_time, new_time = _interleaved_best(
        _backward_round(SeedTensor), _backward_round(Tensor)
    )
    speedup = seed_time / new_time
    engine_bench(
        "backward_pass",
        seed_us=round(seed_time * 1e6, 2),
        engine_us=round(new_time * 1e6, 2),
        speedup=round(speedup, 3),
        workload=f"CERL-shaped batch loss, n={_N}, d={_D}",
    )
    print(
        f"\nbackward: seed {seed_time * 1e6:.1f}us -> engine {new_time * 1e6:.1f}us "
        f"({speedup:.2f}x)"
    )
    # Regression guard only (>1.0): shared CI runners are too noisy to gate
    # on the full measured margin; BENCH_engine.json records the real ratio.
    assert speedup > 1.0, f"backward pass regressed: {speedup:.2f}x vs seed"


_SINKHORN_SUBPROCESS = """
import json, sys, time
import numpy as np

sys.path.insert(0, {src_path!r})
sys.path.insert(0, {bench_path!r})
from repro.balance.ipm import _sinkhorn_plan
from _seed_reference import seed_sinkhorn_plan

cost = np.random.default_rng(1).random((256, 256)) * 4.0


def one_round(fn, repetitions=25):
    start = time.perf_counter()
    for _ in range(repetitions):
        fn(cost, 0.1, 20)
    return (time.perf_counter() - start) / repetitions


best_seed = best_new = float("inf")
for _ in range(6):
    best_seed = min(best_seed, one_round(seed_sinkhorn_plan))
    best_new = min(best_new, one_round(_sinkhorn_plan))
print(json.dumps({{"seed": best_seed, "new": best_new}}))
"""


@pytest.mark.benchmark(group="engine")
def test_bench_sinkhorn_vs_seed(engine_bench):
    """Vectorised in-place Sinkhorn vs the seed allocate-per-iteration loop.

    The seed implementation allocates several fresh ``(n, m)`` arrays per
    iteration, which makes its wall time depend heavily on the process's
    allocator state (we measured the identical call ranging from 9ms to 30ms
    with warm vs cold malloc arenas).  The timing therefore runs in a fresh
    subprocess so both sides are measured under the same, reproducible
    conditions; the in-place implementation is insensitive to this either way.
    """
    rng = np.random.default_rng(1)
    cost = rng.random((256, 256)) * 4.0
    assert np.array_equal(
        _sinkhorn_plan(cost, epsilon=0.1, num_iters=20),
        seed_sinkhorn_plan(cost, epsilon=0.1, num_iters=20),
    )

    bench_dir = Path(__file__).resolve().parent
    script = _SINKHORN_SUBPROCESS.format(
        src_path=str(bench_dir.parent / "src"), bench_path=str(bench_dir)
    )
    output = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    times = json.loads(output.stdout.strip().splitlines()[-1])
    seed_time, new_time = times["seed"], times["new"]
    speedup = seed_time / new_time
    engine_bench(
        "sinkhorn",
        seed_ms=round(seed_time * 1e3, 3),
        engine_ms=round(new_time * 1e3, 3),
        speedup=round(speedup, 3),
        workload="256x256 cost matrix, 20 log-domain iterations",
    )
    print(
        f"\nsinkhorn: seed {seed_time * 1e3:.2f}ms -> engine {new_time * 1e3:.2f}ms "
        f"({speedup:.2f}x)"
    )
    assert speedup > 1.0, f"sinkhorn regressed: {speedup:.2f}x vs seed"


# --------------------------------------------------------------------------- #
# inference fast path
# --------------------------------------------------------------------------- #
def _fitted_eval_model(n_units: int, n_domains: int):
    """A briefly-trained baseline learner plus its domain stream."""
    generator = SyntheticDomainGenerator(QUICK.synthetic_config(n_units=n_units), seed=0)
    stream = DomainStream(generator.generate_stream(n_domains), seed=0)
    config = ModelConfig(
        representation_dim=32,
        encoder_hidden=(64,),
        outcome_hidden=(32,),
        epochs=3,
        batch_size=128,
        seed=0,
    )
    model = BaselineCausalModel(stream.n_features, config)
    model.fit(stream.train_data(0), epochs=3)
    return model, stream


@pytest.mark.benchmark(group="engine")
def test_bench_inference_forward_vs_tensor(engine_bench):
    """``Module.infer`` fast path vs the Tensor forward at batch 1024.

    The workload is the full CERL evaluation stack — representation network
    (cosine-normalised encoder) plus both outcome heads — which is what every
    ``predict``/``evaluate``/validation call runs.  Outputs are asserted
    bitwise identical before timing.
    """
    model, _ = _fitted_eval_model(n_units=600, n_domains=1)
    rng = np.random.default_rng(7)
    covariates = rng.normal(size=(1024, model.n_features))
    prepared = model.encoder.prepare_inputs(covariates)
    encoder, heads = model.encoder, model.heads

    def tensor_forward():
        with no_grad():
            reps = encoder.forward(Tensor(prepared))
            y0 = heads.control_head(reps).reshape(-1)
            y1 = heads.treated_head(reps).reshape(-1)
        return y0.data, y1.data

    def fast_forward():
        reps = encoder.infer(prepared)
        y0 = heads.control_head.infer(reps).ravel()
        y1 = heads.treated_head.infer(reps).ravel()
        return y0, y1

    ref0, ref1 = tensor_forward()
    out0, out1 = fast_forward()
    assert np.array_equal(ref0, out0) and np.array_equal(ref1, out1)

    tensor_time, fast_time = _interleaved_best(
        _timed_round(tensor_forward, 100), _timed_round(fast_forward, 100)
    )
    speedup = tensor_time / fast_time
    engine_bench(
        "inference_forward",
        tensor_us=round(tensor_time * 1e6, 2),
        infer_us=round(fast_time * 1e6, 2),
        speedup=round(speedup, 3),
        workload="CERL eval stack (encoder + both heads), batch 1024",
    )
    print(
        f"\ninference forward: tensor {tensor_time * 1e6:.1f}us -> "
        f"infer {fast_time * 1e6:.1f}us ({speedup:.2f}x)"
    )
    assert speedup > 1.0, f"inference fast path regressed: {speedup:.2f}x vs Tensor forward"


@pytest.mark.benchmark(group="engine")
def test_bench_suite_evaluation_batched_vs_per_dataset(engine_bench):
    """Batched ``evaluate_many`` vs the seed's per-dataset evaluation loop.

    The workload is the Figure-3 seen-test-sets sweep on an 8-domain stream.
    The per-dataset baseline reproduces the seed path verbatim (one Tensor
    forward per dataset); metric dictionaries are asserted identical before
    timing.
    """
    model, stream = _fitted_eval_model(n_units=600, n_domains=8)
    tests = stream.test_sets_seen(len(stream) - 1)

    def seed_evaluate(dataset):
        representations = model.encoder.encode(dataset.covariates, track_gradients=False)
        with no_grad():
            y0 = model.heads.control_head(representations).reshape(-1)
            y1 = model.heads.treated_head(representations).reshape(-1)
        estimate = EffectEstimate(
            y0_hat=model._unscale_outcomes(y0.numpy().copy()),
            y1_hat=model._unscale_outcomes(y1.numpy().copy()),
        )
        return evaluate_effect_estimate(
            estimate,
            dataset.true_ite,
            treatments=dataset.treatments,
            factual_outcomes=dataset.outcomes,
        )

    assert [seed_evaluate(test) for test in tests] == model.evaluate_many(tests)

    seed_time, batched_time = _interleaved_best(
        _timed_round(lambda: [seed_evaluate(test) for test in tests], 20),
        _timed_round(lambda: model.evaluate_many(tests), 20),
    )
    speedup = seed_time / batched_time
    engine_bench(
        "suite_evaluation",
        per_dataset_ms=round(seed_time * 1e3, 3),
        batched_ms=round(batched_time * 1e3, 3),
        speedup=round(speedup, 3),
        workload="8-domain stream, 120-unit test sets, seed Tensor path vs evaluate_many",
    )
    print(
        f"\nsuite evaluation: per-dataset {seed_time * 1e3:.2f}ms -> "
        f"batched {batched_time * 1e3:.2f}ms ({speedup:.2f}x)"
    )
    assert speedup > 1.0, f"batched suite evaluation regressed: {speedup:.2f}x"


@pytest.mark.benchmark(group="engine")
def test_bench_parallel_table1(engine_bench):
    """Serial vs process-pool Table I execution (identical tables required).

    On multi-core machines the pool fans dataset × scenario cells out and the
    recorded speedup approaches the cell count.  On a single-core runner a
    2-worker pool cannot express any parallelism — ``parallel_map`` itself
    now clamps to serial there — so the section records ``"gated": true``
    (no ``speedup`` key) instead of a misleading ratio, and the regression
    gate skips it rather than flagging phantom regressions on 1-core CI.
    Determinism is asserted either way — the pool path is forced with
    ``force_parallel`` so the equivalence property is exercised even on the
    machines that gate the timing.
    """
    kwargs = dict(
        datasets=("news",),
        scenarios=("substantial", "none"),
        strategies=("CFR-A", "CERL"),
        seed=0,
    )
    # Warm the process-local population cache so both timed paths start from
    # the same state (fork-based workers inherit it as well).
    from repro.experiments.table1 import _benchmark

    _benchmark("news", SMOKE, 0)._simulate_population()
    cpu_count = os.cpu_count() or 1
    if cpu_count < 2:
        # The timing comparison is meaningless here, but the correctness
        # property is not: force the real pool path once and assert the
        # tables are identical before recording the gate.
        serial = run_table1(SMOKE, workers=1, **kwargs)
        parallel = run_table1(SMOKE, workers=2, force_parallel=True, **kwargs)
        assert serial.rows() == parallel.rows(), "parallel Table I diverged from serial"
        engine_bench(
            "parallel_table1",
            gated=True,
            gate_reason=f"cpu_count={cpu_count} cannot express 2-worker parallelism",
            workers=2,
            cpu_count=cpu_count,
            workload="smoke Table I, 2 cells (news x substantial/none), 2 strategies",
        )
        print(f"\nparallel table1: gated on {cpu_count}-cpu machine (parity asserted)")
        return

    start = time.perf_counter()
    serial = run_table1(SMOKE, workers=1, **kwargs)
    serial_time = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_table1(SMOKE, workers=2, **kwargs)
    parallel_time = time.perf_counter() - start
    assert serial.rows() == parallel.rows(), "parallel Table I diverged from serial"

    speedup = serial_time / parallel_time
    engine_bench(
        "parallel_table1",
        serial_s=round(serial_time, 4),
        parallel_s=round(parallel_time, 4),
        speedup=round(speedup, 3),
        workers=2,
        cpu_count=cpu_count,
        workload="smoke Table I, 2 cells (news x substantial/none), 2 strategies",
    )
    print(
        f"\nparallel table1: serial {serial_time:.2f}s -> workers=2 "
        f"{parallel_time:.2f}s ({speedup:.2f}x on {cpu_count} cpu)"
    )


@pytest.mark.benchmark(group="engine")
def test_bench_meta_learner_table1(engine_bench):
    """Table I over registry-built meta-learners, serial vs process pool.

    The estimator API promises that meta-learners (here the S-learner and the
    crossfit R-learner) drop into the Table I executor exactly like the paper
    strategies: cells fan out over the same ``parallel_map`` and the parallel
    table must be bit-identical to the serial one.  The R-learner is the
    expensive column — nuisance crossfitting multiplies the fits per cell —
    which is exactly why the pool speedup is worth tracking separately from
    ``parallel_table1``.  Same single-core policy: parity is asserted with a
    forced pool and the section records ``"gated": true`` instead of timing
    noise (``check_regression.py`` skips gated sections).
    """
    kwargs = dict(
        datasets=("news",),
        scenarios=("substantial", "none"),
        strategies=("S-learner", "R-learner"),
        seed=0,
    )
    from repro.experiments.table1 import _benchmark

    _benchmark("news", SMOKE, 0)._simulate_population()
    cpu_count = os.cpu_count() or 1
    workload = "smoke Table I, 2 cells (news x substantial/none), S-learner + R-learner"
    if cpu_count < 2:
        serial = run_table1(SMOKE, workers=1, **kwargs)
        parallel = run_table1(SMOKE, workers=2, force_parallel=True, **kwargs)
        assert serial.rows() == parallel.rows(), "meta-learner Table I diverged from serial"
        engine_bench(
            "meta_learner_table1",
            gated=True,
            gate_reason=f"cpu_count={cpu_count} cannot express 2-worker parallelism",
            workers=2,
            cpu_count=cpu_count,
            workload=workload,
        )
        print(f"\nmeta-learner table1: gated on {cpu_count}-cpu machine (parity asserted)")
        return

    start = time.perf_counter()
    serial = run_table1(SMOKE, workers=1, **kwargs)
    serial_time = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_table1(SMOKE, workers=2, **kwargs)
    parallel_time = time.perf_counter() - start
    assert serial.rows() == parallel.rows(), "meta-learner Table I diverged from serial"

    speedup = serial_time / parallel_time
    engine_bench(
        "meta_learner_table1",
        serial_s=round(serial_time, 4),
        parallel_s=round(parallel_time, 4),
        speedup=round(speedup, 3),
        workers=2,
        cpu_count=cpu_count,
        workload=workload,
    )
    print(
        f"\nmeta-learner table1: serial {serial_time:.2f}s -> workers=2 "
        f"{parallel_time:.2f}s ({speedup:.2f}x on {cpu_count} cpu)"
    )


# --------------------------------------------------------------------------- #
# serving throughput
# --------------------------------------------------------------------------- #
@pytest.mark.benchmark(group="engine")
def test_bench_serve_throughput(engine_bench):
    """Micro-batched ``PredictionService`` vs naive per-query serving.

    Eight client threads pipeline single-unit ITE queries into the service
    (submit everything, then collect — the shape of heavy concurrent
    traffic); the dispatcher coalesces whatever queues up during each
    execution into the next canonical-size batch on the inference fast path.
    The baseline answers the same queries one ``predict`` call at a time
    (batch 1), which is what a service without a batcher would do.  Every
    micro-batched response is asserted bit-identical to the direct batched
    reference before any timing is trusted.
    """
    import threading

    from repro.serve import PredictionService

    model, _ = _fitted_eval_model(n_units=600, n_domains=1)
    rng = np.random.default_rng(11)
    queries = rng.normal(size=(256, model.n_features))
    reference = model.predict(queries)
    n_threads, per_thread = 8, 96
    indices = [
        np.random.default_rng(thread).integers(0, len(queries), size=per_thread)
        for thread in range(n_threads)
    ]
    last_stats = {}

    def service_round() -> float:
        with PredictionService(model, max_batch=len(queries)) as service:
            service.predict_one(queries[0])  # warm the inference workspaces
            warmup = service.stats()
            failures = []
            barrier = threading.Barrier(n_threads)

            def client(thread_index: int) -> None:
                barrier.wait()
                pendings = [
                    (index, service.submit(queries[index]))
                    for index in indices[thread_index]
                ]
                for index, pending in pendings:
                    response = pending.result(timeout=60.0)
                    if (
                        response.mu0 != reference.y0_hat[index]
                        or response.mu1 != reference.y1_hat[index]
                        or response.ite != reference.ite_hat[index]
                    ):
                        failures.append(int(index))

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_threads)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            final = service.stats()
            # Report the timed phase only (the warm-up batch of one query
            # would otherwise understate the coalescing).
            last_stats["mean_batch"] = (final.queries - warmup.queries) / (
                final.batches - warmup.batches
            )
        assert failures == [], "micro-batched responses diverged from batched predict"
        return elapsed

    flat = np.concatenate(indices)

    def serial_round() -> float:
        start = time.perf_counter()
        for index in flat:
            model.predict(queries[index : index + 1])
        return time.perf_counter() - start

    serial_time, service_time = _interleaved_best(serial_round, service_round, rounds=4)
    mean_batch = last_stats["mean_batch"]
    total = n_threads * per_thread
    service_qps = total / service_time
    serial_qps = total / serial_time
    speedup = service_qps / serial_qps
    engine_bench(
        "serve_throughput",
        service_qps=round(service_qps, 1),
        serial_qps=round(serial_qps, 1),
        speedup=round(speedup, 3),
        threads=n_threads,
        queries=total,
        mean_batch=round(mean_batch, 2),
        workload="8 pipelined client threads x 96 single-unit ITE queries, canonical batch 256",
    )
    print(
        f"\nserve throughput: per-query {serial_qps:,.0f} q/s -> micro-batched "
        f"{service_qps:,.0f} q/s ({speedup:.2f}x, mean batch {mean_batch:.1f})"
    )
    assert speedup > 1.0, f"micro-batched serving regressed: {speedup:.2f}x vs per-query"


# --------------------------------------------------------------------------- #
# multi-tenant gateway
# --------------------------------------------------------------------------- #
@pytest.mark.benchmark(group="engine")
def test_bench_gateway_throughput(engine_bench):
    """Sharded ``ServingGateway`` vs one ``PredictionService`` front door.

    The load is interleaved multi-stream traffic: 8 client threads each
    pipeline single-unit ITE queries that cycle across 4 streams (4 distinct
    models).  The gateway digest-routes each stream to its own shard, so
    every shard's micro-batcher coalesces its stream's queries onto one
    canonical-size inference batch.  The baseline is what a deployment
    without the gateway would do: a single ``PredictionService`` front door
    must hot-swap to the right model whenever consecutive queries hit
    different streams, which reduces it to swap + batch-1 ``predict`` per
    query — batching cannot survive model interleaving.  Every gateway
    response is asserted bit-identical to the direct batched reference of
    its stream before any timing is trusted.
    """
    import copy
    import threading

    from repro.serve import PredictionService, ServingGateway

    base_model, _ = _fitted_eval_model(n_units=600, n_domains=1)
    n_streams = 4
    streams = [f"s{i:02d}" for i in range(n_streams)]
    # Each stream's service must own its learner (inference workspaces are
    # per-module); identical copies keep the reference check trivial.
    models = {name: copy.deepcopy(base_model) for name in streams}
    rng = np.random.default_rng(13)
    queries = rng.normal(size=(256, base_model.n_features))
    reference = base_model.predict(queries)
    n_threads, per_thread = 8, 96
    thread_indices = [
        np.random.default_rng(thread).integers(0, len(queries), size=per_thread)
        for thread in range(n_threads)
    ]

    def gateway_round() -> float:
        with ServingGateway(
            loader=lambda stream: (models[stream], 0),
            n_shards=n_streams,
            max_batch=len(queries),
            cache_capacity=0,
        ) as gateway:
            for name in streams:  # spin up + warm the inference workspaces
                gateway.predict_one(name, queries[0])
            failures: list = []
            barrier = threading.Barrier(n_threads)

            def client(thread_index: int) -> None:
                barrier.wait()
                pendings = [
                    (index, gateway.submit(streams[(thread_index + q) % n_streams], queries[index]))
                    for q, index in enumerate(thread_indices[thread_index])
                ]
                mine = []
                for index, pending in pendings:
                    response = pending.result(timeout=60.0)
                    if (
                        response.mu0 != reference.y0_hat[index]
                        or response.mu1 != reference.y1_hat[index]
                        or response.ite != reference.ite_hat[index]
                    ):
                        mine.append(int(index))
                if mine:
                    failures.append(mine)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_threads)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
        assert failures == [], "gateway responses diverged from the batched reference"
        return elapsed

    # The no-gateway baseline: one service, forced to swap models whenever
    # the stream changes (every query under interleaved traffic).
    flat = [
        (streams[(thread + q) % n_streams], index)
        for thread in range(n_threads)
        for q, index in enumerate(thread_indices[thread])
    ]

    def single_service_round() -> float:
        with PredictionService(models[streams[0]], model_version=0) as service:
            service.predict(queries[:1])  # warm
            start = time.perf_counter()
            current = streams[0]
            for stream, index in flat:
                if stream != current:
                    service.swap_model(models[stream], model_version=0)
                    current = stream
                service.predict(queries[index : index + 1])
            return time.perf_counter() - start

    single_time, gateway_time = _interleaved_best(
        single_service_round, gateway_round, rounds=4
    )
    total = n_threads * per_thread
    gateway_qps = total / gateway_time
    single_qps = total / single_time
    speedup = gateway_qps / single_qps
    engine_bench(
        "gateway_throughput",
        gateway_qps=round(gateway_qps, 1),
        single_service_qps=round(single_qps, 1),
        speedup=round(speedup, 3),
        streams=n_streams,
        shards=n_streams,
        threads=n_threads,
        queries=total,
        workload="8 threads x 96 queries interleaved over 4 streams, canonical batch 256",
    )
    print(
        f"\ngateway throughput: single service {single_qps:,.0f} q/s -> "
        f"{n_streams}-shard gateway {gateway_qps:,.0f} q/s ({speedup:.2f}x)"
    )
    assert speedup > 1.0, f"gateway throughput regressed: {speedup:.2f}x vs single service"


@pytest.mark.benchmark(group="engine")
def test_bench_gateway_cache(engine_bench):
    """Response-cache hit path vs re-executing repeated queries.

    Serving traffic repeats (refreshes, dashboards, replayed tapes); the
    gateway's TTL+LRU cache answers a repeat without touching the batcher.
    Transparency is asserted first: every cached response is bit-identical
    to the direct batched reference at the canonical execution size.
    """
    import copy

    from repro.serve import ServingGateway

    model, _ = _fitted_eval_model(n_units=600, n_domains=1)
    rng = np.random.default_rng(17)
    hot_rows = rng.normal(size=(64, model.n_features))
    reference = model.predict(hot_rows)
    lookups = np.random.default_rng(23).integers(0, len(hot_rows), size=2000)

    def make_gateway(cache_capacity: int) -> ServingGateway:
        # Each gateway's service owns its learner copy (workspace hygiene).
        return ServingGateway(
            loader=lambda stream: (copy.deepcopy(model), 0),
            n_shards=1,
            max_batch=len(hot_rows),
            cache_capacity=cache_capacity,
        )

    with make_gateway(cache_capacity=4096) as cached, make_gateway(
        cache_capacity=0
    ) as uncached:
        for index in range(len(hot_rows)):  # prime the cache / warm workspaces
            response = cached.predict_one("hot", hot_rows[index])
            assert response.mu0 == reference.y0_hat[index]
            assert response.ite == reference.ite_hat[index]
            uncached.predict_one("hot", hot_rows[index])

        def cached_round() -> None:
            for index in lookups:
                cached.predict_one("hot", hot_rows[index])

        def uncached_round() -> None:
            for index in lookups:
                uncached.predict_one("hot", hot_rows[index])

        uncached_time, cached_time = _interleaved_best(
            _timed_round(uncached_round, 1), _timed_round(cached_round, 1), rounds=4
        )
        sample = cached.predict_one("hot", hot_rows[5])
        assert sample.mu0 == reference.y0_hat[5] and sample.ite == reference.ite_hat[5]
        hit_rate = cached.stats().cache_hit_rate

    cached_qps = len(lookups) / cached_time
    uncached_qps = len(lookups) / uncached_time
    speedup = cached_qps / uncached_qps
    engine_bench(
        "gateway_cache",
        cached_qps=round(cached_qps, 1),
        uncached_qps=round(uncached_qps, 1),
        speedup=round(speedup, 3),
        hit_rate=round(hit_rate, 4),
        workload="2000 repeated single-unit queries over 64 hot rows, canonical batch 64",
    )
    print(
        f"\ngateway cache: uncached {uncached_qps:,.0f} q/s -> cached "
        f"{cached_qps:,.0f} q/s ({speedup:.2f}x, hit rate {100 * hit_rate:.0f}%)"
    )
    assert speedup > 1.0, f"gateway cache regressed: {speedup:.2f}x vs uncached"


@pytest.mark.benchmark(group="engine")
def test_bench_gateway_multiproc(engine_bench, tmp_path):
    """Out-of-process worker fleet vs the in-process sharded gateway.

    Same interleaved multi-stream load as ``test_bench_gateway_throughput``,
    but served by ``MultiprocGateway``: every stream's model runs in a
    separate worker *process* (mmap-loaded from the registry), so inference
    escapes the GIL entirely at the price of a length-prefixed socket
    round-trip per query.  The baseline is the in-process ``ServingGateway``
    over identical models.  Bitwise parity with the direct batched reference
    is asserted on every multiproc response before any timing is trusted.

    On a 1-core runner two worker processes cannot express any parallelism —
    the run would only measure IPC overhead — so the benchmark asserts the
    parity contract and records ``"gated": true`` instead of a misleading
    ratio (``check_regression.py`` skips gated sections).
    """
    import threading

    from repro.core import CERL
    from repro.experiments.multiproc import _spanning_names
    from repro.serve import ModelRegistry, MultiprocGateway, ServingGateway

    cpu_count = os.cpu_count() or 1
    n_workers = 2

    # One briefly-trained CERL registered under every stream name: identical
    # models keep the reference check trivial (mirrors the deepcopy trick in
    # the in-process gateway bench) while the registry/mmap path stays real.
    generator = SyntheticDomainGenerator(SMOKE.synthetic_config(), seed=0)
    stream_data = DomainStream([generator.generate_domain(0)], seed=0)
    learner = CERL(
        stream_data.n_features,
        SMOKE.model_config(seed=0, epochs=3),
        SMOKE.continual_config(memory_budget=SMOKE.memory_budget_table1),
    )
    learner.observe(stream_data.train_data(0), epochs=3)

    n_streams = 4
    streams = _spanning_names("s", n_streams, n_workers)
    registry_root = tmp_path / "registry"
    registry = ModelRegistry(registry_root)
    for name in streams:
        registry.save(name, 0, learner, metadata={"trigger": "bench"})

    rng = np.random.default_rng(13)
    queries = rng.normal(size=(256, learner.n_features))
    reference = learner.predict(queries)

    def check(index: int, response) -> bool:
        return (
            response.mu0 == reference.y0_hat[index]
            and response.mu1 == reference.y1_hat[index]
            and response.ite == reference.ite_hat[index]
        )

    if cpu_count < n_workers:
        # Parity contract still holds across the process boundary; only the
        # throughput claim is meaningless here.
        with MultiprocGateway(
            registry_root,
            streams,
            n_workers=n_workers,
            max_batch=len(queries),
            cache_capacity=0,
        ) as gateway:
            indices = np.random.default_rng(7).integers(0, len(queries), size=32)
            pendings = [
                (int(i), gateway.submit(streams[q % n_streams], queries[i]))
                for q, i in enumerate(indices)
            ]
            for index, pending in pendings:
                assert check(index, pending.result(timeout=60.0)), (
                    "multiproc response diverged from the batched reference"
                )
        engine_bench(
            "gateway_multiproc",
            gated=True,
            gate_reason=(
                f"cpu_count={cpu_count} cannot express {n_workers}-process "
                "parallelism"
            ),
            workers=n_workers,
            cpu_count=cpu_count,
            parity_queries=len(indices),
            workload="parity-only: 32 queries over 4 streams, canonical batch 256",
        )
        print(
            f"\ngateway multiproc: gated on cpu_count={cpu_count} "
            f"(parity asserted on {len(indices)} cross-process responses)"
        )
        return

    n_threads, per_thread = 8, 96
    thread_indices = [
        np.random.default_rng(thread).integers(0, len(queries), size=per_thread)
        for thread in range(n_threads)
    ]

    def fleet_round() -> float:
        with MultiprocGateway(
            registry_root,
            streams,
            n_workers=n_workers,
            max_batch=len(queries),
            cache_capacity=0,
        ) as gateway:
            for name in streams:  # spin up workers + warm their workspaces
                gateway.predict_one(name, queries[0])
            failures: list = []
            barrier = threading.Barrier(n_threads)

            def client(thread_index: int) -> None:
                barrier.wait()
                pendings = [
                    (index, gateway.submit(streams[(thread_index + q) % n_streams], queries[index]))
                    for q, index in enumerate(thread_indices[thread_index])
                ]
                mine = [
                    int(index)
                    for index, pending in pendings
                    if not check(index, pending.result(timeout=60.0))
                ]
                if mine:
                    failures.append(mine)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_threads)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
        assert failures == [], "multiproc responses diverged from the batched reference"
        return elapsed

    def inprocess_round() -> float:
        import copy

        with ServingGateway(
            loader=lambda stream: (copy.deepcopy(learner), 0),
            n_shards=n_streams,
            max_batch=len(queries),
            cache_capacity=0,
        ) as gateway:
            for name in streams:
                gateway.predict_one(name, queries[0])
            barrier = threading.Barrier(n_threads)

            def client(thread_index: int) -> None:
                barrier.wait()
                pendings = [
                    gateway.submit(streams[(thread_index + q) % n_streams], queries[index])
                    for q, index in enumerate(thread_indices[thread_index])
                ]
                for pending in pendings:
                    pending.result(timeout=60.0)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_threads)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return time.perf_counter() - start

    inprocess_time, fleet_time = _interleaved_best(
        inprocess_round, fleet_round, rounds=3
    )
    total = n_threads * per_thread
    fleet_qps = total / fleet_time
    inprocess_qps = total / inprocess_time
    speedup = fleet_qps / inprocess_qps
    engine_bench(
        "gateway_multiproc",
        fleet_qps=round(fleet_qps, 1),
        inprocess_qps=round(inprocess_qps, 1),
        speedup=round(speedup, 3),
        workers=n_workers,
        streams=n_streams,
        threads=n_threads,
        queries=total,
        workload="8 threads x 96 queries interleaved over 4 streams, canonical batch 256",
    )
    print(
        f"\ngateway multiproc: in-process {inprocess_qps:,.0f} q/s -> "
        f"{n_workers}-process fleet {fleet_qps:,.0f} q/s ({speedup:.2f}x)"
    )
    # IPC has a real per-query cost; the fleet must stay within a conservative
    # fraction of the in-process gateway even when socket overhead dominates.
    assert speedup > 0.3, f"multiproc fleet collapsed: {speedup:.2f}x vs in-process"


# --------------------------------------------------------------------------- #
# drift detection
# --------------------------------------------------------------------------- #
@pytest.mark.benchmark(group="engine")
def test_bench_drift_detection(engine_bench):
    """Drift-check throughput: cached ndarray scorer vs the Tensor IPM path.

    The monitor scores every traffic window against a *frozen* reference, so
    the reference-side kernel term of the RBF MMD is computed once at
    calibration; a naive monitor would rebuild the full statistic through the
    Tensor IPM (graph bookkeeping plus the reference self-kernel) on every
    check.  Scores are asserted bit-identical before timing — caching must
    not change a single ulp of the detection decision.
    """
    from repro.balance import mmd2_rbf
    from repro.monitor import DriftDetector

    rng = np.random.default_rng(5)
    reference = rng.normal(size=(512, 25))
    window = rng.normal(size=(128, 25)) + 0.25
    detector = DriftDetector("mmd_rbf", quantile=0.95, n_permutations=20, seed=0)
    detector.calibrate(reference, window_size=128)
    sigma = detector.bandwidth
    reference_tensor, window_tensor = Tensor(reference), Tensor(window)

    def tensor_check() -> float:
        with no_grad():
            return float(mmd2_rbf(reference_tensor, window_tensor, sigma=sigma).data)

    def monitor_check() -> float:
        return detector.score(window).statistic

    assert monitor_check() == tensor_check()

    tensor_time, monitor_time = _interleaved_best(
        _timed_round(tensor_check, 40), _timed_round(monitor_check, 40)
    )
    speedup = tensor_time / monitor_time
    engine_bench(
        "drift_detection",
        checks_per_s=round(1.0 / monitor_time, 1),
        tensor_us=round(tensor_time * 1e6, 2),
        monitor_us=round(monitor_time * 1e6, 2),
        speedup=round(speedup, 3),
        workload="rbf-MMD drift check, reference 512x25, window 128x25, median bandwidth",
    )
    print(
        f"\ndrift detection: tensor {tensor_time * 1e6:.1f}us -> monitor "
        f"{monitor_time * 1e6:.1f}us ({speedup:.2f}x, {1.0 / monitor_time:,.0f} checks/s)"
    )
    assert speedup > 1.0, f"cached drift scoring regressed: {speedup:.2f}x vs Tensor path"


@pytest.mark.benchmark(group="engine")
def test_bench_cerl_continual_stage(engine_bench):
    """Absolute wall-time of one engine-driven CERL continual stage."""
    generator = SyntheticDomainGenerator(QUICK.synthetic_config(n_units=600), seed=0)
    first, second = generator.generate_domain(0), generator.generate_domain(1)
    model_config = ModelConfig(
        representation_dim=32,
        encoder_hidden=(64,),
        outcome_hidden=(32,),
        epochs=3,
        batch_size=128,
        sinkhorn_iterations=20,
        seed=0,
    )
    continual_config = ContinualConfig(memory_budget=200, rehearsal_batch_size=64)
    learner = CERL(first.n_features, model_config, continual_config)
    learner.observe(first)

    start = time.perf_counter()
    learner.observe(second)
    elapsed = time.perf_counter() - start
    engine_bench(
        "cerl_stage",
        seconds=round(elapsed, 4),
        workload="fit_next: 600 units, 3 epochs, memory 200",
    )
    print(f"\ncerl continual stage: {elapsed:.3f}s")
    assert learner.domains_seen == 2
