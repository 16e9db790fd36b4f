"""SLO suite: million-row production-shaped replay with chaos, against the fleet.

:func:`run_slo_suite` is the top of the :mod:`repro.slo` stack.  One run

1. trains ``n_streams`` lineages of any registered estimator (CERL by
   default; seeds derive exactly as in the fleet experiments, so the models —
   and therefore the bitwise references — are reproducible) and registers
   them as version 0 in a shared :class:`~repro.serve.ModelRegistry`;
2. builds a seeded :class:`~repro.slo.TrafficTape` sized to at least
   ``total_rows`` queries, and a deterministic **chunked** row source per
   stream (:meth:`~repro.data.synthetic.SyntheticDomainGenerator` via
   :class:`~repro.data.streams.ChunkedPopulation`) — row content is
   regenerated per tick from ``(stream seed, chunk key)``, so a million-row
   replay never materialises any full population;
3. replays the tape through a :class:`~repro.slo.LoadRunner` against a
   spawned :class:`~repro.serve.fleet.MultiprocGateway` (or the in-process
   :class:`~repro.serve.ServingGateway` in ``mode="inproc"``), injecting a
   :class:`~repro.slo.FaultSchedule` of worker-kill, straggler and
   registry-outage faults mid-replay and measuring recovery-time-to-SLO for
   each;
4. **bitwise-verifies** the runner's deterministic response sample: every
   sampled response is compared against the canonical-batch reference of the
   model version it reports (the row tiled to ``max_batch`` — the execution
   shape whose answers every certified pad size reproduces);
5. assembles the ``BENCH_slo.json`` payload for the CI perf gate.

Honest gating: a multiprocess fleet on a 1-core runner cannot express
concurrent serving, so ``mode="multiproc"`` *falls back* to the in-process
gateway there and the report's gateable sections carry ``"gated": true`` with
the reason — the perf gate skips them loudly instead of comparing noise
against multi-core floors.
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.api import ContinualEstimator, make_estimator
from ..data.streams import ChunkedPopulation, DomainStream
from ..data.synthetic import SyntheticDomainGenerator
from ..serve import ModelRegistry, ServingGateway
from ..serve.fleet import MultiprocGateway
from ..slo import (
    FaultSchedule,
    FleetChaosOps,
    LoadReport,
    LoadRunner,
    SloTargets,
    TapeConfig,
    TrafficTape,
    build_slo_report,
    default_fault_schedule,
    write_slo_report,
)
from .multiproc import _spanning_names
from .parallel import derive_seed
from .profiles import SMOKE, ExperimentProfile

__all__ = ["SloSuiteResult", "run_slo_suite"]


@dataclass
class SloSuiteResult:
    """Everything one SLO suite run produced."""

    mode: str
    gated: bool
    gate_reason: str
    estimator: str = "CERL"
    streams: List[str] = field(default_factory=list)
    tape_rows: int = 0
    tape_fingerprint: str = ""
    load: Optional[LoadReport] = None
    verified_samples: int = 0
    mismatched_samples: int = 0
    report: Dict[str, object] = field(default_factory=dict)
    report_path: Optional[Path] = None
    elapsed_s: float = 0.0

    @property
    def sample_parity(self) -> bool:
        """Whether every verified sampled response was bitwise exact."""
        return self.mismatched_samples == 0

    @property
    def all_faults_recovered(self) -> bool:
        return self.load is not None and self.load.all_faults_recovered


def _sized_tape(
    tenants: List[str], total_rows: int, mean_rows_per_tick: int, seed: int
) -> TrafficTape:
    """A tape carrying at least ``total_rows`` queries (O(n_ticks) to size).

    The heavy-tailed row draws make the total random, so the tape is built
    from the expected tick count, measured (one O(1)-memory pass), and grown
    proportionally until it clears the floor — still a pure function of the
    inputs, so two calls produce the identical tape.
    """
    n_ticks = max(20, round(total_rows / mean_rows_per_tick))
    for _ in range(8):
        tape = TrafficTape(
            tenants,
            TapeConfig(n_ticks=n_ticks, mean_rows_per_tick=mean_rows_per_tick),
            seed=seed,
        )
        measured = tape.total_rows()
        if measured >= total_rows:
            return tape
        shortfall = total_rows / max(measured, 1)
        n_ticks = max(n_ticks + 1, int(n_ticks * shortfall * 1.05) + 1)
    raise RuntimeError(
        f"could not size a tape to {total_rows} rows in 8 attempts"
    )


def run_slo_suite(
    total_rows: int = 1_000_000,
    profile: ExperimentProfile = SMOKE,
    mode: str = "multiproc",
    n_streams: int = 3,
    n_workers: int = 2,
    n_clients: int = 4,
    mean_rows_per_tick: int = 256,
    max_batch: int = 64,
    sample_per_tick: int = 1,
    inject_faults: bool = True,
    straggler_delay_ms: float = 25.0,
    registry_root: Optional[Union[str, Path]] = None,
    stream_prefix: str = "slo",
    cache_capacity: int = 0,
    estimator: str = "CERL",
    seed: int = 0,
    epochs: Optional[int] = None,
    targets: Optional[SloTargets] = None,
    out_path: Optional[Union[str, Path]] = None,
    force_multiproc: bool = False,
) -> SloSuiteResult:
    """Replay a production-shaped tape with chaos; emit the SLO report.

    Parameters
    ----------
    total_rows:
        Floor on the tape's total query count (the acceptance scale is one
        million; CI smoke passes a few thousand).
    mode:
        ``"multiproc"`` (spawned worker fleet; falls back to in-process with
        honest gating on machines without a second core) or ``"inproc"``.
    n_streams, n_workers, n_clients:
        Fleet shape and client thread count.
    mean_rows_per_tick, max_batch, sample_per_tick:
        Tape density, canonical serving batch, and per-tick bitwise-sample
        budget.
    inject_faults:
        Run the default worker-kill / straggler / registry-outage schedule
        (multiprocess mode only — the in-process gateway has no workers to
        kill, so the fallback path reports the chaos sections gated).
    cache_capacity:
        Front-door response cache (0 keeps every query on the serving path,
        which is what a latency SLO should measure).
    estimator:
        Registered estimator name to train and serve (default ``"CERL"``;
        any :func:`~repro.core.api.estimator_names` entry works — the
        serving stack never special-cases the model family).
    seed, epochs:
        Base seed for derived per-stream seeds; per-domain epoch budget.
    out_path:
        When given, the ``BENCH_slo.json`` payload is atomically written
        there.
    force_multiproc:
        Spawn the fleet even on a single core (tests exercising the chaos
        path on 1-core CI; the report still carries the honest gate so the
        timings are never compared against multi-core floors).
    """
    if total_rows < 1:
        raise ValueError("total_rows must be at least 1")
    if mode not in ("multiproc", "inproc"):
        raise ValueError(f"unknown mode {mode!r} (multiproc or inproc)")
    if n_streams < 2 or n_workers < 2:
        raise ValueError("the SLO suite needs at least 2 streams and 2 workers")
    epochs = epochs if epochs is not None else profile.epochs
    targets = targets if targets is not None else SloTargets()

    gated = False
    gate_reason = ""
    cpu_count = os.cpu_count() or 1
    if mode == "multiproc" and cpu_count < 2:
        # A spawned fleet on one core measures scheduler thrash, not serving.
        gated = True
        gate_reason = (
            f"multiproc SLO run needs >= 2 cores; this machine has {cpu_count}"
        )
        if not force_multiproc:
            mode = "inproc"

    with ExitStack() as stack:
        if registry_root is None:
            registry_root = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="cerl_slo_")
            )
        registry = ModelRegistry(registry_root)
        names = _spanning_names(stream_prefix, n_streams, n_workers)

        # --- train + register one lineage per stream (fleet-identical seeds) --- #
        learners: Dict[str, ContinualEstimator] = {}
        sources: Dict[str, ChunkedPopulation] = {}
        for name in names:
            stream_seed = derive_seed(seed, "fleet", name)
            generator = SyntheticDomainGenerator(
                profile.synthetic_config(), seed=stream_seed
            )
            stream = DomainStream(
                [generator.generate_domain(0), generator.generate_domain(1)],
                seed=stream_seed,
            )
            learner = make_estimator(
                estimator,
                stream.n_features,
                profile.model_config(seed=stream_seed, epochs=epochs),
                profile.continual_config(memory_budget=profile.memory_budget_table1),
            )
            learner.observe(stream.train_data(0), epochs=epochs)
            registry.save(name, 0, learner, metadata={"trigger": "slo-initial"})
            learners[name] = learner
            # Row content is regenerated per (stream seed, chunk key): the
            # replay touches millions of rows but holds one chunk at a time.
            sources[name] = ChunkedPopulation(
                lambda key, rows, g=generator: g.generate_domain(
                    0, n_units=rows, repetition=1 + key
                ),
                min_rows=10,
                name=f"{name}/domain0",
            )

        tape = _sized_tape(names, total_rows, mean_rows_per_tick, seed)
        result = SloSuiteResult(
            mode=mode, gated=gated, gate_reason=gate_reason, estimator=estimator
        )
        result.streams = names
        result.tape_rows = tape.total_rows()
        result.tape_fingerprint = tape.fingerprint()

        started = time.perf_counter()
        if mode == "multiproc":
            gateway = stack.enter_context(
                MultiprocGateway(
                    registry_root,
                    names,
                    n_workers=n_workers,
                    max_batch=max_batch,
                    cache_capacity=cache_capacity,
                )
            )
        else:
            gateway = stack.enter_context(
                ServingGateway(
                    registry=registry,
                    max_batch=max_batch,
                    cache_capacity=cache_capacity,
                )
            )

        faults = FaultSchedule([])
        chaos_ops = None
        if inject_faults and mode == "multiproc":
            victim = next(
                name
                for name in names
                if any(
                    gateway.worker_for(other) != gateway.worker_for(name)
                    for other in names
                )
            )
            faults = default_fault_schedule(
                len(tape), victim, straggler_delay_ms=straggler_delay_ms
            )
            chaos_ops = FleetChaosOps(
                gateway,
                registry_root,
                probe_rows={
                    name: sources[name].rows_for(0, max(10, 1))[0] for name in names
                },
            )

        runner = LoadRunner(
            gateway,
            tape,
            sources,
            n_clients=n_clients,
            sample_per_tick=sample_per_tick,
            sample_seed=seed,
            faults=faults,
            chaos_ops=chaos_ops,
            targets=targets,
        )
        result.load = runner.run()
        result.elapsed_s = time.perf_counter() - started

        # --- bitwise-verify the deterministic response sample --------------- #
        # Reference: the sampled row tiled to the canonical batch — every
        # micro-batch runs at that shape or at a size certified to answer
        # like it, so a healthy response must match it bit for bit.
        by_tick: Dict[int, List[Tuple[int, Tuple[float, float, float, Optional[int]]]]] = {}
        for (tick_index, row_index), response in result.load.samples.items():
            by_tick.setdefault(tick_index, []).append((row_index, response))
        tick_tenant = {
            tick.index: (tick.tenant, tick.chunk_key, tick.rows)
            for tick in tape.ticks()
            if tick.index in by_tick
        }
        for tick_index, sampled in by_tick.items():
            tenant, chunk_key, rows = tick_tenant[tick_index]
            chunk = sources[tenant].rows_for(chunk_key, rows)
            learner = learners[tenant]
            for row_index, (mu0, mu1, ite, version) in sampled:
                reference = learner.predict(
                    np.tile(chunk[row_index], (max_batch, 1))
                )
                exact = (
                    version == 0
                    and mu0 == float(reference.y0_hat[0])
                    and mu1 == float(reference.y1_hat[0])
                    and ite == float(reference.ite_hat[0])
                )
                if exact:
                    result.verified_samples += 1
                else:
                    result.mismatched_samples += 1

        result.report = build_slo_report(
            result.load,
            mode=mode,
            total_rows=result.tape_rows,
            verified_samples=result.verified_samples,
            mismatched_samples=result.mismatched_samples,
            gated=gated,
            gate_reason=gate_reason,
            tape_fingerprint=result.tape_fingerprint,
        )
        if out_path is not None:
            result.report_path = write_slo_report(result.report, out_path)
    return result
