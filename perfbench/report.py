"""Run one workload and report it: run record, metrics, parts and result line.

With ``trace=False`` one untraced pass yields every end-to-end metric.  With
``trace=True`` an untraced pass is followed by a traced pass; the result
carries every per-layer metric, the workload's traced headline, what the
parts leave unattributed, and the tracing overhead (traced headline over
untraced headline, minus one).
"""

from __future__ import annotations

import json
import math
import os
import platform
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import THREAD_ENV
from .fixtures import FULL, Scale
from .tracing import Tracer
from .workloads import WORKLOADS, Outcome

__all__ = ["END_TO_END", "PER_LAYER", "run"]

#: (name, unit) of every end-to-end metric; each workload reports all of them.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("sqrt_pehe", "outcome"),
    ("throughput_qps", "q/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("detect_ticks", "ticks"),
    ("peak_rss_mb", "MB"),
)

#: Figures printed by the workload that defines them (``stage_s`` by
#: ``train_stream``, ``adapt_s`` by ``adapt``) but left out of the result:
#: the run contract asks every workload for every end-to-end metric.  Stage
#: time stays bounded as ``train_stream``'s stage latency percentiles.
UNBOUNDED: Tuple[Tuple[str, str], ...] = (("stage_s", "s"), ("adapt_s", "s"))

#: Unit of each workload's traced headline (the figure its parts add up to).
HEADLINE_UNIT = {
    "train_stream": "s",  # mean continual stage
    "serve_inproc": "us",  # mean open-loop latency
    "serve_fleet": "us",
    "adapt": "s",  # mean detect-to-rearmed time
}

#: (name, unit) of every per-layer metric; a traced run reports all of them,
#: with 0 for layers its workload does not exercise.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("engine.steps", "count"),
    ("engine.forward_s", "s"),
    ("balance.ipm_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.optimizer_s", "s"),
    ("engine.validation_s", "s"),
    ("memory.herding_s", "s"),
    ("core.evaluate_s", "s"),
    ("loadgen.late_us", "us"),
    ("gateway.submit_us", "us"),
    ("gateway.cache_hit_ratio", "ratio"),
    ("gateway.shed", "count"),
    ("service.mean_batch", "rows"),
    ("service.useful_row_ratio", "ratio"),
    ("service.wait_us", "us"),
    ("core.predict_us", "us"),
    ("service.scatter_us", "us"),
    ("frontdoor.submit_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("worker.mean_batch", "rows"),
    ("worker.useful_row_ratio", "ratio"),
    ("fleet.remote_us", "us"),
    ("fleet.spawn_s", "s"),
    ("monitor.score_us", "us"),
    ("monitor.calibrate_s", "s"),
    ("adapt.labeler_s", "s"),
    ("adapt.retrain_s", "s"),
    ("adapt.gate_s", "s"),
    ("adapt.traffic_s", "s"),
    ("registry.save_ms", "ms"),
    ("registry.load_ms", "ms"),
    ("service.reload_ms", "ms"),
) + tuple(
    entry
    for workload, unit in HEADLINE_UNIT.items()
    for entry in (
        (f"{workload}.traced_headline", unit),
        (f"{workload}.unattributed", unit),
        (f"{workload}.trace_overhead", "ratio"),
    )
)

#: Largest share of the traced headline the parts may leave unattributed.
ATTRIBUTION_TOLERANCE = 0.10


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Machine, BLAS build, thread environment, versions and inputs of a run."""
    blas: Dict[str, object] = {}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {
            "name": config.get("name"),
            "version": config.get("version"),
            "configuration": config.get("openblas configuration"),
        }
    except (TypeError, KeyError):  # older NumPy: no dict mode
        blas = {"name": "unknown"}
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(affinity) if affinity is not None else os.cpu_count(),
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _entry(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value) if _finite(value) else 0.0, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: Scale = FULL, inject_wrong: bool = False,
        lines: Optional[List[str]] = None) -> Dict[str, object]:
    """Run ``workload`` and return the result object (also printable lines).

    ``lines`` collects the human-readable report; the caller prints it
    before the result line.
    """
    lines = lines if lines is not None else []
    lines.append("record: " + json.dumps(run_record(workload, seed, seconds, trace)))
    fn = WORKLOADS[workload]
    untraced: Outcome = fn(seed, seconds, scale, inject_wrong=inject_wrong)
    passes = [untraced]
    lines += untraced.notes
    for name, unit in END_TO_END:
        lines.append(f"  {name} = {untraced.metrics[name]:.6g} {unit}")
    for name, unit in UNBOUNDED:
        if name in untraced.metrics:
            lines.append(f"  {name} (unbounded): {untraced.metrics[name]:.6g} {unit}")
    metrics_ok = all(_finite(untraced.metrics[name]) for name, _ in END_TO_END)
    if not trace:
        metrics = {name: _entry(untraced.metrics[name], unit) for name, unit in END_TO_END}
    else:
        traced = fn(seed, seconds, scale, tracer=Tracer(), inject_wrong=inject_wrong)
        passes.append(traced)
        lines += ["traced pass:"] + traced.notes
        values = {name: 0.0 for name, _ in PER_LAYER}
        values.update(traced.layers)
        unattributed = traced.headline - sum(traced.parts.values())
        values[f"{workload}.traced_headline"] = traced.headline
        values[f"{workload}.unattributed"] = unattributed
        values[f"{workload}.trace_overhead"] = traced.headline / untraced.headline - 1.0
        unit = HEADLINE_UNIT[workload]
        lines.append(f"  parts of the traced headline ({traced.headline:.6g} {unit}):")
        for name, value in traced.parts.items():
            lines.append(f"    {name:<24} {value:12.6g} {unit}")
        attributed = abs(unattributed) <= ATTRIBUTION_TOLERANCE * abs(traced.headline)
        lines.append(
            f"    {'unattributed':<24} {unattributed:12.6g} {unit} "
            f"({'within' if attributed else 'OUTSIDE'} {ATTRIBUTION_TOLERANCE:.0%})"
        )
        for name, layer_unit in PER_LAYER:
            lines.append(f"  {name} = {values[name]:.6g} {layer_unit}")
        metrics = {name: _entry(values[name], layer_unit) for name, layer_unit in PER_LAYER}
    mismatches = sum(p.mismatches for p in passes)
    return {
        "correct": bool(mismatches == 0 and metrics_ok),
        "attempted": max(1, sum(p.attempted for p in passes)),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
