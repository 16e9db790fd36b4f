"""Inputs and fixture models.

The causal mechanism and the domain distributions are fixed by
``MECHANISM_SEED`` (they define the workloads).  ``--seed`` draws the inputs
only: the training samples and splits, the query traffic and the drift
ticks.  Program settings -- model initialisation seeds, detector and
controller seeds -- are constants, and the served lineages are a fixed
fixture, so the program receives nothing but the generated inputs.
Everything runs at the QUICK profile's model shapes.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator

import numpy as np

from repro.core.cerl import CERL
from repro.data.streams import ChunkedPopulation, DomainStream
from repro.data.synthetic import SyntheticDomainGenerator
from repro.experiments.profiles import QUICK
from repro.serve import ModelRegistry

__all__ = [
    "FULL",
    "LINEAGE_VERSIONS",
    "MECHANISM_SEED",
    "SERVED_STREAMS",
    "Scale",
    "TINY",
    "domain_stream",
    "generator",
    "make_cerl",
    "query_rows",
    "row_pools",
    "scratch_registry",
    "train_lineages",
]

#: Seed of the structural functions and per-domain covariate distributions.
MECHANISM_SEED = 2023

#: The four served streams: one per in-process shard, two per fleet worker.
SERVED_STREAMS = ("tenant-a", "tenant-b", "tenant-c", "tenant-e")

#: Where temporary registries live: inside the checkout, removed after use.
WORK_DIR = Path(__file__).resolve().parent / ".work"


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload (``FULL`` for measurement, ``TINY`` for tests)."""

    units: int  # units per train_stream domain (60% train, 20% val, 20% test)
    stream_epochs: int  # epochs of each train_stream fit and of the served lineages
    epochs: int  # epochs of the adapt workload's fits
    domains: int  # domains per train_stream pass; the first is fitted in set-up
    passes: int  # train_stream passes whose quality is reported
    fixture_units: int  # units per domain of each served stream's lineage
    setup_repeats: int  # serve_inproc set-ups per run (their mean is reported)
    warm_queries: int  # sequential warm-up queries per stream in each set-up
    slow_setup_repeats: int  # serve_fleet spawns and adapt set-ups per run
    open_rate: float  # open-loop offered load, queries per second
    window: int  # closed-loop in-flight queries per load thread
    closed_queries: int  # closed-loop plan per load thread, each query sent once
    hot_rows: int  # hot rows per served stream (in-process workload only)
    adapt_units: int  # units of the adapt workload's base domain
    rows_per_tick: int  # adapt stream queries per tick
    bystander_rate: float  # bystander open-loop load, queries per second
    min_cycles: int  # drift/adapt cycles run at least


FULL = Scale(
    units=2000,
    stream_epochs=10,
    epochs=20,
    domains=4,
    passes=2,
    fixture_units=1000,
    setup_repeats=9,
    warm_queries=32,
    slow_setup_repeats=3,
    open_rate=300.0,
    window=128,
    closed_queries=120_000,
    hot_rows=16,
    adapt_units=1000,
    rows_per_tick=200,
    bystander_rate=200.0,
    min_cycles=3,
)

TINY = Scale(
    units=200,
    stream_epochs=4,
    epochs=4,
    domains=3,
    passes=1,
    fixture_units=200,
    setup_repeats=2,
    warm_queries=2,
    slow_setup_repeats=1,
    open_rate=200.0,
    window=16,
    closed_queries=2_000,
    hot_rows=4,
    adapt_units=200,
    rows_per_tick=40,
    bystander_rate=100.0,
    min_cycles=1,
)


def generator() -> SyntheticDomainGenerator:
    """The benchmark's synthetic domain generator (QUICK covariate blocks)."""
    return SyntheticDomainGenerator(QUICK.synthetic_config(), seed=MECHANISM_SEED)


def domain_stream(seed: int, key: int, n_domains: int, units: int) -> DomainStream:
    """``n_domains`` consecutive domains drawn for ``(seed, key)``."""
    gen = generator()
    repetition = 1 + 1000 * seed + key
    datasets = [
        gen.generate_domain(d, n_units=units, repetition=repetition)
        for d in range(n_domains)
    ]
    return DomainStream(datasets, seed=seed * 7919 + key)


def make_cerl(n_features: int, model_seed: int, epochs: int) -> CERL:
    """CERL at QUICK shapes: eager backend, Sinkhorn IPM, herding memory.

    Early stopping is off so every fit runs exactly ``epochs`` epochs and a
    stage is the same amount of work on every seed.
    """
    return CERL(
        n_features,
        QUICK.model_config(seed=model_seed, epochs=epochs, early_stopping_patience=0),
        QUICK.continual_config(memory_budget=QUICK.memory_budget_table1),
    )


@contextmanager
def scratch_registry() -> Iterator[ModelRegistry]:
    """A temporary :class:`ModelRegistry` inside the checkout."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="registry-", dir=WORK_DIR) as root:
        yield ModelRegistry(root)


#: Versions of each served lineage; the head (the last) is served.
LINEAGE_VERSIONS = (0, 1, 2)


def train_lineages(registry: ModelRegistry, scale: Scale) -> None:
    """Train and register one version per domain for every served stream.

    The lineages do not depend on the run seed: they are the deployed models,
    and the seed only draws the traffic they serve.
    """
    for index, name in enumerate(SERVED_STREAMS):
        stream = domain_stream(0, 100 + index, len(LINEAGE_VERSIONS), scale.fixture_units)
        learner = make_cerl(stream.n_features, index, scale.stream_epochs)
        learner.observe(stream.train_data(0), val_dataset=stream.val_data(0))
        registry.save(name, 0, learner)
        for version in LINEAGE_VERSIONS[1:]:
            learner.observe(stream.train_data(version), val_dataset=stream.val_data(version))
            registry.save(name, version, learner)


def query_rows(seed: int, stream: str, n_rows: int, key: int):
    """Labelled query rows of one served stream, from its served (latest) domain.

    Rows are chunk ``key`` (0-9) of a :class:`ChunkedPopulation` per stream,
    so the traffic is a fresh draw from the distribution the served version
    was trained on, and distinct keys give distinct rows.
    """
    gen = generator()
    served_domain = LINEAGE_VERSIONS[-1]
    base = 1 + 1000 * seed + 500 + 10 * SERVED_STREAMS.index(stream)

    def chunk(chunk_key: int, rows: int):
        return gen.generate_domain(served_domain, n_units=rows, repetition=base + chunk_key)

    return ChunkedPopulation(chunk, name=stream).chunk(key, n_rows)


def row_pools(seed: int, n_rows: int, key: int) -> Dict[str, "object"]:
    """``n_rows`` labelled query rows of every served stream (chunk ``key``)."""
    return {name: query_rows(seed, name, n_rows, key) for name in SERVED_STREAMS}


def as_rows(dataset) -> np.ndarray:
    """C-contiguous float64 covariate rows of a labelled chunk."""
    return np.ascontiguousarray(dataset.covariates, dtype=np.float64)
