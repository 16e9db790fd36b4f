"""CERL reproduction: continual causal effect estimation from incremental observational data.

Public API highlights
---------------------
* :class:`repro.core.CERL` — the continual causal-effect learner (the paper's contribution).
* :class:`repro.core.BaselineCausalModel` — the CFR-style selective & balanced learner.
* :func:`repro.core.make_estimator` — build any registered estimator by name
  (CFR-A/B/C, CERL, and the S/T/X/R meta-learner zoo).
* :mod:`repro.data` — News, BlogCatalog and synthetic multi-domain benchmarks
  (including the drift scenario generators).
* :mod:`repro.experiments` — drivers that regenerate the paper's tables and figures.
* :mod:`repro.serve` — versioned model registry + micro-batched prediction service.
* :mod:`repro.monitor` — drift monitoring and automatic continual adaptation.
"""

from .core import (
    CERL,
    BaselineCausalModel,
    ContinualConfig,
    ModelConfig,
    estimator_names,
    make_estimator,
)
from .data import (
    CausalDataset,
    DomainStream,
    NewsBenchmark,
    BlogCatalogBenchmark,
    SyntheticDomainGenerator,
)
from .metrics import EffectEstimate, ate_error, sqrt_pehe

__version__ = "1.0.0"

__all__ = [
    "CERL",
    "BaselineCausalModel",
    "ContinualConfig",
    "ModelConfig",
    "estimator_names",
    "make_estimator",
    "CausalDataset",
    "DomainStream",
    "NewsBenchmark",
    "BlogCatalogBenchmark",
    "SyntheticDomainGenerator",
    "EffectEstimate",
    "ate_error",
    "sqrt_pehe",
    "__version__",
]
