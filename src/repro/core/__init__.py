"""Core causal-effect learners: baseline model, CFR strategies, CERL, meta-learners.

The estimator surface (protocol, registry, factory) lives in
:mod:`repro.core.api`; the meta-learner zoo in :mod:`repro.core.learners`.
"""

from .config import ContinualConfig, ModelConfig
from .evaluation import evaluate_datasets
from .representation import RepresentationNetwork
from .outcome import OutcomeHeads
from .transform import FeatureTransform
from .baseline import BaselineCausalModel, EarlyStopping, TrainingHistory
from .cerl import CERL
from .api import (
    ESTIMATORS,
    ContinualEstimator,
    EstimatorRegistry,
    EstimatorSpec,
    estimator_names,
    estimator_specs,
    make_estimator,
)
from .strategies import CFRStrategyA, CFRStrategyB, CFRStrategyC
from .learners import RLearner, SLearner, TLearner, XLearner
from .classic import LogisticPropensityModel, RidgeTLearner, ipw_ate, naive_ate
from .persistence import (
    load_cerl,
    load_estimator,
    load_modules,
    module_checkpointer,
    save_cerl,
    save_estimator,
    save_modules,
)

__all__ = [
    "LogisticPropensityModel",
    "RidgeTLearner",
    "ipw_ate",
    "naive_ate",
    "save_cerl",
    "load_cerl",
    "save_estimator",
    "load_estimator",
    "save_modules",
    "load_modules",
    "module_checkpointer",
    "ModelConfig",
    "ContinualConfig",
    "evaluate_datasets",
    "RepresentationNetwork",
    "OutcomeHeads",
    "FeatureTransform",
    "BaselineCausalModel",
    "EarlyStopping",
    "TrainingHistory",
    "CERL",
    "ESTIMATORS",
    "EstimatorRegistry",
    "EstimatorSpec",
    "estimator_names",
    "estimator_specs",
    "make_estimator",
    "CFRStrategyA",
    "CFRStrategyB",
    "CFRStrategyC",
    "ContinualEstimator",
    "SLearner",
    "TLearner",
    "XLearner",
    "RLearner",
]
