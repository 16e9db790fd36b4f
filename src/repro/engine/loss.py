"""Composable loss bundles for the training engine.

Every learner in the reproduction minimises a weighted sum of named scalar
terms — Eq. (5) for the baseline (factual + IPM + elastic net) and Eq. (9)
for the continual stages (plus distillation and transformation alignment).
:class:`LossBundle` captures that structure once: learners add their terms in
objective order and the engine takes care of weighting, summation and
component bookkeeping.

The total is built left-associatively in insertion order and terms with
weight exactly ``1.0`` are added without a multiplication node, so the
resulting computation graph — and therefore the training trajectory — is
bit-for-bit identical to the hand-written ``factual + alpha * ipm + ...``
expressions the learners used before the engine existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..nn import Tensor

__all__ = ["LossBundle", "LossResult", "TraceableLoss"]


@dataclass
class LossResult:
    """One evaluated loss: the differentiable total plus per-term floats."""

    total: Tensor
    components: Dict[str, float]


class LossBundle:
    """Weighted sum of named scalar loss terms.

    Example
    -------
    >>> bundle = LossBundle()
    >>> bundle.add("factual", factual_loss)
    >>> bundle.add("ipm", imbalance, weight=config.alpha)
    >>> bundle.add("regularization", elastic_net, weight=config.lambda_reg)
    >>> result = bundle.result()
    >>> result.total.backward()
    >>> result.components["ipm"]  # raw (unweighted) term value
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._values: List[Tensor] = []
        self._weights: List[float] = []

    def add(self, name: str, value: Tensor, weight: float = 1.0) -> "LossBundle":
        """Append a named term; ``weight`` scales it in the total only."""
        if name in self._names:
            raise ValueError(f"duplicate loss term '{name}'")
        self._names.append(name)
        self._values.append(value)
        self._weights.append(float(weight))
        return self

    def __len__(self) -> int:
        return len(self._names)

    def total(self) -> Tensor:
        """Weighted sum of all terms, left-associated in insertion order."""
        if not self._names:
            raise ValueError("LossBundle has no terms")
        total: Optional[Tensor] = None
        for value, weight in zip(self._values, self._weights):
            term = value if weight == 1.0 else weight * value
            total = term if total is None else total + term
        return total

    def components(self) -> Dict[str, float]:
        """Raw (unweighted) scalar value of every term, keyed by name."""
        return {name: float(value.item()) for name, value in zip(self._names, self._values)}

    def result(self) -> LossResult:
        """Evaluate the bundle into a :class:`LossResult`."""
        components = self.components()
        total = self.total()
        components["total"] = float(total.item())
        return LossResult(total=total, components=components)


class TraceableLoss:
    """Retired marker class; no learner builds one.

    Learners hand :meth:`repro.engine.Trainer.fit` a plain
    ``batch_loss(batch) -> LossResult`` closure.  The name stays importable
    only because the benchmark's span tracer (``perfbench/tracing.py``)
    imports it and checks ``isinstance(batch_loss, TraceableLoss)`` before
    reading ``Trainer.backend``, an attribute the single eager training path
    no longer has; since nothing constructs this class, that branch never
    runs.
    """
