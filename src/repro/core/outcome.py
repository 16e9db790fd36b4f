"""Two-headed potential-outcome network ``h_theta : R x T -> Y`` (Sec. III-A.1).

To avoid losing the influence of the treatment on the representation, the
outcome function is partitioned into two separate regression heads — one for
the treatment group and one for the control group — and each unit only
contributes to the head of its observed treatment.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..nn import MLP, Module, Tensor, no_grad

__all__ = ["OutcomeHeads"]


class OutcomeHeads(Module):
    """Pair of MLP regression heads over the representation space.

    Parameters
    ----------
    representation_dim:
        Dimensionality of the representation space ``R``.
    hidden_sizes:
        Hidden widths of each head.
    """

    def __init__(
        self,
        representation_dim: int,
        hidden_sizes: Sequence[int] = (32,),
        activation: str = "elu",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.representation_dim = representation_dim
        self.control_head = MLP(
            in_features=representation_dim,
            hidden_sizes=hidden_sizes,
            out_features=1,
            activation=activation,
            rng=rng,
        )
        self.treated_head = MLP(
            in_features=representation_dim,
            hidden_sizes=hidden_sizes,
            out_features=1,
            activation=activation,
            rng=rng,
        )

    # ------------------------------------------------------------------ #
    # forward passes
    # ------------------------------------------------------------------ #
    def forward(self, representations: Tensor, treatment: int) -> Tensor:
        """Predict outcomes for a batch that all received the same treatment."""
        head = self.treated_head if treatment == 1 else self.control_head
        return head(representations).reshape(-1)

    def factual(self, representations: Tensor, treatments: np.ndarray) -> Tensor:
        """Predict each unit's outcome under its observed treatment.

        Both heads are evaluated and the relevant one is selected per unit via
        a differentiable mask, so gradients flow only into the head matching
        each unit's observed treatment.
        """
        treatments = np.asarray(treatments).ravel()
        mask = Tensor(treatments.astype(np.float64))
        y1 = self.treated_head(representations).reshape(-1)
        y0 = self.control_head(representations).reshape(-1)
        return mask * y1 + (1.0 - mask) * y0

    def potential_outcomes(self, representations: Tensor) -> tuple:
        """Return ``(y0_hat, y1_hat)`` NumPy arrays without recording gradients."""
        with no_grad():
            y0 = self.control_head(representations).reshape(-1)
            y1 = self.treated_head(representations).reshape(-1)
        return y0.numpy().copy(), y1.numpy().copy()

    # ------------------------------------------------------------------ #
    # inference fast path (raw ndarrays, no graph, workspace-backed heads)
    # ------------------------------------------------------------------ #
    def infer_potential_outcomes(self, representations: np.ndarray) -> tuple:
        """Fast-path :meth:`potential_outcomes` on a raw representation array."""
        y0 = self.control_head.infer(representations).ravel().copy()
        y1 = self.treated_head.infer(representations).ravel().copy()
        return y0, y1

    def infer_factual(self, representations: np.ndarray, treatments: np.ndarray) -> np.ndarray:
        """Fast-path :meth:`factual`: same mask expression on raw ndarrays."""
        mask = np.asarray(treatments).ravel().astype(np.float64)
        y1 = self.treated_head.infer(representations).ravel()
        y0 = self.control_head.infer(representations).ravel()
        return mask * y1 + (1.0 - mask) * y0
