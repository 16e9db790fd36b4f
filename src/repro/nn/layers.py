"""Layers for the NumPy neural-network substrate.

Includes the standard dense layer plus the :class:`CosineNormLinear` layer
that implements the cosine normalisation of Eq. (2) in the CERL paper: the
pre-activation is the cosine similarity between the incoming weight vector and
the input vector, which bounds it to ``[-1, 1]`` and controls the variance of
the representation regardless of covariate magnitude differences between
domains and treatment arms.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "CosineNormLinear",
    "ReLU",
    "ELU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Dropout",
    "Sequential",
    "MLP",
    "make_activation",
]


class Linear(Module):
    """Fully connected layer ``y = x W + b``.

    Parameters
    ----------
    in_features:
        Input dimensionality.
    out_features:
        Output dimensionality.
    bias:
        Whether to add a learnable bias.
    rng:
        NumPy random generator used for weight initialisation; a default
        generator is created when omitted (useful for ad-hoc tests).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, in_features, out_features), name="weight")
        self.use_bias = bias
        if bias:
            self.bias = Parameter(init.zeros((out_features,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.use_bias:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = self.workspace().get("out", (x.shape[0], self.out_features))
        np.matmul(x, self.weight.data, out=out)
        if self.use_bias:
            np.add(out, self.bias.data, out=out)
        return out


class CosineNormLinear(Module):
    """Cosine-normalised dense layer (Eq. 2 of the paper).

    Instead of the unbounded dot product ``w · x``, the pre-activation is
    ``cos(w, x) = (w · x) / (|w| |x|)``, computed per output unit.  The output
    is therefore bounded in ``[-1, 1]`` before the activation, which removes
    the dependence on covariate magnitudes that differ between treatment and
    control groups and between data domains.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        eps: float = 1e-8,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("CosineNormLinear dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.eps = eps
        self.weight = Parameter(init.xavier_normal(rng, in_features, out_features), name="weight")

    def forward(self, x: Tensor) -> Tensor:
        # Row norms of the input and column norms of the weights.
        x_norm = x.norm(axis=1, keepdims=True, eps=self.eps)
        w_norm = self.weight.norm(axis=0, keepdims=True, eps=self.eps)
        dot = x @ self.weight
        return dot / (x_norm @ w_norm)

    def infer(self, x: np.ndarray) -> np.ndarray:
        # Mirrors forward() operation by operation so the two paths are
        # bitwise identical; every array below is a reused workspace buffer.
        ws = self.workspace()
        n = x.shape[0]
        weight = self.weight.data

        sq = ws.get("sq", x.shape)
        np.multiply(x, x, out=sq)
        x_norm = ws.get("x_norm", (n, 1))
        np.sum(sq, axis=1, keepdims=True, out=x_norm)
        x_norm += self.eps
        np.sqrt(x_norm, out=x_norm)

        wsq = ws.get("wsq", weight.shape)
        np.multiply(weight, weight, out=wsq)
        w_norm = ws.get("w_norm", (1, self.out_features))
        np.sum(wsq, axis=0, keepdims=True, out=w_norm)
        w_norm += self.eps
        np.sqrt(w_norm, out=w_norm)

        dot = ws.get("dot", (n, self.out_features))
        np.matmul(x, weight, out=dot)
        denom = ws.get("denom", (n, self.out_features))
        # Outer product as a broadcast multiply: each element is the single
        # multiplication x_norm[i] * w_norm[j], bitwise equal to the
        # (n, 1) @ (1, k) matmul of the Tensor path and cheaper to dispatch.
        np.multiply(x_norm, w_norm, out=denom)
        np.divide(dot, denom, out=dot)
        return dot


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = self.workspace().get("out", x.shape)
        return np.maximum(x, 0.0, out=out)


class ELU(Module):
    """Exponential linear unit activation."""

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        self.alpha = alpha

    def forward(self, x: Tensor) -> Tensor:
        return x.elu(self.alpha)

    def infer(self, x: np.ndarray) -> np.ndarray:
        # Select-free ELU: max(x, 0) + alpha * (exp(min(x, 0)) - 1).
        # On the negative side min() is the identity, so the added term is
        # exactly the alpha * (exp(x) - 1) the Tensor path computes and the
        # max() contributes +0; on the positive side the term is exactly
        # alpha * (exp(0) - 1) = +0 and x + 0.0 == x.  Bitwise equal to the
        # np.where expression for every input (including ±inf, NaN, ±0 and
        # denormals — pinned by tests) while avoiding the masked-select pass,
        # which costs ~5x more than these fused element-wise ops.
        ws = self.workspace()
        negative = ws.get("negative", x.shape)
        np.minimum(x, 0.0, out=negative)
        np.exp(negative, out=negative)
        np.subtract(negative, 1.0, out=negative)
        if self.alpha != 1.0:
            # Multiplying by exactly 1.0 is a bitwise no-op; skip the pass.
            np.multiply(negative, self.alpha, out=negative)
        out = ws.get("out", x.shape)
        np.maximum(x, 0.0, out=out)
        np.add(out, negative, out=out)
        return out


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = self.workspace().get("out", x.shape)
        return np.tanh(x, out=out)


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def infer(self, x: np.ndarray) -> np.ndarray:
        # 1 / (1 + exp(-x)), the exact expression of Tensor.sigmoid.
        out = self.workspace().get("out", x.shape)
        np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
        return out


class Identity(Module):
    """Pass-through module (used as a no-op activation)."""

    def forward(self, x: Tensor) -> Tensor:
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(np.float64) / keep
        return x * Tensor(mask)

    def infer(self, x: np.ndarray) -> np.ndarray:
        # ``infer`` always has eval semantics, even when the module was left
        # in training mode: a prediction path must neither inject masking
        # noise nor consume the RNG stream (which would silently perturb the
        # next training minibatch drawn from the same generator).
        return x


def make_activation(name: str) -> Module:
    """Build an activation module from its name (``relu``/``elu``/``tanh``/...)."""
    registry: dict[str, Callable[[], Module]] = {
        "relu": ReLU,
        "elu": ELU,
        "tanh": Tanh,
        "sigmoid": Sigmoid,
        "identity": Identity,
        "linear": Identity,
    }
    key = name.lower()
    if key not in registry:
        raise ValueError(f"unknown activation '{name}'; valid: {sorted(registry)}")
    return registry[key]()


class Sequential(Module):
    """Container applying child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for index, layer in enumerate(layers):
            self.register_module(f"layer{index}", layer)
            self._layers.append(layer)

    def append(self, layer: Module) -> "Sequential":
        """Append a layer to the end of the container."""
        self.register_module(f"layer{len(self._layers)}", layer)
        self._layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self):
        return iter(self._layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        for layer in self._layers:
            x = layer.infer(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes and activation.

    Parameters
    ----------
    in_features:
        Input dimensionality.
    hidden_sizes:
        Sizes of the hidden layers, in order.
    out_features:
        Output dimensionality.
    activation:
        Name of the hidden activation (see :func:`make_activation`).
    output_activation:
        Name of the activation applied to the final layer output.
    cosine_output:
        If ``True`` the final layer is a :class:`CosineNormLinear` layer
        (used by the CERL representation network, Eq. 2).
    dropout:
        Dropout probability applied after each hidden activation.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        out_features: int,
        activation: str = "elu",
        output_activation: str = "identity",
        cosine_output: bool = False,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        layers: List[Module] = []
        previous = in_features
        for width in hidden_sizes:
            layers.append(Linear(previous, width, rng=rng))
            layers.append(make_activation(activation))
            if dropout > 0.0:
                layers.append(Dropout(dropout, rng=rng))
            previous = width
        if cosine_output:
            layers.append(CosineNormLinear(previous, out_features, rng=rng))
        else:
            layers.append(Linear(previous, out_features, rng=rng))
        layers.append(make_activation(output_activation))
        self.body = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self.body.infer(x)
