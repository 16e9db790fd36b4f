"""Reverse-mode automatic differentiation over dense NumPy arrays.

This module is the lowest layer of the deep-learning substrate used by the
CERL reproduction.  It provides a :class:`Tensor` wrapper around
``numpy.ndarray`` with a dynamically built computation graph and reverse-mode
gradient propagation, in the spirit of the define-by-run frameworks the paper
relies on (PyTorch), but implemented from scratch on NumPy.

Only the operations required by CERL and its baselines are implemented:
matrix multiplication, broadcasting element-wise arithmetic, the usual
activations, reductions, slicing/concatenation, and a handful of composite
operations (cosine similarity, softmax, log-sum-exp) that are used by the
balancing and distillation losses.

Example
-------
>>> a = Tensor([[1.0, 2.0]], requires_grad=True)
>>> b = Tensor([[3.0], [4.0]], requires_grad=True)
>>> loss = (a @ b).sum()
>>> loss.backward()
>>> a.grad.tolist()
[[3.0, 4.0]]
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float], "Tensor"]

_FLOAT64 = np.dtype(np.float64)

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "concatenate", "stack"]


class _GradMode:
    """Process-wide switch controlling whether graphs are recorded."""

    enabled: bool = True


class no_grad:
    """Context manager and decorator that disables graph construction.

    Used for evaluation passes and for the envelope-style gradient of the
    Sinkhorn transport plan, where the plan itself must be treated as a
    constant with respect to the representation parameters.

    Usable three ways, all reentrant (a single instance can be entered from
    nested frames; each exit restores the mode that was active at the
    matching enter):

    >>> with no_grad():                    # context manager
    ...     model.forward(x)
    >>> @no_grad()                         # decorator
    ... def evaluate(model, x):
    ...     return model.forward(x)
    >>> @no_grad                           # bare decorator, same behaviour
    ... def predict(model, x):
    ...     return model.forward(x)
    """

    def __init__(self, func: Optional[Callable] = None) -> None:
        self._stack: list = []
        self._func = func
        if func is not None:
            functools.update_wrapper(self, func)

    def __enter__(self) -> "no_grad":
        self._stack.append(_GradMode.enabled)
        _GradMode.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _GradMode.enabled = self._stack.pop()

    def __call__(self, *args, **kwargs):
        if self._func is not None:
            # Instance built via the bare-decorator form: act as the wrapper.
            with no_grad():
                return self._func(*args, **kwargs)
        # Instance used as a decorator factory: wrap the target function.
        (func,) = args

        @functools.wraps(func)
        def wrapper(*wargs, **wkwargs):
            with no_grad():
                return func(*wargs, **wkwargs)

        return wrapper

    def __get__(self, obj, objtype=None):
        # Descriptor protocol so the bare form also works on instance
        # methods: attribute access binds the receiver like a function would.
        if obj is None:
            return self
        return functools.partial(self.__call__, obj)


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GradMode.enabled


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _released_backward(grad: np.ndarray) -> None:
    """Sentinel marking a node whose backward closure was released.

    Never called: :meth:`Tensor.backward` checks for it by identity and raises
    before invoking, turning a second pass through a freed subgraph into an
    explicit error instead of silently wrong gradients.
    """
    raise AssertionError("released backward sentinel must not be invoked")


def _reduction_axes(from_shape: tuple, to_shape: tuple) -> tuple:
    """Axes to sum over to reduce a broadcast result of ``from_shape`` back to ``to_shape``."""
    extra_dims = len(from_shape) - len(to_shape)
    return tuple(range(extra_dims)) + tuple(
        i + extra_dims
        for i, dim in enumerate(to_shape)
        if dim == 1 and from_shape[i + extra_dims] != 1
    )


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting.

    Broadcasting in the forward pass corresponds to summation in the backward
    pass over the broadcast axes.  The leading-axis and size-1-axis reductions
    are fused into a single ``sum`` call so one temporary is allocated instead
    of two.
    """
    if grad.shape == shape:
        return grad
    axes = _reduction_axes(grad.shape, shape)
    if axes:
        grad = grad.sum(axis=axes)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Stored as ``float64`` for numerical robustness of
        the small models used in the reproduction.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_topo", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = tuple(_parents) if is_grad_enabled() else ()
        self._backward = _backward if is_grad_enabled() else None
        self._topo: Optional[list] = None
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value; raises if the tensor is not size one."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-free deep copy of the tensor."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires and is_grad_enabled():
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`.

        ``owned=True`` signals that the caller allocated ``grad`` freshly and
        holds no other reference, so it can be adopted without the defensive
        copy and mutated in place by later accumulations.

        The hottest backward closures (add/sub/mul/matmul/relu/elu/sum)
        deliberately inline the owned-adoption branch of this method instead
        of calling it — the call overhead is measurable there.  A change to
        accumulation semantics must be mirrored in those closures.
        """
        if not self.requires_grad:
            return
        if grad.dtype is not _FLOAT64:
            grad = np.asarray(grad, dtype=np.float64)
            owned = True
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data
        # Broadcast decisions depend only on shapes, which are fixed at graph
        # construction: resolve them now instead of on every backward call.
        self_shape = self.data.shape
        other_shape = other_t.data.shape
        self_direct = self_shape == data.shape
        other_direct = other_shape == data.shape
        self_axes = None if self_direct else _reduction_axes(data.shape, self_shape)
        other_axes = None if other_direct else _reduction_axes(data.shape, other_shape)

        def backward(grad: np.ndarray) -> None:
            # Pass-through gradients are adopted without a defensive copy: the
            # incoming array is the child's grad, which the backward driver
            # drops right after this call, and at most one parent adopts it.
            adopted = False
            if self.requires_grad:
                if self_direct:
                    if self.grad is None:
                        self.grad = grad
                        adopted = True
                    else:
                        self.grad += grad
                else:
                    self._accumulate(grad.sum(axis=self_axes).reshape(self_shape), owned=True)
            if other_t.requires_grad:
                if other_direct:
                    if other_t.grad is None:
                        other_t.grad = grad.copy() if adopted else grad
                    else:
                        other_t.grad += grad
                else:
                    other_t._accumulate(grad.sum(axis=other_axes).reshape(other_shape), owned=True)

        return Tensor._make(data, (self, other_t), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, owned=True)

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data
        self_shape = self.data.shape
        other_shape = other_t.data.shape
        self_direct = self_shape == data.shape
        other_direct = other_shape == data.shape
        self_axes = None if self_direct else _reduction_axes(data.shape, self_shape)
        other_axes = None if other_direct else _reduction_axes(data.shape, other_shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if self_direct:
                    if self.grad is None:
                        self.grad = grad
                    else:
                        self.grad += grad
                else:
                    self._accumulate(grad.sum(axis=self_axes).reshape(self_shape), owned=True)
            if other_t.requires_grad:
                negated = -grad
                if not other_direct:
                    negated = negated.sum(axis=other_axes).reshape(other_shape)
                if other_t.grad is None:
                    other_t.grad = negated
                else:
                    other_t.grad += negated

        return Tensor._make(data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data
        self_shape = self.data.shape
        other_shape = other_t.data.shape
        self_direct = self_shape == data.shape
        other_direct = other_shape == data.shape
        self_axes = None if self_direct else _reduction_axes(data.shape, self_shape)
        other_axes = None if other_direct else _reduction_axes(data.shape, other_shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                local = grad * other_t.data
                if not self_direct:
                    local = local.sum(axis=self_axes).reshape(self_shape)
                if self.grad is None:
                    self.grad = local
                else:
                    self.grad += local
            if other_t.requires_grad:
                local = grad * self.data
                if not other_direct:
                    local = local.sum(axis=other_axes).reshape(other_shape)
                if other_t.grad is None:
                    other_t.grad = local
                else:
                    other_t.grad += local

        return Tensor._make(data, (self, other_t), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data
        self_shape = self.data.shape
        other_shape = other_t.data.shape
        self_direct = self_shape == data.shape
        other_direct = other_shape == data.shape
        self_axes = None if self_direct else _reduction_axes(data.shape, self_shape)
        other_axes = None if other_direct else _reduction_axes(data.shape, other_shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                local = grad / other_t.data
                if not self_direct:
                    local = local.sum(axis=self_axes).reshape(self_shape)
                self._accumulate(local, owned=True)
            if other_t.requires_grad:
                local = -grad * self.data / (other_t.data ** 2)
                if not other_direct:
                    local = local.sum(axis=other_axes).reshape(other_shape)
                other_t._accumulate(local, owned=True)

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                local = grad @ other_t.data.T
                if self.grad is None:
                    self.grad = local
                else:
                    self.grad += local
            if other_t.requires_grad:
                local = self.data.T @ grad
                if other_t.grad is None:
                    other_t.grad = local
                else:
                    other_t.grad += local

        return Tensor._make(data, (self, other_t), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self) -> "Tensor":
        data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        # Strictly increasing integer indices (the treated/control splits of
        # every IPM batch) cannot collide, so scatter-assignment replaces the
        # much slower buffered ``np.add.at``.  The scan only matters when a
        # backward closure will actually be kept.
        unique_rows = (
            self.requires_grad
            and isinstance(index, np.ndarray)
            and index.ndim == 1
            and index.dtype.kind in "iu"
            and (index.size <= 1 or bool(np.all(np.diff(index) > 0)))
        )

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if unique_rows:
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full, owned=True)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is None:
                # Full reduction: the seed gradient is a scalar, so the
                # broadcast-copy collapses to a constant fill.
                local = np.empty(self.data.shape)
                local.fill(grad.item())
            else:
                if not keepdims:
                    grad = np.expand_dims(grad, axis)
                local = np.broadcast_to(grad, self.data.shape).copy()
            if self.grad is None:
                self.grad = local
            else:
                self.grad += local

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            if axis is not None and not keepdims:
                expanded = np.expand_dims(data, axis)
                grad = np.expand_dims(grad, axis)
            else:
                expanded = data
            mask = (self.data == expanded).astype(np.float64)
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * grad, owned=True)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # element-wise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data, owned=True)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, owned=True)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(data, 1e-12), owned=True)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data), owned=True)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            local = grad * (self.data > 0.0)
            if self.grad is None:
                self.grad = local
            else:
                self.grad += local

        return Tensor._make(data, (self,), backward)

    def elu(self, alpha: float = 1.0) -> "Tensor":
        data = np.where(self.data > 0.0, self.data, alpha * (np.exp(self.data) - 1.0))

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            local = grad * np.where(self.data > 0.0, 1.0, alpha * np.exp(self.data))
            if self.grad is None:
                self.grad = local
            else:
                self.grad += local

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data ** 2), owned=True)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data), owned=True)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            inside = (self.data >= low) & (self.data <= high)
            self._accumulate(grad * inside, owned=True)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # composite operations used by CERL losses
    # ------------------------------------------------------------------ #
    def norm(self, axis: Optional[int] = None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """Euclidean norm along ``axis`` with an epsilon guard at zero."""
        squared = (self * self).sum(axis=axis, keepdims=keepdims)
        return (squared + eps).sqrt()

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        exps = shifted.exp()
        return exps / exps.sum(axis=axis, keepdims=True)

    def logsumexp(self, axis: int = -1, keepdims: bool = False) -> "Tensor":
        max_const = Tensor(self.data.max(axis=axis, keepdims=True))
        shifted = self - max_const
        result = shifted.exp().sum(axis=axis, keepdims=True).log() + max_const
        if not keepdims:
            result = Tensor._squeeze(result, axis)
        return result

    @staticmethod
    def _squeeze(tensor: "Tensor", axis: int) -> "Tensor":
        shape = list(tensor.shape)
        axis = axis % len(shape)
        del shape[axis]
        return tensor.reshape(tuple(shape))

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def _build_topo(self) -> list:
        """Topologically order the graph rooted at this tensor (leaves first).

        Iterative two-phase depth-first search producing exactly the
        left-to-right post-order a recursive traversal would; the ordering is
        cached on the root by :meth:`backward` when ``retain_graph`` is set.
        """
        topo: list = []
        visited: set = set()
        # Two-phase DFS without per-entry tuples: a ``None`` marker on the
        # main stack means "emit the top of the pending stack".
        stack: list = [self]
        pending: list = []
        push = stack.append
        push_pending = pending.append
        pop_pending = pending.pop
        emit = topo.append
        add_visited = visited.add
        while stack:
            node = stack.pop()
            if node is None:
                emit(pop_pending())
                continue
            node_id = id(node)
            if node_id in visited:
                continue
            add_visited(node_id)
            parents = node._parents
            if not parents:
                # Leaf: its post-visit would fire immediately anyway.
                emit(node)
                continue
            push_pending(node)
            push(None)
            # Constant parents cannot have differentiable ancestors
            # (requires_grad propagates forward), so whole non-grad subgraphs
            # are pruned here; they would only ever be no-ops in the pass.
            if len(parents) == 1:
                parent = parents[0]
                if parent.requires_grad and id(parent) not in visited:
                    push(parent)
            else:
                for parent in reversed(parents):
                    if parent.requires_grad and id(parent) not in visited:
                        push(parent)
        return topo

    def backward(self, grad: Optional[ArrayLike] = None, retain_graph: bool = False) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1.0`` for scalar tensors; required
            for non-scalar outputs.
        retain_graph:
            By default the pass releases the graph as it goes: intermediate
            gradients are dropped as soon as they have been propagated, and
            every node's parent/backward references are cleared afterwards so
            the whole graph is freed without waiting for the root to go out of
            scope.  Pass ``True`` to keep the graph (and the cached
            topological ordering) alive for another :meth:`backward` call.
            Backpropagating a second time through a released subgraph raises
            instead of silently producing wrong gradients.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)

        topo = self._topo if self._topo is not None else self._build_topo()
        self._topo = topo if retain_graph else None

        self._accumulate(grad)
        release = not retain_graph
        for node in reversed(topo):
            backward_fn = node._backward
            if backward_fn is not None:
                if backward_fn is _released_backward:
                    raise RuntimeError(
                        "backward through a released graph: this part of the graph "
                        "was already backpropagated and freed; call "
                        "backward(retain_graph=True) on the first pass to reuse it"
                    )
                node_grad = node.grad
                if node_grad is not None:
                    backward_fn(node_grad)
                    # Interior gradients are never read back by callers; drop
                    # them as soon as they have been propagated.
                    node.grad = None
                if release:
                    node._backward = _released_backward
                    node._parents = ()


# ---------------------------------------------------------------------- #
# free functions
# ---------------------------------------------------------------------- #
def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing to each input."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concatenate() requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not tensor.requires_grad:
                continue
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing to each input."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("stack() requires at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tensors, backward)
