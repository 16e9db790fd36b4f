"""Kernels for the tape-replay training backend (see :mod:`repro.nn.tape`).

Each class here is one recorded operation of a traced loss evaluation.  An op
owns preallocated output/scratch buffers and exposes:

* ``run()`` — recompute the forward value into the output node's buffer;
* ``backward()`` — write local gradients into the parents' grad buffers.

Bit-identity contract
---------------------
Every kernel evaluates the *exact* NumPy expression sequence of the matching
``Tensor`` closure in :mod:`repro.nn.tensor` (same ufuncs, same operand
order), so a replayed step produces gradients bitwise identical to the eager
backward.  Accumulation follows the eager pass too: the eager closures
*adopt* the first local gradient a node receives and add every later one, and
the tape does the same.  Which write comes first is fixed by the graph, so
:class:`repro.nn.tape.Tape` works it out once at compile time and stores it
per parent slot in each op's ``first`` flags.  A first write goes straight
into the parent's grad buffer (most kernels compute into it directly, with no
scratch array); later writes are added, so a replay does not zero-fill the
grad buffers first.

Dynamic dimensions
------------------
The treated/control split sizes of the IPM term change every minibatch, so
ops downstream of a dynamic index feed are *capacity-backed*: the output
buffer is a flat array and ``run()`` re-derives the current shape from the
parents and takes a contiguous view.  Static ops skip all of that and write
straight into a fixed array.
"""

from __future__ import annotations

import numpy as np

from .tensor import _reduction_axes

__all__ = ["Buf", "PredicateFlip", "TraceError"]


class TraceError(RuntimeError):
    """An operation that the tape backend cannot record."""


class PredicateFlip(RuntimeError):
    """A traced branch predicate evaluated differently at replay time.

    The backend catches this, restores any RNG state consumed by the partial
    replay, and falls back to an eager evaluation of the step.
    """


class Buf:
    """Capacity-backed scratch storage: a flat array plus shaped views.

    ``view(shape)`` returns a contiguous view of the first ``prod(shape)``
    elements, growing the flat storage when a replay needs more capacity than
    any previous step.  Steady-state replays therefore perform zero
    allocations: the flat array is stable and views are cheap.
    """

    __slots__ = ("flat",)

    def __init__(self, shape, dtype=np.float64) -> None:
        n = 1
        for dim in shape:
            n *= int(dim)
        self.flat = np.empty(max(n, 1), dtype=dtype)

    def view(self, shape) -> np.ndarray:
        n = 1
        for dim in shape:
            n *= int(dim)
        if n > self.flat.size:
            self.flat = np.empty(n, dtype=self.flat.dtype)
        return self.flat[:n].reshape(shape)


def _scratch(out, slot: int, shape, dtype=np.float64) -> Buf:
    """A transient backward workspace, shared by every op of ``out``'s trace.

    A kernel's scratch arrays only live inside one ``backward`` call, so all
    ops of a trace reuse one buffer per ``slot`` (ops that need two scratch
    arrays at once use slots 0 and 1) instead of owning their own.
    """
    return out._trace.scratch(slot, shape, dtype)


def _dest(parent, first: bool, scratch: "Buf", shape) -> np.ndarray:
    """The array a kernel writes a local gradient of ``shape`` into.

    A first write of the parent's own shape goes straight into its grad
    buffer; anything else (a later write, or a local that still carries
    broadcast axes) goes to the op's scratch and is folded in by
    :func:`_commit`.
    """
    grad = parent.grad
    if first and grad.shape == shape:
        return grad
    return scratch.view(shape)


def _reduce(parent, local: np.ndarray) -> np.ndarray:
    """Sum a broadcast ``local`` down to the parent's shape, as eager does.

    When ``local`` carries broadcast axes it is summed down with one ``sum``
    call over the fused axis tuple, exactly as ``_unbroadcast`` does.
    """
    shape = parent.data.shape
    if local.shape == shape:
        return local
    axes = _reduction_axes(local.shape, shape)
    reduced = local.sum(axis=axes) if axes else local
    return reduced.reshape(shape)


def _commit(parent, local: np.ndarray, first: bool) -> None:
    """Fold ``local`` into ``parent.grad``: adopt it on the first write, add it after.

    A ``local`` that :func:`_dest` placed in the grad buffer itself is
    already committed.
    """
    grad = parent.grad
    if first and local is grad:
        return
    local = _reduce(parent, local)
    if first:
        np.copyto(grad, local)
    else:
        np.add(grad, local, out=grad)


def _commit_neg(parent, local: np.ndarray, first: bool) -> None:
    """Fold ``-local`` into ``parent.grad`` without materialising the negation.

    IEEE-754 subtraction is defined as addition of the negation, and negation
    distributes exactly over pairwise sums, so ``grad -= local`` (after the
    same broadcast reduction) is bitwise the eager ``grad += -local``, and
    ``negative(sum(local))`` is bitwise the eager ``sum(-local)``.
    """
    grad = parent.grad
    local = _reduce(parent, local)
    if first:
        np.negative(local, out=grad)
    else:
        np.subtract(grad, local, out=grad)


class Op:
    """Base recorded operation.  Subclasses set ``out`` and parent nodes.

    ``first`` holds one flag per entry of :meth:`grad_parents`: whether this
    op's backward makes the first write into that parent's gradient in the
    step.  :class:`repro.nn.tape.Tape` sets it when it compiles the walk.
    """

    __slots__ = ("out", "first")

    def run(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def grad_parents(self) -> tuple:
        """The parent slots ``backward`` writes, in the order it writes them."""
        return ()

    def backward(self) -> None:
        """Default: nothing to propagate (constant/host ops)."""


def _refresh(node, shape) -> np.ndarray:
    """Point a dynamic node's data/grad views at the current shape."""
    data = node.data
    if data.shape != shape:
        data = node._buf.view(shape)
        node.data = data
        if node._gbuf is not None:
            node.grad = node._gbuf.view(shape)
    return data


class _Binary(Op):
    __slots__ = ("a", "b")

    def __init__(self, a, b, out) -> None:
        self.a = a
        self.b = b
        self.out = out

    def grad_parents(self) -> tuple:
        return (self.a, self.b)


class AddOp(_Binary):
    __slots__ = ()

    def run(self) -> None:
        a, b = self.a.data, self.b.data
        out = self.out
        if out._dyn:
            np.add(a, b, out=_refresh(out, np.broadcast_shapes(a.shape, b.shape)))
        else:
            np.add(a, b, out=out.data)

    def backward(self) -> None:
        grad = self.out.grad
        first_a, first_b = self.first
        if self.a.requires_grad:
            _commit(self.a, grad, first_a)
        if self.b.requires_grad:
            _commit(self.b, grad, first_b)


class SubOp(_Binary):
    __slots__ = ()

    def run(self) -> None:
        a, b = self.a.data, self.b.data
        out = self.out
        if out._dyn:
            np.subtract(a, b, out=_refresh(out, np.broadcast_shapes(a.shape, b.shape)))
        else:
            np.subtract(a, b, out=out.data)

    def backward(self) -> None:
        grad = self.out.grad
        first_a, first_b = self.first
        if self.a.requires_grad:
            _commit(self.a, grad, first_a)
        if self.b.requires_grad:
            _commit_neg(self.b, grad, first_b)


class MulOp(_Binary):
    __slots__ = ("_scratch",)

    def __init__(self, a, b, out) -> None:
        super().__init__(a, b, out)
        needs = a.requires_grad or b.requires_grad
        self._scratch = _scratch(out, 0, out.data.shape) if needs else None

    def run(self) -> None:
        a, b = self.a.data, self.b.data
        out = self.out
        if out._dyn:
            np.multiply(a, b, out=_refresh(out, np.broadcast_shapes(a.shape, b.shape)))
        else:
            np.multiply(a, b, out=out.data)

    def backward(self) -> None:
        grad = self.out.grad
        first_a, first_b = self.first
        if self.a.requires_grad:
            local = _dest(self.a, first_a, self._scratch, grad.shape)
            np.multiply(grad, self.b.data, out=local)
            _commit(self.a, local, first_a)
        if self.b.requires_grad:
            local = _dest(self.b, first_b, self._scratch, grad.shape)
            np.multiply(grad, self.a.data, out=local)
            _commit(self.b, local, first_b)


class DivOp(_Binary):
    __slots__ = ("_scratch", "_scratch2")

    def __init__(self, a, b, out) -> None:
        super().__init__(a, b, out)
        needs = a.requires_grad or b.requires_grad
        self._scratch = _scratch(out, 0, out.data.shape) if needs else None
        self._scratch2 = _scratch(out, 1, b.data.shape) if b.requires_grad else None

    def run(self) -> None:
        a, b = self.a.data, self.b.data
        out = self.out
        if out._dyn:
            np.divide(a, b, out=_refresh(out, np.broadcast_shapes(a.shape, b.shape)))
        else:
            np.divide(a, b, out=out.data)

    def backward(self) -> None:
        grad = self.out.grad
        first_a, first_b = self.first
        if self.a.requires_grad:
            local = _dest(self.a, first_a, self._scratch, grad.shape)
            np.divide(grad, self.b.data, out=local)
            _commit(self.a, local, first_a)
        if self.b.requires_grad:
            # Eager: -grad * self.data / (other.data ** 2).
            local = _dest(self.b, first_b, self._scratch, grad.shape)
            np.negative(grad, out=local)
            np.multiply(local, self.a.data, out=local)
            denom = self._scratch2.view(self.b.data.shape)
            np.power(self.b.data, 2, out=denom)
            np.divide(local, denom, out=local)
            _commit(self.b, local, first_b)


class NegOp(Op):
    __slots__ = ("a",)

    def __init__(self, a, out) -> None:
        self.a = a
        self.out = out

    def run(self) -> None:
        a = self.a.data
        out = self.out
        if out._dyn:
            np.negative(a, out=_refresh(out, a.shape))
        else:
            np.negative(a, out=out.data)

    def grad_parents(self) -> tuple:
        return (self.a,)

    def backward(self) -> None:
        if self.a.requires_grad:
            _commit_neg(self.a, self.out.grad, self.first[0])


class PowOp(Op):
    __slots__ = ("a", "exponent", "_scratch", "_scratch2")

    def __init__(self, a, exponent, out) -> None:
        self.a = a
        self.exponent = exponent
        self.out = out
        self._scratch = _scratch(out, 0, out.data.shape) if a.requires_grad else None
        self._scratch2 = _scratch(out, 1, out.data.shape) if a.requires_grad else None

    def run(self) -> None:
        a = self.a.data
        out = self.out
        if out._dyn:
            np.power(a, self.exponent, out=_refresh(out, a.shape))
        else:
            np.power(a, self.exponent, out=out.data)

    def grad_parents(self) -> tuple:
        return (self.a,)

    def backward(self) -> None:
        grad = self.out.grad
        first = self.first[0]
        local = _dest(self.a, first, self._scratch, grad.shape)
        powed = self._scratch2.view(grad.shape)
        # Eager: grad * exponent * self.data ** (exponent - 1).
        np.multiply(grad, self.exponent, out=local)
        np.power(self.a.data, self.exponent - 1, out=powed)
        np.multiply(local, powed, out=local)
        _commit(self.a, local, first)


class MatMulOp(_Binary):
    __slots__ = ("_scratch_a", "_scratch_b")

    def __init__(self, a, b, out) -> None:
        super().__init__(a, b, out)
        self._scratch_a = _scratch(out, 0, a.data.shape) if a.requires_grad else None
        self._scratch_b = _scratch(out, 0, b.data.shape) if b.requires_grad else None

    def run(self) -> None:
        a, b = self.a.data, self.b.data
        out = self.out
        if out._dyn:
            np.matmul(a, b, out=_refresh(out, (a.shape[0], b.shape[1])))
        else:
            np.matmul(a, b, out=out.data)

    def backward(self) -> None:
        grad = self.out.grad
        first_a, first_b = self.first
        if self.a.requires_grad:
            local = _dest(self.a, first_a, self._scratch_a, self.a.data.shape)
            np.matmul(grad, self.b.data.T, out=local)
            _commit(self.a, local, first_a)
        if self.b.requires_grad:
            local = _dest(self.b, first_b, self._scratch_b, self.b.data.shape)
            np.matmul(self.a.data.T, grad, out=local)
            _commit(self.b, local, first_b)


class ReshapeOp(Op):
    """View op: output data aliases the parent buffer reshaped."""

    __slots__ = ("a", "target")

    def __init__(self, a, target, out) -> None:
        self.a = a
        self.target = target
        self.out = out

    def run(self) -> None:
        out = self.out
        data = self.a.data.reshape(self.target)
        if out.data.shape != data.shape and out._gbuf is not None:
            out.grad = out._gbuf.view(data.shape)
        out.data = data

    def grad_parents(self) -> tuple:
        return (self.a,)

    def backward(self) -> None:
        if self.a.requires_grad:
            _commit(self.a, self.out.grad.reshape(self.a.data.shape), self.first[0])


class TransposeOp(Op):
    """View op: output data aliases the parent buffer transposed."""

    __slots__ = ("a",)

    def __init__(self, a, out) -> None:
        self.a = a
        self.out = out

    def run(self) -> None:
        out = self.out
        data = self.a.data.T
        if out.data.shape != data.shape and out._gbuf is not None:
            out.grad = out._gbuf.view(data.shape)
        out.data = data

    def grad_parents(self) -> tuple:
        return (self.a,)

    def backward(self) -> None:
        if self.a.requires_grad:
            _commit(self.a, self.out.grad.T, self.first[0])


class GetRowsOp(Op):
    """``tensor[index]`` for a 1-D integer row index held by a host value.

    The backward uses the eager scatter path: the index feeds recorded
    through the tape are ``np.flatnonzero`` outputs, which are strictly
    increasing, exactly the condition under which ``Tensor.__getitem__``
    selects scatter-assignment over ``np.add.at``.
    """

    __slots__ = ("a", "index", "_full")

    def __init__(self, a, index, out) -> None:
        self.a = a
        self.index = index
        self.out = out
        self._full = _scratch(out, 0, a.data.shape) if a.requires_grad else None

    def run(self) -> None:
        idx = self.index.get()
        a = self.a.data
        out = self.out
        if out._dyn:
            np.take(a, idx, axis=0, out=_refresh(out, (idx.shape[0],) + a.shape[1:]))
        else:
            np.take(a, idx, axis=0, out=out.data)

    def grad_parents(self) -> tuple:
        return (self.a,)

    def backward(self) -> None:
        if not self.a.requires_grad:
            return
        first = self.first[0]
        full = _dest(self.a, first, self._full, self.a.data.shape)
        full.fill(0.0)
        full[self.index.get()] = self.out.grad
        _commit(self.a, full, first)


class SumOp(Op):
    """``tensor.sum``.  ``np.sum`` of an ndarray is ``np.add.reduce`` behind a
    Python wrapper, so the forward calls the reduction directly."""

    __slots__ = ("a", "axis", "keepdims", "_expand")

    def __init__(self, a, axis, keepdims, out) -> None:
        self.a = a
        self.axis = axis
        self.keepdims = keepdims
        self.out = out
        # Index re-inserting the reduced axis into the output gradient, i.e.
        # ``np.expand_dims`` without its per-call axis normalisation.
        self._expand = None
        if axis is not None and not keepdims:
            self._expand = (slice(None),) * (axis % a.data.ndim) + (np.newaxis,)

    def run(self) -> None:
        a = self.a.data
        out = self.out
        if not out._dyn:
            np.add.reduce(a, axis=self.axis, keepdims=self.keepdims, out=out.data)
            return
        shape = list(a.shape)
        if self.keepdims:
            shape[self.axis] = 1
        else:
            del shape[self.axis]
        np.add.reduce(
            a, axis=self.axis, keepdims=self.keepdims, out=_refresh(out, tuple(shape))
        )

    def grad_parents(self) -> tuple:
        return (self.a,)

    def backward(self) -> None:
        if not self.a.requires_grad:
            return
        grad = self.out.grad
        target = self.a.grad
        first = self.first[0]
        if self.axis is None:
            # Eager fills a full-shape constant and adopts or adds it; a
            # broadcast scalar add is the same pairwise sums.
            if first:
                target.fill(grad.item())
            else:
                np.add(target, grad.item(), out=target)
            return
        if self._expand is not None:
            grad = grad[self._expand]
        if first:
            np.copyto(target, grad)
        else:
            np.add(target, grad, out=target)


class _Unary(Op):
    __slots__ = ("a", "_scratch")

    def __init__(self, a, out) -> None:
        self.a = a
        self.out = out
        self._scratch = _scratch(out, 0, out.data.shape) if a.requires_grad else None

    def grad_parents(self) -> tuple:
        return (self.a,)

    def _out_view(self) -> np.ndarray:
        out = self.out
        if out._dyn:
            return _refresh(out, self.a.data.shape)
        return out.data


class ExpOp(_Unary):
    __slots__ = ()

    def run(self) -> None:
        np.exp(self.a.data, out=self._out_view())

    def backward(self) -> None:
        grad = self.out.grad
        local = _dest(self.a, self.first[0], self._scratch, grad.shape)
        np.multiply(grad, self.out.data, out=local)
        _commit(self.a, local, self.first[0])


class LogOp(_Unary):
    __slots__ = ()

    def run(self) -> None:
        np.log(self.a.data, out=self._out_view())

    def backward(self) -> None:
        grad = self.out.grad
        local = _dest(self.a, self.first[0], self._scratch, grad.shape)
        np.divide(grad, self.a.data, out=local)
        _commit(self.a, local, self.first[0])


class SqrtOp(_Unary):
    __slots__ = ("_scratch2",)

    def __init__(self, a, out) -> None:
        super().__init__(a, out)
        self._scratch2 = _scratch(out, 1, out.data.shape) if a.requires_grad else None

    def run(self) -> None:
        np.sqrt(self.a.data, out=self._out_view())

    def backward(self) -> None:
        # Eager: grad * 0.5 / np.maximum(data, 1e-12).
        grad = self.out.grad
        local = _dest(self.a, self.first[0], self._scratch, grad.shape)
        denom = self._scratch2.view(grad.shape)
        np.multiply(grad, 0.5, out=local)
        np.maximum(self.out.data, 1e-12, out=denom)
        np.divide(local, denom, out=local)
        _commit(self.a, local, self.first[0])


class AbsOp(_Unary):
    __slots__ = ("_sign",)

    def __init__(self, a, out) -> None:
        super().__init__(a, out)
        self._sign = _scratch(out, 1, out.data.shape) if a.requires_grad else None

    def run(self) -> None:
        np.absolute(self.a.data, out=self._out_view())

    def backward(self) -> None:
        grad = self.out.grad
        local = _dest(self.a, self.first[0], self._scratch, grad.shape)
        sign = self._sign.view(grad.shape)
        np.sign(self.a.data, out=sign)
        np.multiply(grad, sign, out=local)
        _commit(self.a, local, self.first[0])


class ReluOp(_Unary):
    __slots__ = ("_mask",)

    def __init__(self, a, out) -> None:
        super().__init__(a, out)
        self._mask = _scratch(out, 0, out.data.shape, np.bool_) if a.requires_grad else None

    def run(self) -> None:
        np.maximum(self.a.data, 0.0, out=self._out_view())

    def backward(self) -> None:
        grad = self.out.grad
        local = _dest(self.a, self.first[0], self._scratch, grad.shape)
        mask = self._mask.view(grad.shape)
        np.greater(self.a.data, 0.0, out=mask)
        np.multiply(grad, mask, out=local)
        _commit(self.a, local, self.first[0])


class EluOp(_Unary):
    __slots__ = ("alpha", "_mask", "_exp")

    def __init__(self, a, alpha, out) -> None:
        super().__init__(a, out)
        self.alpha = alpha
        self._mask = Buf(out.data.shape, dtype=np.bool_)
        self._exp = Buf(out.data.shape)

    def run(self) -> None:
        # Eager: np.where(x > 0, x, alpha * (exp(x) - 1)).  putmask with the
        # positive mask picks branches elementwise exactly like np.where
        # (NaN fails the > comparison, selecting the exp branch both ways);
        # ``np.copyto(..., where=mask)`` does the same about 3x slower.
        x = self.a.data
        out = self._out_view()
        mask = self._mask.view(x.shape)
        exp_x = self._exp.view(x.shape)
        np.greater(x, 0.0, out=mask)
        np.exp(x, out=exp_x)
        np.subtract(exp_x, 1.0, out=out)
        np.multiply(out, self.alpha, out=out)
        np.putmask(out, mask, x)

    def backward(self) -> None:
        # Eager: grad * np.where(x > 0, 1.0, alpha * exp(x)); the forward
        # left x > 0 and exp(x) in the workspaces for this step, so the
        # slope is built in the destination without a second exp.
        grad = self.out.grad
        first = self.first[0]
        local = _dest(self.a, first, self._scratch, grad.shape)
        np.multiply(self._exp.view(grad.shape), self.alpha, out=local)
        np.putmask(local, self._mask.view(grad.shape), 1.0)
        np.multiply(grad, local, out=local)
        _commit(self.a, local, first)


class TanhOp(_Unary):
    __slots__ = ("_scratch2",)

    def __init__(self, a, out) -> None:
        super().__init__(a, out)
        self._scratch2 = _scratch(out, 1, out.data.shape) if a.requires_grad else None

    def run(self) -> None:
        np.tanh(self.a.data, out=self._out_view())

    def backward(self) -> None:
        # Eager: grad * (1.0 - data ** 2).
        grad = self.out.grad
        local = _dest(self.a, self.first[0], self._scratch, grad.shape)
        sq = self._scratch2.view(grad.shape)
        np.power(self.out.data, 2, out=sq)
        np.subtract(1.0, sq, out=sq)
        np.multiply(grad, sq, out=local)
        _commit(self.a, local, self.first[0])


class SigmoidOp(_Unary):
    __slots__ = ("_scratch2",)

    def __init__(self, a, out) -> None:
        super().__init__(a, out)
        self._scratch2 = _scratch(out, 1, out.data.shape) if a.requires_grad else None

    def run(self) -> None:
        # Eager: 1.0 / (1.0 + np.exp(-x)), ufunc by ufunc.
        out = self._out_view()
        np.negative(self.a.data, out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        np.divide(1.0, out, out=out)

    def backward(self) -> None:
        # Eager: grad * data * (1.0 - data), left associated.
        grad = self.out.grad
        data = self.out.data
        local = _dest(self.a, self.first[0], self._scratch, grad.shape)
        one_minus = self._scratch2.view(grad.shape)
        np.subtract(1.0, data, out=one_minus)
        np.multiply(grad, data, out=local)
        np.multiply(local, one_minus, out=local)
        _commit(self.a, local, self.first[0])


class ClipOp(_Unary):
    __slots__ = ("low", "high", "_mask", "_mask2")

    def __init__(self, a, low, high, out) -> None:
        super().__init__(a, out)
        self.low = low
        self.high = high
        self._mask = _scratch(out, 0, out.data.shape, np.bool_) if a.requires_grad else None
        self._mask2 = _scratch(out, 1, out.data.shape, np.bool_) if a.requires_grad else None

    def run(self) -> None:
        np.clip(self.a.data, self.low, self.high, out=self._out_view())

    def backward(self) -> None:
        # Eager: grad * ((x >= low) & (x <= high)).
        grad = self.out.grad
        local = _dest(self.a, self.first[0], self._scratch, grad.shape)
        inside = self._mask.view(grad.shape)
        upper = self._mask2.view(grad.shape)
        np.greater_equal(self.a.data, self.low, out=inside)
        np.less_equal(self.a.data, self.high, out=upper)
        np.logical_and(inside, upper, out=inside)
        np.multiply(grad, inside, out=local)
        _commit(self.a, local, self.first[0])


class ConcatOp(Op):
    """Row concatenation (axis 0), the only axis the traced losses use."""

    __slots__ = ("parents",)

    def __init__(self, parents, out) -> None:
        self.parents = tuple(parents)
        self.out = out

    def run(self) -> None:
        arrays = [p.data for p in self.parents]
        out = self.out
        if out._dyn:
            rows = sum(a.shape[0] for a in arrays)
            np.concatenate(arrays, axis=0, out=_refresh(out, (rows,) + arrays[0].shape[1:]))
        else:
            np.concatenate(arrays, axis=0, out=out.data)

    def grad_parents(self) -> tuple:
        return self.parents

    def backward(self) -> None:
        grad = self.out.grad
        start = 0
        for parent, first in zip(self.parents, self.first):
            stop = start + parent.data.shape[0]
            if parent.requires_grad:
                _commit(parent, grad[start:stop], first)
            start = stop


class DropoutMaskOp(Op):
    """Host op drawing an inverted-dropout mask into the output leaf.

    Consumes the generator stream exactly like the eager
    ``(rng.random(shape) < keep).astype(np.float64) / keep``, at the same
    position in the per-step draw order (ops replay in recording order).
    """

    __slots__ = ("rng", "keep", "_rand", "_less")

    def __init__(self, rng, keep, out) -> None:
        self.rng = rng
        self.keep = keep
        self.out = out
        self._rand = Buf(out.data.shape)
        self._less = Buf(out.data.shape, dtype=np.bool_)

    def run(self) -> None:
        out = self.out.data
        rand = self._rand.view(out.shape)
        less = self._less.view(out.shape)
        self.rng.random(out=rand)
        np.less(rand, self.keep, out=less)
        np.copyto(out, less)
        np.divide(out, self.keep, out=out)


class HostTensorOp(Op):
    """Host-computed constant node (e.g. the Sinkhorn transport plan).

    ``fn`` is evaluated on every replay and its result becomes the node's
    data; the node never carries gradients (envelope-style constants).
    """

    __slots__ = ("fn",)

    def __init__(self, fn, out) -> None:
        self.fn = fn
        self.out = out

    def run(self) -> None:
        self.out.data = np.asarray(self.fn(), dtype=np.float64)


class LeafRefreshOp(Op):
    """Rebind a leaf node's data to a host value computed earlier this step."""

    __slots__ = ("source",)

    def __init__(self, source, out) -> None:
        self.source = source
        self.out = out

    def run(self) -> None:
        self.out.data = self.source.get()


class HostOp(Op):
    """Generic host-side value op: ``value = fn()`` each replay."""

    __slots__ = ("fn", "value", "dynamic")

    def __init__(self, fn, dynamic=False) -> None:
        self.fn = fn
        self.value = None
        self.dynamic = dynamic
        self.out = None

    def run(self) -> None:
        self.value = self.fn()

    def get(self) -> np.ndarray:
        return self.value


class GuardOp(Op):
    """Re-evaluate a traced branch predicate; raise on a changed outcome."""

    __slots__ = ("fn", "handles", "baked")

    def __init__(self, fn, handles, baked) -> None:
        self.fn = fn
        self.handles = tuple(handles)
        self.baked = bool(baked)
        self.out = None

    def run(self) -> None:
        if bool(self.fn(*[h.get() for h in self.handles])) != self.baked:
            raise PredicateFlip("traced branch predicate changed at replay time")
