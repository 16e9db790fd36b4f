"""Tape-replay training backend: trace a loss once, replay it allocation-free.

The eager :class:`~repro.nn.tensor.Tensor` rebuilds its computation graph —
Python closures, parent tuples, freshly allocated arrays — on every minibatch,
and that bookkeeping dominates the wall time of the small CERL models.  This
module records *one* loss evaluation as a flat list of
:mod:`~repro.nn.tape_ops` kernels with preallocated forward/backward buffers
(the ``Module.infer`` Workspace idiom, applied to training), then replays
subsequent steps by running the kernels in place.

How a trace is captured
-----------------------
:class:`TraceTensor` is a :class:`Tensor` subclass; module ``forward`` methods
run on it unchanged because every primitive operator is overridden to record a
kernel instead of closing over a backward function.  Python's
subclass-reflected-operator rule makes mixed expressions work too: in
``Tensor * TraceTensor`` the subclass's ``__rmul__`` wins, so eager constants
and raw :class:`~repro.nn.module.Parameter` objects are lifted into the trace
as leaves at the point of use.

Per-step host work (RNG draws, memory gathers, ``flatnonzero`` index splits,
the Sinkhorn transport plan) is recorded as *host ops* at their position in
the op list, so replays consume shared ``numpy`` Generator streams in exactly
the eager draw order.  Branch predicates that were baked into the trace are
re-checked by guard ops each replay; on a flip the replay aborts, restores the
RNG state it consumed, and the caller falls back to an eager evaluation of
that step (see :class:`repro.engine.backend.TapeBackend`).

Gradient pass
-------------
``compile`` reuses ``Tensor._build_topo`` on the traced graph — the exact
eager ordering — and bakes the reversed walk into a list of bound ``backward``
kernels.  As in eager, the first local gradient a node receives is written
into its buffer and later ones are added, in eager accumulation order; see
:mod:`repro.nn.tape_ops` for the bit-identity argument.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import tape_ops as ops
from .tape_ops import Buf, PredicateFlip, TraceError
from .tensor import Tensor

__all__ = [
    "TraceTensor",
    "Trace",
    "Tape",
    "TraceError",
    "PredicateFlip",
    "current_trace",
    "activate_trace",
]

_ACTIVE = threading.local()


def current_trace() -> Optional["Trace"]:
    """The trace currently recording on this thread, if any.

    Lets code that operates on raw :class:`~repro.nn.module.Parameter`
    objects (no traced operand to dispatch on, e.g. the elastic-net penalty)
    lift them into the active trace.
    """
    return getattr(_ACTIVE, "trace", None)


@contextmanager
def activate_trace(trace: "Trace"):
    """Mark ``trace`` as the recording trace for the duration of the block."""
    previous = getattr(_ACTIVE, "trace", None)
    _ACTIVE.trace = trace
    try:
        yield trace
    finally:
        _ACTIVE.trace = previous


class _ConstIndex:
    """Host-value wrapper for a trace-time-constant integer index."""

    __slots__ = ("value", "dynamic")

    def __init__(self, value: np.ndarray) -> None:
        self.value = value
        self.dynamic = False

    def get(self) -> np.ndarray:
        return self.value


class _NodeData:
    """Host-value view of a traced node's current forward buffer."""

    __slots__ = ("node", "dynamic")

    def __init__(self, node: "TraceTensor") -> None:
        self.node = node
        self.dynamic = node._dyn

    def get(self) -> np.ndarray:
        return self.node.data


class FeedHandle:
    """Host value bound to a named feed slot, re-read on every replay."""

    __slots__ = ("trace", "name", "dynamic")

    def __init__(self, trace: "Trace", name: str) -> None:
        self.trace = trace
        self.name = name
        self.dynamic = False

    def get(self) -> np.ndarray:
        return self.trace.arrays[self.name]


class TraceTensor(Tensor):
    """Tensor whose operations are recorded onto a :class:`Trace`.

    The node *is* the tensor: ``data`` is the preallocated forward buffer (or
    a view for dynamically-shaped nodes), ``grad`` the backward buffer
    allocated at compile time, ``_parents`` the gradient-relevant parents so
    ``Tensor._build_topo`` orders the traced graph exactly like the eager one.
    """

    __slots__ = ("_trace", "_op", "_dyn", "_buf", "_gbuf")

    def __init__(self, trace: "Trace", data: np.ndarray, requires_grad: bool,
                 parents: Sequence["TraceTensor"], dyn: bool, buf: Optional[Buf]) -> None:
        self.data = data
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = tuple(parents) if requires_grad else ()
        self._backward = None
        self._topo = None
        self.name = ""
        self._trace = trace
        self._op = None
        self._dyn = dyn
        self._buf = buf
        self._gbuf = None

    # -- arithmetic ----------------------------------------------------- #
    def __add__(self, other):
        return self._trace.binary(ops.AddOp, self, other)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self._trace.binary(ops.SubOp, self, other)

    def __rsub__(self, other):
        return self._trace.binary(ops.SubOp, other, self)

    def __mul__(self, other):
        return self._trace.binary(ops.MulOp, self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return self._trace.binary(ops.DivOp, self, other)

    def __rtruediv__(self, other):
        return self._trace.binary(ops.DivOp, other, self)

    def __neg__(self):
        return self._trace.unary(ops.NegOp, self)

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        return self._trace.unary(ops.PowOp, self, args=(exponent,))

    def __matmul__(self, other):
        return self._trace.matmul(self, other)

    def __rmatmul__(self, other):
        return self._trace.matmul(other, self)

    # -- shape ---------------------------------------------------------- #
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._trace.reshape(self, shape)

    def transpose(self):
        return self._trace.transpose(self)

    def __getitem__(self, index):
        return self._trace.get_rows(self, index)

    # -- reductions ----------------------------------------------------- #
    def sum(self, axis=None, keepdims=False):
        return self._trace.sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        if not self._dyn:
            # Static shape: the eager composite (sum * (1.0 / count)) traces
            # through the overridden primitives with a frozen count.
            return super().mean(axis=axis, keepdims=keepdims)
        node = self

        def inv_count() -> float:
            if axis is None:
                return 1.0 / node.data.size
            return 1.0 / node.data.shape[axis]

        scale = self._trace.host_scalar(inv_count)
        return self.sum(axis=axis, keepdims=keepdims) * scale

    def max(self, axis=None, keepdims=False):
        raise TraceError("Tensor.max is not traceable")

    def softmax(self, axis=-1):
        raise TraceError("Tensor.softmax is not traceable")

    def logsumexp(self, axis=-1, keepdims=False):
        raise TraceError("Tensor.logsumexp is not traceable")

    # -- element-wise --------------------------------------------------- #
    def exp(self):
        return self._trace.unary(ops.ExpOp, self)

    def log(self):
        return self._trace.unary(ops.LogOp, self)

    def sqrt(self):
        return self._trace.unary(ops.SqrtOp, self)

    def abs(self):
        return self._trace.unary(ops.AbsOp, self)

    def relu(self):
        return self._trace.unary(ops.ReluOp, self)

    def elu(self, alpha: float = 1.0):
        return self._trace.unary(ops.EluOp, self, args=(alpha,))

    def tanh(self):
        return self._trace.unary(ops.TanhOp, self)

    def sigmoid(self):
        return self._trace.unary(ops.SigmoidOp, self)

    def clip(self, low: float, high: float):
        return self._trace.unary(ops.ClipOp, self, args=(low, high))

    # -- graph escape hatches ------------------------------------------- #
    def detach(self) -> "TraceTensor":
        """A constant leaf tracking this node's forward value each replay."""
        return self._trace.refresh_leaf(_NodeData(self))

    def copy(self):
        raise TraceError("Tensor.copy is not traceable")

    def backward(self, grad=None, retain_graph=False):
        raise TraceError("backward on a TraceTensor; compile the trace instead")


def trace_concatenate(tensors, axis: int = 0) -> TraceTensor:
    """Trace-side implementation of :func:`repro.nn.tensor.concatenate`."""
    tensors = list(tensors)
    if axis != 0:
        raise TraceError("traced concatenate supports axis=0 only")
    trace = next(t._trace for t in tensors if isinstance(t, TraceTensor))
    return trace.concat(tensors)


class Trace:
    """Recorder collecting ops, leaves and host state for one loss program."""

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        self.ops: List[ops.Op] = []
        self.arrays = arrays
        self.inputs: Dict[str, TraceTensor] = {}
        self.params: Dict[int, TraceTensor] = {}
        self.param_pairs: List[tuple] = []
        self.consts: Dict[int, TraceTensor] = {}
        self.rngs: List[np.random.Generator] = []
        self.has_guards = False
        self._scratch: Dict[tuple, Buf] = {}

    def scratch(self, slot: int, shape, dtype=np.float64) -> Buf:
        """The shared transient workspace ``slot`` for ``dtype``, sized for ``shape``."""
        key = (slot, np.dtype(dtype).str)
        buf = self._scratch.get(key)
        if buf is None:
            buf = self._scratch[key] = Buf(shape, dtype)
        else:
            buf.view(shape)  # grow the shared storage to the largest user
        return buf

    # -- node helpers --------------------------------------------------- #
    def _record(self, op: ops.Op) -> None:
        self.ops.append(op)
        op.run()

    def _new(self, shape, parents, dyn: bool) -> TraceTensor:
        requires = any(p.requires_grad for p in parents)
        buf = Buf(shape)
        return TraceTensor(self, buf.view(shape), requires, parents, dyn, buf)

    def _new_view(self, parents, dyn: bool) -> TraceTensor:
        requires = any(p.requires_grad for p in parents)
        # ``data`` is bound by the op's first run().
        return TraceTensor(self, np.empty(0), requires, parents, dyn, None)

    def leaf(self, data, requires_grad: bool = False, dyn: bool = False) -> TraceTensor:
        return TraceTensor(
            self, np.asarray(data, dtype=np.float64), requires_grad, (), dyn, None
        )

    def lift(self, value) -> TraceTensor:
        """Bring an operand into the trace as a leaf (param, constant, scalar)."""
        if isinstance(value, TraceTensor):
            if value._trace is not self:
                raise TraceError("operand belongs to a different trace")
            return value
        if isinstance(value, Tensor):
            if value.requires_grad:
                if value._parents:
                    raise TraceError(
                        "an eager graph node leaked into a traced program; "
                        "loss programs must build values from env feeds and parameters"
                    )
                wrapper = self.params.get(id(value))
                if wrapper is None:
                    wrapper = TraceTensor(self, value.data, True, (), False, None)
                    self.params[id(value)] = wrapper
                    self.param_pairs.append((value, wrapper))
                return wrapper
            const = self.consts.get(id(value))
            if const is None:
                const = self.leaf(value.data)
                self.consts[id(value)] = const
            return const
        return self.leaf(value)

    # -- op builders ---------------------------------------------------- #
    def binary(self, kind, a, b) -> TraceTensor:
        a = self.lift(a)
        b = self.lift(b)
        shape = np.broadcast_shapes(a.data.shape, b.data.shape)
        out = self._new(shape, (a, b), a._dyn or b._dyn)
        out._op = kind(a, b, out)
        self._record(out._op)
        return out

    def matmul(self, a, b) -> TraceTensor:
        a = self.lift(a)
        b = self.lift(b)
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise TraceError("traced matmul supports 2-D operands only")
        out = self._new((a.data.shape[0], b.data.shape[1]), (a, b), a._dyn or b._dyn)
        out._op = ops.MatMulOp(a, b, out)
        self._record(out._op)
        return out

    def unary(self, kind, a, args: tuple = ()) -> TraceTensor:
        out = self._new(a.data.shape, (a,), a._dyn)
        if args:
            out._op = kind(a, *args, out)
        else:
            out._op = kind(a, out)
        self._record(out._op)
        return out

    def reshape(self, a, target) -> TraceTensor:
        out = self._new_view((a,), a._dyn)
        out._op = ops.ReshapeOp(a, target, out)
        self._record(out._op)
        return out

    def transpose(self, a) -> TraceTensor:
        out = self._new_view((a,), a._dyn)
        out._op = ops.TransposeOp(a, out)
        self._record(out._op)
        return out

    def get_rows(self, a, index) -> TraceTensor:
        if isinstance(index, np.ndarray):
            index = _ConstIndex(index)
        elif not hasattr(index, "get"):
            raise TraceError(
                "traced __getitem__ supports 1-D integer row indices only"
            )
        idx = index.get()
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise TraceError("traced __getitem__ requires a 1-D integer index")
        out = self._new((idx.shape[0],) + a.data.shape[1:], (a,),
                        a._dyn or index.dynamic)
        out._op = ops.GetRowsOp(a, index, out)
        self._record(out._op)
        return out

    def sum(self, a, axis, keepdims) -> TraceTensor:
        if axis is None:
            shape = ()
            dyn = False
        else:
            dims = list(a.data.shape)
            if keepdims:
                dims[axis] = 1
            else:
                del dims[axis]
            shape = tuple(dims)
            dyn = a._dyn
        out = self._new(shape, (a,), dyn)
        out._op = ops.SumOp(a, axis, keepdims, out)
        self._record(out._op)
        return out

    def concat(self, tensors) -> TraceTensor:
        parents = [self.lift(t) for t in tensors]
        first = parents[0].data.shape
        shape = (sum(p.data.shape[0] for p in parents),) + first[1:]
        out = self._new(shape, parents, any(p._dyn for p in parents))
        out._op = ops.ConcatOp(parents, out)
        self._record(out._op)
        return out

    # -- host-side recording ------------------------------------------- #
    def dropout_mask(self, rng: np.random.Generator, p: float, shape) -> TraceTensor:
        node = self._new(shape, (), False)
        if rng not in self.rngs:
            self.rngs.append(rng)
        node._op = ops.DropoutMaskOp(rng, 1.0 - p, node)
        self._record(node._op)
        return node

    def host(self, fn: Callable[[], np.ndarray], dynamic: bool = False,
             rng: Optional[np.random.Generator] = None) -> ops.HostOp:
        """Record a host computation re-run every replay; returns its handle."""
        if rng is not None and rng not in self.rngs:
            self.rngs.append(rng)
        op = ops.HostOp(fn, dynamic=dynamic)
        self._record(op)
        return op

    def host_tensor(self, fn: Callable[[], np.ndarray], dynamic: bool = False) -> TraceTensor:
        """A constant tensor leaf recomputed on the host every replay."""
        node = TraceTensor(self, np.empty(0), False, (), dynamic, None)
        node._op = ops.HostTensorOp(fn, node)
        self._record(node._op)
        return node

    def host_scalar(self, fn: Callable[[], float]) -> TraceTensor:
        return self.host_tensor(lambda: np.asarray(fn(), dtype=np.float64))

    def refresh_leaf(self, source) -> TraceTensor:
        node = TraceTensor(self, np.empty(0), False, (), getattr(source, "dynamic", False), None)
        node._op = ops.LeafRefreshOp(source, node)
        self._record(node._op)
        return node

    def input_leaf(self, name: str) -> TraceTensor:
        node = self.inputs.get(name)
        if node is None:
            node = self.leaf(self.arrays[name])
            self.inputs[name] = node
        return node

    def feed(self, name: str) -> FeedHandle:
        return FeedHandle(self, name)

    def guard(self, fn: Callable[..., bool], handles) -> bool:
        value = bool(fn(*[h.get() for h in handles]))
        self.has_guards = True
        self._record(ops.GuardOp(fn, handles, value))
        return value


def _plan_grad_workspaces(total, topo, walk, zero_nodes) -> None:
    """Give every node of ``topo`` a grad workspace, sharing them by liveness.

    An interior node's gradient is live from the first write into it until
    its own op has read it, so two nodes whose live ranges do not meet can use
    one workspace; the backward pass then touches a few hot buffers instead
    of one per node, as the eager pass does by recycling freed arrays.
    Leaves (the parameters, whose gradients outlive the walk) and nodes no
    kernel writes keep workspaces of their own.  An op's own workspace is
    freed only after its parents have taken theirs, so a kernel never writes
    a parent's gradient into the array it reads its own from.
    """
    free: List[Buf] = []
    pooled = set()

    def bind(node, buf) -> None:
        node._gbuf = buf
        node.grad = buf.view(node.data.shape)

    def take(node) -> None:
        size = node.data.size
        fits = [buf for buf in free if buf.flat.size >= size]
        if fits:
            buf = min(fits, key=lambda b: b.flat.size)
            free.remove(buf)
        else:
            buf = Buf(node.data.shape)
        bind(node, buf)
        pooled.add(id(node))

    dedicated = {id(node) for node in zero_nodes}
    for node in topo:
        if node._op is None or id(node) in dedicated:
            bind(node, Buf(node.data.shape))
    if id(total) not in dedicated and total._op is not None:
        take(total)
    for op in walk:
        out = op.out
        for parent, first in zip(op.grad_parents(), op.first):
            if first and parent._op is not None and id(parent) not in dedicated:
                take(parent)
        if id(out) in pooled:
            free.append(out._gbuf)


class Tape:
    """A compiled trace: flat forward program + baked backward walk."""

    def __init__(self, trace: Trace, total: TraceTensor, terms: List[tuple]) -> None:
        if not isinstance(total, TraceTensor):
            raise TraceError("traced loss did not produce a traced total")
        self.trace = trace
        self.total = total
        self.terms = terms
        self.forward_ops = trace.ops
        topo = total._build_topo()
        self.grad_nodes = topo
        walk = [n._op for n in reversed(topo) if n._op is not None]
        # The eager pass adopts the first local gradient a node receives and
        # adds the rest; the order is fixed by the graph, so mark each op's
        # parent slots once here instead of zero-filling every grad buffer
        # on every replay.
        written = {id(total)}
        for op in walk:
            flags = []
            for parent in op.grad_parents():
                flags.append(parent.requires_grad and id(parent) not in written)
                if parent.requires_grad:
                    written.add(id(parent))
            op.first = tuple(flags)
        # A node no kernel writes keeps a zero gradient, as in eager.
        self.zero_nodes = [n for n in topo if id(n) not in written]
        _plan_grad_workspaces(total, topo, walk, self.zero_nodes)
        self.backward_ops = [op.backward for op in walk]
        self.param_pairs = trace.param_pairs

    # -- replay --------------------------------------------------------- #
    def run_forward(self, arrays: Dict[str, np.ndarray]) -> None:
        """Replay the forward program against this step's feed arrays.

        Raises :class:`PredicateFlip` (with all consumed RNG state restored)
        when a baked branch predicate no longer holds for this step.
        """
        trace = self.trace
        trace.arrays = arrays
        for name, node in trace.inputs.items():
            node.data = arrays[name]
        for param, wrapper in self.param_pairs:
            wrapper.data = param.data
        if trace.has_guards and trace.rngs:
            states = [(rng, rng.bit_generator.state) for rng in trace.rngs]
            try:
                for op in self.forward_ops:
                    op.run()
            except PredicateFlip:
                for rng, state in states:
                    rng.bit_generator.state = state
                raise
        else:
            for op in self.forward_ops:
                op.run()

    def run_backward(self) -> None:
        """Seed the root and replay the walk; first writes overwrite stale grads."""
        for node in self.zero_nodes:
            node.grad.fill(0.0)
        self.total.grad.fill(1.0)
        for backward in self.backward_ops:
            backward()
        for param, wrapper in self.param_pairs:
            param.grad = wrapper.grad

    # -- introspection (tests, allocation spy) --------------------------- #
    def buffer_ids(self) -> tuple:
        """Identities of all flat workspaces; stable across replays."""
        idents = []
        for node in self.grad_nodes:
            if node._buf is not None:
                idents.append(id(node._buf.flat))
            if node._gbuf is not None:
                idents.append(id(node._gbuf.flat))
        return tuple(idents)
