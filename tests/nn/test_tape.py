"""Tape backend parity: traced kernels reproduce eager autograd bit for bit.

Every layer type the CERL stack uses is run through both execution paths —
the eager ``Tensor`` graph and a compiled :class:`~repro.nn.tape.Tape` — on
several replayed minibatches, and the loss values and every parameter
gradient are asserted ``np.array_equal`` (exact, no tolerance).  Dropout
modules share seeded generators so the test also pins that replays consume
the RNG stream in exactly the eager draw order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.outcome import OutcomeHeads
from repro.core.representation import RepresentationNetwork
from repro.nn import (
    ELU,
    MLP,
    CosineNormLinear,
    Dropout,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
    elastic_net_penalty,
)
from repro.nn.tape import Tape, Trace, TraceError, activate_trace


def _batches(n_steps: int, shape: tuple, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape) for _ in range(n_steps)]


def _run_parity(module_factory, batches, loss=lambda out: (out * out).sum()):
    """Train-step parity harness: same module twice, eager vs traced.

    The tape is compiled on the first batch (tracing is execution) and
    replayed on the rest; each step's total and per-parameter gradients must
    match the eager twin exactly.
    """
    eager_mod = module_factory()
    tape_mod = module_factory()
    eager_params = eager_mod.parameters()
    tape_params = tape_mod.parameters()
    for a, b in zip(eager_params, tape_params):
        assert np.array_equal(a.data, b.data), "factory must be deterministic"

    tape = None
    for x in batches:
        for param in eager_params:
            param.zero_grad()
        eager_total = loss(eager_mod.forward(Tensor(x)))
        eager_total.backward()

        feeds = {"x": x}
        if tape is None:
            trace = Trace(dict(feeds))
            with activate_trace(trace):
                total = loss(tape_mod.forward(trace.input_leaf("x")))
            tape = Tape(trace, total, [("total", total)])
        else:
            tape.run_forward(feeds)
        tape.run_backward()

        assert float(tape.total.item()) == float(eager_total.item())
        for eager_param, tape_param in zip(eager_params, tape_params):
            if eager_param.grad is None:
                assert tape_param.grad is None
            else:
                assert np.array_equal(eager_param.grad, tape_param.grad)
    return tape


def _mixed_reuse_loss(out):
    doubled = out + out
    return (doubled * doubled - out * out + (doubled - doubled)).sum()


class TestLayerParityMatrix:
    def test_linear(self):
        factory = lambda: Linear(5, 3, rng=np.random.default_rng(1))  # noqa: E731
        _run_parity(factory, _batches(4, (12, 5)))

    def test_cosine_norm_linear(self):
        factory = lambda: CosineNormLinear(5, 3, rng=np.random.default_rng(1))  # noqa: E731
        _run_parity(factory, _batches(4, (12, 5)))

    @pytest.mark.parametrize("activation", [ReLU, Tanh, Sigmoid])
    def test_simple_activations(self, activation):
        def factory():
            return Sequential(Linear(5, 4, rng=np.random.default_rng(2)), activation())

        _run_parity(factory, _batches(3, (9, 5)))

    @pytest.mark.parametrize("alpha", [1.0, 0.7])
    def test_elu(self, alpha):
        def factory():
            return Sequential(Linear(5, 4, rng=np.random.default_rng(2)), ELU(alpha))

        _run_parity(factory, _batches(3, (9, 5)))

    @pytest.mark.parametrize(
        "loss",
        [
            _mixed_reuse_loss,
            # Here the op that reuses ``out`` makes the first write into
            # ``out``'s gradient.
            lambda out: (out + out).sum(),
            lambda out: (out - out).sum(),
        ],
        ids=["mixed", "add-first", "sub-first"],
    )
    def test_operand_reused_within_one_op(self, loss):
        """``x + x``, ``x * x`` and ``x - x`` write one gradient twice in one op."""
        factory = lambda: Linear(5, 3, rng=np.random.default_rng(1))  # noqa: E731
        _run_parity(factory, _batches(4, (12, 5)), loss=loss)

    def test_dropout_consumes_rng_in_eager_draw_order(self):
        def factory():
            rng = np.random.default_rng(11)
            return Sequential(
                Linear(6, 8, rng=rng), ELU(), Dropout(0.4, rng=rng), Linear(8, 2, rng=rng)
            )

        _run_parity(factory, _batches(5, (10, 6)))

    def test_sequential_mlp(self):
        def factory():
            return MLP(
                5, (8, 4), 2, activation="elu", rng=np.random.default_rng(4)
            )

        _run_parity(factory, _batches(4, (16, 5)))

    def test_mlp_with_dropout_and_cosine_output(self):
        def factory():
            return MLP(
                5,
                (8,),
                3,
                activation="elu",
                cosine_output=True,
                dropout=0.3,
                rng=np.random.default_rng(4),
            )

        _run_parity(factory, _batches(4, (16, 5)))

    def test_representation_network_with_elastic_net(self):
        """The CERL encoder head: cosine-normalised MLP + traced elastic net."""

        def factory():
            return RepresentationNetwork(
                in_features=6,
                representation_dim=4,
                hidden_sizes=(8,),
                rng=np.random.default_rng(5),
            )

        def loss_with_penalty(module):
            def loss(out):
                return (out * out).sum() + module.elastic_net()

            return loss

        eager_mod = factory()
        tape_mod = factory()
        batches = _batches(3, (10, 6))
        tape = None
        for x in batches:
            for param in eager_mod.parameters():
                param.zero_grad()
            eager_total = loss_with_penalty(eager_mod)(eager_mod.forward(Tensor(x)))
            eager_total.backward()

            feeds = {"x": x}
            if tape is None:
                trace = Trace(dict(feeds))
                with activate_trace(trace):
                    total = loss_with_penalty(tape_mod)(
                        tape_mod.forward(trace.input_leaf("x"))
                    )
                tape = Tape(trace, total, [("total", total)])
            else:
                tape.run_forward(feeds)
            tape.run_backward()

            assert float(tape.total.item()) == float(eager_total.item())
            for eager_param, tape_param in zip(
                eager_mod.parameters(), tape_mod.parameters()
            ):
                assert np.array_equal(eager_param.grad, tape_param.grad)

    def test_outcome_heads_factual_masked(self):
        """Both CERL outcome heads through the masked factual combination."""

        def factory():
            return OutcomeHeads(
                representation_dim=6, hidden_sizes=(8,), rng=np.random.default_rng(3)
            )

        eager_heads = factory()
        tape_heads = factory()
        rng = np.random.default_rng(0)
        batches = [
            (rng.normal(size=(10, 6)), rng.integers(0, 2, size=10).astype(np.float64))
            for _ in range(3)
        ]
        tape = None
        for reps, mask in batches:
            for param in eager_heads.parameters():
                param.zero_grad()
            pred = eager_heads.factual_masked(Tensor(reps), Tensor(mask))
            eager_total = (pred * pred).sum()
            eager_total.backward()

            feeds = {"reps": reps, "mask": mask}
            if tape is None:
                trace = Trace(dict(feeds))
                with activate_trace(trace):
                    traced = tape_heads.factual_masked(
                        trace.input_leaf("reps"), trace.input_leaf("mask")
                    )
                    total = (traced * traced).sum()
                tape = Tape(trace, total, [("total", total)])
            else:
                tape.run_forward(feeds)
            tape.run_backward()

            assert float(tape.total.item()) == float(eager_total.item())
            for eager_param, tape_param in zip(
                eager_heads.parameters(), tape_heads.parameters()
            ):
                assert np.array_equal(eager_param.grad, tape_param.grad)


class TestTraceMechanics:
    def test_replay_is_allocation_free(self):
        """Workspace identities never change across replays (no fresh arrays)."""
        factory = lambda: MLP(5, (8,), 2, rng=np.random.default_rng(4))  # noqa: E731
        module = factory()
        x = np.random.default_rng(0).normal(size=(16, 5))
        trace = Trace({"x": x})
        with activate_trace(trace):
            out = module.forward(trace.input_leaf("x"))
            total = (out * out).sum()
        tape = Tape(trace, total, [("total", total)])
        tape.run_backward()
        idents = tape.buffer_ids()
        for _ in range(5):
            tape.run_forward({"x": np.random.default_rng(1).normal(size=(16, 5))})
            tape.run_backward()
            assert tape.buffer_ids() == idents

    def test_interior_grad_workspaces_are_shared(self):
        """Interior gradients share workspaces by liveness; parameters keep their own."""
        module = MLP(5, (8, 4), 2, activation="elu", rng=np.random.default_rng(4))
        x = np.random.default_rng(0).normal(size=(16, 5))
        trace = Trace({"x": x})
        with activate_trace(trace):
            out = module.forward(trace.input_leaf("x"))
            total = (out * out).sum()
        tape = Tape(trace, total, [("total", total)])
        interior = [node for node in tape.grad_nodes if node._op is not None]
        interior_bufs = {id(node._gbuf) for node in interior}
        param_bufs = [id(wrapper._gbuf) for _, wrapper in tape.param_pairs]
        assert len(interior_bufs) < len(interior)
        assert len(set(param_bufs)) == len(param_bufs)
        assert interior_bufs.isdisjoint(param_bufs)

    def test_param_grads_are_tape_workspaces(self):
        """``param.grad`` after a tape backward aliases the reused buffer."""
        module = Linear(4, 2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(6, 4))
        trace = Trace({"x": x})
        with activate_trace(trace):
            out = module.forward(trace.input_leaf("x"))
            total = (out * out).sum()
        tape = Tape(trace, total, [("total", total)])
        tape.run_backward()
        first = [id(p.grad) for p in module.parameters()]
        tape.run_forward({"x": x})
        tape.run_backward()
        assert [id(p.grad) for p in module.parameters()] == first

    def test_eager_graph_node_rejected(self):
        """Pre-built eager graph values must not silently become constants."""
        leaked = Tensor(np.ones(3), requires_grad=True) * 2.0
        trace = Trace({"x": np.ones(3)})
        leaf = trace.input_leaf("x")
        with pytest.raises(TraceError):
            leaf * leaked

    def test_untraceable_ops_raise(self):
        trace = Trace({"x": np.ones((3, 3))})
        leaf = trace.input_leaf("x")
        with pytest.raises(TraceError):
            leaf.max()
        with pytest.raises(TraceError):
            leaf.softmax()
        with pytest.raises(TraceError):
            leaf.backward()

    def test_elastic_net_penalty_lifts_via_active_trace(self):
        """The penalty has no traced operand; it must use ``current_trace``."""
        module = Linear(4, 3, rng=np.random.default_rng(2))
        params = module.parameters()

        for param in params:
            param.zero_grad()
        eager_total = elastic_net_penalty(params, l1_ratio=0.5)
        eager_total.backward()
        eager_grads = [p.grad.copy() for p in params]

        trace = Trace({})
        with activate_trace(trace):
            total = elastic_net_penalty(params, l1_ratio=0.5)
        tape = Tape(trace, total, [("total", total)])
        tape.run_backward()
        assert float(tape.total.item()) == float(eager_total.item())
        for grad, param in zip(eager_grads, params):
            assert np.array_equal(grad, param.grad)
