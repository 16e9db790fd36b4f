"""Tests for the optimisers and learning-rate schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, CosineAnnealingLR, Parameter, SGD, StepLR, Tensor, clip_grad_norm


def quadratic_loss(param: Parameter) -> Tensor:
    """Simple convex objective ||p - 3||^2 with minimum at 3."""
    diff = param - Tensor(np.full(param.shape, 3.0))
    return (diff * diff).sum()


def run_steps(optimizer, param: Parameter, steps: int = 200) -> float:
    for _ in range(steps):
        optimizer.zero_grad()
        loss = quadratic_loss(param)
        loss.backward()
        optimizer.step()
    return quadratic_loss(param).item()


class TestSGD:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(4))
        final = run_steps(SGD([param], lr=0.05), param)
        assert final < 1e-4
        np.testing.assert_allclose(param.data, np.full(4, 3.0), atol=1e-2)

    def test_momentum_converges(self):
        param = Parameter(np.zeros(4))
        final = run_steps(SGD([param], lr=0.02, momentum=0.9), param)
        assert final < 1e-4

    def test_weight_decay_shrinks_solution(self):
        plain = Parameter(np.zeros(2))
        decayed = Parameter(np.zeros(2))
        run_steps(SGD([plain], lr=0.05), plain)
        run_steps(SGD([decayed], lr=0.05, weight_decay=1.0), decayed)
        assert np.all(np.abs(decayed.data) < np.abs(plain.data))

    def test_skips_parameters_without_grad(self):
        param = Parameter(np.zeros(2))
        optimizer = SGD([param], lr=0.1)
        optimizer.step()
        np.testing.assert_allclose(param.data, np.zeros(2))

    def test_invalid_arguments(self):
        param = Parameter(np.zeros(2))
        with pytest.raises(ValueError):
            SGD([param], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([param], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(4))
        final = run_steps(Adam([param], lr=0.1), param)
        assert final < 1e-3

    def test_bias_correction_first_step_magnitude(self):
        """The very first Adam update has magnitude ~lr regardless of gradient scale."""
        param = Parameter(np.zeros(1))
        optimizer = Adam([param], lr=0.1)
        (param * 1000.0).sum().backward()
        optimizer.step()
        assert abs(param.data[0]) == pytest.approx(0.1, rel=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.2, 0.9))

    def test_weight_decay_applied(self):
        param = Parameter(np.full(2, 10.0))
        optimizer = Adam([param], lr=0.1, weight_decay=0.5)
        # Zero data gradient: only weight decay drives the update.
        (param * 0.0).sum().backward()
        optimizer.step()
        assert np.all(param.data < 10.0)


class TestPositionalState:
    """Optimiser state is keyed by slot in ``self.parameters``, not ``id()``.

    The historical id-keyed dicts leaked entries when a parameter list was
    rebuilt, and a freed parameter's reused id could silently hand its Adam
    moments to an unrelated new parameter.  Positional state is bounded by
    construction and survives parameter-object replacement at the same slot.
    """

    def test_adam_state_is_bounded_by_parameter_count(self):
        params = [Parameter(np.zeros(3)), Parameter(np.zeros((2, 2)))]
        optimizer = Adam(params, lr=0.1)
        for _ in range(5):
            for param in params:
                param.grad = np.ones_like(param.data)
            optimizer.step()
        assert len(optimizer._m) == len(optimizer.parameters)
        assert len(optimizer._v) == len(optimizer.parameters)

    def test_adam_slot_state_survives_object_replacement(self):
        """Replacing a slot's Parameter object continues its trajectory.

        Under id-keying the replacement silently restarted from zero moments;
        a positional optimiser treats the slot as the same logical tensor.
        """

        def trajectory(replace_after: int):
            param = Parameter(np.full(3, 2.0))
            optimizer = Adam([param], lr=0.1)
            grad_rng = np.random.default_rng(0)
            for step in range(6):
                if step == replace_after:
                    clone = Parameter(optimizer.parameters[0].data.copy())
                    optimizer.parameters[0] = clone
                optimizer.parameters[0].grad = grad_rng.normal(size=3)
                optimizer.step()
            return optimizer.parameters[0].data.copy()

        assert np.array_equal(trajectory(replace_after=3), trajectory(replace_after=99))

    def test_adam_state_resets_when_slot_shape_changes(self):
        param = Parameter(np.zeros(4))
        optimizer = Adam([param], lr=0.1)
        param.grad = np.ones(4)
        optimizer.step()
        replacement = Parameter(np.zeros((2, 3)))
        optimizer.parameters[0] = replacement
        replacement.grad = np.ones((2, 3))
        optimizer.step()
        assert optimizer._m[0].shape == (2, 3)
        assert np.all(np.isfinite(replacement.data))

    def test_sgd_velocity_is_positional(self):
        params = [Parameter(np.zeros(2))]
        optimizer = SGD(params, lr=0.1, momentum=0.9)
        params[0].grad = np.ones(2)
        optimizer.step()
        first = params[0].data.copy()
        clone = Parameter(first.copy())
        optimizer.parameters[0] = clone
        clone.grad = np.ones(2)
        optimizer.step()
        # Momentum carried over: second step is larger than a cold first step.
        assert np.all(np.abs(clone.data - first) > np.abs(first))

    def test_step_never_mutates_grad_buffers(self):
        """``step()`` leaves ``param.grad`` reading as the gradient it was given."""
        for optimizer_cls, kwargs in [
            (Adam, dict(lr=0.1, weight_decay=0.5)),
            (SGD, dict(lr=0.1, momentum=0.9, weight_decay=0.5)),
        ]:
            param = Parameter(np.full(3, 2.0))
            optimizer = optimizer_cls([param], **kwargs)
            grad = np.array([1.0, -2.0, 3.0])
            param.grad = grad
            optimizer.step()
            assert np.array_equal(grad, [1.0, -2.0, 3.0])


class TestGradClipping:
    def test_clip_reduces_norm(self):
        param = Parameter(np.zeros(3))
        param.grad = np.array([3.0, 4.0, 0.0])
        pre_norm = clip_grad_norm([param], max_norm=1.0)
        assert pre_norm == pytest.approx(5.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-6)

    def test_no_clip_when_below_threshold(self):
        param = Parameter(np.zeros(2))
        param.grad = np.array([0.3, 0.4])
        clip_grad_norm([param], max_norm=10.0)
        np.testing.assert_allclose(param.grad, [0.3, 0.4])

    def test_empty_gradients_return_zero(self):
        assert clip_grad_norm([Parameter(np.zeros(2))], max_norm=1.0) == 0.0


class TestSchedules:
    def test_step_lr_decays_at_boundaries(self):
        optimizer = SGD([Parameter(np.zeros(1))], lr=1.0)
        schedule = StepLR(optimizer, step_size=2, gamma=0.5)
        for _ in range(4):
            schedule.step()
        assert optimizer.lr == pytest.approx(0.25)

    def test_step_lr_invalid_step_size(self):
        optimizer = SGD([Parameter(np.zeros(1))], lr=1.0)
        with pytest.raises(ValueError):
            StepLR(optimizer, step_size=0)

    def test_cosine_annealing_reaches_minimum(self):
        optimizer = SGD([Parameter(np.zeros(1))], lr=1.0)
        schedule = CosineAnnealingLR(optimizer, total_steps=10, eta_min=0.1)
        for _ in range(10):
            schedule.step()
        assert optimizer.lr == pytest.approx(0.1, abs=1e-9)

    def test_cosine_annealing_monotone_decrease(self):
        optimizer = SGD([Parameter(np.zeros(1))], lr=1.0)
        schedule = CosineAnnealingLR(optimizer, total_steps=5)
        rates = []
        for _ in range(5):
            schedule.step()
            rates.append(optimizer.lr)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
