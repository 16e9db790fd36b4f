"""Integral probability metrics for representation balancing (Eq. 3).

The CERL objective penalises the divergence between the representation
distributions of the treatment and control groups.  The paper uses the
Wasserstein distance from the 1-Lipschitz IPM family, following CFR
(Shalit et al., 2017).  This module provides:

* :func:`mmd2_linear` and :func:`mmd2_rbf` — maximum mean discrepancy
  estimates, cheap and fully differentiable (alternative IPMs, used in the
  extension ablation bench);
* :func:`sinkhorn_wasserstein` — entropic-regularised Wasserstein distance.
  The optimal transport plan is computed with Sinkhorn iterations on the
  *detached* cost matrix and treated as a constant, while gradients flow
  through the cost matrix itself (the "envelope" approximation used by the
  reference CFR implementation);
* :func:`wasserstein_1d_exact` — exact one-dimensional Wasserstein distance
  on raw NumPy arrays, used by tests to validate the Sinkhorn approximation;
* :func:`mmd2_linear_np` and :func:`mmd2_rbf_np` — ndarray front-doors of the
  MMD estimators for graph-free callers (drift monitoring, diagnostics).
  They evaluate exactly the floating-point expressions of the Tensor versions
  (including the Tensor idiom ``mean = sum * (1/n)``), so their results are
  bit-for-bit identical — pinned by a parity test — while never touching the
  autograd substrate.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..nn.tensor import Tensor, no_grad

__all__ = [
    "mmd2_linear",
    "mmd2_linear_np",
    "mmd2_rbf",
    "mmd2_rbf_np",
    "rbf_kernel_mean_np",
    "sinkhorn_wasserstein",
    "wasserstein_1d_exact",
    "ipm_distance",
]


def _validate_groups(treated: Tensor, control: Tensor) -> None:
    if treated.ndim != 2 or control.ndim != 2:
        raise ValueError("IPM inputs must be 2-D (n_units, representation_dim)")
    if treated.shape[1] != control.shape[1]:
        raise ValueError(
            "treated and control representations must share the same dimensionality; "
            f"got {treated.shape[1]} and {control.shape[1]}"
        )
    if treated.shape[0] == 0 or control.shape[0] == 0:
        raise ValueError("IPM inputs must contain at least one unit per group")


def mmd2_linear(treated: Tensor, control: Tensor) -> Tensor:
    """Squared linear-kernel MMD: squared distance between group means."""
    _validate_groups(treated, control)
    diff = treated.mean(axis=0) - control.mean(axis=0)
    return (diff * diff).sum()


def mmd2_rbf(treated: Tensor, control: Tensor, sigma: float = 1.0) -> Tensor:
    """Squared RBF-kernel MMD between treated and control representations.

    Uses the biased V-statistic estimator, which is non-negative and
    differentiable everywhere.
    """
    _validate_groups(treated, control)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    gamma = 1.0 / (2.0 * sigma ** 2)

    def kernel_mean(a: Tensor, b: Tensor) -> Tensor:
        # Squared pairwise distances via the expansion |a|^2 + |b|^2 - 2 a.b
        a_sq = (a * a).sum(axis=1, keepdims=True)
        b_sq = (b * b).sum(axis=1, keepdims=True)
        cross = a @ b.T
        d2 = a_sq + b_sq.T - 2.0 * cross
        d2 = d2.clip(0.0, np.inf)
        return (d2 * (-gamma)).exp().mean()

    return kernel_mean(treated, treated) + kernel_mean(control, control) - 2.0 * kernel_mean(treated, control)


def _as_group_array(values, label: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"{label} must be a 2-D array (n_units, dim); got shape {array.shape}")
    return array


def _validate_groups_np(treated: np.ndarray, control: np.ndarray) -> None:
    if treated.shape[1] != control.shape[1]:
        raise ValueError(
            "treated and control samples must share the same dimensionality; "
            f"got {treated.shape[1]} and {control.shape[1]}"
        )
    if treated.shape[0] == 0 or control.shape[0] == 0:
        raise ValueError("IPM inputs must contain at least one unit per group")


def mmd2_linear_np(treated: np.ndarray, control: np.ndarray) -> float:
    """Squared linear-kernel MMD on raw ndarrays, bit-identical to :func:`mmd2_linear`.

    The Tensor version computes each group mean as ``sum(axis=0) * (1/n)``
    (not ``np.mean``); this front-door reproduces that expression exactly, so
    graph-free callers (the drift monitor, diagnostics) get the same float to
    the last bit without paying for Tensor wrappers.
    """
    treated = _as_group_array(treated, "treated")
    control = _as_group_array(control, "control")
    _validate_groups_np(treated, control)
    diff = treated.sum(axis=0) * (1.0 / treated.shape[0]) - control.sum(axis=0) * (
        1.0 / control.shape[0]
    )
    return float((diff * diff).sum())


def rbf_kernel_mean_np(a: np.ndarray, b: np.ndarray, gamma: float) -> float:
    """Mean RBF kernel value between all pairs of rows of ``a`` and ``b``.

    The shared building block of :func:`mmd2_rbf_np` and the drift monitor's
    cached scorer; evaluates exactly the expression sequence of the Tensor
    ``kernel_mean`` closure in :func:`mmd2_rbf` so composed results stay
    bitwise identical to the Tensor path.
    """
    a_sq = (a * a).sum(axis=1, keepdims=True)
    b_sq = (b * b).sum(axis=1, keepdims=True)
    cross = a @ b.T
    d2 = a_sq + b_sq.T - 2.0 * cross
    d2 = np.clip(d2, 0.0, np.inf)
    kernel = np.exp(d2 * (-gamma))
    return float(kernel.sum() * (1.0 / kernel.size))


def mmd2_rbf_np(treated: np.ndarray, control: np.ndarray, sigma: float = 1.0) -> float:
    """Squared RBF-kernel MMD on raw ndarrays, bit-identical to :func:`mmd2_rbf`."""
    treated = _as_group_array(treated, "treated")
    control = _as_group_array(control, "control")
    _validate_groups_np(treated, control)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    gamma = 1.0 / (2.0 * sigma ** 2)
    return (
        rbf_kernel_mean_np(treated, treated, gamma)
        + rbf_kernel_mean_np(control, control, gamma)
        - 2.0 * rbf_kernel_mean_np(treated, control, gamma)
    )


def _pairwise_sq_dists(a: Tensor, b: Tensor) -> Tensor:
    a_sq = (a * a).sum(axis=1, keepdims=True)
    b_sq = (b * b).sum(axis=1, keepdims=True)
    cross = a @ b.T
    return (a_sq + b_sq.T - 2.0 * cross).clip(0.0, np.inf)


def _sinkhorn_plan(cost: np.ndarray, epsilon: float, num_iters: int) -> np.ndarray:
    """Compute the entropic optimal transport plan between uniform marginals.

    Runs Sinkhorn iterations in the log domain for numerical stability.  The
    inner loop is fully vectorised over one pre-allocated ``(n, m)`` workspace:
    each half-update writes the kernel-plus-potential matrix, the shifted
    exponential and the row/column log-sum-exp into the same buffer, so no
    per-iteration arrays are allocated.  The arithmetic (operation order and
    associativity) is kept identical to the straightforward implementation, so
    the returned plan is bit-for-bit the same.
    """
    n, m = cost.shape
    log_mu = -np.log(n) * np.ones(n)
    log_nu = -np.log(m) * np.ones(m)
    log_k = -cost / epsilon
    f = np.zeros(n)
    g = np.zeros(m)
    workspace = np.empty((n, m))
    f_scaled = np.empty(n)
    g_scaled = np.empty(m)
    for _ in range(num_iters):
        # f_i = eps * (log mu_i - logsumexp_j((g_j - C_ij)/eps))
        np.divide(g, epsilon, out=g_scaled)
        np.add(log_k, g_scaled[None, :], out=workspace)
        f = epsilon * (log_mu - _logsumexp_inplace(workspace, axis=1))
        np.divide(f, epsilon, out=f_scaled)
        np.add(log_k, f_scaled[:, None], out=workspace)
        g = epsilon * (log_nu - _logsumexp_inplace(workspace, axis=0))
    np.divide(f, epsilon, out=f_scaled)
    np.add(log_k, f_scaled[:, None], out=workspace)
    np.divide(g, epsilon, out=g_scaled)
    np.add(workspace, g_scaled[None, :], out=workspace)
    return np.exp(workspace, out=workspace)


def _logsumexp_inplace(values: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp along ``axis``, scratching over ``values`` to avoid temporaries."""
    maxes = values.max(axis=axis, keepdims=True)
    np.subtract(values, maxes, out=values)
    np.exp(values, out=values)
    out = np.log(values.sum(axis=axis, keepdims=True)) + maxes
    return np.squeeze(out, axis=axis)


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    maxes = values.max(axis=axis, keepdims=True)
    out = np.log(np.exp(values - maxes).sum(axis=axis, keepdims=True)) + maxes
    return np.squeeze(out, axis=axis)


def sinkhorn_wasserstein(
    treated: Tensor,
    control: Tensor,
    epsilon: float = 0.1,
    num_iters: int = 50,
    squared_cost: bool = True,
) -> Tensor:
    """Entropic-regularised Wasserstein distance between the two groups.

    Parameters
    ----------
    treated, control:
        Representation matrices of shape ``(n_t, d)`` and ``(n_c, d)``.
    epsilon:
        Entropic-regularisation strength; smaller values approximate the true
        Wasserstein distance more closely but need more iterations.
    num_iters:
        Number of Sinkhorn iterations.
    squared_cost:
        If ``True`` the ground cost is the squared Euclidean distance
        (Wasserstein-2-like); otherwise the Euclidean distance.

    Notes
    -----
    The transport plan is computed on the detached cost matrix (no gradient
    flows through the Sinkhorn iterations); gradients flow only through the
    final ``<plan, cost>`` inner product.  This is the standard approximation
    used in CFR-Wass training and is exact at the optimum by the envelope
    theorem of the regularised OT objective.
    """
    _validate_groups(treated, control)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if num_iters <= 0:
        raise ValueError("num_iters must be positive")

    cost = _pairwise_sq_dists(treated, control)
    if not squared_cost:
        cost = (cost + 1e-12).sqrt()

    with no_grad():
        cost_detached = cost.data.copy()
        scale = max(float(cost_detached.max()), 1e-8)
        plan = _sinkhorn_plan(cost_detached / scale, epsilon=epsilon, num_iters=num_iters)

    plan_tensor = Tensor(plan)
    return (plan_tensor * cost).sum()


def wasserstein_1d_exact(a: np.ndarray, b: np.ndarray) -> float:
    """Exact 1-Wasserstein (earth mover's) distance between 1-D samples.

    Computed from the quantile-function representation; used as a reference
    value in the test suite.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    all_points = np.concatenate([a, b])
    all_points.sort(kind="mergesort")
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    deltas = np.diff(all_points)
    cdf_a = np.searchsorted(a_sorted, all_points[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b_sorted, all_points[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def ipm_distance(
    treated: Tensor,
    control: Tensor,
    kind: Literal["wasserstein", "mmd_linear", "mmd_rbf"] = "wasserstein",
    epsilon: float = 0.1,
    num_iters: int = 30,
    sigma: float = 1.0,
) -> Tensor:
    """Dispatch to the configured IPM.

    ``wasserstein`` follows the paper (Eq. 3); the MMD variants are provided
    for the IPM-choice ablation bench documented in DESIGN.md.
    """
    if kind == "wasserstein":
        return sinkhorn_wasserstein(treated, control, epsilon=epsilon, num_iters=num_iters)
    if kind == "mmd_linear":
        return mmd2_linear(treated, control)
    if kind == "mmd_rbf":
        return mmd2_rbf(treated, control, sigma=sigma)
    raise ValueError(f"unknown IPM kind '{kind}'")
