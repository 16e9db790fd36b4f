"""Synthetic multi-domain observational data generator (Sec. IV-C of the paper).

The generator reproduces the paper's simulation design:

* Covariates ``X = (C, Z, I, A)`` contain confounders, instrumental variables,
  irrelevant variables and adjustment variables (Figure 2 variable roles),
  with 35 / 10 / 20 / 35 variables respectively (100 in total).
* Each domain draws ``X`` from a multivariate normal with its own mean vector
  and its own random positive-definite covariance matrix built from
  hub-Toeplitz correlation blocks (Hardin, Garcia & Golan 2013, alg. 3 style):
  within each variable type the first variable is a hub whose correlation to
  the ``i``-th variable decays from ``rho_max`` to ``rho_min`` at rate gamma,
  the rest of the block is filled with a Toeplitz structure, and different
  variable types are uncorrelated.
* The outcome follows the partially linear model (Eq. 10)
  ``Y = tau(C, A) * T + g(C, A) + eps`` with
  ``tau = sin((C,A) b_tau)^2``, ``g = cos((C,A) b_g)^2`` and ``eps ~ N(0,1)``.
* The treatment is Bernoulli with a probit propensity
  ``e0 = Phi((a - mean(a)) / std(a))`` where ``a = sin((C,Z) b_a)``, so
  selection bias depends on confounders and instruments only.  ``Phi`` is
  ``scipy.special.ndtr``: the same values as ``scipy.stats.norm.cdf``,
  without importing ``scipy.stats``.

Because ``tau`` and ``g`` depend only on confounders and adjustment variables,
instruments affect the outcome only through the treatment and irrelevant
variables affect nothing — the Figure 2 semantics, which the property tests
assert.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np
from scipy.special import ndtr

from .dataset import CausalDataset

__all__ = [
    "SyntheticConfig",
    "SyntheticDomainGenerator",
    "hub_toeplitz_correlation",
    "build_block_correlation",
]


def hub_correlations(size: int, rho_max: float, rho_min: float, gamma: float) -> np.ndarray:
    """Correlations between the hub variable and the other variables of a block.

    Implements Eq. (12) of the paper: the ``i``-th variable's correlation with
    the hub decays from ``rho_max`` to ``rho_min`` at rate ``gamma``.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    if not (0.0 <= rho_min <= rho_max < 1.0):
        raise ValueError("require 0 <= rho_min <= rho_max < 1")
    if size == 1:
        return np.array([1.0])
    correlations = np.empty(size)
    correlations[0] = 1.0
    if size == 2:
        correlations[1] = rho_max
        return correlations
    i = np.arange(2, size + 1)
    correlations[1:] = rho_max - (((i - 2) / (size - 2)) ** gamma) * (rho_max - rho_min)
    return correlations


def hub_toeplitz_correlation(
    size: int, rho_max: float = 0.8, rho_min: float = 0.2, gamma: float = 1.0
) -> np.ndarray:
    """Hub-Toeplitz correlation matrix for one variable type.

    The first row/column is the hub correlation profile; the remainder of the
    matrix is filled with the Toeplitz structure generated by that profile.
    The result is nudged to the nearest positive-definite matrix if necessary.
    """
    profile = hub_correlations(size, rho_max, rho_min, gamma)
    i = np.arange(size)
    matrix = profile[np.abs(i[:, None] - i[None, :])]  # Toeplitz: m[i, j] = profile[|i - j|]
    np.fill_diagonal(matrix, 1.0)
    return _ensure_positive_definite(matrix)


def _ensure_positive_definite(matrix: np.ndarray, min_eig: float = 1e-6) -> np.ndarray:
    """Clip eigenvalues from below and renormalise to a correlation matrix."""
    matrix = (matrix + matrix.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(matrix)
    if eigvals.min() < min_eig:
        eigvals = np.clip(eigvals, min_eig, None)
        matrix = eigvecs @ np.diag(eigvals) @ eigvecs.T
        d = np.sqrt(np.diag(matrix))
        matrix = matrix / np.outer(d, d)
    return matrix


def build_block_correlation(
    block_sizes: List[int],
    rng: np.random.Generator,
    rho_max_range: tuple = (0.6, 0.9),
    rho_min_range: tuple = (0.1, 0.3),
    gamma_range: tuple = (0.5, 2.0),
) -> np.ndarray:
    """Block-diagonal correlation matrix with one hub-Toeplitz block per type.

    Each block draws its own ``rho_max``, ``rho_min`` and decay rate, so the
    correlation structure differs between domains when the generator draws a
    fresh matrix per domain.
    """
    blocks = []
    for size in block_sizes:
        if size <= 0:
            raise ValueError("block sizes must be positive")
        rho_max = rng.uniform(*rho_max_range)
        rho_min = rng.uniform(*rho_min_range)
        rho_min = min(rho_min, rho_max - 1e-3)
        gamma = rng.uniform(*gamma_range)
        blocks.append(hub_toeplitz_correlation(size, rho_max, rho_min, gamma))
    total = sum(block_sizes)
    matrix = np.zeros((total, total))
    start = 0
    for block in blocks:
        stop = start + block.shape[0]
        matrix[start:stop, start:stop] = block
        start = stop
    return _ensure_positive_definite(matrix)


@dataclass
class SyntheticConfig:
    """Configuration of the synthetic multi-domain generator.

    Defaults follow the paper: 35 confounders, 10 instruments, 20 irrelevant
    variables, 35 adjustment variables, 10 000 units per domain.
    """

    n_confounders: int = 35
    n_instruments: int = 10
    n_irrelevant: int = 20
    n_adjustment: int = 35
    n_units: int = 10000
    noise_std: float = 1.0
    domain_mean_shift: float = 1.0
    domain_scale_spread: float = 0.3
    outcome_scale: float = 5.0
    #: Severity of selection bias.  ``1.0`` is the paper's design, untouched
    #: bitwise.  Values below 1 shrink the probit z-score toward zero
    #: (``0.0`` collapses the propensity to 0.5 everywhere — a randomised
    #: trial).  Values above 1 add selection *on the baseline outcome
    #: surface* ``g(C, A)`` (the classic "sicker units get treated" story):
    #: the z-score gains ``(strength - 1)`` times the standardised baseline
    #: outcome, so treated and control groups differ systematically in their
    #: potential outcomes and the naive difference-in-means bias grows with
    #: the strength.  Note that above 1 the adjustment variables influence
    #: treatment through ``g`` and thereby act as confounders too.
    confounding_strength: float = 1.0

    def __post_init__(self) -> None:
        for attr in ("n_confounders", "n_instruments", "n_irrelevant", "n_adjustment"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be at least 1")
        if self.n_units < 10:
            raise ValueError("n_units must be at least 10")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.confounding_strength < 0:
            raise ValueError("confounding_strength must be non-negative")

    @property
    def n_covariates(self) -> int:
        """Total number of observed covariates."""
        return self.n_confounders + self.n_instruments + self.n_irrelevant + self.n_adjustment

    @property
    def confounder_slice(self) -> slice:
        return slice(0, self.n_confounders)

    @property
    def instrument_slice(self) -> slice:
        start = self.n_confounders
        return slice(start, start + self.n_instruments)

    @property
    def irrelevant_slice(self) -> slice:
        start = self.n_confounders + self.n_instruments
        return slice(start, start + self.n_irrelevant)

    @property
    def adjustment_slice(self) -> slice:
        start = self.n_confounders + self.n_instruments + self.n_irrelevant
        return slice(start, start + self.n_adjustment)


class SyntheticDomainGenerator:
    """Generates incrementally available synthetic observational domains.

    The causal mechanism (the weights of ``tau``, ``g`` and the propensity
    score) is shared across domains; what shifts between domains is the
    covariate distribution: each domain has its own mean vector, marginal
    scales and hub-Toeplitz correlation structure, as described in Sec. IV-C.
    """

    def __init__(self, config: Optional[SyntheticConfig] = None, seed: int = 0) -> None:
        self.config = config if config is not None else SyntheticConfig()
        self.seed = seed
        mechanism_rng = np.random.default_rng(seed)
        n_effect_inputs = self.config.n_confounders + self.config.n_adjustment
        n_propensity_inputs = self.config.n_confounders + self.config.n_instruments
        # Weights generated once from U(0, 1) as in the paper; scaled by the
        # input dimension so the sin/cos arguments stay in an informative range.
        self._b_tau = mechanism_rng.uniform(0.0, 1.0, size=n_effect_inputs) / np.sqrt(n_effect_inputs)
        self._b_g = mechanism_rng.uniform(0.0, 1.0, size=n_effect_inputs) / np.sqrt(n_effect_inputs)
        self._b_a = mechanism_rng.uniform(0.0, 1.0, size=n_propensity_inputs) / np.sqrt(
            n_propensity_inputs
        )
        # Per-domain (mean, covariance), keyed by domain index.  The draws are
        # seeded per domain independently of sampling, so caching them changes
        # nothing bitwise — it only spares chunk iterators the repeated
        # eigendecompositions.  Bounded so a long-lived generator serving many
        # domains cannot hoard d x d matrices.
        self._distributions: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        self._max_cached_distributions = 16

    # ------------------------------------------------------------------ #
    # structural functions (Figure 2 semantics)
    # ------------------------------------------------------------------ #
    def treatment_effect(self, covariates: np.ndarray) -> np.ndarray:
        """True heterogeneous treatment effect tau(C, A) = scale * sin((C,A) b_tau)^2."""
        effect_inputs = self._effect_inputs(covariates)
        return self.config.outcome_scale * np.sin(effect_inputs @ self._b_tau) ** 2

    def baseline_outcome(self, covariates: np.ndarray) -> np.ndarray:
        """Baseline outcome g(C, A) = scale * cos((C,A) b_g)^2."""
        effect_inputs = self._effect_inputs(covariates)
        return self.config.outcome_scale * np.cos(effect_inputs @ self._b_g) ** 2

    def propensity(self, covariates: np.ndarray) -> np.ndarray:
        """Propensity score e0(C, Z) = Phi((a - mean(a)) / std(a)), a = sin((C,Z) b_a)."""
        propensity_inputs = np.concatenate(
            [
                covariates[:, self.config.confounder_slice],
                covariates[:, self.config.instrument_slice],
            ],
            axis=1,
        )
        a = np.sin(propensity_inputs @ self._b_a)
        std = np.std(a)
        if std < 1e-12:
            return np.full(a.shape[0], 0.5)
        z = (a - np.mean(a)) / std
        # Guarded so the default configuration reproduces the historical
        # draws bitwise.  Below 1 the z-score shrinks toward a randomised
        # trial; above 1 selection increasingly targets the baseline outcome
        # surface, which is what makes the bias grow (the paper's sin-scores
        # are nearly uncorrelated with the outcome, so merely sharpening them
        # would sharpen selection without strengthening confounding).
        strength = self.config.confounding_strength
        if strength < 1.0:
            z = z * strength
        elif strength > 1.0:
            g = self.baseline_outcome(covariates)
            g_std = np.std(g)
            if g_std > 1e-12:
                z = z + (strength - 1.0) * (g - np.mean(g)) / g_std
        return ndtr(z)

    def _effect_inputs(self, covariates: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [
                covariates[:, self.config.confounder_slice],
                covariates[:, self.config.adjustment_slice],
            ],
            axis=1,
        )

    # ------------------------------------------------------------------ #
    # domain generation
    # ------------------------------------------------------------------ #
    def generate_domain(
        self, domain_index: int, n_units: Optional[int] = None, repetition: int = 0
    ) -> CausalDataset:
        """Generate one domain's observational dataset.

        Parameters
        ----------
        domain_index:
            Index of the data source; controls the mean/covariance shift.
        n_units:
            Number of units (defaults to the configured size).
        repetition:
            Repetition index, giving independent draws with the same
            domain-level distribution (the paper repeats each simulation
            10 times).
        """
        if domain_index < 0:
            raise ValueError("domain_index must be non-negative")
        config = self.config
        n_units = n_units if n_units is not None else config.n_units
        if n_units < 10:
            raise ValueError("n_units must be at least 10")

        sample_rng = np.random.default_rng(
            self.seed + 1000 * (domain_index + 1) + 17 * (repetition + 1)
        )
        mean, covariance = self._domain_distribution(domain_index)

        covariates = sample_rng.multivariate_normal(mean, covariance, size=n_units, method="cholesky")

        tau = self.treatment_effect(covariates)
        g = self.baseline_outcome(covariates)
        propensity = self.propensity(covariates)
        treatments = (sample_rng.random(n_units) < propensity).astype(np.int64)
        noise = sample_rng.normal(0.0, config.noise_std, size=n_units)

        mu0 = g
        mu1 = g + tau
        outcomes = np.where(treatments == 1, mu1, mu0) + noise

        return CausalDataset(
            covariates=covariates,
            treatments=treatments,
            outcomes=outcomes,
            mu0=mu0,
            mu1=mu1,
            domain=domain_index,
            name=f"synthetic/domain{domain_index + 1}/rep{repetition}",
        )

    def _domain_distribution(self, domain_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(mean, covariance)`` of one domain's covariate distribution.

        The draw order inside matches the historical ``generate_domain`` body
        exactly (correlation, scales, mean — all from the per-domain rng), so
        cached and uncached paths are bitwise identical.
        """
        cached = self._distributions.get(domain_index)
        if cached is not None:
            self._distributions.move_to_end(domain_index)
            return cached
        config = self.config
        domain_rng = np.random.default_rng(self.seed + 1000 * (domain_index + 1))
        block_sizes = [
            config.n_confounders,
            config.n_instruments,
            config.n_irrelevant,
            config.n_adjustment,
        ]
        correlation = build_block_correlation(block_sizes, domain_rng)
        scales = domain_rng.uniform(
            1.0 - config.domain_scale_spread, 1.0 + config.domain_scale_spread, size=config.n_covariates
        )
        covariance = np.outer(scales, scales) * correlation
        mean = domain_rng.normal(0.0, config.domain_mean_shift, size=config.n_covariates) * domain_index
        self._distributions[domain_index] = (mean, covariance)
        while len(self._distributions) > self._max_cached_distributions:
            self._distributions.popitem(last=False)
        return mean, covariance

    def iter_chunks(
        self,
        domain_index: int,
        chunk_rows: int,
        n_chunks: Optional[int] = None,
        start_key: int = 1,
    ) -> Iterator[CausalDataset]:
        """Yield one domain's population as deterministic fixed-size chunks.

        Chunk ``k`` is exactly ``generate_domain(domain_index,
        n_units=chunk_rows, repetition=start_key + k)`` — an independent draw
        from the same domain distribution — so a population of any size can be
        streamed without ever materialising it: peak memory is one chunk.
        The same ``(seed, domain_index, chunk_rows, start_key)`` always
        replays the identical chunk sequence.

        ``n_chunks=None`` yields forever (callers bound the stream).
        """
        if chunk_rows < 10:
            raise ValueError("chunk_rows must be at least 10 (generator minimum)")
        if n_chunks is not None and n_chunks < 1:
            raise ValueError("n_chunks must be at least 1 (or None for unbounded)")
        key = start_key
        while n_chunks is None or key < start_key + n_chunks:
            yield self.generate_domain(domain_index, n_units=chunk_rows, repetition=key)
            key += 1

    def generate_stream(
        self, n_domains: int, n_units: Optional[int] = None, repetition: int = 0
    ) -> List[CausalDataset]:
        """Generate ``n_domains`` sequential domains (the paper uses five)."""
        if n_domains <= 0:
            raise ValueError("n_domains must be positive")
        return [
            self.generate_domain(d, n_units=n_units, repetition=repetition)
            for d in range(n_domains)
        ]
