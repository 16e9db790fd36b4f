"""Tests for the synthetic multi-domain generator (Figure 2 semantics, Eq. 10-12)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    SyntheticConfig,
    SyntheticDomainGenerator,
    build_block_correlation,
    hub_toeplitz_correlation,
)
from repro.data import synthetic
from repro.data.synthetic import _ensure_positive_definite, hub_correlations


class TestHubCorrelation:
    def test_formula_matches_paper_equation(self):
        """Eq. 12: R_{i,1} = rho_max - ((i-2)/(d-2))^gamma (rho_max - rho_min)."""
        correlations = hub_correlations(5, rho_max=0.8, rho_min=0.2, gamma=1.0)
        assert correlations[0] == pytest.approx(1.0)
        assert correlations[1] == pytest.approx(0.8)   # i=2 -> rho_max
        assert correlations[-1] == pytest.approx(0.2)  # i=d -> rho_min
        # linear decay in between for gamma=1
        assert correlations[2] == pytest.approx(0.8 - (1 / 3) * 0.6)

    def test_gamma_controls_decay_shape(self):
        fast = hub_correlations(10, 0.9, 0.1, gamma=0.5)
        slow = hub_correlations(10, 0.9, 0.1, gamma=2.0)
        # with gamma < 1 the correlation drops quickly; with gamma > 1 slowly
        assert fast[4] < slow[4]

    def test_small_sizes(self):
        assert hub_correlations(1, 0.8, 0.2, 1.0).tolist() == [1.0]
        np.testing.assert_allclose(hub_correlations(2, 0.8, 0.2, 1.0), [1.0, 0.8])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            hub_correlations(0, 0.8, 0.2, 1.0)
        with pytest.raises(ValueError):
            hub_correlations(5, 0.2, 0.8, 1.0)

    def test_matrix_is_positive_definite_correlation(self):
        matrix = hub_toeplitz_correlation(12, 0.85, 0.15, 1.3)
        np.testing.assert_allclose(np.diag(matrix), np.ones(12), atol=1e-9)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
        assert np.linalg.eigvalsh(matrix).min() > 0

    def test_block_correlation_structure(self, rng):
        matrix = build_block_correlation([4, 3, 5], rng)
        assert matrix.shape == (12, 12)
        assert np.linalg.eigvalsh(matrix).min() > 0
        # off-diagonal blocks are (near) zero: different variable types uncorrelated
        off_block = matrix[:4, 4:7]
        assert np.abs(off_block).max() < 0.15

    def test_block_correlation_invalid_sizes(self, rng):
        with pytest.raises(ValueError):
            build_block_correlation([4, 0], rng)


class TestConfig:
    def test_default_matches_paper(self):
        config = SyntheticConfig()
        assert config.n_confounders == 35
        assert config.n_instruments == 10
        assert config.n_irrelevant == 20
        assert config.n_adjustment == 35
        assert config.n_covariates == 100
        assert config.n_units == 10000

    def test_slices_partition_covariates(self):
        config = SyntheticConfig(n_confounders=5, n_instruments=3, n_irrelevant=4, n_adjustment=6)
        indices = np.arange(config.n_covariates)
        pieces = [
            indices[config.confounder_slice],
            indices[config.instrument_slice],
            indices[config.irrelevant_slice],
            indices[config.adjustment_slice],
        ]
        assert np.concatenate(pieces).tolist() == list(range(18))

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_confounders=0)
        with pytest.raises(ValueError):
            SyntheticConfig(n_units=5)
        with pytest.raises(ValueError):
            SyntheticConfig(noise_std=-1.0)


class TestDomainGeneration:
    @pytest.fixture(scope="class")
    def generator(self):
        config = SyntheticConfig(
            n_confounders=6, n_instruments=3, n_irrelevant=4, n_adjustment=6, n_units=300
        )
        return SyntheticDomainGenerator(config, seed=5)

    def test_domain_shapes_and_validity(self, generator):
        domain = generator.generate_domain(0)
        assert len(domain) == 300
        assert domain.n_features == 19
        assert domain.has_counterfactuals
        assert domain.n_treated > 0 and domain.n_control > 0

    def test_outcome_consistency(self, generator):
        """The factual outcome equals the matching potential outcome plus noise."""
        domain = generator.generate_domain(0)
        factual = np.where(domain.treatments == 1, domain.mu1, domain.mu0)
        residuals = domain.outcomes - factual
        assert abs(residuals.mean()) < 0.2
        assert 0.7 < residuals.std() < 1.3

    def test_treatment_effect_nonnegative_and_bounded(self, generator):
        """tau = scale * sin(.)^2 lies in [0, scale]."""
        domain = generator.generate_domain(1)
        ite = domain.true_ite
        assert np.all(ite >= -1e-9)
        assert np.all(ite <= generator.config.outcome_scale + 1e-9)

    def test_instruments_do_not_affect_potential_outcomes(self, generator):
        """Figure 2: instrumental variables influence only the treatment."""
        rng = np.random.default_rng(0)
        covariates = rng.normal(size=(50, generator.config.n_covariates))
        modified = covariates.copy()
        modified[:, generator.config.instrument_slice] += 5.0
        np.testing.assert_allclose(
            generator.treatment_effect(covariates), generator.treatment_effect(modified)
        )
        np.testing.assert_allclose(
            generator.baseline_outcome(covariates), generator.baseline_outcome(modified)
        )

    def test_instruments_do_affect_propensity(self, generator):
        rng = np.random.default_rng(1)
        covariates = rng.normal(size=(200, generator.config.n_covariates))
        modified = covariates.copy()
        modified[:, generator.config.instrument_slice] += 2.0
        assert not np.allclose(generator.propensity(covariates), generator.propensity(modified))

    def test_irrelevant_variables_affect_nothing(self, generator):
        rng = np.random.default_rng(2)
        covariates = rng.normal(size=(50, generator.config.n_covariates))
        modified = covariates.copy()
        modified[:, generator.config.irrelevant_slice] += 10.0
        np.testing.assert_allclose(
            generator.treatment_effect(covariates), generator.treatment_effect(modified)
        )
        np.testing.assert_allclose(
            generator.propensity(covariates), generator.propensity(modified)
        )

    def test_confounders_affect_both_outcome_and_treatment(self, generator):
        rng = np.random.default_rng(3)
        covariates = rng.normal(size=(100, generator.config.n_covariates))
        modified = covariates.copy()
        modified[:, generator.config.confounder_slice] += 2.0
        assert not np.allclose(
            generator.treatment_effect(covariates), generator.treatment_effect(modified)
        )
        assert not np.allclose(generator.propensity(covariates), generator.propensity(modified))

    def test_propensity_in_unit_interval(self, generator):
        domain = generator.generate_domain(2)
        propensity = generator.propensity(domain.covariates)
        assert np.all((propensity >= 0.0) & (propensity <= 1.0))

    def test_domains_have_shifted_covariate_distributions(self, generator):
        first = generator.generate_domain(0)
        third = generator.generate_domain(2)
        gap = np.linalg.norm(first.covariates.mean(axis=0) - third.covariates.mean(axis=0))
        assert gap > 0.5

    def test_repetitions_are_independent_draws_from_same_domain(self, generator):
        rep0 = generator.generate_domain(1, repetition=0)
        rep1 = generator.generate_domain(1, repetition=1)
        assert not np.allclose(rep0.covariates, rep1.covariates)
        # but the domain-level mean is similar (same distribution)
        gap = np.linalg.norm(rep0.covariates.mean(axis=0) - rep1.covariates.mean(axis=0))
        assert gap < 0.6

    def test_generate_stream(self, generator):
        stream = generator.generate_stream(3, n_units=100)
        assert len(stream) == 3
        assert all(len(domain) == 100 for domain in stream)
        assert [domain.domain for domain in stream] == [0, 1, 2]

    def test_reproducibility(self):
        config = SyntheticConfig(
            n_confounders=4, n_instruments=2, n_irrelevant=2, n_adjustment=4, n_units=80
        )
        a = SyntheticDomainGenerator(config, seed=9).generate_domain(1)
        b = SyntheticDomainGenerator(config, seed=9).generate_domain(1)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)

    def test_invalid_arguments(self, generator):
        with pytest.raises(ValueError):
            generator.generate_domain(-1)
        with pytest.raises(ValueError):
            generator.generate_domain(0, n_units=5)
        with pytest.raises(ValueError):
            generator.generate_stream(0)

class TestConfoundingStrength:
    """The confounding_strength knob: RCT at 0, the paper at 1, biased above."""

    CONFIG = dict(
        n_confounders=6, n_instruments=3, n_irrelevant=4, n_adjustment=6, n_units=400
    )

    def _domain(self, strength, seed=13):
        config = SyntheticConfig(confounding_strength=strength, **self.CONFIG)
        return SyntheticDomainGenerator(config, seed=seed).generate_domain(0)

    def test_default_strength_is_bitwise_identical_to_historical_draws(self):
        baseline = SyntheticDomainGenerator(
            SyntheticConfig(**self.CONFIG), seed=13
        ).generate_domain(0)
        explicit = self._domain(1.0)
        np.testing.assert_array_equal(baseline.covariates, explicit.covariates)
        np.testing.assert_array_equal(baseline.treatments, explicit.treatments)
        np.testing.assert_array_equal(baseline.outcomes, explicit.outcomes)

    def test_zero_strength_is_a_randomised_trial(self):
        config = SyntheticConfig(confounding_strength=0.0, **self.CONFIG)
        generator = SyntheticDomainGenerator(config, seed=13)
        domain = generator.generate_domain(0)
        np.testing.assert_allclose(generator.propensity(domain.covariates), 0.5)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(confounding_strength=-0.5)

    def test_strong_confounding_selects_sicker_units(self):
        """Above 1, treatment assignment tilts toward high baseline outcomes."""
        config = SyntheticConfig(confounding_strength=2.5, **self.CONFIG)
        generator = SyntheticDomainGenerator(config, seed=13)
        domain = generator.generate_domain(0)
        treated_mu0 = domain.mu0[domain.treatments == 1].mean()
        control_mu0 = domain.mu0[domain.treatments == 0].mean()
        assert treated_mu0 > control_mu0 + 0.5

    def test_naive_bias_grows_with_strength(self):
        from repro.core import naive_ate

        biases = []
        for strength in (1.0, 2.5):
            domain = self._domain(strength)
            biases.append(abs(naive_ate(domain) - domain.true_ate))
        assert biases[1] > biases[0] + 0.3

    def test_covariate_draws_shared_across_strengths(self):
        """The knob reshapes selection only — X and true effects are unchanged."""
        weak = self._domain(1.0)
        strong = self._domain(2.5)
        np.testing.assert_array_equal(weak.covariates, strong.covariates)
        np.testing.assert_array_equal(weak.mu0, strong.mu0)
        np.testing.assert_array_equal(weak.mu1, strong.mu1)


class TestScipySurface:
    """The generator needs only ``scipy.special``, and its draws are unchanged."""

    def test_fleet_worker_import_loads_neither_scipy_stats_nor_linalg(self):
        script = (
            "import sys\n"
            "import repro.serve.fleet.worker\n"
            "print(sorted(m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert output.stdout.strip() == "[]"

    @pytest.mark.parametrize("size", [1, 2, 5, 15, 35])
    @pytest.mark.parametrize(
        "rho_max, rho_min, gamma", [(0.8, 0.2, 1.0), (0.9, 0.1, 0.5), (0.65, 0.25, 2.0)]
    )
    def test_hub_toeplitz_matches_scipy_toeplitz_bitwise(self, size, rho_max, rho_min, gamma):
        from scipy.linalg import toeplitz

        reference = toeplitz(hub_correlations(size, rho_max, rho_min, gamma))
        np.fill_diagonal(reference, 1.0)
        reference = _ensure_positive_definite(reference)
        matrix = hub_toeplitz_correlation(size, rho_max, rho_min, gamma)
        assert matrix.dtype == reference.dtype and matrix.shape == reference.shape
        assert matrix.tobytes() == reference.tobytes()

    def test_ndtr_matches_norm_cdf_bitwise(self):
        from scipy.stats import norm

        z = np.concatenate([
            3.0 * np.random.default_rng(5).standard_normal(100_000),
            [np.inf, -np.inf, 0.0, -0.0, 40.0, -40.0],
        ])
        assert synthetic.ndtr(z).tobytes() == norm.cdf(z).tobytes()

    @pytest.mark.parametrize("strength", [0.5, 1.0, 2.5])
    def test_generate_domain_unchanged_under_norm_cdf(self, monkeypatch, strength):
        from scipy.stats import norm

        config = SyntheticConfig(confounding_strength=strength, **TestConfoundingStrength.CONFIG)
        generator = SyntheticDomainGenerator(config, seed=13)
        ours = generator.generate_domain(0)
        propensity = generator.propensity(ours.covariates)
        monkeypatch.setattr(synthetic, "ndtr", norm.cdf)
        theirs = SyntheticDomainGenerator(config, seed=13).generate_domain(0)
        for field in ("covariates", "treatments", "outcomes", "mu0", "mu1"):
            assert getattr(ours, field).tobytes() == getattr(theirs, field).tobytes(), field
        assert generator.propensity(ours.covariates).tobytes() == propensity.tobytes()


class TestSelectionBias:
    @given(st.integers(0, 4))
    @settings(max_examples=5, deadline=None)
    def test_selection_bias_property(self, domain_index):
        """Across domains, units with higher propensity are treated more often."""
        config = SyntheticConfig(
            n_confounders=5, n_instruments=3, n_irrelevant=3, n_adjustment=5, n_units=400
        )
        generator = SyntheticDomainGenerator(config, seed=21)
        domain = generator.generate_domain(domain_index)
        propensity = generator.propensity(domain.covariates)
        treated_propensity = propensity[domain.treatments == 1].mean()
        control_propensity = propensity[domain.treatments == 0].mean()
        assert treated_propensity > control_propensity
