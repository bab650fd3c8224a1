"""Bounds checked against estimators that attain them."""

import numpy as np
import pytest

from pilotspace.crb import NoiseModel, crb_direct, crb_min, crb_via_variation_space
from pilotspace.models import ls_model
from pilotspace.pilot import design_observation_matrix
from pilotspace.variation import canonical_decompose, variation_space


class TestLsEstimator:
    """With square pilots, h_hat = M^{-H} y is unbiased with error M^{-H} n,
    so its MSE is sigma^2 Tr[(M M^H)^{-1}]: the LS bound at the optimal M."""

    N_TX, POWER, SIGMA2 = 8, 1.7, 0.3

    def _case(self):
        model = ls_model(self.N_TX)
        theta = np.random.default_rng(50).normal(size=2 * self.N_TX)
        basis = variation_space(model, theta)
        design = design_observation_matrix(canonical_decompose(basis), self.POWER,
                                           self.SIGMA2)
        return model, theta, basis, design.M

    def test_closed_form_mse_equals_the_bounds(self):
        model, theta, basis, M = self._case()
        noise = NoiseModel(self.SIGMA2)
        assert M.shape == (self.N_TX, self.N_TX)
        mse = self.SIGMA2 * np.trace(np.linalg.inv(M @ np.conj(M.T))).real
        bound = crb_min(np.ones(self.N_TX), 2 * self.N_TX, noise, self.POWER).value
        assert bound == pytest.approx(self.SIGMA2 * self.N_TX**2 / self.POWER, rel=1e-12)
        assert mse == pytest.approx(bound, rel=1e-12)
        assert crb_via_variation_space(basis, M, noise).value == pytest.approx(mse, rel=1e-12)
        assert crb_direct(model, theta, M, noise).value == pytest.approx(mse, rel=1e-12)

    def test_monte_carlo_mse_attains_the_bound(self):
        model, theta, basis, M = self._case()
        h = model.evaluate(theta)
        rng = np.random.default_rng(51)
        n_draws = 4000
        noise = np.sqrt(self.SIGMA2 / 2.0) * (
            rng.normal(size=(n_draws, self.N_TX)) + 1j * rng.normal(size=(n_draws, self.N_TX)))
        y = h @ np.conj(M) + noise                     # rows: y = M^H h + n
        h_hat = np.linalg.solve(np.conj(M.T), y.T).T   # rows: M^{-H} y
        err = np.sum(np.abs(h_hat - h) ** 2, axis=1)
        bound = crb_via_variation_space(basis, M, NoiseModel(self.SIGMA2)).value
        std_err = err.std(ddof=1) / np.sqrt(n_draws)
        assert abs(err.mean() - bound) <= 4.0 * std_err
