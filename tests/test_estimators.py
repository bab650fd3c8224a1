"""Bounds checked against estimators that attain them."""

import numpy as np
import pytest

from pilotspace.crb import NoiseModel, crb_direct, crb_min, crb_via_variation_space
from pilotspace.models import PathSet, UlaGeometry, ls_model, physical_model, steering_matrix
from pilotspace.pilot import design_observation_matrix
from pilotspace.rlinalg import stacked_real
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


class TestPhysicalEstimator:
    """Gauss-Newton ML for y = M^H h(theta) + n, started at the truth, attains
    the physical model's CRB (``crb_direct``) at high pSNR, with pilots designed
    from the variation space at a true or a perturbed parameter point."""

    N_TX, SIGMA2, N_DRAWS, STEPS = 64, 1e-5, 2000, 5

    def channels_and_gradients(self, geom, theta):
        """h(theta) and dh/dtheta of the physical model for each row of theta."""
        gains = theta[:, 0::3] + 1j * theta[:, 1::3]
        E = steering_matrix(geom, theta[:, 2::3])                       # (D, N, L)
        dE = 1j * np.pi * geom.offsets[:, None] * np.cos(theta[:, None, 2::3]) * E
        grad = np.empty(E.shape[:-1] + (theta.shape[1],), dtype=complex)
        grad[..., 0::3] = E
        grad[..., 1::3] = 1j * E
        grad[..., 2::3] = gains[:, None, :] * dE
        return (E @ gains[..., None])[..., 0], grad

    @pytest.mark.parametrize("gains, azimuths, delta_deg", [
        ([1.0], [0.3], 0.0),
        ([1.0, 0.7 * np.exp(0.9j), 0.5 * np.exp(-2j)], [-0.5, 0.1, 0.6], 0.0),
        ([1.0, 0.7 * np.exp(0.9j), 0.5 * np.exp(-2j)], [-0.5, 0.1, 0.6], 5.0),
    ], ids=["L1", "L3", "L3-delta5"])
    def test_monte_carlo_mse_attains_crb_direct(self, gains, azimuths, delta_deg):
        geom = UlaGeometry(self.N_TX)
        model = physical_model(geom, len(gains))
        theta = PathSet(gains=gains, azimuths=azimuths).theta()
        estimate = theta.copy()
        estimate[2::3] += np.radians(delta_deg)
        M = design_observation_matrix(
            canonical_decompose(variation_space(model, estimate)), 1.0).M
        h, grad = self.channels_and_gradients(geom, theta[None])
        np.testing.assert_allclose(h[0], model.evaluate(theta), rtol=1e-13)
        np.testing.assert_allclose(grad[0], model.gradient(theta), rtol=1e-13)

        rng = np.random.default_rng([52, len(gains), int(delta_deg)])
        shape = (self.N_DRAWS, M.shape[1])
        noise = np.sqrt(self.SIGMA2 / 2.0) * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        y = h @ np.conj(M) + noise                                      # rows: M^H h + n
        thetas = np.tile(theta, (self.N_DRAWS, 1))
        for _ in range(self.STEPS):
            h_hat, grad = self.channels_and_gradients(geom, thetas)
            J = stacked_real(np.conj(M.T) @ grad)                       # (D, 2m, N_p)
            r = y - h_hat @ np.conj(M)
            Jt = np.swapaxes(J, -1, -2)
            rhs = Jt @ np.concatenate([r.real, r.imag], axis=-1)[..., None]
            thetas += np.linalg.solve(Jt @ J, rhs)[..., 0]
        h_hat, _ = self.channels_and_gradients(geom, thetas)
        err = np.sum(np.abs(h_hat - h) ** 2, axis=1)
        bound = crb_direct(model, theta, M, NoiseModel(self.SIGMA2)).value
        std_err = err.std(ddof=1) / np.sqrt(self.N_DRAWS)
        assert abs(err.mean() - bound) <= 4.0 * std_err
