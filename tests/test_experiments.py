"""Tests for the tracking-strategy bound experiments."""

import math

import numpy as np
import pytest

from pilotspace.crb import NoiseModel, crb_min
from pilotspace.experiments import (
    AC_STRATEGY,
    PROPOSED_STRATEGY,
    ExperimentConfig,
    ac_strategy_bound,
    generate_clustered_channel,
    ls_gain_estimate,
    proposed_strategy_bound,
    psnr,
    refine_angles,
    relative_bias,
    relative_crb,
    run_multipath,
    run_single_path,
)
from pilotspace.models import (
    PathSet,
    UlaGeometry,
    estimated_variation_space,
    physical_model,
    steering_matrix,
    steering_vector,
)
from pilotspace.pilot import design_observation_matrix
from pilotspace.variation import canonical_decompose, variation_space

SINGLE_PATH_RATIO = 2 * (1 / math.sqrt(2) + 0.5) ** 2  # Proposed/AC floor ratio


@pytest.fixture(scope="module")
def single_path_table():
    return run_single_path(ExperimentConfig())


@pytest.fixture(scope="module")
def multipath_outcome():
    config = ExperimentConfig(n_trials=40, seed=7)
    return run_multipath(config), config


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="grid"):
            ExperimentConfig(psnr_grid_db=())
        with pytest.raises(ValueError, match="n_trials"):
            ExperimentConfig(n_trials=0)
        with pytest.raises(ValueError, match="power"):
            ExperimentConfig(power=0.0)


class TestPsnr:
    def test_unit_case(self):
        assert psnr(1.0, np.array([1.0]), 1.0) == pytest.approx(1.0)

    def test_noise_linearity(self):
        h = np.array([1.0, 1j])
        assert psnr(1.0, h, 0.5) == pytest.approx(2 * psnr(1.0, h, 1.0))

    def test_formula(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=5) + 1j * rng.normal(size=5)
        P, sigma2 = 2.3, 0.7
        assert psnr(P, h, sigma2) == pytest.approx(
            P * np.linalg.norm(h) ** 2 / sigma2, rel=1e-12
        )


class TestRelativeCrb:
    def test_matched_single_path(self):
        geom = UlaGeometry(64)
        phi, P, sigma2 = 0.0, 1.0, 0.1
        theta = np.array([1.0, 0.0, phi])
        model = physical_model(geom, 1)
        vb = variation_space(model, theta)
        dec = canonical_decompose(vb)
        design = design_observation_matrix(dec, P)
        h = model.evaluate(theta)
        rel = relative_crb(vb, design.M, sigma2, h)
        ref = crb_min(dec.c, 3, NoiseModel(sigma2), P)
        assert rel == pytest.approx(ref.value / np.linalg.norm(h) ** 2, rel=1e-9)

    def test_power_scaling(self):
        geom = UlaGeometry(16)
        theta = np.array([1.0, 0.0, 0.2])
        model = physical_model(geom, 1)
        vb = variation_space(model, theta)
        h = model.evaluate(theta)
        M = design_observation_matrix(canonical_decompose(vb), 1.0).M
        assert relative_crb(vb, math.sqrt(2) * M, 1.0, h) == pytest.approx(
            relative_crb(vb, M, 1.0, h) / 2, rel=1e-10
        )


class TestRelativeBias:
    def test_in_range(self):
        geom = UlaGeometry(8)
        E = steering_matrix(geom, [0.1, 0.5])
        h = E @ np.array([1.0, 2.0 - 1j])
        assert relative_bias(h, E) <= 1e-12

    def test_orthogonal(self):
        E = np.eye(4, dtype=complex)[:, :2]
        h = np.array([0.0, 0.0, 1.0, 1j])
        assert relative_bias(h, E) == pytest.approx(1.0)

    def test_single_path_inner_product_identity(self):
        geom = UlaGeometry(64)
        phi, phi_hat = math.radians(5.0), 0.0
        h = steering_vector(geom, phi)
        E = steering_vector(geom, phi_hat).reshape(-1, 1)
        expected = 1.0 - abs(np.vdot(steering_vector(geom, phi_hat), h)) ** 2
        assert relative_bias(h, E) == pytest.approx(expected, rel=1e-10)


class TestStrategyBounds:
    def test_ac_matched_has_no_floor(self):
        config = ExperimentConfig()
        paths = PathSet(gains=[1.0], azimuths=[0.0])
        bound = ac_strategy_bound(paths, [0.0], config)
        assert bound.pilot_length == 1
        assert bound.bias <= 1e-12
        # sigma^2 L^2 / (P ||h||^2) with L = ||h|| = P = 1.
        assert bound.crb_coefficient == pytest.approx(1.0, rel=1e-9)

    def test_ac_flat_floor_at_high_psnr(self):
        config = ExperimentConfig()
        paths = PathSet(gains=[1.0], azimuths=[math.radians(5.0)])
        bound = ac_strategy_bound(paths, [0.0], config)
        assert bound.bias > 0.5
        high = bound.relative_bound(1e8)
        assert high == pytest.approx(bound.bias, rel=1e-12)
        # The bias term carries no noise dependence at all.
        assert bound.relative_bound(1e7) == high

    def test_proposed_matched_floor(self):
        config = ExperimentConfig()
        paths = PathSet(gains=[1.0], azimuths=[0.0])
        bound = proposed_strategy_bound(paths, [0.0], config)
        assert bound.pilot_length == 2
        assert bound.bias == 0.0
        assert bound.crb_coefficient == pytest.approx(SINGLE_PATH_RATIO, rel=1e-9)

    def test_proposed_pure_slope(self):
        config = ExperimentConfig()
        paths = PathSet(gains=[1.0], azimuths=[math.radians(1.0)])
        bound = proposed_strategy_bound(paths, [0.0], config)
        grid = 10.0 ** (np.asarray(config.psnr_grid_db) / 10)
        values = bound.relative_bound(grid)
        assert values * grid == pytest.approx(
            np.full(grid.shape, bound.crb_coefficient), rel=1e-12
        )

    def test_pilot_lengths_multipath(self):
        config = ExperimentConfig()
        rng = np.random.default_rng(5)
        paths = generate_clustered_channel(rng, config.geometry)
        est = paths.azimuths + 1e-3
        ac = ac_strategy_bound(paths, est, config)
        pr = proposed_strategy_bound(paths, est, config)
        L = paths.n_paths
        assert ac.pilot_length == L
        assert pr.pilot_length == math.ceil(3 * L / 2)

    def test_azimuth_count_mismatch(self):
        config = ExperimentConfig()
        paths = PathSet(gains=[1.0], azimuths=[0.0])
        with pytest.raises(ValueError, match="per true path"):
            ac_strategy_bound(paths, [0.0, 0.1], config)


class TestRunSinglePath:
    def test_matched_ratio_at_every_grid_point(self, single_path_table):
        table = single_path_table
        _, ac = table.values(AC_STRATEGY, 0.0)
        _, pr = table.values(PROPOSED_STRATEGY, 0.0)
        assert pr / ac == pytest.approx(
            np.full(ac.shape, SINGLE_PATH_RATIO), rel=1e-9
        )

    @pytest.mark.parametrize("delta", [1.0, 5.0])
    def test_mismatched_curves(self, single_path_table, delta):
        table = single_path_table
        grid, ac = table.values(AC_STRATEGY, delta)
        _, pr = table.values(PROPOSED_STRATEGY, delta)
        # AC flattens exactly once the bias floor dominates.
        assert ac[-1] == ac[-2] == ac[-3]
        # Proposed keeps the exact 1/pSNR law and crosses below AC.
        slope = pr * 10.0 ** (grid / 10)
        assert slope == pytest.approx(np.full(grid.shape, slope[0]), rel=1e-9)
        assert np.any(pr < ac)

    def test_empty_delta_list(self):
        table = run_single_path(ExperimentConfig(delta_deg=()))
        assert table.rows == ()

    def test_row_counts(self, single_path_table):
        table = single_path_table
        config = ExperimentConfig()
        expected = 2 * len(config.delta_deg) * len(config.psnr_grid_db)
        assert len(table.rows) == expected
        assert all(r.trials == 1 for r in table.rows)


class TestGenerateClusteredChannel:
    def test_deterministic(self):
        geom = UlaGeometry(64)
        a = generate_clustered_channel(np.random.default_rng([3, 1]), geom)
        b = generate_clustered_channel(np.random.default_rng([3, 1]), geom)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.azimuths, b.azimuths)

    def test_path_count_distribution(self):
        geom = UlaGeometry(8)
        rng = np.random.default_rng(0)
        n_draws = 10_000
        counts = np.zeros(8, dtype=int)
        for _ in range(n_draws):
            counts[generate_clustered_channel(rng, geom).n_paths] += 1
        p = 1.0 / 7.0
        bound = 3 * math.sqrt(n_draws * p * (1 - p))
        for L in range(1, 8):
            assert abs(counts[L] - n_draws * p) <= bound

    def test_separation_floor(self):
        geom = UlaGeometry(16)
        rng = np.random.default_rng(1)
        floor = math.radians(2.0)
        for _ in range(200):
            paths = generate_clustered_channel(rng, geom, separation_floor_deg=2.0)
            if paths.n_paths < 2:
                continue
            az = paths.azimuths
            diff = np.abs(az[:, None] - az[None, :])
            circ = np.minimum(diff, 2 * np.pi - diff)
            iu = np.triu_indices(paths.n_paths, 1)
            assert np.min(circ[iu]) >= floor

    def test_gain_normalization(self):
        # Mean total power approaches 1 (gains drawn around a normalized profile).
        geom = UlaGeometry(8)
        rng = np.random.default_rng(2)
        totals = [
            float(np.sum(np.abs(generate_clustered_channel(rng, geom).gains) ** 2))
            for _ in range(4000)
        ]
        assert np.mean(totals) == pytest.approx(1.0, rel=0.1)

    def test_min_gain_floor(self):
        geom = UlaGeometry(8)
        rng = np.random.default_rng(3)
        for _ in range(500):
            paths = generate_clustered_channel(rng, geom)
            assert np.min(np.abs(paths.gains)) >= 1e-3 - 1e-15

    def test_infeasible_floor(self):
        geom = UlaGeometry(8)
        # Force a multi-path draw; an impossible floor must error out.
        rng = np.random.default_rng(4)
        with pytest.raises(RuntimeError, match="could not draw"):
            for _ in range(50):
                generate_clustered_channel(rng, geom, separation_floor_deg=170.0)


class TestRunMultipath:
    def test_deterministic(self, multipath_outcome):
        (table, diag), config = multipath_outcome
        table2, diag2 = run_multipath(config)
        assert table.sorted_rows() == table2.sorted_rows()
        assert diag == diag2

    def test_matched_slope_exact(self, multipath_outcome):
        (table, _), _ = multipath_outcome
        grid, pr = table.values(PROPOSED_STRATEGY, 0.0)
        slope = pr * 10.0 ** (grid / 10)
        assert slope == pytest.approx(np.full(grid.shape, slope[0]), rel=1e-9)

    def test_trial_counts(self, multipath_outcome):
        (table, _), config = multipath_outcome
        assert all(r.trials == config.n_trials for r in table.rows)

    def test_crossovers_exist(self, multipath_outcome):
        (table, _), _ = multipath_outcome
        for delta in (1.0, 5.0):
            _, ac = table.values(AC_STRATEGY, delta)
            _, pr = table.values(PROPOSED_STRATEGY, delta)
            assert np.any(pr < ac)

    def test_matched_ac_never_above_proposed(self, multipath_outcome):
        # With perfect azimuth estimates the angle-constrained model has
        # fewer parameters, hence the smaller bound everywhere.
        (table, _), _ = multipath_outcome
        _, ac = table.values(AC_STRATEGY, 0.0)
        _, pr = table.values(PROPOSED_STRATEGY, 0.0)
        assert np.all(ac <= pr * (1 + 1e-12))


class TestEstimators:
    def test_noiseless_gain_recovery(self):
        geom = UlaGeometry(32)
        azimuths = np.array([0.3, -0.5])
        gains = np.array([1.0 - 0.5j, 0.3 + 0.2j])
        E = steering_matrix(geom, azimuths)
        h = E @ gains
        est_space = estimated_variation_space(geom, azimuths)
        M = design_observation_matrix(canonical_decompose(est_space), 1.0).M
        y = np.conj(M.T) @ h
        recovered = ls_gain_estimate(y, M, E)
        assert np.allclose(recovered, gains, atol=1e-9)

    def test_non_identifiable_gains(self):
        geom = UlaGeometry(8)
        E = steering_matrix(geom, [0.1, 0.2])
        M = steering_vector(geom, 1.0).reshape(-1, 1)  # one observation, two gains
        with pytest.raises(ValueError, match="identifiable"):
            ls_gain_estimate(np.zeros(1, dtype=complex), M, E)

    def test_zero_steps_keeps_azimuths(self):
        geom = UlaGeometry(16)
        M = design_observation_matrix(
            canonical_decompose(estimated_variation_space(geom, [0.0])), 1.0
        ).M
        y = np.conj(M.T) @ steering_vector(geom, 0.01)
        out = refine_angles(y, M, [0.0], steps=0)
        assert out == pytest.approx([0.0])

    def test_descent_recovers_single_path(self):
        geom = UlaGeometry(64)
        phi_true = math.radians(1.0)   # estimate initialized at 0, truth at 1 deg
        h = steering_vector(geom, phi_true)
        M = design_observation_matrix(
            canonical_decompose(estimated_variation_space(geom, [0.0])), 1.0
        ).M
        y = np.conj(M.T) @ h
        refined = refine_angles(y, M, [0.0], steps=60)
        assert abs(refined[0] - phi_true) <= 1e-4
