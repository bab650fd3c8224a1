"""Tests for the tracking-strategy bound experiments."""

import math

import numpy as np
import pytest

from pilotspace.crb import EIG_RTOL, NoiseModel, crb_min
from pilotspace.experiments import (
    AC_STRATEGY,
    PROPOSED_STRATEGY,
    DrawError,
    ExperimentConfig,
    StrategyBound,
    _ac_bounds,
    _crb_coefficient,
    _crb_coefficients,
    _multipath_trial,
    _proposed_pilots,
    _steering_stack,
    ac_strategy_bound,
    generate_clustered_channel,
    proposed_strategy_bound,
    psnr,
    relative_bias,
    relative_crb,
    run_multipath,
    run_single_path,
)
from pilotspace.models import (
    PathSet,
    UlaGeometry,
    angle_constrained_model,
    estimated_variation_space,
    physical_model,
    physical_variation_space,
    steering_matrix,
    steering_vector,
)
from pilotspace.pilot import design_observation_matrix
from pilotspace.rlinalg import RankDeficientError, numerical_rank
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


class TestEndfireMargin:
    """Drawn azimuths keep the separation floor plus max|Delta| from endfire."""

    def test_default_margin(self):
        assert ExperimentConfig().endfire_margin_deg == 7.0

    @pytest.mark.parametrize("deltas", [(-5.0,), (0.0, -5.0, 1.0), (-5.0, 5.0)])
    def test_negative_delta_counts_by_magnitude(self, deltas, monkeypatch):
        import pilotspace.experiments

        margins = []
        draw = pilotspace.experiments.generate_clustered_channel

        def recording(*args, **kwargs):
            margins.append(kwargs["endfire_margin_deg"])
            return draw(*args, **kwargs)

        monkeypatch.setattr(pilotspace.experiments, "generate_clustered_channel", recording)
        run_multipath(ExperimentConfig(delta_deg=deltas, n_trials=2,
                                       psnr_grid_db=(0.0,)))
        assert margins and set(margins) == {7.0}

    @pytest.mark.parametrize("floor, deltas", [(2.0, (400.0,)), (2.0, (88.0,)),
                                               (2.0, (0.0, -88.0)), (90.0, ())])
    def test_margin_at_or_past_endfire_rejected(self, floor, deltas):
        with pytest.raises(ValueError, match="below 90 deg"):
            ExperimentConfig(separation_floor_deg=floor, delta_deg=deltas)

    def test_margin_below_endfire_accepted(self):
        assert ExperimentConfig(delta_deg=(-87.5,)).endfire_margin_deg == 89.5


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


def _separated_paths(rng, L, floor_deg=2.0):
    """L paths with azimuths in (-60, 60) deg whose sines are floor-separated."""
    while True:
        az = rng.uniform(-math.radians(60.0), math.radians(60.0), size=L)
        sines = np.sin(az)
        gaps = np.abs(sines[:, None] - sines[None, :])[np.triu_indices(L, 1)]
        if L == 1 or gaps.min() >= math.sin(math.radians(floor_deg)):
            gains = rng.normal(size=L) + 1j * rng.normal(size=L)
            return PathSet(gains=gains, azimuths=az)


def _general_ac_coefficient(paths, est, config):
    """AC coefficient through the gains-only model's variation space."""
    geom = config.geometry
    L = paths.n_paths
    basis = variation_space(angle_constrained_model(geom, est), np.zeros(2 * L))
    M = math.sqrt(config.power / L) * steering_matrix(geom, est)
    h = steering_matrix(geom, paths.azimuths) @ paths.gains
    return _crb_coefficient(basis, M, config.power, h)


class TestAcClosedForm:
    @pytest.mark.parametrize("L", range(1, 8))
    @pytest.mark.parametrize("delta", [0.0, 1.0, 5.0])
    def test_matches_general_route(self, L, delta):
        config = ExperimentConfig(power=2.5)
        rng = np.random.default_rng([11, L, int(delta)])
        paths = _separated_paths(rng, L)
        est = paths.azimuths + math.radians(delta) * rng.uniform(-1.0, 1.0, size=L)
        closed = ac_strategy_bound(paths, est, config).crb_coefficient
        assert math.isfinite(closed)
        assert closed == pytest.approx(
            _general_ac_coefficient(paths, est, config), rel=1e-12
        )

    def test_singular_compression_is_infinite(self):
        # Estimates 1e-8 rad apart pass the rank test of E_hat but leave the
        # compression singular: both routes report a non-identifiable pair.
        config = ExperimentConfig()
        paths = PathSet(gains=[1.0, 0.5j], azimuths=[0.3, -0.4])
        est = [0.3, 0.3 + 1e-8]
        bound = ac_strategy_bound(paths, est, config)
        assert bound.crb_coefficient == math.inf
        assert _general_ac_coefficient(paths, est, config) == math.inf
        assert 0.0 <= bound.bias <= 1.0

    def test_coincident_estimates_raise(self):
        config = ExperimentConfig()
        paths = PathSet(gains=[1.0, 0.5j], azimuths=[0.3, -0.4])
        with pytest.raises(RankDeficientError):
            ac_strategy_bound(paths, [0.3, 0.3], config)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 5.0])
    def test_precomputed_inputs_give_equal_bounds(self, delta):
        config = ExperimentConfig()
        geom = config.geometry
        rng = np.random.default_rng([12, int(delta)])
        paths = _separated_paths(rng, 4)
        est = paths.azimuths + math.radians(delta) * rng.uniform(-1.0, 1.0, size=4)
        h = steering_matrix(geom, paths.azimuths) @ paths.gains
        true_basis = physical_variation_space(geom, paths.azimuths)
        proposed = proposed_strategy_bound(paths, est, config)
        assert proposed_strategy_bound(
            paths, est, config, h=h, true_basis=true_basis
        ).crb_coefficient == proposed.crb_coefficient
        assert ac_strategy_bound(paths, est, config, h=h) == ac_strategy_bound(
            paths, est, config
        )

    def test_exact_estimates_match_estimated_space_route(self):
        config = ExperimentConfig()
        geom = config.geometry
        paths = _separated_paths(np.random.default_rng(13), 3)
        h = steering_matrix(geom, paths.azimuths) @ paths.gains
        est_space = estimated_variation_space(geom, paths.azimuths)
        M = design_observation_matrix(canonical_decompose(est_space), config.power).M
        expected = _crb_coefficient(
            physical_variation_space(geom, paths.azimuths), M, config.power, h
        )
        bound = proposed_strategy_bound(paths, paths.azimuths.copy(), config)
        assert bound.crb_coefficient == expected


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


def _trial_draw(config, trial_index):
    """The channel and per-Delta estimates of a trial that needs no redraw."""
    rng = np.random.default_rng([config.seed, trial_index])
    paths = generate_clustered_channel(
        rng, config.geometry,
        separation_floor_deg=config.separation_floor_deg,
        endfire_margin_deg=config.endfire_margin_deg,
        cluster_decay=config.cluster_decay, min_gain=config.min_gain,
        max_retries=config.max_redraws,
    )
    unit = rng.uniform(-1.0, 1.0, size=paths.n_paths)
    return paths, [paths.azimuths + math.radians(d) * unit for d in config.delta_deg]


def _previous_trial(config, trial_index):
    """The per-Delta multipath trial loop the batched trial replaced.

    AC: singular values without vectors for the rank test and the closed
    form, a QR for the bias; Proposed: crb_via_variation_space per Delta.
    Returns (ac_coefficient, ac_bias, proposed_coefficient) lists.
    """
    rng = np.random.default_rng([config.seed, trial_index])
    geom = config.geometry
    for _ in range(config.max_redraws):
        try:
            paths = generate_clustered_channel(
                rng, geom,
                separation_floor_deg=config.separation_floor_deg,
                endfire_margin_deg=config.endfire_margin_deg,
                cluster_decay=config.cluster_decay, min_gain=config.min_gain,
                max_retries=config.max_redraws,
            )
            unit = rng.uniform(-1.0, 1.0, size=paths.n_paths)
            L = paths.n_paths
            h = steering_matrix(geom, paths.azimuths) @ paths.gains
            true_basis = physical_variation_space(geom, paths.azimuths)
            out = ([], [], [])
            for delta in config.delta_deg:
                est = paths.azimuths + math.radians(delta) * unit
                E_hat = steering_matrix(geom, est)
                s = np.linalg.svd(E_hat, compute_uv=False)
                if numerical_rank(s) < L:
                    raise RankDeficientError("E_hat is rank deficient")
                Q, _ = np.linalg.qr(E_hat)
                resid = h - Q @ (np.conj(Q.T) @ h)
                hnorm2 = float(np.linalg.norm(h) ** 2)
                out[1].append(min(1.0, max(0.0, float(np.linalg.norm(resid) ** 2) / hnorm2)))
                singular = s[-1] ** 2 <= EIG_RTOL * s[0] ** 2
                out[0].append(math.inf if singular else L * float(np.sum(1.0 / s**2)))
                if np.array_equal(est, paths.azimuths):
                    est_space = true_basis
                else:
                    est_space = estimated_variation_space(geom, est)
                M = design_observation_matrix(canonical_decompose(est_space), config.power).M
                out[2].append(relative_crb(true_basis, M, 1.0, h) * psnr(config.power, h, 1.0))
            return out
        except RankDeficientError:
            continue
    raise RuntimeError("redraws exhausted")


@pytest.fixture
def skew_forms(monkeypatch):
    """Every skew canonical form computed while the fixture is active."""
    import pilotspace.variation

    forms = []
    real = pilotspace.variation.skew_canonical_form

    def recording(A, *args, **kwargs):
        form = real(A, *args, **kwargs)
        forms.append(form)
        return form

    monkeypatch.setattr(pilotspace.variation, "skew_canonical_form", recording)
    return forms


class TestBatchedTrial:
    """A multipath trial computes its Delta values together."""

    CONFIG = ExperimentConfig(n_trials=10, seed=7)

    @pytest.mark.parametrize("trial_index", range(4))
    def test_batch_equals_per_delta_wrappers(self, trial_index):
        config = self.CONFIG
        (ac_coef, ac_bias, pr_coef), redraws = _multipath_trial(config, trial_index)
        assert redraws == 0
        paths, estimates = _trial_draw(config, trial_index)
        for i, est in enumerate(estimates):
            ac = ac_strategy_bound(paths, est, config)
            assert (ac.crb_coefficient, ac.bias) == (ac_coef[i], ac_bias[i])
            assert proposed_strategy_bound(paths, est, config).crb_coefficient == pr_coef[i]

    def test_kernels_batch_equals_batch_of_one(self):
        config = ExperimentConfig(delta_deg=(0.0, 0.5, 1.0, 5.0))
        geom = config.geometry
        paths, estimates = _trial_draw(config, 3)
        h = steering_matrix(geom, paths.azimuths) @ paths.gains
        true_basis = physical_variation_space(geom, paths.azimuths)
        stack = _steering_stack(geom, np.array(estimates))
        coef, bias = _ac_bounds(h, stack)
        Ms = np.array([_proposed_pilots(geom, est, paths.azimuths, true_basis, config.power)
                       for est in estimates])
        pr = _crb_coefficients(true_basis, Ms, config.power, h)
        for i, est in enumerate(estimates):
            assert np.array_equal(stack[i], steering_matrix(geom, est))
            one_coef, one_bias = _ac_bounds(h, stack[i:i + 1])
            assert (one_coef[0], one_bias[0]) == (coef[i], bias[i])
            assert relative_bias(h, stack[i]) == bias[i]
            assert _crb_coefficient(true_basis, Ms[i], config.power, h) == pr[i]

    def test_any_degenerate_estimate_raises(self):
        config = ExperimentConfig()
        geom = config.geometry
        h = steering_matrix(geom, [0.3, -0.4]) @ np.array([1.0, 0.5j])
        estimates = np.array([[0.3, -0.4], [0.3, 0.3]])
        with pytest.raises(RankDeficientError):
            _ac_bounds(h, _steering_stack(geom, estimates))

    def test_matches_previous_loop_on_reference_trials(self, skew_forms):
        # The seed-7 benchmark reference: configs 700000..700009, 10 trials each.
        for seed in range(700_000, 700_010):
            config = ExperimentConfig(n_trials=10, seed=seed)
            for t in range(config.n_trials):
                skew_forms.clear()
                (ac_coef, ac_bias, pr_coef), _ = _multipath_trial(config, t)
                batched = list(skew_forms)
                skew_forms.clear()
                previous = _previous_trial(config, t)
                assert len(batched) == len(skew_forms) == len(config.delta_deg)
                for new, old in zip(batched, skew_forms):
                    assert np.array_equal(new.B, old.B)
                    assert np.array_equal(new.gamma, old.gamma)
                assert ac_coef == pytest.approx(previous[0], rel=1e-10, abs=0)
                assert pr_coef == pytest.approx(previous[2], rel=1e-10, abs=0)
                # A bias is a squared residual in [0, 1]; at Delta = 0 it is
                # rounding noise (~1e-30) that differs between SVD and QR.
                assert ac_bias == pytest.approx(previous[1], rel=1e-10, abs=1e-15)

    def test_curves_match_per_bound_accumulation(self):
        config = ExperimentConfig(n_trials=6, seed=11)
        table, _ = run_multipath(config)
        psnr_lin = np.array([10.0 ** (db / 10.0) for db in config.psnr_grid_db])
        for i, delta in enumerate(config.delta_deg):
            sums = {AC_STRATEGY: 0.0, PROPOSED_STRATEGY: 0.0}
            for t in range(config.n_trials):
                (ac_coef, ac_bias, pr_coef), _ = _multipath_trial(config, t)
                sums[AC_STRATEGY] = sums[AC_STRATEGY] + StrategyBound(
                    AC_STRATEGY, 1, ac_coef[i], ac_bias[i]).relative_bound(psnr_lin)
                sums[PROPOSED_STRATEGY] = sums[PROPOSED_STRATEGY] + StrategyBound(
                    PROPOSED_STRATEGY, 1, pr_coef[i]).relative_bound(psnr_lin)
            for strategy, acc in sums.items():
                _, values = table.values(strategy, delta)
                assert np.array_equal(values, acc / config.n_trials)

    def test_no_delta_values(self):
        table, info = run_multipath(ExperimentConfig(delta_deg=(), n_trials=3))
        assert table.rows == ()
        assert info == {"redraws": 0}

    def test_redraws_exhausted_is_a_draw_error(self, monkeypatch):
        import pilotspace.experiments

        def degenerate(geom, azimuths):
            raise RankDeficientError("degenerate")

        monkeypatch.setattr(pilotspace.experiments, "physical_variation_space", degenerate)
        with pytest.raises(DrawError, match="after 2 redraws"):
            run_multipath(ExperimentConfig(n_trials=1, max_redraws=2))
