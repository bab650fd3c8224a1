"""Tests for the tracking-strategy bound experiments."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from pilotspace.cli import main
from pilotspace.crb import (
    EIG_RTOL,
    NoiseModel,
    compression_spectra,
    crb_min,
    crb_via_variation_space,
)
from pilotspace.experiments import (
    AC_STRATEGY,
    PROPOSED_STRATEGY,
    STACK_TRIALS,
    STRATEGIES,
    DrawError,
    ExperimentConfig,
    _curve_rows,
    _strategy_bounds,
    ac_strategy_bound,
    generate_clustered_channel,
    proposed_strategy_bound,
    relative_bias,
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
from pilotspace.rlinalg import RANK_RTOL, RankDeficientError, numerical_rank, r_orthonormalize
from pilotspace.variation import canonical_decompose, variation_space

SINGLE_PATH_RATIO = 2 * (1 / math.sqrt(2) + 0.5) ** 2  # Proposed/AC floor ratio
# The benchmark's stored seed-7 curves and its tolerance for them
# (REFERENCE_RTOL in bench/workloads.py).
REFERENCE_CURVES = (Path(__file__).resolve().parents[1]
                    / "bench" / "reference" / "multipath_seed7.json")
REFERENCE_RTOL = 1e-8


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
        with pytest.raises(ValueError, match="cluster_decay"):
            ExperimentConfig(cluster_decay=0.0)

    def test_zero_redraw_budget_rejected(self):
        # A zero budget would make run_multipath fail without drawing once.
        with pytest.raises(ValueError, match="max_redraws must be positive"):
            ExperimentConfig(max_redraws=0)

    @pytest.mark.parametrize("key", ["min_gain", "cluster_decay", "separation_floor_deg"])
    def test_negative_draw_parameter_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key} must be positive"):
            ExperimentConfig(**{key: -1.0})

    def test_psnr_grid_extremes(self):
        # The widest integer grid whose pSNR values are finite doubles above
        # 0 runs without a warning: a bound past the largest double is +inf.
        for refused in (-3237, 3083):
            with pytest.raises(ValueError, match="psnr_grid_db entries must give"):
                ExperimentConfig(psnr_grid_db=(refused,))
        config = ExperimentConfig(psnr_grid_db=(-3236, 3082), n_trials=2)
        for table in (run_single_path(config), run_multipath(config)[0]):
            for r in table.rows:
                assert (r.relative_bound == math.inf) == (r.psnr_db == -3236.0)
                assert r.relative_bound > 0

    def test_numpy_and_range_inputs(self):
        # Stored as Python ints and tuples of floats, so equal to the plain form.
        reference = ExperimentConfig(n_antennas=16, delta_deg=(0.0, 1.0, 5.0),
                                     psnr_grid_db=(-10.0, 0.0, 10.0), n_trials=3, seed=5,
                                     cluster_decay=2.0, max_redraws=50)
        built = ExperimentConfig(n_antennas=np.int64(16), delta_deg=np.array([0, 1, 5]),
                                 psnr_grid_db=range(-10, 11, 10), n_trials=np.uint8(3),
                                 seed=np.int32(5), cluster_decay=np.float32(2.0),
                                 max_redraws=np.int16(50))
        assert built == reference
        assert type(built.seed) is int and type(built.cluster_decay) is float
        assert all(type(d) is float for d in built.delta_deg + built.psnr_grid_db)
        assert run_multipath(built)[0].rows == run_multipath(reference)[0].rows


class TestEndfireMargin:
    """Drawn azimuths keep the separation floor plus max|Delta| from endfire."""

    def test_default_margin(self):
        assert ExperimentConfig().endfire_margin_deg == 7.0

    @pytest.mark.parametrize("deltas", [(-5.0,), (0.0, -5.0, 1.0), (-5.0, 5.0)])
    def test_negative_delta_counts_by_magnitude(self, deltas, monkeypatch):
        import pilotspace.experiments

        margins = []
        draw = pilotspace.experiments.generate_clustered_channel

        def recording(rng, config):
            margins.append(config.endfire_margin_deg)
            return draw(rng, config)

        monkeypatch.setattr(pilotspace.experiments, "generate_clustered_channel", recording)
        run_multipath(ExperimentConfig(delta_deg=deltas, n_trials=2,
                                       psnr_grid_db=(0.0,)))
        assert margins and set(margins) == {7.0}

    @pytest.mark.parametrize("floor, deltas", [(2.0, (400.0,)), (2.0, (88.0,)),
                                               (2.0, (0.0, -88.0)), (90.0, (0.0,))])
    def test_margin_at_or_past_endfire_rejected(self, floor, deltas):
        with pytest.raises(ValueError, match="below 90 deg"):
            ExperimentConfig(separation_floor_deg=floor, delta_deg=deltas)

    def test_margin_below_endfire_accepted(self):
        assert ExperimentConfig(delta_deg=(-87.5,)).endfire_margin_deg == 89.5


def relative_crb(true_basis, M, sigma2, h):
    """CRB divided by the squared channel norm (+inf when not identifiable)."""
    report = crb_via_variation_space(true_basis, M, NoiseModel(sigma2))
    return report.value / float(np.linalg.norm(h) ** 2)


def _crb_coefficient(true_basis, M):
    return float(proposed_strategy_bound(true_basis, M[None])[0])


def ac_bound(paths, est, config):
    """AC (coefficient, bias) of one row of estimates, from the AC kernel alone."""
    geom = config.geometry
    h = steering_matrix(geom, paths.azimuths) @ paths.gains
    coefficient, bias = ac_strategy_bound(h, steering_matrix(geom, np.atleast_2d(est)))
    return coefficient[0], bias[0]


def strategy_array(ac_coefficient, ac_bias, proposed_coefficient):
    """The (S, 2, B) bounds array of one channel, laid out as ``STRATEGIES``:
    each strategy's [coefficient, bias floor], the Proposed floor 0."""
    assert STRATEGIES == (AC_STRATEGY, PROPOSED_STRATEGY)
    return np.array([[ac_coefficient, ac_bias],
                     [proposed_coefficient, np.zeros_like(proposed_coefficient)]])


def channel_bounds(paths, estimates, config):
    """(AC coefficient, AC bias, Proposed coefficient) arrays of one channel
    and its rows of estimates (B, L), from one kernel call on that channel,
    whose (1, S, 2, B) array gives the Proposed strategy an exact 0 floor."""
    bounds = _strategy_bounds(config.geometry, paths.gains[None], paths.azimuths[None],
                              np.asarray(estimates, dtype=float)[None])
    (ac_coefficient, ac_bias), (proposed_coefficient, proposed_bias) = bounds[0]
    assert bounds.shape == (1, len(STRATEGIES), 2, len(estimates))
    assert np.all(proposed_bias == 0.0)
    return ac_coefficient, ac_bias, proposed_coefficient


def trial_bounds(paths, est, config):
    """(AC coefficient, AC bias, Proposed coefficient) of one row of estimates."""
    ac_coefficient, ac_bias, proposed_coefficient = channel_bounds(
        paths, np.atleast_2d(est), config)
    return ac_coefficient[0], ac_bias[0], proposed_coefficient[0]


def serial_pilots(geom, estimates, true_azimuths, true_basis):
    """Unit-power pilots of one row of estimates, designed on their own (the
    per-row design of the serial trial loop)."""
    if np.array_equal(estimates, true_azimuths):
        est_space = true_basis
    else:
        est_space = estimated_variation_space(geom, estimates)
    return design_observation_matrix(canonical_decompose(est_space), 1.0).M


def serial_trial_bounds(geom, paths, estimates):
    """Strategy bounds of one channel, one kernel call per layer and row: the
    serial trial loop's evaluation, before trials were stacked."""
    h = steering_matrix(geom, paths.azimuths) @ paths.gains
    true_basis = physical_variation_space(geom, paths.azimuths)
    ac_coefficient, ac_bias = ac_strategy_bound(
        h, np.array([steering_matrix(geom, est) for est in estimates]))
    Ms = np.array([serial_pilots(geom, est, paths.azimuths, true_basis) for est in estimates])
    return ac_coefficient, ac_bias, proposed_strategy_bound(true_basis, Ms)


def serial_trial(config, trial_index):
    """One multipath trial of the serial loop: ``((ac_coefficient, ac_bias,
    proposed_coefficient), redraws)``, redrawn from the trial's own stream
    while its spaces or E_hat degenerate."""
    rng = np.random.default_rng([config.seed, trial_index])
    radians = np.array([math.radians(d) for d in config.delta_deg])
    for redraw in range(config.max_redraws):
        paths = generate_clustered_channel(rng, config)
        unit = rng.uniform(-1.0, 1.0, size=paths.n_paths)
        estimates = paths.azimuths + radians[:, None] * unit
        try:
            return serial_trial_bounds(config.geometry, paths, estimates), redraw
        except RankDeficientError:
            continue
    raise DrawError(
        f"trial {trial_index}: estimated variation space degenerate after "
        f"{config.max_redraws} redraws"
    )


def serial_run_multipath(config):
    """run_multipath as the serial loop computed it: trial after trial."""
    outcomes = [serial_trial(config, t) for t in range(config.n_trials)]
    bounds = np.array([strategy_array(*trial) for trial, _ in outcomes])
    table = _curve_rows(config, bounds, trials=config.n_trials)
    return table, {"redraws": sum(redraw for _, redraw in outcomes)}


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
        coefficient, bias, _ = trial_bounds(paths, [0.0], config)
        assert bias <= 1e-12
        # sigma^2 L^2 / (P ||h||^2) with L = ||h|| = P = 1.
        assert coefficient == pytest.approx(1.0, rel=1e-9)

    def test_ac_flat_floor_at_high_psnr(self):
        config = ExperimentConfig()
        paths = PathSet(gains=[1.0], azimuths=[math.radians(5.0)])
        coefficient, bias, _ = trial_bounds(paths, [0.0], config)
        assert bias > 0.5
        high = np.maximum(bias, coefficient / 1e8)
        assert high == pytest.approx(bias, rel=1e-12)
        # The bias term carries no noise dependence at all.
        assert np.maximum(bias, coefficient / 1e7) == high

    def test_proposed_matched_floor(self):
        config = ExperimentConfig()
        geom = config.geometry
        paths = PathSet(gains=[1.0], azimuths=[0.0])
        _, _, coefficient = trial_bounds(paths, [0.0], config)
        true_basis = physical_variation_space(geom, paths.azimuths)
        M = serial_pilots(geom, np.zeros(1), paths.azimuths, true_basis)
        assert M.shape[1] == 2
        assert coefficient == pytest.approx(SINGLE_PATH_RATIO, rel=1e-9)

    def test_proposed_pure_slope(self):
        config = ExperimentConfig()
        paths = PathSet(gains=[1.0], azimuths=[math.radians(1.0)])
        _, _, coefficient = trial_bounds(paths, [0.0], config)
        grid = 10.0 ** (np.asarray(config.psnr_grid_db) / 10)
        values = np.maximum(0.0, coefficient / grid)
        assert values * grid == pytest.approx(
            np.full(grid.shape, coefficient), rel=1e-12
        )

    def test_pilot_lengths_multipath(self):
        config = ExperimentConfig()
        geom = config.geometry
        rng = np.random.default_rng(5)
        paths = generate_clustered_channel(rng, config)
        est = paths.azimuths + 1e-3
        assert all(map(math.isfinite, trial_bounds(paths, est, config)))
        true_basis = physical_variation_space(geom, paths.azimuths)
        M = serial_pilots(geom, est, paths.azimuths, true_basis)
        L = paths.n_paths
        assert steering_matrix(geom, est[None]).shape[-1] == L
        assert M.shape[1] == math.ceil(3 * L / 2)


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
    """AC coefficient through the gains-only model's variation space.

    The pilots have power P = 2.5: the coefficient does not depend on it.
    """
    geom = config.geometry
    L = paths.n_paths
    basis = variation_space(angle_constrained_model(geom, est), np.zeros(2 * L))
    M = math.sqrt(2.5 / L) * steering_matrix(geom, est)
    return _crb_coefficient(basis, M)


class TestAcClosedForm:
    @pytest.mark.parametrize("L", range(1, 8))
    @pytest.mark.parametrize("delta", [0.0, 1.0, 5.0])
    def test_matches_general_route(self, L, delta):
        config = ExperimentConfig()
        rng = np.random.default_rng([11, L, int(delta)])
        paths = _separated_paths(rng, L)
        est = paths.azimuths + math.radians(delta) * rng.uniform(-1.0, 1.0, size=L)
        closed, _ = ac_bound(paths, est, config)
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
        coefficient, bias = ac_bound(paths, est, config)
        assert coefficient == math.inf
        assert _general_ac_coefficient(paths, est, config) == math.inf
        assert 0.0 <= bias <= 1.0

    def test_coincident_estimates_raise(self):
        config = ExperimentConfig()
        paths = PathSet(gains=[1.0, 0.5j], azimuths=[0.3, -0.4])
        with pytest.raises(RankDeficientError):
            trial_bounds(paths, [0.3, 0.3], config)

    def test_exact_estimates_match_estimated_space_route(self):
        config = ExperimentConfig()
        geom = config.geometry
        paths = _separated_paths(np.random.default_rng(13), 3)
        est_space = estimated_variation_space(geom, paths.azimuths)
        M = design_observation_matrix(canonical_decompose(est_space), 1.0).M
        expected = _crb_coefficient(physical_variation_space(geom, paths.azimuths), M)
        _, _, coefficient = trial_bounds(paths, paths.azimuths.copy(), config)
        assert coefficient == expected


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
        for deltas in [(), [], np.array([])]:
            with pytest.raises(ValueError, match="delta_deg must not be empty"):
                ExperimentConfig(delta_deg=deltas)

    def test_row_counts(self, single_path_table):
        table = single_path_table
        config = ExperimentConfig()
        expected = 2 * len(config.delta_deg) * len(config.psnr_grid_db)
        assert len(table.rows) == expected
        assert all(r.trials == 1 for r in table.rows)


# With Delta = 0 alone the endfire margin equals the separation floor.
FLOOR_ONLY = ExperimentConfig(delta_deg=(0.0,))


MATCHED_PROPOSED = (3 + 2 * math.sqrt(2)) / 2   # Delta = 0 coefficient over L^2


class TestUlaClosedForms:
    """On the centered ULA every physical variation space has couplings
    1 (L times) and 0 (floor(L/2) times), so the Delta = 0 Proposed
    coefficient is 2 (L/sqrt(2) + L/2)^2 = (3 + 2 sqrt(2))/2 L^2."""

    @pytest.mark.parametrize("L", range(1, 8))
    def test_random_separated_azimuths(self, L):
        config = ExperimentConfig()
        rng = np.random.default_rng(900 + L)
        for _ in range(10):
            paths = _separated_paths(rng, L)
            space = physical_variation_space(config.geometry, paths.azimuths)
            np.testing.assert_allclose(canonical_decompose(space).c,
                                       [1.0] * L + [0.0] * (L // 2), rtol=0, atol=1e-12)
            _, _, coefficient = trial_bounds(paths, paths.azimuths, config)
            assert coefficient == pytest.approx(MATCHED_PROPOSED * L**2, rel=1e-12)

    def test_default_trials(self):
        config = ExperimentConfig()
        assert run_multipath(config)[1]["redraws"] == 0 and config.delta_deg[0] == 0.0
        for t in range(config.n_trials):
            paths, estimates = _trial_draw(config, t)
            _, _, proposed = channel_bounds(paths, estimates, config)
            L = paths.n_paths
            space = physical_variation_space(config.geometry, paths.azimuths)
            np.testing.assert_allclose(canonical_decompose(space).c,
                                       [1.0] * L + [0.0] * (L // 2), rtol=0, atol=1e-12)
            assert proposed[0] == pytest.approx(MATCHED_PROPOSED * L**2, rel=1e-12)


class TestGenerateClusteredChannel:
    def test_deterministic(self):
        a = generate_clustered_channel(np.random.default_rng([3, 1]), FLOOR_ONLY)
        b = generate_clustered_channel(np.random.default_rng([3, 1]), FLOOR_ONLY)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.azimuths, b.azimuths)

    def test_path_count_distribution(self):
        rng = np.random.default_rng(0)
        n_draws = 10_000
        counts = np.zeros(8, dtype=int)
        for _ in range(n_draws):
            counts[generate_clustered_channel(rng, FLOOR_ONLY).n_paths] += 1
        p = 1.0 / 7.0
        bound = 3 * math.sqrt(n_draws * p * (1 - p))
        for L in range(1, 8):
            assert abs(counts[L] - n_draws * p) <= bound

    def test_separation_floor(self):
        rng = np.random.default_rng(1)
        floor = math.radians(2.0)
        for _ in range(200):
            paths = generate_clustered_channel(rng, FLOOR_ONLY)
            if paths.n_paths < 2:
                continue
            az = paths.azimuths
            diff = np.abs(az[:, None] - az[None, :])
            circ = np.minimum(diff, 2 * np.pi - diff)
            iu = np.triu_indices(paths.n_paths, 1)
            assert np.min(circ[iu]) >= floor

    def test_gain_normalization(self):
        # Mean total power approaches 1 (gains drawn around a normalized profile).
        rng = np.random.default_rng(2)
        totals = [
            float(np.sum(np.abs(generate_clustered_channel(rng, FLOOR_ONLY).gains) ** 2))
            for _ in range(4000)
        ]
        assert np.mean(totals) == pytest.approx(1.0, rel=0.1)

    def test_min_gain_floor(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            paths = generate_clustered_channel(rng, FLOOR_ONLY)
            assert np.min(np.abs(paths.gains)) >= 1e-3 - 1e-15

    def test_infeasible_floor(self):
        # A valid config that no multi-path draw can satisfy: sines within
        # cos(80 deg) of 0 cannot differ by sin(80 deg).
        config = ExperimentConfig(separation_floor_deg=80.0, delta_deg=(0.0,))
        rng = np.random.default_rng(4)
        with pytest.raises(DrawError, match="could not draw"):
            for _ in range(50):
                generate_clustered_channel(rng, config)


def vectorized_clustered_channel(rng, config, attempts):
    """The clustered draw with the pairwise array form of the admissibility
    test: the oracle of the Python-float test in generate_clustered_channel.
    Appends the number of candidates drawn to ``attempts``."""
    L = int(rng.integers(1, 8))
    floor = math.radians(config.separation_floor_deg)
    margin = math.radians(config.endfire_margin_deg)
    iu = np.triu_indices(L, 1)

    def admissible(cand):
        sines = np.sin(cand)
        if np.max(np.abs(sines)) > math.cos(margin):
            return False
        if L == 1:
            return True
        diff = np.abs(cand[:, None] - cand[None, :])[iu]
        if np.min(np.minimum(diff, 2.0 * np.pi - diff)) < floor:
            return False
        return bool(np.min(np.abs(sines[:, None] - sines[None, :])[iu]) >= math.sin(floor))

    for attempt in range(1, config.max_redraws + 1):
        cand = rng.uniform(0.0, 2.0 * np.pi, size=L)
        cand = np.mod(cand + np.pi, 2.0 * np.pi) - np.pi
        if admissible(cand):
            break
    else:
        attempts.append(config.max_redraws)
        raise DrawError(
            f"could not draw {L} azimuths separated by {config.separation_floor_deg} deg "
            f"in {config.max_redraws} attempts"
        )
    attempts.append(attempt)
    mean_powers = np.exp(-config.cluster_decay * np.arange(L))
    mean_powers /= mean_powers.sum()
    magnitudes = np.maximum(np.sqrt(mean_powers * rng.exponential(1.0, size=L)),
                            config.min_gain)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=L)
    return PathSet(gains=magnitudes * np.exp(1j * phases), azimuths=cand)


class TestDrawsEqualVectorizedTest:
    """Every accept or reject decision, and so every draw, equals that of the
    pairwise array test, over the streams of run_multipath's trials."""

    @staticmethod
    def draws(draw, rng, config):
        out = []
        for _ in range(2):          # a trial's draw, then a redraw from its stream
            try:
                paths = draw(rng, config)
            except DrawError as err:
                out.append(str(err))
                break
            out.append((paths.gains.tobytes(), paths.azimuths.tobytes()))
            rng.uniform(-1.0, 1.0, size=paths.n_paths)
        return out, rng.bit_generator.state

    @pytest.mark.parametrize("seed, floor, max_redraws", [
        (7, 2.0, 100), (3, 2.0, 100),
        (7, 25.0, 20), (3, 40.0, 20)])          # wide floors: many redraws, some failures
    def test_trials_0_to_499(self, seed, floor, max_redraws):
        config = ExperimentConfig(seed=seed, separation_floor_deg=floor,
                                  max_redraws=max_redraws)
        attempts, failures = [], 0
        for t in range(500):
            got = self.draws(generate_clustered_channel,
                             np.random.default_rng([seed, t]), config)
            want = self.draws(lambda rng, cfg: vectorized_clustered_channel(rng, cfg, attempts),
                              np.random.default_rng([seed, t]), config)
            assert got == want
            failures += isinstance(got[0][-1], str)
        # Candidates were rejected (at the default floor by the endfire
        # margin), and only the wide floors exhaust a budget.
        assert sum(attempts) > len(attempts)
        assert (failures > 0) == (floor > 2.0)


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
    paths = generate_clustered_channel(rng, config)
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
            paths = generate_clustered_channel(rng, config)
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
                M = design_observation_matrix(canonical_decompose(est_space), 1.0).M
                # Relative CRB at sigma^2 = 1 times pSNR = P ||h||^2 / sigma^2, P = 1.
                out[2].append(relative_crb(true_basis, M, 1.0, h) * float(np.linalg.norm(h) ** 2))
            return out
        except RankDeficientError:
            continue
    raise RuntimeError("redraws exhausted")


@pytest.fixture
def decompositions(monkeypatch):
    """The (V, c) of every slice that canonical_decompose decomposes while
    the fixture is active, in the sweep and in this module's serial loop."""
    import sys

    import pilotspace.experiments

    slices = []
    real = canonical_decompose

    def recording(basis):
        decomp = real(basis)
        for i in np.ndindex(decomp.V.shape[:-2]):
            slices.append((decomp.V[i], decomp.c[i]))
        return decomp

    for namespace in (pilotspace.experiments, sys.modules[__name__]):
        monkeypatch.setattr(namespace, "canonical_decompose", recording)
    return slices


def previous_ac_strategy_bound(h, E_hats):
    """ac_strategy_bound as written before it called numerical_rank and _is_singular."""
    U, s, _ = np.linalg.svd(E_hats, full_matrices=False)
    L = E_hats.shape[-1]
    if np.any(np.sum(s > RANK_RTOL * s[:, :1], axis=1) < L):
        raise RankDeficientError("E_hat is rank deficient")
    coords = np.conj(np.swapaxes(U, 1, 2)) @ h
    resid = h - (U @ coords[..., None])[..., 0]
    hnorm2 = float(np.linalg.norm(h) ** 2)
    bias = np.clip(np.linalg.norm(resid, axis=1) ** 2 / hnorm2, 0.0, 1.0)
    singular = s[:, -1] ** 2 <= EIG_RTOL * s[:, 0] ** 2
    coefficient = np.where(singular, math.inf, L * np.sum(1.0 / s**2, axis=1))
    return coefficient, bias


def unit_column_stack(rng, n_stack, n, L, gap):
    """(n_stack, n, L) unit-norm columns; in the last matrix, column 1 is
    column 0 plus ``gap`` times noise (L >= 2)."""
    E = rng.normal(size=(n_stack, n, L)) + 1j * rng.normal(size=(n_stack, n, L))
    if L >= 2:
        E[-1, :, 1] = E[-1, :, 0] + gap * E[-1, :, 1]
    return E / np.linalg.norm(E, axis=1, keepdims=True)


class TestKernelsEqualPreviousCode:
    """The trial's kernels equal their reference versions: the AC kernel is
    bit-identical to its inline version, the Proposed kernel equals the
    basis-form CRB times P / sigma^2."""

    @pytest.mark.parametrize("n_stack", [1, 4])
    @pytest.mark.parametrize("L", [1, 2, 3, 7])
    @pytest.mark.parametrize("gap", [1.0, 1e-3, 1e-6, 1e-13])
    def test_ac_bounds(self, n_stack, L, gap):
        rng = np.random.default_rng([50, n_stack, L, int(-math.log10(gap))])
        E = unit_column_stack(rng, n_stack, 16, L, gap)
        h = rng.normal(size=16) + 1j * rng.normal(size=16)
        try:
            expected = previous_ac_strategy_bound(h, E)
        except RankDeficientError:
            with pytest.raises(RankDeficientError):
                ac_strategy_bound(h, E)
            return
        coefficient, bias = ac_strategy_bound(h, E)
        assert np.array_equal(coefficient, expected[0])
        assert np.array_equal(bias, expected[1])

    def test_ac_bounds_cover_each_verdict(self):
        # The gaps above reach all three outcomes: finite, +inf and rank deficient.
        rng = np.random.default_rng(51)
        h = rng.normal(size=16) + 1j * rng.normal(size=16)
        coefficient, _ = ac_strategy_bound(h, unit_column_stack(rng, 2, 16, 2, 1e-6))
        assert math.isfinite(coefficient[0]) and coefficient[1] == math.inf
        with pytest.raises(RankDeficientError):
            ac_strategy_bound(h, unit_column_stack(rng, 2, 16, 2, 1e-13))

    @pytest.mark.parametrize("n_stack", [1, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_crb_coefficients(self, n_stack, seed):
        rng = np.random.default_rng([53, seed])
        n, k = 12, int(rng.integers(3, 10))
        true_basis, _ = r_orthonormalize(
            rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
        # m < k/2 columns leave the compression singular.
        m = int(rng.integers(math.ceil(k / 2) - 1, k + 1))
        Ms = rng.normal(size=(n_stack, n, m)) + 1j * rng.normal(size=(n_stack, n, m))
        coefficient = proposed_strategy_bound(true_basis, Ms)
        # CRB * P / sigma^2 with P = ||M||_F^2; +inf where the CRB is.
        expected = [np.linalg.norm(M) ** 2
                    * crb_via_variation_space(true_basis, M, NoiseModel(1.0)).value
                    for M in Ms]
        assert coefficient == pytest.approx(expected, rel=1e-12)
        assert proposed_strategy_bound(true_basis, 0.37 * Ms) == pytest.approx(
            coefficient, rel=1e-12)
        # Pilots designed from the true basis (Delta = 0) attain crb_min.
        dec = canonical_decompose(true_basis)
        M = design_observation_matrix(dec, 1.0).M
        assert _crb_coefficient(true_basis, M) == pytest.approx(
            crb_min(dec.c, dec.n_params, NoiseModel(1.0), 1.0).value, rel=1e-12)


class TestBatchedTrial:
    """A multipath trial computes its Delta values together."""

    CONFIG = ExperimentConfig(n_trials=10, seed=7)

    @pytest.mark.parametrize("trial_index", range(4))
    def test_batch_equals_per_delta_wrappers(self, trial_index):
        config = self.CONFIG
        assert serial_trial(config, trial_index)[1] == 0
        paths, estimates = _trial_draw(config, trial_index)
        ac_coef, ac_bias, pr_coef = channel_bounds(paths, estimates, config)
        for i, est in enumerate(estimates):
            assert trial_bounds(paths, est, config) == (ac_coef[i], ac_bias[i], pr_coef[i])

    def test_kernels_batch_equals_batch_of_one(self):
        config = ExperimentConfig(delta_deg=(0.0, 0.5, 1.0, 5.0))
        geom = config.geometry
        paths, estimates = _trial_draw(config, 3)
        h = steering_matrix(geom, paths.azimuths) @ paths.gains
        true_basis = physical_variation_space(geom, paths.azimuths)
        stack = steering_matrix(geom, np.array(estimates))
        coef, bias = ac_strategy_bound(h, stack)
        Ms = np.array([serial_pilots(geom, est, paths.azimuths, true_basis)
                       for est in estimates])
        pr = proposed_strategy_bound(true_basis, Ms)
        for i, est in enumerate(estimates):
            assert np.array_equal(stack[i], steering_matrix(geom, est))
            one_coef, one_bias = ac_strategy_bound(h, stack[i:i + 1])
            assert (one_coef[0], one_bias[0]) == (coef[i], bias[i])
            assert relative_bias(h, stack[i]) == bias[i]
            assert _crb_coefficient(true_basis, Ms[i]) == pr[i]

    def test_any_degenerate_estimate_raises(self):
        config = ExperimentConfig()
        geom = config.geometry
        h = steering_matrix(geom, [0.3, -0.4]) @ np.array([1.0, 0.5j])
        estimates = np.array([[0.3, -0.4], [0.3, 0.3]])
        with pytest.raises(RankDeficientError):
            ac_strategy_bound(h, steering_matrix(geom, estimates))

    def test_matches_previous_loop_on_reference_trials(self, decompositions):
        # The seed-7 benchmark reference: configs 700000..700009, 10 trials
        # each, stacked by path count as run_multipath stacks them.
        for seed in range(700_000, 700_010):
            config = ExperimentConfig(n_trials=10, seed=seed)
            n_delta = len(config.delta_deg)
            draws = [_trial_draw(config, t) for t in range(config.n_trials)]
            for L in sorted({paths.n_paths for paths, _ in draws}):
                group = [t for t, (paths, _) in enumerate(draws) if paths.n_paths == L]
                decompositions.clear()
                bounds = _strategy_bounds(
                    config.geometry, np.array([draws[t][0].gains for t in group]),
                    np.array([draws[t][0].azimuths for t in group]),
                    np.array([draws[t][1] for t in group]))
                # One decomposition per (trial, Delta), trial-major, in Delta order.
                stacked = list(decompositions)
                for i, t in enumerate(group):
                    (ac_coef, ac_bias), (pr_coef, pr_bias) = bounds[i]
                    assert np.all(pr_bias == 0.0)
                    batched = stacked[i * n_delta:(i + 1) * n_delta]
                    decompositions.clear()
                    previous = _previous_trial(config, t)
                    assert len(batched) == len(decompositions) == len(config.delta_deg)
                    for (V_new, c_new), (V_old, c_old) in zip(batched, decompositions):
                        assert np.array_equal(V_new, V_old)
                        assert np.array_equal(c_new, c_old)
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
                (ac_coef, ac_bias, pr_coef), _ = serial_trial(config, t)
                sums[AC_STRATEGY] = sums[AC_STRATEGY] + np.maximum(
                    ac_bias[i], ac_coef[i] / psnr_lin)
                sums[PROPOSED_STRATEGY] = sums[PROPOSED_STRATEGY] + np.maximum(
                    0.0, pr_coef[i] / psnr_lin)
            for strategy, acc in sums.items():
                _, values = table.values(strategy, delta)
                assert np.array_equal(values, acc / config.n_trials)

    def test_no_delta_values(self, tmp_path, capsys):
        # A run config without Delta values exits 1 before any trial.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "experiment": {"delta_deg": [], "n_trials": 3}}))
        assert main(["experiment", "multipath", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: delta_deg must not be empty\n"

    def test_redraws_exhausted_is_a_draw_error(self, monkeypatch):
        import pilotspace.experiments

        def degenerate(E, dE, azimuths, origin):
            raise RankDeficientError("degenerate")

        monkeypatch.setattr(pilotspace.experiments, "_span_basis", degenerate)
        with pytest.raises(DrawError, match="after 2 redraws"):
            run_multipath(ExperimentConfig(n_trials=1, max_redraws=2))


def physical_stack(rng, geom, shape, L):
    """Azimuths (*shape, L) of separated paths and their stacked physical spaces."""
    az = np.array([_separated_paths(rng, L).azimuths for _ in range(math.prod(shape))])
    az = az.reshape(shape + (L,))
    return az, physical_variation_space(geom, az)


class TestStackedKernelsEqualBatchOfOne:
    """Each kernel with batch axes gives every slice the bits of its call on
    that slice alone."""

    @pytest.mark.parametrize("kind", ["physical-1", "physical-2", "physical-5",
                                      "physical-7", "random-5", "random-6"])
    def test_decompositions_and_designs(self, kind):
        name, size = kind.split("-")
        rng = np.random.default_rng([60, int(size)])
        if name == "physical":
            geom = UlaGeometry(64)
            az, spaces = physical_stack(rng, geom, (2, 3), int(size))
            singles = [physical_variation_space(geom, az[idx]) for idx in np.ndindex(2, 3)]
        else:
            G = rng.normal(size=(2, 3, 12, int(size))) + 1j * rng.normal(size=(2, 3, 12, int(size)))
            spaces, _ = r_orthonormalize(G)
            singles = [r_orthonormalize(G[idx])[0] for idx in np.ndindex(2, 3)]
        dec = canonical_decompose(spaces)
        design = design_observation_matrix(dec, 1.0)
        for idx, one in zip(np.ndindex(2, 3), singles):
            assert np.array_equal(spaces.U[idx], one.U)
            dec_one = canonical_decompose(one)
            assert np.array_equal(dec.V[idx], dec_one.V)
            assert np.array_equal(dec.c[idx], dec_one.c)
            design_one = design_observation_matrix(dec_one, 1.0)
            assert np.array_equal(design.M[idx], design_one.M)
            assert design.C_norm[idx] == design_one.C_norm

    def test_strategy_kernels(self):
        geom = UlaGeometry(64)
        rng = np.random.default_rng(61)
        T, B, L = 4, 3, 3
        az, true_spaces = physical_stack(rng, geom, (T,), L)
        gains = rng.normal(size=(T, L)) + 1j * rng.normal(size=(T, L))
        est = az[:, None] + math.radians(2.0) * rng.uniform(-1.0, 1.0, size=(T, B, L))
        E_hats = steering_matrix(geom, est)
        Ms = design_observation_matrix(
            canonical_decompose(physical_variation_space(geom, est)), 1.0).M
        Ms[0, 1] = 0.0          # a singular compression: +inf
        h = np.array([steering_matrix(geom, a) @ g for a, g in zip(az, gains)])
        coefficient, bias = ac_strategy_bound(h, E_hats)
        eigs, singular = compression_spectra(true_spaces[:, None], Ms)
        proposed = proposed_strategy_bound(true_spaces[:, None], Ms)
        assert proposed[0, 1] == math.inf and np.all(np.isfinite(np.delete(proposed, 1)))
        for t, b in np.ndindex(T, B):
            assert np.array_equal(E_hats[t, b], steering_matrix(geom, est[t, b]))
            one_coefficient, one_bias = ac_strategy_bound(h[t], E_hats[t, b][None])
            assert (coefficient[t, b], bias[t, b]) == (one_coefficient[0], one_bias[0])
            basis = physical_variation_space(geom, az[t])
            one_eigs, one_singular = compression_spectra(basis, Ms[t, b][None])
            assert np.array_equal(eigs[t, b], one_eigs[0])
            assert singular[t, b] == one_singular[0]
            assert proposed[t, b] == proposed_strategy_bound(basis, Ms[t, b][None])[0]


def doom_rows(monkeypatch, modulus):
    """Make the variation space of about one azimuth row in ``modulus``
    degenerate, in the stacked and in the one-channel calls alike: both
    build their spans through ``models._span_basis``."""
    import pilotspace.experiments
    import pilotspace.models

    real = pilotspace.models._span_basis

    def span(E, dE, azimuths, origin):
        rows = np.asarray(azimuths)
        if np.any(np.floor(np.abs(rows[..., 0]) * 1e4) % modulus == 0):
            raise RankDeficientError("forced degenerate row")
        return real(E, dE, azimuths, origin)

    for module in (pilotspace.models, pilotspace.experiments):
        monkeypatch.setattr(module, "_span_basis", span)


def assert_same_run(config):
    """run_multipath equals the serial trial loop bit for bit; returns its info."""
    table, info = run_multipath(config)
    serial_table, serial_info = serial_run_multipath(config)
    assert info == serial_info
    assert table.rows == serial_table.rows
    return info


class TestStackedRun:
    """The trial-stacked sweeps equal the serial loops bit for bit."""

    @pytest.mark.parametrize("seed", range(700_000, 700_010))
    def test_equals_serial_loop(self, seed):
        assert_same_run(ExperimentConfig(n_trials=10, seed=seed))

    def test_equals_serial_loop_over_split_groups(self):
        # 40 trials: most path counts have more trials than one kernel call takes.
        config = ExperimentConfig(n_trials=40, seed=5, delta_deg=(0.0, 2.0))
        counts = np.bincount([_trial_draw(config, t)[0].n_paths for t in range(40)])
        assert counts.max() > STACK_TRIALS
        assert_same_run(config)

    def test_equals_serial_loop_with_forced_redraws(self, monkeypatch):
        doom_rows(monkeypatch, 4)
        redraws = [assert_same_run(ExperimentConfig(n_trials=10, seed=seed))["redraws"]
                   for seed in range(700_000, 700_010)]
        assert min(redraws) > 0

    def test_lowest_failing_trial_is_named(self, monkeypatch):
        doom_rows(monkeypatch, 3)
        config = ExperimentConfig(n_trials=10, seed=14, max_redraws=3,
                                  separation_floor_deg=10.0)
        failures = {}
        for t in range(config.n_trials):
            try:
                serial_trial(config, t)
            except DrawError as err:
                failures[t] = str(err)
        # Trial 1 exhausts its redraws; trial 2 fails its first azimuth draw.
        assert min(failures) == 1 and failures[1].endswith("degenerate after 3 redraws")
        assert failures[2].startswith("could not draw")
        with pytest.raises(DrawError) as excinfo:
            run_multipath(config)
        assert str(excinfo.value) == failures[1]

    def test_single_path_equals_serial(self):
        config = ExperimentConfig(delta_deg=(0.0, 0.3, 2.0, 7.0, -3.0))
        bounds = [strategy_array(*serial_trial_bounds(
                      config.geometry, PathSet(gains=[1.0], azimuths=[math.radians(d)]),
                      np.zeros((1, 1))))
                  for d in config.delta_deg]
        # One (S, 2, 1) array per Delta -> (1, S, 2, nDelta): one sample of each Delta.
        expected = _curve_rows(config, np.concatenate(bounds, axis=-1)[None], trials=1)
        assert run_single_path(config).rows == expected.rows


class TestReferenceCurves:
    """``run_multipath`` reproduces the benchmark's stored seed-7 curves:
    configs 700000..700009, 10 trials each."""

    @pytest.fixture(scope="class")
    def reference(self):
        return json.loads(REFERENCE_CURVES.read_text())

    @pytest.mark.parametrize("op", range(10))
    def test_matches_stored_curves(self, reference, op):
        stored = reference["ops"][op]
        assert stored["config_seed"] == 700_000 + op
        table, _ = run_multipath(ExperimentConfig(n_trials=reference["n_trials"],
                                                  seed=stored["config_seed"]))
        got = {(r.strategy, r.delta_deg, r.psnr_db): r.relative_bound for r in table.rows}
        assert len(got) == len(table.rows) == len(stored["rows"])
        for strategy, delta, db, value in stored["rows"]:
            assert got[(strategy, delta, db)] == pytest.approx(value, rel=REFERENCE_RTOL, abs=0)


class TestOneSteeringEvaluation:
    """A kernel call evaluates the steering columns of its azimuth rows once:
    h, the E_hat stack and the span stack are built from the same columns."""

    @pytest.mark.parametrize("run", [
        lambda: run_single_path(ExperimentConfig()),
        lambda: run_multipath(ExperimentConfig(n_trials=3, seed=7)),
    ], ids=["single-path", "multipath"])
    def test_one_steering_call_per_kernel_call(self, run, count_calls):
        import pilotspace.experiments
        import pilotspace.models

        steering = count_calls(pilotspace.models, "steering_matrix")
        kernel = count_calls(pilotspace.experiments, "_strategy_bounds")
        run()
        assert len(kernel) > 0 and len(steering) == len(kernel)
