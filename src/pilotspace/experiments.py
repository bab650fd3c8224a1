"""Tracking-strategy lower-bound experiments: single path and clustered multipath.

Two downlink channel-tracking strategies are compared through bounds on
the relative MSE (MSE / ||h||^2) as a function of the potential SNR
pSNR = P_t ||h||^2 / sigma^2:

* angle-constrained -- azimuths frozen at their estimates, pilots
  sqrt(P_t/L) E_hat with E_hat = (e(phi_1^), ..., e(phi_L^)), of
  duration L; the bound is max(relative bias of the frozen-angle
  subspace, relative CRB of the gains-only model).  The bias term does
  not depend on the noise level, so the curve flattens at high pSNR.
  With these pilots the gains-only CRB is sigma^2 (L/P_t)
  Tr[(E_hat^H E_hat)^{-1}], so its coefficient (relative CRB times pSNR)
  is L Tr[(E_hat^H E_hat)^{-1}] = L ||R^{-1}||_F^2 = L sum_k 1/s_k^2,
  with E_hat = QR and s_k the singular values of E_hat; the SVD that
  rank-checks E_hat for the bias term supplies them.
* proposed -- pilots of duration ceil(3L/2) built from the estimated
  variation space; the bound is the relative CRB of the full physical
  model evaluated at the true parameters against those (mismatched)
  pilots.  No bias term: the curve is exactly proportional to 1/pSNR.

The pSNR axis is swept by varying sigma^2 at fixed transmit power and
fixed channel, so pilot designs are constant along a sweep and each
strategy reduces to a coefficient (CRB * pSNR) plus an optional bias
floor.  A multipath trial builds the true channel and the true
variation space once and shares them across its Delta values; at
Delta = 0 the estimates equal the true azimuths, so the true space also
serves as the estimated one.

The multipath generator is a deliberately simplified clustered model:
the number of clusters is uniform on {1..7}, main-cluster azimuths are
uniform with a separation floor, and per-cluster mean powers decay
exponentially with cluster index (normalized to unit total).  Trials
are deterministic given (seed, trial index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crb import EIG_RTOL, NoiseModel, crb_via_variation_space
from .models import (
    UlaGeometry,
    PathSet,
    estimated_variation_space,
    physical_variation_space,
    steering_derivative,
    steering_matrix,
)
from .pilot import design_observation_matrix
from .rlinalg import RankDeficientError
from .variation import canonical_decompose

AC_STRATEGY = "AngleConstrained"
PROPOSED_STRATEGY = "Proposed"


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration of the single-path and multipath sweeps."""

    n_antennas: int = 64
    delta_deg: tuple = (0.0, 1.0, 5.0)
    psnr_grid_db: tuple = tuple(range(-10, 51, 5))
    n_trials: int = 100
    seed: int = 7
    separation_floor_deg: float = 2.0
    power: float = 1.0
    cluster_decay: float = 1.0
    min_gain: float = 1e-3
    max_redraws: int = 100

    def __post_init__(self):
        if len(self.psnr_grid_db) == 0:
            raise ValueError("pSNR grid must not be empty")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if not (self.power > 0):
            raise ValueError("power must be positive")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")

    @property
    def geometry(self):
        return UlaGeometry(self.n_antennas)


@dataclass(frozen=True)
class StrategyBound:
    """Relative-MSE lower bound of one strategy, as a function of pSNR.

    The bound is max(bias, crb_coefficient / pSNR): ``crb_coefficient``
    is the relative CRB multiplied by pSNR (constant along a sweep) and
    ``bias`` is the pSNR-independent floor (zero for the proposed
    strategy).
    """

    strategy: str
    pilot_length: int
    crb_coefficient: float
    bias: float = 0.0

    def relative_bound(self, psnr):
        psnr = np.asarray(psnr, dtype=float)
        return np.maximum(self.bias, self.crb_coefficient / psnr)


@dataclass(frozen=True)
class CurveRow:
    strategy: str
    delta_deg: float
    psnr_db: float
    relative_bound: float
    trials: int


@dataclass(frozen=True)
class CurveTable:
    rows: tuple

    def sorted_rows(self):
        return sorted(
            self.rows, key=lambda r: (r.strategy, r.delta_deg, r.psnr_db)
        )

    def values(self, strategy, delta_deg):
        """pSNR grid and bound values of one curve, sorted by pSNR."""
        rows = [
            r for r in self.rows
            if r.strategy == strategy and r.delta_deg == delta_deg
        ]
        rows.sort(key=lambda r: r.psnr_db)
        return (
            np.array([r.psnr_db for r in rows]),
            np.array([r.relative_bound for r in rows]),
        )


def psnr(power, h, sigma2):
    """Potential SNR P_t ||h||^2 / sigma^2."""
    if not (power > 0 and sigma2 > 0):
        raise ValueError("power and sigma2 must be positive")
    return power * float(np.linalg.norm(h) ** 2) / sigma2


def relative_crb(true_basis, M, sigma2, h):
    """CRB divided by the squared channel norm.

    The basis is evaluated at the true parameters while M may come from
    estimated ones (mismatched evaluation); returns +inf when the pair
    is not identifiable.
    """
    report = crb_via_variation_space(true_basis, M, NoiseModel(sigma2))
    return report.value / float(np.linalg.norm(h) ** 2)


def _projection_floor(h, E_hat):
    """Relative bias of range(E_hat) and the singular values of E_hat.

    Raises RankDeficientError when E_hat has dependent columns.
    """
    h = np.asarray(h, dtype=complex).ravel()
    E_hat = np.atleast_2d(np.asarray(E_hat, dtype=complex))
    s = np.linalg.svd(E_hat, compute_uv=False)
    if s[0] == 0.0 or np.sum(s > 1e-10 * s[0]) < E_hat.shape[1]:
        raise RankDeficientError("E_hat is rank deficient")
    Q, _ = np.linalg.qr(E_hat)
    resid = h - Q @ (np.conj(Q.T) @ h)
    hnorm2 = float(np.linalg.norm(h) ** 2)
    return min(1.0, max(0.0, float(np.linalg.norm(resid) ** 2) / hnorm2)), s


def relative_bias(h, E_hat):
    """Squared relative residual of projecting h onto range(E_hat)."""
    return _projection_floor(h, E_hat)[0]


def _crb_coefficient(true_basis, M, power, h):
    """Relative CRB times pSNR (independent of sigma^2 along the sweep)."""
    rel_at_unit_sigma = relative_crb(true_basis, M, 1.0, h)
    return rel_at_unit_sigma * psnr(power, h, 1.0)


def _check_estimates(true_paths, estimated_azimuths):
    estimated_azimuths = np.atleast_1d(np.asarray(estimated_azimuths, dtype=float))
    if estimated_azimuths.shape[0] != true_paths.n_paths:
        raise ValueError("need one estimated azimuth per true path")
    return estimated_azimuths


def ac_strategy_bound(true_paths, estimated_azimuths, config, *, h=None):
    """Bound of the angle-constrained tracking strategy.

    Pilots sqrt(P_t/L) E_hat of duration L; CRB term from the
    gains-only model at the estimated azimuths in closed form (see the
    module docstring; +inf where its compression is singular), bias
    term from the projection residual of the true channel onto
    range(E_hat).  ``h`` is the true channel, computed from
    ``true_paths`` when omitted.
    """
    estimated_azimuths = _check_estimates(true_paths, estimated_azimuths)
    L = true_paths.n_paths
    if h is None:
        h = steering_matrix(config.geometry, true_paths.azimuths) @ true_paths.gains
    bias, s = _projection_floor(h, steering_matrix(config.geometry, estimated_azimuths))
    # The compression of M M^H to span_R(E_hat, jE_hat) has the eigenvalues
    # (P/L) s_k^2, each twice: apply crb_via_variation_space's singularity test.
    if s[-1] ** 2 <= EIG_RTOL * s[0] ** 2:
        coefficient = math.inf
    else:
        coefficient = L * float(np.sum(1.0 / s**2))
    return StrategyBound(
        strategy=AC_STRATEGY,
        pilot_length=L,
        crb_coefficient=coefficient,
        bias=bias,
    )


def proposed_strategy_bound(true_paths, estimated_azimuths, config, *, h=None,
                            true_basis=None):
    """Bound of the proposed tracking strategy.

    Pilots of duration ceil(3L/2) designed from the estimated variation
    space; the CRB is evaluated with the variation space of the full
    physical model at the true parameters (no bias term).  ``h`` and
    ``true_basis`` (the true channel and
    ``physical_variation_space(geom, true_paths.azimuths)``) are
    computed when omitted.  Estimates equal to the true azimuths reuse
    the true basis as the estimated space.
    """
    estimated_azimuths = _check_estimates(true_paths, estimated_azimuths)
    geom = config.geometry
    L = true_paths.n_paths
    if h is None:
        h = steering_matrix(geom, true_paths.azimuths) @ true_paths.gains
    if true_basis is None:
        true_basis = physical_variation_space(geom, true_paths.azimuths)

    if np.array_equal(estimated_azimuths, true_paths.azimuths):
        est_space = true_basis
    else:
        est_space = estimated_variation_space(geom, estimated_azimuths)
    design = design_observation_matrix(canonical_decompose(est_space), config.power)
    return StrategyBound(
        strategy=PROPOSED_STRATEGY,
        pilot_length=math.ceil(3 * L / 2),
        crb_coefficient=_crb_coefficient(true_basis, design.M, config.power, h),
        bias=0.0,
    )


def run_single_path(config):
    """Single-path sweep: true azimuth Delta, estimate 0, unit gain.

    Deterministic (no randomness); one row per (strategy, Delta, pSNR).
    """
    rows = []
    for delta in config.delta_deg:
        paths = PathSet(gains=[1.0], azimuths=[math.radians(delta)])
        bounds = (
            ac_strategy_bound(paths, [0.0], config),
            proposed_strategy_bound(paths, [0.0], config),
        )
        for bound in bounds:
            for db in config.psnr_grid_db:
                value = float(bound.relative_bound(10.0 ** (db / 10.0)))
                rows.append(
                    CurveRow(
                        strategy=bound.strategy,
                        delta_deg=float(delta),
                        psnr_db=float(db),
                        relative_bound=value,
                        trials=1,
                    )
                )
    return CurveTable(rows=tuple(rows))


def generate_clustered_channel(rng, geom, separation_floor_deg=2.0,
                               endfire_margin_deg=None, cluster_decay=1.0,
                               min_gain=1e-3, max_retries=100):
    """Draw a multipath channel from the simplified clustered model.

    L is uniform on {1..7}; azimuths are i.i.d. uniform on the circle
    (mapped to [-pi, pi)); cluster mean powers decay exponentially with
    index and normalize to 1; gain magnitudes are Rayleigh around the
    mean powers (floored at ``min_gain``) with uniform phases.

    The separation floor keeps the drawn geometry away from the ULA's
    degeneracies, where steering matrices and variation spaces turn
    near-singular.  Because a linear array only resolves sin(azimuth)
    (front-back ambiguity) and loses resolution at endfire, the floor
    is enforced three ways: pairwise circular azimuth distance >= floor,
    pairwise |sin(phi_i) - sin(phi_j)| >= sin(floor), and effective
    angles at least ``endfire_margin_deg`` (default: the floor) away
    from +/- 90 degrees.
    """
    L = int(rng.integers(1, 8))
    floor = math.radians(separation_floor_deg)
    if endfire_margin_deg is None:
        endfire_margin_deg = separation_floor_deg
    margin = math.radians(endfire_margin_deg)

    def admissible(cand):
        if np.max(np.abs(np.sin(cand))) > math.cos(margin):
            return False
        if L == 1:
            return True
        iu = np.triu_indices(L, 1)
        diff = np.abs(cand[:, None] - cand[None, :])[iu]
        if np.min(np.minimum(diff, 2.0 * np.pi - diff)) < floor:
            return False
        sines = np.sin(cand)
        return bool(np.min(np.abs(sines[:, None] - sines[None, :])[iu]) >= math.sin(floor))

    azimuths = None
    for _ in range(max_retries):
        cand = rng.uniform(0.0, 2.0 * np.pi, size=L)
        cand = np.mod(cand + np.pi, 2.0 * np.pi) - np.pi
        if admissible(cand):
            azimuths = cand
            break
    if azimuths is None:
        raise RuntimeError(
            f"could not draw {L} azimuths separated by {separation_floor_deg} deg "
            f"in {max_retries} attempts"
        )
    mean_powers = np.exp(-cluster_decay * np.arange(L))
    mean_powers /= mean_powers.sum()
    magnitudes = np.maximum(np.sqrt(mean_powers * rng.exponential(1.0, size=L)), min_gain)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=L)
    return PathSet(gains=magnitudes * np.exp(1j * phases), azimuths=azimuths)


def _multipath_trial(config, trial_index):
    """One multipath realization: per-Delta strategy coefficients and biases.

    Redraws the channel (within the trial's own rng stream) when any
    estimated variation space degenerates; returns the redraw count.
    """
    rng = np.random.default_rng([config.seed, trial_index])
    geom = config.geometry
    deltas = config.delta_deg
    # Perturbed estimates can drift toward endfire by up to max(Delta).
    margin = config.separation_floor_deg + (max(deltas) if deltas else 0.0)
    for redraw in range(config.max_redraws):
        try:
            paths = generate_clustered_channel(
                rng,
                geom,
                separation_floor_deg=config.separation_floor_deg,
                endfire_margin_deg=margin,
                cluster_decay=config.cluster_decay,
                min_gain=config.min_gain,
                max_retries=config.max_redraws,
            )
            unit = rng.uniform(-1.0, 1.0, size=paths.n_paths)
            h = steering_matrix(geom, paths.azimuths) @ paths.gains
            true_basis = physical_variation_space(geom, paths.azimuths)
            results = {}
            for delta in deltas:
                # At Delta = 0, est equals paths.azimuths bit for bit.
                est = paths.azimuths + math.radians(delta) * unit
                results[delta] = (
                    ac_strategy_bound(paths, est, config, h=h),
                    proposed_strategy_bound(paths, est, config, h=h,
                                            true_basis=true_basis),
                )
            return results, redraw
        except RankDeficientError:
            continue
    raise RuntimeError(
        f"trial {trial_index}: estimated variation space degenerate after "
        f"{config.max_redraws} redraws"
    )


def run_multipath(config):
    """Monte-Carlo multipath sweep, averaged over config.n_trials channels.

    Rows hold the arithmetic mean of the per-trial relative bounds.
    Deterministic for a fixed seed.
    """
    outcomes = [_multipath_trial(config, t) for t in range(config.n_trials)]

    psnr_lin = np.array([10.0 ** (db / 10.0) for db in config.psnr_grid_db])
    rows = []
    total_redraws = sum(r for _, r in outcomes)
    for delta in config.delta_deg:
        sums = {AC_STRATEGY: np.zeros_like(psnr_lin), PROPOSED_STRATEGY: np.zeros_like(psnr_lin)}
        for results, _ in outcomes:
            for bound in results[delta]:
                sums[bound.strategy] += bound.relative_bound(psnr_lin)
        for strategy, acc in sums.items():
            mean = acc / config.n_trials
            for db, value in zip(config.psnr_grid_db, mean):
                rows.append(
                    CurveRow(
                        strategy=strategy,
                        delta_deg=float(delta),
                        psnr_db=float(db),
                        relative_bound=float(value),
                        trials=config.n_trials,
                    )
                )
    table = CurveTable(rows=tuple(rows))
    return table, {"redraws": total_redraws}


def ls_gain_estimate(y, M, E_hat):
    """Least-squares path gains from observations y = M^H h + n.

    Solves y ~ (M^H E_hat) b; requires the composite matrix to have
    full column rank (identifiable configuration).
    """
    y = np.asarray(y, dtype=complex).ravel()
    A = np.conj(np.atleast_2d(M).T) @ np.atleast_2d(E_hat)
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0.0 or np.sum(s > 1e-10 * s[0]) < A.shape[1]:
        raise ValueError("gains are not identifiable from these observations")
    gains, *_ = np.linalg.lstsq(A, y, rcond=None)
    return gains


def refine_angles(y, M, initial_azimuths, steps):
    """Gradient-descent azimuth refinement (demonstration-grade).

    Minimizes ||y - M^H h(b, phi)||^2 over the azimuths with the gains
    profiled out by least squares at every step (variable projection),
    using backtracking line search and a fixed outer step count.
    Zero steps returns the initial azimuths unchanged.
    """
    y = np.asarray(y, dtype=complex).ravel()
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    phi = np.atleast_1d(np.asarray(initial_azimuths, dtype=float)).copy()
    geom = UlaGeometry(M.shape[0])

    def objective(angles):
        E = steering_matrix(geom, angles)
        gains = ls_gain_estimate(y, M, E)
        resid = y - np.conj(M.T) @ (E @ gains)
        return float(np.linalg.norm(resid) ** 2), gains, resid

    f, gains, resid = objective(phi)
    for _ in range(steps):
        # Variable projection: at the LS-optimal gains, the objective's
        # azimuth gradient needs no gain-sensitivity term.
        grad = np.array(
            [
                -2.0
                * np.real(
                    np.vdot(resid, np.conj(M.T) @ (gains[l] * steering_derivative(geom, phi[l])))
                )
                for l in range(phi.shape[0])
            ]
        )
        gnorm = np.abs(grad).max()
        if gnorm == 0.0:
            break
        # Cap the azimuth move to a fraction of the beamwidth (~2/N_t):
        # longer jumps land in sidelobe valleys of the likelihood.
        step = 0.5 / (geom.n_antennas * gnorm)
        for _ in range(40):
            cand = phi - step * grad
            try:
                f_new, gains_new, resid_new = objective(cand)
            except ValueError:
                f_new = np.inf
            if f_new < f:
                phi, f, gains, resid = cand, f_new, gains_new, resid_new
                break
            step *= 0.5
    return phi
