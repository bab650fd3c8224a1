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
  rank-checks E_hat supplies them, and its left vectors the projection
  of the bias term.
* proposed -- pilots of duration ceil(3L/2) built from the estimated
  variation space; the bound is the relative CRB of the full physical
  model evaluated at the true parameters against those (mismatched)
  pilots.  No bias term: the curve is exactly proportional to 1/pSNR.

The pSNR axis is swept by varying sigma^2 at fixed transmit power and
fixed channel, so pilot designs are constant along a sweep and each
strategy reduces to a coefficient, CRB * P_t / sigma^2 (relative CRB
times pSNR), plus an optional bias floor.  The coefficients depend on
neither P_t nor ||h||, so the sweeps design unit-power pilots.

Both sweeps go through one kernel, ``_trial_bounds``: for a channel and
a (B, L) array of azimuth estimates (one row per Delta) it builds the
true channel and the true variation space once, the AC bounds of every
row from one steering call and one batched SVD
(``ac_strategy_bound``), and the Proposed coefficients of every row
from one call of ``crb.compression_spectra`` (the kernel behind every
basis-form CRB and identifiability verdict) on the stacked pilot
matrices and the true basis (``proposed_strategy_bound``).  The
estimated variation space, its canonical decomposition (real Schur
form) and the pilot design stay per row: where the estimated space has
repeated or zero couplings the pilots depend on which basis of that
subspace the Schur form returns, so any change of rounding in those
steps would move the Proposed curve at Delta > 0.  At Delta = 0 the
estimates equal the true azimuths, so the true space also serves as
the estimated one.  A multipath trial is one kernel call over its
Delta values; the single-path sweep is one call per Delta, and
``relative_bias`` is a batch of one of ``ac_strategy_bound``.  The curves
average (n_trials, nDelta) coefficient and bias arrays with one
broadcast over the pSNR grid.

The multipath generator is a deliberately simplified clustered model:
the number of clusters is uniform on {1..7}, main-cluster azimuths are
uniform with a separation floor, and per-cluster mean powers decay
exponentially with cluster index (normalized to unit total).  Trials
are deterministic given (seed, trial index).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .crb import _is_singular, compression_spectra
from .fileio import finite_number
from .models import (
    UlaGeometry,
    PathSet,
    estimated_variation_space,
    physical_variation_space,
    steering_matrix,
)
from .pilot import design_observation_matrix
from .rlinalg import RankDeficientError, numerical_rank
from .variation import canonical_decompose

AC_STRATEGY = "AngleConstrained"
PROPOSED_STRATEGY = "Proposed"


class DrawError(RuntimeError):
    """The configuration admits no channel within its draw or redraw budget."""


def _integer(name, value):
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _finite(name, value):
    if finite_number(value):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _finite_sequence(name, value):
    try:
        return tuple(_finite(name, v) for v in value)
    except (TypeError, ValueError):     # not iterable (or a 0-d array), or a bad entry
        raise ValueError(
            f"{name} must be a sequence of finite numbers, got {value!r}") from None


# Check of each field annotation, in the order they run; returns the stored value.
_FIELD_CHECKS = {"int": _integer, "float": _finite, "tuple": _finite_sequence}


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration of the single-path and multipath sweeps.

    The one validator of a sweep, for the library and the CLI alike:
    ``int`` fields take integers, ``float`` fields finite numbers (bools
    are neither) and ``tuple`` fields sequences of finite numbers, stored
    as tuples of floats; then every tuple must be nonempty and every
    scalar but ``seed`` positive.
    """

    n_antennas: int = 64
    delta_deg: tuple = (0.0, 1.0, 5.0)
    psnr_grid_db: tuple = tuple(range(-10, 51, 5))
    n_trials: int = 100
    seed: int = 7
    separation_floor_deg: float = 2.0
    cluster_decay: float = 1.0
    min_gain: float = 1e-3
    max_redraws: int = 100

    def __post_init__(self):
        for kind, check in _FIELD_CHECKS.items():
            for f in fields(self):
                if f.type == kind:      # annotations are strings (PEP 563)
                    object.__setattr__(self, f.name, check(f.name, getattr(self, f.name)))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "tuple" and not value:
                raise ValueError(f"{f.name} must not be empty")
            if f.type != "tuple" and f.name != "seed" and not value > 0:
                raise ValueError(f"{f.name} must be positive, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.endfire_margin_deg >= 90.0:
            raise ValueError(
                "separation_floor_deg + max|delta_deg| must be below 90 deg, "
                f"got {self.endfire_margin_deg}"
            )

    @property
    def endfire_margin_deg(self):
        """Endfire margin of drawn azimuths: perturbed estimates drift by up
        to max|Delta|, so the separation floor plus that drift."""
        return self.separation_floor_deg + max(map(abs, self.delta_deg))

    @property
    def geometry(self):
        return UlaGeometry(self.n_antennas)


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


def ac_strategy_bound(h, E_hats):
    """Bound of the angle-constrained strategy for each E_hat in a stack (B, N_t, L).

    Returns the (B,) CRB coefficients and (B,) relative biases of the
    pilots sqrt(P_t/L) E_hat against the true channel h.  One batched
    SVD E_hat = U S W^H: the coefficient is the closed form
    L sum_k 1/s_k^2 (+inf where the singularity test of the basis forms
    fires: the compression eigenvalues are (P/L) s_k^2, each twice; the
    columns of E_hat have unit norm, so s_1^2 >= 1 and the absolute floor
    ZERO_RTOL * L never fires), and U projects h onto range(E_hat) for
    the bias.  Raises RankDeficientError when any E_hat has dependent
    columns.
    """
    U, s, _ = np.linalg.svd(E_hats, full_matrices=False)
    L = E_hats.shape[-1]
    if np.any(numerical_rank(s) < L):
        raise RankDeficientError("E_hat is rank deficient")
    coords = np.conj(np.swapaxes(U, 1, 2)) @ h
    resid = h - (U @ coords[..., None])[..., 0]
    hnorm2 = float(np.linalg.norm(h) ** 2)
    bias = np.clip(np.linalg.norm(resid, axis=1) ** 2 / hnorm2, 0.0, 1.0)
    singular = _is_singular(s[:, -1] ** 2, s[:, 0] ** 2, L)
    coefficient = np.where(singular, math.inf, L * np.sum(1.0 / s**2, axis=1))
    return coefficient, bias


def relative_bias(h, E_hat):
    """Squared relative residual of projecting h onto range(E_hat)."""
    h = np.asarray(h, dtype=complex).ravel()
    E_hat = np.atleast_2d(np.asarray(E_hat, dtype=complex))
    return float(ac_strategy_bound(h, E_hat[None])[1][0])


def proposed_strategy_bound(true_basis, Ms):
    """Bound of the proposed strategy for each pilot matrix in a stack Ms (B, N_t, m).

    Returns the (B,) coefficients CRB * P / sigma^2 of the full physical
    model at the true parameters (variation space ``true_basis``) against
    pilots of power P = ||M_b||_F^2: 0.5 ||M_b||_F^2 sum 1/lambda over
    the compression eigenvalues lambda on the true basis, from one
    ``compression_spectra`` call.  The value does not change when M_b is
    scaled; there is no bias term, and a singular compression gives +inf.
    """
    eigs, singular = compression_spectra(true_basis, Ms)
    safe = np.where(singular[:, None], 1.0, eigs)
    energy = np.linalg.norm(Ms, axis=(1, 2)) ** 2
    return np.where(singular, math.inf, 0.5 * energy * np.sum(1.0 / safe, axis=1))


def _steering_stack(geom, estimates):
    """E_hat of each row of azimuth estimates (B, L), stacked as (B, N_t, L)."""
    B, L = estimates.shape
    E = steering_matrix(geom, estimates.ravel())
    return E.reshape(geom.n_antennas, B, L).transpose(1, 0, 2)


def _proposed_pilots(geom, estimates, true_azimuths, true_basis):
    """Unit-power pilots designed from the variation space at the estimated azimuths.

    Estimates equal to the true azimuths reuse the true basis as the
    estimated space.
    """
    if np.array_equal(estimates, true_azimuths):
        est_space = true_basis
    else:
        est_space = estimated_variation_space(geom, estimates)
    return design_observation_matrix(canonical_decompose(est_space), 1.0).M


def _trial_bounds(geom, paths, estimates):
    """Strategy bounds of the channel ``paths`` for each row of azimuth estimates (B, L).

    Returns ``(ac_coefficient, ac_bias, proposed_coefficient)``, (B,)
    arrays.  Raises RankDeficientError when the true variation space or
    any row's E_hat or estimated variation space degenerates.
    """
    h = steering_matrix(geom, paths.azimuths) @ paths.gains
    true_basis = physical_variation_space(geom, paths.azimuths)
    ac_coefficient, ac_bias = ac_strategy_bound(h, _steering_stack(geom, estimates))
    Ms = np.array([_proposed_pilots(geom, est, paths.azimuths, true_basis)
                   for est in estimates])
    return ac_coefficient, ac_bias, proposed_strategy_bound(true_basis, Ms)


def _curve_rows(config, ac_coefficient, ac_bias, proposed_coefficient, trials):
    """Curve rows from (n, nDelta) coefficient and bias arrays.

    Each row holds the mean over the n samples of max(bias, coefficient
    / pSNR), one broadcast over samples, Delta values and the pSNR grid.
    """
    psnr_lin = np.array([10.0 ** (db / 10.0) for db in config.psnr_grid_db])
    n = ac_coefficient.shape[0]
    means = {
        AC_STRATEGY: np.sum(
            np.maximum(ac_bias[..., None], ac_coefficient[..., None] / psnr_lin), axis=0
        ) / n,
        PROPOSED_STRATEGY: np.sum(proposed_coefficient[..., None] / psnr_lin, axis=0) / n,
    }
    rows = []
    for i, delta in enumerate(config.delta_deg):
        for strategy, mean in means.items():
            for db, value in zip(config.psnr_grid_db, mean[i]):
                rows.append(
                    CurveRow(
                        strategy=strategy,
                        delta_deg=float(delta),
                        psnr_db=float(db),
                        relative_bound=float(value),
                        trials=trials,
                    )
                )
    return CurveTable(rows=tuple(rows))


def run_single_path(config):
    """Single-path sweep: true azimuth Delta, estimate 0, unit gain.

    Deterministic (no randomness); one row per (strategy, Delta, pSNR).
    """
    bounds = [
        _trial_bounds(config.geometry, PathSet(gains=[1.0], azimuths=[math.radians(delta)]),
                      np.zeros((1, 1)))
        for delta in config.delta_deg
    ]
    # (nDelta, 3, 1) -> three (1, nDelta) arrays: one sample of each Delta.
    return _curve_rows(config, *np.moveaxis(np.array(bounds), 0, -1), trials=1)


def generate_clustered_channel(rng, config):
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
    angles at least ``endfire_margin_deg`` away from +/- 90 degrees.
    Parameters come from ``config``; ``DrawError`` after ``max_redraws`` failed draws.
    """
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

    azimuths = None
    for _ in range(config.max_redraws):
        cand = rng.uniform(0.0, 2.0 * np.pi, size=L)
        cand = np.mod(cand + np.pi, 2.0 * np.pi) - np.pi
        if admissible(cand):
            azimuths = cand
            break
    if azimuths is None:
        raise DrawError(
            f"could not draw {L} azimuths separated by {config.separation_floor_deg} deg "
            f"in {config.max_redraws} attempts"
        )
    mean_powers = np.exp(-config.cluster_decay * np.arange(L))
    mean_powers /= mean_powers.sum()
    magnitudes = np.maximum(np.sqrt(mean_powers * rng.exponential(1.0, size=L)),
                            config.min_gain)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=L)
    return PathSet(gains=magnitudes * np.exp(1j * phases), azimuths=azimuths)


def _multipath_trial(config, trial_index):
    """One multipath realization: per-Delta strategy coefficients and biases.

    Returns ``(ac_coefficient, ac_bias, proposed_coefficient)``, arrays
    with one entry per Delta, and the redraw count.  Redraws the channel
    (within the trial's own rng stream) when the true variation space or
    any estimate's E_hat or variation space degenerates.
    """
    rng = np.random.default_rng([config.seed, trial_index])
    geom = config.geometry
    radians = np.array([math.radians(d) for d in config.delta_deg])
    for redraw in range(config.max_redraws):
        paths = generate_clustered_channel(rng, config)
        unit = rng.uniform(-1.0, 1.0, size=paths.n_paths)
        # One row per Delta; at Delta = 0 the row equals paths.azimuths bit for bit.
        estimates = paths.azimuths + radians[:, None] * unit
        try:
            return _trial_bounds(geom, paths, estimates), redraw
        except RankDeficientError:
            continue
    raise DrawError(
        f"trial {trial_index}: estimated variation space degenerate after "
        f"{config.max_redraws} redraws"
    )


def run_multipath(config):
    """Monte-Carlo multipath sweep, averaged over config.n_trials channels.

    Rows hold the arithmetic mean of the per-trial relative bounds.
    Deterministic for a fixed seed.
    """
    outcomes = [_multipath_trial(config, t) for t in range(config.n_trials)]
    ac_coefficient, ac_bias, proposed_coefficient = (
        np.array(column) for column in zip(*(bounds for bounds, _ in outcomes))
    )
    table = _curve_rows(config, ac_coefficient, ac_bias, proposed_coefficient,
                        trials=config.n_trials)
    return table, {"redraws": sum(redraw for _, redraw in outcomes)}
