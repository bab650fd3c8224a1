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
  variation space; the bound is the relative CRB of the azimuth-only
  span at the true azimuths (``models.physical_variation_space``, the
  physical model's variation space for real gains) against those
  (mismatched) pilots.  No bias term: the curve is exactly proportional
  to 1/pSNR.

The pSNR axis is swept by varying sigma^2 at fixed transmit power and
fixed channel, so pilot designs are constant along a sweep and each
strategy reduces to a (coefficient, bias floor) pair: the coefficient
CRB * P_t / sigma^2 (relative CRB times pSNR), and a floor that is 0 for
the Proposed strategy.  The coefficients depend on neither P_t nor
||h||, so the sweeps design unit-power pilots.

Both sweeps go through one kernel, ``_strategy_bounds``: for T
channels with L paths each and a (T, B, L) array of azimuth estimates
(one row per Delta) it evaluates every layer once for the whole
(channel, Delta) stack.  One evaluation of the steering columns E, dE
covers the true azimuths and every row of estimates that differs from
them (a row equal to the true azimuths of every channel, as at Delta =
0, reuses them): it gives each true channel h = E b (one matrix-vector
product per channel, as in a call on that channel alone), the E_hat
stack of the AC bounds, which come from one batched SVD
(``ac_strategy_bound``), and the span generators of every variation
space, which ``models._span_basis`` (the builder behind
``physical_variation_space``) orthonormalizes in one stacked
``r_orthonormalize`` call: the true and the estimated variation
spaces.  Then one stacked canonical decomposition and one stacked pilot
design give the Proposed pilots, and one call of
``crb.compression_spectra`` (the kernel behind every basis-form CRB and
identifiability verdict) compresses the (T, B) pilot stack against each
channel's own true basis, the (T, 1) stack of true bases broadcast as in
numpy (``proposed_strategy_bound``), whose bound ``crb._crb_values``
takes from the spectra as it does the basis-form CRB.  Each stacked kernel gives every slice
the bits of its call on that slice alone.  The canonical decomposition
is one ``skew_canonical_form`` call per stack of spaces; inside it only
the real Schur form runs per slice, and an already-canonical slice
(every L = 1 span) skips it.  That matters: where an estimated space has
repeated or zero couplings the pilots depend on which basis of that
subspace the Schur form returns, so any change of rounding before it
would move the Proposed curve at Delta > 0.

``run_multipath`` evaluates its trials in rounds: each round draws the
channel of every pending trial from the trial's own rng stream, groups
the draws by L and makes one kernel call per group of up to
``STACK_TRIALS`` trials (the cap bounds the stack's memory).  A trial whose true
space, estimated space or E_hat degenerates is redrawn in the next
round, so curves, redraw counts and ``DrawError`` (the lowest failing
trial's) are those of drawing the trials one after another.  The
single-path sweep is one kernel call with one channel per Delta, and
``relative_bias`` is a batch of one of ``ac_strategy_bound``.  The kernel
returns one (T, S, 2, B) array, the [coefficient, bias floor] of each
strategy of ``STRATEGIES``; each group of trials writes its rows into the
run's (n_trials, S, 2, nDelta) array.  The curves apply one rule to
every strategy, the trial mean of max(bias, coefficient / pSNR), with
one broadcast over strategies, Delta values and the pSNR grid.

The multipath generator is a deliberately simplified clustered model:
the number of clusters is uniform on {1..7}, main-cluster azimuths are
uniform with a separation floor, and per-cluster mean powers decay
exponentially with cluster index (normalized to unit total).  Trials
are deterministic given (seed, trial index).  The separation test of a
candidate runs on its at most 7 azimuths in Python floats, after one
``np.sin``: the double arithmetic of a pairwise array test, so the same
candidates are accepted.
"""

from __future__ import annotations

import math

import numpy as np

from .crb import _crb_values, _is_singular, compression_spectra
from .models import UlaGeometry, PathSet, _span_basis, _steering_columns
from .pilot import design_observation_matrix
from .rlinalg import RankDeficientError, _integer, _record, finite_number, numerical_rank
from .variation import canonical_decompose

AC_STRATEGY = "AngleConstrained"
PROPOSED_STRATEGY = "Proposed"
# The strategy axis of every bounds array (..., S, 2, B): strategy s holds
# its [coefficient, bias floor] rows; the Proposed floor is 0.
STRATEGIES = (AC_STRATEGY, PROPOSED_STRATEGY)


# Trials per kernel call.  Each stacked trial holds about 0.4 MB of
# working arrays at L = 7 (its true and estimated spaces, their QR copies
# and designs), so three keep a 10-trial run within about 1.3 MB of the
# serial loop's peak memory, while ten trials rarely share L more than
# three times: larger stacks measured no faster.
STACK_TRIALS = 3


class DrawError(RuntimeError):
    """The configuration admits no channel within its draw or redraw budget."""


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


def _psnr_linear(db):
    """The pSNR 10^(dB/10) of a grid entry; +inf past the largest double."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@_record
class ExperimentConfig:
    """Shared configuration of the single-path and multipath sweeps.

    The one validator of a sweep, for the library and the CLI alike:
    ``int`` fields take integers, ``float`` fields finite numbers (bools
    are neither) and ``tuple`` fields sequences of finite numbers, stored
    as tuples of floats; then every tuple must be nonempty and every
    scalar but ``seed`` positive.  A sweep needs ``n_antennas >= 2`` (one
    antenna has no azimuth derivative, so every span is rank deficient),
    and every pSNR 10^(dB/10) must be a finite double above 0: the grid
    lies within about -3236 to 3082 dB.
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
        kinds = self.__annotations__        # strings (PEP 563)
        for kind, check in _FIELD_CHECKS.items():
            for name in self._fields:
                if kinds[name] == kind:
                    object.__setattr__(self, name, check(name, getattr(self, name)))
        for name in self._fields:
            value = getattr(self, name)
            if kinds[name] == "tuple" and not value:
                raise ValueError(f"{name} must not be empty")
            if kinds[name] != "tuple" and name != "seed" and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n_antennas < 2:
            raise ValueError("n_antennas must be at least 2 for a sweep (one antenna "
                             f"has no azimuth derivative), got {self.n_antennas}")
        for db in self.psnr_grid_db:
            if not 0.0 < _psnr_linear(db) < math.inf:
                raise ValueError("psnr_grid_db entries must give a pSNR 10^(dB/10) that "
                                 f"is a finite double above 0, got {db} dB")
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


@_record
class CurveRow:
    strategy: str
    delta_deg: float
    psnr_db: float
    relative_bound: float
    trials: int


@_record
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
    """Bound of the angle-constrained strategy for each E_hat in a stack (..., B, N_t, L).

    Returns the (..., B) CRB coefficients and relative biases of the
    pilots sqrt(P_t/L) E_hat against the true channel h (N_t,), or
    against each channel of a stack h (..., N_t) for the estimates under
    its leading axes.  One batched SVD E_hat = U S W^H: the coefficient
    is the closed form L sum_k 1/s_k^2 (+inf where the singularity test
    of the basis forms fires: the compression eigenvalues are
    (P/L) s_k^2, each twice; the columns of E_hat have unit norm, so
    s_1^2 >= 1 and the absolute floor ZERO_RTOL * L never fires), and U
    projects h onto range(E_hat) for the bias.  Each slice has the bits
    of its own call.  Raises RankDeficientError when any E_hat has
    dependent columns.
    """
    U, s, _ = np.linalg.svd(E_hats, full_matrices=False)
    L = E_hats.shape[-1]
    rank = numerical_rank(s)
    if np.any(rank < L):
        raise RankDeficientError("E_hat is rank deficient", rank=rank)
    h = np.asarray(h)[..., None, :]
    coords = np.conj(np.swapaxes(U, -1, -2)) @ h[..., None]
    resid = h - (U @ coords)[..., 0]
    # ||h||^2 as np.linalg.norm computes it for one vector, per channel.
    hnorm2 = np.sqrt(np.vecdot(h.real, h.real) + np.vecdot(h.imag, h.imag)) ** 2
    bias = np.clip(np.linalg.norm(resid, axis=-1) ** 2 / hnorm2, 0.0, 1.0)
    singular = _is_singular(s[..., -1] ** 2, s[..., 0] ** 2, L)
    coefficient = np.where(singular, math.inf, L * np.sum(1.0 / s**2, axis=-1))
    return coefficient, bias


def relative_bias(h, E_hat):
    """Squared relative residual of projecting h onto range(E_hat)."""
    h = np.asarray(h, dtype=complex).ravel()
    E_hat = np.atleast_2d(np.asarray(E_hat, dtype=complex))
    return float(ac_strategy_bound(h, E_hat[None])[1][0])


def proposed_strategy_bound(true_basis, Ms):
    """Bound of the proposed strategy for each pilot matrix in a stack Ms (..., N_t, m).

    Returns the (...) coefficients CRB * P / sigma^2 of the variation
    space ``true_basis`` (the sweeps pass the azimuth-only span of the
    true azimuths), or of a stack of them broadcast against ``Ms`` as in
    ``compression_spectra``, against pilots of power P = ||M_b||_F^2:
    0.5 ||M_b||_F^2 sum 1/lambda over the compression eigenvalues lambda
    on the true basis, from one ``compression_spectra`` call.  The value
    does not change when M_b is scaled; there is no bias term, and a
    singular compression gives +inf.
    """
    eigs, singular = compression_spectra(true_basis, Ms)
    return _crb_values(eigs, singular, np.linalg.norm(Ms, axis=(-2, -1)) ** 2)


def _strategy_bounds(geom, gains, azimuths, estimates):
    """Strategy bounds of T channels of L paths, for B rows of azimuth estimates each.

    ``gains`` and ``azimuths`` are (T, L), ``estimates`` (T, B, L).
    Returns a (T, S, 2, B) array: the [coefficient, bias floor] of each
    strategy of ``STRATEGIES``, each entry with the bits of a call on its
    channel alone.
    Raises RankDeficientError when any channel's true variation space, or
    any of its rows' E_hat or estimated variation space, degenerates.
    """
    reuse = np.all(estimates == azimuths[:, None], axis=(0, 2))
    # Row 0 holds the true azimuths, rows 1.. the rows of estimates that
    # differ from them; row_of[b] is the row of Delta column b.
    rows = np.concatenate([azimuths[:, None], estimates[:, ~reuse]], axis=1)
    row_of = np.where(reuse, 0, np.cumsum(~reuse))
    E, dE = _steering_columns(geom, rows)
    # One matrix-vector product per channel: a stacked product rounds differently.
    h = np.array([E_t @ b for E_t, b in zip(E[:, 0], gains)])
    bounds = np.zeros((len(gains), len(STRATEGIES), 2, row_of.size))
    bounds[:, 0, 0], bounds[:, 0, 1] = ac_strategy_bound(h, E[:, row_of])
    # The azimuth-only span at each row (``physical_variation_space`` of
    # the same columns): the true space, then the estimated ones.  Slices
    # of the stack are not checked again.
    spaces = _span_basis(E, dE, rows, "physical")
    Ms = design_observation_matrix(canonical_decompose(spaces), 1.0).M[:, row_of]
    bounds[:, 1, 0] = proposed_strategy_bound(spaces[:, :1], Ms)
    return bounds


def _curve_rows(config, bounds, trials):
    """Curve rows from an (n, S, 2, nDelta) bounds array.

    Each row holds the mean over the n samples of max(bias, coefficient
    / pSNR), one rule and one broadcast over samples, strategies, Delta
    values and the pSNR grid.
    """
    psnr_lin = np.array([_psnr_linear(db) for db in config.psnr_grid_db])
    coefficient, bias = np.moveaxis(bounds, 2, 0)[..., None]
    with np.errstate(over="ignore"):    # a bound past the largest double is +inf
        means = np.sum(np.maximum(bias, coefficient / psnr_lin), axis=0) / len(bounds)
    return CurveTable(rows=tuple(
        CurveRow(strategy=strategy, delta_deg=float(delta), psnr_db=float(db),
                 relative_bound=float(value), trials=trials)
        for i, delta in enumerate(config.delta_deg)
        for strategy, mean in zip(STRATEGIES, means)
        for db, value in zip(config.psnr_grid_db, mean[i])))


def run_single_path(config):
    """Single-path sweep: true azimuth Delta, estimate 0, unit gain.

    Deterministic (no randomness); one row per (strategy, Delta, pSNR).
    One kernel call, with one channel per Delta.
    """
    azimuths = np.array([[math.radians(delta)] for delta in config.delta_deg])
    bounds = _strategy_bounds(config.geometry, np.ones(azimuths.shape, dtype=complex),
                              azimuths, np.zeros(azimuths.shape + (1,)))
    # (nDelta, S, 2, 1) -> (1, S, 2, nDelta): one sample of each Delta.
    return _curve_rows(config, np.swapaxes(bounds, 0, -1), trials=1)


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
    max_sine, min_sine_gap = math.cos(margin), math.sin(floor)

    def admissible(cand):
        # At most 7 azimuths: Python floats after one np.sin, the double
        # arithmetic of the pairwise array test without its dispatch.
        sines = np.sin(cand).tolist()
        if max(map(abs, sines)) > max_sine:
            return False
        phis = cand.tolist()
        for i in range(L):
            for j in range(i + 1, L):
                gap = abs(phis[i] - phis[j])
                if (min(gap, 2.0 * math.pi - gap) < floor
                        or abs(sines[i] - sines[j]) < min_sine_gap):
                    return False
        return True

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


def _group_bounds(geom, draws, bounds):
    """Write the bounds of draws ``(trial, paths, estimates)`` that share L
    into their trials' rows of the run's (n_trials, S, 2, nDelta) ``bounds``;
    returns the trials whose spaces or E_hat degenerate.

    One ``_strategy_bounds`` call for the group; when it raises, each draw
    is evaluated alone, so only the degenerate draws are returned.
    """
    trials = [t for t, _, _ in draws]
    try:
        bounds[trials] = _strategy_bounds(
            geom, np.array([paths.gains for _, paths, _ in draws]),
            np.array([paths.azimuths for _, paths, _ in draws]),
            np.array([est for _, _, est in draws]))
    except RankDeficientError:
        if len(draws) == 1:
            return trials
        return [t for draw in draws for t in _group_bounds(geom, [draw], bounds)]
    return []


def run_multipath(config):
    """Monte-Carlo multipath sweep, averaged over config.n_trials channels.

    Rows hold the arithmetic mean of the per-trial relative bounds.
    Deterministic for a fixed seed: trial t draws from its own stream
    ``default_rng([seed, t])`` and redraws from it, within
    ``max_redraws`` draws, while its true space, estimated space or E_hat
    degenerates.  Raises the ``DrawError`` of the lowest failing trial.
    """
    geom = config.geometry
    radians = np.array([math.radians(d) for d in config.delta_deg])
    rngs = [np.random.default_rng([config.seed, t]) for t in range(config.n_trials)]
    bounds = np.empty((config.n_trials, len(STRATEGIES), 2, len(radians)))
    failures = {}
    redraws = 0
    pending = range(config.n_trials)
    for redraw in range(config.max_redraws):
        groups = {}
        for t in pending:
            try:
                paths = generate_clustered_channel(rngs[t], config)
            except DrawError as err:
                failures[t] = err
                continue
            unit = rngs[t].uniform(-1.0, 1.0, size=paths.n_paths)
            # One row per Delta; at Delta = 0 the row equals paths.azimuths bit for bit.
            estimates = paths.azimuths + radians[:, None] * unit
            groups.setdefault(paths.n_paths, []).append((t, paths, estimates))
        pending = []
        stacks = [draws[i:i + STACK_TRIALS]
                  for draws in groups.values() for i in range(0, len(draws), STACK_TRIALS)]
        for draws in stacks:
            failed = _group_bounds(geom, draws, bounds)
            pending += failed
            redraws += redraw * (len(draws) - len(failed))
        # Trials above a failed one cannot change the outcome.
        pending = [t for t in pending if t < min(failures, default=config.n_trials)]
        if not pending:
            break
    for t in pending:
        failures[t] = DrawError(
            f"trial {t}: estimated variation space degenerate after "
            f"{config.max_redraws} redraws"
        )
    if failures:
        raise failures[min(failures)]
    table = _curve_rows(config, bounds, trials=config.n_trials)
    return table, {"redraws": redraws}
