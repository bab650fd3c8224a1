"""Concrete channel models: least squares, physical ULA multipath, angle-constrained.

All models target a base station with a centered half-wavelength uniform
linear array along the y-axis: antenna n sits at y_n = (n - (N_t-1)/2)
lambda/2, so the steering phase is pi (n - (N_t-1)/2) sin(phi).  The
centering makes e(phi) and its azimuth derivative exactly complex
orthogonal, which the pilot designs exploit.

The Kronecker builder assembles the full observation matrix
Id_{N_r} (x) X (x) F of a generic pilot matrix X sent on selected
subcarriers, with the power identity ||M||_F^2 = N_r N_ps ||X||_F^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rlinalg import RankDeficientError, r_orthonormalize
from .variation import ParametricChannelModel


@dataclass(frozen=True)
class UlaGeometry:
    """Centered half-wavelength ULA with n_antennas elements."""

    n_antennas: int

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("need at least one antenna")

    @property
    def offsets(self):
        """Antenna positions in half-wavelength units, centered (sum = 0)."""
        n = self.n_antennas
        return np.arange(n) - (n - 1) / 2.0


@dataclass(frozen=True)
class PathSet:
    """Complex gains and azimuths of a multipath channel."""

    gains: np.ndarray
    azimuths: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=complex).ravel()
        azimuths = np.asarray(self.azimuths, dtype=float).ravel()
        if gains.shape[0] != azimuths.shape[0] or gains.shape[0] < 1:
            raise ValueError("need one gain per azimuth, at least one path")
        if np.any(azimuths < -np.pi) or np.any(azimuths >= np.pi):
            raise ValueError("azimuths must lie in [-pi, pi)")
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "azimuths", azimuths)

    @property
    def n_paths(self):
        return self.gains.shape[0]

    def theta(self):
        """Parameter vector [Re b_1, Im b_1, phi_1, ...] of the physical model."""
        out = np.empty(3 * self.n_paths)
        out[0::3] = self.gains.real
        out[1::3] = self.gains.imag
        out[2::3] = self.azimuths
        return out


def _steering_columns(geom, azimuths):
    """Steering columns E = (e(phi_l)) and their derivatives dE = (de/dphi_l).

    E_nl = exp(j pi (n - (N_t-1)/2) sin(phi_l)) / sqrt(N_t) and
    dE_nl = j pi (n - (N_t-1)/2) cos(phi_l) E_nl.  Because the offsets
    sum to zero, e(phi)^H de/dphi = 0 exactly; at endfire
    (phi = +/- pi/2) the derivative vanishes.
    """
    azimuths = np.atleast_1d(np.asarray(azimuths, dtype=float))
    offsets = geom.offsets[:, None]
    E = np.exp(1j * (np.pi * offsets * np.sin(azimuths))) / math.sqrt(geom.n_antennas)
    dE = 1j * np.pi * offsets * np.cos(azimuths) * E
    return E, dE


def steering_vector(geom, azimuth):
    """Unit-norm array response e(phi) of the centered ULA."""
    return _steering_columns(geom, azimuth)[0][:, 0]


def steering_derivative(geom, azimuth):
    """d e(phi) / d phi (see ``_steering_columns``)."""
    return _steering_columns(geom, azimuth)[1][:, 0]


def steering_matrix(geom, azimuths):
    """Columns e(phi_l) for a list of azimuths."""
    return _steering_columns(geom, azimuths)[0]


def ls_model(n_tx):
    """Least squares model: parameters are Re/Im of the channel entries.

    h = (Id, j Id) theta with theta = [Re h; Im h]; the gradient is
    constant and the variation space is all of C^{N_t}.
    """
    if n_tx < 1:
        raise ValueError("n_tx must be >= 1")
    grad = np.hstack([np.eye(n_tx), 1j * np.eye(n_tx)])

    def evaluate(theta):
        theta = np.asarray(theta, dtype=float)
        return theta[:n_tx] + 1j * theta[n_tx:]

    return ParametricChannelModel(
        n_dims=n_tx,
        n_params=2 * n_tx,
        evaluate=evaluate,
        gradient=lambda theta: grad,
        name="ls",
    )


def physical_model(geom, n_paths):
    """Sum of n_paths steering vectors with complex gains.

    theta = [Re b_1, Im b_1, phi_1, ..., Re b_L, Im b_L, phi_L]; the
    gradient columns per path are e(phi_l), j e(phi_l), b_l de/dphi_l.
    A zero gain makes the azimuth column vanish (rank deficiency is
    surfaced by variation_space, not silently repaired).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_tx = geom.n_antennas

    def split(theta):
        theta = np.asarray(theta, dtype=float)
        gains = theta[0::3] + 1j * theta[1::3]
        azimuths = theta[2::3]
        return gains, azimuths

    def evaluate(theta):
        gains, azimuths = split(theta)
        return steering_matrix(geom, azimuths) @ gains

    def gradient(theta):
        gains, azimuths = split(theta)
        E, dE = _steering_columns(geom, azimuths)
        cols = np.empty((n_tx, 3 * n_paths), dtype=complex)
        cols[:, 0::3] = E
        cols[:, 1::3] = 1j * E
        cols[:, 2::3] = gains * dE
        return cols

    return ParametricChannelModel(
        n_dims=n_tx,
        n_params=3 * n_paths,
        evaluate=evaluate,
        gradient=gradient,
        name="physical",
    )


def angle_constrained_model(geom, fixed_azimuths):
    """Linear gains-only model with azimuths frozen at estimates.

    h = (E, jE) theta with E the steering matrix of the fixed azimuths
    and theta = [Re b; Im b].
    """
    fixed_azimuths = np.atleast_1d(np.asarray(fixed_azimuths, dtype=float))
    n_paths = fixed_azimuths.shape[0]
    if n_paths < 1:
        raise ValueError("need at least one azimuth")
    E = steering_matrix(geom, fixed_azimuths)
    grad = np.hstack([E, 1j * E])

    def evaluate(theta):
        theta = np.asarray(theta, dtype=float)
        return E @ (theta[:n_paths] + 1j * theta[n_paths:])

    return ParametricChannelModel(
        n_dims=geom.n_antennas,
        n_params=2 * n_paths,
        evaluate=evaluate,
        gradient=lambda theta: grad,
        name="angle_constrained",
    )


# Generators of the steering span, per path, in column order.
_SPAN_GENERATORS = ("e(phi_{})", "-j e(phi_{})", "de/dphi(phi_{})")
# A generator collapses when its weight in the null space of the rank
# test is at least this fraction of the largest weight.
NULL_WEIGHT_RTOL = 1e-3


def _collapsing_generators(null_space):
    """Name the span generators behind a rank collapse, and their azimuths.

    ``null_space`` holds the null right-singular vectors of the rank
    test's factor (``RankDeficientError.null_space``): each column is a
    real coefficient vector x with G x ~ 0.  A generator's weight is the
    norm of its row, which does not depend on the basis of the null space.
    """
    if null_space is None:
        return "near-degenerate generator set"
    weights = np.linalg.norm(null_space, axis=1)
    cols = np.flatnonzero(weights >= NULL_WEIGHT_RTOL * weights.max())
    names = [_SPAN_GENERATORS[g % 3].format(g // 3) for g in cols]
    paths = sorted({int(g) // 3 for g in cols})
    return f"collapsing generators {', '.join(names)} at azimuth indices {paths}"


def _steering_span(geom, azimuths, origin):
    azimuths = np.atleast_1d(np.asarray(azimuths, dtype=float))
    if not np.all(np.isfinite(azimuths)):
        raise ValueError("azimuths must be finite")
    E, dE = _steering_columns(geom, azimuths)
    G = np.empty((geom.n_antennas, 3 * azimuths.shape[0]), dtype=complex)
    G[:, 0::3] = E
    G[:, 1::3] = -1j * E
    G[:, 2::3] = dE
    try:
        basis, _ = r_orthonormalize(G)
    except (RankDeficientError, ValueError) as err:
        null_space = getattr(err, "null_space", None)
        raise RankDeficientError(
            f"{origin} variation space is rank deficient for azimuths "
            f"{np.degrees(azimuths).tolist()} deg: "
            f"{_collapsing_generators(null_space)} ({err})",
            rank=getattr(err, "rank", None),
            null_space=null_space,
        ) from err
    return basis


def physical_variation_space(geom, azimuths):
    """Variation space of the physical multipath model, from azimuths alone.

    An ``RBasis`` of the real span of {e(phi_l), -j e(phi_l), de/dphi_l}
    per path: the azimuths determine the space, the path gains do not
    (gains only phase-rotate the derivative directions, which leaves
    every design and bound built from the space unchanged).
    """
    return _steering_span(geom, azimuths, origin="physical")


def estimated_variation_space(geom, estimated_azimuths):
    """Variation-space estimate from azimuth estimates alone.

    Same span construction (and ``RBasis``) as
    ``physical_variation_space``; the rank-deficiency error calls the
    space estimated.  Fails for (near-)coincident or endfire estimates,
    where the generators degenerate.
    """
    return _steering_span(geom, estimated_azimuths, origin="estimated")


def kron_observation(X, F, n_rx):
    """Full observation matrix Id_{N_r} (x) X (x) F.

    F must be a column-sampled identity (0/1 entries, exactly one 1 per
    column, distinct rows selected), selecting the pilot subcarriers.
    """
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    F = np.atleast_2d(np.asarray(F))
    if n_rx < 1:
        raise ValueError("n_rx must be >= 1")
    if not np.all(np.isin(F, (0, 1))):
        raise ValueError("F must contain only 0/1 entries")
    if np.any(F.sum(axis=0) != 1):
        raise ValueError("each column of F must select exactly one subcarrier")
    rows = np.argmax(F, axis=0)
    if len(set(rows.tolist())) != F.shape[1]:
        raise ValueError("columns of F must select distinct subcarriers")
    return np.kron(np.kron(np.eye(n_rx), X), F.astype(float))
