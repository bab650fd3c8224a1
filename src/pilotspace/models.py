"""Concrete channel models: least squares, physical ULA multipath, angle-constrained.

All models target a base station with a centered half-wavelength uniform
linear array along the y-axis: antenna n sits at y_n = (n - (N_t-1)/2)
lambda/2, so the steering phase is pi (n - (N_t-1)/2) sin(phi).  The
centering makes e(phi) and its azimuth derivative exactly complex
orthogonal, which the pilot designs exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def offsets(self):
        """Antenna positions in half-wavelength units, centered (sum = 0).

        Computed once per geometry and read-only.
        """
        n = self.n_antennas
        offsets = np.arange(n) - (n - 1) / 2.0
        offsets.flags.writeable = False
        return offsets


@dataclass(frozen=True)
class PathSet:
    """Complex gains and azimuths of a multipath channel (finite values)."""

    gains: np.ndarray
    azimuths: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=complex).ravel()
        azimuths = np.asarray(self.azimuths, dtype=float).ravel()
        if gains.shape[0] != azimuths.shape[0] or gains.shape[0] < 1:
            raise ValueError("need one gain per azimuth, at least one path")
        if not (np.all(np.isfinite(gains)) and np.all(np.isfinite(azimuths))):
            raise ValueError("gains and azimuths must be finite")
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


def _linear_model(A, name):
    """Linear model h = A (theta_re + j theta_im); its gradient (A, jA) is constant."""
    n_dims, n = A.shape
    grad = np.hstack([A, 1j * A])

    def evaluate(theta):
        theta = np.asarray(theta, dtype=float)
        return A @ (theta[:n] + 1j * theta[n:])

    return ParametricChannelModel(
        n_dims=n_dims,
        n_params=2 * n,
        evaluate=evaluate,
        gradient=lambda theta: grad,
        name=name,
    )


def ls_model(n_tx):
    """Least squares model: parameters are Re/Im of the channel entries.

    h = (Id, j Id) theta with theta = [Re h; Im h]; the gradient is
    constant and the variation space is all of C^{N_t}.
    """
    if n_tx < 1:
        raise ValueError("n_tx must be >= 1")
    return _linear_model(np.eye(n_tx), "ls")


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
    if fixed_azimuths.shape[0] < 1:
        raise ValueError("need at least one azimuth")
    if not np.all(np.isfinite(fixed_azimuths)):
        raise ValueError("azimuths must be finite")
    return _linear_model(steering_matrix(geom, fixed_azimuths), "angle_constrained")


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
