"""Concrete channel models: least squares, physical ULA multipath, angle-constrained.

All models target a base station with a centered half-wavelength uniform
linear array along the y-axis: antenna n sits at y_n = (n - (N_t-1)/2)
lambda/2, so the steering phase is pi (n - (N_t-1)/2) sin(phi).  The
centering makes e(phi) and its azimuth derivative exactly complex
orthogonal, which the pilot designs exploit.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .rlinalg import RankDeficientError, _count, _record, _refuse_stack, r_orthonormalize
from .variation import ParametricChannelModel, _checked_theta


@_record
class UlaGeometry:
    """Centered half-wavelength ULA with n_antennas elements.

    ``n_antennas`` is stored as an int; ValueError unless it is an integer
    (a Python or NumPy integer, not a bool) of at least 1.
    """

    n_antennas: int

    def __post_init__(self):
        object.__setattr__(self, "n_antennas", _count("n_antennas", self.n_antennas))

    @cached_property
    def offsets(self):
        """Antenna positions in half-wavelength units, centered (sum = 0).

        Computed once per geometry and read-only.
        """
        n = self.n_antennas
        offsets = np.arange(n) - (n - 1) / 2.0
        offsets.flags.writeable = False
        return offsets


@_record
class PathSet:
    """Complex gains and azimuths of a multipath channel (finite values).

    One channel: ``gains`` and ``azimuths`` are scalars or 1-D lists; a
    stack of lists (more than one axis) raises ValueError.
    """

    gains: np.ndarray
    azimuths: np.ndarray

    def __post_init__(self):
        hint = "build one PathSet per row (gains[i], azimuths[i])"
        _refuse_stack(self.gains, "gain list", hint, ndim=1)
        _refuse_stack(self.azimuths, "azimuth list", hint, ndim=1)
        gains = np.asarray(self.gains, dtype=complex).ravel()
        azimuths = np.asarray(self.azimuths, dtype=float).ravel()
        if gains.shape[0] != azimuths.shape[0] or gains.shape[0] == 0:
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
        return _per_path(self.gains.real, self.gains.imag, self.azimuths)


def _per_path(first, second, third):
    """The per-path layout (first_1, second_1, third_1, first_2, ...): a
    (..., 3L) array from three (..., L) arrays, in their ``np.result_type``."""
    out = np.empty(first.shape[:-1] + (3 * first.shape[-1],),
                   dtype=np.result_type(first, second, third))
    out[..., 0::3] = first
    out[..., 1::3] = second
    out[..., 2::3] = third
    return out


def steering_matrix(geom, azimuths):
    """Columns e(phi_l) for a list of azimuths: the unit-norm array responses
    E_nl = exp(j pi (n - (N_t-1)/2) sin(phi_l)) / sqrt(N_t).

    Azimuths (..., L) give a stack (..., N_t, L); every entry is
    elementwise, so each slice has the bits of its own call.
    """
    azimuths = np.atleast_1d(np.asarray(azimuths, dtype=float))[..., None, :]
    offsets = geom.offsets[:, None]
    return np.exp(1j * (np.pi * offsets * np.sin(azimuths))) / math.sqrt(geom.n_antennas)


def _steering_columns(geom, azimuths):
    """Steering columns E = (e(phi_l)) and their derivatives dE = (de/dphi_l).

    dE_nl = j pi (n - (N_t-1)/2) cos(phi_l) E_nl.  Because the offsets
    sum to zero, e(phi)^H de/dphi = 0 exactly; at endfire
    (phi = +/- pi/2) the derivative vanishes.  Stacks as ``steering_matrix``.
    """
    E = steering_matrix(geom, azimuths)
    azimuths = np.atleast_1d(np.asarray(azimuths, dtype=float))[..., None, :]
    dE = 1j * np.pi * geom.offsets[:, None] * np.cos(azimuths) * E
    return E, dE


def steering_vector(geom, azimuth):
    """Unit-norm array response e(phi) of the centered ULA."""
    return steering_matrix(geom, azimuth)[:, 0]


def steering_derivative(geom, azimuth):
    """d e(phi) / d phi (see ``_steering_columns``)."""
    return _steering_columns(geom, azimuth)[1][:, 0]


def _linear_model(A, name):
    """Linear model h = A (theta_re + j theta_im); its gradient (A, jA) is
    constant.  ``evaluate`` refuses a theta without 2 n entries."""
    n_dims, n = A.shape
    grad = np.hstack([A, 1j * A])

    def evaluate(theta):
        theta = _checked_theta(theta, 2 * n)
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
    constant and the variation space is all of C^{N_t}.  ValueError unless
    ``n_tx`` is an integer (not a bool) of at least 1.
    """
    return _linear_model(np.eye(_count("n_tx", n_tx)), "ls")


def physical_model(geom, n_paths):
    """Sum of n_paths steering vectors with complex gains.

    theta = [Re b_1, Im b_1, phi_1, ..., Re b_L, Im b_L, phi_L]; the
    gradient columns per path are e(phi_l), j e(phi_l), b_l de/dphi_l.
    A zero gain makes the azimuth column vanish (rank deficiency is
    surfaced by variation_space, not silently repaired).  ValueError
    unless ``n_paths`` is an integer (not a bool) of at least 1, and from
    ``evaluate`` and ``gradient`` unless theta has 3 n_paths entries.
    """
    n_paths = _count("n_paths", n_paths)

    def split(theta):
        theta = _checked_theta(theta, 3 * n_paths)
        gains = theta[0::3] + 1j * theta[1::3]
        azimuths = theta[2::3]
        return gains, azimuths

    def evaluate(theta):
        gains, azimuths = split(theta)
        return steering_matrix(geom, azimuths) @ gains

    def gradient(theta):
        gains, azimuths = split(theta)
        E, dE = _steering_columns(geom, azimuths)
        return _per_path(E, 1j * E, gains * dE)

    return ParametricChannelModel(
        n_dims=geom.n_antennas,
        n_params=3 * n_paths,
        evaluate=evaluate,
        gradient=gradient,
        name="physical",
    )


def _checked_azimuths(azimuths):
    """Azimuths as a float array (at least 1-D, a stack of lists allowed);
    ValueError when a list is empty or an entry is not finite."""
    azimuths = np.atleast_1d(np.asarray(azimuths, dtype=float))
    if azimuths.shape[-1] == 0:
        raise ValueError("need at least one azimuth")
    if not np.all(np.isfinite(azimuths)):
        raise ValueError("azimuths must be finite")
    return azimuths


def angle_constrained_model(geom, fixed_azimuths):
    """Linear gains-only model with azimuths frozen at estimates.

    h = (E, jE) theta with E the steering matrix of the fixed azimuths
    and theta = [Re b; Im b].  ValueError on an empty azimuth list, on
    non-finite azimuths and on a stack of lists (a 2-D array: one model
    per row).
    """
    azimuths = _checked_azimuths(fixed_azimuths)
    _refuse_stack(azimuths, "azimuth list", "build one model per row (azimuths[i])", ndim=1)
    return _linear_model(steering_matrix(geom, azimuths), "angle_constrained")


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


def _span_basis(E, dE, azimuths, origin):
    """``RBasis`` of the real span of the generators of ``_SPAN_GENERATORS``,
    built per path from steering columns E, dE (``_steering_columns``) at
    ``azimuths`` (..., L): one ``r_orthonormalize`` call for a stack.  A
    rank collapse raises RankDeficientError naming the ``origin`` space,
    the azimuths and the collapsing generators."""
    try:
        basis, _ = r_orthonormalize(_per_path(E, -1j * E, dE))
    except RankDeficientError as err:
        raise RankDeficientError(
            f"{origin} variation space is rank deficient for azimuths "
            f"{np.degrees(azimuths).tolist()} deg: "
            f"{_collapsing_generators(err.null_space)} ({err})",
            rank=err.rank,
            null_space=err.null_space,
        ) from err
    return basis


def physical_variation_space(geom, azimuths):
    """The azimuth-only span: an ``RBasis`` of the real span of
    {e(phi_l), -j e(phi_l), de/dphi_l} per path.

    It is the variation space of ``physical_model`` when the path gains
    are real.  A complex gain b_l turns the derivative generator into
    b_l de/dphi_l: for one path that multiplies the whole space by a unit
    phase, which leaves its couplings and every bound unchanged, but for
    L >= 2 the gain phases change the span and its couplings, which this
    span does not see (ROADMAP.md, open item 1).  Azimuths (..., L) give
    a stack of bases from one ``r_orthonormalize`` call, which raises
    when any slice is rank deficient.
    """
    azimuths = _checked_azimuths(azimuths)
    return _span_basis(*_steering_columns(geom, azimuths), azimuths, "physical")


def estimated_variation_space(geom, estimated_azimuths):
    """The azimuth-only span of azimuth estimates: the variation-space
    estimate that pilots are designed from.

    Same span construction (and ``RBasis``) as
    ``physical_variation_space``, so for L >= 2 it estimates the
    variation space of real path gains only (ROADMAP.md, open item 1);
    the rank-deficiency error calls the space estimated.  Fails for
    (near-)coincident or endfire estimates, where the generators
    degenerate.
    """
    azimuths = _checked_azimuths(estimated_azimuths)
    return _span_basis(*_steering_columns(geom, azimuths), azimuths, "estimated")
