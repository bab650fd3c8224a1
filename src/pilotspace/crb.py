"""Fisher information and Cramer-Rao bounds for noisy linear channel observations.

Observation model: y = M^H h(theta) + n with n circular complex Gaussian
of per-entry variance sigma^2.  The channel-MSE Cramer-Rao bound is
computed in three equivalent forms:

* directly from the gradient, Tr[dh I^{-1} dh^H] with the Slepian-Bangs
  Fisher matrix I = (2/sigma^2) Re{dh^H M M^H dh}, whose Jacobi-scaled
  copy is factored once by Cholesky for both the verdict and the value.
  A gradient of complex lines only, the (A, jA) of a linear model, takes
  I in its r x r complex form H = (2/sigma^2) (M^H A)^H (M^H A) (van den
  Bos's complex-parameter Fisher matrix); any other gradient takes the
  real k x k I.  Either way this form builds no basis and compresses
  nothing, so it checks the two below by a different computation;
* through any real-orthonormal basis U of the variation space,
  (sigma^2/2) Tr[Re{U^H M M^H U}^{-1}];
* intrinsically, as the trace of the inverse compression of M M^H to
  the variation space (identical to the previous form numerically).

``compression_spectra`` is the one kernel behind the basis forms: it
takes a stack of observation matrices and returns the ascending
eigenvalues of each compression with its singularity verdict.
``crb_via_variation_space`` and ``check_identifiability`` call it with a
stack of one, and the multipath experiment once per group of channels,
with a stack of true bases and the pilot matrices of every channel and
Delta value at once.  On a linear model's closed-form basis
(q_1, -j q_1, ...), which the basis reports as ``RBasis.pairs``, the
variation space is the complex span of Q, and the kernel takes the
spectrum of the r x r Hermitian Q^H M M^H Q, each eigenvalue twice: the classical training-based bound
sigma^2 Tr[(Q^H M M^H Q)^{-1}] in r x r complex algebra.

Non-identifiability (singular Fisher matrix / singular compression) is
reported as an infinite bound, never as an exception, so parameter
sweeps can pass through singular configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .rlinalg import (
    COUPLING_SNAP,
    RANK_CERT_MARGIN,
    _checked_observations,
    cholesky_in_place,
    compression_matrix,
    real_gram,
    solve_right,
    stacked_real,
    triangle_inverse,
)
from .variation import _complex_lines, _model_gradient

# A compression (or FIM) counts as singular when its smallest eigenvalue
# falls below this fraction of the largest.
EIG_RTOL = 1e-10


def _check_finite_positive(name, value):
    """ValueError naming ``name`` unless ``value`` is finite and positive."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. circular complex Gaussian observation noise of variance sigma2."""

    sigma2: float

    def __post_init__(self):
        _check_finite_positive("sigma2", self.sigma2)


@dataclass(frozen=True)
class CrbReport:
    """Cramer-Rao bound value with identifiability diagnostics.

    ``value`` is +inf exactly when ``identifiable`` is False.  Each form
    reports the matrix it factors and leaves the other field ``None``:

    * ``min_eig_compression`` -- the smallest eigenvalue of the
      compression Re{U^H M M^H U} on the given basis U; set by the
      basis forms, ``None`` for the direct form.
    * ``fim`` -- the real N_p x N_p Fisher matrix, in the model's
      parameter order; set by the direct form, whose verdict is the
      eigenvalue test on its Jacobi-scaled copy S (certified from the
      Cholesky factor of S where it can be, so that no eigenvalue is
      computed) and whose ``value`` comes from the same factor; for a
      gradient of complex lines only, S is the complex r x r form of
      the matrix.  ``None`` for the basis forms.
    """

    value: float
    identifiable: bool
    min_eig_compression: float | None = None
    fim: np.ndarray | None = None


@dataclass(frozen=True)
class IdentifiabilityReport:
    identifiable: bool
    min_eig: float
    max_eig: float
    n_obs_given: int
    n_obs_required: int
    count_sufficient: bool
    message: str


@dataclass(frozen=True)
class CrbMinResult:
    """Minimal CRB over all observation matrices of power P.

    ``lower_bound``/``upper_bound`` are the universal envelopes
    sigma^2 Np^2 / (4P) and sigma^2 Np^2 / (2P); the left is attained
    iff Np is even and every coupling is 1, the right iff every
    coupling is 0.
    """

    value: float
    c: np.ndarray
    epsilon: int
    power: float
    sigma2: float
    lower_bound: float
    upper_bound: float


def fim(model, theta, M, noise):
    """Fisher information matrix (2/sigma^2) Re{dh^H M M^H dh}.

    Raises ValueError as ``crb_direct`` does on theta, the gradient and M.
    A gradient of complex lines only (``_all_lines``) has its matrix built
    from the complex r x r Fisher matrix, as in ``crb_direct``, with the
    same bits.
    """
    grad = _checked_gradient(model, theta)
    M = _checked_m(grad, M)
    lines = _all_lines(grad)
    if lines is None:
        return _fisher(grad, M, noise)
    return _real_fisher(_complex_fisher(grad[:, lines[0]], M, noise), lines)


def _checked_gradient(model, theta):
    """The gradient of ``model`` at ``theta``, checked as ``variation_space``
    checks it (``variation._model_gradient``); ValueError on a non-finite
    entry."""
    grad = _model_gradient(model, theta)
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient contains non-finite entries")
    return grad


def _checked_m(grad, M):
    """M as a complex 2-D array; ValueError if its row count differs from
    the gradient's or it has non-finite entries."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[0] != grad.shape[0]:
        raise ValueError(
            f"M has {M.shape[0]} rows but the gradient has {grad.shape[0]}"
        )
    if not np.all(np.isfinite(M)):
        raise ValueError("observation matrix M contains non-finite entries")
    return M


def _fisher(grad, M, noise):
    """The real Fisher matrix (2/sigma^2) Re{G^H M M^H G}, G = dh."""
    I = (2.0 / noise.sigma2) * real_gram(np.conj(M.T) @ grad)
    return 0.5 * (I + I.T)


def _all_lines(grad):
    """``(first, second, sign)`` when every column of the gradient lies in a
    complex line (``variation._complex_lines`` pairs them all), else None.

    Line l is the column pair (first[l], second[l]), two slices, with
    grad[:, second] == sign * j grad[:, first] and each sign +/-1: the
    halves (A, jA) of a linear model, or the adjacent pairs (g, +/-j g),
    which cover every column only as (0, 1), (2, 3), ...  With
    A = grad[:, first] the channel moves by A z, z = x_first + j sign x_second.
    """
    lines = _complex_lines(grad)
    if lines is None:
        return None
    first, rest = lines
    k = grad.shape[1]
    if isinstance(first, slice):             # the halves (A, jA), all or nothing
        return first, slice(k // 2, k), np.ones(k // 2)
    if rest.size:                            # a column in no line
        return None
    first, second = slice(0, k, 2), slice(1, k, 2)
    plus = np.all(grad[:, second] == 1j * grad[:, first], axis=0)
    return first, second, np.where(plus, 1.0, -1.0)


def _complex_fisher(A, M, noise):
    """The complex r x r Fisher matrix H = (2/sigma^2) (M^H A)^H (M^H A),
    Hermitian by construction (its diagonal is real)."""
    J = np.conj(M.T) @ A
    H = (2.0 / noise.sigma2) * (np.conj(J.T) @ J)
    return 0.5 * (H + np.conj(H.T))


def _real_fisher(H, lines):
    """The real k x k Fisher matrix of an all-lines gradient, in the model's
    parameter order and signs, from its complex Fisher matrix H.

    The columns (first, second) are (A, j A diag(s)) = A C with
    C = (Id, j diag(s)), so the real Fisher matrix Re{C^H H C} has the
    blocks Re H, -Im H diag(s), diag(s) Im H and diag(s) Re H diag(s).
    """
    first, second, sign = lines
    k = 2 * sign.size
    I = np.empty((k, k))
    I[first, first] = H.real
    np.multiply(H.imag, -sign, out=I[first, second])
    np.multiply(sign[:, None], H.imag, out=I[second, first])
    np.multiply(np.multiply.outer(sign, sign), H.real, out=I[second, second])
    return I


# An eigenvalue (or FIM diagonal entry) at or below this fraction of its
# a-priori scale is rounding noise: the matrix counts as exactly zero there.
ZERO_RTOL = 1e-14
SCALE_FLOOR = 1e-300   # least scale of that test: M = 0 still gets a positive floor


def _is_singular(min_eig, max_eig, scale):
    """Singularity test with an absolute floor; elementwise on arrays.

    ``scale`` is an a-priori upper bound on the achievable largest
    eigenvalue (the observation energy); without it an exactly-zero
    matrix would pass the relative test on rounding noise alone.
    """
    floor = ZERO_RTOL * np.maximum(scale, SCALE_FLOOR)
    return (max_eig <= floor) | (min_eig <= EIG_RTOL * max_eig)


def _jacobi_scale(d, grad, M, noise):
    """The scale D^{-1/2} of the Jacobi-scaled Fisher matrix D^{-1/2} I D^{-1/2},
    D = diag(I) with real diagonal ``d``, or None when an entry of d is at
    noise level.

    Rescaling a parameter rescales a row and a column of I but leaves the
    scaled matrix, like the CRB, unchanged, so the verdict on it does not
    depend on parameter units.  A diagonal entry at the noise level of its
    bound (2/sigma^2) ||M||_F^2 ||dh_i||^2 is a parameter no observation
    sees: singular.  ``grad`` holds the column dh_i of each entry.
    """
    bound = (2.0 / noise.sigma2) * float(np.linalg.norm(M) ** 2) * np.sum(
        np.abs(grad) ** 2, axis=0
    )
    if np.any(d <= ZERO_RTOL * np.maximum(bound, SCALE_FLOOR)):
        return None
    return 1.0 / np.sqrt(d)


def _scaled(I, scale):
    """The Jacobi-scaled Fisher matrix D^{-1/2} I D^{-1/2} (one allocation)."""
    S = scale[:, None] * I
    S *= scale
    return S


def _cholesky_certified(R):
    """Whether the Cholesky factor R of the Jacobi-scaled Fisher matrix
    S = R^H R certifies that S passes the eigenvalue test of ``_is_singular``.

    lambda_max / lambda_min of S is (sigma_max / sigma_min)^2 of R, at most
    (||R||_F ||R^{-1}||_F)^2, so S is nonsingular when that bound times
    EIG_RTOL passes RANK_CERT_MARGIN (the margin absorbs the rounding of
    the factor and of its inverse).  A failed certificate decides nothing.
    R may be real or complex.  The inverse is freed on return.
    """
    R_inv = triangle_inverse(R)
    if R_inv is None:
        return False
    bound = (np.linalg.norm(R) * np.linalg.norm(R_inv)) ** 2
    # A NaN or inf bound fails the comparison.
    return bool(bound * EIG_RTOL < RANK_CERT_MARGIN)


def crb_direct(model, theta, M, noise):
    """CRB from the gradient: Tr[dh FIM^{-1} dh^H].

    The verdict is taken on the Jacobi-scaled Fisher matrix
    S = D^{-1/2} F D^{-1/2}, D = diag(F) (``_jacobi_scale``): a diagonal
    entry at noise level, or a failed eigenvalue test of S
    (``_is_singular`` at EIG_RTOL), yields an infinite, non-identifiable
    report.  S is factored once, S = R^H R by Cholesky, in place.  The
    factor certifies the verdict where it can (``_cholesky_certified``),
    and no eigenvalue is computed; where it cannot, or where S has no
    Cholesky factor, ``eigvalsh(S)`` decides, so the verdict is that of
    the eigenvalue test either way.  The value then comes from one
    triangular solve with R.

    F takes one of two forms.  A gradient of complex lines only
    (``_all_lines``: the (A, jA) of ``models.ls_model`` and
    ``models.angle_constrained_model``, or adjacent pairs (g, +/-j g))
    moves the channel by A z with z complex, and F is the r x r Hermitian
    H = (2/sigma^2) (M^H A)^H (M^H A) (van den Bos's complex-parameter
    Fisher matrix): the real Fisher matrix is its real form, whose
    spectrum is that of H with each eigenvalue twice, and the bound is
    2 Tr[A H^{-1} A^H] = 2 ||A D^{-1/2} R^{-1}||_F^2.  Any other gradient
    (``models.physical_model``, whose azimuth columns are in no line,
    among them) takes the real k x k F = I = (2/sigma^2) Re{dh^H M M^H dh}
    and the value ||[Re dh; Im dh] D^{-1/2} R^{-1}||_F^2.  Either way
    the form builds no basis and compresses nothing: it stays a check of
    ``crb_via_variation_space`` by a different computation.

    The report carries the real Fisher matrix ``fim`` (the matrix of
    ``fim``, bit for bit) and no compression eigenvalue.  Raises
    ValueError as ``variation_space`` does when theta or the gradient
    does not fit the model, and on non-finite entries.
    """
    grad = _checked_gradient(model, theta)
    M = _checked_m(grad, M)
    lines = _all_lines(grad)
    if lines is None:
        F = I = _fisher(grad, M, noise)
        cols = grad
    else:
        cols = grad[:, lines[0]]
        F = _complex_fisher(cols, M, noise)
        I = _real_fisher(F, lines)
    scale = _jacobi_scale(np.diag(F).real, cols, M, noise)
    if scale is None:
        return CrbReport(value=math.inf, identifiable=False, fim=I)
    R = cholesky_in_place(_scaled(F, scale))
    if R is None or not _cholesky_certified(R):
        # The factor overwrote S: scale again, to the same bits.
        eigs = np.linalg.eigvalsh(_scaled(F, scale))
        # The scaled diagonal is all ones, so max_eig >= 1 and only the
        # relative test can fire.
        if _is_singular(eigs[0], eigs[-1], 1.0):
            return CrbReport(value=math.inf, identifiable=False, fim=I)
        if R is None:
            raise LinAlgError("Fisher matrix passed the eigenvalue test but has "
                              "no Cholesky factor")
    if lines is None:
        X = stacked_real(grad)
        X *= scale
        value = float(np.linalg.norm(solve_right(X, R)) ** 2)
    else:
        value = 2.0 * float(np.linalg.norm(solve_right(cols * scale, R)) ** 2)
    return CrbReport(value=value, identifiable=True, fim=I)


def compression_spectra(basis, Ms):
    """Spectra of the compressions Re{U^H M M^H U} of a stack of matrices.

    ``Ms`` has shape (..., ambient_dim, m); the leading axes of a stack
    of bases broadcast against those of ``Ms`` as in numpy.  Returns the
    (..., dim) ascending eigenvalues of each compression and the (...)
    boolean ``_is_singular`` verdicts, whose absolute floor scales with
    each energy ||M||_F^2.  Each slice has the bits of a stack of one.

    A basis (q_1, -j q_1, q_2, -j q_2, ...) (``RBasis.pairs``: the
    closed-form basis of a linear model) spans the complex span of
    Q, and its compression is the real form of the r x r Hermitian
    Y = Q^H M M^H Q, whose spectrum is that of Y with every eigenvalue
    twice.  Such a basis takes Y's ``eigvalsh`` instead of the 2r x 2r
    real compression; every other basis takes ``compression_matrix``.
    """
    Q = basis.pairs
    if Q is None:
        eigs = np.linalg.eigvalsh(compression_matrix(basis, Ms))
    else:
        M = _checked_observations(basis, Ms)
        X = np.conj(np.swapaxes(M, -1, -2)) @ Q      # (..., m, r)
        eigs = np.repeat(np.linalg.eigvalsh(np.conj(np.swapaxes(X, -1, -2)) @ X), 2, axis=-1)
    return eigs, _is_singular(eigs[..., 0], eigs[..., -1], np.linalg.norm(Ms, axis=(-2, -1)) ** 2)


def _spectra(C, energy):
    """Ascending eigenvalues of compressions C (..., dim, dim) and their
    ``_is_singular`` verdicts at observation energies ``energy`` (...)."""
    eigs = np.linalg.eigvalsh(C)
    return eigs, _is_singular(eigs[..., 0], eigs[..., -1], energy)


def _crb_report(eigs, singular, noise):
    """Basis-form report of one ascending compression spectrum and its verdict."""
    min_eig = float(eigs[0])
    if singular:
        return CrbReport(
            value=math.inf, identifiable=False, min_eig_compression=min_eig
        )
    value = 0.5 * noise.sigma2 * float(np.sum(1.0 / eigs))
    return CrbReport(value=value, identifiable=True, min_eig_compression=min_eig)


def crb_via_variation_space(basis, M, noise):
    """CRB through a real-orthonormal variation-space basis.

    (sigma^2 / 2) Tr[Re{U^H M M^H U}^{-1}]; invariant under any real
    orthogonal change of basis U -> U B.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    eigs, singular = compression_spectra(basis, M[None])
    return _crb_report(eigs[0], singular[0], noise)


def check_identifiability(basis, M):
    """Decide identifiability of a variation space / observation matrix pair.

    The verdict is the numerical version of requiring the variation
    space to intersect the orthogonal complement of im_C(M) trivially:
    the compression Re{U^H M M^H U} must be nonsingular.  Also reports
    the necessary observation count ceil(N_p / 2).
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    eigs, singular = compression_spectra(basis, M[None])
    min_eig, max_eig = float(eigs[0, 0]), float(eigs[0, -1])
    n_given = M.shape[1]
    n_required = math.ceil(basis.dim / 2)
    count_ok = n_given >= n_required
    verdict = count_ok and not singular[0]
    if verdict:
        message = (
            "identifiable: the variation space meets im_C(M)^perp only at 0 "
            f"(min/max compression eigenvalue {min_eig:.3e}/{max_eig:.3e})"
        )
    elif not count_ok:
        message = (
            f"not identifiable: {n_given} observation(s) given but at least "
            f"{n_required} are necessary for {basis.dim} parameters"
        )
    else:
        message = (
            "not identifiable: some variation direction is orthogonal to "
            f"im_C(M) (min compression eigenvalue {min_eig:.3e})"
        )
    return IdentifiabilityReport(
        identifiable=verdict,
        min_eig=min_eig,
        max_eig=max_eig,
        n_obs_given=n_given,
        n_obs_required=n_required,
        count_sufficient=count_ok,
        message=message,
    )


def crb_min(c, n_params, noise, power):
    """Minimal CRB over observation matrices with ||M||_F^2 = power.

    Evaluates (2 sigma^2 / P) (sum_k 1/sqrt(1 + c_k) + eps/2)^2 with
    eps = n_params mod 2, and attaches the universal bounds.
    """
    _check_finite_positive("power", power)
    c = np.asarray(c, dtype=float).ravel()
    if c.shape[0] != n_params // 2:
        raise ValueError(
            f"expected {n_params // 2} couplings for {n_params} parameters, got {c.shape[0]}"
        )
    if np.any(c < -COUPLING_SNAP) or np.any(c > 1.0 + COUPLING_SNAP):
        raise ValueError("couplings must lie in [0, 1]")
    c = np.clip(c, 0.0, 1.0)
    epsilon = n_params % 2
    sigma2 = noise.sigma2
    value = (2.0 * sigma2 / power) * (np.sum(1.0 / np.sqrt(1.0 + c)) + epsilon / 2.0) ** 2
    return CrbMinResult(
        value=float(value),
        c=c,
        epsilon=epsilon,
        power=float(power),
        sigma2=float(sigma2),
        lower_bound=sigma2 * n_params**2 / (4.0 * power),
        upper_bound=sigma2 * n_params**2 / (2.0 * power),
    )
