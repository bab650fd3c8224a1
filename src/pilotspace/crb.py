"""Cramer-Rao bounds and identifiability for noisy linear channel observations.

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
  nothing, so it checks the two below by a different computation; it
  reports the bound and its verdict, not the matrix;
* through any real-orthonormal basis U of the variation space,
  (sigma^2/2) Tr[Re{U^H M M^H U}^{-1}];
* intrinsically, as the trace of the inverse compression of M M^H to
  the variation space (identical to the previous form numerically).

``compression_spectra`` is the one kernel behind the basis forms: it
takes a stack of observation matrices and returns the ascending
eigenvalues of each compression with its singularity verdict.
``crb_via_variation_space`` and ``check_identifiability`` take one basis
and call it with a stack of one (a stack of bases is refused: index it,
or call the kernel); a design's CRB (``pilot.PilotDesign.achieved_crb``,
which the CLI's design report carries) is ``crb_via_variation_space`` on
its decomposition, and no other module takes a compression's spectrum.
The multipath experiment calls the kernel once per group of channels,
with a stack of true bases and the pilot matrices of every channel and
Delta value at once.  It alone picks the algebra: on
a linear model's closed-form basis (q_1, -j q_1, ...), recognized
bitwise once per call, the variation space is the complex span of Q,
and the kernel takes the spectrum of the r x r Hermitian Q^H M M^H Q,
each eigenvalue twice: the classical training-based bound
sigma^2 Tr[(Q^H M M^H Q)^{-1}] in r x r complex algebra.

Non-identifiability (singular Fisher matrix / singular compression) is
reported as an infinite bound, never as an exception, so parameter
sweeps can pass through singular configurations.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError

from .rlinalg import (
    RANK_CERT_MARGIN,
    _check_finite_positive,
    _checked_couplings,
    _checked_observations,
    _count,
    _record,
    _refuse_stack,
    cholesky_in_place,
    compression_matrix,
    condition_bound,
    real_gram,
    solve_right,
    stacked_real,
)
from .variation import _complex_lines, _model_gradient

# A compression (or FIM) counts as singular when its smallest eigenvalue
# falls below this fraction of the largest.
EIG_RTOL = 1e-10


@_record
class NoiseModel:
    """I.i.d. circular complex Gaussian observation noise of variance sigma2.

    ``sigma2`` is stored as given; ValueError unless it is a finite number
    above 0 (a bool, a string, None, NaN, +/-inf, 0 or a negative value is
    refused).
    """

    sigma2: float

    def __post_init__(self):
        _check_finite_positive("sigma2", self.sigma2)


@_record
class CrbReport:
    """Cramer-Rao bound value with identifiability diagnostics.

    ``value`` is +inf exactly when ``identifiable`` is False.
    ``min_eig_compression`` is the smallest eigenvalue of the compression
    Re{U^H M M^H U} on the given basis U, set by the basis forms; the
    direct form factors a Fisher matrix instead and leaves it ``None``.
    """

    value: float
    identifiable: bool
    min_eig_compression: float | None = None


@_record
class IdentifiabilityReport:
    identifiable: bool
    min_eig: float
    max_eig: float
    n_obs_given: int
    n_obs_required: int
    count_sufficient: bool
    message: str


@_record
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


def _fisher(grad, M, noise):
    """The real Fisher matrix (2/sigma^2) Re{G^H M M^H G}, G = dh."""
    I = (2.0 / noise.sigma2) * real_gram(np.conj(M.T) @ grad)
    return 0.5 * (I + I.T)


def _complex_fisher(A, M, noise):
    """The complex r x r Fisher matrix H = (2/sigma^2) (M^H A)^H (M^H A),
    Hermitian by construction (its diagonal is real)."""
    J = np.conj(M.T) @ A
    H = (2.0 / noise.sigma2) * (np.conj(J.T) @ J)
    return 0.5 * (H + np.conj(H.T))


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


def crb_direct(model, theta, M, noise):
    """CRB from the gradient: Tr[dh FIM^{-1} dh^H].

    The verdict is taken on the Jacobi-scaled Fisher matrix
    S = D^{-1/2} F D^{-1/2}, D = diag(F) (``_jacobi_scale``): a diagonal
    entry at noise level, or a failed eigenvalue test of S
    (``_is_singular`` at EIG_RTOL), yields an infinite, non-identifiable
    report.  S is factored once, S = R^H R by Cholesky, in place.  The
    factor certifies the verdict where it can, with no eigenvalue: the
    condition number of S is at most ``rlinalg.condition_bound(R)``^2.
    Where that square times EIG_RTOL fails RANK_CERT_MARGIN, or S has no
    Cholesky factor, ``eigvalsh(S)`` decides, so the verdict is that of
    the eigenvalue test either way.  The value then comes from one
    triangular solve with R.

    F takes one of two forms.  A gradient of complex lines only
    (``variation._complex_lines`` leaves no column unpaired: the (A, jA)
    of ``models.ls_model`` and ``models.angle_constrained_model``, or
    adjacent pairs (g, +/-j g)) moves the channel by A z with z complex,
    whatever the sign of each pair, with A the first column of each
    pair, and F is the r x r Hermitian
    H = (2/sigma^2) (M^H A)^H (M^H A) (van den Bos's complex-parameter
    Fisher matrix): the real Fisher matrix is its real form up to the
    signs of the pairs, whose spectrum is that of H with each eigenvalue
    twice, and the bound is 2 Tr[A H^{-1} A^H] = 2 ||A D^{-1/2} R^{-1}||_F^2.
    Any other gradient (``models.physical_model``, whose azimuth columns
    are in no line, among them) takes the real k x k
    F = (2/sigma^2) Re{dh^H M M^H dh} and the value
    ||[Re dh; Im dh] D^{-1/2} R^{-1}||_F^2.  Either way the form builds no
    basis and compresses nothing: it stays a check of
    ``crb_via_variation_space`` by a different computation.

    The report carries no compression eigenvalue.  Raises ValueError as
    ``variation_space`` does when theta or the gradient does not fit the
    model or is non-finite, and when M is a stack, has the wrong row
    count or has non-finite entries.
    """
    grad = _model_gradient(model, theta)
    _refuse_stack(M, "observation matrix M", "evaluate each matrix of the stack (M[i])")
    M = _checked_observations(M, grad.shape[0])
    lines = _complex_lines(grad)
    all_lines = lines is not None and grad[0, lines[1]].size == 0
    if all_lines:
        cols = grad[:, lines[0]]
        F = _complex_fisher(cols, M, noise)
    else:
        cols = grad
        F = _fisher(grad, M, noise)
    scale = _jacobi_scale(np.diag(F).real, cols, M, noise)
    if scale is None:
        return CrbReport(value=math.inf, identifiable=False)
    R = cholesky_in_place(_scaled(F, scale))
    # A NaN or inf bound fails the comparison.
    if R is None or not condition_bound(R) ** 2 * EIG_RTOL < RANK_CERT_MARGIN:
        # The factor overwrote S: scale again, to the same bits.
        eigs = np.linalg.eigvalsh(_scaled(F, scale))
        # The scaled diagonal is all ones, so max_eig >= 1 and only the
        # relative test can fire.
        if _is_singular(eigs[0], eigs[-1], 1.0):
            return CrbReport(value=math.inf, identifiable=False)
        if R is None:
            raise LinAlgError("Fisher matrix passed the eigenvalue test but has "
                              "no Cholesky factor")
    if all_lines:
        value = 2.0 * float(np.linalg.norm(solve_right(cols * scale, R)) ** 2)
    else:
        X = stacked_real(grad)
        X *= scale
        value = float(np.linalg.norm(solve_right(X, R)) ** 2)
    return CrbReport(value=value, identifiable=True)


def _pair_factor(U):
    """Q = U[..., 0::2] when U = (q_1, -j q_1, q_2, -j q_2, ...) exactly, else None.

    The test is bitwise: U[..., 1::2] == -1j * U[..., 0::2], the expression
    with which ``variation_space`` builds the basis of a linear model.  An
    odd column count, or a first pair that fails the test, returns at once.
    """
    if U.shape[-1] % 2 or not np.array_equal(U[..., 1], -1j * U[..., 0]):
        return None
    Q = U[..., 0::2]
    return Q if np.array_equal(U[..., 1::2], -1j * Q) else None


def compression_spectra(basis, Ms):
    """Spectra of the compressions Re{U^H M M^H U} of a stack of matrices.

    ``Ms`` has shape (..., ambient_dim, m); the leading axes of a stack
    of bases broadcast against those of ``Ms`` as in numpy.  Returns the
    (..., dim) ascending eigenvalues of each compression and the (...)
    boolean ``_is_singular`` verdicts, whose absolute floor scales with
    each energy ||M||_F^2.  Each slice has the bits of a stack of one.

    A basis (q_1, -j q_1, q_2, -j q_2, ...) (``_pair_factor``, tested
    once per call: the closed-form basis of a linear model) spans the
    complex span of Q, and its compression is the real form of the r x r
    Hermitian Y = Q^H M M^H Q, whose spectrum is that of Y with every
    eigenvalue twice.  Such a basis takes Y's ``eigvalsh`` instead of the
    2r x 2r real compression; every other basis takes
    ``compression_matrix``.
    """
    Q = _pair_factor(basis.U)
    if Q is None:
        eigs = np.linalg.eigvalsh(compression_matrix(basis, Ms))
    else:
        M = _checked_observations(Ms, basis.ambient_dim)
        X = np.conj(np.swapaxes(M, -1, -2)) @ Q      # (..., m, r)
        eigs = np.repeat(np.linalg.eigvalsh(np.conj(np.swapaxes(X, -1, -2)) @ X), 2, axis=-1)
    return eigs, _is_singular(eigs[..., 0], eigs[..., -1], np.linalg.norm(Ms, axis=(-2, -1)) ** 2)


def _crb_values(eigs, singular, scale):
    """Basis-form bounds (scale/2) sum 1/lambda of ascending compression
    spectra ``eigs`` (..., dim), +inf where ``singular`` (...): the CRB at
    scale sigma^2, the Proposed coefficient at scale ||M_b||_F^2."""
    safe = np.where(singular[..., None], 1.0, eigs)
    return np.where(singular, math.inf, 0.5 * scale * np.sum(1.0 / safe, axis=-1))


def _one_spectrum(basis, M):
    """The column count of M, and the compression spectrum and verdict of
    one basis and M (``compression_spectra`` on a stack of one, which
    checks M; a 1-D M is one row).

    A stack of bases or of M raises ValueError, not an answer for a slice.
    """
    _refuse_stack(basis.U, "basis", "index the stack (basis[i]) or call compression_spectra")
    _refuse_stack(M, "observation matrix M", "index the stack (M[i]) or call compression_spectra")
    M = np.atleast_2d(M)
    eigs, singular = compression_spectra(basis, M[None])
    return M.shape[1], eigs[0], singular[0]


def crb_via_variation_space(basis, M, noise):
    """CRB through a real-orthonormal variation-space basis.

    (sigma^2 / 2) Tr[Re{U^H M M^H U}^{-1}]; invariant under any real
    orthogonal change of basis U -> U B.  ValueError on a stack of bases or of M.
    """
    _, eigs, singular = _one_spectrum(basis, M)
    return CrbReport(value=float(_crb_values(eigs, singular, noise.sigma2)),
                     identifiable=not singular, min_eig_compression=float(eigs[0]))


def check_identifiability(basis, M):
    """Decide identifiability of a variation space / observation matrix pair.

    The verdict is the numerical version of requiring the variation
    space to intersect the orthogonal complement of im_C(M) trivially:
    the compression Re{U^H M M^H U} must be nonsingular.  Also reports
    the necessary observation count ceil(N_p / 2).  ValueError on a stack
    of bases or of M.
    """
    n_given, eigs, singular = _one_spectrum(basis, M)
    min_eig, max_eig = float(eigs[0]), float(eigs[-1])
    n_required = math.ceil(basis.dim / 2)
    count_ok = n_given >= n_required
    verdict = count_ok and not singular
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

    Raises ValueError unless ``power`` is a finite number above 0 (not a
    bool), ``n_params`` an integer of at least 1 (not a bool), and ``c``
    holds n_params // 2 couplings in [0, 1] up to COUPLING_SNAP (NaN and
    +/-inf are outside).
    """
    _check_finite_positive("power", power)
    n_params = _count("n_params", n_params)
    c = np.asarray(c, dtype=float).ravel()
    if c.shape[0] != n_params // 2:
        raise ValueError(
            f"expected {n_params // 2} couplings for {n_params} parameters, got {c.shape[0]}"
        )
    c = np.clip(_checked_couplings(c), 0.0, 1.0)
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
