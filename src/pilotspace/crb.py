"""Fisher information and Cramer-Rao bounds for noisy linear channel observations.

Observation model: y = M^H h(theta) + n with n circular complex Gaussian
of per-entry variance sigma^2.  The channel-MSE Cramer-Rao bound is
computed in three equivalent forms:

* directly from the gradient, Tr[dh I^{-1} dh^H] with the Slepian-Bangs
  Fisher matrix I = (2/sigma^2) Re{dh^H M M^H dh};
* through any real-orthonormal basis U of the variation space,
  (sigma^2/2) Tr[Re{U^H M M^H U}^{-1}];
* intrinsically, as the trace of the inverse compression of M M^H to
  the variation space (identical to the previous form numerically).

Non-identifiability (singular Fisher matrix / singular compression) is
reported as an infinite bound, never as an exception, so parameter
sweeps can pass through singular configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rlinalg import compression_matrix, solve_right, stacked_real

# A compression (or FIM) counts as singular when its smallest eigenvalue
# falls below this fraction of the largest.
EIG_RTOL = 1e-10


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. circular complex Gaussian observation noise of variance sigma2."""

    sigma2: float

    def __post_init__(self):
        if not (self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class CrbReport:
    """Cramer-Rao bound value with identifiability diagnostics.

    ``value`` is +inf exactly when ``identifiable`` is False.  Each form
    reports the matrix it factors and leaves the other field ``None``:

    * ``min_eig_compression`` -- the smallest eigenvalue of the
      compression Re{U^H M M^H U} on the given basis U; set by the
      basis forms, ``None`` for the direct form.
    * ``fim`` -- the Fisher matrix; set by the direct form, whose
      verdict is the eigenvalue test on its Jacobi-scaled copy and whose
      ``value`` comes from its Cholesky factor; ``None`` for the basis
      forms.
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
    """Fisher information matrix (2/sigma^2) Re{dh^H M M^H dh}."""
    grad = np.asarray(model.gradient(np.asarray(theta, dtype=float)), dtype=complex)
    return _fisher(grad, np.atleast_2d(np.asarray(M, dtype=complex)), noise)


def _fisher(grad, M, noise):
    if M.shape[0] != grad.shape[0]:
        raise ValueError(
            f"M has {M.shape[0]} rows but the gradient has {grad.shape[0]}"
        )
    if not np.all(np.isfinite(M)):
        raise ValueError("observation matrix M contains non-finite entries")
    X = np.conj(M.T) @ grad
    I = (2.0 / noise.sigma2) * (X.real.T @ X.real + X.imag.T @ X.imag)
    return 0.5 * (I + I.T)


def _sym_eig_range(S):
    eigs = np.linalg.eigvalsh(S)
    return float(eigs[0]), float(eigs[-1])


# An eigenvalue (or FIM diagonal entry) at or below this fraction of its
# a-priori scale is rounding noise: the matrix counts as exactly zero there.
ZERO_RTOL = 1e-14


def _is_singular(min_eig, max_eig, scale):
    """Singularity test with an absolute floor; elementwise on arrays.

    ``scale`` is an a-priori upper bound on the achievable largest
    eigenvalue (the observation energy); without it an exactly-zero
    matrix would pass the relative test on rounding noise alone.
    """
    floor = ZERO_RTOL * np.maximum(scale, 1e-300)
    return (max_eig <= floor) | (min_eig <= EIG_RTOL * max_eig)


def _fim_is_singular(I, grad, M, noise):
    """Eigenvalue test on the Jacobi-scaled Fisher matrix D^{-1/2} I D^{-1/2}.

    D = diag(I).  Rescaling a parameter rescales a row and a column of I
    but leaves the scaled matrix, like the CRB, unchanged, so the verdict
    does not depend on parameter units.  A diagonal entry at the noise
    level of its bound (2/sigma^2) ||M||_F^2 ||dh_i||^2 is a parameter no
    observation sees: singular.
    """
    d = np.diag(I)
    bound = (2.0 / noise.sigma2) * float(np.linalg.norm(M) ** 2) * np.sum(
        np.abs(grad) ** 2, axis=0
    )
    if np.any(d <= ZERO_RTOL * np.maximum(bound, 1e-300)):
        return True
    s = 1.0 / np.sqrt(d)
    min_eig, max_eig = _sym_eig_range(s[:, None] * I * s)
    # The scaled diagonal is all ones, so max_eig >= 1 and only the
    # relative test can fire.
    return bool(_is_singular(min_eig, max_eig, 1.0))


def crb_direct(model, theta, M, noise):
    """CRB from the gradient: Tr[dh FIM^{-1} dh^H].

    A singular Fisher matrix (see ``_fim_is_singular``: the test runs on
    the Jacobi-scaled matrix) yields an infinite, non-identifiable report.
    Otherwise the Fisher matrix I = L L^T is factored by Cholesky and the
    value is ||L^{-1} [Re dh; Im dh]^T||_F^2.  The report carries ``fim``
    and no compression eigenvalue.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(model.gradient(theta), dtype=complex)
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient contains non-finite entries")
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    I = _fisher(grad, M, noise)
    if _fim_is_singular(I, grad, M, noise):
        return CrbReport(value=math.inf, identifiable=False, fim=I)
    L = np.linalg.cholesky(I)
    value = float(np.linalg.norm(solve_right(stacked_real(grad), L.T)) ** 2)
    return CrbReport(value=value, identifiable=True, fim=I)


def crb_via_variation_space(basis, M, noise):
    """CRB through a real-orthonormal variation-space basis.

    (sigma^2 / 2) Tr[Re{U^H M M^H U}^{-1}]; invariant under any real
    orthogonal change of basis U -> U B.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    comp = compression_matrix(basis, M)
    eigs = np.linalg.eigvalsh(comp)
    min_eig, max_eig = float(eigs[0]), float(eigs[-1])
    if _is_singular(min_eig, max_eig, float(np.linalg.norm(M) ** 2)):
        return CrbReport(
            value=math.inf, identifiable=False, min_eig_compression=min_eig
        )
    value = 0.5 * noise.sigma2 * float(np.sum(1.0 / eigs))
    return CrbReport(value=value, identifiable=True, min_eig_compression=min_eig)


def check_identifiability(basis, M):
    """Decide identifiability of a variation space / observation matrix pair.

    The verdict is the numerical version of requiring the variation
    space to intersect the orthogonal complement of im_C(M) trivially:
    the compression Re{U^H M M^H U} must be nonsingular.  Also reports
    the necessary observation count ceil(N_p / 2).
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    n_given = M.shape[1]
    n_required = math.ceil(basis.dim / 2)
    count_ok = n_given >= n_required
    min_eig, max_eig = _sym_eig_range(compression_matrix(basis, M))
    verdict = count_ok and not _is_singular(
        min_eig, max_eig, float(np.linalg.norm(M) ** 2)
    )
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
    if not (power > 0):
        raise ValueError(f"power must be positive, got {power}")
    c = np.asarray(c, dtype=float).ravel()
    if c.shape[0] != n_params // 2:
        raise ValueError(
            f"expected {n_params // 2} couplings for {n_params} parameters, got {c.shape[0]}"
        )
    if np.any(c < -1e-12) or np.any(c > 1.0 + 1e-12):
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
