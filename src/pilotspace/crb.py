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

from .rlinalg import compression_matrix, numerical_rank, stacked_real
from .variation import VariationSpaceBasis

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

    ``value`` is +inf exactly when ``identifiable`` is False.  ``fim``
    is only populated by the gradient-based form.

    ``min_eig_compression`` is the smallest eigenvalue of the compression
    Re{U^H M M^H U} for a real-orthonormal basis U of the variation space.
    The basis-based forms use the basis they are given.  The direct form
    takes U = Q[:n] + j Q[n:] from the orthonormal factor Q of one
    Householder QR of the stacked gradient [Re; Im]: it spans the same
    space, and the eigenvalues do not depend on the basis.  The direct
    form reports 0.0 when the gradient is rank deficient.
    """

    value: float
    identifiable: bool
    min_eig_compression: float
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


def _is_singular(min_eig, max_eig, scale):
    """Singularity test with an absolute floor.

    ``scale`` is an a-priori upper bound on the achievable largest
    eigenvalue (the observation energy); without it an exactly-zero
    matrix would pass the relative test on rounding noise alone.
    """
    if max_eig <= 1e-14 * max(scale, 1e-300):
        return True
    return min_eig <= EIG_RTOL * max_eig


def crb_direct(model, theta, M, noise):
    """CRB from the gradient: Tr[dh FIM^{-1} dh^H].

    The inversion goes through a linear solve against the gradient.  A
    singular Fisher matrix yields an infinite, non-identifiable report.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(model.gradient(theta), dtype=complex)
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient contains non-finite entries")
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    I = _fisher(grad, M, noise)
    min_eig, max_eig = _sym_eig_range(I)
    fim_scale = (
        (2.0 / noise.sigma2)
        * float(np.linalg.norm(M) ** 2)
        * float(np.linalg.norm(grad) ** 2)
    )

    comp_min = _compression_min_eig(grad, M)
    if _is_singular(min_eig, max_eig, fim_scale):
        return CrbReport(
            value=math.inf, identifiable=False, min_eig_compression=comp_min, fim=I
        )
    X = np.linalg.solve(I, np.conj(grad.T))
    value = float(np.real(np.einsum("ik,ki->", grad, X)))
    return CrbReport(
        value=value, identifiable=True, min_eig_compression=comp_min, fim=I
    )


def _compression_min_eig(grad, M):
    """Smallest compression eigenvalue on span_R(grad), 0.0 if rank deficient.

    Takes U = Q[:n] + j Q[n:] from one Householder QR of [Re; Im] grad
    and forms Re/Im{M^H U} from real products of views, so neither U nor
    M^H U is built as a complex matrix.
    """
    n, k = grad.shape
    Q, R = np.linalg.qr(stacked_real(grad), mode="reduced")
    if numerical_rank(np.linalg.svd(R, compute_uv=False)) < k:
        return 0.0
    Qr, Qi = Q[:n], Q[n:]
    Mr, Mi = M.real, M.imag
    Xr = Mr.T @ Qr + Mi.T @ Qi
    Xi = Mr.T @ Qi - Mi.T @ Qr
    C = Xr.T @ Xr + Xi.T @ Xi
    return _sym_eig_range(0.5 * (C + C.T))[0]


def crb_via_variation_space(basis, M, noise):
    """CRB through a real-orthonormal variation-space basis.

    (sigma^2 / 2) Tr[Re{U^H M M^H U}^{-1}]; invariant under any real
    orthogonal change of basis U -> U B.
    """
    if isinstance(basis, VariationSpaceBasis):
        basis = basis.basis
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
    if isinstance(basis, VariationSpaceBasis):
        basis = basis.basis
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
