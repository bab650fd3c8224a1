"""Optimal minimal-length observation matrices under a power constraint.

Given the canonical decomposition (pairs (v_k, w_k) with couplings c_k,
plus a lone vector when the parameter count is odd), the CRB-optimal
observation matrix has one column per pair,

    sqrt(P/C) (v_k + j w_k) / (1 + c_k)^(3/4),

plus sqrt(P/C) v_lone for odd dimension, where C = 2 sum_l 1/sqrt(1+c_l)
(+1 if odd).  This is the minimal column count for identifiability.

A design's CRB has one writer, ``PilotDesign.achieved_crb``, which is
``crb.crb_via_variation_space`` on the design's decomposition.
``verify_optimality_certificates`` checks the first-order optimality
conditions (diagonal compression in the canonical basis, vanishing
cross terms d_k, closed-form per-column powers) from the entries of
the compression, not its spectrum, and ``brute_force_optimal_crb`` is
an independent numerical oracle that minimizes the CRB by projected
gradient descent on the power sphere.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .crb import NoiseModel, crb_via_variation_space
from .rlinalg import COUPLING_SNAP, _check_finite_positive, _record, _refuse_stack, real_gram
from .variation import CanonicalDecomposition


@_record
class PilotDesign:
    """Optimal observation matrix.

    ``C_norm`` is the normalization constant C; ``decomp`` is the
    decomposition the design was built from.  ``achieved_crb`` is the
    CRB of the design against that decomposition, itself a checked basis
    of the variation space, at the given noise level; it is computed on
    first access and cached, so a caller that needs only ``M`` never pays
    for it.  The residuals of the optimality conditions come from
    ``verify_optimality_certificates``.

    A stacked design (from a stacked decomposition) has M (..., n, m)
    and C_norm (...); ``achieved_crb`` and the certificates take one
    design and raise ValueError on a stack.
    """

    M: np.ndarray
    power: float
    C_norm: float
    sigma2: float
    decomp: CanonicalDecomposition

    @property
    def n_columns(self):
        return self.M.shape[-1]

    @cached_property
    def achieved_crb(self):
        return float(crb_via_variation_space(self.decomp, self.M,
                                             NoiseModel(self.sigma2)).value)


@_record
class OracleResult:
    value: float
    converged: bool
    n_restarts: int


def design_observation_matrix(decomp, power, sigma2=1.0):
    """Build the CRB-optimal observation matrix of minimal size.

    Column k is sqrt(P/C) (v_k + j w_k) / (1 + c_k)^(3/4), plus the
    scaled lone vector when the parameter count is odd.  A stacked
    decomposition gives the stacked design, each slice with the bits of
    its own call.

    Parameters
    ----------
    decomp : CanonicalDecomposition
    power : float
        Frobenius-norm-squared budget ||M||_F^2.
    sigma2 : float
        Noise variance of the design's ``achieved_crb`` (computed on access).

    Raises ValueError unless ``power`` and ``sigma2`` are finite numbers
    above 0 (a bool, a string, None, NaN, +/-inf, 0 or a negative value is
    refused); both are stored as floats.
    """
    _check_finite_positive("power", power)
    _check_finite_positive("sigma2", sigma2)
    c = decomp.c
    n_pairs = c.shape[-1]

    C = 2.0 * np.sum(1.0 / np.sqrt(1.0 + c), axis=-1) + decomp.epsilon
    scale = np.sqrt(power / C)[..., None, None]

    V = decomp.V
    M = np.empty(V.shape[:-1] + (n_pairs + decomp.epsilon,), dtype=complex)
    pairs = V[..., 0:2 * n_pairs:2] + 1j * V[..., 1:2 * n_pairs:2]
    # Scalar (libm) powers: numpy's SIMD power can round an ulp differently,
    # which would move every design built from a coupling it rounds.
    powers = np.array([(1.0 + ck) ** 0.75 for ck in c.ravel().tolist()]).reshape(c.shape)
    M[..., :n_pairs] = scale * pairs / powers[..., None, :]
    if decomp.epsilon:
        M[..., -1] = scale[..., 0] * decomp.lone_vector
    return PilotDesign(
        M=M,
        power=float(power),
        C_norm=C if np.ndim(C) else float(C),
        sigma2=float(sigma2),
        decomp=decomp,
    )


def verify_optimality_certificates(design):
    """Residuals of the optimality conditions for a design's matrix.

    Reads the decomposition the design was built from (``design.decomp``).
    With the complex-orthogonal unit vectors
    u_k+- = (v_k +/- j w_k) / sqrt(2 (1 +/- c_k)) and the compression
    C = Re{V^H M M^H V}, reports

    * ``diagonal_residual`` -- max off-diagonal of C,
    * ``dk_residual`` -- max |d_k|, where
      d_k = sqrt(1-c_k^2) Re{u_k+^H M M^H u_k-} = (C_{v_k v_k} - C_{w_k w_k}) / 2
      (skipped where 1 - c_k <= COUPLING_SNAP: the pair is a complex line
      and u_k- is undefined),
    * ``column_powers`` -- measured ||M^H u_k+||^2 against the closed form
      2P / (C sqrt(1+c_k)), plus the lone-direction power P/C when present,
    * ``total_power`` -- sum of the measured powers.

    These are entries of X = M^H V and of C = ``real_gram(X)``, not a
    spectrum: the design's CRB is ``design.achieved_crb``.

    A stacked design raises ValueError naming its batch shape.
    """
    M, decomp = design.M, design.decomp
    _refuse_stack(M, "design", "design each slice on its own")
    c = decomp.c
    n = 2 * c.shape[0]
    P, C = design.power, design.C_norm

    X = np.conj(M.T) @ decomp.V
    comp = real_gram(X)
    diag = np.diag(comp)
    off = comp - np.diag(diag)
    diagonal_residual = float(np.abs(off).max()) if off.size else 0.0

    d = 0.5 * (diag[0:n:2] - diag[1:n:2])[1.0 - c > COUPLING_SNAP]
    measured = np.linalg.norm(X[:, 0:n:2] + 1j * X[:, 1:n:2], axis=0) ** 2 / (2.0 * (1.0 + c))
    expected = 2.0 * P / (C * np.sqrt(1.0 + c))
    if decomp.epsilon:
        measured = np.append(measured, diag[-1])
        expected = np.append(expected, P / C)

    return {
        "diagonal_residual": diagonal_residual,
        "dk_residual": float(np.abs(d).max()) if d.size else 0.0,
        "column_powers": measured,
        "column_powers_expected": expected,
        "total_power": float(np.sum(measured)),
    }


def brute_force_optimal_crb(
    basis,
    power,
    n_cols,
    sigma2=1.0,
    n_restarts=500,
    n_iters=300,
    seed=0,
):
    """Numerically minimize the CRB over ||M||_F^2 = power (test oracle).

    Projected gradient descent on the Frobenius sphere, with step
    halving on rejection and mild growth on acceptance, run from
    ``n_restarts`` random starts simultaneously (batched).  Intended
    for small problems only (ambient dim <= 8, <= 5 parameters).

    Returns the best CRB value found; ``converged`` is False when the
    iteration budget ran out while the best restart was still improving.
    Non-identifiable iterates evaluate to +inf, so an infeasible column
    count (below ceil(N_p/2)) returns inf.  ``basis`` is the ``RBasis``
    of the variation space.
    """
    U = basis.U
    n_dim, n_params = U.shape
    rng = np.random.default_rng(seed)
    sqrtP = math.sqrt(power)

    M = rng.normal(size=(n_restarts, n_dim, n_cols)) + 1j * rng.normal(
        size=(n_restarts, n_dim, n_cols)
    )
    M *= (sqrtP / np.linalg.norm(M, axis=(1, 2)))[:, None, None]
    Uh = np.conj(U.T)

    def evaluate(Mb):
        X = Uh @ Mb                                    # (B, n_params, n_cols)
        A = X.real @ X.real.transpose(0, 2, 1) + X.imag @ X.imag.transpose(0, 2, 1)
        eigs, vecs = np.linalg.eigh(A)
        bad = eigs[:, 0] <= 1e-10 * np.maximum(eigs[:, -1], 0.0)
        # Floor the spectrum so gradients stay finite near singularity.
        floor = np.maximum(eigs[:, -1] * 1e-13, 1e-300)
        safe = np.maximum(eigs, floor[:, None])
        f = 0.5 * sigma2 * np.sum(1.0 / safe, axis=1)
        f = np.where(bad, np.inf, f)
        W = (vecs / (safe**2)[:, None, :]) @ vecs.transpose(0, 2, 1)
        grad = -sigma2 * (U @ (W @ X))   # gradient of (sigma2/2) Tr[A^{-1}] wrt M
        return f, grad

    def retract(Mb):
        norms = np.linalg.norm(Mb, axis=(1, 2))
        norms = np.where(norms > 0, norms, 1.0)
        return Mb * (sqrtP / norms)[:, None, None]

    f, grad = evaluate(M)
    gnorm = np.linalg.norm(grad, axis=(1, 2))
    alpha = 0.1 * sqrtP / np.where(gnorm > 0, gnorm, 1.0)
    last_improvement = np.full(n_restarts, np.inf)

    for _ in range(n_iters):
        cand = retract(M - alpha[:, None, None] * grad)
        f_new, grad_new = evaluate(cand)
        accept = f_new < f
        with np.errstate(invalid="ignore"):   # inf - inf on never-feasible restarts
            last_improvement = np.where(
                accept, np.abs(f - f_new) / np.maximum(f_new, 1e-300), last_improvement
            )
        M = np.where(accept[:, None, None], cand, M)
        grad = np.where(accept[:, None, None], grad_new, grad)
        f = np.where(accept, f_new, f)
        alpha = np.where(accept, alpha * 1.3, alpha * 0.5)

    best = int(np.argmin(f))
    value = float(f[best])
    converged = bool(np.isfinite(value) and last_improvement[best] < 1e-9)
    return OracleResult(value=value, converged=converged, n_restarts=n_restarts)
