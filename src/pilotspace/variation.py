"""Variation spaces of parametric channel models and their canonical decomposition.

The variation space of a model h(theta) at a parameter point is the set
of channel perturbations (dh/dtheta) x reachable with *real* coefficient
vectors x.  It is a real-linear subspace of C^{N_d} and generally not a
complex one.  Decomposing it into complex-orthogonal planes, each carrying
a coupling c_k in [0, 1] that measures how close the plane is to a complex
line, is what makes the Cramer-Rao bound optimizable in closed form.

A variation space is handed around as an ``rlinalg.RBasis``: the bounds
depend on the space only, through any real-orthonormal basis of it.
``canonical_decompose`` takes one basis as a stack of one: a stack of
bases (one RBasis with leading batch axes) goes through the same code
and returns the stacked decomposition.

Linear models, whose gradient is (A, jA), take a closed-form route: one
complex QR of A gives the basis (q_1, -j q_1, q_2, -j q_2, ...), already
canonical (every coupling 1).  ``canonical_decompose`` reads that form
off the basis (``RBasis.pairs``) and keeps the basis with c = 1 exactly,
without forming Im{U^H U}; its orthonormality check and its compression
spectra run on the r x r complex Q as well.  Every other gradient goes
through ``r_orthonormalize`` and the real Schur form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rlinalg import (
    RBasis,
    RankDeficientError,
    full_rank_certified,
    project_r,
    r_orthonormalize,
    skew_block_matrix,
    skew_canonical_form,
)


@dataclass(frozen=True)
class ParametricChannelModel:
    """Differentiable map from N_p real parameters to a channel in C^{N_d}.

    ``evaluate(theta)`` returns the channel vector, ``gradient(theta)``
    its (N_d x N_p) complex gradient, columns ordered like theta.
    Gradients are analytic (supplied by the model constructors); the
    test suite validates them against central finite differences.
    """

    n_dims: int
    n_params: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str = "model"


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Canonical basis V = (v_1, w_1, ..., [v_lone]) with couplings c.

    The columns are real-orthonormal, pairs (v_k, w_k) satisfy
    v_k^H w_k = -j c_k, and distinct pairs (and the lone vector, present
    iff the dimension is odd) are mutually complex-orthogonal.  A stacked
    decomposition has V (..., n, N_p) and c (..., N_p // 2).
    """

    V: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if np.shape(self.c)[-1] != self.n_params // 2:
            raise ValueError(
                f"expected {self.n_params // 2} couplings, got {np.shape(self.c)[-1]}"
            )

    @property
    def n_params(self):
        return self.V.shape[-1]

    @property
    def epsilon(self):
        """1 if the dimension is odd (a lone unpaired vector), else 0."""
        return self.n_params % 2

    def pair(self, k):
        """The k-th pair (v_k, w_k)."""
        return self.V[..., 2 * k], self.V[..., 2 * k + 1]

    @property
    def lone_vector(self):
        if not self.epsilon:
            return None
        return self.V[..., -1]

    def gamma_matrix(self):
        """Imaginary part of V^H V in exact arithmetic."""
        return skew_block_matrix(self.c, self.n_params)


def _linear_basis(grad):
    """Canonical ``RBasis`` of the span of a gradient G = (A, jA), or None.

    One complex QR A = QR, its columns signed to a positive diagonal of
    R, gives the basis (q_1, -j q_1, q_2, -j q_2, ...): each pair spans
    the complex line C q_k and distinct pairs are complex-orthogonal, so
    the basis is already canonical with every coupling 1.  The odd columns
    are set to exactly -1j times the even ones, the form that
    ``RBasis.pairs`` recognizes.  None when G is not exactly (A, jA) with
    A finite, or when ``full_rank_certified`` does not certify the
    triangle: the general route then decides the rank, and raises, as
    for any gradient.
    """
    n = grad.shape[1] // 2
    A = grad[:, :n]
    if (grad.shape[1] % 2 or not np.all(np.isfinite(A))
            or not np.array_equal(grad[:, n:], 1j * A)):
        return None
    Q, R = np.linalg.qr(A)
    if not full_rank_certified(R):
        return None
    diag = np.diagonal(R)
    U = np.empty_like(grad)
    U[:, 0::2] = Q * (diag / np.abs(diag))
    U[:, 1::2] = -1j * U[:, 0::2]
    return RBasis(U)


def variation_space(model, theta):
    """Real-orthonormal basis (an ``RBasis``) of the variation space of
    ``model`` at ``theta``.

    A gradient of the form (A, jA), as of every linear model
    (``models.ls_model``, ``models.angle_constrained_model``), takes the
    closed form of ``_linear_basis``: a basis that is already canonical,
    so ``canonical_decompose`` keeps it as is.  Any other gradient, and
    an A whose full rank is not certified, goes through
    ``r_orthonormalize``.

    Raises
    ------
    RankDeficientError
        If the gradient columns are dependent over R, i.e. the model is
        not identifiable at theta regardless of the observation matrix.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape[0] != model.n_params:
        raise ValueError(
            f"theta has length {theta.shape[0]}, model expects {model.n_params}"
        )
    grad = np.asarray(model.gradient(theta), dtype=complex)
    if grad.shape != (model.n_dims, model.n_params):
        raise ValueError(f"gradient shape {grad.shape} inconsistent with model dims")
    basis = _linear_basis(grad)
    if basis is not None:
        return basis
    try:
        basis, _ = r_orthonormalize(grad)
    except RankDeficientError as err:
        raise RankDeficientError(
            f"dim_R(variation space) < N_p for model '{model.name}': {err}",
            rank=err.rank,
            null_space=err.null_space,
        ) from err
    return basis


def canonical_decompose(basis):
    """Decompose a variation space into complex-orthogonal coupled planes.

    ``basis`` is an ``RBasis`` of the space, or a stack of them (one
    basis is a stack of one).  Computes the canonical form of Im{U^H U}
    per slice and rotates the basis: V = U B.  Im{U^H U} and U B are one
    stacked product each, so each slice has the bits of its own call.
    The couplings c are the descending block values; the real span of V
    equals that of U.  On a basis that is already canonical
    ``skew_canonical_form`` returns B = I, so V == U (an exact zero entry
    may change its sign in the product).  Under tied couplings any
    rotation of the tied pairs would do as well; keeping the given basis
    is a choice, and it makes V (and the pilots) a continuous function
    of U near such a basis.

    A basis (q_1, -j q_1, q_2, -j q_2, ...) (``RBasis.pairs``, the
    closed form of ``_linear_basis``) is canonical by construction:
    it is kept with every coupling exactly 1, without forming Im{U^H U}.
    """
    U = basis.U
    if basis.pairs is not None:
        return CanonicalDecomposition(V=U, c=np.ones(U.shape[:-2] + (U.shape[-1] // 2,)))
    A = np.imag(np.conj(np.swapaxes(U, -1, -2)) @ U)
    B = np.empty(A.shape)
    gamma = np.empty(A.shape[:-2] + (A.shape[-1] // 2,))
    for i in np.ndindex(A.shape[:-2]):      # no slice in an empty stack
        B[i], gamma[i] = skew_canonical_form(A[i])
    return CanonicalDecomposition(V=U @ B, c=np.clip(gamma, 0.0, 1.0))


def verify_eigenspace_property(decomp):
    """Check that each pair lies in an eigenspace of P_E o P_jE.

    For every pair (v_k, w_k) the composition of the projections onto
    the span E and onto jE acts as multiplication by c_k^2.  (On E the
    composed operator has matrix -A^2 with A = Im{U^H U}, which is
    positive semi-definite with eigenvalues c_k^2; at c_k = 1 the pair
    spans a complex line where the composition is the identity.)
    Returns the per-pair residuals and their maximum.
    """
    E = RBasis(decomp.V)
    jE = RBasis(1j * decomp.V)
    residuals = []
    for k, c in enumerate(decomp.c):
        v, w = decomp.pair(k)
        rv = np.linalg.norm(project_r(E, project_r(jE, v)) - c**2 * v)
        rw = np.linalg.norm(project_r(E, project_r(jE, w)) - c**2 * w)
        residuals.append(max(rv, rw))
    residuals = np.array(residuals)
    return {
        "residuals": residuals,
        "max_residual": float(residuals.max()) if residuals.size else 0.0,
    }
