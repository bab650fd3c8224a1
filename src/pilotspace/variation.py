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

A model gradient takes its complex lines first: column pairs (g, +/-j g)
span complex lines C g, which have coupling 1.  One complex QR of the
lines gives the pairs (q_1, -j q_1, q_2, -j q_2, ...); the other columns
are orthonormalized and put in canonical form on their own block, and the
whole basis comes out canonical.  A linear model's gradient (A, jA) is
all lines: ``canonical_decompose`` reads that form off the basis
(``RBasis.pairs``) and keeps it with c = 1 exactly, without forming
Im{U^H U}, and its orthonormality check and compression spectra run on
the r x r complex Q as well.  A basis with other columns is kept after
one block test of Im{U^H U}.  A gradient without complex lines, or whose
full rank that route does not certify, goes through ``r_orthonormalize``
and the real Schur form, as do the azimuth-only spans of ``models``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .rlinalg import (
    RANK_CERT_MARGIN,
    RANK_RTOL,
    RBasis,
    RankDeficientError,
    _skew_part,
    full_rank_certified,
    project_r,
    r_orthonormalize,
    skew_block_matrix,
    skew_canonical_form,
    triangle_inverse,
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

    ``basis`` is the ``RBasis`` of V.  ``canonical_decompose`` sets it
    from the checked basis it decomposes (that basis itself when V is its
    U); a decomposition built from raw arrays checks V on first access.
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

    @cached_property
    def basis(self):
        return RBasis(self.V)

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


def _complex_lines(grad):
    """Column indices ``(first, rest)`` of a gradient's complex lines, or None.

    A complex line is a column pair (g, +/-j g), which spans C g over the
    reals.  Pairs are found bitwise, in O(N_d N_p): the two halves of a
    linear model's gradient (A, jA), all or nothing, else adjacent columns
    g_{i+1} = +/-j g_i (the e(phi_l), j e(phi_l) columns of
    ``models.physical_model``), paired from the left.  Each test reads the
    first row before the whole columns.  ``first`` indexes the first
    column of each pair and ``rest`` every unpaired column (slices for the
    halves, so that they index without a copy).  None when no pair is
    found or the gradient has a non-finite entry.
    """
    k = grad.shape[1]
    if k < 2 or not np.all(np.isfinite(grad)):
        return None
    n = k // 2
    if (k % 2 == 0 and np.array_equal(grad[0, n:], 1j * grad[0, :n])
            and np.array_equal(grad[:, n:], 1j * grad[:, :n])):
        return slice(0, n), slice(n, n)
    row = 1j * grad[0, :-1]
    candidates = np.flatnonzero((grad[0, 1:] == row) | (grad[0, 1:] == -row))
    jg = 1j * grad[:, candidates]
    after = grad[:, candidates + 1]
    line = candidates[np.all(after == jg, axis=0) | np.all(after == -jg, axis=0)]
    first, free = [], 0
    for i in line.tolist():
        if i >= free:
            first.append(i)
            free = i + 2
    if not first:
        return None
    first = np.array(first)
    paired = np.zeros(k, dtype=bool)
    paired[first] = paired[first + 1] = True
    return first, np.flatnonzero(~paired)


def _linear_basis(grad):
    """Canonical ``RBasis`` of the span of a gradient, complex lines first, or None.

    The complex lines (``_complex_lines``) span the complex span of their
    first columns A_l.  One complex QR A_l = QR, its columns signed to a
    positive diagonal of R, gives the pairs (q_1, -j q_1, q_2, -j q_2, ...):
    each spans the complex line C q_k and distinct pairs are complex-
    orthogonal, so they are canonical with every coupling 1.  The odd
    columns are exactly -1j times the even ones, the form that
    ``RBasis.pairs`` recognizes when no other column is left.

    The other columns D are projected off span_C(Q) (twice), then
    real-orthonormalized (N x |D|, R_D) and canonically decomposed on
    their own |D| x |D| block: a vector complex-orthogonal to span_C(Q)
    has no coupling with it.  So the basis (q_1, -j q_1, ..., U_D B_D) is
    canonical as a whole, and ``canonical_decompose`` keeps it.

    None, so that the general route decides the rank and raises as for
    any gradient, when no complex line is found, when D fails its own
    orthonormalization, or when the certificate fails.  The certificate
    is ``full_rank_certified(R)``, and with D: in the coordinates of the
    basis the gradient is the block triangle T = [[R, X], [0, R_D]] with
    X = Q^H D, whose sigma_max / sigma_min = that of the gradient is at
    most ||T||_F ||T^{-1}||_F, with T^{-1} = [[R^{-1}, -R^{-1} X R_D^{-1}],
    [0, R_D^{-1}]]; the bound must pass ``RANK_CERT_MARGIN`` at
    ``RANK_RTOL``, as in ``full_rank_certified``.
    """
    lines = _complex_lines(grad)
    if lines is None:
        return None
    first, rest = lines
    Q, R = np.linalg.qr(grad[:, first])
    if not full_rank_certified(R):
        return None
    r = Q.shape[1]
    diag = np.diagonal(R)
    U = np.empty_like(grad)
    U[:, 0:2 * r:2] = Q * (diag / np.abs(diag))
    U[:, 1:2 * r:2] = -1j * U[:, 0:2 * r:2]
    D = grad[:, rest]
    if D.shape[1]:
        X = np.conj(Q.T) @ D
        D = D - Q @ X
        X_again = np.conj(Q.T) @ D      # twice is enough
        D = D - Q @ X_again
        X = X + X_again
        try:
            space, R_D = r_orthonormalize(D)
        except ValueError:              # RankDeficientError included
            return None
        # Both triangles passed a rank test, so both inverses exist.
        R_inv, R_D_inv = triangle_inverse(R), triangle_inverse(R_D)
        norm_T = np.sqrt(np.linalg.norm(R) ** 2 + np.linalg.norm(X) ** 2
                         + np.linalg.norm(R_D) ** 2)
        norm_T_inv = np.sqrt(np.linalg.norm(R_inv) ** 2
                             + np.linalg.norm(R_inv @ X @ R_D_inv) ** 2
                             + np.linalg.norm(R_D_inv) ** 2)
        # A NaN or inf bound fails the comparison.
        if not norm_T * norm_T_inv * RANK_RTOL < RANK_CERT_MARGIN:
            return None
        U[:, 2 * r:] = canonical_decompose(space).V
    try:
        return RBasis(U)
    except ValueError:      # orthonormality lost to rounding: the general route
        return None


def _model_gradient(model, theta):
    """The complex gradient of ``model`` at ``theta``; ValueError unless
    theta has N_p entries and the gradient has shape (N_d, N_p)."""
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape[0] != model.n_params:
        raise ValueError(
            f"theta has length {theta.shape[0]}, model expects {model.n_params}"
        )
    grad = np.asarray(model.gradient(theta), dtype=complex)
    if grad.shape != (model.n_dims, model.n_params):
        raise ValueError(f"gradient shape {grad.shape} inconsistent with model dims")
    return grad


def variation_space(model, theta):
    """Real-orthonormal basis (an ``RBasis``) of the variation space of
    ``model`` at ``theta``.

    A gradient with complex lines, column pairs (g, +/-j g) such as the
    (A, jA) of every linear model (``models.ls_model``,
    ``models.angle_constrained_model``) or the (e, j e) columns of
    ``models.physical_model``, takes the complex lines first
    (``_linear_basis``): one complex QR for the lines, a real
    orthonormalization and a skew canonical form for the other columns
    only, and a basis that is already canonical, so ``canonical_decompose``
    keeps it.  A linear model's basis is (q_1, -j q_1, ...) from the QR
    alone.  Any other gradient, and one whose full rank the lines route
    does not certify, goes through ``r_orthonormalize``, which decides
    the rank and raises.

    Raises
    ------
    RankDeficientError
        If the gradient columns are dependent over R, i.e. the model is
        not identifiable at theta regardless of the observation matrix.
    """
    grad = _model_gradient(model, theta)
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
    equals that of U.

    Each slice is validated, symmetrized and tested once, as
    ``skew_canonical_form`` does it (``rlinalg._skew_part``).  A slice
    whose Im{U^H U} is already canonical (the test of
    ``kept_canonical_form``) keeps B = I, so V == U (an exact zero entry
    may change its sign in the product).  ``skew_canonical_form`` runs
    only for the slices that need a Schur form, on their validated
    ``_SkewPart``.  Under tied couplings any rotation of the tied
    pairs would do as well; keeping the given basis is a choice, and it
    makes V (and the pilots) a continuous function of U near such a basis.

    A basis (q_1, -j q_1, q_2, -j q_2, ...) (``RBasis.pairs``, the
    closed form of a linear model) is canonical by construction: it is
    kept with every coupling exactly 1, without forming Im{U^H U}.

    The decomposition's ``basis`` is ``basis`` itself when V is U, else
    the basis V = U B, which B, orthogonal, keeps real-orthonormal.
    """
    U = basis.U
    if basis.pairs is not None:
        V, c = U, np.ones(U.shape[:-2] + (U.shape[-1] // 2,))
    else:
        A = np.imag(np.conj(np.swapaxes(U, -1, -2)) @ U)
        B = np.empty(A.shape)
        gamma = np.empty(A.shape[:-2] + (A.shape[-1] // 2,))
        for i in np.ndindex(A.shape[:-2]):      # no slice in an empty stack
            part = _skew_part(A[i])
            B[i], gamma[i] = skew_canonical_form(part) if part.kept is None else part.kept
        V, c = U @ B, np.clip(gamma, 0.0, 1.0)
        basis = RBasis._derived(V)
    decomp = CanonicalDecomposition(V=V, c=c)
    decomp.__dict__["basis"] = basis        # set the cached property: no second check
    return decomp


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
