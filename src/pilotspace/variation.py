"""Variation spaces of parametric channel models and their canonical decomposition.

The variation space of a model h(theta) at a parameter point is the set
of channel perturbations (dh/dtheta) x reachable with *real* coefficient
vectors x.  It is a real-linear subspace of C^{N_d} and generally not a
complex one.  Decomposing it into complex-orthogonal planes, each carrying
a coupling c_k in [0, 1] that measures how close the plane is to a complex
line, is what makes the Cramer-Rao bound optimizable in closed form.

A variation space is handed around as an ``rlinalg.RBasis``: the bounds
depend on the space only, through any real-orthonormal basis of it.  A
``CanonicalDecomposition`` is such a basis, the canonical one, together
with its couplings, so it goes wherever a basis does.
``canonical_decompose`` takes one basis as a stack of one: a stack of
bases (one RBasis with leading batch axes) goes through the same code
and returns the stacked decomposition.

A model gradient takes its complex lines first: column pairs (g, +/-j g)
span complex lines C g, which have coupling 1.  One complex QR of the
lines gives the pairs (q_1, -j q_1, q_2, -j q_2, ...) with c = 1 exactly;
the other columns are orthonormalized and decomposed on their own block,
and ``variation_space`` returns the whole basis as a decomposition, which
``canonical_decompose`` returns unchanged; of its orthonormality only
the cross block between the lines and the other columns is checked.  A
linear model's gradient (A, jA) is all lines, and its basis is
(q_1, -j q_1, ...) alone.  A gradient without
complex lines, or whose full rank that route does not certify, goes
through ``r_orthonormalize``, and ``canonical_decompose`` takes the real
Schur form of its Im{U^H U}, as for the azimuth-only spans of ``models``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .rlinalg import (
    STRUCTURE_RTOL,
    RBasis,
    RankDeficientError,
    _check_finite,
    _checked_couplings,
    _record,
    _refuse_stack,
    full_rank_certified,
    project_r,
    r_orthonormalize,
    skew_block_matrix,
    skew_canonical_form,
)


@_record
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


@_record
class CanonicalDecomposition(RBasis):
    """Canonical basis U = (v_1, w_1, ..., [v_lone]) of a variation space,
    with its couplings c.

    A decomposition is the checked real-orthonormal basis of its space
    (an ``RBasis``, so it goes wherever a basis does) plus the couplings:
    pairs (v_k, w_k) satisfy v_k^H w_k = -j c_k, and distinct pairs (and
    the lone vector, present iff the dimension is odd) are mutually
    complex-orthogonal.  ``V`` and ``n_params`` read U and its dimension.
    A stacked decomposition has U (..., n, N_p) and c (..., N_p // 2).

    Built from arrays, U is checked as any RBasis is, and c must have
    shape U.shape[:-2] + (N_p // 2,) and lie in [0, 1] within
    COUPLING_SNAP (``rlinalg._checked_couplings``, as ``crb.crb_min``'s
    couplings).  ``variation_space`` and ``canonical_decompose`` build it
    from a basis and couplings they have checked.
    """

    c: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        c = np.asarray(self.c, dtype=float)
        expected = self.U.shape[:-2] + (self.dim // 2,)
        if c.shape != expected:
            raise ValueError(f"couplings of shape {c.shape} do not fit a basis of shape "
                             f"{self.U.shape}: expected shape {expected}")
        object.__setattr__(self, "c", _checked_couplings(c))

    @property
    def V(self):
        return self.U

    @property
    def n_params(self):
        return self.dim

    @property
    def epsilon(self):
        """1 if the dimension is odd (a lone unpaired vector), else 0."""
        return self.dim % 2

    def pair(self, k):
        """The k-th pair (v_k, w_k)."""
        return self.U[..., 2 * k], self.U[..., 2 * k + 1]

    @property
    def lone_vector(self):
        if not self.epsilon:
            return None
        return self.U[..., -1]

    def gamma_matrix(self):
        """Imaginary part of V^H V in exact arithmetic."""
        return skew_block_matrix(self.c, self.dim)


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
    found.  The gradient is finite (``_model_gradient``).
    """
    k = grad.shape[1]
    if k < 2:
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
    """``CanonicalDecomposition`` of the span of a gradient, complex lines
    first, or None.

    The complex lines (``_complex_lines``) span the complex span of their
    first columns A_l.  One complex QR A_l = QR, its columns signed to a
    positive diagonal of R, gives the pairs (q_1, -j q_1, q_2, -j q_2, ...):
    each spans the complex line C q_k and distinct pairs are complex-
    orthogonal, so they are canonical with every coupling exactly 1.  The
    odd columns are exactly -1j times the even ones, the form in which
    ``crb.compression_spectra`` compresses a basis of lines only in r x r
    complex algebra.

    The other columns D are projected off span_C(Q) (twice), then
    real-orthonormalized (N x |D|, R_D) and canonically decomposed on
    their own |D| x |D| block: a vector complex-orthogonal to span_C(Q)
    has no coupling with it.  So the basis (q_1, -j q_1, ..., U_D B_D) is
    canonical as a whole, with couplings (1, ..., 1, c_D): the block's
    own couplings follow the lines' in descending order.

    None, so that the general route decides the rank and raises as for
    any gradient, when no complex line is found, when D fails its own
    orthonormalization, or when the certificate fails.  In the coordinates
    of the basis the gradient is the complex upper triangle
    T = [[R, X], [0, R_D]], X = Q^H D (T = R without D), and the
    certificate is one ``full_rank_certified(T)``: the real gradient is
    T's realification restricted to real coordinates of D, so its
    sigma_max / sigma_min is at most T's.  Q's columns are signed only
    after T passes, so a zero diagonal entry never reaches the signs.

    The basis is not checked as a whole: the lines come from a Householder
    QR and U_D from the second pass of ``r_orthonormalize``, so only the
    cross block Q^H U_D is, against the ``RBasis`` tolerance; None when it
    fails.  Without D there is nothing to check.
    """
    lines = _complex_lines(grad)
    if lines is None:
        return None
    first, rest = lines
    Q, R = np.linalg.qr(grad[:, first])
    D = grad[:, rest]
    T = R
    if D.shape[1]:
        X = np.conj(Q.T) @ D
        D = D - Q @ X
        X_again = np.conj(Q.T) @ D      # twice is enough
        D = D - Q @ X_again
        try:
            space, R_D = r_orthonormalize(D)
        except ValueError:              # RankDeficientError included
            return None
        T = np.block([[R, X + X_again], [np.zeros_like(X.T), R_D]])
    if not full_rank_certified(T):
        return None
    r = Q.shape[1]
    diag = np.diagonal(R)
    U = np.empty_like(grad)
    U[:, 0:2 * r:2] = Q * (diag / np.abs(diag))
    U[:, 1:2 * r:2] = -1j * U[:, 0:2 * r:2]
    c = np.ones(r)
    if D.shape[1]:
        block = canonical_decompose(space)
        U[:, 2 * r:] = block.U
        c = np.concatenate([c, block.c])
        # Re{U^H U} - I is zero up to rounding on the line block (Householder)
        # and on U_D's (r_orthonormalize's second pass); the cross block holds
        # the real and imaginary parts of Q^H U_D, twice.
        cross = np.conj(U[:, 0:2 * r:2].T) @ block.U
        if np.sqrt(2.0) * np.linalg.norm(cross) > STRUCTURE_RTOL * U.shape[1]:
            return None     # orthonormality lost to rounding: the general route
    return CanonicalDecomposition._derived(U, c=c)


def _checked_theta(theta, n_params):
    """theta as a flat float array; ValueError unless it has ``n_params``
    entries.  The one length rule of a model's parameter vector."""
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape[0] != n_params:
        raise ValueError(f"theta has length {theta.shape[0]}, model expects {n_params}")
    return theta


def _model_gradient(model, theta):
    """The complex gradient of ``model`` at ``theta``; ValueError unless
    theta has N_p entries and the gradient has shape (N_d, N_p) and finite
    entries."""
    grad = np.asarray(model.gradient(_checked_theta(theta, model.n_params)), dtype=complex)
    if grad.shape != (model.n_dims, model.n_params):
        raise ValueError(f"gradient shape {grad.shape} inconsistent with model dims")
    _check_finite("gradient", grad)
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
    only.  Its basis comes out canonical and is returned as a
    ``CanonicalDecomposition``, which ``canonical_decompose`` returns
    unchanged.  A linear model's basis is (q_1, -j q_1, ...) from the QR
    alone.  Any other gradient, and one whose full rank the lines route
    does not certify, goes through ``r_orthonormalize``, which decides
    the rank and raises, and returns a plain ``RBasis``.

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
    basis is a stack of one).  A ``CanonicalDecomposition``, as
    ``variation_space`` returns for a gradient with complex lines, is
    returned unchanged.  Any other basis gets the canonical form
    ``skew_canonical_form`` of Im{U^H U} and is rotated: V = U B.
    Im{U^H U}, its canonical form and U B are one stacked call each, so
    each slice has the bits of its own call.  The couplings c are the
    descending block values; the real span of V equals that of U, and
    B, orthogonal, keeps V real-orthonormal without a new check.

    A slice whose Im{U^H U} is already canonical keeps B = I, so V == U
    (an exact zero entry may change its sign in the product); a basis
    (q_1, -j q_1, q_2, -j q_2, ...) built by hand rather than by
    ``variation_space`` is one, with couplings within rounding of 1.
    Under tied couplings any rotation of the tied pairs would do as well;
    keeping the given basis is a choice, and it makes V (and the pilots)
    a continuous function of U near such a basis.
    """
    if isinstance(basis, CanonicalDecomposition):
        return basis
    U = basis.U
    B, gamma = skew_canonical_form(np.imag(np.conj(np.swapaxes(U, -1, -2)) @ U))
    return CanonicalDecomposition._derived(U @ B, c=np.clip(gamma, 0.0, 1.0))


def verify_eigenspace_property(decomp):
    """Check that each pair lies in an eigenspace of P_E o P_jE.

    For every pair (v_k, w_k) the composition of the projections onto
    the span E and onto jE acts as multiplication by c_k^2.  (On E the
    composed operator has matrix -A^2 with A = Im{U^H U}, which is
    positive semi-definite with eigenvalues c_k^2; at c_k = 1 the pair
    spans a complex line where the composition is the identity.)
    Returns the per-pair residuals and their maximum.  A stacked
    decomposition raises ValueError: decompose each basis of the stack.
    """
    _refuse_stack(decomp.U, "decomposition", "decompose each basis of the stack")
    jE = RBasis(1j * decomp.U)
    residuals = []
    for k, c in enumerate(decomp.c):
        v, w = decomp.pair(k)
        rv = np.linalg.norm(project_r(decomp, project_r(jE, v)) - c**2 * v)
        rw = np.linalg.norm(project_r(decomp, project_r(jE, w)) - c**2 * w)
        residuals.append(max(rv, rw))
    residuals = np.array(residuals)
    return {
        "residuals": residuals,
        "max_residual": float(residuals.max()) if residuals.size else 0.0,
    }
