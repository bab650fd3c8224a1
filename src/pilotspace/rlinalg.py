"""Complex dense linear algebra under the real inner product Re{x^H y}.

A complex vector space C^n is also a real vector space of doubled
dimension.  Equipping it with <x, y>_R = Re{x^H y} turns subspaces that
are only closed under *real* linear combinations into ordinary inner
product spaces.  This module provides the kernel operations for working
in that setting:

* ``r_inner`` / ``r_orthonormalize`` -- Gram-Schmidt with the real inner
  product, implemented through a real QR of the stacked [Re; Im] matrix.
* ``triangle_rank`` -- numerical rank of a QR triangle, certified full
  from one triangular inverse where possible, else from its SVD.
* ``skew_canonical_form`` -- real Schur decomposition of a skew-symmetric
  matrix, reordered into the canonical 2x2 block form with nonnegative,
  descending couplings.
* ``project_r`` / ``compression_matrix`` -- orthogonal projection onto a
  real-orthonormal span and the compression of M M^H to it.

All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, lapack

RANK_RTOL = 1e-10          # numerical-rank threshold, relative to largest singular value
# triangle_rank skips the SVD when ||R||_F ||R^{-1}||_F RANK_RTOL is below
# this margin.  The margin decides only whether the SVD is skipped, never
# the verdict: the product bounds sigma_max/sigma_min from above, and the
# factor 2 absorbs the rounding of the computed inverse.
RANK_CERT_MARGIN = 0.5
COUPLING_SNAP = 1e-12      # couplings below this are snapped to exactly 0


class RankDeficientError(ValueError):
    """A matrix expected to have full column rank over R does not.

    Carries the detected numerical rank and, when ``r_orthonormalize``
    raised it, ``null_space``: a real (k x (k - rank)) matrix whose
    orthonormal columns are the null right-singular vectors of the
    factored matrix, i.e. the real coefficient vectors x with G x ~ 0.
    Its nonzero rows name the generators that collapsed.
    """

    def __init__(self, message, rank=None, null_space=None):
        super().__init__(message)
        self.rank = rank
        self.null_space = null_space


class NotSkewSymmetricError(ValueError):
    """Input to the skew canonical form is not (numerically) skew-symmetric."""


@dataclass(frozen=True)
class RBasis:
    """Matrix U with real-orthonormal columns: Re{U^H U} = Id.

    Attributes
    ----------
    U : ndarray, complex, shape (ambient_dim, dim)
        Basis matrix.
    ambient_dim : int
        Complex dimension of the ambient space.
    dim : int
        Number of basis vectors (real dimension of the span).
    """

    U: np.ndarray
    ambient_dim: int = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        if U.ndim != 2 or U.shape[0] < 1 or U.shape[1] < 1:
            raise ValueError(f"basis matrix must be 2-D and nonempty, got shape {U.shape}")
        if not np.all(np.isfinite(U)):
            raise ValueError("basis matrix contains non-finite entries")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "ambient_dim", U.shape[0])
        object.__setattr__(self, "dim", U.shape[1])
        gram = real_gram(U)
        defect = np.linalg.norm(gram - np.eye(self.dim))
        if defect > 1e-10 * self.dim:
            raise ValueError(
                f"columns are not real-orthonormal: ||Re(U^H U) - I||_F = {defect:.3e}"
            )


@dataclass(frozen=True)
class SkewBlockForm:
    """Canonical form B^T A B = Gamma of a real skew-symmetric matrix A.

    Gamma is block diagonal with 2x2 blocks [[0, -c_k], [c_k, 0]],
    couplings sorted descending, plus a trailing 1x1 zero block when the
    size is odd.
    """

    B: np.ndarray
    gamma: np.ndarray
    has_lone_vector: bool

    @property
    def size(self):
        return self.B.shape[0]

    def block_matrix(self):
        """Rebuild Gamma from the couplings."""
        return skew_block_matrix(self.gamma, self.size)


def skew_block_matrix(gamma, size):
    """Block-diagonal Gamma with blocks [[0, -c], [c, 0]] and a 0 if size is odd."""
    G = np.zeros((size, size))
    for k, c in enumerate(np.atleast_1d(gamma)):
        i = 2 * k
        G[i, i + 1] = -c
        G[i + 1, i] = c
    return G


def r_inner(x, y):
    """Real inner product Re{x^H y} of two complex vectors."""
    x = np.asarray(x).ravel()
    y = np.asarray(y).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return float(np.real(np.vdot(x, y)))


def real_gram(X, Y=None):
    """Re{X^H Y} for complex matrices (Y defaults to X)."""
    X = np.asarray(X)
    Y = X if Y is None else np.asarray(Y)
    return X.real.T @ Y.real + X.imag.T @ Y.imag


def stacked_real(G):
    """Stack a complex matrix into the real (2n x k) matrix [Re{G}; Im{G}]."""
    G = np.asarray(G, dtype=complex)
    return np.vstack([G.real, G.imag])


def numerical_rank(s, rtol=RANK_RTOL):
    """Count of descending singular values s above rtol * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def real_rank(G, rtol=RANK_RTOL):
    """Numerical rank of the columns of G over the reals."""
    return numerical_rank(
        np.linalg.svd(stacked_real(np.atleast_2d(G)), compute_uv=False), rtol
    )


def triangle_rank(R):
    """Numerical rank of an upper-triangular R: numerical_rank(svd(R)).

    One triangular inversion certifies full rank without the SVD:
    sigma_min / sigma_max >= 1 / (||R||_F ||R^{-1}||_F).  Falls back to
    the singular values for a wide triangle, a zero diagonal entry, or a
    product that is non-finite or fails RANK_CERT_MARGIN.
    """
    k = R.shape[1]
    if k > 0 and R.shape == (k, k):
        R_inv, info = lapack.dtrtri(R)   # info > 0: zero diagonal
        bound = np.linalg.norm(R) * np.linalg.norm(R_inv)
        # A NaN or inf bound fails the comparison.
        if info == 0 and bound * RANK_RTOL < RANK_CERT_MARGIN:
            return k
    return numerical_rank(np.linalg.svd(R, compute_uv=False))


def _positive_triangle(X):
    """R of a real QR of [Re{X}; Im{X}], rows signed to a positive diagonal."""
    R = np.linalg.qr(stacked_real(X), mode="r")
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return signs[:, None] * R


def solve_right(X, R):
    """X R^{-1} for a real upper-triangular R; both inputs must be finite.

    Solves R^T Y = X^T with LAPACK ``trtrs`` (``ztrtrs`` for complex X),
    passing the arguments ``scipy.linalg.solve_triangular(R, X.T,
    trans="T")`` passes, so the result is bit-identical to it without
    the wrapper's validation.
    """
    if X.size == 0:      # LAPACK rejects a zero leading dimension
        return np.empty(X.shape, dtype=np.result_type(X, R, 1.0))
    trtrs = lapack.ztrtrs if np.iscomplexobj(X) else lapack.dtrtrs
    if R.flags.f_contiguous:
        Y, info = trtrs(R, X.T, lower=0, trans=1)
    else:
        # trtrs expects Fortran order: solve with the transposed (lower) view.
        Y, info = trtrs(R.T, X.T, lower=1, trans=0)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return Y.T


def r_orthonormalize(G):
    """Orthonormalize the columns of G with respect to <.,.>_R.

    Runs a real QR decomposition of the stacked matrix [Re{G}; Im{G}]
    and maps the triangular factor back: U = G R^{-1}.  The result
    satisfies U R = G with R real upper-triangular (positive diagonal)
    and Re{U^H U} = Id.  The rank test runs on the first pass's k x k
    triangle, whose singular values equal those of the stacked matrix:
    ``triangle_rank`` certifies full rank from its inverse and takes the
    singular values only when the certificate fails.

    Parameters
    ----------
    G : ndarray, complex, shape (n, k)
        Columns must be linearly independent over R.

    Returns
    -------
    basis : RBasis
    R : ndarray, real, shape (k, k)

    Raises
    ------
    RankDeficientError
        If the columns are real-linearly dependent (numerical rank below
        k at relative threshold 1e-10); ``null_space`` holds the
        dependent coefficient vectors.
    """
    G = np.atleast_2d(np.asarray(G, dtype=complex))
    if not np.all(np.isfinite(G)):
        raise ValueError("input matrix contains non-finite entries")
    k = G.shape[1]
    R1 = _positive_triangle(G)
    rank = triangle_rank(R1)
    if rank < k:
        # Error path only: the null right-singular vectors of the same
        # triangle name the collapsing generators.
        _, _, Vh = np.linalg.svd(R1)
        raise RankDeficientError(
            f"columns are linearly dependent over R: numerical rank {rank} < {k}",
            rank=rank,
            null_space=Vh[rank:].T,
        )
    # Two passes ("twice is enough"): the second repairs the loss of
    # orthonormality that a single pass suffers on ill-conditioned input.
    U = solve_right(G, R1)
    R2 = _positive_triangle(U)
    U = solve_right(U, R2)
    return RBasis(U), R2 @ R1


def _no_select(x, y=None):
    return None


def _real_schur(A):
    """Real Schur form A = Q T Q^T of a finite real square matrix.

    Calls LAPACK ``dgees`` with its workspace query and the arguments
    ``scipy.linalg.schur(A, output="real")`` passes, so T and Q are
    bit-identical to it without the wrapper's validation.
    """
    work = lapack.dgees(_no_select, A, lwork=-1)[-2]
    T, _, _, _, Q, _, info = lapack.dgees(
        _no_select, A, lwork=int(work[0]), overwrite_a=False, sort_t=0
    )
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return T, Q


def skew_canonical_form(A, reorder_tol=None):
    """Canonical 2x2 block form of a real skew-symmetric matrix.

    Computes an orthogonal B such that B^T A B is block diagonal with
    blocks [[0, -c_k], [c_k, 0]], c_k >= 0 sorted descending, and a
    trailing zero when the dimension is odd.  Uses the real Schur
    decomposition; column swaps inside each 2x2 block enforce the sign
    convention, and singleton (zero) columns are paired into c = 0
    blocks.

    Raises
    ------
    ValueError
        If A has non-finite entries (checked before the skew test, which
        NaN would pass).
    NotSkewSymmetricError
        If ||A + A^T||_F > 1e-10 (1 + ||A||_F).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    K = A.shape[0]
    if A.shape != (K, K):
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("skew canonical form: input matrix contains non-finite entries")
    norm_a = np.linalg.norm(A)
    if np.linalg.norm(A + A.T) > 1e-10 * (1.0 + norm_a):
        raise NotSkewSymmetricError(
            f"||A + A^T||_F = {np.linalg.norm(A + A.T):.3e} exceeds tolerance"
        )
    A = 0.5 * (A - A.T)

    if reorder_tol is None:
        reorder_tol = COUPLING_SNAP * max(1.0, norm_a)

    T, Q = _real_schur(A)

    # The Schur form of a skew-symmetric matrix is block diagonal: 2x2
    # skew blocks carrying +/-c on the off diagonal, 1x1 zeros elsewhere.
    pairs = []       # (c, [i, j]) column index pairs in Q
    singles = []
    i = 0
    while i < K:
        if i + 1 < K and abs(T[i + 1, i]) > reorder_tol:
            c = 0.5 * (T[i + 1, i] - T[i, i + 1])
            if c >= 0:
                pairs.append((c, [i, i + 1]))
            else:
                # Swapping the block's two columns flips the sign of c.
                pairs.append((-c, [i + 1, i]))
            i += 2
        else:
            singles.append(i)
            i += 1

    # Pair leftover zero columns into c = 0 blocks; one lone column stays if K is odd.
    while len(singles) >= 2 and (len(pairs) < K // 2):
        pairs.append((0.0, [singles.pop(0), singles.pop(0)]))

    pairs.sort(key=lambda pc: -pc[0])
    order = [idx for _, cols in pairs for idx in cols] + singles
    B = Q[:, order]

    def _snap(c):
        if c < COUPLING_SNAP:
            return 0.0
        # Couplings of a real-orthonormal Gram imaginary part cannot
        # exceed 1; absorb floating-point excess.  Larger values are
        # legitimate for general skew-symmetric input and kept as-is.
        if 1.0 < c <= 1.0 + COUPLING_SNAP:
            return 1.0
        return c

    gamma = np.array([_snap(c) for c, _ in pairs])
    return SkewBlockForm(B=B, gamma=gamma, has_lone_vector=(K % 2 == 1))


def project_r(basis, z):
    """Orthogonal projection of z onto span_R(U): U Re{U^H z}."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    if flat.shape[0] != basis.ambient_dim:
        raise ValueError(
            f"vector length {flat.shape[0]} does not match ambient dim {basis.ambient_dim}"
        )
    coords = np.real(np.conj(basis.U.T) @ flat)
    return (basis.U @ coords).reshape(z.shape)


def compression_matrix(basis, M):
    """Compression Re{U^H M M^H U} of M M^H to span_R(U).

    Returns a real symmetric positive semi-definite (dim x dim) matrix.
    Raises ValueError if M has the wrong row count or non-finite entries.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[0] != basis.ambient_dim:
        raise ValueError(
            f"M has {M.shape[0]} rows, expected ambient dim {basis.ambient_dim}"
        )
    if not np.all(np.isfinite(M)):
        raise ValueError("observation matrix M contains non-finite entries")
    X = np.conj(M.T) @ basis.U          # (n_obs, dim)
    C = X.real.T @ X.real + X.imag.T @ X.imag
    return 0.5 * (C + C.T)
