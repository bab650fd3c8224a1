"""Complex dense linear algebra under the real inner product Re{x^H y}.

A complex vector space C^n is also a real vector space of doubled
dimension.  Equipping it with <x, y>_R = Re{x^H y} turns subspaces that
are only closed under *real* linear combinations into ordinary inner
product spaces.  This module provides the kernel operations for working
in that setting:

* ``r_inner`` / ``r_orthonormalize`` -- Gram-Schmidt with the real inner
  product, implemented through a real QR of the stacked [Re; Im] matrix
  (of one matrix or of each matrix in a stack).
* ``triangle_rank`` -- numerical rank of a QR triangle, certified full
  from one triangular inverse (``triangle_inverse``) where possible
  (``full_rank_certified``, which also takes a complex triangle), else
  from its SVD.
* ``skew_canonical_form`` -- real Schur decomposition of a skew-symmetric
  matrix, reordered into the canonical 2x2 block form with nonnegative,
  descending couplings; an input already in that form skips the Schur
  form, and ``kept_canonical_form`` answers for such an input alone.
* ``RBasis`` -- a checked real-orthonormal basis, or a stack of them;
  indexing a stack's batch axes gives the slices without a new check.
  A basis (q_1, -j q_1, q_2, -j q_2, ...), as a linear model's closed
  form builds it, is recognized bitwise once per basis (``RBasis.pairs``)
  and checked through the complex r x r Gram Q^H Q; ``variation`` and
  ``crb`` read the same factor to keep such a basis in r x r algebra.
* ``project_r`` / ``compression_matrix`` -- orthogonal projection onto a
  real-orthonormal span and the compression of M M^H to it (of one
  matrix M or a stack of them; ``real_gram``, ``numerical_rank`` and
  ``solve_right`` take stacks too).

A stack is an array with leading batch axes, and one matrix is a stack
of one.  Every stacked kernel gives each slice the bits of its call on
that slice alone: numpy's stacked ``qr``, ``svd``, ``eigvalsh`` and
``matmul`` factor slice by slice, and the LAPACK calls made here
(``d/ztrtri``, ``d/ztrtrs``, ``dgees``) run once per slice.  The leading
axes of a basis stack and of a matrix stack broadcast as in numpy.

All functions are pure and operate on immutable inputs.

The LAPACK routines used here (``d/ztrtri``, ``d/ztrtrs``, ``d/zpotrf``,
``dgees``) are called on scipy's f2py extension ``scipy.linalg._flapack``, the
module whose functions ``scipy.linalg.lapack`` re-exports.  It is loaded
without importing the ``scipy.linalg`` package, whose import costs more
than the rest of ``import pilotspace`` together, and registered under
its own name, so a later ``import scipy.linalg`` shares the same module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError


def _load_flapack():
    """scipy's ``scipy.linalg._flapack`` extension, without ``scipy.linalg``.

    Imports only the top-level ``scipy`` package (which runs scipy's
    platform library setup), then loads the extension file from its
    ``linalg`` directory under its own name and registers it in
    ``sys.modules``.  Reuses the registered module when one exists.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy
    path = (Path(scipy.__file__).parent / "linalg"
            / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}")
    if not path.is_file():
        raise ImportError(f"scipy's LAPACK extension not found at {path}", name=name,
                          path=str(path))
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()

RANK_RTOL = 1e-10          # numerical-rank threshold, relative to largest singular value
# triangle_rank skips the SVD when ||R||_F ||R^{-1}||_F RANK_RTOL is below
# this margin.  The margin decides only whether the SVD is skipped, never
# the verdict: the product bounds sigma_max/sigma_min from above, and the
# factor 2 absorbs the rounding of the computed inverse.
RANK_CERT_MARGIN = 0.5
COUPLING_SNAP = 1e-12      # couplings below this are snapped to exactly 0
# Defect allowed in a structural property that holds in exact arithmetic
# (orthonormality of an RBasis, skew symmetry of a canonical-form input),
# relative to the size of the matrix.
STRUCTURE_RTOL = 1e-10


class RankDeficientError(ValueError):
    """A matrix expected to have full column rank over R does not.

    Carries the detected numerical rank and, when ``r_orthonormalize``
    raised it for one matrix, ``null_space``: a real (k x (k - rank))
    matrix whose orthonormal columns are the null right-singular vectors
    of the factored matrix, i.e. the real coefficient vectors x with
    G x ~ 0.  Its nonzero rows name the generators that collapsed.  For
    a stack, ``rank`` holds the rank of each slice and ``null_space`` is
    None.
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

    A stack of bases is one RBasis whose U has leading batch axes,
    each slice real-orthonormal; an empty stack passes with defect 0.
    The shape and the pair factor ``pairs`` are read off U.  The defect
    ||Re(U^H U) - I||_F of a basis with ``pairs`` is sqrt(2) ||Q^H Q - I||_F
    in exact arithmetic, and is computed so, from the r x r complex Gram.

    Attributes
    ----------
    U : ndarray, complex, shape (ambient_dim, dim) or (..., ambient_dim, dim)
        Basis matrix, or a stack of them.
    """

    U: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        if U.ndim < 2 or U.shape[-2] < 1 or U.shape[-1] < 1:
            raise ValueError("basis matrix must be 2-D (or a stack of 2-D matrices) and "
                             f"nonempty, got shape {U.shape}")
        if not np.all(np.isfinite(U)):
            raise ValueError("basis matrix contains non-finite entries")
        object.__setattr__(self, "U", U)
        Q = self.pairs
        if Q is None:
            gram, scale = real_gram(U) - np.eye(self.dim), 1.0
        else:
            # Re(U^H U) - I is the real form of Q^H Q - I: each entry twice.
            gram = np.conj(np.swapaxes(Q, -1, -2)) @ Q - np.eye(Q.shape[-1])
            scale = np.sqrt(2.0)
        defect = scale * np.linalg.norm(gram, axis=(-2, -1)).max(initial=0.0)
        if defect > STRUCTURE_RTOL * self.dim:
            raise ValueError(
                f"columns are not real-orthonormal: ||Re(U^H U) - I||_F = {defect:.3e}"
            )

    @property
    def ambient_dim(self):
        """Complex dimension of the ambient space."""
        return self.U.shape[-2]

    @property
    def dim(self):
        """Number of basis vectors (real dimension of the span)."""
        return self.U.shape[-1]

    @cached_property
    def pairs(self):
        """Q = U[..., 0::2] when U = (q_1, -j q_1, q_2, -j q_2, ...) exactly, else None.

        The test is bitwise: U[..., 1::2] == -1j * U[..., 0::2], the expression
        that builds the closed-form basis of a linear model.  Such a basis spans
        the complex span of Q, so its real Gram and compressions are the real
        forms of the complex r x r matrices Q^H Q and Q^H M M^H Q.  An odd
        column count, or a first pair that fails the test, returns at once.
        """
        U = self.U
        if U.shape[-1] % 2 or not np.array_equal(U[..., 1], -1j * U[..., 0]):
            return None
        Q = U[..., 0::2]
        return Q if np.array_equal(U[..., 1::2], -1j * Q) else None

    def __getitem__(self, index):
        """The bases at ``index`` of a stack's batch axes, as an RBasis.

        Each slice of a checked stack is real-orthonormal, so the result
        is not checked again; the index never reaches the two matrix axes.
        """
        if self.U.ndim == 2:
            raise TypeError("a single basis has no batch axes to index")
        index = index if isinstance(index, tuple) else (index,)
        return RBasis._derived(self.U[index + (slice(None), slice(None))])

    @classmethod
    def _derived(cls, U):
        """The RBasis of a complex U derived from a checked basis, without
        a new check: a slice of a checked stack, or the product of a checked
        basis with a real orthogonal matrix (``canonical_decompose``)."""
        basis = object.__new__(cls)
        object.__setattr__(basis, "U", U)
        return basis


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
    """Re{X^H Y} for complex matrices or stacks of them (Y defaults to X)."""
    X = np.asarray(X)
    Y = X if Y is None else np.asarray(Y)
    return (np.swapaxes(X.real, -1, -2) @ Y.real
            + np.swapaxes(X.imag, -1, -2) @ Y.imag)


def stacked_real(G):
    """Stack a complex matrix into the real (2n x k) matrix [Re{G}; Im{G}]
    (each matrix of a stack (..., n, k))."""
    G = np.asarray(G, dtype=complex)
    return np.concatenate([G.real, G.imag], axis=-2)


def numerical_rank(s):
    """Count of descending singular values above RANK_RTOL times the largest.

    Counts along the last axis: an int for one spectrum, an integer
    array for a stack of them.  An empty or all-zero spectrum has rank 0.
    """
    rank = np.sum(s > RANK_RTOL * s[..., :1], axis=-1)
    return int(rank) if rank.ndim == 0 else rank


def real_rank(G):
    """Numerical rank of the columns of G over the reals."""
    return numerical_rank(
        np.linalg.svd(stacked_real(np.atleast_2d(G)), compute_uv=False)
    )


def full_rank_certified(R):
    """Whether one triangular inversion certifies that the square upper-
    triangular R (real or complex) has full numerical rank.

    sigma_min / sigma_max >= 1 / (||R||_F ||R^{-1}||_F), so the answer is
    True when that product passes RANK_CERT_MARGIN.  False for an empty
    or wide triangle, a zero diagonal entry, or a product that is
    non-finite or fails the margin: the rank is then undecided, not
    deficient.
    """
    k = R.shape[1]
    if k == 0 or R.shape != (k, k):
        return False
    R_inv = triangle_inverse(R)
    if R_inv is None:
        return False
    bound = np.linalg.norm(R) * np.linalg.norm(R_inv)
    # A NaN or inf bound fails the comparison.
    return bool(bound * RANK_RTOL < RANK_CERT_MARGIN)


def triangle_inverse(R):
    """R^{-1} of a nonempty square upper-triangular R (real or complex) from
    LAPACK ``d/ztrtri``, or None when a diagonal entry is exactly zero."""
    trtri = _flapack.ztrtri if np.iscomplexobj(R) else _flapack.dtrtri
    R_inv, info = trtri(R)
    return R_inv if info == 0 else None


def cholesky_in_place(S):
    """Upper-triangular R with S = R^H R, or None when LAPACK ``d/zpotrf``
    finds S not numerically positive definite.

    Factors the C-ordered real symmetric or complex Hermitian S in its own
    memory, through the Fortran-ordered view S^T: S is overwritten and R
    shares it.  A real S has its lower triangle read by ``dpotrf``.  A
    complex S^T is conj(S) = L L^H for ``zpotrf``'s lower factor L, so
    S = R^H R with R = L^T, which reads the upper triangle of S.
    """
    if np.iscomplexobj(S):
        L, info = _flapack.zpotrf(S.T, lower=1, clean=1, overwrite_a=1)
        return L.T if info == 0 else None
    R, info = _flapack.dpotrf(S.T, lower=0, clean=1, overwrite_a=1)
    return R if info == 0 else None


def triangle_rank(R):
    """Numerical rank of an upper-triangular R: numerical_rank(svd(R)).

    ``full_rank_certified`` skips the SVD; the singular values are taken
    only when its certificate fails.
    """
    if full_rank_certified(R):
        return R.shape[1]
    return numerical_rank(np.linalg.svd(R, compute_uv=False))


def _positive_triangle(X):
    """R of a real QR of [Re{X}; Im{X}], rows signed to a positive diagonal
    (of each matrix of a stack, from one stacked QR)."""
    R = np.linalg.qr(stacked_real(X), mode="r")
    signs = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return signs[..., None] * R


def solve_right(X, R):
    """X R^{-1} for a real upper-triangular R; both inputs must be finite.

    Solves R^T Y = X^T with LAPACK ``dtrtrs`` (``ztrtrs`` for complex X),
    called on scipy's extension module with the arguments that
    ``scipy.linalg.solve_triangular(R, X.T, trans="T")`` passes to the
    same routine, so the result is bit-identical to that wrapper's
    without its validation or the ``scipy.linalg`` import.  Stacks X
    (..., n, k) and R (..., k, k) are solved slice by slice.
    """
    if X.size == 0:      # LAPACK rejects a zero leading dimension
        return np.empty(X.shape, dtype=np.result_type(X, R, 1.0))
    if X.ndim > 2:
        flat = zip(X.reshape(-1, *X.shape[-2:]), R.reshape(-1, *R.shape[-2:]))
        return np.array([solve_right(x, r) for x, r in flat]).reshape(X.shape)
    trtrs = _flapack.ztrtrs if np.iscomplexobj(X) else _flapack.dtrtrs
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

    A stack G (..., n, k) is orthonormalized slice by slice with the
    bits of one call per slice, and one matrix is a stack of one: each
    pass is one stacked QR, then a rank test and a triangular solve per
    slice, and the result is one RBasis stack (empty for an empty stack).

    Parameters
    ----------
    G : ndarray, complex, shape (n, k) or (..., n, k)
        Columns must be linearly independent over R.

    Returns
    -------
    basis : RBasis
    R : ndarray, real, shape (k, k) or (..., k, k)

    Raises
    ------
    RankDeficientError
        If the columns are real-linearly dependent (numerical rank below
        k at relative threshold RANK_RTOL); ``null_space`` holds the
        dependent coefficient vectors.  For a stack: if any slice is,
        with the rank of each slice and no null space.
    """
    G = np.atleast_2d(np.asarray(G, dtype=complex))
    if not np.all(np.isfinite(G)):
        raise ValueError("input matrix contains non-finite entries")
    k = G.shape[-1]
    R1 = _positive_triangle(G)
    rank = np.array([triangle_rank(R) for R in R1.reshape(-1, *R1.shape[-2:])])
    rank = rank.reshape(G.shape[:-2])
    if np.any(rank < k):
        if G.ndim > 2:
            raise RankDeficientError(
                f"columns of {np.count_nonzero(rank < k)} of {rank.size} stacked "
                f"matrices are linearly dependent over R",
                rank=rank,
            )
        # Error path only: the null right-singular vectors of the same
        # triangle name the collapsing generators.
        rank = int(rank)
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

    Calls LAPACK ``dgees`` on scipy's extension module, with the
    workspace query and the arguments that ``scipy.linalg.schur(A,
    output="real")`` passes to the same routine, so T and Q are
    bit-identical to that wrapper's without its validation or the
    ``scipy.linalg`` import.
    """
    work = _flapack.dgees(_no_select, A, lwork=-1)[-2]
    T, _, _, _, Q, _, info = _flapack.dgees(
        _no_select, A, lwork=int(work[0]), overwrite_a=False, sort_t=0
    )
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return T, Q


def skew_canonical_form(A):
    """Canonical 2x2 block form of a real skew-symmetric matrix.

    Computes an orthogonal B such that B^T A B is block diagonal with
    blocks [[0, -c_k], [c_k, 0]], c_k >= 0 sorted descending, and a
    trailing zero when the dimension is odd.  Uses the real Schur
    decomposition; column swaps inside each 2x2 block enforce the sign
    convention, and singleton (zero) columns are paired into c = 0
    blocks.

    Returns ``(B, gamma)``: the orthogonal matrix and the couplings,
    so that B^T A B = skew_block_matrix(gamma, K).

    An A already in that form within the Schur route's block tolerance
    (``kept_canonical_form``) skips the Schur form: B is the identity and
    gamma its snapped block values.  Near such an A, B stays near the
    identity, where the Schur form may return any rotation within each
    block and any basis of tied blocks.

    A may also be the ``_SkewPart`` that ``_skew_part`` returned for a
    matrix, as ``canonical_decompose`` passes it after its own test of
    that matrix: the validation, symmetrization and block test are then
    not repeated.

    Raises
    ------
    ValueError
        If A is not square or has non-finite entries (checked before the
        skew test, which NaN would pass).
    NotSkewSymmetricError
        If ||A + A^T||_F > STRUCTURE_RTOL (1 + ||A||_F).
    """
    part = A if isinstance(A, _SkewPart) else _skew_part(A)
    if part.kept is not None:
        return part.kept
    A, reorder_tol = part.A_skew, part.tol
    K = A.shape[0]
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
    gamma = np.array([_snap_coupling(c) for c, _ in pairs])
    return B, gamma


def kept_canonical_form(A):
    """``(I, gamma)`` when the skew-symmetric A is already in canonical form,
    else None: the answer of ``skew_canonical_form`` without its Schur form.

    Runs ``skew_canonical_form``'s validation and symmetrization, then
    tests the symmetrized A against the block tolerance
    ``COUPLING_SNAP * max(1, ||A||_F)`` (``_canonical_couplings``); gamma
    holds its snapped block values, descending up to that tolerance.
    Raises as ``skew_canonical_form`` does.  ``canonical_decompose`` runs
    the same test through ``_skew_part`` and hands a failing slice's
    ``_SkewPart`` to ``skew_canonical_form``, so that function runs exactly
    where a Schur form runs and no slice is validated twice.
    """
    return _skew_part(A).kept


class _SkewPart(NamedTuple):
    """A validated skew-symmetric input: ``_skew_part``'s result."""

    A_skew: np.ndarray
    tol: float
    kept: tuple | None


def _skew_part(A):
    """Validate a square real A and return its ``_SkewPart (A_skew, tol, kept)``.

    A_skew = 0.5 (A - A^T) is the symmetrized input, tol the block
    tolerance of the canonical form and kept the ``(I, gamma)`` of an
    A_skew already in that form, else None.  The skew defect is derived
    from A_skew, so A is transposed once: ||A + A^T||_F = 2 ||A - A_skew||_F
    in exact arithmetic.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    K = A.shape[0]
    if A.shape != (K, K):
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("skew canonical form: input matrix contains non-finite entries")
    norm_a = np.linalg.norm(A)
    A_skew = 0.5 * (A - A.T)
    defect = 2.0 * np.linalg.norm(A - A_skew)
    if defect > STRUCTURE_RTOL * (1.0 + norm_a):
        raise NotSkewSymmetricError(f"||A + A^T||_F = {defect:.3e} exceeds tolerance")
    tol = COUPLING_SNAP * max(1.0, norm_a)
    c = _canonical_couplings(A_skew, tol)
    kept = None if c is None else (np.eye(K), np.array([_snap_coupling(ck) for ck in c]))
    return _SkewPart(A_skew, tol, kept)


def _snap_coupling(c):
    if c < COUPLING_SNAP:
        return 0.0
    # Couplings of a real-orthonormal Gram imaginary part cannot
    # exceed 1; absorb floating-point excess.  Larger values are
    # legitimate for general skew-symmetric input and kept as-is.
    if 1.0 < c <= 1.0 + COUPLING_SNAP:
        return 1.0
    return c


def _canonical_couplings(A, tol):
    """Block values c_k = A[2k+1, 2k] of a skew-symmetric A that is already
    in canonical form within ``tol``, else None.

    Canonical within tol: every entry outside the 2x2 diagonal blocks
    (and the trailing zero when the dimension is odd) is at most tol in
    magnitude, no c_k is below -tol and no c_k exceeds its predecessor by
    more than tol.
    """
    # In the flattened K x K matrix, the block entries (2k+1, 2k) and
    # (2k, 2k+1) sit at K + 2k(K+1) and 1 + 2k(K+1).  Basic slices and
    # array methods keep the test to a few microseconds at K = 21.
    K = A.shape[0]
    c = A.ravel()[K::2 * K + 2]
    rest = A.flatten()
    rest[K::2 * K + 2] = rest[1::2 * K + 2] = 0.0
    if (abs(rest).max(initial=0.0) <= tol and (c >= -tol).all()
            and (c[1:] <= c[:-1] + tol).all()):
        return c
    return None


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

    Returns a real symmetric positive semi-definite (dim x dim) matrix,
    or a stack of them: the leading axes of a stack of bases and of a
    stack of matrices M (..., ambient_dim, m) broadcast as in numpy.
    Raises ValueError if M has the wrong row count or non-finite entries.
    """
    M = _checked_observations(basis, M)
    C = real_gram(np.conj(np.swapaxes(M, -1, -2)) @ basis.U)
    return 0.5 * (C + np.swapaxes(C, -1, -2))     # (..., dim, dim)


def _checked_observations(basis, M):
    """M as a complex array (at least 2-D); ValueError if it has the wrong
    row count for ``basis`` or non-finite entries."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[-2] != basis.ambient_dim:
        raise ValueError(
            f"M has {M.shape[-2]} rows, expected ambient dim {basis.ambient_dim}"
        )
    if not np.all(np.isfinite(M)):
        raise ValueError("observation matrix M contains non-finite entries")
    return M
