"""Complex dense linear algebra under the real inner product Re{x^H y}.

A complex vector space C^n is also a real vector space of doubled
dimension.  Equipping it with <x, y>_R = Re{x^H y} turns subspaces that
are only closed under *real* linear combinations into ordinary inner
product spaces.  This module provides the kernel operations for working
in that setting:

* ``r_orthonormalize`` -- Gram-Schmidt with the real inner product,
  implemented through a real QR of the stacked [Re; Im] matrix (of one
  matrix or of each matrix in a stack).
* ``condition_bound`` -- ||R||_F ||R^{-1}||_F of a triangle, the one
  full-rank certificate.  ``triangle_rank``, the numerical rank of a QR
  triangle, takes its SVD only when ``full_rank_certified`` fails.
* ``skew_canonical_form`` -- real Schur decomposition of a skew-symmetric
  matrix (or of each matrix in a stack), reordered into the canonical 2x2
  block form with nonnegative, descending couplings; an input already in
  that form skips the Schur form.
* ``RBasis`` -- a checked real-orthonormal basis, or a stack of them;
  indexing a stack's batch axes gives the slices without a new check.
* ``project_r`` / ``compression_matrix`` -- orthogonal projection onto
  a real-orthonormal span (of one basis) and the compression of M M^H to
  it (of one matrix M or a stack of them; ``real_gram``,
  ``numerical_rank`` and ``solve_right`` take stacks too).

A stack is an array with leading batch axes, and one matrix is a stack
of one.  Every stacked kernel gives each slice the bits of its call on
that slice alone: numpy's stacked ``qr``, ``svd``, ``eigvalsh`` and
``matmul`` factor slice by slice, and the LAPACK calls made here
(``d/ztrtri``, ``d/ztrtrs``, ``dgees``) run once per slice, inside one
call per stack; ``dgees``'s workspace query runs once per matrix order.
The leading axes of a basis stack and of a matrix stack broadcast as in
numpy.

All functions are pure and operate on immutable inputs.

The LAPACK routines used here (``d/ztrtri``, ``d/ztrtrs``, ``d/zpotrf``,
``dgees``) are called on scipy's f2py extension ``scipy.linalg._flapack``, the
module whose functions ``scipy.linalg.lapack`` re-exports.  It is loaded
from scipy's directory without importing any scipy package: not
``scipy.linalg``, whose import costs more than the rest of ``import
pilotspace`` together, and not ``scipy`` itself, whose ``__init__`` imports
scipy's test utilities.  ``scipy`` is imported only when the extension
fails to load without its library setup.  The module is registered under
its own name, so a later ``import scipy.linalg`` shares it.

Every record type of the package (``RBasis`` here, the reports, configs
and designs of the other modules) is a ``_record``: a frozen value class
whose methods are built from its annotations by closures, with no code
generation, so defining the classes costs little of the import.

The input rules of the package's entry points are implemented once, at
the end of this module, and called wherever they apply: one matrix, not
a stack (``_refuse_stack``); numbers and counts (``is_number``,
``finite_number``, ``_integer``, ``_count``); a finite positive sigma^2
or P (``_check_finite_positive``); an observation matrix
(``_checked_observations``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import sys
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError


def _flapack_from_file(name):
    """The extension ``name`` = ``scipy.linalg._flapack`` loaded from the file
    in scipy's ``linalg`` directory, with no scipy package imported."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    path = (Path(spec.submodule_search_locations[0]) / "linalg"
            / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}")
    if not path.is_file():
        raise ImportError(f"scipy's LAPACK extension not found at {path}", name=name,
                          path=str(path))
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module


def _load_flapack():
    """scipy's ``scipy.linalg._flapack`` extension, without scipy's packages.

    Locates scipy with ``importlib.util.find_spec``, which runs no
    ``scipy/__init__.py``, loads the extension file from its ``linalg``
    directory under its own name and registers it in ``sys.modules``.
    Only when that load raises ImportError or OSError (a distribution
    whose extension needs the library setup of scipy's ``__init__``) is
    the top-level ``scipy`` package imported and the load tried again.
    Reuses the registered module when one exists.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        module = _flapack_from_file(name)
    except (ImportError, OSError):
        import scipy  # noqa: F401  (its __init__ sets up the platform's libraries)
        module = _flapack_from_file(name)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()

RANK_RTOL = 1e-10          # numerical-rank threshold, relative to largest singular value
# A certificate passes when condition_bound(R) RANK_RTOL (its square times
# crb.EIG_RTOL for a Cholesky factor) is below this margin, which decides
# only whether an SVD or eigenvalue test is skipped, never the verdict: the
# factor 2 absorbs the rounding of the computed inverse.
RANK_CERT_MARGIN = 0.5
COUPLING_SNAP = 1e-12      # couplings below this are snapped to exactly 0
# Defect allowed in a structural property that holds in exact arithmetic
# (orthonormality of an RBasis, skew symmetry of a canonical-form input),
# relative to the size of the matrix.
STRUCTURE_RTOL = 1e-10


def _record(cls):
    """Class decorator: a frozen record of the fields ``cls`` annotates.

    The fields are the names in the class annotations, after those of a
    record base class; a class attribute of a field's name is its default.
    The decorator adds ``_fields`` (the tuple of field names), an
    ``__init__`` that takes each field by position or keyword, fills in
    the defaults, raises TypeError on a missing, unknown or repeated
    argument and then calls ``__post_init__`` if the class has one; a
    ``__setattr__`` and ``__delattr__`` that raise AttributeError (set a
    field in ``__post_init__`` with ``object.__setattr__``); and
    ``__eq__`` (array fields by ``np.array_equal``, the others by ``==``),
    ``__hash__`` and ``__repr__`` over the fields.  The
    methods are closures over the field names, so no source is generated
    and compiled as ``dataclasses`` does, at about 1 ms a class.
    """
    inherited = getattr(cls, "_fields", ())
    names = inherited + tuple(name for name in cls.__dict__.get("__annotations__", {})
                              if name not in inherited)
    known = frozenset(names)
    defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
    post_init = hasattr(cls, "__post_init__")
    title = f"{cls.__qualname__}()"

    def by_keyword(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{title} takes {len(names)} positional arguments but "
                            f"{len(args)} were given")
        values = dict(zip(names, args))
        for name in kwargs:
            if name in values:
                raise TypeError(f"{title} got multiple values for argument {name!r}")
        values.update(kwargs)
        return values

    def completed(kwargs):
        unknown = kwargs.keys() - known
        if unknown:
            raise TypeError(f"{title} got unexpected keyword argument(s) "
                            + ", ".join(map(repr, sorted(unknown))))
        missing = [name for name in names if name not in kwargs and name not in defaults]
        if missing:
            raise TypeError(f"{title} missing required argument(s) "
                            + ", ".join(map(repr, missing)))
        return {**defaults, **kwargs}

    def __init__(self, *args, **kwargs):
        if args:
            kwargs = by_keyword(args, kwargs)
        if kwargs.keys() != known:
            kwargs = completed(kwargs)
        self.__dict__.update(kwargs)
        if post_init:
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in names:
            a, b = getattr(self, name), getattr(other, name)
            arrays = isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            if a is not b and not (np.array_equal(a, b) if arrays else a == b):
                return False
        return True

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in names))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._fields = names
    return cls


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


@_record
class RBasis:
    """Matrix U with real-orthonormal columns: Re{U^H U} = Id.

    A stack of bases is one RBasis whose U has leading batch axes,
    each slice real-orthonormal; an empty stack passes with defect 0.
    The shape is read off U.

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
        _check_finite("basis matrix", U)
        object.__setattr__(self, "U", U)
        gram = real_gram(U) - np.eye(self.dim)
        defect = np.linalg.norm(gram, axis=(-2, -1)).max(initial=0.0)
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

    def __getitem__(self, index):
        """The bases at ``index`` of a stack's batch axes, of the stack's type.

        Each slice of a checked stack is real-orthonormal, so the result
        is not checked again.  Every field is sliced on the batch axes,
        which lead every field as they lead U (a decomposition's
        couplings too); the index never reaches the trailing axes.
        """
        if self.U.ndim == 2:
            raise TypeError("a single basis has no batch axes to index")
        index = index if isinstance(index, tuple) else (index,)
        batch = self.U.ndim - 2
        fields = {}
        for name in self._fields:
            value = getattr(self, name)
            fields[name] = value[index + (slice(None),) * (value.ndim - batch)]
        return type(self)._derived(**fields)

    @classmethod
    def _derived(cls, U, **fields):
        """The basis of a complex U derived from a checked basis, without
        a new check: a slice of a checked stack, the product of a checked
        basis with a real orthogonal matrix (``canonical_decompose``), a
        basis whose blocks were checked on their own (``variation``'s
        complex-lines route), or the second pass of ``r_orthonormalize``
        on a full-rank input.  A subclass's other ``fields`` are set as
        given."""
        basis = object.__new__(cls)
        basis.__dict__.update(U=U, **fields)
        return basis


def skew_block_matrix(gamma, size):
    """Block-diagonal Gamma with blocks [[0, -c], [c, 0]] and a 0 if size is
    odd; couplings (..., size // 2) give a stack (..., size, size)."""
    c = np.atleast_1d(gamma)
    i = 2 * np.arange(c.shape[-1])
    G = np.zeros(c.shape[:-1] + (size, size))
    G[..., i, i + 1] = -c
    G[..., i + 1, i] = c
    return G


def real_gram(X):
    """Re{X^H X} for a complex matrix or a stack of them."""
    X = np.asarray(X)
    return (np.swapaxes(X.real, -1, -2) @ X.real
            + np.swapaxes(X.imag, -1, -2) @ X.imag)


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


def condition_bound(R):
    """||R||_F ||R^{-1}||_F >= sigma_max / sigma_min of a square upper-
    triangular R (real or complex), from one LAPACK ``d/ztrtri``; inf for
    an empty or non-square R or an exactly zero diagonal entry.
    """
    k = R.shape[1]
    if k == 0 or R.shape != (k, k):
        return math.inf
    trtri = _flapack.ztrtri if np.iscomplexobj(R) else _flapack.dtrtri
    R_inv, info = trtri(R)
    return np.linalg.norm(R) * np.linalg.norm(R_inv) if info == 0 else math.inf


def full_rank_certified(R):
    """Whether ``condition_bound(R)`` RANK_RTOL < RANK_CERT_MARGIN certifies
    full numerical rank; False (a NaN or inf bound included) leaves the rank
    undecided, not deficient."""
    return bool(condition_bound(R) * RANK_RTOL < RANK_CERT_MARGIN)


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
    (..., n, k) and R (..., k, k), of equal batch shapes, are solved
    slice by slice in one C-ordered copy of X; one matrix is a stack of
    one.  Shapes that do not fit raise ValueError before LAPACK runs.
    """
    if X.ndim < 2 or R.shape != X.shape[:-2] + (X.shape[-1],) * 2:
        raise ValueError(f"solve_right: R of shape {R.shape} does not fit X of shape "
                         f"{X.shape}: expected X (..., n, k) and R (..., k, k) with "
                         "the same batch shape")
    Y = np.array(X, dtype=np.result_type(X, R, 1.0), order="C")
    if Y.size:      # LAPACK rejects a zero leading dimension
        trtrs = _flapack.ztrtrs if np.iscomplexobj(Y) else _flapack.dtrtrs
        for y, r in zip(Y.reshape(-1, *X.shape[-2:]), R.reshape(-1, *R.shape[-2:])):
            _solve_in_place(trtrs, y, r)
    return Y


def _solve_in_place(trtrs, Y, R):
    """Overwrite one C-ordered matrix Y with Y R^{-1}, by ``trtrs`` on Y^T
    (the Fortran-ordered right-hand side it solves in place)."""
    if R.flags.f_contiguous:
        _, info = trtrs(R, Y.T, lower=0, trans=1, overwrite_b=1)
    else:
        # trtrs expects Fortran order: solve with the transposed (lower) view.
        _, info = trtrs(R.T, Y.T, lower=1, trans=0, overwrite_b=1)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")


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
    The basis is returned without the ``RBasis`` Gram check, which the
    tests run on its output.

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
    ValueError
        If G (or each matrix of a stack) has no row or no column, or has
        non-finite entries.
    RankDeficientError
        If the columns are real-linearly dependent (numerical rank below
        k at relative threshold RANK_RTOL); ``null_space`` holds the
        dependent coefficient vectors.  For a stack: if any slice is,
        with the rank of each slice and no null space.
    """
    G = np.atleast_2d(np.asarray(G, dtype=complex))
    if not (G.shape[-2] and G.shape[-1]):
        raise ValueError("input matrix must have at least one row and one column, "
                         f"got shape {G.shape}")
    _check_finite("input matrix", G)
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
    # Full numerical rank bounds cond(G) by 1 / RANK_RTOL, so the first
    # pass leaves U within O(eps cond(G)) << 1 of orthonormal and the
    # second within O(eps).
    U = solve_right(G, R1)
    R2 = _positive_triangle(U)
    U = solve_right(U, R2)
    return RBasis._derived(U), R2 @ R1


def _no_select(x, y=None):
    return None


# dgees's optimal workspace for each matrix order: the query depends on the
# order alone, so it runs once per order.
_DGEES_LWORK = {}


def _real_schur(A):
    """Real Schur form A = Q T Q^T of a finite real square matrix.

    Calls LAPACK ``dgees`` on scipy's extension module, with the
    workspace size and the arguments that ``scipy.linalg.schur(A,
    output="real")`` passes to the same routine, so T and Q are
    bit-identical to that wrapper's without its validation or the
    ``scipy.linalg`` import.  The wrapper queries the workspace on every
    call; here the query runs on the first matrix of each order, and its
    answer is kept in ``_DGEES_LWORK``.
    """
    K = A.shape[0]
    lwork = _DGEES_LWORK.get(K)
    if lwork is None:
        lwork = _DGEES_LWORK[K] = int(_flapack.dgees(_no_select, A, lwork=-1)[-2][0])
    T, _, _, _, Q, _, info = _flapack.dgees(
        _no_select, A, lwork=lwork, overwrite_a=False, sort_t=0
    )
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return T, Q


def skew_canonical_form(A):
    """Canonical 2x2 block form of a real skew-symmetric matrix, or of each
    matrix of a stack.

    Computes an orthogonal B such that B^T A B is block diagonal with
    blocks [[0, -c_k], [c_k, 0]], c_k >= 0 sorted descending, and a
    trailing zero when the dimension is odd.  Uses the real Schur
    decomposition of the symmetrized input 0.5 (A - A^T); column swaps
    inside each 2x2 block enforce the sign convention, and singleton
    (zero) columns are paired into c = 0 blocks.

    Returns ``(B, gamma)``: the orthogonal matrix and the couplings,
    so that B^T A B = skew_block_matrix(gamma, K).

    An A already in that form within the Schur route's block tolerance
    skips the Schur form: B is the identity and gamma its snapped block
    values.  Near such an A, B stays near the identity, where the Schur
    form may return any rotation within each block and any basis of tied
    blocks.

    A stack A (..., K, K) gives B (..., K, K) and gamma (..., K // 2),
    each slice with the bits of its own call; one matrix is a stack of
    one.  The finiteness test, the symmetrization and the canonical-input
    test run once on the whole stack, the norm and skew defect of each
    slice as in a call on it alone, and only the slices that are not
    already canonical take a Schur form.  An error on a stack names the
    first slice that fails.

    Raises
    ------
    ValueError
        If A is not square or has non-finite entries (checked before the
        skew test, which NaN would pass).
    NotSkewSymmetricError
        If ||A + A^T||_F > STRUCTURE_RTOL (1 + ||A||_F).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    K = A.shape[-1]
    if A.shape[-2] != K:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    _check_finite("skew canonical form: input matrix", A)
    # The defect is read off the symmetrized A_skew, so A is transposed
    # once: ||A + A^T||_F = 2 ||A - A_skew||_F in exact arithmetic.
    A_skew = 0.5 * (A - np.swapaxes(A, -1, -2))
    excess = A - A_skew
    slices = list(np.ndindex(A.shape[:-2]))
    norm_a = np.array([np.linalg.norm(A[i]) for i in slices]).reshape(A.shape[:-2])
    defect = 2.0 * np.array([np.linalg.norm(excess[i]) for i in slices]).reshape(norm_a.shape)
    skew = defect <= STRUCTURE_RTOL * (1.0 + norm_a)
    if not skew.all():
        first = np.unravel_index(np.argmin(skew), skew.shape)
        raise NotSkewSymmetricError(f"||A + A^T||_F = {defect[first]:.3e} exceeds tolerance"
                                    + _first_failing_slice(skew))
    reorder_tol = COUPLING_SNAP * np.maximum(1.0, norm_a)
    gamma, canonical = _canonical_couplings(A_skew, reorder_tol)
    B = np.broadcast_to(np.eye(K), A.shape).copy()
    for i in slices:
        if not canonical[i]:
            B[i], gamma[i] = _schur_canonical_form(A_skew[i], float(reorder_tol[i]))
    # Couplings below the snap are exactly 0.  Those of a real-orthonormal
    # Gram's imaginary part cannot exceed 1, so a floating-point excess is
    # absorbed; larger values are legitimate for general skew-symmetric
    # input and kept as they are.
    gamma[gamma < COUPLING_SNAP] = 0.0
    gamma[(1.0 < gamma) & (gamma <= 1.0 + COUPLING_SNAP)] = 1.0
    return B, gamma


def _first_failing_slice(ok):
    """'' for one matrix; for a stack, ' in slice i' naming the first False
    entry of the per-slice verdicts ``ok``."""
    if ok.ndim == 0:
        return ""
    index = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
    return f" in slice {index[0] if len(index) == 1 else index}"


def _schur_canonical_form(A_skew, reorder_tol):
    """``(B, gamma)`` of one skew-symmetric A_skew from its real Schur form,
    before the couplings are snapped; ``reorder_tol`` is the block tolerance."""
    K = A_skew.shape[0]
    T, Q = _real_schur(A_skew)
    # The Schur form of a skew-symmetric matrix is block diagonal: 2x2
    # skew blocks carrying +/-c on the off diagonal, 1x1 zeros elsewhere.
    below, above = T.diagonal(-1).tolist(), T.diagonal(1).tolist()
    pairs = []       # (c, [i, j]) column index pairs in Q
    singles = []
    i = 0
    while i < K:
        if i + 1 < K and abs(below[i]) > reorder_tol:
            c = 0.5 * (below[i] - above[i])
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
    return Q[:, order], [c for c, _ in pairs]


def _canonical_couplings(A, tol):
    """Block values c_k = A[..., 2k+1, 2k] of each slice of a stack of
    skew-symmetric matrices, and whether each slice is already in canonical
    form within its ``tol``.

    Canonical within tol: every entry outside the 2x2 diagonal blocks
    (and the trailing zero when the dimension is odd) is at most tol in
    magnitude, no c_k is below -tol and no c_k exceeds its predecessor by
    more than tol.
    """
    # In each flattened K x K slice, the block entries (2k+1, 2k) and
    # (2k, 2k+1) sit at K + 2k(K+1) and 1 + 2k(K+1).  Basic slices and
    # array methods test the whole stack at once.
    K = A.shape[-1]
    rest = A.reshape(A.shape[:-2] + (K * K,)).copy()
    c = rest[..., K::2 * K + 2].copy()
    rest[..., K::2 * K + 2] = rest[..., 1::2 * K + 2] = 0.0
    tol = tol[..., None]
    canonical = ((abs(rest) <= tol).all(axis=-1) & (c >= -tol).all(axis=-1)
                 & (c[..., 1:] <= c[..., :-1] + tol).all(axis=-1))
    return c, canonical


def project_r(basis, z):
    """Orthogonal projection of z onto span_R(U): U Re{U^H z}.

    ``basis`` is one basis: a stack raises ValueError, not an answer for
    a slice.
    """
    _refuse_stack(basis.U, "basis", "project onto each basis of the stack (basis[i])")
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
    M = _checked_observations(M, basis.ambient_dim)
    C = real_gram(np.conj(np.swapaxes(M, -1, -2)) @ basis.U)
    return 0.5 * (C + np.swapaxes(C, -1, -2))     # (..., dim, dim)


# The input rules of the package's entry points, one implementation each.

def _checked_observations(M, rows):
    """M as a complex array (at least 2-D); ValueError if it has not ``rows``
    rows (the ambient dimension) or has non-finite entries."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[-2] != rows:
        raise ValueError(f"M has {M.shape[-2]} rows, expected ambient dim {rows}")
    _check_finite("observation matrix M", M)
    return M


def _check_finite(what, A):
    """ValueError ``<what> contains non-finite entries`` unless every entry
    of the matrix A, or of each matrix of a stack, is finite; on a stack
    the message names the first failing slice (``_first_failing_slice``)."""
    finite = np.isfinite(A).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(f"{what} contains non-finite entries" + _first_failing_slice(finite))


def _checked_couplings(c):
    """The float array ``c``, as given; ValueError unless every coupling
    lies in [0, 1] within COUPLING_SNAP (NaN and +/-inf lie outside)."""
    if not np.all((c >= -COUPLING_SNAP) & (c <= 1.0 + COUPLING_SNAP)):
        raise ValueError("couplings must lie in [0, 1]")
    return c


def _refuse_stack(array, what, hint, ndim=2):
    """ValueError naming the batch shape when ``array`` is a stack of
    ``ndim``-axis objects (matrices by default, more than two axes) where
    one ``what`` is expected; ``hint`` says what to pass instead."""
    if np.ndim(array) > ndim:
        raise ValueError(f"expected one {what}, got a stack of batch shape "
                         f"{np.shape(array)[:-ndim]}: {hint}")


def is_number(value):
    """True for a real number that is not a bool: a JSON number, or a NumPy
    integer or floating scalar."""
    # int and float first: the numbers.Real ABC check is ~5x slower.
    return isinstance(value, (int, float, numbers.Real)) and not isinstance(value, bool)


def finite_number(value):
    """True for a number (see ``is_number``) that is finite as a double."""
    if not is_number(value):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _integer(name, value):
    """``value`` as an int; ValueError unless it is an integer, not a bool."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _count(name, value):
    """``value`` as an int; ValueError unless it is an integer (``_integer``)
    of at least 1."""
    value = _integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _check_finite_positive(name, value):
    """ValueError naming ``name`` unless ``value`` is a finite number
    (``finite_number``: not a bool, a string or None) above 0."""
    if not (finite_number(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
