"""Tests for the real-inner-product linear algebra kernel."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotspace.rlinalg import (
    RANK_CERT_MARGIN,
    RANK_RTOL,
    NotSkewSymmetricError,
    RankDeficientError,
    RBasis,
    _positive_triangle,
    _real_schur,
    compression_matrix,
    numerical_rank,
    project_r,
    r_inner,
    r_orthonormalize,
    real_gram,
    real_rank,
    skew_canonical_form,
    solve_right,
    stacked_real,
    triangle_rank,
)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def naive_r_inner(x, y):
    acc = 0.0
    for a, b in zip(x, y):
        acc += (np.conj(a) * b).real
    return acc


class TestRInner:
    def test_j_orthogonal(self):
        assert r_inner([1, 0], [1j, 0]) == pytest.approx(0.0)

    def test_unit_vector(self):
        x = np.array([(1 + 1j) / np.sqrt(2)])
        assert r_inner(x, x) == pytest.approx(1.0)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = random_complex(rng, 8), random_complex(rng, 8)
            assert r_inner(x, y) == pytest.approx(naive_r_inner(x, y), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            r_inner([1, 2], [1])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetric_and_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        x, y, z = (random_complex(rng, 5) for _ in range(3))
        a, b = rng.normal(size=2)
        assert r_inner(x, y) == pytest.approx(r_inner(y, x), abs=1e-10)
        assert r_inner(a * x + b * z, y) == pytest.approx(
            a * r_inner(x, y) + b * r_inner(z, y), rel=1e-9, abs=1e-9
        )


class TestROrthonormalize:
    def test_identity(self):
        basis, R = r_orthonormalize(np.eye(3, dtype=complex))
        assert np.allclose(basis.U, np.eye(3))
        assert np.allclose(R, np.eye(3))

    def test_scaled_column(self):
        rng = np.random.default_rng(1)
        b = random_complex(rng, 5)
        b /= np.linalg.norm(b)
        basis, R = r_orthonormalize(2.0 * b.reshape(-1, 1))
        assert R == pytest.approx(np.array([[2.0]]))
        assert np.allclose(basis.U[:, 0], b)

    def test_complex_dependent_real_independent(self):
        # (b, j b) is C-dependent but R-independent: both columns survive.
        rng = np.random.default_rng(2)
        b = random_complex(rng, 6)
        b /= np.linalg.norm(b)
        G = np.stack([b, 1j * b], axis=1)
        basis, _ = r_orthonormalize(G)
        assert basis.dim == 2
        naive = np.array(
            [[naive_r_inner(basis.U[:, i], basis.U[:, j]) for j in range(2)] for i in range(2)]
        )
        assert np.allclose(naive, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 4), (9, 5), (4, 2), (12, 7)])
    def test_invariants_random(self, shape):
        rng = np.random.default_rng(sum(shape))
        G = random_complex(rng, *shape)
        basis, R = r_orthonormalize(G)
        k = shape[1]
        assert np.linalg.norm(real_gram(basis.U) - np.eye(k)) <= 1e-10 * k
        assert np.linalg.norm(basis.U @ R - G) <= 1e-9 * np.linalg.norm(G)
        assert np.all(np.diag(R) > 0)
        assert np.allclose(R, np.triu(R))
        assert np.allclose(R.imag if np.iscomplexobj(R) else 0.0, 0.0)

    def test_ill_conditioned_still_orthonormal(self):
        rng = np.random.default_rng(3)
        G = random_complex(rng, 8, 3)
        G[:, 2] = G[:, 0] + 1e-6 * G[:, 2]
        basis, R = r_orthonormalize(G)
        assert np.linalg.norm(real_gram(basis.U) - np.eye(3)) <= 1e-10 * 3
        assert np.linalg.norm(basis.U @ R - G) <= 1e-9 * np.linalg.norm(G)

    def test_rank_deficient(self):
        rng = np.random.default_rng(4)
        b = random_complex(rng, 5)
        G = np.stack([b, -2.5 * b], axis=1)  # real-dependent columns
        with pytest.raises(RankDeficientError) as excinfo:
            r_orthonormalize(G)
        assert excinfo.value.rank == 1


class TestRankFromTriangle:
    """The rank test runs on the first QR pass's triangle, not on [Re; Im] G."""

    @staticmethod
    def rank_of(G):
        try:
            basis, _ = r_orthonormalize(G)
        except RankDeficientError as err:
            return err.rank, err
        return basis.dim, None

    @pytest.mark.parametrize("seed", range(8))
    def test_random_generator_sets(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, 2 * n + 1))
        G = random_complex(rng, n, k)
        assert self.rank_of(G)[0] == real_rank(G) == k

    @pytest.mark.parametrize("rank", [1, 2, 4, 5])
    def test_random_low_rank(self, rank):
        # k real combinations of `rank` complex columns: real rank `rank`.
        rng = np.random.default_rng(rank)
        G = random_complex(rng, 6, rank) @ rng.normal(size=(rank, 7))
        got, err = self.rank_of(G)
        assert got == real_rank(G) == rank
        assert err.null_space.shape == (7, 7 - rank)

    @pytest.mark.parametrize("gap, full", [(1e-6, True), (1e-3, True), (1e-14, False)])
    def test_near_dependent_away_from_threshold(self, gap, full):
        rng = np.random.default_rng(7)
        G = random_complex(rng, 8, 4)
        G[:, 3] = G[:, 0] - 0.5 * G[:, 1] + gap * G[:, 3]
        got, _ = self.rank_of(G)
        assert got == real_rank(G) == (4 if full else 3)

    def test_coincident_azimuths(self):
        from pilotspace.models import UlaGeometry, steering_derivative, steering_vector

        geom = UlaGeometry(64)
        cols = []
        for phi in (0.4, -0.2, 0.4):
            e = steering_vector(geom, phi)
            cols += [e, -1j * e, steering_derivative(geom, phi)]
        G = np.stack(cols, axis=1)
        got, err = self.rank_of(G)
        assert got == real_rank(G) == 6
        assert isinstance(err, RankDeficientError)

    def test_wide_input(self):
        # More columns than real dimensions: the triangle is 2n x k.
        G = random_complex(np.random.default_rng(9), 2, 5)
        got, err = self.rank_of(G)
        assert got == real_rank(G) == 4
        assert err.null_space.shape == (5, 1)

    def test_null_space_spans_the_dependencies(self):
        rng = np.random.default_rng(10)
        b = random_complex(rng, 5)
        G = np.stack([b, 1j * b, random_complex(rng, 5), -2.0 * b], axis=1)
        _, err = self.rank_of(G)
        N = err.null_space
        assert N.shape == (4, 1)
        assert np.allclose(N.T @ N, np.eye(1), atol=1e-12)
        assert np.linalg.norm(stacked_real(G) @ N) <= 1e-12 * np.linalg.norm(G)
        # The dependency b + (-2 b)/2 involves columns 0 and 3 only.
        assert np.flatnonzero(np.abs(N[:, 0]) > 1e-8).tolist() == [0, 3]


def svd_rank(R):
    return numerical_rank(np.linalg.svd(R, compute_uv=False))


def triangle_with_ratio(rng, k, ratio, positive=False):
    """QR triangle of a k x k matrix whose sigma_min / sigma_max is ``ratio``."""
    Q1, _ = np.linalg.qr(rng.normal(size=(k, k)))
    Q2, _ = np.linalg.qr(rng.normal(size=(k, k)))
    R = np.linalg.qr((Q1 * np.geomspace(1.0, ratio, k)) @ Q2, mode="r")
    if positive:
        R = np.sign(np.diag(R))[:, None] * R
    return R


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


class TestTriangleRank:
    """The inverse-norm certificate skips the SVD but never changes the rank."""

    RATIOS = np.concatenate([np.geomspace(1e-13, 1.0, 27), np.geomspace(5e-11, 5e-9, 41)])

    @pytest.mark.parametrize("positive", [False, True])
    @pytest.mark.parametrize("k", [2, 7, 24])
    def test_verdict_equals_svd_verdict(self, k, positive):
        rng = np.random.default_rng(1000 * k + positive)
        for ratio in self.RATIOS:
            R = triangle_with_ratio(rng, k, ratio, positive)
            assert triangle_rank(R) == svd_rank(R), ratio

    def test_threshold_band_reaches_both_verdicts(self):
        rng = np.random.default_rng(5)
        ranks = [svd_rank(triangle_with_ratio(rng, 7, r)) for r in self.RATIOS]
        assert min(ranks) < 7 == max(ranks)

    @pytest.mark.parametrize("k", [2, 7, 24])
    def test_certified_without_svd(self, k, svd_calls):
        # ||R||_F ||R^{-1}||_F <= k / ratio, which passes the certificate.
        rng = np.random.default_rng(k)
        for ratio in np.geomspace(1e-8 * k / 24, 1.0, 9):
            assert k / ratio * RANK_RTOL < RANK_CERT_MARGIN
            assert triangle_rank(triangle_with_ratio(rng, k, ratio)) == k
        assert svd_calls == []

    def test_zero_diagonal(self, svd_calls):
        R = np.triu(np.random.default_rng(6).normal(size=(5, 5)))
        R[2, 2] = 0.0
        assert triangle_rank(R) == svd_rank(R) == 4
        assert svd_calls[0] is False

    @pytest.mark.parametrize("rows", [1, 3])
    def test_wide_triangle(self, rows, svd_calls):
        R = np.triu(np.random.default_rng(rows).normal(size=(rows, 5)))
        assert triangle_rank(R) == svd_rank(R) == rows
        assert svd_calls[0] is False

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_bound(self, svd_calls):
        # ||R^{-1}||_F = 1e200 and ||R||_F = 1e200: the product overflows.
        R = np.array([[1e200, 1.0], [0.0, 1e-200]])
        assert triangle_rank(R) == svd_rank(R) == 1
        assert svd_calls[0] is False


def svd_ranked_r_orthonormalize(G):
    """Reference: r_orthonormalize with the rank always from the triangle's SVD.

    Returns (U, R, rank, null_space); U and R are None when rank deficient.
    """
    G = np.atleast_2d(np.asarray(G, dtype=complex))
    k = G.shape[1]

    def positive_triangle(X):
        R = np.linalg.qr(stacked_real(X), mode="r")
        signs = np.sign(np.diag(R))
        signs[signs == 0] = 1.0
        return signs[:, None] * R

    def solve_right(X, R):
        return scipy.linalg.solve_triangular(R, X.T, lower=False, trans="T").T

    R1 = positive_triangle(G)
    rank = svd_rank(R1)
    if rank < k:
        _, _, Vh = np.linalg.svd(R1)
        return None, None, rank, Vh[rank:].T
    U = solve_right(G, R1)
    R2 = positive_triangle(U)
    U = solve_right(U, R2)
    return U, R2 @ R1, k, None


def graded(rng, n, k):
    return random_complex(rng, n, k) * np.logspace(0, 6, k)


def near_dependent(rng, n, k, gap):
    G = random_complex(rng, n, k)
    G[:, -1] = G[:, 0] + gap * G[:, -1]
    return G


class TestOrthonormalizeMatchesSvdRanked:
    """The certificate decides only the rank: U, R and the error path equal
    those of the SVD-ranked reference bit for bit."""

    INPUTS = {
        "random": lambda rng: random_complex(rng, 9, 7),
        "square-stacked": lambda rng: random_complex(rng, 6, 12),
        "graded": lambda rng: graded(rng, 9, 6),
        "near-dependent-1e-6": lambda rng: near_dependent(rng, 8, 5, 1e-6),
        "near-dependent-1e-9": lambda rng: near_dependent(rng, 8, 5, 1e-9),
    }

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    @pytest.mark.parametrize("seed", range(3))
    def test_same_bits(self, kind, seed):
        G = self.INPUTS[kind](np.random.default_rng(seed))
        U_ref, R_ref, _, _ = svd_ranked_r_orthonormalize(G)
        basis, R = r_orthonormalize(G)
        assert np.array_equal(basis.U, U_ref)
        assert np.array_equal(R, R_ref)

    @pytest.mark.parametrize("kind", ["random", "square-stacked", "graded", "near-dependent-1e-6"])
    def test_success_path_skips_svd(self, kind, svd_calls):
        r_orthonormalize(self.INPUTS[kind](np.random.default_rng(4)))
        assert svd_calls == []

    @pytest.mark.parametrize("gap", [1e-14, 0.0])
    def test_error_path_unchanged(self, gap, svd_calls):
        G = near_dependent(np.random.default_rng(3), 8, 5, gap)
        _, _, rank_ref, null_ref = svd_ranked_r_orthonormalize(G)
        del svd_calls[:]
        with pytest.raises(RankDeficientError) as info:
            r_orthonormalize(G)
        assert svd_calls[-1] is True
        assert info.value.rank == rank_ref == 4
        assert np.array_equal(info.value.null_space, null_ref)


class TestRealGram:
    def test_matches_complex_product(self):
        rng = np.random.default_rng(11)
        X, Y = random_complex(rng, 7, 3), random_complex(rng, 7, 4)
        assert np.allclose(real_gram(X, Y), np.real(np.conj(X.T) @ Y), rtol=1e-13, atol=1e-13)
        assert np.allclose(real_gram(X), np.real(np.conj(X.T) @ X), rtol=1e-13, atol=1e-13)

    def test_real_input(self):
        X = np.random.default_rng(12).normal(size=(5, 3))
        assert np.allclose(real_gram(X), X.T @ X, rtol=1e-14, atol=1e-14)


class TestSkewCanonicalForm:
    def test_elementary_block(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        form = skew_canonical_form(A)
        assert form.gamma == pytest.approx([1.0])
        assert np.allclose(form.B, np.eye(2))
        assert not form.has_lone_vector

    def test_zeros_odd(self):
        form = skew_canonical_form(np.zeros((3, 3)))
        assert form.gamma == pytest.approx([0.0])
        assert form.has_lone_vector
        # Any valid B is accepted; check the post-conditions.
        assert np.linalg.norm(form.B.T @ form.B - np.eye(3)) <= 1e-10
        assert np.linalg.norm(form.B.T @ np.zeros((3, 3)) @ form.B - form.block_matrix()) <= 1e-9

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 7, 11, 12])
    def test_svd_oracle(self, k):
        rng = np.random.default_rng(k)
        A = rng.normal(size=(k, k))
        A = A - A.T
        form = skew_canonical_form(A)
        # Each singular value of A appears once per 2x2 block.
        sv = np.linalg.svd(A, compute_uv=False)
        expected = sv[::2][: k // 2]
        assert form.gamma == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert np.all(np.diff(form.gamma) <= 1e-12)  # descending
        assert form.has_lone_vector == (k % 2 == 1)

    @pytest.mark.parametrize("k", [2, 5, 8, 13])
    def test_reconstruction_and_sign_convention(self, k):
        rng = np.random.default_rng(100 + k)
        A = rng.normal(size=(k, k))
        A = A - A.T
        form = skew_canonical_form(A)
        gamma = form.block_matrix()
        assert np.linalg.norm(form.B @ gamma @ form.B.T - A) <= 1e-9 * (1 + np.linalg.norm(A))
        T = form.B.T @ A @ form.B
        assert np.linalg.norm(T - gamma) <= 1e-9 * (1 + np.linalg.norm(A))
        for i in range(k // 2):
            assert T[2 * i + 1, 2 * i] >= -1e-12  # c on the subdiagonal, nonnegative

    def test_gram_couplings_clamped(self):
        # Imaginary part of a real-orthonormal Gram: couplings in [0, 1].
        rng = np.random.default_rng(9)
        G = random_complex(rng, 7, 5)
        basis, _ = r_orthonormalize(G)
        A = np.imag(np.conj(basis.U.T) @ basis.U)
        form = skew_canonical_form(A)
        assert np.all(form.gamma >= 0.0)
        assert np.all(form.gamma <= 1.0)

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkewSymmetricError):
            skew_canonical_form(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_tiny_couplings_snap_to_zero(self):
        A = np.array([[0.0, -1e-14], [1e-14, 0.0]])
        form = skew_canonical_form(A)
        assert form.gamma == pytest.approx([0.0], abs=0)


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN passes the skew test (nan > tol is False), so it is checked first.
        A = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
        A[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite") as excinfo:
            skew_canonical_form(A)
        assert not isinstance(excinfo.value, NotSkewSymmetricError)


def _steering_span_inputs():
    """(G, A) pairs shaped like a multipath trial's: G the 64 x 3L steering
    span, A = Im{U^H U} of its real-orthonormal basis U."""
    from pilotspace.models import UlaGeometry, _steering_columns

    rng = np.random.default_rng(20)
    out = []
    for L in range(1, 8):
        az = np.sort(rng.uniform(-1.2, 1.2, size=L)) + 0.04 * np.arange(L)
        E, dE = _steering_columns(UlaGeometry(64), az)
        G = np.empty((64, 3 * L), dtype=complex)
        G[:, 0::3], G[:, 1::3], G[:, 2::3] = E, -1j * E, dE
        U = r_orthonormalize(G)[0].U
        out.append((G, np.imag(np.conj(U.T) @ U)))
    return out


class TestDirectLapackMatchesScipy:
    """solve_right and the Schur step call LAPACK directly; the results are
    those of scipy.linalg.solve_triangular / schur bit for bit."""

    @staticmethod
    def scipy_solve_right(X, R):
        return scipy.linalg.solve_triangular(
            R, X.T, lower=False, trans="T", check_finite=False
        ).T

    @pytest.mark.parametrize("k", [1, 2, 5, 21, 64])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_solve_right_random(self, k, kind, order):
        rng = np.random.default_rng([30, k])
        R = np.array(np.triu(rng.normal(size=(k, k))) + 3 * np.eye(k), order=order)
        X = rng.normal(size=(40, k)) if kind == "real" else random_complex(rng, 40, k)
        got = solve_right(X, R)
        want = self.scipy_solve_right(X, R)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_solve_right_multipath_shapes(self):
        for G, _ in _steering_span_inputs():
            R = _positive_triangle(G)
            U = solve_right(G, R)
            assert np.array_equal(U, self.scipy_solve_right(G, R))
            R2 = _positive_triangle(U)
            assert np.array_equal(solve_right(U, R2), self.scipy_solve_right(U, R2))

    def test_solve_right_singular_raises(self):
        R = np.triu(np.ones((3, 3)))
        R[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_right(np.ones((4, 3)), R)

    @staticmethod
    def check_schur(A):
        T, Q = _real_schur(A)
        T_ref, Q_ref = scipy.linalg.schur(A, output="real", check_finite=False)
        assert np.array_equal(T, T_ref) and np.array_equal(Q, Q_ref)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12, 21])
    def test_schur_random(self, k):
        rng = np.random.default_rng([31, k])
        A = rng.normal(size=(k, k))
        self.check_schur(A)            # general
        self.check_schur(A - A.T)      # skew-symmetric

    def test_schur_multipath_shapes(self):
        for _, A in _steering_span_inputs():
            self.check_schur(0.5 * (A - A.T))

    def test_skew_form_equals_scipy_schur_route(self, monkeypatch):
        import pilotspace.rlinalg as rl

        rng = np.random.default_rng(32)
        inputs = [A for _, A in _steering_span_inputs()]
        inputs += [(lambda B: B - B.T)(rng.normal(size=(k, k))) for k in (2, 5, 8, 13)]
        direct = [skew_canonical_form(A) for A in inputs]
        monkeypatch.setattr(rl, "_real_schur", lambda A: scipy.linalg.schur(
            A, output="real", check_finite=False))
        for A, form in zip(inputs, direct):
            ref = skew_canonical_form(A)
            assert np.array_equal(form.B, ref.B)
            assert np.array_equal(form.gamma, ref.gamma)


class TestProjectR:
    @pytest.fixture
    def basis(self):
        rng = np.random.default_rng(5)
        basis, _ = r_orthonormalize(random_complex(rng, 7, 3))
        return basis

    def test_fixed_point_in_span(self, basis):
        rng = np.random.default_rng(6)
        z = basis.U @ rng.normal(size=3)
        assert np.linalg.norm(project_r(basis, z) - z) <= 1e-10

    def test_quadrature_maps_to_zero(self):
        rng = np.random.default_rng(7)
        b = rng.normal(size=5).astype(complex)  # real entries
        b /= np.linalg.norm(b)
        basis = RBasis(b.reshape(-1, 1))
        assert np.linalg.norm(project_r(basis, 1j * b)) <= 1e-12

    def test_pythagoras(self, basis):
        rng = np.random.default_rng(8)
        for _ in range(10):
            z = random_complex(rng, 7)
            p = project_r(basis, z)
            lhs = np.linalg.norm(z - p) ** 2 + np.linalg.norm(p) ** 2
            assert lhs == pytest.approx(np.linalg.norm(z) ** 2, rel=1e-9)

    def test_idempotent_and_self_adjoint(self, basis):
        rng = np.random.default_rng(9)
        z, w = random_complex(rng, 7), random_complex(rng, 7)
        p = project_r(basis, z)
        assert np.linalg.norm(project_r(basis, p) - p) <= 1e-10
        assert r_inner(project_r(basis, z), w) == pytest.approx(
            r_inner(z, project_r(basis, w)), rel=1e-9, abs=1e-12
        )

    def test_dimension_mismatch(self, basis):
        with pytest.raises(ValueError, match="ambient dim"):
            project_r(basis, np.ones(5))


class TestCompressionMatrix:
    def test_identity_observation(self):
        rng = np.random.default_rng(10)
        basis, _ = r_orthonormalize(random_complex(rng, 6, 4))
        C = compression_matrix(basis, np.eye(6))
        assert np.allclose(C, np.eye(4), atol=1e-12)

    def test_zero_observation(self):
        rng = np.random.default_rng(11)
        basis, _ = r_orthonormalize(random_complex(rng, 6, 3))
        assert np.allclose(compression_matrix(basis, np.zeros((6, 2))), 0.0)

    def test_naive_triple_product(self):
        rng = np.random.default_rng(12)
        basis, _ = r_orthonormalize(random_complex(rng, 5, 3))
        M = random_complex(rng, 5, 4)
        naive = np.real(np.conj(basis.U.T) @ M @ np.conj(M.T) @ basis.U)
        C = compression_matrix(basis, M)
        assert np.allclose(C, naive, atol=1e-10)
        assert np.allclose(C, C.T)
        assert np.min(np.linalg.eigvalsh(C)) >= -1e-12

    def test_row_mismatch(self):
        rng = np.random.default_rng(13)
        basis, _ = r_orthonormalize(random_complex(rng, 5, 2))
        with pytest.raises(ValueError, match="rows"):
            compression_matrix(basis, np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        rng = np.random.default_rng(14)
        basis, _ = r_orthonormalize(random_complex(rng, 5, 2))
        M = random_complex(rng, 5, 2)
        M[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            compression_matrix(basis, M)


class TestRBasisValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="real-orthonormal"):
            RBasis(np.ones((4, 2), dtype=complex))

    def test_rejects_non_finite(self):
        U = np.eye(3, dtype=complex)
        U[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RBasis(U)
