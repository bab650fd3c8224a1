"""Tests for the real-inner-product linear algebra kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotspace.rlinalg import (
    NotSkewSymmetricError,
    RankDeficientError,
    RBasis,
    compression_matrix,
    project_r,
    r_inner,
    r_orthonormalize,
    real_gram,
    real_rank,
    skew_canonical_form,
    stacked_real,
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
