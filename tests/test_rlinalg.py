"""Tests for the real-inner-product linear algebra kernel."""

import importlib.machinery
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from pilotspace.crb import NoiseModel, crb_min
from pilotspace.models import PathSet, ls_model
from pilotspace.pilot import design_observation_matrix
from pilotspace.rlinalg import (
    RANK_CERT_MARGIN,
    RANK_RTOL,
    STRUCTURE_RTOL,
    NotSkewSymmetricError,
    RankDeficientError,
    RBasis,
    _positive_triangle,
    _record,
    _real_schur,
    compression_matrix,
    condition_bound,
    full_rank_certified,
    numerical_rank,
    project_r,
    r_orthonormalize,
    real_gram,
    real_rank,
    skew_block_matrix,
    skew_canonical_form,
    solve_right,
    stacked_real,
    triangle_rank,
)
from pilotspace.variation import canonical_decompose, variation_space


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def naive_r_inner(x, y):
    acc = 0.0
    for a, b in zip(x, y):
        acc += (np.conj(a) * b).real
    return acc


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

    def test_stack_equals_each_slice(self):
        rng = np.random.default_rng(5)
        G = random_complex(rng, 3, 2, 9, 5)
        G[0, 1] = graded(rng, 9, 5)
        G[2, 0] = near_dependent(rng, 9, 5, 1e-6)
        basis, R = r_orthonormalize(G)
        assert basis.U.shape == G.shape and (basis.ambient_dim, basis.dim) == (9, 5)
        for idx in np.ndindex(3, 2):
            one, R_one = r_orthonormalize(G[idx])
            assert np.array_equal(basis.U[idx], one.U)
            assert np.array_equal(R[idx], R_one)

    def test_stack_rank_deficient(self):
        rng = np.random.default_rng(6)
        G = random_complex(rng, 4, 5, 2)
        G[2, :, 1] = -2.5 * G[2, :, 0]
        with pytest.raises(RankDeficientError) as excinfo:
            r_orthonormalize(G)
        assert excinfo.value.rank.tolist() == [2, 2, 1, 2]
        assert excinfo.value.null_space is None


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


def previous_numerical_rank(s):
    """numerical_rank of one spectrum as written before it took stacks."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


class TestNumericalRank:
    def test_stack_equals_row_loop(self):
        rng = np.random.default_rng(60)
        s = -np.sort(-np.abs(rng.normal(size=(7, 5))), axis=1)
        s[1] = 0.0                                # all-zero row
        s[2, 3:] = 1e-12 * s[2, 0]                # below the threshold
        s[3, 2:] = RANK_RTOL * s[3, 0]            # at the threshold: not counted
        s[4, 1:] = 2 * RANK_RTOL * s[4, 0]
        ranks = numerical_rank(s)
        assert ranks.tolist() == [previous_numerical_rank(row) for row in s]
        assert ranks.tolist() == [numerical_rank(row) for row in s]
        assert ranks.tolist()[:5] == [5, 0, 3, 2, 5]
        assert numerical_rank(s[None]).tolist() == [ranks.tolist()]

    def test_empty_input(self):
        assert numerical_rank(np.empty(0)) == 0
        assert numerical_rank(np.zeros(4)) == 0
        assert numerical_rank(np.empty((3, 0))).tolist() == [0, 0, 0]
        assert numerical_rank(np.empty((0, 4))).shape == (0,)

    def test_one_spectrum_gives_int(self):
        rank = numerical_rank(np.array([2.0, 1.0, 0.0]))
        assert rank == 2 and type(rank) is int


class TestRealGram:
    def test_matches_complex_product(self):
        X = random_complex(np.random.default_rng(11), 7, 3)
        assert np.allclose(real_gram(X), np.real(np.conj(X.T) @ X), rtol=1e-13, atol=1e-13)

    def test_real_input(self):
        X = np.random.default_rng(12).normal(size=(5, 3))
        assert np.allclose(real_gram(X), X.T @ X, rtol=1e-14, atol=1e-14)

    def test_stack_equals_per_matrix(self):
        X = random_complex(np.random.default_rng(13), 4, 7, 3)
        assert real_gram(X).shape == (4, 3, 3)
        for i in range(4):
            assert np.array_equal(real_gram(X)[i], real_gram(X[i]))


class TestSkewCanonicalForm:
    def test_elementary_block(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        B, gamma = skew_canonical_form(A)
        assert gamma == pytest.approx([1.0])
        assert np.allclose(B, np.eye(2))
        assert B.shape[0] % 2 == 0

    def test_zeros_odd(self):
        B, gamma = skew_canonical_form(np.zeros((3, 3)))
        assert gamma == pytest.approx([0.0])
        assert B.shape[0] % 2 == 1
        # Any valid B is accepted; check the post-conditions.
        assert np.linalg.norm(B.T @ B - np.eye(3)) <= 1e-10
        assert np.linalg.norm(B.T @ np.zeros((3, 3)) @ B - skew_block_matrix(gamma, 3)) <= 1e-9

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 7, 11, 12])
    def test_svd_oracle(self, k):
        rng = np.random.default_rng(k)
        A = rng.normal(size=(k, k))
        A = A - A.T
        B, gamma = skew_canonical_form(A)
        # Each singular value of A appears once per 2x2 block.
        sv = np.linalg.svd(A, compute_uv=False)
        expected = sv[::2][: k // 2]
        assert gamma == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert np.all(np.diff(gamma) <= 1e-12)  # descending
        assert B.shape == (k, k) and gamma.shape == (k // 2,)

    @pytest.mark.parametrize("k", [2, 5, 8, 13])
    def test_reconstruction_and_sign_convention(self, k):
        rng = np.random.default_rng(100 + k)
        A = rng.normal(size=(k, k))
        A = A - A.T
        B, couplings = skew_canonical_form(A)
        gamma = skew_block_matrix(couplings, k)
        assert np.linalg.norm(B @ gamma @ B.T - A) <= 1e-9 * (1 + np.linalg.norm(A))
        T = B.T @ A @ B
        assert np.linalg.norm(T - gamma) <= 1e-9 * (1 + np.linalg.norm(A))
        for i in range(k // 2):
            assert T[2 * i + 1, 2 * i] >= -1e-12  # c on the subdiagonal, nonnegative

    def test_gram_couplings_clamped(self):
        # Imaginary part of a real-orthonormal Gram: couplings in [0, 1].
        rng = np.random.default_rng(9)
        G = random_complex(rng, 7, 5)
        basis, _ = r_orthonormalize(G)
        A = np.imag(np.conj(basis.U.T) @ basis.U)
        _, gamma = skew_canonical_form(A)
        assert np.all(gamma >= 0.0)
        assert np.all(gamma <= 1.0)

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkewSymmetricError):
            skew_canonical_form(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_tiny_couplings_snap_to_zero(self):
        A = np.array([[0.0, -1e-14], [1e-14, 0.0]])
        _, gamma = skew_canonical_form(A)
        assert gamma == pytest.approx([0.0], abs=0)


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN passes the skew test (nan > tol is False), so it is checked first.
        A = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
        A[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite") as excinfo:
            skew_canonical_form(A)
        assert not isinstance(excinfo.value, NotSkewSymmetricError)


class TestSkewValidation:
    """The skew defect is read off A_skew = 0.5 (A - A^T): the verdicts and
    messages are those of ||A + A^T||_F away from the threshold, and
    skew_canonical_form runs the test before its block test."""

    @pytest.mark.parametrize("K", [2, 5, 12, 40])
    def test_verdicts_and_messages(self, K):
        rng = np.random.default_rng(900 + K)
        verdicts = set()
        for exponent in np.arange(-17.0, -3.0, 0.5):
            W, S = rng.normal(size=(2, K, K))
            A = (W - W.T) + 10.0**exponent * (S + S.T)
            defect = np.linalg.norm(A + A.T)
            threshold = STRUCTURE_RTOL * (1.0 + np.linalg.norm(A))
            if abs(defect / threshold - 1.0) < 1e-6:
                continue            # at the threshold a rounding may flip it
            verdicts.add(defect > threshold)
            if defect > threshold:
                with pytest.raises(NotSkewSymmetricError) as err:
                    skew_canonical_form(A)
                assert str(err.value) == (
                    f"||A + A^T||_F = {defect:.3e} exceeds tolerance")
            else:
                skew_canonical_form(A)
        assert verdicts == {False, True}

    def test_schur_form_runs_on_the_symmetrized_input(self, monkeypatch):
        import pilotspace.rlinalg as rl

        inputs = []
        real = rl._real_schur
        monkeypatch.setattr(rl, "_real_schur", lambda A: inputs.append(A.copy()) or real(A))
        rng = np.random.default_rng(910)
        W = rng.normal(size=(9, 9))
        A = W - W.T
        A[2, 5] += 1e-13
        skew_canonical_form(A)          # not canonical: one Schur form
        assert len(inputs) == 1 and np.array_equal(inputs[0], 0.5 * (A - A.T))


@pytest.fixture
def schur_calls(monkeypatch):
    """Count the real Schur forms that skew_canonical_form runs."""
    import pilotspace.rlinalg as rl

    calls = []
    real = rl._real_schur

    def counting(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(rl, "_real_schur", counting)
    return calls


def canonical_input(rng, K, ties=True):
    """A skew matrix in canonical block form: descending couplings in [0, 1],
    tied in pairs (1, 1, 0.5, 0.5, 0, 0) when ``ties`` (K <= 13)."""
    if ties:
        c = np.array([1.0, 1.0, 0.5, 0.5, 0.0, 0.0][:K // 2])
    else:
        c = np.sort(rng.uniform(size=K // 2))[::-1]
    return skew_block_matrix(c, K), c


class TestCanonicalShortcut:
    """An input already in canonical form skips the Schur form: B is the identity."""

    @pytest.mark.parametrize("ties", [True, False])
    @pytest.mark.parametrize("K", [2, 3, 6, 7, 12, 13])
    def test_returns_identity_and_snapped_couplings(self, K, ties, schur_calls):
        A, c = canonical_input(np.random.default_rng(K), K, ties)
        B, gamma = skew_canonical_form(A)
        assert schur_calls == []
        assert np.array_equal(B, np.eye(K))
        assert np.array_equal(gamma, c)

    def test_snaps_the_block_values(self, schur_calls):
        # 1 + 1e-13 snaps to 1, 5e-13 to 0; off-block noise within the tolerance.
        A = skew_block_matrix([1.0 + 1e-13, 0.3, 5e-13], 7)
        A[0, 4], A[4, 0] = 1e-13, -1e-13
        B, gamma = skew_canonical_form(A)
        assert schur_calls == []
        assert np.array_equal(B, np.eye(7))
        assert gamma.tolist() == [1.0, 0.3, 0.0]

    @pytest.mark.parametrize("K", [6, 7, 12])
    def test_stack_slices_have_single_call_bits(self, K):
        from pilotspace.variation import canonical_decompose

        rng = np.random.default_rng(K)
        n = K + 3
        # Slices 0 and 2 are canonical: complex lines (q, -j q), then real
        # pairs and a lone vector, from complex-orthonormal columns q.
        # Slice 1 is a random basis.
        Q, _ = np.linalg.qr(random_complex(rng, n, n))
        lines = K // 4
        canonical = Q[:, :K].copy()
        canonical[:, 1:2 * lines:2] = -1j * Q[:, 0:2 * lines:2]
        stack = np.stack([canonical, r_orthonormalize(random_complex(rng, n, K))[0].U,
                          canonical * np.exp(0.3j)])
        stacked = canonical_decompose(RBasis(stack))
        for i, U in enumerate(stack):
            basis = RBasis(U)
            single = canonical_decompose(basis)
            assert np.array_equal(stacked.V[i], single.V)
            assert np.array_equal(stacked.c[i], single.c)
            # An already-canonical basis gets B = I, so V == U.
            assert np.array_equal(single.V, basis.U) == (i != 1)
        assert stacked.c[0] == pytest.approx([1.0] * lines + [0.0] * (K // 2 - lines),
                                             abs=1e-12)

    @pytest.mark.parametrize("ties", [True, False])
    @pytest.mark.parametrize("K", [7, 12])
    def test_small_perturbation_moves_B_slightly(self, K, ties, schur_calls):
        rng = np.random.default_rng(50 + K)
        A, c = canonical_input(rng, K, ties)
        E = rng.normal(size=(K, K))
        E[3, 2] += 10.0        # c_1 rises above c_0 by about 1e-13
        A_near = A + 1e-14 * (E - E.T)
        assert A_near[3, 2] > A_near[1, 0] or not ties
        B, gamma = skew_canonical_form(A_near)
        assert schur_calls == []
        assert np.linalg.norm(B - np.eye(K)) <= 1e-12
        assert np.abs(gamma - c).max() <= 1e-12

    @pytest.mark.parametrize("K", [6, 7])
    def test_out_of_order_columns_take_the_schur_form(self, K, schur_calls):
        A, c = canonical_input(np.random.default_rng(K), K, ties=False)
        for order in (np.r_[1, 0, 2:K],                        # c_0 on the wrong side
                      np.r_[2, 3, 0, 1, 4:K],                  # ascending couplings
                      np.r_[0, 2, 1, 3:K]):                    # blocks interleaved
            schur_calls.clear()
            P = np.eye(K)[:, order]
            B, gamma = skew_canonical_form(P.T @ A @ P)
            assert len(schur_calls) == 1
            assert np.abs(gamma - c).max() <= 1e-12
            T = B.T @ (P.T @ A @ P) @ B
            assert np.linalg.norm(T - skew_block_matrix(gamma, K)) <= 1e-12


def ula_span_forms(L, batch):
    """Im{U^H U} of azimuth-only ULA spans with L paths, a stack of ``batch``:
    couplings tied at 1 (one complex line per path) and zero couplings."""
    from pilotspace.models import UlaGeometry, physical_variation_space

    rng = np.random.default_rng([41, L])
    azimuths = np.sort(rng.uniform(-1.0, 1.0, size=batch + (L,)), axis=-1)
    azimuths += 0.2 * np.arange(L)
    U = physical_variation_space(UlaGeometry(16), azimuths).U
    return np.imag(np.conj(np.swapaxes(U, -1, -2)) @ U)


def random_skew(rng, *shape):
    W = rng.normal(size=shape)
    return W - np.swapaxes(W, -1, -2)


class TestStackedSkewCanonicalForm:
    """A stack (..., K, K) gives each slice the bits of the call on that
    slice alone, and only the slices not already canonical take a Schur form."""

    @staticmethod
    def assert_equals_slices(A, schur_calls):
        B, gamma = skew_canonical_form(A)
        assert B.shape == A.shape and gamma.shape == A.shape[:-2] + (A.shape[-1] // 2,)
        n_schur = len(schur_calls)
        for i in np.ndindex(A.shape[:-2]):
            B_i, gamma_i = skew_canonical_form(A[i].copy())
            assert np.array_equal(B[i], B_i) and np.array_equal(gamma[i], gamma_i)
        # The stacked call ran the Schur forms that the per-slice calls ran.
        assert len(schur_calls) == 2 * n_schur
        return B, gamma

    @pytest.mark.parametrize("batch", [(1,), (3,), (2, 3)])
    @pytest.mark.parametrize("K", [5, 6])
    def test_random_and_canonical_slices(self, batch, K, schur_calls):
        rng = np.random.default_rng([42, K, len(batch)])
        A = random_skew(rng, *batch, K, K)
        canonical, _ = canonical_input(rng, K)
        flat = A.reshape(-1, K, K)
        flat[1::2] = canonical                # every other slice is canonical
        B, _ = self.assert_equals_slices(A, schur_calls)
        assert len(schur_calls) == 2 * len(flat[0::2])
        assert np.array_equal(B.reshape(-1, K, K)[1::2], np.broadcast_to(np.eye(K), flat[1::2].shape))

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_ula_spans_with_tied_and_zero_couplings(self, L, schur_calls):
        A = ula_span_forms(L, (2, 3))
        _, gamma = self.assert_equals_slices(A, schur_calls)
        assert np.abs(gamma[..., :L] - 1.0).max() <= 1e-12
        assert np.abs(gamma[..., L:]).max(initial=0.0) <= 1e-12
        if L == 1:
            assert schur_calls == []          # a one-path span is canonical

    def test_one_matrix_is_a_stack_of_one(self):
        rng = np.random.default_rng(43)
        for K in (1, 2, 7):
            A = random_skew(rng, K, K)
            B, gamma = skew_canonical_form(A)
            B_1, gamma_1 = skew_canonical_form(A[None])
            assert B.shape == (K, K) and gamma.shape == (K // 2,)
            assert np.array_equal(B_1[0], B) and np.array_equal(gamma_1[0], gamma)

    @pytest.mark.parametrize("shape", [(0, 5, 5), (0, 3, 4, 4), (2, 0, 1, 1)])
    def test_empty_stack(self, shape, schur_calls):
        B, gamma = skew_canonical_form(np.zeros(shape))
        assert B.shape == shape and gamma.shape == shape[:-2] + (shape[-1] // 2,)
        assert schur_calls == []

    def test_non_skew_slice_is_named(self):
        rng = np.random.default_rng(44)
        A = random_skew(rng, 3, 4, 4)
        A[1, 0, 3] += 1.0
        with pytest.raises(NotSkewSymmetricError) as single:
            skew_canonical_form(A[1])
        with pytest.raises(NotSkewSymmetricError) as stacked:
            skew_canonical_form(A)
        assert str(stacked.value) == f"{single.value} in slice 1"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_slice_is_named(self, bad):
        rng = np.random.default_rng(45)
        A = random_skew(rng, 2, 3, 5, 5)
        A[0, 2, 1, 1] = bad              # also fails the skew test: finiteness first
        A[1, 2, 0, 4] = bad
        with pytest.raises(ValueError, match=r"non-finite entries in slice \(0, 2\)$") as err:
            skew_canonical_form(A)
        assert not isinstance(err.value, NotSkewSymmetricError)

    def test_non_square_stack(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(3, 4, 5\)"):
            skew_canonical_form(np.zeros((3, 4, 5)))


class TestDgeesWorkspace:
    """The workspace query runs once per matrix order, with the bits of a
    query on every call (scipy.linalg.schur's)."""

    def test_queried_once_per_order(self, monkeypatch):
        import pilotspace.rlinalg as rl

        real, queries = rl._flapack, []

        class Counting:
            def __getattr__(self, name):
                return getattr(real, name)

            @staticmethod
            def dgees(*args, **kwargs):
                if kwargs.get("lwork") == -1:
                    queries.append(args[1].shape[0])
                return real.dgees(*args, **kwargs)

        monkeypatch.setattr(rl, "_flapack", Counting())
        monkeypatch.setattr(rl, "_DGEES_LWORK", {})
        rng = np.random.default_rng(46)
        for K in (3, 7, 21, 3, 7, 21, 21, 1):
            A = random_skew(rng, K, K)
            T, Q = _real_schur(A)
            T_ref, Q_ref = scipy.linalg.schur(A, output="real", check_finite=False)
            assert np.array_equal(T, T_ref) and np.array_equal(Q, Q_ref)
        assert queries == [3, 7, 21, 1]
        for K, lwork in rl._DGEES_LWORK.items():
            assert lwork == int(real.dgees(rl._no_select, np.zeros((K, K)), lwork=-1)[-2][0])


class TestSolveRightShapes:
    """Shapes that do not fit raise ValueError naming both, before LAPACK runs."""

    @pytest.mark.parametrize("x_shape, r_shape", [
        ((2, 5, 2), (3, 2, 2)),       # batch shapes differ (the first two R's would do)
        ((3, 5, 2), (1, 2, 2)),       # batch shapes differ (no broadcast)
        ((5, 2), (3, 3)),             # k differs
    ])
    def test_mismatch_raises(self, x_shape, r_shape, capfd):
        X = np.ones(x_shape)
        R = np.broadcast_to(np.eye(r_shape[-1]), r_shape).copy()
        with pytest.raises(ValueError) as err:
            solve_right(X, R)
        assert str(r_shape) in str(err.value) and str(x_shape) in str(err.value)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_stack_equals_each_slice(self, kind):
        rng = np.random.default_rng([47, len(kind)])
        k = 4
        R = np.triu(rng.normal(size=(2, 3, k, k))) + 3 * np.eye(k)
        X = rng.normal(size=(2, 3, 9, k)) if kind == "real" else random_complex(rng, 2, 3, 9, k)
        Y = solve_right(X, R)
        assert Y.shape == X.shape and Y.dtype == np.result_type(X, 1.0)
        for i in np.ndindex(2, 3):
            assert np.array_equal(Y[i], solve_right(X[i], R[i]))


class TestOrthonormalizeFormsNoGram:
    """r_orthonormalize returns its second-pass basis unchecked; the full
    RBasis check runs on its output in the tests."""

    def test_no_second_gram(self, monkeypatch):
        import pilotspace.rlinalg as rl

        checks = []
        real_check, real_gram_ = RBasis.__post_init__, rl.real_gram
        monkeypatch.setattr(RBasis, "__post_init__",
                            lambda self: checks.append("check") or real_check(self))
        monkeypatch.setattr(rl, "real_gram", lambda X: checks.append("gram") or real_gram_(X))
        rng = np.random.default_rng(48)
        for G in (random_complex(rng, 9, 4), random_complex(rng, 2, 3, 9, 4)):
            basis, _ = r_orthonormalize(G)
            assert checks == []
            RBasis(basis.U)                      # the patch sees a check
            assert checks == ["check", "gram"]
            checks.clear()

    @pytest.mark.parametrize("cond", [1e6, 3e9, 5e9, 9e9])
    @pytest.mark.parametrize("k", [2, 6, 21])
    def test_near_the_certificate_margin(self, cond, k):
        # cond 3e9 is certified; at 5e9 and 9e9 the certificate fails and the
        # SVD finds full rank (below 1 / RANK_RTOL = 1e10).
        rng = np.random.default_rng([49, k])
        n = 64
        Q1, _ = np.linalg.qr(rng.normal(size=(2 * n, k)))
        Q2, _ = np.linalg.qr(rng.normal(size=(k, k)))
        S = (Q1 * np.geomspace(1.0, 1.0 / cond, k)) @ Q2.T
        G = S[:n] + 1j * S[n:]
        assert full_rank_certified(_positive_triangle(G)) == (cond < 4e9)
        basis, R = r_orthonormalize(G)
        RBasis(basis.U)
        defect = np.linalg.norm(real_gram(basis.U) - np.eye(k))
        assert defect <= 1e-3 * STRUCTURE_RTOL * k
        assert np.linalg.norm(basis.U @ R - G) <= 1e-12 * np.linalg.norm(G)


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
        X_given = X.copy()
        got = solve_right(X, R)
        want = self.scipy_solve_right(X, R)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(X, X_given)       # solved in place in a copy, not in X

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
        for A, (B, gamma) in zip(inputs, direct):
            B_ref, gamma_ref = skew_canonical_form(A)
            assert np.array_equal(B, B_ref)
            assert np.array_equal(gamma, gamma_ref)


def _run_python(code, *args):
    """Run ``python -c code *args`` with this checkout's pilotspace importable."""
    import pilotspace

    src = str(Path(pilotspace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestLapackLoader:
    """rlinalg loads scipy's LAPACK extension without the scipy.linalg package."""

    def test_import_leaves_scipy_linalg_unimported(self):
        proc = _run_python("import sys, pilotspace; print('scipy.linalg' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_second_load_reuses_the_registered_module(self):
        import pilotspace.rlinalg as rl

        assert rl._load_flapack() is sys.modules["scipy.linalg._flapack"]

    def test_cli_design_leaves_scipy_linalg_unimported(self, tmp_path):
        # runpy.run_module is what ``python -m pilotspace.cli`` runs.
        code = (
            "import runpy, sys\n"
            "sys.argv = ['pilotspace.cli'] + sys.argv[1:]\n"
            "try:\n"
            "    runpy.run_module('pilotspace.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exit_:\n"
            "    assert exit_.code == 0, exit_.code\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        out = tmp_path / "M.json"
        proc = _run_python(code, "design", "--model", "physical", "--nt", "16",
                           "--azimuths=-20,5,40", "--power", "1.0", "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        assert out.is_file()

    @pytest.mark.parametrize("first", ["pilotspace.rlinalg", "scipy.linalg"])
    def test_shares_scipy_module_in_either_import_order(self, first):
        second = "scipy.linalg" if first == "pilotspace.rlinalg" else "pilotspace.rlinalg"
        code = (
            "import sys, importlib\n"
            f"importlib.import_module({first!r}); importlib.import_module({second!r})\n"
            "import scipy.linalg.lapack as lapack\n"
            "import pilotspace.rlinalg as rl\n"
            "assert rl._flapack is sys.modules['scipy.linalg._flapack']\n"
            "for name in ('dgees', 'dtrtri', 'dtrtrs', 'ztrtrs'):\n"
            "    assert getattr(lapack, name) is getattr(rl._flapack, name), name\n"
        )
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_the_extension_and_no_scipy_package(self):
        code = (
            "import sys, pilotspace\n"
            "loaded = [m for m in ('scipy', 'scipy.linalg', 'dataclasses') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "assert 'scipy.linalg._flapack' in sys.modules\n"
            "import scipy.linalg\n"
            "assert scipy.linalg.lapack.dtrtri is pilotspace.rlinalg._flapack.dtrtri\n"
        )
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_no_file_format_module(self):
        # Only the CLI reads and writes files: the library leaves fileio and
        # json unimported.  The number tests are rlinalg's, one object
        # wherever they are read.
        code = (
            "import sys, pilotspace\n"
            "loaded = [m for m in ('pilotspace.fileio', 'json') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "import pilotspace.fileio as fileio, pilotspace.cli as cli\n"
            "from pilotspace import experiments, rlinalg\n"
            "assert fileio.finite_number is experiments.finite_number is rlinalg.finite_number\n"
            "assert fileio.is_number is cli.is_number is rlinalg.is_number\n"
            "assert cli.finite_number is rlinalg.finite_number\n"
        )
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_failed_first_load_imports_scipy_and_loads_again(self):
        # The extension's first load fails as on a distribution whose
        # extension needs scipy's library setup: rlinalg imports scipy
        # and loads the same file again.
        code = (
            "import importlib.machinery, sys\n"
            "loader = importlib.machinery.ExtensionFileLoader\n"
            "create, loads = loader.create_module, []\n"
            "def create_module(self, spec):\n"
            "    if spec.name == 'scipy.linalg._flapack':\n"
            "        loads.append('scipy' in sys.modules)\n"
            "        if len(loads) == 1:\n"
            "            raise ImportError('needs scipy')\n"
            "    return create(self, spec)\n"
            "loader.create_module = create_module\n"
            "import pilotspace.rlinalg as rl\n"
            "assert loads == [False, True], loads\n"
            "assert 'scipy' in sys.modules and 'scipy.linalg' not in sys.modules\n"
            "assert rl._flapack is sys.modules['scipy.linalg._flapack']\n"
            "assert abs(rl.condition_bound(rl.np.eye(3)) - 3.0) < 1e-12\n"
        )
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_missing_extension_file_names_path(self, monkeypatch):
        import pilotspace.rlinalg as rl

        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
        with pytest.raises(ImportError, match=r"_flapack\.missing\.so"):
            rl._load_flapack()


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
        assert naive_r_inner(project_r(basis, z), w) == pytest.approx(
            naive_r_inner(z, project_r(basis, w)), rel=1e-9, abs=1e-12
        )

    def test_stack_refused(self):
        rng = np.random.default_rng(7)
        stack, _ = r_orthonormalize(random_complex(rng, 2, 3, 6, 4))
        with pytest.raises(ValueError, match=r"^expected one basis, got a stack of batch "
                           r"shape \(2, 3\): project onto each basis of the stack \(basis\[i\]\)$"):
            project_r(stack, np.ones(6))
        z = random_complex(rng, 6)
        assert np.array_equal(project_r(stack[1, 2], z), project_r(RBasis(stack.U[1, 2]), z))

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


class TestRBasisIndexing:
    """Slices of a checked stack keep the stack's arrays and skip the check."""

    def stack(self):
        rng = np.random.default_rng(15)
        return r_orthonormalize(random_complex(rng, 3, 4, 6, 3))[0]

    @pytest.mark.parametrize("index, expected", [
        (0, lambda U: U[0]),
        ((slice(None), 0), lambda U: U[:, 0]),
        ((slice(None), slice(1, None)), lambda U: U[:, 1:]),
        ((Ellipsis, 2), lambda U: U[:, 2]),
        ((1, 2), lambda U: U[1, 2]),
    ])
    def test_slices_the_batch_axes(self, index, expected):
        stack = self.stack()
        sub = stack[index]
        assert np.array_equal(sub.U, expected(stack.U))
        assert np.shares_memory(sub.U, stack.U)
        assert (sub.ambient_dim, sub.dim) == (6, 3)

    def test_skips_the_check(self, monkeypatch):
        import pilotspace.rlinalg as rl

        stack = self.stack()
        monkeypatch.setattr(rl, "real_gram", lambda *a: pytest.fail("checked again"))
        assert stack[:, 0].U.shape == (3, 6, 3)

    def test_single_basis_has_no_batch_axes(self):
        with pytest.raises(TypeError, match="batch"):
            RBasis(np.eye(3, dtype=complex))[0]

    def test_index_cannot_reach_the_matrix_axes(self):
        with pytest.raises(IndexError):
            self.stack()[0, 0, 0]


class TestFullRankCertified:
    @pytest.mark.parametrize("k", [1, 5, 24])
    def test_complex_triangle(self, k):
        rng = np.random.default_rng(k)
        _, R = np.linalg.qr(random_complex(rng, k + 2, k))
        assert full_rank_certified(R)
        R[k - 1, k - 1] = 0.0
        assert not full_rank_certified(R)

    def test_complex_agrees_with_real_representation(self):
        # A = QR certified iff the real 2k x 2k triangle of (A, jA) is:
        # both have A's singular values (each twice for the real one).
        rng = np.random.default_rng(3)
        for ratio in (1e-3, 1e-8, 1e-12):
            U, _ = np.linalg.qr(random_complex(rng, 6, 6))
            W, _ = np.linalg.qr(random_complex(rng, 6, 6))
            A = (U * np.geomspace(1.0, ratio, 6)) @ W
            real = _positive_triangle(np.hstack([A, 1j * A]))
            assert full_rank_certified(np.linalg.qr(A)[1]) == full_rank_certified(real)

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3, 2)])
    def test_empty_or_rectangular(self, shape):
        assert not full_rank_certified(np.ones(shape, dtype=complex))


class TestConditionBound:
    """||R||_F ||R^{-1}||_F of a square upper triangle: the one certificate."""

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3, 2)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_empty_or_rectangular_is_inf(self, shape, dtype):
        assert condition_bound(np.ones(shape, dtype=dtype)) == np.inf

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_diagonal_is_inf(self, dtype):
        R = np.triu(np.ones((4, 4), dtype=dtype))
        R[2, 2] = 0.0
        assert condition_bound(R) == np.inf
        assert not full_rank_certified(R)

    @pytest.mark.parametrize("k", [1, 5, 24])
    def test_real_and_complex_match_the_naive_product(self, k):
        rng = np.random.default_rng([50, k])
        for A in (rng.normal(size=(k + 2, k)), random_complex(rng, k + 2, k)):
            R = np.linalg.qr(A)[1]
            naive = np.linalg.norm(R) * np.linalg.norm(np.linalg.inv(R))
            assert condition_bound(R) == pytest.approx(naive, rel=1e-12)
            s = np.linalg.svd(R, compute_uv=False)
            assert condition_bound(R) >= (1.0 - 1e-12) * s[0] / s[-1]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_fails_the_comparison(self, dtype):
        R = np.triu(np.ones((3, 3), dtype=dtype))
        R[0, 2] = np.nan
        assert not condition_bound(R) * RANK_RTOL < RANK_CERT_MARGIN
        assert not full_rank_certified(R)


class TestRBasisValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="real-orthonormal"):
            RBasis(np.ones((4, 2), dtype=complex))

    def test_rejects_non_finite(self):
        U = np.eye(3, dtype=complex)
        U[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RBasis(U)

    @pytest.mark.parametrize("k", [2, 3])
    def test_empty_stack(self, k):
        basis = RBasis(np.zeros((0, 4, k)))
        assert basis.U.shape == (0, 4, k) and (basis.ambient_dim, basis.dim) == (4, k)
        basis, R = r_orthonormalize(np.zeros((0, 4, k), dtype=complex))
        assert basis.U.shape == (0, 4, k) and R.shape == (0, k, k)

    @pytest.mark.parametrize("shape", [(4, 0), (0, 2), (3, 4, 0)])
    def test_orthonormalize_refuses_an_empty_matrix(self, shape):
        # Named before the QR runs, which failed on it in numpy's reshape.
        with pytest.raises(ValueError, match=r"^input matrix must have at least one row and "
                           rf"one column, got shape {re.escape(str(shape))}$"):
            r_orthonormalize(np.zeros(shape, dtype=complex))


@_record
class _Point:
    x: int
    y: float = 2.0

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x must be nonnegative")
        object.__setattr__(self, "y", float(self.y))


@_record
class _NamedPoint(_Point):
    name: str = "p"
    note: object = None


class TestRecord:
    """The frozen record type of every pilotspace class with fields."""

    def test_arguments_by_position_keyword_and_default(self):
        for point in (_Point(1, 3), _Point(1, y=3), _Point(y=3, x=1)):
            assert vars(point) == {"x": 1, "y": 3.0}
        assert vars(_Point(1)) == {"x": 1, "y": 2.0}
        assert _Point._fields == ("x", "y")

    @pytest.mark.parametrize("args, kwargs, message", [
        ((), {}, "missing required argument.* 'x'"),
        ((), {"y": 1.0}, "missing required argument.* 'x'"),
        ((1,), {"z": 0}, "unexpected keyword argument.* 'z'"),
        ((1, 2.0, 3), {}, "takes 2 positional arguments but 3 were given"),
        ((1,), {"x": 2}, "multiple values for argument 'x'"),
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            _Point(*args, **kwargs)

    def test_post_init_runs(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _Point(-1)

    def test_frozen(self):
        point = _Point(1)
        with pytest.raises(AttributeError):
            point.x = 2
        with pytest.raises(AttributeError):
            point.z = 2
        with pytest.raises(AttributeError):
            del point.x
        assert vars(point) == {"x": 1, "y": 2.0}

    def test_equality_hash_and_repr(self):
        assert _Point(1) == _Point(1, 2.0) and hash(_Point(1)) == hash(_Point(1, 2.0))
        assert _Point(1) != _Point(2)
        assert _Point(1) != _NamedPoint(1)
        assert repr(_Point(1)) == "_Point(x=1, y=2.0)"
        # Array fields compare by value, not by the truth of an elementwise ==.
        assert _NamedPoint(1, note=np.arange(3.0)) == _NamedPoint(1, note=np.arange(3.0))
        assert _NamedPoint(1, note=np.arange(3.0)) != _NamedPoint(1, note=np.arange(1.0, 4.0))
        assert _NamedPoint(1, note=np.arange(3.0)) != _NamedPoint(1, note=np.arange(2.0))
        assert _NamedPoint(1, note=np.arange(3.0)) != _NamedPoint(1, note=None)
        assert PathSet([1, 2], [0.1, 0.2]) == PathSet([1, 2], [0.1, 0.2])
        assert not PathSet([1, 2], [0.1, 0.2]) != PathSet([1, 2], [0.1, 0.2])
        assert PathSet([1, 2], [0.1, 0.2]) != PathSet([1, 2], [0.1, 0.3])
        decomp = canonical_decompose(variation_space(ls_model(4), np.zeros(8)))
        # PilotDesign holds arrays and the nested decomposition record.
        design = design_observation_matrix(decomp, 1.0)
        assert design == design_observation_matrix(decomp, 1.0)
        assert design != design_observation_matrix(decomp, 2.0)
        noise = NoiseModel(1.0)
        assert crb_min(decomp.c, 8, noise, 1.0) == crb_min(decomp.c, 8, noise, 1.0)
        assert crb_min(decomp.c, 8, noise, 1.0) != crb_min(decomp.c, 8, noise, 2.0)
        with pytest.raises(TypeError, match="unhashable"):
            hash(design)

    def test_subclass_fields_follow_the_base_fields(self):
        point = _NamedPoint(1, 2, "q", note=[1])
        assert _NamedPoint._fields == ("x", "y", "name", "note")
        assert point.y == 2.0       # the base's __post_init__ is inherited
        # A subclass's fields are shown and compared as the base's are.
        assert repr(point) == "_NamedPoint(x=1, y=2.0, name='q', note=[1])"
        assert point == _NamedPoint(1, 2, "q", note=[1])
        assert point != _NamedPoint(1, 2, "q")


class TestRefusals:
    """Each malformed input of a basis or of an orthonormalization, and its message."""

    @pytest.mark.parametrize("build, value, message", [
        (RBasis, np.ones(3), "basis matrix must be 2-D (or a stack of 2-D matrices) and "
         "nonempty, got shape (3,)"),
        (RBasis, np.zeros((0, 2)), "basis matrix must be 2-D (or a stack of 2-D matrices) "
         "and nonempty, got shape (0, 2)"),
        (RBasis, np.zeros((2, 4, 0)), "basis matrix must be 2-D (or a stack of 2-D "
         "matrices) and nonempty, got shape (2, 4, 0)"),
        (RBasis, np.array([[np.nan], [0.0]]), "basis matrix contains non-finite entries"),
        (r_orthonormalize, np.array([[np.nan], [1.0]]), "input matrix contains non-finite "
         "entries"),
        (r_orthonormalize, np.array([[[1.0, 2j], [3.0, np.inf]]]), "input matrix contains "
         "non-finite entries in slice 0"),
    ], ids=["basis-1d", "basis-no-rows", "basis-stack-no-columns", "basis-nan",
            "orthonormalize-nan", "orthonormalize-stack-inf"])
    def test_message(self, build, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(value)


class TestRBasisStructure:
    """Everything read off U is derived from it.  The pair factor of a basis
    (q_1, -j q_1, ...) is not: only ``crb.compression_spectra`` reads it, by
    its own bitwise test."""

    def pair_stack(self):
        rng = np.random.default_rng(16)
        Q, _ = np.linalg.qr(random_complex(rng, 2, 7, 3))
        U = np.empty((2, 7, 6), dtype=complex)
        U[..., 0::2] = Q
        U[..., 1::2] = -1j * Q
        return RBasis(U)

    def test_u_is_the_only_field(self):
        assert RBasis._fields == ("U",)
        basis = RBasis(np.eye(4, 3, dtype=complex))
        assert (basis.ambient_dim, basis.dim) == (4, 3)
        with pytest.raises(AttributeError):
            basis.dim = 2

    def test_pairs_of_a_pair_basis(self):
        from pilotspace.crb import _pair_factor

        basis = self.pair_stack()
        assert not hasattr(basis, "pairs")
        assert np.array_equal(_pair_factor(basis.U), basis.U[..., 0::2])
        for s in range(2):
            assert np.array_equal(_pair_factor(basis[s].U), basis.U[s, :, 0::2])

    @pytest.mark.parametrize("k", [3, 4])
    def test_no_pairs(self, k):
        from pilotspace.crb import _pair_factor

        rng = np.random.default_rng(k)
        basis = r_orthonormalize(random_complex(rng, 2, 6, k))[0]
        assert _pair_factor(basis.U) is None and _pair_factor(basis[1].U) is None

    def test_pair_test_runs_once_per_basis(self, monkeypatch):
        import pilotspace.crb as crb
        from pilotspace.models import ls_model
        from pilotspace.variation import canonical_decompose, variation_space

        calls = []
        pair_factor = crb._pair_factor
        monkeypatch.setattr(crb, "_pair_factor", lambda U: calls.append(U.shape)
                            or pair_factor(U))
        # Building, checking and decomposing a basis runs no pair test.
        model_basis = variation_space(ls_model(7), np.zeros(14))
        canonical_decompose(model_basis)
        with monkeypatch.context() as patch:
            patch.setattr(np, "array_equal", lambda *a: pytest.fail("pair test"))
            basis = self.pair_stack()
            canonical_decompose(basis)
            r_orthonormalize(random_complex(np.random.default_rng(18), 2, 7, 3))
        assert calls == []
        # Each compression_spectra call tests once, the one-basis forms too.
        Ms = random_complex(np.random.default_rng(17), 2, 7, 3)
        assert crb.compression_spectra(basis, Ms)[0].shape == (2, 6)
        assert calls == [(2, 7, 6)]
        crb.crb_via_variation_space(model_basis, Ms[0], crb.NoiseModel(1.0))
        crb.check_identifiability(model_basis, Ms[0])
        assert calls == [(2, 7, 6), (7, 14), (7, 14)]
