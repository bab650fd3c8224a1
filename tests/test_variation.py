"""Tests for variation spaces and the canonical coupled-plane decomposition."""

import numpy as np
import pytest
from scipy.stats import ortho_group

from pilotspace.models import UlaGeometry, steering_derivative, steering_vector
from pilotspace.rlinalg import (
    RankDeficientError,
    RBasis,
    project_r,
    r_orthonormalize,
    stacked_real,
)
from pilotspace.variation import (
    ParametricChannelModel,
    canonical_decompose,
    variation_space,
    verify_eigenspace_property,
)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_variation_basis(rng, n_dim, n_params):
    basis, _ = r_orthonormalize(random_complex(rng, n_dim, n_params))
    return basis


def constant_gradient_model(G, name="synthetic"):
    """Linear model with a fixed gradient matrix (h = G theta)."""
    G = np.asarray(G, dtype=complex)
    return ParametricChannelModel(
        n_dims=G.shape[0],
        n_params=G.shape[1],
        evaluate=lambda theta: G @ np.asarray(theta, dtype=float),
        gradient=lambda theta: G,
        name=name,
    )


class TestVariationSpace:
    def test_ls_model_spans_everything(self):
        from pilotspace.models import ls_model

        n_tx = 5
        vb = variation_space(ls_model(n_tx), np.zeros(2 * n_tx))
        assert vb.dim == 2 * n_tx
        # Every complex vector projects onto the span with zero residual.
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = random_complex(rng, n_tx)
            assert np.linalg.norm(z - project_r(vb, z)) <= 1e-10 * np.linalg.norm(z)

    def test_single_direction_model(self):
        b = np.ones(4) / 2.0  # real unit vector
        model = constant_gradient_model(b.reshape(-1, 1))
        vb = variation_space(model, np.array([0.3]))
        assert vb.dim == 1
        assert np.allclose(np.abs(np.vdot(vb.U[:, 0], b)), 1.0)

    def test_single_path_ula_generators(self):
        from pilotspace.models import physical_model

        geom = UlaGeometry(8)
        model = physical_model(geom, 1)
        vb = variation_space(model, np.array([1.0, 0.0, 0.3]))
        e = steering_vector(geom, 0.3)
        de = steering_derivative(geom, 0.3)
        for gen in (e, -1j * e, de):
            resid = gen - project_r(vb, gen)
            assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(gen)

    def test_rank_deficient_context(self):
        rng = np.random.default_rng(1)
        b = random_complex(rng, 5)
        model = constant_gradient_model(np.stack([b, 2 * b], axis=1))
        with pytest.raises(RankDeficientError, match="dim_R"):
            variation_space(model, np.zeros(2))

    def test_rank_deficient_keeps_null_space(self):
        rng = np.random.default_rng(4)
        G = random_complex(rng, 6, 3)
        G = np.concatenate([G, G[:, 1:2]], axis=1)   # column 3 duplicates column 1
        with pytest.raises(RankDeficientError) as info:
            variation_space(constant_gradient_model(G), np.zeros(4))
        N = info.value.null_space
        assert info.value.rank == 3
        assert N.shape == (4, 1)
        assert np.linalg.norm(stacked_real(G) @ N) <= 1e-12 * np.linalg.norm(G)

    def test_theta_length_checked(self):
        model = constant_gradient_model(np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="length"):
            variation_space(model, np.zeros(5))


class TestCanonicalDecompose:
    def test_complex_line_pair(self):
        rng = np.random.default_rng(2)
        b = random_complex(rng, 6)
        b /= np.linalg.norm(b)
        dec = canonical_decompose(RBasis(np.stack([b, -1j * b], axis=1)))
        assert dec.c == pytest.approx([1.0])
        assert dec.epsilon == 0

    def test_real_pair(self):
        rng = np.random.default_rng(3)
        U, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        dec = canonical_decompose(RBasis(U.astype(complex)))
        assert dec.c == pytest.approx([0.0], abs=1e-12)

    def test_single_path_ula(self):
        from pilotspace.models import physical_model

        geom = UlaGeometry(16)
        phi = 0.4
        vb = variation_space(physical_model(geom, 1), np.array([1.0, 0.0, phi]))
        dec = canonical_decompose(vb)
        assert dec.c == pytest.approx([1.0])
        assert dec.epsilon == 1
        de = steering_derivative(geom, phi)
        # Direct summation over the antenna index: e and de are C-orthogonal,
        # so the lone vector is the normalized derivative.
        e = steering_vector(geom, phi)
        assert abs(sum(np.conj(e[n]) * de[n] for n in range(16))) <= 1e-12
        de /= np.linalg.norm(de)
        assert abs(np.abs(np.vdot(dec.lone_vector, de)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("n_params", [2, 3, 5, 6, 8])
    def test_gram_structure(self, n_params):
        rng = np.random.default_rng(n_params)
        dec = canonical_decompose(random_variation_basis(rng, n_params + 3, n_params))
        VhV = np.conj(dec.V.T) @ dec.V
        assert np.linalg.norm(VhV.real - np.eye(n_params)) <= 1e-9 * n_params
        # Entrywise: v_m^H w_n = -delta_mn j c_m, distinct pairs C-orthogonal.
        assert np.abs(VhV.imag - dec.gamma_matrix()).max() <= 1e-8
        for m in range(len(dec.c)):
            v_m, w_m = dec.pair(m)
            assert np.vdot(v_m, w_m) == pytest.approx(-1j * dec.c[m], abs=1e-8)
            for n in range(m + 1, len(dec.c)):
                v_n, w_n = dec.pair(n)
                for x in (v_m, w_m):
                    for y in (v_n, w_n):
                        assert abs(np.vdot(x, y)) <= 1e-8

    def test_span_preserved(self):
        rng = np.random.default_rng(10)
        vb = random_variation_basis(rng, 9, 5)
        dec = canonical_decompose(vb)
        V_basis = RBasis(dec.V)
        for k in range(vb.dim):
            u = vb.U[:, k]
            assert np.linalg.norm(u - project_r(V_basis, u)) <= 1e-9

    def test_couplings_basis_invariant(self):
        rng = np.random.default_rng(11)
        vb = random_variation_basis(rng, 8, 6)
        c_ref = canonical_decompose(vb).c
        for seed in range(3):
            B = ortho_group.rvs(6, random_state=seed)
            rotated = RBasis(vb.U @ B)
            assert canonical_decompose(rotated).c == pytest.approx(c_ref, abs=1e-8)

    @pytest.mark.parametrize("n_params", [4, 7, 10])
    def test_couplings_are_principal_angle_cosines(self, n_params):
        rng = np.random.default_rng(n_params + 20)
        vb = random_variation_basis(rng, n_params + 2, n_params)
        dec = canonical_decompose(vb)
        A = np.imag(np.conj(vb.U.T) @ vb.U)
        eigs = np.sort(np.linalg.eigvalsh(-(A @ A)))[::-1]
        # Squared couplings are the eigenvalues, each with multiplicity 2.
        expected = np.sort(np.concatenate([dec.c**2, dec.c**2, np.zeros(n_params % 2)]))[::-1]
        assert eigs == pytest.approx(expected, abs=1e-10)


class TestEigenspaceProperty:
    def test_complex_line(self):
        rng = np.random.default_rng(30)
        b = random_complex(rng, 5)
        b /= np.linalg.norm(b)
        dec = canonical_decompose(RBasis(np.stack([b, -1j * b], axis=1)))
        assert verify_eigenspace_property(dec)["max_residual"] <= 1e-10

    def test_real_pair(self):
        rng = np.random.default_rng(31)
        U, _ = np.linalg.qr(rng.normal(size=(7, 2)))
        dec = canonical_decompose(RBasis(U.astype(complex)))
        assert verify_eigenspace_property(dec)["max_residual"] <= 1e-10

    def test_random_spaces(self):
        rng = np.random.default_rng(32)
        for n_params in (4, 5, 6):
            dec = canonical_decompose(random_variation_basis(rng, 8, n_params))
            assert verify_eigenspace_property(dec)["max_residual"] <= 1e-7
