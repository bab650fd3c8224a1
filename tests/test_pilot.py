"""Tests for optimal observation matrix design and the numerical oracle."""

import math

import numpy as np
import pytest

from pilotspace.crb import NoiseModel, check_identifiability, crb_min, crb_via_variation_space
from pilotspace.models import (
    UlaGeometry,
    angle_constrained_model,
    estimated_variation_space,
    ls_model,
    physical_model,
    steering_derivative,
    steering_vector,
)
from pilotspace.pilot import (
    brute_force_optimal_crb,
    design_observation_matrix,
    verify_optimality_certificates,
)
from pilotspace.rlinalg import COUPLING_SNAP, RBasis, r_orthonormalize
from pilotspace.variation import canonical_decompose, variation_space


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_decomposition(rng, n_dim, n_params):
    basis, _ = r_orthonormalize(random_complex(rng, n_dim, n_params))
    return basis, canonical_decompose(basis)


def assert_matches_product_form(dec, power):
    """The closed-form columns equal the product form M = V S D.

    S pairs (v_k, w_k) into v_k + j w_k (and selects the lone vector),
    D is the diagonal power loading sqrt(P/C) (1 + c_k)^(-3/4).
    """
    design = design_observation_matrix(dec, power)
    c = np.asarray(dec.c, dtype=float)
    S = np.zeros((dec.n_params, design.n_columns), dtype=complex)
    for k in range(c.shape[0]):
        S[2 * k, k] = 1.0
        S[2 * k + 1, k] = 1j
    diag = list((1.0 + c) ** -0.75)
    if dec.epsilon:
        S[-1, -1] = 1.0
        diag.append(1.0)
    D = math.sqrt(power / design.C_norm) * np.diag(diag)
    M = design.M
    assert np.linalg.norm(M - dec.V @ S @ D) <= 1e-10 * (1.0 + np.linalg.norm(M))


class TestDesignObservationMatrix:
    @pytest.mark.parametrize("n_params", [1, 2, 5, 6, 9])
    def test_equals_per_pair_columns(self, n_params):
        # Bit for bit the columns scale (v_k + j w_k) / (1 + c_k)^(3/4),
        # built one pair at a time, plus the scaled lone vector.
        rng = np.random.default_rng(40 + n_params)
        for _ in range(20):
            _, dec = random_decomposition(rng, 6, n_params)
            c = dec.c
            scale = math.sqrt(2.5 / (2.0 * np.sum(1.0 / np.sqrt(1.0 + c)) + dec.epsilon))
            cols = [scale * (dec.pair(k)[0] + 1j * dec.pair(k)[1]) / (1.0 + c[k]) ** 0.75
                    for k in range(c.shape[0])]
            if dec.epsilon:
                cols.append(scale * dec.lone_vector)
            assert np.array_equal(design_observation_matrix(dec, 2.5).M,
                                  np.stack(cols, axis=1))

    def test_ls_columns(self):
        n_tx, P = 4, 2.0
        vb = variation_space(ls_model(n_tx), np.zeros(2 * n_tx))
        design = design_observation_matrix(canonical_decompose(vb), P)
        assert design.n_columns == n_tx
        # Columns carry power P/N_t each and span all of C^{N_t}:
        # M M^H = (P/N_t) Id up to column phases.
        col_powers = np.linalg.norm(design.M, axis=0) ** 2
        assert col_powers == pytest.approx(np.full(n_tx, P / n_tx), rel=1e-10)
        MMH = design.M @ np.conj(design.M.T)
        assert np.allclose(MMH, (P / n_tx) * np.eye(n_tx), atol=1e-10)

    def test_single_path_ula_matches_closed_form(self):
        geom = UlaGeometry(16)
        phi, P = 0.25, 1.3
        vb = variation_space(physical_model(geom, 1), np.array([1.0, 0.0, phi]))
        design = design_observation_matrix(canonical_decompose(vb), P)
        assert design.n_columns == 2
        e = steering_vector(geom, phi)
        de = steering_derivative(geom, phi)
        de = de / np.linalg.norm(de)
        scale = math.sqrt(P / (math.sqrt(2) + 1))
        # Compare MM^H (phase-invariant) against the closed-form matrix.
        ref = np.stack([scale * 2**0.25 * e, scale * de], axis=1)
        assert np.allclose(
            design.M @ np.conj(design.M.T), ref @ np.conj(ref.T), atol=1e-10
        )

    def test_angle_constrained_orthonormal_columns(self):
        # Orthogonal steering vectors (DFT-grid azimuths): the design is
        # sqrt(P/L) E_hat up to per-column phases.
        from pilotspace.models import angle_constrained_model, steering_matrix

        n_tx, P = 16, 2.0
        geom = UlaGeometry(n_tx)
        azimuths = [0.0, math.asin(2.0 / n_tx), math.asin(-4.0 / n_tx)]
        E = steering_matrix(geom, azimuths)
        assert np.allclose(np.conj(E.T) @ E, np.eye(3), atol=1e-12)
        model = angle_constrained_model(geom, azimuths)
        design = design_observation_matrix(
            canonical_decompose(variation_space(model, np.zeros(6))), P
        )
        ref = math.sqrt(P / 3) * E
        assert np.allclose(
            design.M @ np.conj(design.M.T), ref @ np.conj(ref.T), atol=1e-10
        )

    @pytest.mark.parametrize("n_params", [2, 3, 4, 5, 7, 8])
    def test_achieves_crb_min(self, n_params):
        rng = np.random.default_rng(n_params)
        sigma2, P = 0.6, 2.5
        vb, dec = random_decomposition(rng, n_params + 2, n_params)
        design = design_observation_matrix(dec, P, sigma2=sigma2)
        ref = crb_min(dec.c, n_params, NoiseModel(sigma2), P)
        assert design.achieved_crb == pytest.approx(ref.value, rel=1e-8)
        achieved = crb_via_variation_space(vb, design.M, NoiseModel(sigma2))
        assert achieved.value == pytest.approx(ref.value, rel=1e-8)

    @pytest.mark.parametrize("n_params", [2, 3, 5, 6])
    def test_minimal_columns_and_identifiable(self, n_params):
        rng = np.random.default_rng(10 + n_params)
        vb, dec = random_decomposition(rng, n_params + 3, n_params)
        design = design_observation_matrix(dec, 1.0)
        assert design.n_columns == math.ceil(n_params / 2)
        assert np.linalg.norm(design.M) ** 2 == pytest.approx(1.0, rel=1e-9)
        assert check_identifiability(vb, design.M).identifiable

    @pytest.mark.parametrize("n_params", [2, 3, 4, 5, 6, 9])
    def test_matches_product_form(self, n_params):
        rng = np.random.default_rng(n_params)
        _, dec = random_decomposition(rng, n_params + 2, n_params)
        assert_matches_product_form(dec, 3.0)

    def test_ula_matches_product_form(self):
        geom = UlaGeometry(64)
        dec = canonical_decompose(estimated_variation_space(geom, [0.3, -0.7, 1.1]))
        assert_matches_product_form(dec, 1.5)

    @pytest.mark.parametrize("n_params", [2, 3, 6, 9])
    def test_achieved_crb_is_the_variation_space_bound(self, n_params):
        rng = np.random.default_rng(40 + n_params)
        sigma2 = 0.45
        _, dec = random_decomposition(rng, n_params + 2, n_params)
        design = design_observation_matrix(dec, 1.7, sigma2=sigma2)
        ref = crb_via_variation_space(RBasis(dec.V), design.M, NoiseModel(sigma2)).value
        assert design.achieved_crb == ref

    def test_achieved_crb_on_first_access(self, monkeypatch):
        import pilotspace.pilot

        calls = []
        real = pilotspace.pilot.crb_via_variation_space

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pilotspace.pilot, "crb_via_variation_space", counting)
        _, dec = random_decomposition(np.random.default_rng(50), 6, 5)
        design = design_observation_matrix(dec, 2.0)
        assert calls == []
        first = design.achieved_crb
        assert design.achieved_crb == first
        assert len(calls) == 1

    def test_achieved_crb_reuses_the_decomposed_basis(self, monkeypatch):
        # The decomposition is the basis of the bound: the one variation_space
        # returns (LS, physical) or the rotation V = U B of a random basis is
        # not checked again, and the bound keeps the bits of a freshly
        # checked RBasis(V).
        from pilotspace.models import PathSet

        rng = np.random.default_rng(60)
        geom = UlaGeometry(32)
        theta = PathSet(gains=[1.0, 0.5j], azimuths=[-0.4, 0.5]).theta()
        ls_basis = variation_space(ls_model(6), np.zeros(12))
        bases = [ls_basis, variation_space(physical_model(geom, 2), theta),
                 random_decomposition(rng, 7, 5)[0]]

        def no_check(self):
            raise AssertionError("the decomposed basis was checked again")

        for basis in bases:
            dec = canonical_decompose(basis)
            design = design_observation_matrix(dec, 1.3, sigma2=0.6)
            ref = crb_via_variation_space(RBasis(dec.V), design.M, NoiseModel(0.6)).value
            monkeypatch.setattr(RBasis, "__post_init__", no_check)
            assert design.achieved_crb == ref
            monkeypatch.undo()
        assert canonical_decompose(ls_basis) is ls_basis

    def test_raw_decomposition_is_checked_once(self, monkeypatch):
        from pilotspace.variation import CanonicalDecomposition

        calls = []
        real = RBasis.__post_init__
        monkeypatch.setattr(RBasis, "__post_init__", lambda self: calls.append(1) or real(self))
        _, dec = random_decomposition(np.random.default_rng(61), 6, 4)
        calls.clear()
        raw = CanonicalDecomposition(dec.V.copy(), dec.c.copy())
        assert len(calls) == 1
        design = design_observation_matrix(raw, 1.1)
        assert design.achieved_crb == design.achieved_crb
        assert len(calls) == 1
        with pytest.raises(ValueError, match="real-orthonormal"):
            CanonicalDecomposition(2.0 * dec.V, dec.c)

    def test_rejects_bad_power(self):
        rng = np.random.default_rng(20)
        _, dec = random_decomposition(rng, 5, 3)
        with pytest.raises(ValueError, match="power"):
            design_observation_matrix(dec, 0.0)

    @pytest.mark.parametrize("key", ["power", "sigma2"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_power_or_noise(self, key, value):
        _, dec = random_decomposition(np.random.default_rng(20), 5, 3)
        with pytest.raises(ValueError, match=f"{key} must be finite and positive"):
            design_observation_matrix(dec, **{"power": 1.0, key: value})


class TestOptimalityCertificates:
    @pytest.mark.parametrize("n_params", [2, 3, 4, 5, 6, 9])
    def test_design_passes(self, n_params):
        rng = np.random.default_rng(n_params)
        P = 3.0
        _, dec = random_decomposition(rng, n_params + 2, n_params)
        design = design_observation_matrix(dec, P)
        certs = verify_optimality_certificates(design)
        assert certs["diagonal_residual"] <= 1e-9 * P
        assert certs["dk_residual"] <= 1e-9 * P
        assert certs["column_powers"] == pytest.approx(
            certs["column_powers_expected"], rel=1e-9
        )
        assert certs["total_power"] == pytest.approx(P, rel=1e-9)

    def test_random_matrix_fails(self):
        rng = np.random.default_rng(30)
        _, dec = random_decomposition(rng, 6, 4)
        design = design_observation_matrix(dec, 1.0)
        fake = design.__class__(
            M=random_complex(rng, 6, 2),
            power=1.0,
            C_norm=design.C_norm,
            sigma2=1.0,
            decomp=dec,
        )
        certs = verify_optimality_certificates(fake)
        assert certs["diagonal_residual"] > 1e-6 or certs["dk_residual"] > 1e-6

    def test_quadrature_free_pair(self):
        # c = 0: the design column is (v + j w) with equal power in both
        # quadrature directions and the certificates still pass.
        rng = np.random.default_rng(31)
        U, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        dec = canonical_decompose(RBasis(U.astype(complex)))
        assert dec.c == pytest.approx([0.0], abs=1e-12)
        P = 2.0
        design = design_observation_matrix(dec, P)
        certs = verify_optimality_certificates(design)
        assert certs["diagonal_residual"] <= 1e-9 * P
        assert certs["dk_residual"] <= 1e-9 * P
        v, w = dec.pair(0)
        assert np.linalg.norm(np.conj(design.M.T) @ v) ** 2 == pytest.approx(
            np.linalg.norm(np.conj(design.M.T) @ w) ** 2, rel=1e-9
        )


def per_pair_certificates(design):
    """Reference: d_k and the column powers straight from their definitions,
    one pair (u_k+, u_k-) at a time."""
    M, decomp = design.M, design.decomp
    c = np.asarray(decomp.c, dtype=float)
    P, C = design.power, design.C_norm
    d_residual = 0.0
    measured, expected = [], []
    for k in range(c.shape[0]):
        v, w = decomp.pair(k)
        u_plus = (v + 1j * w) / math.sqrt(2.0 * (1.0 + c[k]))
        measured.append(float(np.linalg.norm(np.conj(M.T) @ u_plus) ** 2))
        expected.append(2.0 * P / (C * math.sqrt(1.0 + c[k])))
        if 1.0 - c[k] > COUPLING_SNAP:
            u_minus = (v - 1j * w) / math.sqrt(2.0 * (1.0 - c[k]))
            d_k = math.sqrt(1.0 - c[k] ** 2) * float(
                np.real(np.conj(u_plus) @ (M @ (np.conj(M.T) @ u_minus)))
            )
            d_residual = max(d_residual, abs(d_k))
    if decomp.epsilon:
        measured.append(float(np.linalg.norm(np.conj(M.T) @ decomp.lone_vector) ** 2))
        expected.append(P / C)
    return d_residual, np.array(measured), np.array(expected)


def _random_design(n_params):
    rng = np.random.default_rng(40 + n_params)
    return design_observation_matrix(random_decomposition(rng, n_params + 2, n_params)[1], 2.5)


def _ula_design(basis):
    return design_observation_matrix(canonical_decompose(basis), 1.7)


class TestCertificatesEqualPerPairLoop:
    """The certificates read off one compression equal the per-pair loop."""

    DESIGNS = {
        "random-even": lambda: _random_design(6),
        "random-odd": lambda: _random_design(5),           # lone vector
        "random-one": lambda: _random_design(1),           # lone vector only
        "physical-L3": lambda: _ula_design(
            estimated_variation_space(UlaGeometry(16), [0.3, -0.5, 0.9])),
        "ls": lambda: _ula_design(variation_space(ls_model(5), np.zeros(10))),    # all c = 1
        "angle-constrained": lambda: _ula_design(variation_space(
            angle_constrained_model(UlaGeometry(12), [0.2, -0.7]), np.zeros(4))),  # all c = 1
    }

    @pytest.mark.parametrize("perturb", [0.0, 0.3], ids=["optimal", "perturbed"])
    @pytest.mark.parametrize("name", list(DESIGNS))
    def test_matches_reference(self, name, perturb):
        design = self.DESIGNS[name]()
        if perturb:
            rng = np.random.default_rng(50)
            M = design.M + perturb * random_complex(rng, *design.M.shape)
            design = design.__class__(M=M, power=design.power, C_norm=design.C_norm,
                                      sigma2=1.0, decomp=design.decomp)
        certs = verify_optimality_certificates(design)
        d_ref, measured_ref, expected_ref = per_pair_certificates(design)
        tol = 1e-12 * design.power
        assert certs["dk_residual"] == pytest.approx(d_ref, rel=0, abs=tol)
        np.testing.assert_allclose(certs["column_powers"], measured_ref, rtol=0, atol=tol)
        assert np.array_equal(certs["column_powers_expected"], expected_ref)
        assert certs["total_power"] == pytest.approx(np.sum(measured_ref), rel=0, abs=tol)
        # Entries only: the design's CRB is design.achieved_crb.
        assert set(certs) == {"diagonal_residual", "dk_residual", "column_powers",
                              "column_powers_expected", "total_power"}
        if perturb:
            assert d_ref > 1e-3 or np.all(design.decomp.c >= 1.0 - COUPLING_SNAP)


class TestBruteForceOracle:
    def test_complex_line_toy(self):
        # N_p = 2, c = 1: optimum sigma^2 Np^2 / (4P) = sigma^2 / P.
        rng = np.random.default_rng(0)
        b = random_complex(rng, 4)
        b /= np.linalg.norm(b)
        basis = RBasis(np.stack([b, -1j * b], axis=1))
        P, sigma2 = 2.0, 1.0
        res = brute_force_optimal_crb(
            basis, P, 1, sigma2=sigma2, n_restarts=100, n_iters=250, seed=0
        )
        assert res.value == pytest.approx(sigma2 / P, rel=1e-2)
        assert res.value >= sigma2 / P * (1 - 1e-9)

    def test_single_path_ula(self):
        geom = UlaGeometry(4)
        vb = variation_space(physical_model(geom, 1), np.array([1.0, 0.0, 0.5]))
        dec = canonical_decompose(vb)
        P = 1.0
        ref = crb_min(dec.c, 3, NoiseModel(1.0), P)
        res = brute_force_optimal_crb(
            vb, P, 2, sigma2=1.0, n_restarts=200, n_iters=300, seed=1
        )
        assert res.value >= ref.value * (1 - 1e-9)
        assert res.value <= ref.value * 1.01

    def test_too_few_columns_infeasible(self):
        rng = np.random.default_rng(2)
        basis, _ = r_orthonormalize(random_complex(rng, 5, 3))
        res = brute_force_optimal_crb(
            basis, 1.0, 1, n_restarts=50, n_iters=100, seed=0
        )
        assert math.isinf(res.value)
        assert not res.converged

    def test_never_beats_closed_form(self):
        rng = np.random.default_rng(3)
        for trial in range(3):
            n_params = int(rng.integers(2, 6))
            vb, dec = random_decomposition(rng, int(rng.integers(n_params, 7)), n_params)
            P = float(rng.uniform(0.5, 3.0))
            ref = crb_min(dec.c, n_params, NoiseModel(1.0), P)
            res = brute_force_optimal_crb(
                vb, P, math.ceil(n_params / 2),
                n_restarts=150, n_iters=300, seed=trial,
            )
            assert res.value >= ref.value * (1 - 1e-6)
            assert res.value <= ref.value * 1.01

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        vb, _ = random_decomposition(rng, 5, 4)
        a = brute_force_optimal_crb(vb, 1.0, 2, n_restarts=60, n_iters=150, seed=7)
        b = brute_force_optimal_crb(vb, 1.0, 2, n_restarts=60, n_iters=150, seed=7)
        assert a.value == b.value
