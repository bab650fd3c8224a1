"""Tests for variation spaces and the canonical coupled-plane decomposition."""

import re

import numpy as np
import pytest
from scipy.stats import ortho_group

from pilotspace.crb import _pair_factor
from pilotspace.models import UlaGeometry, steering_derivative, steering_vector
from pilotspace.rlinalg import (
    STRUCTURE_RTOL,
    RankDeficientError,
    RBasis,
    condition_bound,
    full_rank_certified,
    project_r,
    r_orthonormalize,
    real_gram,
    stacked_real,
)
from pilotspace.variation import (
    CanonicalDecomposition,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("lines", [False, True])
    def test_non_finite_gradient(self, bad, lines):
        # The gradient check names the gradient, with or without complex lines.
        A = random_complex(np.random.default_rng(5), 4, 2)
        G = np.hstack([A, 1j * A]) if lines else A
        G[1, 1] = bad
        with pytest.raises(ValueError, match="^gradient contains non-finite entries$"):
            variation_space(constant_gradient_model(G), np.zeros(G.shape[1]))


def real_projector(U):
    """Projector onto span_R(U) in the real coordinates [Re; Im]."""
    S = stacked_real(U)
    return S @ S.T


def linear_cases():
    """Linear models, one pytest param each: LS for N_t = 1..16, random
    complex A, steering matrices of the angle-constrained model."""
    from pilotspace.models import angle_constrained_model, ls_model

    rng = np.random.default_rng(40)
    cases = [pytest.param(ls_model(n), id=f"ls-{n}") for n in range(1, 17)]
    for shape in [(1, 1), (5, 1), (5, 3), (8, 8), (12, 5)]:
        A = random_complex(rng, *shape)
        cases.append(pytest.param(constant_gradient_model(np.hstack([A, 1j * A])),
                                  id=f"random-{shape[0]}x{shape[1]}"))
    for n_tx, L in [(8, 1), (16, 3), (64, 6)]:
        azimuths = rng.uniform(-1.2, 1.2, size=L)
        cases.append(pytest.param(angle_constrained_model(UlaGeometry(n_tx), azimuths),
                                  id=f"ac-{n_tx}-{L}"))
    return cases


@pytest.fixture
def no_general_route(monkeypatch):
    """Fail on the general route: r_orthonormalize or a real Schur form."""
    import pilotspace.rlinalg as rl
    import pilotspace.variation as var

    def fail(*args):
        pytest.fail("general route taken")

    monkeypatch.setattr(var, "r_orthonormalize", fail)
    monkeypatch.setattr(rl, "_real_schur", fail)


class TestLinearRoute:
    """A gradient (A, jA) takes the closed form: one complex QR of A, no Schur form."""

    @pytest.mark.parametrize("model", linear_cases())
    def test_matches_general_route(self, model):
        theta = np.zeros(model.n_params)
        grad = model.gradient(theta)
        general = canonical_decompose(r_orthonormalize(grad)[0])
        basis = variation_space(model, theta)
        decomp = canonical_decompose(basis)
        assert decomp.V is basis.U
        P, P_ref = real_projector(decomp.V), real_projector(general.V)
        assert np.linalg.norm(P - P_ref) <= 1e-10
        assert np.abs(decomp.c - general.c).max() <= 1e-10
        assert np.abs(decomp.c - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("model", linear_cases()[::4])
    def test_takes_no_general_route(self, model, no_general_route):
        decomp = canonical_decompose(variation_space(model, np.zeros(model.n_params)))
        assert decomp.n_params == model.n_params

    @pytest.mark.parametrize("n_tx", range(1, 17))
    def test_ls_crb_min_is_the_textbook_value(self, n_tx):
        from pilotspace.crb import NoiseModel, crb_min
        from pilotspace.models import ls_model
        from pilotspace.pilot import design_observation_matrix, verify_optimality_certificates

        rng = np.random.default_rng(n_tx)
        P, sigma2 = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)
        decomp = canonical_decompose(variation_space(ls_model(n_tx), np.zeros(2 * n_tx)))
        value = crb_min(decomp.c, decomp.n_params, NoiseModel(sigma2), P).value
        assert value == pytest.approx(sigma2 * n_tx**2 / P, rel=1e-12)
        design = design_observation_matrix(decomp, P, sigma2)
        assert design.achieved_crb == pytest.approx(value, rel=1e-9)
        cert = verify_optimality_certificates(design)
        assert cert["diagonal_residual"] <= 1e-10 and cert["dk_residual"] <= 1e-10

    @pytest.mark.parametrize("azimuths", [[0.3, 0.3], [0.3, -0.1, 0.3], [-0.5, 0.2, 0.2, 0.9]])
    @pytest.mark.parametrize("n_tx", [8, 64])
    def test_coincident_azimuths_raise_as_the_general_route(self, n_tx, azimuths,
                                                            monkeypatch):
        import pilotspace.variation as var
        from pilotspace.models import angle_constrained_model

        model = angle_constrained_model(UlaGeometry(n_tx), azimuths)
        theta = np.zeros(model.n_params)
        with pytest.raises(RankDeficientError) as got:
            variation_space(model, theta)
        monkeypatch.setattr(var, "_linear_basis", lambda grad: None)
        with pytest.raises(RankDeficientError) as ref:
            variation_space(model, theta)
        assert str(got.value) == str(ref.value)
        assert got.value.rank == ref.value.rank
        assert np.array_equal(got.value.null_space, ref.value.null_space)

    def test_uncertified_rank_falls_back(self):
        # sigma_min / sigma_max = 1.5e-10: full rank, but beyond the certificate.
        rng = np.random.default_rng(41)
        Q1, _ = np.linalg.qr(random_complex(rng, 6, 4))
        Q2, _ = np.linalg.qr(random_complex(rng, 4, 4))
        A = (Q1 * np.geomspace(1.0, 1.5e-10, 4)) @ Q2
        assert not full_rank_certified(np.linalg.qr(A)[1])
        G = np.hstack([A, 1j * A])
        basis = variation_space(constant_gradient_model(G), np.zeros(8))
        assert np.array_equal(basis.U, r_orthonormalize(G)[0].U)

    def test_other_gradients_take_the_general_route(self):
        # (A, jA) up to one rounding in one entry is not a linear gradient.
        rng = np.random.default_rng(42)
        A = random_complex(rng, 6, 3)
        G = np.hstack([A, 1j * A])
        G[2, 4] *= 1.0 + 2.0**-52
        basis = variation_space(constant_gradient_model(G), np.zeros(6))
        assert np.array_equal(basis.U, r_orthonormalize(G)[0].U)


def separated_sines(rng, n, span=0.85):
    """n sines of azimuths on a jittered grid over [-span, span]."""
    cell = 2.0 * span / n
    return -span + cell * (np.arange(n) + 0.5 + 0.3 * rng.uniform(-1.0, 1.0, n))


def physical_case(n_tx, n_paths, seed, gains=None):
    """(model, theta) of ``physical_model`` at separated azimuths with complex gains."""
    from pilotspace.models import PathSet, physical_model

    rng = np.random.default_rng([seed, n_tx, n_paths])
    azimuths = np.arcsin(separated_sines(rng, n_paths))
    if gains is None:
        gains = rng.uniform(0.5, 1.5, n_paths) * np.exp(2j * np.pi * rng.uniform(size=n_paths))
    theta = PathSet(gains=gains, azimuths=azimuths).theta()
    return physical_model(UlaGeometry(n_tx), n_paths), theta


def physical_cases():
    """physical_model with L = 1..7 at N_t = 8, 64, 256 (3L <= 2 N_t), and
    the two physical kinds of the benchmark's large workload."""
    cases = [pytest.param(n_tx, L, id=f"physical-{n_tx}-{L}")
             for n_tx in (8, 64, 256) for L in range(1, 8) if 3 * L <= 2 * n_tx]
    return cases + [pytest.param(256, 24, id="bench-256-24"),
                    pytest.param(256, 40, id="bench-256-40")]


def general_route(model, theta, monkeypatch):
    """variation_space through r_orthonormalize alone, or the error it raises."""
    import pilotspace.variation as var

    with monkeypatch.context() as patch:
        patch.setattr(var, "_linear_basis", lambda grad: None)
        try:
            return variation_space(model, theta)
        except RankDeficientError as err:
            return err


@pytest.fixture
def recorded_routes(monkeypatch):
    """The shapes that r_orthonormalize and the real Schur form receive."""
    import pilotspace.rlinalg as rl
    import pilotspace.variation as var

    calls = {"r_orthonormalize": [], "_real_schur": []}
    for module, name in ((var, "r_orthonormalize"), (rl, "_real_schur")):
        real = getattr(module, name)

        def recording(A, _real=real, _name=name):
            calls[_name].append(np.shape(A))
            return _real(A)

        monkeypatch.setattr(module, name, recording)
    return calls


class TestComplexLinesRoute:
    """A gradient with column pairs (g, +/-j g) takes its complex lines first:
    one complex QR for the lines, the rest orthonormalized and put in
    canonical form on its own, and a basis that canonical_decompose keeps."""

    @pytest.mark.parametrize("n_tx, n_paths", physical_cases())
    def test_matches_general_route(self, n_tx, n_paths, monkeypatch):
        from pilotspace.crb import NoiseModel, crb_min
        from pilotspace.pilot import design_observation_matrix

        model, theta = physical_case(n_tx, n_paths, seed=60)
        basis = variation_space(model, theta)
        decomp = canonical_decompose(basis)
        general = canonical_decompose(general_route(model, theta, monkeypatch))
        P, P_ref = real_projector(decomp.V), real_projector(general.V)
        assert np.linalg.norm(P - P_ref) <= 1e-10
        assert np.abs(decomp.c - general.c).max() <= 1e-10
        # The lines come first with coupling 1, and the basis is its
        # decomposition.
        assert np.abs(decomp.c[:n_paths] - 1.0).max() <= 1e-12
        assert decomp is basis
        rng = np.random.default_rng(n_tx + n_paths)
        P_power, sigma2 = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)
        design = design_observation_matrix(decomp, P_power, sigma2)
        ref = crb_min(decomp.c, decomp.n_params, NoiseModel(sigma2), P_power).value
        assert design.achieved_crb == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n_tx, n_paths", physical_cases())
    def test_certificate_of_the_explicit_triangle(self, n_tx, n_paths, monkeypatch):
        # The kernel runs twice per basis: on the L x L real triangle of the
        # azimuth columns inside r_orthonormalize, then once on the complex
        # triangle T = [[R, X], [0, R_D]].  Its bound equals the blockwise
        # formula ||T||_F ||T^{-1}||_F that the route used before T was built.
        import pilotspace.rlinalg as rl
        from scipy.linalg.lapack import dtrtri, ztrtri

        triangles = []
        monkeypatch.setattr(rl, "condition_bound",
                            lambda R, _real=rl.condition_bound: triangles.append(R) or _real(R))
        model, theta = physical_case(n_tx, n_paths, seed=60)
        variation_space(model, theta)
        L = n_paths
        assert [(t.dtype, t.shape) for t in triangles] == [
            (np.dtype(float), (L, L)), (np.dtype(complex), (2 * L, 2 * L))]
        T = triangles[1]
        R, X, R_D = T[:L, :L], T[:L, L:], T[L:, L:]
        assert np.array_equal(T[L:, :L], np.zeros((L, L)))
        R_inv, R_D_inv = ztrtri(R)[0], dtrtri(R_D.real)[0]
        norm_T = np.sqrt(np.linalg.norm(R) ** 2 + np.linalg.norm(X) ** 2
                         + np.linalg.norm(R_D) ** 2)
        norm_T_inv = np.sqrt(np.linalg.norm(R_inv) ** 2
                             + np.linalg.norm(R_inv @ X @ R_D_inv) ** 2
                             + np.linalg.norm(R_D_inv) ** 2)
        assert condition_bound(T) == pytest.approx(norm_T * norm_T_inv, rel=1e-12)

    @pytest.mark.parametrize("n_tx, n_paths", [(8, 1), (64, 7), (256, 24)])
    def test_one_schur_form_of_size_at_most_L(self, n_tx, n_paths, recorded_routes):
        model, theta = physical_case(n_tx, n_paths, seed=61)
        decomp = canonical_decompose(variation_space(model, theta))
        assert decomp.n_params == 3 * n_paths
        assert recorded_routes["r_orthonormalize"] == [(n_tx, n_paths)]
        schur = recorded_routes["_real_schur"]
        assert len(schur) <= 1 and all(shape[0] <= n_paths for shape in schur)

    @pytest.mark.parametrize("n_tx, n_paths", physical_cases())
    def test_basis_passes_the_full_check(self, n_tx, n_paths):
        # The route checks only the cross block of the lines and U_D; the
        # whole basis passes the RBasis orthonormality check.
        model, theta = physical_case(n_tx, n_paths, seed=60)
        RBasis(variation_space(model, theta).U)

    @pytest.mark.parametrize("n_tx", [96, 128, 192])
    def test_ls_basis_passes_the_full_check(self, n_tx):
        from pilotspace.models import ls_model

        RBasis(variation_space(ls_model(n_tx), np.zeros(2 * n_tx)).U)

    def test_failed_cross_check_falls_back(self, monkeypatch):
        import pilotspace.variation as var

        model, theta = physical_case(64, 3, seed=60)
        monkeypatch.setattr(var, "STRUCTURE_RTOL", 0.0)
        basis = variation_space(model, theta)
        assert type(basis) is RBasis
        assert np.array_equal(basis.U, general_route(model, theta, monkeypatch).U)

    def test_adjacent_pairs_of_either_sign(self, monkeypatch):
        # (g, j g) and (g, -j g) among other columns: the route pairs
        # adjacent columns only, and a pair that matches in the first row
        # alone (e, f) is no pair.
        import pilotspace.variation as var

        rng = np.random.default_rng(62)
        a, b, d, e, f = random_complex(rng, 5, 7)
        f[0] = 1j * e[0]
        G = np.stack([d, a, 1j * a, e, f, b, -1j * b], axis=1)
        model = constant_gradient_model(G)
        first, rest = var._complex_lines(G)
        assert first.tolist() == [1, 5] and rest.tolist() == [0, 3, 4]
        basis = variation_space(model, np.zeros(7))
        general = general_route(model, np.zeros(7), monkeypatch)
        P, P_ref = real_projector(basis.U), real_projector(general.U)
        assert np.linalg.norm(P - P_ref) <= 1e-10

    @pytest.mark.parametrize("n_tx", [16, 64])
    def test_separation_sweep_raises_as_the_general_route(self, n_tx, monkeypatch):
        # The model cases of test_models.TestSeparationSweep: a second path
        # merges into the first until the rank test trips.
        from pilotspace.models import physical_model

        gains = (1.0, 0.6 * np.exp(0.7j))
        model = physical_model(UlaGeometry(n_tx), 2)
        raised = []
        for phi0 in (0.3, -1.0):
            for delta in np.geomspace(0.3, 1e-10, 300):
                theta = np.ravel([[b.real, b.imag, phi] for b, phi
                                  in zip(gains, [phi0, phi0 + delta])])
                ref = self.assert_raises_alike(model, theta, monkeypatch)
                raised.append(isinstance(ref, RankDeficientError))
        assert 0 < sum(raised) < len(raised)

    @pytest.mark.parametrize("n_tx, n_paths", [(8, 6), (8, 7), (16, 11)])
    def test_too_many_paths_raise_as_the_general_route(self, n_tx, n_paths, monkeypatch):
        model, theta = physical_case(n_tx, n_paths, seed=63)
        assert isinstance(self.assert_raises_alike(model, theta, monkeypatch),
                          RankDeficientError)

    @pytest.mark.parametrize("zero", [[0], [2], [0, 3]])
    def test_zero_gains_raise_as_the_general_route(self, zero, monkeypatch):
        rng = np.random.default_rng(64)
        gains = np.exp(2j * np.pi * rng.uniform(size=4))
        gains[zero] = 0.0
        model, theta = physical_case(64, 4, seed=64, gains=gains)
        assert isinstance(self.assert_raises_alike(model, theta, monkeypatch),
                          RankDeficientError)

    @staticmethod
    def assert_raises_alike(model, theta, monkeypatch):
        """Both routes raise with the same message, rank and null space, or
        neither does; returns the general route's result."""
        ref = general_route(model, theta, monkeypatch)
        if isinstance(ref, RankDeficientError):
            with pytest.raises(RankDeficientError) as got:
                variation_space(model, theta)
            assert str(got.value) == str(ref)
            assert got.value.rank == ref.rank
            assert np.array_equal(got.value.null_space, ref.null_space)
        else:
            assert variation_space(model, theta).dim == model.n_params
        return ref


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

    @pytest.mark.parametrize("k", [3, 4])
    def test_empty_stack(self, k):
        from pilotspace.pilot import design_observation_matrix

        decomp = canonical_decompose(r_orthonormalize(np.zeros((0, 5, k)))[0])
        assert decomp.V.shape == (0, 5, k) and decomp.c.shape == (0, k // 2)
        assert design_observation_matrix(decomp, 1.0).M.shape == (0, 5, (k + 1) // 2)


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


class TestOrthonormalizeOutputPassesTheFullCheck:
    """r_orthonormalize returns its basis without the RBasis Gram check; the
    check passes on what it returns, far inside its tolerance."""

    @staticmethod
    def assert_full_check(U):
        RBasis(U)
        k = U.shape[-1]
        defect = np.linalg.norm(real_gram(U) - np.eye(k), axis=(-2, -1)).max(initial=0.0)
        assert defect <= 1e-3 * STRUCTURE_RTOL * k

    @pytest.mark.parametrize("n_tx, n_paths", physical_cases())
    def test_physical_gradients(self, n_tx, n_paths, monkeypatch):
        # The complex-lines route's derivative block, the general route's
        # whole gradient (unless it is rank deficient there) and the
        # azimuth-only span at the same azimuths.
        import pilotspace.models as models
        import pilotspace.variation as var

        outputs = []
        for module in (var, models):
            monkeypatch.setattr(module, "r_orthonormalize",
                                lambda G, _real=r_orthonormalize:
                                outputs.append(_real(G)) or outputs[-1])
        model, theta = physical_case(n_tx, n_paths, seed=60)
        variation_space(model, theta)
        general = general_route(model, theta, monkeypatch)
        try:
            models.physical_variation_space(UlaGeometry(n_tx), theta[2::3])
        except RankDeficientError:
            pass
        assert len(outputs) >= 1 + (type(general) is RBasis)
        for basis, _ in outputs:
            self.assert_full_check(basis.U)

    def test_multipath_stacks(self, monkeypatch):
        import pilotspace.models as models
        from pilotspace.experiments import ExperimentConfig, run_multipath

        outputs = []
        real = models.r_orthonormalize
        monkeypatch.setattr(models, "r_orthonormalize",
                            lambda G: outputs.append(real(G)) or outputs[-1])
        for seed in range(700000, 700010):
            run_multipath(ExperimentConfig(n_trials=10, seed=seed))
        assert len(outputs) >= 10
        for basis, _ in outputs:
            self.assert_full_check(basis.U)


class TestDecomposeValidatesOnce:
    """canonical_decompose puts the stack through skew_canonical_form once;
    only the slices not already canonical take a Schur form, of the
    symmetrized input, and each slice has the bits of its own call."""

    def test_each_slice_is_validated_once(self, monkeypatch):
        import pilotspace.rlinalg as rl
        import pilotspace.variation as var
        from pilotspace.rlinalg import skew_canonical_form

        rng = np.random.default_rng(940)
        generic = r_orthonormalize(random_complex(rng, 2, 8, 5))[0]
        kept = canonical_decompose(generic[0]).V           # already canonical
        bases = RBasis(np.stack([generic.U[0], kept, generic.U[1]]))
        parts, schur_inputs = [], []
        real_form, real_schur = var.skew_canonical_form, rl._real_schur
        monkeypatch.setattr(var, "skew_canonical_form",
                            lambda A: parts.append(A.copy()) or real_form(A))
        monkeypatch.setattr(rl, "_real_schur",
                            lambda A: schur_inputs.append(A.copy()) or real_schur(A))
        dec = canonical_decompose(bases)
        monkeypatch.undo()
        assert len(parts) == 1 and parts[0].shape == (3, 5, 5)
        assert len(schur_inputs) == 2
        for A, schur_input in zip([parts[0][0], parts[0][2]], schur_inputs):
            assert np.array_equal(schur_input, 0.5 * (A - A.T))
        # Each slice has the bits of the public skew_canonical_form on its input.
        for i, A in enumerate(parts[0]):
            B, gamma = skew_canonical_form(A)
            assert np.array_equal(dec.V[i], bases.U[i] @ B)
            assert np.array_equal(dec.c[i], np.clip(gamma, 0.0, 1.0))
        assert np.array_equal(dec.V[1], kept @ np.eye(5))


def near_coincident_cases():
    """physical_model with two paths Delta apart, as close as the complex-lines
    route still certifies."""
    return [pytest.param(n_tx, phi0, delta, id=f"near-{n_tx}-{phi0}-{delta}")
            for n_tx, delta in ((16, 1e-4), (64, 1e-5)) for phi0 in (0.3, -1.0)]


@pytest.fixture
def counted_schur(monkeypatch):
    """The real Schur forms that skew_canonical_form runs."""
    import pilotspace.rlinalg as rl

    calls = []
    real = rl._real_schur
    monkeypatch.setattr(rl, "_real_schur", lambda A: calls.append(A.shape) or real(A))
    return calls


class TestDecompositionIsTheBasis:
    """A gradient with complex lines gets its decomposition from variation_space,
    which canonical_decompose returns unchanged.  The re-derivation that the
    pipeline no longer runs is checked here: the canonical form of Im{V^H V}
    keeps V, with the couplings c."""

    @staticmethod
    def assert_canonical(decomp, monkeypatch, counted_schur):
        from pilotspace.rlinalg import skew_canonical_form

        assert isinstance(decomp, CanonicalDecomposition)
        A = np.imag(np.conj(decomp.V.T) @ decomp.V)
        counted_schur.clear()
        B, gamma = skew_canonical_form(A)
        assert counted_schur == [] and np.array_equal(B, np.eye(decomp.n_params))
        assert np.abs(np.clip(gamma, 0.0, 1.0) - decomp.c).max(initial=0.0) <= 1e-12

        def fail(*args):
            raise AssertionError("canonical_decompose re-derived a decomposition")

        with monkeypatch.context() as patch:
            patch.setattr(np, "imag", fail)
            assert canonical_decompose(decomp) is decomp

    @pytest.mark.parametrize("n_tx, n_paths", physical_cases())
    def test_physical_models(self, n_tx, n_paths, monkeypatch, counted_schur):
        model, theta = physical_case(n_tx, n_paths, seed=65)
        decomp = variation_space(model, theta)
        assert np.all(decomp.c[:n_paths] == 1.0)
        self.assert_canonical(decomp, monkeypatch, counted_schur)

    @pytest.mark.parametrize("n_tx, phi0, delta", near_coincident_cases())
    def test_near_coincident_azimuths(self, n_tx, phi0, delta, monkeypatch, counted_schur):
        from pilotspace.models import physical_model

        gains = (1.0, 0.6 * np.exp(0.7j))
        theta = np.ravel([[b.real, b.imag, phi] for b, phi in zip(gains, [phi0, phi0 + delta])])
        decomp = variation_space(physical_model(UlaGeometry(n_tx), 2), theta)
        assert decomp.c[-1] > 0.999     # the two derivative columns nearly coincide
        self.assert_canonical(decomp, monkeypatch, counted_schur)

    @pytest.mark.parametrize("model", linear_cases()[::3])
    def test_linear_models(self, model, monkeypatch, counted_schur):
        decomp = variation_space(model, np.zeros(model.n_params))
        assert np.all(decomp.c == 1.0) and _pair_factor(decomp.U) is not None
        self.assert_canonical(decomp, monkeypatch, counted_schur)

    def test_other_gradients_return_a_plain_basis(self):
        G = random_complex(np.random.default_rng(66), 6, 3)
        basis = variation_space(constant_gradient_model(G), np.zeros(3))
        assert type(basis) is RBasis
        assert type(canonical_decompose(basis)) is CanonicalDecomposition


class TestDecompositionShapes:
    """A decomposition is checked as a basis, and its couplings against it."""

    @pytest.mark.parametrize("V_shape, c_shape", [((3, 16, 6), (1, 3)), ((16, 6), (3, 3)),
                                                  ((16, 6), (2,)), ((2, 16, 5), (2, 3))])
    def test_couplings_must_fit_the_basis(self, V_shape, c_shape):
        V = np.broadcast_to(np.eye(16, V_shape[-1], dtype=complex), V_shape)
        with pytest.raises(ValueError, match=re.escape(
                f"couplings of shape {c_shape} do not fit a basis of shape {V_shape}")):
            CanonicalDecomposition(V, np.zeros(c_shape))

    def test_fitting_couplings_pass(self):
        V = np.broadcast_to(np.eye(16, 5, dtype=complex), (3, 16, 5))
        decomp = CanonicalDecomposition(V, np.zeros((3, 2)))
        assert decomp.V is decomp.U and decomp.n_params == 5 and decomp.epsilon == 1

    @staticmethod
    def stack():
        from pilotspace.models import physical_variation_space

        return physical_variation_space(UlaGeometry(16),
                                        [[0.1, 0.5], [-0.7, 0.3], [0.2, 0.25]])

    def test_eigenspace_check_refuses_a_stack(self):
        stack = self.stack()
        with pytest.raises(ValueError, match=r"one decomposition, got a stack of batch "
                                             r"shape \(3,\)"):
            verify_eigenspace_property(canonical_decompose(stack))
        for i in range(3):          # each slice, decomposed on its own, passes
            one = canonical_decompose(stack[i])
            assert verify_eigenspace_property(one)["max_residual"] <= 1e-10

    def test_slice_of_a_stacked_decomposition_keeps_its_couplings(self, monkeypatch):
        import pilotspace.variation as var

        decomp = canonical_decompose(self.stack())

        def fail(*args):
            raise AssertionError("a slice was put in canonical form again")

        monkeypatch.setattr(var, "skew_canonical_form", fail)
        for index in (1, (2,), slice(0, 2)):
            one = decomp[index]
            assert type(one) is CanonicalDecomposition
            assert np.array_equal(one.U, decomp.U[index])
            assert np.array_equal(one.c, decomp.c[index])
            assert canonical_decompose(one) is one
        with pytest.raises(IndexError):
            decomp[0, 1]        # the stack has one batch axis; c's last is a matrix axis

    def test_stacked_gamma_matrix(self):
        # Couplings (3, 2) give Gamma (3, 6, 6), each slice that of its slice.
        decomp = canonical_decompose(self.stack())
        gamma = decomp.gamma_matrix()
        assert gamma.shape == (3, 6, 6)
        assert np.array_equal(gamma, np.stack([decomp[i].gamma_matrix() for i in range(3)]))
        assert decomp.lone_vector is None        # N_p = 6 is even: no unpaired vector

    def test_certificates_refuse_a_stacked_design(self):
        from pilotspace.pilot import design_observation_matrix, verify_optimality_certificates

        stack = self.stack()
        design = design_observation_matrix(canonical_decompose(stack), 1.0)
        with pytest.raises(ValueError, match=r"one design, got a stack of batch shape \(3,\)"):
            verify_optimality_certificates(design)
        for i in range(3):          # each slice, designed on its own, passes
            one = design_observation_matrix(canonical_decompose(stack[i]), 1.0)
            cert = verify_optimality_certificates(one)
            assert cert["diagonal_residual"] <= 1e-10 and cert["dk_residual"] <= 1e-10
