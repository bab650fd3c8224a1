"""Tests for the Fisher information matrix and the three CRB forms."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pilotspace.crb import (
    NoiseModel,
    _fisher,
    _is_singular,
    check_identifiability,
    compression_spectra,
    crb_direct,
    crb_min,
    crb_via_variation_space,
)
from pilotspace.pilot import design_observation_matrix
from pilotspace.rlinalg import RBasis, compression_matrix, r_orthonormalize, real_gram
from pilotspace.variation import (
    ParametricChannelModel,
    canonical_decompose,
    variation_space,
)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def constant_gradient_model(G):
    G = np.asarray(G, dtype=complex)
    return ParametricChannelModel(
        n_dims=G.shape[0],
        n_params=G.shape[1],
        evaluate=lambda theta: G @ np.asarray(theta, dtype=float),
        gradient=lambda theta: G,
        name="synthetic",
    )


def random_instance(rng, n_dim=None, n_params=None, n_obs=None):
    n_dim = n_dim or int(rng.integers(3, 9))
    n_params = n_params or int(rng.integers(2, min(2 * n_dim, 7)))
    n_obs = n_obs or int(rng.integers(math.ceil(n_params / 2), n_dim + 2))
    G = random_complex(rng, n_dim, n_params)
    M = random_complex(rng, n_dim, n_obs)
    return constant_gradient_model(G), M


class TestFim:
    """The real Fisher matrix kernel (2/sigma^2) Re{dh^H M M^H dh}."""

    def test_zero_observation(self):
        model, _ = random_instance(np.random.default_rng(0), 5, 3, 2)
        I = _fisher(model.gradient(np.zeros(3)), np.zeros((5, 2)), NoiseModel(1.0))
        assert np.allclose(I, 0.0)

    def test_scalar_model(self):
        b = np.array([0.6, 0.8j])
        model = constant_gradient_model(b.reshape(-1, 1))
        P, sigma2 = 2.0, 0.5
        M = math.sqrt(P) * b.reshape(-1, 1)
        I = _fisher(model.gradient(np.zeros(1)), M, NoiseModel(sigma2))
        assert I == pytest.approx(np.array([[2 * P / sigma2]]))

    def test_naive_loop_oracle(self):
        rng = np.random.default_rng(1)
        model, M = random_instance(rng, 5, 4, 3)
        sigma2 = 0.7
        grad = model.gradient(np.zeros(4))
        naive = np.zeros((4, 4))
        MMH = M @ np.conj(M.T)
        for i in range(4):
            for j in range(4):
                naive[i, j] = (2 / sigma2) * np.real(
                    np.conj(grad[:, i]) @ MMH @ grad[:, j]
                )
        I = _fisher(grad, M, NoiseModel(sigma2))
        assert np.allclose(I, naive, atol=1e-9)
        eigs = np.linalg.eigvalsh(I)
        assert np.allclose(I, I.T) and eigs.min() >= -1e-9


class TestCrbDirect:
    def test_scalar_inversion(self):
        b = np.array([1.0, 1j]) / math.sqrt(2)
        model = constant_gradient_model(b.reshape(-1, 1))
        P, sigma2 = 3.0, 0.25
        rep = crb_direct(model, np.zeros(1), math.sqrt(P) * b.reshape(-1, 1), NoiseModel(sigma2))
        assert rep.identifiable
        assert rep.value == pytest.approx(sigma2 / (2 * P), rel=1e-12)

    def test_ls_orthonormal_pilots(self):
        from pilotspace.models import ls_model

        n_tx, P, sigma2 = 4, 1.5, 0.3
        rng = np.random.default_rng(2)
        B, _ = np.linalg.qr(random_complex(rng, n_tx, n_tx))
        M = math.sqrt(P / n_tx) * B
        rep = crb_direct(ls_model(n_tx), np.zeros(2 * n_tx), M, NoiseModel(sigma2))
        assert rep.value == pytest.approx(sigma2 * n_tx**2 / P, rel=1e-10)

    def test_singular_fim_is_a_value(self):
        rng = np.random.default_rng(3)
        model, _ = random_instance(rng, 5, 4, 3)
        M = random_complex(rng, 5, 1)  # one observation for 4 parameters
        rep = crb_direct(model, np.zeros(4), M, NoiseModel(1.0))
        assert not rep.identifiable
        assert math.isinf(rep.value)

    def test_graded_columns_match_basis_form(self):
        # Column norms spread over six decades put cond(FIM) near 1e12, past
        # 1/EIG_RTOL; the CRB itself does not depend on parameter units, and
        # neither does the verdict on the Jacobi-scaled FIM.
        for seed in range(300, 500):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 10))
            k = int(rng.integers(2, n + 1))
            G = random_complex(rng, n, k) * np.logspace(0, 6, k)
            M = random_complex(rng, n, n)
            rep = crb_direct(constant_gradient_model(G), np.zeros(k), M, NoiseModel(1.0))
            ref = crb_via_variation_space(r_orthonormalize(G)[0], M, NoiseModel(1.0))
            assert rep.identifiable and math.isfinite(rep.value), seed
            assert rep.value == pytest.approx(ref.value, rel=1e-8), seed

    def test_unobserved_parameter_is_singular(self):
        # M is complex-orthogonal to the first gradient column up to rounding:
        # that FIM diagonal entry is noise, and the Jacobi scaling must not
        # blow it up into an identifiable direction.
        rng = np.random.default_rng(503)
        G = random_complex(rng, 6, 3)
        q = G[:, :1] / np.linalg.norm(G[:, 0])
        M = random_complex(rng, 6, 4)
        M = M - q @ (np.conj(q.T) @ M)
        rep = crb_direct(constant_gradient_model(G), np.zeros(3), M, NoiseModel(1.0))
        assert not rep.identifiable and math.isinf(rep.value)
        assert not crb_via_variation_space(r_orthonormalize(G)[0], M,
                                           NoiseModel(1.0)).identifiable


class TestCrbDirectDiagnostic:
    """The direct form factors the Fisher matrix only: no basis, no compression."""

    def test_zero_on_rank_deficient_gradient(self):
        rng = np.random.default_rng(500)
        G = random_complex(rng, 6, 3)
        G[:, 2] = 2.0 * G[:, 0] - G[:, 1]
        rep = crb_direct(constant_gradient_model(G), np.zeros(3), random_complex(rng, 6, 3),
                         NoiseModel(1.0))
        assert rep.min_eig_compression is None
        assert not rep.identifiable and math.isinf(rep.value)

    def test_reports_fim_not_compression(self, monkeypatch):
        # The report comes from the Fisher matrix, and no compression is formed.
        import pilotspace.crb as crb_module

        fisher_calls = []
        real_fisher = crb_module._fisher
        monkeypatch.setattr(crb_module, "_fisher",
                            lambda *args: fisher_calls.append(1) or real_fisher(*args))
        monkeypatch.setattr(crb_module, "compression_spectra", None)
        monkeypatch.setattr(crb_module, "compression_matrix", None)
        model, M = random_instance(np.random.default_rng(502), 6, 4, 3)
        rep = crb_direct(model, np.zeros(4), M, NoiseModel(0.6))
        assert rep.identifiable and rep.min_eig_compression is None
        assert fisher_calls == [1]

    def test_builds_no_basis(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("crb_direct built a second basis")

        monkeypatch.setattr(RBasis, "__post_init__", forbidden)
        model, M = random_instance(np.random.default_rng(501), 6, 4, 3)
        assert crb_direct(model, np.zeros(4), M, NoiseModel(1.0)).identifiable


@pytest.fixture
def linalg_calls(monkeypatch):
    """Names of the np.linalg.svd / np.linalg.solve calls made during a test."""
    calls = []
    for name in ("svd", "solve"):
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestCrbDirectFactorizations:
    """The FIM is solved by Cholesky: no SVD and no general solve, full rank or not."""

    @staticmethod
    def solve_route(G, M, noise):
        # Reference: Tr[dh I^{-1} dh^H] through a general linear solve.
        I = _fisher(G, M, noise)
        return float(np.real(np.einsum("ik,ki->", G, np.linalg.solve(I, np.conj(G.T)))))

    @pytest.mark.parametrize("seed", range(6))
    def test_value_matches_linear_solve(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, 2 * n + 1))
        G = random_complex(rng, n, k)
        if seed % 2:
            G = G * np.logspace(0, 2, k)
        M = random_complex(rng, n, n)
        noise = NoiseModel(0.7)
        rep = crb_direct(constant_gradient_model(G), np.zeros(k), M, noise)
        assert rep.identifiable
        assert rep.value == pytest.approx(self.solve_route(G, M, noise), rel=1e-10)

    def test_success_path_skips_svd_and_solve(self, linalg_calls):
        from pilotspace.models import ls_model

        rng = np.random.default_rng(710)
        model, M = random_instance(rng, 6, 4, 3)
        assert crb_direct(model, np.zeros(4), M, NoiseModel(1.0)).identifiable
        # LS: the stacked gradient is square (k = 2n).
        rep = crb_direct(ls_model(5), np.zeros(10), random_complex(rng, 5, 5), NoiseModel(1.0))
        assert rep.identifiable
        assert linalg_calls == []

    def test_rank_deficient_gradient_uses_svd(self, linalg_calls):
        rng = np.random.default_rng(711)
        G = random_complex(rng, 6, 3)
        G = np.concatenate([G, G[:, :1]], axis=1)
        rep = crb_direct(constant_gradient_model(G), np.zeros(4), random_complex(rng, 6, 6),
                         NoiseModel(1.0))
        assert rep.min_eig_compression is None
        assert not rep.identifiable
        # The eigenvalue test on the FIM decides; no rank test runs.
        assert linalg_calls == []


@pytest.fixture
def certified(monkeypatch):
    """The verdict of each certificate that crb_direct takes from the kernel
    rlinalg.condition_bound on its Cholesky factor R:
    condition_bound(R)^2 EIG_RTOL < RANK_CERT_MARGIN."""
    import pilotspace.crb as crb_module

    verdicts = []
    real_bound = crb_module.condition_bound

    def recording(R):
        bound = real_bound(R)
        verdicts.append(bool(bound**2 * crb_module.EIG_RTOL < crb_module.RANK_CERT_MARGIN))
        return bound

    monkeypatch.setattr(crb_module, "condition_bound", recording)
    return verdicts


class TestCrbDirectCertificate:
    """The Cholesky factor of the Jacobi-scaled FIM certifies the verdict
    where it can; otherwise one eigvalsh call decides, as it always did."""

    @staticmethod
    def graded_case(seed, ratio, n=12, k=8):
        # Real G with orthonormal columns and M = G V diag(sqrt(lambda)):
        # the FIM is (2/sigma^2) V diag(lambda) V^T, lambda graded to ratio.
        rng = np.random.default_rng(seed)
        G, _ = np.linalg.qr(rng.normal(size=(n, k)))
        V, _ = np.linalg.qr(rng.normal(size=(k, k)))
        M = (G @ V) * np.sqrt(np.geomspace(1.0, ratio, k))
        return constant_gradient_model(G), M.astype(complex)

    def test_verdict_is_the_eigenvalue_verdict(self, monkeypatch, certified):
        eig_calls = []
        real_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda A: eig_calls.append(A.shape) or real_eigvalsh(A))
        noise = NoiseModel(0.8)
        outcomes = set()
        for ratio in np.geomspace(1e-12, 1e-8, 33):
            for seed in range(4):
                model, M = self.graded_case(seed, ratio)
                k = model.n_params
                I = _fisher(model.gradient(np.zeros(k)), M, noise)
                scale = 1.0 / np.sqrt(np.diag(I))
                eigs = real_eigvalsh((scale[:, None] * I) * scale)
                expected = not _is_singular(eigs[0], eigs[-1], 1.0)
                eig_calls.clear()
                certified.clear()
                rep = crb_direct(model, np.zeros(k), M, noise)
                assert rep.identifiable == expected and math.isinf(rep.value) != expected
                if certified == [True]:
                    assert eig_calls == []
                else:
                    assert eig_calls == [(k, k)]
                outcomes.add((expected, certified == [True]))
        # Certified, identifiable but uncertified, and singular all occur.
        assert outcomes == {(True, True), (True, False), (False, False)}

    def test_singular_fim_without_cholesky_factor(self, monkeypatch):
        # Exactly dependent columns: the in-place Cholesky fails or is not
        # certified, and the one eigvalsh call declares the FIM singular.
        eig_calls = []
        real_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda A: eig_calls.append(A.shape) or real_eigvalsh(A))
        rng = np.random.default_rng(720)
        G = random_complex(rng, 6, 3)
        G = np.concatenate([G, G[:, :1]], axis=1)
        rep = crb_direct(constant_gradient_model(G), np.zeros(4), random_complex(rng, 6, 6),
                         NoiseModel(1.0))
        assert not rep.identifiable and math.isinf(rep.value)
        assert eig_calls == [(4, 4)]


class TestNonFiniteObservation:
    """A NaN in M is an error, not a bound of nan declared identifiable."""

    @pytest.fixture
    def bad(self):
        rng = np.random.default_rng(600)
        model, M = random_instance(rng, 6, 4, 3)
        M[2, 1] = np.nan
        return model, variation_space(model, np.zeros(4)), M

    def test_via_variation_space(self, bad):
        _, basis, M = bad
        with pytest.raises(ValueError, match="non-finite"):
            crb_via_variation_space(basis, M, NoiseModel(1.0))

    def test_check_identifiability(self, bad):
        _, basis, M = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_identifiability(basis, M)

    def test_direct_and_fim(self, bad, monkeypatch):
        # crb_direct raises before it forms a Fisher matrix of the bad M.
        import pilotspace.crb as crb_module

        monkeypatch.setattr(crb_module, "_fisher", None)
        monkeypatch.setattr(crb_module, "_complex_fisher", None)
        model, _, M = bad
        with pytest.raises(ValueError, match="non-finite"):
            crb_direct(model, np.zeros(4), M, NoiseModel(1.0))


def previous_compression_spectrum(basis, M):
    """The 2-D compression spectrum and verdict as the basis forms computed
    them before the batched kernel."""
    X = np.conj(M.T) @ basis.U
    C = X.real.T @ X.real + X.imag.T @ X.imag
    eigs = np.linalg.eigvalsh(0.5 * (C + C.T))
    return eigs, bool(_is_singular(eigs[0], eigs[-1], float(np.linalg.norm(M) ** 2)))


def previous_compression_spectra(basis, Ms):
    """The stacked compression spectra and verdicts as the multipath trial
    computed them before the batched kernel."""
    X = np.conj(np.swapaxes(Ms, 1, 2)) @ basis.U
    C = np.swapaxes(X.real, 1, 2) @ X.real + np.swapaxes(X.imag, 1, 2) @ X.imag
    eigs = np.linalg.eigvalsh(0.5 * (C + np.swapaxes(C, 1, 2)))
    energy = np.linalg.norm(Ms, axis=(1, 2)) ** 2
    return eigs, _is_singular(eigs[:, 0], eigs[:, -1], energy)


def kernel_inputs(rng, n_dim, k):
    """A random basis and observation matrices of several widths, among them
    undersized (singular) and zero ones."""
    basis, _ = r_orthonormalize(random_complex(rng, n_dim, k))
    widths = (1, math.ceil(k / 2), n_dim + 1)
    Ms = [random_complex(rng, n_dim, m) for m in widths] + [np.zeros((n_dim, 2))]
    return basis, Ms


class TestCompressionKernel:
    """compression_spectra is bit-identical to the code it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    def test_stack_of_one_equals_2d_code(self, seed):
        rng = np.random.default_rng([40, seed])
        n_dim = int(rng.integers(2, 9))
        basis, Ms = kernel_inputs(rng, n_dim, int(rng.integers(1, 2 * n_dim + 1)))
        for M in Ms:
            eigs, singular = compression_spectra(basis, M[None])
            ref_eigs, ref_singular = previous_compression_spectrum(basis, M)
            assert eigs.shape == (1, basis.dim) and singular.shape == (1,)
            assert np.array_equal(eigs[0], ref_eigs)
            assert singular[0] == ref_singular
            rep = crb_via_variation_space(basis, M, NoiseModel(0.7))
            assert rep.min_eig_compression == ref_eigs[0]
            assert rep.value == (math.inf if ref_singular
                                 else 0.5 * 0.7 * float(np.sum(1.0 / ref_eigs)))
            verdict = check_identifiability(basis, M)
            assert (verdict.min_eig, verdict.max_eig) == (ref_eigs[0], ref_eigs[-1])
        assert ref_singular            # the last matrix is zero

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n_stack", [1, 2, 5])
    def test_stack_equals_stacked_code(self, seed, n_stack):
        rng = np.random.default_rng([41, seed])
        n_dim, k = int(rng.integers(2, 9)), int(rng.integers(1, 7))
        basis, _ = r_orthonormalize(random_complex(rng, n_dim, k))
        Ms = random_complex(rng, n_stack, n_dim, int(rng.integers(1, 6)))
        Ms[-1] *= 0.0
        eigs, singular = compression_spectra(basis, Ms)
        ref_eigs, ref_singular = previous_compression_spectra(basis, Ms)
        assert np.array_equal(eigs, ref_eigs)
        assert np.array_equal(singular, ref_singular)
        assert singular[-1]
        for i in range(n_stack):
            one_eigs, one_singular = compression_spectra(basis, Ms[i:i + 1])
            assert np.array_equal(one_eigs[0], eigs[i])
            assert one_singular[0] == singular[i]

    def test_rejects_bad_stack(self):
        basis, _ = r_orthonormalize(random_complex(np.random.default_rng(42), 5, 3))
        with pytest.raises(ValueError, match="rows"):
            compression_spectra(basis, np.ones((2, 4, 2), dtype=complex))
        Ms = np.ones((2, 5, 2), dtype=complex)
        Ms[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            compression_spectra(basis, Ms)


def pair_route_cases():
    """Pair-structured bases (q_1, -j q_1, ...), one pytest param each: LS for
    N_t = 1..16, angle-constrained steering spans and random complex Q."""
    from pilotspace.models import UlaGeometry, angle_constrained_model, ls_model

    rng = np.random.default_rng(43)
    cases = [pytest.param(ls_model(n), id=f"ls-{n}") for n in range(1, 17)]
    for n_tx, L in [(8, 1), (16, 3), (64, 6)]:
        azimuths = rng.uniform(-1.2, 1.2, size=L)
        cases.append(pytest.param(angle_constrained_model(UlaGeometry(n_tx), azimuths),
                                  id=f"ac-{n_tx}-{L}"))
    for shape in [(1, 1), (5, 3), (9, 9), (12, 5)]:
        A = random_complex(rng, *shape)
        cases.append(pytest.param(constant_gradient_model(np.hstack([A, 1j * A])),
                                  id=f"random-{shape[0]}x{shape[1]}"))
    return cases


def pair_basis(model):
    basis = variation_space(model, np.zeros(model.n_params))
    assert np.array_equal(basis.U[:, 1::2], -1j * basis.U[:, 0::2])
    return basis


@pytest.fixture
def no_real_compression(monkeypatch):
    """Fail on the real route of compression_spectra."""
    import pilotspace.crb as crb_module

    def fail(*args):
        raise AssertionError("real compression on a pair-structured basis")

    monkeypatch.setattr(crb_module, "compression_matrix", fail)


class TestComplexPairRoute:
    """A basis (q_1, -j q_1, ...) is handled in r x r complex algebra."""

    @pytest.mark.parametrize("model", pair_route_cases())
    def test_spectra_match_real_compression(self, model, no_real_compression):
        rng = np.random.default_rng([44, model.n_dims, model.n_params])
        basis = pair_basis(model)
        n, r = basis.ambient_dim, basis.dim // 2
        design = design_observation_matrix(canonical_decompose(basis), 1.3)
        Ms = [design.M, random_complex(rng, n, n + 1), np.zeros((n, 2))]
        if r > 1:
            Ms.append(random_complex(rng, n, r - 1))      # undersized: singular
        verdicts = []
        for M in Ms:
            eigs, singular = compression_spectra(basis, M[None])
            ref_eigs, ref_singular = previous_compression_spectrum(basis, M)
            assert eigs.shape == (1, basis.dim)
            assert np.all(np.diff(eigs[0]) >= 0.0)
            assert np.abs(eigs[0] - ref_eigs).max() <= 1e-12 * max(ref_eigs[-1], 0.0)
            assert singular[0] == ref_singular
            verdicts.append(ref_singular)
        assert verdicts[:3] == [False, False, True]
        assert all(verdicts[3:])
        stack = np.stack([design.M, 0.0 * design.M, 2.0 * design.M])
        eigs, singular = compression_spectra(basis, stack)
        ref_eigs, ref_singular = previous_compression_spectra(basis, stack)
        assert np.abs(eigs - ref_eigs).max() <= 1e-12 * ref_eigs[..., -1].max()
        assert np.array_equal(singular, ref_singular)
        for i in range(len(stack)):
            one_eigs, one_singular = compression_spectra(basis, stack[i:i + 1])
            assert np.array_equal(one_eigs[0], eigs[i]) and one_singular[0] == singular[i]

    def test_stacked_bases_and_empty_stack(self, no_real_compression):
        from pilotspace.models import ls_model

        rng = np.random.default_rng(45)
        A = random_complex(rng, 6, 3)
        single = [pair_basis(ls_model(6)).U[:, :6],
                  pair_basis(constant_gradient_model(np.hstack([A, 1j * A]))).U]
        bases = RBasis(np.stack(single))
        Ms = random_complex(rng, 2, 4, 6, 3)
        eigs, singular = compression_spectra(bases[:, None], Ms)
        assert eigs.shape == (2, 4, 6) and not singular.any()
        for s in range(2):
            ref_eigs, _ = compression_spectra(RBasis(single[s]), Ms[s])
            assert np.array_equal(eigs[s], ref_eigs)
        eigs, singular = compression_spectra(RBasis(single[0]), np.zeros((0, 6, 3)))
        assert eigs.shape == (0, 6) and singular.shape == (0,)

    @pytest.mark.parametrize("model", pair_route_cases()[::3])
    def test_decompose_keeps_the_basis(self, model, monkeypatch):
        import pilotspace.rlinalg as rl

        def fail(*args, **kwargs):
            raise AssertionError("Schur form on a pair-structured basis")

        basis = pair_basis(model)
        assert canonical_decompose(basis) is basis      # the model's own decomposition
        # A basis built by hand is already canonical: no Schur form, B = I.
        monkeypatch.setattr(rl, "_real_schur", fail)
        eps = np.finfo(float).eps
        decomp = canonical_decompose(RBasis(basis.U))
        assert np.array_equal(decomp.V, basis.U)
        assert decomp.c.shape == (model.n_params // 2,)
        assert np.abs(decomp.c - 1.0).max() <= 4 * eps
        stacked = canonical_decompose(RBasis(np.stack([basis.U, basis.U])))
        assert np.array_equal(stacked.V, np.stack([basis.U, basis.U]))
        assert stacked.c.shape == (2, model.n_params // 2)
        assert np.abs(stacked.c - 1.0).max() <= 4 * eps

    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_orthonormal_pairs_raise_with_complex_defect(self, stacked):
        rng = np.random.default_rng(46)
        Q, _ = np.linalg.qr(random_complex(rng, 7, 3))
        Q[2, 1] += 1e-6
        U = np.empty((7, 6), dtype=complex)
        U[:, 0::2] = Q
        U[:, 1::2] = -1j * Q
        defect = math.sqrt(2.0) * np.linalg.norm(np.conj(Q.T) @ Q - np.eye(3))
        real_defect = np.linalg.norm(real_gram(U) - np.eye(6))
        assert defect == pytest.approx(real_defect, rel=1e-12)
        good = pair_basis(constant_gradient_model(np.hstack([Q, 1j * Q]))).U
        with pytest.raises(ValueError, match="real-orthonormal") as err:
            RBasis(np.stack([good, U]) if stacked else U)
        assert f"||Re(U^H U) - I||_F = {defect:.3e}" in str(err.value)

    @pytest.mark.parametrize("column", [1, 5])
    def test_one_ulp_off_takes_the_real_route(self, column, monkeypatch):
        import pilotspace.variation as var

        rng = np.random.default_rng(47)
        A = random_complex(rng, 5, 3)
        U = pair_basis(constant_gradient_model(np.hstack([A, 1j * A]))).U.copy()
        U[3, column] = complex(np.nextafter(U[3, column].real, np.inf), U[3, column].imag)
        basis = RBasis(U)
        for M in [random_complex(rng, 5, 5), random_complex(rng, 5, 2), np.zeros((5, 2))]:
            eigs, singular = compression_spectra(basis, M[None])
            ref_eigs, ref_singular = previous_compression_spectrum(basis, M)
            assert np.array_equal(eigs[0], ref_eigs) and singular[0] == ref_singular
        Ms = random_complex(rng, 3, 5, 4)
        eigs, singular = compression_spectra(basis, Ms)
        ref_eigs, ref_singular = previous_compression_spectra(basis, Ms)
        assert np.array_equal(eigs, ref_eigs) and np.array_equal(singular, ref_singular)
        # The real route forms Im{U^H U} and puts it through
        # skew_canonical_form once; that form is canonical, so it takes no
        # Schur form and the basis is kept through V = U @ I, a new array.
        import pilotspace.rlinalg as rl

        calls = []
        real_form = var.skew_canonical_form
        monkeypatch.setattr(var, "skew_canonical_form",
                            lambda A: calls.append(A) or real_form(A))
        monkeypatch.setattr(rl, "_real_schur",
                            lambda A: pytest.fail("Schur form of a canonical Im{U^H U}"))
        decomp = canonical_decompose(basis)
        assert len(calls) == 1
        assert decomp.V is not basis.U and np.array_equal(decomp.V, U @ np.eye(6))
        assert np.abs(decomp.c - 1.0).max() <= 1e-12


class TestCrbViaVariationSpace:
    def test_complex_line_pair(self):
        rng = np.random.default_rng(4)
        b = random_complex(rng, 6)
        b /= np.linalg.norm(b)
        basis = RBasis(np.stack([b, -1j * b], axis=1))
        P, sigma2 = 2.0, 1.3
        rep = crb_via_variation_space(basis, math.sqrt(P) * b.reshape(-1, 1), NoiseModel(sigma2))
        # Re{U^H M M^H U} = P I_2 by hand.
        assert rep.value == pytest.approx(sigma2 / P, rel=1e-12)

    def test_orthogonal_observation_infinite(self):
        rng = np.random.default_rng(5)
        basis, _ = r_orthonormalize(random_complex(rng, 6, 2))
        # M inside the complex orthogonal complement of span_C(U): then
        # M^H z = 0 for every variation direction z.
        Qc, _ = np.linalg.qr(basis.U)  # complex QR: C-orthonormal span basis
        M = random_complex(rng, 6, 2)
        M = M - Qc @ (np.conj(Qc.T) @ M)
        rep = crb_via_variation_space(basis, M, NoiseModel(1.0))
        assert not rep.identifiable and math.isinf(rep.value)

    def test_invariant_under_real_rotation(self):
        from scipy.stats import ortho_group

        rng = np.random.default_rng(6)
        basis, _ = r_orthonormalize(random_complex(rng, 7, 4))
        M = random_complex(rng, 7, 3)
        ref = crb_via_variation_space(basis, M, NoiseModel(1.0)).value
        for seed in range(3):
            B = ortho_group.rvs(4, random_state=seed)
            rot = RBasis(basis.U @ B)
            assert crb_via_variation_space(rot, M, NoiseModel(1.0)).value == pytest.approx(
                ref, rel=1e-8
            )

    def test_matches_direct_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            model, M = random_instance(rng)
            noise = NoiseModel(float(rng.uniform(0.1, 2.0)))
            direct = crb_direct(model, np.zeros(model.n_params), M, noise)
            via = crb_via_variation_space(
                variation_space(model, np.zeros(model.n_params)), M, noise
            )
            if direct.identifiable:
                assert via.value == pytest.approx(direct.value, rel=1e-8)
            else:
                assert not via.identifiable


class TestCheckIdentifiability:
    def test_counting_bound(self):
        rng = np.random.default_rng(8)
        model, _ = random_instance(rng, 6, 5, 3)
        basis = variation_space(model, np.zeros(5))
        M = random_complex(rng, 6, 2)  # ceil(5/2) - 1 = 2 columns
        verdict = check_identifiability(basis, M)
        assert not verdict.identifiable
        assert not verdict.count_sufficient
        assert verdict.n_obs_required == 3

    def test_optimal_design_identifiable(self):
        rng = np.random.default_rng(9)
        basis, _ = r_orthonormalize(random_complex(rng, 6, 5))
        design = design_observation_matrix(canonical_decompose(RBasis(basis.U)), 1.0)
        verdict = check_identifiability(basis, design.M)
        assert verdict.identifiable

    def test_generic_full_rank(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            model, _ = random_instance(rng, 6, 4)
            basis = variation_space(model, np.zeros(4))
            M = random_complex(rng, 6, 4)
            assert check_identifiability(basis, M).identifiable


class TestCrbMin:
    def test_all_ones_even(self):
        res = crb_min([1.0, 1.0], 4, NoiseModel(0.5), 2.0)
        assert res.value == pytest.approx(0.5 * 16 / (4 * 2.0), rel=1e-12)
        assert res.value == pytest.approx(res.lower_bound, rel=1e-12)

    def test_all_zeros(self):
        res = crb_min([0.0, 0.0], 4, NoiseModel(0.5), 2.0)
        assert res.value == pytest.approx(res.upper_bound, rel=1e-12)

    def test_single_parameter(self):
        res = crb_min([], 1, NoiseModel(1.0), 4.0)
        assert res.epsilon == 1
        assert res.value == pytest.approx(2.0 / 4.0 * 0.25, rel=1e-12)

    def test_single_path_matches_design(self):
        from pilotspace.models import UlaGeometry, physical_model

        geom = UlaGeometry(8)
        vb = variation_space(physical_model(geom, 1), np.array([1.0, 0.0, 0.3]))
        dec = canonical_decompose(vb)
        sigma2, P = 0.8, 1.7
        res = crb_min(dec.c, 3, NoiseModel(sigma2), P)
        assert res.value == pytest.approx(
            2 * sigma2 / P * (1 / math.sqrt(2) + 0.5) ** 2, rel=1e-10
        )
        design = design_observation_matrix(dec, P, sigma2=sigma2)
        rep = crb_via_variation_space(vb, design.M, NoiseModel(sigma2))
        assert rep.value == pytest.approx(res.value, rel=1e-9)

    def test_rejects_bad_couplings(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            crb_min([1.5], 2, NoiseModel(1.0), 1.0)
        with pytest.raises(ValueError, match="couplings"):
            crb_min([0.5, 0.5], 3, NoiseModel(1.0), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12),
        st.lists(st.floats(0.0, 1.0), min_size=0, max_size=6),
        st.floats(0.01, 100.0),
        st.floats(0.01, 100.0),
    )
    def test_universal_bounds(self, n_pairs_extra, c_list, sigma2, power):
        n_params = 2 * len(c_list) + (n_pairs_extra % 2)
        if n_params == 0:
            return
        res = crb_min(c_list, n_params, NoiseModel(sigma2), power)
        assert res.lower_bound <= res.value * (1 + 1e-12)
        assert res.value <= res.upper_bound * (1 + 1e-12)


class TestNoiseModel:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="positive"):
            NoiseModel(0.0)
        with pytest.raises(ValueError, match="positive"):
            NoiseModel(-1.0)

    @pytest.mark.parametrize("sigma2", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_variance(self, sigma2):
        with pytest.raises(ValueError, match="sigma2 must be finite and positive"):
            NoiseModel(sigma2)


class TestCrbMinPower:
    @pytest.mark.parametrize("power", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_power_that_is_not_finite_and_positive(self, power):
        with pytest.raises(ValueError, match="power must be finite and positive"):
            crb_min([0.5], 2, NoiseModel(1.0), power)


class TestKroneckerIntegration:
    def test_wideband_ls_crb(self):
        # Full observation matrix Id_{N_r} (x) X (x) F, with F selecting the
        # pilot subcarriers, against an LS model of the stacked channel
        # dimension N_r N_t N_f.
        from pilotspace.models import ls_model

        rng = np.random.default_rng(21)
        n_rx, n_tx, n_sub = 2, 3, 4
        n_dim = n_rx * n_tx * n_sub
        model = ls_model(n_dim)
        theta = np.zeros(2 * n_dim)
        noise = NoiseModel(0.5)

        # Too few pilot subcarriers: T n_ps < n_tx n_sub per receive antenna.
        X = random_complex(rng, n_tx, 3)
        M_short = np.kron(np.kron(np.eye(n_rx), X), np.eye(n_sub)[:, [0, 2]])
        assert M_short.shape == (n_dim, n_rx * 3 * 2)
        assert not crb_direct(model, theta, M_short, noise).identifiable

        # Full pilot grid: identifiable, and the two CRB forms agree.
        X_full = random_complex(rng, n_tx, n_tx)
        M_full = np.kron(np.kron(np.eye(n_rx), X_full), np.eye(n_sub))
        rep = crb_direct(model, theta, M_full, noise)
        assert rep.identifiable
        via = crb_via_variation_space(variation_space(model, theta), M_full, noise)
        assert via.value == pytest.approx(rep.value, rel=1e-8)


@st.composite
def random_space(draw):
    """(rng, U, M): an RBasis U of a random k-dimensional real subspace of
    C^n (n <= 8, k <= 2n) and M with at least ceil(k/2) columns.

    Draws whose compression has condition number 1e6 or more are
    rejected: the invariances hold to rounding ~eps cond, and such draws
    are rare (0.05% of plain draws).
    """
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 2 * n))
    m = draw(st.integers(math.ceil(k / 2), math.ceil(k / 2) + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, _ = r_orthonormalize(random_complex(rng, n, k))
    M = random_complex(rng, n, m)
    assume(np.linalg.cond(compression_matrix(U, M)) < 1e6)
    return rng, U, M


def random_orthogonal(rng, k, dtype=float):
    Z = rng.normal(size=(k, k))
    if dtype is complex:
        Z = Z + 1j * rng.normal(size=(k, k))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


class TestCrbInvariances:
    """Properties of the bound over random variation spaces, not only ULA models."""

    @settings(max_examples=100, deadline=None)
    @given(random_space())
    def test_invariant_under_basis_and_observation_rotation(self, space):
        rng, U, M = space
        noise = NoiseModel(0.8)
        ref = crb_via_variation_space(U, M, noise)
        B = random_orthogonal(rng, U.dim)
        Q = random_orthogonal(rng, M.shape[1], dtype=complex)
        for basis, obs in ((RBasis(U.U @ B), M), (U, M @ Q), (RBasis(U.U @ B), M @ Q)):
            rep = crb_via_variation_space(basis, obs, noise)
            assert rep.identifiable
            assert rep.value == pytest.approx(ref.value, rel=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(random_space(), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    def test_scales_as_sigma2_over_power(self, space, sigma2, power):
        _, U, M = space
        unit = crb_via_variation_space(U, M / np.linalg.norm(M), NoiseModel(1.0)).value
        M_p = math.sqrt(power) * M / np.linalg.norm(M)
        value = crb_via_variation_space(U, M_p, NoiseModel(sigma2)).value
        assert value == pytest.approx(sigma2 / power * unit, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(random_space())
    def test_direct_form_matches(self, space):
        # Any gradient spanning the space over R: G = U T with a real T of
        # singular values in [1, 10], so the FIM stays well conditioned.
        rng, U, M = space
        k = U.dim
        T = random_orthogonal(rng, k) @ np.diag(rng.uniform(1.0, 10.0, k)) @ random_orthogonal(rng, k)
        noise = NoiseModel(0.6)
        direct = crb_direct(constant_gradient_model(U.U @ T), np.zeros(k), M, noise)
        via = crb_via_variation_space(U, M, noise)
        assert direct.identifiable and via.identifiable
        assert direct.value == pytest.approx(via.value, rel=1e-8)


    @settings(max_examples=100, deadline=None)
    @given(random_space(), st.floats(0.01, 100.0))
    def test_design_attains_crb_min(self, space, power):
        # Minimal length, full power and the closed-form optimum, for any space.
        _, U, _ = space
        decomp = canonical_decompose(U)
        design = design_observation_matrix(decomp, power)
        assert design.n_columns == math.ceil(U.dim / 2)
        assert np.linalg.norm(design.M) ** 2 == pytest.approx(power, rel=1e-12)
        best = crb_min(decomp.c, decomp.n_params, NoiseModel(1.0), power).value
        assert design.achieved_crb == pytest.approx(best, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(random_space())
    def test_couplings_invariant_under_unitary_map(self, space):
        # A unitary W of C^n maps the space to W U with the same Im{U^H U}.
        rng, U, _ = space
        W = random_orthogonal(rng, U.ambient_dim, dtype=complex)
        c = canonical_decompose(U).c
        c_mapped = canonical_decompose(RBasis(W @ U.U)).c
        np.testing.assert_allclose(c_mapped, c, rtol=0, atol=1e-10)


class TestCrbProperties:
    def test_three_form_agreement(self):
        rng = np.random.default_rng(11)
        noise = NoiseModel(0.9)
        for _ in range(20):
            model, M = random_instance(rng)
            theta = np.zeros(model.n_params)
            direct = crb_direct(model, theta, M, noise)
            if not direct.identifiable:
                continue
            basis = variation_space(model, theta)
            via = crb_via_variation_space(basis, M, noise)
            comp = compression_matrix(basis, M)
            intrinsic = 0.5 * noise.sigma2 * np.trace(np.linalg.inv(comp))
            assert via.value == pytest.approx(direct.value, rel=1e-8)
            assert intrinsic == pytest.approx(direct.value, rel=1e-8)

    def test_monotone_in_observations(self):
        rng = np.random.default_rng(12)
        noise = NoiseModel(1.0)
        for _ in range(10):
            model, M = random_instance(rng)
            theta = np.zeros(model.n_params)
            base = crb_direct(model, theta, M, noise).value
            extra = np.hstack([M, random_complex(rng, M.shape[0], 1)])
            assert crb_direct(model, theta, extra, noise).value <= base * (1 + 1e-10)

    def test_power_scaling(self):
        rng = np.random.default_rng(13)
        model, M = random_instance(rng, 6, 4, 4)
        noise = NoiseModel(1.0)
        ref = crb_direct(model, np.zeros(4), M, noise).value
        for alpha in (0.5, 2.0, 7.0):
            scaled = crb_direct(model, np.zeros(4), alpha * M, noise).value
            assert scaled == pytest.approx(ref / alpha**2, rel=1e-9)

    def test_design_beats_random_matrices(self):
        rng = np.random.default_rng(14)
        basis, _ = r_orthonormalize(random_complex(rng, 6, 4))
        dec = canonical_decompose(RBasis(basis.U))
        P = 2.0
        noise = NoiseModel(1.0)
        design = design_observation_matrix(dec, P)
        best = crb_via_variation_space(basis, design.M, noise).value
        n_cols = design.M.shape[1]
        for _ in range(200):
            M = random_complex(rng, 6, n_cols)
            M *= math.sqrt(P) / np.linalg.norm(M)
            assert crb_via_variation_space(basis, M, noise).value >= best - 1e-9


class TestCrbDirectModelChecks:
    """crb_direct checks theta and the gradient as variation_space does."""

    @staticmethod
    def assert_rejected(model, theta, M, match):
        for form in (crb_direct, lambda mo, th, M, noise: variation_space(mo, th)):
            with pytest.raises(ValueError, match=match):
                form(model, theta, M, NoiseModel(1.0))

    @pytest.mark.parametrize("length", [5, 7])
    def test_physical_theta_of_wrong_length(self, length):
        from pilotspace.models import UlaGeometry, physical_model

        model = physical_model(UlaGeometry(8), 2)
        M = random_complex(np.random.default_rng(800), 8, 3)
        self.assert_rejected(model, np.full(length, 0.3), M,
                             f"theta has length {length}, model expects 6")

    @pytest.mark.parametrize("length", [1, 5, 7, 12])
    def test_ls_theta_of_wrong_length(self, length):
        from pilotspace.models import ls_model

        M = random_complex(np.random.default_rng(801), 3, 3)
        self.assert_rejected(ls_model(3), np.zeros(length), M,
                             f"theta has length {length}, model expects 6")

    def test_non_finite_gradient(self):
        G = random_complex(np.random.default_rng(803), 4, 4)
        G[1, 2] = np.nan
        with pytest.raises(ValueError, match="gradient contains non-finite entries"):
            crb_direct(constant_gradient_model(G), np.zeros(4), np.eye(4), NoiseModel(1.0))

    def test_gradient_of_wrong_shape(self):
        G = random_complex(np.random.default_rng(802), 3, 3)
        model = ParametricChannelModel(n_dims=3, n_params=2, evaluate=lambda theta: G[:, 0],
                                       gradient=lambda theta: G, name="wrong")
        self.assert_rejected(model, np.zeros(2), np.eye(3),
                             r"gradient shape \(3, 3\) inconsistent with model dims")


def previous_crb_direct(grad, M, noise):
    """(value, Fisher matrix) of crb_direct as the real route computed them before the
    complex route: (2/sigma^2) Re{dh^H M M^H dh}, the Jacobi-scaled Cholesky
    factor and one triangular solve of the stacked gradient."""
    from pilotspace.rlinalg import cholesky_in_place, solve_right, stacked_real

    I = (2.0 / noise.sigma2) * real_gram(np.conj(M.T) @ grad)
    I = 0.5 * (I + I.T)
    d = np.diag(I)
    bound = (2.0 / noise.sigma2) * float(np.linalg.norm(M) ** 2) * np.sum(
        np.abs(grad) ** 2, axis=0)
    if np.any(d <= 1e-14 * np.maximum(bound, 1e-300)):
        return math.inf, I
    scale = 1.0 / np.sqrt(d)
    S = scale[:, None] * I
    S *= scale
    R = cholesky_in_place(S)
    if R is None:
        return None, I
    X = stacked_real(grad)
    X *= scale
    return float(np.linalg.norm(solve_right(X, R)) ** 2), I


def complex_line_cases():
    """All-lines gradients, one pytest param each: (G, M) with G the halves
    (A, jA) or adjacent pairs (g, +/-j g), and the observation matrix."""
    from pilotspace.models import UlaGeometry, angle_constrained_model, ls_model

    rng = np.random.default_rng(810)
    cases = []
    for n in (1, 2, 5, 12):
        cases.append(pytest.param(ls_model(n).gradient(np.zeros(2 * n)),
                                  random_complex(rng, n, n), id=f"ls-{n}"))
    ac = angle_constrained_model(UlaGeometry(16), rng.uniform(-1.0, 1.0, 3))
    cases.append(pytest.param(ac.gradient(np.zeros(6)), random_complex(rng, 16, 4), id="ac"))
    for label, grade in (("", 1.0), ("graded-", np.logspace(0, 6, 4))):
        A = random_complex(rng, 9, 4) * grade
        cases.append(pytest.param(np.hstack([A, 1j * A]), random_complex(rng, 9, 5),
                                  id=f"{label}halves"))
        for signs in ((1, -1, 1, 1), (-1, -1, -1, -1)):
            G = np.empty((9, 8), dtype=complex)
            G[:, 0::2] = A
            G[:, 1::2] = 1j * A * np.array(signs)
            cases.append(pytest.param(G, random_complex(rng, 9, 4),
                                      id=f"{label}adjacent{signs}"))
    return cases


def singular_line_cases():
    """All-lines gradients with a singular Fisher matrix: a parameter pair no
    observation sees, and an undersized M."""
    rng = np.random.default_rng(811)
    A = random_complex(rng, 7, 3)
    q = A[:, :1] / np.linalg.norm(A[:, 0])
    M = random_complex(rng, 7, 4)
    unobserved = M - q @ (np.conj(q.T) @ M)
    G = np.hstack([A, 1j * A])
    return [pytest.param(G, unobserved, id="unobserved"),
            pytest.param(G, random_complex(rng, 7, 2), id="undersized")]


def all_lines(G):
    """Whether variation._complex_lines pairs every column of G: its first
    columns number half of them."""
    from pilotspace.variation import _complex_lines

    lines = _complex_lines(G)
    return lines is not None and 2 * np.arange(G.shape[1])[lines[0]].size == G.shape[1]


def real_route_order(G):
    """A column order of G that does not pair every column (None for one
    line, whose two columns pair in either order)."""
    order = np.roll(np.arange(G.shape[1]), -1)
    return None if all_lines(G[:, order]) else order


@pytest.fixture
def factor_calls(monkeypatch):
    """(dtype, shape) of the matrices that crb_direct factors by Cholesky and
    hands to eigvalsh."""
    import pilotspace.crb as crb_module

    calls = {"cholesky": [], "eigvalsh": []}
    real_cholesky, real_eigvalsh = crb_module.cholesky_in_place, np.linalg.eigvalsh
    monkeypatch.setattr(crb_module, "cholesky_in_place",
                        lambda S: calls["cholesky"].append((S.dtype, S.shape))
                        or real_cholesky(S))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda A: calls["eigvalsh"].append((A.dtype, A.shape))
                        or real_eigvalsh(A))
    return calls


class TestCrbDirectComplexRoute:
    """A gradient of complex lines only takes the r x r complex Fisher matrix:
    the real route's value and verdict and one complex Cholesky factor."""

    @pytest.mark.parametrize("G, M", complex_line_cases() + singular_line_cases())
    def test_matches_the_real_route(self, G, M, factor_calls):
        assert all_lines(G)
        noise = NoiseModel(0.7)
        k = G.shape[1]
        rep = crb_direct(constant_gradient_model(G), np.zeros(k), M, noise)
        identifiable = rep.identifiable
        assert all(dtype == complex and shape == (k // 2, k // 2)
                   for calls in factor_calls.values() for dtype, shape in calls)
        assert len(factor_calls["cholesky"]) <= 1
        order = real_route_order(G)
        if order is not None:
            ref = crb_direct(constant_gradient_model(G[:, order]), np.zeros(k), M, noise)
            assert ref.identifiable == identifiable
            if identifiable:
                assert factor_calls["cholesky"][-1] == (np.dtype(float), (k, k))
                assert rep.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
            else:
                assert math.isinf(rep.value) and math.isinf(ref.value)
        if identifiable:
            solved = TestCrbDirectFactorizations.solve_route(G, M, noise)
            assert rep.value == pytest.approx(solved, rel=1e-9)

    @pytest.mark.parametrize("G, M", singular_line_cases())
    def test_singular_cases_are_infinite(self, G, M):
        rep = crb_direct(constant_gradient_model(G), np.zeros(G.shape[1]), M, NoiseModel(1.0))
        assert not rep.identifiable and math.isinf(rep.value)

    def test_linear_models_factor_once_in_complex_algebra(self, factor_calls):
        from pilotspace.models import UlaGeometry, angle_constrained_model, ls_model

        rng = np.random.default_rng(812)
        for model in (ls_model(6), angle_constrained_model(UlaGeometry(32), [-0.4, 0.1, 0.9])):
            r = model.n_params // 2
            factor_calls["cholesky"].clear()
            factor_calls["eigvalsh"].clear()
            rep = crb_direct(model, np.zeros(2 * r), random_complex(rng, model.n_dims, r + 1),
                             NoiseModel(0.4))
            assert rep.identifiable
            assert factor_calls == {"cholesky": [(np.dtype(complex), (r, r))], "eigvalsh": []}

    @staticmethod
    def graded_halves(seed, ratio, n=12, r=4):
        # A with orthonormal columns and M = A V diag(sqrt(lambda)), V unitary:
        # H = (2/sigma^2) V diag(lambda) V^H, lambda graded to ratio.
        rng = np.random.default_rng(seed)
        A, _ = np.linalg.qr(random_complex(rng, n, r))
        V, _ = np.linalg.qr(random_complex(rng, r, r))
        M = (A @ V) * np.sqrt(np.geomspace(1.0, ratio, r))
        return constant_gradient_model(np.hstack([A, 1j * A])), M

    def test_verdict_is_the_eigenvalue_verdict(self, factor_calls, certified):
        noise = NoiseModel(0.8)
        outcomes = set()
        for ratio in np.geomspace(1e-12, 1e-8, 33):
            for seed in range(4):
                model, M = self.graded_halves(seed, ratio)
                k, r = model.n_params, model.n_params // 2
                I = _fisher(model.gradient(np.zeros(k)), M, noise)
                scale = 1.0 / np.sqrt(np.diag(I))
                factor_calls["eigvalsh"].clear()
                eigs = np.linalg.eigvalsh((scale[:, None] * I) * scale)
                expected = not _is_singular(eigs[0], eigs[-1], 1.0)
                factor_calls["eigvalsh"].clear()
                certified.clear()
                rep = crb_direct(model, np.zeros(k), M, noise)
                assert rep.identifiable == expected and math.isinf(rep.value) != expected
                if certified == [True]:
                    assert factor_calls["eigvalsh"] == []
                else:
                    assert factor_calls["eigvalsh"] == [(np.dtype(complex), (r, r))]
                outcomes.add((expected, certified == [True]))
        assert outcomes == {(True, True), (True, False), (False, False)}

    def test_physical_models_keep_the_real_route(self, factor_calls):
        from pilotspace.models import PathSet, UlaGeometry, physical_model

        rng = np.random.default_rng(813)
        noise = NoiseModel(0.3)
        for L in range(1, 6):
            for n_tx in (8, 64):
                model = physical_model(UlaGeometry(n_tx), L)
                gains = rng.uniform(0.5, 1.5, L) * np.exp(2j * np.pi * rng.uniform(size=L))
                theta = PathSet(gains=gains, azimuths=rng.uniform(-1.2, 1.2, L)).theta()
                grad = model.gradient(theta)
                for m in (L, 2 * L, n_tx):
                    M = random_complex(rng, n_tx, m)
                    factor_calls["cholesky"].clear()
                    rep = crb_direct(model, theta, M, noise)
                    value, I = previous_crb_direct(grad, M, noise)
                    assert np.array_equal(_fisher(grad, M, noise), I)
                    if rep.identifiable:
                        assert rep.value == value
                        assert factor_calls["cholesky"] == [(np.dtype(float), (3 * L, 3 * L))]


class TestOneBasisForms:
    """crb_via_variation_space and check_identifiability answer for one basis:
    a stack of bases is refused, not answered for its first slice."""

    def test_stack_of_bases_is_refused(self):
        from pilotspace.models import UlaGeometry, physical_variation_space

        stack = physical_variation_space(UlaGeometry(16),
                                         [[0.1, 0.5], [-0.7, 0.3], [0.2, 0.25]])
        M = random_complex(np.random.default_rng(820), 16, 3)
        noise = NoiseModel(1.0)
        for form in (lambda basis: crb_via_variation_space(basis, M, noise),
                     lambda basis: check_identifiability(basis, M)):
            with pytest.raises(ValueError, match=r"^expected one basis, got a stack of batch "
                               r"shape \(3,\): index the stack \(basis\[i\]\) or call "
                               r"compression_spectra$"):
                form(stack)
        # Each slice is one basis, answered with the bits of the stacked kernel.
        eigs, singular = compression_spectra(stack, M)
        assert not singular.any()
        values = [crb_via_variation_space(stack[i], M, noise).value for i in range(3)]
        assert values == [0.5 * float(np.sum(1.0 / e)) for e in eigs]
        assert len(set(values)) == 3
        assert [check_identifiability(stack[i], M).min_eig for i in range(3)] == list(eigs[:, 0])

    def test_observations_are_checked_once(self, count_calls):
        # Both routes of the kernel: the pair route of an LS basis and the
        # real route of a physical span, which checks M in compression_matrix.
        import pilotspace.rlinalg
        from pilotspace.models import UlaGeometry, ls_model, physical_variation_space

        checks = count_calls(pilotspace.rlinalg, "_checked_observations")
        M = random_complex(np.random.default_rng(822), 16, 3)
        for basis in (variation_space(ls_model(16), np.zeros(32)),
                      physical_variation_space(UlaGeometry(16), [0.1, 0.5])):
            for form in (lambda: crb_via_variation_space(basis, M, NoiseModel(1.0)),
                         lambda: check_identifiability(basis, M)):
                checks.clear()
                form()
                assert len(checks) == 1

    @pytest.mark.parametrize("shape", [(1, 4, 4), (2, 4, 3)])
    def test_stack_of_observation_matrices_is_refused(self, shape):
        # The one-matrix forms name M's batch shape, as all three forms did
        # not before: a numpy TypeError, or a row count read off the batch axis.
        from pilotspace.models import ls_model

        model = ls_model(4)
        basis = variation_space(model, np.zeros(8))
        M = random_complex(np.random.default_rng(821), *shape)
        noise = NoiseModel(1.0)
        head = rf"^expected one observation matrix M, got a stack of batch shape \({shape[0]},\): "
        spectra = r"index the stack \(M\[i\]\) or call compression_spectra$"
        for form, hint in ((lambda: crb_via_variation_space(basis, M, noise), spectra),
                           (lambda: check_identifiability(basis, M), spectra),
                           (lambda: crb_direct(model, np.zeros(8), M, noise),
                            r"evaluate each matrix of the stack \(M\[i\]\)$")):
            with pytest.raises(ValueError, match=head + hint):
                form()
        # Each matrix of the stack is answered on its own.
        for M_i in M:
            assert crb_via_variation_space(basis, M_i, noise).value == pytest.approx(
                crb_direct(model, np.zeros(8), M_i, noise).value, rel=1e-9)
