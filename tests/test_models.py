"""Tests for the concrete channel models and their gradients."""

import math

import numpy as np
import pytest

from pilotspace.crb import NoiseModel, crb_min
from pilotspace.models import (
    PathSet,
    UlaGeometry,
    angle_constrained_model,
    estimated_variation_space,
    ls_model,
    physical_model,
    physical_variation_space,
    steering_derivative,
    steering_matrix,
    steering_vector,
)
from pilotspace.rlinalg import RankDeficientError, RBasis, project_r
from pilotspace.variation import canonical_decompose, variation_space

FD_EPS = 1e-6
FD_RTOL = 1e-5


def finite_difference_gradient(model, theta):
    cols = []
    for i in range(model.n_params):
        step = np.zeros(model.n_params)
        step[i] = FD_EPS
        cols.append(
            (model.evaluate(theta + step) - model.evaluate(theta - step)) / (2 * FD_EPS)
        )
    return np.stack(cols, axis=1)


def assert_gradient_matches_fd(model, theta):
    analytic = model.gradient(theta)
    fd = finite_difference_gradient(model, theta)
    for i in range(model.n_params):
        err = np.linalg.norm(fd[:, i] - analytic[:, i])
        assert err <= FD_RTOL * (1.0 + np.linalg.norm(analytic[:, i]))


def random_theta(model, rng):
    if model.name == "physical":
        theta = rng.normal(size=model.n_params)
        theta[2::3] = rng.uniform(-1.2, 1.2, size=model.n_params // 3)
        # Keep gains away from zero so the azimuth columns stay alive.
        theta[0::3] += np.sign(theta[0::3]) + (theta[0::3] == 0)
        return theta
    return rng.normal(size=model.n_params)


class TestSteeringVector:
    def test_broadside(self):
        geom = UlaGeometry(5)
        e = steering_vector(geom, 0.0)
        assert np.allclose(e, np.full(5, 1 / math.sqrt(5)))

    @pytest.mark.parametrize("phi", [-1.3, -0.4, 0.0, 0.7, 1.5])
    def test_unit_norm(self, phi):
        geom = UlaGeometry(9)
        assert abs(np.linalg.norm(steering_vector(geom, phi)) - 1.0) <= 1e-12

    def test_naive_per_antenna_loop(self):
        geom = UlaGeometry(4)
        phi = math.pi / 6
        e = steering_vector(geom, phi)
        for n in range(4):
            phase = math.pi * (n - 1.5) * math.sin(phi)
            assert e[n] == pytest.approx(np.exp(1j * phase) / 2.0, abs=1e-14)

    def test_centered_positions(self):
        for n_tx in (4, 5, 64):
            assert UlaGeometry(n_tx).offsets.sum() == pytest.approx(0.0, abs=1e-12)

    def test_offsets_computed_once_and_read_only(self):
        geom = UlaGeometry(6)
        offsets = geom.offsets
        assert geom.offsets is offsets
        assert np.array_equal(offsets, np.arange(6) - 2.5)
        with pytest.raises(ValueError, match="read-only"):
            offsets[0] = 1.0


class TestSteeringDerivative:
    @pytest.mark.parametrize("phi", [-0.9, 0.0, 0.3, 1.1])
    def test_exactly_orthogonal_to_steering(self, phi):
        geom = UlaGeometry(12)
        ip = np.vdot(steering_vector(geom, phi), steering_derivative(geom, phi))
        assert abs(ip) <= 1e-12

    def test_finite_difference(self):
        geom = UlaGeometry(8)
        phi = 0.7
        fd = (steering_vector(geom, phi + FD_EPS) - steering_vector(geom, phi - FD_EPS)) / (
            2 * FD_EPS
        )
        d = steering_derivative(geom, phi)
        assert np.linalg.norm(fd - d) <= FD_RTOL * np.linalg.norm(d)

    @pytest.mark.parametrize("phi", [math.pi / 2, -math.pi / 2])
    def test_endfire_degeneracy(self, phi):
        geom = UlaGeometry(8)
        assert np.linalg.norm(steering_derivative(geom, phi)) <= 1e-12


class TestLsModel:
    def test_linear_reconstruction(self):
        rng = np.random.default_rng(0)
        model = ls_model(6)
        h0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        theta = np.concatenate([h0.real, h0.imag])
        assert np.allclose(model.evaluate(theta), h0)

    def test_all_couplings_one(self):
        model = ls_model(5)
        dec = canonical_decompose(variation_space(model, np.zeros(10)))
        assert dec.c == pytest.approx(np.ones(5), abs=1e-12)

    def test_crb_min_value(self):
        n_tx, P, sigma2 = 6, 2.0, 0.4
        dec = canonical_decompose(variation_space(ls_model(n_tx), np.zeros(2 * n_tx)))
        res = crb_min(dec.c, 2 * n_tx, NoiseModel(sigma2), P)
        assert res.value == pytest.approx(sigma2 * n_tx**2 / P, rel=1e-12)


class TestPhysicalModel:
    def test_single_path_broadside(self):
        geom = UlaGeometry(8)
        model = physical_model(geom, 1)
        h = model.evaluate(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(h, steering_vector(geom, 0.0))

    def test_gradient_finite_difference(self):
        geom = UlaGeometry(6)
        rng = np.random.default_rng(1)
        for n_paths in (1, 2, 3):
            model = physical_model(geom, n_paths)
            for _ in range(5):
                assert_gradient_matches_fd(model, random_theta(model, rng))

    def test_matches_per_path_loop(self):
        # Reference: one steering vector per path, summed in a Python loop.
        geom = UlaGeometry(16)
        model = physical_model(geom, 4)
        theta = random_theta(model, np.random.default_rng(2))
        gains = theta[0::3] + 1j * theta[1::3]
        h = np.zeros(16, dtype=complex)
        cols = []
        for b, phi in zip(gains, theta[2::3]):
            e = np.exp(1j * np.pi * geom.offsets * math.sin(phi)) / 4.0
            de = 1j * np.pi * geom.offsets * math.cos(phi) * e
            h += b * e
            cols += [e, 1j * e, b * de]
        np.testing.assert_allclose(model.evaluate(theta), h, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(
            model.gradient(theta), np.stack(cols, axis=1), rtol=1e-14, atol=1e-15
        )

    def test_variation_space_generators(self):
        # For real positive gains the gradient span equals the
        # azimuth-only span {e, -je, de/dphi} per path.
        geom = UlaGeometry(10)
        azimuths = np.array([-0.5, 0.4])
        theta = np.array([1.0, 0.0, azimuths[0], 2.0, 0.0, azimuths[1]])
        vb = variation_space(physical_model(geom, 2), theta)
        for phi in azimuths:
            for gen in (
                steering_vector(geom, phi),
                -1j * steering_vector(geom, phi),
                steering_derivative(geom, phi),
            ):
                resid = gen - project_r(vb, gen)
                assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(gen)

    def test_zero_gain_rank_deficient(self):
        geom = UlaGeometry(8)
        model = physical_model(geom, 1)
        with pytest.raises(RankDeficientError):
            variation_space(model, np.array([0.0, 0.0, 0.3]))


class TestAngleConstrainedModel:
    def test_variation_space_spans_pairs(self):
        geom = UlaGeometry(12)
        azimuths = [0.2, -0.7]
        model = angle_constrained_model(geom, azimuths)
        vb = variation_space(model, np.zeros(4))
        for phi in azimuths:
            e = steering_vector(geom, phi)
            for gen in (e, -1j * e):
                assert np.linalg.norm(gen - project_r(vb, gen)) <= 1e-9

    def test_orthonormal_steering_crb(self):
        # Azimuths whose steering vectors are exactly orthogonal
        # (spatial frequencies on the DFT grid).
        n_tx, P, sigma2 = 8, 1.0, 1.0
        geom = UlaGeometry(n_tx)
        azimuths = [0.0, math.asin(2.0 / n_tx)]
        E = steering_matrix(geom, azimuths)
        assert abs(np.vdot(E[:, 0], E[:, 1])) <= 1e-12
        dec = canonical_decompose(variation_space(angle_constrained_model(geom, azimuths), np.zeros(4)))
        res = crb_min(dec.c, 4, NoiseModel(sigma2), P)
        assert res.value == pytest.approx(sigma2 * 4 / P, rel=1e-9)   # sigma2 L^2 / P

    def test_gradient_finite_difference(self):
        geom = UlaGeometry(6)
        rng = np.random.default_rng(2)
        model = angle_constrained_model(geom, [0.1, 0.9])
        for _ in range(5):
            assert_gradient_matches_fd(model, rng.normal(size=4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_azimuths(self, bad):
        # The same message as the physical model's estimated space, before
        # a non-finite steering matrix can reach LAPACK.
        geom = UlaGeometry(8)
        for build in (angle_constrained_model, estimated_variation_space):
            with pytest.raises(ValueError, match="^azimuths must be finite$"):
                build(geom, [bad, 0.2])

    def test_subspace_of_estimated_space(self):
        geom = UlaGeometry(16)
        azimuths = [0.3, -0.8, 1.0]
        ac = variation_space(angle_constrained_model(geom, azimuths), np.zeros(6))
        est = estimated_variation_space(geom, azimuths)
        for k in range(ac.dim):
            u = ac.U[:, k]
            assert np.linalg.norm(u - project_r(est, u)) <= 1e-9


class TestEstimatedVariationSpace:
    def test_single_path_dim(self):
        est = estimated_variation_space(UlaGeometry(64), [0.0])
        assert est.dim == 3
        assert type(est) is RBasis

    def test_duplicate_azimuths(self):
        with pytest.raises(RankDeficientError, match="deg"):
            estimated_variation_space(UlaGeometry(64), [0.4, 0.4])

    def test_endfire(self):
        with pytest.raises(RankDeficientError):
            estimated_variation_space(UlaGeometry(16), [math.pi / 2])

    def test_matches_physical_space_at_truth(self):
        geom = UlaGeometry(32)
        azimuths = np.array([0.15, -0.6])
        est = estimated_variation_space(geom, azimuths)
        theta = np.array([1.0, 0.0, azimuths[0], 0.5, 0.0, azimuths[1]])
        exact = variation_space(physical_model(geom, 2), theta)
        assert est.dim == exact.dim
        for k in range(exact.dim):
            u = exact.U[:, k]
            assert np.linalg.norm(u - project_r(est, u)) <= 1e-9
            v = est.U[:, k]
            assert np.linalg.norm(v - project_r(exact, v)) <= 1e-9

    def test_physical_variation_space_same_span(self):
        geom = UlaGeometry(24)
        azimuths = [0.2, 0.9]
        a = physical_variation_space(geom, azimuths)
        b = estimated_variation_space(geom, azimuths)
        assert type(a) is RBasis
        for k in range(a.dim):
            assert np.linalg.norm(a.U[:, k] - project_r(b, a.U[:, k])) <= 1e-10


class TestDegeneracyDiagnosis:
    """The error names the generators in the null space of the rank test."""

    def test_nearly_coincident_azimuths(self):
        azimuths = [0.3, 0.3 + 1e-6]
        with pytest.raises(RankDeficientError) as excinfo:
            physical_variation_space(UlaGeometry(64), azimuths)
        message = str(excinfo.value)
        assert "collapsing generators e(phi_0), e(phi_1) at azimuth indices [0, 1]" in message
        # Full precision: the two azimuths print differently.
        for phi in azimuths:
            assert repr(math.degrees(phi)) in message

    def test_endfire_names_the_derivative(self):
        with pytest.raises(RankDeficientError, match=r"de/dphi\(phi_1\) at azimuth indices \[1\]"):
            estimated_variation_space(UlaGeometry(16), [0.2, -math.pi / 2])

    def test_names_only_the_colliding_paths(self):
        with pytest.raises(RankDeficientError) as excinfo:
            estimated_variation_space(UlaGeometry(64), [0.1, -0.5, 0.1])
        assert "at azimuth indices [0, 2]" in str(excinfo.value)
        assert excinfo.value.rank == 6

    def test_null_space_is_a_dependency(self):
        geom = UlaGeometry(64)
        azimuths = [0.4, 0.4]
        with pytest.raises(RankDeficientError) as excinfo:
            physical_variation_space(geom, azimuths)
        N = excinfo.value.null_space
        G = physical_model(geom, 2).gradient(np.array([1.0, 0.0, 0.4, 1.0, 0.0, 0.4]))
        G[:, 1::3] *= -1.0          # the span uses -j e, the gradient j e
        assert N.shape == (6, 3)
        assert np.linalg.norm(G @ N) <= 1e-12 * np.linalg.norm(G)


class TestWellSeparatedSteering:
    def test_near_orthonormal_columns(self):
        geom = UlaGeometry(64)
        azimuths = np.radians([-50.0, -25.0, -10.0, 5.0, 20.0, 40.0])  # >= 10 deg apart
        E = steering_matrix(geom, azimuths)
        G = np.conj(E.T) @ E
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() <= 0.1


class TestDomainTypes:
    def test_pathset_validation(self):
        with pytest.raises(ValueError, match="azimuths"):
            PathSet(gains=[1.0], azimuths=[4.0])
        with pytest.raises(ValueError, match="one gain per azimuth"):
            PathSet(gains=[1.0, 2.0], azimuths=[0.1])
        ps = PathSet(gains=[1 + 1j, 2.0], azimuths=[0.1, -0.2])
        theta = ps.theta()
        assert theta == pytest.approx([1.0, 1.0, 0.1, 2.0, 0.0, -0.2])

    @pytest.mark.parametrize("gains, azimuths", [
        ([math.nan], [0.1]),
        ([1.0], [math.nan]),
        ([complex(1.0, math.inf)], [0.1]),
        ([1.0, -math.inf], [0.1, 0.2]),
        ([1.0], [-math.inf]),
    ], ids=["nan-gain", "nan-azimuth", "inf-imag-gain", "inf-gain", "inf-azimuth"])
    def test_pathset_rejects_non_finite(self, gains, azimuths):
        # A NaN azimuth passes the [-pi, pi) test; a NaN gain would give
        # NaN strategy bounds downstream.
        with pytest.raises(ValueError, match="gains and azimuths must be finite"):
            PathSet(gains=gains, azimuths=azimuths)
