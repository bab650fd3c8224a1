"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import math
import time

import numpy as np

from pilotspace import fileio
from pilotspace.crb import (
    NoiseModel,
    check_identifiability,
    crb_direct,
    crb_min,
    crb_via_variation_space,
)
from pilotspace.experiments import (
    AC_STRATEGY,
    PROPOSED_STRATEGY,
    ExperimentConfig,
    run_multipath,
    run_single_path,
)
from pilotspace.models import (
    UlaGeometry,
    angle_constrained_model,
    estimated_variation_space,
    ls_model,
    physical_model,
    physical_variation_space,
    steering_matrix,
)
from pilotspace.pilot import (
    brute_force_optimal_crb,
    design_observation_matrix,
    verify_optimality_certificates,
)
from pilotspace.rlinalg import compression_matrix, r_orthonormalize
from pilotspace.variation import (
    ParametricChannelModel,
    canonical_decompose,
    variation_space,
)

SINGLE_PATH_RATIO = 2 * (1 / math.sqrt(2) + 0.5) ** 2


def report(number, description, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"acceptance criterion {number:2d} [{verdict}] {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


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


def test_criterion_01_cross_form_equivalence():
    rng = np.random.default_rng(101)
    noise = NoiseModel(0.8)
    failures = []
    start = time.monotonic()
    done = 0
    while done < 50:
        n_dim = int(rng.integers(2, 17))
        n_params = int(rng.integers(1, min(2 * n_dim, 8) + 1))
        n_obs = int(rng.integers(math.ceil(n_params / 2), n_dim + 2))
        model = constant_gradient_model(random_complex(rng, n_dim, n_params))
        M = random_complex(rng, n_dim, n_obs)
        theta = np.zeros(n_params)
        direct = crb_direct(model, theta, M, noise)
        if not direct.identifiable:
            continue
        done += 1
        basis = variation_space(model, theta)
        via = crb_via_variation_space(basis, M, noise)
        comp = compression_matrix(basis, M)
        intrinsic = 0.5 * noise.sigma2 * float(np.trace(np.linalg.inv(comp)))
        for name, value in (("variation", via.value), ("compression", intrinsic)):
            if abs(value - direct.value) > 1e-8 * direct.value:
                failures.append(
                    f"instance {done}: {name} form off by "
                    f"{abs(value - direct.value) / direct.value:.2e}"
                )
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    report(1, "cross-form CRB equivalence on 50 random instances (1e-8)", failures)


def test_criterion_02_closed_form_vs_oracle():
    rng = np.random.default_rng(202)
    failures = []
    start = time.monotonic()
    for idx in range(10):
        n_params = [2, 3, 4, 5][idx % 4]
        n_dim = int(rng.integers(max(2, (n_params + 1) // 2), 9))
        vb, _ = r_orthonormalize(random_complex(rng, n_dim, n_params))
        dec = canonical_decompose(vb)
        P = float(rng.uniform(0.5, 2.0))
        ref = crb_min(dec.c, n_params, NoiseModel(1.0), P)
        design = design_observation_matrix(dec, P)
        achieved = crb_via_variation_space(vb, design.M, NoiseModel(1.0)).value
        if abs(achieved - ref.value) > 1e-8 * ref.value:
            failures.append(f"instance {idx}: design misses crb_min")
        oracle = brute_force_optimal_crb(
            vb, P, math.ceil(n_params / 2), sigma2=1.0,
            n_restarts=500, n_iters=300, seed=idx,
        )
        if oracle.value < ref.value * (1 - 1e-6):
            failures.append(f"instance {idx}: oracle beats the closed form")
        if oracle.value > ref.value * 1.01:
            failures.append(
                f"instance {idx}: oracle gap {(oracle.value / ref.value - 1):.2%}"
            )
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    report(2, "closed-form optimum matches the numeric oracle (10 instances)", failures)


def test_criterion_03_universal_bounds():
    rng = np.random.default_rng(303)
    failures = []
    for idx in range(100):
        n_params = int(rng.integers(1, 13))
        c = rng.uniform(0.0, 1.0, size=n_params // 2)
        sigma2 = float(rng.uniform(0.1, 5.0))
        P = float(rng.uniform(0.1, 5.0))
        res = crb_min(c, n_params, NoiseModel(sigma2), P)
        if not (res.lower_bound <= res.value * (1 + 1e-10)):
            failures.append(f"instance {idx}: lower bound violated")
        if not (res.value <= res.upper_bound * (1 + 1e-10)):
            failures.append(f"instance {idx}: upper bound violated")
    ones = crb_min(np.ones(3), 6, NoiseModel(0.7), 1.3)
    if abs(ones.value - ones.lower_bound) > 1e-10 * ones.lower_bound:
        failures.append("all-c=1 (even) does not attain the lower bound")
    zeros = crb_min(np.zeros(3), 7, NoiseModel(0.7), 1.3)
    if abs(zeros.value - zeros.upper_bound) > 1e-10 * zeros.upper_bound:
        failures.append("all-c=0 does not attain the upper bound")
    report(3, "universal bounds sigma^2 Np^2/(4P) <= crb_min <= sigma^2 Np^2/(2P)", failures)


def test_criterion_04_paper_values():
    failures = []
    sigma2, P = 0.7, 1.9
    noise = NoiseModel(sigma2)

    n_tx = 6
    dec = canonical_decompose(variation_space(ls_model(n_tx), np.zeros(2 * n_tx)))
    ls_value = crb_min(dec.c, 2 * n_tx, noise, P).value
    if abs(ls_value - sigma2 * n_tx**2 / P) > 1e-9 * ls_value:
        failures.append("least-squares optimal CRB is not sigma^2 Nt^2 / P")

    geom = UlaGeometry(64)
    grid_azimuths = np.arcsin(np.array([-4, 0, 4, 8]) * 2.0 / 64)  # orthogonal steering
    for L in (1, 2, 4):
        azimuths = grid_azimuths[:L]
        E = steering_matrix(geom, azimuths)
        gram = np.conj(E.T) @ E
        assert np.allclose(gram, np.eye(L), atol=1e-12)
        model = angle_constrained_model(geom, azimuths)
        dec = canonical_decompose(variation_space(model, np.zeros(2 * L)))
        value = crb_min(dec.c, 2 * L, noise, P).value
        if abs(value - sigma2 * L**2 / P) > 1e-9 * value:
            failures.append(f"angle-constrained CRB off for L={L}")

    separated = np.radians([-60.0, -20.0, 20.0, 60.0])
    for L in (1, 2, 3, 4):
        dec = canonical_decompose(physical_variation_space(geom, separated[:L]))
        value = crb_min(dec.c, 3 * L, noise, P).value
        lo = 2.25 * sigma2 * L**2 / P
        hi = 4.5 * sigma2 * L**2 / P
        if not (lo <= value <= hi):
            failures.append(f"physical-model CRB outside [9/4, 9/2] band for L={L}")
    report(4, "closed-form values: LS, angle-constrained, physical band", failures)


def test_criterion_05_pilot_lengths():
    failures = []
    rng = np.random.default_rng(505)
    for n_params in range(1, 11):
        basis, _ = r_orthonormalize(random_complex(rng, n_params + 2, n_params))
        design = design_observation_matrix(canonical_decompose(basis), 1.0)
        if design.n_columns != math.ceil(n_params / 2):
            failures.append(f"random decomposition N_p={n_params}")

    n_tx = 5
    dec = canonical_decompose(variation_space(ls_model(n_tx), np.zeros(2 * n_tx)))
    if design_observation_matrix(dec, 1.0).n_columns != n_tx:
        failures.append("least squares design length != N_t")

    geom = UlaGeometry(32)
    for L, azimuths in ((1, [0.2]), (2, [0.2, -0.6]), (3, [0.2, -0.6, 1.0])):
        ac = canonical_decompose(
            variation_space(angle_constrained_model(geom, azimuths), np.zeros(2 * L))
        )
        if design_observation_matrix(ac, 1.0).n_columns != L:
            failures.append(f"angle-constrained design length != L for L={L}")
        est = canonical_decompose(estimated_variation_space(geom, azimuths))
        if design_observation_matrix(est, 1.0).n_columns != math.ceil(3 * L / 2):
            failures.append(f"proposed design length != ceil(3L/2) for L={L}")
    report(5, "pilot lengths: ceil(Np/2); N_t (LS), L (AC), ceil(3L/2) (proposed)", failures)


def test_criterion_06_optimality_certificates():
    rng = np.random.default_rng(606)
    failures = []
    cases = []
    for n_params in (2, 3, 4, 5, 6, 7):
        basis, _ = r_orthonormalize(random_complex(rng, n_params + 3, n_params))
        cases.append((f"random N_p={n_params}", canonical_decompose(basis)))
    geom = UlaGeometry(64)
    cases.append(("single path", canonical_decompose(estimated_variation_space(geom, [0.3]))))
    cases.append(
        ("two paths", canonical_decompose(estimated_variation_space(geom, [0.3, -0.7])))
    )
    for name, dec in cases:
        P = float(rng.uniform(0.5, 3.0))
        design = design_observation_matrix(dec, P)
        certs = verify_optimality_certificates(design)
        if certs["diagonal_residual"] > 1e-9 * P:
            failures.append(f"{name}: off-diagonal residual")
        if certs["dk_residual"] > 1e-9 * P:
            failures.append(f"{name}: d_k residual")
        measured = certs["column_powers"]
        expected = certs["column_powers_expected"]
        if np.any(np.abs(measured - expected) > 1e-9 * expected):
            failures.append(f"{name}: per-column powers")
        if abs(certs["total_power"] - P) > 1e-9 * P:
            failures.append(f"{name}: total power")
    report(6, "first-order optimality certificates for every design", failures)


def _curve_checks(table, failures, label, ratio_tol):
    grid0, ac0 = table.values(AC_STRATEGY, 0.0)
    _, pr0 = table.values(PROPOSED_STRATEGY, 0.0)
    ratio = pr0 / ac0
    if np.max(np.abs(ratio - ratio[0])) > 1e-9 * ratio[0]:
        failures.append(f"{label}: delta=0 ratio varies along the grid")
    if abs(ratio[0] - SINGLE_PATH_RATIO) > ratio_tol * SINGLE_PATH_RATIO:
        failures.append(
            f"{label}: delta=0 ratio {ratio[0]:.6f} != {SINGLE_PATH_RATIO:.6f}"
        )
    for delta in (1.0, 5.0):
        grid, ac = table.values(AC_STRATEGY, delta)
        _, pr = table.values(PROPOSED_STRATEGY, delta)
        i40 = int(np.where(grid == 40.0)[0][0])
        i50 = int(np.where(grid == 50.0)[0][0])
        if abs(ac[i40] - ac[i50]) > 1e-3 * ac[i50]:
            failures.append(f"{label}: AC curve not flat at delta={delta}")
        slope = pr * 10.0 ** (grid / 10)
        if np.max(np.abs(slope - slope[0])) > 1e-9 * slope[0]:
            failures.append(f"{label}: proposed curve deviates from 1/pSNR at delta={delta}")
        if not np.any(pr < ac):
            failures.append(f"{label}: no crossover at delta={delta}")


def test_criterion_07_single_path_curves():
    start = time.monotonic()
    failures = []
    table = run_single_path(ExperimentConfig())
    _curve_checks(table, failures, "single path", ratio_tol=1e-9)
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    report(7, "single-path curve properties (ratio, flatness, slope, crossover)", failures)


def test_criterion_08_multipath_curves(tmp_path):
    start = time.monotonic()
    failures = []
    config = ExperimentConfig(n_trials=100)
    table, _ = run_multipath(config)
    # The averaged delta=0 ratio reaches the single-path constant only in
    # the orthogonal-path limit; at N_t=64 it sits within a few percent.
    _curve_checks(table, failures, "multipath", ratio_tol=0.05)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    fileio.write_curve_table(a, table)
    table2, _ = run_multipath(config)
    fileio.write_curve_table(b, table2)
    if a.read_bytes() != b.read_bytes():
        failures.append("rerun CSV is not byte-identical")
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    report(8, "multipath averaged-curve properties at desk scale (100 trials)", failures)


def test_criterion_09_identifiability():
    rng = np.random.default_rng(909)
    noise = NoiseModel(1.0)
    failures = []
    for idx in range(50):
        n_dim = int(rng.integers(2, 10))
        n_params = int(rng.integers(2, min(2 * n_dim, 8) + 1))
        vb, _ = r_orthonormalize(random_complex(rng, n_dim, n_params))
        M_short = random_complex(rng, n_dim, math.ceil(n_params / 2) - 1)
        verdict = check_identifiability(vb, M_short)
        rep = crb_via_variation_space(vb, M_short, noise)
        if verdict.identifiable or rep.identifiable or not math.isinf(rep.value):
            failures.append(f"instance {idx}: undersized M declared identifiable")
        design = design_observation_matrix(canonical_decompose(vb), 1.0)
        if not check_identifiability(vb, design.M).identifiable:
            failures.append(f"instance {idx}: optimal design declared non-identifiable")
    report(9, "identifiability verdicts: undersized M false, designs true", failures)


def test_criterion_10_gradient_validation():
    rng = np.random.default_rng(1010)
    eps, rtol = 1e-6, 1e-5
    failures = []
    geom = UlaGeometry(8)
    models = [ls_model(5)]
    models += [physical_model(geom, L) for L in (1, 2, 3)]
    models += [angle_constrained_model(geom, [0.3, -0.5][:L]) for L in (1, 2)]
    for model in models:
        for point in range(20):
            theta = rng.normal(size=model.n_params)
            if model.name == "physical":
                theta[2::3] = rng.uniform(-1.2, 1.2, size=model.n_params // 3)
                theta[0::3] += np.sign(theta[0::3]) + (theta[0::3] == 0)
            analytic = model.gradient(theta)
            for i in range(model.n_params):
                step = np.zeros(model.n_params)
                step[i] = eps
                fd = (model.evaluate(theta + step) - model.evaluate(theta - step)) / (2 * eps)
                err = np.linalg.norm(fd - analytic[:, i])
                if err > rtol * (1.0 + np.linalg.norm(analytic[:, i])):
                    failures.append(f"{model.name}: column {i} at point {point}")
                    break
    report(10, "central finite-difference gradient checks (20 points per model)", failures)
