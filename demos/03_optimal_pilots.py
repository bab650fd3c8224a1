#!/usr/bin/env python3
"""Optimal minimal-length pilot matrices and their certificates.

Given the couplings of a variation space, the minimal CRB under the
power budget ||M||_F^2 = P is

    (2 sigma^2 / P) (sum_k 1/sqrt(1 + c_k) + eps/2)^2,

attained by a matrix with just ceil(N_p/2) columns.  This script
designs such matrices for the three channel models, verifies the
first-order optimality conditions, and pits the closed form against a
projected-gradient oracle that knows nothing about the theory.  Exits
with status 1 if an achieved CRB misses the closed form by more than
1e-9 relative, or the oracle beats the closed form by more than 1e-9.
"""

import math
import sys

import numpy as np

from pilotspace import (
    NoiseModel,
    UlaGeometry,
    brute_force_optimal_crb,
    canonical_decompose,
    crb_min,
    design_observation_matrix,
    estimated_variation_space,
    ls_model,
    variation_space,
    verify_optimality_certificates,
)

P, sigma2 = 1.0, 1.0
noise = NoiseModel(sigma2)
misses = []     # relative gaps of achieved CRBs to the closed form


def report_attained(design, ref, digits):
    misses.append(abs(design.achieved_crb / ref.value - 1.0))
    print(f"achieved CRB {design.achieved_crb:.{digits}f} "
          f"vs closed form {ref.value:.{digits}f}")


print("== least squares, N_t = 4 ==")
vb = variation_space(ls_model(4), np.zeros(8))
dec = canonical_decompose(vb)
design = design_observation_matrix(dec, P, sigma2=sigma2)
print(f"columns: {design.n_columns}, column powers: {np.round(np.linalg.norm(design.M, axis=0)**2, 6)}")
report_attained(design, crb_min(dec.c, 8, noise, P), 6)

print()
print("== single-path ULA, N_t = 64, estimated azimuth 10 deg ==")
geom = UlaGeometry(64)
est = estimated_variation_space(geom, [math.radians(10.0)])
dec = canonical_decompose(est)
design = design_observation_matrix(dec, P, sigma2=sigma2)
ref = crb_min(dec.c, 3, noise, P)
print(f"couplings {np.round(dec.c, 9)}, pilot length {design.n_columns} (= ceil(3/2))")
report_attained(design, ref, 9)
certs = verify_optimality_certificates(design)
print(f"certificates: off-diagonal {certs['diagonal_residual']:.1e}, "
      f"d_k {certs['dk_residual']:.1e}, total power {certs['total_power']:.12f}")

print()
print("== closed form vs numerical_oracle (N_d = 6, N_p = 5, random space) ==")
rng = np.random.default_rng(3)
G = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
from pilotspace import r_orthonormalize

basis, _ = r_orthonormalize(G)
dec = canonical_decompose(basis)
ref = crb_min(dec.c, 5, noise, P)
oracle = brute_force_optimal_crb(basis, P, 3, sigma2=sigma2, n_restarts=300, seed=0)
gap = oracle.value / ref.value - 1
print(f"closed form : {ref.value:.9f}")
print(f"oracle      : {oracle.value:.9f}  "
      f"({oracle.n_restarts}-restart projected gradient descent)")
print(f"oracle gap  : {gap:.2e}  (never below rounding: the closed form is the minimum)")

print()
print("== too few columns: the oracle confirms the counting bound ==")
short = brute_force_optimal_crb(basis, P, 2, sigma2=sigma2, n_restarts=50, seed=0)
print(f"best CRB with 2 < ceil(5/2) columns: {short.value}")

if max(misses) > 1e-9:
    sys.exit(f"an achieved CRB misses the closed form by {max(misses):.1e} relative")
if gap < -1e-9:
    sys.exit(f"the oracle beats the closed form by {-gap:.1e} relative")
