#!/usr/bin/env python3
"""Three routes to the same Cramer-Rao bound.

The channel-MSE CRB of a parametric model under noisy linear
observations y = M^H h + n can be computed

  1. from the gradient and the Slepian-Bangs Fisher matrix,
  2. through any real-orthonormal basis U of the variation space,
     as (sigma^2/2) Tr[Re{U^H M M^H U}^{-1}],
  3. intrinsically, as the trace of the inverse compression of M M^H
     to the variation space.

This script builds a random nonlinear-looking instance and shows the
three numbers agree to machine precision, then breaks identifiability
on purpose to show the bound turning infinite.  Exits with status 1 if
the forms disagree by more than 1e-9 relative or the undersized matrix
gets a finite bound.
"""

import sys

import numpy as np

from pilotspace import (
    NoiseModel,
    ParametricChannelModel,
    check_identifiability,
    compression_matrix,
    crb_direct,
    crb_via_variation_space,
    variation_space,
)

rng = np.random.default_rng(0)
n_dim, n_params, n_obs = 10, 5, 4

G = rng.normal(size=(n_dim, n_params)) + 1j * rng.normal(size=(n_dim, n_params))
model = ParametricChannelModel(
    n_dims=n_dim,
    n_params=n_params,
    evaluate=lambda theta: G @ theta,
    gradient=lambda theta: G,
    name="demo",
)
theta = rng.normal(size=n_params)
M = rng.normal(size=(n_dim, n_obs)) + 1j * rng.normal(size=(n_dim, n_obs))
noise = NoiseModel(sigma2=0.5)

direct = crb_direct(model, theta, M, noise)
basis = variation_space(model, theta)
via = crb_via_variation_space(basis, M, noise)
comp = compression_matrix(basis, M)
intrinsic = 0.5 * noise.sigma2 * np.trace(np.linalg.inv(comp))

print(f"gradient + Fisher matrix : {direct.value:.12f}")
print(f"variation-space basis    : {via.value:.12f}")
print(f"inverse compression      : {intrinsic:.12f}")
print(f"identifiable             : {direct.identifiable}")
forms = (direct.value, via.value, intrinsic)
spread = (max(forms) - min(forms)) / min(forms)
print(f"relative spread          : {spread:.1e}")

print()
print("dropping to too few observations (ceil(N_p/2) - 1 columns):")
M_short = M[:, : (n_params + 1) // 2 - 1]
verdict = check_identifiability(basis, M_short)
rep = crb_via_variation_space(basis, M_short, noise)
print(f"CRB = {rep.value}, verdict: {verdict.message}")

if spread > 1e-9:
    sys.exit(f"the three CRB forms disagree by {spread:.1e} relative")
if rep.value != np.inf:
    sys.exit(f"the undersized M has the finite CRB {rep.value}")
