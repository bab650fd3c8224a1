"""The input rules of the public entry points, one table per kind of input.

Each rule has one implementation (in ``rlinalg``; the azimuth lists' in
``models``): a positive finite scalar (sigma^2, P), a count, couplings in
[0, 1], an azimuth list and a matrix's finite entries.  Every entry point
that takes such an input refuses a bad one with ValueError and the rule's
message, and gives a good one of any integer or floating type the result
of a Python float or int.
"""

import math
import re

import numpy as np
import pytest

from pilotspace import rlinalg
from pilotspace.crb import NoiseModel, crb_direct, crb_min
from pilotspace.models import (
    PathSet,
    UlaGeometry,
    angle_constrained_model,
    ls_model,
    physical_model,
    physical_variation_space,
)
from pilotspace.pilot import design_observation_matrix
from pilotspace.rlinalg import RBasis, compression_matrix, r_orthonormalize, skew_canonical_form
from pilotspace.variation import (
    CanonicalDecomposition,
    ParametricChannelModel,
    canonical_decompose,
    variation_space,
)

GEOM = UlaGeometry(8)
DECOMP = canonical_decompose(physical_variation_space(GEOM, [0.1, 0.5]))     # 6 parameters
NOISE = NoiseModel(0.5)

# Entry point -> (call with the value, the name its message gives the value).
SCALARS = {
    "NoiseModel": (NoiseModel, "sigma2"),
    "crb_min-power": (lambda v: crb_min(DECOMP.c, 6, NOISE, v), "power"),
    "design-power": (lambda v: design_observation_matrix(DECOMP, v), "power"),
    "design-sigma2": (lambda v: design_observation_matrix(DECOMP, 1.0, sigma2=v), "sigma2"),
}
COUNTS = {
    "UlaGeometry": (UlaGeometry, "n_antennas"),
    "ls_model": (ls_model, "n_tx"),
    "physical_model": (lambda n: physical_model(GEOM, n), "n_paths"),
    "crb_min-n_params": (lambda n: crb_min([], n, NOISE, 1.0), "n_params"),
}
AZIMUTH_LISTS = {
    "angle_constrained_model": lambda a: angle_constrained_model(GEOM, a),
    "physical_variation_space": lambda a: physical_variation_space(GEOM, a),
}

NOT_FINITE = [math.nan, math.inf, -math.inf]
NOT_NUMBERS = [True, "1", None]


@pytest.mark.parametrize("entry", SCALARS)
@pytest.mark.parametrize("value", NOT_NUMBERS + NOT_FINITE + [0, -1, -2.5])
def test_positive_scalar_refused(entry, value):
    call, name = SCALARS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be finite and positive, got "):
        call(value)


@pytest.mark.parametrize("entry", COUNTS)
@pytest.mark.parametrize("value", NOT_NUMBERS + [2.5, 3.0] + NOT_FINITE)
def test_count_that_is_no_integer_refused(entry, value):
    call, name = COUNTS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
        call(value)


@pytest.mark.parametrize("entry", COUNTS)
@pytest.mark.parametrize("value", [0, -1, np.int64(0)])
def test_count_below_one_refused(entry, value):
    call, name = COUNTS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be positive, got {int(value)}$"):
        call(value)


@pytest.mark.parametrize("value", NOT_FINITE + [None, -1.0, 1.5])
def test_coupling_outside_the_unit_interval_refused(value):
    # A NaN coupling fails the range test too: it used to give value=nan.
    with pytest.raises(ValueError, match=r"^couplings must lie in \[0, 1\]$"):
        crb_min([0.5, value], 4, NOISE, 1.0)


@pytest.mark.parametrize("value", NOT_FINITE + [None, -1.0, -0.5, 1.5, 2.0])
def test_decomposition_coupling_outside_the_unit_interval_refused(value):
    # Such couplings used to give NaN pilots (NaN, +/-inf) or a design that
    # no real-orthonormal basis has (2.0, -0.5).
    with pytest.raises(ValueError, match=r"^couplings must lie in \[0, 1\]$"):
        CanonicalDecomposition(np.eye(8, 4, dtype=complex), [0.5, value])


def test_decomposition_couplings_within_the_snap_kept_as_given():
    c = np.array([1.0 + 0.5 * rlinalg.COUPLING_SNAP, -0.5 * rlinalg.COUPLING_SNAP])
    assert np.array_equal(CanonicalDecomposition(np.eye(8, 4, dtype=complex), c).c, c)


def test_canonical_decompose_runs_no_coupling_check(count_calls):
    # Its couplings come out of the canonical form, clipped to [0, 1].
    calls = count_calls(rlinalg, "_checked_couplings")
    canonical_decompose(physical_variation_space(GEOM, [0.1, 0.5]))
    canonical_decompose(physical_variation_space(GEOM, [[0.1, 0.5], [0.2, 0.6]]))
    assert calls == []


@pytest.mark.parametrize("entry", AZIMUTH_LISTS)
@pytest.mark.parametrize("azimuths, message", [
    ([], "need at least one azimuth"),
    (np.zeros((2, 0)), "need at least one azimuth"),
    *[([0.1, value], "azimuths must be finite") for value in NOT_FINITE + [None]],
])
def test_azimuth_list_refused(entry, azimuths, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AZIMUTH_LISTS[entry](azimuths)


def test_stack_of_azimuth_lists_refused_by_the_model():
    # One model has one azimuth list; the spans take a stack of them.
    rows = [[0.1, 0.5], [0.2, 0.6]]
    with pytest.raises(ValueError, match=r"^expected one azimuth list, got a stack of batch "
                       r"shape \(2,\): build one model per row \(azimuths\[i\]\)$"):
        angle_constrained_model(GEOM, rows)
    assert physical_variation_space(GEOM, rows).U.shape == (2, 8, 6)


@pytest.mark.parametrize("gains, azimuths, what", [
    ([[1.0, 2.0], [3.0, 4.0]], [[0.1, 0.2], [0.3, 0.4]], "gain"),
    ([1.0, 2.0], [[0.1, 0.2]], "azimuth"),
])
def test_stack_of_paths_refused_by_the_path_set(gains, azimuths, what):
    # A 2 x 2 stack used to flatten into one 4-path channel.
    shape = np.shape(gains if what == "gain" else azimuths)[:-1]
    message = (f"expected one {what} list, got a stack of batch shape {shape}: "
               "build one PathSet per row (gains[i], azimuths[i])")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PathSet(gains=gains, azimuths=azimuths)
    assert PathSet(gains=1.0, azimuths=0.2).n_paths == 1


def _gradient_model(G):
    return ParametricChannelModel(n_dims=G.shape[0], n_params=G.shape[1],
                                  evaluate=lambda theta: G @ theta, gradient=lambda theta: G)


# Entry point -> (call with a matrix or a stack of them, a good matrix, the
# name the message gives the matrix, whether the entry point takes a stack).
MATRICES = {
    "RBasis": (RBasis, np.eye(4, 2, dtype=complex), "basis matrix", True),
    "r_orthonormalize": (r_orthonormalize, np.eye(4, 2, dtype=complex), "input matrix", True),
    "skew_canonical_form": (skew_canonical_form, np.array([[0.0, -1.0], [1.0, 0.0]]),
                            "skew canonical form: input matrix", True),
    "compression_matrix": (lambda M: compression_matrix(DECOMP, M), np.ones((8, 3), complex),
                           "observation matrix M", True),
    "crb_direct-M": (lambda M: crb_direct(ls_model(4), np.zeros(8), M, NOISE),
                     np.eye(4, dtype=complex), "observation matrix M", False),
    "variation_space": (lambda G: variation_space(_gradient_model(G), np.zeros(2)),
                        np.eye(4, 2, dtype=complex), "gradient", False),
}


@pytest.mark.parametrize("entry", MATRICES)
@pytest.mark.parametrize("value", NOT_FINITE)
def test_non_finite_matrix_refused(entry, value):
    call, good, what, stacks = MATRICES[entry]
    bad = good.copy()
    bad[-1, 0] = value
    with pytest.raises(ValueError, match=f"^{re.escape(what)} contains non-finite entries$"):
        call(bad)
    if stacks:
        stack = np.stack([good, good, bad, bad]).reshape(2, 2, *good.shape)
        with pytest.raises(ValueError, match=f"^{re.escape(what)} contains non-finite "
                                             r"entries in slice \(1, 0\)$"):
            call(stack)


GOOD_SCALARS = [2, 2.0, np.int64(2), np.float64(2.0)]


def _fields(record):
    """A record's fields, with arrays as bytes, for an exact comparison."""
    return [value.tobytes() if isinstance(value, np.ndarray) else value
            for value in (getattr(record, name) for name in record._fields)
            if not hasattr(value, "_fields")]


@pytest.mark.parametrize("entry", SCALARS)
def test_good_scalar_of_any_type_gives_the_float_result(entry):
    call, _ = SCALARS[entry]
    expected = _fields(call(2.0))
    for value in GOOD_SCALARS:
        assert _fields(call(value)) == expected


def test_noise_model_stores_sigma2_as_given():
    for value in GOOD_SCALARS:
        assert NoiseModel(value).sigma2 is value
        assert _fields(crb_min(DECOMP.c, 6, NoiseModel(value), 1.0)) == _fields(
            crb_min(DECOMP.c, 6, NoiseModel(2.0), 1.0))


def test_good_count_of_any_integer_type_gives_the_int_result():
    theta = np.array([0.8, -0.3, 0.2, 0.5, 0.1, -0.4, 1.1, 0.0, 0.6])
    for value in (3, np.int64(3), np.int32(3)):
        geom = UlaGeometry(value)
        assert type(geom.n_antennas) is int and geom == UlaGeometry(3)
        assert np.array_equal(geom.offsets, UlaGeometry(3).offsets)
        assert np.array_equal(ls_model(value).gradient(np.zeros(6)),
                              ls_model(3).gradient(np.zeros(6)))
        assert np.array_equal(physical_model(GEOM, value).gradient(theta),
                              physical_model(GEOM, 3).gradient(theta))
        assert _fields(crb_min([0.5], value, NOISE, 1.0)) == _fields(crb_min([0.5], 3, NOISE, 1.0))


def test_ula_geometry_builds_unit_steering_vectors_only_for_integers():
    # 2.5 antennas used to give 3-entry steering vectors of norm 1.095.
    from pilotspace.models import steering_vector

    with pytest.raises(ValueError, match=r"^n_antennas must be an integer, got 2\.5$"):
        UlaGeometry(2.5)
    assert np.linalg.norm(steering_vector(UlaGeometry(3), 0.4)) == pytest.approx(1.0, rel=1e-15)
