"""Tests for the example-field generators and lattice dimension oracles.

The d=1 Fourier count is frozen against its independently derived value
(two quasi-periodicity residues per curvature unit); the exact Gaussian
integer determinant is cross-checked against sympy; the calibration
record is exercised for idempotence, persistence, and tamper detection.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crmorse.cli_lattice import _example_specs
from crmorse.errors import CalibrationError, InputError
from crmorse.morse import bigness_verdict, classify_bundle, density_q
from crmorse.oracles import (
    HeisenbergSpec,
    LatticeCalibration,
    TorusBundleSpec,
    _dimension_sums,
    _exact_det,
    calibrate,
    calibrate_weight,
    d1_fourier_bruteforce,
    fourier_dimension_sum,
    heisenberg_field,
    levi_flat_field,
    load_calibration,
    save_calibration,
    torus_bundle_field,
    torus_mode_dim,
    verify_calibration,
)
from crmorse.pencil import HermitianMatrix
from oracle_tools import permode_dimension_sum, random_int_hermitian

TWO_PI = 2.0 * math.pi


def hm(rows):
    return HermitianMatrix(np.array(rows, dtype=complex))


D1_SPEC = TorusBundleSpec(d=1, lambda_mat=[[1]], mu_mat=[[2]], delta=0.5)


# -------------------------------------------------- d=1 Fourier oracle


def test_d1_fourier_bruteforce_frozen():
    # two decaying quasi-periodicity residue classes per curvature unit
    assert d1_fourier_bruteforce(1) == 2
    assert d1_fourier_bruteforce(2) == 4
    assert d1_fourier_bruteforce(7) == 14


def test_d1_fourier_bruteforce_linearity():
    n1 = d1_fourier_bruteforce(1)
    for a in range(1, 9):
        assert d1_fourier_bruteforce(a) == a * n1


def test_d1_fourier_bruteforce_preconditions():
    with pytest.raises(InputError):
        d1_fourier_bruteforce(0)
    with pytest.raises(InputError):
        d1_fourier_bruteforce(-3)


# -------------------------------------------------------- calibration


def test_calibrate_constants():
    cal = calibrate()
    assert cal.c_dim == Fraction(2)
    assert cal.c_mode == Fraction(1)
    assert cal.provenance["survivor"] == "1/1"


def test_calibrate_idempotent(tmp_path):
    p1 = tmp_path / "cal1.json"
    p2 = tmp_path / "cal2.json"
    save_calibration(calibrate(), p1)
    save_calibration(calibrate(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_calibration_roundtrip_and_verify(tmp_path):
    cal = calibrate()
    path = tmp_path / "calibration.json"
    save_calibration(cal, path)
    loaded = load_calibration(path)
    assert loaded == cal
    verify_calibration(loaded)


def test_calibration_tamper_detected(tmp_path):
    cal = calibrate()
    path = tmp_path / "calibration.json"
    save_calibration(cal, path)
    text = path.read_text().replace('"1/1"', '"2/1"')
    path.write_text(text)
    with pytest.raises(CalibrationError):
        load_calibration(path)


@pytest.mark.parametrize(
    "c_mode, c_dim, message",
    [
        (Fraction(1, 2), Fraction(2), "c_mode must be an integer, got 1/2"),
        (Fraction(1), Fraction(1, 3), "c_dim must be an integer, got 1/3"),
    ],
)
def test_calibration_rejects_fractional_constants(c_mode, c_dim, message):
    with pytest.raises(CalibrationError) as exc:
        LatticeCalibration(c_mode=c_mode, c_dim=c_dim, provenance={})
    assert str(exc.value) == message


def test_calibration_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_calibration(tmp_path / "nope.json")


def test_calibrated_dimensions_match_direct_counts():
    cal = calibrate()
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        k = int(rng.integers(1, 7))
        m = int(rng.integers(-4, 5))
        mu = int(rng.integers(-3, 4))
        lam = int(rng.integers(1, 4))
        combined = k * mu + m * lam
        if combined == 0:
            continue
        a_mat = hm([[combined]])
        if combined > 0:
            assert torus_mode_dim(0, a_mat, cal) == d1_fourier_bruteforce(combined)
            assert torus_mode_dim(1, a_mat, cal) == 0
        else:
            assert torus_mode_dim(0, a_mat, cal) == 0
            # degree-1 count mirrors the dual bundle's section count
            assert torus_mode_dim(1, a_mat, cal) == d1_fourier_bruteforce(-combined)
        checked += 1


# ---------------------------------------------------- exact determinant


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2, 3, 4]))
def test_exact_det_matches_sympy(seed, d):
    rng = np.random.default_rng(seed)
    re = rng.integers(-5, 6, size=(d, d))
    im = rng.integers(-5, 6, size=(d, d))
    pairs = [
        [(int(re[i, j]), int(im[i, j])) for j in range(d)] for i in range(d)
    ]
    got = _exact_det(pairs)
    sym = sympy.Matrix(
        [[sympy.Integer(re[i, j]) + sympy.I * sympy.Integer(im[i, j]) for j in range(d)] for i in range(d)]
    ).det()
    expected = (int(sympy.re(sym)), int(sympy.im(sym)))
    assert got == expected


# ------------------------------------------------------ torus_mode_dim


def test_torus_mode_dim_frozen():
    cal = calibrate()
    assert torus_mode_dim(0, hm([[0]]), cal) == 0
    assert torus_mode_dim(0, hm([[1, 1], [1, 1]]), cal) == 0  # singular
    assert torus_mode_dim(1, hm([[2, 0], [0, 3]]), cal) == 0  # positive, q>=1
    assert torus_mode_dim(0, hm([[2, 0], [0, 3]]), cal) == 24  # c_dim^2 * 6
    assert torus_mode_dim(1, hm([[2, 0], [0, -3]]), cal) == 24
    assert torus_mode_dim(0, hm([[2, 0], [0, -3]]), cal) == 0
    assert torus_mode_dim(0, hm([[2, 1], [1, 2]]), cal) == 12
    assert torus_mode_dim(0, hm([[2, 1 + 1j], [1 - 1j, 2]]), cal) == 8


def test_torus_mode_dim_rejects_non_integer():
    cal = calibrate()
    with pytest.raises(InputError):
        torus_mode_dim(0, hm([[0.5]]), cal)
    with pytest.raises(InputError):
        torus_mode_dim(2, hm([[1]]), cal)


# ------------------------------------------------ fourier_dimension_sum


def test_fourier_dimension_sum_frozen():
    cal = calibrate()
    # k=4, window |m| <= 2: sum of 2*(8+m) = 80
    assert fourier_dimension_sum(D1_SPEC, 0, 4, cal) == 80
    assert fourier_dimension_sum(D1_SPEC, 1, 4, cal) == 0
    assert isinstance(fourier_dimension_sum(D1_SPEC, 0, 4, cal), int)


def test_fourier_dimension_sum_growth():
    cal = calibrate()
    y4 = fourier_dimension_sum(D1_SPEC, 0, 4, cal)
    y8 = fourier_dimension_sum(D1_SPEC, 0, 8, cal)
    assert 3.0 <= y8 / y4 <= 4.5  # k^2 law with a k^1 correction


def assert_matches_permode(spec, k, cal):
    # one pass gives every degree, and fourier_dimension_sum reads it
    sums = _dimension_sums(spec, k, cal)
    degrees = range(spec.d + 1)
    assert sums == [permode_dimension_sum(spec, q, k, cal) for q in degrees]
    assert sums == [fourier_dimension_sum(spec, q, k, cal) for q in degrees]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    d=st.sampled_from([1, 2, 3]),
    span=st.sampled_from([1, 3]),
    k=st.integers(1, 40),
    delta=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
    c_mode=st.sampled_from([1, 2]),
    c_dim=st.sampled_from([1, 2, 3]),
)
def test_fourier_dimension_sum_matches_permode(seed, d, span, k, delta, c_mode, c_dim):
    rng = np.random.default_rng(seed)
    spec = TorusBundleSpec(
        d=d,
        lambda_mat=random_int_hermitian(rng, d, -span, span),
        mu_mat=random_int_hermitian(rng, d, -span, span),
        delta=delta,
    )
    assert_matches_permode(spec, k, LatticeCalibration(c_mode=c_mode, c_dim=c_dim, provenance={}))


NAMED_SPECS = {
    # det = (k - m)^2: inertia jumps (0,0,2) -> (2,0,0) at m = k with no sign change
    "double-root": TorusBundleSpec(d=2, lambda_mat=[[-1, 0], [0, -1]], mu_mat=np.eye(2), delta=2.0),
    # det = (k - m)(2k + m): integer roots at m = k and at the window edge m = -2k
    "integer-roots": TorusBundleSpec(
        d=2, lambda_mat=[[-1, 0], [0, 1]], mu_mat=[[1, 0], [0, 2]], delta=2.0
    ),
    # det = -7k^2 - 3km has degree 1 < d
    "singular-lambda": TorusBundleSpec(
        d=2, lambda_mat=[[1, 0], [0, 0]], mu_mat=[[2, 1], [1, -3]], delta=3.0
    ),
    "zero-det": TorusBundleSpec(d=2, lambda_mat=[[1, 0], [0, 0]], mu_mat=[[1, 0], [0, 0]], delta=1.0),
}


@pytest.mark.parametrize("name", sorted(NAMED_SPECS))
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_fourier_dimension_sum_named_cases(name, k):
    assert_matches_permode(NAMED_SPECS[name], k, calibrate())


def test_fourier_dimension_sum_double_root_trap():
    cal = calibrate()
    spec = NAMED_SPECS["double-root"]
    # k = 3, window |m| <= 6: (3 - m)^2 I on m < 3 is positive, on m > 3 negative
    assert fourier_dimension_sum(spec, 0, 3, cal) == 4 * sum(j * j for j in range(1, 10))
    assert fourier_dimension_sum(spec, 1, 3, cal) == 0
    assert fourier_dimension_sum(spec, 2, 3, cal) == 4 * (1 + 4 + 9)
    spec = NAMED_SPECS["integer-roots"]
    assert fourier_dimension_sum(spec, 0, 3, cal) == 4 * sum((3 - m) * (6 + m) for m in range(-5, 3))
    assert fourier_dimension_sum(spec, 1, 3, cal) == 4 * sum((m - 3) * (6 + m) for m in range(4, 7))
    assert fourier_dimension_sum(spec, 2, 3, cal) == 0


def test_fourier_dimension_sum_examples_every_k():
    cal = calibrate()
    c_dim, c_mode = cal.c_dim, cal.c_mode
    specs = _example_specs()
    d1, d2 = specs["torus-d1"], specs["torus-d2-indefinite"]
    for k in list(range(1, 2001)) + [10**6]:
        # det = 2k + c_mode m > 0 on the window |m| <= k/2
        w = k // 2
        assert fourier_dimension_sum(d1, 0, k, cal) == c_dim * 2 * k * (2 * w + 1)
        assert fourier_dimension_sum(d1, 1, k, cal) == 0
        # det = (c_mode m)^2 - k^2 < 0 with inertia (1, 0, 1) on |m| <= k/4
        w = k // 4
        squares = w * (w + 1) * (2 * w + 1) // 3
        expected = c_dim**2 * ((2 * w + 1) * k * k - c_mode**2 * squares)
        assert fourier_dimension_sum(d2, 1, k, cal) == expected
        assert fourier_dimension_sum(d2, 0, k, cal) == 0
        assert fourier_dimension_sum(d2, 2, k, cal) == 0


def test_fourier_dimension_sum_exact_beyond_float_precision():
    # k * delta and the sums are far beyond 2^53; the window is taken exactly
    cal = calibrate()
    d1 = _example_specs()["torus-d1"]
    for k in (10**19 + 1, 10**110, 10**110 + 1):
        assert _dimension_sums(d1, k, cal) == [4 * k * (2 * (k // 2) + 1), 0]
    # delta is read as the decimal it prints as: the window at k = 10^12 is 3 * 10^11
    spec = TorusBundleSpec(d=1, lambda_mat=[[1]], mu_mat=[[1]], delta=0.3)
    k = 10**12
    w = 3 * 10**11
    assert fourier_dimension_sum(spec, 0, k, cal) == 2 * k * (2 * w + 1)


def test_fourier_dimension_sum_validation():
    cal = calibrate()
    with pytest.raises(InputError):
        fourier_dimension_sum(D1_SPEC, 0, 0, cal)
    with pytest.raises(InputError):
        fourier_dimension_sum(D1_SPEC, 2, 4, cal)


# ------------------------------------------------------ field generators


def test_heisenberg_field_frozen():
    spec = HeisenbergSpec(d=2, lambda_vec=[1, 2], mu_mat=[[3, 1], [1, 3]], delta=0.5)
    field = heisenberg_field(spec)
    assert field.n == 3
    assert field.delta == 0.5
    point = field.points[0]
    assert point.weight == 1.0
    np.testing.assert_allclose(point.el.entries, np.diag([1.0, 2.0]))
    np.testing.assert_allclose(point.r.entries, [[3, 1], [1, 3]])
    pos = classify_bundle(field)
    assert pos.positive_everywhere is True
    assert bigness_verdict(field).big is True


def test_heisenberg_rejects_zero_levi():
    with pytest.raises(InputError):
        HeisenbergSpec(d=2, lambda_vec=[1, 0], mu_mat=[[1, 0], [0, 1]], delta=0.5)


def test_heisenberg_flat_curvature_inconclusive():
    spec = HeisenbergSpec(d=1, lambda_vec=[1], mu_mat=[[0]], delta=0.5)
    verdict = bigness_verdict(heisenberg_field(spec))
    assert verdict.big is False


def test_torus_bundle_field_frozen():
    field = torus_bundle_field(D1_SPEC)
    point = field.points[0]
    np.testing.assert_allclose(point.r.entries, [[2.0]])
    np.testing.assert_allclose(point.el.entries, [[1.0]])
    # constant pencil 2+2s over [-1/2, 1/2]
    assert density_q(field, 0, 0.5) == pytest.approx(2.0 / TWO_PI**2, rel=1e-12)
    assert bigness_verdict(field).big is True


def test_torus_bundle_negative_mu_top_chamber():
    spec = TorusBundleSpec(d=1, lambda_mat=[[1]], mu_mat=[[-1]], delta=0.25)
    field = torus_bundle_field(spec)
    assert density_q(field, 0, 0.25) == 0.0
    assert density_q(field, 1, 0.25) > 0.0


def test_torus_spec_validation():
    with pytest.raises(InputError):
        TorusBundleSpec(d=1, lambda_mat=[[0.5]], mu_mat=[[1]], delta=0.5)
    with pytest.raises(InputError):
        TorusBundleSpec(d=2, lambda_mat=[[1, 1j], [1j, 1]], mu_mat=np.eye(2), delta=0.5)
    with pytest.raises(InputError):
        TorusBundleSpec(d=1, lambda_mat=[[1]], mu_mat=[[1]], delta=-1.0)


def test_levi_flat_field_frozen():
    field = levi_flat_field(hm([[1, 0], [0, 1]]), 2)
    assert field.delta == 1.0
    assert density_q(field, 0, 1.0) == pytest.approx(2.0 / TWO_PI**3, rel=1e-12)
    assert density_q(field, 1, 1.0) == 0.0
    mixed = levi_flat_field(hm([[1, 0], [0, -1]]), 2)
    assert density_q(mixed, 1, 1.0) == pytest.approx(2.0 / TWO_PI**3, rel=1e-12)
    assert density_q(mixed, 0, 1.0) == 0.0
    assert density_q(mixed, 2, 1.0) == 0.0
    with pytest.raises(InputError):
        levi_flat_field(hm([[1]]), 2)


# ------------------------------------------------------ weight calibration


def test_calibrate_weight_frozen():
    cal = calibrate()
    w = calibrate_weight(D1_SPEC, 0, 50, cal)
    # leading coefficient 4 against density 2/(2pi)^2
    assert w == pytest.approx(8.0 * math.pi**2, rel=1e-12)


def test_calibrated_bound_tracks_oracle():
    cal = calibrate()
    w = calibrate_weight(D1_SPEC, 0, 50, cal)
    field = torus_bundle_field(D1_SPEC, weight=w)
    c0 = density_q(field, 0, 0.5)
    for k, tol in ((100, 0.05), (1000, 0.01)):
        bound = k**2 * c0
        oracle = fourier_dimension_sum(D1_SPEC, 0, k, cal)
        assert abs(oracle / bound - 1.0) <= tol


def test_calibrate_weight_needs_mass():
    cal = calibrate()
    spec = TorusBundleSpec(d=1, lambda_mat=[[1]], mu_mat=[[-1]], delta=0.25)
    with pytest.raises(InputError):
        calibrate_weight(spec, 0, 50, cal)
