"""Tests for the example-field generators and lattice dimension oracles.

The d=1 Fourier count is frozen against its independently derived value
(two quasi-periodicity residues per curvature unit); the exact Gaussian
integer determinant is cross-checked against sympy; the calibration
record is exercised for idempotence, persistence, and tamper detection.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crmorse.cli import EXAMPLE_TORUS_DOCS, parse_torus
from crmorse.errors import CalibrationError, InputError
from crmorse.morse import bigness_verdict, build_morse_report, classify_bundle, density_q
from crmorse.oracles import (
    HeisenbergSpec,
    LatticeCalibration,
    TorusBundleSpec,
    _det_poly,
    _dimension_sums,
    _exact_det,
    _gaussian_rows,
    _lattice_field,
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
from oracle_tools import TWO_PI, hm, permode_dimension_sum, random_int_hermitian


D1_SPEC = TorusBundleSpec(d=1, lambda_mat=[[1]], mu_mat=[[2]], delta=0.5)


# -------------------------------------------------- d=1 Fourier oracle


def test_d1_fourier_bruteforce_frozen():
    # two decaying quasi-periodicity residue classes per curvature unit
    assert d1_fourier_bruteforce(1) == 2
    assert d1_fourier_bruteforce(2) == 4
    assert d1_fourier_bruteforce(7) == 14
    assert [d1_fourier_bruteforce(a) for a in range(1, 65)] == [2 * a for a in range(1, 65)]


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
    assert cal.c_dim == d1_fourier_bruteforce(1)
    assert cal.provenance == {"method": "d1 Fourier quasi-periodicity count", "n1": 2}


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


def assert_matches_permode(spec, ks, cal):
    # one pass gives every level and degree, and fourier_dimension_sum reads it
    levels = _dimension_sums(spec, ks, cal)
    assert len(levels) == len(ks)
    degrees = range(spec.d + 1)
    for k, sums in zip(ks, levels):
        assert sums == [permode_dimension_sum(spec, q, k, cal) for q in degrees]
        assert sums == [fourier_dimension_sum(spec, q, k, cal) for q in degrees]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    d=st.sampled_from([1, 2, 3]),
    span=st.sampled_from([1, 3]),
    ks=st.lists(st.integers(1, 40), min_size=1, max_size=2),
    delta=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
    c_mode=st.sampled_from([1, 2]),
    c_dim=st.sampled_from([1, 2, 3]),
)
def test_fourier_dimension_sum_matches_permode(seed, d, span, ks, delta, c_mode, c_dim):
    rng = np.random.default_rng(seed)
    spec = TorusBundleSpec(
        d=d,
        lambda_mat=random_int_hermitian(rng, d, -span, span),
        mu_mat=random_int_hermitian(rng, d, -span, span),
        delta=delta,
    )
    assert_matches_permode(spec, ks, LatticeCalibration(c_mode=c_mode, c_dim=c_dim, provenance={}))


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
    assert_matches_permode(NAMED_SPECS[name], [k], calibrate())


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
    d1, d2 = (parse_torus(json.dumps(EXAMPLE_TORUS_DOCS[name])) for name in ("torus-d1", "torus-d2-indefinite"))
    ks = list(range(1, 2001)) + [10**6]
    # one call per torus sweeps every level, as convergence does
    for k, sums1, sums2 in zip(ks, _dimension_sums(d1, ks, cal), _dimension_sums(d2, ks, cal)):
        # det = 2k + c_mode m > 0 on the window |m| <= k/2
        w = k // 2
        assert sums1 == [c_dim * 2 * k * (2 * w + 1), 0]
        # det = (c_mode m)^2 - k^2 < 0 with inertia (1, 0, 1) on |m| <= k/4
        w = k // 4
        squares = w * (w + 1) * (2 * w + 1) // 3
        assert sums2 == [0, c_dim**2 * ((2 * w + 1) * k * k - c_mode**2 * squares), 0]


def test_fourier_dimension_sum_exact_beyond_float_precision():
    # k * delta and the sums are far beyond 2^53; the window is taken exactly
    cal = calibrate()
    d1 = parse_torus(json.dumps(EXAMPLE_TORUS_DOCS["torus-d1"]))
    for k in (10**19 + 1, 10**110, 10**110 + 1):
        assert _dimension_sums(d1, [k], cal) == [[4 * k * (2 * (k // 2) + 1), 0]]
    # delta is read as the decimal it prints as: the window at k = 10^12 is 3 * 10^11
    spec = TorusBundleSpec(d=1, lambda_mat=[[1]], mu_mat=[[1]], delta=0.3)
    k = 10**12
    w = 3 * 10**11
    assert fourier_dimension_sum(spec, 0, k, cal) == 2 * k * (2 * w + 1)
    # a window of 10^300 modes: the root at m = -2k takes about 1000 halvings
    spec = TorusBundleSpec(d=1, lambda_mat=[[1]], mu_mat=[[2]], delta=1e150)
    k, w = 10**150, 10**300
    assert fourier_dimension_sum(spec, 0, k, cal) == (w + 2 * k) * (w + 2 * k + 1)
    assert fourier_dimension_sum(spec, 1, k, cal) == (w - 2 * k) * (w - 2 * k + 1)


def test_fourier_dimension_sum_validation():
    cal = calibrate()
    with pytest.raises(InputError):
        fourier_dimension_sum(D1_SPEC, 0, 0, cal)
    with pytest.raises(InputError):
        fourier_dimension_sum(D1_SPEC, 2, 4, cal)
    # the curvature over k at the middle mode -3 of the run -4..-2,
    # mu - 3 lambda, leaves float range
    spec = TorusBundleSpec(d=1, lambda_mat=[[1e308]], mu_mat=[[1e308]], delta=4.0)
    with pytest.raises(InputError, match="^mu, lambda at k: the mode curvature mu [+] c_mode [(]m / k[)] lambda "):
        fourier_dimension_sum(spec, 0, 1, cal)


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


EXACT = "expected an integer that a float holds exactly, got"


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: TorusBundleSpec(1, [[1]], [[2**53 + 1]], 0.5), "mu_mat[0][0]: %s 9007199254740993" % EXACT),
        (lambda: HeisenbergSpec(1, [2**53 + 1], [[2]], 0.5), "lambda_vec[0]: %s 9007199254740993" % EXACT),
        (lambda: torus_mode_dim(0, [[2**53 + 1]], calibrate()), "a[0][0]: %s 9007199254740993" % EXACT),
        (lambda: TorusBundleSpec(2, [[1, 0], [0, 1]], [[10**13, 1], [3, 10**13]], 0.5),
         "mu_mat: an integer matrix must be exactly Hermitian"),
        (lambda: TorusBundleSpec(1, [[2.5]], [[1]], 0.5), "lambda_mat[0][0]: %s 2.5" % EXACT),
        (lambda: TorusBundleSpec(2, np.eye(2), [[1, 1 + 0.5j], [1 - 0.5j, 1]], 0.5),
         "mu_mat[0][1].imag: %s 0.5" % EXACT),
        (lambda: HeisenbergSpec(1, [1], [[5e-324]], 0.5), "mu_mat[0][0]: %s 5e-324" % EXACT),
        (lambda: torus_mode_dim(0, hm([[0.5]]), calibrate()), "a[0][0]: %s 0.5" % EXACT),
        (lambda: TorusBundleSpec(1, [[True]], [[1]], 0.5), "lambda_mat[0][0]: %s True" % EXACT),
    ],
    ids=["torus-2^53+1", "heisenberg-2^53+1", "mode-2^53+1", "torus-mean-of-two", "torus-fraction",
         "torus-imaginary-part", "heisenberg-subnormal", "mode-hermitian-matrix", "torus-bool"],
)
def test_spec_integer_rules_hold_at_the_library_edge(call, expected):
    # the document reader's two rules, on the caller's own numbers: an
    # integer that a float holds exactly, and a matrix Hermitian as given
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == expected


def test_spec_integers_a_float_holds_load_and_count_exactly():
    cal = calibrate()
    # 2^53 is a float: the window |m| <= 1 at k = 2 counts 2 (2^54 + m) modes
    spec = TorusBundleSpec(1, [[1]], [[2**53]], 0.5)
    assert fourier_dimension_sum(spec, 0, 2, cal) == 6 * 2**54
    assert torus_mode_dim(0, [[2**53]], cal) == 2 * 2**53
    as_lists = TorusBundleSpec(2, [[1, 0], [0, 1]], [[3, 1 + 1j], [1 - 1j, 2]], 0.5)
    for lam, mu in [
        (np.eye(2, dtype=np.int64), [[3.0, 1 + 1j], [1 - 1j, 2.0]]),
        (hm([[1, 0], [0, 1]]), hm([[3, 1 + 1j], [1 - 1j, 2]])),
        ([[np.int64(1), 0], [0, 1]], np.array([[3, 1 + 1j], [1 - 1j, 2]])),
    ]:
        assert TorusBundleSpec(2, lam, mu, 0.5) == as_lists
    assert HeisenbergSpec(2, (np.int64(1), 2**53), [[3, 1], [1, 3]], 0.5).lambda_vec == (1, 2**53)
    assert torus_mode_dim(0, np.array([[2, 1], [1, 2]], dtype=np.int64), cal) == 12


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


# ------------------------------------------------- the unfitted lattice field

_CAL = calibrate()


def test_lattice_field_frozen():
    field = _lattice_field(D1_SPEC, _CAL)
    point = field.points[0]
    np.testing.assert_array_equal(point.r.entries, [[2.0]])
    np.testing.assert_array_equal(point.el.entries, [[0.5]])  # c_mode lambda / 2
    assert point.weight == pytest.approx(2 * TWO_PI**2, rel=1e-15)  # (2pi)^n c_dim^d
    # c_dim times the |det| mass of the pencil 2 + s over [-1/2, 1/2]
    assert density_q(field, 0, 0.5) == pytest.approx(4.0, rel=1e-12)


def _variation_and_top(p, delta):
    """Total variation and maximum of |p| on [-delta, delta], for p in
    ascending integer coefficients: |p| is monotone between the ends and
    the real roots of p and p' inside."""
    c = np.array(p[::-1], dtype=float)
    xs = [-delta, delta]
    for poly in (c, np.polyder(c)):
        if poly.size > 1:
            xs += [r.real for r in np.roots(poly) if abs(r.imag) < 1e-9 and -delta < r.real < delta]
    v = np.abs(np.polyval(c, np.sort(xs)))
    return float(np.abs(np.diff(v)).sum()), float(v.max())


@st.composite
def small_tori(draw):
    d = draw(st.integers(1, 3))

    def matrix():
        m = np.zeros((d, d), dtype=complex)
        for i in range(d):
            m[i, i] = draw(st.integers(-2, 2))
            for j in range(i + 1, d):
                m[i, j] = complex(draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
                m[j, i] = m[i, j].conjugate()
        return m

    return TorusBundleSpec(d=d, lambda_mat=matrix(), mu_mat=matrix(), delta=draw(st.sampled_from([0.25, 0.5, 1.0])))


@settings(max_examples=60, deadline=None)
@given(spec=small_tori())
def test_lattice_field_ratio_is_one_plus_order_one_over_k(spec):
    """Every degree q with positive density has |ratio - 1| <= C/k at k = 400
    and 1600, with C = c_dim^d (V + M) / density_q, where V and M are the
    total variation and the maximum of |p| on [-delta, delta] and p(s) =
    det(mu + c_mode s lambda).  The oracle over k is a Riemann sum of the
    q-part of |p| at the 2 k delta + 1 points m/k: each of the 2 k delta
    cells errs by at most its variation over k, the extra point by at most
    M/k, and the q-part has no more variation than |p|, as it drops to 0
    only where p = 0.  The bound is attained at lambda = 0.  No constant C
    serves every small spec: a d = 3 chamber of density 1.6e-4 gives
    k |ratio - 1| = 1128 at k = 400.

    The strong Morse sums obey the same bound without the division:
    |A_q(k) - k^n strongSums[q]| <= c_dim^d (V + M) k^(n-1), where
    A_q = sum_{j<=q} (-1)^(q-j) h^j for q < d and A_d = sum_j (-1)^j h^j,
    since strongSums[d] is the Euler total rrhTotal, (-1)^d times the q = d
    partial sum.  The q-part of the Riemann sum is then g_q = sum_{j<=q}
    (-1)^(q-j) |p| [neg = j], which is +-|p| or 0 and switches only where
    p = 0, so it has no more variation than |p|."""
    p = _det_poly(_gaussian_rows(spec.mu_mat), _gaussian_rows(spec.lambda_mat), int(_CAL.c_mode))
    assume(p)  # det identically 0: a degenerate pencil
    report = build_morse_report(_lattice_field(spec, _CAL))
    var, top = _variation_and_top(p, spec.delta)
    bound = int(_CAL.c_dim) ** spec.d * (var + top)
    n = spec.d + 1
    for k in (400, 1600):
        sums = _dimension_sums(spec, [k], _CAL)[0]
        for q, dens in enumerate(report.densities):
            if dens > 0.0:
                ratio = sums[q] / (k**n * dens)
                assert abs(ratio - 1.0) <= bound / dens / k * (1 + 1e-9), (k, q, ratio)
        strong = [sum((-1) ** (q - j) * sums[j] for j in range(q + 1)) for q in range(spec.d)]
        strong.append(sum((-1) ** j * h for j, h in enumerate(sums)))
        for q, (a, s) in enumerate(zip(strong, report.strong_sums)):
            assert abs(a - k**n * s) <= bound * k ** (n - 1) * (1 + 1e-9), (k, q, a, s)


def test_split_triple_root_leaves_no_sliver_chamber():
    # det(mu + s lambda) = 8 s^3, with rank(mu) = 2: one eigenvalue vanishes
    # like s^3.  Rounding rings the root at radius 1.2e-5 delta; two of the
    # three roots lie within 1e-5 delta of the real axis but 2e-5 delta
    # apart, and the sliver chamber between them would be singular
    spec = TorusBundleSpec(
        d=3, mu_mat=np.diag([-1, 0, 2]), delta=0.25,
        lambda_mat=[[0, 2j, -1 - 1j], [-2j, 0, -2 - 2j], [-1 + 1j, -2 + 2j, -2]],
    )
    assert _det_poly(_gaussian_rows(spec.mu_mat), _gaussian_rows(spec.lambda_mat), 1) == [0, 0, 0, 8]
    densities = build_morse_report(_lattice_field(spec, _CAL)).densities
    assert densities == pytest.approx([0.0, 8 * 8 * 0.25**4 / 4, 8 * 8 * 0.25**4 / 4, 0.0], abs=1e-12)


def test_triple_root_ring_off_the_axis_is_one_root():
    # det(mu + s lambda) = 3 s^3.  Rounding rings the root at radius 8e-5
    # delta with no member within 1e-5 delta of the real axis; read as no
    # root at all, [-delta, delta] would be one chamber, singular at its
    # midpoint s = 0
    spec = TorusBundleSpec(
        d=3, delta=0.25,
        mu_mat=[[2, 2j, -2 - 2j], [-2j, 2, -2 + 2j], [-2 + 2j, -2 - 2j, 2]],
        lambda_mat=[[0, -2 + 1j, 1], [-2 - 1j, 2, 0], [1, 0, -1]],
    )
    assert _det_poly(_gaussian_rows(spec.mu_mat), _gaussian_rows(spec.lambda_mat), 1) == [0, 0, 0, 3]
    densities = build_morse_report(_lattice_field(spec, _CAL)).densities
    assert densities == pytest.approx([0.0, 8 * 3 * 0.25**4 / 4, 8 * 3 * 0.25**4 / 4, 0.0], abs=1e-12)


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
