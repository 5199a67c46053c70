"""Tests for inertia, characteristic polynomials, roots, and chamber integrals."""

import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crmorse.cli import parse_field, run
from crmorse.errors import DegeneratePencilError, InputError, _fsum
from crmorse.pencil import (
    IDENTICALLY_ZERO,
    TWO_PI,
    HermitianMatrix,
    RealPolynomial,
    chamber_integral,
    chambers,
    inertia,
    pencil_char_poly,
    pencil_signed_integral,
    real_roots,
    signature_set,
    _chamber_decomposition,
    _decompose,
    _decompose_batch,
    _densities,
    _real_roots,
    _two_pi_quotient,
)
from oracle_tools import (
    hm,
    oracle_chamber_integral,
    oracle_signed_integral,
    random_hermitian,
    random_int_hermitian,
)


def decomposed(r, el, delta):
    """One pencil's chambers, their |det| masses and its signed integral,
    read from the engine's one-row window."""
    w = _decompose(HermitianMatrix(r), HermitianMatrix(el), delta)
    return _chamber_decomposition(w), w.masses[0, : w.counts[0]].tolist(), float(w.signed[0])


# ---------------------------------------------------------------------------
# HermitianMatrix and inertia


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(InputError):
        hm([[1.0, 1.0], [0.0, 1.0]])


def test_hermitian_check_does_not_overflow_near_the_float_maximum():
    # |A - A*| = 2.6e308 and the modulus of A[0][0] are beyond float range;
    # unscaled, both sides of the check read inf and the matrix passed
    with pytest.raises(InputError, match=r"max \|A - A\*\| = 2.600e\+308 exceeds tolerance 1.838e\+296"):
        hm([[1.3e308 + 1.3e308j, 1], [7, 0]])


def test_hermitian_rejects_non_square():
    with pytest.raises(InputError):
        HermitianMatrix(np.zeros((2, 3), dtype=complex))


def test_symmetrization_halves_before_adding():
    # A/2 + A*/2 is (A + A*)/2 bit for bit on normal entries, and stays
    # finite where A + A* would overflow
    rng = np.random.default_rng(7)
    for d in (1, 3, 6):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = (a + a.conj().T) + 1e-13 * (a - a.conj().T)  # Hermitian up to 1e-13
        assert hm(a).entries.tobytes() == ((a + a.conj().T) / 2.0).tobytes()
    big = hm([[1.5e308, 1e308 + 1e308j], [1e308 - 1e308j, -1.7e308]]).entries
    assert big.tolist() == [[1.5e308, 1e308 + 1e308j], [1e308 - 1e308j, -1.7e308]]


def test_inertia_identity():
    assert inertia(hm(np.eye(3))).signature == (0, 0, 3)


def test_inertia_diagonal_with_zero():
    assert inertia(HermitianMatrix.diagonal([-1.0, 0.0, 2.0])).signature == (1, 1, 1)


def test_inertia_off_diagonal():
    a = hm([[0.0, 1j], [-1j, 0.0]])
    assert inertia(a).signature == (1, 0, 1)


def test_inertia_default_tolerance_is_unit_free():
    # the tolerance is the chamber engine's 1e-9 ||A||_F, so diag(1e-12, -1e-12)
    # has the signs of diag(1, -1); taken at a power-of-two scale, it neither
    # overflows near the float maximum nor vanishes near 1e-300
    assert inertia(HermitianMatrix.diagonal([1e-12, -1e-12])).signature == (1, 0, 1)
    u = unitary(np.random.default_rng(5), 3)
    for small, signature in ((1e-12, (1, 1, 1)), (1e-6, (1, 0, 2))):
        base = u @ np.diag([-0.75, small, 1.0]) @ u.conj().T
        for t in (1.0, 1.5e308, 1e-300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ine = inertia(HermitianMatrix(t * base))
            assert ine.signature == signature
            assert ine.tol == pytest.approx(1e-9 * t * np.linalg.norm(base), rel=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_inertia_counts_complete(d, seed):
    rng = np.random.default_rng(seed)
    a = HermitianMatrix(random_hermitian(rng, d, scale=3.0))
    ine = inertia(a)
    assert ine.neg + ine.zero + ine.pos == d


# ---------------------------------------------------------------------------
# pencil_char_poly


def test_char_poly_1x1():
    p = pencil_char_poly(hm([[2.0]]), hm([[1.0]]))
    assert np.allclose(p.coeffs, [2.0, 2.0], atol=1e-12)


def test_char_poly_diagonal_2x2():
    p = pencil_char_poly(HermitianMatrix.diagonal([1.0, -1.0]), HermitianMatrix.diagonal([1.0, 1.0]))
    assert np.allclose(p.coeffs, [-1.0, 0.0, 4.0], atol=1e-12)


def test_char_poly_dimension_mismatch():
    with pytest.raises(InputError):
        pencil_char_poly(hm([[1.0]]), hm(np.eye(2)))


def test_char_poly_of_a_common_kernel_is_zero():
    # R and L share a kernel vector, so det(R + 2sL) vanishes for every s
    # and every probe is singular
    for d, r, el in ((2, [[3.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]),
                     (3, np.diag([0.0, 2.0, -1.0]), [[0.0, 0.0, 0.0], [0.0, 1.0, 1j], [0.0, -1j, 4.0]])):
        p = pencil_char_poly(hm(r), hm(el))
        assert p.coeffs.tolist() == [0.0] * (d + 1)
        assert real_roots(p, -1.0, 1.0, 1e-9) is IDENTICALLY_ZERO
    assert repr(IDENTICALLY_ZERO) == "IDENTICALLY_ZERO"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), power=st.sampled_from([None, -13, -11, -10, -9, -8, -6]))
def test_char_poly_is_zero_exactly_where_the_probes_refuse(d, seed, power):
    # R and L share the kernel vector e_0 up to a perturbation of size
    # 10^power (none when power is None), around the 1e-9 probe tolerance;
    # the zero polynomial and the engine's degenerate-pencil refusal read
    # one probe mask
    rng = np.random.default_rng(seed)
    r, el = random_hermitian(rng, d), random_hermitian(rng, d)
    for m in (r, el):
        m[0, :] = m[:, 0] = 0.0
    if power is not None:
        r = r + 10.0**power * random_hermitian(rng, d)
    zero = pencil_char_poly(HermitianMatrix(r), HermitianMatrix(el)).is_zero
    try:
        _decompose_batch(r[None], el[None], [1.0])
        refused = False
    except DegeneratePencilError as exc:
        refused = "is numerically zero at all" in str(exc)
    assert zero == refused
    assert zero or power is not None


def test_char_poly_interpolation_oracle():
    # evaluate the recovered polynomial at fresh points and compare with
    # direct determinant evaluation
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        r = random_int_hermitian(rng, d)
        el = random_int_hermitian(rng, d)
        p = pencil_char_poly(HermitianMatrix(r), HermitianMatrix(el))
        for s in np.linspace(-1.7, 1.7, 7):
            direct = np.linalg.det(r + 2.0 * s * el).real
            assert abs(p(s) - direct) <= 1e-9 * (1.0 + abs(direct))


def test_char_poly_value_at_zero_is_det_r():
    rng = np.random.default_rng(11)
    r = random_hermitian(rng, 3, scale=2.0)
    el = random_hermitian(rng, 3)
    p = pencil_char_poly(HermitianMatrix(r), HermitianMatrix(el))
    det_r = np.linalg.det(r).real
    assert abs(p(0.0) - det_r) <= 1e-9 * (1.0 + abs(det_r))


# ---------------------------------------------------------------------------
# RealPolynomial against numpy.polynomial


def same_bits(a, b):
    # equal values of equal type and shape, signed zeros included
    return type(a) is type(b) and np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e6, 1e6)), min_size=1, max_size=13
    ),
    x=st.floats(-1e3, 1e3),
    xs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
)
@example(coeffs=[0.0], x=0.5, xs=[1.0])
@example(coeffs=[-0.0], x=-0.0, xs=[-2.0, 0.0])
@example(coeffs=[0.0, 0.0, 0.0], x=2.0, xs=[1.0])
@example(coeffs=[3.0], x=-1.5, xs=[0.25, 4.0])
@example(coeffs=[-2.0, 0.0, 0.0], x=1.0, xs=[1.0])
def test_real_polynomial_matches_numpy_polynomial(coeffs, x, xs):
    p = RealPolynomial(coeffs)
    c = p.coeffs
    for s in (x, int(x), np.float64(x), np.array(xs), np.array(xs).reshape(-1, 1), xs, tuple(xs)):
        assert same_bits(p(s), npoly.polyval(s, c))


# ---------------------------------------------------------------------------
# real_roots


def test_real_roots_linear():
    p = RealPolynomial([2.0, 2.0])
    roots = real_roots(p, -1.0, 1.0, 1e-12)
    assert roots == pytest.approx([-1.0], abs=1e-10)


def test_real_roots_quadratic():
    p = RealPolynomial([-1.0, 0.0, 4.0])
    roots = real_roots(p, -2.0, 2.0, 1e-12)
    assert roots == pytest.approx([-0.5, 0.5], abs=1e-10)


def test_real_roots_tangent_double_root():
    p = RealPolynomial([0.0, 0.0, 1.0])  # s^2
    roots = real_roots(p, -1.0, 1.0, 1e-12)
    assert roots == pytest.approx([0.0], abs=1e-10)


def test_real_roots_triple_root():
    p = RealPolynomial([0.0, 0.0, 0.0, 1.0])  # s^3
    roots = real_roots(p, -1.0, 1.0, 1e-12)
    assert roots == pytest.approx([0.0], abs=1e-10)


def test_real_roots_identically_zero_marker():
    p = RealPolynomial([0.0, 0.0, 0.0])
    assert real_roots(p, -1.0, 1.0, 1e-12) is IDENTICALLY_ZERO


def test_real_roots_constant_has_none():
    p = RealPolynomial([3.0])
    assert real_roots(p, -1.0, 1.0, 1e-12) == []


def test_real_roots_against_companion_matrix():
    # cross-check with numpy's companion-matrix root finder
    rng = np.random.default_rng(23)
    for _ in range(40):
        deg = int(rng.integers(1, 6))
        coeffs = rng.integers(-4, 5, size=deg + 1).astype(float)
        if abs(coeffs[-1]) < 0.5:
            coeffs[-1] = 1.0
        got = real_roots(RealPolynomial(coeffs), -3.0, 3.0, 1e-12)
        assert got is not IDENTICALLY_ZERO
        ref = np.roots(coeffs[::-1])
        ref = sorted(
            {round(z.real, 7) for z in ref if abs(z.imag) < 1e-7 and -3.0 <= z.real <= 3.0}
        )
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert abs(g - r) < 1e-6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    # quarter-integer roots k/4, each of multiplicity 1 to 3
    roots=st.dictionaries(st.integers(-8, 8), st.integers(1, 3), max_size=4),
    # and a complex pair (u +- i v)/4, at least 1/4 off the real axis
    pair=st.tuples(st.integers(-8, 8), st.integers(1, 8)),
    scale=st.sampled_from([1.0, -3.0, 1e-3, 1e4]),
    window=st.sampled_from([(-1.0, 1.0), (-0.5, 2.0), (0.25, 0.75)]),
)
def test_real_roots_match_known_roots(roots, pair, scale, window):
    u, v = pair
    coeffs = scale * npoly.polymul(
        npoly.polyfromroots([k / 4.0 for k, m in roots.items() for _ in range(m)]),
        [(u * u + v * v) / 16.0, -u / 2.0, 1.0],
    )
    lo, hi = window
    got = real_roots(RealPolynomial(coeffs), lo, hi, 0.0)
    want = sorted(k / 4.0 for k in roots if lo <= k / 4.0 <= hi)
    assert len(got) == len(want)
    assert np.abs(np.subtract(got, want)).max(initial=0.0) <= 1e-9


def test_real_roots_high_multiplicity_stays_near_the_root():
    # floating-point coefficients fix a 6-fold root only to about 1e-16^(1/6):
    # the companion eigenvalues ring 1/4 at radius ~3e-3, and the real ones
    # among them need not merge
    got = real_roots(RealPolynomial(npoly.polyfromroots([0.25] * 6)), -1.0, 1.0, 0.0)
    assert 1 <= len(got) <= 2
    assert max(abs(x - 0.25) for x in got) <= 1e-2


def test_real_roots_take_the_mean_of_a_split_triple_root():
    # rounding rings a triple root at 0.3; the resolution is w = 1e-5
    w = 1e-5

    def ring(radius, phase):
        return 0.3 + radius * np.exp(1j * (phase + 2.0 * np.pi * np.arange(3) / 3.0))

    z = np.array([
        ring(1.18e-5, -2.82),  # two members within w of the axis, but 2e-5 apart
        ring(8e-5, 0.3),  # no member within w of the axis
        [0.3, 0.3 + 2e-5, 5.0],  # simple real roots 2e-5 apart stay two
        [0.3 + 5e-5j, 0.3 - 5e-5j, 0.6],  # a complex pair near the axis is no root
        [0.3, 0.3001 + 5e-5j, 0.3001 - 5e-5j],  # a simple root beside such a pair stays put
    ])
    assert (np.abs(z[0].imag) <= w).sum() == 2 and np.ptp(z[0].real[np.abs(z[0].imag) <= w]) > 2 * w
    assert (np.abs(z[1].imag) > w).all()
    got = _real_roots(z, w)
    np.testing.assert_allclose(
        got, [[0.3, np.nan], [0.3, np.nan], [0.3, 0.3 + 2e-5], [0.6, np.nan], [0.3, np.nan]], rtol=0, atol=1e-15
    )
    # det = -(s - 0.3) ((s - 0.3001)^2 + 2.5e-9): R + 2sL = diag(s - 0.3) + [[s - b, ic], [-ic, b - s]]
    r = np.diag([-0.3, -0.3001, 0.3001]).astype(complex)
    r[1, 2], r[2, 1] = 5e-5j, -5e-5j
    dec = chambers(HermitianMatrix(r), HermitianMatrix(np.diag([0.5, 0.5, -0.5])), delta=1.0)
    assert dec.roots == pytest.approx([0.3], abs=1e-15)
    assert [c.inertia.neg for c in dec.chambers] == [2, 1]


@pytest.mark.parametrize(
    "coeffs, want",
    [
        # a stationary point one ulp inside the window: the roots are -1 +- 0.0316
        (npoly.polysub(npoly.polyfromroots([np.nextafter(-1.0, 0.0)] * 2), [1e-3]), [-1.0 + 1e-3**0.5]),
        # a double root 1e-13 inside the window is one root at the edge
        (npoly.polyfromroots([-1.0 + 1e-13] * 2), [-1.0]),
    ],
)
def test_real_roots_near_the_window_edge(coeffs, want):
    assert real_roots(RealPolynomial(coeffs), -1.0, 1.0, 2e-12) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# chambers


def test_chambers_1x1():
    dec = chambers(hm([[2.0]]), hm([[1.0]]), delta=1.0)
    assert dec.roots == pytest.approx([-1.0], abs=1e-10)
    assert len(dec.chambers) == 1
    ch = dec.chambers[0]
    assert (ch.lo, ch.hi) == pytest.approx((-1.0, 1.0), abs=1e-10)
    assert ch.inertia.signature == (0, 0, 1)
    assert ch.det_sign == 1


def test_chambers_indefinite_2x2():
    dec = chambers(
        HermitianMatrix.diagonal([1.0, -1.0]), HermitianMatrix.diagonal([1.0, 1.0]), delta=2.0
    )
    assert dec.roots == pytest.approx([-0.5, 0.5], abs=1e-10)
    sigs = [ch.inertia.signature for ch in dec.chambers]
    assert sigs == [(2, 0, 0), (1, 0, 1), (0, 0, 2)]
    signs = [ch.det_sign for ch in dec.chambers]
    assert signs == [1, -1, 1]


def test_chambers_zero_r():
    dec = chambers(HermitianMatrix.diagonal([0.0, 0.0]), hm(np.eye(2)), delta=1.0)
    assert dec.roots == pytest.approx([0.0], abs=1e-10)
    sigs = [ch.inertia.signature for ch in dec.chambers]
    assert sigs == [(2, 0, 0), (0, 0, 2)]


def test_chambers_degenerate_pencil():
    # R and L share the kernel vector e2
    r = HermitianMatrix.diagonal([1.0, 0.0])
    el = HermitianMatrix.diagonal([1.0, 0.0])
    with pytest.raises(DegeneratePencilError) as exc:
        chambers(r, el, delta=1.0)
    assert "s=" in str(exc.value)


def test_chambers_levi_flat_constant():
    # L = 0 gives a constant pencil with a single chamber and no roots
    dec = chambers(hm(np.eye(2)), HermitianMatrix.zeros(2), delta=0.5)
    assert dec.roots == []
    assert len(dec.chambers) == 1
    assert dec.chambers[0].inertia.signature == (0, 0, 2)


# ---------------------------------------------------------------------------
# signature_set and chamber_integral


def test_signature_set_indefinite_2x2():
    dec = chambers(
        HermitianMatrix.diagonal([1.0, -1.0]), HermitianMatrix.diagonal([1.0, 1.0]), delta=2.0
    )
    q1 = signature_set(dec, 1)
    assert len(q1) == 1
    assert q1[0] == pytest.approx((-0.5, 0.5), abs=1e-10)
    q0 = signature_set(dec, 0)
    assert q0[0] == pytest.approx((0.5, 2.0), abs=1e-10)
    assert signature_set(dec, 2)[0] == pytest.approx((-2.0, -0.5), abs=1e-10)


def test_signature_set_levi_flat_empty_for_positive_q():
    dec = chambers(hm(np.eye(2)), HermitianMatrix.zeros(2), delta=1.0)
    assert signature_set(dec, 1) == []
    assert signature_set(dec, 2) == []


def test_chamber_integral_linear():
    val = chamber_integral(hm([[2.0]]), hm([[1.0]]), q=0, delta=1.0)
    assert val == pytest.approx(4.0, rel=1e-12)


def test_chamber_integral_middle_chamber():
    r = HermitianMatrix.diagonal([1.0, -1.0])
    el = HermitianMatrix.diagonal([1.0, 1.0])
    assert chamber_integral(r, el, q=1, delta=2.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert chamber_integral(r, el, q=0, delta=2.0) == pytest.approx(9.0, rel=1e-12)


def test_chamber_integral_quadrature_oracle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        r = random_int_hermitian(rng, d)
        el = random_int_hermitian(rng, d)
        try:
            vals = [chamber_integral(HermitianMatrix(r), HermitianMatrix(el), q, delta) for q in range(d + 1)]
        except DegeneratePencilError:
            continue
        for q in range(d + 1):
            ref = oracle_chamber_integral(r, el, q, delta)
            assert vals[q] == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_signed_integral_mixed_example():
    r = HermitianMatrix.diagonal([1.0, -1.0])
    el = HermitianMatrix.diagonal([1.0, 1.0])
    assert pencil_signed_integral(r, el, delta=2.0) == pytest.approx(52.0 / 3.0, rel=1e-12)


def test_signed_integral_quadrature_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        r = random_hermitian(rng, d, scale=2.0)
        el = random_hermitian(rng, d)
        got = pencil_signed_integral(HermitianMatrix(r), HermitianMatrix(el), delta=1.5)
        ref = oracle_signed_integral(r, el, 1.5)
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-10)


# ---------------------------------------------------------------------------
# structural properties


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_chamber_tiling_and_det_sign(d, seed):
    rng = np.random.default_rng(seed)
    r = random_int_hermitian(rng, d)
    el = random_int_hermitian(rng, d)
    delta = float(rng.choice([0.5, 1.0, 2.0]))
    try:
        dec = chambers(HermitianMatrix(r), HermitianMatrix(el), delta)
    except DegeneratePencilError:
        return
    total = sum(hi - lo for q in range(d + 1) for lo, hi in signature_set(dec, q))
    assert total == pytest.approx(2.0 * delta, rel=1e-10)
    p = pencil_char_poly(HermitianMatrix(r), HermitianMatrix(el))
    for ch in dec.chambers:
        assert ch.det_sign == (-1) ** ch.inertia.neg
        mid = 0.5 * (ch.lo + ch.hi)
        assert ch.det_sign * p(mid) > 0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_congruence_invariance(d, seed):
    rng = np.random.default_rng(seed)
    r = random_int_hermitian(rng, d)
    el = random_int_hermitian(rng, d)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, _ = np.linalg.qr(z)
    ru = u.conj().T @ r @ u
    lu = u.conj().T @ el @ u
    delta = 1.0
    try:
        dec = chambers(HermitianMatrix(r), HermitianMatrix(el), delta)
    except DegeneratePencilError:
        return
    dec_u = chambers(HermitianMatrix(ru), HermitianMatrix(lu), delta)
    assert np.allclose(dec.roots, dec_u.roots, atol=1e-10)
    assert [c.inertia.signature for c in dec.chambers] == [
        c.inertia.signature for c in dec_u.chambers
    ]
    for q in range(d + 1):
        a = chamber_integral(HermitianMatrix(r), HermitianMatrix(el), q, delta)
        b = chamber_integral(HermitianMatrix(ru), HermitianMatrix(lu), q, delta)
        assert b == pytest.approx(a, rel=1e-10, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([0.5, 2.0, 3.0]),
)
def test_scaling_covariance(d, seed, c):
    rng = np.random.default_rng(seed)
    r = random_int_hermitian(rng, d)
    el = random_int_hermitian(rng, d)
    delta = 1.0
    try:
        dec = chambers(HermitianMatrix(r), HermitianMatrix(el), delta)
    except DegeneratePencilError:
        return
    dec_c = chambers(HermitianMatrix(c * r), HermitianMatrix(c * el), delta)
    assert np.allclose(dec.roots, dec_c.roots, atol=1e-10)
    for q in range(d + 1):
        a = chamber_integral(HermitianMatrix(r), HermitianMatrix(el), q, delta)
        b = chamber_integral(HermitianMatrix(c * r), HermitianMatrix(c * el), q, delta)
        assert b == pytest.approx((c**d) * a, rel=1e-10, abs=1e-12)


def test_chamber_integral_validates_q():
    with pytest.raises(InputError):
        chamber_integral(hm([[2.0]]), hm([[1.0]]), q=2, delta=1.0)
    with pytest.raises(InputError):
        chamber_integral(hm([[2.0]]), hm([[1.0]]), q=-1, delta=1.0)


# ---------------------------------------------------------------------------
# the eigenvalue engine against independent references


def qz_roots(r, el, delta):
    """Real roots of det(R + 2sL) in [-delta, delta] from scipy's QZ
    (generalized Schur) eigenvalues of the pair (R, -2L)."""
    from scipy.linalg import eigvals

    with np.errstate(divide="ignore", invalid="ignore"):  # singular L: infinite eigenvalues
        ev = eigvals(r, -2.0 * el)
    ev = ev[np.isfinite(ev)]
    return np.sort(ev[(np.abs(ev.imag) <= 1e-9) & (np.abs(ev.real) <= delta)].real)


@pytest.mark.parametrize("d", [1, 2, 4, 8, 12, 16, 20])
def test_chamber_roots_match_qz_reference(d):
    rng = np.random.default_rng(1000 + d)
    for delta in (0.3, 1.0, 3.0):
        for _ in range(6):
            r, el = random_hermitian(rng, d), random_hermitian(rng, d)
            dec = chambers(HermitianMatrix(r), HermitianMatrix(el), delta)
            ref = qz_roots(r, el, delta)
            assert len(dec.roots) == len(ref)
            assert np.abs(np.subtract(dec.roots, ref)).max(initial=0.0) <= 1e-13 * (1.0 + delta)
            assert len(dec.chambers) == len(ref) + 1
            for ch in dec.chambers:  # inertia against the eigenvalues at a fresh point
                s = ch.lo + 0.3 * (ch.hi - ch.lo)
                assert ch.inertia.neg == int((np.linalg.eigvalsh(r + 2.0 * s * el) < 0).sum())


def qz_masses(r, el, ends):
    """The integral of |det(R + 2sL)| over each interval (ends[j], ends[j + 1])
    on which det keeps one sign, in product form |det 2L| prod_i |s - l_i|
    over scipy's QZ eigenvalues l_i of the pair (R, -2L), by numpy's
    Gauss-Legendre rule with d // 2 + 1 nodes, exact for degree d."""
    from scipy.linalg import eigvals

    lam = eigvals(r, -2.0 * el)
    scale = abs(np.linalg.det(2.0 * el))
    t, w = np.polynomial.legendre.leggauss(r.shape[0] // 2 + 1)
    lo, hi = np.asarray(ends[:-1]), np.asarray(ends[1:])
    s = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * t
    return 0.5 * (hi - lo) * (scale * np.prod(np.abs(s[..., None] - lam), axis=-1) @ w)


def gaussian_stack(d, count=10):
    rng = np.random.default_rng(2000 + d)
    pencils = [(random_hermitian(rng, d), random_hermitian(rng, d)) for _ in range(count)]
    return np.array([p[0] for p in pencils]), np.array([p[1] for p in pencils])


@pytest.mark.parametrize("d", [16, 32, 48, 64, 96])
def test_chamber_masses_match_the_qz_product_form(d):
    # each chamber's mass to 1e-11 of itself, which differencing an
    # antiderivative in monomial form misses from d = 32 on (1e-1 at d = 96)
    r, el = gaussian_stack(d)
    w = _decompose_batch(r, el, [1.0])[0]
    for i, count in enumerate(w.counts.tolist()):
        masses = w.masses[i, :count]
        ref = qz_masses(r[i], el[i], w.breaks[i, : count + 1])
        assert (np.abs(masses - ref) <= 1e-11 * ref).all()
        alternating = math.fsum((-1.0) ** w.neg[i, :count] * masses)
        assert abs(w.signed[i] - alternating) <= 1e-11 * masses.sum()


def mp_det(rows):
    """The determinant of a square matrix of mpmath numbers, by Gaussian
    elimination with partial pivoting at the working precision."""
    a, det = [list(row) for row in rows], 1
    for k in range(len(a)):
        p = max(range(k, len(a)), key=lambda i: abs(a[i][k]))
        a[k], a[p] = a[p], a[k]
        det *= a[k][k] if p == k else -a[k][k]
        for row in a[k + 1 :]:
            f = row[k] / a[k][k]
            for j in range(k + 1, len(a)):
                row[j] -= f * a[k][j]
    return det


def test_qz_product_form_against_mpmath():
    # the reference of the test above on the narrowest chamber of a d = 16
    # pencil, where its nodes come nearest the roots, against det(R + 2sL)
    # itself at 50 digits
    import mpmath

    r, el = gaussian_stack(16, 1)
    w = _decompose_batch(r, el, [1.0])[0]
    ends = w.breaks[0, : w.counts[0] + 1]
    j = int(np.argmin(np.diff(ends)))
    ref = qz_masses(r[0], el[0], ends)[j]
    with mpmath.workdps(50):
        nodes, weights = mpmath.gauss_quadrature(9, "legendre")  # exact for degree 17
        lo, hi = mpmath.mpf(ends[j]), mpmath.mpf(ends[j + 1])
        exact = (hi - lo) / 2 * mpmath.fsum(
            wk * abs(mpmath.re(mp_det([
                [mpmath.mpc(a) + (hi + lo + (hi - lo) * xk) * mpmath.mpc(b) for a, b in zip(ra, rb)]
                for ra, rb in zip(r[0].tolist(), el[0].tolist())
            ])))
            for xk, wk in zip(nodes, weights)
        )
        assert abs(ref - exact) <= 1e-13 * exact
        assert abs(w.masses[0, j] - exact) <= 1e-13 * exact


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
    power=st.floats(-12.0, 12.0),
    delta=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_chambers_are_unit_free(d, seed, power, delta):
    # scaling (R, L) by t moves no chamber and scales every mass by t^d
    rng = np.random.default_rng(seed)
    r, el = random_hermitian(rng, d), random_hermitian(rng, d)
    t = 10.0**power
    base, base_masses, base_signed = decomposed(r, el, delta)
    got, got_masses, got_signed = decomposed(t * r, t * el, delta)
    assert np.allclose(got.roots, base.roots, rtol=0.0, atol=1e-13 * (1.0 + delta))
    assert [c.inertia.signature for c in got.chambers] == [c.inertia.signature for c in base.chambers]
    np.testing.assert_allclose(got_masses, np.multiply(base_masses, t**d), rtol=1e-12)
    assert got_signed == pytest.approx(base_signed * t**d, rel=1e-12, abs=1e-12 * t**d * sum(base_masses))


def unitary(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def test_clustered_roots_resolve_down_to_the_root_width():
    # eigenvalue j of R + 2sL is 2 (s - a_j): one crossing at each a_j
    a = np.array([-0.5, 0.1, 0.1 + 1e-3, 0.1 + 1e-4 + 1e-3, 0.7, 0.7 + 1e-7])
    u = unitary(np.random.default_rng(3), a.size)
    r = u @ np.diag(-2.0 * a) @ u.conj().T
    dec = chambers(HermitianMatrix(r), hm(np.eye(a.size)), 1.0)
    # roots 1e-4 apart are resolved; the pair 1e-7 apart, below the 1e-5
    # resolution, is one root at its mean, crossed by two eigenvalues at once
    want = [-0.5, 0.1, 0.1 + 1e-3, 0.1 + 1.1e-3, 0.7 + 5e-8]
    assert dec.roots == pytest.approx(want, abs=1e-13)
    assert [c.inertia.neg for c in dec.chambers] == [6, 5, 4, 3, 2, 0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 4), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_q_masses_equal_a_math_fsum_per_degree(d, n, seed):
    # each window's q-masses are, bit for bit, the math.fsum of each row's
    # q-chamber masses in chamber order
    rng = np.random.default_rng(seed)
    r, el = (np.array([random_hermitian(rng, d) for _ in range(n)]) for _ in range(2))
    for w in _decompose_batch(r, el, [0.5, 1.0]):
        want = [
            [math.fsum(w.masses[i, j] for j in range(w.counts[i]) if w.neg[i, j] == q) for q in range(d + 1)]
            for i in range(n)
        ]
        assert w.q_masses.tolist() == want


@pytest.mark.parametrize(
    "values, want",
    [
        ([2.0**53, 1.0, 1.0], 2.0**53 + 2.0),  # exactly rounded, where a plain sum gives 2^53
        ([0.1] * 10, 1.0),
        ([1e308, 1e308], math.inf),  # the exact total out of range: its sign
        ([-1e308, -1e308, 1.0], -math.inf),
        ([math.inf, 1.0], math.inf),
        ([math.inf, -math.inf], math.nan),
        # a partial sum leaves range but the exact total does not: rounded once
        ([1e308, 1e308, -1e308], 1e308),
        ([1e308, 1e308, -1e308, -1e308, 2.0**-1074], 2.0**-1074),
        ([1e308, 1e308, -math.inf], -math.inf),
        ([1e308, 1e308, math.nan], math.nan),
    ],
)
def test_fsum_is_exactly_rounded_and_leaves_range_checks_to_the_caller(values, want):
    got = _fsum(values)
    assert got == want or math.isnan(got) and math.isnan(want)


@pytest.mark.parametrize("x", [1e100, 3.7e150, 1e300])
def test_two_pi_quotient_is_one_division_to_386_and_exact_to_1e15_beyond(x):
    # (2pi)^386 is the last power of TWO_PI that is a float: there the
    # quotient is today's one division, bit for bit; past it, in steps, it
    # stays within 1e-15 of the exact quotient by the float TWO_PI
    assert _two_pi_quotient(x, 386) == x / TWO_PI**386
    assert _two_pi_quotient(x, 386, into=True) == TWO_PI**386 / x
    for n in (387, 500):
        power = Fraction(TWO_PI) ** n
        for into, exact in ((False, Fraction(x) / power), (True, power / Fraction(x))):
            got = _two_pi_quotient(x, n, into)
            assert sys.float_info.min <= got < math.inf, (n, into)
            assert abs(Fraction(got) - exact) <= exact * Fraction(1, 10**15), (n, into)


def test_two_pi_quotient_at_773_leaves_the_normal_floats():
    # (2pi)^773 exceeds the largest float squared over the least normal one
    for x in (sys.float_info.max, 1.0, 5e-324):
        assert 0.0 <= _two_pi_quotient(x, 773) < sys.float_info.min
    with pytest.raises(InputError, match=r"^q=0: the q-chamber mass of \|det\| leaves floating-point range$"):
        _densities(773, [1.0], [[sys.float_info.max]], [True], "|det|")


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_repeated_root_of_full_multiplicity(d):
    # R + 2sL = (1 - 2s) U diag(+-1) U*: det = c (1 - 2s)^d, every
    # eigenvalue crossing 0 at s = 1/2 together
    rng = np.random.default_rng(d)
    u = unitary(rng, d)
    signs = np.where(np.arange(d) % 2, -1.0, 1.0)
    r = u @ np.diag(signs) @ u.conj().T
    dec, masses, signed = decomposed(r, -r, 1.0)
    assert dec.roots == pytest.approx([0.5], abs=1e-13)
    q = d // 2  # negative eigenvalues of diag(signs)
    assert [c.inertia.neg for c in dec.chambers] == [q, d - q]
    # int_{-1}^{1/2} (1 - 2s)^d ds = 3^(d+1) / (2 (d+1)), and 1/(2 (d+1)) after
    assert masses == pytest.approx([3.0 ** (d + 1) / (2 * (d + 1)), 1.0 / (2 * (d + 1))], rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_tangent_root_is_one_root_between_equal_chambers(seed):
    # [[0, s - a], [s - a, 1]] has det -(s - a)^2: an eigenvalue touches 0 at
    # s = a without crossing.  Under a congruence C, QZ splits the double root
    # by ~1e-8 into a real or complex pair; the engine reports it once.
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(-0.8, 0.8))
    c = unitary(rng, 2) @ np.diag([1.0, float(rng.uniform(1.0, 30.0))]) @ unitary(rng, 2)
    r = c.conj().T @ np.array([[0.0, -a], [-a, 1.0]]) @ c
    el = c.conj().T @ np.array([[0.0, 0.5], [0.5, 0.0]]) @ c
    dec, masses = decomposed(r, el, 1.0)[:2]
    assert dec.roots == pytest.approx([a], abs=1e-10)
    assert [c.inertia.signature for c in dec.chambers] == [(1, 0, 1), (1, 0, 1)]
    scale = abs(np.linalg.det(c)) ** 2  # det(C* A C) = |det C|^2 det A
    assert sum(masses) == pytest.approx(scale * ((1 + a) ** 3 + (1 - a) ** 3) / 3.0, rel=1e-10)


def test_tangent_root_of_the_plain_example():
    dec = chambers(hm([[0, 0], [0, 1]]), hm([[0, 0.5], [0.5, 0]]), 1.0)
    assert dec.roots == [0.0]
    assert [(c.lo, c.hi, c.inertia.signature) for c in dec.chambers] == [
        (-1.0, 0.0, (1, 0, 1)),
        (0.0, 1.0, (1, 0, 1)),
    ]


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_singular_l_sends_roots_to_infinity(rank):
    # L of rank < d: det(R + 2sL) has degree rank, and the missing roots are
    # infinite eigenvalues of the pair
    rng = np.random.default_rng(rank)
    d = 3
    v = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    el = v @ np.diag(rng.choice([-1.0, 1.0], size=rank)) @ v.conj().T
    r = random_hermitian(rng, d) + 2.0 * np.eye(d)
    dec, masses, signed = decomposed(r, el, 2.0)
    ref = qz_roots(r, el, 2.0)
    assert len(dec.roots) == len(ref) <= rank
    assert np.abs(np.subtract(dec.roots, ref)).max(initial=0.0) <= 1e-13
    assert signed == pytest.approx(oracle_signed_integral(r, el, 2.0), rel=1e-10)
    assert pencil_char_poly(HermitianMatrix(r), HermitianMatrix(el)).degree == rank


def test_root_where_two_eigenvalues_cross_together():
    # at s = 0 two eigenvalues of this integer pencil cross 0 at once, so det
    # has a double root there without changing sign; a stationary-point
    # search missed it and read inertia (1, 0, 3) on (-0.186, 0)
    r = np.array([[0, 0, 2 - 2j, 0], [0, 0, -1 - 1j, 0], [2 + 2j, -1 + 1j, 2, 1 + 1j], [0, 0, 1 - 1j, 0]])
    el = np.array([[0, 1 - 2j, -1 - 1j, -1], [1 + 2j, 2, 1 + 1j, 1], [-1 + 1j, 1 - 1j, -2, -2j], [-1, 1, 2j, 0]])
    dec = chambers(HermitianMatrix(r), HermitianMatrix(el), 0.25)
    assert dec.roots == pytest.approx([-0.18558011501, 0.0], abs=1e-10)
    assert [c.inertia.signature for c in dec.chambers] == [(2, 0, 2), (3, 0, 1), (1, 0, 3)]
    for ch in dec.chambers:
        s = ch.lo + 0.3 * (ch.hi - ch.lo)
        assert ch.inertia.neg == int((np.linalg.eigvalsh(r + 2.0 * s * el) < 0).sum())



# ---------------------------------------------------------------------------
# The chambers command against the library


def _gaussian_pencil(rng, d):
    return random_hermitian(rng, d), random_hermitian(rng, d)


def _tangent_pencil(rng, d):
    # [[0, s - a], [s - a, 1]] (det -(s - a)^2, an eigenvalue touching 0 at
    # s = a) beside a diagonal block crossing 0 at random points, under a congruence
    a = rng.uniform(-0.8, 0.8, size=d)
    r, el = np.diag(-2.0 * a).astype(complex), np.eye(d, dtype=complex)
    if d >= 2:
        r[:2, :2], el[:2, :2] = [[0.0, -a[0]], [-a[0], 1.0]], [[0.0, 0.5], [0.5, 0.0]]
    c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return c.conj().T @ r @ c, c.conj().T @ el @ c


def _clustered_pencil(rng, d):
    # eigenvalue j of R + 2sL is 2 (s - a_j), with a_1 - a_0 below, near or
    # above the 1e-5 root resolution
    a = rng.uniform(-0.9, 0.9, size=d)
    if d >= 2:
        a[1] = a[0] + rng.choice([1e-7, 3e-6, 2e-5])
    u = unitary(rng, d)
    return u @ np.diag(-2.0 * a) @ u.conj().T, np.eye(d)


def _pairs(m):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex).tolist()]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    make=st.sampled_from([_gaussian_pencil, _tangent_pencil, _clustered_pencil]),
)
def test_chambers_command_equals_the_library(tmp_path_factory, d, seed, make):
    # the command's rows and roots are chambers() of the parsed sample, and
    # its masses the engine window's, bit for bit
    r, el = make(np.random.default_rng(seed), d)
    doc = {"schema": "crmorse/field-v1", "n": d + 1, "delta": 1.0,
           "points": [{"label": "p", "R": _pairs(r), "L": _pairs(el)}]}
    tmp = tmp_path_factory.mktemp("chambers")
    (tmp / "f.json").write_text(json.dumps(doc))
    assert run(["chambers", "--input", str(tmp / "f.json"), "--out", str(tmp / "out.json")]) == 0
    result = json.loads((tmp / "out.json").read_text())["result"]
    point = parse_field((tmp / "f.json").read_bytes()).points[0]
    dec = chambers(point.r, point.el, 1.0)
    w = _decompose(point.r, point.el, 1.0)
    assert result["roots"] == dec.roots
    assert result["chambers"] == [
        {"lo": c.lo, "hi": c.hi, "inertia": list(c.inertia.signature), "detSign": c.det_sign, "mass": m}
        for c, m in zip(dec.chambers, w.masses[0, : w.counts[0]].tolist(), strict=True)
    ]
