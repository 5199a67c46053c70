"""Tests for inertia, characteristic polynomials, roots, and chamber integrals."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crmorse.errors import DegeneratePencilError, InputError
from crmorse.pencil import (
    IDENTICALLY_ZERO,
    HermitianMatrix,
    RealPolynomial,
    chamber_integral,
    chambers,
    inertia,
    pencil_char_poly,
    pencil_signed_integral,
    real_roots,
    signature_set,
)
from oracle_tools import (
    oracle_chamber_integral,
    oracle_signed_integral,
    random_hermitian,
    random_int_hermitian,
    scalar_real_roots,
)


def hm(entries):
    return HermitianMatrix(np.asarray(entries, dtype=complex))


# ---------------------------------------------------------------------------
# HermitianMatrix and inertia


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(InputError):
        hm([[1.0, 1.0], [0.0, 1.0]])


def test_hermitian_rejects_non_square():
    with pytest.raises(InputError):
        HermitianMatrix(np.zeros((2, 3), dtype=complex))


def test_inertia_identity():
    assert inertia(hm(np.eye(3)), tol=1e-9).signature == (0, 0, 3)


def test_inertia_diagonal_with_zero():
    assert inertia(HermitianMatrix.diagonal([-1.0, 0.0, 2.0]), tol=1e-9).signature == (1, 1, 1)


def test_inertia_off_diagonal():
    a = hm([[0.0, 1j], [-1j, 0.0]])
    assert inertia(a, tol=1e-9).signature == (1, 0, 1)


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
    ref = npoly.polyder(c[: p.degree + 1]) if p.degree else np.zeros(1)
    assert same_bits(p.derivative().coeffs, ref)
    assert (p.derivative().coeffs == ref).all()
    ref = npoly.polyint(c)
    assert same_bits(p.antiderivative().coeffs, ref)
    assert (p.antiderivative().coeffs == ref).all()


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    roots=st.lists(st.integers(-8, 8), max_size=6),
    wobble=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    scale=st.sampled_from([1.0, -3.0, 1e-3, 1e4]),
    # no bracket gets as short as 1e-300: one that meets no exact zero stops
    # at the 200-halving cap
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-300]),
    window=st.sampled_from([(-1.0, 1.0), (-0.5, 2.0), (0.25, 0.75)]),
)
def test_real_roots_match_scalar_reference(roots, wobble, scale, tol, window):
    # repeated quarter-integer roots give tangent and double roots at
    # stationary points; the wobble factor adds roots that need bisection
    coeffs = scale * npoly.polyfromroots(np.array(roots, dtype=float) / 4.0)
    coeffs = npoly.polymul(coeffs, wobble) if any(wobble) else coeffs
    p = RealPolynomial(coeffs)
    lo, hi = window
    got = real_roots(p, lo, hi, tol)
    if p.is_zero:
        assert got is IDENTICALLY_ZERO
    else:
        # tol = 0 asks for the default, 1e-12 (1 + max(|lo|, |hi|))
        assert got == scalar_real_roots(coeffs, lo, hi, tol or 1e-12 * (1.0 + max(-lo, hi)))


@pytest.mark.parametrize(
    "coeffs",
    [
        # a stationary point one ulp inside the window is not a separate point
        npoly.polysub(npoly.polyfromroots([np.nextafter(-1.0, 0.0)] * 2), [1e-3]),
        # a double root 1e-13 inside the window is found at the edge and at
        # the stationary point, and the two merge
        npoly.polyfromroots([-1.0 + 1e-13] * 2),
    ],
)
def test_real_roots_edge_cases_match_scalar_reference(coeffs):
    assert real_roots(RealPolynomial(coeffs), -1.0, 1.0, 2e-12) == scalar_real_roots(coeffs, -1.0, 1.0, 2e-12)


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
