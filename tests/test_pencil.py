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
    _decompose,
)
from oracle_tools import (
    oracle_chamber_integral,
    oracle_signed_integral,
    random_hermitian,
    random_int_hermitian,
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
    base = _decompose(HermitianMatrix(r), HermitianMatrix(el), delta)
    got = _decompose(HermitianMatrix(t * r), HermitianMatrix(t * el), delta)
    assert np.allclose(got.dec.roots, base.dec.roots, rtol=0.0, atol=1e-13 * (1.0 + delta))
    assert [c.inertia.signature for c in got.dec.chambers] == [c.inertia.signature for c in base.dec.chambers]
    np.testing.assert_allclose(got.masses, np.multiply(base.masses, t**d), rtol=1e-12)
    assert got.signed == pytest.approx(base.signed * t**d, rel=1e-12, abs=1e-12 * t**d * sum(base.masses))


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


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_repeated_root_of_full_multiplicity(d):
    # R + 2sL = (1 - 2s) U diag(+-1) U*: det = c (1 - 2s)^d, every
    # eigenvalue crossing 0 at s = 1/2 together
    rng = np.random.default_rng(d)
    u = unitary(rng, d)
    signs = np.where(np.arange(d) % 2, -1.0, 1.0)
    r = u @ np.diag(signs) @ u.conj().T
    dec, masses, signed = _decompose(HermitianMatrix(r), HermitianMatrix(-r), 1.0)
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
    dec, masses, _ = _decompose(HermitianMatrix(r), HermitianMatrix(el), 1.0)
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
    dec, masses, signed = _decompose(HermitianMatrix(r), HermitianMatrix(el), 2.0)
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
