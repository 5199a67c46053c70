"""Tests for the Heisenberg model kernel quantities.

The closed-form Bergman density is checked against a brute-force Gram
oracle (monomial reproducing kernel), the Szego density against the
s-route chamber integral of pencil_core, and the extremal form against
hand-computed linear integrals plus scipy quadrature.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import crmorse.model
import crmorse.pencil
from crmorse.cli import run
from crmorse.errors import (
    ChamberBoundaryError,
    DegeneratePencilError,
    InputError,
    ZeroExtremalMassError,
)
from crmorse.model import (
    ModelData,
    _bergman_gram,
    _frame,
    _gauss_legendre,
    _permanents,
    _positive_definite,
    bergman_bruteforce,
    bergman_diag,
    eta_chambers,
    extremal_form,
    m_phi_eta,
    szego_density,
)
from crmorse.pencil import HermitianMatrix, chamber_integral
from oracle_tools import (
    random_int_hermitian,
    scalar_bergman_bruteforce,
    scalar_bergman_gram,
)

TWO_PI = 2.0 * math.pi


def hm(rows):
    return HermitianMatrix(np.array(rows, dtype=complex))


def scalar_model(mu=3.0, lam=1.0, delta=1.0):
    return ModelData(d=1, lam=[lam], mu=hm([[mu]]), delta=delta)


# ----------------------------------------------------------------- types


def test_model_data_validation():
    with pytest.raises(InputError):
        ModelData(d=0, lam=[], mu=hm([[1]]), delta=1.0)
    with pytest.raises(InputError):
        ModelData(d=2, lam=[1.0], mu=hm([[1, 0], [0, 1]]), delta=1.0)
    with pytest.raises(InputError):
        ModelData(d=1, lam=[1.0], mu=hm([[1, 0], [0, 1]]), delta=1.0)
    with pytest.raises(InputError):
        ModelData(d=1, lam=[1.0], mu=hm([[1]]), delta=0.0)
    with pytest.raises(InputError):
        ModelData(d=1, lam=[math.nan], mu=hm([[1]]), delta=1.0)


def test_m_phi_eta_values():
    data = ModelData(d=2, lam=[1.0, 2.0], mu=hm([[1, 0], [0, 1]]), delta=1.0)
    at0 = m_phi_eta(data, 0.0)
    np.testing.assert_allclose(at0.entries, np.eye(2))
    at1 = m_phi_eta(data, 1.0)
    np.testing.assert_allclose(at1.entries, np.diag([-1.0, -3.0]))
    scalar = m_phi_eta(scalar_model(), 0.5)
    np.testing.assert_allclose(scalar.entries, [[2.0]])


def test_eta_chambers_frozen():
    narrow = eta_chambers(scalar_model(delta=1.0))
    assert narrow.intervals[0] == [pytest.approx((-1.0, 1.0))]
    assert narrow.intervals[1] == []
    wide = eta_chambers(scalar_model(delta=2.0))
    assert wide.roots == pytest.approx([1.5])
    assert wide.intervals[0] == [pytest.approx((-2.0, 1.5))]
    assert wide.intervals[1] == [pytest.approx((1.5, 2.0))]


def test_eta_chambers_levi_flat():
    data = ModelData(d=2, lam=[0.0, 0.0], mu=hm([[1, 0], [0, -1]]), delta=0.7)
    cs = eta_chambers(data)
    assert cs.intervals[1] == [pytest.approx((-0.7, 0.7))]
    assert cs.intervals[0] == []
    assert cs.intervals[2] == []


# --------------------------------------------------------- bergman_diag


def test_bergman_diag_frozen():
    data = scalar_model()
    inside = bergman_diag(data, 0.5, 0, [0.0])
    assert inside.value == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert inside.boundary is False
    # M(2) = -1: wrong chamber for q=0, right chamber for q=1
    assert bergman_diag(data, 2.0, 0, [0.0]).value == 0.0
    dual = bergman_diag(data, 2.0, 1, [0.0])
    assert dual.value == pytest.approx(1.0 / TWO_PI, rel=1e-12)
    at_root = bergman_diag(data, 1.5, 0, [0.0])
    assert at_root.value == 0.0
    assert at_root.boundary is True


def test_bergman_diag_z_factorization():
    data = ModelData(
        d=2, lam=[1.0, -0.5], mu=hm([[2, 1j], [-1j, 3]]), delta=1.0
    )
    eta = 0.25
    z = np.array([0.4 - 0.2j, 0.1 + 0.3j])
    m = m_phi_eta(data, eta).entries
    phi = float((z.conj() @ m @ z).real)
    base = bergman_diag(data, eta, 0, np.zeros(2))
    shifted = bergman_diag(data, eta, 0, z)
    assert shifted.value == pytest.approx(base.value * math.exp(phi), rel=1e-12)


def test_bergman_diag_z_out_of_range():
    data = scalar_model()
    # Phi = 3 |z|^2 leaves exp's range at z = 30; at 1e200 |z|^2 itself overflows
    for z in ([30.0], [1e200]):
        with pytest.raises(InputError, match="^z: the Bergman density at this z leaves floating-point range$"):
            bergman_diag(data, 0.0, 0, z)
    # in the q = 1 chamber Phi is negative, and e^Phi underflows to 0
    assert bergman_diag(data, 2.0, 1, [1e200]).value == 0.0


# --------------------------------------------------- bergman_bruteforce


def test_bergman_bruteforce_frozen():
    data = scalar_model()
    assert bergman_bruteforce(data, 0.5, 0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert bergman_bruteforce(data, 0.5, 4) == pytest.approx(1.0 / math.pi, rel=1e-9)
    # diagonal product case: M = diag(2, 3)
    data2 = ModelData(d=2, lam=[1.0, 1.0], mu=hm([[3, 0], [0, 4]]), delta=1.0)
    assert bergman_bruteforce(data2, 0.5, 3) == pytest.approx(6.0 / TWO_PI**2, rel=1e-9)


def test_bergman_bruteforce_preconditions():
    data = scalar_model()
    with pytest.raises(InputError):
        bergman_bruteforce(data, 2.0, 2)  # M = -1 not positive
    with pytest.raises(InputError):
        bergman_bruteforce(data, 0.5, -1)


@pytest.mark.parametrize("top", [1.0, 1e6])
def test_positive_definite_threshold(top):
    # positive definite means min eig > 1e-12 (1 + max |eig|), pinned from both sides
    edge = 1e-12 * (1.0 + top)
    u, _ = np.linalg.qr(np.array([[1.0, 2.0j], [0.5, 1.0]]))
    for low, positive in ((1.01 * edge, True), (0.99 * edge, False), (0.0, False), (-edge, False)):
        m = u @ np.diag([low, top]) @ u.conj().T
        assert _positive_definite(m) == (positive, pytest.approx(low, abs=1e-3 * edge))
        data = ModelData(d=2, lam=[0.0, 0.0], mu=HermitianMatrix(m), delta=1.0)
        if positive:
            assert bergman_bruteforce(data, 0.0, 1) > 0.0
        else:
            with pytest.raises(InputError, match="positive definite"):
                bergman_bruteforce(data, 0.0, 1)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2, 3]), deg=st.sampled_from([0, 2]))
def test_bergman_diag_matches_bruteforce(seed, d, deg):
    rng = np.random.default_rng(seed)
    a = rng.integers(-2, 3, size=(d, d)) + 1j * rng.integers(-2, 3, size=(d, d))
    m = a @ a.conj().T + np.eye(d)  # positive definite by construction
    lam = rng.integers(-2, 3, size=d).astype(float)
    eta = 0.25
    mu = m + 2.0 * eta * np.diag(lam)
    data = ModelData(d=d, lam=lam, mu=HermitianMatrix(mu), delta=1.0)
    closed = bergman_diag(data, eta, 0, np.zeros(d)).value
    brute = bergman_bruteforce(data, eta, deg)
    assert brute == pytest.approx(closed, rel=1e-9)
    det = float(np.linalg.det(m).real)
    assert closed == pytest.approx(det / TWO_PI**d, rel=1e-10)


def _random_positive_model(rng, d):
    """A model with complex off-diagonal mu whose M_eta is positive
    definite at the returned eta."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T + 0.5 * np.eye(d)
    lam = rng.normal(size=d)
    eta = float(rng.uniform(-0.5, 0.5))
    mu = m + 2.0 * eta * np.diag(lam)
    return ModelData(d=d, lam=lam, mu=HermitianMatrix((mu + mu.conj().T) / 2.0), delta=1.0), eta


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2, 3, 4]), deg=st.integers(0, 4))
@example(seed=5, d=4, deg=4)
@example(seed=6, d=3, deg=4)
@example(seed=7, d=2, deg=4)
def test_bergman_bruteforce_matches_scalar_gram(seed, d, deg):
    data, eta = _random_positive_model(np.random.default_rng(seed), d)
    assert bergman_bruteforce(data, eta, deg) == scalar_bergman_bruteforce(data, eta, deg)
    # The value at z=0 reads only the degree-0 block, so compare G itself.
    # Not bit for bit: numpy's array complex multiply may be fused (FMA)
    # where its scalar multiply is not, which moves the last bits.
    gram = _bergman_gram(data, eta, deg)
    ref = scalar_bergman_gram(data, eta, deg)
    np.testing.assert_allclose(gram, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_permanents_named_cases():
    for p in range(7):
        assert _permanents(np.ones((p, p), dtype=complex)) == math.factorial(p)
    assert _permanents(np.zeros((0, 0), dtype=complex)) == 1.0
    assert _permanents(np.diag([2.0, -3.0, 0.5, 4j])) == -12j
    assert _permanents(np.diag([1.5, 2.0, -1.0]).astype(complex)) == -3.0
    stack = np.array(
        [[[[1, 2], [3, 4]], [[0, 1], [1, 0]]], [[[1j, 0], [0, 1j]], [[2, 2], [2, 2]]]],
        dtype=complex,
    )
    np.testing.assert_array_equal(_permanents(stack), [[10, 1], [-1, 8]])


def test_bergman_bruteforce_memory_bounded():
    # the degree-5 block at d=6 is 252 x 252 permanents of 5 x 5 matrices,
    # 25 MB of complex entries if gathered at once
    d = 6
    mu = 3.0 * np.eye(d) + 0.1 * np.ones((d, d))
    data = ModelData(d=d, lam=np.ones(d), mu=HermitianMatrix(mu.astype(complex)), delta=1.0)
    tracemalloc.start()
    try:
        value = bergman_bruteforce(data, 0.5, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    det = float(np.linalg.det(mu - np.eye(d)))
    assert value == pytest.approx(det / TWO_PI**d, rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_bergman_bruteforce_sees_only_det_at_origin(seed, d):
    # the Gram matrix is block diagonal by degree, so (G^-1)_00 = 1/G_00 =
    # det M_eta / (2pi)^d whatever max_degree is: the degree >= 1 blocks
    # cannot move the value at z=0
    data, eta = _random_positive_model(np.random.default_rng(seed), d)
    values = [bergman_bruteforce(data, eta, deg) for deg in range(6)]
    for value in values:
        assert value == pytest.approx(values[0], rel=1e-14)
    closed = bergman_diag(data, eta, 0, np.zeros(d)).value
    assert values[0] == pytest.approx(closed, rel=1e-14)


# --------------------------------------------------------- szego_density


def test_szego_density_frozen():
    data = scalar_model()
    assert szego_density(data, 0) == pytest.approx(6.0 / (4.0 * math.pi**2), rel=1e-12)
    assert szego_density(data, 1) == 0.0
    flat = ModelData(d=2, lam=[0.0, 0.0], mu=hm([[1, 0], [0, 1]]), delta=0.5)
    assert szego_density(flat, 0) == pytest.approx(1.0 / TWO_PI**3, rel=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2, 3]))
def test_szego_matches_s_route(seed, d):
    rng = np.random.default_rng(seed)
    mu = random_int_hermitian(rng, d)
    lam = rng.integers(-3, 4, size=d).astype(float)
    data = ModelData(d=d, lam=lam, mu=HermitianMatrix(mu), delta=1.0)
    for q in range(d + 1):
        try:
            via_eta = szego_density(data, q)
            via_s = chamber_integral(
                HermitianMatrix(mu), HermitianMatrix(np.diag(lam).astype(complex)), q, 1.0
            ) / TWO_PI ** (d + 1)
        except DegeneratePencilError:
            return
        assert math.isclose(via_eta, via_s, rel_tol=1e-10, abs_tol=1e-15)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2]))
def test_szego_sum_rule(seed, d):
    rng = np.random.default_rng(seed)
    mu = random_int_hermitian(rng, d)
    lam = rng.integers(-3, 4, size=d).astype(float)
    data = ModelData(d=d, lam=lam, mu=HermitianMatrix(mu), delta=1.0)
    try:
        total = sum(szego_density(data, q) for q in range(d + 1)) * TWO_PI ** (d + 1)
    except DegeneratePencilError:
        return

    def absdet(eta):
        return abs(np.linalg.det(mu - 2.0 * eta * np.diag(lam)).real)

    quad, _ = integrate.quad(absdet, -1.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
    assert total == pytest.approx(quad, rel=1e-8, abs=1e-10)


# --------------------------------------------------------- extremal_form


@pytest.mark.parametrize("n", [16, 64, 256])
def test_gauss_legendre_matches_numpy(n):
    nodes, weights = _gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.abs(nodes - ref_nodes).max() <= 1e-15
    assert (np.abs(weights - ref_weights) / ref_weights).max() <= 1e-10
    assert abs(weights.sum() - 2.0) <= 1e-14


def test_extremal_form_d1_frozen():
    data = scalar_model()
    form = extremal_form(data, 0, [0.0], 0.0, 64)
    assert form.multi_indices == [()]
    expected = math.sqrt(6.0) / TWO_PI
    assert form.value[0].real == pytest.approx(expected, rel=1e-12)
    assert abs(form.value[0].imag) < 1e-15
    assert form.norm_check == pytest.approx(1.0, abs=1e-12)
    assert form.peak_check == pytest.approx(1.0, abs=1e-12)


def test_extremal_form_d1_z_dependence():
    # u(z,0) = (1/2pi) C0 int_{-1}^{1} (3-2n) e^{n|z|^2} dn, |z| = 1
    data = scalar_model()
    form = extremal_form(data, 0, [1.0], 0.0, 256)
    a = 1.0
    exact = (math.exp(a) - 5.0 * math.exp(-a)) / a + 2.0 * (
        math.exp(a) - math.exp(-a)
    ) / a**2
    expected = exact / (TWO_PI * math.sqrt(6.0))
    assert form.value[0].real == pytest.approx(expected, rel=1e-9)


def test_extremal_form_q1_coherent_frozen():
    # M = diag(1-2n, 3-2n), q=1 chamber (1/2, 1), integral 1/3
    data = ModelData(d=2, lam=[1.0, 1.0], mu=hm([[1, 0], [0, 3]]), delta=1.0)
    form = extremal_form(data, 1, [0.0, 0.0], 0.0, 64)
    assert form.multi_indices == [(0,), (1,)]
    expected = 1.0 / math.sqrt(3.0 * TWO_PI**3)
    assert abs(form.value[0]) == pytest.approx(expected, rel=1e-9)
    assert abs(form.value[1]) < 1e-15
    assert form.norm_check == pytest.approx(1.0, abs=1e-9)
    assert form.peak_check == pytest.approx(1.0, abs=1e-9)


def test_extremal_form_q1_offcenter_matches_quadrature():
    data = ModelData(d=2, lam=[1.0, 1.0], mu=hm([[1, 0], [0, 3]]), delta=1.0)
    z = [0.3, 0.0]
    form = extremal_form(data, 1, z, 0.0, 256)
    c0 = math.sqrt(3.0) / math.sqrt(TWO_PI)

    def integrand(eta):
        absdet = (2.0 * eta - 1.0) * (3.0 - 2.0 * eta)
        return absdet * math.exp(0.09 * eta) * math.exp((1.0 - 2.0 * eta) * 0.09)

    quad, _ = integrate.quad(integrand, 0.5, 1.0, epsabs=1e-14)
    expected = c0 * quad / TWO_PI
    assert abs(form.value[0]) == pytest.approx(expected, rel=1e-9)


def loop_extremal_form(data, q, z, theta, nodes):
    """extremal_form one quadrature node at a time, with plain running sums:
    the loop that the array code replaced, on the same chambers and frames."""
    dec = eta_chambers(data)
    total_mass = szego_density(data, q) * TWO_PI**data.n
    c0 = TWO_PI ** (1.0 - 0.5 * data.n) / math.sqrt(total_mass)
    js = list(itertools.combinations(range(data.d), q))
    x, w = np.polynomial.legendre.leggauss(nodes)
    z = np.asarray(z, dtype=complex)
    u = np.zeros(len(js), dtype=complex)
    u_origin = np.zeros(len(js), dtype=complex)
    norm = 0.0
    for lo, hi in dec.intervals[q]:
        for xi, wi in zip(x, w):
            eta, wt = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xi, 0.5 * (hi - lo) * wi
            v, qmat = _frame(data.mu.entries - 2.0 * eta * np.diag(data.lam), q)
            coeff = np.array([np.linalg.det(qmat[np.ix_(j, range(q))]) if q else 1.0 for j in js])
            base = wt * c0 * np.prod(np.abs(v))
            wq = qmat.conj().T @ z
            u += base * np.exp(1j * theta * eta + eta * (data.lam @ np.abs(z) ** 2) + v[:q] @ np.abs(wq[:q]) ** 2) * coeff
            u_origin += base * coeff
            norm += wt * (c0 * np.prod(np.abs(v))) ** 2 * np.prod(TWO_PI / np.abs(v))
    return u / TWO_PI, norm / TWO_PI, float(np.sum(np.abs(u_origin / TWO_PI) ** 2)) / (total_mass / TWO_PI**data.n)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_extremal_form_matches_the_node_loop(seed, d):
    # order-independent sums in place of running ones: equal to rounding
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for k in (d - d // 2, d // 2)]
    mu = np.zeros((d, d), dtype=complex)
    mu[: len(blocks[0]), : len(blocks[0])] = blocks[0] @ blocks[0].conj().T + np.eye(len(blocks[0]))
    if d // 2:
        mu[len(blocks[0]) :, len(blocks[0]) :] = -(blocks[1] @ blocks[1].conj().T) - np.eye(d // 2)
    lam = np.concatenate([np.ones(d - d // 2), -np.ones(d // 2)]) * rng.uniform(0.5, 2.0, size=d)
    data = ModelData(d=d, lam=lam, mu=HermitianMatrix(mu), delta=1.0)
    z = 0.3 * (rng.normal(size=d) + 1j * rng.normal(size=d))
    for q in range(d + 1):
        if not eta_chambers(data).intervals[q]:
            continue
        form = extremal_form(data, q, z, 0.7, 64)
        value, norm, peak = loop_extremal_form(data, q, z, 0.7, 64)
        np.testing.assert_allclose(form.value, value, rtol=1e-12, atol=1e-14 * np.abs(value).max())
        assert form.norm_check == pytest.approx(norm, rel=1e-12)
        assert form.peak_check == pytest.approx(peak, rel=1e-12)


def test_extremal_form_theta_is_fourier_phase():
    data = scalar_model()
    peak = extremal_form(data, 0, [0.0], 0.0, 128).value[0]
    for theta in (0.5, 2.0, 7.0):
        shifted = extremal_form(data, 0, [0.0], theta, 128).value[0]
        assert abs(shifted) <= abs(peak) * (1.0 + 1e-12)
    assert abs(extremal_form(data, 0, [0.0], 2.0, 128).value[0]) < abs(peak)


def test_extremal_form_errors():
    data = scalar_model()
    with pytest.raises(ZeroExtremalMassError, match="zero extremal mass"):
        extremal_form(data, 1, [0.0], 0.0, 64)
    with pytest.raises(InputError):
        extremal_form(data, 0, [0.0], 0.0, 8)
    with pytest.raises(InputError):
        extremal_form(data, 0, [0.0, 0.0], 0.0, 64)  # z has wrong length


def test_extremal_form_z_out_of_range():
    data = scalar_model()
    # the exponent eta |z|^2 reaches 900 at z = 30; |z|^2 overflows at 1e200
    for z in ([30.0], [1e200]):
        with pytest.raises(InputError, match="^z: the extremal form at this z leaves floating-point range$"):
            extremal_form(data, 0, z, 0.0, 16)


def test_frame_boundary_guard():
    with pytest.raises(ChamberBoundaryError, match="chamber boundary touched"):
        _frame(np.diag([0.0, 1.0]), 1)
    with pytest.raises(ChamberBoundaryError, match="chamber boundary touched"):
        _frame(np.diag([-1.0, 0.0]), 1)
    v, qmat = _frame(np.diag([-1.0, 2.0]), 1)
    assert v[0] == pytest.approx(-1.0)
    np.testing.assert_allclose(qmat, np.eye(2))
    # a stack is checked matrix by matrix; the first failing one is named
    stack = np.array([np.diag([-1.0, 2.0]), np.diag([-2.0, 0.0]), np.diag([0.0, 3.0])])
    shown = "(v=%s)" % np.array2string(np.array([-2.0, 0.0]), precision=3)
    with pytest.raises(ChamberBoundaryError, match=re.escape(shown)):
        _frame(stack, 1)
    good = np.array([np.diag([-1.0, 2.0]), [[1, 2j], [-2j, -1]], [[3, 1], [1, -1]]], dtype=complex)
    vs, qmats = _frame(good, 1)
    for k, m in enumerate(good):
        v, qmat = _frame(m, 1)
        np.testing.assert_array_equal(vs[k], v)
        np.testing.assert_array_equal(qmats[k], qmat)


def test_extremal_form_deterministic():
    data = ModelData(d=2, lam=[1.0, 2.0], mu=hm([[2, 1], [1, 2]]), delta=1.0)
    f1 = extremal_form(data, 0, [0.1, 0.2], 0.3, 64)
    f2 = extremal_form(data, 0, [0.1, 0.2], 0.3, 64)
    np.testing.assert_array_equal(f1.value, f2.value)
    assert f1.norm_check == f2.norm_check
    assert f1.peak_check == f2.peak_check


def test_extremal_norm_converges_with_nodes():
    data = ModelData(d=2, lam=[1.0, 2.0], mu=hm([[2, 1], [1, 2]]), delta=1.0)
    for nodes in (64, 256):
        form = extremal_form(data, 0, [0.0, 0.0], 0.0, nodes)
        assert form.norm_check == pytest.approx(1.0, abs=1e-9)
        assert form.peak_check == pytest.approx(1.0, abs=1e-9)


def test_model_pencil_decomposed_once(monkeypatch, tmp_path):
    windows = []
    real = crmorse.pencil._decompose

    def counting(r, el, delta, *rest):
        windows.append(delta)
        return real(r, el, delta, *rest)

    monkeypatch.setattr(crmorse.pencil, "_decompose", counting)
    monkeypatch.setattr(crmorse.model, "_decompose", counting)
    # M_eta = diag(2 - 2 eta, 2 eta - 1): q=1 below eta = 1/2, q=0 above
    doc = {
        "schema": "crmorse/model-v1",
        "d": 2,
        "lambda": [1.0, -1.0],
        "mu": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        "delta": 0.75,
    }
    inp = tmp_path / "m.json"
    inp.write_text(json.dumps(doc))
    assert run(["szego-density", "--input", str(inp), "--out", str(tmp_path / "s.json")]) == 0
    assert windows == [0.75]
    data = ModelData(d=2, lam=[1.0, -1.0], mu=hm([[2, 0], [0, -1]]), delta=0.75)
    for q in (0, 1):
        windows.clear()
        extremal_form(data, q, [0.0, 0.0], 0.0, 16)
        assert windows == [0.75]
