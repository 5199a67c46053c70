"""Tests for the field-level Morse quantities.

Frozen expected values come from hand-computed chamber integrals of
small diagonal pencils; randomized checks compare against the
eigenvalue-scan/quadrature oracles in oracle_tools.
"""

from __future__ import annotations

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crmorse.morse
from crmorse.cli import DEFAULT_HEISENBERG_DOC, parse_heisenberg, run, serialize_field
from crmorse.errors import DegeneratePencilError, InputError
from crmorse.morse import (
    REASON_INCONCLUSIVE,
    REASON_POSITIVE,
    REASON_SEMIPOSITIVE,
    PencilField,
    PencilPoint,
    bigness_verdict,
    build_morse_report,
    check_Xq,
    classify_bundle,
    density_q,
    rrh_total,
    strong_sums,
    weak_bound,
)
from crmorse.model import ModelData
from crmorse.oracles import HeisenbergSpec, LatticeCalibration, TorusBundleSpec, heisenberg_field
from crmorse.pencil import HermitianMatrix, RealPolynomial
from crmorse.serialize import canonical_json
from oracle_tools import (
    TWO_PI,
    hm,
    oracle_signature_intervals,
    random_hermitian,
    random_int_hermitian,
)


def pt(label, r, el, weight=1.0):
    return PencilPoint(label=label, r=hm(r), el=hm(el), weight=weight)


def single(n, delta, r, el, weight=1.0):
    return PencilField(n=n, delta=delta, points=[pt("p0", r, el, weight)])


MIXED = single(3, 2.0, [[1, 0], [0, -1]], [[1, 0], [0, 1]])  # roots at +-1/2


# ---------------------------------------------------------------- validation


def test_field_validation():
    good = pt("a", [[1]], [[1]])
    with pytest.raises(InputError):
        PencilField(n=1, delta=1.0, points=[good])
    with pytest.raises(InputError):
        PencilField(n=2, delta=0.0, points=[good])
    with pytest.raises(InputError):
        PencilField(n=2, delta=1.0, points=[])
    with pytest.raises(InputError):
        # point dimension does not match n - 1
        PencilField(n=3, delta=1.0, points=[good])
    with pytest.raises(InputError):
        PencilPoint(label="w", r=hm([[1]]), el=hm([[1]]), weight=0.0)
    with pytest.raises(InputError):
        PencilPoint(label="w", r=hm([[1]]), el=hm([[1, 0], [0, 1]]))


def test_value_classes_are_read_only_and_compare_by_fields():
    r, el = hm([[1]]), hm([[2]])
    p = PencilPoint("a", r, el, 2)
    field = PencilField(np.int64(2), 1, [p])
    poly = RealPolynomial([1, 2])
    assert (p.weight, field.n, field.delta) == (2.0, 2, 1.0)
    assert type(p.weight) is float and type(field.n) is int and type(field.delta) is float
    assert p == PencilPoint(label="a", r=r, el=el, weight=2.0) and hash(p) == hash(PencilPoint("a", r, el, 2))
    assert p != PencilPoint("b", r, el, 2.0) and p != ("a", r, el, 2.0)
    assert field == PencilField(2, 1.0, [p]) and field != PencilField(2, 0.5, [p])
    assert repr(p) == "PencilPoint(label='a', r=HermitianMatrix(dim=1), el=HermitianMatrix(dim=1), weight=2.0)"
    assert repr(poly) == "RealPolynomial(coeffs=array([1., 2.]))"
    for obj, name in ((p, "weight"), (field, "points"), (poly, "coeffs")):
        with pytest.raises(AttributeError, match="cannot assign to field '%s'" % name):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert not poly.coeffs.flags.writeable


def _point(weight=1.0):
    return PencilPoint("p", hm([[1, 1j], [-1j, 2]]), hm([[1, 0], [0, -1]]), weight)


# each value class: a maker of fresh equal instances, and an unequal one
FROZEN_CASES = {
    "RealPolynomial": (lambda: RealPolynomial([1.0, 2.0]), lambda: RealPolynomial([1.0, 3.0])),
    "PencilPoint": (_point, lambda: _point(2.0)),
    "PencilField": (lambda: PencilField(3, 0.5, [_point(), _point()]), lambda: PencilField(3, 0.5, [_point()])),
    "ModelData": (lambda: ModelData(2, [1.0, -1.0], hm([[3, 1], [1, 2]]), 0.5),
                  lambda: ModelData(2, [1.0, 1.0], hm([[3, 1], [1, 2]]), 0.5)),
    "TorusBundleSpec": (lambda: TorusBundleSpec(2, [[1, 0], [0, 1]], [[1, 1j], [-1j, -1]], 0.25),
                        lambda: TorusBundleSpec(2, [[1, 0], [0, 1]], [[1, 1j], [-1j, 1]], 0.25)),
    "HeisenbergSpec": (lambda: HeisenbergSpec(2, (1, 2), [[3, 1], [1, 3]], 0.5),
                       lambda: HeisenbergSpec(2, (1, 2), [[3, 1], [1, 4]], 0.5)),
    "LatticeCalibration": (lambda: LatticeCalibration(1, 2, {"seed": 3, "tuples": [[1, 2], [3, 4]]}),
                           lambda: LatticeCalibration(1, 2, {"seed": 3, "tuples": [[1, 2], [3, 5]]})),
}


def test_field_holds_read_only_stacks_and_builds_its_points_on_read():
    points = [_point(), PencilPoint("q", hm([[2, 0], [0, 1]]), hm([[0, 1j], [-1j, 0]]), 3)]
    field = PencilField(3, 0.5, points)
    assert field.points == points and field.points is not field.points
    assert field.labels == ("p", "q") and field.weights.tolist() == [1.0, 3.0]
    assert field.r.shape == field.el.shape == (2, 2, 2)
    np.testing.assert_array_equal(field.el[1], points[1].el.entries)
    for stack in (field.r, field.el, field.weights):
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0] = 0
    with pytest.raises(ValueError):
        field.points[0].r.entries[0, 0] = 5.0


@pytest.mark.parametrize("name", list(FROZEN_CASES))
def test_value_classes_compare_and_hash_by_value(name):
    make, make_other = FROZEN_CASES[name]
    a, b, other = make(), make(), make_other()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert a != object() and a != None  # noqa: E711
    assert len({a, b, other}) == 2
    assert repr(a).startswith(name + "(") and all("%s=" % f in repr(a) for f in type(a).__slots__)


def test_density_argument_validation():
    field = single(2, 1.0, [[2]], [[1]])
    with pytest.raises(InputError):
        density_q(field, 0, 2.0)  # delta beyond the field window
    with pytest.raises(InputError):
        density_q(field, 2, 1.0)
    with pytest.raises(InputError):
        density_q(field, -1, 1.0)
    with pytest.raises(InputError):
        weak_bound(field, 0, 1.0, 0)


# ---------------------------------------------------------------- densities


def test_density_single_point_frozen():
    # d=1, R=[2], L=[1]: int_{-1}^{1} |2+2s| ds = 4
    field = single(2, 1.0, [[2]], [[1]])
    assert density_q(field, 0, 1.0) == pytest.approx(4.0 / TWO_PI**2, rel=1e-12)
    assert density_q(field, 1, 1.0) == 0.0


def test_density_levi_flat_frozen():
    # constant pencil: integrand det(R) = 2 over an interval of length 1
    field = single(3, 0.5, [[1, 0], [0, 2]], [[0, 0], [0, 0]])
    assert density_q(field, 0, 0.5) == pytest.approx(2.0 / TWO_PI**3, rel=1e-12)
    assert density_q(field, 1, 0.5) == 0.0
    assert density_q(field, 2, 0.5) == 0.0


def test_density_multi_point_weighted_sum():
    p1 = pt("a", [[2]], [[1]], weight=0.25)
    p2 = pt("b", [[1]], [[0]], weight=2.0)
    field = PencilField(n=2, delta=1.0, points=[p1, p2])
    f1 = PencilField(n=2, delta=1.0, points=[p1])
    f2 = PencilField(n=2, delta=1.0, points=[p2])
    got = density_q(field, 0, 1.0)
    assert got == pytest.approx(density_q(f1, 0, 1.0) + density_q(f2, 0, 1.0), rel=1e-14)
    # weight 2 on a constant pencil: 2 * det(1) * 2delta / (2pi)^2
    assert density_q(f2, 0, 1.0) == pytest.approx(4.0 / TWO_PI**2, rel=1e-12)


def test_weak_bound_scaling():
    field = single(2, 1.0, [[2]], [[1]])
    c0 = density_q(field, 0, 1.0)
    assert weak_bound(field, 0, 1.0, 1) == pytest.approx(c0, rel=1e-14)
    assert weak_bound(field, 0, 1.0, 10) == pytest.approx(100.0 * c0, rel=1e-12)
    doubled = single(2, 1.0, [[2]], [[1]], weight=2.0)
    assert weak_bound(doubled, 0, 1.0, 10) == pytest.approx(200.0 * c0, rel=1e-12)


# ------------------------------------------------------- strong sums / RRH


def test_strong_sums_mixed_frozen():
    # c_0 = 9, c_1 = 2/3, c_2 = 9 (in units of (2pi)^-3)
    sums = strong_sums(MIXED, 2.0)
    scale = TWO_PI**3
    assert sums[0] == pytest.approx(9.0 / scale, rel=1e-10)
    assert sums[1] == pytest.approx((2.0 / 3.0 - 9.0) / scale, rel=1e-10)
    assert sums[2] == pytest.approx((52.0 / 3.0) / scale, rel=1e-10)
    assert sums[2] == rrh_total(MIXED, 2.0)


def test_rrh_two_routes_frozen():
    total = rrh_total(MIXED, 2.0)
    assert total == pytest.approx((52.0 / 3.0) / TWO_PI**3, rel=1e-10)
    alternating = sum(
        (-1) ** q * density_q(MIXED, q, 2.0) for q in range(3)
    )
    assert total == pytest.approx(alternating, rel=1e-10)


def test_rrh_parity_under_negation():
    # L = 0: det(-R) = (-1)^d det(R)
    odd = single(2, 1.0, [[3]], [[0]])
    odd_neg = single(2, 1.0, [[-3]], [[0]])
    assert rrh_total(odd_neg, 1.0) == pytest.approx(-rrh_total(odd, 1.0), rel=1e-12)
    even = single(3, 1.0, [[1, 0], [0, 2]], [[0, 0], [0, 0]])
    even_neg = single(3, 1.0, [[-1, 0], [0, -2]], [[0, 0], [0, 0]])
    assert rrh_total(even_neg, 1.0) == pytest.approx(rrh_total(even, 1.0), rel=1e-12)


# ----------------------------------------------------------------- X(q)


def test_check_xq_frozen():
    # eigenvalue lines 1+2s and 2-2s: neg count 1 outside [-1/2, 1]
    field = single(3, 2.0, [[1, 0], [0, 2]], [[1, 0], [0, -1]])
    res1 = check_Xq(field, 1)
    assert res1.holds is True
    assert res1.max_delta == pytest.approx(0.5, abs=1e-9)
    res0 = check_Xq(field, 0)
    assert res0.holds is False
    assert res0.max_delta == 0.0
    res2 = check_Xq(field, 2)  # both lines never negative together
    assert res2.holds is True
    assert res2.max_delta == pytest.approx(2.0)


def test_check_xq_positive_R():
    field = single(3, 0.3, [[1, 0], [0, 1]], [[0, 1], [1, 0]])
    for q in (1, 2):
        res = check_Xq(field, q)
        assert res.holds is True
        assert res.max_delta == pytest.approx(0.3)


def test_check_xq_min_over_samples():
    near = pt("near", [[1, 0], [0, 2]], [[1, 0], [0, -1]])  # distance 1/2
    wide = pt("wide", [[4, 0], [0, 4]], [[1, 0], [0, 0]])  # loses positivity at s=-2 only
    field = PencilField(n=3, delta=2.0, points=[near, wide])
    assert check_Xq(field, 1).max_delta == pytest.approx(0.5, abs=1e-9)
    field2 = PencilField(n=3, delta=2.0, points=[wide])
    assert check_Xq(field2, 1).max_delta == pytest.approx(2.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2, 3]), q=st.integers(0, 3))
def test_check_xq_matches_eigen_scan(seed, d, q):
    if q > d:
        q = d
    rng = np.random.default_rng(seed)
    r = random_int_hermitian(rng, d)
    el = random_int_hermitian(rng, d)
    try:
        field = PencilField(n=d + 1, delta=1.0, points=[PencilPoint("x", HermitianMatrix(r), HermitianMatrix(el))])
        res = check_Xq(field, q)
    except DegeneratePencilError:
        return
    intervals = oracle_signature_intervals(r, el, 1.0, q)
    if not intervals:
        expected = 1.0
    else:
        expected = min(
            0.0 if a <= 0.0 <= b else min(abs(a), abs(b)) for a, b in intervals
        )
    assert res.max_delta == pytest.approx(expected, abs=1e-6)
    # the scan oracle resolves boundaries only to its eigenvalue tolerance,
    # so agreement on holds is only meaningful away from that band
    if expected > 1e-6:
        assert res.holds is True
    elif expected == 0.0:
        assert res.holds is False


# ------------------------------------------------------------ positivity


def test_classify_positive_everywhere():
    field = single(3, 2.0, [[1, 0], [0, 1]], [[1, 0], [0, -1]])
    pos = classify_bundle(field)
    assert pos.positive_everywhere is True
    assert pos.positive_somewhere is True
    # 1+2s or 1-2s first vanishes at |s| = 1/2
    assert pos.semi_positive_delta == pytest.approx(0.5, abs=1e-9)


def test_classify_semidefinite_half_line():
    # R+2sL = diag(1, 2s) is semidefinite only for s >= 0
    field = single(3, 1.0, [[1, 0], [0, 0]], [[0, 0], [0, 1]])
    pos = classify_bundle(field)
    assert pos.positive_everywhere is False
    assert pos.positive_somewhere is False
    assert pos.semi_positive_delta is None


def test_classify_offdiagonal_positive():
    field = single(3, 0.1, [[3, 1], [1, 3]], [[1, 0], [0, -1]])
    pos = classify_bundle(field)
    assert pos.positive_everywhere is True
    assert pos.semi_positive_delta == pytest.approx(0.1)


def test_classify_min_over_samples():
    tight = pt("tight", [[1, 0], [0, 1]], [[1, 0], [0, -1]])  # guard 1/2
    flat = pt("flat", [[1, 0], [0, 2]], [[0, 0], [0, 0]])  # guard = delta
    field = PencilField(n=3, delta=2.0, points=[tight, flat])
    pos = classify_bundle(field)
    assert pos.semi_positive_delta == pytest.approx(0.5, abs=1e-9)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2, 3]))
def test_classify_guard_matches_eigen_scan(seed, d):
    rng = np.random.default_rng(seed)
    r = random_int_hermitian(rng, d)
    el = random_int_hermitian(rng, d)
    try:
        field = PencilField(n=d + 1, delta=1.0, points=[PencilPoint("x", HermitianMatrix(r), HermitianMatrix(el))])
        pos = classify_bundle(field)
    except DegeneratePencilError:
        return
    bad = []
    for q in range(1, d + 1):
        bad.extend(oracle_signature_intervals(r, el, 1.0, q))
    if not bad:
        expected = 1.0
    else:
        expected = min(
            0.0 if a <= 0.0 <= b else min(abs(a), abs(b)) for a, b in bad
        )
    if expected <= 1e-9:
        assert pos.semi_positive_delta is None or pos.semi_positive_delta < 1e-6
    else:
        assert pos.semi_positive_delta == pytest.approx(expected, abs=1e-6)


def test_classify_positivity_is_unit_free():
    # R = diag(2, 3) is positive definite at any scale; the former absolute
    # tolerance, 1e-9 (1 + max|eig|), called it singular at 1e-12
    for t in (1e-12, 1.0, 1e12):
        field = single(3, 0.5, [[2 * t, 0], [0, 3 * t]], [[t, 0], [0, -t]])
        pos = classify_bundle(field)
        assert (pos.positive_everywhere, pos.positive_somewhere) == (True, True), t
        assert bigness_verdict(field).reason == REASON_POSITIVE


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
    power=st.integers(-12, 12),
    shifts=st.lists(st.sampled_from([-3.0, 0.0, 3.0]), min_size=1, max_size=3),
)
def test_classify_and_bigness_are_unit_free(d, seed, power, shifts):
    # scaling (R, L) by t changes no verdict; a shift of 3 makes most R
    # positive definite, so both answers of each criterion are drawn
    rng = np.random.default_rng(seed)
    points = [(random_hermitian(rng, d) + shift * np.eye(d), random_hermitian(rng, d)) for shift in shifts]

    def field(t):
        return PencilField(n=d + 1, delta=0.5, points=[
            PencilPoint("p%d" % i, HermitianMatrix(t * r), HermitianMatrix(t * el))
            for i, (r, el) in enumerate(points)
        ])

    base, scaled = field(1.0), field(10.0**power)
    pos, got = classify_bundle(base), classify_bundle(scaled)
    assert (got.positive_everywhere, got.positive_somewhere) == (pos.positive_everywhere, pos.positive_somewhere)
    if pos.semi_positive_delta is None:
        assert got.semi_positive_delta is None
    else:
        assert got.semi_positive_delta == pytest.approx(pos.semi_positive_delta, rel=1e-12, abs=1e-13)
    assert bigness_verdict(scaled) == bigness_verdict(base)


# -------------------------------------------------------------- bigness


def test_bigness_positive_field():
    field = single(3, 0.1, [[3, 1], [1, 3]], [[1, 0], [0, -1]])
    verdict = bigness_verdict(field)
    assert verdict.big is True
    assert verdict.reason == REASON_POSITIVE


def test_bigness_semipositive_with_positive_sample():
    # first sample: R barely singular at tolerance (eigenvalue 1e-10), so not
    # counted positive definite, yet the pencil only loses semidefiniteness
    # at s = -5e-11; second sample strictly positive
    eps = 1e-10
    brink = pt("brink", [[1, 0], [0, eps]], [[0, 0], [0, 1]])
    solid = pt("solid", [[1, 0], [0, 1]], [[0, 0], [0, 0]])
    field = PencilField(n=3, delta=1.0, points=[brink, solid])
    pos = classify_bundle(field)
    assert pos.positive_everywhere is False
    assert pos.positive_somewhere is True
    assert pos.semi_positive_delta is not None
    verdict = bigness_verdict(field)
    assert verdict.big is True
    assert verdict.reason == REASON_SEMIPOSITIVE


def test_bigness_inconclusive():
    verdict = bigness_verdict(MIXED)
    assert verdict.big is False
    assert verdict.reason == REASON_INCONCLUSIVE


# ------------------------------------------------------------- properties


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2, 3]))
def test_alternating_sum_collapses_to_signed_integral(seed, d):
    rng = np.random.default_rng(seed)
    try:
        field = PencilField(
            n=d + 1,
            delta=1.0,
            points=[
                PencilPoint(
                    "p%d" % i,
                    HermitianMatrix(random_int_hermitian(rng, d)),
                    HermitianMatrix(random_int_hermitian(rng, d)),
                    weight=float(rng.integers(1, 4)),
                )
                for i in range(2)
            ],
        )
        total = rrh_total(field, 1.0)
        alternating = sum((-1) ** q * density_q(field, q, 1.0) for q in range(d + 1))
    except DegeneratePencilError:
        return
    assert math.isclose(total, alternating, rel_tol=1e-10, abs_tol=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    d=st.sampled_from([1, 2]),
    scale=st.sampled_from([0.5, 2.0, 3.0]),
)
def test_density_weight_linearity_and_delta_monotonicity(seed, d, scale):
    rng = np.random.default_rng(seed)
    r = random_int_hermitian(rng, d)
    el = random_int_hermitian(rng, d)
    try:
        base = PencilField(n=d + 1, delta=1.0, points=[PencilPoint("x", HermitianMatrix(r), HermitianMatrix(el), 1.0)])
        scaled = PencilField(n=d + 1, delta=1.0, points=[PencilPoint("x", HermitianMatrix(r), HermitianMatrix(el), scale)])
        for q in range(d + 1):
            c_small = density_q(base, q, 0.5)
            c_big = density_q(base, q, 1.0)
            assert c_big >= c_small - 1e-12
            assert density_q(scaled, q, 1.0) == pytest.approx(scale * c_big, rel=1e-12, abs=1e-300)
    except DegeneratePencilError:
        return


def test_degenerate_sample_error_names_label():
    bad = pt("bad-sample", [[1, 0], [0, 0]], [[1, 0], [0, 0]])
    field = PencilField(n=3, delta=1.0, points=[bad])
    with pytest.raises(DegeneratePencilError, match="bad-sample"):
        density_q(field, 0, 1.0)


# ---------------------------------------------------------------- report


def test_report_matches_componentwise():
    report = build_morse_report(MIXED)
    d = 2
    for q in range(d + 1):
        assert report.densities[q] == density_q(MIXED, q, 2.0)
        xq = check_Xq(MIXED, q)
        assert report.xq[q] == xq
    assert report.strong_sums == strong_sums(MIXED, 2.0)
    assert report.rrh_total == rrh_total(MIXED, 2.0)
    assert report.strong_sums[d] == report.rrh_total
    assert report.positivity == classify_bundle(MIXED)
    assert report.bigness == bigness_verdict(MIXED)
    assert report.delta == 2.0
    assert report.n == 3


def test_report_deterministic_and_thread_invariant():
    field = PencilField(
        n=3,
        delta=1.5,
        points=[
            pt("a", [[1, 1j], [-1j, 2]], [[1, 0], [0, -1]], 0.7),
            pt("b", [[2, 0], [0, -1]], [[0, 1], [1, 0]], 1.3),
            pt("c", [[1, 0], [0, 1]], [[1, 1], [1, 1]], 0.1),
        ],
    )
    r1 = build_morse_report(field)
    r2 = build_morse_report(field)
    assert r1 == r2
    r4 = build_morse_report(field, threads=4)
    assert r1 == r4


def test_report_smaller_delta():
    report = build_morse_report(MIXED, delta=0.25)
    # within (-1/4, 1/4) only the q=1 chamber is present
    assert report.densities[0] == 0.0
    assert report.densities[1] > 0.0
    assert report.densities[2] == 0.0
    with pytest.raises(InputError):
        build_morse_report(MIXED, delta=3.0)


def gaussian_report(d, r, el, weights, delta=None, window=1.0):
    points = [PencilPoint("p%d" % i, HermitianMatrix(a), HermitianMatrix(b), w)
              for i, (a, b, w) in enumerate(zip(r, el, weights))]
    return build_morse_report(PencilField(n=d + 1, delta=window, points=points), delta)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([2, 3, 4]), points=st.integers(1, 40))
def test_report_invariant_under_sample_order_splitting_negation_and_frames(seed, d, points):
    # the densities are a weighted sum over the samples of chamber masses,
    # each an integral over the signs of R + 2sL: fsum makes the sum exact
    # in any order, halving a weight is exact, -(R, L) swaps q and d - q,
    # a common unitary frame leaves every eigenvalue alone, (R, -L) mirrors
    # s, (R, L) 2^k scales every mass by 2^(k d) in the engine's power-of-two
    # units, a wider window integrates nonnegative masses over more s, and a
    # narrower field window sees the q-sets of the wider one that it holds
    rng = np.random.default_rng(seed)
    r = [random_hermitian(rng, d) for _ in range(points)]
    el = [random_hermitian(rng, d) for _ in range(points)]
    w = rng.uniform(0.5, 1.5, points).tolist()
    base = gaussian_report(d, r, el, w)
    total = math.fsum(base.densities)
    perm = rng.permutation(points).tolist()
    permuted = gaussian_report(d, [r[i] for i in perm], [el[i] for i in perm], [w[i] for i in perm])
    assert (permuted.densities, permuted.rrh_total) == (base.densities, base.rrh_total)
    split = gaussian_report(d, r + r, el + el, [x / 2 for x in w] * 2)
    assert (split.densities, split.rrh_total) == (base.densities, base.rrh_total)
    negated = gaussian_report(d, [-a for a in r], [-b for b in el], w)
    np.testing.assert_allclose(negated.densities[::-1], base.densities, rtol=0, atol=1e-14 * total)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    framed = gaussian_report(d, [u @ a @ u.conj().T for a in r], [u @ b @ u.conj().T for b in el], w)
    np.testing.assert_allclose(framed.densities, base.densities, rtol=0, atol=1e-14 * total)
    mirrored = gaussian_report(d, r, [-b for b in el], w)
    np.testing.assert_allclose(
        mirrored.densities + [mirrored.rrh_total], base.densities + [base.rrh_total], rtol=0, atol=1e-14 * total
    )
    assert [x.holds for x in mirrored.xq] == [x.holds for x in base.xq]
    # the distance of each q-set from s = 0, within 1e-12 of the window delta = 1
    np.testing.assert_allclose([x.max_delta for x in mirrored.xq], [x.max_delta for x in base.xq], rtol=0, atol=1e-12)
    k = int(rng.choice([-60, -1, 1, 60]))  # one scale per example: the 40 examples draw each
    scaled = gaussian_report(d, [a * 2.0**k for a in r], [b * 2.0**k for b in el], w)
    assert scaled.densities == [c * 2.0 ** (k * d) for c in base.densities]  # bit for bit
    assert (scaled.xq, scaled.positivity, scaled.bigness) == (base.xq, base.positivity, base.bigness)
    windows = [gaussian_report(d, r, el, w, delta).densities for delta in (0.25, 0.5)] + [base.densities]
    for narrow, wide in zip(windows, windows[1:]):
        assert all(b >= a - 1e-14 * total for a, b in zip(narrow, wide))  # nondecreasing, to 1e-14 of the sum
    # X(q) over the field window 0.5 against 1: the distance to each q-set,
    # clipped to the window, within the chamber resolution 1e-5 of the wider one
    clipped = gaussian_report(d, r, el, w, window=0.5)
    assert [x.holds for x in clipped.xq] == [x.holds for x in base.xq]
    np.testing.assert_allclose(
        [x.max_delta for x in clipped.xq], [min(x.max_delta, 0.5) for x in base.xq], rtol=0, atol=1e-5 * 1.0
    )


# -------------------------------------------------- one record per point


def random_field(seed, d, points):
    rng = np.random.default_rng(seed)
    return PencilField(
        n=d + 1,
        delta=1.0,
        points=[
            PencilPoint(
                "p%d" % i,
                HermitianMatrix(random_int_hermitian(rng, d)),
                HermitianMatrix(random_int_hermitian(rng, d)),
                weight=float(rng.integers(1, 4)),
            )
            for i in range(points)
        ],
    )


def count_decompositions(monkeypatch):
    """Record the windows and the span of every pencil decomposition morse
    asks for, one entry per pencil of each stacked batch; a batch is
    decomposed over its largest window."""
    windows = []
    real = crmorse.morse._decompose_batch

    def counting(r, el, deltas, *rest, **kw):
        windows.extend([(tuple(deltas), max(deltas))] * len(r))
        return real(r, el, deltas, *rest, **kw)

    monkeypatch.setattr(crmorse.morse, "_decompose_batch", counting)
    return windows


def test_each_point_decomposed_once_per_window(monkeypatch, tmp_path):
    field = random_field(7, 3, 5)
    windows = count_decompositions(monkeypatch)
    build_morse_report(field)
    assert windows == [((1.0,), 1.0)] * 5
    windows.clear()
    build_morse_report(field, delta=1.0)
    assert windows == [((1.0,), 1.0)] * 5
    windows.clear()
    # a clipped report reads both windows from one decomposition over the field window
    build_morse_report(field, delta=0.5)
    assert windows == [((0.5, 1.0), 1.0)] * 5
    windows.clear()
    # every reduction reads the report's one pass, so density_q asks for both windows too
    assert density_q(field, 0, 0.5) == build_morse_report(field, delta=0.5).densities[0]
    assert windows == [((0.5, 1.0), 1.0)] * 10
    windows.clear()
    inp = tmp_path / "f.json"
    inp.write_text(json.dumps(serialize_field(field)))
    assert run(["classify", "--input", str(inp), "--out", str(tmp_path / "c.json")]) == 0
    assert windows == [((1.0,), 1.0)] * 5


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    d=st.sampled_from([1, 2, 3]),
    points=st.integers(1, 4),
    delta=st.sampled_from([1.0, 0.6, 0.125]),
)
def test_public_reductions_equal_report_fields(seed, d, points, delta):
    field = random_field(seed, d, points)
    try:
        report = build_morse_report(field, delta=delta)
    except DegeneratePencilError:
        return
    for q in range(d + 1):
        assert density_q(field, q, delta) == report.densities[q]
        assert weak_bound(field, q, delta, 7) == 7.0**field.n * report.densities[q]
        assert check_Xq(field, q) == report.xq[q]
    assert rrh_total(field, delta) == report.rrh_total
    assert strong_sums(field, delta) == report.strong_sums
    assert classify_bundle(field) == report.positivity
    assert bigness_verdict(field) == report.bigness


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.none() | st.integers(0, 10**6), d=st.integers(1, 8), k=st.integers(1, 10**6))
@example(seed=None, d=2, k=451590)  # float(k) ** 3 rounds this k^3 c_0 one ulp low
def test_weak_bound_is_the_cli_weak_bound_bit_for_bit(seed, d, k):
    # seed None is the default heisenberg-demo document (n = 3), else a random
    # integer field of dimension n = d + 1, through morse --input
    with tempfile.TemporaryDirectory() as tmp:
        if seed is None:
            field = heisenberg_field(parse_heisenberg(canonical_json(DEFAULT_HEISENBERG_DOC)))
            argv = ["heisenberg-demo"]
        else:
            field = random_field(seed, d, 2)
            inp = Path(tmp) / "f.json"
            inp.write_text(json.dumps(serialize_field(field)))
            argv = ["morse", "--input", str(inp)]
        out = Path(tmp) / "out.json"
        code = run(argv + ["--k", str(k), "--out", str(out)])
        if code == 3:  # a degenerate random pencil
            return
        assert code == 0
        weak = json.loads(out.read_text())["result"]["weakBounds"]
    assert [weak_bound(field, q, field.delta, k) for q in range(field.dim + 1)] == weak


# ------------------------------------------- batched engine, one pencil at a time


def mixed_pencil(rng, d, kind):
    """One (R, L) pair of a kind that stresses the root isolation."""
    if kind == "gauss":
        return random_hermitian(rng, d), random_hermitian(rng, d)
    if kind == "int":  # small integers: exact zeros, tangent and repeated roots
        return random_int_hermitian(rng, d, -2, 2), random_int_hermitian(rng, d, -2, 2)
    if kind == "rank-one-L":  # det has degree 1
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return random_hermitian(rng, d), np.outer(v, v.conj())
    if kind == "low-degree":  # L vanishes outside a leading k x k block: degree <= k < d
        el = np.zeros((d, d), dtype=complex)
        k = int(rng.integers(0, d))
        el[:k, :k] = random_int_hermitian(rng, k, -1, 1) if k else 0
        return random_int_hermitian(rng, d, -2, 2), el
    # a d-fold root at s = 1/2, conjugated by a random unitary: det = c (1 - 2s)^d
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    scale = rng.choice([-1.0, 1.0], size=d)
    return u @ np.diag(scale) @ u.conj().T, -u @ np.diag(scale) @ u.conj().T


KINDS = ["gauss", "int", "rank-one-L", "low-degree", "double"]


def outcome(f):
    try:
        return f()
    except DegeneratePencilError as exc:
        return "DegeneratePencilError: %s" % exc


def chunked_report(field, size, delta=None):
    """build_morse_report in chunks of ``size`` points (or the error it
    raises), with each point's chambers, masses and signed integral over
    each window, as its chunk's stacked pass decomposed them."""
    rows = []
    real = crmorse.morse._decompose_batch

    def spy(*args, **kw):
        windows = real(*args, **kw)
        for i in range(len(windows[0].counts)):
            rows.append([
                (
                    [(w.breaks[i, j], w.breaks[i, j + 1], w.neg[i, j], w.tol[i]) for j in range(w.counts[i])],
                    w.masses[i, : w.counts[i]],
                    w.signed[i],
                )
                for w in windows
            ])
        return windows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crmorse.morse, "_CHUNK", size)
        mp.setattr(crmorse.morse, "_decompose_batch", spy)
        report = outcome(lambda: build_morse_report(field, delta))
    return report, rows


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    d=st.integers(1, 5),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=9),
    chunk=st.sampled_from([7, 10**6]),
    delta=st.sampled_from([1.0, 0.6, 0.25]),
)
def test_batched_records_equal_one_pencil_records(seed, d, kinds, chunk, delta):
    # a stacked pass gives each pencil the chambers, masses and signed
    # integral, and the first failing pencil the error, that a pass over
    # that pencil alone gives, bit for bit
    rng = np.random.default_rng(seed)
    points = []
    for i, kind in enumerate(kinds):
        r, el = mixed_pencil(rng, d, kind)
        points.append(PencilPoint("p%d" % i, HermitianMatrix(r), HermitianMatrix(el)))
    field = PencilField(n=d + 1, delta=1.0, points=points)

    (got, got_rows), (alone, alone_rows) = chunked_report(field, chunk, delta), chunked_report(field, 1, delta)
    if isinstance(alone, str):
        assert got == alone
        return
    assert len(got_rows) == len(alone_rows) == len(points)
    for windows, singles in zip(got_rows, alone_rows):
        for (chambers, masses, signed), (ref_chambers, ref_masses, ref_signed) in zip(windows, singles):
            assert chambers == ref_chambers
            assert (masses.tolist(), signed) == (ref_masses.tolist(), ref_signed)
    assert (got.xq, got.positivity, got.bigness) == (alone.xq, alone.positivity, alone.bigness)


# R + 2sL = [[2s, e, 0], [e, -2s, 0], [0, 0, 1e6]] with e = 1e-4: det < 0 on
# the whole line, so [-1, 1] is one chamber, but at its midpoint s = 0 the
# eigenvalues +-e fall below the 1e-9 (||R||_F + 2 ||L||_F) inertia tolerance
SINGULAR_MID = (
    [[0, 1e-4, 0], [1e-4, 0, 0], [0, 0, 1e6]],
    [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
)
SHARED_KERNEL = ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, 1]])
MESSAGES = {
    "mid": "sample 'mid': pencil is numerically singular inside a chamber at s=0 "
    "(min |eig| = 1.0e-04 vs tol 1.0e-03); cannot assign a signature",
    # tol is 1e-9 (||R||_F + 2 ||L||_F) = 1e-9 * 3 sqrt(2)
    "kern": "sample 'kern': det(R+2sL) is numerically zero at all 5 probes in "
    "[-1, 1] (least singular: min |eig| = 0.0e+00 vs tol 4.2e-09 at s=1); R and L share a "
    "near-common kernel",
}


@pytest.mark.parametrize("chunk", [1, 2, 256])
def test_first_failing_sample_named_in_input_order(chunk, monkeypatch):
    monkeypatch.setattr(crmorse.morse, "_CHUNK", chunk)
    ok = ([[2, 0, 0], [0, 3, 0], [0, 0, 4]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mid = pt("mid", *SINGULAR_MID)
    kern = pt("kern", *SHARED_KERNEL)
    for order, first in (([mid, kern], "mid"), ([kern, mid], "kern")):
        field = PencilField(n=4, delta=1.0, points=[pt("ok", *ok), *order])
        with pytest.raises(DegeneratePencilError) as exc:
            build_morse_report(field)
        assert str(exc.value) == MESSAGES[first]
    assert "singular inside a chamber at s=0 (min |eig| = 1.0e-04 vs tol 1.0e-03)" in outcome(
        lambda: build_morse_report(PencilField(n=4, delta=1.0, points=[mid]))
    )


def test_fault_outside_a_smaller_delta_raises_for_every_quantity():
    # SINGULAR_MID moved to s = -0.1 beside a simple root at s = 0.8: the
    # field window's chamber [-1, 0.8] is singular at its midpoint, while
    # [-0.5, 0.5] alone decomposes; every quantity reads the field window
    r = np.array([[0.2, 1e-4, 0, 0], [1e-4, -0.2, 0, 0], [0, 0, 1e6, 0], [0, 0, 0, -1.6]])
    el = np.diag([1.0, -1.0, 0.0, 1.0])
    assert len(crmorse.pencil.chambers(HermitianMatrix(r), HermitianMatrix(el), delta=0.5).chambers) == 1
    field = PencilField(n=5, delta=1.0, points=[pt("far", r, el)])
    message = "sample 'far': pencil is numerically singular inside a chamber at s=-0.1 "
    for quantity in (
        lambda: density_q(field, 2, 0.5),
        lambda: weak_bound(field, 2, 0.5, 3),
        lambda: rrh_total(field, 0.5),
        lambda: strong_sums(field, 0.5),
        lambda: build_morse_report(field, 0.5),
    ):
        with pytest.raises(DegeneratePencilError) as exc:
            quantity()
        assert str(exc.value).startswith(message)


def test_records_memory_bounded_by_chunk(monkeypatch):
    # the stacked passes hold one chunk at a time: at d = 8 and 64 points in
    # chunks of 8 the traced peak is about 0.3 MB; one 64-point pass needs 1.7 MB
    monkeypatch.setattr(crmorse.morse, "_CHUNK", 8)
    rng = np.random.default_rng(3)
    field = PencilField(
        n=9,
        delta=1.0,
        points=[
            PencilPoint(
                "p%d" % i, HermitianMatrix(random_hermitian(rng, 8)), HermitianMatrix(random_hermitian(rng, 8))
            )
            for i in range(64)
        ],
    )
    tracemalloc.start()
    try:
        build_morse_report(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * 2**20


def test_report_memory_does_not_grow_with_the_points():
    # a report keeps per point only its weight times each q-mass and the
    # signed integral, 32 bytes at d = 2, beside one chunk's stacked pass:
    # on 4096 points the traced peak is about 0.5 MB
    rng = np.random.default_rng(4)
    field = PencilField(
        n=3,
        delta=1.0,
        points=[
            PencilPoint("p%d" % i, HermitianMatrix(random_hermitian(rng, 2)), HermitianMatrix(random_hermitian(rng, 2)))
            for i in range(4096)
        ],
    )
    tracemalloc.start()
    try:
        build_morse_report(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
