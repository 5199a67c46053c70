"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test prints a single ACCEPTANCE line (visible even under capture)
so a log scrape shows exactly which guarantees held.  Tolerances and
time budgets here are the published ones; do not loosen them to make a
failing build green.
"""

from __future__ import annotations

import contextlib
import json
import math
import time

import numpy as np
import pytest

from crmorse.cli import run
from crmorse.errors import DegeneratePencilError
from crmorse.model import ModelData, bergman_bruteforce, bergman_diag, eta_chambers, extremal_form, szego_density
from crmorse.morse import (
    REASON_POSITIVE,
    PencilField,
    PencilPoint,
    bigness_verdict,
    build_morse_report,
    check_Xq,
    classify_bundle,
    density_q,
    rrh_total,
)
from crmorse.oracles import (
    TorusBundleSpec,
    _lattice_field,
    calibrate,
    d1_fourier_bruteforce,
    fourier_dimension_sum,
    save_calibration,
    torus_mode_dim,
)
from crmorse.pencil import (
    chamber_integral,
    chambers,
    pencil_signed_integral,
)
from oracle_tools import TWO_PI, hm, oracle_chamber_integral, random_hermitian, random_int_hermitian

SEED = 20260825


@contextlib.contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("ACCEPTANCE %d %s: FAIL" % (num, name))
        raise
    with capsys.disabled():
        print("ACCEPTANCE %d %s: PASS" % (num, name))


# 1 -------------------------------------------------------------------


def test_acceptance_1_chamber_integrals(capsys):
    with criterion(capsys, 1, "chamber integrals match adaptive quadrature at 1e-8"):
        rng = np.random.default_rng(SEED)
        start = time.perf_counter()
        done = 0
        while done < 200:
            d = int(rng.integers(1, 5))
            delta = float(rng.choice([0.5, 1.0, 2.0]))
            r = random_int_hermitian(rng, d)
            el = random_int_hermitian(rng, d)
            q = int(rng.integers(0, d + 1))
            try:
                got = chamber_integral(hm(r), hm(el), q, delta)
            except DegeneratePencilError:
                continue
            want = oracle_chamber_integral(r, el, q, delta)
            assert math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-12), (
                "pencil #%d (d=%d, q=%d, delta=%g): %.17g vs %.17g"
                % (done, d, q, delta, got, want)
            )
            done += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, "took %.2fs, budget 10s" % elapsed


# 2 -------------------------------------------------------------------


def test_acceptance_2_bergman_routes(capsys):
    with criterion(capsys, 2, "Bergman closed form equals brute-force kernel at 1e-9"):
        start = time.perf_counter()
        pinned = ModelData(d=1, lam=[1.0], mu=hm([[3.0]]), delta=1.0)
        got = bergman_diag(pinned, 0.5, 0, [0j]).value
        assert math.isclose(got, 1.0 / math.pi, rel_tol=1e-12)
        assert math.isclose(got, bergman_bruteforce(pinned, 0.5, 3), rel_tol=1e-9)
        rng = np.random.default_rng(SEED + 1)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            lam = rng.uniform(0.5, 2.5, size=d)
            eta = float(rng.uniform(-1.0, 1.0))
            delta = abs(eta) + float(rng.uniform(0.5, 1.0))
            b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m_target = b @ b.conj().T + 0.3 * np.eye(d)
            mu = m_target + 2.0 * eta * np.diag(lam)
            data = ModelData(d=d, lam=lam, mu=hm(mu), delta=delta)
            lhs = bergman_diag(data, eta, 0, np.zeros(d, dtype=complex)).value
            rhs = bergman_bruteforce(data, eta, 2)
            assert math.isclose(lhs, rhs, rel_tol=1e-9), (
                "d=%d eta=%g: %.17g vs %.17g" % (d, eta, lhs, rhs)
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, "took %.2fs, budget 5s" % elapsed


# 3 -------------------------------------------------------------------


def test_acceptance_3_szego_is_chamber_integral(capsys):
    with criterion(capsys, 3, "Szego density equals the pencil chamber integral at 1e-10"):
        rng = np.random.default_rng(SEED + 2)
        done = 0
        while done < 100:
            d = int(rng.integers(1, 4))
            lam = rng.uniform(-2.0, 2.0, size=d)
            if np.any(np.abs(lam) < 0.05):
                continue
            mu = random_hermitian(rng, d, scale=1.5)
            delta = float(rng.choice([0.5, 1.0, 2.0]))
            q = int(rng.integers(0, d + 1))
            data = ModelData(d=d, lam=lam, mu=hm(mu), delta=delta)
            try:
                direct = szego_density(data, q)
                via_pencil = chamber_integral(
                    hm(mu), hm(np.diag(lam)), q, delta
                ) / TWO_PI ** (d + 1)
            except DegeneratePencilError:
                continue
            assert math.isclose(direct, via_pencil, rel_tol=1e-10, abs_tol=1e-15), (
                "config #%d (d=%d, q=%d): %.17g vs %.17g"
                % (done, d, q, direct, via_pencil)
            )
            done += 1


# 4 -------------------------------------------------------------------


def _coherent_model(rng):
    """Draw a model whose lowest-q eigenframe stays consistent in eta.

    Two families: isotropic Levi form (frame frozen, curvature free) and
    diagonal curvature with positive Levi eigenvalues, rejecting draws
    where two negative pencil eigenvalues cross inside the window (such
    a crossing flips the frame orientation mid-chamber and the extremal
    form is then not a single coherent state).
    """
    while True:
        d = int(rng.integers(1, 4))
        if rng.integers(0, 2) == 0:
            c = float(rng.uniform(0.5, 2.0))
            lam = np.full(d, c)
            mu = random_hermitian(rng, d, scale=1.2)
            gaps = np.diff(np.linalg.eigvalsh(mu))
            if d > 1 and (gaps.size == 0 or gaps.min() < 0.05):
                continue
        else:
            lam = np.sort(rng.uniform(0.4, 2.0, size=d))
            if d > 1 and np.min(np.diff(lam)) < 0.05:
                continue
            mu = np.diag(rng.uniform(-1.5, 2.5, size=d))
            bad = False
            mu_d = np.diag(mu).real
            for j in range(d):
                for t in range(j + 1, d):
                    eta_star = (mu_d[j] - mu_d[t]) / (2.0 * (lam[j] - lam[t]))
                    if abs(eta_star) < 1.2 and mu_d[j] - 2.0 * eta_star * lam[j] < 1e-9:
                        bad = True
            if bad:
                continue
        try:
            data = ModelData(d=d, lam=lam, mu=hm(mu), delta=1.2)
            cs = eta_chambers(data)
        except DegeneratePencilError:
            continue
        nonempty = [q for q in range(d + 1) if cs.intervals[q]]
        return data, nonempty


def test_acceptance_4_extremal_norm_and_peak(capsys):
    with criterion(capsys, 4, "extremal forms have unit norm and unit peak at 1e-6"):
        rng = np.random.default_rng(SEED + 3)
        start = time.perf_counter()
        picked = []
        want_higher = 8
        want_mixed = 4
        while len(picked) < 20:
            data, nonempty = _coherent_model(rng)
            higher = [q for q in nonempty if q >= 1]
            mixed = [q for q in higher if 1 <= q <= data.d - 1]
            if want_mixed > 0 and mixed:
                q = mixed[0]
                want_mixed -= 1
                want_higher -= 1
            elif want_higher > 0 and higher:
                q = higher[-1]
                want_higher -= 1
            elif 0 in nonempty:
                q = 0
            else:
                q = nonempty[0]
            picked.append((data, q))
        assert want_higher <= 0 and want_mixed <= 0, "generator failed to cover q >= 1"
        for data, q in picked:
            form = extremal_form(
                data, q, np.zeros(data.d, dtype=complex), 0.0, eta_quad_points=256
            )
            assert abs(form.norm_check - 1.0) < 1e-6, (
                "norm_check off by %.3g (d=%d, q=%d)"
                % (form.norm_check - 1.0, data.d, q)
            )
            assert abs(form.peak_check - 1.0) < 1e-6, (
                "peak_check off by %.3g (d=%d, q=%d)"
                % (form.peak_check - 1.0, data.d, q)
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, "took %.2fs, budget 30s" % elapsed


# 5 -------------------------------------------------------------------


def test_acceptance_5_torus_weak_bound_tracks_oracle(capsys):
    with criterion(capsys, 5, "unfitted weak bound tracks the d=1 torus mode count"):
        start = time.perf_counter()
        spec = TorusBundleSpec(d=1, lambda_mat=[[1]], mu_mat=[[2]], delta=0.5)
        cal = calibrate()
        field = _lattice_field(spec, cal)
        dens = density_q(field, 0, spec.delta)
        # the ratio is exactly 1 + 1/k at even k
        for k, tol in ((100, 0.015), (200, 0.0075), (500, 0.003), (1000, 0.0015)):
            oracle = fourier_dimension_sum(spec, 0, k, cal)
            bound = k**2 * dens
            ratio = oracle / bound
            assert abs(ratio - 1.0) <= tol, "k=%d: ratio %.6f" % (k, ratio)
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, "took %.2fs, budget 20s" % elapsed


# 6 -------------------------------------------------------------------


def test_acceptance_6_indefinite_euler_characteristic(capsys):
    with criterion(capsys, 6, "signed density total matches the alternating mode count"):
        start = time.perf_counter()
        spec = TorusBundleSpec(
            d=2, lambda_mat=[[1, 0], [0, 1]], mu_mat=[[1, 0], [0, -1]], delta=0.25
        )
        cal = calibrate()
        field = _lattice_field(spec, cal)
        assert density_q(field, 1, spec.delta) > 0.0
        total = rrh_total(field, spec.delta)
        k = 500
        alternating = sum(
            (-1) ** q * fourier_dimension_sum(spec, q, k, cal) for q in range(3)
        )
        ratio = alternating / (k**3 * total)
        assert abs(ratio - 1.0) <= 0.01, "k=%d: ratio %.6f" % (k, ratio)
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, "took %.2fs, budget 20s" % elapsed


# 7 -------------------------------------------------------------------


def test_acceptance_7_positive_bundles(capsys):
    with criterion(capsys, 7, "positive curvature yields X(q) and vanishing higher densities"):
        rng = np.random.default_rng(SEED + 4)
        cases = [
            PencilField(
                n=3,
                delta=0.5,
                points=[
                    PencilPoint("pinned", hm([[3, 1], [1, 3]]), hm([[1, 0], [0, 2]]))
                ],
            )
        ]
        while len(cases) < 10:
            d = int(rng.integers(1, 4))
            b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            mu = b @ b.conj().T + 0.5 * np.eye(d)
            lam = np.diag(rng.uniform(0.3, 2.0, size=d))
            delta = float(rng.uniform(0.3, 1.0))
            cases.append(
                PencilField(
                    n=d + 1,
                    delta=delta,
                    points=[PencilPoint("case%d" % len(cases), hm(mu), hm(lam))],
                )
            )
        for field in cases:
            positivity = classify_bundle(field)
            assert positivity.positive_everywhere
            for q in range(1, field.dim + 1):
                xq = check_Xq(field, q)
                assert xq.holds and xq.max_delta > 0.0
                assert density_q(field, q, xq.max_delta / 2.0) == 0.0
            verdict = bigness_verdict(field)
            assert verdict.big
            assert verdict.reason == REASON_POSITIVE


# 8 -------------------------------------------------------------------


def test_acceptance_8_invariance_suite(capsys):
    with criterion(capsys, 8, "congruence/scaling covariance, collapse, and tiling hold at 1e-10"):
        rng = np.random.default_rng(SEED + 5)
        done = 0
        while done < 25:
            d = int(rng.integers(1, 4))
            delta = float(rng.choice([0.5, 1.0]))
            r = random_hermitian(rng, d)
            el = random_hermitian(rng, d)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            if abs(np.linalg.det(g)) < 0.3:
                continue
            try:
                dec = chambers(hm(r), hm(el), delta)
                dec_g = chambers(
                    hm(g @ r @ g.conj().T), hm(g @ el @ g.conj().T), delta
                )
                base = [chamber_integral(hm(r), hm(el), q, delta) for q in range(d + 1)]
                cong = [
                    chamber_integral(
                        hm(g @ r @ g.conj().T), hm(g @ el @ g.conj().T), q, delta
                    )
                    for q in range(d + 1)
                ]
                c = 2.5
                scaled = [
                    chamber_integral(hm(c * r), hm(c * el), q, delta)
                    for q in range(d + 1)
                ]
                signed = pencil_signed_integral(hm(r), hm(el), delta)
            except DegeneratePencilError:
                continue
            assert [ch.inertia.neg for ch in dec.chambers] == [
                ch.inertia.neg for ch in dec_g.chambers
            ]
            assert len(dec.roots) == len(dec_g.roots)
            for a, b in zip(sorted(dec.roots), sorted(dec_g.roots)):
                assert math.isclose(a, b, rel_tol=1e-7, abs_tol=1e-7)
            jac = abs(np.linalg.det(g)) ** 2
            for q in range(d + 1):
                assert math.isclose(cong[q], jac * base[q], rel_tol=1e-10, abs_tol=1e-12)
                assert math.isclose(scaled[q], c**d * base[q], rel_tol=1e-10, abs_tol=1e-12)
            alternating = math.fsum((-1) ** q * base[q] for q in range(d + 1))
            assert math.isclose(alternating, signed, rel_tol=1e-10, abs_tol=1e-12)
            tiling = math.fsum(ch.hi - ch.lo for ch in dec.chambers)
            assert math.isclose(tiling, 2.0 * delta, rel_tol=1e-10)
            done += 1


# 9 -------------------------------------------------------------------


def test_acceptance_9_calibration_gate(capsys, tmp_path):
    with criterion(capsys, 9, "calibration is reproducible and a stale record aborts"):
        cal1 = calibrate()
        cal2 = calibrate()
        assert cal1 == cal2
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        save_calibration(cal1, p1)
        save_calibration(cal2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        rng = np.random.default_rng(SEED + 6)
        checked = 0
        while checked < 20:
            a = int(rng.integers(-8, 9))
            if a == 0:
                continue
            if a > 0:
                assert torus_mode_dim(0, [[a]], cal1) == d1_fourier_bruteforce(a)
                assert torus_mode_dim(1, [[a]], cal1) == 0
            else:
                assert torus_mode_dim(1, [[a]], cal1) == d1_fourier_bruteforce(-a)
                assert torus_mode_dim(0, [[a]], cal1) == 0
            checked += 1
        stale = tmp_path / "stale.json"
        save_calibration(cal1, stale)
        stale.write_text(stale.read_text().replace('"1/1"', '"2/1"'))
        code = run(["torus-demo", "--k", "4", "--cal", str(stale)])
        assert code == 4
        capsys.readouterr()
