"""Independent numerical oracles used by the test suite.

Nothing in this module may call into crmorse's chamber machinery: the
point is to recompute the same quantities through a different route
(pointwise eigenvalue signs plus adaptive quadrature, or one mode at a
time) so that agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate

from numpy.polynomial import polynomial as npoly

from crmorse.errors import CalibrationError, DegeneratePencilError
from crmorse.oracles import torus_mode_dim
from crmorse.pencil import Chamber, HermitianMatrix, Inertia


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (a + a.conj().T) / 2.0


def random_int_hermitian(rng: np.random.Generator, d: int, lo: int = -3, hi: int = 3) -> np.ndarray:
    re = rng.integers(lo, hi + 1, size=(d, d))
    im = rng.integers(lo, hi + 1, size=(d, d))
    a = re + 1j * im
    h = a + a.conj().T
    # keep entries integral: the sum doubles off-diagonal parity anyway
    return h.astype(complex)


def _neg_count(r: np.ndarray, el: np.ndarray, s: float, tol: float) -> int:
    w = np.linalg.eigvalsh(r + 2.0 * s * el)
    return int(np.sum(w < -tol))


def oracle_signature_intervals(
    r: np.ndarray, el: np.ndarray, delta: float, q: int, grid: int = 801
) -> list[tuple[float, float]]:
    """Intervals of [-delta, delta] where the pencil has exactly q negative
    eigenvalues, found by scanning eigenvalue signs on a grid and bisecting
    every signature change.  No characteristic polynomial involved.
    """
    scale = max(np.linalg.norm(r, 2), 2.0 * delta * np.linalg.norm(el, 2), 1.0)
    tol = 1e-9 * scale
    xs = np.linspace(-delta, delta, grid)
    sigs = [_neg_count(r, el, x, tol) for x in xs]
    # refine each boundary between differing neighbours
    breaks = [-delta]
    for i in range(grid - 1):
        if sigs[i] != sigs[i + 1]:
            a, b = xs[i], xs[i + 1]
            sa = sigs[i]
            for _ in range(80):
                m = 0.5 * (a + b)
                if _neg_count(r, el, m, tol) == sa:
                    a = m
                else:
                    b = m
            breaks.append(0.5 * (a + b))
    breaks.append(delta)
    out = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a <= 1e-12 * (1.0 + delta):
            continue
        if _neg_count(r, el, 0.5 * (a + b), tol) == q:
            if out and abs(out[-1][1] - a) < 1e-9 * (1.0 + delta):
                out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
    return out


def oracle_chamber_integral(
    r: np.ndarray, el: np.ndarray, q: int, delta: float, grid: int = 801
) -> float:
    """Adaptive quadrature of |det(R+2sL)| over the q-signature set."""

    def absdet(s: float) -> float:
        return abs(np.linalg.det(r + 2.0 * s * el).real)

    total = 0.0
    for a, b in oracle_signature_intervals(r, el, delta, q, grid=grid):
        val, _ = integrate.quad(absdet, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)
        total += val
    return total


def oracle_signed_integral(r: np.ndarray, el: np.ndarray, delta: float) -> float:
    """Adaptive quadrature of det(R+2sL) over the whole interval (smooth)."""

    def det(s: float) -> float:
        return np.linalg.det(r + 2.0 * s * el).real

    val, _ = integrate.quad(det, -delta, delta, epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


def permode_dimension_sum(spec, q: int, k: int, cal) -> int:
    """fourier_dimension_sum one mode at a time: torus_mode_dim summed over
    every m with |m| <= k*delta, raising where the mode loop first fails."""
    window = int(math.floor(k * spec.delta + 1e-9))
    total = 0
    for m in range(-window, window + 1):
        coeff = cal.c_mode * m
        if coeff.denominator != 1:
            raise CalibrationError(
                "mode coupling %d/%d * %d is not an integer"
                % (cal.c_mode.numerator, cal.c_mode.denominator, m)
            )
        mode = HermitianMatrix(k * spec.mu_mat.entries + int(coeff) * spec.lambda_mat.entries)
        total += torus_mode_dim(q, mode, cal)
    return total


def _scalar_permanent(a: np.ndarray) -> complex:
    p = a.shape[0]
    if p == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(p)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return total


def scalar_bergman_gram(data, eta: float, max_degree: int) -> np.ndarray:
    """The Gram matrix of bergman_bruteforce, one monomial pair at a time:
    every entry is a scalar permutation expansion of cov[alpha, beta], and
    mixed-degree pairs are skipped.  The model must be positive definite
    at eta."""
    m = data.mu.entries - 2.0 * float(eta) * np.diag(data.lam)
    cov = np.linalg.inv(m)
    det = float(np.linalg.det(m).real)
    mass = (2.0 * math.pi) ** data.d / det
    monomials = [
        alpha
        for deg in range(int(max_degree) + 1)
        for alpha in itertools.combinations_with_replacement(range(data.d), deg)
    ]
    size = len(monomials)
    gram = np.zeros((size, size), dtype=complex)
    for a, alpha in enumerate(monomials):
        for b, beta in enumerate(monomials):
            if len(alpha) != len(beta):
                continue  # phase averaging kills mixed-degree moments
            gram[a, b] = mass * _scalar_permanent(cov[np.ix_(alpha, beta)])
    return gram


def scalar_bergman_bruteforce(data, eta: float, max_degree: int) -> float:
    """bergman_bruteforce on scalar_bergman_gram."""
    gram = scalar_bergman_gram(data, eta, max_degree)
    rhs = np.zeros(len(gram), dtype=complex)
    rhs[0] = 1.0
    sol = np.linalg.solve(gram, rhs)
    return float(sol[0].real)


# ---------------------------------------------------------------------------
# The scalar pencil engine: one pencil, one root and one numpy scalar at a
# time.  The batched engine in crmorse.pencil must reproduce it bit for bit.


def _zero_scale(cabs: np.ndarray, x: float) -> float:
    return 1e-11 * float(npoly.polyval(abs(x), cabs)) + 1e-300


def scalar_bisect_root(cc: np.ndarray, a: float, b: float, va: float, tol: float) -> float:
    sa = va > 0.0
    for _ in range(200):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        vm = float(npoly.polyval(m, cc))
        if vm == 0.0:
            return m
        if (vm > 0.0) == sa:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def scalar_roots_in_interval(cc: np.ndarray, lo: float, hi: float, tol: float) -> list:
    """Real roots of cc in [lo, hi] by recursion on the derivative chain."""
    nz = np.nonzero(cc)[0]
    if nz.size == 0:
        return []
    cc = cc[: int(nz[-1]) + 1]
    deg = cc.size - 1
    if deg == 0:
        return []
    if deg == 1:
        root = -cc[0] / cc[1]
        if lo - 4.0 * tol <= root <= hi + 4.0 * tol:
            return [min(max(float(root), lo), hi)]
        return []
    cabs = np.abs(cc)
    crit = scalar_roots_in_interval(npoly.polyder(cc), lo, hi, tol)
    pts = [lo]
    for x in sorted(crit) + [hi]:
        if x > pts[-1] + 1e-15 * (1.0 + abs(x)):
            pts.append(x)
    vals = [float(npoly.polyval(x, cc)) for x in pts]
    roots = [x for x, v in zip(pts, vals) if abs(v) <= _zero_scale(cabs, x)]
    for (x0, v0), (x1, v1) in zip(zip(pts, vals), zip(pts[1:], vals[1:])):
        if abs(v0) <= _zero_scale(cabs, x0) or abs(v1) <= _zero_scale(cabs, x1):
            continue
        if (v0 > 0.0) != (v1 > 0.0):
            roots.append(scalar_bisect_root(cc, x0, x1, v0, tol))
    return sorted(roots)


def scalar_real_roots(coeffs: np.ndarray, lo: float, hi: float, tol: float) -> list:
    """real_roots for a nonzero polynomial: the roots with near-duplicates merged."""
    merge_eps = max(4.0 * tol, 1e-11 * (1.0 + max(abs(lo), abs(hi))))
    merged: list = []
    for root in scalar_roots_in_interval(np.asarray(coeffs, dtype=float), lo, hi, tol):
        if merged and root - merged[-1] <= merge_eps:
            merged[-1] = 0.5 * (merged[-1] + root)
        else:
            merged.append(root)
    return merged


def scalar_char_coeffs(r: np.ndarray, el: np.ndarray) -> np.ndarray:
    """det(R + 2sL) coefficients from d+1 Chebyshev probe determinants."""
    d = r.shape[0]
    j = np.arange(d + 1)
    probes = np.cos((2 * j + 1) * np.pi / (2 * (d + 1)))
    dets = np.array([np.linalg.det(r + 2.0 * s * el).real for s in probes])
    if not np.any(dets):
        return np.zeros(d + 1)
    coeffs = np.linalg.solve(npoly.polyvander(probes, d), dets)
    cmax = float(np.max(np.abs(coeffs)))
    coeffs[np.abs(coeffs) < 1e-12 * cmax] = 0.0
    return coeffs


def scalar_decompose(r: np.ndarray, el: np.ndarray, delta: float):
    """One pencil through the scalar engine: (roots, chambers, |det| mass of
    each chamber, signed integral of det), or its DegeneratePencilError."""
    d = r.shape[0]
    probes = np.linspace(-delta, delta, d + 2)
    margins = []
    for s in probes:
        w = np.linalg.eigvalsh(r + 2.0 * s * el)
        tol = 1e-9 * (1.0 + float(np.max(np.abs(w))))
        smallest = float(np.min(np.abs(w)))
        if smallest > tol:
            break
        margins.append((smallest / tol, smallest, tol, float(s)))
    else:
        _, smallest, tol, s = max(margins)
        raise DegeneratePencilError(
            "degenerate pencil: det(R+2sL) is numerically zero at all %d probes in [-%g, %g] "
            "(least singular: min |eig| = %.1e vs tol %.1e at s=%g); "
            "R and L share a near-common kernel" % (probes.size, delta, delta, smallest, tol, s)
        )
    coeffs = scalar_char_coeffs(r, el)
    if not np.any(coeffs):
        raise DegeneratePencilError(
            "degenerate pencil: det(R+2sL) has an identically zero characteristic "
            "polynomial on [-%g, %g]" % (delta, delta)
        )
    root_tol = 1e-12 * (1.0 + delta)
    found = scalar_real_roots(coeffs, -delta, delta, root_tol)
    interior = [x for x in found if -delta + 4.0 * root_tol < x < delta - 4.0 * root_tol]
    breaks = [-delta, *interior, delta]
    cells = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (a + b)
        w = np.linalg.eigvalsh(HermitianMatrix(r + 2.0 * mid * el).entries)
        tol = 1e-9 * (1.0 + float(np.max(np.abs(w))))
        neg, pos = int(np.sum(w < -tol)), int(np.sum(w > tol))
        if neg + pos < d:
            raise DegeneratePencilError(
                "pencil is numerically singular inside a chamber at s=%g "
                "(min |eig| = %.1e vs tol %.1e); cannot assign a signature"
                % (mid, float(np.min(np.abs(w))), tol)
            )
        cells.append(Chamber(float(a), float(b), Inertia(neg, d - neg - pos, pos, tol), -1 if neg % 2 else 1))
    anti = npoly.polyint(coeffs)
    masses = [abs(float(npoly.polyval(c.hi, anti)) - float(npoly.polyval(c.lo, anti))) for c in cells]
    signed = float(npoly.polyval(delta, anti)) - float(npoly.polyval(-delta, anti))
    return [float(x) for x in found], cells, masses, signed


def scalar_records(field, delta: float) -> list:
    """morse._records through the scalar engine, one sample at a time:
    (chambers, |det| mass of each q-signature set, signed integral)."""
    out = []
    for p in field.points:
        try:
            _, cells, masses, signed = scalar_decompose(p.r.entries, p.el.entries, delta)
        except DegeneratePencilError as exc:
            raise DegeneratePencilError("sample %r: %s" % (p.label, exc)) from exc
        per_q = [
            math.fsum(m for c, m in zip(cells, masses) if c.inertia.neg == q)
            for q in range(field.dim + 1)
        ]
        out.append((cells, per_q, signed))
    return out
