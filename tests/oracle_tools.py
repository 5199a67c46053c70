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

from crmorse.errors import CalibrationError
from crmorse.oracles import torus_mode_dim
from crmorse.pencil import HermitianMatrix


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
