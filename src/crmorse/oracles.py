"""Example field generators and exact lattice dimension oracles.

The generators build constant PencilFields for the homogeneous model
geometries: circle bundles over a torus (Grauert tube boundaries),
compact Heisenberg quotients, and Levi-flat products.  The oracles count
Fourier-mode section spaces on the square torus
C^d / (sqrt(2pi) Z^d + i sqrt(2pi) Z^d) from first principles, giving an
engine-independent route to the k^n dimension asymptotics.

Two normalization constants the geometry literature leaves implicit are
derived here rather than hard-coded: c_dim (sections per unit of
determinant) and c_mode (coupling of the circle Fourier index m to the
lambda-curvature).  ``calibrate`` fixes both against the d=1 brute-force
count and freezes them in a persisted, re-verifiable record.
"""

from __future__ import annotations

import json
import math
import numbers
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .errors import CalibrationError, InputError
from .morse import PencilField, PencilPoint, _power, density_q
from .pencil import HermitianMatrix, _Frozen, inertia
from .serialize import canonical_json

__all__ = [
    "HeisenbergSpec",
    "LatticeCalibration",
    "TorusBundleSpec",
    "calibrate",
    "calibrate_weight",
    "d1_fourier_bruteforce",
    "fourier_dimension_sum",
    "heisenberg_field",
    "levi_flat_field",
    "load_calibration",
    "save_calibration",
    "torus_bundle_field",
    "torus_mode_dim",
    "verify_calibration",
]

_CAL_SEED = 20260825
_RAY_CHECK = 1000


def _as_int(value, what: str) -> int:
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError("%s must be an integer, got %r" % (what, value))


def _int_hermitian(raw, what: str, d: int) -> HermitianMatrix:
    h = raw if isinstance(raw, HermitianMatrix) else HermitianMatrix(np.asarray(raw, dtype=complex))
    if h.dim != d:
        raise InputError("%s has dim %d, expected %d" % (what, h.dim, d))
    ent = h.entries
    if not (np.all(ent.real == np.round(ent.real)) and np.all(ent.imag == np.round(ent.imag))):
        raise InputError("%s must have integer entries" % what)
    return h


def _positive_delta(delta) -> float:
    dlt = float(delta)
    if not (math.isfinite(dlt) and dlt > 0.0):
        raise InputError("delta must be a positive real, got %r" % (delta,))
    return dlt


class TorusBundleSpec(_Frozen):
    """Grauert-tube circle bundle: L_mu pulled back, tube from L_lambda."""

    __slots__ = ("d", "lambda_mat", "mu_mat", "delta")

    def __init__(self, d: int, lambda_mat: HermitianMatrix, mu_mat: HermitianMatrix, delta: float):
        d = _as_int(d, "torus dimension d")
        if d < 1:
            raise InputError("torus dimension d must be >= 1, got %d" % d)
        lambda_mat = _int_hermitian(lambda_mat, "lambda_mat", d)
        mu_mat = _int_hermitian(mu_mat, "mu_mat", d)
        self._set(d, lambda_mat, mu_mat, _positive_delta(delta))


class HeisenbergSpec(_Frozen):
    """Compact Heisenberg quotient: diagonal Levi form, constant curvature."""

    __slots__ = ("d", "lambda_vec", "mu_mat", "delta")

    def __init__(self, d: int, lambda_vec: Tuple[int, ...], mu_mat: HermitianMatrix, delta: float):
        d = _as_int(d, "dimension d")
        if d < 1:
            raise InputError("dimension d must be >= 1, got %d" % d)
        vec = tuple(_as_int(v, "lambda_vec entry") for v in lambda_vec)
        if len(vec) != d:
            raise InputError("lambda_vec must have length d=%d, got %d" % (d, len(vec)))
        if any(v == 0 for v in vec):
            raise InputError("every Levi eigenvalue lambda_j must be nonzero")
        self._set(d, vec, _int_hermitian(mu_mat, "mu_mat", d), _positive_delta(delta))


class LatticeCalibration(_Frozen):
    """Frozen lattice constants plus the derivation transcript."""

    __slots__ = ("c_mode", "c_dim", "provenance")

    def __init__(self, c_mode: Fraction, c_dim: Fraction, provenance: Dict):
        c_mode, c_dim = Fraction(c_mode), Fraction(c_dim)
        if c_dim <= 0:
            raise InputError("c_dim must be positive, got %s" % c_dim)
        # the mode counts are integers only for integer constants
        for name, value in (("c_mode", c_mode), ("c_dim", c_dim)):
            if value.denominator != 1:
                raise CalibrationError("%s must be an integer, got %s" % (name, _frac_str(value)))
        self._set(c_mode, c_dim, provenance)


# ------------------------------------------------------------------ fields


def heisenberg_field(spec: HeisenbergSpec, weight: float = 1.0) -> PencilField:
    el = HermitianMatrix(np.diag([float(v) for v in spec.lambda_vec]).astype(complex))
    point = PencilPoint("heisenberg", spec.mu_mat, el, weight)
    return PencilField(n=spec.d + 1, delta=spec.delta, points=[point])


def torus_bundle_field(spec: TorusBundleSpec, weight: float = 1.0) -> PencilField:
    point = PencilPoint("torus", spec.mu_mat, spec.lambda_mat, weight)
    return PencilField(n=spec.d + 1, delta=spec.delta, points=[point])


def levi_flat_field(mu_mat, d: int, delta: float = 1.0) -> PencilField:
    """Levi-flat product field: L = 0, constant curvature mu.

    With the default delta = 1 the s-integral contributes a factor of
    exactly 2 (interval length) to every density, which is the bookkeeping
    expected by the classical product-manifold dimension counts.
    """
    d = _as_int(d, "dimension d")
    if d < 1:
        raise InputError("dimension d must be >= 1, got %d" % d)
    mu = mu_mat if isinstance(mu_mat, HermitianMatrix) else HermitianMatrix(np.asarray(mu_mat, dtype=complex))
    if mu.dim != d:
        raise InputError("curvature matrix has dim %d, expected d=%d" % (mu.dim, d))
    point = PencilPoint("levi-flat", mu, HermitianMatrix.zeros(d), 1.0)
    return PencilField(n=d + 1, delta=float(delta), points=[point])


# ------------------------------------------------------- d=1 Fourier count


def _ray_decays(a: int, r: int, j: int) -> bool:
    # relative log-magnitude of the coefficient r + 2aj steps along the ray,
    # in units of 2*pi: exactly -(r*j + a*j*j)
    return -(r * j + a * j * j) <= -abs(j)


def _d1_section_count(a: int) -> int:
    """Sections of the curvature-a bundle on C/(sqrt(2pi)(Z+iZ)), any a.

    A section is an entire f with f(z+w) = f(z) exp(a wbar z + a|w|^2/2)
    for lattice vectors w.  Multiplying by exp(-a z^2 / 2) makes f
    periodic in the real direction, so it has a Fourier expansion with
    coefficients c_m; the imaginary period then forces
    c_{m+2a} = c_m exp(-2pi (m+a)).  For a > 0 each residue class mod 2a
    yields one solution provided the coefficients decay along both ray
    directions, which is checked explicitly rather than assumed.
    """
    if a < 0:
        return 0
    if a == 0:
        # recursion degenerates to c_m (1 - e^{-2 pi m}) = 0: constants only
        return 1
    count = 0
    for r in range(2 * a):
        if _ray_decays(a, r, _RAY_CHECK) and _ray_decays(a, r, -_RAY_CHECK):
            count += 1
    return count


def d1_fourier_bruteforce(a: int) -> int:
    """First-principles dimension count for positive d=1 curvature."""
    if not isinstance(a, numbers.Integral) or a < 1:
        raise InputError("curvature must be a positive integer, got %r" % (a,))
    return _d1_section_count(int(a))


# ------------------------------------------------------------- calibration


def _frac_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def calibrate() -> LatticeCalibration:
    """Derive and freeze the lattice constants from the d=1 oracle.

    c_dim is the d=1 section count per curvature unit.  c_mode is found
    by testing which coupling candidate makes det-based predictions match
    direct Fourier counts on a fixed pseudo-random family of
    (k, m, mu, lambda) mode bundles; exactly one candidate must survive.
    The whole derivation is deterministic, so two runs produce identical
    records.
    """
    n1 = d1_fourier_bruteforce(1)
    if n1 <= 0:
        raise CalibrationError("d=1 Fourier count returned a nonpositive dimension")
    for a in range(1, 9):
        if d1_fourier_bruteforce(a) != a * n1:
            raise CalibrationError(
                "d=1 Fourier count is not linear in the curvature at a=%d" % a
            )
    c_dim = Fraction(n1)
    candidates = [Fraction(1), Fraction(2)]
    rng = random.Random(_CAL_SEED)
    tuples: List[Tuple[int, int, int, int]] = []
    while len(tuples) < 20:
        k = rng.randint(1, 6)
        m = rng.randint(-4, 4)
        mu = rng.randint(-3, 3)
        lam = rng.randint(1, 3)
        # singular mode bundles carry a flat direction the determinant
        # formula cannot see; keep them out of the discriminating family
        if any(k * mu + int(c) * m * lam == 0 for c in candidates):
            continue
        tuples.append((k, m, mu, lam))
    if not any(m != 0 for _, m, _, _ in tuples):
        raise CalibrationError("calibration family never exercises the mode coupling")
    direct = [_d1_section_count(k * mu + m * lam) for k, m, mu, lam in tuples]
    survivors = []
    for c in candidates:
        predictions = []
        for k, m, mu, lam in tuples:
            b = k * mu + int(c) * m * lam
            predictions.append(int(c_dim * b) if b > 0 else 0)
        if predictions == direct:
            survivors.append(c)
    if len(survivors) != 1:
        raise CalibrationError(
            "calibration is ambiguous: %d couplings consistent with the oracle"
            % len(survivors)
        )
    c_mode = survivors[0]
    provenance = {
        "method": "d1 Fourier quasi-periodicity count",
        "seed": _CAL_SEED,
        "n1": n1,
        "linearity_checked_through": 8,
        "candidates": [_frac_str(c) for c in candidates],
        "survivor": _frac_str(c_mode),
        "tuples": [list(t) for t in tuples],
        "direct_dims": direct,
    }
    return LatticeCalibration(c_mode=c_mode, c_dim=c_dim, provenance=provenance)


def verify_calibration(cal: LatticeCalibration) -> None:
    fresh = calibrate()
    if fresh != cal:
        raise CalibrationError(
            "calibration record does not reproduce (expected c_mode=%s, c_dim=%s)"
            % (_frac_str(fresh.c_mode), _frac_str(fresh.c_dim))
        )


def save_calibration(cal: LatticeCalibration, path) -> None:
    payload = {
        "c_dim": _frac_str(cal.c_dim),
        "c_mode": _frac_str(cal.c_mode),
        "provenance": cal.provenance,
    }
    Path(path).write_text(canonical_json(payload) + "\n")


def load_calibration(path, verify: bool = True) -> LatticeCalibration:
    p = Path(path)
    if not p.is_file():
        raise InputError(
            "calibration record not found at %s (generate it with calibrate)" % p
        )
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError("calibration record %s is not valid JSON: %s" % (p, exc)) from exc
    try:
        cal = LatticeCalibration(
            c_mode=Fraction(doc["c_mode"]),
            c_dim=Fraction(doc["c_dim"]),
            provenance=doc.get("provenance", {}),
        )
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise InputError("calibration record %s is malformed: %s" % (p, exc)) from exc
    if verify:
        verify_calibration(cal)
    return cal


# ------------------------------------------------------ exact determinant


def _gmul(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gdiv(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    n2 = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    if re % n2 or im % n2:
        raise ArithmeticError("non-exact division in fraction-free elimination")
    return (re // n2, im // n2)


def _exact_det(rows: List[List[Tuple[int, int]]]) -> Tuple[int, int]:
    """Bareiss fraction-free determinant over the Gaussian integers."""
    m = [list(r) for r in rows]
    size = len(m)
    if any(len(r) != size for r in m):
        raise InputError("determinant needs a square matrix")
    sign = 1
    prev = (1, 0)
    for col in range(size - 1):
        if m[col][col] == (0, 0):
            for r in range(col + 1, size):
                if m[r][col] != (0, 0):
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return (0, 0)
        for i in range(col + 1, size):
            for j in range(col + 1, size):
                lead = _gmul(m[i][j], m[col][col])
                drop = _gmul(m[i][col], m[col][j])
                m[i][j] = _gdiv((lead[0] - drop[0], lead[1] - drop[1]), prev)
            m[i][col] = (0, 0)
        prev = m[col][col]
    det = m[size - 1][size - 1]
    return (sign * det[0], sign * det[1])


# -------------------------------------------------------- mode dimensions


def _gaussian_rows(mat: HermitianMatrix) -> List[List[Tuple[int, int]]]:
    return [[(round(z.real), round(z.imag)) for z in row] for row in mat.entries.tolist()]


def torus_mode_dim(q: int, a, cal: LatticeCalibration) -> int:
    """Exact section-space dimension of one Fourier mode bundle.

    Zero when the integer curvature matrix is singular or its inertia is
    not (q, 0, d-q); otherwise c_dim^d |det| (the classical concentration
    of cohomology in the degree counting negative eigenvalues).  The
    determinant is computed exactly over the Gaussian integers.
    """
    mat = a if isinstance(a, HermitianMatrix) else HermitianMatrix(np.asarray(a, dtype=complex))
    d = mat.dim
    if not isinstance(q, numbers.Integral) or not 0 <= q <= d:
        raise InputError("q must be an integer in 0..%d, got %r" % (d, q))
    mat = _int_hermitian(mat, "mode curvature matrix", d)
    det_re, det_im = _exact_det(_gaussian_rows(mat))
    if det_im != 0:
        raise InputError("Hermitian determinant came out non-real; input corrupt")
    if det_re == 0:
        return 0
    if inertia(mat).signature != (int(q), 0, d - int(q)):
        return 0
    return int(cal.c_dim) ** d * abs(det_re)


# ------------------------------------------------ exact window sums
#
# Polynomials in the mode index m are lists of coefficients in ascending
# degree with no trailing zeros; the zero polynomial is [].


def _trim(c: List) -> List:
    while c and c[-1] == 0:
        c.pop()
    return c


def _horner(c: List[int], x: int) -> int:
    v = 0
    for a in reversed(c):
        v = v * x + a
    return v


def _pseudo_divmod(a: List[int], b: List[int]) -> Tuple[List[int], List[int]]:
    """(Q, R) with c*a = Q*b + R and deg R < deg b, for some integer c > 0."""
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    while len(rem) >= len(b):
        f = rem[-1] * sign
        shift = len(rem) - len(b)
        quot = [x * scale for x in quot]
        quot[shift] += f
        rem = [x * scale for x in rem]
        for i, bc in enumerate(b):
            rem[shift + i] -= f * bc
        rem.pop()
        _trim(rem)
    return quot, rem


def _primitive(c: List[int]) -> List[int]:
    g = math.gcd(*c)
    return [x // g for x in c]


def _derivative(c: List[int]) -> List[int]:
    return [i * x for i, x in enumerate(c)][1:]


def _det_poly(mu, lam, k: int, coupling: int) -> List[int]:
    """p(m) = det(k*mu + coupling*m*lam) for Gaussian-integer rows mu, lam.

    Exact Newton interpolation at the nodes m = 0..d: p is the sum over j
    of its j-th forward difference at 0 times binomial(m, j), and
    d! binomial(m, j) is the integer polynomial (d!/j!) m(m-1)...(m-j+1).
    """
    d = len(mu)
    vals = []
    for m in range(d + 1):
        c = coupling * m
        rows = [
            [(k * u[0] + c * v[0], k * u[1] + c * v[1]) for u, v in zip(ru, rv)]
            for ru, rv in zip(mu, lam)
        ]
        re, im = _exact_det(rows)
        if im != 0:
            raise InputError("Hermitian determinant came out non-real; input corrupt")
        vals.append(re)
    fact = math.factorial(d)
    scaled = [0] * (d + 1)  # d! * p
    falling = [1]  # m(m-1)...(m-j+1)
    for j in range(d + 1):
        weight = vals[0] * (fact // math.factorial(j))
        for i, f in enumerate(falling):
            scaled[i] += weight * f
        vals = [y - x for x, y in zip(vals, vals[1:])]
        falling = [
            (falling[i - 1] if i else 0) - j * (falling[i] if i < len(falling) else 0)
            for i in range(len(falling) + 1)
        ]
    if any(c % fact for c in scaled):
        raise ArithmeticError("determinant polynomial came out non-integral")
    return _trim([c // fact for c in scaled])


def _sturm_chain(p: List[int]) -> List[List[int]]:
    """Sturm sequence of the square-free part of p (degree >= 1).

    Members are rescaled by positive constants only, so their signs are
    those of the textbook sequence.
    """
    a, b = p, _derivative(p)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    chain = [_primitive(_pseudo_divmod(p, a)[0])]  # p / gcd(p, p')
    chain.append(_primitive(_derivative(chain[0])))
    while True:
        rem = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not rem:
            return chain
        chain.append(_primitive([-x for x in rem]))


def _sign_changes(chain: List[List[int]], x: int) -> int:
    signs = [v > 0 for v in (_horner(c, x) for c in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _isolate(chain, a: int, va: int, b: int, vb: int, found: List[int]) -> None:
    """Locate each root of the chain's head in (a, b] to unit resolution.

    Appends 2r for a root at the integer r and 2n+1 for roots inside
    (n, n+1), in increasing order.  va - vb counts the distinct roots in
    (a, b]; that holds at roots too, because the head is square-free.
    """
    if va == vb:
        return
    if b - a == 1:
        at_b = _horner(chain[0], b) == 0
        if va - vb > at_b:
            found.append(2 * a + 1)
        if at_b:
            found.append(2 * b)
        return
    mid = (a + b) // 2
    vm = _sign_changes(chain, mid)
    _isolate(chain, a, va, mid, vm, found)
    _isolate(chain, mid, vm, b, vb, found)


def _root_free_runs(p: List[int], window: int) -> List[Tuple[int, int]]:
    """Maximal integer ranges in [-window, window] with no real root of p
    in their closed hull; together they are every mode where p != 0."""
    found: List[int] = []
    if len(p) > 1:
        chain = _sturm_chain(p)
        lo, hi = -window - 1, window
        _isolate(chain, lo, _sign_changes(chain, lo), hi, _sign_changes(chain, hi), found)
    runs, lo = [], -window
    for pos in found:
        # a root at the integer r ends the run at r - 1, one in (n, n+1) at n
        end = pos // 2 if pos % 2 else pos // 2 - 1
        if lo <= end:
            runs.append((lo, end))
        lo = pos // 2 + 1
    if lo <= window:
        runs.append((lo, window))
    return runs


def _range_sum(p: List[int], a: int, b: int) -> int:
    """Sum of p(m) over a <= m <= b: sum_j (Delta^j p)(a) binomial(b-a+1, j+1)."""
    vals = [_horner(p, a + i) for i in range(len(p))]
    total = 0
    for j in range(len(p)):
        total += vals[0] * math.comb(b - a + 1, j + 1)
        vals = [y - x for x, y in zip(vals, vals[1:])]
    return total


def _check_window(spec: TorusBundleSpec, k: int, name: str, value: int) -> None:
    """An InputError naming ``name`` and the digits of ``value``, the input
    that set level k, when the window k * delta leaves floating-point range."""
    try:
        reach = k * spec.delta
    except OverflowError:  # k beyond float range
        reach = math.inf
    if reach == math.inf:
        raise InputError(
            "%s: an integer of %d digits, whose window k * delta leaves floating-point range"
            % (name, len(str(value)))
        )


def _dimension_sums(
    spec: TorusBundleSpec, k: int, cal: LatticeCalibration, name: str = "k"
) -> List[int]:
    """Sums of torus_mode_dim over the window |m| <= k*delta, for q = 0..d.

    The mode curvature k*mu + c_mode*m*lambda has determinant p(m), an
    integer polynomial of degree <= d.  Hermitian eigenvalues cross 0
    only at real roots of p, so between consecutive roots the modes form
    runs of constant inertia: each run's inertia is read once, at its
    middle mode, and its sum of |p| is taken in closed form.  A run whose
    middle mode reads a numerically zero eigenvalue counts in no degree,
    as torus_mode_dim would count that mode.  The cost per k does not
    depend on the window.  The window floor(k*delta + 1e-9) is taken
    exactly, so the sums are exact at any k whose k*delta is a float.
    Errors about k name ``name``.
    """
    if not isinstance(k, numbers.Integral) or k < 1:
        raise InputError("%s must be a positive integer, got %r" % (name, k))
    k = int(k)
    _check_window(spec, k, name, k)  # the inertia reads below take k * mu in floats
    # exact, with delta read as the decimal it prints as: 0.3 is 3/10, not
    # the binary float below it
    window = math.floor(k * Fraction(repr(spec.delta)) + Fraction(1, 10**9))
    mu = spec.mu_mat.entries
    lam = spec.lambda_mat.entries
    coupling = int(cal.c_mode)
    p = _det_poly(_gaussian_rows(spec.mu_mat), _gaussian_rows(spec.lambda_mat), k, coupling)
    sums = [0] * (spec.d + 1)
    for lo, hi in _root_free_runs(p, window) if p else []:
        ine = inertia(HermitianMatrix(k * mu + (coupling * ((lo + hi) // 2)) * lam))
        if not ine.zero:
            sums[ine.neg] += abs(_range_sum(p, lo, hi))
    scale = int(cal.c_dim) ** spec.d
    return [scale * s for s in sums]


def fourier_dimension_sum(
    spec: TorusBundleSpec, q: int, k: int, cal: LatticeCalibration
) -> int:
    """Sum of mode dimensions over the window |m| <= k*delta (exact integer).

    Equal to the sum of torus_mode_dim over the modes m of the window;
    the cost does not depend on k.
    """
    if not isinstance(q, numbers.Integral) or not 0 <= q <= spec.d:
        raise InputError("q must be an integer in 0..%d, got %r" % (spec.d, q))
    return _dimension_sums(spec, k, cal)[q]


def calibrate_weight(
    spec: TorusBundleSpec, q: int, k0: int, cal: LatticeCalibration
) -> float:
    """Volume weight making the weak bound track the oracle's k^n law.

    Extracts the oracle's leading coefficient by a two-point Richardson
    step at (k0, 2k0), which cancels the k^{n-1} correction that a naive
    single-k match would bake into the weight, then divides by the
    weight-1 density.
    """
    if not isinstance(k0, numbers.Integral) or k0 < 1:
        raise InputError("reference level k0 must be a positive integer, got %r" % (k0,))
    field = torus_bundle_field(spec)
    n = field.n
    scale = _power(k0, n, "k0", 2 ** (n - 1))  # checked before the sums at k0 and 2 k0
    y1 = fourier_dimension_sum(spec, q, int(k0), cal)
    y2 = fourier_dimension_sum(spec, q, 2 * int(k0), cal)
    dens = density_q(field, q, spec.delta)
    if dens <= 0.0:
        raise InputError(
            "q=%d spectral density vanishes for this spec; nothing to calibrate" % q
        )
    try:
        lead = (y2 - 2 ** (n - 1) * y1) / scale
    except OverflowError:  # an exact dimension sum beyond float range
        raise InputError(
            "k0: the oracle dimension sums at k0 and 2 k0 leave floating-point range"
        ) from None
    if lead <= 0.0:
        raise InputError(
            "oracle dimension sums do not grow like k^%d; cannot extract a weight" % n
        )
    return lead / dens
