"""Example field generators and exact lattice dimension oracles.

The generators build constant PencilFields for the homogeneous model
geometries: circle bundles over a torus (Grauert tube boundaries),
compact Heisenberg quotients, and Levi-flat products.  The oracles count
Fourier-mode section spaces on the square torus
C^d / (sqrt(2pi) Z^d + i sqrt(2pi) Z^d) from first principles, giving an
engine-independent route to the k^n dimension asymptotics.

Two integer constants the geometry literature leaves implicit are frozen
in a persisted, re-verifiable record by ``calibrate``: c_dim = 2, the d=1
brute-force count of sections per unit of curvature, and c_mode = 1, the
coupling of the circle Fourier index m to the lambda-curvature, which is
1 because X is built as the circle bundle of L_lambda.  The lattice
commands build their torus field from the record alone (_lattice_field).
"""

from __future__ import annotations

import json
import math
import numbers
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import _exports
from .errors import CalibrationError, InputError, _digits, _float_integer, _float_range, _int_arg, _positive_arg
from .morse import PencilField, PencilPoint, _weak_bounds, density_q
from .pencil import TWO_PI, HermitianMatrix, _Frozen, inertia
from .serialize import canonical_json

__all__ = _exports(__name__)

_RAY_CHECK = 1000
# the largest torus dimension d of the lattice commands.  A command builds
# the determinant polynomial (_det_poly, d + 1 exact determinants) and its
# Sturm chain once, and each level then costs little; that one-time cost
# grows with d and with the entries' bits, and at d = 16 it took 0.03 s on
# entries in -4..4 and 9.5 s on entries near 2^1000 (2-core VM, Python 3.11.7)
_LATTICE_D = 16


def _gaussian_entry(z, name: str) -> complex:
    """The matrix entry ``z`` once it, or each part of it where its
    imaginary part is not 0, is an integer that a float holds exactly
    (errors._float_integer), checked on the caller's number."""
    if isinstance(z, numbers.Real) or not isinstance(z, numbers.Complex):
        return _float_integer(z, name)
    if z.imag == 0:
        return _float_integer(z.real, name)
    return complex(_float_integer(z.real, name + ".real"), _float_integer(z.imag, name + ".imag"))


def _int_hermitian(raw, what: str, d: Optional[int]) -> HermitianMatrix:
    """The integer curvature matrix ``raw`` (nested lists, an array or a
    HermitianMatrix; d x d, or square when d is None) as a HermitianMatrix,
    once each entry is a Gaussian integer that floats hold exactly
    (_gaussian_entry, naming it ``what[i][j]``) and the matrix is Hermitian
    exactly as given: the exact counts take the integers as written, not
    rounded to floats or averaged with their mirror entries."""
    a = np.array(raw.entries if isinstance(raw, HermitianMatrix) else raw, dtype=object)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("%s must be a square matrix, got shape %r" % (what, a.shape))
    if d is not None and len(a) != d:
        raise InputError("%s has dim %d, expected %d" % (what, len(a), d))
    exact = np.array([
        [_gaussian_entry(z, "%s[%d][%d]" % (what, i, j)) for j, z in enumerate(row)]
        for i, row in enumerate(a.tolist())
    ], dtype=complex)
    if not np.array_equal(exact, exact.conj().T):
        raise InputError("%s: an integer matrix must be exactly Hermitian" % what)
    return HermitianMatrix(exact)


class TorusBundleSpec(_Frozen):
    """Grauert-tube circle bundle: L_mu pulled back, tube from L_lambda."""

    __slots__ = ("d", "lambda_mat", "mu_mat", "delta")

    def __init__(self, d: int, lambda_mat: HermitianMatrix, mu_mat: HermitianMatrix, delta: float):
        d = _int_arg(d, "torus dimension d", 1)
        lambda_mat = _int_hermitian(lambda_mat, "lambda_mat", d)
        mu_mat = _int_hermitian(mu_mat, "mu_mat", d)
        self._set(d, lambda_mat, mu_mat, _positive_arg(delta, "delta"))


class HeisenbergSpec(_Frozen):
    """Compact Heisenberg quotient: diagonal Levi form, constant curvature."""

    __slots__ = ("d", "lambda_vec", "mu_mat", "delta")

    def __init__(self, d: int, lambda_vec: Tuple[int, ...], mu_mat: HermitianMatrix, delta: float):
        d = _int_arg(d, "dimension d", 1)
        vec = tuple(lambda_vec)
        for i, v in enumerate(vec):  # an integer, and one that a float holds exactly
            _float_integer(_int_arg(v, "lambda_vec[%d]" % i), "lambda_vec[%d]" % i)
        vec = tuple(map(int, vec))
        if len(vec) != d:
            raise InputError("lambda_vec must have length d=%d, got %d" % (d, len(vec)))
        if any(v == 0 for v in vec):
            raise InputError("every Levi eigenvalue lambda_j must be nonzero")
        self._set(d, vec, _int_hermitian(mu_mat, "mu_mat", d), _positive_arg(delta, "delta"))


class LatticeCalibration(_Frozen):
    """Frozen lattice constants plus how c_dim was counted."""

    __slots__ = ("c_mode", "c_dim", "provenance")

    def __init__(self, c_mode: Fraction, c_dim: Fraction, provenance: Dict):
        c_mode, c_dim = Fraction(c_mode), Fraction(c_dim)
        # the mode counts are positive integers only for positive integer constants
        if c_dim <= 0:
            raise CalibrationError("c_dim must be positive, got %s" % c_dim)
        for name, value in (("c_mode", c_mode), ("c_dim", c_dim)):
            if value.denominator != 1:
                raise CalibrationError("%s must be an integer, got %s" % (name, _frac_str(value)))
        self._set(c_mode, c_dim, provenance)


# ------------------------------------------------------------------ fields


def heisenberg_field(spec: HeisenbergSpec) -> PencilField:
    el = HermitianMatrix(np.diag([float(v) for v in spec.lambda_vec]).astype(complex))
    point = PencilPoint("heisenberg", spec.mu_mat, el)
    return PencilField(n=spec.d + 1, delta=spec.delta, points=[point])


def torus_bundle_field(spec: TorusBundleSpec, weight: float = 1.0) -> PencilField:
    point = PencilPoint("torus", spec.mu_mat, spec.lambda_mat, weight)
    return PencilField(n=spec.d + 1, delta=spec.delta, points=[point])


def _lattice_field(spec: TorusBundleSpec, cal: LatticeCalibration) -> PencilField:
    """The field whose weak bounds the mode counts approach with nothing
    fitted: mode m at level k has curvature k (R + 2 (m/k) L) for R = mu and
    L = c_mode lambda / 2, and c_dim^d sections per unit of |det|, so the
    weight is (2pi)^n c_dim^d."""
    n = spec.d + 1
    el = HermitianMatrix(spec.lambda_mat.entries * (int(cal.c_mode) / 2))
    weight = TWO_PI**n * int(cal.c_dim) ** spec.d
    return PencilField(n=n, delta=spec.delta, points=[PencilPoint("torus", spec.mu_mat, el, weight)])


def levi_flat_field(mu_mat, d: int, delta: float = 1.0) -> PencilField:
    """Levi-flat product field: L = 0, constant curvature mu.

    With the default delta = 1 the s-integral contributes a factor of
    exactly 2 (interval length) to every density, which is the bookkeeping
    expected by the classical product-manifold dimension counts.
    """
    d = _int_arg(d, "dimension d", 1)
    mu = mu_mat if isinstance(mu_mat, HermitianMatrix) else HermitianMatrix(np.asarray(mu_mat, dtype=complex))
    if mu.dim != d:
        raise InputError("curvature matrix has dim %d, expected d=%d" % (mu.dim, d))
    point = PencilPoint("levi-flat", mu, HermitianMatrix.zeros(d), 1.0)
    return PencilField(n=d + 1, delta=_positive_arg(delta, "delta"), points=[point])


# ------------------------------------------------------- d=1 Fourier count


def _ray_decays(a: int, r: int, j: int) -> bool:
    # relative log-magnitude of the coefficient r + 2aj steps along the ray,
    # in units of 2*pi: exactly -(r*j + a*j*j)
    return -(r * j + a * j * j) <= -abs(j)


def d1_fourier_bruteforce(a: int) -> int:
    """Sections of the curvature-a bundle on C/(sqrt(2pi)(Z+iZ)), a >= 1.

    A section is an entire f with f(z+w) = f(z) exp(a wbar z + a|w|^2/2)
    for lattice vectors w.  Multiplying by exp(-a z^2 / 2) makes f
    periodic in the real direction, so it has a Fourier expansion with
    coefficients c_m; the imaginary period then forces
    c_{m+2a} = c_m exp(-2pi (m+a)).  Each residue class mod 2a yields one
    solution provided the coefficients decay along both ray directions,
    which is checked explicitly rather than assumed.
    """
    a = _int_arg(a, "curvature", 1)
    count = 0
    for r in range(2 * a):
        if _ray_decays(a, r, _RAY_CHECK) and _ray_decays(a, r, -_RAY_CHECK):
            count += 1
    return count


# ------------------------------------------------------------- calibration


def _frac_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def calibrate() -> LatticeCalibration:
    """The lattice constants, frozen in a record.

    c_dim is the d=1 section count per curvature unit,
    d1_fourier_bruteforce(1).  c_mode is 1 by construction: X is the
    circle bundle of L_lambda, so Fourier mode m of L^k is counted on the
    base for the curvature k*mu + m*lambda.  Two runs produce identical
    records.
    """
    n1 = d1_fourier_bruteforce(1)
    provenance = {"method": "d1 Fourier quasi-periodicity count", "n1": n1}
    return LatticeCalibration(c_mode=Fraction(1), c_dim=Fraction(n1), provenance=provenance)


def verify_calibration(cal: LatticeCalibration) -> None:
    """A CalibrationError unless ``cal`` has the constants of calibrate()."""
    fresh = calibrate()
    if (fresh.c_mode, fresh.c_dim) != (cal.c_mode, cal.c_dim):
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


def load_calibration(path) -> LatticeCalibration:
    p = Path(path)
    if not p.is_file():
        raise InputError("calibration record not found at %s (generate it with calibrate)" % p)
    malformed = "calibration record %s is malformed: " % p
    try:
        doc = json.loads(p.read_bytes().decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError("calibration record %s is not valid JSON: %s" % (p, exc)) from exc
    except ValueError as exc:  # bytes that are not UTF-8, an integer too long to convert
        raise InputError(malformed + str(exc)) from exc
    if not isinstance(doc, dict):
        raise InputError(malformed + "expected a JSON object")
    constants = {}
    for key in ("c_mode", "c_dim"):  # each read on its own, so that a fault names its key
        try:
            constants[key] = Fraction(doc[key])
        except KeyError:
            raise InputError(malformed + key + " is missing") from None
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:  # OverflowError: Infinity
            got = json.dumps(doc[key])
            raise InputError(malformed + "%s must be a number or a fraction string, got %s" % (key, got)) from exc
    cal = LatticeCalibration(provenance=doc.get("provenance", {}), **constants)
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
    mat = _int_hermitian(a, "a", None)
    d = mat.dim
    q = _int_arg(q, "q", 0, d)
    det_re, det_im = _exact_det(_gaussian_rows(mat))
    if det_im != 0:
        raise InputError("Hermitian determinant came out non-real; input corrupt")
    if det_re == 0:
        return 0
    if inertia(mat).signature != (q, 0, d - q):
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


def _horner(c: List[int], x: int, k: int = 1) -> int:
    """k^e c(x/k) for c of degree e: the sign of c at x/k, exactly."""
    v, scale = 0, 1
    for a in reversed(c):
        v = v * x + a * scale
        scale *= k
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


def _det_poly(mu, lam, coupling: int) -> List[int]:
    """P(t) = det(mu + coupling*t*lam) for Gaussian-integer rows mu, lam.

    Exact Newton interpolation at the nodes t = 0..d: P is the sum over j
    of its j-th forward difference at 0 times binomial(t, j), and
    d! binomial(t, j) is the integer polynomial (d!/j!) t(t-1)...(t-j+1).
    """
    d = len(mu)
    vals = []
    for t in range(d + 1):
        c = coupling * t
        rows = [
            [(u[0] + c * v[0], u[1] + c * v[1]) for u, v in zip(ru, rv)]
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


def _sign_changes(chain: List[List[int]], x: int, k: int) -> int:
    signs = [v > 0 for v in (_horner(c, x, k) for c in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _isolate(chain, k: int, a: int, b: int) -> List[int]:
    """Locate each root t of the chain's head with k t in (a, b] to unit
    resolution, by bisection on a stack of its own.

    Returns 2r for a root at k t = r, an integer, and 2n+1 for roots with
    k t inside (n, n+1), in increasing order.  The drop in sign changes
    over (a/k, b/k] counts its distinct roots; that holds at roots too,
    because the head is square-free.
    """
    found: List[int] = []
    stack = [(a, _sign_changes(chain, a, k), b, _sign_changes(chain, b, k))]
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            at_b = _horner(chain[0], b, k) == 0
            if va - vb > at_b:
                found.append(2 * a + 1)
            if at_b:
                found.append(2 * b)
            continue
        mid = (a + b) // 2
        vm = _sign_changes(chain, mid, k)
        stack += [(mid, vm, b, vb), (a, va, mid, vm)]  # the left half first
    return found


def _root_free_runs(chain, k: int, window: int) -> List[Tuple[int, int]]:
    """Maximal integer ranges of m in [-window, window] with no real root
    of the chain's head at m/k in their closed hull; together they are
    every mode where the head is not 0.  An empty chain has no roots."""
    runs, lo = [], -window
    for pos in _isolate(chain, k, -window - 1, window):
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


# the range error of a level k, named by the input that set it and its
# digits, whose window k * delta leaves floating-point range.  The sums are
# exact at any window, but each is reported beside the float weak bound of
# its level, and a float window bounds _isolate to about 1025 halvings
_WINDOW_RANGE = "%s: an integer of %d digits, whose window k * delta leaves floating-point range"


def _dimension_sums(
    spec: TorusBundleSpec, ks: List[int], cal: LatticeCalibration, name: str = "k"
) -> List[List[int]]:
    """Sums of torus_mode_dim over the window |m| <= k*delta, for q = 0..d,
    one list for each level k of ``ks``.

    The mode curvature k*mu + c_mode*m*lambda has determinant
    k^d P(m/k), where P(t) = det(mu + c_mode*t*lambda) is an integer
    polynomial of degree <= d; P and its Sturm chain are built once, and
    each level reads them at m/k exactly (_horner).  Hermitian
    eigenvalues cross 0 only at real roots of P, so between consecutive
    roots the modes form runs of constant inertia: each run's inertia is
    read once, on the curvature over k at its middle mode, and its sum of
    |det| is taken in closed form.  A run whose middle mode reads a
    numerically zero eigenvalue counts in no degree, as torus_mode_dim
    would count that mode.  The cost per level does not depend on the
    window.  The window floor(k*delta + 1e-9) is taken exactly, so the
    sums are exact at any k whose k*delta is a float.  Errors about a
    level name ``name``.
    """
    ks = [_int_arg(k, name, 1) for k in ks]
    for k in ks:
        _float_range(lambda: k * spec.delta, _WINDOW_RANGE % (name, _digits(k)))
    coupling = int(cal.c_mode)
    big_p = _det_poly(_gaussian_rows(spec.mu_mat), _gaussian_rows(spec.lambda_mat), coupling)
    chain = _sturm_chain(big_p) if len(big_p) > 1 else []
    scale = int(cal.c_dim) ** spec.d
    levels = []
    for k in ks:
        # exact, with delta read as the decimal it prints as: 0.3 is 3/10,
        # not the binary float below it
        window = math.floor(k * Fraction(repr(spec.delta)) + Fraction(1, 10**9))
        p = [a * k ** (spec.d - j) for j, a in enumerate(big_p)]  # det at mode m
        sums = [0] * (spec.d + 1)
        for lo, hi in _root_free_runs(chain, k, window) if p else []:
            with np.errstate(over="ignore", invalid="ignore"):  # out of range: refused below
                mode = spec.mu_mat.entries + (coupling * ((lo + hi) // 2) / k) * spec.lambda_mat.entries
            if not np.isfinite(mode).all():
                raise InputError("mu, lambda at %s: the mode curvature mu + c_mode (m / k) lambda "
                                 "leaves floating-point range" % name)
            ine = inertia(HermitianMatrix(mode))
            if not ine.zero:
                sums[ine.neg] += abs(_range_sum(p, lo, hi))
        levels.append([scale * s for s in sums])
    return levels


def fourier_dimension_sum(
    spec: TorusBundleSpec, q: int, k: int, cal: LatticeCalibration
) -> int:
    """Sum of mode dimensions over the window |m| <= k*delta (exact integer).

    Equal to the sum of torus_mode_dim over the modes m of the window;
    the cost does not depend on k.
    """
    q = _int_arg(q, "q", 0, spec.d)
    return _dimension_sums(spec, [k], cal)[0][q]


def calibrate_weight(
    spec: TorusBundleSpec, q: int, k0: int, cal: LatticeCalibration
) -> float:
    """Volume weight making the weak bound track the oracle's k^n law.

    Extracts the oracle's leading coefficient by a two-point Richardson
    step at (k0, 2k0), which cancels the k^{n-1} correction that a naive
    single-k match would bake into the weight: the weight is the
    Richardson excess y(2k0) - 2^{n-1} y(k0) over 2^{n-1} times the weak
    bound k0^n c_q of the weight-1 field.
    """
    field = torus_bundle_field(spec)
    n = field.n
    dens = density_q(field, q, spec.delta)
    bound = _weak_bounds(k0, n, [dens], "k0")[0]  # checked before the sums at k0 and 2 k0
    if dens <= 0.0:
        raise InputError(
            "q=%d spectral density vanishes for this spec; nothing to calibrate" % q
        )
    y1 = fourier_dimension_sum(spec, q, k0, cal)
    y2 = fourier_dimension_sum(spec, q, 2 * k0, cal)
    weight = _float_range(
        lambda: (y2 - 2 ** (n - 1) * y1) / 2 ** (n - 1) / bound,
        "k0: the oracle dimension sums at k0 and 2 k0 leave floating-point range",
    )
    if weight <= 0.0:
        raise InputError(
            "oracle dimension sums do not grow like k^%d; cannot extract a weight" % n
        )
    return weight
