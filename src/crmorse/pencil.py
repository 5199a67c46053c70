"""Signature chambers of the Hermitian pencil A(s) = R + 2sL.

The pencil is decomposed over [-delta, delta] into maximal open intervals
on which the eigenvalue-sign signature (inertia) is constant.  Chamber
boundaries are the real roots of the characteristic polynomial
p(s) = det(R + 2sL), recovered by determinant evaluation at d+1 probe
points followed by a Vandermonde solve (exact for degree <= d and
numerically adequate for d <= 8, the documented range).  Integrals of
|det| over chambers use the exact polynomial antiderivative, so the only
numerical error is in root location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegeneratePencilError, InputError

__all__ = [
    "IDENTICALLY_ZERO",
    "Chamber",
    "ChamberDecomposition",
    "HermitianMatrix",
    "Inertia",
    "RealPolynomial",
    "chamber_integral",
    "chambers",
    "inertia",
    "pencil_char_poly",
    "pencil_signed_integral",
    "real_roots",
    "signature_set",
]

_HERMITIAN_INPUT_TOL = 1e-12
_INERTIA_REL_TOL = 1e-9


class _IdenticallyZero:
    """Sentinel for an identically vanishing polynomial."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "IDENTICALLY_ZERO"


IDENTICALLY_ZERO = _IdenticallyZero()


class HermitianMatrix:
    """A validated d x d complex Hermitian matrix.

    Construction enforces A = A* within ``tol`` (relative to the largest
    entry), then stores the exact symmetrization (A + A*)/2, which also
    forces diagonal imaginary parts to zero.  Entries are immutable.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries, tol: float = _HERMITIAN_INPUT_TOL):
        a = np.array(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("Hermitian matrix must be square, got shape %r" % (a.shape,))
        if a.shape[0] < 1:
            raise InputError("Hermitian matrix must have dim >= 1")
        if not np.all(np.isfinite(a.view(float))):
            raise InputError("Hermitian matrix entries must be finite")
        scale = float(np.max(np.abs(a)))
        residual = float(np.max(np.abs(a - a.conj().T)))
        if residual > tol * (1.0 + scale):
            raise InputError(
                "matrix is not Hermitian: max |A - A*| = %.3e exceeds tolerance %.3e"
                % (residual, tol * (1.0 + scale))
            )
        h = (a + a.conj().T) / 2.0
        h.setflags(write=False)
        self._entries = h

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @classmethod
    def diagonal(cls, values) -> "HermitianMatrix":
        vals = np.asarray(values, dtype=float)
        return cls(np.diag(vals.astype(complex)))

    @classmethod
    def zeros(cls, dim: int) -> "HermitianMatrix":
        return cls(np.zeros((dim, dim), dtype=complex))

    def __repr__(self):
        return "HermitianMatrix(dim=%d)" % self.dim


class Inertia(NamedTuple):
    neg: int
    zero: int
    pos: int
    tol: float

    @property
    def signature(self) -> Tuple[int, int, int]:
        return (self.neg, self.zero, self.pos)


def inertia(a: HermitianMatrix, tol: Union[float, None] = None) -> Inertia:
    """Count eigenvalues of ``a`` below -tol, within [-tol, tol], above tol.

    With ``tol=None`` the tolerance defaults to 1e-9 * (1 + spectral
    radius), which makes the strict sign counts robustly decidable.
    """
    w = np.linalg.eigvalsh(a.entries)
    if tol is None:
        tol = _INERTIA_REL_TOL * (1.0 + float(np.max(np.abs(w))))
    tol = float(tol)
    if tol < 0.0:
        raise InputError("inertia tolerance must be nonnegative, got %g" % tol)
    neg = int(np.sum(w < -tol))
    pos = int(np.sum(w > tol))
    return Inertia(neg, a.dim - neg - pos, pos, tol)


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial in ascending-degree coefficient order."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("polynomial coefficients must be a nonempty 1-d array")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else 0

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __call__(self, s):
        return npoly.polyval(s, self.coeffs)

    def derivative(self) -> "RealPolynomial":
        if self.degree == 0:
            return RealPolynomial(np.zeros(1))
        return RealPolynomial(npoly.polyder(self.coeffs[: self.degree + 1]))

    def antiderivative(self) -> "RealPolynomial":
        return RealPolynomial(npoly.polyint(self.coeffs))


def pencil_char_poly(r: HermitianMatrix, el: HermitianMatrix) -> RealPolynomial:
    """Coefficients of p(s) = det(R + 2sL).

    Evaluates the determinant at d+1 Chebyshev probe points and solves the
    Vandermonde system; exact for the true degree <= d.  Coefficients
    below 1e-12 of the largest one are clamped to zero to suppress
    interpolation noise.
    """
    if r.dim != el.dim:
        raise InputError(
            "pencil dimension mismatch: R has dim %d, L has dim %d" % (r.dim, el.dim)
        )
    d = r.dim
    j = np.arange(d + 1)
    probes = np.cos((2 * j + 1) * np.pi / (2 * (d + 1)))
    dets = np.array(
        [np.linalg.det(r.entries + 2.0 * s * el.entries).real for s in probes]
    )
    if not np.any(dets):
        return RealPolynomial(np.zeros(d + 1))
    vand = npoly.polyvander(probes, d)
    coeffs = np.linalg.solve(vand, dets)
    cmax = float(np.max(np.abs(coeffs)))
    coeffs[np.abs(coeffs) < 1e-12 * cmax] = 0.0
    return RealPolynomial(coeffs)


def _zero_scale(cabs: np.ndarray, x: float) -> float:
    return 1e-11 * float(npoly.polyval(abs(x), cabs)) + 1e-300


def _bisect_root(cc: np.ndarray, a: float, b: float, va: float, tol: float) -> float:
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


def _roots_in_interval(cc: np.ndarray, lo: float, hi: float, tol: float) -> List[float]:
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
    crit = _roots_in_interval(npoly.polyder(cc), lo, hi, tol)
    pts = [lo]
    for x in sorted(crit) + [hi]:
        if x > pts[-1] + 1e-15 * (1.0 + abs(x)):
            pts.append(x)
    vals = [float(npoly.polyval(x, cc)) for x in pts]
    roots = []
    for x, v in zip(pts, vals):
        if abs(v) <= _zero_scale(cabs, x):
            roots.append(x)
    # p is strictly monotone between consecutive stationary points, so each
    # sign change brackets exactly one root
    for (x0, v0), (x1, v1) in zip(zip(pts, vals), zip(pts[1:], vals[1:])):
        if abs(v0) <= _zero_scale(cabs, x0) or abs(v1) <= _zero_scale(cabs, x1):
            continue
        if (v0 > 0.0) != (v1 > 0.0):
            roots.append(_bisect_root(cc, x0, x1, v0, tol))
    return sorted(roots)


def real_roots(
    p: RealPolynomial, lo: float, hi: float, tol: float
) -> Union[List[float], _IdenticallyZero]:
    """All real roots of ``p`` in [lo, hi], multiplicities collapsed.

    Roots are isolated by sign-change bisection between the stationary
    points of the derivative chain; tangent (even multiplicity) roots are
    picked up where p vanishes at a stationary point.  An identically
    zero polynomial returns the IDENTICALLY_ZERO marker so callers can
    raise the degenerate-pencil condition.
    """
    if not hi > lo:
        raise InputError("real_roots needs hi > lo, got [%g, %g]" % (lo, hi))
    if p.is_zero:
        return IDENTICALLY_ZERO
    if not tol > 0.0:
        tol = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
    raw = _roots_in_interval(np.asarray(p.coeffs, dtype=float), float(lo), float(hi), float(tol))
    merge_eps = max(4.0 * tol, 1e-11 * (1.0 + max(abs(lo), abs(hi))))
    merged: List[float] = []
    for root in raw:
        if merged and root - merged[-1] <= merge_eps:
            merged[-1] = 0.5 * (merged[-1] + root)
        else:
            merged.append(root)
    return merged


@dataclass(frozen=True)
class Chamber:
    lo: float
    hi: float
    inertia: Inertia
    det_sign: int


@dataclass(frozen=True)
class ChamberDecomposition:
    delta: float
    roots: List[float]
    chambers: List[Chamber]

    @property
    def dim(self) -> int:
        first = self.chambers[0].inertia
        return first.neg + first.zero + first.pos


def _pencil_matrix(r: HermitianMatrix, el: HermitianMatrix, s: float) -> np.ndarray:
    # real linear combinations of exactly Hermitian arrays stay exactly Hermitian
    return r.entries + 2.0 * s * el.entries


def _check_not_degenerate(r: HermitianMatrix, el: HermitianMatrix, delta: float) -> None:
    probes = np.linspace(-delta, delta, r.dim + 2)
    margins = []
    for s in probes:
        w = np.linalg.eigvalsh(_pencil_matrix(r, el, s))
        tol = _INERTIA_REL_TOL * (1.0 + float(np.max(np.abs(w))))
        smallest = float(np.min(np.abs(w)))
        if smallest > tol:
            return
        margins.append((smallest / tol, smallest, tol, float(s)))
    _, smallest, tol, s = max(margins)
    raise DegeneratePencilError(
        "degenerate pencil: det(R+2sL) is numerically zero at all %d probes in [-%g, %g] "
        "(least singular: min |eig| = %.1e vs tol %.1e at s=%g); "
        "R and L share a near-common kernel" % (probes.size, delta, delta, smallest, tol, s)
    )


def _decompose(
    r: HermitianMatrix,
    el: HermitianMatrix,
    delta: float,
    tol: Union[float, None] = None,
) -> Tuple[ChamberDecomposition, RealPolynomial]:
    if r.dim != el.dim:
        raise InputError(
            "pencil dimension mismatch: R has dim %d, L has dim %d" % (r.dim, el.dim)
        )
    if not delta > 0.0:
        raise InputError("delta must be positive, got %g" % delta)
    _check_not_degenerate(r, el, delta)
    p = pencil_char_poly(r, el)
    root_tol = 1e-12 * (1.0 + delta)
    found = real_roots(p, -delta, delta, root_tol)
    if found is IDENTICALLY_ZERO:
        raise DegeneratePencilError(
            "degenerate pencil: det(R+2sL) has an identically zero characteristic "
            "polynomial on [-%g, %g]" % (delta, delta)
        )
    interior = [x for x in found if -delta + 4.0 * root_tol < x < delta - 4.0 * root_tol]
    breaks = [-delta, *interior, delta]
    cells = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (a + b)
        a_mid = HermitianMatrix(_pencil_matrix(r, el, mid))
        ine = inertia(a_mid, tol)
        if ine.zero > 0:
            smallest = float(np.min(np.abs(np.linalg.eigvalsh(a_mid.entries))))
            raise DegeneratePencilError(
                "pencil is numerically singular inside a chamber at s=%g "
                "(min |eig| = %.1e vs tol %.1e); cannot assign a signature"
                % (mid, smallest, ine.tol)
            )
        det_sign = -1 if ine.neg % 2 else 1
        cells.append(Chamber(float(a), float(b), ine, det_sign))
    dec = ChamberDecomposition(delta=float(delta), roots=[float(x) for x in found], chambers=cells)
    return dec, p


def chambers(
    r: HermitianMatrix,
    el: HermitianMatrix,
    delta: float,
    tol: Union[float, None] = None,
) -> ChamberDecomposition:
    """Decompose [-delta, delta] into signature chambers of R + 2sL.

    Chamber inertia is read at interior midpoints, never at roots.  A
    pencil whose determinant vanishes identically raises
    DegeneratePencilError naming an offending point.
    """
    dec, _ = _decompose(r, el, delta, tol)
    return dec


def signature_set(dec: ChamberDecomposition, q: int) -> List[Tuple[float, float]]:
    """Open intervals of the decomposition with exactly q negative and
    d - q positive eigenvalues (possibly empty)."""
    d = dec.dim
    if not 0 <= q <= d:
        raise InputError("q must lie in 0..%d, got %r" % (d, q))
    return [(ch.lo, ch.hi) for ch in dec.chambers if ch.inertia.neg == q]


def _chamber_masses(dec: ChamberDecomposition, anti: RealPolynomial) -> List[float]:
    """Integral of |det(R+2sL)| over each chamber of ``dec``, in order;
    ``anti`` is the antiderivative of det(R+2sL)."""
    return [abs(float(anti(ch.hi)) - float(anti(ch.lo))) for ch in dec.chambers]


def _signature_masses(dec: ChamberDecomposition, anti: RealPolynomial) -> List[float]:
    """Integral of |det(R+2sL)| over the q-signature set of ``dec`` for
    q = 0..d, each a math.fsum over its chambers in order."""
    per_chamber = _chamber_masses(dec, anti)
    return [
        math.fsum(m for ch, m in zip(dec.chambers, per_chamber) if ch.inertia.neg == q)
        for q in range(dec.dim + 1)
    ]


def chamber_integral(
    r: HermitianMatrix,
    el: HermitianMatrix,
    q: int,
    delta: float,
    tol: Union[float, None] = None,
) -> float:
    """Integral of |det(R+2sL)| over the q-signature set in [-delta, delta].

    Uses the exact polynomial antiderivative P per chamber; |P(b) - P(a)|
    is exact because det keeps a constant sign between roots.
    """
    if not isinstance(q, (int, np.integer)):
        raise InputError("q must be an integer, got %r" % (q,))
    if not 0 <= q <= r.dim:
        raise InputError("q must lie in 0..%d, got %d" % (r.dim, q))
    dec, p = _decompose(r, el, delta, tol)
    return _signature_masses(dec, p.antiderivative())[q]


def pencil_signed_integral(
    r: HermitianMatrix,
    el: HermitianMatrix,
    delta: float,
    tol: Union[float, None] = None,
) -> float:
    """Signed integral of det(R+2sL) over all of [-delta, delta].

    Because the determinant sign on each chamber is (-1)^neg, this equals
    the alternating sum over q of the unsigned chamber integrals; both
    routes are kept and compared in tests.
    """
    _, p = _decompose(r, el, delta, tol)
    anti = p.antiderivative()
    return float(anti(delta)) - float(anti(-delta))
