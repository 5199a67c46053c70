"""Signature chambers of the Hermitian pencil A(s) = R + 2sL.

The pencil is decomposed over [-delta, delta] into open intervals on which
the eigenvalue-sign signature (inertia) is constant.  The chamber
boundaries are the real roots of p(s) = det(R + 2sL).  They, the
coefficients of p and the |det| mass of every chamber are all read from one
eigenvalue decomposition per pencil:

* Units.  With s = delta x, the engine works over x in [-1, 1] on
  (R, delta L) divided by the power of two 2^e just above
  max(max|R_ij|, 2 delta max|L_ij|).  Nothing inside can overflow, and
  scaling (R, L) by a power of two changes e and nothing else.  Masses are
  scaled back by delta 2^(d e) at the end.  Eigenvalue tolerances are
  1e-9 sigma with sigma = ||R||_F + 2 delta ||L||_F, so no test depends on
  the units of the input.
* Degeneracy.  The eigenvalues are evaluated at d + 2 probes in [-1, 1].  A
  pencil whose smallest |eigenvalue| is within tolerance of zero at every
  probe is degenerate: R and L share a near-common kernel.
* Roots.  Take the probe x0 with the largest min|eig| / max|eig| and the
  eigenvalues nu_i of N = A(x0)^-1 L.  A(x) = A(x0) (I + 2 (x - x0) N), so

      det A(x) = det A(x0) prod_i (a0_i + b_i x),  a0_i = 1 - 2 x0 nu_i,  b_i = 2 nu_i.

  The roots are x0 - 1/(2 nu_i); a singular L only sends some of them to
  infinity.  This is the QZ idea of Moler and Stewart (SIAM J. Numer.
  Anal. 10, 1973), made cheap by the shift: one batched solve and one
  batched eigenvalue call.
* Resolution.  Roots within _WIDTH = 1e-5 (in units of delta) of each
  other and of the real axis are one root, their mean, and a root that
  close to +-delta is not a chamber boundary.  A tangency, where an
  eigenvalue of A(s) touches 0 without crossing, is a double root that the
  eigenvalue solver splits by about 1e-8 into a real or a complex pair: it
  is kept as one root, and the two chambers beside it, of equal inertia,
  stay split.  A triple root splits into a ring of radius up to about 1e-4;
  where its near-real members are not one run, it is one root at the
  ring's mean (_real_roots).  Semisimple repeated roots (several
  eigenvalues crossing 0 at one s) come out exact to rounding.
* Chambers.  Inertia is read at each chamber's midpoint, in one eigenvalue
  call over every chamber of the stack.  Masses and the signed integral
  are Gauss-Legendre rules on the factors (_det_integrals), which multiplied
  out would cancel: by up to 1e-1 of a mass at d = 96.  A q-mass is the
  exactly rounded sum (errors._fsum) of the masses of the q-chambers.

Each stage is one numpy call on the whole (n, d, d) stack, and the result
is arrays too, a _Window per window, which every quantity reads.  Only
_chamber_decomposition builds Chamber objects, at the public edge: for
chambers, the chambers command and the model's eta-chambers.  A pencil's
roots, chambers and masses are bit for bit what it gets alone
(_det_integrals).  Callers with many pencils pass
them in chunks (see morse._CHUNK) to keep memory bounded.
"""

from __future__ import annotations

import math
import sys
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from . import _exports
from .errors import DegeneratePencilError, InputError, _fsum, _int_arg, _positive_arg

__all__ = _exports(__name__)

_HERMITIAN_INPUT_TOL = 1e-12
_INERTIA_REL_TOL = 1e-9
_WIDTH = 1e-5  # resolution of roots and chambers, relative to the window's scale
_SPLIT = 20.0  # reach of a root off the real axis, in units of the resolution
TWO_PI = 2.0 * math.pi
_TWO_PI_TOP = 386  # the largest n whose (2pi)^n is a float
# an occupied q-set whose density lost its digits, named by q and the det
_MASS_RANGE = "q=%d: the q-chamber mass of %s leaves floating-point range"


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


class _Frozen:
    """Base of the validating value classes (RealPolynomial here, PencilPoint
    and PencilField in morse, ModelData in model, the specs and the
    calibration record in oracles).  Each subclass names its fields in
    ``__slots__`` and sets them once, in ``__init__``, through _set;
    afterwards they are read-only.  Instances compare and hash by their
    fields' values (_by_value), ``==`` never raises, and they print by
    their fields, in ``__slots__`` order."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _values(self) -> tuple:
        return tuple(_by_value(getattr(self, name)) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__name__, fields)


def _by_value(value):
    """A hashable stand-in for a field value, equal for equal contents:
    arrays and Hermitian matrices by shape and entries, lists, tuples and
    dicts by items, anything else as itself."""
    if isinstance(value, HermitianMatrix):
        value = value.entries
    if isinstance(value, np.ndarray):
        return value.shape, tuple(value.ravel().tolist())
    if isinstance(value, dict):
        return frozenset((key, _by_value(item)) for key, item in value.items())
    return tuple(map(_by_value, value)) if isinstance(value, (list, tuple)) else value


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
        self._entries = _symmetrized(a[None], tol)[0]

    @classmethod
    def _from_symmetrized(cls, h: np.ndarray) -> "HermitianMatrix":
        """Wrap one read-only matrix of _symmetrized's output, unchecked."""
        m = object.__new__(cls)
        m._entries = h
        return m

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


def _symmetrized(a: np.ndarray, tol: float) -> np.ndarray:
    """The exact symmetrizations (A + A*)/2 of the (n, d, d) complex stack
    ``a``, read-only, once every matrix A is finite and A = A* within
    ``tol`` relative to its largest entry.  Otherwise the InputError of the
    first matrix that fails, in stack order.  HermitianMatrix is the n = 1
    case; the document parser checks all matrices of a field in one call."""
    ah = a.conj().swapaxes(-1, -2)
    parts = np.abs(a.view(float)).reshape(len(a), -1)
    finite = np.isfinite(parts).all(axis=1)
    # the check runs on each matrix scaled by 2^-e, its largest real or
    # imaginary part below 1, so neither side overflows near the float maximum
    e = np.maximum(np.frexp(parts.max(axis=1))[1], 0)
    unit = np.ldexp(1.0, -e)
    # in a matrix rejected as not finite: inf * 0, inf - inf, and 2e308 where
    # a nan or inf leaves the matrix unscaled
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = a * unit[:, None, None]
        residual = np.abs(scaled - scaled.conj().swapaxes(-1, -2)).max(axis=(1, 2))
    limit = tol * (unit + np.abs(scaled).max(axis=(1, 2)))
    bad = ~finite | (residual > limit)
    if bad.any():
        i = int(bad.argmax())
        if not finite[i]:
            raise InputError("Hermitian matrix entries must be finite")
        raise InputError(
            "matrix is not Hermitian: max |A - A*| = %s exceeds tolerance %s"
            % (_sci(residual[i], int(e[i])), _sci(limit[i], int(e[i])))
        )
    h = a / 2.0 + ah / 2.0  # halves first: no overflow near the float maximum
    h.setflags(write=False)
    return h


def _sci(m: float, e: int) -> str:
    """m 2^e in %.3e form, also beyond floating-point range."""
    try:
        return "%.3e" % math.ldexp(m, e)
    except OverflowError:
        from decimal import Decimal

        return format(Decimal(m) * Decimal(2) ** e, ".3e")


class Inertia(NamedTuple):
    neg: int
    zero: int
    pos: int
    tol: float

    @property
    def signature(self) -> Tuple[int, int, int]:
        return (self.neg, self.zero, self.pos)


def inertia(a: HermitianMatrix) -> Inertia:
    """Count eigenvalues of ``a`` below -tol, within [-tol, tol], above tol.

    The tolerance is the chamber engine's for the pencil (A, 0),
    1e-9 ||A||_F (_sign_tols), so the counts are unit-free.
    """
    w = np.linalg.eigvalsh(a.entries)
    t = float(_sign_tols(a.entries[None])[0])
    neg, pos = int((w < -t).sum()), int((w > t).sum())
    return Inertia(neg, a.dim - neg - pos, pos, t)


class RealPolynomial(_Frozen):
    """Real polynomial in ascending-degree coefficient order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("polynomial coefficients must be a nonempty 1-d array")
        arr = arr.copy()
        arr.setflags(write=False)
        self._set(arr)

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else 0

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __call__(self, s):
        # numpy.polynomial is imported here, so that no command, which never
        # evaluates a polynomial, loads it
        from numpy.polynomial.polynomial import polyval

        return polyval(s, self.coeffs)


def _units(r: np.ndarray, el: np.ndarray, delta: float):
    """The pencils of the (n, d, d) stacks in the engine's units, and their
    tolerances: (e, rn, ln, tols).

    rn = R 2^-e and ln = delta L 2^-e, where 2^e is the least power of two
    above max(max|R_ij|, 2 delta max|L_ij|); tols is 1e-9 (||rn||_F +
    2 ||ln||_F).  R +- 2 delta L must be finite."""
    step = 2.0 * delta * el
    top = np.maximum(np.abs(r).max(axis=(1, 2)), np.abs(step).max(axis=(1, 2)))
    e = np.maximum(np.frexp(top)[1], -1021)  # top < 2^e, and 2^-e stays finite
    f = np.ldexp(1.0, -e)[:, None, None]
    rn, ln = r * f, step * (0.5 * f)
    tols = _INERTIA_REL_TOL * (np.linalg.norm(rn, axis=(1, 2)) + 2.0 * np.linalg.norm(ln, axis=(1, 2)))
    return e, rn, ln, tols


def _sign_tols(a: np.ndarray) -> np.ndarray:
    """1e-9 ||A||_F for each matrix A of the (n, d, d) stack ``a``: _units'
    tolerance for the pencil (A, 0), scaled back, so it cannot overflow."""
    e, _, _, tols = _units(a, np.zeros_like(a), 1.0)
    return np.ldexp(tols, e)


def _probe(r: np.ndarray, el: np.ndarray, delta: float):
    """_units, the eigenvalues at the probes and the pencils they clear:
    (e, rn, ln, tols, x, w, clear), where w (n, d + 2, d) holds the
    eigenvalues of rn + 2 x ln at the d + 2 probes x, equally spaced on
    [-1, 1], and clear (n,) says whether the least |eigenvalue| exceeds
    tols at some probe.  A pencil that clears none is degenerate."""
    e, rn, ln, tols = _units(r, el, delta)
    x = np.linspace(-1.0, 1.0, r.shape[-1] + 2)
    w = np.linalg.eigvalsh(rn[:, None] + (2.0 * x)[:, None, None] * ln[:, None])
    clear = (np.abs(w).min(axis=2) > tols[:, None]).any(axis=1)
    return e, rn, ln, tols, x, w, clear


def _spectrum(rn: np.ndarray, ln: np.ndarray, x: np.ndarray, w: np.ndarray):
    """(roots, c0, a0, b): the complex roots (n, d) of det(rn + 2x ln) = c0
    prod_i (a0_i + b_i x) for each pencil, from the eigenvalues of A(x0)^-1 ln
    at the probe x0 with the largest min|eig| / max|eig|.  Every pencil must
    have a probe where A is not singular."""
    a = np.abs(w)
    with np.errstate(invalid="ignore"):  # 0/0 at a probe where A vanishes
        k = np.nan_to_num(a.min(axis=2) / a.max(axis=2)).argmax(axis=1)
    x0 = x[k]
    nu = np.linalg.eigvals(np.linalg.solve(rn + (2.0 * x0)[:, None, None] * ln, ln))
    b = 2.0 * nu
    a0 = 1.0 - x0[:, None] * b
    c0 = np.prod(w[np.arange(len(k)), k], axis=1)  # det A(x0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # nu = 0: a root at infinity
        roots = x0[:, None] - 0.5 / nu
    return roots, c0, a0, b


def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton's method on P_n (three-term recurrence) for the nodes in [0, 1),
    the others mirrored, from Tricomi's guesses with the n^-4 term; it stops
    once n^2 dx^2 is below rounding (e' <= n^2 e^2 / 5).  The weights
    2 / ((1 - x^2) P_n'(x)^2) take P_n' at the final nodes from the last
    iterate's plus the step times P_n'', from Legendre's equation; they are
    scaled to sum to 2, as in numpy's leggauss.
    """
    m = (n + 1) // 2
    theta = np.pi * (4 * np.arange(1, m + 1) - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    for _ in range(100):
        p0, p1 = np.ones(m), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        dp = dp - dx * (2.0 * x * dp - n * (n + 1) * p1) / (1.0 - x * x)  # (1 - x^2) P'' = 2x P' - n(n+1) P
        x = x - dx
        if n * n * float(np.abs(dx).max()) ** 2 <= 2e-16:
            break
    h = n // 2
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = np.concatenate([w, w[:h][::-1]])
    return np.concatenate([-x, x[:h][::-1]]), w * (2.0 / w.sum())


def _det_integrals(rule, c0, a0, b, lo, hi, signed: bool) -> np.ndarray:
    """Each row's integral over [lo, hi] of det(x) = Re c0 prod_j (a0_j + b_j x),
    or of |det(x)| unless ``signed``, by ``rule``: _gauss_legendre(d // 2 + 1),
    exact for degree d where det keeps one sign.  Only real elementwise
    operations, in a fixed order: no row's value depends on another's."""
    t, w = rule
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * t
    re, im = c0[:, None], 0.0  # the product so far
    for j in range(a0.shape[1]):
        fr = a0.real[:, j, None] + b.real[:, j, None] * x
        fi = a0.imag[:, j, None] + b.imag[:, j, None] * x
        re, im = re * fr - im * fi, re * fi + im * fr
    return half * sum(wk * column for wk, column in zip(w, (re if signed else np.abs(re)).T))


def _real_roots(z: np.ndarray, width: float) -> np.ndarray:
    """The real roots among the complex roots z (n, k) of each row, sorted
    and NaN-padded.  A run of roots within ``width`` of the real axis and of
    [-1, 1], real parts at most ``width`` apart, is one root, its mean,
    clamped to [-1, 1].  Rounding rings a triple root with radius up to
    about 1e-4, in two runs or none, so roots also chain across gaps of up
    to _SPLIT ``width`` beside one more than ``width``/2 off the axis.  A
    chain with two or more runs, or with none but three or more roots whose
    mean is within ``width`` of the axis, is one root, its members' mean."""
    n, k = z.shape
    reach = _SPLIT * width
    z = np.where((np.abs(z.real) <= 1.0 + width) & (np.abs(z.imag) <= reach), z, complex(np.nan, np.nan))
    z = np.sort(z, axis=1)  # ascending real parts, NaN last
    re, im = z.real, np.abs(z.imag)
    live, on, off = ~np.isnan(re), im <= width, im > 0.5 * width
    gap = np.diff(re, axis=1, prepend=np.nan)  # NaN first: a row's first root starts a chain
    linked = (on & np.roll(on, 1, axis=1) & (gap <= width)) | ((off | np.roll(off, 1, axis=1)) & (gap <= reach))
    before = np.pad(np.where(on, re, -np.inf), ((0, 0), (1, 0)), constant_values=-np.inf)
    starts = on & ~(re - np.maximum.accumulate(before, axis=1)[:, :-1] <= width)  # from the last on-axis root
    at = (np.arange(n)[:, None] * k + np.cumsum(live & ~linked, axis=1) - 1)[live]  # row i's chain j: bin i k + j
    size = np.bincount(at, minlength=n * k)
    runs = np.bincount(at, starts[live], n * k)
    tilt = np.abs(np.bincount(at, z.imag[live], n * k))  # size times the distance of the mean from the axis
    ring = (runs > 1) | ((runs == 0) & (size >= 3) & (tilt <= width * size))
    use = np.where(runs[at] == 1, on[live], ring[at])
    with np.errstate(invalid="ignore"):  # 0/0: no root there
        means = np.bincount(at[use], re[live][use], n * k) / np.bincount(at[use], minlength=n * k)
    means = np.sort(means.reshape(n, k), axis=1)  # NaN last
    return np.clip(means[:, : int((~np.isnan(means)).sum(axis=1).max(initial=0))], -1.0, 1.0)


def pencil_char_poly(r: HermitianMatrix, el: HermitianMatrix) -> RealPolynomial:
    """Coefficients of p(s) = det(R + 2sL).

    Read from the eigenvalues of A(s0)^-1 L at the best conditioned of d + 2
    probes s0 in [-1, 1], as in the chamber engine.  A pencil that is
    singular within 1e-9 (||R||_F + 2 ||L||_F) at every probe gives the zero
    polynomial.  Coefficients below 1e-12 of the largest one are clamped to
    zero.
    """
    e, rn, ln, tols, x, w, clear = _probe(*_stacked(r, el), 1.0)
    if not clear[0]:
        return RealPolynomial(np.zeros(r.dim + 1))
    _, c0, a0, b = _spectrum(rn, ln, x, w)
    c = np.zeros((1, r.dim + 1), dtype=complex)
    c[:, 0] = c0
    for i in range(r.dim):  # multiply out c0 prod_i (a0_i + b_i x)
        c[:, 1:] = c[:, 1:] * a0[:, i, None] + c[:, :-1] * b[:, i, None]
        c[:, 0] *= a0[:, i]
    coeffs = np.ldexp(c.real[0], r.dim * int(e[0]))
    coeffs[np.abs(coeffs) < 1e-12 * np.abs(coeffs).max()] = 0.0
    return RealPolynomial(coeffs)


def real_roots(
    p: RealPolynomial, lo: float, hi: float, tol: float
) -> Union[List[float], _IdenticallyZero]:
    """All real roots of ``p`` in [lo, hi], multiplicities collapsed.

    The roots are the eigenvalues of p's companion matrix (numpy.roots).
    With w = max(tol, 1e-5 (1 + max(|lo|, |hi|))), those within w of the
    real axis and of [lo, hi] count, and each run of them no more than w
    apart is one root, their mean, clamped to [lo, hi]; runs that a ring
    of roots up to 20 w wide joins are one root (_real_roots).  So a
    tangent (double) root, which the eigenvalue solver splits by about 1e-8
    of its scale, shows once, and so does a triple root.  Floating-point
    coefficients fix a root of multiplicity m only to about 1e-16^(1/m) of
    its scale, so one of multiplicity 4 or more may show as two.  An
    identically zero polynomial returns the IDENTICALLY_ZERO marker so
    callers can raise the degenerate-pencil condition.
    """
    if not hi > lo:
        raise InputError("real_roots needs hi > lo, got [%g, %g]" % (lo, hi))
    if p.is_zero:
        return IDENTICALLY_ZERO
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    width = max(tol, _WIDTH * (1.0 + max(abs(lo), abs(hi)))) / half
    x = _real_roots(((np.roots(p.coeffs[::-1]) - mid) / half)[None], width)[0]
    return np.clip(mid + half * x[~np.isnan(x)], lo, hi).tolist()


class Chamber(NamedTuple):
    lo: float
    hi: float
    inertia: Inertia
    det_sign: int


class ChamberDecomposition(NamedTuple):
    delta: float
    roots: List[float]
    chambers: List[Chamber]

    @property
    def dim(self) -> int:
        first = self.chambers[0].inertia
        return first.neg + first.zero + first.pos


class _Window(NamedTuple):
    """The chambers of a stack of pencils over [-delta, delta], one row per
    pencil.  Chamber j < counts[i] of row i is (breaks[i, j], breaks[i,
    j + 1]), with neg[i, j] eigenvalues below -tol[i] at its midpoint and
    the rest above tol[i], and |det| integral masses[i, j].  Past it
    breaks and roots are NaN, neg -1 and masses 0."""

    delta: float
    roots: np.ndarray  # (n, k): the roots in [-delta, delta], ascending
    breaks: np.ndarray  # (n, m + 1): -delta, the roots inside, delta
    counts: np.ndarray  # (n,)
    neg: np.ndarray  # (n, m)
    tol: np.ndarray  # (n,)
    masses: np.ndarray  # (n, m)
    signed: np.ndarray  # (n,): the integral of det(R + 2sL) over the window
    q_masses: np.ndarray  # (n, d + 1): the _fsum of each row's masses with neg q, in chamber order


def _decompose_batch(
    r: np.ndarray,
    el: np.ndarray,
    deltas: Sequence[float],
    names: Union[Sequence[str], None] = None,
) -> List[_Window]:
    """Decompose every pencil of the (n, d, d) stacks r, el over each window
    [-delta, delta] of ``deltas``: one _Window per window.

    The pencils are decomposed once, over the largest window [-top, top];
    each window reads its roots and the factored det from that, and gets
    its own chamber masses and midpoint inertia.  Each stage runs once on
    the whole stack: the probes, one solve and one eigenvalue call for the
    roots, and per window _det_integrals on every chamber and on the window
    and one eigenvalue call over every chamber midpoint, and per window the
    q-masses from the midpoint inertia.  A pencil fails at the first stage
    it fails, in this order: R + 2sL out of range at s = +-top, degenerate
    at the probes of [-top, top], then per window a mass or signed integral
    out of floating-point range (an input error naming the window),
    numerically singular at a chamber midpoint, a q-mass out of
    floating-point range (the same input error).  The error raised is the
    first failing pencil's in stack order, after "<name>: " when ``names``
    names each pencil by the input it was read from.
    """
    deltas = [_positive_arg(delta, "delta") for delta in deltas]
    top = max(deltas)
    d = r.shape[-1]
    failures = {}  # row -> its error, from the first stage it fails

    def fail(row, kind, message):
        name = "" if names is None else "%s: " % names[row]
        failures.setdefault(row, kind(name + message))

    with np.errstate(over="ignore", invalid="ignore"):
        step = 2.0 * top * el
        finite = np.isfinite(r + step).all(axis=(1, 2)) & np.isfinite(r - step).all(axis=(1, 2))
    for i in np.flatnonzero(~finite).tolist():
        fail(i, InputError, "delta %g puts R + 2sL out of floating-point range at s = +-delta" % top)
    if not finite.any():
        raise failures[0]
    alive = np.flatnonzero(finite)

    e, rn, ln, tols, x, w, clear = _probe(r[alive], el[alive], top)
    for i in np.flatnonzero(~clear).tolist():
        small = np.abs(w[i]).min(axis=1).tolist()
        k = max(range(x.size), key=lambda j: (small[j], x[j]))  # the least singular probe
        fail(int(alive[i]), DegeneratePencilError, (
            "det(R+2sL) is numerically zero at all %d probes in [-%g, %g] "
            "(least singular: min |eig| = %.1e vs tol %.1e at s=%g); "
            "R and L share a near-common kernel"
            % (x.size, top, top, math.ldexp(small[k], int(e[i])), math.ldexp(tols[i], int(e[i])), top * x[k])
        ))
    alive, e, rn, ln, tols, w = alive[clear], e[clear], rn[clear], ln[clear], tols[clear], w[clear]
    if not alive.size:
        raise failures[min(failures)]

    z, c0, a0, b = _spectrum(rn, ln, x, w)
    rule = _gauss_legendre(d // 2 + 1)
    mant, power = math.frexp(top)  # an integral over s is top 2^(d e) times one over x

    def unscaled(v):  # each row of v, scaled back by top 2^(d e), under errstate(over="ignore")
        return np.ldexp(v * mant, (d * e + power).reshape((-1,) + (1,) * (v.ndim - 1)))

    out_of_range = "delta %g: the integral of |det(R + 2sL)| over [-delta, delta] is out of floating-point range"
    roots = top * _real_roots(z, _WIDTH)
    windows = []
    for delta in deltas:
        near = np.abs(roots) <= delta + top * _WIDTH
        found = np.clip(np.where(near, roots, np.nan), -delta, delta)
        edge = np.full((alive.size, 1), delta)
        inner = np.abs(found) < delta - top * _WIDTH
        breaks = np.concatenate([-edge, np.where(inner, found, np.nan), edge], axis=1)
        breaks.sort(axis=1)  # the NaN padding to the end
        breaks = breaks[:, ~np.isnan(breaks).all(axis=0)]
        rows, cells = np.nonzero(~np.isnan(breaks[:, 1:]))  # chamber j of a row is (breaks[j], breaks[j+1])
        lo, hi, h = breaks[rows, cells] / top, breaks[rows, cells + 1] / top, np.full(alive.size, delta / top)
        masses = np.zeros((alive.size, breaks.shape[1] - 1))
        with np.errstate(over="ignore", invalid="ignore"):  # out of range: refused below
            masses[rows, cells] = _det_integrals(rule, c0[rows], a0[rows], b[rows], lo, hi, False)
            masses, signed = unscaled(masses), unscaled(_det_integrals(rule, c0, a0, b, -h, h, True))
        for i in alive[~(np.isfinite(masses).all(axis=1) & np.isfinite(signed))].tolist():
            fail(i, InputError, out_of_range % delta)
        mids = 0.5 * (breaks[rows, cells] + breaks[rows, cells + 1])
        wm = np.linalg.eigvalsh(rn[rows] + (2.0 * mids / top)[:, None, None] * ln[rows])
        neg, pos = (wm < -tols[rows, None]).sum(axis=1), (wm > tols[rows, None]).sum(axis=1)
        for c in np.flatnonzero(neg + pos < d).tolist():  # a row's first singular chamber names it
            i = rows[c]
            fail(int(alive[i]), DegeneratePencilError, (
                "pencil is numerically singular inside a chamber at s=%g "
                "(min |eig| = %.1e vs tol %.1e); cannot assign a signature"
                % (mids[c], math.ldexp(np.abs(wm[c]).min(), int(e[i])), math.ldexp(tols[i], int(e[i])))
            ))
        counts = np.bincount(rows, minlength=alive.size)
        signs = np.full(masses.shape, -1)
        signs[rows, cells] = neg
        q_masses = np.array([
            [_fsum(row) for row in np.where(signs == q, masses, 0.0).tolist()] for q in range(d + 1)
        ]).T
        for i in alive[~np.isfinite(q_masses).all(axis=1)].tolist():
            fail(i, InputError, out_of_range % delta)
        windows.append(_Window(delta, found, breaks, counts, signs, np.ldexp(tols, e), masses, signed, q_masses))
    if failures:
        raise failures[min(failures)]
    return windows


def _decompose(r: HermitianMatrix, el: HermitianMatrix, delta: float, name: Union[str, None] = None) -> _Window:
    """The one-pencil path: _decompose_batch on a stack of one, whose
    refusals begin "<name>: " when ``name`` is given."""
    return _decompose_batch(*_stacked(r, el), [delta], None if name is None else [name])[0]


def _chamber_decomposition(w: _Window) -> ChamberDecomposition:
    """The one pencil of a one-row window as objects: each chamber with its
    inertia (neg, 0, d - neg) at the pencil's tolerance and det sign
    (-1)^neg, and the roots without their NaN padding."""
    d, t, ends = w.q_masses.shape[1] - 1, float(w.tol[0]), w.breaks[0].tolist()
    return ChamberDecomposition(
        delta=w.delta,
        roots=[v for v in w.roots[0].tolist() if v == v],
        chambers=[
            Chamber(ends[j], ends[j + 1], Inertia(ng, 0, d - ng, t), -1 if ng % 2 else 1)
            for j, ng in enumerate(w.neg[0, : w.counts[0]].tolist())
        ],
    )


def _two_pi_quotient(value: float, n: int, into: bool = False) -> float:
    """value / (2pi)^n, or (2pi)^n / value when ``into``, for an integer
    n >= 0.  Up to n = _TWO_PI_TOP it is the one division by TWO_PI**n.
    Beyond, the rest of n is divided off or multiplied on in steps of
    (2pi)^_TWO_PI_TOP, each of which moves the value towards the quotient,
    so a step that leaves the normal floats only loses a quotient that
    lies beyond them too."""
    steps = max(n - 1, 0) // _TWO_PI_TOP
    head = TWO_PI ** (n - steps * _TWO_PI_TOP)
    out = head / value if into else value / head
    for _ in range(steps):
        out = out * TWO_PI**_TWO_PI_TOP if into else out / TWO_PI**_TWO_PI_TOP
    return out


def _densities(n: int, weights, masses, occupied, what: str) -> List[float]:
    """The Morse densities of a weighted sample: per column of ``masses``,
    which has a row per sample, (2pi)^-n times the exactly rounded sum over
    the samples of weight times mass.  The columns are the q-masses,
    q = 0..d (_Window.q_masses), and may go on with the signed integral,
    whose density is the alternating total.  ``occupied[q]`` says whether
    some sample has a q-chamber in the window.  An occupied q whose density
    is 0 or subnormal is an InputError naming q and ``what``, the |det|
    whose mass it is: the density has lost its digits.  A term or total
    beyond floating-point range is left infinite for the caller's range
    check, which names the input that scaled it there."""
    with np.errstate(over="ignore"):
        terms = np.asarray(weights, dtype=float)[:, None] * np.asarray(masses)
    out = [_two_pi_quotient(_fsum(column), n) for column in terms.T.tolist()]
    for q in np.flatnonzero(occupied).tolist():
        if out[q] < sys.float_info.min:
            raise InputError(_MASS_RANGE % (q, what))
    return out


def _stacked(r: HermitianMatrix, el: HermitianMatrix):
    """The pencil as (1, d, d) stacks, once R and L have one dimension."""
    if r.dim != el.dim:
        raise InputError(
            "pencil dimension mismatch: R has dim %d, L has dim %d" % (r.dim, el.dim)
        )
    return r.entries[None], el.entries[None]


def chambers(r: HermitianMatrix, el: HermitianMatrix, delta: float) -> ChamberDecomposition:
    """Decompose [-delta, delta] into signature chambers of R + 2sL.

    Chamber inertia is read at interior midpoints, never at roots.  A
    pencil whose determinant vanishes identically raises
    DegeneratePencilError naming an offending point.
    """
    return _chamber_decomposition(_decompose(r, el, delta))


def signature_set(dec: ChamberDecomposition, q: int) -> List[Tuple[float, float]]:
    """Open intervals of the decomposition with exactly q negative and
    d - q positive eigenvalues (possibly empty)."""
    q = _int_arg(q, "q", 0, dec.dim)
    return [(ch.lo, ch.hi) for ch in dec.chambers if ch.inertia.neg == q]


def chamber_integral(r: HermitianMatrix, el: HermitianMatrix, q: int, delta: float) -> float:
    """Integral of |det(R+2sL)| over the q-signature set in [-delta, delta],
    from a Gauss-Legendre rule per chamber, exact as det keeps one sign there."""
    q = _int_arg(q, "q", 0, r.dim)
    return float(_decompose(r, el, delta).q_masses[0, q])


def pencil_signed_integral(r: HermitianMatrix, el: HermitianMatrix, delta: float) -> float:
    """Signed integral of det(R+2sL) over all of [-delta, delta], by one
    Gauss-Legendre rule over the window: a second route to the alternating
    sum over q of the chamber integrals, as det has sign (-1)^neg there."""
    return float(_decompose(r, el, delta).signed[0])
