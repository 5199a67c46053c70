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

      det A(x) = det A(x0) prod_i ((1 - 2 x0 nu_i) + 2 nu_i x).

  The roots are x0 - 1/(2 nu_i); a singular L only sends some of them to
  infinity.  Expanding the product gives the coefficients.  This is the QZ
  idea of Moler and Stewart (SIAM J. Numer. Anal. 10, 1973), made cheap by
  the shift: one batched solve and one batched eigenvalue call.
* Resolution.  Roots within _WIDTH = 1e-5 (in units of delta) of each
  other and of the real axis are one root, their mean, and a root that
  close to +-delta is not a chamber boundary.  A tangency, where an
  eigenvalue of A(s) touches 0 without crossing, is a double root that the
  eigenvalue solver splits by about 1e-8 into a real or a complex pair: it
  is kept as one root, and the two chambers beside it, of equal inertia,
  stay split.  Semisimple repeated roots (several eigenvalues crossing 0 at
  one s) come out exact to rounding.
* Chambers.  Inertia is read at each chamber's midpoint, in one eigenvalue
  call over every chamber of the stack.  The |det| mass of a chamber is the
  difference of the exact antiderivative of p at its ends.

Each stage is one numpy call on the whole (n, d, d) stack.  A pencil's
roots and chambers are bit for bit what it gets alone, and its masses agree
to rounding: numpy may round a complex product differently at different
array lengths.  Callers with many pencils pass them in chunks (see
morse._CHUNK) to keep memory bounded.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

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
_WIDTH = 1e-5  # resolution of roots and chambers, relative to the window's scale


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
    afterwards they are read-only.  Instances compare, hash and print by
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
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__name__, fields)


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
    with np.errstate(invalid="ignore"):  # inf - inf, in a matrix rejected as not finite
        residual = np.abs(a - ah).max(axis=(1, 2))
    limit = tol * (1.0 + np.abs(a).max(axis=(1, 2)))
    finite = np.isfinite(a.view(float)).all(axis=(1, 2))
    bad = ~finite | (residual > limit)
    if bad.any():
        i = int(bad.argmax())
        if not finite[i]:
            raise InputError("Hermitian matrix entries must be finite")
        raise InputError(
            "matrix is not Hermitian: max |A - A*| = %.3e exceeds tolerance %.3e"
            % (residual[i], limit[i])
        )
    h = (a + ah) / 2.0
    h.setflags(write=False)
    return h


class Inertia(NamedTuple):
    neg: int
    zero: int
    pos: int
    tol: float

    @property
    def signature(self) -> Tuple[int, int, int]:
        return (self.neg, self.zero, self.pos)


def _check_tol(tol) -> float:
    tol = float(tol)
    if not math.isfinite(tol):
        raise InputError("inertia tolerance must be finite, got %g" % tol)
    if tol < 0.0:
        raise InputError("inertia tolerance must be nonnegative, got %g" % tol)
    return tol


def inertia(a: HermitianMatrix, tol: Union[float, None] = None) -> Inertia:
    """Count eigenvalues of ``a`` below -tol, within [-tol, tol], above tol.

    With ``tol=None`` the tolerance defaults to 1e-9 * (1 + spectral
    radius), which makes the strict sign counts robustly decidable.
    """
    w = np.linalg.eigvalsh(a.entries)
    t = _INERTIA_REL_TOL * (1.0 + float(np.abs(w).max())) if tol is None else _check_tol(tol)
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

    # The three methods below give numpy.polynomial.polynomial's polyval,
    # polyder and polyint bit for bit (polyint for finite coefficients),
    # without importing numpy.polynomial.

    def __call__(self, s):
        """Horner's rule in polyval's order of operations."""
        if isinstance(s, (tuple, list)):
            s = np.asarray(s)
        c = self.coeffs
        v = c[-1] + s * 0
        for a in c[-2::-1]:
            v = a + v * s
        return v

    def derivative(self) -> "RealPolynomial":
        d = self.degree
        if d == 0:
            return RealPolynomial(np.zeros(1))
        return RealPolynomial(self.coeffs[1 : d + 1] * np.arange(1, d + 1))

    def antiderivative(self) -> "RealPolynomial":
        """The antiderivative that vanishes at 0."""
        c = self.coeffs
        if c.size == 1 and c[0] == 0.0:
            return RealPolynomial(np.zeros(1))
        return RealPolynomial(np.concatenate([np.zeros(1), c / np.arange(1, c.size + 1)]))


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """numpy.polynomial.polynomial.polyval of coefficient row c[i] (ascending)
    at every x[i, :], in polyval's order of operations."""
    v = c[:, -1:] + x * 0
    for i in range(2, c.shape[1] + 1):
        v = c[:, -i, None] + v * x
    return v


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


def _probe(r: np.ndarray, el: np.ndarray, delta: float):
    """_units, and the eigenvalues at the probes: (e, rn, ln, tols, x, w),
    where w (n, d + 2, d) holds the eigenvalues of rn + 2 x ln at the d + 2
    probes x, equally spaced on [-1, 1]."""
    e, rn, ln, tols = _units(r, el, delta)
    x = np.linspace(-1.0, 1.0, r.shape[-1] + 2)
    w = np.linalg.eigvalsh(rn[:, None] + (2.0 * x)[:, None, None] * ln[:, None])
    return e, rn, ln, tols, x, w


def _spectrum(rn: np.ndarray, ln: np.ndarray, x: np.ndarray, w: np.ndarray):
    """The complex roots (n, d) and the ascending real coefficients
    (n, d + 1) of det(rn + 2x ln) for each pencil, from the eigenvalues of
    A(x0)^-1 ln at the probe x0 with the largest min|eig| / max|eig|.  Every
    pencil must have a probe where A is not singular."""
    a = np.abs(w)
    with np.errstate(invalid="ignore"):  # 0/0 at a probe where A vanishes
        k = np.nan_to_num(a.min(axis=2) / a.max(axis=2)).argmax(axis=1)
    x0 = x[k]
    nu = np.linalg.eigvals(np.linalg.solve(rn + (2.0 * x0)[:, None, None] * ln, ln))
    b = 2.0 * nu
    a0 = 1.0 - x0[:, None] * b  # det A(x) = det A(x0) prod_i (a0_i + b_i x)
    c = np.zeros((len(k), rn.shape[-1] + 1), dtype=complex)
    c[:, 0] = np.prod(w[np.arange(len(k)), k], axis=1)
    for i in range(nu.shape[1]):
        c[:, 1:] = c[:, 1:] * a0[:, i, None] + c[:, :-1] * b[:, i, None]
        c[:, 0] *= a0[:, i]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # nu = 0: a root at infinity
        roots = x0[:, None] - 0.5 / nu
    return roots, c.real


def _real_roots(z: np.ndarray, width: float) -> np.ndarray:
    """The real roots among the complex roots z (n, k) of each row, sorted
    and NaN-padded: those within ``width`` of the real axis and of [-1, 1],
    each run of real parts no more than ``width`` apart replaced by its mean,
    clamped to [-1, 1]."""
    re = np.where((np.abs(z.imag) <= width) & (np.abs(z.real) <= 1.0 + width), z.real, np.nan)
    re.sort(axis=1)
    live = ~np.isnan(re)
    run = np.cumsum(live & ~(np.diff(re, axis=1, prepend=-np.inf) <= width), axis=1) - 1
    n, k = re.shape
    at = (np.arange(n)[:, None] * k + run)[live]  # row i's run j is bin i k + j
    with np.errstate(invalid="ignore"):  # 0/0: no run there
        means = np.bincount(at, re[live], n * k) / np.bincount(at, minlength=n * k)
    return np.clip(means.reshape(n, k)[:, : int(run.max(initial=-1)) + 1], -1.0, 1.0)


def pencil_char_poly(r: HermitianMatrix, el: HermitianMatrix) -> RealPolynomial:
    """Coefficients of p(s) = det(R + 2sL).

    Read from the eigenvalues of A(s0)^-1 L at the best conditioned of d + 2
    probes s0 in [-1, 1], as in the chamber engine.  A pencil that is
    singular within 1e-9 (||R||_F + 2 ||L||_F) at every probe gives the zero
    polynomial.  Coefficients below 1e-12 of the largest one are clamped to
    zero.
    """
    if r.dim != el.dim:
        raise InputError(
            "pencil dimension mismatch: R has dim %d, L has dim %d" % (r.dim, el.dim)
        )
    e, rn, ln, tols, x, w = _probe(r.entries[None], el.entries[None], 1.0)
    if not (np.abs(w).min(axis=2) > tols[:, None]).any():
        return RealPolynomial(np.zeros(r.dim + 1))
    coeffs = np.ldexp(_spectrum(rn, ln, x, w)[1][0], r.dim * int(e[0]))
    coeffs[np.abs(coeffs) < 1e-12 * np.abs(coeffs).max()] = 0.0
    return RealPolynomial(coeffs)


def real_roots(
    p: RealPolynomial, lo: float, hi: float, tol: float
) -> Union[List[float], _IdenticallyZero]:
    """All real roots of ``p`` in [lo, hi], multiplicities collapsed.

    The roots are the eigenvalues of p's companion matrix (numpy.roots).
    With w = max(tol, 1e-5 (1 + max(|lo|, |hi|))), those within w of the
    real axis and of [lo, hi] count, and each run of them no more than w
    apart is one root, their mean, clamped to [lo, hi].  So a tangent
    (double) root, which the eigenvalue solver splits by about 1e-8 of its
    scale, shows once, and so does a triple root.  Floating-point
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


class _Decomposed(NamedTuple):
    """One pencil's chambers with the integrals of its det over them."""

    dec: ChamberDecomposition
    masses: List[float]  # integral of |det(R+2sL)| over each chamber, in order
    signed: float  # integral of det(R+2sL) over [-delta, delta]


def _decompose_batch(
    r: np.ndarray,
    el: np.ndarray,
    deltas: Sequence[float],
    tol: Union[float, None] = None,
    labels: Union[Sequence[str], None] = None,
    span: Union[float, None] = None,
) -> List[List[_Decomposed]]:
    """Decompose every pencil of the (n, d, d) stacks r, el over each window
    [-delta, delta] of ``deltas``: one list of results per window.

    The pencils are decomposed once, over [-span, span] (by default the
    largest window; it must hold every window), and every window reads its
    roots from that decomposition; each window's chambers then get their own
    midpoint inertia and masses.  Each stage runs once on the whole stack:
    the probes, one solve and one eigenvalue call for the roots, and per
    window one eigenvalue call over every chamber midpoint and the
    antiderivative at every chamber end.  A pencil fails at the first stage
    it fails, in this order: R + 2sL out of range at s = +-span, degenerate
    at the probes of [-span, span], then per window a |det| integral out of
    floating-point range (an input error naming the window), numerically
    singular at a chamber midpoint, an out-of-range chamber mass.  The
    error raised is the first failing pencil's in stack order, prefixed with
    its label when ``labels`` is given.
    """
    for delta in deltas:
        if not delta > 0.0:
            raise InputError("delta must be positive, got %g" % delta)
        if not math.isfinite(delta):
            raise InputError("delta must be finite, got %g" % delta)
    if tol is not None:
        tol = _check_tol(tol)
    deltas = [float(delta) for delta in deltas]
    top = max(deltas) if span is None else float(span)
    d = r.shape[-1]
    failures = {}  # row -> its error, from the first stage it fails

    def fail(row, kind, message):
        label = "" if labels is None else "sample %r: " % (labels[row],)
        failures.setdefault(row, kind(label + message))

    with np.errstate(over="ignore", invalid="ignore"):
        step = 2.0 * top * el
        finite = np.isfinite(r + step).all(axis=(1, 2)) & np.isfinite(r - step).all(axis=(1, 2))
    for i in np.flatnonzero(~finite).tolist():
        fail(i, InputError, "delta %g puts R + 2sL out of floating-point range at s = +-delta" % top)
    if not finite.any():
        raise failures[0]
    alive = np.flatnonzero(finite)

    e, rn, ln, tols, x, w = _probe(r[alive], el[alive], top)
    small = np.abs(w).min(axis=2)
    clear = (small > tols[:, None]).any(axis=1)
    for i in np.flatnonzero(~clear).tolist():
        k = max(range(x.size), key=lambda j: (small[i, j], x[j]))  # the least singular probe
        fail(int(alive[i]), DegeneratePencilError, (
            "degenerate pencil: det(R+2sL) is numerically zero at all %d probes in [-%g, %g] "
            "(least singular: min |eig| = %.1e vs tol %.1e at s=%g); "
            "R and L share a near-common kernel"
            % (x.size, top, top, math.ldexp(small[i, k], int(e[i])), math.ldexp(tols[i], int(e[i])), top * x[k])
        ))
    alive, e, rn, ln, tols, w = alive[clear], e[clear], rn[clear], ln[clear], tols[clear], w[clear]
    if not alive.size:
        raise failures[min(failures)]

    z, coeffs = _spectrum(rn, ln, x, w)
    anti = np.concatenate([np.zeros((alive.size, 1)), coeffs / np.arange(1, d + 2)], axis=1)
    mant, power = math.frexp(top)  # an integral over s is top 2^(d e) times one over x

    def unscaled(v):  # each row of v, scaled back by top 2^(d e)
        with np.errstate(over="ignore"):
            return np.ldexp(v * mant, (d * e + power).reshape((-1,) + (1,) * (v.ndim - 1)))

    out_of_range = (
        "delta %g: the integral of |det(R + 2sL)| over [-delta, delta] is out of floating-point range"
    )
    roots = top * _real_roots(z, _WIDTH)
    windows = []
    for delta in deltas:
        # sum_j |p_j| h^(j+1) / (j+1) bounds |P| on [-h, h], h = delta / top
        bound = unscaled(_horner(np.abs(anti), np.full((alive.size, 1), delta / top))[:, 0])
        for i in alive[~np.isfinite(bound)].tolist():
            fail(i, InputError, out_of_range % delta)
        near = np.abs(roots) <= delta + top * _WIDTH
        found = np.clip(np.where(near, roots, np.nan), -delta, delta)
        edge = np.full((alive.size, 1), delta)
        inner = np.abs(found) < delta - top * _WIDTH
        breaks = np.concatenate([-edge, np.where(inner, found, np.nan), edge], axis=1)
        breaks.sort(axis=1)  # the NaN padding to the end
        breaks = breaks[:, ~np.isnan(breaks).all(axis=0)]
        rows, cells = np.nonzero(~np.isnan(breaks[:, 1:]))  # chamber j of a row is (breaks[j], breaks[j+1])
        mids = 0.5 * (breaks[rows, cells] + breaks[rows, cells + 1])
        wm = np.linalg.eigvalsh(rn[rows] + (2.0 * mids / top)[:, None, None] * ln[rows])
        t = tols[rows] if tol is None else np.ldexp(tol, -e[rows])
        neg, pos = (wm < -t[:, None]).sum(axis=1), (wm > t[:, None]).sum(axis=1)
        t = np.ldexp(t, e[rows])
        for c in np.flatnonzero(neg + pos < d).tolist():  # a row's first singular chamber names it
            fail(int(alive[rows[c]]), DegeneratePencilError, (
                "pencil is numerically singular inside a chamber at s=%g "
                "(min |eig| = %.1e vs tol %.1e); cannot assign a signature"
                % (mids[c], math.ldexp(np.abs(wm[c]).min(), int(e[rows[c]])), t[c])
            ))
        ints = _horner(anti, np.where(np.isnan(breaks), delta, breaks) / top)
        counts = np.bincount(rows, minlength=alive.size)
        masses = unscaled(np.abs(ints[:, 1:] - ints[:, :-1]))
        signed = unscaled(ints[np.arange(alive.size), counts] - ints[:, 0])
        for i in alive[~(np.isfinite(masses).all(axis=1) & np.isfinite(signed))].tolist():
            fail(i, InputError, out_of_range % delta)
        windows.append((delta, found, breaks, counts, masses, signed, zip(neg.tolist(), pos.tolist(), t.tolist())))
    if failures:
        raise failures[min(failures)]

    out = []
    for delta, found, breaks, counts, masses, signed, signatures in windows:  # chamber by chamber, row by row
        results = []
        for ends, row_roots, count, m, total in zip(
            breaks.tolist(), found.tolist(), counts.tolist(), masses.tolist(), signed.tolist()
        ):
            dec = ChamberDecomposition(
                delta=delta,
                roots=[v for v in row_roots if v == v],  # drop the NaN padding
                chambers=[
                    Chamber(ends[j], ends[j + 1], Inertia(ng, d - ng - ps, ps, tj), -1 if ng % 2 else 1)
                    for j, (ng, ps, tj) in zip(range(count), signatures)
                ],
            )
            results.append(_Decomposed(dec, m[:count], total))
        out.append(results)
    return out


def _decompose(
    r: HermitianMatrix,
    el: HermitianMatrix,
    delta: float,
    tol: Union[float, None] = None,
) -> _Decomposed:
    if r.dim != el.dim:
        raise InputError(
            "pencil dimension mismatch: R has dim %d, L has dim %d" % (r.dim, el.dim)
        )
    return _decompose_batch(r.entries[None], el.entries[None], [delta], tol)[0][0]


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
    return _decompose(r, el, delta, tol).dec


def signature_set(dec: ChamberDecomposition, q: int) -> List[Tuple[float, float]]:
    """Open intervals of the decomposition with exactly q negative and
    d - q positive eigenvalues (possibly empty)."""
    d = dec.dim
    if not 0 <= q <= d:
        raise InputError("q must lie in 0..%d, got %r" % (d, q))
    return [(ch.lo, ch.hi) for ch in dec.chambers if ch.inertia.neg == q]


def _signature_masses(dec: ChamberDecomposition, masses: Sequence[float]) -> List[float]:
    """Integral of |det(R+2sL)| over the q-signature set of ``dec`` for
    q = 0..d, each a math.fsum of its chambers' ``masses`` in order."""
    per_q: List[List[float]] = [[] for _ in range(dec.dim + 1)]
    for ch, m in zip(dec.chambers, masses):
        per_q[ch.inertia.neg].append(m)
    return [math.fsum(ms) for ms in per_q]


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
    dec, masses, _ = _decompose(r, el, delta, tol)
    return _signature_masses(dec, masses)[q]


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
    return _decompose(r, el, delta, tol).signed
