"""Signature chambers of the Hermitian pencil A(s) = R + 2sL.

The pencil is decomposed over [-delta, delta] into maximal open intervals
on which the eigenvalue-sign signature (inertia) is constant.  Chamber
boundaries are the real roots of the characteristic polynomial
p(s) = det(R + 2sL), recovered by determinant evaluation at d+1 probe
points followed by a Vandermonde solve (exact for degree <= d and
numerically adequate for d <= 8, the documented range).  Integrals of
|det| over chambers use the exact polynomial antiderivative, so the only
numerical error is in root location.

One engine decomposes a whole stack of pencils (n, d, d) at once, and a
single pencil is the n = 1 case of it.  Each stage is one call on the
stack: an eigenvalue call per degeneracy probe (for the pencils no earlier
probe cleared), one determinant call on (n, d+1, d, d), one Vandermonde
solve, root isolation one derivative degree at a time for all rows of that
degree, one eigenvalue call over every chamber midpoint, and one
antiderivative evaluation at every chamber end.  Every result is bit
for bit what the same steps give one pencil at a time.  The stacks of one
call hold about (d+1) d^2 complex numbers per pencil, so callers with many
pencils pass them in chunks (see morse._CHUNK) to keep memory bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _signatures(w: np.ndarray, tol: Union[float, None] = None):
    """Negative and positive counts and the tolerance of each eigenvalue row
    of ``w`` (..., d), as ``inertia`` reads them."""
    if tol is None:
        tols = _INERTIA_REL_TOL * (1.0 + np.abs(w).max(axis=-1))
    else:
        tol = float(tol)
        if not math.isfinite(tol):
            raise InputError("inertia tolerance must be finite, got %g" % tol)
        if tol < 0.0:
            raise InputError("inertia tolerance must be nonnegative, got %g" % tol)
        tols = np.full(w.shape[:-1], tol)
    t = tols[..., None]
    return (w < -t).sum(axis=-1), (w > t).sum(axis=-1), tols


def inertia(a: HermitianMatrix, tol: Union[float, None] = None) -> Inertia:
    """Count eigenvalues of ``a`` below -tol, within [-tol, tol], above tol.

    With ``tol=None`` the tolerance defaults to 1e-9 * (1 + spectral
    radius), which makes the strict sign counts robustly decidable.
    """
    neg, pos, tols = _signatures(np.linalg.eigvalsh(a.entries), tol)
    return Inertia(int(neg), a.dim - int(neg) - int(pos), int(pos), float(tols))


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


def _char_coeffs(r: np.ndarray, el: np.ndarray) -> np.ndarray:
    """Coefficients of det(R + 2sL) for each pencil of the (n, d, d) stacks,
    one row per pencil; see pencil_char_poly."""
    d = r.shape[-1]
    j = np.arange(d + 1)
    probes = np.cos((2 * j + 1) * np.pi / (2 * (d + 1)))
    dets = np.linalg.det(r[:, None] + (2.0 * probes)[:, None, None] * el[:, None]).real
    # one Vandermonde copy per row, not one multi-right-hand-side solve: each
    # row then equals its own solve bit for bit
    vand = np.vander(probes, d + 1, increasing=True)[None].repeat(len(dets), axis=0)
    coeffs = np.linalg.solve(vand, dets[..., None])[..., 0]
    coeffs[~dets.any(axis=1)] = 0.0
    cmax = np.abs(coeffs).max(axis=1, keepdims=True)
    coeffs[np.abs(coeffs) < 1e-12 * cmax] = 0.0
    return coeffs


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
    return RealPolynomial(_char_coeffs(r.entries[None], el.entries[None])[0])


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """numpy.polynomial.polynomial.polyval of coefficient row c[i] (ascending)
    at every x[i, :], in polyval's order of operations, so each value equals
    polyval's bit for bit."""
    v = c[:, -1:] + x * 0
    for i in range(2, c.shape[1] + 1):
        v = c[:, -i, None] + v * x
    return v


def _compact(a: np.ndarray) -> np.ndarray:
    """Move the NaN padding of each ascending row to its end, in place, and
    drop all-padding columns."""
    a.sort(axis=1)
    return a[:, ~np.isnan(a).all(axis=0)]


def _root_estimates(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row of c (k, m+1) with m >= 1, the real part of the eigenvalue
    of its companion matrix nearest the real axis within [a, b]; the
    midpoint when there is none."""
    k, m = c.shape[0], c.shape[1] - 1
    comp = np.zeros((k, m, m))
    comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
    with np.errstate(all="ignore"):
        comp[:, :, -1] = -c[:, :m] / c[:, m:]
    comp[~np.isfinite(comp)] = 0.0
    try:
        roots = np.linalg.eigvals(comp)
    except np.linalg.LinAlgError:  # no estimate: the midpoints serve
        return 0.5 * (a + b)
    inside = (roots.real >= a[:, None]) & (roots.real <= b[:, None])
    best = np.where(inside, np.abs(roots.imag), np.inf).argmin(axis=1)
    x = roots.real[np.arange(k), best]
    return np.where(inside[np.arange(k), best], x, 0.5 * (a + b))


def _bisect(c: np.ndarray, a: np.ndarray, b: np.ndarray, up: np.ndarray, tol: float) -> np.ndarray:
    """Bisect each bracket [a, b] of coefficient row c, where c changes sign
    and ``up`` says whether it is positive at a, and return what a scalar
    bisection returns: the midpoint of the first bracket no longer than
    tol, an exact zero met on the way, or the midpoint after 200 halvings.

    The halvings are taken speculatively.  An estimate of each root picks
    the side of every midpoint in advance, so a bracket's midpoints are
    plain float arithmetic; all midpoints of all brackets are then
    evaluated in one pass, and each path is kept up to its first midpoint
    whose sign disagrees, where it resumes.  A wrong estimate costs speed,
    never bits."""
    guess = _root_estimates(c, a, b)
    out = np.empty(a.shape)
    idx = np.arange(a.size)
    steps = np.zeros(a.size, dtype=np.intp)
    while idx.size:
        x = np.minimum(np.maximum(guess, a), b)
        los, his, lengths, ends = [], [], [], []  # the bracket before each halving, flat
        for lo, hi, side, done in zip(a.tolist(), b.tolist(), x.tolist(), steps.tolist()):
            start = len(los)
            while done < 200 and hi - lo > tol:
                los.append(lo)
                his.append(hi)
                mid = 0.5 * (lo + hi)
                done += 1
                if mid < side:
                    lo = mid
                else:
                    hi = mid
            lengths.append(len(los) - start)
            ends.append(0.5 * (lo + hi))
        taken = np.arange(max(1, max(lengths))) < np.array(lengths)[:, None]
        left, right = np.full(taken.shape, np.nan), np.full(taken.shape, np.nan)
        left[taken], right[taken] = los, his
        mids = 0.5 * (left + right)
        v = _horner(c, mids)
        act = (v > 0.0) == up[:, None]  # the root lies right of the midpoint
        bad = ~np.isnan(mids) & ((v == 0.0) | (act != (mids < x[:, None])))
        rows = np.arange(idx.size)
        f = bad.argmax(axis=1)  # the first wrong guess, where the path resumes
        m, lo, hi = mids[rows, f], left[rows, f], right[rows, f]
        zero = bad[rows, f] & (v[rows, f] == 0.0)
        out[idx] = np.where(zero, m, ends)
        turn = bad[rows, f] & ~zero
        a, b = np.where(act[rows, f], m, lo)[turn], np.where(act[rows, f], hi, m)[turn]
        idx, c, up, guess, steps = idx[turn], c[turn], up[turn], guess[turn], (steps + f + 1)[turn]
    return out


def _level_roots(q: np.ndarray, crit: np.ndarray, lo: float, hi: float, tol: float) -> np.ndarray:
    """Roots in [lo, hi] of each degree >= 2 row of q, given the sorted
    NaN-padded roots ``crit`` of its derivative.  q is strictly monotone
    between consecutive stationary points, so each sign change brackets
    exactly one root; tangent roots show as near-zero stationary values."""
    k = q.shape[0]
    cand = np.concatenate([crit, np.full((k, 1), hi)], axis=1)
    pts = np.full((k, cand.shape[1] + 1), np.nan)
    pts[:, 0] = last = np.full(k, lo)
    for j in range(cand.shape[1]):
        x = cand[:, j]
        take = x > last + 1e-15 * (1.0 + np.abs(x))
        pts[take, j + 1] = last[take] = x[take]
    pts = _compact(pts)
    valid = ~np.isnan(pts)
    xs = np.where(valid, pts, lo)
    both = _horner(np.concatenate([q, np.abs(q)]), np.concatenate([xs, np.abs(xs)]))
    vals = both[:k]
    zero = valid & (np.abs(vals) <= 1e-11 * both[k:] + 1e-300)
    sign_change = (vals[:, :-1] > 0.0) != (vals[:, 1:] > 0.0)
    bi, bj = np.nonzero(valid[:, 1:] & ~zero[:, :-1] & ~zero[:, 1:] & sign_change)
    roots = np.full((k, 2 * pts.shape[1] - 1), np.nan)  # points at even slots, brackets at odd
    roots[:, ::2] = np.where(zero, pts, np.nan)
    if bi.size:
        roots[bi, 2 * bj + 1] = _bisect(q[bi], pts[bi, bj], pts[bi, bj + 1], vals[bi, bj] > 0.0, tol)
    return _compact(roots)


def _isolate(c: np.ndarray, lo: float, hi: float, tol: float) -> np.ndarray:
    """Real roots in [lo, hi] of every coefficient row of c (n, D+1), as a
    sorted NaN-padded (n, w) array.  Roots of a row's derivative chain are
    found one degree at a time, from the linear derivative up, for all
    rows of that degree together."""
    n, width = c.shape
    nonzero = c != 0.0
    deg = np.where(nonzero.any(axis=1), width - 1 - nonzero[:, ::-1].argmax(axis=1), 0)
    ders = np.zeros((width, n, width))  # ders[j] is the j-th derivative of each row
    ders[0] = c
    for j in range(1, width):
        ders[j, :, : width - j] = ders[j - 1, :, 1 : width - j + 1] * np.arange(1, width - j + 1)
    done = []  # (rows, roots) of the rows whose own polynomial a level solved
    rows = np.flatnonzero(deg >= 1)
    for m in range(1, int(deg.max(initial=0)) + 1):
        q = ders[deg[rows] - m, rows, : m + 1]  # each row's derivative of degree m
        if m == 1:
            with np.errstate(over="ignore"):  # a root beyond float range is outside [lo, hi]
                x = -q[:, :1] / q[:, 1:]
            inside = (lo - 4.0 * tol <= x) & (x <= hi + 4.0 * tol)
            x = np.where(inside, np.where(x < lo, lo, np.where(x > hi, hi, x)), np.nan)
        else:
            x = _level_roots(q, x, lo, hi, tol)
        top = deg[rows] == m
        done.append((rows[top], x[top]))
        rows, x = rows[~top], x[~top]
    found = np.full((n, max([x.shape[1] for _, x in done], default=0)), np.nan)
    for top, x in done:
        found[top, : x.shape[1]] = x
    return found


def _merge(raw: np.ndarray, eps: float) -> np.ndarray:
    """Collapse each row's sorted roots closer than eps to their running midpoint."""
    if not (raw[:, 1:] - raw[:, :-1] <= eps).any():
        return raw  # nothing to collapse
    n, w = raw.shape
    rows = np.arange(n)
    out = np.full((n, w), np.nan)
    count = np.zeros(n, dtype=np.intp)
    for j in range(w):
        x = raw[:, j]
        last = out[rows, np.maximum(count - 1, 0)]
        join = (count > 0) & (x - last <= eps)
        out[rows[join], count[join] - 1] = 0.5 * (last[join] + x[join])
        add = ~np.isnan(x) & ~join
        out[rows[add], count[add]] = x[add]
        count += add
    return out


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
    merge_eps = max(4.0 * tol, 1e-11 * (1.0 + max(abs(lo), abs(hi))))
    raw = _isolate(np.asarray(p.coeffs, dtype=float)[None], float(lo), float(hi), float(tol))
    roots = _merge(raw, merge_eps)[0]
    return roots[~np.isnan(roots)].tolist()


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


class _Decomposed(NamedTuple):
    """One pencil's chambers with the integrals of its det over them."""

    dec: ChamberDecomposition
    masses: List[float]  # integral of |det(R+2sL)| over each chamber, in order
    signed: float  # integral of det(R+2sL) over [-delta, delta]


def _probe_degenerate(r: np.ndarray, el: np.ndarray, delta: float) -> dict:
    """Pencils of the stacks whose eigenvalues come within tolerance of zero
    at every one of d+2 probes in [-delta, delta]: {row: message}.  A probe
    with no small eigenvalue clears a pencil, and cleared pencils are not
    probed again."""
    probes = np.linspace(-delta, delta, r.shape[-1] + 2)
    pending = np.arange(r.shape[0])
    smallest = np.zeros((r.shape[0], probes.size))
    tols = np.zeros((r.shape[0], probes.size))
    for k, s in enumerate(probes):
        w = np.abs(np.linalg.eigvalsh(r[pending] + 2.0 * s * el[pending]))
        tols[pending, k] = _INERTIA_REL_TOL * (1.0 + w.max(axis=1))
        smallest[pending, k] = w.min(axis=1)
        pending = pending[~(smallest[pending, k] > tols[pending, k])]
        if not pending.size:
            break
    out = {}
    for i in pending.tolist():
        _, small, tol, s = max(
            (a / t, a, t, s) for a, t, s in zip(smallest[i].tolist(), tols[i].tolist(), probes.tolist())
        )
        out[i] = (
            "degenerate pencil: det(R+2sL) is numerically zero at all %d probes in [-%g, %g] "
            "(least singular: min |eig| = %.1e vs tol %.1e at s=%g); "
            "R and L share a near-common kernel" % (probes.size, delta, delta, small, tol, s)
        )
    return out


def _decompose_batch(
    r: np.ndarray,
    el: np.ndarray,
    delta: float,
    tol: Union[float, None] = None,
    labels: Union[Sequence[str], None] = None,
) -> List[_Decomposed]:
    """Decompose every pencil of the (n, d, d) stacks r, el over [-delta, delta].

    Each stage runs once on the whole stack: the degeneracy probes, the
    probe determinants and Vandermonde solve, root isolation, one
    eigenvalue call over every chamber midpoint, and the antiderivative at
    every chamber end.  Each pencil's result equals what the stages give
    it alone.  A pencil whose |det| integral over the window leaves
    floating-point range fails as an input error naming delta.  The error
    raised is the first failing pencil's in stack order, prefixed with its
    label when ``labels`` is given.
    """
    if not delta > 0.0:
        raise InputError("delta must be positive, got %g" % delta)
    if not math.isfinite(delta):
        raise InputError("delta must be finite, got %g" % delta)
    delta = float(delta)
    d = r.shape[-1]
    failures = {}  # row -> its error, from the first stage it fails

    def fail(row, kind, message):
        label = "" if labels is None else "sample %r: " % (labels[row],)
        failures.setdefault(row, kind(label + message))

    with np.errstate(over="ignore", invalid="ignore"):
        step = 2.0 * delta * el
        finite = np.isfinite(r + step).all(axis=(1, 2)) & np.isfinite(r - step).all(axis=(1, 2))
    for i in np.flatnonzero(~finite).tolist():
        fail(i, InputError, "delta %g puts R + 2sL out of floating-point range at s = +-delta" % delta)
    if not finite.any():
        raise failures[0]
    alive = np.flatnonzero(finite)
    for i, message in _probe_degenerate(r[alive], el[alive], delta).items():
        fail(int(alive[i]), DegeneratePencilError, message)
    alive = np.array([i for i in alive.tolist() if i not in failures], dtype=np.intp)

    with np.errstate(over="ignore", invalid="ignore"):  # a det out of range fails the bound below
        coeffs = _char_coeffs(r[alive], el[alive])
    zero = ~coeffs.any(axis=1)
    for i in alive[zero].tolist():
        fail(i, DegeneratePencilError,
             "degenerate pencil: det(R+2sL) has an identically zero characteristic "
             "polynomial on [-%g, %g]" % (delta, delta))
    alive, coeffs = alive[~zero], coeffs[~zero]
    anti = np.concatenate([np.zeros((alive.size, 1)), coeffs / np.arange(1, d + 2)], axis=1)
    out_of_range = (
        "delta %g: the integral of |det(R + 2sL)| over [-delta, delta] is out of "
        "floating-point range" % delta
    )
    with np.errstate(over="ignore"):
        # sum_j |p_j| delta^(j+1) / (j+1) bounds |P| on the window; it is not
        # finite either when a det overflowed at a probe
        bound = _horner(np.abs(anti), np.full((alive.size, 1), delta))[:, 0]
    huge = ~np.isfinite(bound)
    for i in alive[huge].tolist():
        fail(i, InputError, out_of_range)
    alive, coeffs, anti = alive[~huge], coeffs[~huge], anti[~huge]
    if not alive.size:
        raise failures[min(failures)]

    root_tol = 1e-12 * (1.0 + delta)
    roots = _merge(
        _isolate(coeffs, -delta, delta, root_tol), max(4.0 * root_tol, 1e-11 * (1.0 + delta))
    )
    inner = (roots > -delta + 4.0 * root_tol) & (roots < delta - 4.0 * root_tol)
    edge = np.ones((alive.size, 1))
    breaks = _compact(np.concatenate([-delta * edge, np.where(inner, roots, np.nan), delta * edge], axis=1))
    rows, cells = np.nonzero(~np.isnan(breaks[:, 1:]))  # chamber j of a row is (breaks[j], breaks[j+1])
    mids = 0.5 * (breaks[rows, cells] + breaks[rows, cells + 1])
    a_mid = r[alive[rows]] + (2.0 * mids)[:, None, None] * el[alive[rows]]
    w = np.linalg.eigvalsh((a_mid + a_mid.conj().swapaxes(-1, -2)) / 2.0)
    try:
        neg, pos, tols = _signatures(w, tol)
    except InputError as exc:
        if alive.size:
            fail(int(alive[0]), InputError, str(exc))
    else:
        for c in np.flatnonzero(neg + pos < d).tolist():  # a row's first singular chamber names it
            fail(int(alive[rows[c]]), DegeneratePencilError, (
                "pencil is numerically singular inside a chamber at s=%g "
                "(min |eig| = %.1e vs tol %.1e); cannot assign a signature"
                % (mids[c], np.abs(w[c]).min(), tols[c])
            ))

    with np.errstate(over="ignore"):  # a difference of two values of P can reach twice the bound
        ints = _horner(anti, np.where(np.isnan(breaks), delta, breaks))
        masses = np.abs(ints[:, 1:] - ints[:, :-1])
        counts = np.bincount(rows, minlength=alive.size)
        signed = ints[np.arange(alive.size), counts] - ints[:, 0]
    for i in alive[~(np.isfinite(masses).all(axis=1) & np.isfinite(signed))].tolist():
        fail(i, InputError, out_of_range)
    if failures:
        raise failures[min(failures)]

    masses, counts, signed = masses.tolist(), counts.tolist(), signed.tolist()
    signatures = zip(neg.tolist(), pos.tolist(), tols.tolist())  # chamber by chamber, row by row
    out = []
    for ends, row_roots, m, count, total in zip(breaks.tolist(), roots.tolist(), masses, counts, signed):
        dec = ChamberDecomposition(
            delta=delta,
            roots=[x for x in row_roots if x == x],  # drop the NaN padding
            chambers=[
                Chamber(ends[j], ends[j + 1], Inertia(ng, d - ng - ps, ps, t), -1 if ng % 2 else 1)
                for j, (ng, ps, t) in zip(range(count), signatures)
            ],
        )
        out.append(_Decomposed(dec, m[:count], total))
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
    return _decompose_batch(r.entries[None], el.entries[None], delta, tol)[0]


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
