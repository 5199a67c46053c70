"""Field-level Morse quantities over sampled Hermitian pencils.

A PencilField is a finite weighted sample of pencil data (R_x, L_x); the
operations here aggregate per-sample chamber integrals into spectral
density coefficients, weak and strong bound prefactors, the asymptotic
Riemann-Roch-Hirzebruch total, the X(q) distance certificate, and the
positivity / bigness verdicts.

Each sample's pencil is decomposed once into a chamber record per
window, the points of a field together in stacked passes of at most
_CHUNK points; every quantity is a reduction over those records, run in
input order with math.fsum so reports are byte-reproducible.
"""

from __future__ import annotations

import math
import numbers
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError
from .pencil import Chamber, HermitianMatrix, _decompose_batch, _Frozen, _signature_masses, _units

__all__ = [
    "REASON_INCONCLUSIVE",
    "REASON_POSITIVE",
    "REASON_SEMIPOSITIVE",
    "Bigness",
    "MorseReport",
    "PencilField",
    "PencilPoint",
    "Positivity",
    "XqResult",
    "bigness_verdict",
    "build_morse_report",
    "check_Xq",
    "classify_bundle",
    "density_q",
    "rrh_total",
    "strong_sums",
    "weak_bound",
]

TWO_PI = 2.0 * math.pi

REASON_POSITIVE = "curvature positive definite at every sample point"
REASON_SEMIPOSITIVE = (
    "curvature semi-positive across the pencil window and positive definite "
    "at some sample (Grauert-Riemenschneider criterion)"
)
REASON_INCONCLUSIVE = "criteria inconclusive"

_CHUNK = 256  # sample points decomposed together in one stacked pass


class PencilPoint(_Frozen):
    """One sample: curvature R, Levi form L, and its volume mass."""

    __slots__ = ("label", "r", "el", "weight")

    def __init__(self, label: str, r: HermitianMatrix, el: HermitianMatrix, weight: float = 1.0):
        if not isinstance(label, str) or not label:
            raise InputError("sample label must be a nonempty string")
        if r.dim != el.dim:
            raise InputError(
                "sample %r: R has dim %d but L has dim %d" % (label, r.dim, el.dim)
            )
        w = float(weight)
        if not (math.isfinite(w) and w > 0.0):
            raise InputError("sample %r: weight must be a positive real, got %r" % (label, weight))
        self._set(label, r, el, w)


class PencilField(_Frozen):
    """Weighted sample field with shared fiber dimension d = n - 1."""

    __slots__ = ("n", "delta", "points")

    def __init__(self, n: int, delta: float, points: List[PencilPoint]):
        if not isinstance(n, numbers.Integral) or n < 2:
            raise InputError("n must be an integer >= 2, got %r" % (n,))
        dlt = float(delta)
        if not (math.isfinite(dlt) and dlt > 0.0):
            raise InputError("field delta must be a positive real, got %r" % (delta,))
        pts = list(points)
        if not pts:
            raise InputError("field needs at least one sample point")
        d = int(n) - 1
        for p in pts:
            if p.r.dim != d:
                raise InputError(
                    "sample %r has pencil dim %d, expected n-1 = %d" % (p.label, p.r.dim, d)
                )
        self._set(int(n), dlt, pts)

    @property
    def dim(self) -> int:
        return self.n - 1


class XqResult(NamedTuple):
    holds: bool
    max_delta: float


class Positivity(NamedTuple):
    positive_everywhere: bool
    semi_positive_delta: Optional[float]
    positive_somewhere: bool


class Bigness(NamedTuple):
    big: bool
    reason: str


class MorseReport(NamedTuple):
    n: int
    delta: float
    densities: List[float]
    strong_sums: List[float]
    rrh_total: float
    xq: List[XqResult]
    positivity: Positivity
    bigness: Bigness


class _Record(NamedTuple):
    """One sample's chambers over a window, with the integrals of det."""

    chambers: List[Chamber]
    masses: List[float]  # |det| integral over the q-signature set, per q
    signed: float  # signed integral of det over the whole window


def _chunks(field: PencilField):
    """The field's points in runs of at most _CHUNK, which bounds the memory
    of the stacked passes."""
    pts = field.points
    return (pts[i : i + _CHUNK] for i in range(0, len(pts), _CHUNK))


def _records(field: PencilField, *deltas: float) -> List[List[_Record]]:
    """Each sample's record over each window of ``deltas``, one list per
    window, all read from one decomposition of each pencil over the field
    window."""
    out: List[List[_Record]] = [[] for _ in deltas]
    for chunk in _chunks(field):
        batch = _decompose_batch(
            np.stack([p.r.entries for p in chunk]),
            np.stack([p.el.entries for p in chunk]),
            deltas,
            labels=[p.label for p in chunk],
            span=field.delta,
        )
        for records, window in zip(out, batch):
            records.extend(_Record(dec.chambers, _signature_masses(dec, m), signed) for dec, m, signed in window)
    return out


def _check_delta(field: PencilField, delta: float, name: str = "delta") -> float:
    delta = float(delta)
    if not (math.isfinite(delta) and 0.0 < delta <= field.delta):
        raise InputError(
            "%s must lie in (0, %g] for this field, got %g" % (name, field.delta, delta)
        )
    return delta


def _check_q(field: PencilField, q: int) -> int:
    if not isinstance(q, numbers.Integral) or not 0 <= q <= field.dim:
        raise InputError("q must be an integer in 0..%d, got %r" % (field.dim, q))
    return int(q)


def _fsum(terms) -> float:
    """math.fsum, except that a sum out of floating-point range is inf (nan
    for inf - inf) instead of an exception, for the caller to reject."""
    terms = list(terms)
    try:
        return math.fsum(terms)
    except OverflowError:  # a partial sum left float range
        return math.copysign(math.inf, sum(terms))
    except ValueError:  # inf - inf
        return math.nan


def _densities(field: PencilField, records: Sequence[_Record]) -> List[float]:
    return [
        _fsum(p.weight * rec.masses[q] for p, rec in zip(field.points, records)) / TWO_PI**field.n
        for q in range(field.dim + 1)
    ]


def _rrh(field: PencilField, records: Sequence[_Record]) -> float:
    return _fsum(p.weight * rec.signed for p, rec in zip(field.points, records)) / TWO_PI**field.n


def density_q(field: PencilField, q: int, delta: float, threads: Optional[int] = None) -> float:
    """Leading spectral density coefficient c_q(delta).

    (2pi)^{-n} times the weighted sum over samples of the |det| integral
    over each sample's q-signature chambers.
    """
    q = _check_q(field, q)
    delta = _check_delta(field, delta)
    return _densities(field, _records(field, delta)[0])[q]


def _power(k: int, n: int, name: str, factor: int = 1) -> float:
    """factor * k^n in floating point; an InputError naming ``name`` when it
    leaves floating-point range."""
    try:
        value = factor * float(k) ** n
    except OverflowError:  # k or k^n beyond float range
        value = math.inf
    if value == math.inf:
        raise InputError(
            "%s: an integer of %d digits, whose power n = %d leaves floating-point range"
            % (name, len(str(k)), n)
        )
    return value


def weak_bound(field: PencilField, q: int, delta: float, k: int, threads: Optional[int] = None) -> float:
    """k^n * c_q(delta), the weak Morse bound prefactor at level k."""
    if not isinstance(k, numbers.Integral) or k < 1:
        raise InputError("k must be a positive integer, got %r" % (k,))
    return _power(k, field.n, "k") * density_q(field, q, delta)


def _strong_from(densities: Sequence[float], total: float) -> List[float]:
    d = len(densities) - 1
    out = [
        _fsum((-1.0) ** (q - j) * densities[j] for j in range(q + 1))
        for q in range(d)
    ]
    out.append(total)
    return out


def rrh_total(field: PencilField, delta: float, threads: Optional[int] = None) -> float:
    """Alternating density sum, computed through the signed integral.

    On each chamber det = (-1)^neg |det|, so the alternating sum of
    unsigned chamber integrals telescopes to the plain signed integral of
    det(R+2sL) over [-delta, delta]; this route avoids cancellation
    between separately rounded chamber masses.
    """
    delta = _check_delta(field, delta)
    return _rrh(field, _records(field, delta)[0])


def strong_sums(field: PencilField, delta: float, threads: Optional[int] = None) -> List[float]:
    """Strong Morse alternating partial sums; entry d is the RRH total."""
    delta = _check_delta(field, delta)
    records = _records(field, delta)[0]
    return _strong_from(_densities(field, records), _rrh(field, records))


def _dist0(lo: float, hi: float) -> float:
    return 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))


def _xq(field: PencilField, records: Sequence[_Record], q: int) -> XqResult:
    dists = [_dist0(ch.lo, ch.hi) for rec in records for ch in rec.chambers if ch.inertia.neg == q]
    best = min(dists) if dists else field.delta
    return XqResult(holds=bool(best > 0.0), max_delta=float(best))


def check_Xq(field: PencilField, q: int, threads: Optional[int] = None) -> XqResult:
    """Distance certificate for condition X(q) on the sampled field.

    max_delta is the smallest distance, over samples, from s=0 to the
    closure of that sample's q-signature set in [-field.delta, field.delta];
    samples with empty q-set contribute nothing, and a field where every
    sample is empty certifies the full window field.delta.  The
    certificate speaks only for the sample set, not the continuum.
    """
    q = _check_q(field, q)
    return _xq(field, _records(field, field.delta)[0], q)


def _positivity(field: PencilField, records: Sequence[_Record]) -> Positivity:
    pd = []
    for chunk in _chunks(field):
        # R is positive where its least eigenvalue clears the chamber
        # engine's tolerance, 1e-9 (||R||_F + 2 delta ||L||_F): unit-free
        r = np.stack([p.r.entries for p in chunk])
        el = np.stack([p.el.entries for p in chunk])
        _, rn, _, tols = _units(r, el, field.delta)
        pd.extend((np.linalg.eigvalsh(rn)[:, 0] > tols).tolist())
    bad = [_dist0(ch.lo, ch.hi) for rec in records for ch in rec.chambers if ch.inertia.neg > 0]
    radius = min(bad) if bad else field.delta
    return Positivity(
        positive_everywhere=all(pd),
        semi_positive_delta=float(radius) if radius > 0.0 else None,
        positive_somewhere=any(pd),
    )


def classify_bundle(field: PencilField, threads: Optional[int] = None) -> Positivity:
    """Pointwise positivity plus the semidefiniteness guard radius.

    semi_positive_delta is the largest delta' <= field.delta with
    R + 2sL positive semidefinite for every sample and every |s| <= delta'
    (the distance from 0 to the nearest chamber carrying a negative
    eigenvalue), or None when no positive radius exists.
    """
    return _positivity(field, _records(field, field.delta)[0])


def _bigness_from(positivity: Positivity) -> Bigness:
    if positivity.positive_everywhere:
        return Bigness(big=True, reason=REASON_POSITIVE)
    if positivity.semi_positive_delta is not None and positivity.positive_somewhere:
        return Bigness(big=True, reason=REASON_SEMIPOSITIVE)
    return Bigness(big=False, reason=REASON_INCONCLUSIVE)


def bigness_verdict(field: PencilField, threads: Optional[int] = None) -> Bigness:
    """Sufficient-criteria bigness check; False means inconclusive, not refuted."""
    return _bigness_from(classify_bundle(field))


def build_morse_report(
    field: PencilField,
    delta: Optional[float] = None,
    threads: Optional[int] = None,
) -> MorseReport:
    """Assemble every field-level quantity into one deterministic record.

    Densities and sums are evaluated at ``delta`` (default: the field
    window); X(q) and positivity always use the full field window, as
    their definitions fix it.  Each sample is decomposed once, and both
    windows read that decomposition.
    """
    delta = field.delta if delta is None else _check_delta(field, delta)
    if delta == field.delta:
        records = window = _records(field, delta)[0]
    else:
        records, window = _records(field, delta, field.delta)
    densities = _densities(field, records)
    total = _rrh(field, records)
    positivity = _positivity(field, window)
    return MorseReport(
        n=field.n,
        delta=delta,
        densities=densities,
        strong_sums=_strong_from(densities, total),
        rrh_total=total,
        xq=[_xq(field, window, q) for q in range(field.dim + 1)],
        positivity=positivity,
        bigness=_bigness_from(positivity),
    )
