"""Field-level Morse quantities over sampled Hermitian pencils.

A PencilField is a finite weighted sample of pencil data (R_x, L_x); the
operations here aggregate per-sample chamber integrals into spectral
density coefficients, weak and strong bound prefactors, the asymptotic
Riemann-Roch-Hirzebruch total, the X(q) distance certificate, and the
positivity / bigness verdicts.

Each sample's pencil is decomposed once per window into a chamber
record, the points of a field together in stacked passes of at most
_CHUNK points; every quantity is a reduction over those records, run in
input order with math.fsum so reports are byte-reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError
from .pencil import Chamber, HermitianMatrix, _decompose_batch, _signature_masses, _signatures

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


@dataclass(frozen=True)
class PencilPoint:
    """One sample: curvature R, Levi form L, and its volume mass."""

    label: str
    r: HermitianMatrix
    el: HermitianMatrix
    weight: float = 1.0

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise InputError("sample label must be a nonempty string")
        if self.r.dim != self.el.dim:
            raise InputError(
                "sample %r: R has dim %d but L has dim %d"
                % (self.label, self.r.dim, self.el.dim)
            )
        w = float(self.weight)
        if not (math.isfinite(w) and w > 0.0):
            raise InputError("sample %r: weight must be a positive real, got %r" % (self.label, self.weight))
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True)
class PencilField:
    """Weighted sample field with shared fiber dimension d = n - 1."""

    n: int
    delta: float
    points: List[PencilPoint]

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 2:
            raise InputError("n must be an integer >= 2, got %r" % (self.n,))
        object.__setattr__(self, "n", int(self.n))
        dlt = float(self.delta)
        if not (math.isfinite(dlt) and dlt > 0.0):
            raise InputError("field delta must be a positive real, got %r" % (self.delta,))
        object.__setattr__(self, "delta", dlt)
        pts = list(self.points)
        if not pts:
            raise InputError("field needs at least one sample point")
        d = self.n - 1
        for p in pts:
            if p.r.dim != d:
                raise InputError(
                    "sample %r has pencil dim %d, expected n-1 = %d" % (p.label, p.r.dim, d)
                )
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.n - 1


@dataclass(frozen=True)
class XqResult:
    holds: bool
    max_delta: float


@dataclass(frozen=True)
class Positivity:
    positive_everywhere: bool
    semi_positive_delta: Optional[float]
    positive_somewhere: bool


@dataclass(frozen=True)
class Bigness:
    big: bool
    reason: str


@dataclass(frozen=True)
class MorseReport:
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


def _records(field: PencilField, delta: float) -> List[_Record]:
    out = []
    for chunk in _chunks(field):
        batch = _decompose_batch(
            np.stack([p.r.entries for p in chunk]),
            np.stack([p.el.entries for p in chunk]),
            delta,
            labels=[p.label for p in chunk],
        )
        out.extend(_Record(dec.chambers, _signature_masses(dec, m), signed) for dec, m, signed in batch)
    return out


def _check_delta(field: PencilField, delta: float) -> float:
    delta = float(delta)
    if not (math.isfinite(delta) and 0.0 < delta <= field.delta):
        raise InputError(
            "delta must lie in (0, %g] for this field, got %g" % (field.delta, delta)
        )
    return delta


def _check_q(field: PencilField, q: int) -> int:
    if not isinstance(q, numbers.Integral) or not 0 <= q <= field.dim:
        raise InputError("q must be an integer in 0..%d, got %r" % (field.dim, q))
    return int(q)


def _densities(field: PencilField, records: Sequence[_Record]) -> List[float]:
    return [
        math.fsum(p.weight * rec.masses[q] for p, rec in zip(field.points, records)) / TWO_PI**field.n
        for q in range(field.dim + 1)
    ]


def _rrh(field: PencilField, records: Sequence[_Record]) -> float:
    return math.fsum(p.weight * rec.signed for p, rec in zip(field.points, records)) / TWO_PI**field.n


def density_q(field: PencilField, q: int, delta: float, threads: Optional[int] = None) -> float:
    """Leading spectral density coefficient c_q(delta).

    (2pi)^{-n} times the weighted sum over samples of the |det| integral
    over each sample's q-signature chambers.
    """
    q = _check_q(field, q)
    delta = _check_delta(field, delta)
    return _densities(field, _records(field, delta))[q]


def weak_bound(field: PencilField, q: int, delta: float, k: int, threads: Optional[int] = None) -> float:
    """k^n * c_q(delta), the weak Morse bound prefactor at level k."""
    if not isinstance(k, numbers.Integral) or k < 1:
        raise InputError("k must be a positive integer, got %r" % (k,))
    return float(k) ** field.n * density_q(field, q, delta)


def _strong_from(densities: Sequence[float], total: float) -> List[float]:
    d = len(densities) - 1
    out = [
        math.fsum((-1.0) ** (q - j) * densities[j] for j in range(q + 1))
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
    return _rrh(field, _records(field, delta))


def strong_sums(field: PencilField, delta: float, threads: Optional[int] = None) -> List[float]:
    """Strong Morse alternating partial sums; entry d is the RRH total."""
    delta = _check_delta(field, delta)
    records = _records(field, delta)
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
    return _xq(field, _records(field, field.delta), q)


def _positivity(field: PencilField, records: Sequence[_Record]) -> Positivity:
    pd = []
    for chunk in _chunks(field):
        _, pos, _ = _signatures(np.linalg.eigvalsh(np.stack([p.r.entries for p in chunk])))
        pd.extend((pos == field.dim).tolist())
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
    return _positivity(field, _records(field, field.delta))


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
    their definitions fix it.  Each sample is decomposed once per
    distinct window.
    """
    delta = field.delta if delta is None else _check_delta(field, delta)
    records = _records(field, delta)
    window = records if delta == field.delta else _records(field, field.delta)
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
