"""Field-level Morse quantities over sampled Hermitian pencils.

A PencilField is a finite weighted sample of pencil data (R_x, L_x); the
operations here aggregate per-sample chamber integrals into spectral
density coefficients, weak and strong bound prefactors, the asymptotic
Riemann-Roch-Hirzebruch total, the X(q) distance certificate, and the
positivity / bigness verdicts.

A field is arrays: stacks of R and L, weights and labels.  Every
quantity comes from one pass of build_morse_report over the field in
slices of at most _CHUNK points, each decomposed once in a stacked pass.
Per point it keeps only the q-masses and signed integral, and the
densities are their weighted, exactly rounded sums over (2pi)^n
(pencil._densities, as for the model), so reports are byte-reproducible.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional

import numpy as np

from . import _exports
from .errors import InputError, _digits, _float_range, _fsum, _int_arg, _positive_arg
from .pencil import HermitianMatrix, _decompose_batch, _densities, _Frozen, _units

__all__ = _exports(__name__)

REASON_POSITIVE = "curvature positive definite at every sample point"
REASON_SEMIPOSITIVE = (
    "curvature semi-positive across the pencil window and positive definite "
    "at some sample (Grauert-Riemenschneider criterion)"
)
REASON_INCONCLUSIVE = "criteria inconclusive"

_CHUNK = 256  # sample points decomposed together in one stacked pass, which bounds its memory

# the range errors of a level k, named by the argument or flag that set it:
# its power k^n, or the weak bound k^n c_q of a density, leaves float range
_POWER_RANGE = "%s: an integer of %d digits, whose power n = %d leaves floating-point range"
_BOUND_RANGE = "%s: an integer of %d digits, whose weak bound k^%d c_q leaves floating-point range"


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
        self._set(label, r, el, _positive_arg(weight, "sample %r: weight" % (label,)))


class PencilField(_Frozen):
    """Weighted sample field with shared fiber dimension d = n - 1, held as
    arrays: the labels, the read-only (N, d, d) stacks ``r`` and ``el`` of
    R and L, and the weights.  ``points`` builds the PencilPoints at each
    read."""

    __slots__ = ("n", "delta", "labels", "r", "el", "weights")

    def __init__(self, n: int, delta: float, points: List[PencilPoint]):
        pts = list(points)
        self._fill(
            n,
            delta,
            [p.label for p in pts],
            [p.r.entries for p in pts],
            [p.el.entries for p in pts],
            [p.weight for p in pts],
        )

    @classmethod
    def _of_stacks(cls, *fields) -> "PencilField":
        """The field of validated samples (n, delta, labels, r, el,
        weights): nonempty labels, symmetrized stacks, positive finite
        weights."""
        field = object.__new__(cls)
        field._fill(*fields)
        return field

    def _fill(self, n, delta, labels, r, el, weights) -> None:
        """Set the fields, once n is an integer >= 2, delta a positive real
        and every matrix of dimension n - 1."""
        n = _int_arg(n, "n", 2)
        dlt = _positive_arg(delta, "delta")
        if not len(labels):
            raise InputError("field needs at least one sample point")
        for label, m in zip(labels, r):
            if m.shape[0] != n - 1:
                raise InputError(
                    "sample %r has pencil dim %d, expected n-1 = %d" % (label, m.shape[0], n - 1)
                )
        arrays = np.asarray(r), np.asarray(el), np.asarray(weights, dtype=float)
        for a in arrays:
            a.setflags(write=False)
        self._set(n, dlt, tuple(labels), *arrays)

    @property
    def dim(self) -> int:
        return self.n - 1

    def _names(self, rows: slice) -> List[str]:
        """The names that begin the engine's refusals for the samples of ``rows``."""
        return ["sample %r" % (label,) for label in self.labels[rows]]

    @property
    def points(self) -> List[PencilPoint]:
        wrap = HermitianMatrix._from_symmetrized
        return [PencilPoint(*p) for p in zip(self.labels, map(wrap, self.r), map(wrap, self.el), self.weights)]


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


def density_q(field: PencilField, q: int, delta: float) -> float:
    """Leading spectral density coefficient c_q(delta).

    (2pi)^{-n} times the weighted sum over samples of the |det| integral
    over each sample's q-signature chambers.  Like every quantity here it
    decomposes each sample over the field window, so a fault anywhere in
    [-field.delta, field.delta] raises, also at a smaller ``delta``.
    """
    q = _int_arg(q, "q", 0, field.dim)
    return build_morse_report(field, delta).densities[q]


def _weak_bounds(k, n: int, densities: List[float], name: str) -> List[float]:
    """k^n times each of ``densities``, once k is an integer >= 1: k^n is
    formed exactly and rounded to float once, so every caller rounds alike.
    A k^n or a product beyond floating-point range is an InputError naming
    ``name``; a k whose bit length puts k^n past range is refused before
    any power is formed."""
    k = _int_arg(k, name, 1)
    power = _float_range(
        lambda: float(k**n) if (k.bit_length() - 1) * n < 1024 else math.inf,  # else k^n >= 2^1024
        _POWER_RANGE % (name, _digits(k), n),
    )
    return _float_range(lambda: [power * c for c in densities], _BOUND_RANGE % (name, _digits(k), n))


def weak_bound(field: PencilField, q: int, delta: float, k: int) -> float:
    """k^n * c_q(delta), the weak Morse bound prefactor at level k.  Like
    density_q it raises for a fault anywhere in the field window, also at a
    smaller ``delta``; k^n or k^n c_q beyond floating-point range is an
    InputError naming k."""
    return _weak_bounds(k, field.n, [density_q(field, q, delta)], "k")[0]


def rrh_total(field: PencilField, delta: float) -> float:
    """Alternating density sum, computed through the signed integral.

    On each chamber det = (-1)^neg |det|, so the alternating sum of
    unsigned chamber integrals telescopes to the plain signed integral of
    det(R+2sL) over [-delta, delta]; this route avoids cancellation
    between separately rounded chamber masses.  Like density_q it raises
    for a fault anywhere in the field window, also at a smaller ``delta``.
    """
    return build_morse_report(field, delta).rrh_total


def strong_sums(field: PencilField, delta: float) -> List[float]:
    """Strong Morse alternating partial sums: entry q < d is
    sum_{j<=q} (-1)^(q-j) c_j, and entry d is the Euler total
    sum_j (-1)^j c_j, the RRH total, which is (-1)^d times the q = d
    partial sum.  Like density_q it raises for a fault anywhere in the
    field window, also at a smaller ``delta``."""
    return build_morse_report(field, delta).strong_sums


def check_Xq(field: PencilField, q: int, threads: Optional[int] = None) -> XqResult:
    """Distance certificate for condition X(q) on the sampled field.

    max_delta is the smallest distance, over samples, from s=0 to the
    closure of that sample's q-signature set in [-field.delta, field.delta];
    samples with empty q-set contribute nothing, and a field where every
    sample is empty certifies the full window field.delta.  The
    certificate speaks only for the sample set, not the continuum.
    ``threads`` is accepted and ignored.
    """
    q = _int_arg(q, "q", 0, field.dim)
    return build_morse_report(field).xq[q]


def classify_bundle(field: PencilField, threads: Optional[int] = None) -> Positivity:
    """Pointwise positivity plus the semidefiniteness guard radius.

    semi_positive_delta is the largest delta' <= field.delta with
    R + 2sL positive semidefinite for every sample and every |s| <= delta'
    (the distance from 0 to the nearest chamber carrying a negative
    eigenvalue), or None when no positive radius exists.  ``threads`` is
    accepted and ignored.
    """
    return build_morse_report(field).positivity


def _bigness_from(positivity: Positivity) -> Bigness:
    if positivity.positive_everywhere:
        return Bigness(big=True, reason=REASON_POSITIVE)
    if positivity.semi_positive_delta is not None and positivity.positive_somewhere:
        return Bigness(big=True, reason=REASON_SEMIPOSITIVE)
    return Bigness(big=False, reason=REASON_INCONCLUSIVE)


def bigness_verdict(field: PencilField, threads: Optional[int] = None) -> Bigness:
    """Sufficient-criteria bigness check; False means inconclusive, not
    refuted.  ``threads`` is accepted and ignored."""
    return build_morse_report(field).bigness


def build_morse_report(
    field: PencilField,
    delta: Optional[float] = None,
    threads: Optional[int] = None,
) -> MorseReport:
    """Assemble every field-level quantity into one deterministic record.

    Densities and sums are evaluated at ``delta`` (default: the field
    window); X(q) and positivity always use the full field window, as
    their definitions fix it.  Each sample is decomposed once, over the
    field window, and both windows read that decomposition.  A q with a
    chamber at ``delta`` whose density is 0 or subnormal is an InputError
    naming q (pencil._densities).  ``threads`` is accepted and ignored:
    the computation is single-threaded.
    """
    delta = field.delta if delta is None else _positive_arg(delta, "delta", field.delta)
    d = field.dim
    deltas = (delta,) if delta == field.delta else (delta, field.delta)
    masses = np.empty((len(field.labels), d + 2))  # each q-mass, then the signed integral
    occupied = np.zeros(d + 1, dtype=bool)  # some sample has a q-chamber at delta
    near = np.full(d + 2, field.delta)  # least distance from 0 to a q-chamber, q = 0..d, then to one with neg > 0
    everywhere, somewhere = True, False  # R positive
    for start in range(0, len(field.labels), _CHUNK):
        part = slice(start, start + _CHUNK)
        r, el = field.r[part], field.el[part]
        windows = _decompose_batch(r, el, deltas, field._names(part))
        masses[part, :-1], masses[part, -1] = windows[0].q_masses, windows[0].signed
        occupied[windows[0].neg[windows[0].neg >= 0]] = True
        w = windows[-1]
        lo, hi = w.breaks[:, :-1], w.breaks[:, 1:]
        dist = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
        for q in range(d + 1):
            near[q] = dist[w.neg == q].min(initial=near[q])
        near[-1] = dist[w.neg > 0].min(initial=near[-1])
        # R is positive where its least eigenvalue clears the chamber
        # engine's tolerance, 1e-9 (||R||_F + 2 delta ||L||_F): unit-free
        _, rn, _, tols = _units(r, el, field.delta)
        pd = np.linalg.eigvalsh(rn)[:, 0] > tols
        everywhere, somewhere = everywhere and bool(pd.all()), somewhere or bool(pd.any())
    *densities, total = _densities(field.n, field.weights, masses, occupied, "|det(R + 2sL)|")
    strong = [_fsum((-1.0) ** (q - j) * densities[j] for j in range(q + 1)) for q in range(d)] + [total]
    positivity = Positivity(everywhere, float(near[-1]) if near[-1] > 0.0 else None, somewhere)
    return MorseReport(
        n=field.n,
        delta=delta,
        densities=densities,
        strong_sums=strong,
        rrh_total=total,
        xq=[XqResult(holds=bool(x > 0.0), max_delta=float(x)) for x in near[:-1]],
        positivity=positivity,
        bigness=_bigness_from(positivity),
    )
