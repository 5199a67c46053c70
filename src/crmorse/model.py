"""Heisenberg-group model kernel: weight Hessian, eta-chambers, model
Bergman and Szego densities, and the explicit extremal form.

Conventions that matter here:

* the weight is Phi_eta(z) = -2 eta sum_j lambda_j |z_j|^2 + z* mu z, so
  its complex Hessian is M_eta = mu - 2 eta diag(lambda);
* all z-integrals carry the measure dv(z) = 2^d dx_1 ... dx_{2d}; this
  factor is what makes the closed-form (2pi)^{-d} Bergman constant agree
  with the Gram-matrix oracle;
* the Levi data must arrive diagonalized (a vector lambda); a general
  Hermitian Levi form should be pre-diagonalized by unitary congruence,
  which leaves every output here invariant.

Chamber geometry in eta is delegated to the pencil machinery through the
pencil (mu, -diag(lambda)) with s identified to eta.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from .errors import ChamberBoundaryError, InputError, ZeroExtremalMassError
from .pencil import (
    ChamberDecomposition,
    HermitianMatrix,
    _decompose,
    _signature_masses,
    inertia,
    signature_set,
)

__all__ = [
    "BergmanValue",
    "EtaChamberSet",
    "ExtremalForm",
    "ModelData",
    "bergman_bruteforce",
    "bergman_diag",
    "eta_chambers",
    "extremal_form",
    "m_phi_eta",
    "szego_density",
]

TWO_PI = 2.0 * math.pi
_GATHER_ENTRIES = 1 << 19  # complex entries in one gathered Gram-block slice (8 MB)


@dataclass(frozen=True)
class ModelData:
    """Model weight data at a point: Levi eigenvalues, curvature, window."""

    d: int
    lam: np.ndarray
    mu: HermitianMatrix
    delta: float

    def __post_init__(self):
        if not isinstance(self.d, numbers.Integral) or self.d < 1:
            raise InputError("d must be a positive integer, got %r" % (self.d,))
        object.__setattr__(self, "d", int(self.d))
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if lam.shape != (self.d,) or not np.all(np.isfinite(lam)):
            raise InputError(
                "lam must be a finite real vector of length d=%d, got %r"
                % (self.d, self.lam)
            )
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        if self.mu.dim != self.d:
            raise InputError("mu has dim %d, expected d=%d" % (self.mu.dim, self.d))
        dlt = float(self.delta)
        if not (math.isfinite(dlt) and dlt > 0.0):
            raise InputError("delta must be a positive real, got %r" % (self.delta,))
        object.__setattr__(self, "delta", dlt)

    @property
    def n(self) -> int:
        return self.d + 1


@dataclass(frozen=True)
class EtaChamberSet:
    """Per-q eta-intervals of constant signature in [-delta, delta]."""

    delta: float
    roots: List[float]
    intervals: List[List[Tuple[float, float]]]


class BergmanValue(NamedTuple):
    value: float
    boundary: bool


@dataclass(frozen=True)
class ExtremalForm:
    multi_indices: List[Tuple[int, ...]]
    value: np.ndarray
    norm_check: float
    peak_check: float


def m_phi_eta(data: ModelData, eta: float) -> HermitianMatrix:
    """Complex Hessian of Phi_eta: mu - 2 eta diag(lambda)."""
    eta = float(eta)
    if not math.isfinite(eta):
        raise InputError("eta must be finite, got %r" % (eta,))
    return HermitianMatrix(data.mu.entries - 2.0 * eta * np.diag(data.lam))


def _eta_pencil(data: ModelData) -> Tuple[HermitianMatrix, HermitianMatrix]:
    # mu + 2s(-diag lam) at s = eta reproduces m_phi_eta
    return data.mu, HermitianMatrix(np.diag(-data.lam).astype(complex))


def _eta_record(data: ModelData) -> Tuple[ChamberDecomposition, List[float]]:
    """The eta-chambers, decomposed once, and the |det M_eta| mass of each
    q-signature set."""
    r, el = _eta_pencil(data)
    dec, masses, _ = _decompose(r, el, data.delta)
    return dec, _signature_masses(dec, masses)


def _szego_table(data: ModelData) -> Tuple[EtaChamberSet, List[float]]:
    """eta_chambers and the Szego density of every degree, from one
    decomposition."""
    dec, masses = _eta_record(data)
    cs = EtaChamberSet(
        delta=dec.delta,
        roots=list(dec.roots),
        intervals=[signature_set(dec, q) for q in range(data.d + 1)],
    )
    return cs, [mass / TWO_PI**data.n for mass in masses]


def eta_chambers(data: ModelData) -> EtaChamberSet:
    return _szego_table(data)[0]


def _check_q(data: ModelData, q: int) -> int:
    if not isinstance(q, numbers.Integral) or not 0 <= q <= data.d:
        raise InputError("q must be an integer in 0..%d, got %r" % (data.d, q))
    return int(q)


def _check_z(data: ModelData, z) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.shape != (data.d,) or not np.all(np.isfinite(arr.view(float))):
        raise InputError("z must be a finite complex vector of length %d" % data.d)
    return arr


def bergman_diag(data: ModelData, eta: float, q: int, z) -> BergmanValue:
    """Summed diagonal of the model Bergman kernel of degree q.

    Closed form e^{Phi_eta(z)} (2pi)^{-d} |det M_eta| when eta lies in the
    q-signature chamber, 0 otherwise.  At a chamber boundary (singular
    M_eta at tolerance) the value is 0 and the boundary flag is set.
    """
    q = _check_q(data, q)
    z = _check_z(data, z)
    m = m_phi_eta(data, eta)
    ine = inertia(m)
    if ine.zero > 0:
        return BergmanValue(0.0, True)
    if ine.neg != q:
        return BergmanValue(0.0, False)
    phi = float((z.conj() @ m.entries @ z).real)
    det = abs(float(np.linalg.det(m.entries).real))
    return BergmanValue(math.exp(phi) * det / TWO_PI**data.d, False)


def _permanents(a: np.ndarray) -> np.ndarray:
    """Permanents of a (..., p, p) stack: the scalar expansion, elementwise."""
    p = a.shape[-1]
    total = np.zeros(a.shape[:-2], dtype=complex)
    for perm in itertools.permutations(range(p)):
        term = np.ones(a.shape[:-2], dtype=complex)
        for i, j in enumerate(perm):
            term = term * a[..., i, j]
        total = total + term
    return total


def _positive_definite(m: np.ndarray) -> Tuple[bool, float]:
    """Whether Hermitian m is positive definite at tolerance; its least eigenvalue."""
    w = np.linalg.eigvalsh(m)
    return float(np.min(w)) > 1e-12 * (1.0 + float(np.max(np.abs(w)))), float(np.min(w))


def _bergman_gram(data: ModelData, eta: float, max_degree: int) -> np.ndarray:
    """The monomial Gram matrix of bergman_bruteforce."""
    if not isinstance(max_degree, numbers.Integral) or max_degree < 0:
        raise InputError("max_degree must be a nonnegative integer, got %r" % (max_degree,))
    m = m_phi_eta(data, eta).entries
    positive, lo = _positive_definite(m)
    if not positive:
        raise InputError(
            "brute-force Bergman oracle needs M_Phi_eta positive definite "
            "(min eigenvalue %.3e)" % lo
        )
    cov = np.linalg.inv(m)
    det = float(np.linalg.det(m).real)
    mass = TWO_PI**data.d / det
    size = math.comb(data.d + int(max_degree), data.d)  # monomials of degree <= max_degree
    gram = np.zeros((size, size), dtype=complex)
    off = 0
    for deg in range(int(max_degree) + 1):
        idx = np.array(list(itertools.combinations_with_replacement(range(data.d), deg)), np.intp)
        block = gram[off : off + len(idx), off : off + len(idx)]
        off += len(idx)
        step = max(1, _GATHER_ENTRIES // max(1, idx.size * idx.shape[1]))
        for r0 in range(0, len(idx), step):
            # the gathered stack is [r, c] -> cov[np.ix_(idx[r0 + r], idx[c])]
            block[r0 : r0 + step] = mass * _permanents(
                np.take(cov[idx[r0 : r0 + step]], idx, axis=2).transpose(0, 2, 1, 3)
            )
    return gram


def bergman_bruteforce(data: ModelData, eta: float, max_degree: int) -> float:
    """Monomial Gram oracle for the degree-0 Bergman density at z=0.

    Builds the Gram matrix of the monomials z^alpha, |alpha| <= max_degree,
    under the inner product with weight e^{-Phi_eta} and measure 2^d dx,
    with every Gaussian moment evaluated in closed form (Wick permanents
    of M^{-1}); the reproducing-kernel value at the origin is the (0,0)
    entry of the inverse Gram matrix.  Only valid where M_eta is positive
    definite.  Mixed-degree moments vanish, so G is block diagonal by degree
    and built block by block, in row slices of bounded memory.  Hence
    (G^-1)_00 = 1/G_00 = det M_eta / (2pi)^d at every max_degree: the oracle
    checks the determinant, and the degree >= 1 blocks cannot move it.
    """
    gram = _bergman_gram(data, eta, max_degree)
    sol = np.linalg.solve(gram, np.eye(1, len(gram), dtype=complex)[0])  # G^-1 e_0
    return float(sol[0].real)


def szego_density(data: ModelData, q: int) -> float:
    """(2pi)^{-n} integral of |det M_eta| over the q-chambers in eta."""
    q = _check_q(data, q)
    return _szego_table(data)[1][q]


_FRAME_TOL = 1e-10
_PHASE_TOL = 1e-12


def _frame(m: np.ndarray, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (..., d, d) stack with ascending eigenvalues, strict
    sign split at position q (first failure named), and deterministic column phases."""
    v, qmat = np.linalg.eigh(m)
    d = v.shape[-1]
    btol = _FRAME_TOL * (1.0 + np.max(np.abs(v), axis=-1))
    bad = np.logical_or(
        v[..., q - 1] >= -btol if q >= 1 else False, v[..., q] <= btol if q < d else False
    )
    if np.any(bad):
        first = v.reshape(-1, d)[np.flatnonzero(bad)[0]]
        raise ChamberBoundaryError(
            "chamber boundary touched: eigenvalue sign split %d|%d not strict "
            "(v=%s)" % (q, d - q, np.array2string(first, precision=3))
        )
    # phase of each column: make its first entry above _PHASE_TOL real positive
    rows = np.argmax(np.abs(qmat) > _PHASE_TOL, axis=-2, keepdims=True)
    pivot = np.take_along_axis(qmat, rows, axis=-2)
    return v, qmat * (np.abs(pivot) / pivot)


def extremal_form(
    data: ModelData, q: int, z, theta: float, eta_quad_points: int = 64
) -> ExtremalForm:
    """Evaluate the norm-one extremal (0,q)-form at (z, theta).

    The form is the inverse Fourier transform over the q-chambers of
    C_0 |det M_eta| exp(sum_{j<=q} v_j(eta)|w_j|^2) on the moving frame
    of the q lowest eigendirections, expanded on the fixed increasing
    dz-bar multi-index basis.  norm_check re-evaluates ||u||^2 through
    Parseval with exact Gaussian z-integrals at each quadrature node;
    peak_check compares |u(0,0)|^2 against the Szego density.  Both are 1
    up to quadrature error.
    """
    q = _check_q(data, q)
    z = _check_z(data, z)
    theta = float(theta)
    if not math.isfinite(theta):
        raise InputError("theta must be finite, got %r" % (theta,))
    if not isinstance(eta_quad_points, numbers.Integral) or eta_quad_points < 16:
        raise InputError(
            "eta_quad_points must be an integer >= 16, got %r" % (eta_quad_points,)
        )
    dec, masses = _eta_record(data)
    cells = [ch for ch in dec.chambers if ch.inertia.neg == q]
    if not cells:
        raise ZeroExtremalMassError(
            "zero extremal mass: the q=%d chamber set in [-%g, %g] is empty"
            % (q, data.delta, data.delta)
        )
    total_mass = masses[q]
    c0 = TWO_PI ** (1.0 - 0.5 * data.n) / math.sqrt(total_mass)
    js = list(itertools.combinations(range(data.d), q))
    nodes, weights = np.polynomial.legendre.leggauss(int(eta_quad_points))
    half = np.array([[0.5 * (ch.hi - ch.lo)] for ch in cells])
    etas = half * nodes + np.array([[0.5 * (ch.hi + ch.lo)] for ch in cells])
    wts = (half * weights).ravel().tolist()
    vs, qmats = _frame(data.mu.entries - 2.0 * etas.reshape(-1, 1, 1) * np.diag(data.lam), q)
    coeffs = np.linalg.det(qmats[:, np.array(js, dtype=np.intp), :q])  # 1 when q = 0
    lam_zsq = float(data.lam @ (np.abs(z) ** 2))
    u = np.zeros(len(js), dtype=complex)
    u_origin = np.zeros(len(js), dtype=complex)
    norm_terms: List[float] = []
    for eta, wt, v, qmat, frame_coeff in zip(etas.ravel().tolist(), wts, vs, qmats, coeffs):
        absdet = float(np.prod(np.abs(v)))
        base = wt * c0 * absdet
        u_origin += base * frame_coeff
        wcoord = qmat.conj().T @ z
        exponent = 1j * theta * eta + eta * lam_zsq + float(v[:q] @ (np.abs(wcoord[:q]) ** 2))
        u += base * cmath.exp(exponent) * frame_coeff
        norm_terms.append(
            wt * c0 * c0 * absdet * absdet * float(np.prod(TWO_PI / np.abs(v)))
        )
    u /= TWO_PI
    u_origin /= TWO_PI
    norm_check = math.fsum(norm_terms) / TWO_PI
    szego = total_mass / TWO_PI**data.n
    peak_check = float(np.sum(np.abs(u_origin) ** 2)) / szego
    return ExtremalForm(
        multi_indices=js, value=u, norm_check=norm_check, peak_check=peak_check
    )
