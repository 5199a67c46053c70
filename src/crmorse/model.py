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

import itertools
import math
import numbers
from typing import List, NamedTuple, Tuple

import numpy as np

from .errors import ChamberBoundaryError, InputError, ZeroExtremalMassError
from .pencil import (
    ChamberDecomposition,
    HermitianMatrix,
    _decompose,
    _Frozen,
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


class ModelData(_Frozen):
    """Model weight data at a point: Levi eigenvalues, curvature, window."""

    __slots__ = ("d", "lam", "mu", "delta")

    def __init__(self, d: int, lam, mu: HermitianMatrix, delta: float):
        if not isinstance(d, numbers.Integral) or d < 1:
            raise InputError("d must be a positive integer, got %r" % (d,))
        d = int(d)
        arr = np.atleast_1d(np.asarray(lam, dtype=float))
        if arr.shape != (d,) or not np.all(np.isfinite(arr)):
            raise InputError("lam must be a finite real vector of length d=%d, got %r" % (d, lam))
        arr = arr.copy()
        arr.setflags(write=False)
        if mu.dim != d:
            raise InputError("mu has dim %d, expected d=%d" % (mu.dim, d))
        dlt = float(delta)
        if not (math.isfinite(dlt) and dlt > 0.0):
            raise InputError("delta must be a positive real, got %r" % (delta,))
        self._set(d, arr, mu, dlt)

    @property
    def n(self) -> int:
        return self.d + 1


class EtaChamberSet(NamedTuple):
    """Per-q eta-intervals of constant signature in [-delta, delta]."""

    delta: float
    roots: List[float]
    intervals: List[List[Tuple[float, float]]]


class BergmanValue(NamedTuple):
    value: float
    boundary: bool


class ExtremalForm(NamedTuple):
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
    M_eta at tolerance) the value is 0 and the boundary flag is set.  A z
    at which the value leaves floating-point range is an InputError.
    """
    return _bergman_diag(data, eta, q, z, "z")


def _bergman_diag(data: ModelData, eta: float, q: int, z, name: str) -> BergmanValue:
    """bergman_diag, with ``name`` for z in its range error."""
    q = _check_q(data, q)
    z = _check_z(data, z)
    m = m_phi_eta(data, eta)
    ine = inertia(m)
    if ine.zero > 0:
        return BergmanValue(0.0, True)
    if ine.neg != q:
        return BergmanValue(0.0, False)
    with np.errstate(over="ignore", invalid="ignore"):  # a Phi out of range fails below
        phi = float((z.conj() @ m.entries @ z).real)
    det = abs(float(np.linalg.det(m.entries).real))
    try:
        value = math.exp(phi) * det / TWO_PI**data.d
    except OverflowError:  # e^Phi beyond floating-point range
        value = math.inf
    if not math.isfinite(value):
        raise InputError("%s: the Bergman density at this z leaves floating-point range" % name)
    return BergmanValue(value, False)


def _permanents(a: np.ndarray) -> np.ndarray:
    """Permanents of a (..., p, p) stack by Glynn's formula (Eur. J. Combin.
    31, 2010): perm A = 2^(1-p) sum over sign vectors e with e_0 = 1 of
    prod_i e_i prod_j s_j, s_j = sum_i e_i a_ij; 2^(p-1) terms in place of
    p!.  The sign vectors run in Gray-code order, so each s is the last
    one with a single row's sign flipped."""
    p = a.shape[-1]
    if p == 0:
        return np.ones(a.shape[:-2], dtype=complex)

    def products(s):  # prod_j s_j, one column at a time (numpy's prod is slow on a short axis)
        out = s[..., 0]
        for j in range(1, p):
            out = out * s[..., j]
        return out

    e = [1.0] * p
    s = a.sum(axis=-2)
    total = products(s)
    for k in range(1, 1 << (p - 1)):
        i = (k & -k).bit_length()  # the row whose sign flips, 1..p-1
        s = s - 2.0 * e[i] * a[..., i, :]
        e[i] = -e[i]
        total = total + math.prod(e) * products(s)
    return total / (1 << (p - 1))


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


def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton's method on P_n, evaluated by its three-term recurrence, for the
    nodes in [0, 1); the others mirror them.  The first guesses are
    Tricomi's, with the n^-4 term.  Newton converges like
    e' <= n^2 e^2 / 5, so it stops once n^2 dx^2 is below rounding: two
    passes of the recurrence at n = 256.  The weights
    2 / ((1 - x^2) P_n'(x)^2) take P_n' at the final nodes from its value
    at the last iterate plus the step times P_n'', which Legendre's
    equation gives.
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
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    h = n // 2
    return np.concatenate([-x, x[:h][::-1]]), np.concatenate([w, w[:h][::-1]])


def _fsum_columns(terms: np.ndarray) -> np.ndarray:
    """The exactly rounded column sums of the complex (k, m) array ``terms``,
    each part by math.fsum, so they do not depend on the order of the rows;
    inf where a term or a sum is not finite."""
    if not (np.isfinite(terms.real).all() and np.isfinite(terms.imag).all()):
        return np.full(terms.shape[1], math.inf, dtype=complex)
    try:
        return np.array([complex(math.fsum(col.real), math.fsum(col.imag)) for col in terms.T])
    except OverflowError:  # a sum beyond floating-point range
        return np.full(terms.shape[1], math.inf, dtype=complex)


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
    up to quadrature error.  A z at which the value leaves floating-point
    range is an InputError.
    """
    return _extremal_form(data, q, z, theta, eta_quad_points, "z")


def _extremal_form(
    data: ModelData, q: int, z, theta: float, eta_quad_points: int, name: str
) -> ExtremalForm:
    """extremal_form, with ``name`` for z in its range error."""
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
    nodes, weights = _gauss_legendre(int(eta_quad_points))
    half = np.array([0.5 * (ch.hi - ch.lo) for ch in cells])[:, None]
    etas = (half * nodes + np.array([0.5 * (ch.hi + ch.lo) for ch in cells])[:, None]).ravel()
    wts = (half * weights).ravel()
    vs, qmats = _frame(data.mu.entries - 2.0 * etas[:, None, None] * np.diag(data.lam), q)
    coeffs = np.linalg.det(qmats[:, np.array(js, dtype=np.intp), :q])  # 1 when q = 0
    absdet = np.prod(np.abs(vs), axis=1)
    base = wts * c0 * absdet
    wcoord = np.einsum("kji,j->ki", qmats[:, :, :q].conj(), z)  # the first q coordinates of Q* z
    with np.errstate(over="ignore", invalid="ignore"):  # a z out of range fails below
        lam_zsq = float(data.lam @ (np.abs(z) ** 2))
        exponent = 1j * theta * etas + etas * lam_zsq + (vs[:, :q] * np.abs(wcoord) ** 2).sum(axis=1)
        u = _fsum_columns((base * np.exp(exponent))[:, None] * coeffs) / TWO_PI
    if not np.all(np.isfinite(u)):
        raise InputError("%s: the extremal form at this z leaves floating-point range" % name)
    u_origin = _fsum_columns(base[:, None] * coeffs) / TWO_PI
    norm_check = math.fsum(wts * (c0 * absdet) ** 2 * np.prod(TWO_PI / np.abs(vs), axis=1)) / TWO_PI
    szego = total_mass / TWO_PI**data.n
    peak_check = float(np.sum(np.abs(u_origin) ** 2)) / szego
    return ExtremalForm(
        multi_indices=js, value=u, norm_check=norm_check, peak_check=peak_check
    )
