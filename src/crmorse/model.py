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
import sys
from typing import List, NamedTuple, Tuple

import numpy as np

from . import _exports
from .errors import (
    ChamberBoundaryError,
    InputError,
    ZeroExtremalMassError,
    _float_range,
    _fsum,
    _int_arg,
    _positive_arg,
    _real_arg,
)
from .pencil import (
    _MASS_RANGE,
    TWO_PI,
    ChamberDecomposition,
    HermitianMatrix,
    Inertia,
    _chamber_decomposition,
    _decompose,
    _densities,
    _Frozen,
    _gauss_legendre,
    _sign_tols,
    _two_pi_quotient,
    inertia,
    signature_set,
)

__all__ = _exports(__name__)

_GATHER_ENTRIES = 1 << 19  # complex entries in one gathered Gram-block slice (8 MB)
_GRAM_SIDE = 1024  # monomials of the brute-force Gram matrix, at most (16 MB)
_GRAM_DEGREE = 12  # their degree, at most: Glynn's formula sums 2^(degree - 1) terms
_MAX_NODES = 4096  # eta quadrature nodes per chamber, at most
_FORM_ENTRIES = 1 << 22  # complex entries of the extremal form's eta frames and q x q minors, at most (64 MB)
_DET = "|det M_eta|"  # what a q-chamber mass integrates, in range errors


class ModelData(_Frozen):
    """Model weight data at a point: Levi eigenvalues, curvature, window."""

    __slots__ = ("d", "lam", "mu", "delta")

    def __init__(self, d: int, lam, mu: HermitianMatrix, delta: float):
        d = _int_arg(d, "d", 1)
        arr = np.atleast_1d(np.asarray(lam, dtype=float))
        if arr.shape != (d,) or not np.all(np.isfinite(arr)):
            raise InputError("lam must be a finite real vector of length d=%d, got %r" % (d, lam))
        arr = arr.copy()
        arr.setflags(write=False)
        if mu.dim != d:
            raise InputError("mu has dim %d, expected d=%d" % (mu.dim, d))
        self._set(d, arr, mu, _positive_arg(delta, "delta"))

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
    """Complex Hessian of Phi_eta: mu - 2 eta diag(lambda).  An eta at which
    it leaves floating-point range is an InputError."""
    return _m_phi_eta(data, eta, "eta")


def _m_phi_eta(data: ModelData, eta: float, name: str) -> HermitianMatrix:
    """m_phi_eta, with ``name`` for eta in its errors."""
    return HermitianMatrix(_m_eta(data, _real_arg(eta, name), name))


def _m_eta(data: ModelData, etas, name: str) -> np.ndarray:
    """The entries of M_eta = mu - 2 eta diag(lambda) at each eta of
    ``etas``, a float or an array, stacked in its shape.  One out of
    floating-point range is an InputError naming ``name``."""
    with np.errstate(over="ignore", invalid="ignore"):  # out of range: refused below
        m = data.mu.entries - (2.0 * np.asarray(etas, dtype=float))[..., None, None] * np.diag(data.lam)
    if not np.isfinite(m).all():
        raise InputError("%s: M_eta = mu - 2 eta diag(lambda) leaves floating-point range" % name)
    return m


def _eta_record(data: ModelData) -> Tuple[ChamberDecomposition, List[float], List[float]]:
    """The eta-chambers, decomposed once, and the |det M_eta| mass and Szego
    density of each q-signature set: the pencil R + 2sL with R = mu and
    L = -diag(lam) is M_eta at s = eta, and the engine's refusals of it
    name the document's keys, "mu, lambda: ".  A nonempty q-set whose
    density is subnormal or 0 is an InputError (pencil._densities), since
    the density and the extremal form's C_0 would lose their digits."""
    el = HermitianMatrix(np.diag(-data.lam).astype(complex))
    w = _decompose(data.mu, el, data.delta, "mu, lambda")
    masses = w.q_masses[0].tolist()
    occupied = [(w.neg[0] == q).any() for q in range(data.d + 1)]
    return _chamber_decomposition(w), masses, _densities(data.n, [1.0], [masses], occupied, _DET)


def _szego_table(data: ModelData) -> Tuple[EtaChamberSet, List[float]]:
    """eta_chambers and the Szego density of every degree, from one
    decomposition."""
    dec, _, densities = _eta_record(data)
    cs = EtaChamberSet(
        delta=dec.delta,
        roots=list(dec.roots),
        intervals=[signature_set(dec, q) for q in range(data.d + 1)],
    )
    return cs, densities


def eta_chambers(data: ModelData) -> EtaChamberSet:
    return _szego_table(data)[0]


def _check_z(data: ModelData, z) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.shape != (data.d,) or not np.all(np.isfinite(arr.view(float))):
        raise InputError("z must be a finite complex vector of length %d" % data.d)
    return arr


def bergman_diag(data: ModelData, eta: float, q: int, z) -> BergmanValue:
    """Summed diagonal of the model Bergman kernel of degree q.

    Closed form e^{Phi_eta(z)} (2pi)^{-d} |det M_eta| when eta lies in the
    q-signature chamber, 0 otherwise.  At a chamber boundary (M_eta singular
    at inertia()'s tolerance) the value is 0 and the boundary flag is set.  An
    eta at which M_eta leaves floating-point range, or the value at z = 0,
    |det M_eta| (2pi)^{-d}, leaves the normal floats (overflows, or is
    subnormal or 0), and a z at which the value overflows are InputErrors;
    an e^Phi that underflows gives 0.
    """
    return _bergman_diag(data, eta, q, z, "")[0]


def _bergman_diag(data: ModelData, eta: float, q: int, z, prefix: str) -> Tuple[BergmanValue, HermitianMatrix, Inertia]:
    """bergman_diag, with the M_eta and inertia it read, for the brute-force
    oracle to reuse.  Its errors name q, eta and z with ``prefix``: "" for
    the parameters, "--" for the flags."""
    q = _int_arg(q, prefix + "q", 0, data.d)
    z = _check_z(data, z)
    m = _m_phi_eta(data, eta, prefix + "eta")
    ine = inertia(m)
    if ine.zero or ine.neg != q:
        return BergmanValue(0.0, ine.zero > 0), m, ine
    with np.errstate(over="ignore", invalid="ignore"):  # a Phi or a det out of range fails below
        phi = float((z.conj() @ m.entries @ z).real)
        det = abs(float(np.linalg.det(m.entries).real))
    if not sys.float_info.min <= _two_pi_quotient(det, data.d) < math.inf:  # the value at z = 0; nan too
        raise InputError("%seta: |det M_eta| leaves floating-point range" % prefix)
    value = _float_range(
        lambda: _two_pi_quotient(math.exp(phi) * det, data.d),
        "%sz: the Bergman density at this z leaves floating-point range" % prefix,
    )
    return BergmanValue(value, False), m, ine


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


def bergman_bruteforce(data: ModelData, eta: float, max_degree: int) -> float:
    """Monomial Gram oracle for the degree-0 Bergman density at z=0.

    Builds the Gram matrix of the monomials z^alpha, |alpha| <= max_degree,
    under the inner product with weight e^{-Phi_eta} and measure 2^d dx,
    with every Gaussian moment evaluated in closed form (Wick permanents
    of M^{-1}); the reproducing-kernel value at the origin is the (0,0)
    entry of the inverse Gram matrix.  Only valid where M_eta is positive
    definite at inertia()'s tolerance, as bergman_diag reads it; an eta
    that bergman_diag refuses is refused with its InputError.
    Mixed-degree moments vanish, so G is block diagonal by degree and built
    block by block, in row slices of bounded memory.  Hence
    (G^-1)_00 = 1/G_00 = det M_eta / (2pi)^d at every max_degree: the oracle
    checks the determinant, and the degree >= 1 blocks cannot move it.
    max_degree is at most 12, and at most the degree at which G reaches 1024
    monomials a side (10 at d = 4), so G takes at most 16 MB.
    """
    max_degree = _int_arg(max_degree, "max_degree", 0, _degree_cap(data.d))
    # bergman_diag's reads of M_eta, and its refusal of a |det M_eta| out of range
    _, m, ine = _bergman_diag(data, eta, 0, np.zeros(data.d), "")
    return _bruteforce(data, m, ine, max_degree)


def _degree_cap(d: int) -> int:
    """The largest max_degree of bergman_bruteforce at dimension d: at most
    _GRAM_DEGREE, with at most _GRAM_SIDE monomials of degree <= max_degree."""
    return max(deg for deg in range(_GRAM_DEGREE + 1) if math.comb(d + deg, d) <= _GRAM_SIDE)


def _bruteforce(data: ModelData, m: HermitianMatrix, ine: Inertia, max_degree: int) -> float:
    """bergman_bruteforce at M_eta = m, whose inertia is ine: the monomial
    Gram matrix, built block by block, and its (G^-1)_00.  A degree-k block
    scales as M^-(d + k), so where it could leave floating-point range G is
    built on M 2^-e, 2^e the least power of two above max|M_ij| (clamped as
    pencil._units does), and the value scaled back by 2^(d e)."""
    if ine.pos != data.d:
        raise InputError("brute-force Bergman oracle needs M_Phi_eta positive definite, got %r" % (ine,))
    e = max(math.frexp(float(np.abs(m.entries).max()))[1], -1021)
    e = 0 if abs(e) * (data.d + max_degree) < 900 else e
    entries = m.entries * math.ldexp(1.0, -e)
    cov = np.linalg.inv(entries)
    mass = _two_pi_quotient(float(np.linalg.det(entries).real), data.d, into=True)
    size = math.comb(data.d + max_degree, data.d)  # monomials of degree <= max_degree
    gram = np.zeros((size, size), dtype=complex)
    off = 0
    for deg in range(max_degree + 1):
        idx = np.array(list(itertools.combinations_with_replacement(range(data.d), deg)), np.intp)
        block = gram[off : off + len(idx), off : off + len(idx)]
        off += len(idx)
        step = max(1, _GATHER_ENTRIES // max(1, idx.size * idx.shape[1]))
        for r0 in range(0, len(idx), step):
            # the gathered stack is [r, c] -> cov[np.ix_(idx[r0 + r], idx[c])]
            block[r0 : r0 + step] = mass * _permanents(
                np.take(cov[idx[r0 : r0 + step]], idx, axis=2).transpose(0, 2, 1, 3)
            )
    sol = np.linalg.solve(gram, np.eye(1, len(gram), dtype=complex)[0])  # G^-1 e_0
    return math.ldexp(float(sol[0].real), data.d * e)


def szego_density(data: ModelData, q: int) -> float:
    """(2pi)^{-n} integral of |det M_eta| over the q-chambers in eta."""
    q = _int_arg(q, "q", 0, data.d)
    return _szego_table(data)[1][q]


_PHASE_TOL = 1e-12


def _frame(m: np.ndarray, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (..., d, d) stack with ascending eigenvalues, a strict
    sign split at q at _sign_tols (first failure named), and fixed column phases."""
    v, qmat = np.linalg.eigh(m)
    d = v.shape[-1]
    tol = _sign_tols(m.reshape(-1, d, d)).reshape(v.shape[:-1] + (1,))
    bad = (v[..., :q] >= -tol).any(axis=-1) | (v[..., q:] <= tol).any(axis=-1)
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
    up to quadrature error.  eta_quad_points, the Gauss-Legendre nodes per
    chamber, is in 16..4096.  A z at which the value leaves floating-point
    range is an InputError, and so is a q whose eta frames and q x q minors
    would take more than _FORM_ENTRIES complex entries, before any is built.
    """
    return _extremal_form(data, q, z, theta, eta_quad_points, "")


def _extremal_form(
    data: ModelData, q: int, z, theta: float, eta_quad_points: int, prefix: str
) -> ExtremalForm:
    """extremal_form, whose errors name q, z and theta with ``prefix``: ""
    for the parameters, "--" for the flags."""
    q = _int_arg(q, prefix + "q", 0, data.d)
    z = _check_z(data, z)
    theta = _real_arg(theta, prefix + "theta")
    eta_quad_points = _int_arg(eta_quad_points, "eta_quad_points", 16, _MAX_NODES)
    dec, masses, densities = _eta_record(data)
    cells = [ch for ch in dec.chambers if ch.inertia.neg == q]
    if not cells:
        raise ZeroExtremalMassError(
            "zero extremal mass: the q=%d chamber set in [-%g, %g] is empty"
            % (q, data.delta, data.delta)
        )
    n_etas = len(cells) * eta_quad_points
    entries = n_etas * (data.d**2 + math.comb(data.d, q) * q * q)
    if entries > _FORM_ENTRIES:
        raise InputError(
            "%sq %d: the extremal form's eta frames and %d x %d minors at %d eta nodes take %d complex "
            "entries, more than %d" % (prefix, q, q, q, n_etas, entries, _FORM_ENTRIES)
        )
    total_mass = masses[q]
    c0 = TWO_PI ** (1.0 - 0.5 * data.n) / math.sqrt(total_mass)
    js = list(itertools.combinations(range(data.d), q))
    nodes, weights = _gauss_legendre(eta_quad_points)
    half = np.array([0.5 * (ch.hi - ch.lo) for ch in cells])[:, None]
    etas = (half * nodes + np.array([0.5 * (ch.hi + ch.lo) for ch in cells])[:, None]).ravel()
    wts = (half * weights).ravel()
    vs, qmats = _frame(_m_eta(data, etas, "eta"), q)
    coeffs = np.linalg.det(qmats[:, np.array(js, dtype=np.intp), :q])  # 1 when q = 0
    absdet = np.prod(np.abs(vs), axis=1)
    base = wts * c0 * absdet
    wcoord = np.einsum("kji,j->ki", qmats[:, :, :q].conj(), z)  # the first q coordinates of Q* z

    def sums(terms):  # each column's exactly rounded sum, independent of the order of the nodes
        return np.array([complex(_fsum(col.real), _fsum(col.imag)) for col in terms.T])

    with np.errstate(over="ignore", invalid="ignore"):  # a z out of range fails below
        lam_zsq = float(data.lam @ (np.abs(z) ** 2))
        exponent = 1j * theta * etas + etas * lam_zsq + (vs[:, :q] * np.abs(wcoord) ** 2).sum(axis=1)
        u = sums((base * np.exp(exponent))[:, None] * coeffs) / TWO_PI
    if not np.all(np.isfinite(u)):
        raise InputError("%sz: the extremal form at this z leaves floating-point range" % prefix)
    u_origin = sums(base[:, None] * coeffs) / TWO_PI
    with np.errstate(over="ignore", invalid="ignore"):  # a mass near the bottom of the range fails below
        norm_check, peak_check = _float_range(lambda: [
            _fsum(wts * (c0 * absdet) ** 2 * np.prod(TWO_PI / np.abs(vs), axis=1)) / TWO_PI,
            float(np.sum(np.abs(u_origin) ** 2) / densities[q]),
        ], _MASS_RANGE % (q, _DET))
    return ExtremalForm(
        multi_indices=js, value=u, norm_check=norm_check, peak_check=peak_check
    )
