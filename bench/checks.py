"""Output checks and the independent references they compare against.

Every check takes the bytes a crmorse command wrote and returns None when
the output is correct, or a one-line reason when it is not.  References
share no code with crmorse: chamber masses come from generalized
eigenvalues plus scipy.integrate.quad, lattice mode counts from closed
forms in exact integers, and model chambers from numpy eigenvalues.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

_TIMING = re.compile(rb'\n *"timing_s": [^\n]*')


def normalized(out: bytes) -> bytes:
    """Report bytes without the timing_s line, the one field that may vary."""
    return _TIMING.sub(b"", out)


def _report(out: bytes, command: str, raw: Optional[bytes] = None):
    try:
        doc = json.loads(out)
    except ValueError:
        return None, "output is not JSON"
    if doc.get("schema") != "crmorse/report-v1" or doc.get("command") != command:
        return None, "not a %s report envelope" % command
    if raw is not None:
        want = "sha256:" + hashlib.sha256(raw).hexdigest()
        if doc.get("input_digest") != want:
            return None, "input_digest does not match the input bytes"
    return doc["result"], None


def _matrix(pairs) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in pairs])


# ------------------------------------------------------------ field-report


def check_morse(out: bytes, raw: bytes, d: int, k: Optional[int]) -> Optional[str]:
    """Alternating density sum equals rrhTotal to 1e-9 relative."""
    res, err = _report(out, "morse", raw)
    if err:
        return err
    dens = res.get("densities")
    if not isinstance(dens, list) or len(dens) != d + 1:
        return "densities has the wrong length"
    if min(dens) < 0.0:
        return "negative density"
    alt = math.fsum((-1) ** q * v for q, v in enumerate(dens))
    scale = math.fsum(dens)
    if abs(alt - res["rrhTotal"]) > 1e-9 * scale:
        return "alternating density sum %.17g != rrhTotal %.17g" % (alt, res["rrhTotal"])
    if res["strongSums"][-1] != res["rrhTotal"]:
        return "last strong sum is not rrhTotal"
    if k is not None and res.get("k") != k:
        return "k not echoed"
    return None


def verdicts(out: bytes) -> Optional[dict]:
    """The classify-type verdicts of a morse or classify report."""
    try:
        res = json.loads(out)["result"]
        return {key: res[key] for key in ("positivity", "bigness", "xq")}
    except (ValueError, KeyError, TypeError):
        return None


def check_classify(out: bytes, raw: bytes, d: int) -> Optional[str]:
    res, err = _report(out, "classify", raw)
    if err:
        return err
    if len(res.get("xq", ())) != d + 1:
        return "xq has the wrong length"
    for x in res["xq"]:
        if x["holds"] != (x["maxDelta"] > 0.0):
            return "xq holds disagrees with maxDelta"
    return None


def pencil_masses(r: np.ndarray, el: np.ndarray, delta: float) -> List[float]:
    """Per-degree integrals of |det(R + 2sL)| over [-delta, delta].

    Chamber boundaries are the real generalized eigenvalues of (R, -2L);
    each chamber's degree is read from eigvalsh at its midpoint, and its
    mass comes from adaptive quadrature.
    """
    from scipy import integrate, linalg

    d = r.shape[0]
    ev = linalg.eigvals(r, -2.0 * el)
    roots = sorted(
        float(v.real)
        for v in ev
        if np.isfinite(v) and abs(v.imag) <= 1e-9 * (1.0 + abs(v)) and -delta < v.real < delta
    )
    breaks = [-delta, *roots, delta]
    masses = [0.0] * (d + 1)

    def absdet(s: float) -> float:
        return abs(np.linalg.det(r + 2.0 * s * el).real)

    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        w = np.linalg.eigvalsh(r + (a + b) * el)
        val, _ = integrate.quad(absdet, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        masses[int(np.sum(w < 0.0))] += val
    return masses


def field_point_masses(doc: dict, index: int) -> List[float]:
    p = doc["points"][index]
    return pencil_masses(_matrix(p["R"]), _matrix(p["L"]), float(doc["delta"]))


def check_chambers(out: bytes, raw: bytes, want: Sequence[float]) -> Optional[str]:
    """Per-degree chamber masses of one point match quadrature at 1e-8."""
    res, err = _report(out, "chambers", raw)
    if err:
        return err
    got = [0.0] * len(want)
    for ch in res["chambers"]:
        got[ch["inertia"][0]] += ch["mass"]
    total = math.fsum(want)
    for q, (g, w) in enumerate(zip(got, want)):
        if not math.isclose(g, w, rel_tol=1e-8, abs_tol=1e-12 * total):
            return "point %s degree %d mass %.17g vs quadrature %.17g" % (res["label"], q, g, w)
    return None


# ----------------------------------------------------------- lattice-sweep


def read_calibration(text: bytes) -> Dict[str, Fraction]:
    doc = json.loads(text)
    return {"c_dim": Fraction(doc["c_dim"]), "c_mode": Fraction(doc["c_mode"])}


def window(k: int, delta: Fraction) -> int:
    return math.floor(k * delta)


def torus_d1_q0(k: int, cal: Dict[str, Fraction]) -> int:
    """Sum over |m| <= k/2 of c_dim (2k + c_mode m): lambda = 1, mu = 2."""
    w = window(k, Fraction(1, 2))
    if 2 * k - cal["c_mode"] * w <= 0:
        raise ValueError("closed form assumes every torus-d1 mode is positive")
    # the odd part sum_m c_mode m cancels over the symmetric window
    return int(cal["c_dim"] * 2 * k * (2 * w + 1))


def torus_d2_q1(k: int, cal: Dict[str, Fraction]) -> int:
    """Sum over |m| <= k/4 of c_dim^2 (k^2 - (c_mode m)^2).

    The mode matrix diag(k + c m, -k + c m) has inertia (1, 0, 1) while
    c|m| < k, so degrees 0 and 2 get nothing.
    """
    w = window(k, Fraction(1, 4))
    c = cal["c_mode"]
    if c * w >= k:
        raise ValueError("closed form assumes every torus-d2 mode has degree 1")
    sum_m2 = Fraction(w * (w + 1) * (2 * w + 1), 3)  # sum over -w..w of m^2
    return int(cal["c_dim"] ** 2 * ((2 * w + 1) * k * k - c * c * sum_m2))


def check_convergence(
    out: bytes, example: str, ks: Sequence[int], cal: Dict[str, Fraction]
) -> Optional[str]:
    res, err = _report(out, "convergence")
    if err:
        return err
    rows = res["rows"]
    if [r["k"] for r in rows] != list(ks):
        return "%s: levels %s, expected %s" % (example, [r["k"] for r in rows], list(ks))
    for r in rows:
        if example == "torus-d1":
            want = torus_d1_q0(r["k"], cal)
        else:
            # Euler mode: sum_q (-1)^q dims, only q = 1 is nonzero
            want = -torus_d2_q1(r["k"], cal)
        if r["oracle"] != want:
            return "%s k=%d: oracle %r, closed form %d" % (example, r["k"], r["oracle"], want)
        if not (math.isfinite(r["ratio"]) and r["bound"] != 0):
            return "%s k=%d: bound or ratio not finite" % (example, r["k"])
    return None


def check_torus_demo(out: bytes, k: int, cal: Dict[str, Fraction]) -> Optional[str]:
    res, err = _report(out, "torus-demo")
    if err:
        return err
    want = [torus_d1_q0(k, cal), 0]
    if res["oracleDims"] != want:
        return "torus-demo oracleDims %r, closed form %r" % (res["oracleDims"], want)
    return None


# ------------------------------------------------------------ model-checks


def model_nonempty(doc: dict) -> List[int]:
    """Degrees q whose eta-chamber set in (-delta, delta) is nonempty.

    mu - 2 eta diag(lambda) is singular where 2 eta is an eigenvalue of
    diag(lambda)^-1 mu; between those points the degree is read from
    eigvalsh at the midpoint.
    """
    lam = np.array(doc["lambda"], dtype=float)
    mu = _matrix(doc["mu"])
    delta = float(doc["delta"])
    ev = np.linalg.eigvals(mu / lam[:, None]) / 2.0
    roots = sorted(float(v.real) for v in ev if -delta < v.real < delta)
    breaks = [-delta, *roots, delta]
    qs = set()
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b > a:
            w = np.linalg.eigvalsh(mu - (a + b) * np.diag(lam))
            qs.add(int(np.sum(w < 0.0)))
    return sorted(qs)


def check_szego(out: bytes, raw: bytes, nonempty: Sequence[int]) -> Optional[str]:
    res, err = _report(out, "szego-density", raw)
    if err:
        return err
    got = [q for q, iv in enumerate(res["intervals"]) if iv]
    if got != list(nonempty):
        return "nonempty degrees %s, reference %s" % (got, list(nonempty))
    for q, dens in enumerate(res["densities"]):
        if (dens > 0.0) != (q in nonempty):
            return "density of degree %d is %r" % (q, dens)
    return None


def check_extremal(out: bytes, raw: bytes, q: int) -> Optional[str]:
    res, err = _report(out, "extremal-check", raw)
    if err:
        return err
    for key in ("norm_check", "peak_check"):
        if not abs(res[key] - 1.0) <= 1e-6:
            return "q=%d %s = %.17g" % (q, key, res[key])
    return None


def check_bergman(out: bytes, raw: bytes) -> Optional[str]:
    res, err = _report(out, "bergman-check", raw)
    if err:
        return err
    if res["bruteforce"] is None or res["rel_gap"] is None:
        return "brute-force Bergman route did not run"
    if not abs(res["rel_gap"]) <= 1e-9:
        return "Bergman rel_gap = %.3g" % res["rel_gap"]
    return None
