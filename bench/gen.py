"""Seeded input documents for the benchmark.

Every document is a pure function of its arguments: the same seed gives
the same bytes.  Nothing is filtered, so a generated point that the
program cannot handle shows up as a failed command instead of being
quietly dropped.

Run standalone to look at an input:

    python3 bench/gen.py field --d 4 --points 200 --seed 1 > field.json
    python3 bench/gen.py model --d 4 --seed 1 > model.json
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

FIELD_DELTA = 1.0
MODEL_DELTA = 1.0


def _rng(seed: int, kind: str, d: int) -> np.random.Generator:
    # one independent stream per (seed, document kind, dimension)
    return np.random.default_rng([int(seed), sum(map(ord, kind)), int(d)])


def _gaussian_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def _pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def field_doc(seed: int, d: int, points: int) -> dict:
    """A crmorse/field-v1 document of ``points`` Gaussian (R, L) pencils."""
    rng = _rng(seed, "field", d)
    pts = []
    for i in range(points):
        r = _gaussian_hermitian(rng, d)
        el = _gaussian_hermitian(rng, d)
        weight = float(rng.uniform(0.5, 1.5))
        pts.append({"label": "p%d" % i, "weight": weight, "R": _pairs(r), "L": _pairs(el)})
    return {"schema": "crmorse/field-v1", "n": d + 1, "delta": FIELD_DELTA, "points": pts}


def _unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def model_doc(seed: int, d: int) -> dict:
    """A crmorse/model-v1 document with mixed-sign Levi eigenvalues.

    lambda is +a on the first ceil(d/2) coordinates and -b on the rest,
    and mu is block diagonal with a dense Hermitian block per sign.  Each
    block of mu - 2 eta diag(lambda) keeps its eigenvectors as eta moves,
    so every q-chamber carries one fixed eigenframe: the coherent-state
    setting in which the extremal form's norm and peak checks are exactly
    1 (the same family as the isotropic case of the acceptance tests).
    The positive block turns negative at eta = rho_1 < rho_2 < ... inside
    (0, delta), one chamber per q; the negative block stays positive on
    the window, so eta = -delta/2 lies in the q = 0 chamber.
    """
    rng = _rng(seed, "model", d)
    dp = (d + 1) // 2
    a = float(rng.uniform(0.5, 2.0))
    b = float(rng.uniform(0.5, 2.0))
    gaps = rng.uniform(0.3, 1.0, size=dp + 1)
    rho = MODEL_DELTA * np.cumsum(gaps)[:dp] / gaps.sum()
    u = _unitary(rng, dp)
    mu_pos = u @ np.diag(2.0 * a * rho) @ u.conj().T
    dn = d - dp
    v = _unitary(rng, dn)
    mu_neg = v @ np.diag(2.0 * b * MODEL_DELTA * rng.uniform(1.2, 2.0, size=dn)) @ v.conj().T
    mu = np.zeros((d, d), dtype=complex)
    mu[:dp, :dp] = mu_pos
    mu[dp:, dp:] = mu_neg
    mu = (mu + mu.conj().T) / 2.0
    return {
        "schema": "crmorse/model-v1",
        "d": d,
        "lambda": [a] * dp + [-b] * dn,
        "mu": _pairs(mu),
        "delta": MODEL_DELTA,
    }


def dumps(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kind", choices=("field", "model"))
    ap.add_argument("--d", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--points", type=int, default=100)
    args = ap.parse_args(argv)
    if args.kind == "field":
        doc = field_doc(args.seed, args.d, args.points)
    else:
        doc = model_doc(args.seed, args.d)
    sys.stdout.buffer.write(dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
