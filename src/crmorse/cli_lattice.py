"""Command handlers of the lattice and demo family: ``torus-demo``,
``convergence``, ``calibrate``, ``heisenberg-demo`` and
``levi-flat-demo``, with the built-in documents and examples they fall
back on.

``crmorse.cli`` imports this module only when one of these commands runs,
so the field commands never compile it.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .cli import (
    HEISENBERG_SCHEMA,
    LEVI_SCHEMA,
    TORUS_SCHEMA,
    _emit,
    _file_error,
    _finite,
    _matrix_doc,
    _read_input,
    _report_csv,
    _report_doc,
    _weak_bounds,
    parse_heisenberg,
    parse_levi_flat,
    parse_torus,
)
from .errors import InputError
from .serialize import canonical_json, csv_table

if TYPE_CHECKING:
    from .oracles import LatticeCalibration, TorusBundleSpec


def _pairs(rows: Sequence[Sequence[complex]]) -> List[List[List[float]]]:
    return [[[complex(v).real, complex(v).imag] for v in row] for row in rows]


DEFAULT_TORUS_DOC = {
    "schema": TORUS_SCHEMA,
    "d": 1,
    "lambda": _pairs([[1]]),
    "mu": _pairs([[2]]),
    "delta": 0.5,
}

DEFAULT_HEISENBERG_DOC = {
    "schema": HEISENBERG_SCHEMA,
    "d": 2,
    "lambda": [1, 2],
    "mu": _pairs([[3, 1], [1, 3]]),
    "delta": 0.5,
}

DEFAULT_LEVI_DOC = {
    "schema": LEVI_SCHEMA,
    "d": 2,
    "mu": _pairs([[1, 0], [0, 1]]),
    "delta": 1.0,
}


def _example_specs() -> Dict[str, TorusBundleSpec]:
    from .oracles import TorusBundleSpec

    return {
        "torus-d1": TorusBundleSpec(
            d=1, lambda_mat=[[1]], mu_mat=[[2]], delta=0.5
        ),
        "torus-d2-indefinite": TorusBundleSpec(
            d=2,
            lambda_mat=[[1, 0], [0, 1]],
            mu_mat=[[1, 0], [0, -1]],
            delta=0.25,
        ),
    }


def serialize_torus(spec: TorusBundleSpec) -> Dict:
    return {
        "schema": TORUS_SCHEMA,
        "d": spec.d,
        "lambda": _matrix_doc(spec.lambda_mat),
        "mu": _matrix_doc(spec.mu_mat),
        "delta": spec.delta,
    }


def _load_or_make_cal(path) -> LatticeCalibration:
    """The --cal record at ``path``, derived and saved there if absent."""
    from .oracles import calibrate, load_calibration, save_calibration

    p = Path(path)
    if p.is_file():
        try:
            return load_calibration(p)
        except OSError as exc:
            raise _file_error("--cal", "read", path, exc) from exc
    cal = calibrate()
    try:
        save_calibration(cal, p)
    except OSError as exc:
        raise _file_error("--cal", "write", path, exc) from exc
    return cal


def _cmd_torus_demo(args, started):
    from .morse import build_morse_report
    from .oracles import _dimension_sums, torus_bundle_field

    raw = _read_input(args, DEFAULT_TORUS_DOC)
    spec = parse_torus(raw)
    cal = _load_or_make_cal(args.cal)
    field = torus_bundle_field(spec)
    rep = build_morse_report(field)
    k = args.k
    oracle = _dimension_sums(spec, k, cal, "--k")
    weak = _weak_bounds(rep, k, "mu")
    if args.q is None:
        qs = list(range(spec.d + 1))
    else:
        if not 0 <= args.q <= spec.d:
            raise InputError("--q must be in 0..%d, got %d" % (spec.d, args.q))
        qs = [args.q]
    result = {
        "d": spec.d,
        "delta": spec.delta,
        "k": k,
        "densities": list(rep.densities),
        "weakBounds": weak,
        "oracleDims": oracle,
        "strongSums": list(rep.strong_sums),
        "rrhTotal": rep.rrh_total,
    }
    csv_text = csv_table(
        ["q", "density", "weak_bound", "oracle_dim"],
        [[q, rep.densities[q], weak[q], oracle[q]] for q in qs],
    )
    _emit(args, "torus-demo", raw, result, csv_text, started)


def _cmd_heisenberg_demo(args, started):
    from .morse import build_morse_report
    from .oracles import heisenberg_field

    raw = _read_input(args, DEFAULT_HEISENBERG_DOC)
    spec = parse_heisenberg(raw)
    rep = build_morse_report(heisenberg_field(spec))
    weak = _weak_bounds(rep, args.k, "mu")
    _emit(args, "heisenberg-demo", raw, _report_doc(rep, args.k, weak), _report_csv(rep, weak), started)


def _cmd_levi_flat_demo(args, started):
    from .morse import build_morse_report

    raw = _read_input(args, DEFAULT_LEVI_DOC)
    field = parse_levi_flat(raw)
    rep = build_morse_report(field)
    weak = _weak_bounds(rep, args.k, "mu")
    _emit(args, "levi-flat-demo", raw, _report_doc(rep, args.k, weak), _report_csv(rep, weak), started)


def _cmd_calibrate(args, started):
    from .oracles import calibrate, save_calibration

    cal = calibrate()
    try:
        save_calibration(cal, args.out)
    except OSError as exc:
        raise _file_error("--out", "write", args.out, exc) from exc
    sys.stdout.write(
        "calibration written to %s (c_dim=%s, c_mode=%s)\n"
        % (args.out, cal.c_dim, cal.c_mode)
    )


def _weight_for_euler(spec: TorusBundleSpec, k0: int, cal: LatticeCalibration) -> Tuple[float, int]:
    """The weight of the first degree that calibrates one, and that degree."""
    from .oracles import calibrate_weight

    reasons = []
    for q in range(spec.d + 1):
        try:
            return calibrate_weight(spec, q, k0, cal), q
        except InputError as exc:
            reasons.append("q=%d: %s" % (q, exc))
    raise InputError("no degree calibrates a weight (%s)" % "; ".join(reasons))


def _cmd_convergence(args, started):
    from .morse import _power, build_morse_report
    from .oracles import _check_window, _dimension_sums, calibrate_weight, torus_bundle_field

    if args.input:
        raw = _read_input(args)
        spec = parse_torus(raw)
        source = "input"
    elif args.example:
        spec = _example_specs()[args.example]
        raw = (canonical_json(serialize_torus(spec)) + "\n").encode()
        source = args.example
    else:
        raise InputError("convergence needs --example or --input")
    if args.kmin < 1 or args.kmax < args.kmin:
        raise InputError(
            "need 1 <= kmin <= kmax, got kmin=%d kmax=%d" % (args.kmin, args.kmax)
        )
    kstep = args.kstep if args.kstep is not None else max(1, (args.kmax - args.kmin) // 9)
    if kstep < 1:
        raise InputError("--kstep must be >= 1, got %d" % kstep)
    if args.k0 < 1:
        raise InputError("--k0 must be >= 1, got %d" % args.k0)
    _power(args.k0, spec.d + 1, "--k0", 2**spec.d)  # the divisor of calibrate_weight
    cal = _load_or_make_cal(args.cal)
    ks = list(range(args.kmin, args.kmax + 1, kstep))
    n = spec.d + 1
    q = args.q
    if q is None:
        weight, weight_q = _weight_for_euler(spec, args.k0, cal)
    else:
        if not 0 <= q <= spec.d:
            raise InputError("--q must be in 0..%d, got %d" % (spec.d, q))
        weight, weight_q = calibrate_weight(spec, q, args.k0, cal), q
    rep = build_morse_report(torus_bundle_field(spec, weight=weight))
    dens = rep.rrh_total if q is None else rep.densities[q]  # the signed total in Euler mode
    if q is None and dens == 0.0:
        raise InputError("signed density total vanishes for this spec; no Euler comparison")
    # windows grow with k, so the first and last levels swept bound the rest;
    # a --kmax beyond the last level reached is not an error
    _check_window(spec, ks[0], "--kmin", args.kmin)
    _check_window(spec, ks[-1], "--kmax", args.kmax)
    oracles = []
    for k in ks:
        sums = _dimension_sums(spec, k, cal)
        oracles.append(sum((-1) ** j * s for j, s in enumerate(sums)) if q is None else sums[q])
    bounds = _finite(lambda: [k**n * dens for k in ks], "--kmax")
    ratios = _finite(lambda: [o / b for o, b in zip(oracles, bounds)], "--kmax")
    rows = [
        {"k": k, "oracle": o, "bound": b, "ratio": r}
        for k, o, b, r in zip(ks, oracles, bounds, ratios)
    ]
    result = {
        "source": source,
        "d": spec.d,
        "delta": spec.delta,
        "mode": "euler" if q is None else "density",
        "q": q,
        "k0": args.k0,
        "weight": weight,
        "weightQ": weight_q,
        "rows": rows,
    }
    csv_text = csv_table(
        ["k", "oracle", "bound", "ratio"],
        [[r["k"], r["oracle"], r["bound"], r["ratio"]] for r in rows],
    )
    _emit(args, "convergence", raw, result, csv_text, started)
