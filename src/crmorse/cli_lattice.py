"""Command handlers of the lattice and demo family: ``torus-demo``,
``convergence``, ``calibrate``, ``heisenberg-demo`` and
``levi-flat-demo``, with the built-in documents and examples they fall
back on.

``crmorse.cli`` imports this module only when one of these commands runs,
so the field commands never compile it.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Sequence

from .cli import (
    HEISENBERG_SCHEMA,
    LEVI_SCHEMA,
    TORUS_SCHEMA,
    _REPORT_RANGE,
    _emit,
    _file_error,
    _read_input,
    _report_csv,
    _report_doc,
    _weak_bounds,
    parse_heisenberg,
    parse_levi_flat,
    parse_torus,
)
from .errors import InputError, _float_range, _int_arg
from .serialize import csv_table

if TYPE_CHECKING:
    from .oracles import LatticeCalibration, TorusBundleSpec


# a signed total within this fraction of the density sum, which bounds it,
# is the rounding of a total that vanishes: the chamber engine reads
# eigenvalues to 1e-9 of the pencil's scale
_EULER_MARGIN = 1e-9


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


# the documents of convergence --example, read as an --input would be
EXAMPLE_TORUS_DOCS = {
    "torus-d1": DEFAULT_TORUS_DOC,
    "torus-d2-indefinite": {
        "schema": TORUS_SCHEMA,
        "d": 2,
        "lambda": _pairs([[1, 0], [0, 1]]),
        "mu": _pairs([[1, 0], [0, -1]]),
        "delta": 0.25,
    },
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


def _torus_report(args, spec: TorusBundleSpec):
    """The --cal record, the field it gives ``spec`` and that field's
    report, once --q is checked against spec.d."""
    from .morse import build_morse_report
    from .oracles import _lattice_field

    if args.q is not None:
        _int_arg(args.q, "--q", 0, spec.d)
    cal = _load_or_make_cal(args.cal)
    field = _lattice_field(spec, cal)
    return cal, field, build_morse_report(field)


def _cmd_torus_demo(args, started):
    from .oracles import _dimension_sums

    raw = _read_input(args, DEFAULT_TORUS_DOC)
    spec = parse_torus(raw)
    cal, _, rep = _torus_report(args, spec)
    k = args.k
    oracle = _dimension_sums(spec, k, cal, "--k")
    weak = _weak_bounds(rep, k, "mu")
    qs = range(spec.d + 1) if args.q is None else [args.q]
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


def _cmd_convergence(args, started):
    from .oracles import _WINDOW_RANGE, _dimension_sums

    if not (args.input or args.example):
        raise InputError("convergence needs --example or --input")
    raw = _read_input(args, EXAMPLE_TORUS_DOCS.get(args.example))
    spec = parse_torus(raw)
    source = "input" if args.input else args.example
    kmin = _int_arg(args.kmin, "--kmin", 1)
    kmax = _int_arg(args.kmax, "--kmax", kmin)
    kstep = max(1, (kmax - kmin) // 9) if args.kstep is None else _int_arg(args.kstep, "--kstep", 1)
    cal, field, rep = _torus_report(args, spec)
    ks = list(range(kmin, kmax + 1, kstep))
    q = args.q
    dens = rep.rrh_total if q is None else rep.densities[q]  # the signed total in Euler mode
    # a density sum out of range is left to the range error of the bounds below
    if q is None and abs(dens) <= _EULER_MARGIN * sum(rep.densities) < math.inf:
        raise InputError("signed density total vanishes for this spec; no Euler comparison")
    if dens == 0.0:
        raise InputError("--q %d: the q=%d density vanishes for this spec; no ratio to report" % (q, q))
    # windows grow with k, so the first and last levels swept bound the rest;
    # a --kmax beyond the last level reached is not an error
    _float_range(lambda: ks[0] * spec.delta, _WINDOW_RANGE % ("--kmin", len(str(kmin))))
    _float_range(lambda: ks[-1] * spec.delta, _WINDOW_RANGE % ("--kmax", len(str(kmax))))
    oracles = []
    for k in ks:
        sums = _dimension_sums(spec, k, cal)
        oracles.append(sum((-1) ** j * s for j, s in enumerate(sums)) if q is None else sums[q])
    bounds = _float_range(lambda: [k**rep.n * dens for k in ks], _REPORT_RANGE % "--kmax")
    ratios = _float_range(lambda: [o / b for o, b in zip(oracles, bounds)], _REPORT_RANGE % "--kmax")
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
        "weight": field.points[0].weight,
        "rows": rows,
    }
    csv_text = csv_table(
        ["k", "oracle", "bound", "ratio"],
        [[r["k"], r["oracle"], r["bound"], r["ratio"]] for r in rows],
    )
    _emit(args, "convergence", raw, result, csv_text, started)
