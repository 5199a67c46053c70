"""Command line interface.

Every subcommand reads JSON documents, computes through the library, and
emits either a canonical JSON report or a plain CSV table.  Reports are
byte-deterministic except for the ``timing_s`` field.  Exit codes: 0 on
success, 2 for input problems, 3 for degenerate pencils, 4 for a
calibration record that fails re-derivation.

Only numpy, the pencil engine and serialization are imported up front.
Each parser and handler imports the layer it runs (morse, model or
oracles), so a command pays start-up only for the modules it uses.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import numbers
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CalibrationError, DegeneratePencilError, InputError
from .pencil import HermitianMatrix, _decompose
from .serialize import canonical_json, csv_table

if TYPE_CHECKING:
    from .model import ModelData
    from .morse import MorseReport, PencilField
    from .oracles import HeisenbergSpec, LatticeCalibration, TorusBundleSpec

FIELD_SCHEMA = "crmorse/field-v1"
MODEL_SCHEMA = "crmorse/model-v1"
TORUS_SCHEMA = "crmorse/torus-v1"
HEISENBERG_SCHEMA = "crmorse/heisenberg-v1"
LEVI_SCHEMA = "crmorse/leviflat-v1"
REPORT_SCHEMA = "crmorse/report-v1"

# Documents are allowed to be sloppier than in-memory matrices: entries
# are accepted as Hermitian up to this residual, then symmetrized.
PARSE_HERMITIAN_TOL = 1e-9

DEFAULT_CAL_PATH = "calibration.json"

# the types json.loads gives numbers; bool, a subclass of int, is not one
_JSON_NUMBERS = {int, float}


# ----------------------------------------------------------- JSON parsing


def _fail(path: str, msg: str) -> None:
    raise InputError("%s: %s" % (path, msg))


def _get(doc: Dict, key: str, path: str) -> Any:
    if key not in doc:
        _fail(path, "missing required key %r" % key)
    return doc[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        _fail(path, "expected a real number, got %r" % (value,))
    try:
        v = float(value)
    except OverflowError:  # an int beyond float range
        _fail(path, "expected a finite number, got an integer of %d digits" % len(str(abs(value))))
    if not math.isfinite(v):
        _fail(path, "expected a finite number, got %r" % (value,))
    return v


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        _fail(path, "expected an integer, got %r" % (value,))
    return int(value)


def _entry(value: Any, path: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "expected an [re, im] pair, got %r" % (value,))
    return complex(_number(value[0], path + "[0]"), _number(value[1], path + "[1]"))


def _complex_matrix(value: Any, path: str, d: int, what: str) -> np.ndarray:
    if not isinstance(value, list):
        _fail(path, "expected a matrix as a list of rows")
    if len(value) != d:
        _fail(path, "matrix dimension %d does not match %s = %d" % (len(value), what, d))
    try:
        pairs = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if pairs is not None and pairs.shape == (d, d, 2) and np.isfinite(pairs).all():
        cells = itertools.chain.from_iterable(value)
        if set(map(type, itertools.chain.from_iterable(cells))) <= _JSON_NUMBERS:
            out = np.empty((d, d), dtype=complex)
            out.real, out.imag = pairs[..., 0], pairs[..., 1]
            return out
    # a malformed or non-finite entry: walk the matrix to name the first one
    out = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != d:
            _fail("%s[%d]" % (path, i), "expected a row of %d entries" % d)
        for j, cell in enumerate(row):
            out[i, j] = _entry(cell, "%s[%d][%d]" % (path, i, j))
    return out


def _hermitian(value: Any, path: str, d: int, what: str) -> HermitianMatrix:
    raw = _complex_matrix(value, path, d, what)
    try:
        return HermitianMatrix(raw, tol=PARSE_HERMITIAN_TOL)
    except InputError as exc:
        raise InputError("%s: %s" % (path, exc)) from exc


def _load_json(data: Any) -> Dict:
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data).decode("utf-8", errors="replace")
    try:
        doc = json.loads(data)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise InputError("document is not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise InputError("document root must be a JSON object")
    return doc


def _check_schema(doc: Dict, expected: str) -> None:
    schema = doc.get("schema")
    if schema != expected:
        raise InputError("schema: expected %r, got %r" % (expected, schema))


def parse_field(data: Any) -> PencilField:
    """Parse a crmorse/field-v1 document into a PencilField.

    Errors carry the JSON path of the offending element.  Matrices may
    deviate from exact Hermitian symmetry by up to 1e-9 and are
    symmetrized on ingestion.
    """
    from .morse import PencilField, PencilPoint

    doc = _load_json(data)
    _check_schema(doc, FIELD_SCHEMA)
    n = _integer(_get(doc, "n", "$"), "n")
    if n < 2:
        _fail("n", "must be >= 2, got %d" % n)
    delta = _number(_get(doc, "delta", "$"), "delta")
    raw_points = _get(doc, "points", "$")
    if not isinstance(raw_points, list) or not raw_points:
        _fail("points", "expected a nonempty list of sample points")
    d = n - 1
    points = []
    for i, praw in enumerate(raw_points):
        path = "points[%d]" % i
        if not isinstance(praw, dict):
            _fail(path, "expected an object")
        label = _get(praw, "label", path)
        if not isinstance(label, str) or not label:
            _fail(path + ".label", "expected a nonempty string")
        weight = _number(praw.get("weight", 1.0), path + ".weight")
        if weight <= 0.0:
            _fail(path + ".weight", "must be positive, got %s" % weight)
        r = _hermitian(_get(praw, "R", path), path + ".R", d, "n-1")
        el = _hermitian(_get(praw, "L", path), path + ".L", d, "n-1")
        points.append(PencilPoint(label, r, el, weight))
    return PencilField(n=n, delta=delta, points=points)


def _matrix_doc(m: HermitianMatrix) -> List[List[List[float]]]:
    return [
        [[float(e.real), float(e.imag)] for e in row] for row in np.asarray(m.entries)
    ]


def serialize_field(field: PencilField) -> Dict:
    """Inverse of parse_field up to float round-trip (which is exact)."""
    return {
        "schema": FIELD_SCHEMA,
        "n": field.n,
        "delta": field.delta,
        "points": [
            {
                "label": p.label,
                "weight": p.weight,
                "R": _matrix_doc(p.r),
                "L": _matrix_doc(p.el),
            }
            for p in field.points
        ],
    }


def parse_model(data: Any) -> ModelData:
    from .model import ModelData

    doc = _load_json(data)
    _check_schema(doc, MODEL_SCHEMA)
    d = _integer(_get(doc, "d", "$"), "d")
    if d < 1:
        _fail("d", "must be >= 1, got %d" % d)
    raw_lam = _get(doc, "lambda", "$")
    if not isinstance(raw_lam, list) or len(raw_lam) != d:
        _fail("lambda", "expected a list of %d real Levi eigenvalues" % d)
    lam = [_number(v, "lambda[%d]" % i) for i, v in enumerate(raw_lam)]
    mu = _hermitian(_get(doc, "mu", "$"), "mu", d, "d")
    delta = _number(_get(doc, "delta", "$"), "delta")
    return ModelData(d=d, lam=np.array(lam), mu=mu, delta=delta)


def parse_torus(data: Any) -> TorusBundleSpec:
    from .oracles import TorusBundleSpec

    doc = _load_json(data)
    _check_schema(doc, TORUS_SCHEMA)
    d = _integer(_get(doc, "d", "$"), "d")
    if d < 1:
        _fail("d", "must be >= 1, got %d" % d)
    lam = _hermitian(_get(doc, "lambda", "$"), "lambda", d, "d")
    mu = _hermitian(_get(doc, "mu", "$"), "mu", d, "d")
    delta = _number(_get(doc, "delta", "$"), "delta")
    return TorusBundleSpec(d=d, lambda_mat=lam, mu_mat=mu, delta=delta)


def serialize_torus(spec: TorusBundleSpec) -> Dict:
    return {
        "schema": TORUS_SCHEMA,
        "d": spec.d,
        "lambda": _matrix_doc(spec.lambda_mat),
        "mu": _matrix_doc(spec.mu_mat),
        "delta": spec.delta,
    }


def parse_heisenberg(data: Any) -> HeisenbergSpec:
    from .oracles import HeisenbergSpec

    doc = _load_json(data)
    _check_schema(doc, HEISENBERG_SCHEMA)
    d = _integer(_get(doc, "d", "$"), "d")
    if d < 1:
        _fail("d", "must be >= 1, got %d" % d)
    raw_lam = _get(doc, "lambda", "$")
    if not isinstance(raw_lam, list) or len(raw_lam) != d:
        _fail("lambda", "expected a list of %d integer Levi eigenvalues" % d)
    lam = tuple(_integer(v, "lambda[%d]" % i) for i, v in enumerate(raw_lam))
    mu = _hermitian(_get(doc, "mu", "$"), "mu", d, "d")
    delta = _number(_get(doc, "delta", "$"), "delta")
    return HeisenbergSpec(d=d, lambda_vec=lam, mu_mat=mu, delta=delta)


def parse_levi_flat(data: Any) -> PencilField:
    from .oracles import levi_flat_field

    doc = _load_json(data)
    _check_schema(doc, LEVI_SCHEMA)
    d = _integer(_get(doc, "d", "$"), "d")
    if d < 1:
        _fail("d", "must be >= 1, got %d" % d)
    mu = _hermitian(_get(doc, "mu", "$"), "mu", d, "d")
    delta = _number(doc.get("delta", 1.0), "delta")
    return levi_flat_field(mu, d, delta)


# ---------------------------------------------------------- default docs


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


# ------------------------------------------------------------- plumbing


def _read_input(args, default_doc: Optional[Dict] = None) -> bytes:
    path = getattr(args, "input", None)
    if path:
        p = Path(path)
        if not p.is_file():
            raise InputError("input file not found: %s" % p)
        return p.read_bytes()
    if default_doc is None:
        raise InputError("this command requires --input")
    return (canonical_json(default_doc) + "\n").encode()


def _check_threads(args) -> None:
    """Validate --threads / CRMORSE_THREADS; computation is single-threaded."""
    t = getattr(args, "threads", None)
    if t is not None:
        if t < 1:
            raise InputError("--threads must be >= 1, got %d" % t)
        return
    env = os.environ.get("CRMORSE_THREADS")
    if env is not None and env.strip():
        try:
            t = int(env)
        except ValueError:
            raise InputError(
                "CRMORSE_THREADS must be an integer, got %r" % env
            ) from None
        if t < 1:
            raise InputError("CRMORSE_THREADS must be >= 1, got %d" % t)


def _emit(args, command: str, raw: bytes, result: Dict, csv_text: str, started: float) -> None:
    if args.format == "csv":
        text = csv_text
    else:
        payload = {
            "schema": REPORT_SCHEMA,
            "command": command,
            "input_digest": "sha256:" + hashlib.sha256(raw).hexdigest(),
            "timing_s": max(time.perf_counter() - started, 1e-9),
            "result": result,
        }
        text = canonical_json(payload) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_or_make_cal(path) -> LatticeCalibration:
    from .oracles import calibrate, load_calibration, save_calibration

    p = Path(path)
    if p.is_file():
        return load_calibration(p)
    cal = calibrate()
    save_calibration(cal, p)
    return cal


def _parse_z(text: Optional[str], d: int) -> np.ndarray:
    if text is None:
        return np.zeros(d, dtype=complex)
    parts = text.split(";")
    if len(parts) != d:
        raise InputError(
            "--z needs %d 're,im' components separated by ';', got %d" % (d, len(parts))
        )
    out = np.zeros(d, dtype=complex)
    for i, part in enumerate(parts):
        bits = part.split(",")
        if len(bits) != 2:
            raise InputError("--z component %d must be 're,im', got %r" % (i, part))
        try:
            out[i] = complex(float(bits[0]), float(bits[1]))
        except ValueError as exc:
            raise InputError("--z component %d: %s" % (i, exc)) from exc
    return out


def _xq_doc(x) -> Dict:
    return {"holds": x.holds, "maxDelta": x.max_delta}


def _positivity_doc(p) -> Dict:
    return {
        "positiveEverywhere": p.positive_everywhere,
        "semiPositiveDelta": p.semi_positive_delta,
        "positiveSomewhere": p.positive_somewhere,
    }


def _report_doc(rep: MorseReport, k: Optional[int] = None) -> Dict:
    doc = {
        "n": rep.n,
        "delta": rep.delta,
        "densities": list(rep.densities),
        "strongSums": list(rep.strong_sums),
        "rrhTotal": rep.rrh_total,
        "xq": [_xq_doc(x) for x in rep.xq],
        "positivity": _positivity_doc(rep.positivity),
        "bigness": {"big": rep.bigness.big, "reason": rep.bigness.reason},
    }
    if k is not None:
        doc["k"] = int(k)
        doc["weakBounds"] = [int(k) ** rep.n * dens for dens in rep.densities]
    return doc


def _report_csv(rep: MorseReport, k: Optional[int] = None) -> str:
    rows = []
    for q, dens in enumerate(rep.densities):
        weak = "" if k is None else int(k) ** rep.n * dens
        rows.append(
            [q, dens, rep.strong_sums[q], weak, rep.xq[q].holds, rep.xq[q].max_delta]
        )
    return csv_table(
        ["q", "density", "strong_sum", "weak_bound", "xq_holds", "xq_max_delta"], rows
    )


# --------------------------------------------------------------- handlers


def _cmd_chambers(args, started):
    raw = _read_input(args)
    field = parse_field(raw)
    if not 0 <= args.point < len(field.points):
        raise InputError(
            "--point index %d out of range (field has %d sample points)"
            % (args.point, len(field.points))
        )
    pt = field.points[args.point]
    delta = field.delta if args.delta is None else args.delta
    dec, masses, _ = _decompose(pt.r, pt.el, delta, args.tol)
    result = {
        "label": pt.label,
        "delta": dec.delta,
        "roots": list(dec.roots),
        "chambers": [
            {
                "lo": ch.lo,
                "hi": ch.hi,
                "inertia": [ch.inertia.neg, ch.inertia.zero, ch.inertia.pos],
                "detSign": ch.det_sign,
                "mass": m,
            }
            for ch, m in zip(dec.chambers, masses)
        ],
    }
    csv_text = csv_table(
        ["lo", "hi", "neg", "zero", "pos", "det_sign", "mass"],
        [
            [ch.lo, ch.hi, ch.inertia.neg, ch.inertia.zero, ch.inertia.pos, ch.det_sign, m]
            for ch, m in zip(dec.chambers, masses)
        ],
    )
    _emit(args, "chambers", raw, result, csv_text, started)


def _cmd_morse(args, started):
    from .morse import build_morse_report

    raw = _read_input(args)
    field = parse_field(raw)
    _check_threads(args)
    rep = build_morse_report(field, delta=args.delta)
    _emit(args, "morse", raw, _report_doc(rep, args.k), _report_csv(rep, args.k), started)


def _cmd_classify(args, started):
    from .morse import build_morse_report

    raw = _read_input(args)
    field = parse_field(raw)
    _check_threads(args)
    rep = build_morse_report(field)
    positivity, big = rep.positivity, rep.bigness
    result = {
        "n": field.n,
        "delta": field.delta,
        "positivity": _positivity_doc(positivity),
        "bigness": {"big": big.big, "reason": big.reason},
        "xq": [_xq_doc(x) for x in rep.xq],
    }
    rows = [
        ["positive_everywhere", positivity.positive_everywhere],
        [
            "semi_positive_delta",
            "" if positivity.semi_positive_delta is None else positivity.semi_positive_delta,
        ],
        ["positive_somewhere", positivity.positive_somewhere],
        ["big", big.big],
        ["reason", big.reason],
    ]
    for q, x in enumerate(rep.xq):
        rows.append(["xq%d_holds" % q, x.holds])
        rows.append(["xq%d_max_delta" % q, x.max_delta])
    _emit(args, "classify", raw, result, csv_table(["key", "value"], rows), started)


def _cmd_szego(args, started):
    from .model import _szego_table

    raw = _read_input(args)
    data = parse_model(raw)
    cs, densities = _szego_table(data)
    if args.q is None:
        qs = list(range(data.d + 1))
    else:
        if not 0 <= args.q <= data.d:
            raise InputError("--q must be in 0..%d, got %d" % (data.d, args.q))
        qs = [args.q]
    result = {
        "d": data.d,
        "delta": data.delta,
        "roots": list(cs.roots),
        "intervals": [[list(iv) for iv in per_q] for per_q in cs.intervals],
        "densities": densities,
    }
    csv_text = csv_table(["q", "density"], [[q, densities[q]] for q in qs])
    _emit(args, "szego-density", raw, result, csv_text, started)


def _cmd_extremal(args, started):
    from .model import extremal_form

    raw = _read_input(args)
    data = parse_model(raw)
    z = _parse_z(args.z, data.d)
    form = extremal_form(data, args.q, z, args.theta, eta_quad_points=args.nodes)
    result = {
        "q": args.q,
        "theta": args.theta,
        "nodes": args.nodes,
        "z": [[v.real, v.imag] for v in z],
        "multiIndices": [list(j) for j in form.multi_indices],
        "value": [[v.real, v.imag] for v in form.value],
        "norm_check": form.norm_check,
        "peak_check": form.peak_check,
    }
    rows = [["norm_check", form.norm_check, ""], ["peak_check", form.peak_check, ""]]
    for j, v in zip(form.multi_indices, form.value):
        rows.append(["(%s)" % ";".join(str(t) for t in j), v.real, v.imag])
    _emit(args, "extremal-check", raw, result, csv_table(["field", "re", "im"], rows), started)


def _cmd_bergman(args, started):
    from .model import _positive_definite, bergman_bruteforce, bergman_diag, m_phi_eta

    raw = _read_input(args)
    data = parse_model(raw)
    if args.max_degree < 0:
        raise InputError("--max-degree must be >= 0, got %d" % args.max_degree)
    z = _parse_z(args.z, data.d)
    val = bergman_diag(data, args.eta, args.q, z)
    bruteforce = None
    rel_gap = None
    if _positive_definite(m_phi_eta(data, args.eta).entries)[0] and args.q == 0 and not np.any(z):
        bruteforce = bergman_bruteforce(data, args.eta, args.max_degree)
        if bruteforce != 0.0:
            rel_gap = (val.value - bruteforce) / bruteforce
    result = {
        "eta": args.eta,
        "q": args.q,
        "z": [[v.real, v.imag] for v in z],
        "value": val.value,
        "boundary": val.boundary,
        "bruteforce": bruteforce,
        "rel_gap": rel_gap,
    }
    rows = [
        ["value", val.value],
        ["boundary", val.boundary],
        ["bruteforce", "" if bruteforce is None else bruteforce],
        ["rel_gap", "" if rel_gap is None else rel_gap],
    ]
    _emit(args, "bergman-check", raw, result, csv_table(["key", "value"], rows), started)


def _cmd_torus_demo(args, started):
    from .morse import build_morse_report
    from .oracles import _dimension_sums, torus_bundle_field

    raw = _read_input(args, DEFAULT_TORUS_DOC)
    spec = parse_torus(raw)
    cal = _load_or_make_cal(args.cal)
    field = torus_bundle_field(spec)
    rep = build_morse_report(field)
    k = args.k
    oracle = _dimension_sums(spec, k, cal, range(spec.d + 1))
    weak = [k**rep.n * dens for dens in rep.densities]
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
    _emit(args, "heisenberg-demo", raw, _report_doc(rep, args.k), _report_csv(rep, args.k), started)


def _cmd_levi_flat_demo(args, started):
    from .morse import build_morse_report

    raw = _read_input(args, DEFAULT_LEVI_DOC)
    field = parse_levi_flat(raw)
    rep = build_morse_report(field)
    _emit(args, "levi-flat-demo", raw, _report_doc(rep, args.k), _report_csv(rep, args.k), started)


def _cmd_calibrate(args, started):
    from .oracles import calibrate, save_calibration

    cal = calibrate()
    save_calibration(cal, args.out)
    sys.stdout.write(
        "calibration written to %s (c_dim=%s, c_mode=%s)\n"
        % (args.out, cal.c_dim, cal.c_mode)
    )


def _weight_for_euler(spec: TorusBundleSpec, k0: int, cal: LatticeCalibration) -> Tuple[float, int]:
    from .oracles import calibrate_weight

    last_err: Optional[InputError] = None
    for q in range(spec.d + 1):
        try:
            return calibrate_weight(spec, q, k0, cal), q
        except InputError as exc:
            last_err = exc
    raise InputError(
        "no degree has positive spectral density; cannot calibrate a weight (%s)" % last_err
    )


def _cmd_convergence(args, started):
    from .morse import density_q, rrh_total
    from .oracles import _dimension_sums, calibrate_weight, fourier_dimension_sum, torus_bundle_field

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
    cal = _load_or_make_cal(args.cal)
    ks = list(range(args.kmin, args.kmax + 1, kstep))
    n = spec.d + 1
    rows = []
    if args.q is not None:
        if not 0 <= args.q <= spec.d:
            raise InputError("--q must be in 0..%d, got %d" % (spec.d, args.q))
        weight, weight_q = calibrate_weight(spec, args.q, args.k0, cal), args.q
        wfield = torus_bundle_field(spec, weight=weight)
        dens = density_q(wfield, args.q, spec.delta)
        for k in ks:
            oracle = fourier_dimension_sum(spec, args.q, k, cal)
            bound = k**n * dens
            rows.append({"k": k, "oracle": oracle, "bound": bound, "ratio": oracle / bound})
        mode = "density"
    else:
        weight, weight_q = _weight_for_euler(spec, args.k0, cal)
        wfield = torus_bundle_field(spec, weight=weight)
        total = rrh_total(wfield, spec.delta)
        if total == 0.0:
            raise InputError(
                "signed density total vanishes for this spec; no Euler comparison"
            )
        for k in ks:
            sums = _dimension_sums(spec, k, cal, range(spec.d + 1))
            oracle = sum((-1) ** q * s for q, s in enumerate(sums))
            bound = k**n * total
            rows.append({"k": k, "oracle": oracle, "bound": bound, "ratio": oracle / bound})
        mode = "euler"
    result = {
        "source": source,
        "d": spec.d,
        "delta": spec.delta,
        "mode": mode,
        "q": args.q,
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


# ----------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crmorse",
        description="Signature chambers, Morse densities, and model-state checks "
        "for Hermitian curvature pencils R + 2sL.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--format", choices=("json", "csv"), default="json",
                    help="output format (default json)")
    io.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    def add(name, handler, helptext, parents=(io,)):
        p = sub.add_parser(name, help=helptext, parents=list(parents))
        p.set_defaults(handler=handler)
        return p

    p = add("chambers", _cmd_chambers, "signature chamber table for one sample point")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--point", type=int, default=0, help="sample index (default 0)")
    p.add_argument("--delta", type=float, default=None, help="override the field window")
    p.add_argument("--tol", type=float, default=None, help="inertia eigenvalue tolerance")

    p = add("morse", _cmd_morse, "full Morse density report for a field")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--k", type=int, default=None, help="also emit k^n weak bounds")
    p.add_argument("--threads", type=int, default=None,
                   help="validated (>= 1) but unused: computation is single-threaded")

    p = add("classify", _cmd_classify, "positivity, X(q), and bigness verdicts")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="validated (>= 1) but unused: computation is single-threaded")

    p = add("szego-density", _cmd_szego, "model Szego density per degree")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--q", type=int, default=None)

    p = add("extremal-check", _cmd_extremal, "extremal form with norm and peak checks")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--z", metavar="RE,IM;...", default=None)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--nodes", type=int, default=64, help="eta quadrature nodes per chamber")

    p = add("bergman-check", _cmd_bergman, "closed-form Bergman density vs brute force")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--z", metavar="RE,IM;...", default=None)
    p.add_argument("--max-degree", type=int, default=2, dest="max_degree")

    p = add("torus-demo", _cmd_torus_demo, "torus bundle densities against the exact mode count")
    p.add_argument("--input", metavar="PATH", default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--cal", metavar="PATH", default=DEFAULT_CAL_PATH)

    p = add("heisenberg-demo", _cmd_heisenberg_demo, "Heisenberg quotient report")
    p.add_argument("--input", metavar="PATH", default=None)
    p.add_argument("--k", type=int, default=None)

    p = add("levi-flat-demo", _cmd_levi_flat_demo, "Levi-flat product report")
    p.add_argument("--input", metavar="PATH", default=None)
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("calibrate", help="derive and freeze the lattice constants")
    p.set_defaults(handler=_cmd_calibrate)
    p.add_argument("--out", metavar="PATH", default=DEFAULT_CAL_PATH)

    p = add("convergence", _cmd_convergence, "oracle/bound ratio as k grows")
    p.add_argument("--example", choices=("torus-d1", "torus-d2-indefinite"), default=None)
    p.add_argument("--input", metavar="PATH", default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--kmin", type=int, default=10)
    p.add_argument("--kmax", type=int, default=100)
    p.add_argument("--kstep", type=int, default=None)
    p.add_argument("--k0", type=int, default=50, help="Richardson reference level")
    p.add_argument("--cal", metavar="PATH", default=DEFAULT_CAL_PATH)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, dispatch, and map exceptions to documented exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 2
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        handler(args, started)
    except CalibrationError as exc:
        sys.stderr.write("calibration error: %s\n" % exc)
        return 4
    except DegeneratePencilError as exc:
        sys.stderr.write("degenerate pencil: %s\n" % exc)
        return 3
    except InputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
