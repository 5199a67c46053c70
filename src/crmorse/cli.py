"""Command line interface.

Every subcommand reads JSON documents, computes through the library, and
emits either a canonical JSON report or a plain CSV table.  Reports are
byte-deterministic except for the ``timing_s`` field.  Exit codes: 0 on
success, 2 for input problems, 3 for degenerate pencils, 4 for a
calibration record whose constants are not those of calibrate().

Each handler ``_cmd_*`` takes the parsed arguments and returns its table,
(raw input, result, CSV header, CSV rows); run() alone turns it into
bytes, through _emit, under the subcommand's name.  calibrate, which
writes a record and not a table, returns None and prints its own line.

Only numpy, the pencil engine and serialization are imported up front,
and the input digest comes from CPython's built-in SHA-256, so no command
loads OpenSSL.  Each parser and handler imports the layer it runs (morse,
model or oracles), so a command pays start-up only for the modules it
uses.
"""

from __future__ import annotations

import argparse
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

from .errors import (
    CalibrationError,
    DegeneratePencilError,
    InputError,
    _as_float,
    _digits,
    _float_integer,
    _float_range,
    _int_arg,
    _positive_arg,
    _shown,
)
from .pencil import HermitianMatrix, _chamber_decomposition, _decompose_batch, _symmetrized
from .serialize import canonical_json, csv_table

# CPython's own SHA-256, as random.py takes its SHA-512: hashlib would load
# OpenSSL's libcrypto (about 3.5 MB of peak memory and 2.4 ms per process)
# to hash one input; hashlib only where the build has no built-in module
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

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


def _number(value: Any, path: str, integral: bool = False) -> float:
    """The finite float of a JSON number; with ``integral``, once it meets
    the exact specs' integer rule (errors._float_integer)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        _fail(path, "expected a real number, got %r" % (value,))
    v = _as_float(value)  # nan for an int beyond float range
    if not math.isfinite(v):
        _fail(path, "expected a finite number, got %s" % _shown(value))
    return _float_integer(value, path) if integral else v


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        _fail(path, "expected an integer, got %r" % (value,))
    _number(value, path, integral=True)  # exactly a float, as every integer of a document
    return int(value)


def _entry(value: Any, path: str, integral: bool) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "expected an [re, im] pair, got %r" % (value,))
    return complex(_number(value[0], path + "[0]", integral), _number(value[1], path + "[1]", integral))


def _matrix_stack(values: List[Any], d: int) -> Optional[np.ndarray]:
    """The symmetrized (len(values), d, d) stack of the matrix documents
    ``values`` of a field: one conversion and one Hermitian check for all
    of them.  None when any is malformed, not finite or not Hermitian, for
    _walked_points to name the first fault."""
    try:
        pairs = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if pairs.shape != (len(values), d, d, 2):
        return None
    chain = itertools.chain.from_iterable  # matrices -> rows -> cells -> numbers
    if not set(map(type, chain(chain(chain(values))))) <= _JSON_NUMBERS:
        return None
    a = np.empty(pairs.shape[:-1], dtype=complex)
    a.real, a.imag = pairs[..., 0], pairs[..., 1]
    try:
        return _symmetrized(a, PARSE_HERMITIAN_TOL)
    except InputError:
        return None


def _hermitian(value: Any, path: str, d: int, what: str, integral: bool = False) -> HermitianMatrix:
    """One matrix document, walked element by element so that the first
    fault is named at its JSON path.  With ``integral``, each entry is held
    to the exact specs' integer rule (_number) and the matrix, once within
    the parse tolerance, to Hermitian exactly as written
    (oracles._int_hermitian)."""
    if not isinstance(value, list):
        _fail(path, "expected a matrix as a list of rows")
    if len(value) != d:
        _fail(path, "matrix dimension %d does not match %s = %d" % (len(value), what, d))
    raw = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != d:
            _fail("%s[%d]" % (path, i), "expected a row of %d entries" % d)
        for j, cell in enumerate(row):
            raw[i, j] = _entry(cell, "%s[%d][%d]" % (path, i, j), integral)
    try:
        m = HermitianMatrix(raw, tol=PARSE_HERMITIAN_TOL)
    except InputError as exc:
        raise InputError("%s: %s" % (path, exc)) from exc
    if integral:
        from .oracles import _int_hermitian

        return _int_hermitian(raw, path, d)
    return m


def _document(data: Any, schema: str) -> Dict:
    """The JSON object of a document, once its schema is ``schema``."""
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data).decode("utf-8", errors="replace")
    try:
        doc = json.loads(data)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise InputError("document is not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise InputError("document root must be a JSON object")
    if doc.get("schema") != schema:
        raise InputError("schema: expected %r, got %r" % (schema, doc.get("schema")))
    return doc


def _dimension(doc: Dict, key: str, lo: int) -> int:
    """The integer at ``key`` of a document, once it is at least ``lo``."""
    value = _integer(_get(doc, key, "$"), key)
    if value < lo:
        _fail(key, "must be >= %d, got %d" % (lo, value))
    return value


def _head(praw: Any, path: str) -> Tuple[str, float]:
    """The label and weight of the sample point ``praw``, read by both
    parses of a field; a fault names its JSON path."""
    if not isinstance(praw, dict):
        _fail(path, "expected an object")
    label = _get(praw, "label", path)
    if not isinstance(label, str) or not label:
        _fail(path + ".label", "expected a nonempty string")
    weight = _number(praw.get("weight", 1.0), path + ".weight")
    if weight <= 0.0:
        _fail(path + ".weight", "must be positive, got %s" % weight)
    return label, weight


def _stacked_points(raw_points: List[Any], d: int) -> Optional[tuple]:
    """The labels, the R and L stacks and the weights of every sample point,
    with the matrices of all points parsed as one stack; None when any point
    has a fault, for _walked_points to name the first one."""
    try:
        labels, weights = zip(*[_head(p, "") for p in raw_points])
    except InputError:
        return None
    stack = _matrix_stack([p.get("R") for p in raw_points] + [p.get("L") for p in raw_points], d)
    if stack is None:
        return None
    return labels, stack[: len(labels)], stack[len(labels) :], weights


def _walked_points(raw_points: List[Any], d: int) -> tuple:
    """_stacked_points' tuple, read point by point, so that the first fault
    is named at its JSON path."""
    heads, rs, els = [], [], []
    for i, praw in enumerate(raw_points):
        path = "points[%d]" % i
        heads.append(_head(praw, path))
        rs.append(_hermitian(_get(praw, "R", path), path + ".R", d, "n-1").entries)
        els.append(_hermitian(_get(praw, "L", path), path + ".L", d, "n-1").entries)
    labels, weights = zip(*heads)
    return labels, np.array(rs), np.array(els), weights


def parse_field(data: Any) -> PencilField:
    """Parse a crmorse/field-v1 document into a PencilField.

    Errors carry the JSON path of the offending element.  Matrices may
    deviate from exact Hermitian symmetry by up to 1e-9 and are
    symmetrized on ingestion.
    """
    from .morse import PencilField

    doc = _document(data, FIELD_SCHEMA)
    n = _dimension(doc, "n", 2)
    delta = _number(_get(doc, "delta", "$"), "delta")
    raw_points = _get(doc, "points", "$")
    if not isinstance(raw_points, list) or not raw_points:
        _fail("points", "expected a nonempty list of sample points")
    d = n - 1
    stacks = _stacked_points(raw_points, d) or _walked_points(raw_points, d)
    return PencilField._of_stacks(n, delta, *stacks)


def serialize_field(field: PencilField) -> Dict:
    """Inverse of parse_field up to float round-trip (which is exact)."""
    return {
        "schema": FIELD_SCHEMA,
        "n": field.n,
        "delta": field.delta,
        "points": [
            {"label": label, "weight": weight, "R": _pairs(r), "L": _pairs(el)}
            for label, weight, r, el in zip(field.labels, field.weights.tolist(), field.r, field.el)
        ],
    }


def _levi(doc: Dict, d: int, integral: bool) -> list:
    """The d Levi eigenvalues at "lambda" of a model (reals) or of a
    Heisenberg spec (integers, when ``integral``)."""
    raw = _get(doc, "lambda", "$")
    if not isinstance(raw, list) or len(raw) != d:
        _fail("lambda", "expected a list of %d %s Levi eigenvalues" % (d, "integer" if integral else "real"))
    read = _integer if integral else _number
    return [read(v, "lambda[%d]" % i) for i, v in enumerate(raw)]


def parse_model(data: Any) -> ModelData:
    from .model import ModelData

    doc = _document(data, MODEL_SCHEMA)
    d = _dimension(doc, "d", 1)
    lam = _levi(doc, d, False)
    mu = _hermitian(_get(doc, "mu", "$"), "mu", d, "d")
    delta = _number(_get(doc, "delta", "$"), "delta")
    return ModelData(d=d, lam=np.array(lam), mu=mu, delta=delta)


def parse_torus(data: Any) -> TorusBundleSpec:
    from .oracles import TorusBundleSpec

    doc = _document(data, TORUS_SCHEMA)
    d = _dimension(doc, "d", 1)
    lam = _hermitian(_get(doc, "lambda", "$"), "lambda", d, "d", integral=True)
    mu = _hermitian(_get(doc, "mu", "$"), "mu", d, "d", integral=True)
    delta = _number(_get(doc, "delta", "$"), "delta")
    return TorusBundleSpec(d=d, lambda_mat=lam, mu_mat=mu, delta=delta)


def parse_heisenberg(data: Any) -> HeisenbergSpec:
    from .oracles import HeisenbergSpec

    doc = _document(data, HEISENBERG_SCHEMA)
    d = _dimension(doc, "d", 1)
    lam = tuple(_levi(doc, d, True))
    mu = _hermitian(_get(doc, "mu", "$"), "mu", d, "d", integral=True)
    delta = _number(_get(doc, "delta", "$"), "delta")
    if 0 in lam:
        _fail("lambda[%d]" % lam.index(0), "must be nonzero")
    return HeisenbergSpec(d=d, lambda_vec=lam, mu_mat=mu, delta=delta)


def parse_levi_flat(data: Any) -> PencilField:
    from .oracles import levi_flat_field

    doc = _document(data, LEVI_SCHEMA)
    d = _dimension(doc, "d", 1)
    mu = _hermitian(_get(doc, "mu", "$"), "mu", d, "d")
    delta = _number(doc.get("delta", 1.0), "delta")
    return levi_flat_field(mu, d, delta)


# ---------------------------------------------------- built-in documents


def _pairs(rows: Sequence[Sequence[complex]]) -> List[List[List[float]]]:
    """The [re, im] float pairs of a matrix's rows, signed zeros kept."""
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


# ------------------------------------------------------------- plumbing


def _file_error(flag: str, verb: str, path, exc: OSError) -> InputError:
    """The input error for an OSError on the file a flag names."""
    return InputError("%s: cannot %s %s: %s" % (flag, verb, path, exc.strerror or exc))


def _read_input(args, default_doc: Optional[Dict] = None) -> bytes:
    path = getattr(args, "input", None)
    if path:
        try:
            return Path(path).read_bytes()
        except OSError as exc:
            raise _file_error("--input", "read", path, exc) from exc
    return (canonical_json(default_doc) + "\n").encode()


# the range error of reported values, named by the input that scaled them there
_REPORT_RANGE = "%s: the reported values leave floating-point range"


def _digest(raw: bytes) -> str:
    return "sha256:" + sha256(raw).hexdigest()


def _emit(args, raw: bytes, result: Dict, header: List[str], rows: List[list], started: float) -> None:
    """Write a command's table: the JSON report of ``result`` under the
    command's name, or the CSV of ``header`` and ``rows``."""
    if args.format == "csv":
        text = csv_table(header, rows)
    else:
        payload = {
            "schema": REPORT_SCHEMA,
            "command": args.command,
            "input_digest": _digest(raw),
            "timing_s": max(time.perf_counter() - started, 1e-9),
            "result": result,
        }
        text = canonical_json(payload) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise _file_error("--out", "write", args.out, exc) from exc
    else:
        sys.stdout.write(text)


def _report_doc(rep: MorseReport, k: Optional[int] = None, source: Optional[str] = None) -> Dict:
    """The Morse report document of ``rep``, whose keys every command that
    reports a field takes, with the level ``k`` and its weak bounds when k
    is set.  With ``source`` set, every density and sum is first checked
    finite, a range error naming ``source``; a level error names --k."""
    from .morse import _weak_bounds

    if source is not None:
        _float_range(lambda: rep.densities + rep.strong_sums + [rep.rrh_total], _REPORT_RANGE % source)
    pos = rep.positivity
    doc = {
        "n": rep.n,
        "delta": rep.delta,
        "densities": list(rep.densities),
        "strongSums": list(rep.strong_sums),
        "rrhTotal": rep.rrh_total,
        "xq": [{"holds": x.holds, "maxDelta": x.max_delta} for x in rep.xq],
        "positivity": {
            "positiveEverywhere": pos.positive_everywhere,
            "semiPositiveDelta": pos.semi_positive_delta,
            "positiveSomewhere": pos.positive_somewhere,
        },
        "bigness": {"big": rep.bigness.big, "reason": rep.bigness.reason},
    }
    if k is not None:
        doc["k"] = k
        doc["weakBounds"] = _weak_bounds(k, rep.n, rep.densities, "--k")
    return doc


def _report(args, raw: bytes, field: PencilField, delta: Optional[float] = None, source: str = "mu"):
    """The Morse report table of ``field`` at ``delta`` (default its window),
    with the weak bounds of --k; a report out of range names ``source``."""
    from .morse import build_morse_report

    rep = build_morse_report(field, delta=delta)
    doc = _report_doc(rep, args.k, source)
    weak = doc.get("weakBounds", [""] * len(rep.densities))
    rows = [
        [q, dens, rep.strong_sums[q], weak[q], rep.xq[q].holds, rep.xq[q].max_delta]
        for q, dens in enumerate(rep.densities)
    ]
    return raw, doc, ["q", "density", "strong_sum", "weak_bound", "xq_holds", "xq_max_delta"], rows


# --------------------------------------------------------------- handlers


def _cmd_chambers(args):
    raw = _read_input(args)
    field = parse_field(raw)
    i = _int_arg(args.point, "--point", 0, len(field.labels) - 1)
    delta = field.delta if args.delta is None else _positive_arg(args.delta, "--delta")
    row = slice(i, i + 1)  # the sample's row of the stacks, decomposed as morse does
    w = _decompose_batch(field.r[row], field.el[row], [delta], field._names(row))[0]
    dec = _chamber_decomposition(w)
    rows = [[c.lo, c.hi, *c.inertia.signature, c.det_sign, m] for c, m in zip(dec.chambers, w.masses[0].tolist())]
    chambers = [
        {"lo": lo, "hi": hi, "inertia": [neg, zero, pos], "detSign": sign, "mass": m}
        for lo, hi, neg, zero, pos, sign, m in rows
    ]
    result = {"label": field.labels[i], "delta": dec.delta, "roots": dec.roots, "chambers": chambers}
    return raw, result, ["lo", "hi", "neg", "zero", "pos", "det_sign", "mass"], rows


def _cmd_morse(args):
    raw = _read_input(args)
    field = parse_field(raw)
    _int_arg(args.threads, "--threads", 1)
    delta = None if args.delta is None else _positive_arg(args.delta, "--delta", field.delta)
    return _report(args, raw, field, delta, "points[*].weight")


def _cmd_classify(args):
    from .morse import build_morse_report

    raw = _read_input(args)
    field = parse_field(raw)
    _int_arg(args.threads, "--threads", 1)
    rep = build_morse_report(field)
    positivity, big = rep.positivity, rep.bigness
    doc = _report_doc(rep)
    result = {key: doc[key] for key in ("n", "delta", "positivity", "bigness", "xq")}
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
    return raw, result, ["key", "value"], rows


# the model commands import crmorse.model, the lattice and demo commands
# crmorse.morse and crmorse.oracles, each inside its handler


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
        if not np.isfinite(out[i]):
            raise InputError("--z component %d must be finite, got %r" % (i, part))
    return out


def _cmd_szego(args):
    from .model import _szego_table

    raw = _read_input(args)
    data = parse_model(raw)
    cs, densities = _szego_table(data)
    qs = list(range(data.d + 1)) if args.q is None else [_int_arg(args.q, "--q", 0, data.d)]
    result = {
        "d": data.d,
        "delta": data.delta,
        "roots": list(cs.roots),
        "intervals": [[list(iv) for iv in per_q] for per_q in cs.intervals],
        "densities": densities,
    }
    return raw, result, ["q", "density"], [[q, densities[q]] for q in qs]


def _cmd_extremal(args):
    from .model import _MAX_NODES, _extremal_form

    raw = _read_input(args)
    data = parse_model(raw)
    z = _parse_z(args.z, data.d)
    nodes = _int_arg(args.nodes, "--nodes", 16, _MAX_NODES)
    form = _extremal_form(data, args.q, z, args.theta, nodes, "--")
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
    return raw, result, ["field", "re", "im"], rows


def _cmd_bergman(args):
    from .model import _bergman_diag, _bruteforce, _degree_cap

    raw = _read_input(args)
    data = parse_model(raw)
    max_degree = _int_arg(args.max_degree, "--max-degree", 0, _degree_cap(data.d))
    z = _parse_z(args.z, data.d)
    val, m, ine = _bergman_diag(data, args.eta, args.q, z, "--")
    bruteforce = rel_gap = None
    if ine.pos == data.d and args.q == 0 and not np.any(z):
        bruteforce = _bruteforce(data, m, ine, max_degree)
        if bruteforce != 0.0:
            rel_gap = (val.value - bruteforce) / bruteforce
    rows = [["value", val.value], ["boundary", val.boundary], ["bruteforce", bruteforce], ["rel_gap", rel_gap]]
    result = dict(rows, eta=args.eta, q=args.q, z=[[v.real, v.imag] for v in z])
    return raw, result, ["key", "value"], [[key, "" if v is None else v] for key, v in rows]


def _calibrate_to(path, flag: str) -> LatticeCalibration:
    """A fresh calibration record, saved at ``path``; a write
    error names ``flag``."""
    from .oracles import calibrate, save_calibration

    cal = calibrate()
    try:
        save_calibration(cal, path)
    except OSError as exc:
        raise _file_error(flag, "write", path, exc) from exc
    return cal


def _load_or_make_cal(path) -> LatticeCalibration:
    """The --cal record at ``path``, made and saved there if absent."""
    from .oracles import load_calibration

    if not Path(path).is_file():
        return _calibrate_to(path, "--cal")
    try:
        return load_calibration(path)
    except OSError as exc:
        raise _file_error("--cal", "read", path, exc) from exc


def _torus_report(args, spec: TorusBundleSpec):
    """The --cal record, the field it gives ``spec`` and that field's
    report, once --q is checked against spec.d and spec.d against the
    dimensions whose exact counts a sweep finishes (oracles._LATTICE_D), in
    that order."""
    from .morse import build_morse_report
    from .oracles import _LATTICE_D, _lattice_field

    if args.q is not None:
        _int_arg(args.q, "--q", 0, spec.d)
    _int_arg(spec.d, "d", 1, _LATTICE_D)
    cal = _load_or_make_cal(args.cal)
    field = _lattice_field(spec, cal)
    return cal, field, build_morse_report(field)


def _cmd_torus_demo(args):
    from .oracles import _dimension_sums

    raw = _read_input(args, DEFAULT_TORUS_DOC)
    spec = parse_torus(raw)
    k = _int_arg(args.k, "--k", 1)
    cal, _, rep = _torus_report(args, spec)
    oracle = _dimension_sums(spec, [k], cal, "--k")[0]
    doc = _report_doc(rep, k, "mu")
    qs = range(spec.d + 1) if args.q is None else [args.q]
    result = {key: doc[key] for key in ("delta", "k", "densities", "weakBounds", "strongSums", "rrhTotal")}
    result.update(d=spec.d, oracleDims=oracle)
    rows = [[q, rep.densities[q], doc["weakBounds"][q], oracle[q]] for q in qs]
    return raw, result, ["q", "density", "weak_bound", "oracle_dim"], rows


def _cmd_heisenberg_demo(args):
    from .oracles import heisenberg_field

    raw = _read_input(args, DEFAULT_HEISENBERG_DOC)
    return _report(args, raw, heisenberg_field(parse_heisenberg(raw)))


def _cmd_levi_flat_demo(args):
    raw = _read_input(args, DEFAULT_LEVI_DOC)
    return _report(args, raw, parse_levi_flat(raw))


def _cmd_calibrate(args):
    cal = _calibrate_to(args.out, "--out")
    sys.stdout.write(
        "calibration written to %s (c_dim=%s, c_mode=%s)\n"
        % (args.out, cal.c_dim, cal.c_mode)
    )


# a signed total within this fraction of the density sum, which bounds it,
# is the rounding of a total that vanishes: the chamber engine reads
# eigenvalues to 1e-9 of the pencil's scale
_EULER_MARGIN = 1e-9
_MAX_LEVELS = 1000  # levels k of one convergence sweep, at most


def _cmd_convergence(args):
    from .morse import _weak_bounds
    from .oracles import _WINDOW_RANGE, _dimension_sums

    if not (args.input or args.example):
        raise InputError("convergence needs --example or --input")
    raw = _read_input(args, EXAMPLE_TORUS_DOCS.get(args.example))
    spec = parse_torus(raw)
    source = "input" if args.input else args.example
    kmin = _int_arg(args.kmin, "--kmin", 1)
    kmax = _int_arg(args.kmax, "--kmax", kmin)
    least = (kmax - kmin) // _MAX_LEVELS + 1  # the least --kstep that sweeps at most _MAX_LEVELS levels
    kstep = max(1, (kmax - kmin) // 9) if args.kstep is None else _int_arg(args.kstep, "--kstep", least)
    ks = list(range(kmin, kmax + 1, kstep))
    cal, field, rep = _torus_report(args, spec)
    q = args.q
    dens = rep.rrh_total if q is None else rep.densities[q]  # the signed total in Euler mode
    # a total of 0 vanishes; otherwise a density sum out of range is left
    # to the range error of the bounds below
    if q is None and (dens == 0.0 or abs(dens) <= _EULER_MARGIN * sum(rep.densities) < math.inf):
        raise InputError("mu, lambda: the signed density total is 0 or within 1e-9 of the density sum; "
                         "no Euler comparison")
    if dens == 0.0:
        raise InputError("--q %d: the q=%d density vanishes for this spec; no ratio to report" % (q, q))
    # windows grow with k, so the first and last levels swept bound the rest;
    # a --kmax beyond the last level reached is not an error, and a range
    # error shows the digits of the level --kmax reached
    _float_range(lambda: ks[0] * spec.delta, _WINDOW_RANGE % ("--kmin", _digits(kmin)))
    _float_range(lambda: ks[-1] * spec.delta, _WINDOW_RANGE % ("--kmax", _digits(ks[-1])))
    # the last level has the largest bound, so it is checked first
    bounds = [_weak_bounds(k, rep.n, [dens], "--kmax")[0] for k in reversed(ks)][::-1]
    levels = _dimension_sums(spec, ks, cal, "--kmax")
    oracles = [sum((-1) ** j * s for j, s in enumerate(sums)) if q is None else sums[q] for sums in levels]
    ratios = _float_range(lambda: [o / b for o, b in zip(oracles, bounds)], _REPORT_RANGE % "--kmax")
    header = ["k", "oracle", "bound", "ratio"]
    rows = list(zip(ks, oracles, bounds, ratios))
    result = {
        "source": source,
        "d": spec.d,
        "delta": spec.delta,
        "mode": "euler" if q is None else "density",
        "q": q,
        "weight": field.weights[0],
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return raw, result, header, rows


# ----------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    """The crmorse parser: each command's namespace holds its handler."""
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

    p = add("morse", _cmd_morse, "full Morse density report for a field")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--k", type=int, default=None, help="also emit k^n weak bounds")
    p.add_argument("--threads", type=int, default=1,
                   help="validated (>= 1) but unused: computation is single-threaded")

    p = add("classify", _cmd_classify, "positivity, X(q), and bigness verdicts")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="validated (>= 1) but unused: computation is single-threaded")

    p = add("szego-density", _cmd_szego, "model Szego density per degree")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--q", type=int, default=None)

    p = add("extremal-check", _cmd_extremal, "extremal form with norm and peak checks")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--z", metavar="RE,IM;...", default=None)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--nodes", type=int, default=64, help="eta quadrature nodes per chamber, 16..4096")

    p = add("bergman-check", _cmd_bergman, "closed-form Bergman density vs brute force")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--z", metavar="RE,IM;...", default=None)
    p.add_argument("--max-degree", type=int, default=2, dest="max_degree",
                   help="monomial degree of the Gram oracle: at most 12 and 1024 monomials")

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

    p = add("calibrate", _cmd_calibrate, "compute and freeze the lattice constants", parents=())
    p.add_argument("--out", metavar="PATH", default=DEFAULT_CAL_PATH)

    p = add("convergence", _cmd_convergence, "oracle/bound ratio as k grows")
    p.add_argument("--example", choices=tuple(EXAMPLE_TORUS_DOCS), default=None)
    p.add_argument("--input", metavar="PATH", default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--kmin", type=int, default=10)
    p.add_argument("--kmax", type=int, default=100)
    p.add_argument("--kstep", type=int, default=None, help="level step; at most 1000 levels")
    p.add_argument("--cal", metavar="PATH", default=DEFAULT_CAL_PATH)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, dispatch, and map exceptions to documented exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with an int code
        return exc.code
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        table = handler(args)
        if table is not None:  # calibrate writes its own line
            _emit(args, *table, started)
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
    """Console entry point: run() the command, flush the output streams and
    end with os._exit, skipping interpreter teardown (tens of milliseconds
    of a short command).  atexit handlers do not run; callers that need
    them call run().  A flush that fails, as on a closed pipe, falls back
    to the normal exit, which reports it."""
    code = run()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)

