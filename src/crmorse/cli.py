"""Command line interface.

Every subcommand reads JSON documents, computes through the library, and
emits either a canonical JSON report or a plain CSV table.  Reports are
byte-deterministic except for the ``timing_s`` field.  Exit codes: 0 on
success, 2 for input problems, 3 for degenerate pencils, 4 for a
calibration record that fails re-derivation.

Only numpy, the pencil engine and serialization are imported up front,
and the input digest comes from CPython's built-in SHA-256, so no command
loads OpenSSL.
Each parser and handler imports the layer it runs (morse, model or
oracles), so a command pays start-up only for the modules it uses.  This
module holds the document parsers, the shared output code and the field
commands (``chambers``, ``morse``, ``classify``); the model and the
lattice/demo commands live in ``cli_model`` and ``cli_lattice``, imported
only when one of their commands runs.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import numbers
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from .errors import CalibrationError, DegeneratePencilError, InputError
from .pencil import HermitianMatrix, _decompose, _symmetrized
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
    from .morse import MorseReport, PencilField, PencilPoint
    from .oracles import HeisenbergSpec, TorusBundleSpec

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


def _matrix_stack(values: List[Any], d: int) -> Optional[np.ndarray]:
    """The symmetrized (len(values), d, d) stack of the matrix documents
    ``values`` of a field: one conversion and one Hermitian check for all
    of them.  None when any is malformed, not finite or not Hermitian, for
    the walk of _hermitian to name the first fault."""
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


def _hermitian(value: Any, path: str, d: int, what: str) -> HermitianMatrix:
    """One matrix document, walked element by element to name the first
    fault at its JSON path."""
    if not isinstance(value, list):
        _fail(path, "expected a matrix as a list of rows")
    if len(value) != d:
        _fail(path, "matrix dimension %d does not match %s = %d" % (len(value), what, d))
    raw = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != d:
            _fail("%s[%d]" % (path, i), "expected a row of %d entries" % d)
        for j, cell in enumerate(row):
            raw[i, j] = _entry(cell, "%s[%d][%d]" % (path, i, j))
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


def _point(praw: Any, path: str, d: int) -> PencilPoint:
    from .morse import PencilPoint

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
    return PencilPoint(label, r, el, weight)


def _stacked_points(raw_points: List[Any], d: int) -> Optional[List[PencilPoint]]:
    """Every sample point, with the R and L matrices of all points parsed
    as one stack; None when any point has a fault."""
    from .morse import PencilPoint

    try:
        labels = [p["label"] for p in raw_points]
        weights = [p.get("weight", 1.0) for p in raw_points]
        stack = _matrix_stack([p[key] for p in raw_points for key in ("R", "L")], d)
        if stack is None or not set(map(type, weights)) <= _JSON_NUMBERS:
            return None
        weights = [float(w) for w in weights]
    except (AttributeError, KeyError, TypeError, OverflowError):  # not an object, a key missing, a huge int
        return None
    if not all(type(label) is str and label for label in labels):
        return None
    if not all(math.isfinite(w) and w > 0.0 for w in weights):
        return None
    wrap = HermitianMatrix._from_symmetrized
    return [
        PencilPoint(label, wrap(stack[2 * i]), wrap(stack[2 * i + 1]), w)
        for i, (label, w) in enumerate(zip(labels, weights))
    ]


def parse_field(data: Any) -> PencilField:
    """Parse a crmorse/field-v1 document into a PencilField.

    Errors carry the JSON path of the offending element.  Matrices may
    deviate from exact Hermitian symmetry by up to 1e-9 and are
    symmetrized on ingestion.
    """
    from .morse import PencilField

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
    points = _stacked_points(raw_points, d)
    if points is None:  # a fault: walk the points to name the first one
        points = [_point(praw, "points[%d]" % i, d) for i, praw in enumerate(raw_points)]
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
    if default_doc is None:
        raise InputError("this command requires --input")
    return (canonical_json(default_doc) + "\n").encode()


def _check_threads(args) -> None:
    """Validate --threads; computation is single-threaded."""
    if args.threads is not None and args.threads < 1:
        raise InputError("--threads must be >= 1, got %d" % args.threads)


def _finite(compute: Callable[[], Sequence[float]], source: str) -> List[float]:
    """The numbers ``compute`` gives, once each is finite.  A number out of
    floating-point range, or an integer too large to meet a float, is an
    input error naming ``source``, the input that scaled it there."""
    try:
        values = list(compute())
    except OverflowError:  # an int beyond float range times or over a float
        values = [math.inf]
    if not all(math.isfinite(v) for v in values):
        raise InputError("%s: the reported values leave floating-point range" % source)
    return values


def _digest(raw: bytes) -> str:
    return "sha256:" + sha256(raw).hexdigest()


def _emit(args, command: str, raw: bytes, result: Dict, csv_text: str, started: float) -> None:
    if args.format == "csv":
        text = csv_text
    else:
        payload = {
            "schema": REPORT_SCHEMA,
            "command": command,
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


def _xq_doc(x) -> Dict:
    return {"holds": x.holds, "maxDelta": x.max_delta}


def _positivity_doc(p) -> Dict:
    return {
        "positiveEverywhere": p.positive_everywhere,
        "semiPositiveDelta": p.semi_positive_delta,
        "positiveSomewhere": p.positive_somewhere,
    }


def _weak_bounds(rep: MorseReport, k: Optional[int], source: str) -> Optional[List[float]]:
    """k^n times each density (None without k), once every density and sum
    of the report is checked finite.  The input error names ``source``
    for a report out of range and --k for a k below 1 or a weak bound out
    of range."""
    _finite(lambda: rep.densities + rep.strong_sums + [rep.rrh_total], source)
    if k is None:
        return None
    if k < 1:
        raise InputError("--k must be >= 1, got %d" % k)
    return _finite(lambda: [k**rep.n * dens for dens in rep.densities], "--k")


def _report_doc(rep: MorseReport, k: Optional[int], weak: Optional[List[float]]) -> Dict:
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
        doc["k"] = k
        doc["weakBounds"] = weak
    return doc


def _report_csv(rep: MorseReport, weak: Optional[List[float]]) -> str:
    weak = [""] * len(rep.densities) if weak is None else weak
    rows = [
        [q, dens, rep.strong_sums[q], w, rep.xq[q].holds, rep.xq[q].max_delta]
        for q, (dens, w) in enumerate(zip(rep.densities, weak))
    ]
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
    if not delta > 0.0:
        raise InputError("--delta must be positive, got %g" % delta)
    if not math.isfinite(delta):
        raise InputError("--delta must be finite, got %g" % delta)
    if args.tol is not None and not math.isfinite(args.tol):
        raise InputError("--tol must be finite, got %g" % args.tol)
    if args.tol is not None and args.tol < 0.0:
        raise InputError("--tol must be nonnegative, got %g" % args.tol)
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
    from .morse import _check_delta, build_morse_report

    raw = _read_input(args)
    field = parse_field(raw)
    _check_threads(args)
    delta = None if args.delta is None else _check_delta(field, args.delta, "--delta")
    rep = build_morse_report(field, delta=delta)
    weak = _weak_bounds(rep, args.k, "points[*].weight")
    _emit(args, "morse", raw, _report_doc(rep, args.k, weak), _report_csv(rep, weak), started)


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

    def family(module, handler):
        """The handler of the command-family module ``module``, which is
        imported when the command runs, not when the parser is built."""
        return lambda args, started: getattr(
            importlib.import_module("." + module, __package__), handler
        )(args, started)

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

    p = add("szego-density", family("cli_model", "_cmd_szego"), "model Szego density per degree")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--q", type=int, default=None)

    p = add("extremal-check", family("cli_model", "_cmd_extremal"),
            "extremal form with norm and peak checks")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--z", metavar="RE,IM;...", default=None)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--nodes", type=int, default=64, help="eta quadrature nodes per chamber")

    p = add("bergman-check", family("cli_model", "_cmd_bergman"),
            "closed-form Bergman density vs brute force")
    p.add_argument("--input", metavar="PATH", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--z", metavar="RE,IM;...", default=None)
    p.add_argument("--max-degree", type=int, default=2, dest="max_degree")

    p = add("torus-demo", family("cli_lattice", "_cmd_torus_demo"),
            "torus bundle densities against the exact mode count")
    p.add_argument("--input", metavar="PATH", default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--cal", metavar="PATH", default=DEFAULT_CAL_PATH)

    p = add("heisenberg-demo", family("cli_lattice", "_cmd_heisenberg_demo"),
            "Heisenberg quotient report")
    p.add_argument("--input", metavar="PATH", default=None)
    p.add_argument("--k", type=int, default=None)

    p = add("levi-flat-demo", family("cli_lattice", "_cmd_levi_flat_demo"),
            "Levi-flat product report")
    p.add_argument("--input", metavar="PATH", default=None)
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("calibrate", help="derive and freeze the lattice constants")
    p.set_defaults(handler=family("cli_lattice", "_cmd_calibrate"))
    p.add_argument("--out", metavar="PATH", default=DEFAULT_CAL_PATH)

    p = add("convergence", family("cli_lattice", "_cmd_convergence"),
            "oracle/bound ratio as k grows")
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


if __name__ == "__main__":
    main()
