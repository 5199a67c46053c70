"""End-to-end tests of the command line surface.

Each command is invoked through run() in-process; outputs go to temp
files.  Checks cover the documented exit codes (0 ok, 2 input, 3
degenerate pencil, 4 calibration), path-precise parse errors, byte
determinism modulo the timing field, and a few frozen numeric values.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import crmorse
import crmorse.__main__
import crmorse.cli
from crmorse.cli import parse_field, parse_model, run, serialize_field
from crmorse.errors import InputError
from oracle_tools import HUGE, TWO_PI, mat

# every case fails on any warning, not only on the RuntimeWarning that
# pyproject.toml escalates, since the warnings plugin would otherwise take
# a warning before capsys sees it: a refusal is one stderr line, no more.
# The one exemption is the warning of mypy_extensions, which hypothesis's
# failure report imports (through libcst) inside pytest's report hook: as
# an error there, it ends the run in INTERNALERROR instead of reporting a
# failing property with its falsifying example
pytestmark = [
    pytest.mark.filterwarnings("error"),
    pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"),
]


def point_doc(label, r, el, weight=1.0):
    return {"label": label, "weight": weight, "R": mat(r), "L": mat(el)}


def field_doc(n, delta, points):
    return {"schema": "crmorse/field-v1", "n": n, "delta": delta, "points": points}


MINIMAL = field_doc(2, 1.0, [point_doc("p0", [[2]], [[1]])])

MODEL_DOC = {
    "schema": "crmorse/model-v1",
    "d": 1,
    "lambda": [1.0],
    "mu": [[[3.0, 0.0]]],
    "delta": 1.0,
}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def strip_timing(text):
    return re.sub(r'"timing_s": [^,\n]+', '"timing_s": X', text)


# -------------------------------------------------------------- parsing


def test_parse_field_minimal():
    field = parse_field(json.dumps(MINIMAL).encode())
    assert field.n == 2
    assert field.delta == 1.0
    assert field.points[0].label == "p0"
    np.testing.assert_allclose(field.points[0].r.entries, [[2.0]])


def test_parse_field_path_precise_errors():
    with pytest.raises(InputError, match="not valid JSON"):
        parse_field(b"{nope")
    with pytest.raises(InputError, match="schema"):
        parse_field(json.dumps({"n": 2}).encode())
    bad_herm = field_doc(
        3,
        1.0,
        [
            {
                "label": "p0",
                "weight": 1.0,
                "R": [
                    [[1.0, 0.0], [0.0, 1.0]],
                    [[0.0, 1.0], [1.0, 0.0]],
                ],
                "L": mat([[1, 0], [0, 1]]),
            }
        ],
    )
    with pytest.raises(InputError, match=r"points\[0\]\.R"):
        parse_field(json.dumps(bad_herm).encode())
    bad_weight = field_doc(2, 1.0, [point_doc("p0", [[2]], [[1]], weight=0.0)])
    with pytest.raises(InputError, match=r"points\[0\]\.weight"):
        parse_field(json.dumps(bad_weight).encode())
    bad_entry = field_doc(
        2, 1.0, [{"label": "p", "weight": 1.0, "R": [[[1.0]]], "L": mat([[1]])}]
    )
    with pytest.raises(InputError, match=r"points\[0\]\.R\[0\]\[0\]"):
        parse_field(json.dumps(bad_entry).encode())
    bad_dim = field_doc(3, 1.0, [point_doc("p0", [[2]], [[1]])])
    with pytest.raises(InputError, match="dim"):
        parse_field(json.dumps(bad_dim).encode())


def test_parse_field_entry_types():
    # json gives int and float for numbers; both are read exactly, signed zeros too
    doc = field_doc(2, 1.0, [point_doc("p0", [[2]], [[1]])])
    doc["points"][0]["R"] = [[[3, -0.0]]]
    doc["points"][0]["L"] = [[[0.5, 0]]]
    point = parse_field(json.dumps(doc).encode()).points[0]
    assert point.r.entries.tobytes() == np.array([[3.0 + 0.0j]]).tobytes()
    assert point.el.entries.tobytes() == np.array([[0.5 + 0.0j]]).tobytes()
    for entry, message in [
        ([True, 0], "points[0].R[0][0][0]: expected a real number, got True"),
        ([1, False], "points[0].R[0][0][1]: expected a real number, got False"),
        (["1", 0], "points[0].R[0][0][0]: expected a real number, got '1'"),
        ([1, None], "points[0].R[0][0][1]: expected a real number, got None"),
        ([1], "points[0].R[0][0]: expected an [re, im] pair, got [1]"),
    ]:
        doc["points"][0]["R"] = [[entry]]
        with pytest.raises(InputError) as exc:
            parse_field(json.dumps(doc).encode())
        assert str(exc.value) == message
    doc["points"][0]["R"] = [[[2, 0]]]
    text = json.dumps(doc).replace("[[[0.5, 0]]]", "[[[0.5, NaN]]]")
    with pytest.raises(InputError) as exc:
        parse_field(text.encode())
    assert str(exc.value) == "points[0].L[0][0][1]: expected a finite number, got nan"


def test_nan_beside_a_part_near_the_float_maximum_is_named_without_a_warning():
    # a nan leaves its matrix unscaled in the Hermitian check, where the
    # 1e308 imaginary part of a diagonal entry doubles beyond float range;
    # the walk names the nan, with no overflow warning on the way
    doc = field_doc(3, 1.0, [point_doc("p0", [[1, 0], [0, 1 + 1e308j]], np.eye(2))])
    text = json.dumps(doc).replace("[0.0, 0.0]", "[NaN, 0.0]", 1)
    with pytest.raises(InputError) as exc:
        parse_field(text.encode())
    assert str(exc.value) == "points[0].R[0][1][0]: expected a finite number, got nan"


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda doc: doc["points"][0].update(weight=HUGE), "points[0].weight"),
        (lambda doc: doc.update(delta=HUGE), "delta"),
        # the fast np.array path overflows, and the walk names the entry
        (lambda doc: doc["points"][0]["R"][0][0].__setitem__(0, HUGE), "points[0].R[0][0][0]"),
        (lambda doc: doc["points"][0].update(L=[[[0.0, -HUGE]]]), "points[0].L[0][0][1]"),
    ],
)
def test_huge_integer_names_json_path(tmp_path, capsys, mutate, where):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    inp = write_json(tmp_path, "f.json", doc)
    assert run(["morse", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == "error: %s: expected a finite number, got an integer of 400 digits\n" % where


def test_huge_integer_in_element_walk(tmp_path, capsys):
    # a ragged matrix skips the fast path; the walk meets the huge entry first
    doc = field_doc(3, 1.0, [point_doc("p0", [[1, 0], [0, 1]], [[1, 0], [0, 1]])])
    doc["points"][0]["R"] = [[[1, 0], [0, HUGE]], [[0, 0]]]
    inp = write_json(tmp_path, "f.json", doc)
    assert run(["chambers", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == (
        "error: points[0].R[0][1][1]: expected a finite number, got an integer of 400 digits\n"
    )
    model = dict(MODEL_DOC, **{"lambda": [-HUGE]})
    inp = write_json(tmp_path, "m.json", model)
    assert run(["szego-density", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == "error: lambda[0]: expected a finite number, got an integer of 400 digits\n"
    # the Heisenberg lambda, the one integer list of a document, is held to float range too
    spec = {"schema": "crmorse/heisenberg-v1", "d": 1, "lambda": [10**400], "mu": mat([[3]]), "delta": 0.5}
    inp = write_json(tmp_path, "h.json", spec)
    assert run(["heisenberg-demo", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == "error: lambda[0]: expected a finite number, got an integer of 401 digits\n"
    with pytest.raises(InputError, match=r"^lambda_vec\[0\]: expected an integer that a float holds exactly, "
                       r"got an integer of 401 digits$"):
        crmorse.HeisenbergSpec(d=1, lambda_vec=[10**400], mu_mat=[[3]], delta=0.5)


def test_integer_too_long_to_parse(tmp_path, capsys):
    # json.loads refuses integers of more than 4300 digits on Python >= 3.11
    inp = tmp_path / "f.json"
    inp.write_text(json.dumps(MINIMAL).replace('"weight": 1.0', '"weight": ' + "7" * 5000))
    assert run(["morse", "--input", str(inp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("error: document is not valid JSON:", "error: points[0].weight:"))


def test_field_round_trip():
    doc = field_doc(
        3,
        0.75,
        [
            point_doc("a", [[1, 1j], [-1j, 2]], [[1, 0], [0, -1]], 0.25),
            point_doc("b", [[2, 0], [0, 3]], [[0, 1], [1, 0]], 2.0),
        ],
    )
    field1 = parse_field(json.dumps(doc).encode())
    field2 = parse_field(json.dumps(serialize_field(field1)).encode())
    assert field2.n == field1.n
    assert field2.delta == field1.delta
    for p1, p2 in zip(field1.points, field2.points):
        assert p1.label == p2.label
        assert p1.weight == p2.weight
        np.testing.assert_array_equal(p1.r.entries, p2.r.entries)
        np.testing.assert_array_equal(p1.el.entries, p2.el.entries)


# -------------------------------------------------------------- chambers


def test_chambers_csv_frozen(tmp_path):
    inp = write_json(tmp_path, "f.json", MINIMAL)
    out = tmp_path / "chambers.csv"
    code = run(["chambers", "--input", str(inp), "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lo,hi,neg,zero,pos,det_sign,mass"
    cells = lines[1].split(",")
    assert float(cells[0]) == pytest.approx(-1.0, abs=1e-9)
    assert float(cells[1]) == 1.0
    assert cells[2:6] == ["0", "0", "1", "1"]
    assert float(cells[6]) == pytest.approx(4.0, rel=1e-12)


def test_chambers_json_deterministic(tmp_path):
    inp = write_json(tmp_path, "f.json", MINIMAL)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["chambers", "--input", str(inp), "--out", str(out1)]) == 0
    assert run(["chambers", "--input", str(inp), "--out", str(out2)]) == 0
    assert strip_timing(out1.read_text()) == strip_timing(out2.read_text())
    doc = json.loads(out1.read_text())
    assert doc["schema"] == "crmorse/report-v1"
    assert doc["command"] == "chambers"
    assert doc["input_digest"].startswith("sha256:")
    assert len(doc["input_digest"]) == len("sha256:") + 64
    assert doc["result"]["roots"] == [pytest.approx(-1.0, abs=1e-9)]
    assert isinstance(doc["timing_s"], float)


def test_chambers_point_out_of_range(tmp_path, capsys):
    inp = write_json(tmp_path, "f.json", MINIMAL)
    assert run(["chambers", "--input", str(inp), "--point", "5"]) == 2
    assert "point" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--delta", "1e308", "delta 1e+308 puts R + 2sL out of floating-point range at s = +-delta"),
    ],
)
def test_chambers_hostile_flags(tmp_path, capsys, flag, value, message):
    inp = write_json(tmp_path, "f.json", MINIMAL)
    assert run(["chambers", "--input", str(inp), flag, value]) == 2
    assert capsys.readouterr().err == "error: sample 'p0': %s\n" % message


def test_chambers_names_the_sample_as_morse_does(tmp_path, capsys):
    # chambers decomposes its sample through the labelled call of morse, so a
    # refusal of the sample is the same line from both commands
    doc = field_doc(2, 1.0, [point_doc("ok", [[2]], [[1]]), point_doc("bad", [[0]], [[0]])])
    inp = str(write_json(tmp_path, "f.json", doc))
    assert run(["morse", "--input", inp]) == 3
    line = capsys.readouterr().err
    assert line.startswith("degenerate pencil: sample 'bad': ")
    assert run(["chambers", "--input", inp, "--point", "1"]) == 3
    assert capsys.readouterr().err == line
    assert run(["chambers", "--input", inp, "--point", "0"]) == 0


BAD_SECOND = field_doc(2, 1.0, [point_doc("ok", [[2]], [[1]]), point_doc("bad", [[0]], [[0]])])
# mu and lambda share the kernel e_2, so M_eta = diag(1 - 2 eta, 0) is singular at every eta
DEGENERATE_MODEL = {"schema": "crmorse/model-v1", "d": 2, "lambda": [1, 0], "mu": mat([[1, 0], [0, 0]]), "delta": 0.5}


@pytest.mark.parametrize(
    "argv, doc, name",
    [
        (["morse"], BAD_SECOND, "sample 'bad'"),
        (["classify"], BAD_SECOND, "sample 'bad'"),
        (["chambers", "--point", "1"], BAD_SECOND, "sample 'bad'"),
        # the pencil 2s diag(1, 2^40): min |eig| at most 2 at every probe, below 1e-9 of its scale 2^41
        (["heisenberg-demo"], {"schema": "crmorse/heisenberg-v1", "d": 2, "lambda": [1, 2**40],
                               "mu": mat([[0, 0], [0, 0]]), "delta": 1.0}, "sample 'heisenberg'"),
        # the model's pencil, R = mu and L = -diag(lambda), is named by the document's keys
        (["szego-density"], DEGENERATE_MODEL, "mu, lambda"),
        (["extremal-check", "--q", "0"], DEGENERATE_MODEL, "mu, lambda"),
    ],
    ids=["morse", "classify", "chambers", "heisenberg-demo", "szego-density", "extremal-check"],
)
def test_a_degenerate_sample_says_degenerate_pencil_once(tmp_path, capsys, argv, doc, name):
    # cli.run names the exit-3 condition; the engine's message names the pencil and the probes
    inp = write_json(tmp_path, "in.json", doc)
    assert run([*argv, "--input", str(inp)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("degenerate pencil: %s: det(R+2sL) is numerically zero at all" % name), err
    assert err.count("degenerate pencil") == 1 and err.count(name + ": ") == 1, err


def test_csv_cells_with_a_comma_quote_or_newline_are_quoted():
    from crmorse.serialize import csv_table

    table = csv_table(["k", "v"], [["a,b", 'say "x"'], ["line\nbreak", 1.5]])
    assert table == 'k,v\n"a,b","say ""x"""\n"line\nbreak",1.5\n'


def test_morse_overflowing_window_names_sample(tmp_path, capsys):
    inp = write_json(tmp_path, "f.json", field_doc(2, 1e308, [point_doc("far", [[2]], [[1]])]))
    assert run(["morse", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == (
        "error: sample 'far': delta 1e+308 puts R + 2sL out of floating-point range at s = +-delta\n"
    )


@pytest.mark.parametrize("command", ["morse", "classify", "chambers"])
def test_entries_near_the_float_maximum_give_one_error_line(tmp_path, capsys, command):
    # symmetrizing R = 1.5e308 must not overflow on the way: a RuntimeWarning
    # would fail the test (pyproject filterwarnings), and stderr holds one line
    inp = write_json(tmp_path, "f.json", field_doc(2, 1.0, [point_doc("big", [[1.5e308]], [[1]])]))
    assert run([command, "--input", str(inp)]) == 2
    assert capsys.readouterr().err == "error: sample 'big': %s\n" % (OUT_OF_RANGE % 1.0)


@pytest.mark.parametrize("command", ["morse", "classify", "chambers"])
def test_a_non_hermitian_entry_near_the_float_maximum_names_its_matrix(tmp_path, capsys, command):
    # |A - A*| and the entry's modulus overflow unless the check scales the
    # matrix first; the symmetrization of this R would read as Hermitian
    r = [[1.3e308 + 1.3e308j, 1], [7, 0]]
    inp = write_json(tmp_path, "f.json", field_doc(3, 1.0, [point_doc("big", r, [[1, 0], [0, 1]])]))
    assert run([command, "--input", str(inp)]) == 2
    assert capsys.readouterr().err == (
        "error: points[0].R: matrix is not Hermitian: max |A - A*| = 2.600e+308 exceeds tolerance 1.838e+299\n"
    )


OUT_OF_RANGE = "delta %g: the integral of |det(R + 2sL)| over [-delta, delta] is out of floating-point range"


@pytest.mark.parametrize("delta", [1e154, 1e300])
def test_chambers_overflowing_integral(tmp_path, capsys, delta):
    # R +- 2 delta L stays finite, but the |det| antiderivative does not; a
    # RuntimeWarning on the way would fail the test (pyproject filterwarnings)
    doc = field_doc(3, 1.0, [point_doc("p0", [[1, 0], [0, -1]], [[1, 0], [0, 1]])])
    inp = write_json(tmp_path, "f.json", doc)
    assert run(["chambers", "--input", str(inp), "--delta", repr(delta)]) == 2
    assert capsys.readouterr().err == "error: sample 'p0': %s\n" % (OUT_OF_RANGE % delta)


def test_chambers_overflowing_det(tmp_path, capsys):
    # entries of 1e200 are finite, but det(R + 2sL) at the probes is not
    doc = field_doc(3, 1.0, [point_doc("p0", [[1e200, 0], [0, -1e200]], [[1e200, 0], [0, 1e200]])])
    inp = write_json(tmp_path, "f.json", doc)
    assert run(["chambers", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == "error: sample 'p0': %s\n" % (OUT_OF_RANGE % 1.0)


def test_chambers_overflowing_mass(tmp_path, capsys):
    # det is 1e10 everywhere: P stays finite at +-delta but their difference does not
    inp = write_json(tmp_path, "f.json", field_doc(2, 1.0, [point_doc("p0", [[1e10]], [[0]])]))
    assert run(["chambers", "--input", str(inp), "--delta", "1e297"]) == 0
    assert run(["chambers", "--input", str(inp), "--delta", "1e298"]) == 2
    assert capsys.readouterr().err == "error: sample 'p0': %s\n" % (OUT_OF_RANGE % 1e298)


# every chamber mass of these is finite, about 1.2e308, but the sum of two
# of one degree is not: t diag(1, 1/4) + 2s t [[0, 1/2], [1/2, 0]] has
# chambers q = 1/0/1 on [-1, 1], and mu - 2 eta diag(t, -t) has chambers
# q = 0/1/0 (its det is t^2 (0.64 - 4 eta^2))
T_FIELD, T_MODEL = 2.6832815729997477e154, 1.075828707279837e154
Q_OVERFLOW_FIELD = field_doc(3, 1.0, [point_doc(
    "p", [[T_FIELD, 0], [0, T_FIELD / 4]], [[0, T_FIELD / 2], [T_FIELD / 2, 0]]
)])
Q_OVERFLOW_MODEL = {
    "schema": "crmorse/model-v1",
    "d": 2,
    "lambda": [T_MODEL, -T_MODEL],
    "mu": mat([[T_MODEL, 0.6 * T_MODEL], [0.6 * T_MODEL, T_MODEL]]),
    "delta": 1.0,
}


@pytest.mark.parametrize(
    "argv, doc, label",
    [
        (["chambers"], Q_OVERFLOW_FIELD, "sample 'p': "),
        (["morse"], Q_OVERFLOW_FIELD, "sample 'p': "),
        (["morse", "--delta", "0.5"], Q_OVERFLOW_FIELD, "sample 'p': "),  # a fault of the field window
        (["classify"], Q_OVERFLOW_FIELD, "sample 'p': "),
        (["szego-density"], Q_OVERFLOW_MODEL, "mu, lambda: "),
        (["extremal-check", "--q", "0"], Q_OVERFLOW_MODEL, "mu, lambda: "),
        (["extremal-check", "--q", "1"], Q_OVERFLOW_MODEL, "mu, lambda: "),
    ],
    ids=["chambers", "morse", "morse-half-window", "classify", "szego-density", "extremal-q0", "extremal-q1"],
)
def test_a_q_mass_out_of_range_is_refused_by_the_engine(tmp_path, capsys, argv, doc, label):
    # an OverflowError from the q-mass sum used to end these in a traceback
    assert run(argv + ["--input", str(write_json(tmp_path, "doc.json", doc))]) == 2
    assert capsys.readouterr().err == "error: %s%s\n" % (label, OUT_OF_RANGE % 1.0)


def bench_gen():
    """The module bench/gen.py, which writes the benchmark's documents."""
    spec = importlib.util.spec_from_file_location("gen", Path(__file__).parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def bench_field(d, seed, scale):
    """bench/gen.py's Gaussian field, every matrix entry times ``scale``."""
    doc = bench_gen().field_doc(seed, d, 100)
    for p in doc["points"]:
        for key in ("R", "L"):
            p[key] = [[[scale * v[0], scale * v[1]] for v in row] for row in p[key]]
    return doc


@pytest.mark.parametrize("size", [0, 3, 2**20 + 1])
def test_input_digest_is_sha256(size):
    # the built-in SHA-256 gives hashlib's hex digest, below and above a megabyte
    raw = bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8))
    assert crmorse.cli._digest(raw) == "sha256:" + hashlib.sha256(raw).hexdigest()


def test_input_digest_of_a_bench_field(tmp_path):
    inp = write_json(tmp_path, "f.json", bench_field(4, 1, 1.0))
    assert run(["classify", "--input", str(inp), "--out", str(tmp_path / "c.json")]) == 0
    doc = json.loads((tmp_path / "c.json").read_text())
    assert doc["input_digest"] == "sha256:" + hashlib.sha256(inp.read_bytes()).hexdigest()


def test_morse_on_a_tiny_field_scales_its_densities(tmp_path):
    # at 1e-12 the former absolute tolerances called every pencil degenerate (exit 3)
    docs = {}
    for scale in (1.0, 1e-12):
        out = tmp_path / ("m%g.json" % scale)
        inp = write_json(tmp_path, "f.json", bench_field(4, 1, scale))
        assert run(["morse", "--input", str(inp), "--out", str(out)]) == 0
        docs[scale] = json.loads(out.read_text())["result"]
    np.testing.assert_allclose(
        docs[1e-12]["densities"], np.multiply(docs[1.0]["densities"], 1e-48), rtol=1e-12
    )


@pytest.mark.parametrize("point", [0, 1, 2])
def test_chambers_on_a_huge_field_short_window(tmp_path, point):
    # entries near 4e37 at d = 8: det reaches 1e300 but the engine works in
    # units of the pencil, so no step overflows (every warning is an error here)
    docs = {}
    for scale in (1.0, 4e37):
        out = tmp_path / ("c%g.json" % scale)
        inp = write_json(tmp_path, "f.json", bench_field(8, 1, scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["chambers", "--input", str(inp), "--point", str(point), "--delta", "0.01",
                        "--out", str(out)])
        assert code == 0
        docs[scale] = json.loads(out.read_text())["result"]
    small, big = docs[1.0], docs[4e37]
    assert big["roots"] == pytest.approx(small["roots"], abs=1e-15)
    assert [c["inertia"] for c in big["chambers"]] == [c["inertia"] for c in small["chambers"]]
    for c, ref in zip(big["chambers"], small["chambers"]):
        assert c["mass"] == pytest.approx(ref["mass"] * 4e37**8, rel=1e-12)


@pytest.mark.parametrize("command", ["morse", "classify"])
def test_field_overflowing_integral_names_sample(tmp_path, capsys, command):
    small = point_doc("small", [[1e-80, 0], [0, -1e-80]], [[1e-80, 0], [0, 1e-80]])
    big = point_doc("big", [[1, 0], [0, -1]], [[1, 0], [0, 1]])
    inp = write_json(tmp_path, "f.json", field_doc(3, 1e154, [small, big]))
    assert run([command, "--input", str(inp)]) == 2
    assert capsys.readouterr().err == "error: sample 'big': %s\n" % (OUT_OF_RANGE % 1e154)


@pytest.mark.parametrize("flat_first", [True, False])
def test_overflow_and_degenerate_samples_named_in_input_order(tmp_path, capsys, flat_first):
    # the mass of "flat" overflows only when its chamber ends are integrated,
    # after "zero" has failed the degeneracy probes; the first in input order wins
    flat = point_doc("flat", [[1e10]], [[0]])
    zero = point_doc("zero", [[0]], [[0]])
    points = [flat, zero] if flat_first else [zero, flat]
    inp = write_json(tmp_path, "f.json", field_doc(2, 1e298, points))
    code = run(["morse", "--input", str(inp)])
    err = capsys.readouterr().err
    if flat_first:
        assert (code, err) == (2, "error: sample 'flat': %s\n" % (OUT_OF_RANGE % 1e298))
    else:
        assert code == 3 and err.startswith("degenerate pencil: sample 'zero': ")


# ----------------------------------------------------------------- morse


def test_morse_json_and_csv(tmp_path):
    doc = field_doc(
        3, 2.0, [point_doc("m", [[1, 0], [0, -1]], [[1, 0], [0, 1]])]
    )
    inp = write_json(tmp_path, "f.json", doc)
    out = tmp_path / "morse.json"
    assert run(["morse", "--input", str(inp), "--k", "10", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["result"]
    assert len(rep["densities"]) == 3
    assert rep["densities"][0] == pytest.approx(9.0 / TWO_PI**3, rel=1e-10)
    assert rep["rrhTotal"] == pytest.approx((52.0 / 3.0) / TWO_PI**3, rel=1e-10)
    assert rep["strongSums"][2] == rep["rrhTotal"]
    assert rep["weakBounds"][0] == pytest.approx(1000.0 * rep["densities"][0], rel=1e-12)
    assert rep["positivity"]["positiveEverywhere"] is False
    assert rep["bigness"]["big"] is False
    csv_out = tmp_path / "morse.csv"
    assert run(["morse", "--input", str(inp), "--k", "10", "--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "q,density,strong_sum,weak_bound,xq_holds,xq_max_delta"
    assert len(lines) == 4


def test_morse_threads_do_not_change_bytes(tmp_path):
    doc = field_doc(
        3,
        1.0,
        [
            point_doc("a", [[1, 1j], [-1j, 2]], [[1, 0], [0, -1]], 0.7),
            point_doc("b", [[2, 0], [0, -1]], [[0, 1], [1, 0]], 1.3),
        ],
    )
    inp = write_json(tmp_path, "f.json", doc)
    out1 = tmp_path / "t1.json"
    out4 = tmp_path / "t4.json"
    assert run(["morse", "--input", str(inp), "--threads", "1", "--out", str(out1)]) == 0
    assert run(["morse", "--input", str(inp), "--threads", "4", "--out", str(out4)]) == 0
    assert strip_timing(out1.read_text()) == strip_timing(out4.read_text())


def test_morse_env_thread_override(tmp_path, monkeypatch):
    inp = write_json(tmp_path, "f.json", MINIMAL)
    for command in ("morse", "classify"):
        plain, env = tmp_path / (command + "-plain.json"), tmp_path / (command + "-env.json")
        assert run([command, "--input", str(inp), "--out", str(plain)]) == 0
        monkeypatch.setenv("CRMORSE_THREADS", "abc")  # not read: only --threads is checked
        assert run([command, "--input", str(inp), "--out", str(env)]) == 0
        monkeypatch.delenv("CRMORSE_THREADS")
        assert strip_timing(env.read_text()) == strip_timing(plain.read_text())
        assert run([command, "--input", str(inp), "--threads", "0"]) == 2


_BIG_K = "1" + "0" * 160  # k^n is beyond float range for every n >= 2

# one weight of 1e308 makes a density infinite; two weights of 1e308 on
# unit masses overflow the exact weighted sum
_HUGE_WEIGHT = field_doc(2, 1.0, [point_doc("p0", [[2]], [[1]], 1e308)])
_HUGE_SUM = field_doc(2, 1.0, [point_doc("p%d" % i, [[0.5]], [[0.1]], 1e308) for i in range(2)])


@pytest.mark.parametrize(
    "argv, doc, names",
    [
        (["morse"], _HUGE_WEIGHT, "points[*].weight"),
        (["morse", "--format", "csv"], _HUGE_SUM, "points[*].weight"),
        (["morse", "--k", _BIG_K], MINIMAL, "--k"),
        (["heisenberg-demo", "--k", _BIG_K], None, "--k"),
        (["levi-flat-demo", "--k", _BIG_K, "--format", "csv"], None, "--k"),
        (["torus-demo", "--k", _BIG_K, "--cal", "{cal}"], None, "--k"),
        (["convergence", "--example", "torus-d1", "--kmin", _BIG_K, "--kmax", _BIG_K, "--cal", "{cal}"],
         None, "--kmax"),
        (["convergence", "--example", "torus-d2-indefinite", "--q", "1", "--kmin", _BIG_K,
          "--kmax", _BIG_K, "--cal", "{cal}"], None, "--kmax"),
    ],
)
def test_non_finite_report_values_exit_2(tmp_path, capsys, argv, doc, names):
    argv = [a.replace("{cal}", str(tmp_path / "cal.json")) for a in argv]
    if doc is not None:
        argv += ["--input", str(write_json(tmp_path, "f.json", doc))]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % names) and "floating-point range" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_classify_ignores_overflowing_densities(tmp_path):
    # classify prints no densities, so a weight that overflows them is fine
    for doc in (_HUGE_WEIGHT, _HUGE_SUM):
        assert run(["classify", "--input", str(write_json(tmp_path, "f.json", doc))]) == 0


def test_mixed_sign_total_in_range_is_reported(tmp_path, capsys):
    # every density and the exact signed total are 3.6e305, but the first
    # two samples' signed integrals, 0.9e308 each, overflow as a partial sum
    t = math.sqrt(0.45e308)
    pencils = [[[t, 0], [0, t]], [[-t, 0], [0, -t]], [[t, 0], [0, -t]]]
    zero = [[0, 0], [0, 0]]
    doc = field_doc(3, 1, [point_doc("p%d" % i, r, zero) for i, r in enumerate(pencils)])
    out = tmp_path / "m.json"
    assert run(["morse", "--input", str(write_json(tmp_path, "f.json", doc)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    result = json.loads(out.read_text())["result"]
    signed = [
        crmorse.pencil_signed_integral(crmorse.HermitianMatrix(r), crmorse.HermitianMatrix(zero), 1.0)
        for r in pencils
    ]
    want = float(sum(map(Fraction, signed))) / (2 * math.pi) ** 3
    assert result["rrhTotal"] == result["strongSums"][2] == want
    assert want == pytest.approx(3.628e305, rel=1e-3)


def test_degenerate_field_exit_code(tmp_path, capsys):
    doc = field_doc(3, 1.0, [point_doc("dead", [[1, 0], [0, 0]], [[1, 0], [0, 0]])])
    inp = write_json(tmp_path, "f.json", doc)
    assert run(["morse", "--input", str(inp)]) == 3
    err = capsys.readouterr().err
    assert "dead" in err
    # the message gives the probed range and the least singular probe's margin
    assert re.search(r"all 4 probes in \[-1, 1\] \(least singular: min \|eig\| = \S+ vs tol \S+ at s=", err)


def test_missing_input_exit_code(tmp_path):
    assert run(["morse", "--input", str(tmp_path / "absent.json")]) == 2


# -------------------------------------------------------------- classify


def test_classify_output(tmp_path):
    doc = field_doc(3, 0.5, [point_doc("h", [[3, 1], [1, 3]], [[1, 0], [0, 2]])])
    inp = write_json(tmp_path, "f.json", doc)
    out = tmp_path / "c.json"
    assert run(["classify", "--input", str(inp), "--out", str(out)]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["positivity"]["positiveEverywhere"] is True
    assert res["bigness"]["big"] is True
    assert res["xq"][1]["holds"] is True


MIXED_FIELD = field_doc(
    3,
    1.0,
    [
        point_doc("a", [[1, 1j], [-1j, 2]], [[1, 0], [0, -1]], 0.7),
        point_doc("b", [[2, 0], [0, -1]], [[0, 1], [1, 0]], 1.3),
        point_doc("c", [[1, 0], [0, 1]], [[1, 1], [1, 1]], 0.1),
    ],
)


def test_classify_matches_morse_report(tmp_path):
    inp = write_json(tmp_path, "f.json", MIXED_FIELD)
    assert run(["classify", "--input", str(inp), "--out", str(tmp_path / "c.json")]) == 0
    assert run(["morse", "--input", str(inp), "--out", str(tmp_path / "m.json")]) == 0
    cls = json.loads((tmp_path / "c.json").read_text())["result"]
    rep = json.loads((tmp_path / "m.json").read_text())["result"]
    for key in ("positivity", "xq", "bigness"):
        assert cls[key] == rep[key]


# ----------------------------------------------------- model subcommands


def test_szego_density_command(tmp_path):
    inp = write_json(tmp_path, "m.json", MODEL_DOC)
    out = tmp_path / "s.json"
    assert run(["szego-density", "--input", str(inp), "--out", str(out)]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["densities"][0] == pytest.approx(6.0 / (4.0 * math.pi**2), rel=1e-12)
    assert res["densities"][1] == 0.0
    csv_out = tmp_path / "s.csv"
    assert run(["szego-density", "--input", str(inp), "--q", "0", "--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "q,density"
    assert lines[1].startswith("0,")


def test_extremal_check_command(tmp_path):
    inp = write_json(tmp_path, "m.json", MODEL_DOC)
    out = tmp_path / "e.json"
    assert run(["extremal-check", "--input", str(inp), "--q", "0", "--nodes", "64", "--out", str(out)]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["norm_check"] == pytest.approx(1.0, abs=1e-9)
    assert res["peak_check"] == pytest.approx(1.0, abs=1e-9)
    assert res["value"][0][0] == pytest.approx(math.sqrt(6.0) / TWO_PI, rel=1e-9)


def test_extremal_check_empty_chamber_exit(tmp_path, capsys):
    inp = write_json(tmp_path, "m.json", MODEL_DOC)
    assert run(["extremal-check", "--input", str(inp), "--q", "1"]) == 2
    assert "zero extremal mass" in capsys.readouterr().err


def test_bergman_check_command(tmp_path):
    inp = write_json(tmp_path, "m.json", MODEL_DOC)
    out = tmp_path / "b.json"
    assert run([
        "bergman-check", "--input", str(inp), "--eta", "0.5", "--q", "0",
        "--max-degree", "3", "--out", str(out),
    ]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["value"] == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert res["boundary"] is False
    assert res["bruteforce"] == pytest.approx(1.0 / math.pi, rel=1e-9)
    assert abs(res["rel_gap"]) < 1e-9


BENCH_MODEL_D2 = bench_gen().model_doc(1, 2)  # bench/gen.py model --d 2 --seed 1
BENCH_MODEL_D4 = bench_gen().model_doc(1, 4)
SZEGO = ["szego-density"]
EXTREMAL = ["extremal-check", "--q", "0", "--nodes", "16"]
BERGMAN = ["bergman-check", "--q", "0", "--eta", "-0.5"]
MASS_RANGE = "q=0: the q-chamber mass of |det M_eta| leaves floating-point range"
DET_RANGE = "--eta: |det M_eta| leaves floating-point range"
MODEL_OUT_OF_RANGE = "mu, lambda: " + OUT_OF_RANGE % 1.0  # the engine names the model pencil by its keys
UNIT_MODEL_D2 = {"schema": "crmorse/model-v1", "d": 2, "lambda": [1.0, 1.0], "mu": mat(np.eye(2)), "delta": 1.0}

# (model, lambda scaled with mu, t, argv, the error line, or None where the
# command exits 0)
SCALED_MODEL_RUNS = [
    *((BENCH_MODEL_D2, True, 2.0**k, argv, expected) for k, errors in [
        (-1000, [MASS_RANGE, MASS_RANGE, DET_RANGE]),
        (-520, [MASS_RANGE, MASS_RANGE, DET_RANGE]),
        (-400, [None] * 3),
        (260, [None] * 3),
        (400, [None] * 3),
        (1000, [MODEL_OUT_OF_RANGE, MODEL_OUT_OF_RANGE, DET_RANGE]),
    ] for argv, expected in zip([SZEGO, EXTREMAL, BERGMAN], errors)),
    (BENCH_MODEL_D4, True, 1e-10, EXTREMAL, None),
    (BENCH_MODEL_D4, True, 1e-10, BERGMAN, None),
    # mu = t I at unit lambda: Gram blocks M^-(d + k) beyond float range, and
    # a |det M_eta| below the normal floats
    (UNIT_MODEL_D2, False, 1e80, ["bergman-check", "--q", "0", "--eta", "0"], None),
    (UNIT_MODEL_D2, False, 1e100, ["bergman-check", "--q", "0", "--eta", "0"], None),
    (UNIT_MODEL_D2, False, 1e-180, ["bergman-check", "--q", "0", "--eta", "0"], DET_RANGE),
    # a reported density or value, mass / (2pi)^n or |det M_eta| / (2pi)^d,
    # below the normal floats while the mass and |det M_eta| are not
    (BENCH_MODEL_D2, True, 2.0**-510, SZEGO, MASS_RANGE),
    (UNIT_MODEL_D2, False, 3.2e-154, ["bergman-check", "--q", "0", "--eta", "0"], DET_RANGE),
    (UNIT_MODEL_D2, True, 1e-160, EXTREMAL, MASS_RANGE),
    (UNIT_MODEL_D2, True, 1e-200, EXTREMAL, MASS_RANGE),
]


def test_model_commands_on_a_model_scaled_by_powers_of_two(tmp_path, capsys):
    # mu and lambda times t (2^k, and a few powers of ten) give the chambers
    # and checks of t = 1 and its densities and values times t^d (the
    # extremal form t^(d/2)), or one line where a nonempty q-mass or
    # |det M_eta| leaves the normal floats: never a traceback, and never a
    # zero or subnormal stand-in for a value that underflowed
    def result(doc, with_lambda, t, argv):
        scaled = dict(doc, mu=[[[t * re, t * im] for re, im in row] for row in doc["mu"]])
        if with_lambda:
            scaled["lambda"] = [t * v for v in doc["lambda"]]
        code = run(argv + ["--input", str(write_json(tmp_path, "m.json", scaled))])
        out, err = capsys.readouterr()
        return code, err, json.loads(out)["result"] if code == 0 else None

    for doc, with_lambda, t, argv, expected in SCALED_MODEL_RUNS:
        code, err, got = result(doc, with_lambda, t, argv)
        if expected is not None:
            assert (code, err) == (2, "error: %s\n" % expected), (t, argv)
            continue
        assert (code, err) == (0, ""), (t, argv)
        unit = result(doc, with_lambda, 1.0, argv)[2]
        for key in ("norm_check", "peak_check", "rel_gap"):
            if key in got:
                assert abs(got[key] - unit[key]) <= 1e-9, (t, argv, key)
        back = t ** -(doc["d"] / 2 if argv == EXTREMAL else doc["d"])
        for key in ("densities", "value", "bruteforce"):
            if key in got:
                np.testing.assert_allclose(np.multiply(got[key], back), unit[key], rtol=1e-12, atol=0)


def test_bergman_check_past_the_largest_float_power_of_two_pi(tmp_path, capsys):
    # d = 387, mu = I, lambda = 1: (2pi)^387 is beyond the largest float,
    # while the value (1.5 / 2pi)^387 at eta = -0.25 and the Gram mass
    # (2pi / 1.5)^387 are normal floats; at eta = 0.25 the value at z = 0,
    # (0.5 / 2pi)^387, is below them
    doc = {"schema": "crmorse/model-v1", "d": 387, "lambda": [1.0] * 387, "mu": mat(np.eye(387)), "delta": 0.5}
    argv = ["bergman-check", "--input", str(write_json(tmp_path, "m.json", doc)), "--q", "0", "--max-degree", "1"]
    assert run(argv + ["--eta", "-0.25"]) == 0
    out, err = capsys.readouterr()
    res = json.loads(out)["result"]
    assert err == ""
    assert res["value"] == pytest.approx((1.5 / TWO_PI) ** 387, rel=1e-10)
    assert abs(res["rel_gap"]) <= 1e-9
    assert run(argv + ["--eta", "0.25"]) == 2
    assert capsys.readouterr() == ("", "error: --eta: |det M_eta| leaves floating-point range\n")


FIELD_MASS_RANGE = "q=0: the q-chamber mass of |det(R + 2sL)| leaves floating-point range"
BENCH_FIELD_D2 = bench_field(2, 1, 1.0)

# (field, t, argv, the error line, or None where the command exits 0): the
# one-point d = 1 field, whose q = 0 chamber fills the window, and the bench
# d = 2 field, with R and L times t = 2^k or reported at a small --delta
SCALED_FIELD_RUNS = [
    *((doc, 2.0**k, argv, expected) for doc, k, expected in [
        (MINIMAL, 1020, None),
        (MINIMAL, -1018, None),
        (MINIMAL, -1019, FIELD_MASS_RANGE),
        (BENCH_FIELD_D2, 500, None),
        (BENCH_FIELD_D2, -509, None),
        (BENCH_FIELD_D2, -510, FIELD_MASS_RANGE),
        (BENCH_FIELD_D2, -600, FIELD_MASS_RANGE),
    ] for argv in (["morse"], ["classify"])),
    *((MINIMAL, 1.0, ["morse", "--delta", delta], expected) for delta, expected in [
        ("1e-300", None),
        ("1e-310", FIELD_MASS_RANGE),
        ("1e-320", FIELD_MASS_RANGE),
        ("5e-324", FIELD_MASS_RANGE),
    ]),
    (BENCH_FIELD_D2, 1.0, ["morse", "--delta", "1e-300"], None),
    (BENCH_FIELD_D2, 1.0, ["morse", "--delta", "1e-310"], FIELD_MASS_RANGE),
]


def test_field_commands_on_a_field_scaled_by_powers_of_two(tmp_path, capsys):
    # R and L times 2^k give the chambers of k = 0 and its densities times
    # 2^(k d) bit for bit, in the engine's power-of-two units, or one line
    # naming the first q with a chamber whose density falls below the
    # smallest normal float, from morse and classify alike: never a
    # traceback, and never a zero or subnormal density for a q-set that is
    # not empty
    def result(doc, t, argv):
        points = [dict(p, **{key: [[[t * re, t * im] for re, im in row] for row in p[key]] for key in ("R", "L")})
                  for p in doc["points"]]
        code = run(argv + ["--input", str(write_json(tmp_path, "f.json", dict(doc, points=points)))])
        out, err = capsys.readouterr()
        return code, err, json.loads(out)["result"] if code == 0 else None

    for doc, t, argv, expected in SCALED_FIELD_RUNS:
        code, err, got = result(doc, t, argv)
        if expected is not None:
            assert (code, err) == (2, "error: %s\n" % expected), (t, argv)
            continue
        assert (code, err) == (0, ""), (t, argv)
        if "densities" in got:
            unit = result(doc, 1.0, argv)[2]["densities"]
            assert got["densities"] == [c * t ** (doc["n"] - 1) for c in unit], (t, argv)
            assert all(c >= sys.float_info.min or c == 0.0 for c in got["densities"]), (t, argv)


# ------------------------------------------------------ oracle commands


def test_calibrate_command_idempotent(tmp_path, capsys):
    rec1 = tmp_path / "cal1.json"
    rec2 = tmp_path / "cal2.json"
    assert run(["calibrate", "--out", str(rec1)]) == 0
    assert run(["calibrate", "--out", str(rec2)]) == 0
    assert capsys.readouterr().err == ""
    assert rec1.read_bytes() == rec2.read_bytes()
    doc = json.loads(rec1.read_text())
    assert doc["c_mode"] == "1/1"
    assert doc["c_dim"] == "2/1"


def test_torus_demo_oracle_column(tmp_path):
    cal = tmp_path / "cal.json"
    out = tmp_path / "t.csv"
    assert run([
        "torus-demo", "--k", "4", "--cal", str(cal), "--format", "csv", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "q,density,weak_bound,oracle_dim"
    row0 = lines[1].split(",")
    assert row0[0] == "0"
    assert int(row0[3]) == 80
    assert cal.is_file()


def test_fractional_calibration_record_exit_code(tmp_path, capsys):
    cal = tmp_path / "cal.json"
    assert run(["calibrate", "--out", str(cal)]) == 0
    cal.write_text(cal.read_text().replace('"c_mode": "1/1"', '"c_mode": "1/2"'))
    assert run(["torus-demo", "--k", "4", "--cal", str(cal)]) == 4
    assert capsys.readouterr().err == "calibration error: c_mode must be an integer, got 1/2\n"


def test_corrupt_calibration_exit_code(tmp_path, capsys):
    cal = tmp_path / "cal.json"
    assert run(["calibrate", "--out", str(cal)]) == 0
    cal.write_text(cal.read_text().replace('"1/1"', '"2/1"'))
    assert run(["torus-demo", "--k", "4", "--cal", str(cal)]) == 4
    assert "calibration" in capsys.readouterr().err.lower()


# the provenance that records written before the calibration stated its
# constants carry: the transcript of a seeded coupling search
OLD_PROVENANCE = {
    "candidates": ["1/1", "2/1"],
    "direct_dims": [4, 22, 0, 0, 34, 0, 0, 24, 0, 0, 4, 0, 0, 0, 0, 16, 0, 0, 12, 28],
    "linearity_checked_through": 8, "method": "d1 Fourier quasi-periodicity count", "n1": 2,
    "seed": 20260825, "survivor": "1/1",
    "tuples": [[1, 0, 2, 1], [3, 2, 3, 1], [1, -1, -1, 3], [3, -3, -3, 2], [6, -1, 3, 1],
               [4, 0, -2, 3], [6, -3, 0, 1], [5, 4, 0, 3], [3, -2, 0, 2], [3, -4, 3, 3],
               [6, -4, 1, 1], [5, 0, -1, 2], [6, -3, -1, 2], [6, 1, -1, 2], [4, 1, -2, 1],
               [5, 3, 1, 1], [6, -3, 0, 1], [6, 1, -3, 2], [6, 2, 0, 3], [4, 2, 2, 3]],
}


def test_calibration_record_with_edited_provenance_loads(tmp_path, capsys):
    # only the constants are re-derived; the transcript is not compared, so
    # an edited one and the old format's load and give the oracle dimensions
    # of a fresh record
    cal = tmp_path / "cal.json"
    assert run(["calibrate", "--out", str(cal)]) == 0
    fresh = json.loads(cal.read_text())
    dims = []
    for provenance in (fresh["provenance"], 5, OLD_PROVENANCE):
        cal.write_text(json.dumps(dict(fresh, provenance=provenance)))
        capsys.readouterr()
        assert run(["torus-demo", "--k", "10", "--cal", str(cal)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        dims.append(json.loads(out)["result"]["oracleDims"])
    assert dims == [[440, 0]] * 3


def test_torus_demo_reads_inertia_on_the_curvature_over_k(tmp_path, capsys):
    # k mu = 2e308 leaves float range, mu + c_mode (m / k) lambda does not
    doc = {"schema": "crmorse/torus-v1", "d": 1, "lambda": [[[1, 0]]], "mu": [[[1e308, 0]]], "delta": 1e-10}
    argv = ["torus-demo", "--k", "2", "--input", str(write_json(tmp_path, "t.json", doc))]
    assert run(argv + ["--cal", str(tmp_path / "cal.json")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["result"]["oracleDims"] == [4 * int(1e308), 0]


def test_calibration_record_with_a_wrong_constant_exits_4(tmp_path, capsys):
    cal = tmp_path / "cal.json"
    assert run(["calibrate", "--out", str(cal)]) == 0
    cal.write_text(cal.read_text().replace('"c_dim": "2/1"', '"c_dim": "3/1"'))
    capsys.readouterr()
    assert run(["torus-demo", "--k", "4", "--cal", str(cal)]) == 4
    assert capsys.readouterr().err == (
        "calibration error: calibration record does not reproduce (expected c_mode=1/1, c_dim=2/1)\n"
    )


@pytest.mark.parametrize(
    "c_dim, message",
    [
        ('"0/1"', "c_dim must be positive, got 0"),
        ("-2", "c_dim must be positive, got -2"),
        ('"1/2"', "c_dim must be an integer, got 1/2"),
    ],
    ids=["zero", "negative", "fraction"],
)
def test_calibration_record_with_constants_not_of_calibrate_exits_4(tmp_path, capsys, c_dim, message):
    # every constant that a record holds and calibrate() does not exits 4
    cal = tmp_path / "cal.json"
    cal.write_text('{"c_mode": "1/1", "c_dim": %s}' % c_dim)
    assert run(["torus-demo", "--k", "4", "--cal", str(cal)]) == 4
    assert capsys.readouterr().err == "calibration error: %s\n" % message


def test_calibration_record_that_is_not_json_exits_2(tmp_path, capsys):
    cal = tmp_path / "cal.json"
    cal.write_text('{"c_mode": ')
    assert run(["torus-demo", "--k", "4", "--cal", str(cal)]) == 2
    assert capsys.readouterr().err == (
        "error: calibration record %s is not valid JSON: Expecting value: line 1 column 12 (char 11)\n" % cal
    )


@pytest.mark.parametrize(
    "command, doc, path, value",
    [
        ("torus-demo", {"mu": [[[2**53 + 1, 0]]]}, "mu[0][0][0]", 2**53 + 1),
        ("torus-demo", {"lambda": [[[1, -(2**60) - 1]]]}, "lambda[0][0][1]", -(2**60) - 1),
        ("torus-demo", {"mu": [[[2.5, 0]]]}, "mu[0][0][0]", 2.5),
        ("heisenberg-demo", {"lambda": [1, 2**53 + 1]}, "lambda[1]", 2**53 + 1),
        ("heisenberg-demo", {"mu": [[[3, 0], [1, 0]], [[1, 1e-12], [3, 0]]]}, "mu[1][0][1]", 1e-12),
    ],
    ids=["torus-int-literal", "torus-imaginary", "torus-float", "heisenberg-lambda", "heisenberg-mu"],
)
def test_spec_integer_entries_are_read_on_the_document_numbers(tmp_path, capsys, command, doc, path, value):
    # an int literal must equal the float it becomes, and a float must be
    # integral, so that mu = 2^53 + 1 is not counted as 2^53
    torus = command == "torus-demo"
    base = crmorse.cli.DEFAULT_TORUS_DOC if torus else crmorse.cli.DEFAULT_HEISENBERG_DOC
    argv = [command, "--input", str(write_json(tmp_path, "s.json", dict(base, **doc)))]
    assert run(argv + (["--cal", str(tmp_path / "cal.json")] if torus else [])) == 2
    assert capsys.readouterr().err == "error: %s: expected an integer that a float holds exactly, got %r\n" % (
        path, value)


def test_spec_integer_entry_at_the_float_limit_loads(tmp_path, capsys):
    # 2^53 is a float, so it is read and counted exactly, 2^53 + 1 beside it
    # is refused above, and an integral float such as 1e308 loads (see
    # test_torus_demo_reads_inertia_on_the_curvature_over_k)
    inp = write_json(tmp_path, "t.json", dict(crmorse.cli.DEFAULT_TORUS_DOC, mu=[[[2**53, 0]]]))
    assert run(["torus-demo", "--k", "2", "--input", str(inp), "--cal", str(tmp_path / "cal.json")]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["oracleDims"] == [6 * 2**54, 0]


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"\xff\xfe{", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[1]", "expected a JSON object"),
        (b'{"c_mode": null, "c_dim": "2/1"}', "c_mode must be a number or a fraction string, got null"),
        (b'{"c_mode": Infinity, "c_dim": "2/1"}', "c_mode must be a number or a fraction string, got Infinity"),
        (b'{"c_mode": 1' + b"0" * 5000 + b', "c_dim": "2/1"}', None),
        (b'{"c_mode": [1, 2], "c_dim": "2/1"}', "c_mode must be a number or a fraction string, got [1, 2]"),
        (b'{"c_mode": "1/1", "c_dim": "two"}', 'c_dim must be a number or a fraction string, got "two"'),
        (b'{"c_mode": "1/1"}', "c_dim is missing"),
    ],
    ids=["not-utf8", "list", "null", "infinity", "long-integer", "list-constant", "string-constant", "missing"],
)
def test_malformed_calibration_record_exit_2(tmp_path, capsys, content, reason):
    # a constant that cannot be read is named by its key
    cal = tmp_path / "cal.json"
    cal.write_bytes(content)
    assert run(["torus-demo", "--k", "10", "--cal", str(cal)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: calibration record %s is malformed: " % cal), err
    if reason is not None:
        assert err == "error: calibration record %s is malformed: %s\n" % (cal, reason)


def test_heisenberg_demo(tmp_path):
    out = tmp_path / "h.json"
    assert run(["heisenberg-demo", "--out", str(out)]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["positivity"]["positiveEverywhere"] is True
    assert res["bigness"]["big"] is True


def test_levi_flat_demo(tmp_path):
    out = tmp_path / "l.json"
    assert run(["levi-flat-demo", "--out", str(out)]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["densities"][0] == pytest.approx(2.0 / TWO_PI**3, rel=1e-10)
    assert res["densities"][1] == 0.0


def test_convergence_command(tmp_path):
    cal = tmp_path / "cal.json"
    out = tmp_path / "conv.csv"
    assert run([
        "convergence", "--example", "torus-d1", "--q", "0",
        "--kmin", "10", "--kmax", "20", "--kstep", "10",
        "--cal", str(cal), "--format", "csv", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,oracle,bound,ratio"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["10", "20"]
    for r in rows:
        ratio = float(r[3])
        assert 1.0 < ratio < 1.2  # k^2 law with a +1/k correction


def test_convergence_rrh_mode(tmp_path):
    cal = tmp_path / "cal.json"
    out = tmp_path / "rrh.json"
    assert run([
        "convergence", "--example", "torus-d2-indefinite",
        "--kmin", "40", "--kmax", "40", "--cal", str(cal), "--out", str(out),
    ]) == 0
    res = json.loads(out.read_text())["result"]
    row = res["rows"][0]
    assert row["k"] == 40
    assert row["bound"] != 0.0
    assert row["ratio"] == pytest.approx(1.0, abs=0.25)


# the modes of the window all have q = 1: the curvature -k + m is negative
# for |m| < k and singular at m = k
TRAP_TORUS = {"schema": "crmorse/torus-v1", "d": 1, "lambda": [[[1, 0]]], "mu": [[[-1, 0]]], "delta": 1.0}


def test_convergence_trap_torus_ratios_are_unfitted(tmp_path):
    # R + 2sL = -1 + s with L = lambda/2 has q = 1 on all of (-1, 1), as the
    # modes do: the oracle is -2k(2k + 1), the bound -4k^2, the ratio 1 + 1/(2k)
    out = tmp_path / "trap.json"
    assert run([
        "convergence", "--input", str(write_json(tmp_path, "t.json", TRAP_TORUS)),
        "--kmin", "10", "--kmax", "20", "--kstep", "10",
        "--cal", str(tmp_path / "cal.json"), "--out", str(out),
    ]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["mode"] == "euler"
    assert res["weight"] == pytest.approx(2 * TWO_PI**2, rel=1e-15)  # (2pi)^n c_dim^d
    assert "k0" not in res and "weightQ" not in res
    assert [row["oracle"] for row in res["rows"]] == [-420, -1640]
    assert [row["bound"] for row in res["rows"]] == pytest.approx([-400, -1600], rel=1e-14)
    assert [row["ratio"] for row in res["rows"]] == pytest.approx([1.05, 1.025], rel=1e-14)


def test_convergence_ratios_need_no_fit(tmp_path):
    cal = str(tmp_path / "cal.json")
    expected = {
        ("--example", "torus-d1", "--q", "0"): [1.01, 1.001, 1.00005],
        ("--example", "torus-d2-indefinite"): [1.0191, 1.0019, 1.0001],
    }
    for flags, ratios in expected.items():
        out = tmp_path / "conv.csv"
        assert run(["convergence", *flags, "--kmin", "100", "--kmax", "20000", "--kstep", "100",
                    "--cal", cal, "--format", "csv", "--out", str(out)]) == 0
        rows = {int(k): float(ratio) for k, _, _, ratio in (line.split(",") for line in out.read_text().split()[1:])}
        assert [rows[k] for k in (100, 1000, 20000)] == pytest.approx(ratios, abs=1e-4), flags


def test_lattice_commands_decompose_once_and_factor_the_torus_once(tmp_path, monkeypatch):
    import crmorse.morse
    import crmorse.oracles

    calls = []

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs))

    count(crmorse.morse, "_decompose_batch")
    for name in ("_dimension_sums", "_det_poly", "_sturm_chain"):
        count(crmorse.oracles, name)
    sweep = ["--kmin", "10", "--kmax", "30", "--kstep", "10"]
    for argv in (["convergence", "--example", "torus-d2-indefinite", *sweep],
                 ["convergence", "--example", "torus-d1", "--q", "0", *sweep],
                 ["torus-demo", "--k", "30"]):
        calls.clear()
        assert run([*argv, "--cal", str(tmp_path / "cal.json"), "--out", str(tmp_path / "out.json")]) == 0
        assert calls == ["_decompose_batch", "_dimension_sums", "_det_poly", "_sturm_chain"], argv


# a torus of dimension 280, whose weight (2pi)^281 2^280 exceeds the largest float
BIG_TORUS = {"schema": "crmorse/torus-v1", "d": 280, "lambda": mat(np.zeros((280, 280))), "mu": mat(np.eye(280)),
             "delta": 0.5}
# a torus one dimension past those whose exact counts the lattice commands take
WIDE_TORUS = {"schema": "crmorse/torus-v1", "d": 17, "lambda": mat(np.eye(17)), "mu": mat(np.eye(17)), "delta": 0.5}
# a torus of the largest dimension whose mode curvature at level k,
# (2^20 k + m) I, has entries of 27 bits at k = 100
COSTLY_TORUS = {"schema": "crmorse/torus-v1", "d": 16, "lambda": mat(np.eye(16)), "mu": mat(2.0**20 * np.eye(16)),
                "delta": 0.5}
# a torus whose signed total, 4, the engine rounds to 0 beside a density
# sum beyond float range
ZERO_EULER_TORUS = {"schema": "crmorse/torus-v1", "d": 1, "lambda": [[[1e308, 0]]], "mu": [[[2, 0]]], "delta": 0.5}
# a torus whose exact signed density total is 0 and whose engine total is
# the rounding residue 9.6e-16, against a density sum of 0.125
RESIDUE_TORUS = {
    "schema": "crmorse/torus-v1",
    "d": 3,
    "lambda": mat([[0, 2j, -1 - 1j], [-2j, 0, -2 - 2j], [-1 + 1j, -2 + 2j, -2]]),
    "mu": mat([[-1, 0, 0], [0, 0, 0], [0, 0, 2]]),
    "delta": 0.25,
}


@pytest.mark.parametrize(
    "argv, doc, expected",
    [
        (["convergence", "--example", "torus-d1", "--q", "1", "--kmin", "10", "--kmax", "10"], None,
         "--q 1: the q=1 density vanishes for this spec; no ratio to report"),
        (["convergence", "--q", "0"], TRAP_TORUS,
         "--q 0: the q=0 density vanishes for this spec; no ratio to report"),
        (["convergence"], BIG_TORUS, "d must be an integer in 1..16, got 280"),
        (["torus-demo"], BIG_TORUS, "d must be an integer in 1..16, got 280"),
        (["convergence"], RESIDUE_TORUS, "mu, lambda: the signed density total is 0 or within 1e-9 of the density sum; no Euler comparison"),
        (["convergence"], WIDE_TORUS, "d must be an integer in 1..16, got 17"),
        (["convergence"], ZERO_EULER_TORUS, "mu, lambda: the signed density total is 0 or within 1e-9 of the density sum; no Euler comparison"),
    ],
    ids=["vanishing-q", "trap-q0", "weight-convergence", "weight-torus-demo", "residue-euler", "d-convergence",
         "zero-euler"],
)
def test_lattice_guards_exit_2_before_any_oracle_pass(tmp_path, capsys, monkeypatch, argv, doc, expected):
    import crmorse.oracles

    def no_pass(*args, **kwargs):
        raise AssertionError("an oracle pass ran")

    monkeypatch.setattr(crmorse.oracles, "_dimension_sums", no_pass)
    if doc is not None:
        argv = argv + ["--input", str(write_json(tmp_path, "t.json", doc))]
    assert run(argv + ["--cal", str(tmp_path / "cal.json"), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: %s\n" % expected
    assert not (tmp_path / "out").exists()
    # the d bound comes before the --cal record is read or made
    assert (tmp_path / "cal.json").exists() != expected.startswith("d must")


def test_convergence_sums_the_largest_dimension_on_wide_entries(tmp_path):
    # every mode of the window |m| <= k/2 has curvature (2^20 k + m) I > 0,
    # so the signed total is the q = 0 sum c_dim^16 sum_m (2^20 k + m)^16
    out = tmp_path / "out.json"
    assert run(["convergence", "--input", str(write_json(tmp_path, "t.json", COSTLY_TORUS)),
                "--cal", str(tmp_path / "cal.json"), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["result"]["rows"]
    assert [row["k"] for row in rows] == list(range(10, 101, 10))
    for row in rows:
        k = row["k"]
        assert row["oracle"] == 2**16 * sum((2**20 * k + m) ** 16 for m in range(-(k // 2), k // 2 + 1)), k


def test_convergence_keeps_totals_beyond_the_rounding_margin(tmp_path):
    # the margin reads only a residue as zero: the indefinite example's total,
    # -1.958, and the residue torus in density mode keep their rows
    cal = str(tmp_path / "cal.json")
    expected = {
        ("--example", "torus-d2-indefinite"): [
            "10,-1960,-1958.3333333333333,1.0008510638297872",
            "20,-17160,-15666.666666666666,1.0953191489361702",
            "30,-52880,-52875,1.0000945626477542",
        ],
        ("--input", str(write_json(tmp_path, "t.json", RESIDUE_TORUS)), "--q", "1"): [
            "10,576,624.99999999999045,0.92160000000001407",
            "20,14400,9999.9999999998472,1.4400000000000219",
            "30,50176,50624.999999999221,0.99113086419754615",
        ],
    }
    for flags, rows in expected.items():
        out = tmp_path / "conv.csv"
        assert run(["convergence", *flags, "--kmin", "10", "--kmax", "30", "--kstep", "10",
                    "--cal", cal, "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().split() == ["k,oracle,bound,ratio", *rows]


def test_lattice_weight_is_finite_up_to_d_279():
    from crmorse.oracles import TorusBundleSpec, _lattice_field

    spec = TorusBundleSpec(d=279, lambda_mat=np.zeros((279, 279)), mu_mat=np.eye(279), delta=1)
    field = _lattice_field(spec, crmorse.calibrate())
    assert field.points[0].weight == pytest.approx(TWO_PI**280 * 2.0**279, rel=1e-12)


# ---------------------------------------------------------------- misc


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def parsed(parser, argv):
    """(namespace, exit code, stdout, stderr) of parser.parse_args(argv);
    the namespace is None when argparse exits, the code None when not."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = parser.parse_args(argv), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, code, out.getvalue(), err.getvalue()


# per command: the flags of a valid argv, then argvs that argparse rejects
# (a missing required flag where the command has one, a malformed value)
PARSER_CASES = {
    "chambers": (["--input", "f.json", "--point", "1", "--delta", "0.5", "--format", "csv"],
                 [[], ["--input", "f.json", "--point", "one"], ["--input", "f.json", "--tol", "1e-9"]]),
    "morse": (["--input", "f.json", "--delta", "0.5", "--k", "100", "--threads", "2", "--out", "o.json"],
              [["--k", "3"], ["--input", "f.json", "--k", "1.5"]]),
    "classify": (["--input", "f.json", "--threads", "1"], [[], ["--input", "f.json", "--threads", "x"]]),
    "szego-density": (["--input", "m.json", "--q", "1"], [[], ["--input", "m.json", "--q", "x"]]),
    "extremal-check": (["--input", "m.json", "--q", "1", "--z", "0,0;1,1", "--theta", "0.5", "--nodes", "32"],
                       [["--input", "m.json"], ["--input", "m.json", "--q", "1", "--theta", "x"]]),
    "bergman-check": (["--input", "m.json", "--eta", "-0.5", "--q", "0", "--z", "0,0", "--max-degree", "3"],
                      [["--input", "m.json", "--q", "0"], ["--input", "m.json", "--q", "0", "--eta", "x"]]),
    "torus-demo": (["--input", "t.json", "--q", "0", "--k", "10", "--cal", "c.json"],
                   [["--k", "ten"], ["--format", "xml"]]),
    "heisenberg-demo": (["--input", "h.json", "--k", "10"], [["--k", "ten"], ["--k"]]),
    "levi-flat-demo": (["--input", "l.json", "--k", "10", "--format", "csv"], [["--k", "ten"], ["--bogus"]]),
    "calibrate": (["--out", "c.json"], [["--out"], ["--format", "csv"]]),
    "convergence": (["--example", "torus-d1", "--q", "0", "--kmin", "5", "--kmax", "50", "--kstep", "5",
                     "--cal", "c.json"],
                    [["--example", "torus-d3"], ["--kmin", "x"], ["--k0", "20"]]),
}


def subcommands(parser):
    """The command names that ``parser`` has a subparser for."""
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return list(sub.choices)


def test_parser_cases_cover_every_command():
    assert subcommands(crmorse.cli._build_parser()) == list(PARSER_CASES)


@pytest.mark.parametrize("command", list(PARSER_CASES))
def test_one_subparser_parses_as_the_full_parser(command, tmp_path, capsys):
    # run() on one command's argv gives the namespace, help and errors of
    # the parser with all eleven subparsers, and dispatches to the handler
    # that the namespace names; run() alone writes what a handler returns,
    # the same bytes to stdout and to --out, under the subcommand's name
    valid, rejected = PARSER_CASES[command]
    full = crmorse.cli._build_parser()
    namespace, code, out, err = parsed(full, [command, *valid])
    assert code is None and namespace.command == command, err
    assert namespace.handler.__module__ == "crmorse.cli"
    for argv in [[command, "--help"], *([command, *flags] for flags in rejected)]:
        expected = parsed(full, argv)
        assert expected[1] == (0 if argv[1:] == ["--help"] else 2), argv
        assert run(argv) == expected[1]
        assert tuple(capsys.readouterr()) == expected[2:], argv
    if command == "calibrate":  # writes its record, and its own line
        return
    paths = {"field": write_json(tmp_path, "f.json", MINIMAL), "model": write_json(tmp_path, "m.json", MODEL_DOC),
             "cal": tmp_path / "cal.json"}
    argv = [a.format(**paths) for a in EMITTING[command]]
    for fmt in ("json", "csv"):
        assert run(argv + ["--format", fmt]) == 0
        printed = capsys.readouterr().out
        assert run(argv + ["--format", fmt, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr() == ("", "")
        written = (tmp_path / "out").read_text()
        assert strip_timing(written) == strip_timing(printed)
        if fmt == "json":
            assert json.loads(written)["command"] == command


def test_no_known_command_builds_every_subparser(capsys):
    # --help, no command and an unknown command see all eleven commands
    full = crmorse.cli._build_parser()
    assert run([]) == 2
    assert tuple(capsys.readouterr()) == ("", full.format_usage())
    for argv in (["--help"], ["-h"], ["bogus"], ["--bogus", "morse"], ["--", "morse"]):
        _, code, out, err = parsed(full, argv)
        assert run(argv) == code == (0 if argv[0] in ("--help", "-h") else 2), argv
        assert tuple(capsys.readouterr()) == (out, err), argv
    help_text = parsed(full, ["--help"])[2]
    assert all(name in help_text for name in PARSER_CASES)


# ------------------------------------------------------------ start-up

FAMILIES = {
    "field": [["morse", "--input", "{field}"], ["classify", "--input", "{field}"],
              ["chambers", "--input", "{field}"]],
    "model": [["szego-density", "--input", "{model}"],
              ["extremal-check", "--input", "{model}", "--q", "0", "--nodes", "16"],
              ["bergman-check", "--input", "{model}", "--q", "0", "--eta", "0.5"]],
    "lattice": [["torus-demo", "--cal", "{cal}"],
                ["convergence", "--example", "torus-d1", "--kmax", "20", "--cal", "{cal}"]],
}

# an argv of each command that writes a table, from the family commands
EMITTING = {argv[0]: argv for argvs in FAMILIES.values() for argv in argvs}
EMITTING.update({"heisenberg-demo": ["heisenberg-demo", "--k", "10"], "levi-flat-demo": ["levi-flat-demo"]})

# run in a fresh interpreter: run the commands, listing sys.modules after
# each, then the BLAS thread count that importing and running left in the
# environment
IMPORT_PROBE = """
import json, os, sys
from crmorse.cli import run
codes, modules = [], []
for argv in json.loads(sys.argv[1]):
    codes.append(run(argv))
    modules.append(sorted(sys.modules))
blas = os.environ.get("OPENBLAS_NUM_THREADS")
print(json.dumps({"codes": codes, "modules": modules, "blas": blas}))
"""

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# CPython's built-in SHA-256: _sha2 from 3.12, _sha256 before; a build
# without either takes the digest from hashlib
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


def test_each_command_family_imports_only_its_modules(tmp_path):
    paths = {
        "field": write_json(tmp_path, "f.json", MINIMAL),
        "model": write_json(tmp_path, "m.json", MODEL_DOC),
        "cal": tmp_path / "cal.json",
    }
    argvs = {
        family: [[a.format(**paths) for a in argv] + ["--out", str(tmp_path / family)] for argv in commands]
        for family, commands in FAMILIES.items()
    }
    argvs["help"] = [["--help"]]
    env = dict(os.environ, PYTHONPATH=str(Path(crmorse.__file__).parents[1]))
    for name in BLAS_THREAD_VARIABLES:
        env.pop(name, None)
    procs = {  # concurrently, to keep the test short
        family: subprocess.Popen(
            [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
            env=env, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for family, commands in argvs.items()
    }
    loaded, first = {}, {}  # what each probe loaded, and what its first command loaded
    for family, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        report = json.loads(out.splitlines()[-1])
        assert report["codes"] == [0] * len(argvs[family]), err
        loaded[family], first[family] = set(report["modules"][-1]), set(report["modules"][0])
        assert report["blas"] is None  # only the process entry sets a thread count
    assert not loaded["field"] & {"crmorse.model", "crmorse.oracles", "numpy.polynomial", "fractions",
                                  "dataclasses"}
    assert not loaded["model"] & {"crmorse.morse", "crmorse.oracles", "numpy.polynomial", "dataclasses"}
    assert not loaded["lattice"] & {"crmorse.model", "dataclasses"}
    if BUILTIN_SHA256:  # the input digest does not load OpenSSL
        for family, modules in loaded.items():
            assert not modules & {"hashlib", "_hashlib"}, family
    # --help pays the same base as every command: numpy and the pencil
    # engine, and nothing that one command alone does not load
    assert {"numpy", "crmorse.pencil"} <= loaded["help"]
    assert loaded["help"] <= set.intersection(*(first[family] for family in FAMILIES))


@pytest.mark.parametrize(
    "user",
    [{}, {"OPENBLAS_NUM_THREADS": "4"}, {"OMP_NUM_THREADS": "3"}, {"MKL_NUM_THREADS": "2"}],
    ids=["default", "openblas", "omp", "mkl"],
)
def test_entry_point_defaults_blas_to_one_thread(monkeypatch, user):
    # python -m crmorse and the crmorse script run crmorse.__main__.main, which
    # must set the default before crmorse.cli (and so numpy) is imported; a
    # thread count the user set is left as it is
    seen = []
    monkeypatch.setattr(crmorse.cli, "main", lambda: seen.append(dict(os.environ)))
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in user.items():
        monkeypatch.setenv(name, value)
    crmorse.__main__.main()
    counts = {name: seen[0][name] for name in BLAS_THREAD_VARIABLES if name in seen[0]}
    assert counts == (user or {"OPENBLAS_NUM_THREADS": "1"})


PUBLIC_NAMES = """
    Bigness BergmanValue CalibrationError Chamber ChamberBoundaryError ChamberDecomposition
    CRMorseError DegeneratePencilError EtaChamberSet ExtremalForm HeisenbergSpec HermitianMatrix
    IDENTICALLY_ZERO Inertia InputError LatticeCalibration ModelData MorseReport PencilField
    PencilPoint Positivity RealPolynomial TorusBundleSpec XqResult ZeroExtremalMassError
    bergman_bruteforce bergman_diag bigness_verdict build_morse_report calibrate calibrate_weight
    chamber_integral chambers check_Xq classify_bundle d1_fourier_bruteforce density_q
    eta_chambers extremal_form fourier_dimension_sum heisenberg_field inertia levi_flat_field
    load_calibration m_phi_eta parse_field pencil_char_poly pencil_signed_integral real_roots
    rrh_total run save_calibration serialize_field signature_set strong_sums szego_density
    torus_bundle_field torus_mode_dim verify_calibration weak_bound
""".split()


def test_public_names_resolve():
    assert crmorse.__all__ == PUBLIC_NAMES
    assert set(crmorse.__all__) <= set(dir(crmorse))  # before any name is resolved and cached
    for name in crmorse.__all__:
        home = importlib.import_module("crmorse." + crmorse._SOURCES[name])
        assert getattr(crmorse, name) is vars(home)[name], name
    namespace = {}
    exec("from crmorse import *", namespace)
    assert all(namespace[name] is getattr(crmorse, name) for name in crmorse.__all__)
    # each submodule exports exactly its names of the one list, _SOURCES
    for module in ("pencil", "morse", "model", "oracles"):
        namespace = {}
        exec("from crmorse.%s import *" % module, namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == {name for name, home in crmorse._SOURCES.items() if home == module}, module
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        crmorse.no_such_name


def test_no_parameter_replaces_the_sign_rule_or_changes_nothing():
    # pencil's unit-free tolerance is the only sign rule, a calibration
    # record is always re-derived, and no function takes an ignored threads
    signatures = {
        "inertia": "(a)",
        "chambers": "(r, el, delta)",
        "chamber_integral": "(r, el, q, delta)",
        "pencil_signed_integral": "(r, el, delta)",
        "load_calibration": "(path)",
        "heisenberg_field": "(spec)",
        "density_q": "(field, q, delta)",
        "weak_bound": "(field, q, delta, k)",
        "rrh_total": "(field, delta)",
        "strong_sums": "(field, delta)",
    }
    for name, expected in signatures.items():
        parameters = inspect.signature(getattr(crmorse, name)).parameters
        assert "(%s)" % ", ".join(parameters) == expected, name


# ------------------------------------------------------------- records

RECORD_FIELDS = {
    "Chamber": ("lo", "hi", "inertia", "det_sign"),
    "ChamberDecomposition": ("delta", "roots", "chambers"),
    "XqResult": ("holds", "max_delta"),
    "Positivity": ("positive_everywhere", "semi_positive_delta", "positive_somewhere"),
    "Bigness": ("big", "reason"),
    "MorseReport": ("n", "delta", "densities", "strong_sums", "rrh_total", "xq", "positivity", "bigness"),
    "EtaChamberSet": ("delta", "roots", "intervals"),
    "ExtremalForm": ("multi_indices", "value", "norm_check", "peak_check"),
}


def test_record_tuples_keep_their_field_order():
    # positional order is part of the interface of a tuple record
    for name, fields in RECORD_FIELDS.items():
        record = getattr(crmorse, name)
        assert issubclass(record, tuple) and record._fields == fields, name
    # the classes that validate what they are given are not tuples
    for name in ("HermitianMatrix", "RealPolynomial", "PencilPoint", "PencilField", "ModelData",
                 "TorusBundleSpec", "HeisenbergSpec", "LatticeCalibration"):
        assert not issubclass(getattr(crmorse, name), tuple), name
    field = parse_field(json.dumps(MINIMAL).encode())
    first, second = crmorse.build_morse_report(field), crmorse.build_morse_report(field)
    assert first is not second and first == second  # equal values, equal records
    assert first.xq[0] == crmorse.XqResult(holds=first.xq[0].holds, max_delta=first.xq[0].max_delta)
    assert tuple(first.bigness) == (first.bigness.big, first.bigness.reason)
    dec = crmorse.chambers(field.points[0].r, field.points[0].el, 1.0)
    assert dec == crmorse.chambers(field.points[0].r, field.points[0].el, 1.0) and dec.dim == 1


# ------------------------------------------------ levels beyond float range

K200, K400 = 10**200, 10**400
K5000 = 10**5000  # beyond the 4300 digits that str() converts


def _cli_error(tmp_path, capsys, argv):
    assert run(argv + ["--cal", str(tmp_path / "cal.json")]) == 2
    return capsys.readouterr().err


def _library_error(call):
    with pytest.raises(InputError) as exc:
        call()
    return "error: %s\n" % exc.value


def _torus():
    from crmorse.oracles import TorusBundleSpec

    return TorusBundleSpec(d=2, lambda_mat=[[1, 0], [0, 1]], mu_mat=[[1, 0], [0, -1]], delta=0.25)


WIDE_WINDOW_TORUS = {"schema": "crmorse/torus-v1", "d": 1, "lambda": [[[1, 0]]], "mu": [[[2, 0]]], "delta": 1e150}


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda tmp, cap: _cli_error(tmp, cap, ["torus-demo", "--k", str(K400)]),
         "--k: an integer of 401 digits, whose window k * delta leaves floating-point range"),
        # a window of 10^300 modes, bisected about 1000 times before the weak bound is refused
        (lambda tmp, cap: _cli_error(tmp, cap, ["torus-demo", "--k", str(10**150), "--input",
                                                str(write_json(tmp, "t.json", WIDE_WINDOW_TORUS))]),
         "--k: an integer of 151 digits, whose weak bound k^2 c_q leaves floating-point range"),
        (lambda tmp, cap: _library_error(lambda: crmorse.calibrate_weight(_torus(), 1, K200, crmorse.calibrate())),
         "k0: an integer of 201 digits, whose power n = 3 leaves floating-point range"),
        (lambda tmp, cap: _library_error(
            lambda: crmorse.weak_bound(parse_field(json.dumps(MINIMAL).encode()), 0, 1.0, K200)),
         "k: an integer of 201 digits, whose power n = 2 leaves floating-point range"),
        (lambda tmp, cap: _library_error(
            lambda: crmorse.fourier_dimension_sum(_torus(), 0, K400, crmorse.calibrate())),
         "k: an integer of 401 digits, whose window k * delta leaves floating-point range"),
        (lambda tmp, cap: _library_error(lambda: crmorse.calibrate_weight(_torus(), 1, K5000, crmorse.calibrate())),
         "k0: an integer of 5001 digits, whose power n = 3 leaves floating-point range"),
        (lambda tmp, cap: _library_error(
            lambda: crmorse.weak_bound(parse_field(json.dumps(MINIMAL).encode()), 0, 1.0, K5000)),
         "k: an integer of 5001 digits, whose power n = 2 leaves floating-point range"),
        (lambda tmp, cap: _library_error(
            lambda: crmorse.fourier_dimension_sum(_torus(), 0, K5000, crmorse.calibrate())),
         "k: an integer of 5001 digits, whose window k * delta leaves floating-point range"),
    ],
    ids=["cli-torus-k", "cli-torus-k-wide-window", "calibrate_weight-k0", "weak_bound-k",
         "fourier_dimension_sum-k", "calibrate_weight-k0-5001-digits", "weak_bound-k-5001-digits",
         "fourier_dimension_sum-k-5001-digits"],
)
def test_levels_beyond_float_range_are_input_errors(tmp_path, capsys, make, expected):
    assert make(tmp_path, capsys) == "error: %s\n" % expected


@pytest.mark.parametrize(
    "argv, doc, expected",
    [
        (["morse", "--k", "-3"], MINIMAL, "--k must be an integer >= 1, got -3"),
        (["levi-flat-demo", "--k", "0"], None, "--k must be an integer >= 1, got 0"),
        (["heisenberg-demo", "--k", "0"], None, "--k must be an integer >= 1, got 0"),
        (["bergman-check", "--q", "0", "--eta", "0", "--z", "30,0"], MODEL_DOC,
         "--z: the Bergman density at this z leaves floating-point range"),
        (["bergman-check", "--q", "0", "--eta", "0", "--z", "1e200,0"], MODEL_DOC,
         "--z: the Bergman density at this z leaves floating-point range"),
        (["extremal-check", "--q", "0", "--nodes", "16", "--z", "1e200,0"], MODEL_DOC,
         "--z: the extremal form at this z leaves floating-point range"),
        (["convergence", "--example", "torus-d1", "--kmin", "10", "--kmax", str(K400)], None,
         "--kmax: an integer of 401 digits, whose window k * delta leaves floating-point range"),
        (["convergence", "--example", "torus-d1", "--q", "0", "--kmin", str(K400), "--kmax", str(K400)],
         None, "--kmin: an integer of 401 digits, whose window k * delta leaves floating-point range"),
        (["torus-demo", "--k", "0"], None, "--k must be an integer >= 1, got 0"),
        (["bergman-check", "--q", "0", "--eta", "inf"], MODEL_DOC, "--eta must be a finite real, got inf"),
        (["extremal-check", "--q", "0", "--theta", "inf"], MODEL_DOC, "--theta must be a finite real, got inf"),
        (["morse", "--delta", "0"], MINIMAL, "--delta must be a positive real <= 1, got 0.0"),
        (["morse", "--delta", "2"], MINIMAL, "--delta must be a positive real <= 1, got 2.0"),
        (["chambers", "--delta", "0"], MINIMAL, "--delta must be a positive real, got 0.0"),
        (["chambers", "--delta", "inf"], MINIMAL, "--delta must be a positive real, got inf"),
        (["extremal-check", "--q", "0", "--nodes", "8"], MODEL_DOC, "--nodes must be an integer in 16..4096, got 8"),
        (["extremal-check", "--q", "9"], MODEL_DOC, "--q must be an integer in 0..1, got 9"),
        (["bergman-check", "--q", "9", "--eta", "0"], MODEL_DOC, "--q must be an integer in 0..1, got 9"),
        (["szego-density", "--q", "9"], MODEL_DOC, "--q must be an integer in 0..1, got 9"),
        # a --z component that float() reads but that is not finite
        (["bergman-check", "--q", "0", "--eta", "0", "--z", "inf,0"], MODEL_DOC,
         "--z component 0 must be finite, got 'inf,0'"),
        (["extremal-check", "--q", "0", "--nodes", "16", "--z", "nan,0"], MODEL_DOC,
         "--z component 0 must be finite, got 'nan,0'"),
        # a --z that does not parse: the component count, a component, a number
        (["bergman-check", "--q", "0", "--eta", "0", "--z", "1,0;2,0"], MODEL_DOC,
         "--z needs 1 're,im' components separated by ';', got 2"),
        (["extremal-check", "--q", "0", "--nodes", "16", "--z", "1"], MODEL_DOC,
         "--z component 0 must be 're,im', got '1'"),
        (["bergman-check", "--q", "0", "--eta", "0", "--z", "x,0"], MODEL_DOC,
         "--z component 0: could not convert string to float: 'x'"),
        (["convergence"], None, "convergence needs --example or --input"),
        # the last level swept, 1 + 9 10^399, has 400 digits
        (["convergence", "--example", "torus-d1", "--kmin", "1", "--kmax", str(K400), "--kstep", str(K400 // 10)],
         None, "--kmax: an integer of 400 digits, whose window k * delta leaves floating-point range"),
        # an --eta at which |det M_eta|, or M_eta itself, leaves floating-point
        # range: no numpy warning, and the flag named is --eta, not --z
        (["bergman-check", "--q", "1", "--eta", "1e200"], BENCH_MODEL_D2,
         "--eta: |det M_eta| leaves floating-point range"),
        (["bergman-check", "--q", "1", "--eta=-1e200"], BENCH_MODEL_D2,
         "--eta: |det M_eta| leaves floating-point range"),
        (["bergman-check", "--q", "1", "--eta", "1e308"], BENCH_MODEL_D2,
         "--eta: M_eta = mu - 2 eta diag(lambda) leaves floating-point range"),
    ],
    ids=["morse-k", "levi-flat-k", "heisenberg-k", "bergman-z-exp", "bergman-z-huge", "extremal-z",
         "convergence-kmax", "convergence-kmin", "torus-k", "bergman-eta", "extremal-theta",
         "morse-delta-0", "morse-delta-2", "chambers-delta-0", "chambers-delta-inf", "extremal-nodes",
         "extremal-q", "bergman-q", "szego-q", "bergman-z-inf", "extremal-z-nan", "bergman-z-count",
         "extremal-z-comma", "bergman-z-number", "convergence-no-source", "convergence-kmax-reached",
         "bergman-eta-det", "bergman-eta-det-negative", "bergman-eta-matrix"],
)
def test_hostile_flags_exit_2_naming_the_flag(tmp_path, capsys, argv, doc, expected):
    if doc is not None:
        argv = argv + ["--input", str(write_json(tmp_path, "doc.json", doc))]
    if argv[0] in ("convergence", "torus-demo"):
        argv = argv + ["--cal", str(tmp_path / "cal.json")]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: %s\n" % expected
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------------- fuzzing

# the documents a command reads, each with the commands that read it: the
# bench/gen.py documents and the built-in ones
FUZZ_DOCS = [
    (bench_gen().field_doc(1, 2, 4), [["chambers"], ["morse"], ["classify"]]),
    (BENCH_MODEL_D2, [SZEGO, EXTREMAL, BERGMAN]),
    (crmorse.cli.DEFAULT_TORUS_DOC, [["torus-demo", "--k", "20"],
                                     ["convergence", "--kmin", "10", "--kmax", "30", "--kstep", "10"]]),
    (crmorse.cli.DEFAULT_HEISENBERG_DOC, [["heisenberg-demo", "--k", "10"]]),
    (crmorse.cli.DEFAULT_LEVI_DOC, [["levi-flat-demo", "--k", "10"]]),
]
# what a mutated leaf becomes: another JSON type, a number at an end of the
# float range or beyond it, or a number leaf scaled
FUZZ_VALUES = [None, True, "x", [], [1.0], 1e308, -1e308, 5e-324, 10**400, math.nan, math.inf, -math.inf]
FUZZ_SCALES = [2.0**600, 2.0**-600, 1e150, 1e-150]
# flag values at and just past each bound that errors.py checks, on the
# unmutated documents (the field has 4 points and window 1; the model d = 2
# and a degree cap of 12; the torus d = 1)
FUZZ_FLAGS = [
    *(["chambers", "--point", v] for v in ("0", "3", "4", "-1")),
    *(["chambers", "--delta", v] for v in ("1.0", "1.0000000000000002", "5e-324", "0", "inf", "nan")),
    *(["morse", flag, v] for flag in ("--k", "--threads") for v in ("1", "0")),
    *(["morse", "--delta", v] for v in ("1.0", "1.0000000000000002", "-1")),
    *(["classify", "--threads", v] for v in ("1", "0")),
    *(["szego-density", "--q", v] for v in ("0", "2", "3", "-1")),
    *(["extremal-check", "--q", v] for v in ("0", "2", "3", "-1")),
    *(EXTREMAL[:3] + ["--nodes", v] for v in ("16", "15", "4096", "4097")),
    *(EXTREMAL + ["--theta", v] for v in ("1e308", "inf", "nan")),
    *(BERGMAN + ["--max-degree", v] for v in ("0", "12", "13", "-1")),
    *(BERGMAN[:3] + ["--eta=" + v] for v in ("1e308", "-1e308", "inf", "nan")),
    *(["bergman-check", "--eta", "-0.5", "--q", v] for v in ("2", "3", "-1")),
    *(["torus-demo", "--k", v] for v in ("1", "0")),
    *(["torus-demo", "--q", v] for v in ("1", "2", "-1")),
    *(["convergence", "--kmin", v] for v in ("1", "0")),
    *(["convergence", "--kmax", v] for v in ("10", "9")),
    *(["convergence", "--kmin", "1", "--kmax", "1001", "--kstep", v] for v in ("2", "1")),
    *(["convergence", "--q", v] for v in ("0", "1", "2")),
    *([demo, "--k", v] for demo in ("heisenberg-demo", "levi-flat-demo") for v in ("1", "0")),
]
FUZZ_INPUTS = {argv[0]: doc for doc, commands in FUZZ_DOCS for argv in commands}


def _leaves(doc, path=()):
    """The paths of the values of a JSON document that are not containers."""
    if not isinstance(doc, (dict, list)):
        return [path]
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


def _mutated(doc, rng):
    """``doc`` with 1-2 of its leaves replaced or scaled."""
    doc = json.loads(json.dumps(doc))
    for path in rng.sample(_leaves(doc), rng.randint(1, 2)):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        number = isinstance(old, (int, float)) and not isinstance(old, bool)
        if number and rng.random() < 0.3:
            parent[path[-1]] = old * rng.choice(FUZZ_SCALES)
        else:
            parent[path[-1]] = rng.choice(FUZZ_VALUES)
    return doc


def test_fuzzed_documents_and_flags_exit_with_one_line(tmp_path, capsys):
    # every command that reads a document or flags, on documents with 1-2
    # leaves mutated and on flags at and just past their bounds: an exit
    # code of the contract, nothing escaping run(), no warning, and a
    # refusal is one stderr line
    rng = random.Random(31)
    cal, out = str(tmp_path / "cal.json"), str(tmp_path / "out")
    runs = [(argv, _mutated(doc, rng)) for doc, commands in FUZZ_DOCS for _ in range(24) for argv in commands]
    runs += [(argv, FUZZ_INPUTS[argv[0]]) for argv in FUZZ_FLAGS] + [(["calibrate", "--out", cal], None)]
    for argv, doc in runs:
        if doc is not None:
            argv = argv + ["--input", str(write_json(tmp_path, "doc.json", doc)), "--out", out]
        if argv[0] in ("convergence", "torus-demo"):
            argv = argv + ["--cal", cal]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = run(argv)
            except Exception as exc:
                pytest.fail("%s on %s: %r escaped run()" % (argv, json.dumps(doc), exc))
        err = capsys.readouterr().err
        assert not caught, (argv, doc, [str(w.message) for w in caught])
        assert code in (0, 2, 3, 4), (argv, doc, code, err)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, doc, err)
            assert err.startswith(("error: ", "degenerate pencil: ", "calibration error: ")), (argv, doc, err)
        else:
            assert err == "", (argv, doc, err)


# ------------------------------------------------ the argument-check policy
#
# crmorse.errors holds one check per kind of argument: an integer within
# bounds, a positive finite real, a finite real with an optional lower
# bound, and the float-range guard.  Each names the parameter, or the flag
# that set it, in one message form.


def _field():
    return parse_field(json.dumps(MINIMAL).encode())  # n = 2, delta = 1


def _model(mu=3.0):
    return crmorse.ModelData(d=1, lam=[1.0], mu=crmorse.HermitianMatrix([[mu]]), delta=1.0)


# c_0 = 2e300 / (2 pi)^2: in range, but not times k^2 = 1e10
BIG_C0 = {"schema": "crmorse/field-v1", "n": 2, "delta": 1.0,
          "points": [{"label": "p", "R": [[[1e300, 0.0]]], "L": [[[0.0, 0.0]]]}]}
BIG_LEVI = {"schema": "crmorse/leviflat-v1", "d": 1, "mu": [[[1e300, 0.0]]], "delta": 1.0}

MODEL_D4 = {**MODEL_DOC, "d": 4, "lambda": [1.0] * 4,
            "mu": [[[3.1 if i == j else 0.1, 0.0] for j in range(4)] for i in range(4)]}
# one eta-chamber, of signature 10|10 on [-1/4, 1/4]: the extremal form at
# q = 10 would gather C(20, 10) = 184756 minors of size 10 x 10 per node
MODEL_D20 = {**MODEL_DOC, "d": 20, "lambda": [1.0] * 20, "delta": 0.25,
             "mu": mat(np.diag([-1.0] * 10 + [1.0] * 10))}
FORM_SIZE = ("q 10: the extremal form's eta frames and 10 x 10 minors at 16 eta nodes take 295616000 complex "
             "entries, more than 4194304")


@pytest.mark.parametrize(
    "case, doc, expected",
    [
        (lambda: crmorse.density_q(_field(), 9, 1.0), None, "q must be an integer in 0..1, got 9"),
        (lambda: crmorse.extremal_form(_model(), 0, [0.0], 0.0, 8), None,
         "eta_quad_points must be an integer in 16..4096, got 8"),
        (["chambers", "--point", "1"], MINIMAL, "--point must be an integer in 0..0, got 1"),
        (["morse", "--threads", "0"], MINIMAL, "--threads must be an integer >= 1, got 0"),
        (["convergence", "--example", "torus-d1", "--kmin", "0"], None, "--kmin must be an integer >= 1, got 0"),
        (["convergence", "--example", "torus-d1", "--kmin", "20", "--kmax", "10"], None,
         "--kmax must be an integer >= 20, got 10"),
        (["convergence", "--example", "torus-d1", "--kstep", "0"], None, "--kstep must be an integer >= 1, got 0"),
        (["bergman-check", "--q", "0", "--eta", "0", "--max-degree", "-1"], MODEL_DOC,
         "--max-degree must be an integer in 0..12, got -1"),
        (lambda: crmorse.ModelData(d=1, lam=[1.0], mu=crmorse.HermitianMatrix([[3.0]]), delta=0.0), None,
         "delta must be a positive real, got 0.0"),
        (lambda: crmorse.rrh_total(_field(), 2.0), None, "delta must be a positive real <= 1, got 2.0"),
        (["chambers", "--delta", "-1"], MINIMAL, "--delta must be a positive real, got -1.0"),
        # the field window is named by its key, as in the other documents
        (["morse"], {**MINIMAL, "delta": -1}, "delta must be a positive real, got -1.0"),
        (lambda: crmorse.m_phi_eta(_model(), math.nan), None, "eta must be a finite real, got nan"),
        (["bergman-check", "--q", "0", "--eta", "nan"], MODEL_DOC, "--eta must be a finite real, got nan"),
        (lambda: crmorse.weak_bound(_field(), 0, 1.0, K200), None,
         "k: an integer of 201 digits, whose power n = 2 leaves floating-point range"),
        (["morse", "--k", str(K200)], MINIMAL,
         "--k: an integer of 201 digits, whose power n = 2 leaves floating-point range"),
        # k^n = 1e10 and c_0 are in range, their product is not
        (lambda: crmorse.weak_bound(crmorse.PencilField(2, 1.0, [crmorse.PencilPoint(
            "p", crmorse.HermitianMatrix([[1e300]]), crmorse.HermitianMatrix([[0.0]]))]), 0, 1.0, 10**5), None,
         "k: an integer of 6 digits, whose weak bound k^2 c_q leaves floating-point range"),
        (["morse", "--k", "100000"], BIG_C0,
         "--k: an integer of 6 digits, whose weak bound k^2 c_q leaves floating-point range"),
        (["levi-flat-demo", "--k", "100000"], BIG_LEVI,
         "--k: an integer of 6 digits, whose weak bound k^2 c_q leaves floating-point range"),
        # the window k * delta of 10^160 fits, its power k^2 does not
        (["convergence", "--example", "torus-d1", "--kmin", str(10**160), "--kmax", str(10**160)], None,
         "--kmax: an integer of 161 digits, whose power n = 2 leaves floating-point range"),
        # a real argument is a number: float() would read these strings
        (lambda: crmorse.density_q(_field(), 0, "0.5"), None, "delta must be a positive real <= 1, got '0.5'"),
        (lambda: crmorse.density_q(_field(), 0, b"0.5"), None, "delta must be a positive real <= 1, got b'0.5'"),
        (lambda: crmorse.levi_flat_field([[1.0]], 1, True), None, "delta must be a positive real, got True"),
        (lambda: crmorse.levi_flat_field([[1.0]], 1, "x"), None, "delta must be a positive real, got 'x'"),
        # an int beyond float range, a value or a bound, shows as its digit
        # count, as in the document parsers: str() refuses one of more than
        # 4300 digits, which made each of these a bare ValueError
        (lambda: crmorse.density_q(_field(), 10**5000, 1.0), None,
         "q must be an integer in 0..1, got an integer of 5001 digits"),
        (lambda: crmorse.weak_bound(_field(), 0, 1.0, -10**5000), None,
         "k must be an integer >= 1, got an integer of 5001 digits"),
        (lambda: crmorse.density_q(_field(), 0, 10**5000), None,
         "delta must be a positive real <= 1, got an integer of 5001 digits"),
        (lambda: crmorse.density_q(_field(), 0, -10**5000), None,
         "delta must be a positive real <= 1, got an integer of 5001 digits"),
        (lambda: crmorse.m_phi_eta(_model(), 10**5000), None,
         "eta must be a finite real, got an integer of 5001 digits"),
        # the float-range guard on eta, as bergman-check --eta
        (lambda: crmorse.m_phi_eta(_model(), 1e308), None,
         "eta: M_eta = mu - 2 eta diag(lambda) leaves floating-point range"),
        (lambda: crmorse.bergman_diag(parse_model(json.dumps(BENCH_MODEL_D2).encode()), 1e200, 1, [0, 0]), None,
         "eta: |det M_eta| leaves floating-point range"),
        # the brute-force oracle refuses that eta as bergman_diag does, before
        # it builds a Gram block on the overflowed determinant
        (lambda: crmorse.bergman_bruteforce(
            crmorse.ModelData(2, [-1, -1], crmorse.HermitianMatrix(np.eye(2)), 1), 1e200, 2), None,
         "eta: |det M_eta| leaves floating-point range"),
        # sizes that would allocate terabytes are refused before anything is
        # allocated, with the bound in the message
        (["extremal-check", "--q", "0", "--nodes", "10000000000000"], MODEL_DOC,
         "--nodes must be an integer in 16..4096, got 10000000000000"),
        (lambda: crmorse.extremal_form(_model(), 0, [0.0], 0.0, 10**13), None,
         "eta_quad_points must be an integer in 16..4096, got 10000000000000"),
        (["bergman-check", "--q", "0", "--eta", "-0.5", "--max-degree", "60"], MODEL_D4,
         "--max-degree must be an integer in 0..10, got 60"),
        (lambda: crmorse.bergman_bruteforce(parse_model(json.dumps(MODEL_D4).encode()), 0.5, 60), None,
         "max_degree must be an integer in 0..10, got 60"),
        (["extremal-check", "--q", "10", "--nodes", "16"], MODEL_D20, "--" + FORM_SIZE),
        (lambda: crmorse.extremal_form(parse_model(json.dumps(MODEL_D20).encode()), 10, np.zeros(20), 0.0, 16),
         None, FORM_SIZE),
        (["convergence", "--example", "torus-d1", "--kmin", "1", "--kmax", str(10**15), "--kstep", "1"], None,
         "--kstep must be an integer >= 1000000000000, got 1"),
        (["convergence", "--example", "torus-d1", "--kmin", "1", "--kmax", str(10**400), "--kstep", "1"], None,
         "--kstep must be an integer >= an integer of 398 digits, got 1"),
    ],
    ids=["int-library", "int-library-lower", "int-point", "int-threads", "int-kmin", "int-kmax", "int-kstep",
         "int-max-degree", "positive-library", "positive-library-upper", "positive-delta", "positive-field-delta",
         "real-library",
         "real-eta", "range-library", "range-k", "range-library-product", "range-k-product",
         "range-levi-flat-product", "range-kmax-power", "positive-library-str",
         "positive-library-bytes", "levi-flat-delta-bool", "levi-flat-delta-str", "int-huge", "int-huge-negative",
         "positive-huge", "positive-huge-negative", "real-huge", "range-eta-matrix", "range-eta-det",
         "range-eta-det-bruteforce", "size-nodes", "size-eta_quad_points",
         "size-max-degree", "size-max_degree", "size-q", "size-q-library", "size-kstep", "size-kstep-huge-bound"],
)
def test_argument_checks_name_what_the_caller_set(tmp_path, capsys, monkeypatch, case, doc, expected):
    def no_frames(*args):
        raise AssertionError("extremal_form built its eta frames")

    # every check here comes before the extremal form's frames and minors
    monkeypatch.setattr("crmorse.model._frame", no_frames)
    out = tmp_path / "out"
    if callable(case):
        with pytest.raises(InputError) as exc:
            case()
        err = "error: %s\n" % exc.value
    else:
        argv = case + ["--out", str(out)]
        if doc is not None:
            argv += ["--input", str(write_json(tmp_path, "doc.json", doc))]
        if case[0] == "convergence":
            argv += ["--cal", str(tmp_path / "cal.json")]
        assert run(argv) == 2
        err = capsys.readouterr().err
    assert err == "error: %s\n" % expected
    assert not out.exists()


def test_degree_cap_admits_the_documented_sizes():
    from crmorse.model import _degree_cap

    # at most degree 12 and 1024 monomials a side: the bench's degree 5 at
    # d = 4 and the tests' degree 5 at d = 6 stay admitted
    assert [_degree_cap(d) for d in (1, 2, 3, 4, 6, 1023, 1024)] == [12, 12, 12, 10, 6, 1, 0]


def _torus_spec(**kwargs):
    from crmorse.oracles import TorusBundleSpec

    return TorusBundleSpec(**{"d": 1, "lambda_mat": [[1]], "mu_mat": [[2]], "delta": 0.5, **kwargs})


def _heisenberg_spec(**kwargs):
    from crmorse.oracles import HeisenbergSpec

    return HeisenbergSpec(**{"d": 1, "lambda_vec": [1], "mu_mat": [[2]], "delta": 0.5, **kwargs})


def _point(weight):
    return crmorse.PencilPoint("w", crmorse.HermitianMatrix([[1.0]]), crmorse.HermitianMatrix([[1.0]]), weight)


def _decomposition():
    return crmorse.chambers(crmorse.HermitianMatrix([[2.0]]), crmorse.HermitianMatrix([[1.0]]), 1.0)


# a bool is not an integer, nor is a float with an integral value: each of
# these calls returned a value before the checks were shared
@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: _torus_spec(d=1.0), "torus dimension d must be an integer >= 1, got 1.0"),
        (lambda: _heisenberg_spec(d=1.0), "dimension d must be an integer >= 1, got 1.0"),
        (lambda: _heisenberg_spec(lambda_vec=[1.0]), "lambda_vec[0] must be an integer, got 1.0"),
        (lambda: crmorse.levi_flat_field([[1.0]], 1.0), "dimension d must be an integer >= 1, got 1.0"),
        (lambda: _torus_spec(d=True), "torus dimension d must be an integer >= 1, got True"),
        (lambda: _heisenberg_spec(d=True), "dimension d must be an integer >= 1, got True"),
        (lambda: _heisenberg_spec(lambda_vec=[True]), "lambda_vec[0] must be an integer, got True"),
        (lambda: crmorse.levi_flat_field([[1.0]], True), "dimension d must be an integer >= 1, got True"),
        (lambda: crmorse.density_q(_field(), True, 1.0), "q must be an integer in 0..1, got True"),
        (lambda: crmorse.check_Xq(_field(), True), "q must be an integer in 0..1, got True"),
        (lambda: crmorse.weak_bound(_field(), 0, 1.0, True), "k must be an integer >= 1, got True"),
        (lambda: crmorse.ModelData(d=True, lam=[1.0], mu=crmorse.HermitianMatrix([[3.0]]), delta=1.0),
         "d must be an integer >= 1, got True"),
        (lambda: crmorse.szego_density(_model(), True), "q must be an integer in 0..1, got True"),
        (lambda: crmorse.bergman_diag(_model(), 0.0, True, [0.0]), "q must be an integer in 0..1, got True"),
        (lambda: crmorse.extremal_form(_model(mu=1.0), True, [0.0], 0.0), "q must be an integer in 0..1, got True"),
        (lambda: crmorse.bergman_bruteforce(_model(), 0.0, True), "max_degree must be an integer in 0..12, got True"),
        (lambda: crmorse.torus_mode_dim(True, [[1]], crmorse.calibrate()), "q must be an integer in 0..1, got True"),
        (lambda: crmorse.fourier_dimension_sum(_torus_spec(), True, 4, crmorse.calibrate()),
         "q must be an integer in 0..1, got True"),
        (lambda: crmorse.fourier_dimension_sum(_torus_spec(), 0, True, crmorse.calibrate()),
         "k must be an integer >= 1, got True"),
        (lambda: crmorse.calibrate_weight(_torus_spec(), 0, True, crmorse.calibrate()),
         "k0 must be an integer >= 1, got True"),
        (lambda: crmorse.d1_fourier_bruteforce(True), "curvature must be an integer >= 1, got True"),
        (lambda: crmorse.chamber_integral(crmorse.HermitianMatrix([[2.0]]), crmorse.HermitianMatrix([[1.0]]),
                                          True, 1.0), "q must be an integer in 0..1, got True"),
        (lambda: crmorse.signature_set(_decomposition(), True), "q must be an integer in 0..1, got True"),
        (lambda: crmorse.signature_set(_decomposition(), 0.5), "q must be an integer in 0..1, got 0.5"),
    ],
    ids=["torus-d-float", "heisenberg-d-float", "heisenberg-lambda-float", "levi-flat-d-float", "torus-d-bool",
         "heisenberg-d-bool", "heisenberg-lambda-bool", "levi-flat-d-bool", "density_q-q", "check_Xq-q",
         "weak_bound-k", "model-d", "szego_density-q", "bergman_diag-q", "extremal_form-q",
         "bergman_bruteforce-max_degree", "torus_mode_dim-q", "fourier_dimension_sum-q",
         "fourier_dimension_sum-k", "calibrate_weight-k0", "d1_fourier_bruteforce-a", "chamber_integral-q",
         "signature_set-q-bool", "signature_set-q-half"],
)
def test_an_integer_argument_is_not_a_bool_or_a_float(call, expected):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == expected


# a bool is not a real either, and a value float() cannot read is an input
# error: the bools were read as 1.0 before the checks were shared, and the
# unreadable values raised TypeError or ValueError
@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: crmorse.PencilField(2, True, [_point(1.0)]), "delta must be a positive real, got True"),
        (lambda: _point(True), "sample 'w': weight must be a positive real, got True"),
        (lambda: crmorse.ModelData(d=1, lam=[1.0], mu=crmorse.HermitianMatrix([[3.0]]), delta=True),
         "delta must be a positive real, got True"),
        (lambda: _torus_spec(delta=True), "delta must be a positive real, got True"),
        (lambda: _heisenberg_spec(delta=True), "delta must be a positive real, got True"),
        (lambda: crmorse.rrh_total(_field(), True), "delta must be a positive real <= 1, got True"),
        (lambda: crmorse.chambers(crmorse.HermitianMatrix([[2.0]]), crmorse.HermitianMatrix([[1.0]]), True),
         "delta must be a positive real, got True"),
        (lambda: crmorse.m_phi_eta(_model(), True), "eta must be a finite real, got True"),
        (lambda: crmorse.extremal_form(_model(), 0, [0.0], True), "theta must be a finite real, got True"),
        (lambda: _torus_spec(delta=None), "delta must be a positive real, got None"),
        (lambda: _point("heavy"), "sample 'w': weight must be a positive real, got 'heavy'"),
        (lambda: crmorse.m_phi_eta(_model(), [1.0]), "eta must be a finite real, got [1.0]"),
    ],
    ids=["field-delta", "point-weight", "model-delta", "torus-delta", "heisenberg-delta", "rrh_total-delta",
         "chambers-delta", "m_phi_eta-eta", "extremal_form-theta", "torus-delta-none",
         "point-weight-text", "m_phi_eta-eta-list"],
)
def test_a_real_argument_is_not_a_bool_or_unreadable(call, expected):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["morse", "--input", "{field}", "--out", "{absent}/x.json"],
         "--out: cannot write {absent}/x.json: No such file or directory"),
        (["morse", "--input", "{field}", "--out", "{tmp}"], "--out: cannot write {tmp}: Is a directory"),
        (["calibrate", "--out", "{absent}/cal.json"],
         "--out: cannot write {absent}/cal.json: No such file or directory"),
        (["torus-demo", "--cal", "{absent}/cal.json"],
         "--cal: cannot write {absent}/cal.json: No such file or directory"),
        (["convergence", "--example", "torus-d1", "--cal", "{absent}/cal.json"],
         "--cal: cannot write {absent}/cal.json: No such file or directory"),
        (["morse", "--input", "{absent}/f.json"], "--input: cannot read {absent}/f.json: No such file or directory"),
        (["classify", "--input", "{tmp}"], "--input: cannot read {tmp}: Is a directory"),
    ],
    ids=["morse-out-absent", "morse-out-dir", "calibrate-out", "torus-demo-cal", "convergence-cal",
         "morse-input-absent", "classify-input-dir"],
)
def test_file_errors_exit_2_naming_the_flag_and_path(tmp_path, capsys, argv, expected):
    # an OSError on the file a flag names is an input error, not a traceback
    paths = {"field": write_json(tmp_path, "f.json", MINIMAL), "absent": tmp_path / "absent", "tmp": tmp_path}
    assert run([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err == "error: %s\n" % expected.format(**paths)


# -------------------------------------------------------------- main()

# main() ends the process with os._exit after flushing; the reference is the
# plain exit that main() replaced
PLAIN_EXIT = "import sys; from crmorse.cli import run; sys.exit(run())"


def _spawn(args, cwd, module=True, unbuffered=True, close_stdout=False, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(crmorse.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, *(["-m", "crmorse"] if module else ["-c", PLAIN_EXIT]), *args]
    if close_stdout:
        argv = ["sh", "-c", 'exec "$0" "$@" >&-', *argv]
    return subprocess.Popen(argv, env=env, cwd=cwd, **kwargs)


def test_main_exit_codes_and_bytes_match_run(tmp_path, capsys):
    field = write_json(tmp_path, "f.json", MINIMAL)
    dead = write_json(tmp_path, "dead.json", field_doc(3, 1.0, [point_doc("dead", [[1, 0], [0, 0]], [[1, 0], [0, 0]])]))
    cal = tmp_path / "cal.json"
    assert run(["calibrate", "--out", str(cal)]) == 0
    stale = tmp_path / "stale.json"
    stale.write_text(cal.read_text().replace('"1/1"', '"2/1"'))
    cases = {
        0: ["morse", "--input", str(field), "--k", "3"],
        2: ["morse", "--input", str(tmp_path / "absent.json")],
        3: ["morse", "--input", str(dead)],
        4: ["torus-demo", "--k", "4", "--cal", str(stale)],
    }
    capsys.readouterr()
    expected = {}
    for code, argv in cases.items():
        assert run(argv) == code
        expected[code] = capsys.readouterr()
    procs = {
        code: _spawn(argv, tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for code, argv in cases.items()
    }
    for code, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == code, err
        assert strip_timing(out) == strip_timing(expected[code].out)
        assert err == expected[code].err
    assert expected[0].out.startswith("{")  # the exit-0 case did write a report


def test_main_with_stdout_closed_writes_out_file(tmp_path):
    field = write_json(tmp_path, "f.json", MINIMAL)
    out = tmp_path / "report.json"
    argv = ["morse", "--input", str(field), "--out", str(out)]
    # fd 1 closed at start: sys.stdout is None, and main must not flush it
    proc = _spawn(argv, tmp_path, close_stdout=True, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, "")
    assert run(argv[:-1] + [str(tmp_path / "again.json")]) == 0
    assert strip_timing(out.read_text()) == strip_timing((tmp_path / "again.json").read_text())


def _frames_dropped(err):
    # a traceback's frames name the entry point; its header and exception line do not
    return [line for line in err.splitlines() if not line.startswith("  ")]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_main_on_closed_pipe_exits_like_plain_exit(tmp_path, unbuffered):
    argv = ["torus-demo", "--k", "4", "--cal", str(tmp_path / "cal.json")]
    assert run(["calibrate", "--out", argv[-1]]) == 0
    results = []
    for module in (True, False):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        proc = _spawn(argv, tmp_path, module=module, unbuffered=unbuffered,
                      stdout=write, stderr=subprocess.PIPE, text=True)
        os.close(write)
        _, err = proc.communicate(timeout=120)
        results.append((proc.returncode, _frames_dropped(err)))
    assert results[0] == results[1]
    assert results[0][0] != 0 and "BrokenPipeError: [Errno 32] Broken pipe" in results[0][1]
