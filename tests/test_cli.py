"""End-to-end tests of the command line surface.

Each command is invoked through run() in-process; outputs go to temp
files.  Checks cover the documented exit codes (0 ok, 2 input, 3
degenerate pencil, 4 calibration), path-precise parse errors, byte
determinism modulo the timing field, and a few frozen numeric values.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import crmorse
import crmorse.__main__
import crmorse.cli
from crmorse.cli import parse_field, run, serialize_field
from crmorse.errors import InputError

TWO_PI = 2.0 * math.pi


def mat(rows):
    return [[[complex(v).real, complex(v).imag] for v in row] for row in rows]


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


HUGE = int("9" * 400)  # beyond float range


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
    assert capsys.readouterr().err == "error: %s\n" % message


def test_morse_overflowing_window_names_sample(tmp_path, capsys):
    inp = write_json(tmp_path, "f.json", field_doc(2, 1e308, [point_doc("far", [[2]], [[1]])]))
    assert run(["morse", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == (
        "error: sample 'far': delta 1e+308 puts R + 2sL out of floating-point range at s = +-delta\n"
    )


OUT_OF_RANGE = "delta %g: the integral of |det(R + 2sL)| over [-delta, delta] is out of floating-point range"


@pytest.mark.parametrize("delta", [1e154, 1e300])
def test_chambers_overflowing_integral(tmp_path, capsys, delta):
    # R +- 2 delta L stays finite, but the |det| antiderivative does not; a
    # RuntimeWarning on the way would fail the test (pyproject filterwarnings)
    doc = field_doc(3, 1.0, [point_doc("p0", [[1, 0], [0, -1]], [[1, 0], [0, 1]])])
    inp = write_json(tmp_path, "f.json", doc)
    assert run(["chambers", "--input", str(inp), "--delta", repr(delta)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % (OUT_OF_RANGE % delta)


def test_chambers_overflowing_det(tmp_path, capsys):
    # entries of 1e200 are finite, but det(R + 2sL) at the probes is not
    doc = field_doc(3, 1.0, [point_doc("p0", [[1e200, 0], [0, -1e200]], [[1e200, 0], [0, 1e200]])])
    inp = write_json(tmp_path, "f.json", doc)
    assert run(["chambers", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % (OUT_OF_RANGE % 1.0)


def test_chambers_overflowing_mass(tmp_path, capsys):
    # det is 1e10 everywhere: P stays finite at +-delta but their difference does not
    inp = write_json(tmp_path, "f.json", field_doc(2, 1.0, [point_doc("p0", [[1e10]], [[0]])]))
    assert run(["chambers", "--input", str(inp), "--delta", "1e297"]) == 0
    assert run(["chambers", "--input", str(inp), "--delta", "1e298"]) == 2
    assert capsys.readouterr().err == "error: %s\n" % (OUT_OF_RANGE % 1e298)


def bench_field(d, seed, scale):
    """bench/gen.py's Gaussian field, every matrix entry times ``scale``."""
    spec = importlib.util.spec_from_file_location("gen", Path(__file__).parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    doc = gen.field_doc(seed, d, 100)
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


# ------------------------------------------------------ oracle commands


def test_calibrate_command_idempotent(tmp_path):
    rec1 = tmp_path / "cal1.json"
    rec2 = tmp_path / "cal2.json"
    assert run(["calibrate", "--out", str(rec1)]) == 0
    assert run(["calibrate", "--out", str(rec2)]) == 0
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


# q = 0 carries pencil mass, but its oracle sums never grow like k^2
TRAP_TORUS = {"schema": "crmorse/torus-v1", "d": 1, "lambda": [[[1, 0]]], "mu": [[[-1, 0]]], "delta": 1.0}


def test_convergence_euler_falls_through_to_a_calibrating_degree(tmp_path):
    out = tmp_path / "trap.json"
    assert run([
        "convergence", "--input", str(write_json(tmp_path, "t.json", TRAP_TORUS)),
        "--kmin", "10", "--kmax", "20", "--kstep", "10",
        "--cal", str(tmp_path / "cal.json"), "--out", str(out),
    ]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["mode"] == "euler"
    assert res["weightQ"] == 1
    assert [row["oracle"] for row in res["rows"]] == [-420, -1640]


def test_convergence_euler_lists_each_degree_reason(tmp_path, capsys):
    assert run([
        "convergence", "--example", "torus-d1", "--kmin", "10", "--kmax", "10",
        "--k0", str(6 * 10**153), "--cal", str(tmp_path / "cal.json"),
    ]) == 2
    assert capsys.readouterr().err == (
        "error: no degree calibrates a weight ("
        "q=0: k0: the oracle dimension sums at k0 and 2 k0 leave floating-point range; "
        "q=1: q=1 spectral density vanishes for this spec; nothing to calibrate)\n"
    )


# ---------------------------------------------------------------- misc


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


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

# run in a fresh interpreter: run the commands, then list sys.modules and
# the BLAS thread count that importing and running left in the environment
IMPORT_PROBE = """
import json, os, sys
from crmorse.cli import run
codes = [run(argv) for argv in json.loads(sys.argv[1])]
blas = os.environ.get("OPENBLAS_NUM_THREADS")
print(json.dumps({"codes": codes, "modules": sorted(sys.modules), "blas": blas}))
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
    loaded = {}
    for family, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        report = json.loads(out.splitlines()[-1])
        assert report["codes"] == [0] * len(argvs[family]), err
        loaded[family] = set(report["modules"])
        assert report["blas"] is None  # only the process entry sets a thread count
    handlers = {"crmorse.cli_model", "crmorse.cli_lattice"}
    assert not loaded["field"] & {"crmorse.model", "crmorse.oracles", "numpy.polynomial", "fractions",
                                  "dataclasses", *handlers}
    assert not loaded["model"] & {"crmorse.morse", "crmorse.oracles", "numpy.polynomial",
                                  "dataclasses", "crmorse.cli_lattice"}
    assert not loaded["lattice"] & {"crmorse.model", "crmorse.cli_model", "dataclasses"}
    if BUILTIN_SHA256:  # the input digest does not load OpenSSL
        for family, modules in loaded.items():
            assert not modules & {"hashlib", "_hashlib"}, family
    assert "crmorse.cli_model" in loaded["model"] and "crmorse.cli_lattice" in loaded["lattice"]
    # --help pays the same base as every command: numpy and the pencil engine
    assert {"numpy", "crmorse.pencil"} <= loaded["help"]
    assert not loaded["help"] & {"crmorse.morse", "crmorse.model", "crmorse.oracles", *handlers}


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
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        crmorse.no_such_name


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


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda tmp, cap: _cli_error(tmp, cap, ["convergence", "--example", "torus-d2-indefinite",
                                                "--kmin", "10", "--kmax", "10", "--k0", str(K200)]),
         "--k0: an integer of 201 digits, whose power n = 3 leaves floating-point range"),
        (lambda tmp, cap: _cli_error(tmp, cap, ["convergence", "--example", "torus-d1", "--q", "0",
                                                "--k0", str(K400)]),
         "--k0: an integer of 401 digits, whose power n = 2 leaves floating-point range"),
        (lambda tmp, cap: _cli_error(tmp, cap, ["torus-demo", "--k", str(K400)]),
         "--k: an integer of 401 digits, whose window k * delta leaves floating-point range"),
        (lambda tmp, cap: _library_error(lambda: crmorse.calibrate_weight(_torus(), 1, K200, crmorse.calibrate())),
         "k0: an integer of 201 digits, whose power n = 3 leaves floating-point range"),
        (lambda tmp, cap: _library_error(
            lambda: crmorse.weak_bound(parse_field(json.dumps(MINIMAL).encode()), 0, 1.0, K200)),
         "k: an integer of 201 digits, whose power n = 2 leaves floating-point range"),
        (lambda tmp, cap: _library_error(
            lambda: crmorse.fourier_dimension_sum(_torus(), 0, K400, crmorse.calibrate())),
         "k: an integer of 401 digits, whose window k * delta leaves floating-point range"),
    ],
    ids=["cli-k0-euler", "cli-k0-density", "cli-torus-k", "calibrate_weight-k0", "weak_bound-k",
         "fourier_dimension_sum-k"],
)
def test_levels_beyond_float_range_are_input_errors(tmp_path, capsys, make, expected):
    assert make(tmp_path, capsys) == "error: %s\n" % expected


@pytest.mark.parametrize(
    "argv, doc, expected",
    [
        (["morse", "--k", "-3"], MINIMAL, "--k must be >= 1, got -3"),
        (["levi-flat-demo", "--k", "0"], None, "--k must be >= 1, got 0"),
        (["heisenberg-demo", "--k", "0"], None, "--k must be >= 1, got 0"),
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
        (["torus-demo", "--k", "0"], None, "--k must be a positive integer, got 0"),
        (["bergman-check", "--q", "0", "--eta", "inf"], MODEL_DOC, "--eta must be finite, got inf"),
        (["extremal-check", "--q", "0", "--theta", "inf"], MODEL_DOC, "--theta must be finite, got inf"),
        (["morse", "--delta", "0"], MINIMAL, "--delta must lie in (0, 1] for this field, got 0"),
        (["morse", "--delta", "2"], MINIMAL, "--delta must lie in (0, 1] for this field, got 2"),
        (["chambers", "--delta", "0"], MINIMAL, "--delta must be positive, got 0"),
        (["chambers", "--delta", "inf"], MINIMAL, "--delta must be finite, got inf"),
        (["chambers", "--tol", "nan"], MINIMAL, "--tol must be finite, got nan"),
        (["chambers", "--tol", "inf"], MINIMAL, "--tol must be finite, got inf"),
        (["chambers", "--tol", "-1"], MINIMAL, "--tol must be nonnegative, got -1"),
        (["extremal-check", "--q", "0", "--nodes", "8"], MODEL_DOC, "--nodes must be >= 16, got 8"),
        (["extremal-check", "--q", "9"], MODEL_DOC, "--q must be in 0..1, got 9"),
        (["bergman-check", "--q", "9", "--eta", "0"], MODEL_DOC, "--q must be in 0..1, got 9"),
        (["szego-density", "--q", "9"], MODEL_DOC, "--q must be in 0..1, got 9"),
    ],
    ids=["morse-k", "levi-flat-k", "heisenberg-k", "bergman-z-exp", "bergman-z-huge", "extremal-z",
         "convergence-kmax", "convergence-kmin", "torus-k", "bergman-eta", "extremal-theta",
         "morse-delta-0", "morse-delta-2", "chambers-delta-0", "chambers-delta-inf", "chambers-tol-nan",
         "chambers-tol-inf", "chambers-tol-negative", "extremal-nodes", "extremal-q", "bergman-q",
         "szego-q"],
)
def test_hostile_flags_exit_2_naming_the_flag(tmp_path, capsys, argv, doc, expected):
    if doc is not None:
        argv = argv + ["--input", str(write_json(tmp_path, "doc.json", doc))]
    if argv[0] in ("convergence", "torus-demo"):
        argv = argv + ["--cal", str(tmp_path / "cal.json")]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: %s\n" % expected
    assert not (tmp_path / "out").exists()


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
