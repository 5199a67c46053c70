"""End-to-end tests of the command line surface.

Each command is invoked through run() in-process; outputs go to temp
files.  Checks cover the documented exit codes (0 ok, 2 input, 3
degenerate pencil, 4 calibration), path-precise parse errors, byte
determinism modulo the timing field, and a few frozen numeric values.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crmorse
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
        ("--delta", "inf", "delta must be finite, got inf"),
        ("--delta", "1e308", "delta 1e+308 puts R + 2sL out of floating-point range at s = +-delta"),
        ("--tol", "nan", "inertia tolerance must be finite, got nan"),
        ("--tol", "inf", "inertia tolerance must be finite, got inf"),
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
    monkeypatch.setenv("CRMORSE_THREADS", "2")
    assert run(["morse", "--input", str(inp), "--out", str(tmp_path / "ok.json")]) == 0
    monkeypatch.setenv("CRMORSE_THREADS", "abc")
    assert run(["morse", "--input", str(inp)]) == 2
    monkeypatch.setenv("CRMORSE_THREADS", "0")
    assert run(["classify", "--input", str(inp)]) == 2
    monkeypatch.delenv("CRMORSE_THREADS")
    assert run(["morse", "--input", str(inp), "--threads", "0"]) == 2


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

# run in a fresh interpreter: run the commands, then list sys.modules
IMPORT_PROBE = """
import json, sys
from crmorse.cli import run
codes = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


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
    assert not loaded["field"] & {"crmorse.model", "crmorse.oracles", "numpy.polynomial", "fractions"}
    assert not loaded["model"] & {"crmorse.morse", "crmorse.oracles"}
    assert "crmorse.model" not in loaded["lattice"]
    # --help pays the same base as every command: numpy and the pencil engine
    assert {"numpy", "crmorse.pencil"} <= loaded["help"]
    assert not loaded["help"] & {"crmorse.morse", "crmorse.model", "crmorse.oracles"}


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
