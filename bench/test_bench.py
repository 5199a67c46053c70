"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402


def _declared():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_generator_is_deterministic():
    for d in (2, 4, 8):
        a = gen.dumps(gen.field_doc(7, d, 5))
        assert a == gen.dumps(gen.field_doc(7, d, 5))
        assert a != gen.dumps(gen.field_doc(8, d, 5))
        assert len(json.loads(a)["points"]) == 5
    for d in (2, 4):
        assert gen.dumps(gen.model_doc(7, d)) == gen.dumps(gen.model_doc(7, d))
    out = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "field", "--d", "4", "--points", "5", "--seed", "7"],
        capture_output=True, check=True,
    ).stdout
    assert out == gen.dumps(gen.field_doc(7, 4, 5))


def test_names_match_benchmark_json():
    doc = _declared()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers.metric_specs()


class CorruptingCli(runner.Cli):
    """Perturbs one density of the first full-window morse report."""

    corrupted = 0

    def run(self, args, timeout=runner.COMMAND_TIMEOUT_S):
        res = super().run(args, timeout)
        if args[0] == "morse" and "--delta" not in args and not self.corrupted:
            doc = json.loads(res.out)
            doc["result"]["densities"][1] *= 1.0 + 1e-6
            res.out = json.dumps(doc).encode()
            self.corrupted += 1
        return res


def test_corrupted_output_raises_failed_ratio(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "HELP_REPEATS", 1)
    workload = run.FieldReport(points={2: 3, 4: 3}, chamber_points=1)
    m = run.measure(workload, CorruptingCli(tmp_path), seed=3, seconds=0.0, workdir=tmp_path)
    tally = m["tally"]
    assert len(tally.failures) == 1, tally.failures
    assert "alternating density sum" in tally.failures[0]
    assert tally.attempted > 10
    assert set(m["metrics"]) == set(run.E2E_METRICS)
    assert all(v > 0 for v in m["metrics"].values())


def test_chamber_check_catches_a_wrong_mass(tmp_path):
    doc = gen.field_doc(5, 2, 2)
    raw = gen.dumps(doc)
    path = tmp_path / "f.json"
    path.write_bytes(raw)
    res = runner.Cli(tmp_path).run(["chambers", "--input", str(path), "--point", "1"])
    want = checks.field_point_masses(doc, 1)
    assert checks.check_chambers(res.out, raw, want) is None
    bad = [w * (1.0 + 1e-7) for w in want]
    assert "quadrature" in checks.check_chambers(res.out, raw, bad)


@pytest.mark.parametrize("k", [1, 7, 10, 37, 100])
def test_closed_forms_match_the_mode_loop(k):
    from crmorse.oracles import TorusBundleSpec, calibrate, fourier_dimension_sum

    cal = calibrate()
    frac = {"c_dim": Fraction(cal.c_dim), "c_mode": Fraction(cal.c_mode)}
    d1 = TorusBundleSpec(d=1, lambda_mat=[[1]], mu_mat=[[2]], delta=0.5)
    d2 = TorusBundleSpec(d=2, lambda_mat=[[1, 0], [0, 1]], mu_mat=[[1, 0], [0, -1]], delta=0.25)
    assert fourier_dimension_sum(d1, 0, k, cal) == checks.torus_d1_q0(k, frac)
    assert fourier_dimension_sum(d2, 1, k, cal) == checks.torus_d2_q1(k, frac)
    assert fourier_dimension_sum(d2, 0, k, cal) == fourier_dimension_sum(d2, 2, k, cal) == 0


def test_model_documents_have_one_frame_per_chamber():
    from crmorse.cli import parse_model
    from crmorse.model import eta_chambers, extremal_form

    for d in (2, 4):
        doc = gen.model_doc(11, d)
        data = parse_model(gen.dumps(doc))
        nonempty = checks.model_nonempty(doc)
        assert nonempty == [q for q, iv in enumerate(eta_chambers(data).intervals) if iv]
        assert nonempty == list(range((d + 1) // 2 + 1))
        for q in nonempty:
            form = extremal_form(data, q, np.zeros(d), 0.0, eta_quad_points=64)
            assert abs(form.peak_check - 1.0) < 1e-9


def test_self_time_subtracts_children():
    tr = layers.Tracer("t")
    with tr.span("cli.outer"):
        with tr.span("pencil.inner"):
            pass
    outer, inner = tr.spans[0], tr.spans[1]
    assert inner.parent == 0 and outer.parent is None
    st = tr.self_times()
    assert st["pencil"] == pytest.approx(inner.end - inner.start)
    assert st["cli"] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert layers.Tracer("off", enabled=False).span("x").__enter__() is None
