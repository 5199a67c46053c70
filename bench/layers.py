"""Traced per-layer run.

Replays in-process what the three workloads' commands do, calling the
public functions of each crmorse module from here, and records a span
around every call.  Nothing inside crmorse is instrumented.  The replay
runs once untraced and once traced; the difference of the two totals is
the tracing overhead.  Fresh processes give the CLI start-up numbers.

Spans are kept in memory and written to .bench_trace/ at the end.
Layers are the module names: cli, pencil, morse, oracles, model,
serialize.  A layer's self time is the time of its spans minus the part
covered by their child spans.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import numpy as np

import checks
import gen
from crmorse import cli, model, morse, oracles, pencil, serialize
from crmorse.errors import InputError
from runner import Tally

LAYERS = ("cli", "pencil", "morse", "oracles", "model", "serialize")
DIMS = (2, 4, 8)
TRACE_POINTS = {2: 50, 4: 50, 8: 16}
FIELD_REPEATS = 3
IMPORT_REPEATS = 5
CMD_NAMES = (
    "help", "calibrate", "morse", "classify", "chambers", "convergence",
    "torus-demo", "szego-density", "extremal-check", "bergman-check",
)
SWEEP = list(range(100, 2001, 211))
DEMO_K = 5000
K0 = 50
NODES = 256
MAX_DEGREE = 5


def metric_specs() -> Dict[str, tuple]:
    """Every per-layer metric: name -> (unit, better)."""
    specs = {
        "cli.import_s": ("s", "lower"),
        "cli.parse_s": ("s", "lower"),
        "cli.parse_bytes": ("count", "lower"),
    }
    for cmd in CMD_NAMES:
        specs["cli.cmd_s." + cmd] = ("s", "lower")
    for d in DIMS:
        for op in ("char_poly", "real_roots", "chambers", "inertia"):
            specs["pencil.%s_us.d%d" % (op, d)] = ("us", "lower")
        specs["pencil.roots.d%d" % d] = ("count", "lower")
        specs["pencil.chambers.d%d" % d] = ("count", "lower")
        specs["morse.points.d%d" % d] = ("count", "higher")
        specs["morse.report_s.d%d" % d] = ("s", "lower")
        specs["morse.classify_s.d%d" % d] = ("s", "lower")
        specs["morse.decomp_equiv.d%d" % d] = ("ratio", "lower")
    specs["morse.report_t2_s.d4"] = ("s", "lower")
    specs["morse.threads2_speedup.d4"] = ("ratio", "higher")
    specs.update({
        "oracles.fds_s": ("s", "lower"),
        "oracles.modes": ("count", "higher"),
        "oracles.us_per_mode": ("us", "lower"),
        "oracles.calibrate_s": ("s", "lower"),
        "oracles.weight_s": ("s", "lower"),
        "model.extremal_s": ("s", "lower"),
        "model.bruteforce_s": ("s", "lower"),
        "model.szego_s": ("s", "lower"),
        "model.bergman_diag_s": ("s", "lower"),
        "model.quad_nodes": ("count", "higher"),
        "model.monomials": ("count", "higher"),
        "serialize.json_s": ("s", "lower"),
        "serialize.csv_s": ("s", "lower"),
        "serialize.bytes": ("count", "lower"),
    })
    for layer in LAYERS:
        specs["layer.self_s." + layer] = ("s", "lower")
    specs.update({
        "trace.overhead_s": ("s", "lower"),
        "trace.spans": ("count", "lower"),
        "trace.span_cost_us": ("us", "lower"),
    })
    return specs


# ---------------------------------------------------------------- tracing


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str


class _Open:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        parent = tr.stack[-1] if tr.stack else None
        tr.spans[self.index] = Span(self.name, self.start, end, parent, tr.run_id)
        return False


_NULL = contextlib.nullcontext()


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []

    def span(self, name: str):
        return _Open(self, name) if self.enabled else _NULL

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> Dict[str, float]:
        """Self time per layer: span time minus time covered by children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = {layer: 0.0 for layer in LAYERS}
        for s, c in zip(self.spans, child):
            out[s.name.split(".")[0]] += (s.end - s.start) - c
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([s._asdict() for s in self.spans]))


# ----------------------------------------------------------------- replay


class Replay:
    """The workloads' library calls, each wrapped in a span.

    ``checks`` counts outputs verified and ``failures`` lists the ones
    that were wrong, so the traced run is checked like the timed one.
    """

    def __init__(self, tr: Tracer, inputs: dict, cal_path: str):
        self.tr = tr
        self.inputs = inputs
        self.cal_path = cal_path
        self.checks = 0
        self.failures: List[str] = []
        self.modes = 0
        self.quad_nodes = 0
        self.monomials = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.counts: Dict[str, int] = {}

    def _verify(self, what: str, reason: Optional[str]) -> None:
        self.checks += 1
        if reason is not None:
            self.failures.append("%s: %s" % (what, reason))

    def _emit(self, result: dict, header: list, rows: list) -> None:
        with self.tr.span("serialize.canonical_json"):
            text = serialize.canonical_json(result)
        with self.tr.span("serialize.csv_table"):
            table = serialize.csv_table(header, rows)
        self.bytes_out += len(text) + len(table)

    def _parse(self, kind: str, raw: bytes):
        self.bytes_in += len(raw)
        with self.tr.span("cli.parse_" + kind):
            return getattr(cli, "parse_" + kind)(raw)

    # field-report ------------------------------------------------------

    def field(self, d: int) -> None:
        """Pencil calls per point and the report, FIELD_REPEATS times
        (the ratios below compare two short timings), then classify."""
        tr = self.tr
        raw = self.inputs["field"][d]
        for i in range(FIELD_REPEATS):
            with tr.span("cli.morse"):
                fld = self._parse("field", raw)
                self._pencil_calls(fld, d, count=(i == 0))
                with tr.span("morse.build_morse_report.d%d" % d):
                    rep = morse.build_morse_report(fld, threads=1)
                self._emit_report(rep, d)
            if d == 4:
                with tr.span("cli.morse"):
                    with tr.span("morse.build_morse_report_t2.d4"):
                        rep2 = morse.build_morse_report(fld, threads=2)
                    self._verify("threads=2 report d=4", None if rep2 == rep else "differs from threads=1")
        with tr.span("cli.classify"):
            fld = self._parse("field", raw)
            with tr.span("morse.classify_bundle.d%d" % d):
                pos = morse.classify_bundle(fld, 1)
            with tr.span("morse.bigness_verdict.d%d" % d):
                big = morse.bigness_verdict(fld, 1)
            xq = []
            for q in range(fld.dim + 1):
                with tr.span("morse.check_Xq.d%d" % d):
                    xq.append(morse.check_Xq(fld, q, 1))
            same = (pos, big, xq) == (rep.positivity, rep.bigness, rep.xq)
            self._verify("classify d=%d" % d, None if same else "verdicts differ from the report")
            self._emit(
                {"positivity": repr(pos), "bigness": big.reason, "xq": [[x.holds, x.max_delta] for x in xq]},
                ["key", "value"], [["big", big.big], ["reason", big.reason]],
            )

    def _pencil_calls(self, fld, d: int, count: bool) -> None:
        tr = self.tr
        for pt in fld.points:
            with tr.span("pencil.char_poly.d%d" % d):
                p = pencil.pencil_char_poly(pt.r, pt.el)
            with tr.span("pencil.real_roots.d%d" % d):
                roots = pencil.real_roots(p, -fld.delta, fld.delta, 1e-12 * (1.0 + fld.delta))
            with tr.span("pencil.chambers.d%d" % d):
                dec = pencil.chambers(pt.r, pt.el, fld.delta)
            if count:
                self._count("pencil.roots.d%d" % d, len(roots))
                self._count("pencil.chambers.d%d" % d, len(dec.chambers))
            for ch in dec.chambers:
                mid = pencil.HermitianMatrix(pt.r.entries + (ch.lo + ch.hi) * pt.el.entries)
                with tr.span("pencil.inertia.d%d" % d):
                    pencil.inertia(mid)

    def _count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _emit_report(self, rep, d: int) -> None:
        alt = sum((-1) ** q * v for q, v in enumerate(rep.densities))
        self._verify(
            "report d=%d" % d,
            None if abs(alt - rep.rrh_total) <= 1e-9 * sum(rep.densities) else "alternating sum != rrh total",
        )
        result = {
            "densities": list(rep.densities), "strongSums": list(rep.strong_sums),
            "rrhTotal": rep.rrh_total, "xq": [[x.holds, x.max_delta] for x in rep.xq],
            "bigness": rep.bigness.reason,
        }
        rows = [[q, v, rep.strong_sums[q], rep.xq[q].holds] for q, v in enumerate(rep.densities)]
        self._emit(result, ["q", "density", "strong_sum", "xq_holds"], rows)

    # lattice-sweep -----------------------------------------------------

    def lattice(self) -> None:
        tr = self.tr
        cal_fr = checks.read_calibration(Path(self.cal_path).read_bytes())
        with tr.span("cli.convergence"):
            with tr.span("oracles.load_calibration"):
                cal = oracles.load_calibration(self.cal_path)
            for example, doc in self.inputs["torus"].items():
                spec = self._parse("torus", doc)
                # torus-d1 runs with --q 0; torus-d2-indefinite sums over all q
                qs = [0] if example == "torus-d1" else list(range(spec.d + 1))
                weight = None
                for q in qs:  # the first degree with positive density
                    try:
                        with tr.span("oracles.calibrate_weight"):
                            weight = oracles.calibrate_weight(spec, q, K0, cal)
                        break
                    except InputError:  # this degree's density vanishes
                        continue
                wfield = oracles.torus_bundle_field(spec, weight=weight)
                if len(qs) == 1:
                    with tr.span("morse.density_q"):
                        morse.density_q(wfield, 0, spec.delta)
                else:
                    with tr.span("morse.rrh_total"):
                        morse.rrh_total(wfield, spec.delta)
                rows = []
                for k in SWEEP:
                    dims = [self._fds(spec, q, k, cal) for q in qs]
                    oracle = sum((-1) ** q * v for q, v in zip(qs, dims))
                    want = checks.torus_d1_q0(k, cal_fr) if example == "torus-d1" else -checks.torus_d2_q1(k, cal_fr)
                    self._verify("%s k=%d" % (example, k), None if oracle == want else "oracle %d != %d" % (oracle, want))
                    rows.append([k, oracle])
                self._emit({"rows": rows}, ["k", "oracle"], rows)
        with tr.span("cli.torus-demo"):
            spec = self._parse("torus", self.inputs["torus"]["torus-d1"])
            with tr.span("morse.build_morse_report.torus"):
                rep = morse.build_morse_report(oracles.torus_bundle_field(spec))
            dims = [self._fds(spec, q, DEMO_K, cal) for q in range(spec.d + 1)]
            want = [checks.torus_d1_q0(DEMO_K, cal_fr), 0]
            self._verify("torus-demo", None if dims == want else "oracle %s != %s" % (dims, want))
            self._emit({"densities": list(rep.densities), "oracleDims": dims}, ["q", "oracle_dim"], [list(x) for x in enumerate(dims)])

    def _fds(self, spec, q: int, k: int, cal) -> int:
        with self.tr.span("oracles.fourier_dimension_sum"):
            v = oracles.fourier_dimension_sum(spec, q, k, cal)
        self.modes += 2 * checks.window(k, Fraction(spec.delta)) + 1
        return v

    # model-checks ------------------------------------------------------

    def model_checks(self, d: int) -> None:
        tr = self.tr
        raw = self.inputs["model"][d]
        with tr.span("cli.szego-density"):
            data = self._parse("model", raw)
            with tr.span("model.eta_chambers"):
                cs = model.eta_chambers(data)
            dens = []
            for q in range(d + 1):
                with tr.span("model.szego_density"):
                    dens.append(model.szego_density(data, q))
            self._emit({"densities": dens, "roots": list(cs.roots)}, ["q", "density"], [list(x) for x in enumerate(dens)])
        z = np.zeros(d, dtype=complex)
        for q in range(d + 1):
            if not cs.intervals[q]:
                continue
            with tr.span("cli.extremal-check"):
                with tr.span("model.extremal_form"):
                    form = model.extremal_form(data, q, z, 0.0, eta_quad_points=NODES)
                self.quad_nodes += NODES * len(cs.intervals[q])
                worst = max(abs(form.norm_check - 1.0), abs(form.peak_check - 1.0))
                self._verify("extremal d=%d q=%d" % (d, q), None if worst <= 1e-6 else "check off by %.3g" % worst)
                self._emit({"value": [[v.real, v.imag] for v in form.value]}, ["field", "re", "im"],
                           [[str(j), v.real, v.imag] for j, v in zip(form.multi_indices, form.value)])
        if d == DIMS[1]:
            eta = -data.delta / 2.0
            with tr.span("cli.bergman-check"):
                with tr.span("model.bergman_diag"):
                    val = model.bergman_diag(data, eta, 0, z)
                with tr.span("model.bergman_bruteforce"):
                    brute = model.bergman_bruteforce(data, eta, MAX_DEGREE)
                gap = abs(val.value - brute) / brute
                self._verify("bergman d=%d" % d, None if gap <= 1e-9 else "rel_gap %.3g" % gap)
                self._emit({"value": val.value, "bruteforce": brute}, ["key", "value"], [["value", val.value]])
            self.monomials += comb(d + MAX_DEGREE, MAX_DEGREE)

    def all(self) -> None:
        for d in DIMS:
            self.field(d)
        self.lattice()
        for d in (2, 4):
            self.model_checks(d)


def _chunk_sums(values: List[float], chunks: int) -> List[float]:
    size = len(values) // chunks
    return [sum(values[i * size:(i + 1) * size]) for i in range(chunks)]


# ------------------------------------------------------------------- run


def _inputs(seed: int) -> dict:
    torus = {
        "torus-d1": {"d": 1, "lambda": [[[1, 0]]], "mu": [[[2, 0]]], "delta": 0.5},
        "torus-d2-indefinite": {
            "d": 2, "lambda": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "mu": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], "delta": 0.25,
        },
    }
    return {
        "field": {d: gen.dumps(gen.field_doc(seed, d, TRACE_POINTS[d])) for d in DIMS},
        "model": {d: gen.dumps(gen.model_doc(seed, d)) for d in (2, 4)},
        "torus": {k: gen.dumps(dict(v, schema="crmorse/torus-v1")) for k, v in torus.items()},
    }


def _span_cost_us(n: int = 20000) -> float:
    tr = Tracer("cost")
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("x"):
            pass
    traced = time.perf_counter() - t0
    off = Tracer("cost", enabled=False)
    t0 = time.perf_counter()
    for _ in range(n):
        with off.span("x"):
            pass
    return (traced - (time.perf_counter() - t0)) / n * 1e6


def _fresh_processes(procs, workdir: Path, inputs: dict, tally) -> Dict[str, float]:
    """Start-up and per-command wall times of fresh processes."""
    out: Dict[str, float] = {}

    def run(name: str, args: List[str], check) -> None:
        res = procs.run(args)
        tally.record("", args, res, check)
        out["cli.cmd_s." + name] = res.wall_s

    field4 = workdir / "trace-field-d4.json"
    field4.write_bytes(inputs["field"][4])
    model4 = workdir / "trace-model-d4.json"
    model4.write_bytes(inputs["model"][4])
    cal_path = workdir / "trace-calibration.json"
    run("help", ["--help"], lambda o: None if o.startswith(b"usage: crmorse") else "no usage text")
    run("calibrate", ["calibrate", "--out", str(cal_path)], lambda o: None)
    cal = checks.read_calibration(cal_path.read_bytes())
    raw4 = inputs["field"][4]
    doc4 = json.loads(raw4)
    run("morse", ["morse", "--input", str(field4), "--k", "100", "--threads", "1"],
        lambda o: checks.check_morse(o, raw4, 4, 100))
    run("classify", ["classify", "--input", str(field4), "--threads", "1"],
        lambda o: checks.check_classify(o, raw4, 4))
    run("chambers", ["chambers", "--input", str(field4), "--point", "0"],
        lambda o: checks.check_chambers(o, raw4, checks.field_point_masses(doc4, 0)))
    run("convergence", ["convergence", "--example", "torus-d1", "--q", "0", "--kmin", "100", "--kmax", "2000",
                        "--kstep", "211", "--cal", str(cal_path)],
        lambda o: checks.check_convergence(o, "torus-d1", SWEEP, cal))
    run("torus-demo", ["torus-demo", "--k", str(DEMO_K), "--cal", str(cal_path)],
        lambda o: checks.check_torus_demo(o, DEMO_K, cal))
    mraw = inputs["model"][4]
    nonempty = checks.model_nonempty(json.loads(mraw))
    run("szego-density", ["szego-density", "--input", str(model4)], lambda o: checks.check_szego(o, mraw, nonempty))
    run("extremal-check", ["extremal-check", "--input", str(model4), "--q", "1", "--nodes", str(NODES)],
        lambda o: checks.check_extremal(o, mraw, 1))
    run("bergman-check", ["bergman-check", "--input", str(model4), "--q", "0", "--eta", "-0.5",
                          "--max-degree", str(MAX_DEGREE)], lambda o: checks.check_bergman(o, mraw))

    imports = []
    for _ in range(IMPORT_REPEATS):
        res = procs.python(["-c", "import crmorse.cli"])
        tally.record("", ["import crmorse.cli"], res, lambda o: None)
        imports.append(res.wall_s)
    out["cli.import_s"] = statistics.median(imports)
    return out


def traced_run(seed: int, workdir: Path, procs) -> dict:
    src = Path(cli.__file__).resolve().parent.parent
    if src != (Path(__file__).resolve().parent.parent / "src"):
        raise RuntimeError("crmorse imported from %s, not the checkout" % src)

    inputs = _inputs(seed)
    tally = Tally()
    m: Dict[str, float] = _fresh_processes(procs, workdir, inputs, tally)
    cal_path = str(workdir / "trace-calibration.json")

    # warm-up: first calls pay for lazy imports and caches
    warm = Replay(Tracer("warm", enabled=False), dict(inputs, field={2: gen.dumps(gen.field_doc(seed, 2, 3))}), cal_path)
    warm.field(2)

    plain = Replay(Tracer("untraced", enabled=False), inputs, cal_path)
    t0 = time.perf_counter()
    plain.all()
    untraced = time.perf_counter() - t0

    tr = Tracer("traced-%d" % seed)
    rp = Replay(tr, inputs, cal_path)
    t0 = time.perf_counter()
    rp.all()
    traced = time.perf_counter() - t0

    m["cli.parse_s"] = sum(tr.total(n) for n in ("cli.parse_field", "cli.parse_model", "cli.parse_torus"))
    m["cli.parse_bytes"] = rp.bytes_in
    for d in DIMS:
        for op in ("char_poly", "real_roots", "chambers", "inertia"):
            m["pencil.%s_us.d%d" % (op, d)] = statistics.median(tr.durations("pencil.%s.d%d" % (op, d))) * 1e6
        m["pencil.roots.d%d" % d] = rp.counts["pencil.roots.d%d" % d]
        m["pencil.chambers.d%d" % d] = rp.counts["pencil.chambers.d%d" % d]
        m["morse.points.d%d" % d] = TRACE_POINTS[d]
        reports = tr.durations("morse.build_morse_report.d%d" % d)
        chamber_passes = _chunk_sums(tr.durations("pencil.chambers.d%d" % d), FIELD_REPEATS)
        m["morse.report_s.d%d" % d] = statistics.median(reports)
        m["morse.classify_s.d%d" % d] = sum(
            tr.total("morse.%s.d%d" % (op, d)) for op in ("classify_bundle", "bigness_verdict", "check_Xq"))
        m["morse.decomp_equiv.d%d" % d] = statistics.median(r / c for r, c in zip(reports, chamber_passes))
    threads2 = tr.durations("morse.build_morse_report_t2.d4")
    m["morse.report_t2_s.d4"] = statistics.median(threads2)
    m["morse.threads2_speedup.d4"] = statistics.median(
        r / t for r, t in zip(tr.durations("morse.build_morse_report.d4"), threads2))
    m["oracles.fds_s"] = tr.total("oracles.fourier_dimension_sum")
    m["oracles.modes"] = rp.modes
    m["oracles.us_per_mode"] = m["oracles.fds_s"] / rp.modes * 1e6
    m["oracles.calibrate_s"] = tr.total("oracles.load_calibration")
    m["oracles.weight_s"] = tr.total("oracles.calibrate_weight")
    m["model.extremal_s"] = tr.total("model.extremal_form")
    m["model.bruteforce_s"] = tr.total("model.bergman_bruteforce")
    m["model.szego_s"] = tr.total("model.szego_density")
    m["model.bergman_diag_s"] = tr.total("model.bergman_diag")
    m["model.quad_nodes"] = rp.quad_nodes
    m["model.monomials"] = rp.monomials
    m["serialize.json_s"] = tr.total("serialize.canonical_json")
    m["serialize.csv_s"] = tr.total("serialize.csv_table")
    m["serialize.bytes"] = rp.bytes_out
    for layer, v in tr.self_times().items():
        m["layer.self_s." + layer] = v
    m["trace.overhead_s"] = traced - untraced
    m["trace.spans"] = len(tr.spans)
    m["trace.span_cost_us"] = _span_cost_us()

    tr.dump(Path(__file__).resolve().parent.parent / ".bench_trace" / ("spans-seed%d.json" % seed))

    specs = metric_specs()
    lines = ["traced layer run  seed %d  untraced %.3f s  traced %.3f s  spans %d"
             % (seed, untraced, traced, len(tr.spans)),
             "%-28s %14s %s" % ("metric", "value", "unit")]
    lines += ["%-28s %14.6g %s" % (k, m[k], specs[k][0]) for k in specs if k in m]
    return {
        "lines": lines,
        "metrics": m,
        "units": {k: v[0] for k, v in specs.items()},
        "attempted": tally.attempted + plain.checks + rp.checks,
        "failures": tally.failures + plain.failures + rp.failures,
    }
