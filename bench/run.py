"""crmorse benchmark: end-to-end CLI workloads and a traced per-layer run.

    python3 bench/run.py --workload field-report --seed 1 --seconds 30 --trace 0

With --trace 0 the workload's crmorse commands run as fresh processes,
one after another, in passes until --seconds have elapsed; every output
is checked.  With --trace 1 the traced in-process layer run of
bench/layers.py runs instead.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable table.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from runner import REFERENCE, REFERENCE_NOMINAL_S, SRC, Cli, Tally  # noqa: E402

HELP_REPEATS = 6
MAX_THREADS = 2

E2E_METRICS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# -------------------------------------------------------------- workloads


@dataclass
class Command:
    key: str                 # identity for the cross-pass byte comparison
    args: List[str]
    work: int                # workload work units this command accounts for
    check: Callable[[bytes], Optional[str]]


class Workload:
    name = ""
    unit = ""                # what one unit of work_per_s is
    size = ""                # the stated input size

    def setup(self, seed: int, workdir: Path, cli: Cli, tally: Tally) -> None:
        """Write inputs and compute references, untimed."""

    def commands(self) -> List[Command]:
        """One timed pass."""
        raise NotImplementedError

    def final_commands(self) -> List[Command]:
        """Checked once after the timed passes, untimed."""
        return []


class FieldReport(Workload):
    """Gaussian random fields through morse and classify."""

    name = "field-report"
    unit = "points"
    K = 100

    def __init__(self, points: Dict[int, int] = None, chamber_points: int = 2):
        self.points = points or {2: 100, 4: 100, 8: 30}
        self.chamber_points = chamber_points
        self.size = "field-v1 documents at d=2/4/8 with %s points" % "/".join(
            str(self.points[d]) for d in sorted(self.points)
        )

    def setup(self, seed, workdir, cli, tally):
        self.raw, self.docs, self.paths, self.masses = {}, {}, {}, {}
        for d, n in self.points.items():
            self.docs[d] = gen.field_doc(seed, d, n)
            self.raw[d] = gen.dumps(self.docs[d])
            self.paths[d] = str(workdir / ("field-d%d.json" % d))
            Path(self.paths[d]).write_bytes(self.raw[d])
            for i in range(min(self.chamber_points, n)):
                self.masses[d, i] = checks.field_point_masses(self.docs[d], i)
        self.half = self.docs[4]["delta"] / 2.0 if 4 in self.docs else None
        self.morse_verdicts: Dict[int, dict] = {}

    def _morse(self, d: int):
        def check(out):
            err = checks.check_morse(out, self.raw[d], d, self.K)
            self.morse_verdicts.setdefault(d, checks.verdicts(out))
            return err
        return Command("morse-d%d" % d, ["morse", "--input", self.paths[d], "--k", str(self.K), "--threads", "1"], self.points[d], check)

    def _classify(self, d: int):
        def check(out):
            err = checks.check_classify(out, self.raw[d], d)
            if err is None and checks.verdicts(out) != self.morse_verdicts.get(d):
                err = "classify verdicts differ from the morse report's"
            return err
        return Command("classify-d%d" % d, ["classify", "--input", self.paths[d], "--threads", "1"], self.points[d], check)

    def _clipped(self, threads: int):
        d = 4
        return Command(
            "morse-d4-half",
            ["morse", "--input", self.paths[d], "--delta", repr(self.half), "--threads", str(threads)],
            self.points[d],
            lambda out: checks.check_morse(out, self.raw[d], d, None),
        )

    def commands(self):
        cmds = []
        for d in sorted(self.points):
            cmds += [self._morse(d), self._classify(d)]
        if self.half is not None:
            cmds.append(self._clipped(MAX_THREADS))
        return cmds

    def final_commands(self):
        # same key as the threads-2 command: the bytes must agree
        cmds = [self._clipped(1)] if self.half is not None else []
        for (d, i), want in sorted(self.masses.items()):
            cmds.append(Command(
                "chambers-d%d-p%d" % (d, i),
                ["chambers", "--input", self.paths[d], "--point", str(i)],
                0,
                lambda out, d=d, want=want: checks.check_chambers(out, self.raw[d], want),
            ))
        return cmds


class LatticeSweep(Workload):
    """Exact lattice oracles over a k sweep; the pencil sees one point."""

    name = "lattice-sweep"
    unit = "modes"
    KSTEP = 211
    # k = 100..1999 in two halves of about equal cost: more, shorter
    # commands give a run more samples of the machine's speed
    SWEEPS = ((100, 1366), (1577, 2000))
    DEMO_K = 5000
    size = ("convergence torus-d1 q=0 and torus-d2-indefinite, k=100..1366 and k=1577..2000 step 211;"
            " torus-demo k=5000")

    def setup(self, seed, workdir, cli, tally):
        self.cal_path = str(workdir / "calibration.json")
        args = ["calibrate", "--out", self.cal_path]
        tally.record("", args, cli.run(args), lambda out: None)
        self.cal = checks.read_calibration(Path(self.cal_path).read_bytes())

    def commands(self):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        cmds = []
        for kmin, kmax in self.SWEEPS:
            ks = list(range(kmin, kmax + 1, self.KSTEP))
            sweep = ["--kmin", str(kmin), "--kmax", str(kmax), "--kstep", str(self.KSTEP), "--cal", self.cal_path]
            cmds += [
                Command(
                    "convergence-d1-k%d" % kmin, ["convergence", "--example", "torus-d1", "--q", "0", *sweep],
                    sum(2 * checks.window(k, half) + 1 for k in ks),
                    lambda out, ks=ks: checks.check_convergence(out, "torus-d1", ks, self.cal),
                ),
                Command(
                    "convergence-d2-k%d" % kmin, ["convergence", "--example", "torus-d2-indefinite", *sweep],
                    3 * sum(2 * checks.window(k, quarter) + 1 for k in ks),
                    lambda out, ks=ks: checks.check_convergence(out, "torus-d2-indefinite", ks, self.cal),
                ),
            ]
        cmds.append(Command(
            "torus-demo", ["torus-demo", "--k", str(self.DEMO_K), "--cal", self.cal_path],
            2 * (2 * checks.window(self.DEMO_K, half) + 1),
            lambda out: checks.check_torus_demo(out, self.DEMO_K, self.cal),
        ))
        return cmds


class ModelChecks(Workload):
    """Many short model commands: start-up plus quadrature and permanents."""

    name = "model-checks"
    unit = "checks"
    NODES = 256
    MAX_DEGREE = 5
    dims = (2, 4)
    size = "model-v1 documents at d=2 and d=4; extremal --nodes 256 per nonempty q; bergman --max-degree 5 at d=4"

    def setup(self, seed, workdir, cli, tally):
        self.raw, self.paths, self.nonempty, self.eta = {}, {}, {}, {}
        for d in self.dims:
            doc = gen.model_doc(seed, d)
            self.raw[d] = gen.dumps(doc)
            self.paths[d] = str(workdir / ("model-d%d.json" % d))
            Path(self.paths[d]).write_bytes(self.raw[d])
            self.nonempty[d] = checks.model_nonempty(doc)
            self.eta[d] = -doc["delta"] / 2.0  # inside the q = 0 chamber by construction

    def commands(self):
        cmds = []
        for d in self.dims:
            raw, path = self.raw[d], self.paths[d]
            cmds.append(Command(
                "szego-d%d" % d, ["szego-density", "--input", path], 1,
                lambda out, raw=raw, ne=self.nonempty[d]: checks.check_szego(out, raw, ne),
            ))
            for q in self.nonempty[d]:
                cmds.append(Command(
                    "extremal-d%d-q%d" % (d, q),
                    ["extremal-check", "--input", path, "--q", str(q), "--nodes", str(self.NODES)], 1,
                    lambda out, raw=raw, q=q: checks.check_extremal(out, raw, q),
                ))
        d = self.dims[-1]
        cmds.append(Command(
            "bergman-d%d" % d,
            ["bergman-check", "--input", self.paths[d], "--q", "0", "--eta", repr(self.eta[d]),
             "--max-degree", str(self.MAX_DEGREE)], 1,
            lambda out, raw=self.raw[d]: checks.check_bergman(out, raw),
        ))
        return cmds


WORKLOADS = {w.name: w for w in (FieldReport, LatticeSweep, ModelChecks)}


# ------------------------------------------------------------ measurement


def tail(samples: Sequence[float]) -> Optional[tuple]:
    """(percentile, value) of the highest percentile with >= 10 samples
    above it, or None when fewer than 21 samples leave no tail beyond
    the median."""
    n = len(samples)
    if n < 21:
        return None
    s = sorted(samples)
    return 100.0 * (n - 10) / n, s[n - 11]


def trimmed_mean(samples: Sequence[float]) -> float:
    """Mean after dropping the fastest and the slowest tenth of the samples.

    On a shared machine a command's wall time switches between a fast and
    a slow state that last a few seconds each.  A median of a handful of
    such samples jumps from one state to the other; the mean follows the
    share of time spent in each, and the trim keeps a rare stall out."""
    s = sorted(samples)
    k = len(s) // 10
    return statistics.fmean(s[k:len(s) - k])


def _help_ok(out: bytes) -> Optional[str]:
    return None if out.startswith(b"usage: crmorse") else "help text missing"


def measure(workload: Workload, cli: Cli, seed: int, seconds: float, workdir: Path) -> dict:
    tally = Tally()
    setup: List[float] = []
    reference: List[float] = []

    def reference_sample():
        res = cli.python(["-c", REFERENCE])
        if res.rc != 0:
            raise RuntimeError("reference program failed: %s" % res.err.decode(errors="replace"))
        reference.append(res.wall_s)

    def help_sample():
        res = cli.run(["--help"])
        tally.record("", ["--help"], res, _help_ok)
        setup.append(res.wall_s)

    cli.run(["--help"])  # warm the bytecode cache; not a sample
    for _ in range(HELP_REPEATS):
        reference_sample()
        help_sample()
    workload.setup(seed, workdir, cli, tally)

    walls: Dict[str, List[float]] = {}     # per command key, over passes
    done: Dict[str, List[int]] = {}        # work units each run delivered
    by_name: Dict[str, List[float]] = {}   # per subcommand, for the table
    peak_kb = 0
    passes = 0  # complete passes
    started = time.perf_counter()

    def time_left() -> bool:
        return passes < 2 or time.perf_counter() - started < seconds

    # at least two whole passes; then commands run until --seconds are
    # used up, so the last pass may stop part way
    while time_left():
        help_sample()
        for cmd in workload.commands():
            if not time_left():
                break
            # the machine's speed drifts within a run: pair every command
            # with a reference sample taken just before it
            reference_sample()
            res = cli.run(cmd.args)
            ok = tally.record(cmd.key, cmd.args, res, cmd.check)
            walls.setdefault(cmd.key, []).append(res.wall_s)
            done.setdefault(cmd.key, []).append(cmd.work if ok else 0)
            by_name.setdefault(cmd.args[0], []).append(res.wall_s)
            peak_kb = max(peak_kb, res.rss_kb)
        else:
            passes += 1
    for cmd in workload.final_commands():
        res = cli.run(cmd.args)
        tally.record(cmd.key, cmd.args, res, cmd.check)

    # a typical pass: each command's trimmed mean wall time over the passes
    pass_work = sum(statistics.mean(v) for v in done.values())
    pass_wall = sum(trimmed_mean(v) for v in walls.values())
    # machine speed this run got, relative to the nominal reference machine
    speed = REFERENCE_NOMINAL_S / trimmed_mean(reference)
    raw = {"setup_s": statistics.median(setup), "work_per_s": pass_work / pass_wall}
    metrics = {
        "setup_s": raw["setup_s"] * speed,
        "work_per_s": raw["work_per_s"] / speed,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return {
        "tally": tally,
        "metrics": metrics,
        "raw": raw,
        "samples": {"reference_s": reference, "setup_s": setup, **{"cli.cmd_s." + k: v for k, v in by_name.items()}},
        "passes": passes,
    }


def _table(workload: Workload, seed: int, m: dict) -> List[str]:
    t = m["tally"]
    rate_name = "%s_per_s" % workload.unit
    lines = [
        "workload %s  seed %d  passes %d  %s" % (workload.name, seed, m["passes"], workload.size),
        "%-28s %14s %-8s %5s %s" % ("metric", "median", "unit", "n", "tail"),
    ]
    for name, samples in m["samples"].items():
        tl = tail(samples)
        tail_txt = "p%.0f=%.6g" % tl if tl else "-"
        lines.append("%-28s %14.6g %-8s %5d %s" % (name, statistics.median(samples), "s", len(samples), tail_txt))
    lines.append("%-28s %14.6g %-8s %5d" % (rate_name, m["raw"]["work_per_s"], workload.unit + "/s", m["passes"]))
    lines.append("%-28s %14.6g %-8s" % ("setup_s (normalized)", m["metrics"]["setup_s"], "s"))
    lines.append("%-28s %14.6g %-8s" % (rate_name + " (normalized)", m["metrics"]["work_per_s"], workload.unit + "/s"))
    lines.append("%-28s %14.6g %-8s" % ("peak_rss_mb", m["metrics"]["peak_rss_mb"], "MB"))
    lines.append("%-28s %14.6g %-8s %5d" % ("failed_ratio", len(t.failures) / max(t.attempted, 1), "ratio", t.attempted))
    return lines


def _declared(section: str) -> Optional[List[str]]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return [m["name"] for m in json.loads(path.read_text())[section]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="crmorse benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "crmorse" / "cli.py").is_file():
        sys.stderr.write("bench: no crmorse sources at %s; run from a full checkout\n" % SRC)
        return 2
    workdir = ROOT / ".bench_run" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    cli = Cli(workdir)
    try:
        if args.trace:
            sys.path.insert(0, str(SRC))
            import layers

            out = layers.traced_run(args.seed, workdir, cli)
            lines, metrics, units = out["lines"], out["metrics"], out["units"]
            attempted, failures = out["attempted"], out["failures"]
            section = "per_layer"
        else:
            workload = WORKLOADS[args.workload]()
            m = measure(workload, cli, args.seed, args.seconds, workdir)
            lines, metrics, units = _table(workload, args.seed, m), m["metrics"], E2E_METRICS
            attempted, failures = m["tally"].attempted, m["tally"].failures
            section = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    declared = _declared(section)
    if declared is not None and sorted(declared) != sorted(metrics):
        sys.stderr.write("bench: emitted %s metrics do not match BENCHMARK.json: %s\n"
                         % (section, sorted(set(declared) ^ set(metrics))))
        return 3
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        sys.stderr.write("bench: non-finite metrics %s\n" % bad)
        return 3
    for line in lines:
        print(line)
    for f in failures[:20]:
        sys.stderr.write("FAILED %s\n" % f)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
