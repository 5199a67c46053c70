"""Running crmorse as fresh processes and tallying checked results."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import checks

SRC = Path(__file__).resolve().parent.parent / "src"
COMMAND_TIMEOUT_S = 150.0

# A fixed program that does not touch crmorse: interpreter start-up, the
# numpy import, then small numpy calls and Python arithmetic, the mix a
# crmorse command spends its time on.  On a shared machine its wall time
# drifts with the speed the machine gives the run.
REFERENCE = """
import numpy as np
a = np.arange(16.0).reshape(4, 4)
a = a + a.T
x = 0.0
for i in range(12000):
    x += float(np.linalg.eigvalsh(a + i)[0]) + sum(j * j % 7 for j in range(30))
"""
# Normalized metrics are scaled to a machine on which REFERENCE takes
# this long, about its median on the 2-core 2.0 GHz Xeon VM used here.
REFERENCE_NOMINAL_S = 0.3


@dataclass
class Result:
    rc: int
    wall_s: float
    rss_kb: int
    out: bytes
    err: bytes


class Cli:
    """Runs ``python3 -m crmorse`` from the checkout's src as a fresh process.

    Each run is reaped with wait4, which gives that child's own peak
    resident set; a watchdog kills a child that outlives the timeout.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "CRMORSE_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self._n = 0

    def run(self, args: Sequence[str], timeout: float = COMMAND_TIMEOUT_S) -> Result:
        return self.python(["-m", "crmorse", *args], timeout)

    def python(self, argv: Sequence[str], timeout: float = COMMAND_TIMEOUT_S) -> Result:
        self._n += 1
        out_path = self.workdir / ("stdout.%d" % self._n)
        err_path = self.workdir / ("stderr.%d" % self._n)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                cwd=self.workdir, env=self.env,
            )
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        res = Result(proc.returncode, wall, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes())
        out_path.unlink()
        err_path.unlink()
        return res


@dataclass
class Tally:
    """Commands attempted, the reasons of those that failed, and the
    first result bytes of each command key, which later runs must match."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    first: Dict[str, bytes] = field(default_factory=dict)

    def record(self, cmd_key: str, args: Sequence[str], res: Result,
               check: Callable[[bytes], Optional[str]]) -> bool:
        self.attempted += 1
        if res.rc != 0:
            reason = "exit %d: %s" % (res.rc, res.err.decode(errors="replace").strip()[-300:])
        else:
            reason = check(res.out)
            if reason is None and cmd_key:
                norm = checks.normalized(res.out)
                if self.first.setdefault(cmd_key, norm) != norm:
                    reason = "result bytes differ from the first run of %s" % cmd_key
        if reason is not None:
            self.failures.append("%s: %s" % (" ".join(args), reason))
        return reason is None
