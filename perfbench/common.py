"""Process, timing and bookkeeping helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from tracer import now

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = BENCH / "child.py"
PYTHON = sys.executable or "python3"

CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def repro_argv(*args) -> list[str]:
    """The real CLI, as ``python -m repro`` runs it."""
    return [PYTHON, "-m", "repro", *map(str, args)]


def child_argv(options: dict, *args) -> list[str]:
    """The benchmark launcher (``child.py``) around one command."""
    flags = [item for key, value in options.items() for item in (f"--{key}", str(value))]
    return [PYTHON, str(CHILD), *flags, "--", *map(str, args)]


@dataclass
class Finished:
    """One child process from spawn to reaped exit."""

    spawned: float
    wall_s: float
    rss_mb: float
    returncode: int
    output: str


def _reap(pid: int, deadline: float):
    """``os.wait4`` with a deadline; SIGKILL the child when it passes."""
    while True:
        reaped, status, usage = os.wait4(pid, os.WNOHANG)
        if reaped:
            return status, usage
        if now() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            return status, usage
        threading.Event().wait(0.002)


def run_child(argv, *, timeout: float = CHILD_TIMEOUT_S) -> Finished:
    """Run ``argv`` to completion from the checkout root.

    Wall time runs from just before the spawn until the exit is reaped;
    ``rss_mb`` is the child's own high-water mark from ``wait4``.
    """
    spawned = now()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
    status, usage = _reap(proc.pid, now() + 10.0)
    ended = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        spawned=spawned,
        wall_s=ended - spawned,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        output=output.decode("utf-8", "replace"),
    )


class Server:
    """A long-lived child that announces readiness on stdout."""

    def __init__(self, argv, ready: str, *, timeout: float = 120.0):
        self.spawned = now()
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: list[str] = []
        self.ready_line = None
        found = threading.Event()

        def pump():
            for line in self.proc.stdout:
                self.lines.append(line)
                if self.ready_line is None and ready in line:
                    self.ready_line = line
                    found.set()
            found.set()

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        found.wait(timeout)
        self.ready_s = now() - self.spawned
        self.returncode = None
        self.rss_mb = 0.0

    @property
    def ready(self) -> bool:
        return self.ready_line is not None

    def stop(self, *, timeout: float = 60.0) -> int:
        """SIGTERM, reap (SIGKILL past ``timeout``); returns the exit code."""
        if self.returncode is not None:
            return self.returncode
        try:
            self.proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        status, usage = _reap(self.proc.pid, now() + timeout)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        self._pump.join(5.0)
        self.proc.stdout.close()
        return self.returncode


class HostSpeed:
    """How fast the host runs now, from a fixed task that uses no ``repro`` code.

    The shared 2-vCPU host this benchmark was tuned on changes speed by
    20-40% over tens of seconds to minutes, for every program at once:
    one 50-s run can fall in a slow stretch and the next in a fast one.
    The task — a fresh interpreter importing numpy and scipy.stats (much
    module code, as ``import repro.cli`` runs), then fixed numpy draws,
    reductions and sorts — runs every ``EVERY_S`` seconds between the
    measured children.  :meth:`factor` is ``NOMINAL_S`` over its median
    wall time, and :func:`at_nominal_speed` multiplies the run's times by
    it: times read as on a host where the task takes ``NOMINAL_S``, about
    this host's usual speed.  Over five 50-s ``figures-family`` runs this
    cut the spread of the run medians from 0.18 to 0.04 (compute) and
    from 0.14 to 0.07 (replay).  A lighter task (numpy and scipy.sparse,
    0.4 s) tracked the host too loosely to help.
    """

    TASK = (
        "import numpy, scipy.stats\n"
        "rng = numpy.random.default_rng(20170514)\n"
        "for _ in range(8):\n"
        "    z = rng.laplace(size=500_000)\n"
        "    numpy.abs(z).sum()\n"
        "    numpy.argsort(z[:100_000])\n"
    )
    EVERY_S = 6.0
    NOMINAL_S = 1.4

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def maybe_sample(self) -> None:
        """Time the task when ``EVERY_S`` seconds have passed since the last time."""
        if now() - self._last < self.EVERY_S:
            return
        finished = run_child([PYTHON, "-c", self.TASK])
        if finished.returncode != 0:
            raise RuntimeError(f"host-speed task failed: {finished.output[-300:]}")
        self.samples.append(finished.wall_s)
        self._last = now()

    def factor(self) -> float:
        return self.NOMINAL_S / median(self.samples)


def at_nominal_speed(metrics: dict, factor: float) -> dict:
    """``name → (value, unit)`` with times scaled by ``factor``, rates by its inverse."""
    scale = {"s": factor, "ms": factor, "1/s": 1.0 / factor}
    return {
        name: (value * scale.get(unit, 1.0), unit)
        for name, (value, unit) in metrics.items()
    }


@dataclass
class Tally:
    """Operations attempted and failed; the reasons for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> bool:
        self.ops(1, [] if ok else [what])
        return ok

    def ops(self, count: int, problems: list) -> None:
        """``count`` operations, one failed per entry of ``problems``."""
        self.attempted += count
        self.failed += len(problems)
        self.problems += problems[: max(0, 50 - len(self.problems))]


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (inclusive), ``q`` in [0, 1]."""
    data = sorted(values)
    if not data:
        return math.nan
    position = q * (len(data) - 1)
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


UNITS = {"_s": "s", "_ms": "ms", "_rps": "1/s"}


def across(rounds: list[dict]) -> dict:
    """The run's value of each per-round metric: its median over the rounds.

    On a shared 2-vCPU host whose speed drifts by about 30% over
    minutes, the median of 45-s windows of back-to-back figures cycles
    spread about half as much between windows as their lower quartile:
    the fastest samples come from short bursts, not from a steady state.
    """
    return {
        name: (
            median(r[name] for r in rounds),
            next(u for suffix, u in UNITS.items() if name.endswith(suffix)),
        )
        for name in rounds[0]
    }


def derived_seed(*parts) -> int:
    """A deterministic 31-bit seed from the workload seed and a label."""
    return random.Random(":".join(map(str, parts))).randrange(1, 2**31)


def scratch_dir(label: str) -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK))


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
