"""Shared helpers: checkout layout, environment guard, statistics and
cross-process CPU / RSS accounting read from ``/proc``."""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent

#: The program under test is always the checkout's own source tree.
SRC = ROOT / "src"

#: Scratch space for inputs, sidecars and corpus run directories.
#: Listed in the root ``.gitignore``.
WORK = ROOT / ".perfbench_work"

#: Each variable changes the program under test, so a run with any of
#: them set would measure a different program.
FORBIDDEN_ENV = ("REPRO_CORPUS_FAKE_CLOCK", "REPRO_FAULT_PLAN",
                 "REPRO_NO_PARTIAL_FINALIZE")

#: Pool workers per runtime: this benchmark targets a 2-core box.
WORKERS = 2

#: Samples required beyond the reported tail percentile.
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot produce a valid result (exit non-zero)."""


def use_checkout_source() -> None:
    """Import ``repro`` from the checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def guard_environment(environ=os.environ) -> None:
    bad = [k for k in FORBIDDEN_ENV if k in environ]
    if bad:
        raise BenchError(f"refusing to run with {', '.join(bad)} set: "
                         "it changes the program under test")


# -- statistics ---------------------------------------------------------------

def tail(values: list[float], beyond: int = TAIL_BEYOND
         ) -> tuple[float, float]:
    """``(value, percentile)`` of the highest nearest-rank percentile
    that leaves at least ``beyond`` samples above it."""
    n = len(values)
    if n <= beyond:
        raise BenchError(f"{n} samples cannot give a tail with "
                         f"{beyond} beyond it")
    rank = n - beyond  # 1-based: ``beyond`` samples sit above this one
    return sorted(values)[rank - 1], 100.0 * rank / n


# -- /proc accounting ---------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def parse_stat_cpu(text: str) -> float:
    """utime + stime in seconds from a ``/proc/<pid>/stat`` line.

    The command field may hold spaces and parentheses, so fields are
    counted from the last ``)``: utime and stime are fields 14 and 15.
    """
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def parse_status_hwm_kb(text: str) -> int:
    """``VmHWM`` (peak resident set) in kB from ``/proc/<pid>/status``."""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line")


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except (FileNotFoundError, ProcessLookupError):
        return None  # the process exited between listing and reading


def worker_pids() -> list[int]:
    """Pool workers: persistent children started by multiprocessing,
    which ``RUSAGE_CHILDREN`` never sees."""
    return sorted(p.pid for p in multiprocessing.active_children())


def worker_cpu() -> dict[int, float]:
    out = {}
    for pid in worker_pids():
        text = _read(f"/proc/{pid}/stat")
        if text is not None:
            out[pid] = parse_stat_cpu(text)
    return out


def peak_rss_mb() -> float:
    """Coordinator plus pool-worker high-water RSS, in MiB."""
    total = 0
    for pid in [os.getpid()] + worker_pids():
        text = _read(f"/proc/{pid}/status")
        if text is not None:
            total += parse_status_hwm_kb(text)
    return total / 1024.0


class CpuMark:
    """A point in time: wall clock, coordinator CPU and per-worker CPU.

    A start mark reads the clock last and an end mark reads it first,
    so the ``/proc`` reads stay outside the timed span.
    """

    __slots__ = ("wall", "coord", "workers")

    def __init__(self, end: bool = False):
        if end:
            self.wall = time.perf_counter()
            self.coord = time.process_time()
            self.workers = worker_cpu()
        else:
            self.workers = worker_cpu()
            self.coord = time.process_time()
            self.wall = time.perf_counter()

    def since(self, start: "CpuMark") -> tuple[float, float, set[int]]:
        """``(coordinator CPU, worker CPU, pids that ran)`` since
        ``start``.  A worker absent from ``start`` was spawned in
        between (a pool respawn): all of its CPU counts."""
        worker = 0.0
        ran = set()
        for pid, cpu in self.workers.items():
            d = cpu - start.workers.get(pid, 0.0)
            if d > 0:
                worker += d
                ran.add(pid)
        return self.coord - start.coord, worker, ran


class Outcomes:
    """Operations attempted and the ones whose output was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((what, problems))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Pass:
    """One timed pass over a workload's inputs."""

    kinsn: float = 0.0      #: thousands of CFG instructions completed
    cfg_s: float = 0.0      #: summed per-binary wall, input to CFG
    e2e_s: float = 0.0      #: wall of the whole command
    cpu_s: float = 0.0      #: coordinator plus pool-worker CPU
    #: per binary: command latency, and the same per thousand
    #: instructions in ms
    latencies: list[float] = field(default_factory=list)
    ms_per_kinsn: list[float] = field(default_factory=list)
    ran: set[int] = field(default_factory=set)
    #: traced passes only: per-layer readings, the pass wall, and the
    #: gap between it and the top-level spans plus ``unattributed_s``
    layers: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    wall: float = 0.0
    gap: float = 0.0
    missing: list[str] = field(default_factory=list)

    def add_op(self, kinsn: float, cfg_s: float, e2e_s: float,
               cpu_s: float, ran: set[int]) -> None:
        self.kinsn += kinsn
        self.cfg_s += cfg_s
        self.e2e_s += e2e_s
        self.cpu_s += cpu_s
        self.add_latency(e2e_s, kinsn)
        self.ran |= ran

    def add_latency(self, seconds: float, kinsn: float) -> None:
        self.latencies.append(seconds)
        if kinsn:  # a binary may decode to no instructions at all
            self.ms_per_kinsn.append(1000.0 * seconds / kinsn)

    def add_layers(self, values: dict[str, float]) -> None:
        for k, v in values.items():
            self.layers[k] += v
