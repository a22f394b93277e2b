"""Benchmark of ``repro analyze`` and ``repro corpus`` on 2 cores.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze-procs --seed 1 \\
        --seconds 30 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).  The line
before it (``{"info": ...}``) records the environment, sample counts
and figures that are information only.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    WORK,
    BenchError,
    Outcomes,
    Pass,
    guard_environment,
    peak_rss_mb,
    tail,
    use_checkout_source,
)
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.prepare import CORPUS_COUNT, SCALE, WARM_IMAGE  # noqa: E402

WORKLOADS = ("analyze-procs", "analyze-serial", "corpus-procs")

#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Timed passes at least, whatever ``--seconds`` says (untraced run),
#: and cycles of (metrics on, metrics off, traced) passes (traced run).
MIN_PASSES = 3
MIN_CYCLES = 2


def prepare(workload: str, seed: int, work: Path) -> tuple[dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.prepare", workload, str(seed),
         str(work)], cwd=ROOT, capture_output=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"input preparation failed: "
                         f"{proc.stderr.decode()[-2000:]}")
    refs = json.loads((work / "refs.json").read_text())
    return refs, time.perf_counter() - t0


def probe_setup(workload: str, work: Path) -> float:
    """Seconds from spawning a fresh interpreter to ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.probe", workload,
         str(work / WARM_IMAGE)],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdin.close()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: "
                         f"{proc.stderr.read().decode()[-2000:]}")
    proc.stdout.close()
    proc.stderr.close()
    return elapsed


def make_workload(name: str, seed: int, refs: dict, work: Path,
                  outcomes: Outcomes):
    if name.startswith("analyze"):
        from perfbench.analyze import AnalyzeWorkload

        wl = AnalyzeWorkload(name.split("-")[1], refs, work, outcomes)
        wl.verify_cli()
        return wl
    from perfbench.corpus import CorpusWorkload

    return CorpusWorkload(seed, refs, work, outcomes)


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    lat = [x for p in passes for x in p.ms_per_kinsn]
    seconds = [x for p in passes for x in p.latencies]
    tail_value, tail_pct = tail(lat)
    values = {
        "setup_s": median(setup),
        "cfg_kinsn_per_s": median([p.kinsn / p.cfg_s for p in passes]),
        "kinsn_per_s": median([p.kinsn / p.e2e_s for p in passes]),
        "cpu_ms_per_kinsn":
            median([1000.0 * p.cpu_s / p.kinsn for p in passes]),
        "binary_ms_per_kinsn_p50": median(lat),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"passes": len(passes), "latency_samples": len(lat),
            "binary_ms_per_kinsn_tail": tail_value,
            "tail_percentile": tail_pct,
            "binary_s_p50": median(seconds),
            "binary_s_tail": tail(seconds)[0],
            "binaries_per_s":
                median([len(p.latencies) / p.e2e_s for p in passes]),
            "pass_values": [(p.kinsn / p.cfg_s, p.kinsn / p.e2e_s)
                            for p in passes],
            "setup_probes_s": setup}
    return values, info


def per_layer(runs: dict[str, list[Pass]]) -> tuple[dict, dict]:
    traced = runs["traced"]
    values = {name: median([p.layers.get(name, 0.0) for p in traced])
              for name, _, _ in PER_LAYER}
    on = median([p.e2e_s for p in runs["on"]])
    values["runtime.metrics.overhead_ratio"] = \
        on / median([p.e2e_s for p in runs["off"]]) - 1.0
    values["trace.overhead_ratio"] = \
        median([p.e2e_s for p in traced]) / on - 1.0
    counts = ("core.insns", "core.functions", "core.blocks")
    info = {"traced_passes": len(traced),
            "traced_wall_s": [p.wall for p in traced],
            "span_gap_s": max(abs(p.gap) for p in traced),
            "counts_repeat": all(
                p.layers[c] == traced[0].layers[c]
                for p in traced for c in counts),
            "unwrapped": sorted({m for p in traced for m in p.missing})}
    return values, info


def run(args) -> dict:
    guard_environment()
    use_checkout_source()
    from repro.runtime.shm import sweep_orphans

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    try:
        refs, prepare_s = prepare(args.workload, args.seed, work)
        setup = [] if args.trace else [probe_setup(args.workload, work)
                                       for _ in range(SETUP_PROBES)]
        outcomes = Outcomes()
        sweep_orphans()
        wl = make_workload(args.workload, args.seed, refs, work, outcomes)
        wl.warm_up()
        modes = ("on", "off", "traced") if args.trace else ("on",)
        runs: dict[str, list[Pass]] = {m: [] for m in modes}
        least = MIN_CYCLES if args.trace else MIN_PASSES
        t0 = time.perf_counter()
        while len(runs["on"]) < least or \
                time.perf_counter() - t0 < args.seconds:
            for m in modes:
                runs[m].append(wl.run_pass(m))
        measured_s = time.perf_counter() - t0
        passes = [p for ps in runs.values() for p in ps]
        if args.workload.endswith("procs") and \
                not any(p.ran for p in passes):
            raise BenchError("no pool worker ran: this run did not "
                             "measure the procs backend")
        if args.trace:
            values, info = per_layer(runs)
            if info["span_gap_s"] > 1e-6:
                raise BenchError("top-level spans plus unattributed_s "
                                 f"miss the wall by {info['span_gap_s']}s")
            units = {n: u for n, u, _ in PER_LAYER}
        else:
            values, info = end_to_end(runs["on"], setup)
            units = {n: u for n, u, _, _ in END_TO_END}
        correct = outcomes.failed == 0 and (
            not args.trace or info["counts_repeat"])
        info.update({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "scale": SCALE if args.workload.startswith("analyze") else None,
            "corpus_count": (CORPUS_COUNT
                             if args.workload.startswith("corpus")
                             else None),
            "prepare_s": prepare_s, "measured_s": measured_s,
            "worker_pids_ran": sorted({pid for p in passes
                                       for pid in p.ran}),
            "fail_ratio": outcomes.fail_ratio,
            "failures": outcomes.failures[:10],
        })
        return {"info": info, "result": {
            "correct": correct,
            "attempted": outcomes.attempted,
            "failed": outcomes.failed,
            "metrics": {n: {"value": float(values[n]), "unit": units[n]}
                        for n in units}}}
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)


def stop_children() -> None:
    """Stop the worker pool and the shared-memory resource tracker the
    program started, and wait for both."""
    from multiprocessing import resource_tracker

    from repro.runtime.procs import shutdown_pool

    shutdown_pool()
    # Private API: the tracker otherwise lingers until this process exits.
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
