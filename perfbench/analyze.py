"""The analyze workloads: ``repro analyze <image> --json``, one binary
in flight (closed loop).

Each binary goes image bytes -> ``load_image`` -> ``parse_binary`` ->
``run_checkers`` (all checks, on a fresh runtime) -> a validated
``repro.findings/1`` sidecar on disk.  ``analyze-procs`` runs both
stages on ``ProcsRuntime(2)``, ``analyze-serial`` on ``SerialRuntime``;
metrics stay on, as in the CLI.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from perfbench.common import ROOT, WORKERS, BenchError, CpuMark, Outcomes, Pass
from perfbench.prepare import SCALE, cfg_counts, paper_diff, subject_for
from perfbench.tracing import ROOT_SPAN, Tracer, pass_layers, wrap_core


@dataclass
class Input:
    preset: str
    image_rel: str
    image: bytes
    ref: dict
    findings: bytes
    truth: object           #: SynthesizedBinary for check_binary
    sidecar: Path


def _hist_s(snap: dict, name: str) -> float:
    h = snap["histograms"].get(name)
    return h["sum"] / 1e9 if h else 0.0


class AnalyzeWorkload:
    def __init__(self, backend: str, refs: dict, work: Path,
                 outcomes: Outcomes):
        from repro import load_image
        from repro.analyses.checkers import resolve_checks
        from repro.synth.codegen import SynthesizedBinary

        self.backend = backend
        self.procs = backend == "procs"
        self.outcomes = outcomes
        self.checks = resolve_checks("all")
        self.inputs = []
        for ref in refs["binaries"]:
            image = (ROOT / ref["image"]).read_bytes()
            with open(ROOT / ref["ground_truth"], "rb") as f:
                gt, spec = pickle.load(f)
            self.inputs.append(Input(
                preset=ref["preset"], image_rel=ref["image"], image=image,
                ref=ref, findings=(ROOT / ref["findings"]).read_bytes(),
                truth=SynthesizedBinary(load_image(image), gt, spec),
                sidecar=work / f"{ref['preset']}.findings.json"))

    def runtime(self, metrics: bool):
        from repro import SerialRuntime
        from repro.runtime.procs import ProcsRuntime

        if self.procs:
            return ProcsRuntime(WORKERS, enable_metrics=metrics)
        return SerialRuntime(enable_metrics=metrics)

    def warm_up(self) -> None:
        """Pool creation and lazy imports, on the smallest input."""
        inp = min(self.inputs, key=lambda i: len(i.image))
        self.run_binary(inp, True, None, Pass())

    # -- one pass over every input --------------------------------------------

    def run_pass(self, mode: str) -> Pass:
        """``mode`` is ``on``/``off`` (untraced, metrics on/off) or
        ``traced`` (metrics on, spans recorded)."""
        p = Pass()
        if mode != "traced":
            for inp in self.inputs:
                self.run_binary(inp, mode == "on", None, p)
            return p
        tracer = Tracer()
        self.wrap(tracer)
        try:
            for inp in self.inputs:
                self.run_binary(inp, True, tracer, p)
        finally:
            tracer.unwrap_all()
        spans, p.wall, p.gap = pass_layers(tracer)
        p.add_layers(spans)
        p.missing = tracer.missing
        merged = p.layers.pop("merged_insns", 0)
        decoded = p.layers.pop("decoded_insns", 0)
        p.layers["core.shard_merge.useful_ratio"] = \
            merged / decoded if decoded else 0.0
        return p

    @staticmethod
    def wrap(tracer: Tracer) -> None:
        import repro.analyses.interproc as interproc

        wrap_core(tracer)
        tracer.wrap(interproc, "build_call_graph", "analyses.callgraph.build")
        tracer.wrap(interproc, "condensation_waves",
                    "analyses.callgraph.build")
        tracer.wrap(interproc, "snapshot_function",
                    "analyses.interproc.snapshot")

    # -- one binary -----------------------------------------------------------

    def run_binary(self, inp: Input, metrics: bool, tracer: Tracer | None,
                   p: Pass) -> None:
        from repro import load_image, parse_binary
        from repro.analyses.findings import findings_document, write_findings
        from repro.analyses.interproc import run_checkers
        from repro.runtime.tracefmt import validate_findings

        span = tracer.span if tracer is not None else \
            (lambda name: nullcontext())
        try:
            m0 = CpuMark()
            with span(ROOT_SPAN):
                with span("binary.load"):
                    binary = load_image(inp.image)
                with span("core.parse"):
                    rt_parse = self.runtime(metrics)
                    cfg = parse_binary(binary, rt_parse)
                t1 = time.perf_counter()
                m1 = CpuMark(end=True) if tracer is not None else None
                with span("analyses.interproc.waves"):
                    rt_check = self.runtime(metrics)
                    res = run_checkers(cfg, self.checks, rt=rt_check,
                                       binary=binary.name)
                with span("analyses.findings.write"):
                    doc = findings_document(
                        "checkers", list(self.checks), res.findings,
                        subject=subject_for(inp.image_rel))
                    errors = validate_findings(doc)
                    if errors:
                        raise ValueError(
                            f"invalid findings document: {errors}")
                    write_findings(inp.sidecar, doc)
            m2 = CpuMark(end=True)
        except Exception as exc:
            self.outcomes.record(inp.preset,
                                 [f"{type(exc).__name__}: {exc}"])
            return
        if not self.check(inp, cfg, rt_parse, res):
            return
        coord, worker, ran = m2.since(m0)
        p.add_op(kinsn=inp.ref["insns"] / 1000.0, cfg_s=t1 - m0.wall,
                 e2e_s=m2.wall - m0.wall, cpu_s=coord + worker, ran=ran)
        if tracer is not None:
            p.add_layers(self.layers(inp, cfg, rt_parse, rt_check, m0, m1))

    def check(self, inp: Input, cfg, rt_parse, res) -> bool:
        """Compare one timed binary against its serial references."""
        from repro.apps.checker import check_binary
        from repro.fuzz.oracle import signature_digest

        if self.procs:
            # A pool or shm fallback means this run measured a different
            # program: refuse to report rather than count a failure.
            if rt_parse.fault_events or \
                    rt_parse.degradation["level"] != "none":
                raise BenchError(
                    f"{inp.preset}: procs parse degraded: "
                    f"{rt_parse.fault_events} {rt_parse.degradation}")
            if res.stats["pool_fallback"] or not res.stats["pool_units"]:
                raise BenchError(f"{inp.preset}: checkers did not run on "
                                 f"the pool: {res.stats}")
        problems = []
        if signature_digest(cfg.signature()) != inp.ref["digest"]:
            problems.append("CFG signature differs from serial")
        counts = cfg_counts(cfg)
        if any(counts[k] != inp.ref[k] for k in counts):
            problems.append(f"CFG counts {counts} differ from serial")
        if inp.sidecar.read_bytes() != inp.findings:
            problems.append("findings bytes differ from serial")
        if paper_diff(check_binary(inp.truth, cfg)) != \
                inp.ref["paper_diff"]:
            problems.append("ground-truth diff differs from serial")
        self.outcomes.record(inp.preset, problems)
        return not problems

    def layers(self, inp: Input, cfg, rt_parse, rt_check, m0: CpuMark,
               m1: CpuMark) -> dict:
        """One traced binary's readings: the program's own metrics and
        the CPU of the parse window."""
        ps = rt_parse.metrics.snapshot()
        pc = ps["counters"]
        ac = rt_check.metrics.snapshot()["counters"]
        coord, worker, _ = m1.since(m0)
        deltas = rt_parse.shard_deltas if self.procs else None
        return {
            "core.insns": inp.ref["insns"],
            "core.functions": len(cfg.functions()),
            "core.blocks": len(cfg.blocks()),
            "runtime.procs.fanout_s":
                _hist_s(ps, "procs.phase.fanout_wall_ns"),
            "runtime.procs.coord_cpu_s": coord,
            "runtime.procs.worker_cpu_s": worker,
            "runtime.procs.idle_core_s":
                WORKERS * (m1.wall - m0.wall) - coord - worker,
            "runtime.procs.pool_fallback": pc.get("procs.pool_fallback", 0),
            "runtime.procs.degraded":
                int(self.procs and rt_parse.degradation["level"] != "none"),
            "core.shard_merge.install_s":
                _hist_s(ps, "procs.phase.install_wall_ns"),
            "core.shard_merge.frontier_s":
                _hist_s(ps, "procs.phase.frontier_wall_ns"),
            "core.shard_merge.frontier_records":
                pc.get("procs.frontier.records", 0),
            "core.shard_merge.delta_bytes":
                len(pickle.dumps(deltas)) if deltas else 0,
            "merged_insns": pc.get("procs.merged_cache_insns", 0),
            "decoded_insns": pc.get("procs.shard_insns_decoded", 0),
            "analyses.interproc.sccs": ac.get("analysis.sccs", 0),
            "analyses.interproc.waves": ac.get("analysis.waves", 0),
            "analyses.interproc.rounds": ac.get("analysis.scc_rounds", 0),
            "analyses.interproc.pool_units":
                ac.get("analysis.pool_units", 0),
            "analyses.interproc.pool_fallback":
                ac.get("analysis.pool_fallback", 0),
            "analyses.findings.bytes": inp.sidecar.stat().st_size,
        }

    # -- once per run ---------------------------------------------------------

    def verify_cli(self) -> None:
        """The composed pipeline must write the bytes that
        ``repro analyze <image> --json`` writes for the same image."""
        inp = min(self.inputs, key=lambda i: len(i.image))
        out = inp.sidecar.with_suffix(".cli.json")
        cmd = [sys.executable, "-m", "repro.cli", "analyze", inp.image_rel,
               "--backend", self.backend,
               "-j", str(WORKERS if self.procs else 1),
               "--scale", repr(SCALE), "--json", str(out.relative_to(ROOT))]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, env=env,
                              timeout=120)
        problems = []
        if proc.returncode != 0:
            problems.append(f"CLI exited {proc.returncode}: "
                            f"{proc.stderr.decode()[-400:]}")
        elif out.read_bytes() != inp.findings:
            problems.append("CLI findings bytes differ from the "
                            "composed pipeline's")
        self.outcomes.record(f"cli:{inp.preset}", problems)
