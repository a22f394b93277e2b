"""The corpus workload: ``repro corpus`` over a seeded campaign.

Each pass is one ``run_corpus`` call with the CLI's defaults (benign
plus hostile preset mix, window 2, ``procs_workers`` 2, verification
on, default journal batch) in a fresh run directory.  Two binaries are
in flight at once, on the corpus driver's own threads.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from perfbench.common import WORKERS, BenchError, CpuMark, Outcomes, Pass
from perfbench.tracing import ROOT_SPAN, Tracer, pass_layers, wrap_core

#: Binaries in the untimed warm-up campaign.
WARM_UP_COUNT = 8


def _parse_span(args: tuple) -> str:
    # The corpus driver parses each binary on the configured backend, then
    # again on SerialRuntime to verify it.
    procs = type(args[1]).__name__ == "ProcsRuntime"
    return "corpus.procs_parse" if procs else "corpus.verify_parse"


class CorpusWorkload:
    def __init__(self, seed: int, refs: dict, work: Path,
                 outcomes: Outcomes):
        self.seed = seed
        self.count = refs["count"]
        self.refs = {b["index"]: b for b in refs["binaries"]}
        self.work = work
        self.outcomes = outcomes
        self.runs = 0

    def warm_up(self) -> None:
        """Pool creation and lazy imports, on the campaign's first
        binaries."""
        self.run_pass("on", count=WARM_UP_COUNT)

    def run_pass(self, mode: str, count: int | None = None) -> Pass:
        """``mode`` is ``on``/``off`` (untraced, ``corpus.*`` metrics
        collected or not) or ``traced`` (metrics on, spans recorded)."""
        from repro.corpus import CorpusConfig, run_corpus
        from repro.runtime.metrics import MetricsRegistry

        run_dir = self.work / f"corpus-run-{self.runs}"
        self.runs += 1
        metrics = MetricsRegistry() if mode != "off" else None
        config = CorpusConfig(count=count or self.count, seed=self.seed)
        tracer = Tracer() if mode == "traced" else None
        if tracer is not None:
            self.wrap(tracer)
        try:
            m0 = CpuMark()
            if tracer is None:
                run_corpus(run_dir, config, metrics=metrics)
            else:
                with tracer.span(ROOT_SPAN), \
                        tracer.span("corpus.driver") as driver:
                    tracer.anchor = driver
                    run_corpus(run_dir, config, metrics=metrics)
            m1 = CpuMark(end=True)
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        p = Pass()
        coord, worker, ran = m1.since(m0)
        wall = m1.wall - m0.wall
        self.check(run_dir, config.count, p)
        p.e2e_s = wall
        p.cpu_s = coord + worker
        p.ran = ran
        if tracer is not None:
            spans, p.wall, p.gap = pass_layers(tracer)
            p.add_layers(spans)
            p.missing = tracer.missing
            counters = metrics.snapshot()["counters"]
            p.add_layers({
                "runtime.procs.coord_cpu_s": coord,
                "runtime.procs.worker_cpu_s": worker,
                "runtime.procs.idle_core_s":
                    WORKERS * wall - coord - worker,
                "corpus.attempts": counters.get("corpus.attempts", 0),
                "corpus.window_shrinks":
                    counters.get("corpus.window_shrinks", 0),
                "corpus.quarantined": counters.get("corpus.quarantined", 0),
            })
        shutil.rmtree(run_dir)
        return p

    @staticmethod
    def wrap(tracer: Tracer) -> None:
        import repro.corpus.driver as driver
        from repro.corpus.journal import Journal
        from repro.runtime.procs import PoolAdmission

        wrap_core(tracer)
        tracer.wrap(driver, "corpus_program", "corpus.synth")
        tracer.wrap(driver, "synthesize", "corpus.synth")
        tracer.wrap(driver, "parse_binary", _parse_span)
        tracer.wrap(Journal, "flush", "corpus.journal.flush")
        tracer.wrap(PoolAdmission, "acquire", "runtime.procs.admission_wait")

    def check(self, run_dir: Path, count: int, p: Pass) -> None:
        """Every binary of the report against its serial reference."""
        from repro.corpus.report import REPORT_NAME
        from repro.runtime.tracefmt import validate_corpus_report

        report = json.loads((run_dir / REPORT_NAME).read_text())
        errors = validate_corpus_report(report)
        if errors:
            raise BenchError(f"corpus report is invalid: {errors}")
        if len(report["binaries"]) != count:
            raise BenchError(f"corpus report lists "
                             f"{len(report['binaries'])} binaries, "
                             f"not {count}")
        for b in report["binaries"]:
            ref = self.refs[b["index"]]
            if b["status"] == "ok" and b["degraded"] != "none":
                # A degraded parse ran a different program: refuse.
                raise BenchError(f"{b['name']}: procs parse degraded to "
                                 f"{b['degraded']}")
            problems = []
            if b["status"] != "ok":
                problems.append(f"quarantined: {b.get('reason')}")
            elif b["failures"]:
                problems.append(f"failed attempts: {b['failures']}")
            elif b["digest"] != ref["digest"] or \
                    b["serial_digest"] != ref["digest"]:
                problems.append("CFG digest differs from the reference")
            elif (b["functions"], b["blocks"]) != \
                    (ref["functions"], ref["blocks"]):
                problems.append("CFG counts differ from the reference")
            self.outcomes.record(b["name"], problems)
            if not problems:
                kinsn = ref["insns"] / 1000.0
                p.kinsn += kinsn
                p.cfg_s += b["latency_s"]
                p.add_latency(b["latency_s"], kinsn)
                p.add_layers({"core.insns": ref["insns"],
                              "core.functions": ref["functions"],
                              "core.blocks": ref["blocks"]})
