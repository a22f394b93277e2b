"""One set-up probe: a fresh interpreter brought to the ready state.

``python3 -m perfbench.probe <workload> <warm-image>`` imports the
program, sweeps orphaned shared-memory segments, and on the procs
workloads creates the worker pool with a warm-up dispatch: one tiny
image through the workload's pipeline.  It then prints ``ready`` and
waits for its standard input to close.  The parent times the span from
spawn to ``ready``.
"""

from __future__ import annotations

import sys

from perfbench.common import WORKERS, use_checkout_source


def main(argv: list[str]) -> int:
    workload, warm_image = argv
    use_checkout_source()
    from repro import SerialRuntime, load_image, parse_binary
    from repro.analyses.findings import findings_document
    from repro.analyses.interproc import run_checkers
    # Every workload's probe imports the same modules.
    from repro.corpus import run_corpus  # noqa: F401
    from repro.runtime.procs import ProcsRuntime
    from repro.runtime.shm import sweep_orphans
    from repro.runtime.tracefmt import validate_findings

    sweep_orphans()
    procs = workload.endswith("procs")

    def runtime():
        return ProcsRuntime(WORKERS) if procs else SerialRuntime()

    binary = load_image(warm_image)
    cfg = parse_binary(binary, runtime())
    if workload.startswith("analyze"):
        res = run_checkers(cfg, "all", rt=runtime(), binary=binary.name)
        validate_findings(findings_document("checkers", ["all"],
                                            res.findings))
    print("ready", flush=True)
    sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
