"""Input synthesis and serial references, run in a child interpreter.

``python3 -m perfbench.prepare <workload> <seed> <out-dir>`` writes the
workload's inputs and a ``refs.json`` of serial reference results into
``<out-dir>``.  It runs in its own process so that synthesis and the
reference parses never count toward the measuring process's CPU or
peak RSS.
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path

from perfbench.common import ROOT, use_checkout_source

#: Table 1 presets of the analyze workloads, in pipeline order.
PRESETS = ("llnl1", "llnl2", "camellia", "tensorflow")

#: One fixed preset scale for every analyze run.
SCALE = 0.1

#: Binaries in one corpus campaign (one ``run_corpus`` call).
CORPUS_COUNT = 60

#: The tiny image the setup probes warm up on.
WARM_IMAGE = "warm.sbin"


def input_seed(seed: int, k: int) -> int:
    """Seed of input ``k``: a function of the workload seed only."""
    return seed * 1009 + k


def cfg_counts(cfg) -> dict:
    return {"insns": sum(len(b.insns) for b in cfg.blocks()),
            "functions": len(cfg.functions()),
            "blocks": len(cfg.blocks())}


def paper_diff(report) -> list[list]:
    """The ground-truth diff restricted to the paper's four expected
    categories (Section 8.1), in a canonical order."""
    return sorted([d.category.value, d.paper_category, d.address, d.name,
                   d.detail]
                  for d in report.differences if d.paper_category)


def subject_for(image_rel: str) -> dict:
    """The findings subject ``repro analyze <image> --scale SCALE``
    writes for an image path."""
    return {"workload": image_rel, "scale": SCALE}


def prepare_analyze(seed: int, out: Path) -> dict:
    from repro import (
        SerialRuntime,
        camellia_like,
        llnl1_like,
        llnl2_like,
        load_image,
        parse_binary,
        save_image,
        tensorflow_like,
    )
    from repro.analyses.checkers import resolve_checks
    from repro.analyses.findings import canonical_bytes, findings_document
    from repro.analyses.interproc import run_checkers
    from repro.apps.checker import check_binary
    from repro.fuzz.oracle import signature_digest

    makers = {"llnl1": llnl1_like, "llnl2": llnl2_like,
              "camellia": camellia_like, "tensorflow": tensorflow_like}
    checks = resolve_checks("all")
    binaries = []
    for k, preset in enumerate(PRESETS):
        sb = makers[preset](seed=input_seed(seed, k), scale=SCALE)
        image = out / f"{preset}.sbin"
        save_image(sb.binary.image, str(image))
        rel = str(image.relative_to(ROOT))
        binary = load_image(str(image))
        cfg = parse_binary(binary, SerialRuntime(enable_metrics=False))
        res = run_checkers(cfg, checks, rt=SerialRuntime(),
                           binary=binary.name)
        doc = findings_document("checkers", list(checks), res.findings,
                                subject=subject_for(rel))
        findings = out / f"{preset}.findings.ref.json"
        findings.write_bytes(canonical_bytes(doc))
        with open(out / f"{preset}.gt.pkl", "wb") as f:
            pickle.dump((sb.ground_truth, sb.spec), f)
        binaries.append({
            "preset": preset, "image": rel,
            "findings": str(findings.relative_to(ROOT)),
            "ground_truth": str((out / f"{preset}.gt.pkl")
                                .relative_to(ROOT)),
            "digest": signature_digest(cfg.signature()),
            "paper_diff": paper_diff(check_binary(sb, cfg)),
            **cfg_counts(cfg)})
    return {"scale": SCALE, "checks": list(checks), "binaries": binaries}


def prepare_corpus(seed: int, out: Path) -> dict:
    from repro import SerialRuntime, parse_binary
    from repro.corpus.driver import corpus_program
    from repro.fuzz.oracle import signature_digest
    from repro.synth.codegen import synthesize

    binaries = []
    for i in range(CORPUS_COUNT):
        binary = synthesize(corpus_program(i, seed)).binary
        cfg = parse_binary(binary, SerialRuntime(enable_metrics=False))
        binaries.append({"index": i, "name": binary.name,
                         "digest": signature_digest(cfg.signature()),
                         **cfg_counts(cfg)})
    return {"count": CORPUS_COUNT, "binaries": binaries}


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    use_checkout_source()
    from repro import save_image, tiny_binary

    out.mkdir(parents=True, exist_ok=True)
    save_image(tiny_binary().binary.image, str(out / WARM_IMAGE))
    if workload.startswith("analyze"):
        refs = prepare_analyze(seed, out)
    else:
        refs = prepare_corpus(seed, out)
    (out / "refs.json").write_text(json.dumps(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
