"""Tests of the benchmark's own helpers.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from perfbench import common
from perfbench.common import (
    BenchError,
    Outcomes,
    guard_environment,
    parse_stat_cpu,
    parse_status_hwm_kb,
    tail,
)
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.tracing import Span, Tracer, covered, self_times, span_metrics


# -- tail percentile ----------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert tail(values) == (90.0, 90.0)
    value, pct = tail(list(reversed(values)))
    assert value == 90.0 and sum(v > value for v in values) == 10


def test_tail_of_small_sample_is_low_percentile():
    values = [float(v) for v in range(1, 21)]
    assert tail(values) == (10.0, 50.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(BenchError):
        tail([1.0] * 10)
    assert tail([1.0] * 11) == (1.0, 100.0 / 11)


# -- /proc parsing ------------------------------------------------------------

def test_stat_parser_counts_fields_after_command():
    tick = os.sysconf("SC_CLK_TCK")
    # A command holding spaces and parentheses must not shift fields.
    rest = ["S", "1", "2", "3", "0", "-1", "4194304", "10", "0", "0", "0",
            str(3 * tick), str(tick), "0", "0", "20", "0", "1", "0", "99"]
    line = "4242 (py (worker) 1) " + " ".join(rest) + "\n"
    assert parse_stat_cpu(line) == pytest.approx(4.0)


def test_status_parser_reads_vmhwm():
    text = "Name:\tpython3\nVmPeak:\t  9000 kB\nVmHWM:\t  1234 kB\n"
    assert parse_status_hwm_kb(text) == 1234
    with pytest.raises(ValueError):
        parse_status_hwm_kb("Name:\tpython3\n")


def test_proc_readers_on_this_process():
    with open(f"/proc/{os.getpid()}/stat") as f:
        assert parse_stat_cpu(f.read()) >= 0.0
    assert common.peak_rss_mb() > 1.0


# -- spans and self time ------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [Span(1, "op", None, 0.0, 10.0),
             Span(2, "a", 1, 1.0, 4.0),
             Span(3, "b", 1, 3.0, 6.0),      # overlaps a
             Span(4, "a.inner", 2, 2.0, 3.0),
             Span(5, "c", 1, 9.0, 12.0)]     # runs past its parent
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert covered([(0, 1), (0.5, 2), (3, 4)], 0.0, 3.5) == \
        pytest.approx(2.5)


def test_span_metrics_add_up_to_wall():
    tr = Tracer()
    for _ in range(2):
        with tr.span("op"):
            with tr.span("core.parse"):
                with tr.span("core.finalize"):
                    pass
            with tr.span("analyses.findings.write"):
                pass
    values, wall, gap = span_metrics(tr.spans)
    assert set(values) == {"unattributed_s", "core.parse_s",
                           "core.finalize_s", "analyses.findings.write_s"}
    assert gap == pytest.approx(0.0, abs=1e-9)
    assert sum(values.values()) == pytest.approx(wall)


def test_spans_on_other_threads_hang_under_anchor():
    tr = Tracer()

    def work():
        with tr.span("corpus.synth"):
            with tr.span("core.finalize"):
                pass

    with tr.span("op"), tr.span("corpus.driver") as driver:
        tr.anchor = driver
        with tr.span("corpus.journal.flush"):
            t = threading.Thread(target=work)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
    by_name = {s.name: s for s in tr.spans}
    assert by_name["corpus.synth"].parent == driver
    assert by_name["core.finalize"].parent == by_name["corpus.synth"].id


def test_wrap_records_and_restores():
    class Owner:
        @classmethod
        def make(cls, n):
            return n + 1

        def boom(self):
            raise KeyError("x")

    tr = Tracer()
    tr.wrap(Owner, "make", "made", hook=lambda t, out: t.count("sum", out))
    tr.wrap(Owner, "boom", "boom")
    tr.wrap(Owner, "gone", "gone")
    assert Owner.make(1) == 2
    with pytest.raises(KeyError):
        Owner().boom()
    tr.unwrap_all()
    assert Owner.make(1) == 2
    assert [s.name for s in tr.spans] == ["made", "boom"]
    assert tr.counts["sum"] == 2 and tr.counts["boom.errors"] == 1
    assert tr.missing == ["Owner.gone"]


# -- correctness accounting ---------------------------------------------------

def test_environment_guard():
    guard_environment({"PATH": "/bin"})
    with pytest.raises(BenchError):
        guard_environment({"REPRO_FAULT_PLAN": "exc@1x1"})


def test_tampered_signature_raises_fail_ratio(tmp_path):
    common.use_checkout_source()
    from repro import SerialRuntime, parse_binary, tiny_binary
    from repro.analyses.checkers import resolve_checks
    from repro.analyses.findings import canonical_bytes, findings_document
    from repro.analyses.interproc import run_checkers
    from repro.apps.checker import check_binary
    from repro.fuzz.oracle import signature_digest

    from perfbench.analyze import AnalyzeWorkload, Input
    from perfbench.prepare import cfg_counts, paper_diff

    sb = tiny_binary()
    cfg = parse_binary(sb.binary, SerialRuntime())
    res = run_checkers(cfg, "all", rt=SerialRuntime(), binary=sb.name)
    doc = findings_document("checkers", list(resolve_checks("all")),
                            res.findings)
    sidecar = tmp_path / "tiny.findings.json"
    sidecar.write_bytes(canonical_bytes(doc))
    ref = {"digest": signature_digest(cfg.signature()),
           "paper_diff": paper_diff(check_binary(sb, cfg)),
           **cfg_counts(cfg)}
    inp = Input(preset="tiny", image_rel="tiny.sbin", image=b"", ref=ref,
                findings=sidecar.read_bytes(), truth=sb, sidecar=sidecar)

    wl = AnalyzeWorkload.__new__(AnalyzeWorkload)
    wl.procs = False
    wl.outcomes = Outcomes()
    assert wl.check(inp, cfg, None, res)
    assert wl.outcomes.fail_ratio == 0.0

    inp.ref = dict(ref, digest="0" * 64)
    assert not wl.check(inp, cfg, None, res)
    assert wl.outcomes.attempted == 2 and wl.outcomes.failed == 1
    assert wl.outcomes.fail_ratio == 0.5


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_catalogue():
    with open(common.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)
