"""Interprocedural scheduler: units, fixpoint, backends, metrics."""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro.analyses import checkers, interproc
from repro.analyses.findings import canonical_bytes, findings_document
from repro.analyses.interproc import (
    FuncUnit,
    SCCUnit,
    analyze_unit,
    run_checkers,
    snapshot_function,
)
from repro.core import parse_binary
from repro.isa import Cond, Opcode, Reg
from repro.runtime import (
    ProcsRuntime,
    SerialRuntime,
    ThreadRuntime,
    VirtualTimeRuntime,
)
from repro.synth import (
    camellia_like,
    hostile_binary,
    llnl1_like,
    llnl2_like,
    tensorflow_like,
    tiny_binary,
)
from repro.synth.asm import L
from tests.core.test_parallel_parser import make_binary


@pytest.fixture(scope="module")
def tiny_cfg():
    return parse_binary(tiny_binary().binary, SerialRuntime())


class TestUnits:
    def test_snapshot_is_picklable_and_self_contained(self, tiny_cfg):
        from repro.analyses.callgraph import build_call_graph

        graph = build_call_graph(tiny_cfg)
        jt_by_block = {}
        for jt in tiny_cfg.jump_tables:
            jt_by_block.setdefault(jt.block_start, []).append(jt)
        func = max(tiny_cfg.functions(), key=lambda f: len(f.blocks))
        unit = snapshot_function(func, set(graph.entries), jt_by_block)
        clone = pickle.loads(pickle.dumps(unit))
        assert clone == unit
        view = clone.materialize()
        assert view.entry == func.addr
        assert len(view.func.blocks) == sum(
            1 for b in func.blocks if not b.is_empty)

    def test_materialize_rebuilds_edges_both_ways(self, tiny_cfg):
        func = max(tiny_cfg.functions(), key=lambda f: len(f.blocks))
        unit = snapshot_function(func, {f.addr for f in
                                        tiny_cfg.functions()}, {})
        view = unit.materialize()
        for b in view.func.blocks:
            for e in b.out_edges:
                assert e in e.dst.in_edges

    def test_analyze_unit_is_pure(self, tiny_cfg):
        func = next(iter(tiny_cfg.functions()))
        fu = snapshot_function(func, {f.addr for f in
                                      tiny_cfg.functions()}, {})
        unit = SCCUnit(index=0, funcs=(fu,),
                       checks=("stack-balance", "uninit-reg"),
                       external={})
        a = analyze_unit(unit)
        b = analyze_unit(pickle.loads(pickle.dumps(unit)))
        assert a == b
        assert a["rounds"] >= 1


class TestScheduleIndependence:
    def _bytes(self, binary, rt):
        cfg = parse_binary(binary, SerialRuntime())
        res = run_checkers(cfg, "all", rt=rt, binary=binary.name)
        doc = findings_document("checkers", list(res.summaries), res.findings)
        return canonical_bytes(doc)

    @pytest.mark.parametrize("preset,seed", [("jt-overapprox", 5),
                                             ("hostile-all", 9)], ids=str)
    def test_backends_agree_byte_for_byte(self, preset, seed):
        binary = hostile_binary(preset, seed=seed, n_functions=14).binary
        ref = self._bytes(binary, None)
        for rt in (SerialRuntime(), VirtualTimeRuntime(4),
                   ThreadRuntime(4), ProcsRuntime(2, in_process=True)):
            assert self._bytes(binary, rt) == ref, type(rt).__name__

    def test_worker_counts_agree_byte_for_byte(self):
        binary = hostile_binary("hostile-all", seed=9, n_functions=14).binary
        ref = self._bytes(binary, None)
        for n in (1, 2, 4):
            assert self._bytes(binary, VirtualTimeRuntime(n)) == ref, n
            assert self._bytes(
                binary, ProcsRuntime(n, in_process=True)) == ref, n


class TestRun:
    def test_stats_shape(self, tiny_cfg):
        res = run_checkers(tiny_cfg, "all")
        s = res.stats
        assert s["functions"] == len(list(tiny_cfg.functions()))
        assert s["sccs"] >= 1 and s["waves"] >= 1
        assert s["rounds"] >= s["sccs"]  # every SCC iterates at least once
        assert s["findings"] == len(res.findings)
        assert s["pool_units"] == 0  # no procs pool in this run

    def test_summaries_cover_every_entry_and_check(self, tiny_cfg):
        res = run_checkers(tiny_cfg, "all")
        entries = {f.addr for f in tiny_cfg.functions()}
        for check, per_entry in res.summaries.items():
            assert set(per_entry) == entries, check

    def test_findings_are_sorted_and_attributed(self, tiny_cfg):
        from repro.analyses.findings import finding_sort_key

        res = run_checkers(tiny_cfg, "all", binary="tiny.bin")
        keys = [finding_sort_key(f) for f in res.findings]
        assert keys == sorted(keys)
        assert all(f["binary"] == "tiny.bin" for f in res.findings)
        assert all(f["function"] for f in res.findings)

    def test_metrics_counters(self):
        cfg = parse_binary(tiny_binary().binary, SerialRuntime())
        rt = VirtualTimeRuntime(4)
        res = run_checkers(cfg, "all", rt=rt)
        m = rt.metrics
        assert m.counter("analysis.functions") == res.stats["functions"]
        assert m.counter("analysis.sccs") == res.stats["sccs"]
        assert m.counter("analysis.waves") == res.stats["waves"]
        assert m.counter("analysis.findings") == len(res.findings)
        for f in res.findings:
            assert m.counter(f"analysis.findings.{f['rule']}") >= 1
        # Analysis work is on the virtual clock: phase + charge visible.
        assert rt.makespan > 0

    def test_check_subset_only_runs_those(self, tiny_cfg):
        res = run_checkers(tiny_cfg, "jt-bounds")
        assert list(res.summaries) == ["jt-bounds"]
        assert all(f["rule"] == "jt-bounds" for f in res.findings)


def _rounds_then_report(unit: SCCUnit) -> dict:
    """Oracle: every checker iterates rounds until no summary of any
    checker changes, then one separate pass reports over the final
    summaries.  Production must match its summaries and findings."""
    cks = [checkers.make_checker(n) for n in unit.checks]
    views = {u.entry: u.materialize() for u in unit.funcs}
    entries = sorted(views)
    local = {c.name: {e: c.bottom() for e in entries} for c in cks}

    def lookup(checker, loc):
        ext = unit.external.get(checker.name, {})

        def getsumm(target):
            if target is None:
                return checker.unknown()
            if target in loc:
                return loc[target]
            if target in ext:
                return ext[target]
            return checker.unknown()
        return getsumm

    rounds = 0
    changed = True
    max_rounds = 4 * len(entries) + 16
    while changed and rounds < max_rounds:
        rounds += 1
        changed = False
        for c in cks:
            loc = local[c.name]
            getsumm = lookup(c, loc)
            for e in entries:
                new, _ = c.analyze(views[e], getsumm)
                if new != loc[e]:
                    loc[e] = new
                    changed = True

    findings = []
    for c in cks:
        getsumm = lookup(c, local[c.name])
        for e in entries:
            _, raw = c.analyze(views[e], getsumm)
            for f in raw:
                findings.append({**f, "function": views[e].name})
    return {"index": unit.index, "summaries": local,
            "findings": findings, "rounds": rounds}


def _mutual_pair(a):
    """f <-> g: every checker's summaries depend on each other."""
    a.label("f")
    a.cmp_ri(Reg.R1, 0)
    a.jcc(Cond.EQ, L("f_out"))
    a.mov_ri(Reg.R4, 3)
    a.call(L("g"))
    a.label("f_out")
    a.insn(Opcode.MOV_RR, Reg.R0, Reg.R5)
    a.ret()
    a.label("g")
    a.cmp_ri(Reg.R1, 1)
    a.jcc(Cond.EQ, L("g_out"))
    a.mov_ri(Reg.R5, 4)
    a.mov_ri(Reg.FP, 5)
    a.call(L("f"))
    a.label("g_out")
    a.insn(Opcode.MOV_RR, Reg.R0, Reg.R4)
    a.ret()


def _table1(make, seed):
    return lambda: make(seed=seed, scale=0.05).binary


def _hostile(preset, seed):
    return lambda: hostile_binary(preset, seed=seed).binary


def _hand(build, names):
    return lambda: make_binary(build, {n: n for n in names})[0]


_ORACLE_CASES = {
    **{f"{preset}-{seed}": _hostile(preset, seed)
       for preset in ("hostile-all", "jt-overapprox", "stripped")
       for seed in (1, 4, 9, 13)},
    **{make.__name__: _table1(make, seed)
       for make, seed in ((llnl1_like, 101), (llnl2_like, 102),
                          (camellia_like, 103), (tensorflow_like, 104))},
    "mutual-pair": _hand(_mutual_pair, ("f", "g")),
}


class TestMatchesRoundsThenReport:
    @pytest.mark.parametrize("make", list(_ORACLE_CASES.values()),
                             ids=list(_ORACLE_CASES))
    def test_identical_to_the_rounds_then_report_oracle(self, make,
                                                        monkeypatch):
        cfg = parse_binary(make(), SerialRuntime())
        got = run_checkers(cfg, "all", binary="b")
        monkeypatch.setattr(interproc, "analyze_unit", _rounds_then_report)
        ref = run_checkers(cfg, "all", binary="b")
        assert got.summaries == ref.summaries
        assert got.findings == ref.findings
        assert got.stats["rounds"] <= ref.stats["rounds"]
        assert got.stats["sccs"] == ref.stats["sccs"]


def _count_analyze_calls(monkeypatch) -> Counter:
    """Count ``Checker.analyze`` calls per (check, function entry)."""
    calls: Counter = Counter()
    real = interproc.make_checker

    def make(name):
        checker = real(name)
        inner = checker.analyze

        def analyze(view, getsumm):
            calls[(name, view.entry)] += 1
            return inner(view, getsumm)
        checker.analyze = analyze
        return checker
    monkeypatch.setattr(interproc, "make_checker", make)
    return calls


class TestOneAnalysisPerChecker:
    def test_acyclic_singletons_are_analyzed_once(self, monkeypatch):
        def build(a):
            a.label("main")
            a.call(L("mid"))
            a.call(L("leaf"))
            a.ret()
            a.label("mid")
            a.call(L("leaf"))
            a.ret()
            a.label("leaf")
            a.mov_ri(Reg.R0, 1)
            a.ret()

        binary, labels = make_binary(
            build, {n: n for n in ("main", "mid", "leaf")})
        cfg = parse_binary(binary, SerialRuntime())
        calls = _count_analyze_calls(monkeypatch)
        res = run_checkers(cfg, "all")
        assert res.stats["sccs"] == 3
        assert res.stats["rounds"] == 3
        assert set(calls) == {(c, labels[f]) for c in checkers.ALL_CHECKS
                              for f in ("main", "mid", "leaf")}
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("check", ["callee-saved", "stack-balance",
                                       "uninit-reg"])
    def test_recursive_scc_has_no_reporting_pass(self, check, monkeypatch):
        binary, labels = make_binary(_mutual_pair, {"f": "f", "g": "g"})
        cfg = parse_binary(binary, SerialRuntime())
        calls = _count_analyze_calls(monkeypatch)
        res = run_checkers(cfg, check)
        assert res.stats["sccs"] == 1
        rounds = res.stats["rounds"]
        assert rounds >= 2  # members read each other's summaries
        assert calls[(check, labels["f"])] == rounds
        assert calls[(check, labels["g"])] == rounds
        assert sum(calls.values()) == rounds * 2

    def test_round_cap_reports_over_the_capped_summaries(
            self, tiny_cfg, monkeypatch):
        class Diverging(checkers.Checker):
            """Reads its own summary and bumps it: never stabilizes."""

            name = "diverging"

            def bottom(self):
                return 0

            def unknown(self):
                return 0

            def join(self, a, b):
                return max(a, b)

            def analyze(self, view, getsumm):
                s = getsumm(view.entry) + 1
                return s, [{"rule": self.name, "address": view.entry,
                            "detail": f"saw {s - 1}"}]

        monkeypatch.setitem(checkers._CHECKER_FACTORIES, "diverging",
                            Diverging)
        calls = _count_analyze_calls(monkeypatch)
        func = next(iter(tiny_cfg.functions()))
        fu = snapshot_function(func, {func.addr}, {})
        res = analyze_unit(SCCUnit(index=0, funcs=(fu,),
                                   checks=("diverging",), external={}))
        cap = 4 * 1 + 16
        assert res["rounds"] == cap
        assert res["summaries"] == {"diverging": {func.addr: cap}}
        # One pass beyond the cap, reading the capped summary.
        assert calls[("diverging", func.addr)] == cap + 1
        assert [f["detail"] for f in res["findings"]] == [f"saw {cap}"]
