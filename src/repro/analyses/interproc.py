"""Bottom-up interprocedural scheduler: SCC waves, summaries, findings.

The driver behind ``repro analyze``.  Given a parsed (read-only) CFG it

1. builds the whole-program call graph and its SCC condensation
   (:mod:`repro.analyses.callgraph`);
2. walks the condensation bottom-up in *waves* — every callee SCC is
   finished before any of its callers starts — running the registered
   checkers (:mod:`repro.analyses.checkers`) over each SCC;
3. inside an SCC, iterates each checker over the member functions'
   summaries to a fixpoint (finite join-semilattices; cycles
   converge) and keeps the findings of the last round: a round that
   changes no summary saw the final ones, and a round that read no
   summary from inside the SCC needs no repeat, so an acyclic
   singleton is analyzed once per checker.  Only a checker stopped by
   the round cap while still changing gets a separate reporting pass.

SCCs within one wave are mutually independent, so they fan out in
parallel: via ``rt.parallel_for`` on the in-process backends, or over
the shared worker pool on the procs backend.  Each SCC is shipped as a
picklable, self-contained :class:`SCCUnit` and analyzed by the pure
top-level function :func:`analyze_unit` — the *same* function on every
path — so the result is schedule-independent by construction and the
findings sidecar is byte-identical across backends and worker counts
(the differential battery pins this).

Work charged to the runtime uses the liveness cost model, so the vtime
backend produces meaningful utilization traces for analysis runs too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analyses.callgraph import build_call_graph, condensation_waves
from repro.analyses.checkers import (
    Checker,
    FuncView,
    make_checker,
    resolve_checks,
)
from repro.analyses.common import INTRA_EDGES
from repro.analyses.findings import finding, sort_findings
from repro.core.cfg import (
    Block,
    Edge,
    EdgeType,
    Function,
    JumpTableInfo,
    ParsedCFG,
)
from repro.isa.instructions import Instruction


@dataclass(frozen=True)
class FuncUnit:
    """Picklable snapshot of one function's intra-procedural CFG.

    Stores only plain tuples (plus immutable :class:`Instruction` and
    :class:`JumpTableInfo` records), so shipping an SCC to a pool
    worker never drags the rest of the program graph along.
    """

    entry: int
    name: str
    #: (start, end, insns) per non-empty block, address-sorted.
    blocks: tuple[tuple[int, int, tuple[Instruction, ...]], ...]
    #: intra-procedural edges (src_start, dst_start, etype value).
    edges: tuple[tuple[int, int, str], ...]
    #: (block_start, callee_entry_or_None) per tail-call exit.
    tailcalls: tuple[tuple[int, int | None], ...]
    jump_tables: tuple[JumpTableInfo, ...]

    def materialize(self) -> FuncView:
        """Rebuild a real Function/Block/Edge graph for the solvers."""
        blocks: dict[int, Block] = {}
        for start, end, insns in self.blocks:
            b = Block(start)
            b.end = end
            b.insns = list(insns)
            blocks[start] = b
        for src, dst, etype in self.edges:
            e = Edge(blocks[src], blocks[dst], EdgeType(etype))
            blocks[src].out_edges.append(e)
            blocks[dst].in_edges.append(e)
        entry_block = blocks.get(self.entry) or Block(self.entry)
        if entry_block.end is None:
            entry_block.end = self.entry
        func = Function(self.entry, self.name, entry_block,
                        from_symtab=False, discovered_via="analysis")
        func.blocks = [blocks[s] for s in sorted(blocks)]
        return FuncView(func=func, entry=self.entry, name=self.name,
                        jump_tables=self.jump_tables,
                        tailcalls=dict(self.tailcalls))


@dataclass
class SCCUnit:
    """One SCC of the call graph, ready to analyze anywhere.

    Self-contained: member function snapshots, the checks to run, and
    the summaries of every external callee the SCC references.  Targets
    missing from ``external`` resolve to the checker's conservative
    ``unknown()`` summary.
    """

    index: int
    funcs: tuple[FuncUnit, ...]
    checks: tuple[str, ...]
    external: dict[str, dict[int, Any]]


def snapshot_function(func: Function, entry_set: set[int],
                      jt_by_block: dict[int, list[JumpTableInfo]]
                      ) -> FuncUnit:
    """Snapshot one parsed function into a picklable unit."""
    live = sorted((b for b in func.blocks if not b.is_empty),
                  key=lambda b: b.start)
    member = {b.start for b in live}
    blocks = tuple((b.start, b.end, tuple(b.insns)) for b in live)
    edges: list[tuple[int, int, str]] = []
    tailcalls: list[tuple[int, int | None]] = []
    tables: list[JumpTableInfo] = []
    for b in live:
        for e in b.out_edges:
            if e.etype in INTRA_EDGES and e.dst.start in member:
                edges.append((b.start, e.dst.start, e.etype.value))
            elif e.etype is EdgeType.TAILCALL:
                target = (e.dst.start if e.dst.start in entry_set
                          else None)
                tailcalls.append((b.start, target))
        tables.extend(jt_by_block.get(b.start, ()))
    return FuncUnit(
        entry=func.addr, name=func.name, blocks=blocks,
        edges=tuple(sorted(set(edges))),
        tailcalls=tuple(sorted(set(tailcalls),
                               key=lambda t: (t[0], t[1] or -1))),
        jump_tables=tuple(sorted(tables, key=lambda j: j.block_start)))


def _checker_fixpoint(checker: Checker, views: dict[int, FuncView],
                      entries: list[int], external: dict[int, Any]
                      ) -> tuple[dict[int, Any], list[dict], int]:
    """Iterate one checker over one SCC; return (summaries, raw
    findings with function attribution, rounds).

    A round whose summaries all stay put saw exactly the final
    summaries, so its findings are the final findings.  A round that
    read no summary from inside the SCC depended only on the fixed
    external ones, so a further round would repeat it verbatim: an
    acyclic singleton is analyzed once.
    """
    loc = {e: checker.bottom() for e in entries}
    read_local = False

    def getsumm(target: int | None):
        nonlocal read_local
        if target is None:
            return checker.unknown()
        if target in loc:
            read_local = True
            return loc[target]
        if target in external:
            return external[target]
        return checker.unknown()

    def attribute(e: int, raw: list[dict]) -> list[dict]:
        return [{**f, "function": views[e].name} for f in raw]

    # Finite lattices converge; the cap is a deterministic safety valve.
    max_rounds = 4 * len(entries) + 16
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        read_local = changed = False
        findings: list[dict] = []
        for e in entries:
            new, raw = checker.analyze(views[e], getsumm)
            findings.extend(attribute(e, raw))
            if new != loc[e]:
                loc[e] = new
                changed = True
        if not changed or not read_local:
            return loc, findings, rounds
    # Capped while still changing: report over the capped summaries.
    findings = []
    for e in entries:
        findings.extend(attribute(e, checker.analyze(views[e], getsumm)[1]))
    return loc, findings, rounds


def analyze_unit(unit: SCCUnit) -> dict:
    """Analyze one SCC to summary fixpoint; pure and deterministic.

    Every dispatch path — inline, ``rt.parallel_for`` task, pool
    worker — calls exactly this function, which is what makes the
    findings independent of backend and schedule.  Returns
    ``{"index", "summaries", "findings", "rounds"}``; findings carry
    function attribution but not yet the binary name, and ``rounds``
    is the most fixpoint rounds any one checker took.
    """
    views = {u.entry: u.materialize() for u in unit.funcs}
    entries = sorted(views)
    summaries: dict[str, dict[int, Any]] = {}
    findings: list[dict] = []
    rounds = 0
    for name in unit.checks:
        loc, found, n = _checker_fixpoint(
            make_checker(name), views, entries,
            unit.external.get(name, {}))
        summaries[name] = loc
        findings.extend(found)
        rounds = max(rounds, n)
    return {"index": unit.index, "summaries": summaries,
            "findings": findings, "rounds": rounds}


@dataclass
class AnalysisResult:
    """Everything one interprocedural run produced."""

    findings: list[dict]                     #: normalized, sorted
    summaries: dict[str, dict[int, Any]]     #: per check, per entry
    stats: dict[str, int] = field(default_factory=dict)


def _unit_cost(unit: SCCUnit) -> int:
    return sum(len(insns) for u in unit.funcs
               for _, _, insns in u.blocks)


def run_checkers(cfg: ParsedCFG, checks: Any = "all",
                 rt: Any = None, binary: str | None = None
                 ) -> AnalysisResult:
    """Run the interprocedural checkers over one parsed CFG.

    ``rt`` is an optional *fresh* runtime (``Runtime.run`` is
    single-use, so the runtime that parsed the binary cannot be
    reused).  ``None`` runs inline.  On the procs backend with a real
    pool, wave units are dispatched with ``pool.map``; any pool
    failure falls back to inline analysis of the remaining units —
    same :func:`analyze_unit`, same bytes.
    """
    names = resolve_checks(checks)
    graph = build_call_graph(cfg)
    sccs, waves = condensation_waves(graph)
    jt_by_block: dict[int, list[JumpTableInfo]] = {}
    for jt in cfg.jump_tables:
        jt_by_block.setdefault(jt.block_start, []).append(jt)
    entry_set = set(graph.entries)
    units = {f.addr: snapshot_function(f, entry_set, jt_by_block)
             for f in cfg.functions()}

    summaries: dict[str, dict[int, Any]] = {n: {} for n in names}
    findings: list[dict] = []
    stats = {
        "functions": len(graph.entries),
        "call_edges": graph.n_edges,
        "unresolved_calls": sum(graph.unresolved.values()),
        "sccs": len(sccs),
        "waves": len(waves),
        "rounds": 0,
        "pool_units": 0,
        "pool_fallback": 0,
    }

    def build_wave(wave: list[int]) -> list[SCCUnit]:
        out = []
        for i in wave:
            members = sccs[i]
            need: set[int] = set()
            for e in members:
                need.update(graph.callees.get(e, ()))
            need -= set(members)
            external = {
                n: {t: summaries[n][t] for t in sorted(need)
                    if t in summaries[n]}
                for n in names}
            out.append(SCCUnit(index=i,
                               funcs=tuple(units[e] for e in members),
                               checks=names, external=external))
        return out

    def absorb(results: list[dict]) -> None:
        for res in sorted(results, key=lambda r: r["index"]):
            stats["rounds"] += res["rounds"]
            for n in names:
                summaries[n].update(res["summaries"][n])
            for f in res["findings"]:
                findings.append(finding(
                    f["rule"], f["detail"], binary=binary,
                    function=f.get("function"),
                    address=f.get("address")))

    pool = None
    if rt is not None and type(rt).__name__ == "ProcsRuntime" \
            and not getattr(rt, "in_process", True):
        import multiprocessing as mp

        from repro.runtime.procs import _shared_pool
        try:
            ctx = mp.get_context(rt.start_method)
            pool = _shared_pool(ctx, rt.num_workers)
        except Exception:
            pool = None  # sandboxes without semaphores: run inline

    def drain(wave_units: list[SCCUnit]) -> list[dict]:
        if pool is not None:
            stats["pool_units"] += len(wave_units)
            try:
                return pool.map(analyze_unit, wave_units)
            except Exception:
                stats["pool_fallback"] += len(wave_units)
                return [analyze_unit(u) for u in wave_units]
        if rt is not None:
            results: dict[int, dict] = {}
            lock = rt.make_lock()

            def work(u: SCCUnit) -> None:
                rt.charge(rt.cost.liveness_per_insn * len(u.checks)
                          * max(1, _unit_cost(u)))
                res = analyze_unit(u)
                with lock:
                    results[res["index"]] = res
            rt.parallel_for(wave_units, work, sort_key=_unit_cost,
                            reverse=True)
            return [results[u.index] for u in wave_units]
        return [analyze_unit(u) for u in wave_units]

    def run_waves() -> None:
        for wave in waves:
            drained = drain(build_wave(wave))
            absorb(drained)

    def main() -> None:
        with rt.phase("interproc"):
            run_waves()

    if rt is not None:
        rt.run(main)
    else:
        run_waves()

    result = AnalysisResult(findings=sort_findings(findings),
                            summaries=summaries, stats=stats)
    stats["findings"] = len(result.findings)

    if rt is not None and rt.metrics.enabled:
        m = rt.metrics
        m.inc("analysis.functions", stats["functions"])
        m.inc("analysis.call_edges", stats["call_edges"])
        m.inc("analysis.unresolved_calls", stats["unresolved_calls"])
        m.inc("analysis.sccs", stats["sccs"])
        m.inc("analysis.waves", stats["waves"])
        m.inc("analysis.scc_rounds", stats["rounds"])
        m.inc("analysis.findings", stats["findings"])
        m.inc("analysis.pool_units", stats["pool_units"])
        m.inc("analysis.pool_fallback", stats["pool_fallback"])
        for f in result.findings:
            m.inc(f"analysis.findings.{f['rule']}")
    return result
