"""Structural merge of per-shard CFG fragments (procs backend).

The procs backend shards the entry set across worker processes; each
worker runs the ordinary parallel parser in *fragment mode*
(:meth:`~repro.core.parallel_parser.ParallelParser.execute_fragment`):
it owns a contiguous address range ``[lo, hi)``, parses its closure
normally inside that range, and defers every cross-shard expansion step
as a flat :class:`~repro.core.parallel_parser.FrontierRecord` instead of
executing it.  This module is the coordinator side:

1. **Rebuild** each fragment's block/edge graph from its flat pickled
   records (instructions come from the merged decode cache, so no object
   graph crosses the process boundary).
2. **Install** the union into a fresh :class:`ParallelParser`'s maps.
   Shard ownership makes block starts, functions, jump tables and
   noreturn records disjoint by construction; block *ends* are the one
   place shards can disagree (linear overrun past a boundary), so every
   imported end is re-registered through the parser's real invariant-4
   split cascade (``_split_collision``), which reconciles the fragments
   to the serial block set.
3. **Replay** the frontier records through the real parser machinery —
   tail-call classification, function creation, noreturn deferral and
   jump-table analysis all run exactly as in a serial parse, just
   starting from the merged state.  Replay runs once, after the last
   fragment is installed (a record may target any shard's region), in
   shard order and within a shard in discovery order.
4. Run the ordinary wave fixed point (including the cycle rule the
   fragments had to skip) and the same ``finalize`` correction phase
   every backend runs.

Steps 1–2 run *incrementally*: :class:`StreamingMerge` installs each
fragment the moment its delta lands, overlapping install work with the
still-running fan-out; :func:`merge_fragments` is the batch wrapper the
inline/degraded paths use (same code path, installs in shard order).

Correctness rests on the battery-proven schedule independence of the
invariant machinery: a fragment is a prefix of a valid global schedule
(all its steps touch only addresses it owns), so completing the union of
prefixes with the remaining cross-shard work through the same machinery
reproduces the serial fixed point byte-for-byte — the differential
battery (``tests/test_differential_backends.py``) pins exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.binary.loader import LoadedBinary
from repro.core.cfg import (
    Block,
    Edge,
    EdgeType,
    Function,
    JumpTableInfo,
    ParsedCFG,
    ReturnStatus,
)
from repro.core.finalize import finalize
from repro.core.noreturn import DeferredCallSite
from repro.core.parallel_parser import (
    FrontierRecord,
    ParallelParser,
    ParseOptions,
    _TaskCtx,
)
from repro.errors import RuntimeConfigError
from repro.isa.instructions import Instruction
from repro.runtime.api import Runtime


@dataclass
class CFGFragment:
    """Pickle-friendly structural export of one shard's fragment parse.

    Everything is flat ints/strings/enums — no :class:`Block`/:class:`Edge`
    object graph crosses the process boundary (deep linked graphs recurse
    past pickle limits, and the coordinator rebuilds instructions from the
    merged decode cache anyway).
    """

    shard_id: int
    owned: tuple[int, int]
    #: (start, end, last_kind, has_teardown) per block
    blocks: list[tuple] = field(default_factory=list)
    #: the shard's block-ends map as (end_addr, block_start)
    ends: list[tuple[int, int]] = field(default_factory=list)
    #: (src_start, dst_start, etype value) in per-block creation order
    edges: list[tuple[int, int, str]] = field(default_factory=list)
    #: (addr, name, entry_start, from_symtab, discovered_via, status value)
    functions: list[tuple] = field(default_factory=list)
    jump_tables: list[JumpTableInfo] = field(default_factory=list)
    #: noreturn table: (addr, status value,
    #:   [(caller, block_start, fallthrough, callee)], [tail_waiters])
    noreturn: list[tuple] = field(default_factory=list)
    #: deferred cross-shard operations, in discovery order
    frontier: list[FrontierRecord] = field(default_factory=list)
    #: func addr -> reached block starts (frontier replay task seeds)
    reached: dict[int, list[int]] = field(default_factory=dict)
    n_splits: int = 0
    #: 1-based shard attempt this fragment came from.  The retry ladder
    #: can hand the merge duplicate fragments for one shard (a timed-out
    #: attempt whose delta straggles in next to its retry's); the merge
    #: keeps the highest attempt per shard and drops the rest.
    attempt: int = 1


def export_fragment(parser: ParallelParser, shard_id: int,
                    attempt: int = 1) -> CFGFragment:
    """Flatten a fragment-mode parser's state for shipping home."""
    assert parser._owned is not None, "export requires fragment mode"
    frag = CFGFragment(shard_id=shard_id, owned=parser._owned,
                       attempt=attempt)
    for start, b in parser.blocks_by_start.sorted_items():
        frag.blocks.append((b.start, b.end, b.last_kind, b.has_teardown))
        for e in b.out_edges:
            frag.edges.append((e.src.start, e.dst.start, e.etype.value))
    frag.ends = [(end, b.start)
                 for end, b in parser.block_ends.sorted_items()]
    frag.functions = [
        (f.addr, f.name, f.entry.start, f.from_symtab, f.discovered_via,
         f.status.value)
        for _, f in parser.functions.sorted_items()
    ]
    frag.jump_tables = [info
                        for _, info in parser.jump_tables.sorted_items()]
    frag.noreturn = [
        (addr, status.value,
         [(s.caller_addr, s.block.start, s.fallthrough, s.callee_addr)
          for s in waiters],
         list(tail_waiters))
        for addr, status, waiters, tail_waiters
        in parser.noreturn.dump_state()
    ]
    frag.frontier = list(parser._frontier)
    reached: dict[int, set[int]] = {}
    for ctx in parser._frontier_ctxs:
        if ctx is not None:
            reached.setdefault(ctx.func.addr, set()).update(ctx.reached)
    frag.reached = {addr: sorted(starts)
                    for addr, starts in reached.items()}
    frag.n_splits = parser.stats.n_splits
    return frag


class StreamingMerge:
    """Incremental coordinator: fold fragments in as they arrive.

    The batch merge waits for every shard before touching the graph; a
    streaming coordinator starts step 2 (rebuild + install) the moment
    the first :class:`ShardDelta` lands, overlapping merge work with
    the still-running fan-out.  The procs backend feeds
    :meth:`accept` from its dispatch loop; :meth:`finish` runs the
    parts that genuinely need *all* fragments — the frontier replay
    (a record can target any foreign shard's blocks), the wave fixed
    point and finalization.

    Per-fragment installation is order-independent: ownership claims
    make block starts, functions, jump tables and noreturn records
    shard-disjoint; map installs are insert-only; and cross-shard end
    collisions go through the invariant-4 cascade, whose outcome is
    schedule-independent (battery-proven).  So installing fragments in
    arrival order equals installing them in shard order.

    Must be used inside ``rt.run`` on the coordinator runtime.  One
    fragment per shard: a duplicate (the retry ladder's straggler case)
    is skipped — callers that can see both attempts dedup first, as
    :func:`merge_fragments` does.
    """

    def __init__(self, binary: LoadedBinary, rt: Runtime,
                 options: ParseOptions | None = None):
        self.binary = binary
        self.rt = rt
        self.opts = replace(options or ParseOptions(),
                            thread_local_cache=True)
        #: merged decode cache; grows as deltas arrive.  The parser
        #: holds this same dict, so later updates are visible to it.
        self.warm: dict[int, Instruction] = {}
        #: every installed block by start (cross-fragment ownership guard)
        self.blocks: dict[int, Block] = {}
        self._parser: ParallelParser | None = None
        #: installed fragments by shard id
        self._frags: dict[int, CFGFragment] = {}

    @property
    def parser(self) -> ParallelParser:
        """The merged-state parser (created on first use).

        Lazy because the parser treats an empty warm cache as "no warm
        cache" — constructing it after the first delta's instructions
        land keeps the shared ``warm`` dict wired in.
        """
        if self._parser is None:
            self._parser = ParallelParser(self.binary, self.rt, self.opts,
                                          warm_cache=self.warm)
        return self._parser

    def accept(self, fragment: CFGFragment,
               insns: dict[int, Instruction] | None = None,
               streamed: bool = False) -> bool:
        """Install one shard's fragment into the merged graph.

        ``insns`` is the shard's decode cache (merged into the warm
        cache before the rebuild resolves instructions from it);
        ``streamed`` marks an install that overlapped the fan-out, for
        the ``procs.overlap.*`` metrics.  Returns False (and installs
        nothing) for a shard that already has a fragment installed.
        """
        if fragment.shard_id in self._frags:
            return False
        if insns:
            self.warm.update(insns)
        rt = self.rt
        m = rt.metrics
        parser = self.parser
        with rt.phase("cfg_merge"):
            t0 = time.perf_counter_ns()  # sanity: allow(wall-clock) coordinator-side metric
            n_edges = _rebuild_fragment_graph(fragment, self.warm,
                                              self.blocks)
            added = sorted((b[0], self.blocks[b[0]])
                           for b in fragment.blocks)
            parser.blocks_by_start.install_many(added)

            funcs: dict[int, Function] = {}
            for addr, name, entry_start, from_symtab, via, status \
                    in fragment.functions:
                func = Function(addr, name, self.blocks[entry_start],
                                from_symtab=from_symtab,
                                discovered_via=via)
                func.status = ReturnStatus(status)
                funcs[addr] = func
            parser.functions.install_many(sorted(funcs.items()))

            parser.jump_tables.install_many(sorted(
                (info.block_start, info)
                for info in fragment.jump_tables))

            for addr, status, waiters, tails in fragment.noreturn:
                sites = [DeferredCallSite(caller_addr=c,
                                          block=self.blocks[bs],
                                          fallthrough=ft, callee_addr=ce)
                         for c, bs, ft, ce in waiters]
                parser.noreturn.seed_state(addr, ReturnStatus(status),
                                           sites, tails)

            # Cross-shard block-end reconciliation: re-register every
            # imported end through the real invariant-4 cascade.  Where
            # shards disagree (one shard's linear overrun straddles
            # another's blocks), the cascade splits exactly as
            # concurrent registration would have.
            splits_before = parser.stats.n_splits
            for end_addr, bstart in fragment.ends:
                _install_end(parser, self.blocks[bstart], end_addr)
            end_splits = parser.stats.n_splits - splits_before
            parser.stats.n_splits += fragment.n_splits
            if m.enabled:
                wall = time.perf_counter_ns() - t0  # sanity: allow(wall-clock) coordinator-side metric
                m.inc("procs.merge.blocks", len(added))
                m.inc("procs.merge.edges", n_edges)
                m.inc("procs.merge.functions", len(funcs))
                m.inc("procs.merge.end_splits", end_splits)
                m.observe("procs.phase.install_wall_ns", wall)
                if streamed:
                    m.inc("procs.overlap.fragments")
                    m.observe("procs.overlap.install_wall_ns", wall)
                else:
                    m.inc("procs.overlap.batch_fragments")
        self._frags[fragment.shard_id] = fragment
        return True

    def finish(self) -> ParsedCFG:
        """Complete the parse: frontier replay, waves, finalization.

        Only callable once every shard's fragment has been accepted —
        a frontier record may target any other shard's region, so the
        replay needs the whole merged graph.
        """
        rt = self.rt
        m = rt.metrics
        parser = self.parser

        if getattr(parser, "op_trace", None) is not None:
            # Debug hook: the merged-from-shards graph must satisfy the
            # structural invariants before the frontier replay extends it.
            from repro.sanity.cfgsan import run_cfgsan
            run_cfgsan(parser, "shard-merge")

        with rt.phase("cfg_frontier"):
            t1 = time.perf_counter_ns()  # sanity: allow(wall-clock) coordinator-side metric
            n = self._replay_frontier()
            if m.enabled:
                m.inc("procs.frontier.records", n)
                m.observe("procs.phase.frontier_wall_ns",
                          time.perf_counter_ns() - t1)  # sanity: allow(wall-clock) coordinator-side metric

        with rt.phase("cfg_wave"):
            t2 = time.perf_counter_ns()  # sanity: allow(wall-clock) coordinator-side metric
            parser._noreturn_waves()
            if m.enabled:
                m.observe("procs.phase.wave_wall_ns",
                          time.perf_counter_ns() - t2)  # sanity: allow(wall-clock) coordinator-side metric

        with rt.phase("cfg_finalize"):
            t3 = time.perf_counter_ns()  # sanity: allow(wall-clock) coordinator-side metric
            cfg = finalize(parser)
            if m.enabled:
                m.observe("procs.phase.finalize_wall_ns",
                          time.perf_counter_ns() - t3)  # sanity: allow(wall-clock) coordinator-side metric
        return cfg

    # ------------------------------------------------------ frontier replay

    def _replay_frontier(self) -> int:
        """Replay every shard's deferred cross-shard steps; returns the
        number of records replayed.

        Shards replay in shard order, each in its discovery order.  Tasks
        the replay discovers spawn into the shared group (or round
        queue) exactly as in a live parse, and the replay quiesces before
        returning.
        """
        parser = self.parser
        rt = parser.rt
        group = rt.task_group() if parser.opts.task_parallel else None
        parser._group = group
        try:
            for sid in sorted(self._frags):
                self._replay_shard(self._frags[sid])
            if group is not None:
                group.wait()
            else:
                current = parser._round_discovered
                while current:
                    parser._round_discovered = []
                    rt.parallel_for(
                        current,
                        lambda fs: parser._traverse_task(fs[0], fs[1]))
                    current = parser._round_discovered
        finally:
            parser._group = None
        return sum(len(f.frontier) for f in self._frags.values())

    def _replay_shard(self, frag: CFGFragment) -> None:
        """Replay one shard's frontier records, in discovery order.

        One coordinator task context per function: seeded with the shard
        task's final reached set, so tail-call classification and
        shared-region scans observe at least what the shard task had.
        The source block of each record is the *current* owner of the
        end address registered at record time — splits during the merge
        or earlier replays move edges to the owner, exactly as in a live
        parse.
        """
        parser = self.parser
        blocks = self.blocks
        warm = self.warm
        ctxs: dict[int, _TaskCtx] = {}
        for rec in frag.frontier:
            if rec.kind == "resume":
                c, bs, ft, ce = rec.site
                parser._resume_call_ft(DeferredCallSite(
                    caller_addr=c, block=blocks[bs],
                    fallthrough=ft, callee_addr=ce))
                continue
            ctx = ctxs.get(rec.func_addr)
            if ctx is None:
                func = parser.functions.get(rec.func_addr)
                assert func is not None, (
                    f"frontier record for unknown function "
                    f"{rec.func_addr:#x}")
                ctx = _TaskCtx(func=func)
                ctx.reached.update(frag.reached.get(rec.func_addr, ()))
                ctx.reached.add(rec.func_addr)
                ctxs[rec.func_addr] = ctx
            if rec.kind == "end":
                parser._register_end(ctx, blocks[rec.block_start],
                                     rec.end_addr, warm[rec.last_addr])
            else:
                src = parser.block_ends.get(rec.end_addr)
                if src is None:
                    src = blocks[rec.block_start]
                if rec.kind == "direct":
                    parser._direct_branch(ctx, src, rec.target)
                elif rec.kind == "cond":
                    parser._cond_branch(ctx, src, warm[rec.last_addr])
                elif rec.kind == "call":
                    parser._call(ctx, src, warm[rec.last_addr])
                else:  # intra
                    parser._add_intra_target(ctx, src, rec.target,
                                             EdgeType(rec.etype))
            parser._drain(ctx)


def merge_fragments(binary: LoadedBinary, rt: Runtime,
                    options: ParseOptions | None,
                    fragments: list[CFGFragment],
                    warm_cache: dict[int, Instruction]) -> ParsedCFG:
    """Stitch shard fragments into the serial fixed point (batch form).

    The thin non-streaming wrapper over :class:`StreamingMerge`: dedup
    duplicate-attempt fragments from the retry ladder (highest attempt
    wins — the one the coordinator actually validated last), install
    them all, finish.  Must be called inside ``rt.run`` on the
    coordinator runtime.
    """
    merge = StreamingMerge(binary, rt, options)
    merge.warm.update(warm_cache)
    m = rt.metrics
    by_shard: dict[int, CFGFragment] = {}
    for f in fragments:
        cur = by_shard.get(f.shard_id)
        if cur is None or f.attempt > cur.attempt:
            by_shard[f.shard_id] = f
    if m.enabled and len(by_shard) != len(fragments):
        m.inc("procs.merge.duplicate_fragments",
              len(fragments) - len(by_shard))
    for sid in sorted(by_shard):
        merge.accept(by_shard[sid])
    return merge.finish()


def _rebuild_fragment_graph(frag: CFGFragment,
                            insns: dict[int, Instruction],
                            blocks: dict[int, Block]) -> int:
    """Rebuild one fragment's blocks and intra-fragment edges.

    Instructions are resolved from the merged decode cache (complete: a
    worker's cache covers every block it exported, including bytes later
    truncated away by splits).  Returns the number of edges rebuilt.
    """
    for start, end, last_kind, has_teardown in frag.blocks:
        if start in blocks:
            raise RuntimeConfigError(
                f"shard ownership violated: block {start:#x} exported by "
                f"shard {frag.shard_id} and an earlier shard")
        b = Block(start)
        b.end = end
        b.last_kind = last_kind
        b.has_teardown = has_teardown
        if end is not None and end > start:
            addr = start
            seq = []
            while addr < end:
                insn = insns.get(addr)
                if insn is None:
                    break
                seq.append(insn)
                addr = insn.end
            b.insns = seq
        blocks[start] = b
    for src, dst, etype in frag.edges:
        edge = Edge(blocks[src], blocks[dst], EdgeType(etype))
        blocks[src].out_edges.append(edge)
        blocks[dst].in_edges.append(edge)
    return len(frag.edges)


def _install_end(parser: ParallelParser, block: Block, end: int) -> None:
    """Register an imported block end, cascading splits on collision.

    Mirrors ``_register_end``'s loop minus edge creation (the owning
    shard already created this end's edges; losers in the cascade carry
    theirs along exactly as invariant 4 moves them).
    """
    pending: tuple[Block, int] | None = (block, end)
    while pending is not None:
        blk, e = pending
        pending = None
        with parser.block_ends.accessor(e) as acc:
            if acc.created:
                acc.value = blk
                blk.end = e
                continue
            if acc.value is blk:
                continue
            nxt_blk, nxt_end, _ = parser._split_collision(blk, e, acc)
            pending = (nxt_blk, nxt_end)


