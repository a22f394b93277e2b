"""Unit tests for the fragment export / structural merge pipeline.

The differential battery proves end-to-end equality through
``ProcsRuntime``; these tests drive the pieces directly so failures
localize: fragment parses at a *chosen* ownership boundary, the
cross-shard block-end reconciliation, frontier bookkeeping, the
ownership-violation guard and pickle-safety of the shipped records.
"""

import pickle

import pytest

from repro.core import parse_binary
from repro.core.parallel_parser import ParseOptions
from repro.core.shard_merge import (
    CFGFragment,
    StreamingMerge,
    _rebuild_fragment_graph,
    merge_fragments,
)
from repro.errors import RuntimeConfigError
from repro.runtime import SerialRuntime
from repro.runtime.procs import (
    ADDRESS_CEILING,
    ProcsRuntime,
    ShardTask,
    _run_shard,
)
from repro.synth import tiny_binary


def _shard_deltas(sb, boundary):
    """Two fragment parses with the ownership claim cut at ``boundary``
    (entries split by claim membership); return (deltas, warm cache)."""
    entries = sorted(sb.binary.entry_addresses())
    seeds = [tuple(a for a in entries if a < boundary),
             tuple(a for a in entries if a >= boundary)]
    assert seeds[0] and seeds[1], "boundary must be interior"
    tasks = [ShardTask(0, seeds[0], 0, boundary),
             ShardTask(1, seeds[1], boundary, ADDRESS_CEILING)]
    deltas = [_run_shard(sb.binary, ParseOptions(), t, enable_metrics=True)
              for t in tasks]
    warm = {}
    for d in deltas:
        warm.update(d.insns)
    return deltas, warm


def _fragment_parse(sb, boundary):
    """Run a two-shard fragment parse and the batch merge; return
    (merged ParsedCFG, coordinator runtime, fragments)."""
    deltas, warm = _shard_deltas(sb, boundary)
    rt = SerialRuntime(enable_metrics=True)
    cfg = rt.run(lambda: merge_fragments(
        sb.binary, rt, ParseOptions(), [d.fragment for d in deltas], warm))
    return cfg, rt, [d.fragment for d in deltas]


# A corpus whose dense call/branch clusters guarantee cross-shard
# frontier traffic at interior boundaries (same profile the battery's
# "cross-shard-splits" program uses).
_SB = tiny_binary(seed=47, n_functions=24, n_shared_error_groups=4,
                  shared_group_size=6, pct_error_call=0.25,
                  pct_tail_call=0.20, pct_switch=0.20)
_SERIAL_SIG = parse_binary(_SB.binary, SerialRuntime()).signature()


class TestBoundaryReconciliation:
    def test_every_interior_boundary_merges_to_serial(self):
        """Shards ending the same region differently must reconcile to
        the serial block set — at *every* entry-aligned boundary (the
        splits :func:`shard_regions` can actually produce)."""
        entries = sorted(_SB.binary.entry_addresses())
        saw_frontier = False
        for boundary in entries[1:]:
            cfg, rt, frags = _fragment_parse(_SB, boundary)
            assert cfg.signature() == _SERIAL_SIG, (
                f"boundary {boundary:#x} diverged")
            saw_frontier |= any(f.frontier for f in frags)
        # The corpus is engineered so the boundaries actually cut
        # cross-shard edges; if none did, this test proved nothing.
        assert saw_frontier

    def test_mid_function_boundary_forces_overrun_and_reconverges(self):
        """A claim cut *inside* a function body makes shard 0's linear
        parse overrun its claim.  The overrunning shard must not
        register the foreign block end itself (only the owner of the CF
        instruction's address does — else the merge would double the
        edge multiset); the deferred "end" record replays it, and the
        merged CFG still equals serial."""
        entries = sorted(_SB.binary.entry_addresses())
        kinds = set()
        for k in range(1, len(entries) - 1):
            boundary = entries[k] + 4  # one insn into function k's body
            cfg, rt, frags = _fragment_parse(_SB, boundary)
            assert cfg.signature() == _SERIAL_SIG, (
                f"mid-function boundary {boundary:#x} diverged")
            for f in frags:
                lo, hi = f.owned
                for start, _end, _lk, _td in f.blocks:
                    assert lo <= start < hi, "foreign block start exported"
                for rec in f.frontier:
                    kinds.add(rec.kind)
        # Linear overrun (kind "end") and ordinary cross-claim control
        # flow both fire somewhere in the sweep.
        assert "end" in kinds
        assert {"direct", "call"} & kinds

    def test_merge_metrics_recorded(self):
        entries = sorted(_SB.binary.entry_addresses())
        cfg, rt, frags = _fragment_parse(_SB, entries[len(entries) // 2])
        m = rt.metrics
        assert m.counter("procs.merge.blocks") == len(
            {b[0] for f in frags for b in f.blocks})
        assert m.counter("procs.merge.functions") >= len(entries)
        assert m.counter("procs.frontier.records") == sum(
            len(f.frontier) for f in frags)
        assert m.histogram("procs.phase.install_wall_ns") is not None


class TestFragmentTransport:
    def test_fragment_pickle_roundtrip(self):
        entries = sorted(_SB.binary.entry_addresses())
        _, _, frags = _fragment_parse(_SB, entries[3])
        for frag in frags:
            clone = pickle.loads(pickle.dumps(frag))
            assert clone.shard_id == frag.shard_id
            assert clone.owned == frag.owned
            assert clone.blocks == frag.blocks
            assert clone.edges == frag.edges
            assert clone.functions == frag.functions
            assert clone.frontier == frag.frontier
            assert clone.reached == frag.reached

    def test_duplicate_attempt_fragments_deduped_by_max_attempt(self):
        """The retry ladder can hand the merge two fragments for one
        shard (a timed-out attempt's delta straggling in next to its
        retry's).  The merge must keep the highest attempt per shard
        and still reproduce the serial fixed point."""
        entries = sorted(_SB.binary.entry_addresses())
        boundary = entries[len(entries) // 2]
        seeds = [tuple(a for a in entries if a < boundary),
                 tuple(a for a in entries if a >= boundary)]
        tasks = [ShardTask(0, seeds[0], 0, boundary),
                 ShardTask(1, seeds[1], boundary, ADDRESS_CEILING)]
        opts = ParseOptions()
        deltas = [_run_shard(_SB.binary, opts, t, enable_metrics=False,
                             attempt=a)
                  for t in tasks for a in (1, 2)]  # two attempts each
        warm = {}
        for d in deltas:
            warm.update(d.insns)
        rt = SerialRuntime(enable_metrics=True)
        cfg = rt.run(lambda: merge_fragments(
            _SB.binary, rt, opts, [d.fragment for d in deltas], warm))
        assert cfg.signature() == _SERIAL_SIG
        assert [d.fragment.attempt for d in deltas] == [1, 2, 1, 2]
        assert rt.metrics.counter("procs.merge.duplicate_fragments") == 2

    def test_duplicate_block_start_rejected(self):
        """Ownership means block starts are shard-disjoint; a violation
        is a bug upstream and must fail loudly, not merge quietly."""
        a = CFGFragment(shard_id=0, owned=(0, 100),
                        blocks=[(16, 20, "branch", False)])
        b = CFGFragment(shard_id=1, owned=(100, 200),
                        blocks=[(16, 24, "branch", False)])
        blocks = {}
        _rebuild_fragment_graph(a, {}, blocks)
        with pytest.raises(RuntimeConfigError, match="ownership violated"):
            _rebuild_fragment_graph(b, {}, blocks)


class TestStreamingMerge:
    def test_reverse_install_order_matches_serial(self):
        """Installation is order-independent: accepting the fragments in
        *reverse* shard order (the order a fast last shard can land in)
        still finishes at the serial fixed point, and the streaming
        merge observes its four coordinator phase timers."""
        entries = sorted(_SB.binary.entry_addresses())
        boundary = entries[len(entries) // 2]
        deltas, _ = _shard_deltas(_SB, boundary)
        assert any(d.fragment.frontier for d in deltas), (
            "corpus produced no frontier traffic")
        rt = SerialRuntime(enable_metrics=True)

        def run():
            sm = StreamingMerge(_SB.binary, rt, ParseOptions())
            for d in reversed(deltas):
                assert sm.accept(d.fragment, d.insns, streamed=True)
            return sm.finish()

        assert rt.run(run).signature() == _SERIAL_SIG
        m = rt.metrics
        assert m.counter("procs.overlap.fragments") == 2
        assert m.counter("procs.frontier.records") == sum(
            len(d.fragment.frontier) for d in deltas)
        for name in ("install", "frontier", "wave", "finalize"):
            assert m.histogram(
                f"procs.phase.{name}_wall_ns") is not None, name

    def test_procs_parse_observes_all_five_phase_timers(self):
        """The fan-out timer comes from the procs backend, the other
        four from the merge; every procs parse records all five."""
        rt = ProcsRuntime(2, in_process=True)
        assert parse_binary(_SB.binary, rt).signature() == _SERIAL_SIG
        for name in ("fanout", "install", "frontier", "wave", "finalize"):
            assert rt.metrics.histogram(
                f"procs.phase.{name}_wall_ns") is not None, name
