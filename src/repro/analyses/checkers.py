"""Interprocedural checkers: summary-based clients of the dataflow core.

Each checker is a small bottom-up interprocedural analysis driven by
:mod:`repro.analyses.interproc`: it computes a per-function *summary*
(what a caller needs to know about a callee) and reports the findings
of the fixpoint round that saw the final summaries.  Summaries form
a join-semilattice with a commutative, associative, idempotent
:meth:`Checker.join`, so the fixpoint — and therefore the findings —
is independent of evaluation schedule: the property the differential
battery pins byte-for-byte across backends.

The synthetic ABI the checkers assume (documented in
``docs/ANALYSES.md``):

- ``R0`` is the return value, ``R1``–``R3`` are arguments (defined at
  entry);
- ``R0``–``R7`` are caller-saved (``CALL``/``ICALL`` clobber them —
  the ISA's ``regs_written`` says so);
- ``R8``–``R15`` are scratch (no cross-call contract);
- ``FP`` is callee-saved, preserved via ``ENTER``/``LEAVE``;
- functions return with zero net stack displacement.

Four checkers:

- ``callee-saved`` — forward may-analysis of callee-saved registers
  clobbered without a save/restore pair, with transitive may-clobber
  call summaries;
- ``uninit-reg``   — forward must-defined analysis; a read of
  ``R0``–``R7`` that is not definitely assigned (entry args, local
  writes, or the callee's must-defined-at-return summary) is flagged;
- ``stack-balance`` — interprocedural stack-height analysis (callee
  net-delta summaries); a return at definite nonzero height is flagged;
- ``jt-bounds``    — verification of decoded jump tables: unresolved
  bases, unrecoverable bound checks, out-of-function targets, entries
  trimmed by overlap finalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.analyses.dataflow import (
    DataflowProblem,
    DataflowResult,
    Direction,
    solve_dataflow,
)
from repro.core.cfg import Block, Function, JumpTableInfo
from repro.isa.instructions import Opcode
from repro.isa.registers import Reg

#: Unknown / conflicting stack height (shared with stack_height.TOP).
TOP = "top"

_GP_MASK = (1 << 16) - 1                       # R0..R15
_CALLER_SAVED = (1 << 8) - 1                   # R0..R7
_ARG_MASK = (1 << Reg.R1) | (1 << Reg.R2) | (1 << Reg.R3)
_R0_BIT = 1 << Reg.R0
_FP_BIT = 1 << Reg.FP


def _mask_of(regs) -> int:
    m = 0
    for r in regs:
        m |= 1 << int(r)
    return m


def _regs_in(mask: int) -> list[Reg]:
    return [Reg(i) for i in range(19) if mask & (1 << i)]


@dataclass(frozen=True)
class FuncView:
    """What a checker sees of one function (schedule-independent)."""

    func: Function
    entry: int
    name: str
    jump_tables: tuple[JumpTableInfo, ...]
    #: block start -> tail-call target entry (None if unresolvable).
    tailcalls: dict[int, int | None]


#: ``getsumm(callee_entry_or_None) -> summary`` — resolves a call
#: target to the current summary, falling back to the checker's
#: conservative ABI default for unknown targets.
SummaryLookup = Callable[[int | None], Any]


class Checker:
    """One interprocedural analysis client."""

    #: stable identifier; also the finding rule name.
    name: str = "?"

    def bottom(self) -> Any:
        """Optimistic initial summary for the SCC fixpoint."""
        raise NotImplementedError

    def unknown(self) -> Any:
        """Conservative summary for an unresolvable callee (ABI)."""
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        """Order-independent summary join (commutative, associative)."""
        raise NotImplementedError

    def analyze(self, view: FuncView, getsumm: SummaryLookup
                ) -> tuple[Any, list[dict]]:
        """Analyze one function; return (summary, raw findings).

        Raw findings are ``{"rule", "address", "detail"}`` — the
        scheduler adds binary/function attribution.
        """
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------

    @staticmethod
    def _call_target(block: Block) -> int | None:
        """Direct-call target of the block's final CALL, else None."""
        last = block.insns[-1] if block.insns else None
        if last is not None and last.opcode is Opcode.CALL:
            return last.direct_target
        return None

    @staticmethod
    def _exit_kind(view: FuncView, block: Block) -> str | None:
        """"ret" / "tailcall" when the block leaves the function."""
        if block.insns and block.insns[-1].is_ret:
            return "ret"
        if block.start in view.tailcalls:
            return "tailcall"
        return None


class CalleeSavedChecker(Checker):
    """Callee-saved-register discipline (default set: ``{FP}``).

    Forward analysis of the *dirty* set — checked registers written
    without a prior save on some path — paired with the *saved* set
    (must-saved on all paths).  ``ENTER`` saves FP, ``LEAVE`` restores
    it; ``PUSH r``/``POP r`` save/restore any checked register.  A call
    adds the callee's may-clobber summary minus the saved set; the
    summary is the union of dirty sets over all exits, so clobbers
    propagate transitively up the call graph.
    """

    name = "callee-saved"

    def __init__(self, checked=(Reg.FP,)):
        self.checked = _mask_of(checked)

    def bottom(self) -> int:
        return 0

    def unknown(self) -> int:
        return 0  # ABI: unknown callees preserve callee-saved registers

    def join(self, a: int, b: int) -> int:
        return a | b

    def _meet(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return (a[0] | b[0], a[1] & b[1])

    def _transfer(self, block: Block, fact, getsumm: SummaryLookup):
        if fact is None:
            return None
        dirty, saved = fact
        for insn in block.insns:
            op = insn.opcode
            if op is Opcode.ENTER:
                saved |= _FP_BIT
            elif op is Opcode.LEAVE:
                dirty &= ~_FP_BIT
            elif op is Opcode.PUSH:
                saved |= (1 << insn.operands[0]) & self.checked
            elif op is Opcode.POP:
                dirty &= ~((1 << insn.operands[0]) & self.checked)
            elif op is Opcode.CALL:
                clobber = getsumm(insn.direct_target) & self.checked
                dirty |= clobber & ~saved
            elif op is Opcode.ICALL:
                clobber = self.unknown() & self.checked
                dirty |= clobber & ~saved
            else:
                dirty |= insn.def_mask() & self.checked & ~saved
        return (dirty, saved)

    def _solve(self, view: FuncView,
               getsumm: SummaryLookup) -> DataflowResult:
        problem = DataflowProblem(
            direction=Direction.FORWARD, boundary=(0, 0), init=None,
            meet=self._meet,
            transfer=lambda b, f: self._transfer(b, f, getsumm))
        return solve_dataflow(view.func, problem)

    def _exit_dirty(self, view: FuncView, block: Block, fact,
                    getsumm: SummaryLookup) -> int:
        dirty, saved = fact
        target = view.tailcalls.get(block.start)
        if self._exit_kind(view, block) == "tailcall":
            clobber = getsumm(target) & self.checked
            dirty |= clobber & ~saved
        return dirty

    def analyze(self, view: FuncView, getsumm: SummaryLookup
                ) -> tuple[int, list[dict]]:
        res = self._solve(view, getsumm)
        summary = 0
        findings: list[dict] = []
        for block in view.func.blocks:
            if block.is_empty:
                continue
            kind = self._exit_kind(view, block)
            if kind is None:
                continue
            fact = res.out_facts.get(block.start)
            if fact is None:
                continue  # unreachable exit
            dirty = self._exit_dirty(view, block, fact, getsumm)
            summary |= dirty
            addr = block.insns[-1].address if block.insns else block.start
            for reg in _regs_in(dirty):
                findings.append({
                    "rule": self.name, "address": addr,
                    "detail": f"callee-saved {reg.name} clobbered "
                              f"without restore on a {kind} path"})
        return summary, findings


class UninitRegChecker(Checker):
    """Use of a maybe-uninitialized register (``R0``–``R7``).

    Forward must-defined analysis over bit vectors: entry defines the
    argument registers ``R1``–``R3``; a call replaces the caller-saved
    half with the callee's must-defined-at-return summary (unknown
    callees define only ``R0``); scratch registers ``R8``–``R15``
    survive calls but are never assumed defined at entry — reads of
    them are not checked (no ABI contract).  A read of a checked
    register outside the must-defined set is flagged.
    """

    name = "uninit-reg"

    _FULL = _GP_MASK
    _CHECKED_READS = _CALLER_SAVED

    def bottom(self) -> int:
        return self._FULL  # optimistic top of the must-lattice

    def unknown(self) -> int:
        return _R0_BIT  # ABI: an unknown callee defines its return value

    def join(self, a: int, b: int) -> int:
        return a & b

    def _step(self, insn, defined: int, getsumm: SummaryLookup) -> int:
        op = insn.opcode
        if op is Opcode.CALL:
            summ = getsumm(insn.direct_target)
            return (defined & ~_CALLER_SAVED) | (summ & _CALLER_SAVED)
        if op is Opcode.ICALL:
            return (defined & ~_CALLER_SAVED) | _R0_BIT
        return defined | (insn.def_mask() & _GP_MASK)

    def _transfer(self, block: Block, fact, getsumm: SummaryLookup):
        if fact is None:
            return None
        defined = fact
        for insn in block.insns:
            defined = self._step(insn, defined, getsumm)
        return defined

    def analyze(self, view: FuncView, getsumm: SummaryLookup
                ) -> tuple[int, list[dict]]:
        problem = DataflowProblem(
            direction=Direction.FORWARD, boundary=_ARG_MASK, init=None,
            meet=lambda a, b: b if a is None else (
                a if b is None else a & b),
            transfer=lambda b, f: self._transfer(b, f, getsumm))
        res = solve_dataflow(view.func, problem)

        summary = self._FULL
        have_ret = False
        findings: list[dict] = []
        for block in view.func.blocks:
            if block.is_empty:
                continue
            defined = res.in_facts.get(block.start)
            if defined is None:
                continue  # unreachable
            for insn in block.insns:
                if not insn.is_ret:  # RET's R0/SP reads are ABI formalities
                    undef = (insn.use_mask() & self._CHECKED_READS
                             & ~defined)
                    if undef:
                        for reg in _regs_in(undef):
                            findings.append({
                                "rule": self.name,
                                "address": insn.address,
                                "detail": f"read of maybe-uninitialized "
                                          f"{reg.name}"})
                defined = self._step(insn, defined, getsumm)
            if block.insns and block.insns[-1].is_ret:
                summary &= defined
                have_ret = True
        if not have_ret:
            summary = self.bottom()  # no returns: summary never consumed
        return summary, findings


class StackBalanceChecker(Checker):
    """Interprocedural stack-height balance.

    Forward height analysis (entry height 0) where a call site adds the
    callee's net stack delta summary; ``LEAVE`` re-anchors the height
    to 0 (frame restore), conflicting heights meet to ``TOP``.  A
    return — or a tail call — at a *definite* nonzero height is
    flagged; ``TOP`` heights stay silent (unknown is not a finding).
    The summary is the join of heights at return exits.
    """

    name = "stack-balance"

    def bottom(self):
        return None  # join identity: no return path seen yet

    def unknown(self):
        return 0  # ABI: unknown callees are balanced

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a if a == b else TOP

    def _transfer(self, block: Block, h, getsumm: SummaryLookup):
        if h is None:
            return None
        for insn in block.insns:
            op = insn.opcode
            if op is Opcode.LEAVE:
                h = 0  # frame restored to call-time height
                continue
            if h == TOP:
                continue
            if op is Opcode.CALL:
                # Equality, not identity: callee summaries may have
                # crossed a process boundary, so the TOP sentinel can
                # be an unpickled copy of the module constant.
                d = getsumm(insn.direct_target)
                h = TOP if d == TOP else (h if d is None else h + d)
                continue
            if op is Opcode.ICALL:
                d = self.unknown()
                h = TOP if d == TOP else h + d
                continue
            d = insn.sp_delta()
            h = TOP if d is None else h + d
        return h

    def analyze(self, view: FuncView, getsumm: SummaryLookup
                ) -> tuple[Any, list[dict]]:
        problem = DataflowProblem(
            direction=Direction.FORWARD, boundary=0, init=None,
            meet=lambda a, b: b if a is None else (
                a if b is None else (a if a == b else TOP)),
            transfer=lambda b, f: self._transfer(b, f, getsumm))
        res = solve_dataflow(view.func, problem)

        summary = self.bottom()
        findings: list[dict] = []
        for block in view.func.blocks:
            if block.is_empty:
                continue
            kind = self._exit_kind(view, block)
            if kind is None:
                continue
            h = res.out_facts.get(block.start)
            if h is None:
                continue  # unreachable exit
            if kind == "ret":
                summary = self.join(summary, h)
            if h != TOP and h != 0:
                addr = (block.insns[-1].address if block.insns
                        else block.start)
                what = ("returns" if kind == "ret" else "tail-calls")
                findings.append({
                    "rule": self.name, "address": addr,
                    "detail": f"{what} at stack height {h:+d} "
                              f"(expected 0)"})
        return summary, findings


class JumpTableBoundsChecker(Checker):
    """Verification of decoded jump tables against the function body.

    No dataflow: the parser already attached a
    :class:`~repro.core.cfg.JumpTableInfo` per indirect jump.  Flags
    unresolved table bases, dispatches with no recoverable bound check
    (the over-approximation trap), targets that land outside the
    owning function, and entries trimmed by overlap finalization.
    """

    name = "jt-bounds"

    def bottom(self):
        return None

    def unknown(self):
        return None

    def join(self, a, b):
        return None

    def analyze(self, view: FuncView, getsumm: SummaryLookup
                ) -> tuple[None, list[dict]]:
        member = {b.start for b in view.func.blocks if not b.is_empty}
        findings: list[dict] = []
        for jt in view.jump_tables:
            if jt.table_addr is None:
                findings.append({
                    "rule": self.name, "address": jt.block_start,
                    "detail": "indirect jump with unresolved table "
                              "base"})
                continue
            where = f"table@{jt.table_addr:#x}"
            if not jt.bounded:
                findings.append({
                    "rule": self.name, "address": jt.block_start,
                    "detail": f"{where}: no recoverable bound check "
                              f"({jt.n_entries} entries scanned)"})
            outside = sorted(t for t in jt.targets if t not in member)
            if outside:
                findings.append({
                    "rule": self.name, "address": jt.block_start,
                    "detail": f"{where}: {len(outside)} target(s) "
                              f"outside the function (first "
                              f"{outside[0]:#x})"})
            if jt.trimmed:
                findings.append({
                    "rule": self.name, "address": jt.block_start,
                    "detail": f"{where}: {jt.trimmed} entries trimmed "
                              f"by overlap finalization"})
        return None, findings


#: Checker registry (sorted names = canonical check order).
_CHECKER_FACTORIES: dict[str, Callable[[], Checker]] = {
    CalleeSavedChecker.name: CalleeSavedChecker,
    JumpTableBoundsChecker.name: JumpTableBoundsChecker,
    StackBalanceChecker.name: StackBalanceChecker,
    UninitRegChecker.name: UninitRegChecker,
}

ALL_CHECKS: tuple[str, ...] = tuple(sorted(_CHECKER_FACTORIES))


def make_checker(name: str) -> Checker:
    """Instantiate a registered checker by name."""
    try:
        return _CHECKER_FACTORIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown check {name!r}; choose from "
            f"{', '.join(ALL_CHECKS)}") from None


def resolve_checks(spec: str | list[str] | tuple[str, ...] | None
                   ) -> tuple[str, ...]:
    """Normalize a check selection ('all', comma list, or sequence)."""
    if spec is None or spec == "all":
        return ALL_CHECKS
    names = ([s.strip() for s in spec.split(",") if s.strip()]
             if isinstance(spec, str) else list(spec))
    for n in names:
        if n not in _CHECKER_FACTORIES:
            raise ValueError(
                f"unknown check {n!r}; choose from "
                f"{', '.join(ALL_CHECKS)}")
    return tuple(sorted(set(names)))
