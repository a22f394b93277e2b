"""Instruction definitions for the synthetic ISA.

An :class:`Instruction` is an immutable record of a decoded machine
instruction: its address, opcode, operands and byte length.  Classification
helpers (``is_control_flow``, ``falls_through``, ``direct_target`` …) are what
CFG construction consumes; register def/use sets are what backward slicing
(jump-table analysis) consumes, and their bit-set twins (``def_mask``,
``use_mask``) are what liveness and the checkers consume.

Control-flow relevant opcodes mirror the constructs discussed in the paper:

- ``JMP``/``JCC`` — direct and conditional branches (``O_DEC``),
- ``CALL``/``ICALL`` — function calls (``O_DEC``, ``O_FEI``, ``O_CFEC``),
- ``IJMP`` — indirect jumps through jump tables (``O_IEC``),
- ``RET`` — returns (drives the non-returning function analysis),
- ``ENTER``/``LEAVE`` — stack frame setup/teardown (tail-call heuristics).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.registers import Reg


class Opcode(enum.IntEnum):
    """Opcodes of the synthetic ISA.

    The numeric values are the first byte of the encoded instruction.
    Byte values outside this enum do not decode (``InvalidInstructionError``),
    so stray data in ``.text`` terminates linear parsing as on real ISAs.
    """

    NOP = 0x01
    HALT = 0x02
    MOV_RI = 0x03   # rd <- imm32
    MOV_RR = 0x04   # rd <- rs
    ADD = 0x05      # rd <- rd + rs
    SUB = 0x06      # rd <- rd - rs
    MUL = 0x07      # rd <- rd * rs
    XOR = 0x08      # rd <- rd ^ rs
    AND = 0x09      # rd <- rd & rs
    OR = 0x0A       # rd <- rd | rs
    ADDI = 0x0B     # rd <- rd + simm32
    CMP_RI = 0x0C   # FLAGS <- compare(rs, imm32)
    CMP_RR = 0x0D   # FLAGS <- compare(rs1, rs2)
    LOAD = 0x0E     # rd <- mem[base + simm32]
    STORE = 0x0F    # mem[base + simm32] <- rs
    LOADIDX = 0x10  # rd <- mem[base + idx*8]   (jump-table load idiom)
    LEA = 0x11      # rd <- imm32               (materialize an address)
    PUSH = 0x12     # mem[--sp] <- rs
    POP = 0x13      # rd <- mem[sp++]
    ENTER = 0x14    # push fp; fp <- sp; sp -= imm16
    LEAVE = 0x15    # sp <- fp; pop fp
    JMP = 0x20      # goto addr32
    JCC = 0x21      # if cond(FLAGS) goto addr32, else fall through
    CALL = 0x22     # call addr32
    ICALL = 0x23    # call [rs]
    IJMP = 0x24     # goto [rs]
    RET = 0x25      # return


class Cond(enum.IntEnum):
    """Condition codes for ``JCC``."""

    EQ = 0
    NE = 1
    LT = 2
    LE = 3
    GT = 4
    GE = 5
    A = 6   # unsigned above — the jump-table bound check idiom
    BE = 7  # unsigned below-or-equal


class ControlFlowKind(enum.Enum):
    """Coarse control-flow classification used by the CFG parsers."""

    NONE = "none"              # ordinary computation, falls through
    DIRECT_JUMP = "jump"       # unconditional direct branch
    COND_JUMP = "cond"         # conditional direct branch
    CALL = "call"              # direct call
    INDIRECT_CALL = "icall"    # indirect call
    INDIRECT_JUMP = "ijmp"     # indirect jump (jump tables)
    RETURN = "ret"             # function return
    HALT = "halt"              # program termination


_CF_KIND: dict[Opcode, ControlFlowKind] = {
    Opcode.JMP: ControlFlowKind.DIRECT_JUMP,
    Opcode.JCC: ControlFlowKind.COND_JUMP,
    Opcode.CALL: ControlFlowKind.CALL,
    Opcode.ICALL: ControlFlowKind.INDIRECT_CALL,
    Opcode.IJMP: ControlFlowKind.INDIRECT_JUMP,
    Opcode.RET: ControlFlowKind.RETURN,
    Opcode.HALT: ControlFlowKind.HALT,
}


@dataclass(frozen=True, slots=True)
class Instruction:
    """A decoded machine instruction.

    ``operands`` is an opcode-specific tuple; accessor properties below give
    named access (``dst``, ``src``, ``target`` …).  Instances are immutable
    and hence safe to share between threads without synchronization.
    """

    address: int
    opcode: Opcode
    operands: tuple[int, ...]
    length: int

    # -- classification ----------------------------------------------------

    @property
    def cf_kind(self) -> ControlFlowKind:
        """Control-flow classification of this instruction."""
        return _CF_KIND.get(self.opcode, ControlFlowKind.NONE)

    @property
    def is_control_flow(self) -> bool:
        """True if this instruction ends a basic block."""
        return self.opcode in _CF_KIND

    @property
    def is_call(self) -> bool:
        return self.opcode in (Opcode.CALL, Opcode.ICALL)

    @property
    def is_branch(self) -> bool:
        return self.opcode in (Opcode.JMP, Opcode.JCC, Opcode.IJMP)

    @property
    def is_ret(self) -> bool:
        return self.opcode is Opcode.RET

    @property
    def is_cond(self) -> bool:
        return self.opcode is Opcode.JCC

    @property
    def falls_through(self) -> bool:
        """True if control may continue at ``end`` (the next instruction).

        Calls architecturally fall through; whether the CFG gets a
        call fall-through edge is decided by the non-returning analysis
        (``O_CFEC``), not here.
        """
        return self.opcode not in (
            Opcode.JMP,
            Opcode.IJMP,
            Opcode.RET,
            Opcode.HALT,
        )

    @property
    def end(self) -> int:
        """Address one past this instruction (start of its successor)."""
        return self.address + self.length

    @property
    def direct_target(self) -> int | None:
        """Branch/call target for direct control flow, else None."""
        if self.opcode is Opcode.JMP or self.opcode is Opcode.CALL:
            return self.operands[0]
        if self.opcode is Opcode.JCC:
            return self.operands[1]
        return None

    # -- named operand access ----------------------------------------------

    @property
    def dst(self) -> Reg:
        """Destination register for register-writing opcodes."""
        op = self.opcode
        if op in (
            Opcode.MOV_RI, Opcode.MOV_RR, Opcode.ADD, Opcode.SUB,
            Opcode.MUL, Opcode.XOR, Opcode.AND, Opcode.OR, Opcode.ADDI,
            Opcode.LOAD, Opcode.LOADIDX, Opcode.LEA, Opcode.POP,
        ):
            return Reg(self.operands[0])
        raise AttributeError(f"{op.name} has no destination register")

    @property
    def src(self) -> Reg:
        """Source register for single-source opcodes."""
        op = self.opcode
        if op in (Opcode.MOV_RR, Opcode.ADD, Opcode.SUB, Opcode.MUL,
                  Opcode.XOR, Opcode.AND, Opcode.OR):
            return Reg(self.operands[1])
        if op in (Opcode.PUSH, Opcode.ICALL, Opcode.IJMP):
            return Reg(self.operands[0])
        raise AttributeError(f"{op.name} has no single source register")

    @property
    def imm(self) -> int:
        """Immediate operand where present."""
        op = self.opcode
        if op in (Opcode.MOV_RI, Opcode.ADDI, Opcode.LEA):
            return self.operands[1]
        if op is Opcode.CMP_RI:
            return self.operands[1]
        if op is Opcode.ENTER:
            return self.operands[0]
        if op in (Opcode.JMP, Opcode.CALL):
            return self.operands[0]
        if op is Opcode.JCC:
            return self.operands[1]
        raise AttributeError(f"{op.name} has no immediate")

    @property
    def cond(self) -> Cond:
        if self.opcode is not Opcode.JCC:
            raise AttributeError("cond only valid for JCC")
        return Cond(self.operands[0])

    # -- def/use sets for dataflow ------------------------------------------

    def regs_read(self) -> frozenset[Reg]:
        """Registers read by this instruction (for liveness/slicing)."""
        op = self.opcode
        o = self.operands
        if op is Opcode.MOV_RR:
            return frozenset({Reg(o[1])})
        if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.XOR,
                  Opcode.AND, Opcode.OR):
            return frozenset({Reg(o[0]), Reg(o[1])})
        if op is Opcode.ADDI:
            return frozenset({Reg(o[0])})
        if op is Opcode.CMP_RI:
            return frozenset({Reg(o[0])})
        if op is Opcode.CMP_RR:
            return frozenset({Reg(o[0]), Reg(o[1])})
        if op is Opcode.LOAD:
            return frozenset({Reg(o[1])})
        if op is Opcode.STORE:
            return frozenset({Reg(o[0]), Reg(o[2])})
        if op is Opcode.LOADIDX:
            return frozenset({Reg(o[1]), Reg(o[2])})
        if op is Opcode.PUSH:
            return frozenset({Reg(o[0]), Reg.SP})
        if op is Opcode.POP:
            return frozenset({Reg.SP})
        if op is Opcode.ENTER:
            return frozenset({Reg.SP, Reg.FP})
        if op is Opcode.LEAVE:
            return frozenset({Reg.FP})
        if op is Opcode.JCC:
            return frozenset({Reg.FLAGS})
        if op in (Opcode.ICALL, Opcode.IJMP):
            return frozenset({Reg(o[0])})
        if op is Opcode.RET:
            return frozenset({Reg.SP, Reg.R0})
        return frozenset()

    def regs_written(self) -> frozenset[Reg]:
        """Registers written by this instruction."""
        op = self.opcode
        o = self.operands
        if op in (Opcode.MOV_RI, Opcode.MOV_RR, Opcode.ADD, Opcode.SUB,
                  Opcode.MUL, Opcode.XOR, Opcode.AND, Opcode.OR,
                  Opcode.ADDI, Opcode.LOAD, Opcode.LOADIDX, Opcode.LEA):
            return frozenset({Reg(o[0])})
        if op in (Opcode.CMP_RI, Opcode.CMP_RR):
            return frozenset({Reg.FLAGS})
        if op is Opcode.PUSH:
            return frozenset({Reg.SP})
        if op is Opcode.POP:
            return frozenset({Reg(o[0]), Reg.SP})
        if op is Opcode.ENTER:
            return frozenset({Reg.SP, Reg.FP})
        if op is Opcode.LEAVE:
            return frozenset({Reg.SP, Reg.FP})
        if op in (Opcode.CALL, Opcode.ICALL):
            # Calls clobber the caller-saved half of the register file.
            return frozenset({Reg.R0, Reg.R1, Reg.R2, Reg.R3,
                              Reg.R4, Reg.R5, Reg.R6, Reg.R7})
        return frozenset()

    def use_mask(self) -> int:
        """:meth:`regs_read` as a bit set (bit ``i`` = ``Reg(i)``)."""
        slots, mask = _USE_TABLE[self.opcode]
        o = self.operands
        for i in slots:
            mask |= 1 << o[i]
        return mask

    def def_mask(self) -> int:
        """:meth:`regs_written` as a bit set (bit ``i`` = ``Reg(i)``)."""
        slots, mask = _DEF_TABLE[self.opcode]
        o = self.operands
        for i in slots:
            mask |= 1 << o[i]
        return mask

    # -- stack effect --------------------------------------------------------

    def sp_delta(self) -> int | None:
        """Static stack-pointer adjustment in bytes, or None if unknown.

        Used by the stack-height analysis backing tail-call heuristic (3):
        a branch preceded by frame teardown is a tail call.
        """
        op = self.opcode
        if op is Opcode.PUSH:
            return -8
        if op is Opcode.POP:
            return 8
        if op is Opcode.ENTER:
            return -8 - self.operands[0]
        if op is Opcode.LEAVE:
            return None  # restores from FP: resolved by the analysis
        if op is Opcode.ADDI and self.operands[0] == Reg.SP:
            return _as_signed32(self.operands[1])
        return 0

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        ops = ", ".join(self._operand_strs())
        return f"{self.address:#08x}: {self.opcode.name.lower():8s} {ops}"

    def _operand_strs(self) -> list[str]:
        out: list[str] = []
        if self.opcode is Opcode.JCC:
            out.append(Cond(self.operands[0]).name.lower())
            out.append(f"{self.operands[1]:#x}")
            return out
        for v in self.operands:
            out.append(str(v))
        return out


def _reg_table(spec: dict[Opcode, tuple[tuple[int, ...], tuple[Reg, ...]]]
               ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Index a per-opcode ``(register operand slots, fixed registers)``
    spec by opcode value, fixed registers folded into one bit set."""
    table = [((), 0)] * (max(Opcode) + 1)
    for op, (slots, fixed) in spec.items():
        table[op] = (slots, sum(1 << r for r in set(fixed)))
    return tuple(table)


_ALU_RR = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.XOR, Opcode.AND,
           Opcode.OR)

#: Bit-set twin of :meth:`Instruction.regs_read`, driving ``use_mask``.
_USE_TABLE = _reg_table({
    Opcode.MOV_RR: ((1,), ()),
    **{op: ((0, 1), ()) for op in _ALU_RR},
    Opcode.ADDI: ((0,), ()),
    Opcode.CMP_RI: ((0,), ()),
    Opcode.CMP_RR: ((0, 1), ()),
    Opcode.LOAD: ((1,), ()),
    Opcode.STORE: ((0, 2), ()),
    Opcode.LOADIDX: ((1, 2), ()),
    Opcode.PUSH: ((0,), (Reg.SP,)),
    Opcode.POP: ((), (Reg.SP,)),
    Opcode.ENTER: ((), (Reg.SP, Reg.FP)),
    Opcode.LEAVE: ((), (Reg.FP,)),
    Opcode.JCC: ((), (Reg.FLAGS,)),
    Opcode.ICALL: ((0,), ()),
    Opcode.IJMP: ((0,), ()),
    Opcode.RET: ((), (Reg.SP, Reg.R0)),
})

#: Bit-set twin of :meth:`Instruction.regs_written`, driving ``def_mask``.
_DEF_TABLE = _reg_table({
    **{op: ((0,), ()) for op in (Opcode.MOV_RI, Opcode.MOV_RR, *_ALU_RR,
                                 Opcode.ADDI, Opcode.LOAD, Opcode.LOADIDX,
                                 Opcode.LEA)},
    Opcode.CMP_RI: ((), (Reg.FLAGS,)),
    Opcode.CMP_RR: ((), (Reg.FLAGS,)),
    Opcode.PUSH: ((), (Reg.SP,)),
    Opcode.POP: ((0,), (Reg.SP,)),
    Opcode.ENTER: ((), (Reg.SP, Reg.FP)),
    Opcode.LEAVE: ((), (Reg.SP, Reg.FP)),
    Opcode.CALL: ((), tuple(Reg(i) for i in range(8))),
    Opcode.ICALL: ((), tuple(Reg(i) for i in range(8))),
})


def _as_signed32(v: int) -> int:
    """Interpret an unsigned 32-bit value as signed."""
    return v - (1 << 32) if v >= (1 << 31) else v
