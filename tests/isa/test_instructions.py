"""Unit tests for instruction classification and def/use sets."""

import itertools

import pytest

from repro.isa import Cond, ControlFlowKind, Instruction, Opcode, Reg
from repro.isa.encoding import _LAYOUT, instruction_length


def make(op, *operands, address=0x1000):
    return Instruction(address=address, opcode=op, operands=tuple(operands),
                       length=instruction_length(op))


class TestClassification:
    def test_nop_is_not_control_flow(self):
        i = make(Opcode.NOP)
        assert not i.is_control_flow
        assert i.cf_kind is ControlFlowKind.NONE
        assert i.falls_through

    def test_jmp_is_direct_jump(self):
        i = make(Opcode.JMP, 0x2000)
        assert i.is_control_flow
        assert i.cf_kind is ControlFlowKind.DIRECT_JUMP
        assert i.is_branch and not i.is_call and not i.is_cond
        assert not i.falls_through
        assert i.direct_target == 0x2000

    def test_jcc_falls_through_and_targets(self):
        i = make(Opcode.JCC, Cond.EQ, 0x2000)
        assert i.cf_kind is ControlFlowKind.COND_JUMP
        assert i.falls_through
        assert i.is_cond
        assert i.direct_target == 0x2000
        assert i.cond is Cond.EQ

    def test_call_classification(self):
        i = make(Opcode.CALL, 0x3000)
        assert i.is_call
        assert i.cf_kind is ControlFlowKind.CALL
        assert i.falls_through  # architectural fall-through
        assert i.direct_target == 0x3000

    def test_icall_has_no_direct_target(self):
        i = make(Opcode.ICALL, Reg.R3)
        assert i.is_call
        assert i.direct_target is None
        assert i.cf_kind is ControlFlowKind.INDIRECT_CALL

    def test_ijmp(self):
        i = make(Opcode.IJMP, Reg.R5)
        assert i.cf_kind is ControlFlowKind.INDIRECT_JUMP
        assert not i.falls_through
        assert i.direct_target is None

    def test_ret(self):
        i = make(Opcode.RET)
        assert i.is_ret
        assert not i.falls_through

    def test_halt(self):
        i = make(Opcode.HALT)
        assert i.is_control_flow
        assert not i.falls_through
        assert i.cf_kind is ControlFlowKind.HALT

    def test_end_address(self):
        i = make(Opcode.MOV_RI, Reg.R1, 42, address=0x100)
        assert i.end == 0x100 + instruction_length(Opcode.MOV_RI)

    @pytest.mark.parametrize("op", [Opcode.NOP, Opcode.ADD, Opcode.LOAD,
                                    Opcode.PUSH, Opcode.LEAVE])
    def test_non_cf_opcodes(self, op):
        operands = {
            Opcode.NOP: (), Opcode.ADD: (Reg.R1, Reg.R2),
            Opcode.LOAD: (Reg.R1, Reg.R2, 8), Opcode.PUSH: (Reg.R1,),
            Opcode.LEAVE: (),
        }[op]
        assert not make(op, *operands).is_control_flow


class TestDefUse:
    def test_mov_ri_defs(self):
        i = make(Opcode.MOV_RI, Reg.R4, 7)
        assert i.regs_written() == {Reg.R4}
        assert i.regs_read() == frozenset()

    def test_add_reads_both(self):
        i = make(Opcode.ADD, Reg.R1, Reg.R2)
        assert i.regs_read() == {Reg.R1, Reg.R2}
        assert i.regs_written() == {Reg.R1}

    def test_cmp_writes_flags(self):
        i = make(Opcode.CMP_RI, Reg.R1, 10)
        assert Reg.FLAGS in i.regs_written()
        assert i.regs_read() == {Reg.R1}

    def test_jcc_reads_flags(self):
        i = make(Opcode.JCC, Cond.A, 0x2000)
        assert Reg.FLAGS in i.regs_read()

    def test_loadidx_reads_base_and_index(self):
        i = make(Opcode.LOADIDX, Reg.R1, Reg.R2, Reg.R3)
        assert i.regs_read() == {Reg.R2, Reg.R3}
        assert i.regs_written() == {Reg.R1}

    def test_store_reads_base_and_value(self):
        i = make(Opcode.STORE, Reg.R2, 16, Reg.R1)
        assert i.regs_read() == {Reg.R1, Reg.R2}
        assert i.regs_written() == frozenset()

    def test_call_clobbers_caller_saved(self):
        i = make(Opcode.CALL, 0x1000)
        written = i.regs_written()
        assert Reg.R0 in written and Reg.R7 in written
        assert Reg.R8 not in written  # callee-saved preserved

    def test_push_pop_touch_sp(self):
        push = make(Opcode.PUSH, Reg.R1)
        pop = make(Opcode.POP, Reg.R1)
        assert Reg.SP in push.regs_written() and Reg.SP in push.regs_read()
        assert Reg.SP in pop.regs_written()
        assert Reg.R1 in pop.regs_written()


class TestStackEffects:
    def test_push_delta(self):
        assert make(Opcode.PUSH, Reg.R1).sp_delta() == -8

    def test_pop_delta(self):
        assert make(Opcode.POP, Reg.R1).sp_delta() == 8

    def test_enter_delta(self):
        assert make(Opcode.ENTER, 32).sp_delta() == -40  # push fp + frame

    def test_leave_delta_unknown(self):
        assert make(Opcode.LEAVE).sp_delta() is None

    def test_addi_sp_signed(self):
        neg16 = (1 << 32) - 16
        assert make(Opcode.ADDI, Reg.SP, neg16).sp_delta() == -16
        assert make(Opcode.ADDI, Reg.SP, 16).sp_delta() == 16

    def test_addi_non_sp_is_neutral(self):
        assert make(Opcode.ADDI, Reg.R1, 16).sp_delta() == 0


def _bits(regs) -> int:
    return sum(1 << r for r in regs)


class TestDefUseMasks:
    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
    def test_masks_equal_the_register_sets(self, op):
        """Every register in every register slot: the bit-set twins
        of ``regs_read``/``regs_written`` cannot drift from them."""
        fields = _LAYOUT[op]
        slots = [i for i, kind in enumerate(fields) if kind == "r"]
        seen = 0
        for regs in itertools.product(list(Reg), repeat=len(slots)):
            operands = [0] * len(fields)
            for i, r in zip(slots, regs):
                operands[i] = int(r)
            i = make(op, *operands)
            assert i.use_mask() == _bits(i.regs_read()), i
            assert i.def_mask() == _bits(i.regs_written()), i
            seen += 1
        assert seen == len(Reg) ** len(slots)


class TestRegisters:
    def test_gp_classification(self):
        assert Reg.R0.is_gp and Reg.R15.is_gp
        assert not Reg.SP.is_gp and not Reg.FLAGS.is_gp

    def test_named_accessors_raise_on_mismatch(self):
        with pytest.raises(AttributeError):
            _ = make(Opcode.NOP).dst
        with pytest.raises(AttributeError):
            _ = make(Opcode.RET).imm
        with pytest.raises(AttributeError):
            _ = make(Opcode.JMP, 0x10).cond
