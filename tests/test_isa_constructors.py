"""The named constructors: one per `isa.ISA` row, operands in assembly order.

PARITY was recorded with the hand-written constructors that the table rows
replaced; every call in it must still build the same Instruction.
"""

import pytest

from xbarsim import isa
from xbarsim.isa import Instruction as I

# (constructor, positional operands, the Instruction it builds)
PARITY = [
    ("mvm", (0b1,), I("mvm", 1, 0, 0, 0, 0)),
    ("mvm", (0b11, 5), I("mvm", 3, 5, 0, 0, 0)),
    ("mvm", (0b10101, 7, 9), I("mvm", 21, 7, 9, 0, 0)),
    ("alu", ("relu", 600, 610), I("alu", 9, 600, 610, 0, 1)),
    ("alu", ("add", 600, 610, 620), I("alu", 0, 600, 610, 620, 1)),
    ("alu", ("max", 1, 2, 3, 128), I("alu", 15, 1, 2, 3, 128)),
    ("alu", ("sigmoid", 4, 5, 0, 16), I("alu", 10, 4, 5, 0, 16)),
    ("alui", ("add", 600, 610, 300), I("alui", 0, 600, 610, 300, 1)),
    ("alui", ("sub", 1, 2, -1, 4), I("alui", 1, 1, 2, 4095, 4)),
    ("alui", ("add", 1, 2, -100, 4), I("alui", 0, 1, 2, 3996, 4)),
    ("alui", ("shl", 1, 2, 4096 + 3, 8), I("alui", 4, 1, 2, 3, 8)),
    ("alui", ("or", 7, 8, 0x7FF), I("alui", 7, 7, 8, 0x7FF, 1)),
    ("aluint", ("add", 601, 601, 600), I("aluint", 0, 601, 601, 600, 0)),
    ("aluint", ("ne", 1, 2, 3), I("aluint", 4, 1, 2, 3, 0)),
    ("seti", (600, 1), I("set", 0, 600, 1, 0, 0)),
    ("seti", (7, 4095), I("set", 0, 7, 4095, 0, 0)),
    ("copy", (0, 520, 128), I("copy", 0, 0, 520, 0, 128)),
    ("load", (512, 64), I("load", 0, 512, 64, 0, 1)),
    ("load", (512, 64, 16), I("load", 0, 512, 64, 0, 16)),
    ("store", (80, 524, 2), I("store", 0, 80, 524, 2, 1)),
    ("store", (80, 524, 2, 16), I("store", 0, 80, 524, 2, 16)),
    ("store", (300, 610, 2, 0), I("store", 0, 300, 610, 2, 0)),
    ("send", (80, 3, 1, 16), I("send", 3, 80, 1, 0, 16)),
    ("recv", (40, 3, 2, 16), I("receive", 3, 40, 2, 0, 16)),
    ("jmp", (0,), I("jmp", 0, 0, 0, 0, 0)),
    ("jmp", (4095,), I("jmp", 0, 0, 0, 4095, 0)),
    ("brn", ("ne", 601, 602, 4), I("brn", 1, 601, 602, 4, 0)),
    ("brn", ("le", 1, 2, 3), I("brn", 5, 1, 2, 3, 0)),
]


@pytest.mark.parametrize("name,args,want", PARITY,
                         ids=[f"{n}{a}" for n, a, _ in PARITY])
def test_constructor_builds_the_recorded_instruction(name, args, want):
    assert getattr(isa, name)(*args) == want


def test_every_subop_name_builds_its_code():
    for name, table in (("alu", isa.ALU_OPS), ("aluint", isa.ALUINT_OPS),
                        ("brn", isa.BRN_OPS)):
        for sub, code in table.items():
            assert getattr(isa, name)(sub, 1, 2, 3).sub == code
    for sub in isa.ALUI_OPS:
        assert isa.alui(sub, 1, 2, 3).sub == isa.ALU_OPS[sub]


def test_operands_are_also_keywords_named_by_the_row():
    assert isa.mvm(0b1, filter=1) == I("mvm", 1, 1, 0, 0, 0)
    assert isa.mvm(0b1, stride=3, filter=2) == I("mvm", 1, 2, 3, 0, 0)
    assert isa.alu("add", dest=1, src1=2, src2=3, vec_width=4) == \
        I("alu", 0, 1, 2, 3, 4)
    assert isa.alui(aluop="sub", dest=1, src1=2, immediate=-2) == \
        I("alui", 1, 1, 2, 4094, 1)
    assert isa.send(80, 3, 1, vec_width=16) == isa.send(80, 3, 1, 16)
    assert isa.recv(memaddr=40, fifo_id=3, count=2) == isa.recv(40, 3, 2, 1)
    assert isa.brn("eq", 1, 2, pc=9) == isa.brn("eq", 1, 2, 9)


def test_vec_width_defaults_to_one_on_every_row_that_has_it():
    assert isa.copy(0, 520) == isa.copy(0, 520, 1)
    assert isa.send(80, 3, 1) == isa.send(80, 3, 1, 1)
    assert isa.recv(40, 3, 2) == isa.recv(40, 3, 2, 1)


@pytest.mark.parametrize("name,sub", [
    ("alu", "mod"), ("alui", "min"), ("alui", "relu"), ("aluint", "mul"),
    ("brn", "always")])
def test_an_unknown_subop_name_is_an_isa_error(name, sub):
    with pytest.raises(isa.IsaError, match=rf"^{name} does not support '{sub}'$"):
        getattr(isa, name)(sub, 1, 2, 3)


@pytest.mark.parametrize("call", [
    lambda: isa.mvm(), lambda: isa.alu("add", 1), lambda: isa.seti(1),
    lambda: isa.jmp(1, 2), lambda: isa.load(1, 2, w=3),
    lambda: isa.mvm(0b1, filt=1), lambda: isa.store(1, 2, 3, dest=4)])
def test_a_missing_extra_or_unknown_operand_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_each_constructor_is_named_and_lists_its_operands():
    for name, op in (("seti", "set"), ("recv", "receive"), ("mvm", "mvm"),
                     ("alu", "alu"), ("store", "store")):
        make = getattr(isa, name)
        assert make.__name__ == name
        for operand in isa.OPERAND_NAMES[op]:
            if operand != "src3":
                assert operand in make.__doc__
