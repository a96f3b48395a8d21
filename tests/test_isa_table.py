"""The ISA table: each opcode's facts written once and derived everywhere
(validation, the assembler, the disassembler, register def/use, the
simulator's dispatch and register-access counts)."""

import numpy as np
import pytest

from xbarsim import container, fixedpoint as fp, isa, simulator
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, SimError, run


def every_opcode_program():
    """One hand-built program that executes all 12 opcodes: an MVM, alui add
    with a negative immediate, alui shl, a unary, a transcendental and a
    binary alu, a set/aluint/brn loop that branches back once, a jmp over an
    instruction that would clobber the result, and a store/send/receive
    chain that carries the result to the other tile."""
    cfg = MachineConfig(xbar_dim=4, mvmus_per_core=2, cores_per_tile=2,
                        tiles=2, dmem_words=512)
    rs = cfg.regspace()
    g = rs.general
    core = [
        isa.load(g(0), 0, 4),
        isa.copy(rs.xbar_in(0), g(0), 4),
        isa.mvm(0b1),
        isa.copy(g(4), rs.xbar_out(0), 4),
        isa.alui("add", g(8), g(4), -100, 4),
        isa.alui("shl", g(8), g(8), 1, 4),
        isa.alu("relu", g(8), g(8), 0, 4),
        isa.alu("sigmoid", g(12), g(8), 0, 4),
        isa.alu("sub", g(8), g(8), g(12), 4),
        isa.seti(g(0), 0),
        isa.seti(g(1), 2),
        isa.seti(g(2), 1),
        isa.aluint("add", g(0), g(0), g(2)),      # pc 12: loop body
        isa.brn("ne", g(0), g(1), 12),
        isa.jmp(16),
        isa.seti(g(8), 0),                        # skipped by the jmp
        isa.store(4, g(8), 1, 4),
    ]
    prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core,
                             cfg.cores_per_tile, cfg.tiles, cfg.frac_bits)
    prog.segments += [
        container.Segment(0, 0, core),
        container.Segment(0, container.TILE_UNIT, [isa.send(4, 0, 1, 4)]),
        container.Segment(1, container.TILE_UNIT, [isa.recv(8, 0, 1, 4)]),
    ]
    w = fp.quantize(np.array([[0.5, -0.25, 1.0, 0.0],
                              [0.125, 0.75, -1.0, 0.5],
                              [-0.5, 0.25, 0.5, 1.5],
                              [1.0, 0.0, -0.75, -0.125]]))
    prog.weights.append(container.WeightBlock(0, 0, 0, w))
    prog.io += [container.IoBinding("in", "x", 0, 0, 4, 1),
                container.IoBinding("out", "y", 1, 8, 4, 1)]
    x = fp.quantize(np.array([1.0, -0.5, 0.25, 0.73]))
    return cfg, prog, {"x": x}


def test_every_opcode_program_pins_its_report():
    """Pinned figures: a change to any of them is a change in behaviour.
    No benchmark workload runs alui or jmp, so the golden hashes do not
    cover these paths."""
    cfg, prog, inputs = every_opcode_program()
    rep = run(Machine(cfg, prog), inputs)
    assert rep.halted and rep.saturations == 0
    assert rep.outputs["y"].tolist() == [4719, -2080, 4981, -2004]
    assert rep.instr_dynamic == {
        "alu": 3, "alui": 2, "aluint": 2, "brn": 2, "copy": 2, "jmp": 1,
        "load": 1, "mvm": 1, "receive": 1, "send": 1, "set": 3, "store": 1}
    assert rep.instr_cycles == {
        "alu": 17, "alui": 10, "aluint": 2, "brn": 2, "copy": 10, "jmp": 1,
        "load": 5, "mvm": 2304, "receive": 5, "send": 2, "set": 3,
        "store": 5}
    assert rep.reg_accesses == 89
    assert rep.energy_nj == pytest.approx({
        "control": 0.036680000000000004, "memory": 0.32688000000000006,
        "mvmu": 43.97, "network": 1.1918199999999999,
        "register_file": 0.019556999999999998, "sfu": 0.000275,
        "vfu": 0.038}, rel=1e-12, abs=0)
    assert (rep.cycles, rep.steps, rep.mode_switches) == (2372, 20, 1)


def test_simulator_dispatches_every_opcode():
    assert set(simulator.EXECUTE) == set(isa.OPCODES)


def test_operand_names_come_from_the_table():
    for op, spec in isa.ISA.items():
        assert isa.OPERAND_NAMES[op] == tuple(n for n, _, _ in spec.operands)
    assert isa.OPERAND_NAMES["alu"] == (
        "aluop", "dest", "src1", "src2", "src3", "vec_width")
    assert ("src3", None, None) in isa.ISA["alu"].operands


def test_registers_list_register_operands_only():
    assert isa.registers(isa.alu("add", 600, 610, 620, 8)) == [
        (600, 8, True), (610, 8, False), (620, 8, False)]
    assert isa.registers(isa.alu("relu", 600, 610, 620, 8)) == [
        (600, 8, True), (610, 8, False)]
    assert isa.registers(isa.alui("add", 600, 610, 300, 8)) == [
        (600, 8, True), (610, 8, False)]
    assert isa.registers(isa.brn("ne", 5, 6, 12)) == [(5, 1, False),
                                                       (6, 1, False)]
    assert isa.registers(isa.store(300, 610, 2, 0)) == [(610, 1, False)]
    for i in (isa.mvm(0b11), isa.jmp(3), isa.send(1, 2, 3, 4),
              isa.recv(1, 2, 3, 4)):
        assert isa.registers(i) == []


def test_alui_immediates_round_trip_through_their_field():
    for value, fits in ((-2048, True), (2047, True), (-2049, False),
                        (2048, False)):
        field = value & isa.FIELD_MAX
        assert (isa.alui_immediate("add", field) == value) == fits
        assert (isa.alui_immediate("sub", field) == value) == fits
    assert isa.alui_immediate("shl", 4095) == 4095
    assert isa.alui_immediate("and", -1 & isa.FIELD_MAX) != -1


@pytest.mark.parametrize("text, where", [
    ("mvm 1, filter=2, filter=3", "stride="),
    ("mvm 1, stride=3, filter=2", "filter="),
    ("mvm 1, filter=2, 3", "stride="),
])
def test_mvm_keywords_are_positional(text, where):
    with pytest.raises(isa.AsmError, match=f"line 1: .*{where}"):
        isa.assemble(text)
    (i,) = isa.assemble("mvm 1, filter=2, stride=3")
    assert i == isa.mvm(1, 2, 3)


def test_assembler_rejects_a_subop_outside_the_row_table():
    with pytest.raises(isa.AsmError,
                       match="line 2: alui does not support 'min'"):
        isa.assemble("jmp 0\nalui min, $600, $610, 3, 8\n")


def test_operand_roles_place_tile_memory_and_tile_unit_opcodes():
    roles = {op: {role for *_, role in spec.operands}
             for op, spec in isa.ISA.items()}
    assert {op for op, r in roles.items() if "addr" in r} == {
        "load", "store", "send", "receive"}
    assert {op for op, spec in isa.ISA.items() if spec.on_tile} == {
        "send", "receive"}


@pytest.mark.parametrize("op, sub, message", [
    ("alu", 20, "alu: bad aluop 20"),
    ("alui", isa.ALU_OPS["min"], "alui: bad aluop 14"),
    ("aluint", 9, "aluint: bad aluop 9"),
    ("brn", 6, "brn: bad brnop 6"),
    ("mvm", 0, "mvm: mask must activate at least one MVMU"),
])
def test_decode_applies_the_subop_rule(op, sub, message):
    val = isa.OPCODES[op] | sub << 5
    with pytest.raises(isa.DecodeError, match=message):
        isa.decode(val.to_bytes(isa.INSTR_BYTES, "little"))
    with pytest.raises(isa.IsaError, match=message):
        isa.validate(isa.Instruction(op, sub))


def test_container_with_a_bad_aluop_fails_to_load():
    cfg, prog, _ = every_opcode_program()
    blob = bytearray(container.save(prog))
    good = isa.encode(prog.segments[0].instrs[6])       # alu relu
    val = int.from_bytes(good, "little") & ~(isa.SUBOP_MAX << 5) | 20 << 5
    bad = val.to_bytes(isa.INSTR_BYTES, "little")
    at = bytes(blob).index(good)
    blob[at:at + isa.INSTR_BYTES] = bad
    with pytest.raises(isa.DecodeError, match="alu: bad aluop 20"):
        container.loads(bytes(blob))


def test_a_tile_op_on_a_core_is_rejected_when_configured():
    cfg, prog, _ = every_opcode_program()
    prog.segments[0].instrs.append(isa.send(4, 0, 1, 4))
    with pytest.raises(SimError, match="tile 0 core 0 cannot execute 'send'"):
        Machine(cfg, prog)
