"""A Machine checks a program against itself once, when it is configured.

Every segment and block must lie inside the machine, and every instruction
must be valid ISA and name only MVMUs with weights, FIFOs, tiles and
memory words that the machine has. Every register range an instruction
names lies inside the register file, no read range overlaps XbarIn and
no write range overlaps XbarOut. Each error names what is out of place; for an
instruction, the actor and the pc."""

import numpy as np
import pytest

from xbarsim import container, isa
from xbarsim.container import TILE_UNIT
from xbarsim.machine import MachineConfig
from xbarsim.simulator import GeometryError, Machine, SimError

CFG = MachineConfig(xbar_dim=4, mvmus_per_core=2, cores_per_tile=2, tiles=2,
                    dmem_words=64)
G0 = CFG.regspace().general(0)
W = np.eye(4, dtype=np.int64)


def _program(segments=(), weights=((0, 0, 0), (0, 0, 1)), **blocks):
    prog = container.Program(CFG.xbar_dim, CFG.mvmus_per_core,
                             CFG.cores_per_tile, CFG.tiles, CFG.frac_bits)
    prog.segments.extend(segments)
    prog.weights.extend(container.WeightBlock(*at, W) for at in weights)
    for kind, items in blocks.items():
        getattr(prog, kind).extend(items)
    return prog


def test_a_program_inside_the_machine_configures():
    seg = container.Segment(0, 0, [isa.seti(G0, 1), isa.mvm(0b11),
                                   isa.store(60, G0, 1, 4)])
    Machine(CFG, _program([seg]))


@pytest.mark.parametrize("prog, message", [
    (_program([container.Segment(0, 5, [isa.store(0, G0, 1)])]),
     "the segment of tile 0 core 5 lies outside the machine"),
    (_program([container.Segment(2, TILE_UNIT, [isa.recv(0, 0, 1, 1)])]),
     "the segment of tile 2 unit lies outside the machine"),
    (_program(weights=[(0, 5, 0)]),
     "WeightBlock of tile 0 core 5 mvmu 0 lies outside the machine"),
    (_program(weights=[(0, 0, 2)]),
     "WeightBlock of tile 0 core 0 mvmu 2 lies outside the machine"),
    (_program(patterns=[container.ShufflePattern(3, 0, 0, 1,
                                                 [0, 1, 2, 3])]),
     "ShufflePattern of tile 3 core 0 mvmu 0 lies outside the machine"),
    (_program(data=[container.DataBlock(2, 0, 1, [1, 2])]),
     r"DataBlock of words \[0, 2\) on tile 2 lies outside the machine"),
    (_program(data=[container.DataBlock(0, 63, 1, [1, 2])]),
     r"DataBlock of words \[63, 65\) on tile 0 lies outside the machine"),
    (_program(io=[container.IoBinding("in", "x", 0, 62, 4, 1)]),
     r"IoBinding of words \[62, 66\) on tile 0 lies outside the machine"),
], ids=["segment_core", "segment_tile", "weights_core", "weights_mvmu",
        "pattern_tile", "data_tile", "data_words", "io_words"])
def test_a_segment_or_block_outside_the_machine_is_named(prog, message):
    with pytest.raises(GeometryError, match="^" + message +
                       r" \(2 tiles x 2 cores x 2 MVMUs, 64 words per tile\)$"):
        Machine(CFG, prog)


@pytest.mark.parametrize("actor, instrs, weights, error, message", [
    ((0, 0), [isa.seti(G0, 1), isa.Instruction("alu", 20, G0, G0, G0, 1)],
     [(0, 0, 0), (0, 0, 1)], isa.IsaError,
     "tile 0 core 0 pc 1: alu: bad aluop 20"),
    ((0, 0), [isa.mvm(0b100)], [(0, 0, 0), (0, 0, 1)], GeometryError,
     r"tile 0 core 0 pc 0: mvm mask 0b100 fires an MVMU without weights "
     r"\(loaded: 0b11\)"),
    ((0, 1), [isa.mvm(0b1), isa.mvm(0b11)], [(0, 1, 0)], GeometryError,
     r"tile 0 core 1 pc 1: mvm mask 0b11 fires an MVMU without weights "
     r"\(loaded: 0b1\)"),
    ((1, TILE_UNIT), [isa.send(0, 0, 2, 1)], [], GeometryError,
     "tile 1 unit pc 0: send targets tile 2 of 2"),
    ((0, TILE_UNIT), [isa.recv(0, 16, 1, 1)], [], GeometryError,
     "tile 0 unit pc 0: receive names fifo 16 of 16"),
    ((0, 1), [isa.load(G0, 60, 8)], [], GeometryError,
     "tile 0 core 1 pc 0: load of 8 words at 60 runs past the 64-word memory"),
    ((0, 0), [isa.store(64, G0, 1, 0)], [], GeometryError,
     "tile 0 core 0 pc 0: store of 1 words at 64 runs past the 64-word "
     "memory"),
    ((0, TILE_UNIT), [isa.send(60, 0, 1, 8)], [], GeometryError,
     "tile 0 unit pc 0: send of 8 words at 60 runs past the 64-word memory"),
    ((1, TILE_UNIT), [isa.recv(62, 0, 1, 4)], [], GeometryError,
     "tile 1 unit pc 0: receive of 4 words at 62 runs past the 64-word "
     "memory"),
    ((0, TILE_UNIT), [isa.send(0, 16, 1, 1)], [], GeometryError,
     "tile 0 unit pc 0: send names fifo 16 of 16"),
    ((0, 0), [isa.Instruction("frob")], [], isa.IsaError,
     "tile 0 core 0 pc 0: unknown mnemonic 'frob'"),
    ((0, TILE_UNIT), [isa.Instruction("frob")], [], SimError,
     "tile 0 unit cannot execute 'frob'"),
    ((0, 1), [isa.Instruction("copy", 0, a=30, b=30, w=4)], [], GeometryError,
     "tile 0 core 1 pc 0: copy of 4 registers at 30 runs past the "
     "32-register file"),
    ((0, 1), [isa.alu("add", 30, 30, 30, 4)], [], GeometryError,
     "tile 0 core 1 pc 0: alu of 4 registers at 30 runs past the "
     "32-register file"),
    ((0, 1), [isa.seti(G0, 1), isa.seti(35, 1)], [], GeometryError,
     "tile 0 core 1 pc 1: set of 1 registers at 35 runs past the "
     "32-register file"),
    ((0, 0), [isa.copy(G0, CFG.regspace().xbar_in(1), 1)], [], SimError,
     "tile 0 core 0 pc 0: class-access violation: copy reads XbarIn 4"),
    ((0, 0), [isa.seti(CFG.regspace().xbar_out(0), 1)], [], SimError,
     "tile 0 core 0 pc 0: class-access violation: set writes XbarOut 8"),
    # writes that start in XbarIn and run on into XbarOut
    ((0, 0), [isa.load(CFG.regspace().xbar_in(0), 0, 16)], [], SimError,
     "tile 0 core 0 pc 0: class-access violation: load writes XbarOut 8"),
    ((0, 0), [isa.copy(CFG.regspace().xbar_in(1), G0, 12)], [], SimError,
     "tile 0 core 0 pc 0: class-access violation: copy writes XbarOut 8"),
], ids=["invalid", "mask_beyond_core", "mask_without_weights", "send_target",
        "fifo_id", "load_words", "store_words", "send_words", "receive_words",
        "send_fifo_id", "unknown_on_core", "unknown_on_tile_unit",
        "copy_registers",
        "alu_registers", "set_register", "reads_xbar_in", "writes_xbar_out",
        "load_into_xbar_out", "copy_into_xbar_out"])
def test_an_instruction_is_checked_once_when_configured(actor, instrs, weights,
                                                         error, message):
    prog = _program([container.Segment(*actor, instrs)], weights)
    with pytest.raises(error, match="^" + message + "$"):
        Machine(CFG, prog)



@pytest.mark.parametrize("actor, instrs, name", [
    ((0, 0), [isa.seti(G0, 1), isa.store(60, G0, 1, 1)], "tile 0 core 0"),
    ((1, TILE_UNIT), [isa.recv(0, 0, 1, 1)], "tile 1 unit"),
], ids=["core", "tile_unit"])
def test_two_segments_for_one_actor_are_rejected(actor, instrs, name):
    """A second segment for an actor would replace the first one's code."""
    prog = _program([container.Segment(*actor, instrs),
                     container.Segment(*actor, instrs[:1])])
    with pytest.raises(GeometryError,
                       match=f"^{name} has more than one segment$"):
        Machine(CFG, prog)
