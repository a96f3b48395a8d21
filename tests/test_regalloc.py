import numpy as np
import pytest

from xbarsim import fixedpoint as fp, graph as gr, isa, layers, regalloc
from xbarsim.compiler import compile_model
from xbarsim.isa import Instruction
from xbarsim.machine import MachineConfig
from xbarsim.regalloc import Mem, VReg
from xbarsim.simulator import Machine, run


def test_liveness_range_ends_at_last_use():
    # a = load; b = a + a: a's range ends at the add
    seq = [
        Instruction("load", 0, VReg(0), Mem(0), 0, 4),
        Instruction("alu", isa.ALU_OPS["add"], VReg(1), VReg(0), VReg(0), 4),
        Instruction("store", 0, Mem(1), VReg(1), 1, 4),
    ]
    ranges = regalloc.compute_liveness(seq)
    assert ranges[0].start == 0 and ranges[0].end == 1
    assert ranges[1].start == 1 and ranges[1].end == 2
    assert ranges[0].size == 4


def test_use_before_def_is_an_error():
    seq = [Instruction("store", 0, Mem(0), VReg(5), 1, 2)]
    with pytest.raises(regalloc.RegAllocError, match="before definition"):
        regalloc.compute_liveness(seq)


def _alloc(seq, general, **kw):
    cfg = MachineConfig(xbar_dim=4, mvmus_per_core=2, cores_per_tile=2,
                        tiles=1, register_size=general, dmem_words=512)
    slots = []

    def mk(size):
        slots.append(size)
        return 100 + len(slots)

    res = regalloc.allocate(seq, cfg, mk, **kw)
    return res, slots


def _chain(n, width):
    seq = [Instruction("load", 0, VReg(k), Mem(k), 0, width) for k in range(n)]
    acc = VReg(n)
    seq.append(Instruction("alu", isa.ALU_OPS["add"], acc, VReg(0), VReg(1),
                           width))
    for k in range(2, n):
        seq.append(Instruction("alu", isa.ALU_OPS["add"], acc, acc, VReg(k),
                               width))
    seq.append(Instruction("store", 0, Mem(99), acc, 1, width))
    return seq


def test_no_spills_when_values_fit():
    res, slots = _alloc(_chain(4, 4), general=64)
    assert res.spill_count == 0 and not slots
    assert regalloc.audit(res.instrs, res)


def test_spills_under_pressure_and_audit_clean():
    res, slots = _alloc(_chain(6, 4), general=12)
    assert res.spill_count > 0 and slots
    assert regalloc.audit(res.instrs, res)
    ops = [li.op for li in res.instrs]
    assert "store" in ops[:-1]      # spill stores appeared mid-program


def test_spill_count_monotone_as_registers_shrink():
    prev = -1
    for general in (64, 32, 16, 12):
        res, _ = _alloc(_chain(6, 4), general=general)
        if prev >= 0:
            assert res.spill_count >= prev
        prev = res.spill_count
    assert prev > 0


def test_register_file_below_working_set_is_a_clear_error():
    # a 3-operand width-4 instruction needs 12 words at once
    with pytest.raises(regalloc.RegAllocError, match="needs 12 words"):
        _alloc(_chain(6, 4), general=8)


def test_value_larger_than_register_file_is_an_error():
    with pytest.raises(regalloc.RegAllocError, match="exceeds"):
        _alloc(_chain(2, 16), general=8)


def test_value_that_cannot_fit_beside_unspillable_values_is_an_error():
    """v0 is written, stored and written again, so it cannot spill; v1 is
    defined while v0 is live and does not fit beside it. Spilling v1 would
    leave its definition with the same problem, so allocation stops."""
    seq = [Instruction("load", 0, VReg(0), Mem(0), 0, 6),
           Instruction("store", 0, Mem(1), VReg(0), 1, 6),
           Instruction("load", 0, VReg(0), Mem(2), 0, 6),
           Instruction("load", 0, VReg(1), Mem(3), 0, 4),
           Instruction("store", 0, Mem(4), VReg(0), 1, 6),
           Instruction("store", 0, Mem(5), VReg(1), 1, 4)]
    assert not regalloc.compute_liveness(seq)[0].spillable()
    with pytest.raises(regalloc.RegAllocError, match=r"^v1 \(4 words\) does "
                       r"not fit beside values that cannot spill$"):
        _alloc(seq, general=8)


def test_an_original_value_spills_before_a_reload_temporary():
    """v9 stands for a reload that an earlier round made (vregs from 9 on
    are spill temporaries). Placing v10 finds no 8-word gap beside v1 and
    v9, and both end at the alu, so either could spill: v1, a value the
    code arrived with, is the one spilled. Spilling v9 would only put
    another reload in its place."""
    seq = [Instruction("load", 0, VReg(0), Mem(0), 0, 4),
           Instruction("load", 0, VReg(1), Mem(1), 0, 4),
           Instruction("store", 0, Mem(2), VReg(0), 1, 4),
           Instruction("load", 0, VReg(9), Mem(3), 0, 4),
           Instruction("load", 0, VReg(10), Mem(4), 0, 8),
           Instruction("alu", isa.ALU_OPS["add"], VReg(11), VReg(1), VReg(9),
                       2),
           Instruction("store", 0, Mem(5), VReg(10), 1, 8),
           Instruction("store", 0, Mem(6), VReg(11), 1, 2)]
    ranges = regalloc.compute_liveness(seq)
    assert ranges[1].end == ranges[9].end == 5
    assert ranges[1].spillable() and ranges[9].spillable()
    assert regalloc._plan(ranges, 14, vmax=9)[1] == {1}
    # were v9 a value of the code, the tie would go to the newest vreg
    assert 9 in regalloc._plan(ranges, 14, vmax=12)[1]


def _assembled(second_off=2, read_between=False):
    """v0 built by two 2-word copies from v1, then read whole."""
    seq = [Instruction("load", 0, VReg(1), Mem(0), 0, 2),
           Instruction("copy", 0, VReg(0), VReg(1), 0, 2)]
    if read_between:
        seq.append(Instruction("store", 0, Mem(1), VReg(0), 1, 2))
    seq.append(Instruction("copy", 0, VReg(0, second_off), VReg(1), 0, 2))
    return seq


def test_value_assembled_piecewise_spills_with_a_store_per_write():
    # two 4-word values and their 4-word sum leave no room for v0 on a
    # 12-word file, and v0 is the active value with the furthest use
    seq = _assembled() + [
        Instruction("load", 0, VReg(2), Mem(2), 0, 4),
        Instruction("load", 0, VReg(3), Mem(3), 0, 4),
        Instruction("alu", isa.ALU_OPS["add"], VReg(4), VReg(2), VReg(3), 4),
        Instruction("store", 0, Mem(4), VReg(4), 1, 4),
        Instruction("store", 0, Mem(5), VReg(0), 1, 4),
    ]
    assert len(regalloc.compute_liveness(seq)[0].writes) == 2
    res, slots = _alloc(seq, general=12)
    assert res.spill_count == 1 and slots == [4]
    slot = [li for li in res.instrs
            if any(isinstance(f, Mem) and f.sym == 101
                   for f in (li.a, li.b, li.c))]
    # (op, slot operand, store count, words)
    assert [(li.op, li.a, li.c, li.w) if li.op == "store"
            else (li.op, li.b, li.c, li.w) for li in slot] == [
        ("store", Mem(101, 0), 1, 2), ("store", Mem(101, 2), 1, 2),
        ("load", Mem(101, 0), 0, 4)]
    assert regalloc.audit(res.instrs, res)


@pytest.mark.parametrize("second_off, read_between", [(2, True), (1, False)],
                         ids=["read_between_writes", "overlapping_writes"])
def test_value_assembled_piecewise_does_not_spill_when(second_off,
                                                       read_between):
    seq = _assembled(second_off, read_between)
    assert regalloc.compute_liveness(_assembled())[0].spillable()
    assert not regalloc.compute_liveness(seq)[0].spillable()


def _crossing_model():
    """Window-like pressure: each value is consumed by two distant
    combines, so roughly half the layer stays live under any order."""
    rng = np.random.default_rng(5)
    g = gr.ModelGraph()
    v = [g.input(f"x{i}", 8) for i in range(8)]
    ys = [g.alu("max", v[i], v[(i + 4) % 8]) for i in range(8)]
    acc = ys[0]
    for y in ys[1:]:
        acc = g.alu("add", acc, y)
    g.output("y", acc)
    g.freeze()
    inputs = {f"x{i}": fp.quantize(rng.uniform(-0.05, 0.05, 8))
              for i in range(8)}
    return g, inputs


def test_compiled_program_with_spills_stays_equivalent():
    g, inputs = _crossing_model()
    want = gr.evaluate(g, inputs, xbar_dim=8)
    spilled_any = False
    for general in (128, 32):
        cfg = MachineConfig(xbar_dim=8, mvmus_per_core=2, cores_per_tile=1,
                            tiles=1, register_size=general, dmem_words=2048)
        prog, rep = compile_model(g, cfg)
        if general == 32:
            assert rep.spill_count > 0
            spilled_any = True
        res = run(Machine(cfg, prog), inputs)
        assert res.halted
        assert res.outputs["y"].tolist() == want["y"].tolist()
        if rep.spill_count:
            assert res.spill_access_pct > 0
    assert spilled_any


def test_compiled_spill_count_monotone_in_register_size():
    g, inputs = _crossing_model()
    prev = -1
    for general in (128, 48, 32, 25):
        cfg = MachineConfig(xbar_dim=8, mvmus_per_core=2, cores_per_tile=1,
                            tiles=1, register_size=general, dmem_words=2048)
        _, rep = compile_model(g, cfg)
        if prev >= 0:
            assert rep.spill_count >= prev
        prev = rep.spill_count
    assert prev > 0
