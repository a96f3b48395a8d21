import numpy as np
import pytest

from xbarsim import container, fixedpoint as fp, graph as gr, isa, layers
from xbarsim import models
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import (
    CapacityError,
    GeometryError,
    Machine,
    PIPELINE_FILL_CYCLES,
    SimError,
    run,
)


def cfg_small(**kw):
    kw.setdefault("xbar_dim", 4)
    kw.setdefault("mvmus_per_core", 2)
    kw.setdefault("cores_per_tile", 2)
    kw.setdefault("tiles", 2)
    kw.setdefault("dmem_words", 512)
    return MachineConfig(**kw)


def empty_program(cfg, segments=()):
    prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core,
                             cfg.cores_per_tile, cfg.tiles, cfg.frac_bits)
    prog.segments.extend(segments)
    return prog


def test_empty_program_halts_at_time_zero():
    cfg = cfg_small()
    rep = run(Machine(cfg, empty_program(cfg)), {})
    assert rep.halted and rep.cycles == 0 and rep.steps == 0


def test_load_program_installs_sliced_weights():
    cfg = cfg_small()
    rng = np.random.default_rng(0)
    g = gr.ModelGraph()
    x = g.input("x", 4)
    w = rng.uniform(-0.5, 0.5, (4, 4))
    g.output("y", g.mvm(g.const_matrix(w), x))
    g.freeze()
    prog, _ = compile_model(g, cfg)
    m = Machine(cfg, container.loads(container.save(prog)))
    from xbarsim.crossbar import slice_weights
    want = slice_weights(fp.quantize(w), 4)
    installed = None
    for mvmus in m.mvmus.values():
        for s in mvmus:
            if s is not None:
                installed = s
    assert installed is not None
    for a, b in zip(installed.slices, want.slices):
        assert np.array_equal(a, b)


def test_machines_share_one_set_of_rom_tables():
    cfg = cfg_small(lut_bits=6)
    m1 = Machine(cfg, empty_program(cfg))
    m2 = Machine(cfg.with_overrides(seed=3), empty_program(cfg))
    assert m1.chip.luts is m2.chip.luts
    assert m1.chip.luts is fp.build_default_luts(cfg.frac_bits, 6)


def test_geometry_mismatch_rejected():
    cfg = cfg_small()
    prog = empty_program(cfg)
    other = cfg_small(tiles=1)
    with pytest.raises(GeometryError):
        Machine(other, prog)


def test_core_instruction_capacity_enforced():
    cfg = cfg_small()
    # 600 instructions > 4KB/7B = 585
    seg = container.Segment(0, 0, [isa.seti(16, 0)] * 600)
    with pytest.raises(CapacityError, match="585"):
        Machine(cfg, empty_program(cfg, [seg]))
    assert cfg.core_imem_capacity == 585


def test_tile_instruction_capacity_error_names_the_tile_unit():
    cfg = cfg_small(dmem_words=64, tile_imem_bytes=14)
    seg = container.Segment(0, container.TILE_UNIT, [isa.send(0, 0, 1, 1)] * 3)
    with pytest.raises(CapacityError, match=r"^tile 0 unit: 3 instructions "
                                            r"exceed capacity 2$"):
        Machine(cfg, empty_program(cfg, [seg]))


# ---------------------------------------------------------------------------
# Synchronization semantics (valid/count)
# ---------------------------------------------------------------------------

def _sync_machine(cfg, core0, core1=None, tile_prog=None, data=()):
    segs = [container.Segment(0, 0, core0)]
    if core1:
        segs.append(container.Segment(0, 1, core1))
    if tile_prog:
        segs.append(container.Segment(0, container.TILE_UNIT, tile_prog))
    prog = empty_program(cfg, segs)
    for d in data:
        prog.data.append(d)
    return Machine(cfg, prog)


def test_store_count_two_serves_two_loads_then_invalidates():
    cfg = cfg_small()
    rs = cfg.regspace()
    g0 = rs.general(0)
    core0 = [isa.seti(g0, 99), isa.store(100, g0, 2, 1),
             isa.load(rs.general(1), 100, 1)]
    core1 = [isa.load(rs.general(0), 100, 1)]
    m = _sync_machine(cfg, core0, core1)
    rep = run(m, {})
    assert rep.halted
    tile = m.tiles[0]
    assert tile.count[100] == 0
    assert m.cores[(0, 0)].regs[rs.general(1)] == 99
    assert m.cores[(0, 1)].regs[rs.general(0)] == 99


def test_load_blocks_until_store():
    cfg = cfg_small()
    rs = cfg.regspace()
    # core1 loads an address core0 stores late
    core0 = [isa.seti(rs.general(0), 7)] * 5 + [
        isa.seti(rs.general(1), 42), isa.store(50, rs.general(1), 1, 1)]
    core1 = [isa.load(rs.general(0), 50, 1)]
    m = _sync_machine(cfg, core0, core1)
    rep = run(m, {})
    assert rep.halted
    assert m.cores[(0, 1)].regs[rs.general(0)] == 42
    assert rep.blocked_ns[(0, 1)] > 0


def test_producer_restore_blocks_until_consumed():
    """Second store to a still-valid entry waits for the consumer."""
    cfg = cfg_small()
    rs = cfg.regspace()
    core0 = [isa.seti(rs.general(0), 1), isa.store(60, rs.general(0), 1, 1),
             isa.seti(rs.general(0), 2), isa.store(60, rs.general(0), 1, 1)]
    # consumer delays, then loads twice
    core1 = ([isa.seti(rs.general(5), 0)] * 8
             + [isa.load(rs.general(1), 60, 1),
                isa.load(rs.general(2), 60, 1)])
    m = _sync_machine(cfg, core0, core1)
    rep = run(m, {})
    assert rep.halted
    assert m.cores[(0, 1)].regs[rs.general(1)] == 1
    assert m.cores[(0, 1)].regs[rs.general(2)] == 2
    assert rep.blocked_ns[(0, 0)] > 0       # the re-store stalled


def test_a_drained_word_is_writable_when_its_read_completes():
    """The first load issues in the cycle that the re-store tries word 60,
    and drains it at its completion, 2 cycles on. The re-store waits until
    then whichever of the two the event loop takes first."""
    cfg = cfg_small()
    rs = cfg.regspace()
    g0, g5 = rs.general(0), rs.general(5)
    core0 = [isa.seti(g0, 1), isa.store(60, g0, 1, 1),
             isa.seti(g0, 2), isa.store(60, g0, 1, 1)]
    core1 = [isa.seti(g5, 0)] * 4 + [isa.load(rs.general(1), 60, 1),
                                     isa.seti(g5, 0), isa.seti(g5, 0),
                                     isa.load(rs.general(2), 60, 1)]
    reports = []
    for order_seed in (None, *range(10)):
        m = _sync_machine(cfg, core0, core1)
        rep = run(m, {}, order_seed=order_seed)
        assert rep.blocked_ns[(0, 0)] == 2 * cfg.cycle_ns
        regs = m.cores[(0, 1)].regs
        assert (regs[rs.general(1)], regs[rs.general(2)]) == (1, 2)
        reports.append(rep.to_dict())
    assert all(r == reports[0] for r in reports[1:])


def test_preloaded_data_counts():
    cfg = cfg_small()
    rs = cfg.regspace()
    core0 = [isa.load(rs.general(0), 10, 2)]
    data = [container.DataBlock(0, 10, 1, [111, -7])]
    m = _sync_machine(cfg, core0, data=data)
    rep = run(m, {})
    assert rep.halted
    assert m.cores[(0, 0)].regs[rs.general(0)] == 111
    assert m.cores[(0, 0)].regs[rs.general(1)] == -7
    assert m.tiles[0].count[10] == 0


# ---------------------------------------------------------------------------
# FIFOs and inter-tile transfer
# ---------------------------------------------------------------------------

def _two_tile_transfer(cfg, n_msgs=3, order_seed=None):
    rs = cfg.regspace()
    core0 = []
    tile0 = []
    core1 = []
    tile1 = []
    for k in range(n_msgs):
        core0 += [isa.seti(rs.general(0), 10 + k),
                  isa.store(k, rs.general(0), 1, 1)]
        tile0 += [isa.send(k, 0, 1, 1)]
        tile1 += [isa.recv(k, 0, 1, 1)]
        core1 += [isa.load(rs.general(k), k, 1)]
    prog = empty_program(cfg, [
        container.Segment(0, 0, core0),
        container.Segment(0, container.TILE_UNIT, tile0),
        container.Segment(1, 0, core1),
        container.Segment(1, container.TILE_UNIT, tile1),
    ])
    m = Machine(cfg, prog)
    rep = run(m, {}, order_seed=order_seed)
    vals = [int(m.cores[(1, 0)].regs[rs.general(k)]) for k in range(n_msgs)]
    return rep, vals


def test_send_receive_preserves_per_source_order():
    cfg = cfg_small()
    rep, vals = _two_tile_transfer(cfg)
    assert rep.halted
    assert vals == [10, 11, 12]


def test_report_dict_keys_blocked_time_by_actor_name():
    rep, _ = _two_tile_transfer(cfg_small())
    assert rep.to_dict()["blocked_ns"] == {
        "tile 0 unit": rep.blocked_ns[(0, container.TILE_UNIT)],
        "tile 1 unit": rep.blocked_ns[(1, container.TILE_UNIT)],
        "tile 1 core 0": rep.blocked_ns[(1, 0)]}


def test_fifo_order_under_randomized_interleavings():
    cfg = cfg_small()
    for seed in range(50):
        rep, vals = _two_tile_transfer(cfg, order_seed=seed)
        assert rep.halted and vals == [10, 11, 12]


def test_fifo_backpressure_blocks_sender():
    """depth-2 FIFO: a burst of 4 sends stalls until receives drain."""
    cfg = cfg_small()
    rs = cfg.regspace()
    core0 = []
    tile0 = []
    for k in range(4):
        core0 += [isa.seti(rs.general(0), k), isa.store(k, rs.general(0), 1, 1)]
        tile0 += [isa.send(k, 0, 1, 1)]
    # receiver delays a long time before the first receive
    core1 = [isa.seti(rs.general(7), 0)] * 40
    tile1 = [isa.recv(10 + k, 0, 1, 1) for k in range(4)]
    prog = empty_program(cfg, [
        container.Segment(0, 0, core0),
        container.Segment(0, container.TILE_UNIT, tile0),
        container.Segment(1, 0, core1),
        container.Segment(1, container.TILE_UNIT, tile1),
    ])
    m = Machine(cfg, prog)
    rep = run(m, {})
    assert rep.halted
    assert rep.blocked_ns[(0, container.TILE_UNIT)] > 0
    got = [int(m.tiles[1].data[10 + k]) for k in range(4)]
    assert got == [0, 1, 2, 3]


def test_a_fifo_slot_is_free_when_its_receive_completes():
    """The third send finds the depth-2 FIFO full in the cycle that the
    first receive issues, and takes the slot it frees at its completion, 2
    cycles on, whichever of the two the event loop takes first."""
    cfg = cfg_small()
    prog = empty_program(cfg, [
        container.Segment(0, container.TILE_UNIT, [
            isa.send(0, 0, 1, 1), isa.send(1, 0, 1, 8), isa.send(9, 0, 1, 1)]),
        container.Segment(1, container.TILE_UNIT, [
            isa.recv(10, 0, 1, 1), isa.recv(11, 0, 1, 8), isa.recv(19, 0, 1, 1)])])
    prog.data.append(container.DataBlock(0, 0, 1, range(10)))
    reports = []
    for order_seed in (None, *range(10)):
        m = Machine(cfg, prog)
        rep = run(m, {}, order_seed=order_seed)
        assert rep.blocked_ns[(0, container.TILE_UNIT)] == 2 * cfg.cycle_ns
        assert m.tiles[1].data[10:20].tolist() == list(range(10))
        reports.append(rep.to_dict())
    assert all(r == reports[0] for r in reports[1:])


def test_receive_on_empty_fifo_deadlocks_with_diagnosis():
    cfg = cfg_small()
    tile0 = [isa.recv(0, 0, 1, 1)]
    prog = empty_program(cfg, [container.Segment(0, container.TILE_UNIT, tile0)])
    rep = run(Machine(cfg, prog), {})
    assert not rep.halted and rep.deadlock
    assert any("fifo" in d for d in rep.diagnosis)


def test_receive_of_the_wrong_size_names_the_actor_and_pc():
    cfg = cfg_small()
    # the unit sends 2 words to its own tile, then receives them as 4
    prog = empty_program(cfg, [container.Segment(
        0, container.TILE_UNIT, [isa.send(0, 0, 0, 2), isa.recv(8, 0, 1, 4)])])
    prog.data.append(container.DataBlock(0, 0, 1, [5, 6]))
    with pytest.raises(SimError, match="^tile 0 unit pc 1: receive of 4 "
                                       "words got a 2-word message$"):
        run(Machine(cfg, prog), {})


@pytest.mark.parametrize("drain", [False, True])
def test_receive_waits_for_its_destination_words_to_drain(drain):
    """The message is in the FIFO, but word 8 still holds a value that one
    load must read first."""
    cfg = cfg_small()
    rs = cfg.regspace()
    core0 = [isa.seti(rs.general(0), 0)] * 40
    if drain:
        core0 += [isa.load(rs.general(1), 8, 1), isa.load(rs.general(2), 8, 1)]
    prog = empty_program(cfg, [
        container.Segment(0, container.TILE_UNIT,
                          [isa.send(0, 0, 0, 1), isa.recv(8, 0, 1, 1)]),
        container.Segment(0, 0, core0)])
    prog.data += [container.DataBlock(0, 0, 1, [5]),
                  container.DataBlock(0, 8, 1, [7])]
    m = Machine(cfg, prog)
    rep = run(m, {})
    if not drain:
        assert rep.deadlock and rep.diagnosis == [
            "tile 0 unit blocked at pc 1 on receive waiting on occupied "
            "word 8: 'receive 8, 0, 1, 1'"]
        return
    assert rep.halted and rep.blocked_ns[(0, container.TILE_UNIT)] > 0
    regs = m.cores[(0, 0)].regs
    assert (regs[rs.general(1)], regs[rs.general(2)]) == (7, 5)


def test_deadlocked_actor_counts_its_blocked_time():
    """A unit stuck on an empty FIFO is blocked until the run ends, while
    core 0 runs five more cycles."""
    cfg = cfg_small()
    rs = cfg.regspace()
    prog = empty_program(cfg, [
        container.Segment(0, container.TILE_UNIT, [isa.recv(0, 0, 1, 1)]),
        container.Segment(0, 0, [isa.seti(rs.general(0), 1)] * 5)])
    rep = run(Machine(cfg, prog), {})
    assert rep.deadlock
    assert rep.cycles == PIPELINE_FILL_CYCLES + 5
    assert rep.blocked_ns[(0, container.TILE_UNIT)] == 5 * cfg.cycle_ns > 0


def test_mutual_exchange_wrong_order_deadlocks():
    """Receive-before-send on both tiles: the cycle a global linearization
    would never emit. Both units report blocked receives."""
    cfg = cfg_small()
    rs = cfg.regspace()
    progs = []
    for t, other in ((0, 1), (1, 0)):
        core = [isa.seti(rs.general(0), t), isa.store(0, rs.general(0), 1, 1)]
        unit = [isa.recv(1, 0, 1, 1), isa.send(0, 0, other, 1)]
        progs.append(container.Segment(t, 0, core))
        progs.append(container.Segment(t, container.TILE_UNIT, unit))
    rep = run(Machine(cfg_small(), empty_program(cfg, progs)), {})
    assert rep.deadlock and not rep.halted
    blocked_units = [d for d in rep.diagnosis if "unit blocked" in d]
    assert len(blocked_units) == 2
    assert all("receive" in d for d in blocked_units)


def test_fixed_order_exchange_terminates():
    """The same exchange with sends first (a valid global order) runs."""
    cfg = cfg_small()
    rs = cfg.regspace()
    progs = []
    for t, other in ((0, 1), (1, 0)):
        core = [isa.seti(rs.general(0), 40 + t),
                isa.store(0, rs.general(0), 1, 1)]
        unit = [isa.send(0, 0, other, 1), isa.recv(1, 0, 1, 1)]
        progs.append(container.Segment(t, 0, core))
        progs.append(container.Segment(t, container.TILE_UNIT, unit))
    m = Machine(cfg, empty_program(cfg, progs))
    rep = run(m, {})
    assert rep.halted
    assert int(m.tiles[0].data[1]) == 41
    assert int(m.tiles[1].data[1]) == 40


def test_step_limit_reports_blocked_state():
    cfg = cfg_small()
    rs = cfg.regspace()
    # infinite loop on core 0 plus a blocked load on core 1
    core0 = [isa.seti(rs.general(0), 0), isa.jmp(0)]
    core1 = [isa.load(rs.general(0), 99, 1)]
    m = _sync_machine(cfg, core0, core1)
    rep = run(m, {}, step_limit=500)
    assert rep.step_limit_hit and not rep.halted
    assert any("load" in d for d in rep.diagnosis)


# ---------------------------------------------------------------------------
# MVM unit semantics
# ---------------------------------------------------------------------------

def _mvm_machine(cfg, w_list, core_prog, patterns=()):
    prog = empty_program(cfg, [container.Segment(0, 0, core_prog)])
    for u, w in enumerate(w_list):
        prog.weights.append(container.WeightBlock(
            0, 0, u, [[int(v) for v in row] for row in w]))
    for p in patterns:
        prog.patterns.append(p)
    return Machine(cfg, prog)


def test_masked_mvmus_fire_in_one_mvm_latency():
    cfg = cfg_small()
    rs = cfg.regspace()
    w = fp.quantize(np.eye(4) * 0.5)
    fills = [isa.seti(rs.xbar_in(0, k), fp.quantize(0.25)) for k in range(4)]
    fills += [isa.seti(rs.xbar_in(1, k), fp.quantize(0.125)) for k in range(4)]
    both = fills + [isa.mvm(0b11)]
    m = _mvm_machine(cfg, [w, w], both)
    rep = run(m, {})
    assert rep.halted
    assert rep.instr_cycles["mvm"] == cfg.mvm_cycles      # one latency
    assert rep.instr_dynamic["mvm"] == 1
    out0 = m.cores[(0, 0)].regs[rs.xbar_out(0):rs.xbar_out(0) + 4]
    out1 = m.cores[(0, 0)].regs[rs.xbar_out(1):rs.xbar_out(1) + 4]
    assert out0.tolist() == [fp.quantize(0.125)] * 4
    assert out1.tolist() == [fp.quantize(0.0625)] * 4
    # energy: one activation per masked MVMU
    assert rep.energy_nj["mvmu"] == pytest.approx(2 * cfg.mvm_nj_per_mvmu)


def test_identity_shuffle_equals_unshuffled():
    cfg = cfg_small()
    rs = cfg.regspace()
    w = fp.quantize(np.arange(16).reshape(4, 4) / 32.0)
    fills = [isa.seti(rs.xbar_in(0, k), fp.quantize(0.1) + k) for k in range(4)]
    ident = container.ShufflePattern(0, 0, 0, 1, [0, 1, 2, 3])
    m1 = _mvm_machine(cfg, [w], fills + [isa.mvm(0b01, filter=1)], [ident])
    m2 = _mvm_machine(cfg, [w], fills + [isa.mvm(0b01)])
    r1, r2 = run(m1, {}), run(m2, {})
    assert r1.halted and r2.halted
    a = m1.cores[(0, 0)].regs[rs.xbar_out(0):rs.xbar_out(0) + 4]
    b = m2.cores[(0, 0)].regs[rs.xbar_out(0):rs.xbar_out(0) + 4]
    assert a.tolist() == b.tolist()


def test_rotation_shuffle_equals_physical_rotation():
    """Pattern-routed MVM == explicitly rotating XbarIn then identity."""
    cfg = cfg_small()
    rs = cfg.regspace()
    rng = np.random.default_rng(3)
    w = rng.integers(-2000, 2000, size=(4, 4))
    x = [fp.quantize(v) for v in (0.1, -0.2, 0.3, -0.4)]
    perm = [1, 2, 3, 0]    # DAC row r reads slot (r+1) mod 4
    pat = container.ShufflePattern(0, 0, 0, 1, perm)
    fills = [isa.seti(rs.xbar_in(0, k), xv & 0xFFF) for k, xv in enumerate(x)]
    # 12-bit set immediates cannot carry negatives; use small positives
    x = [100, 200, 300, 400]
    fills = [isa.seti(rs.xbar_in(0, k), x[k]) for k in range(4)]
    m1 = _mvm_machine(cfg, [w], fills + [isa.mvm(0b01, filter=1)], [pat])
    rotated = [x[perm[r]] for r in range(4)]
    fills2 = [isa.seti(rs.xbar_in(0, k), rotated[k]) for k in range(4)]
    m2 = _mvm_machine(cfg, [w], fills2 + [isa.mvm(0b01)])
    r1, r2 = run(m1, {}), run(m2, {})
    a = m1.cores[(0, 0)].regs[rs.xbar_out(0):rs.xbar_out(0) + 4]
    b = m2.cores[(0, 0)].regs[rs.xbar_out(0):rs.xbar_out(0) + 4]
    assert a.tolist() == b.tolist()


def test_class_access_rules_enforced():
    cfg = cfg_small()
    rs = cfg.regspace()
    # copy reading XbarIn is illegal; copy writing XbarOut is illegal; both
    # are found when the machine is configured
    with pytest.raises(SimError, match="tile 0 core 0 pc 0: .* reads XbarIn"):
        _sync_machine(cfg, [isa.copy(rs.general(0), rs.xbar_in(0), 1)])
    with pytest.raises(SimError, match="tile 0 core 0 pc 1: .* writes XbarOut"):
        _sync_machine(cfg, [isa.seti(rs.general(0), 1),
                            isa.copy(rs.xbar_out(0), rs.general(0), 1)])


# ---------------------------------------------------------------------------
# ROM-embedded register file
# ---------------------------------------------------------------------------

def test_rom_reads_preserve_ram_contents():
    cfg = cfg_small()
    rs = cfg.regspace()
    g = rs.general
    # loads fill XbarIn and the general registers; only an mvm writes XbarOut
    pattern = np.arange(rs.total) % 97 + 1
    pattern[rs.xbar_out_base:rs.general_base] = 0
    data = [container.DataBlock(0, 0, 1, pattern[:rs.xbar_out_base].tolist()),
            container.DataBlock(0, 100, 1, pattern[g(0):].tolist())]
    m = _sync_machine(cfg, [isa.load(0, 0, rs.xbar_out_base),
                            isa.load(g(0), 100, rs.general_regs)]
                      + [isa.alu("sigmoid", g(3), g(0), 0, 3)] * 100,
                      data=data)
    rep = run(m, {})
    assert rep.mode_switches == 100
    # only the destination words change
    regs = m.cores[(0, 0)].regs
    dest = np.zeros(rs.total, dtype=bool)
    dest[g(3):g(6)] = True
    assert not np.array_equal(regs[dest], pattern[dest])
    assert np.array_equal(regs[~dest], pattern[~dest])


def test_ram_writes_interleaved_with_rom_reads_last_writer_wins():
    cfg = cfg_small()
    g = cfg.regspace().general
    m = _sync_machine(cfg, [isa.seti(g(5), 11),
                            isa.alu("tanh", g(6), g(0), 0, 1),
                            isa.seti(g(5), 22),
                            isa.alu("tanh", g(6), g(5), 0, 1)])
    run(m, {})
    assert m.cores[(0, 0)].regs[g(5)] == 22


def test_mode_switch_counted_in_report():
    cfg = cfg_small()
    rs = cfg.regspace()
    prog = [isa.seti(rs.general(0), 100),
            isa.alu("sigmoid", rs.general(4), rs.general(0), 0, 1),
            isa.alu("tanh", rs.general(5), rs.general(0), 0, 1),
            isa.alu("add", rs.general(6), rs.general(4), rs.general(5), 1)]
    rep = run(_sync_machine(cfg, prog), {})
    assert rep.halted
    assert rep.mode_switches == 2


# ---------------------------------------------------------------------------
# Timing and energy model
# ---------------------------------------------------------------------------

def test_vfu_temporal_simd_timing():
    rs = MachineConfig().regspace()
    for lanes, want in ((1, 128), (4, 32)):
        cfg = MachineConfig(tiles=1, vfu_lanes=lanes)
        prog = [isa.alu("add", rs.general(128), rs.general(128),
                        rs.general(128), 128)]
        # define the operand range first so liveness holds
        prog.insert(0, isa.seti(rs.general(128), 1))
        m = Machine(cfg, empty_program(cfg, [container.Segment(0, 0, prog)]))
        # widen the set: write the full range via copy chain is overkill;
        # registers default to zero which is a defined value here
        rep = run(m, {})
        assert rep.halted
        assert rep.instr_cycles["alu"] == 1 + want


def test_latency_additivity_with_pipeline_fill():
    cfg = cfg_small()
    rs = cfg.regspace()
    one = run(_sync_machine(cfg, [isa.seti(rs.general(0), 1)]), {})
    two = run(_sync_machine(cfg_small(), [isa.seti(rs.general(0), 1),
                                          isa.copy(rs.general(1), rs.general(0), 4)]), {})
    lat_set = one.cycles - PIPELINE_FILL_CYCLES
    assert lat_set == 1
    assert two.cycles == PIPELINE_FILL_CYCLES + 1 + (1 + 4)


def test_energy_report_balances():
    g, inputs = models.mlp_model(8)
    cfg = cfg_small(xbar_dim=8, tiles=1, dmem_words=512)
    prog, _ = compile_model(g, cfg)
    rep = run(Machine(cfg, prog), inputs)
    assert rep.halted
    assert rep.energy_total_nj == pytest.approx(sum(rep.energy_nj.values()))
    assert rep.energy_nj["mvmu"] == pytest.approx(
        rep.instr_dynamic["mvm"] * cfg.mvm_nj_per_mvmu)


def test_determinism_same_seed_identical_reports():
    g, inputs = models.mlp_model(12)
    cfg = cfg_small(tiles=5, dmem_words=1024)
    prog, _ = compile_model(g, cfg)
    reps = [run(Machine(cfg, prog), inputs, order_seed=9).to_dict()
            for _ in range(2)]
    assert reps[0] == reps[1]


def test_noise_seed_determinism_through_machine():
    g, inputs = models.mlp_model(8)
    cfg = cfg_small(xbar_dim=8, tiles=1, noise_sigma=0.05, seed=33,
                    dmem_words=512)
    prog, _ = compile_model(g, cfg)
    a = run(Machine(cfg, prog), inputs)
    b = run(Machine(cfg, prog), inputs)
    assert a.outputs["y"].tolist() == b.outputs["y"].tolist()
    cfg2 = cfg.with_overrides(seed=34)
    c = run(Machine(cfg2, prog), inputs)
    assert a.outputs["y"].tolist() != c.outputs["y"].tolist()


def test_missing_input_is_an_error_before_simulation():
    g, inputs = models.mlp_model(8)
    cfg = cfg_small(xbar_dim=8, tiles=1, dmem_words=512)
    prog, _ = compile_model(g, cfg)
    with pytest.raises(SimError, match="missing value"):
        run(Machine(cfg, prog), {})


@pytest.mark.parametrize("words, message", [
    (4, r"^input 'x' too short: need 8 words$"),
    (10, r"^input 'x' has 10 words, program binds 8$"),
], ids=["short", "long"])
def test_an_input_of_the_wrong_length_is_an_error(words, message):
    g, _ = models.mlp_model(8)
    cfg = cfg_small(xbar_dim=8, tiles=1, dmem_words=512)
    prog, _ = compile_model(g, cfg)
    with pytest.raises(SimError, match=message):
        run(Machine(cfg, prog), {"x": np.zeros(words, dtype=np.int64)})
