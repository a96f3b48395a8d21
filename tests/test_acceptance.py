"""Acceptance suite: every shipped behavior check at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import random
import time

import numpy as np
import pytest

from xbarsim import container, crossbar as xb, fixedpoint as fp
from xbarsim import graph as gr, isa, models, schedule
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run

from test_isa import random_well_formed
from test_schedule import random_fanjoin_dag


def _ok(n, text):
    print(f"criterion {n:2d} PASS: {text}")


EXAMPLE_SET = ("mlp4", "mlp128", "mlp256", "lstm8", "lstm128", "conv8x8",
               "cnn_small")


def _compile_run(name, **opt_kw):
    g, inputs = models.build_example(name)
    cfg = models.default_config_for(name)
    opts = CompileOptions(**opt_kw) if opt_kw else None
    prog, crep = compile_model(g, cfg, opts)
    rep = run(Machine(cfg, prog), inputs, step_limit=5_000_000)
    return g, cfg, inputs, prog, crep, rep


def test_criterion_1_functional_equivalence_bit_exact():
    """compile -> simulate == reference interpreter, 0 ULP, < 60 s/model."""
    for name in EXAMPLE_SET:
        t0 = time.time()
        g, cfg, inputs, _, _, rep = _compile_run(name)
        assert rep.halted, f"{name} did not halt"
        want = gr.evaluate(g, inputs, xbar_dim=cfg.xbar_dim)
        for out_name, vec in want.items():
            got = rep.outputs[out_name]
            assert vec.tolist() == got.tolist(), \
                f"{name}:{out_name} differs from the interpreter"
        elapsed = time.time() - t0
        assert elapsed < 60, f"{name} took {elapsed:.1f}s"
    _ok(1, f"{len(EXAMPLE_SET)} example models bit-exact vs interpreter")


def test_criterion_2_mvm_numeric_anchor():
    """One 128x128 MVM instruction: exactly 2304 ns and 43.97 nJ."""
    rng = np.random.default_rng(0)
    g = gr.ModelGraph()
    x = g.input("x", 128)
    g.output("y", g.mvm(g.const_matrix(rng.uniform(-0.4, 0.4, (128, 128))), x))
    g.freeze()
    cfg = MachineConfig(tiles=1)
    prog, _ = compile_model(g, cfg)
    inputs = {"x": fp.quantize(rng.uniform(-1, 1, 128))}
    rep = run(Machine(cfg, prog), inputs)
    assert rep.instr_dynamic["mvm"] == 1
    mvm_ns = rep.instr_cycles["mvm"] * cfg.cycle_ns
    assert mvm_ns == 2304.0
    assert rep.energy_nj["mvmu"] == 43.97
    _ok(2, "128x128 MVM = 2304 ns and 43.97 nJ exactly")


def test_criterion_3_coalescing_latency_ratio():
    """Pure-MVM pair: coalesced/uncoalesced MVM-phase = 0.50 +- 0.02;
    small-CNN full latency ratio < 1.0."""
    g, inputs = models.pure_mvm_kernel()
    cfg = models.default_config_for("mvm_pair")
    on, crep_on = compile_model(g, cfg)
    off, crep_off = compile_model(g, cfg, CompileOptions(coalesce=False))
    rep_on = run(Machine(cfg, on), inputs)
    rep_off = run(Machine(cfg, off), inputs)
    ratio = rep_on.instr_cycles["mvm"] / rep_off.instr_cycles["mvm"]
    assert abs(ratio - 0.50) <= 0.02, ratio
    assert crep_on.coalesce_groups == 1 and crep_off.coalesce_groups == 0

    g2, ins2 = models.cnn_small()
    cfg2 = models.default_config_for("cnn_small")
    p1, _ = compile_model(g2, cfg2)
    p2, _ = compile_model(g2, cfg2, CompileOptions(coalesce=False))
    r1 = run(Machine(cfg2, p1), ins2, step_limit=5_000_000)
    r2 = run(Machine(cfg2, p2), ins2, step_limit=5_000_000)
    cnn_ratio = r1.latency_ns / r2.latency_ns
    assert r1.halted and r2.halted and cnn_ratio < 1.0
    want = gr.evaluate(g2, ins2, cfg2.xbar_dim)
    assert all(want[k].tolist() == r1.outputs[k].tolist() for k in want)
    _ok(3, f"MVM-phase ratio {ratio:.3f}; small-CNN ratio {cnn_ratio:.3f}")


def test_criterion_4_spill_statistics():
    """MLP/LSTM examples: 0% dynamic spill accesses; conv: >= 0% and
    interpreter-equivalent."""
    for name in ("mlp4", "mlp128", "mlp256", "lstm8", "lstm128"):
        _, _, _, _, crep, rep = _compile_run(name)
        assert crep.spill_count == 0, name
        assert rep.spill_access_pct == 0.0, name
    for name in ("conv8x8", "cnn_small"):
        g, cfg, inputs, _, _, rep = _compile_run(name)
        assert rep.spill_access_pct >= 0.0
        want = gr.evaluate(g, inputs, xbar_dim=cfg.xbar_dim)
        assert all(want[k].tolist() == rep.outputs[k].tolist() for k in want)
    _ok(4, "0% spilled accesses on MLP/LSTM; conv >= 0% and equivalent")


def _random_small_model(rng):
    g = gr.ModelGraph()
    n = int(rng.integers(4, 13))
    h = g.input("x", n)
    budget = 8   # MVMUs on the 2-tile x 2-core x 2-MVMU machine
    for _ in range(int(rng.integers(1, 4))):
        m = int(rng.integers(2, 13))
        need = -(-h.length // 8) * -(-m // 8)
        if need > budget:
            break
        budget -= need
        w = rng.uniform(-0.4, 0.4, size=(h.length, m))
        b = rng.uniform(-0.2, 0.2, size=m) if rng.random() < 0.5 else None
        f = ["sigmoid", "tanh", "relu", None][int(rng.integers(0, 4))]
        from xbarsim.layers import mlp_layer
        h = mlp_layer(g, h, w, b, f)
    g.output("y", h)
    g.freeze()
    return g, {"x": fp.quantize(rng.uniform(-1, 1, n))}


def test_criterion_5_deadlock_freedom_and_detection():
    """100 randomized models on 2 tiles x 2 cores all terminate; the
    hand-built mutual-exchange counterexample deadlocks with diagnosis."""
    rng = np.random.default_rng(2024)
    cfg = MachineConfig(xbar_dim=8, mvmus_per_core=2, cores_per_tile=2,
                        tiles=2, dmem_words=2048)
    for trial in range(100):
        g, inputs = _random_small_model(rng)
        opts = CompileOptions(naive_partition=bool(trial % 2), seed=trial)
        prog, _ = compile_model(g, cfg, opts)
        rep = run(Machine(cfg, prog), inputs, step_limit=200_000)
        assert rep.halted, f"trial {trial} stalled: {rep.diagnosis}"
        want = gr.evaluate(g, inputs, xbar_dim=cfg.xbar_dim)
        assert want["y"].tolist() == rep.outputs["y"].tolist(), trial

    # receive-before-send on both tiles: the cycle global linearization
    # prevents; it must deadlock and be diagnosed on both tile units
    rs = cfg.regspace()
    prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core,
                             cfg.cores_per_tile, cfg.tiles, cfg.frac_bits)
    for t, other in ((0, 1), (1, 0)):
        prog.segments.append(container.Segment(t, 0, [
            isa.seti(rs.general(0), t), isa.store(0, rs.general(0), 1, 1)]))
        prog.segments.append(container.Segment(t, container.TILE_UNIT, [
            isa.recv(1, 0, 1, 1), isa.send(0, 0, other, 1)]))
    rep = run(Machine(cfg, prog), {}, step_limit=100_000)
    assert rep.deadlock and not rep.halted
    unit_blocks = [d for d in rep.diagnosis if "unit blocked" in d]
    assert len(unit_blocks) == 2 and all("receive" in d for d in unit_blocks)
    _ok(5, "100 random models terminate; mutual exchange deadlocks, diagnosed")


def test_criterion_6_store_count_synchronization():
    """store(count=k) drains after exactly k loads; early re-store blocks."""
    cfg = MachineConfig(xbar_dim=4, mvmus_per_core=2, cores_per_tile=4,
                        tiles=1, dmem_words=256)
    rs = cfg.regspace()
    k = 3
    segs = [container.Segment(0, 0, [
        isa.seti(rs.general(0), 77), isa.store(100, rs.general(0), k, 1),
        isa.seti(rs.general(1), 88), isa.store(100, rs.general(1), 1, 1)])]
    for c in range(1, 1 + k):
        delay = [isa.seti(rs.general(9), 0)] * (2 * c)
        segs.append(container.Segment(0, c, delay + [
            isa.load(rs.general(2), 100, 1)]))
    prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core,
                             cfg.cores_per_tile, cfg.tiles, cfg.frac_bits)
    prog.segments.extend(segs)
    m = Machine(cfg, prog)
    rep = run(m, {})
    assert rep.halted
    # all three consumers read the first value; the re-store waited
    for c in range(1, 1 + k):
        assert int(m.cores[(0, c)].regs[rs.general(2)]) == 77
    assert rep.blocked_ns[(0, 0)] > 0
    assert int(m.tiles[0].data[100]) == 88
    assert m.tiles[0].count[100] == 1   # second value still unconsumed
    _ok(6, f"entry invalidated after exactly {k} loads; re-store blocked")


def test_criterion_7_fifo_per_source_ordering():
    """1e3 seeded interleavings: per-source receive order == send order."""
    cfg = MachineConfig(xbar_dim=4, mvmus_per_core=2, cores_per_tile=2,
                        tiles=3, dmem_words=256)
    rs = cfg.regspace()
    n_msgs = 4

    def build():
        prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core,
                                 cfg.cores_per_tile, cfg.tiles, cfg.frac_bits)
        for src in (0, 1):
            core = []
            unit = []
            for k in range(n_msgs):
                core += [isa.seti(rs.general(0), 100 * (src + 1) + k),
                         isa.store(k, rs.general(0), 1, 1)]
                unit += [isa.send(k, src, 2, 1)]
            prog.segments.append(container.Segment(src, 0, core))
            prog.segments.append(container.Segment(src, container.TILE_UNIT,
                                                   unit))
        unit2 = []
        for k in range(n_msgs):   # interleave receives across sources
            unit2.append(isa.recv(10 + k, 0, 1, 1))
            unit2.append(isa.recv(20 + k, 1, 1, 1))
        prog.segments.append(container.Segment(2, container.TILE_UNIT, unit2))
        return prog

    for seed in range(1000):
        m = Machine(cfg, build())
        rep = run(m, {}, order_seed=seed)
        assert rep.halted, rep.diagnosis
        got0 = [int(m.tiles[2].data[10 + k]) for k in range(n_msgs)]
        got1 = [int(m.tiles[2].data[20 + k]) for k in range(n_msgs)]
        assert got0 == [100 + k for k in range(n_msgs)], (seed, got0)
        assert got1 == [200 + k for k in range(n_msgs)], (seed, got1)
    _ok(7, "per-source order preserved over 1000 seeded interleavings")


def test_criterion_8_slicing_and_lut_oracles():
    """Exhaustive 2^16 slice/reconstruct identity; exhaustive LUT error
    within the bound derived at table build."""
    all_raws = np.arange(fp.RAW_MIN, fp.RAW_MAX + 1, dtype=np.int64)
    for block in all_raws.reshape(4, 128, 128):
        m = xb.slice_weights(block)
        assert np.array_equal(m.reconstruct_raw(), block)
    worst = {}
    for name in ("sigmoid", "tanh", "exp", "log"):
        t = fp.LutTable(name)
        lo = max(int(np.ceil(t.lo * 4096)), fp.RAW_MIN)
        hi = min(int(np.floor(t.hi * 4096)), fp.RAW_MAX)
        raws = np.arange(lo, hi + 1)
        got = t.lookup(raws) / 4096.0
        exact = fp.LUT_FUNCTIONS[name](raws / 4096.0)
        err = float(np.max(np.abs(got - exact)))
        assert err <= t.error_bound(), name
        worst[name] = err
    _ok(8, "2^16 slice round trip exact; LUT errors "
           + ", ".join(f"{k}={v:.4f}" for k, v in worst.items()))


def test_criterion_9_isa_codec_round_trip():
    """1e5 random instructions round-trip; all 12 mnemonics assemble and
    disassemble to themselves."""
    rng = random.Random(99)
    for _ in range(100_000):
        i = random_well_formed(rng)
        assert isa.decode(isa.encode(i)) == i
    for mnem in isa.OPCODES:
        i = next(j for j in iter(lambda: random_well_formed(rng), None)
                 if j.op == mnem)
        text = isa.disassemble_one(i)
        assert isa.assemble_one(text) == i
        assert isa.disassemble_one(isa.assemble_one(text)) == text
    _ok(9, "1e5 codec round trips; 12/12 mnemonics assemble/disassemble")


def test_criterion_10_design_space_directionality():
    """vfu_lanes 1 -> 4 strictly reduces latency on a vector-bound kernel;
    registers below the working set strictly increase spill count."""
    g, inputs = models.vector_kernel()
    lat = []
    for lanes in (1, 2, 4):
        cfg = MachineConfig(tiles=1, vfu_lanes=lanes)
        prog, _ = compile_model(g, cfg)
        rep = run(Machine(cfg, prog), inputs)
        assert rep.halted
        lat.append(rep.latency_ns)
    assert lat[0] > lat[1] > lat[2], lat

    from test_regalloc import _crossing_model
    gc, _ = _crossing_model()
    spills = []
    for general in (128, 48, 32, 25):
        cfg = MachineConfig(xbar_dim=8, mvmus_per_core=2, cores_per_tile=1,
                            tiles=1, register_size=general, dmem_words=2048)
        _, crep = compile_model(gc, cfg)
        spills.append(crep.spill_count)
    assert spills[0] == 0
    assert spills[1] > 0 and spills[1] < spills[2] < spills[3], spills
    _ok(10, f"latency {lat} strictly down with lanes; spills {spills} "
            f"strictly up below the working set")


def test_criterion_11_noise_precision_directionality():
    """At matched write noise, 4 bits/device loses classification accuracy
    before 2 bits/device (directional)."""
    g, pts, labels = models.trained_tiny_classifier()
    base = MachineConfig(tiles=1)
    prog_clean, _ = compile_model(g, base)
    outs = [run(Machine(base, prog_clean), p).outputs["y"] for p in pts]
    clean = models.classifier_accuracy(outs, labels)
    assert clean >= 0.95

    def accuracy(bits, sigma):
        accs = []
        for seed in (11, 12, 13):
            cfg = MachineConfig(tiles=1, bits_per_device=bits,
                                noise_sigma=sigma, seed=seed)
            prog, _ = compile_model(g, cfg)
            outs = [run(Machine(cfg, prog), p).outputs["y"] for p in pts]
            accs.append(models.classifier_accuracy(outs, labels))
        return float(np.mean(accs))

    grid = (0.005, 0.0075, 0.011, 0.017, 0.025, 0.038, 0.057)
    cutoff = 0.9 * clean

    def threshold(bits):
        for s in grid:
            if accuracy(bits, s) < cutoff:
                return s
        return float("inf")

    t4 = threshold(4)
    t2 = threshold(2)
    assert t4 < t2, (t4, t2)
    _ok(11, f"accuracy breaks at sigma {t4} (4b) vs {t2} (2b)")


def test_criterion_12_rpo_register_pressure():
    """Diamond + 1e3 random DAGs: RPO max-live <= naive baseline."""
    preds = [set(), {0}, {0}, {1, 2}]
    succs = [{1, 2}, {3}, {3}, set()]
    ids = [0, 1, 2, 3]
    rpo_order = schedule._rpo_order(ids, preds, succs)
    assert rpo_order.index(3) == 3   # joined right after both parents
    d_rpo = schedule.max_live(rpo_order, preds, succs)
    d_naive = schedule.max_live(schedule._kahn_fifo(ids, preds, succs),
                                preds, succs)
    assert d_rpo == 2 and d_rpo <= d_naive

    rng = np.random.default_rng(7)
    for _ in range(1000):
        ids, preds, succs = random_fanjoin_dag(rng, int(rng.integers(5, 80)))
        r = schedule.max_live(schedule._rpo_order(ids, preds, succs),
                              preds, succs)
        k = schedule.max_live(schedule._kahn_fifo(ids, preds, succs),
                              preds, succs)
        assert r <= k
    _ok(12, "RPO max-live <= naive on the diamond and 1000 random DAGs")
