"""Shared weights spread over idle crossbars: `partition.place` copies a
matrix whose uses are independent onto the machine's spare MVMUs where a
copy cuts an MVM round, and loop mode fires k copies per iteration. Every
compiled case runs bit-exact against `graph.evaluate`."""

from collections import Counter

import numpy as np
import pytest

from xbarsim import compiler, graph as gr, models, partition
from xbarsim.compiler import CompileError, CompileOptions, compile_model
from xbarsim.isa import fired_mvmus
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run

from test_fuzz import make_shared_case


def _compiled(g, inputs, cfg, opts=None):
    """The program, after checking its run bit-exact."""
    prog, _ = compile_model(g, cfg, opts)
    rep = run(Machine(cfg, prog), inputs)
    assert rep.halted
    want = gr.evaluate(g, inputs, xbar_dim=cfg.xbar_dim)
    assert {k: v.tolist() for k, v in rep.outputs.items()} == \
        {k: v.tolist() for k, v in want.items()}
    return prog


def _ops(prog):
    return {i.op for s in prog.segments for i in s.instrs}


def test_conv8x8_spreads_its_weights_over_both_tiles_in_two_rounds():
    # 36 windows: 16 copies on tile 0 would take 3 rounds, 18 take 2
    g, inputs = models.build_example("conv8x8")
    cfg = models.default_config_for("conv8x8")
    prog = _compiled(g, inputs, cfg)
    assert len(prog.weights) == 18
    assert {w.tile for w in prog.weights} == {0, 1}
    rounds = Counter((s.tile, s.core, u) for s in prog.segments
                     for i in s.instrs if i.op == "mvm"
                     for u in fired_mvmus(i, cfg.mvmus_per_core))
    assert max(rounds.values()) == 2


def test_a_4_window_conv_on_2_tiles_opens_no_tile():
    g, inputs = models.conv_model(side=4, filters=2, pixel_outputs=True)
    prog = _compiled(g, inputs, MachineConfig(tiles=2))
    assert len(prog.weights) == 4
    assert {w.tile for w in prog.weights} == {0}
    assert not _ops(prog) & {"send", "receive"}


def test_a_chain_through_one_matrix_keeps_one_copy():
    rng = np.random.default_rng(7)
    g = gr.ModelGraph()
    w = g.const_matrix(rng.uniform(-0.4, 0.4, (8, 8)))
    g.output("y", g.mvm(w, g.mvm(w, g.input("x", 8))))
    g.freeze()
    cfg = MachineConfig(xbar_dim=8, tiles=2, cores_per_tile=2)
    prog = _compiled(g, {"x": rng.integers(-4096, 4096, 8)}, cfg)
    assert len(prog.weights) == 1


def test_conv_loop_fires_two_copies_per_iteration():
    g, inputs = models.build_example("conv_loop")
    prog = _compiled(g, inputs, models.default_config_for("conv_loop"),
                     CompileOptions(conv_loop=True))
    [body] = [s.instrs for s in prog.segments if (s.tile, s.core) == (0, 1)]
    assert [i.sub for i in body if i.op == "mvm"] == [0b11]
    # 4 windows, 2 per group, over cores 1 and 3: each counter runs to 1,
    # the third set is its limit
    assert [i.b for i in body if i.op == "set"][2] == 4 // 2 // 2
    assert sorted((w.core, w.mvmu) for w in prog.weights) == [
        (1, 0), (1, 1), (3, 0), (3, 1)]


def test_a_model_that_fills_every_mvmu_gets_no_copy():
    # 9 window rows span two 8-row crossbars: the matrix fills the core
    g, inputs = models.conv_model(side=4, filters=2, pixel_outputs=True)
    cfg = MachineConfig(xbar_dim=8, tiles=1, cores_per_tile=1)
    prog = _compiled(g, inputs, cfg)
    assert len(prog.weights) == 2
    assert [i.sub for s in prog.segments for i in s.instrs
            if i.op == "mvm"] == [0b11] * 4


def _copies(uses, cfg):
    """Place one 4x4 matrix per entry of uses, used that many times, on
    cfg: the matrix tile of each use, by matrix."""
    rng = np.random.default_rng(8)
    g = gr.ModelGraph()
    x = g.input("x", 4)
    ws = [g.const_matrix(rng.uniform(-0.4, 0.4, (4, 4))) for _ in uses]
    for m, (w, n) in enumerate(zip(ws, uses)):
        for k in range(n):
            g.output(f"m{m}_{k}", g.mvm(w, g.alu_imm("add", x, k)))
    g.freeze()
    tg = partition.tile_tensors(g, 4)
    partition.place(tg, cfg)
    tile_of = {n.orig: n.matrix for n in tg.tnodes if n.kind == "mvm"}
    return [[tile_of[n.id] for n in g.nodes
             if n.kind == "mvm" and n.inputs[0] == w.id] for w in ws]


def test_a_copy_is_made_only_where_it_cuts_a_round():
    # 5 uses over 4 MVMUs: 3 copies take 2 rounds, and so would 4, so the
    # fourth MVMU stays idle; the uses run in graph order: 2, 2, 1
    [a] = _copies([5], MachineConfig(xbar_dim=4, tiles=2, cores_per_tile=1,
                                     mvmus_per_core=2))
    assert [a.count(t) for t in dict.fromkeys(a)] == [2, 2, 1]


def test_copies_go_to_the_longest_run_that_fits_ties_to_the_lowest_id():
    # a (4 uses) gets a copy first, then runs 2 long, as b (2 uses) does:
    # on 5 MVMUs a's 2 further copies fit and a has the lower id; on 4
    # only b's one fits
    for mvmus, want in ((5, [4, 1]), (4, [2, 2])):
        got = _copies([4, 2], MachineConfig(xbar_dim=4, tiles=1,
                                            cores_per_tile=mvmus,
                                            mvmus_per_core=1))
        assert [len(set(uses)) for uses in got] == want, mvmus


def test_a_24x24_conv_on_4_tiles_runs_in_under_25_us():
    # 484 windows over 16 copies on tile 0 alone took 73 us, with up to
    # 428 instructions on one core
    g, inputs = models.conv_model(side=24, filters=4, pixel_outputs=True)
    cfg = MachineConfig(tiles=4)
    prog = _compiled(g, inputs, cfg)
    assert run(Machine(cfg, prog), inputs).latency_ns < 25_000
    assert {w.tile for w in prog.weights} == {0, 1, 2, 3}
    assert max(len(s.instrs) for s in prog.segments) <= cfg.core_imem_capacity


def _count_places(monkeypatch):
    calls = []
    real = compiler.place
    monkeypatch.setattr(compiler, "place",
                        lambda *a: calls.append(a) or real(*a))
    return calls


def test_a_model_whose_copies_spill_compiles_once_with_them(monkeypatch):
    # spread over three one-MVMU cores, this fuzz model's concatenated
    # output leaves core 2 short of registers, so its allocation spills
    calls = _count_places(monkeypatch)
    g, inputs, cfg, opts = make_shared_case(252)
    prog = _compiled(g, inputs, cfg, opts)
    assert len(calls) == 1
    assert len(prog.weights) == 3


def test_a_refused_shared_weights_model_compiles_once(monkeypatch):
    calls = _count_places(monkeypatch)
    g, _ = models.conv_model(side=4, filters=2, pixel_outputs=True)
    cfg = MachineConfig(xbar_dim=8, tiles=1, cores_per_tile=1,
                        mvmus_per_core=1)
    with pytest.raises(CompileError, match="^model needs 2 MVMUs but the "
                       "machine has 1$"):
        compile_model(g, cfg)
    assert len(calls) == 1
