"""Shared weights spread over idle crossbars: `partition.place` copies a
matrix whose uses are independent onto the MVMUs that the model's tiles
leave spare, and loop mode fires k copies per iteration. Every compiled
case runs bit-exact against `graph.evaluate`."""

import numpy as np
import pytest

from xbarsim import compiler, graph as gr, models, partition
from xbarsim.compiler import CompileError, CompileOptions, compile_model
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


def test_conv8x8_spreads_its_weights_over_tile_0_without_traffic():
    g, inputs = models.build_example("conv8x8")
    prog = _compiled(g, inputs, models.default_config_for("conv8x8"))
    assert sorted((w.tile, w.core, w.mvmu) for w in prog.weights) == [
        (0, c, u) for c in range(8) for u in range(2)]
    assert not _ops(prog) & {"send", "receive"}


def test_a_chain_through_one_matrix_keeps_one_copy():
    rng = np.random.default_rng(7)
    g = gr.ModelGraph()
    w = g.const_matrix(rng.uniform(-0.4, 0.4, (8, 8)))
    g.output("y", g.mvm(w, g.mvm(w, g.input("x", 8))))
    g.freeze()
    cfg = MachineConfig(xbar_dim=8, tiles=1, cores_per_tile=2)
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


def test_copies_go_to_the_most_uses_per_copy_ties_to_the_lowest_id():
    rng = np.random.default_rng(8)
    g = gr.ModelGraph()
    a, b = (g.const_matrix(rng.uniform(-0.4, 0.4, (4, 4))) for _ in "ab")
    x = g.input("x", 4)
    for k in range(4):
        g.output(f"a{k}", g.mvm(a, g.alu_imm("mul", x, k)))
    for k in range(2):
        g.output(f"b{k}", g.mvm(b, g.alu_imm("add", x, k)))
    g.freeze()
    tg = partition.tile_tensors(g, 4)
    # 2 matrices on a 4-MVMU tile leave 2 spare: a (4 uses) takes the
    # first, then a at 4/2 ties b at 2/1, and a has the lower id
    partition.place(tg, MachineConfig(xbar_dim=4, tiles=1, cores_per_tile=2))
    tile_of = {n.orig: n.matrix for n in tg.tnodes if n.kind == "mvm"}
    mvms = [n for n in g.nodes if n.kind == "mvm"]
    # a's 4 uses run in graph order over its 3 copies: 2, 1, 1
    a_tiles = [tile_of[n.id] for n in mvms if n.inputs[0] == a.id]
    assert a_tiles[0] == a_tiles[1] and len(set(a_tiles)) == 3
    assert len({tile_of[n.id] for n in mvms if n.inputs[0] == b.id}) == 1
    assert len(tg.matrix_tiles) == 4


def test_an_unrolled_16x16_conv_fits_each_cores_instruction_memory():
    # with one crossbar for all 196 windows, core 0 needs 1375 instructions
    g, inputs = models.conv_model(side=16, filters=4, pixel_outputs=True)
    cfg = MachineConfig(tiles=2)
    prog = _compiled(g, inputs, cfg)
    sizes = [len(s.instrs) for s in prog.segments]
    assert (sum(sizes), max(sizes)) == (1382, 177)
    assert max(sizes) <= cfg.core_imem_capacity


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
