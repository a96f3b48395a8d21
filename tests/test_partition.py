from itertools import combinations

import numpy as np
import pytest

from xbarsim import fixedpoint as fp
from xbarsim import graph as gr
from xbarsim import layers, models, partition
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run

from test_golden import _build, _cases


def small_machine(**kw):
    kw.setdefault("xbar_dim", 4)
    kw.setdefault("mvmus_per_core", 2)
    kw.setdefault("cores_per_tile", 2)
    kw.setdefault("tiles", 2)
    kw.setdefault("dmem_words", 1024)
    return MachineConfig(**kw)


def _one_layer(n, m, d=128):
    g = gr.ModelGraph()
    x = g.input("x", n)
    out = layers.mlp_layer(g, x, np.random.default_rng(0).uniform(-0.4, 0.4, (n, m)),
                           None, None)
    g.output("y", out)
    g.freeze()
    return g, partition.tile_tensors(g, d)


def test_single_tile_for_128x128():
    _, tg = _one_layer(128, 128)
    assert len(tg.matrix_tiles) == 1
    assert sum(1 for n in tg.tnodes if n.kind == "mvm") == 1
    assert sum(1 for n in tg.tnodes if n.kind == "merge") == 0


def test_2x2_tiling_for_256x256():
    _, tg = _one_layer(256, 256)
    assert len(tg.matrix_tiles) == 4
    mvms = [n for n in tg.tnodes if n.kind == "mvm"]
    merges = [n for n in tg.tnodes if n.kind == "merge"]
    assert len(mvms) == 4
    assert len(merges) == 2           # one partial-sum add per output block
    for mg in merges:
        assert len(mg.inputs) == 2


def test_ragged_tiling_padding_preserves_interpreter_output():
    rng = np.random.default_rng(9)
    g = gr.ModelGraph()
    x = g.input("x", 200)
    out = layers.mlp_layer(g, x, rng.uniform(-0.2, 0.2, (200, 130)),
                           rng.uniform(-0.1, 0.1, 130), "tanh")
    g.output("y", out)
    g.freeze()
    tg = partition.tile_tensors(g, 128)
    assert len(tg.matrix_tiles) == 4   # 2x2 with ragged edges
    dims = {(t.rows, t.cols) for t in tg.matrix_tiles}
    assert dims == {(128, 128), (128, 2), (72, 128), (72, 2)}
    xs = fp.quantize(rng.uniform(-1, 1, 200))
    want = gr.evaluate(g, {"x": xs}, xbar_dim=128)
    got = partition.evaluate_tiled(tg, g, {"x": xs})
    assert want["y"].tolist() == got["y"].tolist()


def test_same_output_tiles_share_a_core():
    """Two row tiles of one logical MVM merge into the same outputs and
    must land on one core when it has two MVMUs."""
    g = gr.ModelGraph()
    x = g.input("x", 8)
    out = layers.mlp_layer(g, x, np.zeros((8, 4)), None, None)
    g.output("y", out)
    g.freeze()
    tg = partition.tile_tensors(g, 4)
    assert len(tg.matrix_tiles) == 2
    partition.place(tg, small_machine())
    a, b = (mt.mvmu for mt in tg.matrix_tiles)
    assert a[:2] == b[:2]
    assert a[2] != b[2]


def test_a_producer_shares_a_core_with_its_consumer():
    """A = mvm(x), B = mvm(x2), C = mvm(relu(A)) on two 2-MVMU cores: no
    pair shares an output or an input, so only the producer-consumer term
    keeps A beside C, and B goes to the other core."""
    rng = np.random.default_rng(0)
    g = gr.ModelGraph()
    x, x2 = g.input("x", 8), g.input("x2", 8)

    def mvm(v):
        return g.mvm(g.const_matrix(rng.uniform(-0.5, 0.5, (8, 8))), v)

    a, b = mvm(x), mvm(x2)
    g.output("b", b)
    g.output("c", mvm(g.act("relu", a)))
    g.freeze()
    tg = partition.tile_tensors(g, 8)
    partition.place(tg, MachineConfig(xbar_dim=8, tiles=1, cores_per_tile=2,
                                      mvmus_per_core=2))
    core = {mt.orig: mt.mvmu[:2] for mt in tg.matrix_tiles}
    a_w, b_w = (g.nodes[v.id].inputs[0] for v in (a, b))
    (c_w,) = set(core) - {a_w, b_w}
    assert core[a_w] == core[c_w] != core[b_w]


def test_single_tile_goes_to_origin():
    _, tg = _one_layer(4, 4, d=4)
    partition.place(tg, small_machine())
    assert tg.matrix_tiles[0].mvmu == (0, 0, 0)


def test_placement_deterministic():
    rng = np.random.default_rng(3)
    w = [rng.uniform(-0.3, 0.3, (8, 8)) for _ in range(3)]

    def build():
        g = gr.ModelGraph()
        h = g.input("x", 8)
        for wi in w:
            h = layers.mlp_layer(g, h, wi, None, "relu")
        g.output("y", h)
        g.freeze()
        tg = partition.tile_tensors(g, 4)
        partition.place(tg, small_machine(tiles=4))
        return [mt.mvmu for mt in tg.matrix_tiles]

    assert build() == build()


def test_placement_beats_random_baseline():
    """Greedy adjacency score >= random placement over 100 seeds."""
    rng = np.random.default_rng(11)
    g = gr.ModelGraph()
    h = g.input("x", 8)
    for _ in range(4):
        h = layers.mlp_layer(g, h, rng.uniform(-0.3, 0.3, (8, 8)), None, "relu")
    g.output("y", h)
    g.freeze()
    m = small_machine(tiles=4)

    tg = partition.tile_tensors(g, 4)
    partition.place(tg, m)
    greedy = partition.placement_score(tg)
    for seed in range(100):
        tgr = partition.tile_tensors(g, 4)
        partition.place(tgr, m, naive=True, seed=seed)
        assert greedy >= partition.placement_score(tgr)


def test_capacity_error_names_requirements():
    g = gr.ModelGraph()
    x = g.input("x", 32)
    out = layers.mlp_layer(g, x, np.zeros((32, 32)), None, None)
    g.output("y", out)
    g.freeze()
    tg = partition.tile_tensors(g, 4)   # 64 tiles
    with pytest.raises(partition.CompileError, match="64 MVMUs.*has 8"):
        partition.place(tg, small_machine(tiles=2))


def test_single_core_model_has_no_data_movement():
    g, tg = _one_layer(4, 4, d=4)
    m = small_machine()
    partition.place(tg, m)
    partition.insert_data_movement(tg, m)
    kinds = {n.kind for n in tg.tnodes}
    assert "send" not in kinds and "receive" not in kinds
    # the input itself is memory resident: exactly one load, no stores
    assert sum(1 for n in tg.tnodes if n.kind == "load") == 1
    assert sum(1 for n in tg.tnodes if n.kind == "store") == 0


def test_cross_core_store_count_and_loads():
    """One producer feeding consumers on two sibling cores: one store with
    count=2 and two loads."""
    g = gr.ModelGraph()
    x = g.input("x", 4)
    h = layers.mlp_layer(g, x, np.eye(4) * 0.5, None, None)   # core A
    a = layers.mlp_layer(g, h, np.eye(4) * 0.5, None, None)   # consumer 1
    b = layers.mlp_layer(g, h, np.eye(4) * 0.25, None, None)  # consumer 2
    g.output("ya", a)
    g.output("yb", b)
    g.freeze()
    m = small_machine(tiles=1, cores_per_tile=4, mvmus_per_core=1)
    tg = partition.tile_tensors(g, 4)
    partition.place(tg, m)
    partition.insert_data_movement(tg, m)
    h_store = [n for n in tg.tnodes if n.kind == "store"]
    assert len(h_store) == 1
    assert tg.symbols[h_store[0].sym].count == 2
    sym = h_store[0].sym
    loads = [n for n in tg.tnodes if n.kind == "load" and n.sym == sym]
    assert len(loads) == 2
    assert len({ld.place for ld in loads}) == 2


def test_cross_tile_edges_get_fifo_per_sender():
    """A layer on tile 0 feeding tile 1 uses one fifo id per sender tile."""
    g = gr.ModelGraph()
    x = g.input("x", 8)
    h = layers.mlp_layer(g, x, np.eye(8) * 0.5, None, None)
    out = layers.mlp_layer(g, h, np.eye(8) * 0.5, None, None)
    g.output("y", out)
    g.freeze()
    # 1 MVMU per core, 1 core per tile: the two layers must span two tiles
    m = small_machine(xbar_dim=8, mvmus_per_core=1, cores_per_tile=1, tiles=2)
    tg = partition.tile_tensors(g, 8)
    partition.place(tg, m)
    partition.insert_data_movement(tg, m)
    sends = [n for n in tg.tnodes if n.kind == "send"]
    recvs = [n for n in tg.tnodes if n.kind == "receive"]
    assert len(sends) == 1 and len(recvs) == 1
    senders = {tg.tnodes[r.inputs[0]].place[0] for r in recvs}
    fids = {r.fifo for r in recvs}
    assert len(fids) == len(senders) == 1
    assert sends[0].place == (0, partition.TILE_UNIT)
    assert recvs[0].place == (1, partition.TILE_UNIT)


def test_data_movement_preserves_semantics():
    rng = np.random.default_rng(21)
    g = gr.ModelGraph()
    x = g.input("x", 12)
    h = layers.mlp_layer(g, x, rng.uniform(-0.4, 0.4, (12, 12)),
                         rng.uniform(-0.2, 0.2, 12), "sigmoid")
    out = layers.mlp_layer(g, h, rng.uniform(-0.4, 0.4, (12, 6)), None, "tanh")
    g.output("y", out)
    g.freeze()
    want = gr.evaluate(g, {"x": fp.quantize(rng.uniform(-1, 1, 12))}, xbar_dim=4)
    m = small_machine(tiles=4)
    tg = partition.tile_tensors(g, 4)
    partition.place(tg, m)
    partition.insert_data_movement(tg, m)
    got = partition.evaluate_tiled(tg, g, {"x": fp.quantize(rng.uniform(-1, 1, 12))})
    # same inputs required: regenerate deterministically
    rng = np.random.default_rng(21)
    _ = rng.uniform(-0.4, 0.4, (12, 12)); _ = rng.uniform(-0.2, 0.2, 12)
    _ = rng.uniform(-0.4, 0.4, (12, 6))
    xs = fp.quantize(rng.uniform(-1, 1, 12))
    want = gr.evaluate(g, {"x": xs}, xbar_dim=4)
    got = partition.evaluate_tiled(tg, g, {"x": xs})
    assert want["y"].tolist() == got["y"].tolist()


def test_fifo_overflow_reports_error():
    # 17 producer tiles feeding one consumer tile
    g = gr.ModelGraph()
    xs = [g.input(f"x{i}", 2) for i in range(17)]
    hs = [layers.mlp_layer(g, x, np.eye(2) * 0.5, None, None) for x in xs]
    acc = hs[0]
    for h in hs[1:]:
        acc = g.alu("add", acc, h)
    g.output("y", acc)
    g.freeze()
    m = MachineConfig(xbar_dim=2, mvmus_per_core=1, cores_per_tile=1, tiles=18,
                      dmem_words=256)
    tg = partition.tile_tensors(g, 2)
    partition.place(tg, m, naive=True, seed=4)
    # force each layer mvmu onto a distinct tile
    for i, mt in enumerate(tg.matrix_tiles):
        mt.mvmu = (i, 0, 0)
    partition._place_tnodes(tg)
    # pin the reduction chain on a single extra tile
    for n in tg.tnodes:
        if n.kind in ("alu", "output"):
            n.place = (17, 0)
    with pytest.raises(partition.CompileError, match="more than 16"):
        partition.insert_data_movement(tg, m)


def _all_pairs_affinity(tg):
    """The affinity of every pair of matrix tiles, scored one by one."""
    consumers = tg.consumers()
    mvms_of = [[] for _ in tg.matrix_tiles]
    for n in tg.tnodes:
        if n.kind == "mvm":
            mvms_of[n.matrix].append(n)
    info = [({i for n in mvms for i in n.inputs},
             {c for n in mvms for c in consumers[n.id]},
             mvms[0].orig if mvms else None) for mvms in mvms_of]
    feeds = partition._mvm_feeds(tg)
    aff = {}
    for a, b in combinations(range(len(info)), 2):
        (ia, sa, oa), (ib, sb, ob) = info[a], info[b]
        fed = (oa, ob) in feeds or (ob, oa) in feeds
        w = (partition.SAME_OUTPUT_W * bool(sa & sb)
             + partition.SAME_INPUT_W * bool(ia & ib)
             + partition.PROD_CONS_W * fed)
        if w:
            aff[(a, b)] = w
    return aff


@pytest.mark.parametrize("case", list(_cases()), ids=[c[0] for c in _cases()])
def test_affinity_scores_the_same_pairs_as_all_pairs(case, monkeypatch):
    seen = []
    real = partition._matrix_tile_affinity

    def checked(tg):
        aff = real(tg)
        assert aff == _all_pairs_affinity(tg)
        seen.append(len(aff))
        return aff
    monkeypatch.setattr(partition, "_matrix_tile_affinity", checked)
    _build(case)
    if not case[3].conv_loop and not case[3].naive_partition:
        assert seen


def test_affinity_on_128_matrix_tiles_matches_all_pairs():
    g, _ = models.mlp_model(512, depth=8)
    tg = partition.tile_tensors(g, 128)
    assert len(tg.matrix_tiles) == 128
    aff = partition._matrix_tile_affinity(tg)
    assert aff and aff == _all_pairs_affinity(tg)


# Defect A (ROADMAP item 1): an output computed from model inputs alone is
# placed at core (0, 0) before its producer moves to its first consumer's
# core, so no store/load pair carries the value and the output's store
# reads another core's register.
DEFECT_A = "Defect A (ROADMAP item 1): output left behind by its producer"


def _defect_a_case_1():
    rng = np.random.default_rng(0)
    g = gr.ModelGraph()
    g.input("in0", 21)                  # unused
    y = g.alu_imm("mul", g.input("in1", 24), 0.5)
    g.output("o0", g.mvm(g.const_matrix(rng.uniform(-0.5, 0.5, (24, 29))), y))
    g.output("o1", y)
    return g, rng, dict(cores_per_tile=3), CompileOptions(coalesce=False)


def _defect_a_case_2():
    rng = np.random.default_rng(0)
    g = gr.ModelGraph()
    c = g.concat([g.input("in0", 36)] * 2)
    g.output("o1", g.mvm(g.const_matrix(rng.uniform(-0.5, 0.5, (72, 11))), c))
    g.output("o0", c)
    return g, rng, dict(cores_per_tile=4), CompileOptions(coalesce=True)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=DEFECT_A)
@pytest.mark.parametrize("make", [_defect_a_case_1, _defect_a_case_2],
                         ids=["case1", "case2"])
def test_an_output_of_model_inputs_alone_runs_bit_exact(make):
    g, rng, geometry, opts = make()
    g.freeze()
    inputs = {n.name: fp.quantize(rng.uniform(-1, 1, n.length))
              for n in g.nodes if n.kind == "input"}
    cfg = MachineConfig(xbar_dim=8, tiles=3, mvmus_per_core=2, **geometry)
    prog, _ = compile_model(g, cfg, opts)
    rep = run(Machine(cfg, prog), inputs)
    want = gr.evaluate(g, inputs, xbar_dim=8)
    assert rep.halted
    assert {k: v.tolist() for k, v in rep.outputs.items()} == \
        {k: v.tolist() for k, v in want.items()}
