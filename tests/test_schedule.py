import numpy as np
import pytest

from xbarsim import fixedpoint as fp
from xbarsim import graph as gr
from xbarsim import layers, partition, schedule
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run


def tiny_machine(**kw):
    kw.setdefault("xbar_dim", 4)
    kw.setdefault("mvmus_per_core", 2)
    kw.setdefault("cores_per_tile", 2)
    kw.setdefault("tiles", 2)
    kw.setdefault("dmem_words", 1024)
    return MachineConfig(**kw)


def _prepared(g, m):
    tg = partition.tile_tensors(g, m.xbar_dim)
    partition.place(tg, m)
    partition.insert_data_movement(tg, m)
    return tg


def _topo_ok(tg, sched):
    pos = {}
    for i, u in enumerate(sched.units):
        for t in u:
            pos[t] = i
    for u in sched.units:
        for t in u:
            for i in tg.tnodes[t].inputs:
                if tg.tnodes[i].kind in schedule.UNSCHEDULED:
                    continue
                assert pos[i] <= pos[t], f"{i} scheduled after consumer {t}"
    return True


def test_chain_linearizes_in_order():
    g = gr.ModelGraph()
    x = g.input("x", 4)
    a = g.act("relu", x)
    b = g.act("relu", a)
    c = g.act("relu", b)
    g.output("y", c)
    g.freeze()
    m = tiny_machine()
    tg = _prepared(g, m)
    sched = schedule.linearize(tg)
    kinds = [tg.tnodes[u[0]].kind for u in sched.units]
    acts = [k for k in kinds if k == "act"]
    assert acts == ["act"] * 3
    _topo_ok(tg, sched)


def test_diamond_consumer_follows_parents_with_two_live_values():
    # a -> {b, c} -> d on one core
    preds = [set(), {0}, {0}, {1, 2}]
    succs = [{1, 2}, {3}, {3}, set()]
    ids = [0, 1, 2, 3]
    order = schedule._rpo_order(ids, preds, succs)
    assert order.index(3) > order.index(1) and order.index(3) > order.index(2)
    assert schedule.max_live(order, preds, succs) == 2


def test_rpo_maxlive_beats_naive_on_diamond():
    preds = [set(), {0}, {0}, {1, 2}]
    succs = [{1, 2}, {3}, {3}, set()]
    ids = [0, 1, 2, 3]
    rpo = schedule.max_live(schedule._rpo_order(ids, preds, succs), preds, succs)
    naive = schedule.max_live(schedule._kahn_fifo(ids, preds, succs), preds, succs)
    assert rpo <= naive


def random_fanjoin_dag(rng, budget):
    """Random chains and fan-out/fan-in joins: the shape of tiled dataflow
    (parallel partial MVMs merging into sums, layer chains)."""
    preds, succs = [], []

    def new():
        preds.append(set())
        succs.append(set())
        return len(preds) - 1

    def edge(a, b):
        preds[b].add(a)
        succs[a].add(b)

    def build(src, budget):
        cur = src
        while budget[0] > 0:
            if rng.random() < 0.55 or budget[0] < 3:
                n = new()
                budget[0] -= 1
                edge(cur, n)
                cur = n
                if rng.random() < 0.35:
                    return cur
            else:
                k = int(rng.integers(2, 4))
                branches = []
                for _ in range(k):
                    if budget[0] <= 0:
                        break
                    branches.append(build(cur, budget))
                if not branches:
                    return cur
                j = new()
                budget[0] -= 1
                for b in branches:
                    edge(b, j)
                cur = j
                if rng.random() < 0.5:
                    return cur
        return cur

    root = new()
    build(root, [budget])
    return list(range(len(preds))), preds, succs


def test_rpo_maxlive_no_worse_than_naive_on_random_dags():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        ids, preds, succs = random_fanjoin_dag(rng, int(rng.integers(5, 80)))
        rpo = schedule.max_live(schedule._rpo_order(ids, preds, succs),
                                preds, succs)
        naive = schedule.max_live(schedule._kahn_fifo(ids, preds, succs),
                                  preds, succs)
        assert rpo <= naive


def test_global_order_embeds_actor_orders():
    rng = np.random.default_rng(5)
    g = gr.ModelGraph()
    x = g.input("x", 8)
    h = layers.mlp_layer(g, x, rng.uniform(-0.3, 0.3, (8, 8)), None, "relu")
    out = layers.mlp_layer(g, h, rng.uniform(-0.3, 0.3, (8, 4)), None, "tanh")
    g.output("y", out)
    g.freeze()
    m = tiny_machine()
    tg = _prepared(g, m)
    sched = schedule.linearize(tg)
    _topo_ok(tg, sched)


def test_cycle_detection():
    preds = [{1}, {0}]
    succs = [{1}, {0}]
    with pytest.raises(schedule.ScheduleError, match="cycle"):
        schedule._rpo_order([0, 1], preds, succs)


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------

def _two_mvm_model(shared_input=False):
    rng = np.random.default_rng(2)
    g = gr.ModelGraph()
    x1 = g.input("x1", 4)
    x2 = x1 if shared_input else g.input("x2", 4)
    m1 = g.mvm(g.const_matrix(rng.uniform(-0.3, 0.3, (4, 4))), x1)
    m2 = g.mvm(g.const_matrix(rng.uniform(-0.3, 0.3, (4, 4))), x2)
    g.output("y1", m1)
    g.output("y2", m2)
    g.freeze()
    return g


def test_same_logical_mvm_tiles_fuse():
    """A 2-row-block MVM split across one core's two MVMUs becomes a single
    instruction with mask 0b11."""
    g = gr.ModelGraph()
    x = g.input("x", 8)
    out = g.mvm(g.const_matrix(np.zeros((8, 4))), x)
    g.output("y", out)
    g.freeze()
    m = tiny_machine()
    tg = _prepared(g, m)
    groups = schedule.coalesce_mvms(tg, m)
    assert len(groups) == 1 and len(groups[0]) == 2
    assert schedule.check_groups_independent(tg, groups)


def test_independent_mvms_fuse_on_one_core():
    g = _two_mvm_model()
    m = tiny_machine()
    tg = _prepared(g, m)
    groups = schedule.coalesce_mvms(tg, m)
    assert len(groups) == 1 and len(groups[0]) == 2
    assert schedule.check_groups_independent(tg, groups)
    sched = schedule.linearize(tg, groups)
    assert sched.coalesce_groups == 1


def test_dependent_mvm_chain_never_fuses():
    rng = np.random.default_rng(3)
    g = gr.ModelGraph()
    x = g.input("x", 4)
    h = g.mvm(g.const_matrix(rng.uniform(-0.3, 0.3, (4, 4))), x)
    out = g.mvm(g.const_matrix(rng.uniform(-0.3, 0.3, (4, 4))), h)
    g.output("y", out)
    g.freeze()
    m = tiny_machine()
    tg = _prepared(g, m)
    groups = schedule.coalesce_mvms(tg, m)
    assert groups == []


def test_group_size_capped_by_mvmus_per_core():
    rng = np.random.default_rng(4)
    g = gr.ModelGraph()
    x = g.input("x", 4)
    for i in range(4):
        g.output(f"y{i}", g.mvm(g.const_matrix(rng.uniform(-0.3, 0.3, (4, 4))), x))
    g.freeze()
    m = tiny_machine(tiles=1, cores_per_tile=2)
    tg = _prepared(g, m)
    groups = schedule.coalesce_mvms(tg, m)
    assert all(len(gp) <= m.mvmus_per_core for gp in groups)
    assert schedule.check_groups_independent(tg, groups)


def test_window_mvms_on_same_mvmu_do_not_fuse():
    g = gr.ModelGraph()
    img = g.input("img", 16)
    res = layers.conv_layer(g, img, np.full((3, 3, 1, 1), 0.1), None, 1,
                            None, in_shape=(1, 4, 4))
    for i, p in enumerate(res.pixels):
        g.output(f"p{i}", p)
    g.freeze()
    # one MVMU per tile: no spare crossbar takes a copy of the weights
    m = tiny_machine(xbar_dim=16, mvmus_per_core=1, cores_per_tile=1)
    tg = _prepared(g, m)
    groups = schedule.coalesce_mvms(tg, m)
    assert groups == []   # all four windows share the single matrix tile


def test_tiles_of_one_logical_mvm_fuse_before_other_mvms():
    """y = W[16x8] (a ++ X[8x8] b) on one 3-MVMU core: pass 1 fuses W's
    two row tiles, so X fires alone and then both of W's tiles at once.
    Pass 2 alone would fuse X with W's first tile and leave the second."""
    rng = np.random.default_rng(0)
    g = gr.ModelGraph()
    a, b = g.input("a", 8), g.input("b", 8)
    w = g.const_matrix(rng.uniform(-0.5, 0.5, (16, 8)))
    xb = g.mvm(g.const_matrix(rng.uniform(-0.5, 0.5, (8, 8))), b)
    g.output("y", g.mvm(w, g.concat([a, xb])))
    g.freeze()
    m = MachineConfig(xbar_dim=8, tiles=1, cores_per_tile=1, mvmus_per_core=3)
    prog, _ = compile_model(g, m)
    (seg,) = prog.segments
    assert [i.sub for i in seg.instrs if i.op == "mvm"] == [0b1, 0b110]
    inputs = {k: fp.quantize(rng.uniform(-1, 1, 8)) for k in ("a", "b")}
    got = run(Machine(m, prog), inputs).outputs
    assert got["y"].tolist() == gr.evaluate(g, inputs, 8)["y"].tolist()


# ---------------------------------------------------------------------------
# Loop mode
# ---------------------------------------------------------------------------

def test_conv_loop_fragment_shape():
    g = gr.ModelGraph()
    img = g.input("img", 16)
    res = layers.conv_layer(g, img, np.full((3, 3, 1, 1), 0.1), None, 1,
                            None, in_shape=(1, 4, 4))
    for i, p in enumerate(res.pixels):
        g.output(f"p{i}", p)
    g.freeze()
    m = MachineConfig(xbar_dim=16, mvmus_per_core=2, cores_per_tile=4,
                      tiles=1, dmem_words=1024)
    prog, _ = compile_model(g, m, CompileOptions(conv_loop=True))
    [frag] = [s.instrs for s in prog.segments if (s.tile, s.core) == (0, 1)]
    brns = [li for li in frag if li.op == "brn"]
    assert len(brns) == 1                      # exactly one back edge
    assert brns[0].c < len(frag)               # backward target
    assert [li.op for li in frag[:3]] == ["set", "set", "set"]
    assert any(li.op == "mvm" for li in frag)
    counters = [li for li in frag if li.op == "aluint"]
    assert len(counters) == 1
