"""The coalescing oracle, `schedule.check_groups_independent`, rejects each
kind of group that must not fuse into one MVM instruction: members joined
by a dependence path, members on different cores, and members that share
an MVMU."""

from dataclasses import replace

import numpy as np

from xbarsim import graph as gr, partition, schedule
from xbarsim.machine import MachineConfig

M = MachineConfig(xbar_dim=4, mvmus_per_core=2, cores_per_tile=2, tiles=1,
                  dmem_words=1024)


def _mvms(g, m=M):
    g.freeze()
    tg = partition.tile_tensors(g, m.xbar_dim)
    partition.place(tg, m)
    partition.insert_data_movement(tg, m)
    return tg, [n.id for n in tg.tnodes if n.kind == "mvm"]


def _where(tg, t):
    """(tile, core, mvmu) of an MVM tnode."""
    return tg.matrix_tiles[tg.tnodes[t].matrix].mvmu


def _w(rng):
    return rng.uniform(-0.3, 0.3, (4, 4))


def test_oracle_rejects_a_dependent_pair():
    rng = np.random.default_rng(3)
    g = gr.ModelGraph()
    h = g.mvm(g.const_matrix(_w(rng)), g.input("x", 4))
    g.output("y", g.mvm(g.const_matrix(_w(rng)), h))
    tg, (a, b) = _mvms(g)
    # same core, distinct MVMUs: only the dependence forbids the group
    assert _where(tg, a)[:2] == _where(tg, b)[:2]
    assert _where(tg, a)[2] != _where(tg, b)[2]
    assert not schedule.check_groups_independent(tg, [[a, b]])


def test_oracle_rejects_a_cross_core_pair():
    rng = np.random.default_rng(4)
    g = gr.ModelGraph()
    x = g.input("x", 4)
    for k in range(4):
        g.output(f"y{k}", g.mvm(g.const_matrix(_w(rng)), x))
    tg, ids = _mvms(g)
    a = next(t for t in ids if _where(tg, t) == (0, 0, 0))
    b = next(t for t in ids if _where(tg, t) == (0, 1, 1))
    assert schedule.check_groups_independent(
        tg, [[t for t in ids if _where(tg, t)[:2] == (0, 0)]])
    assert not schedule.check_groups_independent(tg, [[a, b]])


def test_oracle_rejects_a_pair_sharing_an_mvmu():
    rng = np.random.default_rng(5)
    g = gr.ModelGraph()
    w = g.const_matrix(_w(rng))      # one resident matrix serves both MVMs
    g.output("y1", g.mvm(w, g.input("x1", 4)))
    g.output("y2", g.mvm(w, g.input("x2", 4)))
    # one MVMU per tile: no spare crossbar takes a copy of the weights
    tg, (a, b) = _mvms(g, replace(M, mvmus_per_core=1, cores_per_tile=1))
    assert _where(tg, a) == _where(tg, b)
    assert not schedule.check_groups_independent(tg, [[a, b]])
