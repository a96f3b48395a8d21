"""Building models, interpreting them, and watching the compiler work.

Shows the builder API for the three workload families, the reference
interpreter that defines ground truth, and each compiler stage: tiling,
placement, data-movement insertion, coalescing, and linearization.
"""

import numpy as np

from xbarsim import fixedpoint as fp
from xbarsim import graph as gr
from xbarsim import layers, partition, schedule
from xbarsim.compiler import compile_model
from xbarsim.machine import MachineConfig

rng = np.random.default_rng(1)

print("== a two-layer model ==")
g = gr.ModelGraph()
x = g.input("x", 12)
h = layers.mlp_layer(g, x, rng.uniform(-0.4, 0.4, (12, 12)),
                     rng.uniform(-0.2, 0.2, 12), "sigmoid")
y = layers.mlp_layer(g, h, rng.uniform(-0.4, 0.4, (12, 6)), None, "tanh")
g.output("y", y)
g.freeze()
print(f"  {len(g.nodes)} nodes, {len(g.matrix_nodes())} constant matrices")

inputs = {"x": fp.quantize(rng.uniform(-1, 1, 12))}
ground_truth = gr.evaluate(g, inputs, xbar_dim=4)
print(f"  interpreter output: {fp.to_float(ground_truth['y']).round(4).tolist()}")

print("\n== tiling to 4x4 crossbar blocks ==")
cfg = MachineConfig(xbar_dim=4, mvmus_per_core=2, cores_per_tile=2, tiles=4,
                    dmem_words=1024)
tg = partition.tile_tensors(g, cfg.xbar_dim)
kinds = {}
for n in tg.tnodes:
    kinds[n.kind] = kinds.get(n.kind, 0) + 1
print(f"  matrix tiles: {len(tg.matrix_tiles)}  block ops: {kinds}")

print("\n== placement: same-output > same-input > producer-consumer ==")
partition.place(tg, cfg)
for mt in tg.matrix_tiles[:6]:
    print(f"  tile ({mt.row_block},{mt.col_block}) of node {mt.orig} "
          f"-> tile {mt.mvmu[0]} core {mt.mvmu[1]} mvmu {mt.mvmu[2]}")
print(f"  co-location score: {partition.placement_score(tg):.0f}")

print("\n== data movement ==")
partition.insert_data_movement(tg, cfg)
moved = {k: sum(1 for n in tg.tnodes if n.kind == k)
         for k in ("store", "load", "send", "receive")}
print(f"  inserted: {moved}; fifo pairs: {dict(tg.fifo_map)}")

print("\n== coalescing and linearization ==")
groups = schedule.coalesce_mvms(tg, cfg)
print(f"  fused groups: {[[t for t in grp] for grp in groups]}")
sched = schedule.linearize(tg, groups)
actors = {tg.tnodes[u[0]].place for u in sched.units}
print(f"  {len(sched.units)} scheduled units over {len(actors)} actors; "
      f"max live values {sched.maxlive}")

print("\n== the whole pipeline ==")
prog, report = compile_model(g, cfg)
print(report.to_text())

print("== equivalence after every stage ==")
tiled_out = partition.evaluate_tiled(tg, g, inputs)
print(f"  tiled graph == interpreter: "
      f"{tiled_out['y'].tolist() == ground_truth['y'].tolist()}")
