"""The compiler optimizations, each toggled against its ablation.

MVM coalescing (one masked instruction drives parallel MVMUs), sliding-
window input shuffling (XbarIn reuse through DAC re-routing), affinity
placement vs random, RPO vs breadth-first linearization, and the
counter/branch loop mode for windowed layers.
"""

from xbarsim import models
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run

print("== MVM coalescing on a pure-MVM pair ==")
g, inputs = models.pure_mvm_kernel()
cfg = models.default_config_for("mvm_pair")
for label, opts in (("coalesced", None),
                    ("uncoalesced", CompileOptions(coalesce=False))):
    prog, _ = compile_model(g, cfg, opts)
    rep = run(Machine(cfg, prog), inputs)
    print(f"  {label:12s} mvm instrs={rep.instr_dynamic['mvm']} "
          f"mvm cycles={rep.instr_cycles['mvm']}")

print("\n== input shuffling on a 3x3 conv over 8x8 ==")
g, inputs = models.build_example("conv8x8")
cfg = models.default_config_for("conv8x8")
for label, opts in (("shuffled", None),
                    ("plain fills", CompileOptions(input_shuffle=False))):
    prog, _ = compile_model(g, cfg, opts)
    rep = run(Machine(cfg, prog), inputs, step_limit=5_000_000)
    h = prog.static_histogram()
    print(f"  {label:12s} copy instrs={h.get('copy', 0):4d} "
          f"copy cycles={rep.instr_cycles.get('copy', 0):5d} "
          f"patterns={len(prog.patterns)}")

print("\n== graph partitioning vs random placement (2-tile MLP) ==")
g, inputs = models.mlp_model(256)
cfg = MachineConfig(tiles=2)
for label, opts in (("affinity", None),
                    ("random", CompileOptions(naive_partition=True, seed=3))):
    prog, _ = compile_model(g, cfg, opts)
    h = prog.static_histogram()
    rep = run(Machine(cfg, prog), inputs, step_limit=5_000_000)
    print(f"  {label:9s} sends+receives="
          f"{h.get('send', 0) + h.get('receive', 0):3d} "
          f"energy={rep.energy_total_nj:8.2f} nJ")

print("\n== RPO vs breadth-first linearization (register pressure) ==")
for label, opts in (("reverse post-order", None),
                    ("breadth-first", CompileOptions(naive_order=True))):
    prog, crep = compile_model(g, cfg, opts)
    print(f"  {label:20s} max live values={crep.maxlive}")

print("\n== loop mode: one looped body per idle core for a windowed layer ==")
g, inputs = models.conv_model(side=12, filters=2, pixel_outputs=True)
cfg = MachineConfig()
outputs = {}
for label, opts in (("unrolled", None),
                    ("loop mode", CompileOptions(conv_loop=True))):
    prog, _ = compile_model(g, cfg, opts)
    rep = run(Machine(cfg, prog), inputs, step_limit=5_000_000)
    outputs[label] = {k: v.tolist() for k, v in rep.outputs.items()}
    looped = sum(any(i.op == "brn" for i in s.instrs) for s in prog.segments)
    print(f"  {label:9s} latency={rep.latency_ns / 1000:6.2f} us "
          f"instrs={prog.total_instructions():4d} "
          f"largest core={max(len(s.instrs) for s in prog.segments):3d} "
          f"looped cores={looped}")
print(f"  outputs identical={outputs['unrolled'] == outputs['loop mode']}")
