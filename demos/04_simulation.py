"""Running compiled programs: timing, energy, and the blocking semantics.

Simulates the shipped example models, shows the report anatomy, then
demonstrates the synchronization machinery directly: valid/count
handshakes, FIFO backpressure, and deadlock diagnosis.
"""

from xbarsim import container, graph as gr, isa, models
from xbarsim.compiler import compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run

print("== example models through compile + simulate ==")
for name in ("mlp128", "lstm8", "conv8x8"):
    g, inputs = models.build_example(name)
    cfg = models.default_config_for(name)
    prog, _ = compile_model(g, cfg)
    rep = run(Machine(cfg, prog), inputs, step_limit=5_000_000)
    want = gr.evaluate(g, inputs, cfg.xbar_dim)
    exact = all(want[k].tolist() == rep.outputs[k].tolist() for k in want)
    print(f"  {name:8s} {rep.cycles:7d} cycles  "
          f"{rep.energy_total_nj:9.2f} nJ  bit-exact={exact}")

print("\n== one report in full ==")
g, inputs = models.build_example("mlp128")
cfg = models.default_config_for("mlp128")
prog, _ = compile_model(g, cfg)
rep = run(Machine(cfg, prog), inputs)
print("\n".join("  " + ln for ln in rep.to_text().splitlines()))

print("\n== valid/count handshake: producer blocks until data drains ==")
cfg = MachineConfig(xbar_dim=4, mvmus_per_core=2, cores_per_tile=2, tiles=1,
                    dmem_words=256)
rs = cfg.regspace()
prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core, cfg.cores_per_tile,
                         cfg.tiles, cfg.frac_bits)
prog.segments.append(container.Segment(0, 0, [
    isa.seti(rs.general(0), 1), isa.store(64, rs.general(0), 1, 1),
    isa.seti(rs.general(0), 2), isa.store(64, rs.general(0), 1, 1)]))
prog.segments.append(container.Segment(0, 1, [
    isa.seti(rs.general(9), 0)] * 10 + [
    isa.load(rs.general(1), 64, 1), isa.load(rs.general(2), 64, 1)]))
m = Machine(cfg, prog)
rep = run(m, {})
print(f"  consumer read {int(m.cores[(0, 1)].regs[rs.general(1)])} then "
      f"{int(m.cores[(0, 1)].regs[rs.general(2)])}; producer stalled "
      f"{rep.blocked_ns[(0, 0)]:.0f} ns waiting for the drain")

print("\n== a deadlock, diagnosed ==")
prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core, cfg.cores_per_tile,
                         2, cfg.frac_bits)
for t, other in ((0, 1), (1, 0)):
    prog.segments.append(container.Segment(t, container.TILE_UNIT, [
        isa.recv(1, 0, 1, 1), isa.send(0, 0, other, 1)]))
cfg2 = MachineConfig(xbar_dim=4, mvmus_per_core=2, cores_per_tile=2, tiles=2,
                     dmem_words=256)
rep = run(Machine(cfg2, prog), {}, step_limit=10_000)
print(f"  halted={rep.halted} deadlock={rep.deadlock}")
for d in rep.diagnosis:
    print("  " + d)
