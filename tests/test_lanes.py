"""Batched runs: B inferences as lanes of one event loop on one Machine.

A batched run must equal B separate runs lane by lane (outputs) and one
run in everything modeled (latency, energy, steps, instruction counts).
"""

import numpy as np
import pytest

from xbarsim import container, isa, models
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.crossbar import default_adc_bits
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, SimError, run


def _modeled(rep):
    return (rep.halted, rep.cycles, rep.latency_ns, rep.energy_total_nj,
            rep.energy_nj, rep.instr_dynamic, rep.instr_cycles, rep.steps,
            rep.blocked_ns, rep.mode_switches)


def _batched_equals_separate(cfg, prog, points):
    """Run `points` (a list of input dicts) batched and one by one."""
    batch = {k: np.stack([p[k] for p in points]) for k in points[0]}
    got = run(Machine(cfg, prog), batch)
    assert got.halted
    singles = [run(Machine(cfg, prog), p) for p in points]
    for name, out in got.outputs.items():
        assert out.shape == (len(points), len(singles[0].outputs[name]))
        for lane, one in enumerate(singles):
            assert np.array_equal(out[lane], one.outputs[name]), (name, lane)
    for one in singles:
        assert _modeled(got) == _modeled(one)
    assert got.saturations == sum(one.saturations for one in singles)
    return got


@pytest.mark.parametrize("kw", [
    {},
    {"noise_sigma": 0.038, "seed": 5},
    {"noise_sigma": 0.017, "seed": 8, "bits_per_device": 4},
    {"adc_bits": default_adc_bits(128)},
], ids=["ideal", "noise_2bit", "noise_4bit", "adc9"])
def test_tiny_classifier_batched_equals_separate_runs(kw):
    g, pts, _ = models.trained_tiny_classifier()
    cfg = MachineConfig(tiles=1, **kw)
    prog, _ = compile_model(g, cfg)
    _batched_equals_separate(cfg, prog, pts[::4])


def test_conv_loop_mode_batched_equals_separate_runs():
    """Loop counters are set and stepped uniformly, so aluint and brn see
    the same value in every lane."""
    g, inputs = models.build_example("conv_loop")
    cfg = models.default_config_for("conv_loop")
    prog, _ = compile_model(g, cfg, CompileOptions(conv_loop=True))
    assert prog.static_histogram().get("brn", 0) >= 1
    rng = np.random.default_rng(3)
    points = [inputs] + [
        {k: rng.integers(-4096, 4096, len(v)) for k, v in inputs.items()}
        for _ in range(3)]
    rep = _batched_equals_separate(cfg, prog, points)
    assert rep.instr_dynamic.get("aluint", 0) > 0


def _branch_program(cfg):
    """Core 0 loads input word x[0] and branches on it."""
    rs = cfg.regspace()
    prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core,
                             cfg.cores_per_tile, cfg.tiles, cfg.frac_bits)
    prog.segments.append(container.Segment(0, 0, [
        isa.load(rs.general(0), 0, 1),
        isa.seti(rs.general(1), 0),
        isa.brn("ne", rs.general(0), rs.general(1), 4),
        isa.seti(rs.general(2), 1),
    ]))
    prog.io.append(container.IoBinding("in", "x", 0, 0, 1, 1))
    return prog


def test_brn_on_lane_varying_register_raises_naming_the_pc():
    cfg = MachineConfig(xbar_dim=4, tiles=1, cores_per_tile=1)
    prog = _branch_program(cfg)
    with pytest.raises(SimError, match="tile 0 core 0 pc 2: brn .*lanes"):
        run(Machine(cfg, prog), {"x": [[0], [1]]})
    # lane-uniform operands branch as one
    rep = run(Machine(cfg, prog), {"x": [[1], [1]]})
    assert rep.halted and rep.instr_dynamic["brn"] == 1


def test_batch_of_one_equals_unbatched_run():
    g, pts, _ = models.trained_tiny_classifier()
    cfg = MachineConfig(tiles=1, noise_sigma=0.02, seed=1)
    prog, _ = compile_model(g, cfg)
    one = run(Machine(cfg, prog), pts[7])
    batched = run(Machine(cfg, prog), {"x": pts[7]["x"][None, :]})
    assert batched.outputs["y"].shape == (1, 3)
    assert np.array_equal(batched.outputs["y"][0], one.outputs["y"])
    a, b = one.to_dict(), batched.to_dict()
    assert b.pop("outputs") == {"y": [a.pop("outputs")["y"]]}
    assert a == b


def test_inputs_disagreeing_on_batch_raise():
    g, inputs = models.build_example("lstm8")
    cfg = models.default_config_for("lstm8")
    prog, _ = compile_model(g, cfg)
    names = sorted({b.name for b in prog.inputs()})
    assert len(names) >= 2
    batch = {k: np.stack([v] * 2) for k, v in inputs.items()}
    batch[names[0]] = np.stack([inputs[names[0]]] * 3)
    with pytest.raises(SimError, match="one B"):
        run(Machine(cfg, prog), batch)
    batch[names[0]] = inputs[names[0]]          # (n,) beside (B, n)
    with pytest.raises(SimError, match="one B"):
        run(Machine(cfg, prog), batch)
