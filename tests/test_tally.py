"""The run's counts and energies are one tally: hits per pc times the
static cost of one execution (`simulator.instr_cost`), summed after the run.

The golden hashes pin energies and instruction counts through
RunReport.to_dict, which carries neither reg_accesses nor spill_accesses;
the figures pinned here cover those."""

import pytest

from xbarsim import models
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, RunReport, run, tally


def _compiled(name, opts=CompileOptions()):
    if name == "mlp512":
        (g, inputs), cfg = models.mlp_model(512), MachineConfig(tiles=4)
    else:
        g, inputs = models.build_example(name)
        cfg = models.default_config_for(name)
    prog, _ = compile_model(g, cfg, opts)
    return cfg, prog, inputs


@pytest.mark.parametrize("name, opts, counts", [
    ("mlp512", CompileOptions(), (51200, 2048, 8)),
    ("lstm128", CompileOptions(), (15744, 0, 5)),
    ("conv_loop", CompileOptions(conv_loop=True), (309, 0, 0)),
], ids=["mlp512_4tiles", "lstm128", "conv_loop_looped"])
def test_counts_outside_the_golden_hashes_are_pinned(name, opts, counts):
    cfg, prog, inputs = _compiled(name, opts)
    rep = run(Machine(cfg, prog), inputs)
    assert rep.halted
    assert (rep.reg_accesses, rep.spill_accesses, rep.mode_switches) == counts


@pytest.mark.parametrize("name", sorted(models.EXAMPLES))
def test_straight_line_code_costs_its_static_sum(name):
    """Without jmp or brn every pc runs once, so the cost summed over the
    program with no run at all equals the run's figures exactly."""
    cfg, prog, inputs = _compiled(name)
    if any(i.op in ("jmp", "brn") for s in prog.segments for i in s.instrs):
        pytest.skip("has control flow")
    m = Machine(cfg, prog)
    rep = run(m, inputs)
    assert rep.halted
    for actor, unit in m.units.items():
        assert unit.hits == [1] * len(unit.program), actor
    static = Machine(cfg, prog)
    for unit in static.units.values():
        unit.hits = [1] * len(unit.program)
    figures = RunReport()
    tally(static, figures)
    assert figures.energy_nj == rep.energy_nj
    assert figures.energy_total_nj == rep.energy_total_nj
    assert figures.instr_dynamic == rep.instr_dynamic
    assert (figures.reg_accesses, figures.spill_accesses,
            figures.mode_switches) == (rep.reg_accesses, rep.spill_accesses,
                                       rep.mode_switches)


def test_mvmu_energy_is_activations_times_the_anchor():
    cfg, prog, inputs = _compiled("mlp512")
    rep = run(Machine(cfg, prog), inputs)
    activations = sum(bin(i.sub).count("1") for s in prog.segments
                      for i in s.instrs if i.op == "mvm")
    assert activations > 0
    assert rep.energy_nj["mvmu"] == activations * cfg.mvm_nj_per_mvmu
