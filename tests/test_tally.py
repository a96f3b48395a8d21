"""The run's counts and energies are one tally: hits per pc times the
static cost of one execution (`simulator.instr_cost`), summed after the run.

The golden hashes pin energies, instruction counts, reg_accesses and
spill_accesses through RunReport.to_dict; the figures pinned here state
the counts in the open."""

import pytest

from xbarsim import models
from xbarsim.compiler import compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, RunReport, run, tally

from test_golden import _build, _cases


def _compiled(name):
    if name == "mlp512":
        (g, inputs), cfg = models.mlp_model(512), MachineConfig(tiles=4)
    else:
        g, inputs = models.build_example(name)
        cfg = models.default_config_for(name)
    prog, _ = compile_model(g, cfg)
    return cfg, prog, inputs


# golden case -> (reg_accesses, spill_accesses, mode_switches)
COUNTS = {
    "cnn_small": (3248, 0, 0),
    "conv8x8": (3040, 0, 0),
    "conv_loop": (200, 0, 0),
    "conv_loop/loop": (308, 0, 0),
    "lstm128": (10624, 0, 5),
    "lstm8": (584, 0, 5),
    "mlp128": (2304, 0, 2),
    "mlp256": (8192, 0, 4),
    "mlp4": (72, 0, 2),
    "mlp_l4": (576, 0, 4),
    "mvm_pair": (1024, 0, 0),
    "vector": (5376, 0, 0),
    "mlp512/4tiles": (32768, 0, 8),
    "mlp256/naive_order": (8192, 0, 4),
    "mvm_pair/no_coalesce": (1024, 0, 0),
    "conv8x8/no_shuffle": (3904, 0, 0),
    "mlp256/naive_partition": (9216, 0, 4),
    "lstm8/xbar8": (664, 0, 5),
    "conv_c16/loop2": (3616, 0, 0),
    "conv_c2/loop3_xbar8": (594, 26, 0),
}


@pytest.mark.parametrize("case", list(_cases()), ids=[c[0] for c in _cases()])
def test_counts_outside_the_golden_hashes_are_pinned(case):
    _, inputs, cfg, prog = _build(case)
    rep = run(Machine(cfg, prog), inputs)
    assert rep.halted
    assert (rep.reg_accesses, rep.spill_accesses,
            rep.mode_switches) == COUNTS[case[0]]


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
    static.start(inputs)     # the run state a run starts from
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
