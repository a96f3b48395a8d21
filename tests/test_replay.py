"""A run that halts times its Chip, and later runs on that chip replay the
recorded order of issue through the value halves alone.

A replayed report must equal a fresh chip's event-loop run, `to_dict()`
for `to_dict()`, whatever the inputs, device numerics, lane count or power
figures. Runs that must show their steps or their limits take the event
loop: an order seed, a step limit below the recorded steps, the DEBUG
trace, and data that branches where the recorded run did not.
"""

import json
import logging
from unittest import mock

import numpy as np
import pytest

from xbarsim import container, fixedpoint as fp, isa, models, simulator
from xbarsim.compiler import compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Chip, Machine, SimError, run

from test_golden import GOLDEN, NOISY_GOLDEN, NOISY_POINTS, _build, \
    _cases, _sha


def _other(inputs, seed, scale=1.0):
    """Inputs with the names and shapes of `inputs`, drawn from seed in
    [-scale, scale]."""
    rng = np.random.default_rng(seed)
    return {k: fp.quantize(rng.uniform(-scale, scale, np.shape(v)))
            for k, v in inputs.items()}


def _event_loops():
    """Count the event loops run inside the block (`.call_count`)."""
    return mock.patch.object(simulator._Sim, "run", autospec=True,
                             side_effect=simulator._Sim.run)


def _timed(cfg, prog, inputs):
    """A chip of prog timed by one halted run on inputs."""
    chip = Chip(cfg, prog)
    assert run(Machine(cfg, chip), inputs).halted
    assert chip.timed is not None
    return chip


def _replayed(machine, inputs, **kw):
    with _event_loops() as loops:
        report = run(machine, inputs, **kw)
    assert loops.call_count == 0, "the run took the event loop"
    return report


@pytest.mark.parametrize("case", list(_cases()), ids=[c[0] for c in _cases()])
def test_a_golden_case_replays_with_other_inputs(case):
    """The chip is timed by wide inputs, so that no value of the timing run
    may leak into a replay: on them `vector` saturates (see below)."""
    _, inputs, cfg, prog = _build(case)
    chip = _timed(cfg, prog, _other(inputs, 3, scale=8.0))
    got = _replayed(Machine(cfg, chip), inputs)
    assert _sha(json.dumps(got.to_dict(), sort_keys=True)) == \
        GOLDEN[case[0]][2]
    other = _other(inputs, 7)
    want = run(Machine(cfg, prog), other)
    assert want.halted
    assert _replayed(Machine(cfg, chip), other).to_dict() == want.to_dict()


def test_the_vector_kernel_saturates_on_wide_inputs():
    _, inputs, cfg, prog = _build(next(c for c in _cases()
                                       if c[0] == "vector"))
    assert run(Machine(cfg, prog), inputs).saturations == 0
    assert run(Machine(cfg, prog),
               _other(inputs, 3, scale=8.0)).saturations > 0


def test_one_timed_chip_replays_every_noisy_configuration():
    """Noise, the ADC and bits per device enter only through the MVM, so a
    chip timed by one clean single-lane run replays each pinned noisy
    report, with every eval point as a lane, byte for byte."""
    g, points, _ = models.trained_tiny_classifier()
    base = MachineConfig(tiles=1)
    prog, _ = compile_model(g, base)
    chip = _timed(base, prog, points[0])
    lanes = {"x": np.stack([p["x"] for p in points])}
    for point in NOISY_POINTS:
        bits, sigma, seed, adc = point
        cfg = base.with_overrides(bits_per_device=bits, noise_sigma=sigma,
                                  seed=seed, adc_bits=adc)
        report = _replayed(Machine(cfg, chip), lanes)
        assert _sha(json.dumps(report.to_dict(), sort_keys=True)) == \
            NOISY_GOLDEN[point], point


@pytest.mark.parametrize("lanes", [None, 1, 3])
def test_a_replay_runs_another_lane_count_than_the_recording(lanes):
    g, points, _ = models.trained_tiny_classifier()
    cfg = MachineConfig(tiles=1, noise_sigma=0.02, seed=4)
    prog, _ = compile_model(g, cfg)
    chip = _timed(cfg, prog, {"x": np.stack([points[0]["x"], points[1]["x"]])})
    inputs = points[5] if lanes is None else \
        {"x": np.stack([p["x"] for p in points[10:10 + lanes]])}
    want = run(Machine(cfg, prog), inputs).to_dict()
    assert _replayed(Machine(cfg, chip), inputs).to_dict() == want


def test_a_replay_at_doubled_power_costs_what_a_full_run_does():
    _, inputs, cfg, prog = _build(next(c for c in _cases()
                                       if c[0] == "lstm8"))
    chip = _timed(cfg, prog, inputs)
    hot = cfg.with_overrides(power_mw={k: 2 * v
                                       for k, v in cfg.power_mw.items()})
    want = run(Machine(hot, prog), inputs)
    got = _replayed(Machine(hot, chip), inputs)
    assert got.to_dict() == want.to_dict()
    assert (got.energy_nj, got.energy_total_nj) == \
        (want.energy_nj, want.energy_total_nj)
    assert got.energy_total_nj != run(Machine(cfg, chip), inputs) \
        .energy_total_nj


def _mlp4():
    _, inputs, cfg, prog = _build(next(c for c in _cases()
                                       if c[0] == "mlp4"))
    return inputs, cfg, prog


def test_an_order_seed_takes_the_event_loop():
    inputs, cfg, prog = _mlp4()
    m = Machine(cfg, _timed(cfg, prog, inputs))
    with _event_loops() as loops:
        got = run(m, inputs, order_seed=3)
    assert loops.call_count == 1
    assert got.to_dict() == run(Machine(cfg, prog), inputs).to_dict()


def test_a_step_limit_below_the_recorded_steps_takes_the_event_loop():
    inputs, cfg, prog = _mlp4()
    chip = _timed(cfg, prog, inputs)
    steps = chip.timed[0].steps
    with _event_loops() as loops:
        cut = run(Machine(cfg, chip), inputs, step_limit=steps - 1)
    assert loops.call_count == 1 and cut.step_limit_hit
    assert cut.to_dict() == run(Machine(cfg, prog), inputs,
                                step_limit=steps - 1).to_dict()
    assert _replayed(Machine(cfg, chip), inputs, step_limit=steps).halted


def test_the_debug_trace_prints_every_step_of_a_timed_chip(caplog):
    inputs, cfg, prog = _mlp4()
    m = Machine(cfg, _timed(cfg, prog, inputs))
    with caplog.at_level(logging.DEBUG, logger="xbarsim"), \
            _event_loops() as loops:
        report = run(m, inputs)
    assert loops.call_count == 1
    executed = [r for r in caplog.records if "pc executed" in r.getMessage()]
    assert len(executed) == report.steps > 0


def _branch_program(cfg):
    """Core 0 loads input word x[0] into a register and stores 222 to y
    if it is above 0, else 111: a branch on loaded data."""
    rs = cfg.regspace()
    g = rs.general
    prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core,
                             cfg.cores_per_tile, cfg.tiles, cfg.frac_bits)
    prog.segments.append(container.Segment(0, 0, [
        isa.load(g(0), 0, 1),
        isa.seti(g(1), 0),
        isa.brn("gt", g(0), g(1), 5),
        isa.seti(g(2), 111),
        isa.jmp(6),
        isa.seti(g(2), 222),
        isa.store(1, g(2), 1, 1),
    ]))
    prog.io += [container.IoBinding("in", "x", 0, 0, 1, 1),
                container.IoBinding("out", "y", 0, 1, 1, 1)]
    return prog


def test_data_that_branches_elsewhere_starts_over_in_the_event_loop():
    cfg = MachineConfig(xbar_dim=4, tiles=1, cores_per_tile=1)
    prog = _branch_program(cfg)
    m = Machine(cfg, _timed(cfg, prog, {"x": [5]}))
    with _event_loops() as loops:
        got = run(m, {"x": [-5]})
    assert loops.call_count == 1
    want = run(Machine(cfg, prog), {"x": [-5]})
    assert got.outputs["y"].tolist() == [111]
    assert got.to_dict() == want.to_dict()
    # the same branch as the recorded run replays
    assert _replayed(m, {"x": [9]}).outputs["y"].tolist() == [222]


def test_an_error_in_a_value_half_names_the_actor_and_pc():
    """A lane-varying brn operand raises in the replay as in the event
    loop: the recorded run had one lane, which is always uniform."""
    cfg = MachineConfig(xbar_dim=4, tiles=1, cores_per_tile=1)
    prog = _branch_program(cfg)
    m = Machine(cfg, _timed(cfg, prog, {"x": [5]}))
    lanes = {"x": [[5], [-5]]}
    with pytest.raises(SimError) as fresh:
        run(Machine(cfg, prog), lanes)
    with _event_loops() as loops, pytest.raises(SimError) as replayed:
        run(m, lanes)
    assert loops.call_count == 0
    assert str(replayed.value) == str(fresh.value)
    assert str(replayed.value).startswith("tile 0 core 0 pc 2: brn reads")
