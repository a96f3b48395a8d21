"""A Chip is checked once per program; Machines program it per run-only config.

A Machine programmed from a shared Chip reports exactly what a Machine
built from the Program does, the program's instructions are checked once
per sweep however many points share the chip, and its weight blocks are
sliced once per cell precision into planes that noisy Machines leave as
they are. A config that differs from the chip's outside the run-only
fields is refused by name. A run builds registers, pcs and hits only for
the actors with code, and sizes registers and tile memory to the words
the program reaches."""

import itertools

import numpy as np
import pytest

from xbarsim import cli, container, graph as gr, isa, models, simulator
from xbarsim.crossbar import slice_weights
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Chip, GeometryError, Machine, run

BASE = MachineConfig(tiles=1)
GRID = list(itertools.product((0.0, 0.02, 0.06), (0, 7), (2, 4), (0, 9)))


def _classifier():
    """A fresh frozen copy, so no other test's sweep memo holds its chip."""
    g, pts, labels = models.trained_tiny_classifier()
    return gr.from_json(gr.to_json(g)), pts, labels


def _lanes(pts):
    return {"x": np.stack([p["x"] for p in pts])}


def _cfg(sigma, seed, bits, adc):
    return BASE.with_overrides(noise_sigma=sigma, seed=seed,
                               bits_per_device=bits, adc_bits=adc)


def test_a_shared_chip_reports_what_a_fresh_machine_does():
    g, pts, _ = _classifier()
    prog = compile_model(g, BASE)[0]
    chip = Chip(BASE, prog)
    inputs = _lanes(pts[:8])
    for point in GRID:
        cfg = _cfg(*point)
        shared = run(Machine(cfg, chip), inputs).to_dict()
        fresh = run(Machine(cfg, prog), inputs).to_dict()
        assert shared == fresh, point


def test_sweep_point_outcomes_match_a_fresh_machine():
    g, pts, labels = _classifier()
    prog = compile_model(g, BASE)[0]
    for point in GRID:
        cfg = _cfg(*point)
        got = cli.sweep_point(g, cfg, pts[0], CompileOptions(), pts[:12],
                              labels[:12], "y")
        rep = run(Machine(cfg, prog), _lanes([pts[0]] + pts[:12]))
        want = (rep.latency_ns, rep.energy_total_nj,
                models.classifier_accuracy(rep.outputs["y"][1:],
                                           labels[:12]))
        assert got == want, point


def test_a_noise_sweep_checks_each_instruction_once(monkeypatch):
    g, pts, _ = _classifier()
    calls = []

    def counted(*args):
        calls.append(args[0])
        return check(*args)

    check = simulator._check_fits
    monkeypatch.setattr(simulator, "_check_fits", counted)
    for sigma in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05):
        cli.sweep_point(g, BASE.with_overrides(noise_sigma=sigma), pts[0],
                        CompileOptions())
    prog = compile_model(g, BASE)[0]
    assert len(calls) == prog.total_instructions() > 0


def test_a_noise_sweep_slices_each_block_once_per_cell_precision(monkeypatch):
    g, pts, _ = _classifier()
    calls = []

    def counted(*args):
        calls.append(args[2])
        return sliced(*args)

    sliced = simulator.slice_weights
    monkeypatch.setattr(simulator, "slice_weights", counted)
    for bits in (2, 4):
        for sigma in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05):
            cli.sweep_point(g, BASE.with_overrides(noise_sigma=sigma,
                                                   bits_per_device=bits),
                            pts[0], CompileOptions())
    blocks = len(compile_model(g, BASE)[0].weights)
    assert calls == [2] * blocks + [4] * blocks and blocks > 0


def test_noisy_machines_leave_the_shared_planes_as_they_are():
    g, pts, _ = _classifier()
    chip = Chip(BASE, compile_model(g, BASE)[0])
    planes = chip.planes(4)
    before = [p.slices.copy() for p in planes]
    for sigma, adc in ((0.02, 0), (0.06, 9), (0.0, 9)):
        m = Machine(BASE.with_overrides(noise_sigma=sigma, bits_per_device=4,
                                        adc_bits=adc), chip)
        run(m, _lanes(pts[:8]))
    assert chip.planes(4) is planes
    for p, wb, old in zip(planes, chip.prog.weights, before):
        assert p.noise_sigma == 0
        assert np.array_equal(p.slices, old)
        assert np.array_equal(p.slices, slice_weights(wb.w_raw, BASE.xbar_dim,
                                                      4).slices)


def test_a_config_outside_the_run_only_fields_is_refused_by_name():
    g, _, _ = _classifier()
    chip = Chip(BASE, compile_model(g, BASE)[0])
    with pytest.raises(GeometryError, match="^vfu_lanes is 4 but the chip's is 1$"):
        Machine(BASE.with_overrides(vfu_lanes=4), chip)


def test_only_actors_with_code_get_run_state():
    g, pts, _ = _classifier()
    prog = compile_model(g, BASE)[0]
    assert [(s.tile, s.core) for s in prog.segments] == [(0, 0)]
    m = Machine(BASE.with_overrides(noise_sigma=0.03, adc_bits=9), prog)
    first = run(m, _lanes(pts[:4]))
    assert list(m.units) == list(m.cores) == [(0, 0)]
    assert m.chip.regs == {(0, 0): 544}
    assert m.cores[(0, 0)].regs.shape == (544, 4)
    assert list(m.tiles) == [0] and len(m.tiles[0].fifos) == BASE.num_fifos
    again = run(m, _lanes(pts[:4]))
    assert again.to_dict() == first.to_dict()


def test_run_state_holds_the_program_footprint_times_the_lanes():
    g, pts, _ = _classifier()
    m = Machine(BASE, compile_model(g, BASE)[0])
    lanes = np.resize(_lanes(pts)["x"], (10_000, 2))
    rep = run(m, {"x": lanes})
    assert rep.halted and m.chip.words == {0: 24}
    held = {a: u.regs.shape for a, u in m.cores.items()}
    held.update({t: tile.data.shape for t, tile in m.tiles.items()})
    assert held == {(0, 0): (544, 10_000), 0: (24, 10_000)}
    assert m.tiles[0].count.shape == (24,)
    one = run(m, _lanes(pts)).outputs["y"]
    assert np.array_equal(rep.outputs["y"], np.resize(one, (10_000, 3)))


def _edge_program(cfg):
    """Core (0, 0) adds the two input words in the last register and stores
    the sum at tile 0's last word, which only the code reaches; tile 0's
    unit sends it to tile 1, which receives it into its last word. Tile 2
    has no code and no data."""
    last = cfg.regspace().total - 1
    end = cfg.dmem_words - 1
    prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core,
                             cfg.cores_per_tile, cfg.tiles, cfg.frac_bits)
    prog.segments += [
        container.Segment(0, 0, [isa.load(last - 1, end - 2, 2),
                                 isa.alu("add", last, last - 1, last),
                                 isa.store(end, last, 1)]),
        container.Segment(0, container.TILE_UNIT, [isa.send(end, 0, 1, 1)]),
        container.Segment(1, container.TILE_UNIT, [isa.recv(end, 0, 1, 1)])]
    prog.io += [container.IoBinding("in", "x", 0, end - 2, 2, 1),
                container.IoBinding("out", "y", 1, end, 1, 0)]
    return prog


def test_a_program_at_the_last_word_and_register_runs():
    cfg = MachineConfig(xbar_dim=4, cores_per_tile=2, tiles=3)
    m = Machine(cfg, _edge_program(cfg))
    assert (cfg.dmem_words, cfg.regspace().total) == (4096, 32)
    assert m.chip.words == {0: 4096, 1: 4096, 2: 0}
    assert m.chip.regs == {(0, 0): 32}
    rep = run(m, {"x": [5, 7]})
    assert rep.halted and rep.outputs["y"].tolist() == [12]
    rep = run(m, {"x": [[5, 7], [100, -3]]})
    assert rep.halted and rep.outputs["y"].tolist() == [[12], [97]]


def test_a_tile_without_code_or_data_gets_no_words():
    cfg = MachineConfig(xbar_dim=4, cores_per_tile=2, tiles=3)
    m = Machine(cfg, _edge_program(cfg))
    run(m, {"x": [[5, 7], [1, 2]]})
    assert m.tiles[2].data.shape == (0, 2)
    assert m.tiles[2].count.shape == (0,)
    assert len(m.tiles[2].fifos) == cfg.num_fifos


def test_a_deadlock_still_lists_every_blocked_actor():
    """Two cores and both tile units of an 8-core, 2-tile machine wait
    forever; the other cores have no code."""
    cfg = MachineConfig(xbar_dim=4, cores_per_tile=8, tiles=2,
                        dmem_words=64)
    g0 = cfg.regspace().general(0)
    prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core,
                             cfg.cores_per_tile, cfg.tiles, cfg.frac_bits)
    prog.segments += [
        container.Segment(0, 3, [isa.load(g0, 5, 1)]),
        container.Segment(1, 6, [isa.seti(g0, 1), isa.load(g0, 9, 1)]),
        container.Segment(0, container.TILE_UNIT, [isa.recv(0, 0, 1, 1)]),
        container.Segment(1, container.TILE_UNIT, [isa.recv(0, 1, 1, 1)])]
    m = Machine(cfg, prog)
    rep = run(m, {})
    assert rep.deadlock and len(m.cores) == 2
    assert rep.diagnosis == [
        "tile 0 core 3 blocked at pc 0 on load waiting on word 5: "
        f"'load ${g0}, 5, 1'",
        "tile 0 unit blocked at pc 0 on receive waiting on fifo 0: "
        "'receive 0, 0, 1, 1'",
        "tile 1 core 6 blocked at pc 1 on load waiting on word 9: "
        f"'load ${g0}, 9, 1'",
        "tile 1 unit blocked at pc 0 on receive waiting on fifo 1: "
        "'receive 0, 1, 1, 1'"]
    assert set(rep.blocked_ns) == {(0, 3), (1, 6), (0, container.TILE_UNIT),
                                   (1, container.TILE_UNIT)}
