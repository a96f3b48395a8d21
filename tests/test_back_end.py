"""One compile back end for unrolled and loop mode, and any number of runs
per configured Machine."""

import numpy as np
import pytest

from xbarsim import graph as gr, models
from xbarsim.compiler import CompileError, CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run

from test_golden import _build, _cases

LOOP = CompileOptions(conv_loop=True)


@pytest.mark.parametrize("side, filters, opts, who", [
    (8, 2, CompileOptions(), r"^tile 0 core 0: "),
    (8, 2, LOOP, r"^tile 0 core 0: "),
    # the looper core's body holds bias, accumulator and counters
    (4, 16, LOOP, r"^tile 0 core 1: the loop body needs 35 register words, "
                  r"the register file has 32$"),
], ids=["unrolled", "loop", "loop_body"])
def test_register_file_overflow_is_a_compile_error_naming_the_actor(
        side, filters, opts, who):
    g, _ = models.conv_model(side=side, channels=1, filters=filters,
                             pixel_outputs=True)
    with pytest.raises(CompileError, match=who):
        compile_model(g, MachineConfig(register_size=32), opts)


@pytest.mark.parametrize("opts", [CompileOptions(), LOOP],
                         ids=["unrolled", "loop"])
def test_a_model_in_another_fixed_point_format_is_a_compile_error(opts):
    g = gr.ModelGraph(frac_bits=10)
    g.output("y", g.mvm(g.const_matrix(np.eye(4) * 0.5), g.input("x", 4)))
    g.freeze()
    with pytest.raises(CompileError, match=r"^the model has 10 fraction bits, "
                                           r"the machine 12$"):
        compile_model(g, MachineConfig(tiles=1), opts)


@pytest.mark.parametrize("name, opts", [("conv_loop", LOOP),
                                        ("conv_loop", CompileOptions()),
                                        ("lstm8", CompileOptions())])
def test_report_counts_coalesce_groups(name, opts):
    # 8-wide crossbars split the 9-row conv window over two MVMUs
    g, _ = models.build_example(name)
    _, report = compile_model(g, MachineConfig(xbar_dim=8, tiles=2), opts)
    assert report.coalesce_groups > 0
    assert f"coalesce groups: {report.coalesce_groups}\n" in report.to_text()


def test_tile_instruction_overflow_is_a_compile_error_naming_the_unit():
    with pytest.raises(CompileError, match=r"^tile 0 unit: 4 instructions "
                                           r"exceed the 2-instruction memory$"):
        compile_model(models.mlp_model(512)[0],
                      MachineConfig(tiles=4, tile_imem_bytes=14))


def test_tile_memory_overflow_is_a_compile_error_naming_the_tile():
    with pytest.raises(CompileError, match=r"^tile 0 shared memory exhausted: "
                                           r"need 4736 of 4096 words$"):
        compile_model(models.mlp_model(1152)[0], MachineConfig(tiles=16))


def test_a_1024_wide_mlp_runs_bit_exact_on_16_tiles():
    g, inputs = models.mlp_model(1024)
    cfg = MachineConfig(tiles=16)
    prog, report = compile_model(g, cfg)
    assert report.spill_count == 64
    rep = run(Machine(cfg, prog), inputs)
    assert rep.halted
    assert rep.outputs["y"].tolist() == gr.evaluate(g, inputs)["y"].tolist()


def test_a_machine_runs_again_from_fresh_state():
    g, pts, _ = models.trained_tiny_classifier()
    cfg = MachineConfig(tiles=1)
    prog, _ = compile_model(g, cfg)
    m = Machine(cfg, prog)
    first = run(m, pts[0])
    assert first.outputs["y"].tolist() == gr.evaluate(g, pts[0])["y"].tolist()
    assert run(m, pts[0]).to_dict() == first.to_dict()
    batch = run(m, {k: np.stack([pts[0][k], pts[40][k]]) for k in pts[0]})
    assert batch.outputs["y"][0].tolist() == first.outputs["y"].tolist()
    assert batch.outputs["y"][1].tolist() == [-275, -149, 4297]
    assert run(m, pts[0]).to_dict() == first.to_dict()


@pytest.mark.parametrize("case", list(_cases()), ids=[c[0] for c in _cases()])
def test_golden_case_reruns_identically_under_any_event_order(case):
    """One Machine gives the same report when run again, and the same
    outputs, bit for bit, whatever order same-cycle events take."""
    _, inputs, cfg, prog = _build(case)
    m = Machine(cfg, prog)
    want = run(m, inputs)
    assert want.halted
    assert run(m, inputs).to_dict() == want.to_dict()
    for seed in (0, 1, 2):
        got = run(m, inputs, order_seed=seed).outputs
        assert got.keys() == want.outputs.keys()
        for name, vec in want.outputs.items():
            assert np.array_equal(got[name], vec), (seed, name)
