"""Loop mode compiles one windowed layer into looped cores on the idle
cores of tile 0, each running one body over its share of the windows, or
raises a CompileError that says why it cannot."""

import hashlib

import numpy as np
import pytest

from xbarsim import compiler, container, graph as gr, layers, models
from xbarsim.compiler import CompileError, CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run

LOOP = CompileOptions(conv_loop=True)


def _four_windows(case):
    """Four windows of a 3x3 convolution over a 4x4 image, tagged the way
    layers.conv_layer tags them, that differ as `case` says: "bias_act"
    gives each window its own bias and a relu on odd windows only,
    "weights" alternates between two weight matrices."""
    rng = np.random.default_rng(5)
    g = gr.ModelGraph()
    img = g.input("img", 16)
    mats = [g.const_matrix(rng.uniform(-0.4, 0.4, (9, 2))) for _ in range(2)]
    g.new_layer()
    for seq in range(4):
        idx = layers.window_indices((1, 4, 4), (3, 3), 1, *divmod(seq, 2))
        win = g.gather([img], [(0, e) for e in idx], win=(g.layer, seq))
        node = g.mvm(mats[seq % 2 if case == "weights" else 0], win)
        g.nodes[node.id].win = (g.layer, seq)
        if case == "bias_act":
            bias = g.const_vector(rng.uniform(-0.5, 0.5, 2))
            node = g.alu("add", bias, node)
            if seq % 2:
                node = g.act("relu", node)
        g.output(f"p{seq}", node)
    g.freeze()
    return g, gr.quantize_inputs(g, {"img": rng.uniform(-1, 1, 16)})


@pytest.mark.parametrize("case", ["bias_act", "weights"])
def test_windows_that_differ_from_the_first_are_a_compile_error(case):
    g, inputs = _four_windows(case)
    cfg = MachineConfig(tiles=2)
    prog, _ = compile_model(g, cfg)      # unrolled mode is bit-exact
    outputs = run(Machine(cfg, prog), inputs).outputs
    for name, want in gr.evaluate(g, inputs).items():
        assert np.array_equal(outputs[name], want), name
    with pytest.raises(CompileError, match=r"^loop mode: window \(1, 1\) has "
                       r"other weights, bias or activation than window "
                       r"\(1, 0\)$"):
        compile_model(g, cfg, LOOP)


def _conv4(tail):
    """One-filter 3x3 convolution over a 4x4 image without bias or
    activation; tail(g, i, pixel) adds what follows pixel i."""
    g = gr.ModelGraph()
    img = g.input("img", 16)
    res = layers.conv_layer(g, img, np.full((3, 3, 1, 1), 0.1), None, 1,
                            None, in_shape=(1, 4, 4))
    for i, p in enumerate(res.pixels):
        tail(g, i, p)
    g.freeze()
    return g


def _read_twice(g, i, p):
    g.output(f"p{i}", p)
    g.output(f"q{i}", p)


def _and_the_image_plus_a_quarter(g, i, p):
    """Pixel outputs plus one output outside the windowed layer, read
    straight from the image (node 0)."""
    g.output(f"p{i}", p)
    if i == 0:
        g.output("extra", g.alu_imm("add", gr.NodeRef(g, 0), 0.25))


def _conv(**kw):
    return models.conv_model(side=4, pixel_outputs=True, **kw)[0]


@pytest.mark.parametrize("build, cfg, message", [
    (_conv, MachineConfig(cores_per_tile=2),
     "needs at least 3 cores per tile"),
    (lambda: models.mlp_model(4)[0], MachineConfig(),
     "expects exactly one windowed layer"),
    (lambda: _conv4(_read_twice), MachineConfig(),
     "expects single-consumer chains"),
    (lambda: _conv4(lambda g, i, p: g.output(f"p{i}", g.alu("add", p, p))),
     MachineConfig(), "bias must be a constant vector"),
    (lambda: models.conv_model()[0], MachineConfig(),
     "chains must end at model outputs"),
    (lambda: _conv4(_and_the_image_plus_a_quarter), MachineConfig(tiles=2),
     "^loop mode cannot produce outputs outside the windowed layer: extra$"),
    (lambda: _conv(filters=16), MachineConfig(xbar_dim=8),
     "supports a single output block"),
    (lambda: _conv(channels=2, filters=2),
     MachineConfig(xbar_dim=8, mvmus_per_core=2),
     "window rows exceed one core's MVMUs"),
], ids=["two_cores", "no_windows", "read_twice", "computed_bias",
        "flat_output", "output_outside_the_layer", "two_column_blocks",
        "three_row_tiles"])
def test_what_loop_mode_cannot_compile_is_named(build, cfg, message):
    with pytest.raises(CompileError, match=message):
        compile_model(build(), cfg, LOOP)


def _run_looped(g, inputs, cfg):
    """The looped program and its run, after checking the run bit-exact."""
    prog, _ = compile_model(g, cfg, LOOP)
    rep = run(Machine(cfg, prog), inputs)
    assert rep.halted
    want = gr.evaluate(g, inputs, xbar_dim=cfg.xbar_dim)
    assert {k: v.tolist() for k, v in rep.outputs.items()} == \
        {k: v.tolist() for k, v in want.items()}
    return prog, rep


def _ops(prog, core, op):
    return [i for s in prog.segments if (s.tile, s.core) == (0, core)
            for i in s.instrs if i.op == op]


def test_conv12_splits_its_loop_over_six_cores():
    # 100 windows in 50 groups of k = 2 over L = 8 - 2 looped cores: 8
    # full rounds and a last round of 2 groups
    g, inputs = models.conv_model(side=12, filters=2, pixel_outputs=True)
    prog, rep = _run_looped(g, inputs, MachineConfig())
    limits = {s.core: [i.b for i in s.instrs if i.op == "set"][-1]
              for s in prog.segments if any(i.op == "brn" for i in s.instrs)}
    assert limits == {1: 9, 3: 9, 4: 8, 5: 8, 6: 8, 7: 8}
    assert rep.latency_ns < 25_000
    # a round of 6 x 2 x 9 words fits beside the 144-word image: one
    # feeder store and one collector load per round
    assert [i.w for i in _ops(prog, 0, "store")] == [108] * 8 + [36]
    assert [i.w for i in _ops(prog, 2, "load")] == [24] * 8 + [8]


def test_a_round_too_large_for_the_feeder_moves_group_by_group():
    # 144-row windows on two MVMUs, so k = 1: a round of 4 windows (576
    # words) does not fit 512 registers beside the 256-word image
    g, inputs = models.conv_model(side=4, channels=16, filters=8, seed=3,
                                  pixel_outputs=True)
    prog, _ = _run_looped(g, inputs, MachineConfig(tiles=2))
    stores = _ops(prog, 0, "store")
    assert [i.w for i in stores] == [144] * 4
    assert [i.a - stores[0].a for i in stores] == [0, 144, 288, 432]
    assert [i.w for i in _ops(prog, 2, "load")] == [8] * 4


@pytest.mark.parametrize("kw, digest", [
    (dict(side=4),
     "56a5ad117487b0bfd51aef5dcb998a9509987aff17aa6afcbf6331e5caa2c10e"),
    (dict(side=12),
     "efe32c27238b7ddbe54ef1e343ce8ce28db21326829c0df16f78683077eb5bbe"),
    (dict(side=6, channels=2, filters=3),
     "51cde641301ec6641b98616792a1eb5d0be2a41b4acc4147b9c64041c28b7675"),
], ids=["side4", "side12", "side6_c2_f3"])
def test_three_cores_keep_one_looped_core(kw, digest):
    """With 3 cores per tile there is one looped core, and the container
    is the one a single-looper layout writes."""
    g, inputs = models.conv_model(pixel_outputs=True, **kw)
    prog, _ = _run_looped(g, inputs, MachineConfig(cores_per_tile=3))
    assert hashlib.sha256(container.save(prog)).hexdigest() == digest


def test_a_refused_loop_mode_model_compiles_once(monkeypatch):
    calls = []
    real = compiler._compile_conv_loop
    monkeypatch.setattr(compiler, "_compile_conv_loop",
                        lambda *a: calls.append(a) or real(*a))
    with pytest.raises(CompileError,
                       match="^loop mode needs at least 3 cores per tile$"):
        compile_model(_conv(), MachineConfig(cores_per_tile=2), LOOP)
    assert len(calls) == 1
