"""Loop mode compiles one windowed layer into a looped core that runs one
body for every window, or raises a CompileError that says why it cannot."""

import numpy as np
import pytest

from xbarsim import graph as gr, layers, models
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
