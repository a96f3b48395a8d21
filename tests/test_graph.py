import numpy as np
import pytest

from xbarsim import fixedpoint as fp
from xbarsim import graph as gr
from xbarsim import layers


def test_three_node_mlp_shape():
    g = gr.ModelGraph()
    x = g.input("x", 4)
    w = g.const_matrix(np.zeros((4, 4)))
    out = g.act("sigmoid", g.mvm(w, x))
    g.output("y", out)
    kinds = [n.kind for n in g.nodes]
    assert kinds == ["input", "const_matrix", "mvm", "act", "output"]
    assert len(g.matrix_nodes()) == 1
    g.check_acyclic()


def test_shared_operand_is_valid():
    g = gr.ModelGraph()
    a = g.input("a", 3)
    s = g.alu("add", a, a)
    assert s.length == 3


def test_matrix_where_vector_expected_is_shape_error():
    g = gr.ModelGraph()
    w = g.const_matrix(np.zeros((4, 4)))
    with pytest.raises(gr.ShapeError):
        g.mvm(w, w)


def test_foreign_handle_rejected():
    g1, g2 = gr.ModelGraph(), gr.ModelGraph()
    x = g1.input("x", 4)
    with pytest.raises(gr.GraphError, match="different model"):
        g2.act("relu", x)


def test_frozen_graph_rejects_building():
    g = gr.ModelGraph()
    g.input("x", 4)
    g.freeze()
    with pytest.raises(gr.GraphError, match="frozen"):
        g.input("y", 4)


def test_mlp_layer_zero_weights_gives_sigmoid_of_zero():
    g = gr.ModelGraph()
    x = g.input("x", 4)
    out = layers.mlp_layer(g, x, np.zeros((4, 4)), np.zeros(4), "sigmoid")
    g.output("y", out)
    g.freeze()
    res = gr.evaluate(g, {"x": fp.quantize(np.array([0.5, -1, 2, 0.25]))})
    vals = fp.to_float(res["y"])
    lut_bound = fp.LutTable("sigmoid").error_bound()
    assert np.all(np.abs(vals - 0.5) <= lut_bound)


def test_interpreter_mvm_blockwise_definition():
    """Blockwise evaluation with D=2 equals explicit per-block MAC + merge."""
    rng = np.random.default_rng(3)
    w = rng.integers(-2000, 2000, size=(4, 4))
    x = rng.integers(-3000, 3000, size=4)
    got = gr.mvm_blockwise(w, x, xbar_dim=2, frac_bits=12)

    def block_mac(wb, xb):
        acc = xb.astype(object) @ wb.astype(object)
        return fp.saturate(fp.rshift_round_even(np.asarray(acc, np.int64), 12))

    for cj in (0, 2):
        p0 = block_mac(w[0:2, cj:cj + 2], x[0:2])
        p1 = block_mac(w[2:4, cj:cj + 2], x[2:4])
        want = fp.fx_add(p0, p1)
        assert got[cj:cj + 2].tolist() == want.tolist()


def test_gather_slice_concat():
    g = gr.ModelGraph()
    a = g.input("a", 4)
    b = g.input("b", 2)
    s = g.slice(a, 1, 2)
    c = g.concat([s, b])
    g.output("y", c)
    g.freeze()
    res = gr.evaluate(g, {"a": np.array([10, 11, 12, 13]), "b": np.array([20, 21])})
    assert res["y"].tolist() == [11, 12, 20, 21]


def test_stream_inputs_unroll_to_named_steps():
    g = gr.ModelGraph()
    steps = g.stream("s", 3, steps=2)
    assert [st.node.name for st in steps] == ["s#0", "s#1"]
    assert g.stream_steps == {"s": 2}


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def float_lstm_oracle(x, h, c, wx, wh, b):
    """Real-valued reference cell (gate order i, f, g, o)."""
    z = x @ wx + h @ wh + b
    hsz = len(h)
    sig = lambda v: 1 / (1 + np.exp(-v))
    i = sig(z[0:hsz])
    f = sig(z[hsz:2 * hsz])
    gg = np.tanh(z[2 * hsz:3 * hsz])
    o = sig(z[3 * hsz:4 * hsz])
    c_new = f * c + i * gg
    return o * np.tanh(c_new), c_new


def _build_lstm(hsz, nin, rng):
    g = gr.ModelGraph()
    x = g.input("x", nin)
    h = g.input("h", hsz)
    c = g.input("c", hsz)
    wx = rng.uniform(-0.4, 0.4, size=(nin, 4 * hsz))
    wh = rng.uniform(-0.4, 0.4, size=(hsz, 4 * hsz))
    b = rng.uniform(-0.2, 0.2, size=4 * hsz)
    h_t, c_t = layers.lstm_cell(g, x, h, c, wx, wh, b)
    g.output("h_t", h_t)
    g.output("c_t", c_t)
    g.freeze()
    return g, (wx, wh, b)


def test_lstm_zero_weights_zero_state_gives_zero_h():
    g = gr.ModelGraph()
    x = g.input("x", 2)
    h = g.input("h", 2)
    c = g.input("c", 2)
    h_t, _ = layers.lstm_cell(g, x, h, c, np.zeros((2, 8)), np.zeros((2, 8)))
    g.output("h_t", h_t)
    g.freeze()
    zeros = np.zeros(2, dtype=np.int64)
    res = gr.evaluate(g, {"x": zeros, "h": zeros, "c": zeros})
    # h = sigmoid(0) * tanh(c_t) with c_t ~ 0: tanh LUT at 0 is ~0
    assert np.all(np.abs(fp.to_float(res["h_t"])) < 0.01)


def test_lstm_forced_forget_carries_cell_state():
    """f ~ 1 and i ~ 0 via biases: c_t tracks c_prev."""
    hsz = 1
    g = gr.ModelGraph()
    x = g.input("x", 1)
    h = g.input("h", 1)
    c = g.input("c", 1)
    b = np.array([-7.9, 7.9, 0.0, 0.0])  # i off, f on
    h_t, c_t = layers.lstm_cell(g, x, h, c, np.zeros((1, 4)), np.zeros((1, 4)), b)
    g.output("c_t", c_t)
    g.freeze()
    c_prev = 0.5
    res = gr.evaluate(g, gr.quantize_inputs(g, {"x": [0], "h": [0], "c": [c_prev]}))
    assert abs(fp.to_float(res["c_t"])[0] - c_prev) < 0.01


def test_lstm_matches_float_oracle_within_fixed_point_tolerance():
    rng = np.random.default_rng(17)
    g, (wx, wh, b) = _build_lstm(hsz=8, nin=8, rng=rng)
    xf = rng.uniform(-1, 1, size=8)
    hf = rng.uniform(-1, 1, size=8)
    cf = rng.uniform(-1, 1, size=8)
    res = gr.evaluate(g, gr.quantize_inputs(g, {"x": xf, "h": hf, "c": cf}))
    h_want, c_want = float_lstm_oracle(xf, hf, cf, wx, wh, b)
    assert np.max(np.abs(fp.to_float(res["h_t"]) - h_want)) < 0.06
    assert np.max(np.abs(fp.to_float(res["c_t"]) - c_want)) < 0.06


def test_lstm_node_count_matches_closed_form():
    rng = np.random.default_rng(1)
    g, _ = _build_lstm(hsz=4, nin=4, rng=rng)
    # minus 3 graph inputs and 2 outputs
    assert len(g.nodes) - 5 == layers.lstm_node_count(4)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def direct_conv_oracle(img, w, b, stride):
    """Brute-force real-valued convolution per the sliding-window sum."""
    r, s, c, m = w.shape
    ci, h, wi = img.shape
    out_h = (h - r) // stride + 1
    out_w = (wi - s) // stride + 1
    out = np.zeros((m, out_h, out_w))
    for mm in range(m):
        for x in range(out_h):
            for y in range(out_w):
                acc = b[mm] if b is not None else 0.0
                for i in range(r):
                    for j in range(s):
                        for k in range(c):
                            acc += img[k, stride * x + i, stride * y + j] * w[i, j, k, mm]
                out[mm, x, y] = acc
    return out


def test_conv_all_ones_kernel_is_window_sum():
    g = gr.ModelGraph()
    img = g.input("img", 16)
    w = np.ones((3, 3, 1, 1))
    res = layers.conv_layer(g, img, w, None, stride=1, f=None, in_shape=(1, 4, 4))
    g.output("y", res.flat)
    g.freeze()
    vals = np.arange(16) / 64.0
    out = gr.evaluate(g, gr.quantize_inputs(g, {"img": vals}))
    want = direct_conv_oracle(vals.reshape(1, 4, 4), w, None, 1).reshape(-1)
    # exact: unit weights make the MVM a plain sum of raw inputs
    assert np.array_equal(fp.to_float(out["y"]), want)


def test_conv_random_matches_direct_oracle():
    rng = np.random.default_rng(23)
    g = gr.ModelGraph()
    img = g.input("img", 2 * 5 * 5)
    w = rng.uniform(-0.3, 0.3, size=(3, 3, 2, 4))
    b = rng.uniform(-0.1, 0.1, size=4)
    res = layers.conv_layer(g, img, w, b, stride=2, f=None, in_shape=(2, 5, 5))
    g.output("y", res.flat)
    g.freeze()
    assert res.out_shape == (4, 2, 2)
    imgf = rng.uniform(-1, 1, size=(2, 5, 5))
    out = gr.evaluate(g, gr.quantize_inputs(g, {"img": imgf.reshape(-1)}))
    want = direct_conv_oracle(imgf, w, b, 2).reshape(-1)
    assert np.max(np.abs(fp.to_float(out["y"]) - want)) < 0.02


def test_conv_1x1_kernel_reduces_to_per_pixel_fc():
    g = gr.ModelGraph()
    img = g.input("img", 2 * 2 * 2)
    w = np.full((1, 1, 2, 3), 0.25)
    res = layers.conv_layer(g, img, w, None, stride=1, f=None, in_shape=(2, 2, 2))
    g.freeze()
    assert res.out_shape == (3, 2, 2)
    # each window is exactly one pixel across channels
    for node in (p.node for p in res.pixels):
        assert node.kind == "mvm"
    wins = [n for n in g.nodes if n.kind == "gather" and n.win]
    assert all(len(n.indices) == 2 for n in wins)


def test_conv_5x5_unit_stride_windows_share_80_percent():
    idx_a = layers.window_indices((1, 8, 8), (5, 5), 1, 0, 0)
    idx_b = layers.window_indices((1, 8, 8), (5, 5), 1, 0, 1)
    shared = len(set(idx_a) & set(idx_b))
    assert shared / len(idx_a) == 0.8


def test_conv_stride_mismatch_rejected():
    g = gr.ModelGraph()
    img = g.input("img", 16)
    with pytest.raises(gr.ShapeError):
        layers.conv_layer(g, img, np.ones((3, 3, 1, 1)), None, stride=2,
                          f=None, in_shape=(1, 4, 4))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_preserves_evaluation():
    rng = np.random.default_rng(31)
    g = gr.ModelGraph()
    x = g.input("x", 6)
    h1 = layers.mlp_layer(g, x, rng.uniform(-0.5, 0.5, (6, 5)),
                          rng.uniform(-0.2, 0.2, 5), "tanh")
    h2 = layers.mlp_layer(g, h1, rng.uniform(-0.5, 0.5, (5, 3)), None, "relu")
    g.output("y", h2)
    # constants beyond +-8.0 saturate when built, so JSON cannot wrap them
    g.output("z", g.alu("sub", h2, g.const_vector([9.5, -12.0, 0.25])))
    g.freeze()
    text = gr.to_json(g)
    back = gr.from_json(text)
    xs = fp.quantize(rng.uniform(-1, 1, 6))
    a = gr.evaluate(g, {"x": xs})
    b = gr.evaluate(back, {"x": xs})
    assert a["y"].tolist() == b["y"].tolist()
    assert a["z"].tolist() == b["z"].tolist()
    assert a["z"][1] == fp.fx_sub(a["y"][1], fp.RAW_MIN)
    assert gr.to_json(back) == text


def test_four_layer_mlp_has_four_mvm_chain():
    from xbarsim import models
    g, _ = models.mlp_model(16, depth=4)
    mvms = [n for n in g.nodes if n.kind == "mvm"]
    assert len(mvms) == 4
    # each mvm's vector operand derives from the previous mvm
    for earlier, later in zip(mvms, mvms[1:]):
        seen = {later.id}
        stack = [later.inputs[1]]
        reached = False
        while stack:
            nid = stack.pop()
            if nid == earlier.id:
                reached = True
                break
            stack.extend(g.nodes[nid].inputs)
        assert reached


def test_conv_node_count_matches_closed_form():
    g = gr.ModelGraph()
    img = g.input("img", 25)
    layers.conv_layer(g, img, np.full((3, 3, 1, 2), 0.1),
                      np.zeros(2), 1, "relu", in_shape=(1, 5, 5))
    n_windows = 3 * 3
    # input + weight const + bias (const + gather) +
    # per window (gather, mvm, add, act) + flat gather
    want = 1 + 1 + 2 + n_windows * 4 + 1
    assert len(g.nodes) == want


def test_alu_imm_signed_semantics_and_serialization():
    g = gr.ModelGraph()
    a = g.input("a", 3)
    small = g.alu_imm("add", a, -0.25)        # fits the 12-bit immediate
    big = g.alu_imm("sub", small, 2.5)        # forced to a register constant
    g.output("y", big)
    g.freeze()
    xs = fp.quantize(np.array([0.5, -1.0, 3.0]))
    want = fp.fx_sub(fp.fx_add(xs, fp.quantize(-0.25)), fp.quantize(2.5))
    out = gr.evaluate(g, {"a": xs})
    assert out["y"].tolist() == want.tolist()
    back = gr.from_json(gr.to_json(g))
    assert gr.evaluate(back, {"a": xs})["y"].tolist() == want.tolist()


def test_alu_imm_compiles_to_machine_equivalent():
    from xbarsim.compiler import compile_model
    from xbarsim.machine import MachineConfig
    from xbarsim.simulator import Machine, run
    g = gr.ModelGraph()
    a = g.input("a", 6)
    h = g.alu_imm("add", a, -0.25)
    h = g.alu_imm("mul", h, 0.3)
    h = g.alu_imm("sub", h, 3.0)              # register-constant expansion
    g.output("y", h)
    g.freeze()
    cfg = MachineConfig(xbar_dim=8, mvmus_per_core=2, cores_per_tile=2,
                        tiles=1, dmem_words=512)
    xs = fp.quantize(np.random.default_rng(0).uniform(-1, 1, 6))
    want = gr.evaluate(g, {"a": xs}, cfg.xbar_dim)
    prog, _ = compile_model(g, cfg)
    rep = run(Machine(cfg, prog), {"a": xs})
    assert rep.halted
    assert rep.outputs["y"].tolist() == want["y"].tolist()
