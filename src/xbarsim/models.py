"""Example models shipped with the package: desk-scale stand-ins for the
fully-connected, recurrent, and convolutional workload families, plus the
synthetic kernels the demos and acceptance checks drive."""

import numpy as np

from . import fixedpoint as fp
from . import graph as gr
from . import layers
from .machine import MachineConfig


def mlp_model(width, depth=2, seed=0, act="sigmoid"):
    """Fully connected stack of `depth` square layers."""
    rng = np.random.default_rng(seed)
    g = gr.ModelGraph()
    h = g.input("x", width)
    for _ in range(depth):
        w = rng.uniform(-0.5, 0.5, size=(h.length, width)) / np.sqrt(h.length)
        b = rng.uniform(-0.25, 0.25, size=width)
        h = layers.mlp_layer(g, h, w, b, act)
    g.output("y", h)
    g.freeze()
    inputs = {"x": fp.quantize(rng.uniform(-1, 1, width), g.frac_bits)}
    return g, inputs


def lstm_model(cells, n_in=None, seed=1):
    """One step of an LSTM cell over `cells` hidden units."""
    rng = np.random.default_rng(seed)
    n_in = n_in or cells
    g = gr.ModelGraph()
    x = g.input("x", n_in)
    h = g.input("h", cells)
    c = g.input("c", cells)
    scale = 1.0 / np.sqrt(n_in + cells)
    wx = rng.uniform(-1, 1, size=(n_in, 4 * cells)) * scale
    wh = rng.uniform(-1, 1, size=(cells, 4 * cells)) * scale
    b = rng.uniform(-0.2, 0.2, size=4 * cells)
    h_t, c_t = layers.lstm_cell(g, x, h, c, wx, wh, b)
    g.output("h_t", h_t)
    g.output("c_t", c_t)
    g.freeze()
    inputs = gr.quantize_inputs(g, {
        "x": rng.uniform(-1, 1, n_in),
        "h": rng.uniform(-1, 1, cells),
        "c": rng.uniform(-1, 1, cells),
    })
    return g, inputs


def conv_model(side=8, channels=1, filters=4, seed=2, act="relu",
               pixel_outputs=False):
    """3x3 unit-stride convolution over a side x side image."""
    rng = np.random.default_rng(seed)
    g = gr.ModelGraph()
    img = g.input("img", channels * side * side)
    w = rng.uniform(-0.4, 0.4, size=(3, 3, channels, filters)) / np.sqrt(9 * channels)
    b = rng.uniform(-0.1, 0.1, size=filters)
    res = layers.conv_layer(g, img, w, b, stride=1, f=act,
                            in_shape=(channels, side, side))
    if pixel_outputs:
        for i, p in enumerate(res.pixels):
            g.output(f"p{i}", p)
    else:
        g.output("y", res.flat)
    g.freeze()
    inputs = gr.quantize_inputs(
        g, {"img": rng.uniform(-1, 1, channels * side * side)})
    return g, inputs


def cnn_small(seed=3):
    """16-channel 3x3 conv on a 4x4 image: each window's 144 rows span
    two crossbars, so every window MVM coalesces across two MVMUs, and
    each of the four windows runs on its own core's copy of the weights."""
    return conv_model(side=4, channels=16, filters=8, seed=seed)


def pure_mvm_kernel(n=128, seed=4):
    """Two independent n x n MVMs with nothing else: the coalescing
    latency micro-benchmark."""
    rng = np.random.default_rng(seed)
    g = gr.ModelGraph()
    x1 = g.input("x1", n)
    x2 = g.input("x2", n)
    w1 = rng.uniform(-0.4, 0.4, size=(n, n)) / np.sqrt(n)
    w2 = rng.uniform(-0.4, 0.4, size=(n, n)) / np.sqrt(n)
    g.output("y1", g.mvm(g.const_matrix(w1), x1))
    g.output("y2", g.mvm(g.const_matrix(w2), x2))
    g.freeze()
    inputs = gr.quantize_inputs(g, {"x1": rng.uniform(-1, 1, n),
                                    "x2": rng.uniform(-1, 1, n)})
    return g, inputs


def vector_kernel(width=128, chain=12, seed=5):
    """Vector-bound kernel: a chain of wide elementwise ops, no MVMs."""
    rng = np.random.default_rng(seed)
    g = gr.ModelGraph()
    a = g.input("a", width)
    b = g.input("b", width)
    h = g.alu("add", a, b)
    for k in range(chain):
        h = g.alu(["add", "sub", "max", "mul"][k % 4], h, b)
    g.output("y", h)
    g.freeze()
    inputs = gr.quantize_inputs(g, {"a": rng.uniform(-0.5, 0.5, width),
                                    "b": rng.uniform(-0.5, 0.5, width)})
    return g, inputs


def _blob_data(rng, n_per_class):
    centers = np.array([[-1.2, -1.0], [1.2, -0.8], [0.0, 1.3]])
    xs, ys = [], []
    for ci, c in enumerate(centers):
        xs.append(c + rng.normal(0, 0.35, size=(n_per_class, 2)))
        ys.extend([ci] * n_per_class)
    return np.concatenate(xs), np.array(ys)


def trained_tiny_classifier(seed=6, hidden=16, n_per_class=20, epochs=400):
    """Train a 2-16-3 tanh MLP on three Gaussian blobs with plain
    full-batch gradient descent (deterministic), then build it as a model.

    Returns (graph, eval inputs (raw, one dict per point), labels).
    """
    rng = np.random.default_rng(seed)
    x, y = _blob_data(rng, n_per_class)
    onehot = np.eye(3)[y]
    w1 = rng.normal(0, 0.5, size=(2, hidden))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0, 0.5, size=(hidden, 3))
    b2 = np.zeros(3)
    lr = 0.3
    for _ in range(epochs):
        h = np.tanh(x @ w1 + b1)
        out = h @ w2 + b2
        err = (out - onehot) / len(x)
        gw2 = h.T @ err
        gb2 = err.sum(0)
        dh = (err @ w2.T) * (1 - h * h)
        gw1 = x.T @ dh
        gb1 = dh.sum(0)
        w1 -= lr * gw1
        b1 -= lr * gb1
        w2 -= lr * gw2
        b2 -= lr * gb2
    # keep everything inside the fixed-point range with margin
    for arr in (w1, b1, w2, b2):
        np.clip(arr, -3.5, 3.5, out=arr)

    g = gr.ModelGraph()
    inp = g.input("x", 2)
    h = layers.mlp_layer(g, inp, w1, b1, "tanh")
    out = layers.mlp_layer(g, h, w2, b2, None)
    g.output("y", out)
    g.freeze()
    eval_points = [{"x": fp.quantize(p, g.frac_bits)} for p in x]
    return g, eval_points, y


def classifier_accuracy(outputs, labels):
    """Fraction of argmax matches: outputs is a list of (n,) vectors or
    one (B, n) array, and a tie goes to the first index. Outputs beyond
    the labels, or labels beyond the outputs, score no hit."""
    predicted = np.argmax(np.asarray(outputs), axis=-1)
    k = min(len(predicted), len(labels))
    hits = np.count_nonzero(predicted[:k] == np.asarray(labels)[:k])
    return int(hits) / len(labels)


def default_config_for(name):
    """A machine geometry that fits each shipped example."""
    if name in ("mlp4",):
        return MachineConfig(tiles=1)
    if name in ("mlp128", "mlp256", "lstm8", "lstm128", "conv8x8",
                "cnn_small", "mvm_pair", "vector"):
        return MachineConfig(tiles=2)
    if name == "classifier":
        return MachineConfig(tiles=1)
    return MachineConfig()


EXAMPLES = {
    "mlp4": lambda: mlp_model(4),
    "mlp128": lambda: mlp_model(128),
    "mlp256": lambda: mlp_model(256),
    "mlp_l4": lambda: mlp_model(16, depth=4),
    "lstm8": lambda: lstm_model(8),
    "lstm128": lambda: lstm_model(128),
    "conv8x8": lambda: conv_model(),
    "conv_loop": lambda: conv_model(side=4, channels=1, filters=2, seed=2,
                                    pixel_outputs=True),
    "cnn_small": lambda: cnn_small(),
    "mvm_pair": lambda: pure_mvm_kernel(),
    "vector": lambda: vector_kernel(),
}


def build_example(name):
    if name not in EXAMPLES:
        raise KeyError(f"unknown example {name!r}; have {sorted(EXAMPLES)}")
    return EXAMPLES[name]()
