"""Layer builders for the three supported workload families.

All builders take real-valued numpy weights, quantize them through the
owning model's fixed-point format, and expand into graph primitives.
"""

import numpy as np

from .graph import ShapeError


def mlp_layer(g, x, w, b=None, f="sigmoid"):
    """Fully connected layer: act(f, B + x @ W) with W of shape n x m."""
    w = np.asarray(w)
    if w.ndim != 2:
        raise ShapeError("mlp_layer: W must be 2-D")
    n, m = w.shape
    if x.length != n:
        raise ShapeError(f"mlp_layer: input length {x.length} != W rows {n}")
    g.new_layer()
    out = g.mvm(g.const_matrix(w), x)
    if b is not None:
        b = np.asarray(b)
        if b.shape != (m,):
            raise ShapeError(f"mlp_layer: bias shape {b.shape} != ({m},)")
        out = g.alu("add", g.const_vector(b), out)
    if f is not None:
        out = g.act(f, out)
    return out


def lstm_cell(g, x, h_prev, c_prev, wx, wh, b=None):
    """One LSTM step with stacked gate weights.

    wx: n x 4H and wh: H x 4H hold the four gates over the concatenated
    (hidden, input) vector, gate order i, f, g, o. Two MVMs produce the
    stacked pre-activations; gate slices, three sigmoids, two tanh and
    three elementwise ops complete the cell:

        c = sigmoid(f) * c_prev + sigmoid(i) * tanh(g)
        h = sigmoid(o) * tanh(c)
    """
    wx = np.asarray(wx)
    wh = np.asarray(wh)
    hsz = h_prev.length
    if wx.shape != (x.length, 4 * hsz):
        raise ShapeError(f"lstm_cell: wx shape {wx.shape} != ({x.length}, {4 * hsz})")
    if wh.shape != (hsz, 4 * hsz):
        raise ShapeError(f"lstm_cell: wh shape {wh.shape} != ({hsz}, {4 * hsz})")
    if c_prev.length != hsz:
        raise ShapeError("lstm_cell: cell state length mismatch")
    g.new_layer()
    zx = g.mvm(g.const_matrix(wx), x)
    zh = g.mvm(g.const_matrix(wh), h_prev)
    z = g.alu("add", zx, zh)
    if b is not None:
        b = np.asarray(b)
        if b.shape != (4 * hsz,):
            raise ShapeError(f"lstm_cell: bias shape {b.shape} != ({4 * hsz},)")
        z = g.alu("add", g.const_vector(b), z)
    gate_i = g.act("sigmoid", g.slice(z, 0, hsz))
    gate_f = g.act("sigmoid", g.slice(z, hsz, hsz))
    gate_g = g.act("tanh", g.slice(z, 2 * hsz, hsz))
    gate_o = g.act("sigmoid", g.slice(z, 3 * hsz, hsz))
    c = g.alu("add", g.alu("mul", gate_f, c_prev), g.alu("mul", gate_i, gate_g))
    h = g.alu("mul", gate_o, g.act("tanh", c))
    return h, c


def lstm_node_count(hsz, with_bias=True):
    """Closed-form node count of one lstm_cell expansion."""
    #   2 const + 2 mvm + add (+ const_vector: const + gather + add)
    # + 4 slice gathers + 4 gate acts + tanh(c) + 2 mul + add + mul
    return 2 + 2 + 1 + (3 if with_bias else 0) + 4 + 4 + 1 + 2 + 1 + 1


def window_indices(in_shape, kernel_rs, stride, x, y):
    """Flattened input indices of the window at output position (x, y).

    Input layout is [channel][row][col]; the window vector is ordered
    [channel][kernel row][kernel col] so each (channel, kernel row) run of
    S elements is contiguous, which keeps sliding-window updates cheap.
    """
    c, h, w = in_shape
    r, s = kernel_rs
    idx = []
    for k in range(c):
        for i in range(r):
            base = k * h * w + (stride * x + i) * w + stride * y
            idx.extend(base + j for j in range(s))
    return idx


class ConvResult:
    """Per-pixel output vectors plus the flattened [m][x][y] feature map."""

    def __init__(self, pixels, flat, out_shape):
        self.pixels = pixels
        self.flat = flat
        self.out_shape = out_shape


def conv_layer(g, img, w, b=None, stride=1, f="relu", in_shape=None):
    """Convolution lowered to one MVM per sliding window.

    img is a flattened [C][H][W] input vector; w has kernel shape
    (R, S, C, M). Each output pixel gathers its R*S*C window and feeds a
    shared (R*S*C) x M weight matrix; bias and activation apply per pixel.
    """
    w = np.asarray(w)
    if w.ndim != 4:
        raise ShapeError("conv_layer: kernel must be R x S x C x M")
    r, s, c, m = w.shape
    if in_shape is None or len(in_shape) != 3:
        raise ShapeError("conv_layer: in_shape (C, H, W) required")
    ci, h, wi = in_shape
    if ci != c:
        raise ShapeError(f"conv_layer: kernel channels {c} != input channels {ci}")
    if img.length != c * h * wi:
        raise ShapeError(
            f"conv_layer: input length {img.length} != C*H*W {c * h * wi}")
    if (h - r) % stride or (wi - s) % stride:
        raise ShapeError("conv_layer: kernel/stride do not tile the input")
    out_h = (h - r) // stride + 1
    out_w = (wi - s) // stride + 1

    g.new_layer()
    conv_id = g.layer
    # weight matrix rows ordered [k][i][j] to match window_indices
    wmat = w.transpose(2, 0, 1, 3).reshape(r * s * c, m)
    wref = g.const_matrix(wmat)
    bref = g.const_vector(np.asarray(b)) if b is not None else None

    pixels = []
    seq = 0
    for x in range(out_h):
        for y in range(out_w):
            idx = window_indices(in_shape, (r, s), stride, x, y)
            win = g.gather([img], [(0, e) for e in idx], win=(conv_id, seq))
            node = g.mvm(wref, win)
            g.nodes[node.id].win = (conv_id, seq)
            if bref is not None:
                node = g.alu("add", bref, node)
            if f is not None:
                node = g.act(f, node)
            pixels.append(node)
            seq += 1
    # flatten to O[m][x][y]
    indices = []
    for ch in range(m):
        for p in range(out_h * out_w):
            indices.append((p, ch))
    flat = g.gather(pixels, indices)
    return ConvResult(pixels, flat, (m, out_h, out_w))
