"""Independent float64 reference for a ModelGraph, with an error bound.

The walk shares no arithmetic with xbarsim: constants and inputs are
dequantised to float64, MVMs are plain matrix products, activations are
np.tanh, the logistic sigmoid and relu, and every node is clipped to the
Q3.12 range. Beside each value it carries a per-element bound on how far
the accelerator's fixed-point result may lie from it:

- each rounding to Q3.12 (one per crossbar block partial sum, one per
  multiply) adds half an LSB;
- an 8-bit ROM lookup adds half a bin times the function's steepest slope
  (or the gap to the asymptote outside the table's range, if larger),
  plus half an LSB for the quantised entry;
- errors already present propagate through each op by its Lipschitz
  bound (|W|^T e for an MVM, |a| e_b + |b| e_a + e_a e_b for a multiply).

The bound assumes no crossbar partial sum saturates before the merge,
which holds for the benchmark's models by a wide margin.
"""

import numpy as np

FRAC_BITS = 12
LSB = 2.0 ** -FRAC_BITS
RAW_MIN, RAW_MAX = -(1 << 15), (1 << 15) - 1
LO, HI = RAW_MIN * LSB, RAW_MAX * LSB
LUT_BINS = 256

# ROM input range, steepest slope and asymptotes of each table function.
_LUTS = {
    "sigmoid": (lambda x: 1.0 / (1.0 + np.exp(-x)), -8.0, 8.0, 0.25,
                (0.0, 1.0)),
    "tanh": (np.tanh, -4.0, 4.0, 1.0, (-1.0, 1.0)),
}


def _lut_error(f, lo, hi, slope, asymptotes):
    step = (hi - lo) / LUT_BINS
    tail = max(f(lo + step / 2) - asymptotes[0],
               asymptotes[1] - f(hi - step / 2))
    return max(slope * step / 2, tail) + LSB / 2


def _act(op, x, e):
    if op == "relu":
        return np.maximum(x, 0.0), e
    if op not in _LUTS:
        raise ValueError(f"reference has no activation {op!r}")
    f, lo, hi, slope, asymptotes = _LUTS[op]
    return f(x), slope * e + _lut_error(f, lo, hi, slope, asymptotes)


def _binop(op, a, ea, b, eb):
    if op == "add":
        return a + b, ea + eb
    if op == "sub":
        return a - b, ea + eb
    if op == "mul":
        return a * b, np.abs(a) * eb + np.abs(b) * ea + ea * eb + LSB / 2
    if op == "max":
        return np.maximum(a, b), np.maximum(ea, eb)
    if op == "min":
        return np.minimum(a, b), np.maximum(ea, eb)
    raise ValueError(f"reference has no vector op {op!r}")


def evaluate(graph, inputs, xbar_dim):
    """float64 walk of the graph -> {output name: (value, error bound)}.

    inputs maps names to raw Q3.12 integer vectors.
    """
    if graph.frac_bits != FRAC_BITS:
        raise ValueError("reference expects Q3.12 models")
    val, err = {}, {}
    outputs = {}
    for n in graph.nodes:
        if n.kind == "input":
            v = np.asarray(inputs[n.name], np.float64) * LSB
            e = np.zeros_like(v)
        elif n.kind == "const_matrix":
            v = np.asarray(graph.constants[n.id], np.float64) * LSB
            e = np.zeros_like(v)
        elif n.kind == "mvm":
            w, x, ex = val[n.inputs[0]], val[n.inputs[1]], err[n.inputs[1]]
            blocks = -(-w.shape[0] // xbar_dim)
            v = x @ w
            e = ex @ np.abs(w) + blocks * LSB / 2
        elif n.kind == "alu":
            a, b = n.inputs
            v, e = _binop(n.op, val[a], err[a], val[b], err[b])
        elif n.kind == "act":
            v, e = _act(n.op, val[n.inputs[0]], err[n.inputs[0]])
        elif n.kind == "gather":
            flat_v = [val[i].reshape(-1) for i in n.inputs]
            flat_e = [err[i].reshape(-1) for i in n.inputs]
            v = np.array([flat_v[s][k] for s, k in n.indices])
            e = np.array([flat_e[s][k] for s, k in n.indices])
        elif n.kind == "output":
            v, e = val[n.inputs[0]], err[n.inputs[0]]
            outputs[n.name] = (v, e)
        else:
            raise ValueError(f"reference has no node kind {n.kind!r}")
        if n.kind != "const_matrix":
            v = np.clip(v, LO, HI)
        val[n.id], err[n.id] = v, e
    return outputs


def within(raw, ref):
    """(ok, worst error / bound) of a raw output against (value, bound)."""
    value, bound = ref
    got = np.asarray(raw, np.float64) * LSB
    gap = np.abs(got - value)
    ok = bool(np.all(gap <= bound + 1e-12))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gap == 0, 0.0, gap / bound)
    return ok, float(np.max(ratio, initial=0.0))
