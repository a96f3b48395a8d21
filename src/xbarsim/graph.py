"""User-facing model builder and the reference graph interpreter.

A model is a DAG of vector-valued operations over named input vectors and
fixed-point constant matrices. Graphs are acyclic by construction (nodes
may only consume handles that already exist in the same model) and must
be frozen before compilation.

The interpreter defines functional ground truth: MVM nodes evaluate
blockwise (per crossbar-sized sub-matrix, partial sums merged by
saturating adds in ascending row-block order), exactly as the compiled
machine computes them, so every downstream stage can be checked
bit-for-bit against it.
"""

import functools
import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import fixedpoint as fp
from .crossbar import ideal_mvm

ACT_FUNCS = ("relu", "sigmoid", "tanh", "log", "exp")
ALU_BINOPS = ("add", "sub", "mul", "div", "shl", "shr", "and", "or", "min",
              "max")


class GraphError(Exception):
    pass


class ShapeError(GraphError):
    pass


@dataclass(slots=True, eq=False)
class Node:
    id: int
    kind: str
    op: str = None
    imm: int = None
    inputs: list = field(default_factory=list)
    length: int = None
    name: str = None
    layer: int = 0
    win: tuple = None         # (conv id, window seq) tag on window MVMs
    indices: list = None      # gather: list of (input slot, element)

    def __repr__(self):
        return f"<Node {self.id} {self.kind} len={self.length}>"


class NodeRef:
    """Handle to a node of one specific model."""

    __slots__ = ("graph", "id")

    def __init__(self, graph, nid):
        self.graph = graph
        self.id = nid

    @property
    def node(self):
        return self.graph.nodes[self.id]

    @property
    def length(self):
        return self.node.length


class ModelGraph:
    def __init__(self, frac_bits=fp.DEFAULT_FRAC_BITS):
        self.frac_bits = frac_bits
        self.nodes = []
        self.constants = {}        # node id -> raw int16 matrix (rows x cols)
        self.input_names = []
        self.output_names = []
        self.stream_steps = {}     # stream name -> step count
        self.frozen = False
        self.layer = 0

    # -- plumbing ----------------------------------------------------------

    def _add(self, kind, **kw):
        if self.frozen:
            raise GraphError("model is frozen")
        node = Node(len(self.nodes), kind, layer=self.layer, **kw)
        self.nodes.append(node)
        return NodeRef(self, node.id)

    def _check(self, ref, want_vector=True):
        if not isinstance(ref, NodeRef) or ref.graph is not self:
            raise GraphError("operand handle belongs to a different model")
        node = ref.node
        if want_vector and node.kind == "const_matrix":
            raise ShapeError(f"node {node.id} is a matrix where a vector is expected")
        if not want_vector and node.kind != "const_matrix":
            raise ShapeError(f"node {node.id} is not a constant matrix")
        return node

    def new_layer(self):
        self.layer += 1
        return self.layer

    def freeze(self):
        self.frozen = True
        return self

    # -- build primitives ----------------------------------------------------

    def _claim(self, kind, name):
        """Claim an input or output name: each is bound once."""
        names = self.input_names if kind == "input" else self.output_names
        if name in names:
            raise GraphError(f"duplicate {kind} name {name!r}")
        names.append(name)

    def input(self, name, n):
        self._claim("input", name)
        return self._add("input", name=name, length=n)

    def stream(self, name, n, steps):
        """Sequence input: one named vector per step (unrolled)."""
        self.stream_steps[name] = steps
        return [self.input(f"{name}#{t}", n) for t in range(steps)]

    def const_matrix(self, w):
        w = np.asarray(w)
        if w.ndim != 2:
            raise ShapeError("constant matrix must be 2-D")
        w_raw = fp.quantize(w, self.frac_bits).astype(np.int16)  # saturated
        ref = self._add("const_matrix")
        self.constants[ref.id] = w_raw
        return ref

    def const_vector(self, v):
        """Constant vector, stored as a 1 x n matrix consumed via gather."""
        v = np.asarray(v)
        if v.ndim != 1:
            raise ShapeError("constant vector must be 1-D")
        mat = self.const_matrix(v.reshape(1, -1))
        return self.gather([mat], [(0, k) for k in range(v.shape[0])])

    def mvm(self, w, x):
        wn = self._check(w, want_vector=False)
        xn = self._check(x)
        rows, cols = self.constants[wn.id].shape
        if xn.length != rows:
            raise ShapeError(
                f"mvm: vector length {xn.length} does not match matrix rows {rows}")
        return self._add("mvm", inputs=[wn.id, xn.id], length=cols)

    def alu(self, op, a, b):
        if op not in ALU_BINOPS:
            raise GraphError(f"unknown vector op {op!r}")
        an, bn = self._check(a), self._check(b)
        if an.length != bn.length:
            raise ShapeError(f"alu {op}: lengths {an.length} != {bn.length}")
        return self._add("alu", op=op, inputs=[an.id, bn.id], length=an.length)

    def alu_imm(self, op, a, k):
        """Elementwise op with a constant; ints are raw fixed point, floats
        are quantized. Stored as an unsigned 16-bit word pattern."""
        if op not in ALU_BINOPS:
            raise GraphError(f"unknown vector op {op!r}")
        an = self._check(a)
        imm = k if isinstance(k, (int, np.integer)) else fp.quantize(k, self.frac_bits)
        return self._add("alu_imm", op=op, imm=int(imm) & 0xFFFF,
                         inputs=[an.id], length=an.length)

    def act(self, f, x):
        if f not in ACT_FUNCS:
            raise GraphError(f"unknown activation {f!r}")
        xn = self._check(x)
        return self._add("act", op=f, inputs=[xn.id], length=xn.length)

    def gather(self, sources, indices, win=None):
        """Element selection from one or more vectors (slice / concat /
        window extraction). indices: (source slot, element index) pairs."""
        nodes = []
        for s in sources:
            n = self._check(s, want_vector=s.node.kind != "const_matrix")
            nodes.append(n)
        for slot, elem in indices:
            src = nodes[slot]
            limit = self.constants[src.id].size \
                if src.kind == "const_matrix" else src.length
            if not 0 <= elem < limit:
                raise ShapeError(f"gather: element {elem} outside source {slot}")
        return self._add("gather", inputs=[n.id for n in nodes],
                         indices=list(indices), length=len(indices), win=win)

    def slice(self, x, offset, length):
        return self.gather([x], [(0, offset + k) for k in range(length)])

    def concat(self, parts):
        indices = []
        for slot, p in enumerate(parts):
            indices.extend((slot, k) for k in range(p.length))
        return self.gather(parts, indices)

    def output(self, name, x):
        xn = self._check(x)
        self._claim("output", name)
        return self._add("output", name=name, inputs=[xn.id], length=xn.length)

    # -- queries -------------------------------------------------------------

    def matrix_nodes(self):
        return [n for n in self.nodes if n.kind == "const_matrix"]

    def check_acyclic(self):
        for n in self.nodes:
            for i in n.inputs:
                if i >= n.id:
                    raise GraphError(f"node {n.id} consumes later node {i}")
        return True


# ---------------------------------------------------------------------------
# Reference interpreter
# ---------------------------------------------------------------------------

def mvm_blockwise(w_raw, x_raw, xbar_dim, frac_bits):
    """Ground-truth MVM: per-block ideal crossbar MVMs, partial sums merged
    with saturating adds in ascending row-block order."""
    rows, cols = w_raw.shape
    out = np.zeros(cols, dtype=np.int64)
    for cj in range(0, cols, xbar_dim):
        ce = min(cj + xbar_dim, cols)
        acc = None
        for ri in range(0, rows, xbar_dim):
            re = min(ri + xbar_dim, rows)
            part = ideal_mvm(w_raw[ri:re, cj:ce], x_raw[ri:re], frac_bits)
            acc = part if acc is None else fp.fx_add(acc, part)
        out[cj:ce] = acc
    return out


def evaluate(graph, inputs, xbar_dim=128):
    """Run the graph in ideal numerics. inputs maps input names to raw
    int vectors (use quantize for real-valued data). Returns the dict of
    output name -> raw vector."""
    frac = graph.frac_bits
    luts = fp.build_default_luts(frac)
    values = {}
    outputs = {}
    for node in graph.nodes:
        k = node.kind
        if k == "input":
            if node.name not in inputs:
                raise GraphError(f"missing value for input {node.name!r}")
            v = np.asarray(inputs[node.name], dtype=np.int64)
            if v.shape != (node.length,):
                raise ShapeError(
                    f"input {node.name!r}: got shape {v.shape}, want ({node.length},)")
            values[node.id] = v
        elif k == "const_matrix":
            values[node.id] = graph.constants[node.id]
        elif k == "mvm":
            w = values[node.inputs[0]]
            x = values[node.inputs[1]]
            values[node.id] = mvm_blockwise(w, x, xbar_dim, frac)
        elif k == "output":
            v = values[node.inputs[0]]
            values[node.id] = v
            outputs[node.name] = v
        else:
            values[node.id] = apply_node(
                node, [values[i] for i in node.inputs], frac, luts)
    return outputs


def apply_node(node, args, frac_bits, luts):
    """Value of one alu / alu_imm / act / gather / merge node from its input
    values; shared by this interpreter and the tiled-graph one."""
    k = node.kind
    if k == "alu":
        return fp.vector_op(node.op, args[0], args[1], frac_bits)[0]
    if k == "alu_imm":
        return fp.vector_op(node.op, args[0], fp.from_bits(node.imm),
                            frac_bits)[0]
    if k == "act":
        if node.op in fp.LUT_FUNCTIONS:
            return luts[node.op].lookup(np.asarray(args[0], np.int64))
        return fp.vector_op(node.op, args[0])[0]
    if k == "gather":
        flat = [a.reshape(-1) for a in args]
        return np.array([flat[slot][elem] for slot, elem in node.indices],
                        dtype=np.int64)
    if k == "merge":
        return functools.reduce(fp.fx_add, args)
    raise GraphError(f"interpreter: unknown node kind {k!r}")


# ---------------------------------------------------------------------------
# Serialization (versioned JSON; constants as base-16 Fixed16 words)
# ---------------------------------------------------------------------------

def to_json(graph):
    blank = Node(None, None)
    defaults = [(f.name, getattr(blank, f.name)) for f in fields(Node)]
    nodes = []
    for n in graph.nodes:
        d = {k: v for k, default in defaults
             if (v := getattr(n, k)) != default}
        if n.kind == "const_matrix":
            w = graph.constants[n.id]
            d["rows"], d["cols"] = (int(v) for v in w.shape)
            d["data"] = fp.to_hex(w)
        nodes.append(d)
    doc = {"version": 1, "frac_bits": graph.frac_bits,
           "streams": graph.stream_steps, "nodes": nodes}
    return json.dumps(doc, indent=1)


def _matrix_from_hex(text, shape, nid):
    try:
        words = fp.from_hex(text)
    except ValueError as e:
        raise GraphError(f"node {nid}: constant data: {e}") from None
    if len(words) != shape[0] * shape[1]:
        raise GraphError(f"node {nid}: constant data holds {len(words)} words,"
                         f" want {shape[0]} x {shape[1]}")
    return words.reshape(shape)


def from_json(text):
    doc = json.loads(text)
    if doc.get("version") != 1:
        raise GraphError(f"unsupported model format version {doc.get('version')}")
    g = ModelGraph(frac_bits=doc["frac_bits"])
    g.stream_steps = dict(doc.get("streams", {}))
    names = [f.name for f in fields(Node)]
    for d in doc["nodes"]:
        kw = {k: d[k] for k in names if k in d}
        if "win" in kw:
            kw["win"] = tuple(kw["win"])
        if "indices" in kw:
            kw["indices"] = [tuple(p) for p in kw["indices"]]
        node = Node(**kw)
        if node.id != len(g.nodes):
            raise GraphError("node ids must be dense and ordered")
        g.nodes.append(node)
        if node.kind == "const_matrix":
            g.constants[node.id] = _matrix_from_hex(
                d["data"], (d["rows"], d["cols"]), node.id)
        if node.kind in ("input", "output"):
            g._claim(node.kind, node.name)
    g.check_acyclic()
    g.freeze()
    return g


def save_model(graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(graph))


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def quantize_inputs(graph, float_inputs):
    """Convenience: real-valued input dict -> raw fixed-point dict."""
    return {k: fp.quantize(np.asarray(v, np.float64), graph.frac_bits)
            for k, v in float_inputs.items()}
