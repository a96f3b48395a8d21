"""Graph partitioning: tensor tiling, hierarchical placement, data movement.

Tiling splits every tensor into crossbar-sized blocks: an n x m matrix
becomes ceil(n/D) x ceil(m/D) matrix tiles, its MVM becomes one sub-MVM
per tile plus partial-sum merge nodes, and every vector edge is split
into blocks of at most D elements. Placement copies shared weight
matrices (a convolution's) onto the machine's spare MVMUs wherever a copy
cuts an MVM round, then assigns matrix tiles to MVMUs greedily,
preferring tiles that feed the same outputs, then tiles reading the same
inputs, then producer-consumer pairs, filling cores before tiles.
Data-movement insertion turns cross-core edges into store/load pairs
through tile memory (with consumer counts) and cross-tile edges into
send/receive pairs with per-sender FIFO ids.
"""

from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from . import fixedpoint as fp
from .container import TILE_UNIT
from .graph import apply_node, mvm_blockwise
from .isa import ALUI_OPS, FIELD_MAX, alui_immediate
from .schedule import linearize


class CompileError(Exception):
    pass


@dataclass(slots=True, eq=False)
class TNode:
    """One block-level operation of the tiled/augmented graph."""
    id: int
    kind: str
    op: str = None
    imm: int = None
    inputs: list = field(default_factory=list)
    length: int = None
    block: int = 0
    orig: int = None
    name: str = None
    win: tuple = None
    indices: list = None
    matrix: int = None
    words: list = None
    place: tuple = None    # (tile, core); core == TILE_UNIT on tile unit
    sym: int = None        # memory symbol id of a memory op or value
    fifo: int = None
    target: int = None     # destination tile for send

    def __repr__(self):
        return f"<T{self.id} {self.kind} b{self.block}>"


@dataclass
class MatrixTile:
    id: int
    orig: int              # const_matrix node id
    row_block: int
    col_block: int
    w_raw: np.ndarray      # rows x cols raw int16 weights (a view)
    mvmu: tuple = None     # (tile, core, mvmu index)

    @property
    def rows(self):
        return self.w_raw.shape[0]

    @property
    def cols(self):
        return self.w_raw.shape[1]


@dataclass
class Symbol:
    """A tile-memory resident value awaiting an address."""
    id: int
    tile: int
    size: int
    kind: str              # input | output | const | value | spill
    name: str = None
    count: int = 0         # consumer count installed at write time
    addr: int = None
    words: list = None     # preload payload for const symbols


@dataclass
class TiledGraph:
    xbar_dim: int
    tnodes: list = field(default_factory=list)
    matrix_tiles: list = field(default_factory=list)
    symbols: list = field(default_factory=list)
    output_blocks: dict = field(default_factory=dict)  # name -> [tnode ids]
    fifo_map: dict = field(default_factory=dict)    # (recv tile, send tile) -> fid

    def add(self, kind, **kw):
        n = TNode(len(self.tnodes), kind, **kw)
        self.tnodes.append(n)
        return n

    def new_symbol(self, tile, size, kind, name=None, count=0, words=None):
        s = Symbol(len(self.symbols), tile, size, kind, name, count, None, words)
        self.symbols.append(s)
        return s

    def replicate(self, tiles):
        """Fresh copies of the given matrix tiles, not yet on an MVMU."""
        new = [replace(mt, id=len(self.matrix_tiles) + k, mvmu=None)
               for k, mt in enumerate(tiles)]
        self.matrix_tiles += new
        return new

    def consumers(self):
        out = [[] for _ in self.tnodes]
        for n in self.tnodes:
            for i in dict.fromkeys(n.inputs):
                out[i].append(n.id)
        return out


def _block_bounds(length, d):
    return [(s, min(s + d, length)) for s in range(0, length, d)]


def tile_tensors(graph, xbar_dim=128):
    """Original graph -> tiled graph of block-level operations.

    alu_imm nodes whose constant exceeds the instruction immediate, or
    whose op has no immediate form, are rewritten with constant-vector
    operands here. Gathers whose sources are all constant fold to
    preloaded const blocks.
    """
    if not graph.frozen:
        raise CompileError("freeze the model before compiling")
    graph.check_acyclic()
    d = xbar_dim
    tg = TiledGraph(xbar_dim=d)
    mt_cache = {}   # (const node, row block, col block) -> MatrixTile
    blocks = {}     # orig node id -> [tnode ids]
    for node in graph.nodes:
        k = node.kind
        if k == "const_matrix":
            # consumed either by MVMs (matrix tiles) or by gathers (folded)
            blocks[node.id] = []
            continue
        if k == "input":
            ids = []
            for b, (lo, hi) in enumerate(_block_bounds(node.length, d)):
                t = tg.add("input", length=hi - lo, block=b, orig=node.id,
                           name=node.name)
                ids.append(t.id)
            blocks[node.id] = ids
        elif k == "mvm":
            w_raw = graph.constants[node.inputs[0]]
            xblocks = blocks[node.inputs[1]]
            rows, cols = w_raw.shape
            out_ids = []
            for bj, (cl, ch) in enumerate(_block_bounds(cols, d)):
                partials = []
                for bi, (rl, rh) in enumerate(_block_bounds(rows, d)):
                    # one matrix tile per constant block; `place` may
                    # copy it onto spare MVMUs
                    key = (node.inputs[0], bi, bj)
                    mt = mt_cache.get(key)
                    if mt is None:
                        mt = MatrixTile(len(tg.matrix_tiles), node.inputs[0],
                                        bi, bj, w_raw[rl:rh, cl:ch])
                        tg.matrix_tiles.append(mt)
                        mt_cache[key] = mt
                    t = tg.add("mvm", inputs=[xblocks[bi]], length=ch - cl,
                               block=bj, orig=node.id, win=node.win,
                               matrix=mt.id)
                    partials.append(t.id)
                if len(partials) == 1:
                    out_ids.append(partials[0])
                else:
                    m = tg.add("merge", inputs=partials, length=ch - cl,
                               block=bj, orig=node.id)
                    out_ids.append(m.id)
            blocks[node.id] = out_ids
        elif k in ("alu", "alu_imm", "act"):
            src = blocks[node.inputs[0]]
            ids = []
            for b in range(len(src)):
                ln = tg.tnodes[src[b]].length
                if k == "alu":
                    b2 = blocks[node.inputs[1]][b]
                    t = tg.add("alu", op=node.op, inputs=[src[b], b2],
                               length=ln, block=b, orig=node.id)
                elif k == "alu_imm":
                    signed = int(fp.from_bits(node.imm))
                    if node.op in ALUI_OPS and alui_immediate(
                            node.op, signed & FIELD_MAX) == signed:
                        t = tg.add("alu_imm", op=node.op, imm=node.imm,
                                   inputs=[src[b]], length=ln, block=b,
                                   orig=node.id)
                    else:
                        c = tg.add("const", length=ln, block=b, orig=node.id,
                                   words=[signed] * ln)
                        t = tg.add("alu", op=node.op, inputs=[src[b], c.id],
                                   length=ln, block=b, orig=node.id)
                else:
                    t = tg.add("act", op=node.op, inputs=[src[b]],
                               length=ln, block=b, orig=node.id)
                ids.append(t.id)
            blocks[node.id] = ids
        elif k == "gather":
            srcs = node.inputs
            all_const = all(graph.nodes[s].kind == "const_matrix" for s in srcs)
            if all_const:
                flat = [graph.constants[s].reshape(-1) for s in srcs]
            ids = []
            for b, (lo, hi) in enumerate(_block_bounds(node.length, d)):
                part = node.indices[lo:hi]
                if all_const:
                    t = tg.add("const", length=hi - lo, block=b, orig=node.id,
                               words=[int(flat[slot][elem])
                                      for slot, elem in part])
                else:
                    used = []       # block tnode ids in first-use order
                    rewritten = []
                    for slot, elem in part:
                        src_node = graph.nodes[srcs[slot]]
                        if src_node.kind == "const_matrix":
                            raise CompileError(
                                "gather mixing constant and computed sources")
                        sb, off = elem // d, elem % d
                        tid = blocks[srcs[slot]][sb]
                        if tid not in used:
                            used.append(tid)
                        rewritten.append((used.index(tid), off))
                    t = tg.add("gather", inputs=used, indices=rewritten,
                               length=hi - lo, block=b, orig=node.id,
                               win=node.win)
                ids.append(t.id)
            blocks[node.id] = ids
        elif k == "output":
            src = blocks[node.inputs[0]]
            ids = []
            for b, tid in enumerate(src):
                t = tg.add("output", inputs=[tid], name=node.name, block=b,
                           length=tg.tnodes[tid].length, orig=node.id)
                ids.append(t.id)
            blocks[node.id] = ids
            tg.output_blocks[node.name] = ids
        else:
            raise CompileError(f"cannot tile node kind {k!r}")
    _prune_dead(tg)
    return tg


def _prune_dead(tg):
    """Drop tnodes (and matrix tiles) with no path to any model output;
    named inputs stay so their bindings survive."""
    keep = set()
    stack = [tid for ids in tg.output_blocks.values() for tid in ids]
    while stack:
        t = stack.pop()
        if t in keep:
            continue
        keep.add(t)
        stack.extend(tg.tnodes[t].inputs)
    for n in tg.tnodes:
        if n.kind == "input":
            keep.add(n.id)
    if len(keep) == len(tg.tnodes):
        return
    remap = {}
    kept = []
    for n in tg.tnodes:
        if n.id in keep:
            remap[n.id] = len(kept)
            kept.append(n)
    for n in kept:
        n.inputs = [remap[i] for i in n.inputs]
        n.id = remap[n.id]
    tg.tnodes = kept
    tg.output_blocks = {k: [remap[i] for i in ids]
                        for k, ids in tg.output_blocks.items()}
    used_tiles = sorted({n.matrix for n in tg.tnodes if n.kind == "mvm"})
    tile_remap = {old: new for new, old in enumerate(used_tiles)}
    tg.matrix_tiles = [tg.matrix_tiles[old] for old in used_tiles]
    for new, mt in enumerate(tg.matrix_tiles):
        mt.id = new
    for n in tg.tnodes:
        if n.kind == "mvm":
            n.matrix = tile_remap[n.matrix]


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

SAME_OUTPUT_W = 100
SAME_INPUT_W = 10
PROD_CONS_W = 1


def _matrix_tile_affinity(tg):
    """Pairwise affinity between matrix tiles per the placement priorities:
    feeding the same outputs beats reading the same inputs beats
    producer-consumer pairs. Only pairs that share a sink, an input or a
    `_mvm_feeds` edge, found through inverted indices, are scored."""
    consumers = tg.consumers()
    index = ({}, {})        # sink, input -> {matrix tile: None}
    first = {}              # matrix tile -> its first logical MVM
    for n in tg.tnodes:
        if n.kind == "mvm":
            first.setdefault(n.matrix, n.orig)
            for part, keys in zip(index, (consumers[n.id], n.inputs)):
                for x in keys:
                    part.setdefault(x, {})[n.matrix] = None
    tiles_of = {}
    for t, orig in first.items():
        tiles_of.setdefault(orig, []).append(t)
    aff = {}
    for w, part in zip((SAME_OUTPUT_W, SAME_INPUT_W), index):
        for ab in {tuple(sorted(ab)) for ts in part.values()
                   for ab in combinations(ts, 2)}:
            aff[ab] = aff.get(ab, 0) + w
    for p, c in _mvm_feeds(tg):     # a tile pair has one first-MVM pair
        for a in tiles_of.get(p, ()):
            for b in tiles_of.get(c, ()):
                ab = (a, b) if a < b else (b, a)
                aff[ab] = aff.get(ab, 0) + PROD_CONS_W
    return aff


def _mvm_feeds(tg):
    """(producer mvm node, consumer mvm node) pairs connected through
    non-MVM tnodes."""
    producers = {}
    feeds = set()
    for n in tg.tnodes:
        srcs = set()
        for i in n.inputs:
            src = tg.tnodes[i]
            if src.kind == "mvm":
                srcs.add(src.orig)
            else:
                srcs |= producers.get(i, set())
        if n.kind == "mvm":
            for p in srcs:
                feeds.add((p, n.orig))
            producers[n.id] = set()
        else:
            producers[n.id] = srcs
    return feeds


def _replicate_shared(tg, budget):
    """Copy shared weight matrices onto at most `budget` spare MVMUs.

    A matrix qualifies when it has several uses (logical MVMs) and no use
    depends on another. Each copy holds all of a matrix's tiles. A copy is
    made only where it shortens a matrix's longest run of uses per copy,
    ceil(uses / copies), which is what its MVM rounds take: the matrix
    with the longest run, ties to the lowest id, gets the fewest copies
    that shorten it, while their tiles fit the budget. A matrix's uses, in
    graph order, split into one contiguous run per copy, so neighbouring
    windows stay on one MVMU."""
    tiles_of, uses, chained, below = {}, {}, set(), []
    for mt in tg.matrix_tiles:
        tiles_of.setdefault(mt.orig, []).append(mt)
    for n in tg.tnodes:     # below: bit c set if an MVM over c feeds n
        bits = 0
        for i in n.inputs:
            bits |= below[i]
        if n.kind == "mvm":
            c = tg.matrix_tiles[n.matrix].orig
            if bits >> c & 1:
                chained.add(c)
            bits |= 1 << c
            uses.setdefault(c, {}).setdefault(n.orig, []).append(n)
        below.append(bits)
    reps = {c: 1 for c in sorted(uses) if c not in chained and len(uses[c]) > 1}

    def longest(c):
        return -(-len(uses[c]) // reps[c])

    def more(c):    # the fewest further copies that shorten c's longest run
        return -(-len(uses[c]) // (longest(c) - 1)) - reps[c]

    while fits := [c for c in reps if longest(c) > 1
                   and more(c) * len(tiles_of[c]) <= budget]:
        c = max(fits, key=lambda c: (longest(c), -c))
        k = more(c)
        budget -= k * len(tiles_of[c])
        reps[c] += k
    for c, r in reps.items():
        copies = [tiles_of[c]] + [tg.replicate(tiles_of[c])
                                  for _ in range(r - 1)]
        pos = {mt.id: j for j, mt in enumerate(tiles_of[c])}
        runs = list(uses[c].values())
        for k, nodes in enumerate(runs):
            for n in nodes:
                n.matrix = copies[k * r // len(runs)][pos[n.matrix]].id


def place(tg, machine, naive=False, seed=0):
    """Assign matrix tiles, with copies of shared ones on any of the
    machine's spare MVMUs, to MVMUs, filling cores before tiles, and every
    tnode to a (tile, core)."""
    m = machine
    total_mvmus = m.tiles * m.cores_per_tile * m.mvmus_per_core
    ntiles = len(tg.matrix_tiles)
    if ntiles > total_mvmus:
        raise CompileError(
            f"model needs {ntiles} MVMUs but the machine has {total_mvmus}")
    _replicate_shared(tg, total_mvmus - ntiles)
    ntiles = len(tg.matrix_tiles)

    slots = [(t, c) for t in range(m.tiles) for c in range(m.cores_per_tile)]
    if naive:
        rng = np.random.default_rng(seed)
        mvmu_slots = [(t, c, u) for t, c in slots for u in range(m.mvmus_per_core)]
        picks = rng.choice(len(mvmu_slots), size=ntiles, replace=False)
        for mt, slot_idx in zip(tg.matrix_tiles, picks):
            mt.mvmu = mvmu_slots[int(slot_idx)]
    else:
        neighbors = [{} for _ in range(ntiles)]   # matrix tile -> {other: w}
        for (a, b), w in _matrix_tile_affinity(tg).items():
            neighbors[a][b] = neighbors[b][a] = w
        unplaced = dict.fromkeys(range(ntiles))   # ascending
        # unplaced matrix tile -> its highest affinity (> 0) to a member of
        # the current core (core_best) or of the current tile (tile_best)
        core_best, tile_best = {}, {}
        core_idx = core_members = cur_tile = 0
        while unplaced:
            t, c = slots[core_idx]
            if t != cur_tile:
                tile_best, cur_tile = {}, t
            if core_members >= m.mvmus_per_core:
                core_idx, core_members, core_best = core_idx + 1, 0, {}
                continue
            # highest affinity first, then the lowest id; 0 for the rest
            ref = core_best if core_members else tile_best
            best = min(ref, key=lambda x: (-ref[x], x),
                       default=next(iter(unplaced)))
            tg.matrix_tiles[best].mvmu = (t, c, core_members)
            core_members += 1
            del unplaced[best]
            core_best.pop(best, None)
            tile_best.pop(best, None)
            for x, w in neighbors[best].items():
                if x in unplaced:
                    core_best[x] = max(core_best.get(x, 0), w)
                    tile_best[x] = max(tile_best.get(x, 0), w)

    _place_tnodes(tg)
    return tg


def _place_tnodes(tg):
    consumers = tg.consumers()
    for n in tg.tnodes:
        if n.kind == "mvm":
            t, c, _ = tg.matrix_tiles[n.matrix].mvmu
            n.place = (t, c)
    fallback = []
    for n in tg.tnodes:
        if n.place is not None or n.kind in ("input", "const"):
            continue
        counts = Counter(tg.tnodes[i].place for i in n.inputs
                         if tg.tnodes[i].place is not None)
        if counts:
            n.place = min(counts, key=lambda p: (-counts[p], p))
        else:
            n.place = (0, 0)
            fallback.append(n)
    # staging nodes with no placed producer (e.g. window gathers over raw
    # inputs) belong with their first consumer, which is placed by now
    for n in fallback:
        if consumers[n.id]:
            n.place = tg.tnodes[consumers[n.id][0]].place
    # memory-resident values live on their first consumer's tile
    for n in tg.tnodes:
        if n.kind in ("input", "const"):
            cons = consumers[n.id]
            n.place = tg.tnodes[cons[0]].place if cons else (0, 0)


def placement_score(tg):
    """Co-location quality: affinity mass kept on one core (full weight)
    or one tile (half weight)."""
    aff = _matrix_tile_affinity(tg)
    score = 0.0
    for (a, b), w in aff.items():
        pa = tg.matrix_tiles[a].mvmu
        pb = tg.matrix_tiles[b].mvmu
        if pa[:2] == pb[:2]:
            score += w
        elif pa[0] == pb[0]:
            score += w / 2
    return score


# ---------------------------------------------------------------------------
# Data movement insertion
# ---------------------------------------------------------------------------

def insert_data_movement(tg, machine):
    """Rewrite cross-core edges into store/load and cross-tile edges into
    store/send/receive/load chains; assign FIFO ids per sender tile."""
    consumers = tg.consumers()
    n_original = len(tg.tnodes)

    for nid in range(n_original):
        n = tg.tnodes[nid]
        if n.kind in ("output", "store", "load", "send", "receive"):
            continue
        memory_resident = n.kind in ("input", "const")
        # outputs are stores emitted at lowering; they read a register on
        # their own core, so they count as consumers only when the value
        # itself lives in memory and must be loaded first
        cons_ids = [c for c in consumers[nid]
                    if memory_resident or tg.tnodes[c].kind != "output"]
        cons = [tg.tnodes[c] for c in cons_ids]
        home_tile = n.place[0]

        def needs_load(c):
            return memory_resident or c.place != n.place

        loading_cores_home = sorted({c.place for c in cons
                                     if c.place[0] == home_tile and needs_load(c)})
        remote_tiles = sorted({c.place[0] for c in cons if c.place[0] != home_tile})

        if memory_resident:
            sym = tg.new_symbol(home_tile, n.length,
                                "input" if n.kind == "input" else "const",
                                name=n.name, words=n.words)
            sym.count = len(loading_cores_home) + len(remote_tiles)
            n.sym = sym.id
            source_dep = n.id
        else:
            if not loading_cores_home and not remote_tiles:
                continue
            sym = tg.new_symbol(home_tile, n.length, "value")
            sym.count = len(loading_cores_home) + len(remote_tiles)
            st = tg.add("store", inputs=[nid], length=n.length)
            st.place = n.place
            st.sym = sym.id
            source_dep = st.id

        arrivals = {home_tile: (sym.id, source_dep)}
        for rt in remote_tiles:
            dst_cores = sorted({c.place for c in cons if c.place[0] == rt})
            dsym = tg.new_symbol(rt, n.length, "value")
            dsym.count = len(dst_cores)
            tg.fifo_map.setdefault((rt, home_tile), None)
            snd = tg.add("send", inputs=[source_dep], length=n.length)
            snd.place = (home_tile, TILE_UNIT)
            snd.sym = sym.id
            snd.target = rt
            rcv = tg.add("receive", inputs=[snd.id], length=n.length)
            rcv.place = (rt, TILE_UNIT)
            rcv.sym = dsym.id
            arrivals[rt] = (dsym.id, rcv.id)

        loads = {}
        for c in cons:
            if not needs_load(c):
                continue
            if c.place not in loads:
                sym_id, dep = arrivals[c.place[0]]
                ld = tg.add("load", inputs=[dep], length=n.length)
                ld.place = c.place
                ld.sym = sym_id
                loads[c.place] = ld
            c.inputs = [loads[c.place].id if i == nid else i for i in c.inputs]

    _renumber_fifos(tg, machine)
    return tg


def _renumber_fifos(tg, machine):
    per_receiver = {}
    for (rt, st_) in sorted(tg.fifo_map):
        fid = per_receiver.get(rt, 0)
        if fid >= machine.num_fifos:
            raise CompileError(
                f"tile {rt} receives from more than {machine.num_fifos} tiles")
        tg.fifo_map[(rt, st_)] = fid
        per_receiver[rt] = fid + 1
    for n in tg.tnodes:
        if n.kind == "send":
            n.fifo = tg.fifo_map[(n.target, n.place[0])]
        elif n.kind == "receive":
            snd = tg.tnodes[n.inputs[0]]
            n.fifo = tg.fifo_map[(n.place[0], snd.place[0])]


# ---------------------------------------------------------------------------
# Augmented-graph interpreter (ideal numerics) for equivalence checks
# ---------------------------------------------------------------------------

def evaluate_tiled(tg, graph, inputs):
    """Execute the tiled graph blockwise; used to check that partitioning
    and data movement preserve interpreter semantics exactly."""
    luts = fp.build_default_luts(graph.frac_bits)
    d = tg.xbar_dim
    vals = {}
    for n in tg.tnodes:
        if n.kind == "input":
            full = np.asarray(inputs[n.name], dtype=np.int64)
            vals[n.id] = full[n.block * d: n.block * d + n.length]
        elif n.kind == "const":
            vals[n.id] = np.asarray(n.words, dtype=np.int64)
    for nid in (t for u in linearize(tg).units for t in u):
        n = tg.tnodes[nid]
        args = [vals[i] for i in n.inputs]
        if n.kind == "mvm":
            vals[nid] = mvm_blockwise(tg.matrix_tiles[n.matrix].w_raw, args[0],
                                      d, graph.frac_bits)
        elif n.kind in ("store", "load", "send", "receive", "output"):
            vals[nid] = args[0]
        else:
            vals[nid] = apply_node(n, args, graph.frac_bits, luts)
    return {name: np.concatenate([vals[i] for i in ids])
            for name, ids in tg.output_blocks.items()}


def plan_dump(tg):
    """Human-readable placement plan for debugging."""
    lines = ["matrix tiles:"]
    for mt in tg.matrix_tiles:
        lines.append(f"  m{mt.id} orig={mt.orig} block=({mt.row_block},"
                     f"{mt.col_block}) {mt.rows}x{mt.cols} -> {mt.mvmu}")
    lines.append("fifos:")
    for (rt, st_), fid in sorted(tg.fifo_map.items()):
        lines.append(f"  tile {st_} -> tile {rt}: fifo {fid}")
    lines.append("symbols:")
    for s in tg.symbols:
        lines.append(f"  s{s.id} tile={s.tile} size={s.size} kind={s.kind}"
                     f" count={s.count} addr={s.addr}")
    return "\n".join(lines) + "\n"
