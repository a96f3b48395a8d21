"""Compilation driver: tiled graph -> scheduled instructions -> container.

One `_Lowerer` emits the instructions of both compile modes as
`isa.Instruction`s, each built by its ISA row's constructor (`isa.copy`,
`isa.alu`, ...), whose register fields may hold a `regalloc.VReg` and
whose address fields may hold a `regalloc.Mem`; `_emit_container`
resolves them to plain ints. Unrolled lowering walks each actor's
scheduled sequence: values move through general-purpose virtual
registers, except where `_feed_crossbars` lets the MVMU's fixed registers
hold them: a value that only feeds an MVM lands in XbarIn, and the result
is read from XbarOut until that MVMU fires again.
Sliding-window MVMs reuse XbarIn contents across consecutive windows when
input shuffling is enabled: only the fresh window elements are copied in
and the MVM instruction carries a shuffle-pattern id that re-routes XbarIn
slots to DAC rows. Loop mode's looped cores name physical registers.

Memory addresses are assigned after register allocation: every symbol
(input, constant, output, transient value, spill slot) gets its own
range of its tile's memory, and no word is reused for a second value
(see _assign_memory).
"""

from dataclasses import dataclass, field, replace

from . import container, isa, regalloc, schedule
from .partition import (
    TILE_UNIT,
    CompileError,
    insert_data_movement,
    place,
    plan_dump,
    tile_tensors,
)
from .regalloc import Mem, VReg


@dataclass
class CompileOptions:
    coalesce: bool = True
    input_shuffle: bool = True
    naive_partition: bool = False
    naive_order: bool = False
    conv_loop: bool = False
    seed: int = 0


@dataclass
class CompileReport:
    static_histogram: dict = field(default_factory=dict)
    per_actor_instrs: dict = field(default_factory=dict)
    coalesce_groups: int = 0
    maxlive: int = 0
    spill_count: int = 0
    spill_slots: int = 0
    dmem_words_used: dict = field(default_factory=dict)
    fifo_pairs: int = 0
    plan: str = ""

    def to_text(self):
        lines = ["compile report",
                 f"  coalesce groups: {self.coalesce_groups}",
                 f"  schedule max live values: {self.maxlive}",
                 f"  spilled values: {self.spill_count}"
                 f" ({self.spill_slots} slots)",
                 f"  fifo pairs: {self.fifo_pairs}"]
        lines.append("  static instructions: " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.static_histogram.items())))
        for actor, n in sorted(self.per_actor_instrs.items()):
            lines.append(f"  {container.actor_name(actor)}: {n} instructions")
        for t, used in sorted(self.dmem_words_used.items()):
            lines.append(f"  tile {t} data memory: {used} words")
        return "\n".join(lines) + "\n"


class _Lowerer:
    def __init__(self, tg, machine, opts):
        self.tg = tg
        self.opts = opts
        self.rs = machine.regspace()
        self.code = {}            # actor -> [Instruction]
        self.vreg_counter = {}    # actor -> next vreg id
        self.value_vreg = {}      # tnode id -> VReg
        # core -> {((mvmu, perm), ...): filter-field id}; an id bundles one
        # permutation per member MVMU of the instruction that references it
        self.patterns = {}
        self.win_state = {}       # (core, mvmu) -> (win, [slot contents])
        self.elided = set()

    def new_vreg(self, actor):
        v = self.vreg_counter.get(actor, 0)
        self.vreg_counter[actor] = v + 1
        return VReg(v)

    def emit(self, actor, li):
        self.code.setdefault(actor, []).append(li)

    def val(self, tid):
        v = self.value_vreg.get(tid)
        if v is None:
            raise CompileError(f"no register value for tnode {tid}")
        return v

    # -- window shuffle planning -------------------------------------------

    def plan_window_elision(self):
        """Window gathers whose only consumer is a same-core window MVM are
        filled incrementally into XbarIn instead of staged in registers."""
        if not self.opts.input_shuffle:
            return
        consumers = self.tg.consumers()
        for n in self.tg.tnodes:
            if n.kind != "gather" or n.win is None:
                continue
            cons = consumers[n.id]
            if len(cons) != 1:
                continue
            c = self.tg.tnodes[cons[0]]
            if c.kind == "mvm" and c.win == n.win and c.place == n.place:
                self.elided.add(n.id)

    def _window_fill(self, actor, mvmu, gat, rows):
        """Incremental XbarIn fill; returns the permutation for this MVM."""
        needed = [(gat.inputs[slot], off) for slot, off in gat.indices]
        key = (actor, mvmu)
        state = self.win_state.get(key)
        consecutive = (state is not None and state[0][0] == gat.win[0]
                       and state[0][1] == gat.win[1] - 1
                       and len(state[1]) == rows)
        if not consecutive:
            slots = list(needed)
            fills = list(zip(needed, range(rows)))
            perm = tuple(range(rows))
        else:
            slots = list(state[1])
            pos = {item: s for s, item in enumerate(slots)}
            needed_set = set(needed)
            free = [s for s, item in enumerate(slots) if item not in needed_set]
            fresh = [item for item in needed if item not in pos]
            fills = []
            for item, s in zip(fresh, free):
                slots[s] = item
                pos[item] = s
                fills.append((item, s))
            perm = tuple(pos[item] for item in needed)
        xin = self.rs.xbar_in(mvmu)
        self.emit_copies(actor, [(xin + dst, self.val(src) + off)
                                 for (src, off), dst in fills])
        self.win_state[key] = (gat.win, slots)
        return perm

    def emit_copies(self, actor, pairs):
        """Element copies (dest, source) batched into maximal contiguous
        vector copies. Operands are VRegs or, for XbarIn destinations, plain
        register indices."""
        runs = []
        for dst, src in pairs:
            if runs and (dst, src) == (runs[-1][0] + runs[-1][2],
                                       runs[-1][1] + runs[-1][2]):
                runs[-1][2] += 1
            else:
                runs.append([dst, src, 1])
        for dst, src, w in runs:
            self.emit(actor, isa.copy(dst, src, w))

    # -- unit lowering -------------------------------------------------------

    def lower_unit(self, members):
        tg = self.tg
        lead = tg.tnodes[members[0]]
        actor = lead.place
        k = lead.kind
        if k == "mvm":
            self._lower_mvm_group(actor, members)
        elif k == "merge":
            # partial sums fold in ascending row-block order; each step
            # writes a fresh register so intermediates stay spillable
            acc = self.val(lead.inputs[0])
            for extra in lead.inputs[1:]:
                nxt = self.new_vreg(actor)
                self.emit(actor, isa.alu("add", nxt, acc, self.val(extra),
                                         lead.length))
                acc = nxt
            self.value_vreg[lead.id] = acc
        elif k in ("alu", "alu_imm", "act"):
            # act is a unary alu; alu_imm holds its immediate in field c
            src2 = (self.val(lead.inputs[1]) if k == "alu"
                    else lead.imm if k == "alu_imm" else 0)
            v = self.new_vreg(actor)
            self.emit(actor, (isa.alui if k == "alu_imm" else isa.alu)(
                lead.op, v, self.val(lead.inputs[0]), src2, lead.length))
            self.value_vreg[lead.id] = v
        elif k == "gather":
            if lead.id in self.elided:
                return
            src = lead.inputs[0]
            if lead.indices == [(0, i) for i in range(tg.tnodes[src].length)]:
                self.value_vreg[lead.id] = self.val(src)   # a whole block
                return
            v = self.new_vreg(actor)
            self.emit_copies(actor, [(v + dst, self.val(lead.inputs[slot]) + off)
                                     for dst, (slot, off)
                                     in enumerate(lead.indices)])
            self.value_vreg[lead.id] = v
        elif k == "load":
            v = self.new_vreg(actor)
            self.emit(actor, isa.load(v, Mem(lead.sym), lead.length))
            self.value_vreg[lead.id] = v
        elif k in ("store", "output"):
            self.emit(actor, isa.store(
                Mem(lead.sym), self.val(lead.inputs[0]),
                tg.symbols[lead.sym].count, lead.length))
        elif k == "send":
            self.emit(actor, isa.send(Mem(lead.sym), lead.fifo, lead.target,
                                      lead.length))
        elif k == "receive":
            self.emit(actor, isa.recv(Mem(lead.sym), lead.fifo,
                                      tg.symbols[lead.sym].count, lead.length))
        else:
            raise CompileError(f"cannot lower tnode kind {k!r}")

    def _lower_mvm_group(self, actor, members):
        tg = self.tg
        ordered = sorted(members, key=lambda t: tg.matrix_tiles[
            tg.tnodes[t].matrix].mvmu[2])
        mask = 0
        bundle = []
        for tid in ordered:
            n = tg.tnodes[tid]
            mt = tg.matrix_tiles[n.matrix]
            mvmu = mt.mvmu[2]
            mask |= 1 << mvmu
            src = tg.tnodes[n.inputs[0]]
            if src.id in self.elided:
                perm = self._window_fill(actor, mvmu, src, mt.rows)
                if perm != tuple(range(mt.rows)):
                    bundle.append((mvmu, perm))
            else:
                self.win_state.pop((actor, mvmu), None)
                self.emit(actor, isa.copy(self.rs.xbar_in(mvmu),
                                          self.val(src.id), mt.rows))
        filt = 0
        if bundle:
            table = self.patterns.setdefault(actor, {})
            filt = table.setdefault(tuple(bundle), len(table) + 1)
        self.emit(actor, isa.mvm(mask, filt, 0))
        for tid in ordered:
            n = tg.tnodes[tid]
            mt = tg.matrix_tiles[n.matrix]
            v = self.new_vreg(actor)
            self.emit(actor, isa.copy(v, self.rs.xbar_out(mt.mvmu[2]),
                                      mt.cols))
            self.value_vreg[n.id] = v

    def lower_conv_loop(self, actor, reps, n_iters, mb_in, mb_out,
                        bias_sym, act_op):
        """Loop fragment for one looped core of a windowed layer, on
        hand-placed physical registers.

        reps: k replicas of the weight matrix, each its row tiles in
        window order pinned to this core's MVMUs. The body pulls k full
        windows from its part of the input mailbox (`mb_in`, a `Mem`)
        straight into XbarIn, fires one MVM over all k replicas, reduces
        each one's XbarOut partials, applies bias/activation to all k
        results, and stores them to its part of the output mailbox
        (`mb_out`); a counter and a conditional branch close the loop.
        """
        rs = self.rs
        cols = reps[0][0].cols
        width = len(reps) * cols
        r_bias, r_acc, r_cnt = (rs.general_base + k * width for k in range(3))
        r_one, r_lim = r_cnt + 1, r_cnt + 2
        if rs.general_regs < 2 * width + 3:
            raise CompileError(
                f"{container.actor_name(actor)}: the loop body needs "
                f"{2 * width + 3} register words, the register file has "
                f"{rs.general_regs}")

        put = self.code.setdefault(actor, []).append
        if bias_sym is not None:
            put(isa.load(r_bias, Mem(bias_sym), width))
        for reg, value in ((r_cnt, 0), (r_one, 1), (r_lim, n_iters)):
            put(isa.seti(reg, value))
        body = len(self.code[actor])
        tiles = [mt for rep in reps for mt in rep]
        off = 0
        for mt in tiles:
            put(isa.load(rs.xbar_in(mt.mvmu[2]), mb_in + off, mt.rows))
            off += mt.rows
        put(isa.mvm(sum(1 << mt.mvmu[2] for mt in tiles), 0, 0))
        for j, rep in enumerate(reps):
            acc = r_acc + j * cols
            outs = [rs.xbar_out(mt.mvmu[2]) for mt in rep]
            if len(outs) == 1:
                put(isa.copy(acc, outs[0], cols))
            for k, reg in enumerate(outs[1:]):
                put(isa.alu("add", acc, acc if k else outs[0], reg, cols))
        if bias_sym is not None:
            put(isa.alu("add", r_acc, r_acc, r_bias, width))
        if act_op is not None:
            put(isa.alu(act_op, r_acc, r_acc, 0, width))
        put(isa.store(mb_out, r_acc, 1, width))
        put(isa.aluint("add", r_cnt, r_cnt, r_one))
        put(isa.brn("ne", r_cnt, r_lim, body))


def _feed_crossbars(code, rs):
    """Copy coalescing onto the MVMUs' fixed registers (Chaitin, SIGPLAN
    1982; George and Appel, TOPLAS 1996), in two passes over one core's
    straight-line code. Copy-in: `copy XbarIn(u)+k <- v` goes when v's one
    writer is a full-width load, alu or alui, the copy is v's one reader,
    and nothing between the two writes those words or fires u; the writer
    then writes XbarIn(u)+k. Copy-out: `copy v <- XbarOut(u)`, v's one
    writer, goes when every read of v comes before the next mvm that fires
    u; the reads then read XbarOut(u). Other copies stay."""
    dim, xout = rs.xbar_dim, rs.xbar_out_base
    fires = [[pos for pos, li in enumerate(code) if li.op == "mvm" and u in
              isa.fired_mvmus(li, rs.mvmus)] + [len(code)]
             for u in range(rs.mvmus)]      # MVMU -> its mvms, then the end
    if all(len(f) == 1 for f in fires):     # no mvm, so no staging copy
        return code
    defs, uses = {}, {}                     # VReg -> positions
    for pos, li in enumerate(code):
        for opnd, _w, written in isa.registers(li):
            if isinstance(opnd, VReg):
                (defs if written else uses).setdefault(opnd.v, []).append(pos)
    touched = [-1] * xout       # XbarIn word -> its last write or mvm read
    seen = [0] * rs.mvmus       # MVMU -> mvms that have fired it so far
    out, out_at, renamed, rename_at = [], {}, {}, set()
    for pos, li in enumerate(code):
        a, b, w = li.a, li.b, max(1, li.w)
        for u in isa.fired_mvmus(li, rs.mvmus) if li.op == "mvm" else ():
            seen[u] += 1
            touched[u * dim:(u + 1) * dim] = [pos] * dim
        if li.op == "copy" and isinstance(a, int) and a < xout \
                and isinstance(b, VReg) and uses[b.v] == [pos] \
                and len(defs.get(b.v, ())) == 1:
            d = defs[b.v][0]
            if code[d].op in ("load", "alu", "alui") and code[d].a == b \
                    and code[d].w == li.w and max(touched[a:a + w]) < d:
                out[out_at[d]] = replace(out[out_at[d]], a=a)
                touched[a:a + w] = [d] * w
                continue
        if li.op == "copy" and isinstance(a, VReg) and isinstance(b, int) \
                and xout <= b < rs.general_base and defs[a.v] == [pos]:
            u = (b - xout) // dim
            if a.off == 0 and uses.get(a.v, [pos])[-1] < fires[u][seen[u]]:
                renamed[a.v] = b
                rename_at.update(uses.get(a.v, ()))
                continue
        if pos in rename_at:
            li = isa.Instruction(li.op, li.sub, *(
                renamed[f.v] + f.off if isinstance(f, VReg) and f.v in renamed
                else f for f in (a, b, li.c)), li.w)
        if isinstance(a, int) and a < xout:     # XbarIn writes name field a
            touched[a:a + w] = [pos] * w
        out_at[pos] = len(out)
        out.append(li)
    return out


def _assign_memory(tg, machine):
    """Bind every symbol to a distinct tile-memory range.

    Addresses are never shared between different values: the valid/count
    attributes synchronize presence, not identity, so a fast consumer of
    the next value at a shared address could claim the previous value's
    remaining count. Reuse is therefore reserved for explicit
    single-producer/single-consumer channels (one symbol written many
    times, like the sliding-window mailboxes), which the handshake does
    make safe.
    """
    used = {}
    for s in tg.symbols:
        base = used.get(s.tile, 0)
        s.addr = base
        used[s.tile] = base + s.size
    for t, words in used.items():
        if words > machine.dmem_words:
            raise CompileError(
                f"tile {t} shared memory exhausted: need {words} of "
                f"{machine.dmem_words} words")
    return used


def _emit_container(tg, machine, code, bases):
    prog = container.Program(machine.xbar_dim, machine.mvmus_per_core,
                             machine.cores_per_tile, machine.tiles,
                             machine.frac_bits)

    for actor in sorted(code):
        base = bases.get(actor)

        def resolve(f):
            if isinstance(f, VReg):
                return base[f.v] + f.off
            if isinstance(f, Mem):
                return tg.symbols[f.sym].addr + f.off
            return int(f)
        instrs = [isa.Instruction(i.op, i.sub, resolve(i.a), resolve(i.b),
                                  resolve(i.c), i.w) for i in code[actor]]
        cap = machine.tile_imem_capacity if actor[1] == TILE_UNIT \
            else machine.core_imem_capacity
        if len(instrs) > cap:
            raise CompileError(
                f"{container.actor_name(actor)}: {len(instrs)} instructions "
                f"exceed the {cap}-instruction memory")
        prog.segments.append(container.Segment(actor[0], actor[1], instrs))

    for mt in tg.matrix_tiles:
        prog.weights.append(container.WeightBlock(*mt.mvmu, mt.w_raw))

    for s in tg.symbols:
        if s.kind == "const":
            prog.data.append(container.DataBlock(s.tile, s.addr, s.count,
                                                 [int(w) for w in s.words]))
        elif s.kind in ("input", "output"):
            prog.io.append(container.IoBinding(
                "in" if s.kind == "input" else "out", s.name, s.tile, s.addr,
                s.size, s.count))
    prog.io.sort(key=lambda b: (b.kind, b.name))

    # one region per run of adjacent spill slots
    for tile, addr, size in sorted((s.tile, s.addr, s.size)
                                   for s in tg.symbols if s.kind == "spill"):
        r = prog.regions[-1] if prog.regions else None
        if r and (r.tile, r.hi) == (tile, addr):
            r.hi += size
        else:
            prog.regions.append(container.Region(tile, addr, addr + size))
    return prog


def _back_end(tg, machine, low, coalesce_groups, maxlive):
    """Shared tail of both compile modes: allocate registers per core of
    the lowerer's code, assign tile memory, emit the container and fill the
    report. Code that already names physical registers has no virtual
    registers and passes copy coalescing and allocation unchanged."""
    code = low.code
    report = CompileReport(coalesce_groups=coalesce_groups, maxlive=maxlive,
                           fifo_pairs=len(tg.fifo_map))
    bases = {}
    for actor in sorted(code):
        if actor[1] == TILE_UNIT:
            continue

        def mk_spill(size, _tile=actor[0]):
            return tg.new_symbol(_tile, size, "spill").id

        code[actor] = _feed_crossbars(code[actor], machine.regspace())
        try:
            res = regalloc.allocate(code[actor], machine, mk_spill)
        except regalloc.RegAllocError as e:
            raise CompileError(f"{container.actor_name(actor)}: {e}") from e
        code[actor] = res.instrs
        bases[actor] = res.base
        report.spill_count += res.spill_count
    report.spill_slots = sum(1 for s in tg.symbols if s.kind == "spill")
    report.dmem_words_used = _assign_memory(tg, machine)

    prog = _emit_container(tg, machine, code, bases)
    for (tile, core), table in sorted(low.patterns.items()):
        for bundle, pid in table.items():       # ids ascend in table order
            for mvmu, perm in bundle:
                prog.patterns.append(container.ShufflePattern(
                    tile, core, mvmu, pid, list(perm)))
    report.static_histogram = prog.static_histogram()
    report.per_actor_instrs = {(s.tile, s.core): len(s.instrs)
                               for s in prog.segments}
    report.plan = plan_dump(tg)
    return prog, report


def compile_model(graph, machine, opts=None):
    """Full pipeline: tile, place, insert data movement, coalesce,
    linearize, lower, allocate registers, assign memory, emit. Each model
    compiles once, with the copies of shared weights that placement makes;
    a model that does not fit is refused with the limit it exceeds."""
    opts = opts or CompileOptions()
    if graph.frac_bits != machine.frac_bits:
        raise CompileError(f"the model has {graph.frac_bits} fraction bits, "
                           f"the machine {machine.frac_bits}")
    if opts.conv_loop:
        return _compile_conv_loop(graph, machine, opts)
    tg = tile_tensors(graph, machine.xbar_dim)
    place(tg, machine, opts.naive_partition, opts.seed)
    insert_data_movement(tg, machine)
    groups = schedule.coalesce_mvms(tg, machine) if opts.coalesce else []
    if groups and not schedule.check_groups_independent(tg, groups):
        raise CompileError("coalescing produced a dependent group")
    sched = schedule.linearize(tg, groups, naive=opts.naive_order)

    for n in tg.tnodes:
        if n.kind == "output":
            n.sym = tg.new_symbol(n.place[0], n.length, "output", name=n.name,
                                  count=1).id
    low = _Lowerer(tg, machine, opts)
    low.plan_window_elision()
    for members in sched.units:
        low.lower_unit(members)

    return _back_end(tg, machine, low, sched.coalesce_groups, sched.maxlive)


# ---------------------------------------------------------------------------
# Sliding-window loop mode
# ---------------------------------------------------------------------------

def _compile_conv_loop(graph, machine, opts):
    """Compact control-flow compilation of a single windowed layer.

    The layer is restructured across the cores of tile 0: a feeder (core
    0) assembling windows into a fixed mailbox, L looped MVM cores (core
    1, then 3 and up), each holding k replicas of the weights, and a
    collector (core 2) draining results to the output region. k is as
    many as a core's MVMUs take, lowered until it divides the window
    count; L = min(cores per tile - 2, windows / k). A mailbox round
    carries up to L groups of k windows, group j for looped core j, so the
    valid/count handshake keeps them in lockstep, and on a partial last
    round the first ones run one iteration more. A round that fits the
    feeder's registers beside the image moves as one store and one load,
    otherwise group by group. Fixed mailbox addresses replace
    address-varying code; each loop closes with a counter and branch.
    """
    if machine.cores_per_tile < 3:
        raise CompileError("loop mode needs at least 3 cores per tile")
    tg = tile_tensors(graph, machine.xbar_dim)
    wins = {}
    for n in tg.tnodes:
        if n.kind == "mvm" and n.win is not None:
            wins.setdefault(n.win, []).append(n)
    if not wins or len({w[0] for w in wins}) != 1:
        raise CompileError("loop mode expects exactly one windowed layer")
    n_windows = len(wins)

    consumers_of = tg.consumers()

    def sole_consumer(tid):
        nxt = consumers_of[tid]
        if len(nxt) != 1:
            raise CompileError("loop mode expects single-consumer chains")
        return nxt[0]

    # trace each window's chain: mvm [-> merge] [-> bias add] [-> act] ->
    # output; every window must run the first one's (matrix tiles, bias
    # words, act op), since the looped core runs one body for all
    chains = []
    for w in sorted(wins):
        mvms = sorted(wins[w], key=lambda n: tg.tnodes[n.inputs[0]].block)
        bias_words = act_op = None
        cur = sole_consumer(mvms[0].id)
        if tg.tnodes[cur].kind == "merge":
            cur = sole_consumer(cur)
        if tg.tnodes[cur].kind == "alu" and tg.tnodes[cur].op == "add":
            const_in = [i for i in tg.tnodes[cur].inputs
                        if tg.tnodes[i].kind == "const"]
            if len(const_in) != 1:
                raise CompileError("loop mode bias must be a constant vector")
            bias_words = tg.tnodes[const_in[0]].words
            cur = sole_consumer(cur)
        if tg.tnodes[cur].kind == "act":
            act_op = tg.tnodes[cur].op
            cur = sole_consumer(cur)
        if tg.tnodes[cur].kind != "output":
            raise CompileError("loop mode chains must end at model outputs")
        layer = ([n.matrix for n in mvms], bias_words, act_op)
        if chains and layer != first:
            raise CompileError(f"loop mode: window {w} has other weights, bias"
                               f" or activation than window {chains[0][0]}")
        first = layer
        chains.append((w, mvms, tg.tnodes[cur]))

    tiles0 = sorted((tg.matrix_tiles[n.matrix] for n in chains[0][1]),
                    key=lambda mt: mt.row_block)
    if any(mt.col_block != 0 for mt in tiles0):
        raise CompileError("loop mode supports a single output block")
    if len(tiles0) > machine.mvmus_per_core:
        raise CompileError("window rows exceed one core's MVMUs")
    ends = {out.id for _, _, out in chains}
    lost = [name for name, ids in tg.output_blocks.items()
            if not ends.issuperset(ids)]
    if lost:
        raise CompileError("loop mode cannot produce outputs outside the "
                           f"windowed layer: {', '.join(sorted(lost))}")
    # k replicas of the window's row tiles on each looped core's MVMUs
    cols = tiles0[0].cols
    k = machine.mvmus_per_core // len(tiles0)
    while k > 1 and (n_windows % k or machine.general_regs < 2 * k * cols + 3):
        k -= 1
    n_loop = min(machine.cores_per_tile - 2, n_windows // k)
    feeder, collector = (0, 0), (0, 2)
    loopers = [(0, c) for c in (1, *range(3, n_loop + 2))]
    reps = [tiles0] + [tg.replicate(tiles0) for _ in range(k * n_loop - 1)]
    for i, mt in enumerate(mt for rep in reps for mt in rep):
        j, u = divmod(i, k * len(tiles0))
        mt.mvmu = (*loopers[j], u)
    window_len = sum(mt.rows for mt in tiles0)
    wl, wo = k * window_len, k * cols       # mailbox words per group

    # symbols: image blocks, which the feeder loads once, bias, mailboxes
    # of one round, outputs
    low = _Lowerer(tg, machine, opts)
    for n in tg.tnodes:
        if n.kind == "input":
            s = tg.new_symbol(0, n.length, "input", name=n.name, count=1)
            n.sym = s.id
            v = low.value_vreg[n.id] = low.new_vreg(feeder)
            low.emit(feeder, isa.load(v, Mem(s.id), s.size))
    bias_sym = None
    if bias_words is not None:
        bias_sym = tg.new_symbol(0, wo, "const", count=n_loop,
                                 words=list(bias_words) * k).id
    mb_in = Mem(tg.new_symbol(0, n_loop * wl, "value").id)
    mb_out = Mem(tg.new_symbol(0, n_loop * wo, "value").id)
    for _, _, out in chains:
        out.sym = tg.new_symbol(0, out.length, "output", name=out.name,
                                count=1).id

    # feeder and collector: messages (looped core of the first group,
    # windows) of one round, or of one group when a round does not fit
    # beside the image
    groups = [chains[i:i + k] for i in range(0, n_windows, k)]
    image = sum(s.size for s in tg.symbols if s.kind == "input")
    step = n_loop if image + n_loop * wl <= machine.general_regs else 1
    msgs = [(g % n_loop, sum(groups[g:g + step], []))
            for g in range(0, len(groups), step)]
    for j, msg in msgs:
        win = low.new_vreg(feeder)
        srcs = [low.val(gb.inputs[slot]) + off
                for _, mvms, _ in msg
                for gb in (tg.tnodes[m.inputs[0]] for m in mvms)
                for slot, off in gb.indices]
        low.emit_copies(feeder, [(win + dst, src)
                                 for dst, src in enumerate(srcs)])
        low.emit(feeder, isa.store(mb_in + j * wl, win, 1, len(srcs)))

    for j, looper in enumerate(loopers):
        low.lower_conv_loop(looper, reps[j * k:(j + 1) * k],
                            len(groups[j::n_loop]), mb_in + j * wl,
                            mb_out + j * wo, bias_sym, act_op)
    for j, msg in msgs:
        v = low.new_vreg(collector)
        low.emit(collector, isa.load(v, mb_out + j * wo, len(msg) * cols))
        for i, (_, _, out) in enumerate(msg):
            low.emit(collector, isa.store(Mem(out.sym), v + i * cols, 1, cols))

    return _back_end(tg, machine, low, int(k * len(tiles0) > 1), maxlive=0)
