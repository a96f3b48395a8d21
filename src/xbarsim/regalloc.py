"""Liveness analysis and register assignment.

Values are virtual register ranges (a vector of w words occupies w
consecutive registers). General-purpose registers are allocated by linear
scan with first-fit placement; when pressure exceeds the register file a
value is spilled to a tile-memory slot (a store after its definition, a
reload before each use) and the rewritten code is allocated again. Values
the code arrived with spill before the temporaries of earlier rounds (see
`_plan`), and code that must spill is refused at once when an instruction
needs more words than the file holds.

Instructions here are `isa.Instruction`s whose register fields may hold a
`VReg` and whose address fields may hold a `Mem`; the compiler resolves
both to plain ints once registers and tile memory are assigned. Spill
loads and stores are built by their ISA rows' constructors.

XbarIn/XbarOut registers are fixed per-MVMU ranges and need no
allocation: lowering writes XbarIn only with a value that the next MVM
reads, and reads XbarOut only before that MVMU fires again
(compiler._feed_crossbars), so their live ranges never conflict.
"""

import itertools
from dataclasses import dataclass, field

from .isa import Instruction, load, registers, store


class RegAllocError(Exception):
    pass


@dataclass(frozen=True)
class VReg:
    """Virtual register range reference (base of value `v`, plus offset)."""
    v: int
    off: int = 0

    def __add__(self, off):
        return VReg(self.v, self.off + off)


@dataclass(frozen=True)
class Mem:
    """Tile-memory reference: symbol id plus word offset."""
    sym: int
    off: int = 0

    def __add__(self, off):
        return Mem(self.sym, self.off + off)


def reads_writes(li):
    """Register ranges (operand, width) read and written by one
    instruction, as (reads, writes): isa.registers split by direction
    (mvm's fixed XbarIn/XbarOut traffic is not included)."""
    reads, writes = [], []
    for opnd, words, written in registers(li):
        (writes if written else reads).append((opnd, words))
    return reads, writes


@dataclass
class LiveRange:
    vreg: int
    start: int           # first definition position
    end: int             # last use position
    size: int
    writes: list = field(default_factory=list)   # (pos, off, w)
    first_read: int = None

    def spillable(self):
        """Single definitions always spill; multi-write values spill only
        when the writes cover disjoint ranges and all precede every read
        (a value assembled piecewise, then consumed)."""
        if len(self.writes) == 1:
            return True
        covered = []
        for pos, off, w in self.writes:
            for o2, w2 in covered:
                if off < o2 + w2 and o2 < off + w:
                    return False
            covered.append((off, w))
            if self.first_read is not None and pos > self.first_read:
                return False
        return True


@dataclass
class AllocResult:
    instrs: list
    base: dict                   # vreg -> physical base register
    spill_count: int = 0


def compute_liveness(instrs):
    """Exact def/last-use intervals on straight-line code."""
    ranges = {}
    for pos, li in enumerate(instrs):
        reads, writes = reads_writes(li)
        for opnd, w in writes:
            if not isinstance(opnd, VReg):
                continue
            r = ranges.get(opnd.v)
            if r is None:
                r = LiveRange(opnd.v, pos, pos, opnd.off + w)
                ranges[opnd.v] = r
            r.size = max(r.size, opnd.off + w)
            r.end = max(r.end, pos)
            r.writes.append((pos, opnd.off, w))
        for opnd, w in reads:
            if not isinstance(opnd, VReg):
                continue
            r = ranges.get(opnd.v)
            if r is None:
                raise RegAllocError(f"v{opnd.v} used at {pos} before definition")
            r.end = max(r.end, pos)
            r.size = max(r.size, opnd.off + w)
            if r.first_read is None:
                r.first_read = pos
    return ranges


class _FreeSpace:
    """First-fit interval allocator over [0, total)."""

    def __init__(self, total):
        self.free = [(0, total)]

    def take(self, size):
        for i, (start, ln) in enumerate(self.free):
            if ln >= size:
                if ln == size:
                    self.free.pop(i)
                else:
                    self.free[i] = (start + size, ln - size)
                return start
        return None

    def release(self, start, size):
        self.free.append((start, size))
        self.free.sort()
        merged = []
        for s, ln in self.free:
            if merged and merged[-1][0] + merged[-1][1] == s:
                merged[-1] = (merged[-1][0], merged[-1][1] + ln)
            else:
                merged.append((s, ln))
        self.free = merged


def _plan(ranges, total, vmax):
    """Linear scan; returns (base map, spill set). When a value r does not
    fit, the victim is a spillable active value that the code arrived with
    (vreg below `vmax`): the one whose last use lies furthest past r's,
    else the one used last. A spill temporary goes, in the same order, only
    when no such value can, or a round would just spill the reloads of the
    one before. With nothing to spill, r is refused."""
    spilled = set()
    order = sorted(ranges.values(), key=lambda r: (r.start, r.vreg))
    while True:
        space = _FreeSpace(total)
        active = []        # (end, vreg, base, size)
        base = {}
        restart = False
        for r in order:
            if r.vreg in spilled:
                continue
            still = []
            for a in active:
                if a[0] >= r.start:
                    still.append(a)
                else:
                    space.release(a[2], a[3])
            active = still
            addr = space.take(r.size)
            while addr is None:
                for pool in ([a for a in active if a[1] < vmax], active):
                    ok = [a for a in pool if ranges[a[1]].spillable()]
                    if victims := [a for a in ok if a[0] > r.end] or ok:
                        break
                if not victims:    # a spilled r's def would need the same room
                    if r.size > total:
                        raise RegAllocError(
                            f"value of {r.size} words exceeds the register file")
                    raise RegAllocError(f"v{r.vreg} ({r.size} words) does not "
                                        "fit beside values that cannot spill")
                v = max(victims, key=lambda a: (a[0], a[1]))
                active.remove(v)
                space.release(v[2], v[3])
                spilled.add(v[1])
                restart = True
                addr = space.take(r.size)
            if restart:
                break
            base[r.vreg] = addr
            active.append((r.end, r.vreg, addr, r.size))
        if not restart:
            return base, spilled


def _rewrite_spills(instrs, to_spill, slot_of, next_vreg):
    """Insert spill stores after definitions and reloads before uses."""
    # count reloads per spilled vreg for the store's count operand
    reload_counts = {v: 0 for v in to_spill}
    for li in instrs:
        reads, _ = reads_writes(li)
        for opnd, _w in reads:
            if isinstance(opnd, VReg) and opnd.v in reload_counts:
                reload_counts[opnd.v] += 1
    out = []
    for li in instrs:
        reads, writes = reads_writes(li)
        pre = []
        post = []
        repl = {}
        for opnd, w in reads:
            if isinstance(opnd, VReg) and opnd.v in to_spill:
                fresh = next_vreg()
                pre.append(load(VReg(fresh), Mem(slot_of[opnd.v], opnd.off),
                                w))
                repl[opnd] = VReg(fresh)
        for opnd, w in writes:
            if isinstance(opnd, VReg) and opnd.v in to_spill:
                fresh = next_vreg()
                repl[opnd] = VReg(fresh)
                if reload_counts[opnd.v]:
                    post.append(store(Mem(slot_of[opnd.v], opnd.off),
                                      VReg(fresh), reload_counts[opnd.v], w))

        def swap(x):
            return repl.get(x, x)

        out.extend(pre)
        out.append(Instruction(li.op, li.sub, swap(li.a), swap(li.b),
                               swap(li.c), li.w))
        out.extend(post)
    return out


def allocate(instrs, machine, mk_spill_symbol):
    """Assign physical general registers, spilling to tile memory as needed.

    mk_spill_symbol(size) must return a fresh tile-memory symbol id.
    """
    rs = machine.regspace()
    total = rs.general_regs
    vmax = 0
    for li in instrs:
        for opnd in (li.a, li.b, li.c):
            if isinstance(opnd, VReg):
                vmax = max(vmax, opnd.v + 1)
    next_vreg = itertools.count(vmax).__next__

    spill_count = 0
    for rnd in range(16):
        ranges = compute_liveness(instrs)
        base, spills = _plan(ranges, total, vmax)
        if not spills:
            return AllocResult(instrs, {v: rs.general_base + b
                                        for v, b in base.items()},
                               spill_count)
        if rnd == 0 and (need := _instruction_working_set(instrs)) > total:
            raise RegAllocError(
                f"register file too small: an instruction needs {need} words "
                f"simultaneously but only {total} are available")
        # a spilled vreg is renamed at every definition and use, so no
        # later round spills it again
        slot_of = {v: mk_spill_symbol(ranges[v].size) for v in spills}
        spill_count += len(spills)
        instrs = _rewrite_spills(instrs, spills, slot_of, next_vreg)
    raise RegAllocError(f"register allocation did not converge in 16 spill "
                        f"rounds on a {total}-word register file")


def _instruction_working_set(instrs):
    worst = 0
    for li in instrs:
        seen = {}
        for opnd, w, _ in registers(li):
            if isinstance(opnd, VReg):
                seen[opnd.v] = max(seen.get(opnd.v, 0), opnd.off + w)
        worst = max(worst, sum(seen.values()))
    return worst


def audit(instrs, result):
    """No physical register may hold two overlapping live ranges."""
    ranges = compute_liveness(result.instrs)
    items = [(r, result.base[r.vreg]) for r in ranges.values()
             if r.vreg in result.base]
    for i, (ra, ba) in enumerate(items):
        for rb, bb in items[i + 1:]:
            time_overlap = not (ra.end < rb.start or rb.end < ra.start)
            space_overlap = not (ba + ra.size <= bb or bb + rb.size <= ba)
            if time_overlap and space_overlap:
                return False
    return True
