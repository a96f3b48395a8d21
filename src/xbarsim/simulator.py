"""Discrete-event execution of compiled programs.

Actors (core pipelines and tile send/receive sequencers) execute their
instruction streams in order. Each instruction checks its blocking
conditions when attempted: loads need valid words, stores need drained
words, receives need a queued message, sends need FIFO space at the
target. A blocked actor parks on the failing condition and is woken by
the completing instruction that satisfies it; there is no polling. State
changes commit when an instruction issues; the issuing actor and any
woken waiters continue at its completion, when what it hands over changes
hands: the words a store or receive fills, the words a load or send
drains, a sent message (at its arrival, after the bus and the hop) and
the FIFO slot a receive frees. An actor that finds one not yet handed
over waits for it as blocked time, as a parked one does, so the order of
same-cycle events decides no wait. Nor does it decide the shared bus:
sends ready in one cycle take it at the cycle's end, in (tile, core)
order. The loop counts each pc's executions (`hits`) and cycles (`busy`);
`tally` works out every count and energy as hits x `instr_cost`, the
static cost of one execution.

Each handler has a timing half, which waits, claims and returns cycles,
and a value half, which moves the data. Timing reads no data, so the
first run that halts without an order seed times its Chip: the chip
keeps the order of issue, the timing fields and tally's totals. Every
write issues before the reads that wait on it, so a later run replays
only the value halves in that order, with energy from the totals at its
own cfg. An order seed, a step limit below the recorded steps or the
DEBUG trace takes the event loop, as does, from fresh state, data that
branches elsewhere. The same program, inputs and seed give one report.

A Chip checks a program once and holds what it and the geometry fix; a
Machine programs a chip's MVMUs with the run-only config fields. Every run
builds fresh run state (pcs, hits and registers for the actors with code;
tile memory with the data blocks written in and FIFOs for every tile), so
one Machine runs any number of times, batched or not. Registers and tile
memory are sized to the program's footprint, the words it can reach. A
batch of B inferences gives the value state (registers, tile words, FIFO
payloads) a trailing lane axis of length B; pcs, reader counts, timing
and energy stay shared, since the lane-uniform rule for aluint/brn
operands keeps every lane on one schedule.
"""

import heapq
import logging
import random
from collections import deque
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import fixedpoint as fp
from .container import GEOMETRY, TILE_UNIT, actor_name
from .crossbar import apply_write_noise, crossbar_mvm, slice_weights
from .isa import ALU_OP_NAMES, ALU_TRANSCENDENTAL, ALU_UNARY, ISA, \
    IsaError, alui_immediate, disassemble_one, fired_mvmus, registers, \
    validate
from .machine import CHIP_FIELDS

log = logging.getLogger("xbarsim")

PIPELINE_FILL_CYCLES = 2   # fetch + decode before the first execute
TILE_OPS = {op for op, spec in ISA.items() if spec.on_tile}
FETCH_RAILS = {False: ("control", "core_imem"),   # a core's fetch, decode
               True: ("tile_ctrl", "tile_imem")}  # the tile unit's


class SimError(Exception):
    pass


class GeometryError(SimError):
    pass


class CapacityError(SimError):
    pass


@dataclass
class RunReport:
    outputs: dict = field(default_factory=dict)
    cycles: int = 0
    latency_ns: float = 0.0
    energy_nj: dict = field(default_factory=dict)
    energy_total_nj: float = 0.0
    instr_static: dict = field(default_factory=dict)
    instr_dynamic: dict = field(default_factory=dict)
    instr_cycles: dict = field(default_factory=dict)
    blocked_ns: dict = field(default_factory=dict)
    steps: int = 0
    mode_switches: int = 0
    saturations: int = 0
    spill_accesses: int = 0
    reg_accesses: int = 0
    halted: bool = False
    deadlock: bool = False
    step_limit_hit: bool = False
    diagnosis: list = field(default_factory=list)

    @property
    def spill_access_pct(self):
        return 100.0 * self.spill_accesses / self.reg_accesses \
            if self.reg_accesses else 0.0

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(
            outputs={k: vec.tolist() for k, vec in self.outputs.items()},
            energy_nj={k: round(v, 6) for k, v in self.energy_nj.items()},
            energy_total_nj=round(self.energy_total_nj, 6),
            blocked_ns={actor_name(a): v for a, v in self.blocked_ns.items()},
            spill_access_pct=round(self.spill_access_pct, 4))
        return d

    def to_text(self):
        lines = [f"halted={self.halted} cycles={self.cycles} "
                 f"latency_ns={self.latency_ns:.1f}",
                 f"energy_nj total={self.energy_total_nj:.4f}"]
        lines += [f"  {k}: {v:.4f}" for k, v in sorted(self.energy_nj.items())]
        lines.append("dynamic instructions: " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.instr_dynamic.items())))
        lines.append("instruction cycles: " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.instr_cycles.items())))
        lines.append(f"spill accesses: {self.spill_access_pct:.2f}%"
                     f"  mode switches: {self.mode_switches}"
                     f"  saturations: {self.saturations}")
        lines += [f"blocked {actor_name(who)}: {v:.1f} ns"
                  for who, v in sorted(self.blocked_ns.items())]
        lines += ["diag: " + d for d in self.diagnosis]
        return "\n".join(lines) + "\n"


class _Tile:
    """One run's tile memory and receive FIFOs: data words, (words,) or
    (words, B) with a lane axis; a reader count per word (valid while above
    0); the completion time of each word's last fill or drain; each FIFO's
    queued arrivals, their payloads and its last receive's completion."""

    def __init__(self, data, num_fifos):
        self.data = data
        self.count = np.zeros(len(data), dtype=np.int64)
        self.ready = np.zeros(len(data))
        self.fifos = [deque() for _ in range(num_fifos)]
        self.payloads = [deque() for _ in range(num_fifos)]
        self.freed = [0.0] * num_fifos

    def write(self, addr, values, count):
        n = len(values)
        self.data[addr:addr + n] = values
        self.count[addr:addr + n] = count


class _Sequencer:
    """One run of an actor's code: its pc, each pc's executions (hits) and
    cycles (busy), and for a core its registers (regs)."""

    def __init__(self, program):
        self.program = program
        self.pc = 0
        self.hits = [0] * len(program)
        self.busy = [0] * len(program)

    def halted(self):
        return self.pc >= len(self.program)


def _check_fits(i, cfg, loaded, rs):
    """Raise GeometryError if valid instruction i names what the machine
    lacks (each operand read by its role), SimError if it reads XbarIn or
    writes XbarOut; loaded is the bit mask of the core's MVMUs that hold
    weights, rs the register space. Returns i's footprint (words, regs):
    one past the highest tile memory word and the highest register it
    reaches, 0 where it reaches none."""
    words = regs = 0
    for name, slot, role in ISA[i.op].places:
        v = getattr(i, slot)
        if role == "mask":
            if v & ~loaded:
                raise GeometryError(f"{i.op} {name} {v:#b} fires an MVMU "
                                    f"without weights (loaded: {loaded:#b})")
            regs = rs.general_base                  # all XbarIn and XbarOut
        elif role == "fifo" and v >= cfg.num_fifos:
            raise GeometryError(f"{i.op} names fifo {v} of {cfg.num_fifos}")
        elif role == "tile" and v >= cfg.tiles:
            raise GeometryError(f"{i.op} targets tile {v} of {cfg.tiles}")
        elif role == "addr":
            words = v + max(1, i.w)
            if words > cfg.dmem_words:
                raise GeometryError(f"{i.op} of {max(1, i.w)} words at {v} runs"
                                    f" past the {cfg.dmem_words}-word memory")
    for addr, n, written in registers(i):
        end = addr + n
        if end > rs.total:
            raise GeometryError(f"{i.op} of {n} registers at {addr} runs past "
                                f"the {rs.total}-register file")
        lo, hi = ((rs.xbar_out_base, rs.general_base) if written
                  else (rs.xbar_in_base, rs.xbar_out_base))
        if addr < hi and end > lo:
            raise SimError(f"class-access violation: {i.op} " + (
                "writes XbarOut" if written else "reads XbarIn")
                + f" {max(addr, lo)}")
        if end > regs:
            regs = end
    return words, regs


class Chip:
    """A program checked once against cfg's CHIP_FIELDS, and what they fix:
    the code of each actor that has any (programs, cores first), register
    space (rs), ROM set (luts) and shuffle patterns (patterns) all cores
    share, spill regions (spills), histogram (static), cost memo (costs),
    each weight block's digit planes per bits_per_device (`planes`) and the
    footprint that sizes run state: the words of each tile and the
    registers of each core with code that the program reaches."""

    def __init__(self, cfg, prog):
        for name in GEOMETRY:
            if (got := getattr(prog, name)) != (want := getattr(cfg, name)):
                raise GeometryError(f"the program's {name} is {got} but the "
                                    f"machine's is {want}")
        self.cfg, self.prog = cfg, prog
        self.rs = cfg.regspace()
        self.luts = fp.build_default_luts(cfg.frac_bits, cfg.lut_bits)
        cores = {(t, c) for t in range(cfg.tiles)
                 for c in range(cfg.cores_per_tile)}
        outside = (f"lies outside the machine ({cfg.tiles} tiles x "
                   f"{cfg.cores_per_tile} cores x {cfg.mvmus_per_core} MVMUs, "
                   f"{cfg.dmem_words} words per tile)")
        programs = {}
        for seg in prog.segments:
            on_tile = seg.core == TILE_UNIT
            actor = (seg.tile, seg.core)
            if (seg.tile, 0 if on_tile else seg.core) not in cores:
                raise GeometryError(f"the segment of {actor_name(actor)} "
                                    f"{outside}")
            if actor in programs:
                raise GeometryError(f"{actor_name(actor)} has more than one "
                                    f"segment")
            cap = cfg.tile_imem_capacity if on_tile else cfg.core_imem_capacity
            if len(seg.instrs) > cap:
                raise CapacityError(f"{actor_name(actor)}: {len(seg.instrs)} "
                                    f"instructions exceed capacity {cap}")
            ops = {i.op for i in seg.instrs}
            misplaced = ops - TILE_OPS if on_tile else ops & TILE_OPS
            if misplaced:
                raise SimError(f"{actor_name(actor)} cannot execute "
                               f"{min(misplaced)!r}")
            programs[actor] = seg.instrs
        for b in (*prog.weights, *prog.patterns):
            if (b.tile, b.core) not in cores or not 0 <= b.mvmu < cfg.mvmus_per_core:
                raise GeometryError(f"{type(b).__name__} of {actor_name((b.tile, b.core))}"
                                    f" mvmu {b.mvmu} {outside}")
        self.words = dict.fromkeys(range(cfg.tiles), 0)   # tile -> footprint
        for b in (*prog.data, *prog.io):
            end = b.addr + (b.length if hasattr(b, "length") else len(b.words))
            if not 0 <= b.tile < cfg.tiles or end > cfg.dmem_words:
                raise GeometryError(f"{type(b).__name__} of words [{b.addr}, "
                                    f"{end}) on tile {b.tile} {outside}")
            self.words[b.tile] = max(self.words[b.tile], end)
        loaded = {}    # core -> bit mask of its MVMUs that hold weights
        for b in prog.weights:
            loaded[b.tile, b.core] = loaded.get((b.tile, b.core), 0) | 1 << b.mvmu
        self.programs = {a: programs[a] for a in sorted(
            programs, key=lambda a: (a[1] == TILE_UNIT, a))}
        self.regs = {}       # core with code -> footprint
        for actor, instrs in self.programs.items():
            fits = [(self.words[actor[0]], 0)]   # (words, regs) reached
            for pc, i in enumerate(instrs):
                try:
                    validate(i)
                    fits.append(_check_fits(i, cfg, loaded.get(actor, 0), self.rs))
                except (IsaError, SimError) as e:
                    raise type(e)(f"{actor_name(actor)} pc {pc}: {e}") from None
            self.words[actor[0]], regs = map(max, zip(*fits))
            if actor[1] != TILE_UNIT:
                self.regs[actor] = regs
        self.patterns = {}   # (actor, filter id) -> {mvmu: perm array}
        for pat in prog.patterns:
            self.patterns.setdefault(((pat.tile, pat.core), pat.filt), {})[
                pat.mvmu] = np.asarray(pat.perm, dtype=np.int64)
        self.spills = {}     # tile -> its spill regions' (lo, hi)
        for r in prog.regions:
            self.spills.setdefault(r.tile, []).append((r.lo, r.hi))
        self.static = prog.static_histogram()
        self.costs = {}      # tally cost key -> instr_cost, filled by runs
        self._planes = {}    # bits_per_device -> SlicedMatrix per weight block
        self.timed = None    # (report, totals, order) once timed: `run`

    def planes(self, bits):
        """Each weight block's SlicedMatrix at bits per device, in
        prog.weights order: checked and sliced on first use, then shared."""
        if bits not in self._planes:
            self._planes[bits] = [slice_weights(wb.w_raw, self.cfg.xbar_dim, bits)
                                  for wb in self.prog.weights]
        return self._planes[bits]


class Machine:
    """A chip programmed with cfg's RUN_ONLY_FIELDS (each core's sliced and
    write-noised MVMU weights, mvmus), and each run's fresh state (`start`).
    prog is a Program or a Chip whose cfg differs at most in those fields."""

    def __init__(self, cfg, prog):
        chip = prog if isinstance(prog, Chip) else Chip(cfg, prog)
        for name in CHIP_FIELDS:
            if getattr(cfg, name) != getattr(chip.cfg, name):
                raise GeometryError(f"{name} is {getattr(cfg, name)!r} but "
                                    f"the chip's is {getattr(chip.cfg, name)!r}")
        self.cfg, self.chip = cfg, chip
        self.mvmus = {}      # core -> its MVMUs' SlicedMatrix or None
        for wb, sliced in zip(chip.prog.weights,
                              chip.planes(cfg.bits_per_device)):
            if cfg.noise_sigma > 0:   # drawn onto a copy of the shared planes
                seed = np.random.SeedSequence(
                    [cfg.seed, wb.tile, wb.core, wb.mvmu])
                sliced = apply_write_noise(sliced, cfg.noise_sigma, seed)
            self.mvmus.setdefault((wb.tile, wb.core),
                                  [None] * cfg.mvmus_per_core)[wb.mvmu] = sliced

    def start(self, inputs):
        """Build fresh run state and write the data blocks and `inputs`
        into tile memory: every pc at 0 with no hits or busy cycles, zeroed
        registers and words (the chip's footprint), empty FIFOs. An input
        is one vector (n,) or a batch (B, n); batches must all have the
        same B, which becomes the length of the trailing lane axis of
        registers and tile memory."""
        vecs = {}
        for b in self.chip.prog.inputs():
            if b.name not in inputs:
                raise SimError(f"missing value for input {b.name!r}")
            vecs[b.name] = np.asarray(inputs[b.name], dtype=np.int64)
        lanes = {v.shape[:-1] for v in vecs.values()}
        if len(lanes) > 1 or (0,) in lanes or any(
                v.ndim not in (1, 2) for v in vecs.values()):
            raise SimError("inputs must all be (n,) or all (B, n) with one "
                           "B >= 1; got " + ", ".join(
                               f"{k} {v.shape}" for k, v in vecs.items()))
        batch = next(iter(lanes), ())
        # actor -> its run state, cores first
        self.units = {a: _Sequencer(p) for a, p in self.chip.programs.items()}
        self.cores = {a: u for a, u in self.units.items() if a[1] != TILE_UNIT}
        for a, core in self.cores.items():
            core.regs = np.zeros((self.chip.regs[a], *batch), dtype=np.int64)
        self.tiles = {t: _Tile(np.zeros((n, *batch), dtype=np.int64),
                               self.cfg.num_fifos)
                      for t, n in self.chip.words.items()}
        for db in self.chip.prog.data:   # every lane gets the same words
            self.tiles[db.tile].write(
                db.addr, np.reshape(db.words, (-1,) + (1,) * len(batch)),
                db.count)
        cursor = {}
        for b in self.chip.prog.inputs():
            vec = vecs[b.name]
            at = cursor.get(b.name, 0)
            if at + b.length > vec.shape[-1]:
                raise SimError(
                    f"input {b.name!r} too short: need {at + b.length} words")
            self.tiles[b.tile].write(b.addr, vec[..., at:at + b.length].T,
                                     b.count)
            cursor[b.name] = at + b.length
        for name, n in cursor.items():
            if n != vecs[name].shape[-1]:
                raise SimError(f"input {name!r} has {vecs[name].shape[-1]} "
                               f"words, program binds {n}")

    def collect_outputs(self):
        """Output name -> (n,) words, or (B, n) for a batched run."""
        out = {}
        for b in self.chip.prog.outputs():
            vec = self.tiles[b.tile].data[b.addr:b.addr + b.length]
            out.setdefault(b.name, []).append(vec)
        return {k: np.concatenate(v).T for k, v in out.items()}


# ---------------------------------------------------------------------------
# Event loop
# ---------------------------------------------------------------------------

def _lane_uniform(core, addr, op):
    """A register that steers control flow, read as one number. Every lane
    must hold the same value, so that all lanes keep one schedule and
    timing stays independent of the data."""
    v = core.regs[addr]
    if v.ndim:
        if (v != v[0]).any():
            raise SimError(f"{op} reads register {addr}, whose lanes differ "
                           f"({v.min()} to {v.max()})")
        v = v[0]
    return int(v)


class _Sim:
    def __init__(self, machine, order_seed=None):
        self.m, self.cfg = machine, machine.cfg
        self.report = RunReport()
        self.ready = []         # (time, priority, serial, actor)
        self.waiters = {}       # (kind, tile) -> {word or fifo -> [actor]}
        self.blocked = {}       # parked actor -> (since, reason)
        self.bus_free = 0.0
        self.bus = []           # senders that asked for the bus this cycle
        self.granting = False   # True while the bus is granted to them
        self.serial, self.now = 0, 0.0
        self.rng = random.Random(order_seed) if order_seed is not None else None
        self.order = []         # (value half, actor, pc, instr, jump) issued

    # -- plumbing -----------------------------------------------------------

    def push(self, t, actor):
        self.serial += 1
        pri = self.rng.random() if self.rng else 0.0
        heapq.heappush(self.ready, (t, pri, self.serial, actor))

    def park(self, actor, cond, reason):
        """cond is (kind, tile, word or fifo id)."""
        kind, tile, key = cond
        self.waiters.setdefault((kind, tile), {}).setdefault(
            key, []).append(actor)
        self.blocked[actor] = (self.now, reason)

    def wake_words(self, kind, tile, addr, w, t, where=None):
        """Wake the actors parked on `kind` at words [addr, addr + w) of a
        tile (only at words addr + d with where[d], if given): by
        ascending word, then in the order they parked. A FIFO's waiters
        are parked at its id as one word."""
        parked = self.waiters.get((kind, tile))
        if not parked:
            return
        for word in sorted(k for k in parked if addr <= k < addr + w):
            if where is None or where[word - addr]:
                self.release(parked.pop(word), t)

    def release(self, actors, t):
        for actor in actors:
            dt = t - self.blocked.pop(actor)[0]
            self.report.blocked_ns.setdefault(actor, 0.0)
            self.report.blocked_ns[actor] += dt * self.cfg.cycle_ns
            self.push(t, actor)

    def hold(self, actor, t, reason):
        """If t is later than now, hold the actor until t as blocked."""
        if t <= self.now:
            return False
        self.blocked[actor] = (self.now, reason)
        self.release([actor], t)
        return True

    def wait_words(self, actor, addr, w, op, valid):
        """Park unless words [addr, addr + w) all hold data (valid=True:
        load, send) or are all drained (valid=False: store, receive); hold
        until the last fill or drain of them completes."""
        tile_id, tile = actor[0], self.m.tiles[actor[0]]
        stuck = np.nonzero((tile.count[addr:addr + w] > 0) != valid)[0]
        if len(stuck):
            word = addr + int(stuck[0])
            cond, what = ("mem_valid", "word") if valid else \
                ("mem_free", "occupied word")
            self.park(actor, (cond, tile_id, word),
                      f"{op} waiting on {what} {word}")
            return True
        return self.hold(actor, float(tile.ready[addr:addr + w].max()),
                         f"{op} waiting on a " + ("fill" if valid else "read"))

    def consume(self, tile_id, addr, w, end):
        """Count one reader off each of w words; a word whose count reaches
        0 invalidates, and its writers may fill it from `end`."""
        tile = self.m.tiles[tile_id]
        tile.count[addr:addr + w] -= 1
        drained = tile.count[addr:addr + w] <= 0
        tile.ready[addr:addr + w][drained] = end
        self.wake_words("mem_free", tile_id, addr, w, end, drained)

    def fill(self, tile_id, addr, w, count, end):
        """Give w words `count` readers, which read them from `end`."""
        tile = self.m.tiles[tile_id]
        tile.count[addr:addr + w] = count
        tile.ready[addr:addr + w] = end
        if count > 0:
            self.wake_words("mem_valid", tile_id, addr, w, end)

    # -- instruction semantics ------------------------------------------------
    #
    # An opcode's timing half moves reader counts, ready times, FIFO slots
    # and the bus of `unit` (a core's or a tile's _Sequencer) and returns
    # the cycles spent, or None if the actor parked or, as a send, waits for
    # the bus. Its value half moves the data (registers, tile words, FIFO
    # payloads, saturations) and returns a taken branch's target, else None.
    # `attempt` runs both and counts the execution (costed by `tally`).

    def attempt(self, actor):
        """Try the actor's next instruction; returns False if it parked or
        waits for the bus."""
        unit = self.m.units[actor]
        if unit.halted():
            return True
        pc = unit.pc
        i = unit.program[pc]
        timing, value = EXECUTE[i.op]
        try:
            cycles = timing(self, actor, unit, i)
            if cycles is None:
                return False
            jump = value(self, actor, unit, i)
        except SimError as e:
            raise type(e)(f"{actor_name(actor)} pc {pc}: {e}") from None
        unit.pc = pc + 1 if jump is None else jump
        unit.hits[pc] += 1
        unit.busy[pc] += cycles
        self.report.steps += 1
        self.order.append((value, actor, pc, i, jump))
        self.push(self.now + cycles, actor)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("t=%d %s pc executed: %s", self.now, actor,
                      disassemble_one(i))
        return True

    def time_fixed(self, actor, core, i):
        """The cycles of an instruction that neither waits nor claims."""
        cfg, w = self.cfg, max(1, i.w)
        if i.op == "mvm":
            return cfg.mvm_cycles
        if i.op in ("alu", "alui"):
            rom = ALU_OP_NAMES[i.sub] in ALU_TRANSCENDENTAL    # ROM mode
            return 1 + (w + cfg.vfu_lanes - 1) // cfg.vfu_lanes + (
                cfg.mode_switch_cycles if rom else 0)
        return 1 + w if i.op == "copy" else 1

    def time_access(self, actor, core, i):
        """load drains words from b on, store fills those from a on."""
        w, load = max(1, i.w), i.op == "load"
        if self.wait_words(actor, i.b if load else i.a, w, i.op, load):
            return None
        if load:
            self.consume(actor[0], i.b, w, self.now + 1 + w)
        else:
            self.fill(actor[0], i.a, w, i.c, self.now + 1 + w)
        return 1 + w

    def value_move(self, actor, core, i):
        """load, store and copy: w words from b on to a on."""
        w, data = max(1, i.w), self.m.tiles[actor[0]].data
        src = data if i.op == "load" else core.regs
        dst = data if i.op == "store" else core.regs
        dst[i.a:i.a + w] = src[i.b:i.b + w]

    def value_mvm(self, actor, core, i):
        cfg, rs = self.cfg, self.m.chip.rs
        for u in fired_mvmus(i, cfg.mvmus_per_core):
            sliced = self.m.mvmus[actor][u]
            perm = self.m.chip.patterns.get((actor, i.a), {}).get(u)
            base_in = rs.xbar_in(u)
            x = core.regs[base_in:base_in + sliced.rows] if perm is None \
                else core.regs[base_in + perm]
            # lanes become the batch axis: one product for all lanes
            out = crossbar_mvm(sliced, x.T, cfg.adc_bits or None,
                               cfg.frac_bits, cfg.xbar_dim)
            base_out = rs.xbar_out(u)
            core.regs[base_out:base_out + sliced.cols] = out.T

    def value_alu(self, actor, core, i):
        """alu and alui on the vector ALU: dest = name(src, b), where b is
        a register range (alu) or the immediate (alui)."""
        name, w = ALU_OP_NAMES[i.sub], max(1, i.w)
        a = core.regs[i.b:i.b + w]
        if name in ALU_TRANSCENDENTAL:
            # ROM mode: RAM (the registers) is buffered and restored around
            # the table read, so it is preserved by construction
            out = self.m.chip.luts[name].lookup(a)
        else:
            b = alui_immediate(name, i.c) if i.op == "alui" else \
                0 if name in ALU_UNARY else core.regs[i.c:i.c + w]
            out, saturated = fp.vector_op(name, a, b, self.cfg.frac_bits)
            self.report.saturations += saturated
        core.regs[i.a:i.a + w] = out

    def value_set(self, actor, core, i):
        core.regs[i.a] = i.b

    def value_aluint(self, actor, core, i):
        v = fp.SCALAR_OPS[ISA["aluint"].subop_names[i.sub]](
            _lane_uniform(core, i.b, i.op), _lane_uniform(core, i.c, i.op))
        core.regs[i.a] = clamped = min(max(v, fp.RAW_MIN), fp.RAW_MAX)
        self.report.saturations += clamped != v

    def value_branch(self, actor, core, i):
        """jmp to c, or brn to c if its condition holds on a and b."""
        if i.op == "jmp" or fp.BRANCH_CONDS[ISA["brn"].subop_names[i.sub]](
                _lane_uniform(core, i.a, i.op), _lane_uniform(core, i.b, i.op)):
            return i.c

    def time_send(self, actor, unit, i):
        cfg, addr, fid, target, w = self.cfg, i.a, i.sub, i.b, max(1, i.w)
        if self.wait_words(actor, addr, w, i.op, True):
            return None
        dest = self.m.tiles[target]
        fifo = dest.fifos[fid]
        why = f"send waiting on fifo {fid} space at tile {target}"
        if len(fifo) >= cfg.fifo_depth:
            self.park(actor, ("fifo_space", target, fid), why)
            return None
        if len(fifo) + 1 == cfg.fifo_depth and \
                self.hold(actor, dest.freed[fid], why):
            return None
        if not self.granting:       # the bus is granted at the cycle's end
            self.bus.append(actor)
            return None
        self.bus_free = end = max(self.now, self.bus_free) + _flits(cfg, w)
        arrival = end + cfg.hop_cycles
        self.consume(actor[0], addr, w, end)
        fifo.append(arrival)
        self.wake_words("fifo_data", target, fid, 1, arrival)
        return int(end - self.now)

    def value_send(self, actor, unit, i):
        words = self.m.tiles[actor[0]].data[i.a:i.a + max(1, i.w)]
        self.m.tiles[i.b].payloads[i.sub].append(words.copy())

    def time_receive(self, actor, unit, i):
        addr, fid, count, w = i.a, i.sub, i.b, max(1, i.w)
        tile = self.m.tiles[actor[0]]
        fifo, why = tile.fifos[fid], f"receive waiting on fifo {fid}"
        if not fifo:
            self.park(actor, ("fifo_data", actor[0], fid), why)
            return None
        if self.hold(actor, fifo[0], why) or \
                self.wait_words(actor, addr, w, i.op, False):
            return None
        fifo.popleft()
        tile.freed[fid] = end = self.now + 1 + w
        self.wake_words("fifo_space", actor[0], fid, 1, end)
        self.fill(actor[0], addr, w, count, end)
        return 1 + w

    def value_receive(self, actor, unit, i):
        w = max(1, i.w)
        tile = self.m.tiles[actor[0]]
        vals = tile.payloads[i.sub].popleft()
        if len(vals) != w:
            raise SimError(f"receive of {w} words got a {len(vals)}-word "
                           f"message")
        tile.data[i.a:i.a + w] = vals

    # -- main loop ------------------------------------------------------------

    def diagnose(self):
        out = []
        for actor, (_since, reason) in sorted(self.blocked.items()):
            unit = self.m.units[actor]
            out.append(f"{actor_name(actor)} blocked at pc {unit.pc} on "
                       f"{reason}: '{disassemble_one(unit.program[unit.pc])}'")
        return out

    def run(self, step_limit):
        for actor, unit in self.m.units.items():
            if not unit.halted():
                self.push(PIPELINE_FILL_CYCLES, actor)
        while self.ready or self.bus:
            if self.bus and (not self.ready or self.ready[0][0] > self.now):
                self.granting = True    # the cycle ends: sends take the bus
                for actor in sorted(self.bus):
                    self.attempt(actor)
                self.bus, self.granting = [], False
                continue
            t, _pri, _ser, actor = heapq.heappop(self.ready)
            self.now = max(self.now, t)
            self.attempt(actor)
            if self.report.steps > step_limit:
                self.report.step_limit_hit = True
                break
        for actor, (since, _reason) in self.blocked.items():  # still parked
            self.report.blocked_ns[actor] = self.report.blocked_ns.get(
                actor, 0.0) + (self.now - since) * self.cfg.cycle_ns
        self.report.halted = all(u.halted() for u in self.m.units.values())
        if not self.report.halted:
            self.report.deadlock = not self.report.step_limit_hit
            self.report.diagnosis = self.diagnose()
        self.report.cycles = int(self.now)
        self.report.latency_ns = self.now * self.cfg.cycle_ns
        totals = tally(self.m, self.report)
        if self.report.halted and self.rng is None and not self.m.chip.timed:
            self.m.chip.timed = (_timing(self.report), totals, self.order)
        return self.report

    def replay(self, timed):
        """A run on a timed chip: the value halves in the recorded order,
        and energy from the recorded totals. None if a branch leaves it."""
        report, totals, order = timed
        self.report, units = _timing(report), self.m.units
        try:
            for value, actor, pc, i, jump in order:
                if value(self, actor, units[actor], i) != jump:
                    return None
        except SimError as e:
            raise type(e)(f"{actor_name(actor)} pc {pc}: {e}") from None
        _energy(self.cfg, totals, self.report)
        return self.report


# opcode -> (timing half, value half), each (sim, actor, unit, instr)
EXECUTE = {op: (_Sim.time_fixed, value) for op, value in (
    ("mvm", _Sim.value_mvm), ("alu", _Sim.value_alu), ("alui", _Sim.value_alu),
    ("aluint", _Sim.value_aluint), ("set", _Sim.value_set),
    ("copy", _Sim.value_move), ("jmp", _Sim.value_branch),
    ("brn", _Sim.value_branch))}
EXECUTE.update(load=(_Sim.time_access, _Sim.value_move),
               store=(_Sim.time_access, _Sim.value_move),
               send=(_Sim.time_send, _Sim.value_send),
               receive=(_Sim.time_receive, _Sim.value_receive))


# ---------------------------------------------------------------------------
# Cost model: what one execution of an instruction costs, and the run's sum
# ---------------------------------------------------------------------------

BUS_WORDS_PER_CYCLE = 384 // 16   # tile memory bus width
COMPONENT_RAILS = {   # report component -> the power rails it sums
    "vfu": ("vfu",), "sfu": ("sfu",), "register_file": ("regfile",),
    "memory": ("dmem", "attr"), "network": ("bus", "net", "rxbuf"),
    "control": ("control", "core_imem", "tile_ctrl", "tile_imem")}


def _flits(cfg, w):
    return (w + cfg.words_per_flit - 1) // cfg.words_per_flit


def instr_cost(cfg, i, mvmus=(), spills=()):
    """One execution of i as {what: amount}: busy cycles per power rail,
    'mvmu' activations, 'reg_words', 'spill_words' and 'mode_switches'.
    Where i sits matters only through mvmus (the running core's crossbars)
    and spills (its tile's (lo, hi) spill regions). A send's contended bus
    time is no cost: it reaches the report through `busy`."""
    w, slot = max(1, i.w), ISA[i.op].addr
    cost = dict.fromkeys(FETCH_RAILS[i.op in TILE_OPS], 1)   # fetch, decode
    cost["reg_words"] = sum(n for _, n, _ in registers(i))
    if slot:                       # a tile memory access: data and attributes
        cost.update(dmem=w, attr=w)
    if i.op in ("load", "store"):
        cost.update(bus=(w + BUS_WORDS_PER_CYCLE - 1) // BUS_WORDS_PER_CYCLE,
                    regfile=w)
        addr = getattr(i, slot)
        if any(addr < hi and addr + w > lo for lo, hi in spills):
            cost["spill_words"] = w
    elif i.op in ("send", "receive"):
        cost["rxbuf"] = _flits(cfg, w)
        if i.op == "send":
            cost["net"] = _flits(cfg, w)
    elif i.op == "mvm":
        fired = [mvmus[u] for u in fired_mvmus(i, cfg.mvmus_per_core)]
        cost["mvmu"] = len(fired)
        cost["reg_words"] += sum(m.rows + m.cols for m in fired)
    elif i.op in ("alu", "alui"):
        busy = (w + cfg.vfu_lanes - 1) // cfg.vfu_lanes
        cost.update(vfu=busy, regfile=busy)
        if ALU_OP_NAMES[i.sub] in ALU_TRANSCENDENTAL:    # ROM mode
            cost["regfile"] += cfg.mode_switch_cycles
            cost["mode_switches"] = 1
    elif i.op in ("copy", "set"):
        cost["regfile"] = w if i.op == "copy" else 1
    else:                          # aluint, jmp, brn: the scalar unit
        cost["sfu"] = 1
    return cost


def tally(machine, report):
    """Fill report's instr_dynamic, instr_cycles, reg_accesses,
    spill_accesses, mode_switches and energies as sums of hits x instr_cost
    over the machine's sequencers, and return the summed costs. The chip
    keeps each cost, worked out once per (op, sub, w), and per place for
    MVMs and, on a tile with spills, loads/stores."""
    cfg, spills, costs = machine.cfg, machine.chip.spills, machine.chip.costs
    rows = {}    # cost key -> [executions, busy cycles, actor, instruction]
    for actor, unit in machine.units.items():
        placed = ("mvm", "load", "store") if actor[0] in spills else ("mvm",)
        for i, n, busy in zip(unit.program, unit.hits, unit.busy):
            if n:
                key = (i.op, i.sub, i.w)
                if i.op in placed:
                    key += (actor, i.a, i.b)
                row = rows.setdefault(key, [0, 0, actor, i])
                row[0] += n
                row[1] += busy
    dynamic, cycles, totals = {}, {}, {}
    for key, (n, busy, actor, i) in rows.items():
        dynamic[i.op] = dynamic.get(i.op, 0) + n
        cycles[i.op] = cycles.get(i.op, 0) + busy
        if key not in costs:
            costs[key] = instr_cost(cfg, i, machine.mvmus.get(actor, ()),
                                    spills.get(actor[0], ()))
        for what, amount in costs[key].items():
            totals[what] = totals.get(what, 0) + n * amount
    report.instr_dynamic, report.instr_cycles = dynamic, cycles
    report.reg_accesses = totals.get("reg_words", 0)
    report.spill_accesses = totals.get("spill_words", 0)
    report.mode_switches = totals.get("mode_switches", 0)
    _energy(cfg, totals, report)
    return totals


def _energy(cfg, totals, report):
    """Fill report's energies from tally's totals at cfg's figures:
    integer busy cycles x power, once per rail; an idle component is 0.0."""
    report.energy_nj = {"mvmu": float(totals.get("mvmu", 0)
                                      * cfg.mvm_nj_per_mvmu)}
    for component, rails in COMPONENT_RAILS.items():
        report.energy_nj[component] = sum(
            (cfg.energy_nj(r, totals[r]) for r in rails if r in totals), 0.0)
    report.energy_total_nj = sum(report.energy_nj.values())


def _timing(r):
    """A copy of r's fields that timing fixes, with no values."""
    return replace(r, outputs={}, saturations=0, blocked_ns=dict(r.blocked_ns),
                   instr_dynamic=dict(r.instr_dynamic),
                   instr_cycles=dict(r.instr_cycles))


def run(machine, inputs, step_limit=1_000_000, order_seed=None):
    """Execute a configured machine with bound inputs -> RunReport.

    Each input is one vector (n,) or a batch (B, n) of B independent
    inferences, and all inputs must agree on B; a batched run's outputs
    come back as (B, n). Every lane runs the same schedule, so latency,
    energy, cycles, steps and instruction counts are those of one
    inference; saturations are summed over the lanes. To keep that
    schedule shared, the registers that `aluint` and `brn` read must hold
    the same value in every lane (loop counters set by `set` and updated
    by `aluint` do); a lane-varying operand raises SimError naming the
    actor and the pc.

    Each run starts from fresh run state (`Machine.start`), so running
    one Machine again gives the same report for the same inputs. A run
    on a timed chip moves values only: pcs, hits and reader counts stay
    as `start` leaves them."""
    machine.start(inputs)
    chip = machine.chip
    log.info("run: instructions %s on %d tiles", chip.static, machine.cfg.tiles)
    timed, report = chip.timed, None
    if timed and order_seed is None and step_limit >= timed[0].steps \
            and not log.isEnabledFor(logging.DEBUG):
        report = _Sim(machine).replay(timed)
        if report is None:      # the data took another branch: start over
            machine.start(inputs)
    if report is None:
        report = _Sim(machine, order_seed).run(step_limit)
    log.info("run done: halted=%s cycles=%d steps=%d",
             report.halted, report.cycles, report.steps)
    report.instr_static = dict(chip.static)
    if report.halted:
        report.outputs = machine.collect_outputs()
    return report

