"""Discrete-event execution of compiled programs.

Actors (core pipelines and tile send/receive sequencers) execute their
instruction streams in order. Each instruction checks its blocking
conditions when attempted: loads need valid words, stores need drained
words, receives need a queued message, sends need FIFO space at the
target. A blocked actor parks on the failing condition and is woken by
the completing instruction that satisfies it; there is no polling. State
changes commit when an instruction issues (claims are atomic); the
issuing actor and any woken waiters continue at its completion time, and
per-unit busy times drive the latency and energy accounting.

Determinism is a contract: the same program, inputs, and seed produce an
identical report. An optional interleaving seed perturbs the order of
same-cycle events without breaking determinism.

One run can carry a batch of B independent inferences: the value state
(registers, tile memory words, FIFO payloads) then has a trailing lane
axis of length B, while program counters, valid/count bits and all timing
and energy state stay shared. Every lane follows the same schedule, which
the lane-uniform rule for aluint/brn operands guarantees.
"""

import heapq
import logging
import mmap
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import fixedpoint as fp
from .container import TILE_UNIT, loads as load_container
from .crossbar import apply_write_noise, crossbar_mvm, slice_weights
from .isa import ALU_OP_NAMES, ALU_TRANSCENDENTAL, ALU_UNARY, \
    ALUINT_OP_NAMES, BRN_OP_NAMES, disassemble_one, sign_extend_12
from .machine import MachineConfig

log = logging.getLogger("xbarsim")

PIPELINE_FILL_CYCLES = 2   # fetch + decode before the first execute


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
    coalesce_groups: int = 0
    maxlive: int = 0
    spill_count: int = 0
    halted: bool = False
    deadlock: bool = False
    step_limit_hit: bool = False
    diagnosis: list = field(default_factory=list)

    @property
    def spill_access_pct(self):
        if self.reg_accesses == 0:
            return 0.0
        return 100.0 * self.spill_accesses / self.reg_accesses

    def to_dict(self):
        d = {
            "outputs": {k: vec.tolist() for k, vec in self.outputs.items()},
            "cycles": self.cycles,
            "latency_ns": self.latency_ns,
            "energy_nj": {k: round(v, 6) for k, v in self.energy_nj.items()},
            "energy_total_nj": round(self.energy_total_nj, 6),
            "instr_static": self.instr_static,
            "instr_dynamic": self.instr_dynamic,
            "instr_cycles": self.instr_cycles,
            "blocked_ns": {f"tile{t}_"
                           + ("unit" if c == TILE_UNIT else f"core{c}"): v
                           for (t, c), v in self.blocked_ns.items()},
            "steps": self.steps,
            "mode_switches": self.mode_switches,
            "saturations": self.saturations,
            "spill_access_pct": round(self.spill_access_pct, 4),
            "coalesce_groups": self.coalesce_groups,
            "maxlive": self.maxlive,
            "spill_count": self.spill_count,
            "halted": self.halted,
            "deadlock": self.deadlock,
            "step_limit_hit": self.step_limit_hit,
            "diagnosis": self.diagnosis,
        }
        return d

    def to_text(self):
        lines = [f"halted={self.halted} cycles={self.cycles} "
                 f"latency_ns={self.latency_ns:.1f}",
                 f"energy_nj total={self.energy_total_nj:.4f}"]
        for k in sorted(self.energy_nj):
            lines.append(f"  {k}: {self.energy_nj[k]:.4f}")
        lines.append("dynamic instructions: " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.instr_dynamic.items())))
        lines.append("instruction cycles: " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.instr_cycles.items())))
        lines.append(f"spill accesses: {self.spill_access_pct:.2f}%"
                     f"  mode switches: {self.mode_switches}"
                     f"  saturations: {self.saturations}")
        for who, v in sorted(self.blocked_ns.items()):
            t, c = who
            name = "unit" if c == TILE_UNIT else f"core{c}"
            lines.append(f"blocked tile{t} {name}: {v:.1f} ns")
        for d in self.diagnosis:
            lines.append("diag: " + d)
        return "\n".join(lines) + "\n"


class TileMemoryState:
    """Shared data words plus per-entry valid/count attributes. data is
    (words,) or (words, B) with a lane axis; valid and count are per word."""

    def __init__(self, words):
        self.data = np.zeros(words, dtype=np.int64)
        self.valid = np.zeros(words, dtype=bool)
        self.count = np.zeros(words, dtype=np.int64)

    def write(self, addr, values, count):
        n = len(values)
        self.data[addr:addr + n] = values
        self.valid[addr:addr + n] = count > 0
        self.count[addr:addr + n] = count

    def consume(self, addr, n):
        """Read + decrement count; entries invalidate when it reaches 0."""
        vals = self.data[addr:addr + n].copy()
        self.count[addr:addr + n] -= 1
        drained = self.count[addr:addr + n] <= 0
        self.valid[addr:addr + n][drained] = False
        return vals


class Fifo:
    def __init__(self, depth):
        self.depth = depth
        self.queue = deque()
        self.in_flight = 0     # reserved by sends not yet arrived

    def occupancy(self):
        return len(self.queue) + self.in_flight


class CoreState:
    def __init__(self, cfg, program, luts):
        self.cfg = cfg
        self.rs = cfg.regspace()
        self.program = program
        self.pc = 0
        self.regs = np.zeros(self.rs.total, dtype=np.int64)
        self.mvmus = [None] * cfg.mvmus_per_core
        self.patterns = {}      # filter id -> {mvmu: perm array}
        self.luts = luts

    def halted(self):
        return self.pc >= len(self.program)

    def read_regs(self, addr, w, op):
        if self.rs.class_of(addr) == "xbar_in" and op != "mvm":
            raise SimError(f"class-access violation: {op} reads XbarIn {addr}")
        return self.regs[addr:addr + w]

    def write_regs(self, addr, values, op):
        if self.rs.class_of(addr) == "xbar_out" and op != "mvm":
            raise SimError(f"class-access violation: {op} writes XbarOut {addr}")
        self.regs[addr:addr + len(values)] = values

    def rom_lookup(self, func, raws):
        """ROM-mode read: RAM contents (the registers) are buffered and
        restored around the access, so they are preserved by construction;
        the cost model charges the switch latency."""
        return self.luts[func].lookup(np.asarray(raws, dtype=np.int64))


class TileState:
    def __init__(self, cfg, program):
        self.mem = TileMemoryState(cfg.dmem_words)
        self.fifos = [Fifo(cfg.fifo_depth) for _ in range(cfg.num_fifos)]
        self.program = program
        self.pc = 0

    def halted(self):
        return self.pc >= len(self.program)


class Machine:
    """A configured node: tiles of cores with installed weights/patterns."""

    def __init__(self, cfg, prog):
        if (prog.xbar_dim, prog.mvmus_per_core, prog.cores_per_tile,
                prog.tiles) != (cfg.xbar_dim, cfg.mvmus_per_core,
                                cfg.cores_per_tile, cfg.tiles):
            raise GeometryError(
                f"container geometry {prog.xbar_dim}x{prog.mvmus_per_core}"
                f"x{prog.cores_per_tile}x{prog.tiles} does not match machine "
                f"{cfg.xbar_dim}x{cfg.mvmus_per_core}x{cfg.cores_per_tile}"
                f"x{cfg.tiles}")
        if prog.frac_bits != cfg.frac_bits:
            raise GeometryError("fixed-point format mismatch")
        self.cfg = cfg
        self.prog = prog
        self.has_run = False
        luts = fp.build_default_luts(cfg.frac_bits, cfg.lut_bits)
        core_programs = {}
        tile_programs = {}
        for seg in prog.segments:
            cap = cfg.tile_imem_capacity if seg.core == TILE_UNIT \
                else cfg.core_imem_capacity
            if len(seg.instrs) > cap:
                raise CapacityError(
                    f"tile {seg.tile} core {seg.core}: {len(seg.instrs)} "
                    f"instructions exceed capacity {cap}")
            if seg.core == TILE_UNIT:
                tile_programs[seg.tile] = seg.instrs
            else:
                core_programs[(seg.tile, seg.core)] = seg.instrs
        self.cores = {}
        for t in range(cfg.tiles):
            for c in range(cfg.cores_per_tile):
                self.cores[(t, c)] = CoreState(
                    cfg, core_programs.get((t, c), []), luts)
        self.tiles = {t: TileState(cfg, tile_programs.get(t, []))
                      for t in range(cfg.tiles)}

        for wb in prog.weights:
            sliced = slice_weights(wb.w_raw, cfg.xbar_dim, cfg.bits_per_device)
            if cfg.noise_sigma > 0:
                seed = np.random.SeedSequence(
                    [cfg.seed, wb.tile, wb.core, wb.mvmu])
                sliced = apply_write_noise(sliced, cfg.noise_sigma, seed)
            self.cores[(wb.tile, wb.core)].mvmus[wb.mvmu] = sliced
        for pat in prog.patterns:
            core = self.cores[(pat.tile, pat.core)]
            core.patterns.setdefault(pat.filt, {})[pat.mvmu] = \
                np.asarray(pat.perm, dtype=np.int64)
        for db in prog.data:
            self.tiles[db.tile].mem.write(db.addr, db.words, db.count)
        self.spill_ranges = {}
        for r in prog.regions:
            if r.kind == "spill":
                self.spill_ranges.setdefault(r.tile, []).append((r.lo, r.hi))

    def bind_inputs(self, inputs):
        """Write each input into its tile memory words. An input is one
        vector (n,) or a batch (B, n); batches must all have the same B,
        which becomes the length of the value state's lane axis."""
        vecs = {}
        for b in self.prog.inputs():
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
        if batch:
            self.add_lanes(*batch)
        cursor = {}
        for b in self.prog.inputs():
            vec = vecs[b.name]
            at = cursor.get(b.name, 0)
            if at + b.length > vec.shape[-1]:
                raise SimError(
                    f"input {b.name!r} too short: need {at + b.length} words")
            self.tiles[b.tile].mem.write(b.addr, vec[..., at:at + b.length].T,
                                         b.count)
            cursor[b.name] = at + b.length
        for name, n in cursor.items():
            if n != vecs[name].shape[-1]:
                raise SimError(f"input {name!r} has {vecs[name].shape[-1]} "
                               f"words, program binds {n}")

    def add_lanes(self, batch):
        """Give registers and tile memory a trailing lane axis of `batch`
        lanes; each lane starts from the words written so far. A core
        without instructions never touches its registers and keeps them
        as they are. The wide arrays live in anonymous memory maps, which
        read as zeros, take memory only for the pages that get written and
        give it back as soon as the machine is gone."""
        def widen(a):
            n = a.size * batch
            out = np.frombuffer(mmap.mmap(-1, 8 * n), np.int64, n).reshape(
                a.shape + (batch,))
            used = np.flatnonzero(a)
            out[used] = a[used, None]
            return out
        for core in self.cores.values():
            if core.program:
                core.regs = widen(core.regs)
        for tile in self.tiles.values():
            tile.mem.data = widen(tile.mem.data)

    def collect_outputs(self):
        """Output name -> (n,) words, or (B, n) for a batched run."""
        out = {}
        for b in self.prog.outputs():
            vec = self.tiles[b.tile].mem.data[b.addr:b.addr + b.length]
            out.setdefault(b.name, []).append(vec)
        return {k: np.concatenate(v).T for k, v in out.items()}


def load_program(blob_or_prog, cfg=None):
    """Container (bytes or Program) -> configured Machine."""
    prog = load_container(blob_or_prog) if isinstance(blob_or_prog, bytes) \
        else blob_or_prog
    cfg = cfg or MachineConfig()
    return Machine(cfg, prog)


# ---------------------------------------------------------------------------
# Event loop
# ---------------------------------------------------------------------------

def _actor_name(actor):
    t, c = actor
    return f"tile {t} " + ("unit" if c == TILE_UNIT else f"core {c}")


class _Sim:
    def __init__(self, machine, order_seed=None):
        self.m = machine
        self.cfg = machine.cfg
        self.report = RunReport()
        self.ready = []         # (time, priority, serial, actor)
        self.waiters = {}       # condition -> [actor]
        self.blocked_since = {}
        self.blocked_reason = {}
        self.bus_free = 0.0
        self.serial = 0
        self.now = 0.0
        self.rng = random.Random(order_seed) if order_seed is not None else None
        self.pe = {}            # power-rail key -> accumulated nJ
        self.mvmu_energy = 0.0  # paper-anchored per-activation figure

    # -- plumbing -----------------------------------------------------------

    def push(self, t, actor):
        self.serial += 1
        pri = self.rng.random() if self.rng else 0.0
        heapq.heappush(self.ready, (t, pri, self.serial, actor))

    def park(self, actor, cond, reason):
        self.waiters.setdefault(cond, []).append(actor)
        self.blocked_since[actor] = self.now
        self.blocked_reason[actor] = reason

    def wake(self, cond, t):
        for actor in self.waiters.pop(cond, ()):  # noqa: B020
            dt = t - self.blocked_since.pop(actor, t)
            self.report.blocked_ns.setdefault(actor, 0.0)
            self.report.blocked_ns[actor] += dt * self.cfg.cycle_ns
            self.blocked_reason.pop(actor, None)
            self.push(t, actor)

    def charge(self, rail, cycles):
        self.pe[rail] = self.pe.get(rail, 0.0) + self.cfg.energy_nj(rail, cycles)

    def issue(self, kind="core"):
        """Fetch/decode cost of one instruction."""
        if kind == "core":
            self.charge("control", 1)
            self.charge("core_imem", 1)
        else:
            self.charge("tile_ctrl", 1)
            self.charge("tile_imem", 1)

    def bus_cycles(self, w):
        words_per_cycle = 384 // 16   # tile memory bus width
        return (w + words_per_cycle - 1) // words_per_cycle

    def component_energy(self):
        """Aggregate power rails into the report's component classes."""
        pe = self.pe
        def total(*keys):
            return sum(pe.get(k, 0.0) for k in keys)
        return {
            "mvmu": self.mvmu_energy,
            "vfu": total("vfu"),
            "sfu": total("sfu"),
            "register_file": total("regfile"),
            "memory": total("dmem", "attr"),
            "network": total("bus", "net", "rxbuf"),
            "control": total("control", "core_imem", "tile_ctrl", "tile_imem"),
        }

    def count_instr(self, op, cycles, reg_elems):
        r = self.report
        r.instr_dynamic[op] = r.instr_dynamic.get(op, 0) + 1
        r.instr_cycles[op] = r.instr_cycles.get(op, 0) + cycles
        r.reg_accesses += reg_elems
        r.steps += 1

    def lane_uniform(self, actor, core, addr, op):
        """A register that steers control flow, read as one number. Every
        lane must hold the same value, so that all lanes keep one schedule
        and timing stays independent of the data."""
        v = core.read_regs(addr, 1, op)[0]
        if v.ndim:
            if (v != v[0]).any():
                raise SimError(
                    f"{_actor_name(actor)} pc {core.pc}: {op} reads register "
                    f"{addr}, whose lanes differ ({v.min()} to {v.max()})")
            v = v[0]
        return int(v)

    def in_spill_region(self, tile, addr, w):
        for lo, hi in self.m.spill_ranges.get(tile, ()):
            if addr < hi and addr + w > lo:
                return True
        return False

    # -- instruction semantics ------------------------------------------------

    def attempt(self, actor):
        """Try the actor's next instruction; returns False if it parked."""
        t = self.now
        tile_id, core_id = actor
        if core_id == TILE_UNIT:
            unit = self.m.tiles[tile_id]
            if unit.halted():
                return True
            instr = unit.program[unit.pc]
            done = self.exec_tile(tile_id, unit, instr)
        else:
            core = self.m.cores[actor]
            if core.halted():
                return True
            instr = core.program[core.pc]
            done = self.exec_core(actor, core, instr)
        if done and log.isEnabledFor(logging.DEBUG):
            log.debug("t=%d %s pc executed: %s", t, actor,
                      disassemble_one(instr))
        return done

    def exec_core(self, actor, core, i):
        cfg = self.cfg
        tile = self.m.tiles[actor[0]]
        t = self.now
        op = i.op
        if op == "load":
            addr, w = i.b, max(1, i.w)
            missing = np.nonzero(~tile.mem.valid[addr:addr + w])[0]
            if len(missing):
                self.park(actor, ("mem_valid", actor[0], addr + int(missing[0])),
                          f"load waiting on word {addr + int(missing[0])}")
                return False
            vals = tile.mem.consume(addr, w)
            core.write_regs(i.a, vals, op)
            drained = np.nonzero(~tile.mem.valid[addr:addr + w])[0]
            cycles = 1 + w
            end = t + cycles
            for d in drained:
                self.wake(("mem_free", actor[0], addr + int(d)), end)
            self.charge("dmem", w)
            self.charge("attr", w)
            self.charge("bus", self.bus_cycles(w))
            self.charge("regfile", w)
            self.issue()
            if self.in_spill_region(actor[0], addr, w):
                self.report.spill_accesses += w
            self.count_instr(op, cycles, w)
            self.advance(core, actor, end)
            return True
        if op == "store":
            addr, w = i.a, max(1, i.w)
            busy = np.nonzero(tile.mem.valid[addr:addr + w])[0]
            if len(busy):
                self.park(actor, ("mem_free", actor[0], addr + int(busy[0])),
                          f"store waiting on occupied word {addr + int(busy[0])}")
                return False
            vals = core.read_regs(i.b, w, op)
            tile.mem.write(addr, vals, i.c)
            cycles = 1 + w
            end = t + cycles
            if i.c > 0:
                for k in range(w):
                    self.wake(("mem_valid", actor[0], addr + k), end)
            self.charge("dmem", w)
            self.charge("attr", w)
            self.charge("bus", self.bus_cycles(w))
            self.charge("regfile", w)
            self.issue()
            if self.in_spill_region(actor[0], addr, w):
                self.report.spill_accesses += w
            self.count_instr(op, cycles, w)
            self.advance(core, actor, end)
            return True
        if op == "mvm":
            cycles = cfg.mvm_cycles
            members = [u for u in range(cfg.mvmus_per_core) if i.sub >> u & 1]
            reg_elems = 0
            for u in members:
                sliced = core.mvmus[u]
                if sliced is None:
                    raise SimError(f"mvm activates unconfigured MVMU {u}")
                perm = core.patterns.get(i.a, {}).get(u)
                base_in = core.rs.xbar_in(u)
                if perm is None:
                    x = core.regs[base_in:base_in + sliced.rows]
                else:
                    x = core.regs[base_in + perm]
                adc = cfg.adc_bits if cfg.adc_bits else None
                # lanes become the batch axis: one product for all lanes
                out = crossbar_mvm(sliced, x.T, adc, cfg.frac_bits,
                                   cfg.xbar_dim)
                base_out = core.rs.xbar_out(u)
                core.regs[base_out:base_out + sliced.cols] = out.T
                reg_elems += sliced.rows + sliced.cols
                self.mvmu_energy += cfg.mvm_nj_per_mvmu
            self.issue()
            self.count_instr(op, cycles, reg_elems)
            self.advance(core, actor, t + cycles)
            return True
        if op in ("alu", "alui"):
            w = max(1, i.w)
            lanes = cfg.vfu_lanes
            busy = (w + lanes - 1) // lanes
            cycles = 1 + busy
            name = ALU_OP_NAMES[i.sub]
            a = core.read_regs(i.b, w, op)
            if op == "alui":
                b = sign_extend_12(i.c) if name in ("add", "sub") else i.c
                reg_elems = 2 * w
            elif name in ALU_UNARY:
                b = 0
                reg_elems = 2 * w
            else:
                b = core.read_regs(i.c, w, op)
                reg_elems = 3 * w
            if name in ALU_TRANSCENDENTAL:
                # ROM mode: buffer RAM, read entries, restore RAM
                out = core.rom_lookup(name, a)
                cycles += cfg.mode_switch_cycles
                self.charge("regfile", cfg.mode_switch_cycles)
                self.report.mode_switches += 1
            else:
                out, saturated = fp.vector_op(name, a, b, cfg.frac_bits)
                self.report.saturations += saturated
            core.write_regs(i.a, out, op)
            self.charge("vfu", busy)
            self.charge("regfile", busy)
            self.issue()
            self.count_instr(op, cycles, reg_elems)
            self.advance(core, actor, t + cycles)
            return True
        if op == "copy":
            w = max(1, i.w)
            vals = core.read_regs(i.b, w, op)
            core.write_regs(i.a, vals, op)
            cycles = 1 + w
            self.charge("regfile", w)
            self.issue()
            self.count_instr(op, cycles, 2 * w)
            self.advance(core, actor, t + cycles)
            return True
        if op == "set":
            core.write_regs(i.a, np.array([i.b], dtype=np.int64), op)
            self.charge("regfile", 1)
            self.issue()
            self.count_instr(op, 1, 1)
            self.advance(core, actor, t + 1)
            return True
        if op == "aluint":
            name = ALUINT_OP_NAMES[i.sub]
            a = self.lane_uniform(actor, core, i.b, op)
            b = self.lane_uniform(actor, core, i.c, op)
            if name == "add":
                v = a + b
            elif name == "sub":
                v = a - b
            elif name == "eq":
                v = 1 if a == b else 0
            elif name == "gt":
                v = 1 if a > b else 0
            else:
                v = 1 if a != b else 0
            self.report.saturations += fp.saturation_count(v)
            core.write_regs(i.a, fp.saturate(np.array([v])), op)
            self.charge("sfu", 1)
            self.issue()
            self.count_instr(op, 1, 3)
            self.advance(core, actor, t + 1)
            return True
        if op == "jmp":
            core.pc = i.c
            self.charge("sfu", 1)
            self.issue()
            self.count_instr(op, 1, 0)
            self.push(t + 1, actor)
            return True
        if op == "brn":
            name = BRN_OP_NAMES[i.sub]
            a = self.lane_uniform(actor, core, i.a, op)
            b = self.lane_uniform(actor, core, i.b, op)
            taken = {"eq": a == b, "ne": a != b, "gt": a > b,
                     "ge": a >= b, "lt": a < b, "le": a <= b}[name]
            core.pc = i.c if taken else core.pc + 1
            self.charge("sfu", 1)
            self.issue()
            self.count_instr(op, 1, 2)
            self.push(t + 1, actor)
            return True
        raise SimError(f"core cannot execute {op!r}")

    def exec_tile(self, tile_id, unit, i):
        cfg = self.cfg
        tile = self.m.tiles[tile_id]
        t = self.now
        w = max(1, i.w)
        flits = (w + cfg.words_per_flit - 1) // cfg.words_per_flit
        if i.op == "send":
            addr, fid, target = i.a, i.sub, i.b
            if target >= cfg.tiles:
                raise SimError(f"send targets nonexistent tile {target}")
            missing = np.nonzero(~tile.mem.valid[addr:addr + w])[0]
            if len(missing):
                self.park((tile_id, TILE_UNIT),
                          ("mem_valid", tile_id, addr + int(missing[0])),
                          f"send waiting on word {addr + int(missing[0])}")
                return False
            dest = self.m.tiles[target].fifos[fid]
            if dest.occupancy() >= dest.depth:
                self.park((tile_id, TILE_UNIT), ("fifo_space", target, fid),
                          f"send waiting on fifo {fid} space at tile {target}")
                return False
            vals = tile.mem.consume(addr, w)
            drained = np.nonzero(~tile.mem.valid[addr:addr + w])[0]
            bus_start = max(t, self.bus_free)
            self.bus_free = bus_start + flits
            arrival = bus_start + flits + cfg.hop_cycles
            dest.in_flight += 1
            self.serial += 1
            heapq.heappush(self.ready,
                           (arrival, -1.0, self.serial,
                            ("_arrival", target, fid, tile_id, vals)))
            end = bus_start + flits
            for d in drained:
                self.wake(("mem_free", tile_id, addr + int(d)), end)
            self.charge("dmem", w)
            self.charge("attr", w)
            self.charge("net", flits)
            self.charge("rxbuf", flits)
            self.issue("tile")
            self.count_instr("send", int(end - t), 0)
            unit.pc += 1
            self.push(end, (tile_id, TILE_UNIT))
            return True
        if i.op == "receive":
            addr, fid, count = i.a, i.sub, i.b
            fifo = tile.fifos[fid]
            if not fifo.queue:
                self.park((tile_id, TILE_UNIT), ("fifo_data", tile_id, fid),
                          f"receive waiting on fifo {fid}")
                return False
            busy_words = np.nonzero(tile.mem.valid[addr:addr + w])[0]
            if len(busy_words):
                self.park((tile_id, TILE_UNIT),
                          ("mem_free", tile_id, addr + int(busy_words[0])),
                          f"receive waiting on occupied word "
                          f"{addr + int(busy_words[0])}")
                return False
            src, vals = fifo.queue.popleft()
            if len(vals) != w:
                raise SimError(
                    f"receive of {w} words got a {len(vals)}-word message")
            tile.mem.write(addr, vals, count)
            cycles = 1 + w
            end = t + cycles
            self.wake(("fifo_space", tile_id, fid), end)
            if count > 0:
                for k in range(w):
                    self.wake(("mem_valid", tile_id, addr + k), end)
            self.charge("dmem", w)
            self.charge("attr", w)
            self.charge("rxbuf", flits)
            self.issue("tile")
            self.count_instr("receive", cycles, 0)
            unit.pc += 1
            self.push(end, (tile_id, TILE_UNIT))
            return True
        raise SimError(f"tile unit cannot execute {i.op!r}")

    def advance(self, core, actor, end):
        core.pc += 1
        self.push(end, actor)

    # -- main loop ------------------------------------------------------------

    def all_halted(self):
        return (all(c.halted() for c in self.m.cores.values())
                and all(t.halted() for t in self.m.tiles.values()))

    def diagnose(self):
        out = []
        for actor, reason in sorted(self.blocked_reason.items()):
            t, c = actor
            who = _actor_name(actor)
            if c == TILE_UNIT:
                pc = self.m.tiles[t].pc
                instr = self.m.tiles[t].program[pc]
            else:
                pc = self.m.cores[actor].pc
                instr = self.m.cores[actor].program[pc]
            out.append(f"{who} blocked at pc {pc} on {reason}: "
                       f"'{disassemble_one(instr)}'")
        return out

    def run(self, step_limit):
        for actor, core in self.m.cores.items():
            if not core.halted():
                self.push(PIPELINE_FILL_CYCLES, actor)
        for t, unit in self.m.tiles.items():
            if not unit.halted():
                self.push(PIPELINE_FILL_CYCLES, (t, TILE_UNIT))
        end_time = 0.0
        while self.ready:
            t, _pri, _ser, actor = heapq.heappop(self.ready)
            self.now = max(self.now, t)
            end_time = max(end_time, self.now)
            if isinstance(actor, tuple) and actor and actor[0] == "_arrival":
                _, target, fid, src, vals = actor
                fifo = self.m.tiles[target].fifos[fid]
                fifo.in_flight -= 1
                fifo.queue.append((src, vals))
                self.wake(("fifo_data", target, fid), t)
                continue
            self.attempt(actor)
            if self.report.steps > step_limit:
                self.report.step_limit_hit = True
                break
        for actor, since in self.blocked_since.items():  # still parked
            self.report.blocked_ns[actor] = self.report.blocked_ns.get(
                actor, 0.0) + (self.now - since) * self.cfg.cycle_ns
        self.report.halted = self.all_halted()
        if not self.report.halted and not self.report.step_limit_hit:
            self.report.deadlock = True
        if not self.report.halted:
            self.report.diagnosis = self.diagnose()
        self.report.cycles = int(end_time)
        self.report.latency_ns = end_time * self.cfg.cycle_ns
        self.report.energy_nj = self.component_energy()
        self.report.energy_total_nj = sum(self.report.energy_nj.values())
        return self.report


def run(machine, inputs, step_limit=1_000_000, order_seed=None):
    """Execute a configured machine with bound inputs -> RunReport.

    Each input is one vector (n,) or a batch (B, n) of B independent
    inferences, and all inputs must agree on B. A batched run executes
    every lane on one event loop over the one programmed chip, and its
    outputs come back as (B, n). Every lane runs the same schedule, so
    latency, energy, cycles, steps and instruction counts are those of one
    inference; saturations are summed over the lanes. To keep that
    schedule shared, the registers that `aluint` and `brn` read must hold
    the same value in every lane (loop counters set by `set` and updated
    by `aluint` do); a lane-varying operand raises SimError naming the
    actor and the pc.

    A run consumes the machine's state (program counters, memory counts),
    so each Machine runs once."""
    if machine.has_run:
        raise SimError("this machine has already run; configure a new "
                       "Machine for each run")
    machine.bind_inputs(inputs)
    machine.has_run = True
    log.info("run: %d instructions over %d tiles",
             machine.prog.total_instructions(), machine.cfg.tiles)
    sim = _Sim(machine, order_seed)
    report = sim.run(step_limit)
    log.info("run done: halted=%s cycles=%d steps=%d",
             sim.all_halted(), report.cycles, report.steps)
    report.instr_static = machine.prog.static_histogram()
    report.coalesce_groups = machine.prog.meta.get("coalesce_groups", 0)
    report.maxlive = machine.prog.meta.get("maxlive", 0)
    report.spill_count = machine.prog.meta.get("spill_count", 0)
    if report.halted:
        report.outputs = {k: v for k, v in machine.collect_outputs().items()}
    return report

