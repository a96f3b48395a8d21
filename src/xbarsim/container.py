"""Binary program container.

Layout (all little-endian): magic "PUMA", version byte, geometry stamp,
then per-core and per-tile instruction segments each prefixed by
(tile id, core id or TILE marker, instruction count) followed by raw
7-byte records. Configuration sections follow: crossbar weights, shuffle
patterns, preloaded data-memory words, input/output bindings, memory
region tags, and integer metadata from the compiler. A weight block is a
2-D int64 ndarray in memory and row-major little-endian int16 words here.
"""

import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import isa

MAGIC = b"PUMA"
VERSION = 1
TILE_UNIT = 0xFFFF  # core-id marker for a tile's send/receive sequence


def actor_name(actor):
    """(tile, core) -> 'tile t core c', or 'tile t unit' for TILE_UNIT."""
    t, c = actor
    return f"tile {t} " + ("unit" if c == TILE_UNIT else f"core {c}")


REGION_KINDS = ("input", "output", "const", "value", "spill")


class ContainerError(Exception):
    pass


@dataclass
class Segment:
    tile: int
    core: int          # TILE_UNIT for the tile sequencer
    instrs: list


@dataclass
class WeightBlock:
    tile: int
    core: int
    mvmu: int
    w_raw: np.ndarray  # rows x cols raw int64 weights


@dataclass
class ShufflePattern:
    tile: int
    core: int
    mvmu: int
    filt: int
    stride: int
    perm: list         # DAC row r reads XbarIn slot perm[r]


@dataclass
class DataBlock:
    tile: int
    addr: int
    count: int         # consumer count installed with the words
    words: list


@dataclass
class IoBinding:
    kind: str          # "in" | "out"
    name: str
    tile: int
    addr: int
    length: int
    count: int


@dataclass
class Region:
    tile: int
    lo: int
    hi: int            # exclusive
    kind: str


@dataclass
class Program:
    xbar_dim: int
    mvmus_per_core: int
    cores_per_tile: int
    tiles: int
    frac_bits: int
    bits_per_device: int
    segments: list = field(default_factory=list)
    weights: list = field(default_factory=list)
    patterns: list = field(default_factory=list)
    data: list = field(default_factory=list)
    io: list = field(default_factory=list)
    regions: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def static_histogram(self):
        hist = Counter()
        for s in self.segments:
            for i in s.instrs:
                hist[i.op] += 1
        return dict(hist)

    def total_instructions(self):
        return sum(len(s.instrs) for s in self.segments)

    def inputs(self):
        return [b for b in self.io if b.kind == "in"]

    def outputs(self):
        return [b for b in self.io if b.kind == "out"]


def _pack_str(s):
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.blob):
            raise ContainerError("truncated container")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self):
        (n,) = self.unpack("<H")
        return self.take(n).decode("utf-8")


def save(prog):
    """Program -> container bytes."""
    out = [MAGIC, struct.pack("<B", VERSION)]
    out.append(struct.pack("<HBBHBB", prog.xbar_dim, prog.mvmus_per_core,
                           prog.cores_per_tile, prog.tiles, prog.frac_bits,
                           prog.bits_per_device))
    out.append(struct.pack("<H", len(prog.segments)))
    for s in prog.segments:
        out.append(struct.pack("<HHI", s.tile, s.core, len(s.instrs)))
        out.append(isa.encode_program(s.instrs))
    out.append(struct.pack("<H", len(prog.weights)))
    for wb in prog.weights:
        w = np.asarray(wb.w_raw)
        words = w.astype("<i2")
        if w.ndim != 2 or np.any(words != w):
            raise ContainerError(f"tile {wb.tile} core {wb.core} mvmu "
                                 f"{wb.mvmu}: weights are not 2-D int16 "
                                 f"integers")
        out.append(struct.pack("<HHBHH", wb.tile, wb.core, wb.mvmu, *w.shape))
        out.append(words.tobytes())
    out.append(struct.pack("<H", len(prog.patterns)))
    for p in prog.patterns:
        out.append(struct.pack("<HHBHHH", p.tile, p.core, p.mvmu, p.filt,
                               p.stride, len(p.perm)))
        out.append(struct.pack(f"<{len(p.perm)}H", *p.perm))
    out.append(struct.pack("<H", len(prog.data)))
    for d in prog.data:
        out.append(struct.pack("<HHHH", d.tile, d.addr, d.count, len(d.words)))
        out.append(struct.pack(f"<{len(d.words)}h", *[int(w) for w in d.words]))
    out.append(struct.pack("<H", len(prog.io)))
    for b in prog.io:
        out.append(struct.pack("<B", 0 if b.kind == "in" else 1))
        out.append(_pack_str(b.name))
        out.append(struct.pack("<HHHH", b.tile, b.addr, b.length, b.count))
    out.append(struct.pack("<H", len(prog.regions)))
    for r in prog.regions:
        out.append(struct.pack("<HHHB", r.tile, r.lo, r.hi,
                               REGION_KINDS.index(r.kind)))
    out.append(struct.pack("<H", len(prog.meta)))
    for k in sorted(prog.meta):
        out.append(_pack_str(k))
        out.append(struct.pack("<q", int(prog.meta[k])))
    return b"".join(out)


def loads(blob):
    """Container bytes -> Program."""
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise ContainerError("bad magic (not a program container)")
    (version,) = r.unpack("<B")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    dim, mvmus, cores, tiles, frac, bits = r.unpack("<HBBHBB")
    prog = Program(dim, mvmus, cores, tiles, frac, bits)
    (nseg,) = r.unpack("<H")
    for _ in range(nseg):
        tile, core, n = r.unpack("<HHI")
        instrs = isa.decode_program(r.take(n * isa.INSTR_BYTES))
        prog.segments.append(Segment(tile, core, instrs))
    (nw,) = r.unpack("<H")
    for _ in range(nw):
        tile, core, mvmu, rows, cols = r.unpack("<HHBHH")
        w = np.frombuffer(r.take(2 * rows * cols), "<i2").reshape(rows, cols)
        prog.weights.append(WeightBlock(tile, core, mvmu, w.astype(np.int64)))
    (np_,) = r.unpack("<H")
    for _ in range(np_):
        tile, core, mvmu, filt, stride, n = r.unpack("<HHBHHH")
        perm = list(r.unpack(f"<{n}H"))
        prog.patterns.append(ShufflePattern(tile, core, mvmu, filt, stride, perm))
    (nd,) = r.unpack("<H")
    for _ in range(nd):
        tile, addr, count, n = r.unpack("<HHHH")
        prog.data.append(DataBlock(tile, addr, count, list(r.unpack(f"<{n}h"))))
    (nio,) = r.unpack("<H")
    for _ in range(nio):
        (kind,) = r.unpack("<B")
        name = r.string()
        tile, addr, length, count = r.unpack("<HHHH")
        prog.io.append(IoBinding("in" if kind == 0 else "out", name, tile,
                                 addr, length, count))
    (nr,) = r.unpack("<H")
    for _ in range(nr):
        tile, lo, hi, kind = r.unpack("<HHHB")
        prog.regions.append(Region(tile, lo, hi, REGION_KINDS[kind]))
    (nm,) = r.unpack("<H")
    for _ in range(nm):
        k = r.string()
        (v,) = r.unpack("<q")
        prog.meta[k] = v
    if r.pos != len(blob):
        raise ContainerError("trailing bytes after container")
    return prog


def save_file(prog, path):
    with open(path, "wb") as fh:
        fh.write(save(prog))


def load_file(path):
    with open(path, "rb") as fh:
        return loads(fh.read())
