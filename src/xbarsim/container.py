"""Binary program container.

Layout (all little-endian): magic "PUMA", version byte, geometry stamp,
then per-core and per-tile instruction segments each prefixed by
(tile id, core id or TILE marker, instruction count) followed by raw
7-byte records. Configuration sections follow: crossbar weights, shuffle
patterns, preloaded data-memory words, input/output bindings, memory
region tags, and integer metadata from the compiler. A weight block is a
2-D int16 ndarray in memory and row-major little-endian int16 words here.
"""

import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import isa

MAGIC = b"PUMA"
VERSION = 2
TILE_UNIT = 0xFFFF  # core-id marker for a tile's send/receive sequence


def actor_name(actor):
    """(tile, core) -> 'tile t core c', or 'tile t unit' for TILE_UNIT."""
    t, c = actor
    return f"tile {t} " + ("unit" if c == TILE_UNIT else f"core {c}")


IO_KINDS = ("in", "out")
REGION_KINDS = ("input", "output", "const", "value", "spill")


class ContainerError(Exception):
    pass


@dataclass
class Segment:
    tile: int
    core: int          # TILE_UNIT for the tile sequencer
    instrs: list = field(repr=False)


@dataclass
class WeightBlock:
    tile: int
    core: int
    mvmu: int
    w_raw: np.ndarray = field(repr=False)  # rows x cols raw int16


@dataclass
class ShufflePattern:
    tile: int
    core: int
    mvmu: int
    filt: int
    stride: int
    perm: list = field(repr=False)  # DAC row r reads XbarIn slot perm[r]


@dataclass
class DataBlock:
    tile: int
    addr: int
    count: int         # consumer count installed with the words
    words: list = field(repr=False)


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
    segments: list = field(default_factory=list, repr=False)
    weights: list = field(default_factory=list, repr=False)
    patterns: list = field(default_factory=list, repr=False)
    data: list = field(default_factory=list, repr=False)
    io: list = field(default_factory=list, repr=False)
    regions: list = field(default_factory=list, repr=False)
    meta: dict = field(default_factory=dict, repr=False)

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


def _pack_segment(s):
    return (struct.pack("<HHI", s.tile, s.core, len(s.instrs))
            + isa.encode_program(s.instrs))


def _pack_weights(wb):
    w = np.asarray(wb.w_raw)
    words = w.astype("<i2", copy=False)
    if w.ndim != 2 or (w.dtype != np.int16 and np.any(words != w)):
        raise ContainerError(f"tile {wb.tile} core {wb.core} mvmu "
                             f"{wb.mvmu}: weights are not 2-D int16 "
                             f"integers")
    return struct.pack("<HHBHH", wb.tile, wb.core, wb.mvmu,
                       *w.shape) + words.tobytes()


def _pack_pattern(p):
    return struct.pack(f"<HHBHHH{len(p.perm)}H", p.tile, p.core, p.mvmu,
                       p.filt, p.stride, len(p.perm), *p.perm)


def _pack_data(d):
    return struct.pack(f"<HHHH{len(d.words)}h", d.tile, d.addr, d.count,
                       len(d.words), *[int(w) for w in d.words])


def _pack_io(b):
    return (struct.pack("<B", IO_KINDS.index(b.kind)) + _pack_str(b.name)
            + struct.pack("<HHHH", b.tile, b.addr, b.length, b.count))


def _pack_region(r):
    return struct.pack("<HHHB", r.tile, r.lo, r.hi, REGION_KINDS.index(r.kind))


def _pack_meta(item):
    return _pack_str(item[0]) + struct.pack("<q", int(item[1]))


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

    def kind(self, kinds, what):
        (k,) = self.unpack("<B")
        if k >= len(kinds):
            raise ContainerError(f"{what} kind byte {k} is not one of {kinds}")
        return kinds[k]

    def string(self):
        (n,) = self.unpack("<H")
        return self.take(n).decode("utf-8")


def save(prog):
    """Program -> container bytes. A value that does not fit its field
    raises ContainerError naming its record; the Program names the header
    and the record counts."""
    sections = ((prog.segments, _pack_segment), (prog.weights, _pack_weights),
                (prog.patterns, _pack_pattern), (prog.data, _pack_data),
                (prog.io, _pack_io), (prog.regions, _pack_region),
                (sorted(prog.meta.items()), _pack_meta))
    out = [MAGIC]
    rec = prog
    try:
        out.append(struct.pack("<BHBBHB", VERSION, prog.xbar_dim,
                               prog.mvmus_per_core, prog.cores_per_tile,
                               prog.tiles, prog.frac_bits))
        for records, pack in sections:
            rec = prog
            out.append(struct.pack("<H", len(records)))
            for rec in records:
                out.append(pack(rec))
    except (struct.error, ValueError) as e:   # a field or kind out of range
        raise ContainerError(f"{rec!r}: a value does not fit its field "
                             f"({e})") from None
    return b"".join(out)


def loads(blob):
    """Container bytes -> Program."""
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise ContainerError("bad magic (not a program container)")
    (version,) = r.unpack("<B")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    prog = Program(*r.unpack("<HBBHB"))
    (nseg,) = r.unpack("<H")
    for _ in range(nseg):
        tile, core, n = r.unpack("<HHI")
        instrs = isa.decode_program(r.take(n * isa.INSTR_BYTES))
        prog.segments.append(Segment(tile, core, instrs))
    (nw,) = r.unpack("<H")
    for _ in range(nw):
        tile, core, mvmu, rows, cols = r.unpack("<HHBHH")
        w = np.frombuffer(r.take(2 * rows * cols), "<i2").reshape(rows, cols)
        prog.weights.append(WeightBlock(tile, core, mvmu,
                                        w.astype(np.int16, copy=False)))
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
        kind = r.kind(IO_KINDS, "io binding")
        prog.io.append(IoBinding(kind, r.string(), *r.unpack("<HHHH")))
    (nr,) = r.unpack("<H")
    for _ in range(nr):
        tile, lo, hi = r.unpack("<HHH")
        prog.regions.append(Region(tile, lo, hi, r.kind(REGION_KINDS, "region")))
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
