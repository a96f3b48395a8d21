"""Binary program container.

Layout (all little-endian): magic "PUMA", version byte, geometry stamp,
then per-core and per-tile instruction segments each prefixed by
(tile id, core id or TILE marker, instruction count) followed by raw
7-byte records. Configuration sections follow: crossbar weights, shuffle
patterns, preloaded data-memory words, input/output bindings and the
spill ranges of tile memory. A weight block is a 2-D int16 ndarray in
memory and row-major little-endian int16 words here.
"""

import os
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import isa

MAGIC = b"PUMA"
VERSION = 3
TILE_UNIT = 0xFFFF  # core-id marker for a tile's send/receive sequence


def actor_name(actor):
    """(tile, core) -> 'tile t core c', or 'tile t unit' for TILE_UNIT."""
    t, c = actor
    return f"tile {t} " + ("unit" if c == TILE_UNIT else f"core {c}")


IO_KINDS = ("in", "out")


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
    """A run of adjacent spill slots in tile memory."""
    tile: int
    lo: int
    hi: int            # exclusive


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
    return struct.pack(f"<HHBHH{len(p.perm)}H", p.tile, p.core, p.mvmu,
                       p.filt, len(p.perm), *p.perm)


def _pack_data(d):
    return struct.pack(f"<HHHH{len(d.words)}h", d.tile, d.addr, d.count,
                       len(d.words), *[int(w) for w in d.words])


def _pack_io(b):
    name = b.name.encode("utf-8")
    return struct.pack(f"<BH{len(name)}sHHHH", IO_KINDS.index(b.kind),
                       len(name), name, b.tile, b.addr, b.length, b.count)


def _pack_region(r):
    return struct.pack("<HHH", r.tile, r.lo, r.hi)


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


def _records(prog):
    """Program -> the container's bytes, one packed record at a time. A
    value that does not fit its field raises ContainerError naming its
    record; the Program names the header and the record counts."""
    sections = ((prog.segments, _pack_segment), (prog.weights, _pack_weights),
                (prog.patterns, _pack_pattern), (prog.data, _pack_data),
                (prog.io, _pack_io), (prog.regions, _pack_region))
    rec = prog
    try:
        yield MAGIC + struct.pack("<BHBBHB", VERSION, prog.xbar_dim,
                                  prog.mvmus_per_core, prog.cores_per_tile,
                                  prog.tiles, prog.frac_bits)
        for records, pack in sections:
            rec = prog
            yield struct.pack("<H", len(records))
            for rec in records:
                yield pack(rec)
    except (struct.error, ValueError) as e:   # a field or kind out of range
        raise ContainerError(f"{rec!r}: a value does not fit its field "
                             f"({e})") from None


def save(prog):
    """Program -> container bytes."""
    return b"".join(_records(prog))


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
        tile, core, mvmu, filt, n = r.unpack("<HHBHH")
        perm = list(r.unpack(f"<{n}H"))
        prog.patterns.append(ShufflePattern(tile, core, mvmu, filt, perm))
    (nd,) = r.unpack("<H")
    for _ in range(nd):
        tile, addr, count, n = r.unpack("<HHHH")
        prog.data.append(DataBlock(tile, addr, count, list(r.unpack(f"<{n}h"))))
    (nio,) = r.unpack("<H")
    for _ in range(nio):
        k, n = r.unpack("<BH")
        if k >= len(IO_KINDS):
            raise ContainerError(f"io binding kind byte {k} is not one of "
                                 f"{IO_KINDS}")
        name = r.take(n).decode("utf-8")
        prog.io.append(IoBinding(IO_KINDS[k], name, *r.unpack("<HHHH")))
    (nr,) = r.unpack("<H")
    for _ in range(nr):
        prog.regions.append(Region(*r.unpack("<HHH")))
    if r.pos != len(blob):
        raise ContainerError("trailing bytes after container")
    return prog


def save_file(prog, path):
    """Write prog's container to path as its records are packed, through
    a temporary file beside path that replaces it only when whole."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.writelines(_records(prog))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_file(path):
    with open(path, "rb") as fh:
        return loads(fh.read())
