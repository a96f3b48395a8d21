"""Pre-allocation instruction form: ISA instructions whose register
operands may be virtual registers and whose addresses may be unresolved
memory symbols. Register allocation and memory assignment rewrite these
into encodable instructions."""

from dataclasses import dataclass

from . import isa


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


@dataclass
class LowInstr:
    op: str
    sub: int = 0
    a: object = 0       # int | VReg | Mem
    b: object = 0
    c: object = 0
    w: int = 0

    def operands(self):
        return (self.a, self.b, self.c)


def finalize(instrs, reg_of, addr_of):
    """LowInstr list -> Instruction list.

    reg_of maps a VReg to a physical register index; addr_of maps a Mem
    to a word address.
    """
    out = []
    for li in instrs:
        fields = []
        for f in li.operands():
            if isinstance(f, VReg):
                fields.append(reg_of(f))
            elif isinstance(f, Mem):
                fields.append(addr_of(f))
            else:
                fields.append(int(f))
        out.append(isa.Instruction(li.op, li.sub, *fields, li.w))
    return out


def reads_writes(li):
    """Register ranges (operand, width) read and written by one
    pre-allocation instruction, as (reads, writes): isa.registers split by
    direction (mvm's fixed XbarIn/XbarOut traffic is not included)."""
    reads, writes = [], []
    for opnd, words, written in isa.registers(li):
        (writes if written else reads).append((opnd, words))
    return reads, writes
