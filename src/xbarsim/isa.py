"""Instruction set: definitions, 7-byte binary codec, and assembly text.

Encoding (56 bits, little-endian byte order):

    bits  0..4    opcode
    bits  5..9    subop        (aluop / brnop / mvmu mask / fifo id)
    bits 10..21   field a      (12-bit operand)
    bits 22..33   field b
    bits 34..45   field c
    bits 46..53   vec-width / immediate width field (8 bits)
    bits 54..55   reserved, must be zero

The three 12-bit fields address the unified register space and shared
memory; jump targets also use a 12-bit field so programs can fill the
4KB instruction memory.
"""

from dataclasses import dataclass

INSTR_BYTES = 7

OPCODES = {
    "mvm": 1,
    "alu": 2,
    "alui": 3,
    "aluint": 4,
    "set": 5,
    "copy": 6,
    "load": 7,
    "store": 8,
    "send": 9,
    "receive": 10,
    "jmp": 11,
    "brn": 12,
}
OPCODE_NAMES = {v: k for k, v in OPCODES.items()}

# Vector ALU subops (shared by alu and alui where meaningful). shl and shr
# read the shift count as an unsigned 16-bit word; shl clamps it to 16 and
# saturates, shr clamps it to 15 (fixedpoint.VECTOR_OPS).
ALU_OPS = {
    "add": 0, "sub": 1, "mul": 2, "div": 3,
    "shl": 4, "shr": 5, "and": 6, "or": 7, "not": 8,
    "relu": 9, "sigmoid": 10, "tanh": 11, "log": 12, "exp": 13,
    "min": 14, "max": 15,
}
ALU_OP_NAMES = {v: k for k, v in ALU_OPS.items()}
ALU_UNARY = {"not", "relu", "sigmoid", "tanh", "log", "exp"}
ALU_TRANSCENDENTAL = {"sigmoid", "tanh", "log", "exp"}
ALUI_OPS = {"add", "sub", "mul", "div", "shl", "shr", "and", "or"}

ALUINT_OPS = {"add": 0, "sub": 1, "eq": 2, "gt": 3, "ne": 4}
ALUINT_OP_NAMES = {v: k for k, v in ALUINT_OPS.items()}

BRN_OPS = {"eq": 0, "ne": 1, "gt": 2, "ge": 3, "lt": 4, "le": 5}
BRN_OP_NAMES = {v: k for k, v in BRN_OPS.items()}

FIELD_MAX = (1 << 12) - 1
WIDTH_MAX = (1 << 8) - 1
SUBOP_MAX = (1 << 5) - 1

# Operand metadata mirroring the ISA table rows: name per populated field.
# 'src3' on the vector ALU row is reserved (always zero) since no
# implemented vector op takes three sources.
OPERAND_NAMES = {
    "mvm": ("mask", "filter", "stride"),
    "alu": ("aluop", "dest", "src1", "src2", "src3", "vec_width"),
    "alui": ("aluop", "dest", "src1", "immediate", "vec_width"),
    "aluint": ("aluop", "dest", "src1", "src2"),
    "set": ("dest", "immediate"),
    "copy": ("dest", "src1", "vec_width"),
    "load": ("dest", "immediate", "vec_width"),
    "store": ("dest", "src1", "count", "vec_width"),
    "send": ("memaddr", "fifo_id", "target", "vec_width"),
    "receive": ("memaddr", "fifo_id", "count", "vec_width"),
    "jmp": ("pc",),
    "brn": ("brnop", "src1", "src2", "pc"),
}


class IsaError(Exception):
    pass


class DecodeError(IsaError):
    pass


class AsmError(IsaError):
    def __init__(self, msg, line=None):
        super().__init__(f"line {line}: {msg}" if line is not None else msg)
        self.line = line


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction; a/b/c are the three 12-bit operand fields."""
    op: str
    sub: int = 0
    a: int = 0
    b: int = 0
    c: int = 0
    w: int = 0


# Constructors named for what each field means per opcode.

def mvm(mask, filt=0, stride=0):
    return Instruction("mvm", mask, filt, stride, 0, 0)


def alu(op, dest, src1, src2=0, w=1):
    return Instruction("alu", ALU_OPS[op], dest, src1, src2, w)


def alui(op, dest, src1, imm, w=1):
    if op not in ALUI_OPS:
        raise IsaError(f"alui does not support {op!r}")
    return Instruction("alui", ALU_OPS[op], dest, src1, imm & FIELD_MAX, w)


def aluint(op, dest, src1, src2):
    return Instruction("aluint", ALUINT_OPS[op], dest, src1, src2, 0)


def seti(dest, imm):
    return Instruction("set", 0, dest, imm, 0, 0)


def copy(dest, src, w):
    return Instruction("copy", 0, dest, src, 0, w)


def load(dest, addr, w=1):
    return Instruction("load", 0, dest, addr, 0, w)


def store(addr, src, count, w=1):
    return Instruction("store", 0, addr, src, count, w)


def send(addr, fifo, target, w):
    return Instruction("send", fifo, addr, target, 0, w)


def recv(addr, fifo, count, w):
    return Instruction("receive", fifo, addr, count, 0, w)


def jmp(pc):
    return Instruction("jmp", 0, 0, 0, pc, 0)


def brn(op, src1, src2, pc):
    return Instruction("brn", BRN_OPS[op], src1, src2, pc, 0)


def sign_extend_12(v):
    """12-bit field -> signed value (used by alui arithmetic ops)."""
    return v - 4096 if v & 0x800 else v


def validate(i):
    """Raise IsaError unless every field is in range for its slot."""
    if i.op not in OPCODES:
        raise IsaError(f"unknown mnemonic {i.op!r}")
    for name, v, hi in (("subop", i.sub, SUBOP_MAX), ("a", i.a, FIELD_MAX),
                        ("b", i.b, FIELD_MAX), ("c", i.c, FIELD_MAX),
                        ("vec_width", i.w, WIDTH_MAX)):
        if not 0 <= v <= hi:
            raise IsaError(f"{i.op}: operand {name}={v} out of range [0, {hi}]")
    if i.op == "mvm" and i.sub == 0:
        raise IsaError("mvm: mask must activate at least one MVMU")
    if i.op == "alu" and i.sub not in ALU_OP_NAMES:
        raise IsaError(f"alu: bad aluop {i.sub}")
    if i.op == "alui" and ALU_OP_NAMES.get(i.sub) not in ALUI_OPS:
        raise IsaError(f"alui: bad aluop {i.sub}")
    if i.op == "aluint" and i.sub not in ALUINT_OP_NAMES:
        raise IsaError(f"aluint: bad aluop {i.sub}")
    if i.op == "brn" and i.sub not in BRN_OP_NAMES:
        raise IsaError(f"brn: bad brnop {i.sub}")


def encode(i):
    """Instruction -> 7 bytes."""
    validate(i)
    val = (OPCODES[i.op] | (i.sub << 5) | (i.a << 10) | (i.b << 22)
           | (i.c << 34) | (i.w << 46))
    return val.to_bytes(INSTR_BYTES, "little")


def decode(bs):
    """7 bytes -> Instruction; inverse of encode on its image."""
    if len(bs) != INSTR_BYTES:
        raise DecodeError(f"expected {INSTR_BYTES} bytes, got {len(bs)}")
    val = int.from_bytes(bs, "little")
    opc = val & 0x1F
    if opc not in OPCODE_NAMES:
        raise DecodeError(f"unknown opcode value {opc} at byte offset 0")
    if val >> 54:
        raise DecodeError("reserved bits set")
    return Instruction(
        OPCODE_NAMES[opc],
        (val >> 5) & 0x1F,
        (val >> 10) & 0xFFF,
        (val >> 22) & 0xFFF,
        (val >> 34) & 0xFFF,
        (val >> 46) & 0xFF,
    )


def encode_program(instrs):
    return b"".join(encode(i) for i in instrs)


def decode_program(blob):
    if len(blob) % INSTR_BYTES:
        raise DecodeError(f"program length {len(blob)} not a multiple of {INSTR_BYTES}")
    return [decode(blob[k:k + INSTR_BYTES])
            for k in range(0, len(blob), INSTR_BYTES)]


# ---------------------------------------------------------------------------
# Register space
# ---------------------------------------------------------------------------

class RegisterSpace:
    """Unified register addressing: XbarIn | XbarOut | general purpose.

    XbarIn rows of MVMU m live at [m*D, (m+1)*D); XbarOut mirrors at an
    offset of D*M; general registers follow (2*D*M of them by default).
    """

    def __init__(self, xbar_dim, mvmus_per_core, general_regs=None):
        self.xbar_dim = xbar_dim
        self.mvmus = mvmus_per_core
        dm = xbar_dim * mvmus_per_core
        self.xbar_in_base = 0
        self.xbar_out_base = dm
        self.general_base = 2 * dm
        self.general_regs = 2 * dm if general_regs is None else general_regs
        self.total = self.general_base + self.general_regs
        if self.total - 1 > FIELD_MAX:
            raise IsaError(
                f"register space {self.total} exceeds 12-bit operand range")

    def xbar_in(self, mvmu, row=0):
        return self.xbar_in_base + mvmu * self.xbar_dim + row

    def xbar_out(self, mvmu, row=0):
        return self.xbar_out_base + mvmu * self.xbar_dim + row

    def general(self, k):
        return self.general_base + k

    def class_of(self, addr):
        if addr < 0 or addr >= self.total:
            raise IsaError(f"register address {addr} outside space of {self.total}")
        if addr < self.xbar_out_base:
            return "xbar_in"
        if addr < self.general_base:
            return "xbar_out"
        return "general"


# ---------------------------------------------------------------------------
# Assembly text format
# ---------------------------------------------------------------------------

def _fmt_reg(v):
    return f"${v}"


def disassemble_one(i):
    if i.op == "mvm":
        return f"mvm 0b{i.sub:b}, filter={i.a}, stride={i.b}"
    if i.op == "alu":
        return (f"alu {ALU_OP_NAMES[i.sub]}, {_fmt_reg(i.a)}, {_fmt_reg(i.b)}, "
                f"{_fmt_reg(i.c)}, {i.w}")
    if i.op == "alui":
        return (f"alui {ALU_OP_NAMES[i.sub]}, {_fmt_reg(i.a)}, {_fmt_reg(i.b)}, "
                f"{i.c}, {i.w}")
    if i.op == "aluint":
        return (f"aluint {ALUINT_OP_NAMES[i.sub]}, {_fmt_reg(i.a)}, "
                f"{_fmt_reg(i.b)}, {_fmt_reg(i.c)}")
    if i.op == "set":
        return f"set {_fmt_reg(i.a)}, {i.b}"
    if i.op == "copy":
        return f"copy {_fmt_reg(i.a)}, {_fmt_reg(i.b)}, {i.w}"
    if i.op == "load":
        return f"load {_fmt_reg(i.a)}, {i.b}, {i.w}"
    if i.op == "store":
        return f"store {i.a}, {_fmt_reg(i.b)}, {i.c}, {i.w}"
    if i.op == "send":
        return f"send {i.a}, {i.sub}, {i.b}, {i.w}"
    if i.op == "receive":
        return f"receive {i.a}, {i.sub}, {i.b}, {i.w}"
    if i.op == "jmp":
        return f"jmp {i.c}"
    if i.op == "brn":
        return (f"brn {BRN_OP_NAMES[i.sub]}, {_fmt_reg(i.a)}, {_fmt_reg(i.b)}, "
                f"{i.c}")
    raise IsaError(f"cannot disassemble {i.op!r}")


def disassemble(instrs):
    return "\n".join(disassemble_one(i) for i in instrs) + "\n"


def _parse_int(tok, line):
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(f"bad integer literal {tok!r}", line) from None


def _parse_reg(tok, line):
    if not tok.startswith("$"):
        raise AsmError(f"expected register ($n), got {tok!r}", line)
    return _parse_int(tok[1:], line)


def _parse_subop(tok, table, line):
    if tok not in table:
        raise AsmError(f"unknown sub-operation {tok!r}", line)
    return table[tok]


def _expect_arity(parts, n, mnemonic, line):
    if len(parts) != n:
        raise AsmError(
            f"{mnemonic} expects {n} operand(s), got {len(parts)}", line)


def assemble_one(text, line=None):
    text = text.strip()
    head, _, rest = text.partition(" ")
    parts = [p.strip() for p in rest.split(",")] if rest.strip() else []
    m = head.strip()
    if m == "mvm":
        _expect_arity(parts, 3, m, line)
        mask = _parse_int(parts[0], line)
        kw = {}
        for p in parts[1:]:
            key, _, val = p.partition("=")
            if key not in ("filter", "stride") or not val:
                raise AsmError(f"mvm expects filter=/stride=, got {p!r}", line)
            kw[key] = _parse_int(val, line)
        return mvm(mask, kw.get("filter", 0), kw.get("stride", 0))
    if m == "alu":
        _expect_arity(parts, 5, m, line)
        return Instruction("alu", _parse_subop(parts[0], ALU_OPS, line),
                           _parse_reg(parts[1], line), _parse_reg(parts[2], line),
                           _parse_reg(parts[3], line), _parse_int(parts[4], line))
    if m == "alui":
        _expect_arity(parts, 5, m, line)
        return Instruction("alui", _parse_subop(parts[0], ALU_OPS, line),
                           _parse_reg(parts[1], line), _parse_reg(parts[2], line),
                           _parse_int(parts[3], line) & FIELD_MAX,
                           _parse_int(parts[4], line))
    if m == "aluint":
        _expect_arity(parts, 4, m, line)
        return aluint(parts[0] if parts[0] in ALUINT_OPS else
                      _bad_subop(parts[0], line),
                      _parse_reg(parts[1], line), _parse_reg(parts[2], line),
                      _parse_reg(parts[3], line))
    if m == "set":
        _expect_arity(parts, 2, m, line)
        return seti(_parse_reg(parts[0], line), _parse_int(parts[1], line))
    if m == "copy":
        _expect_arity(parts, 3, m, line)
        return copy(_parse_reg(parts[0], line), _parse_reg(parts[1], line),
                    _parse_int(parts[2], line))
    if m == "load":
        _expect_arity(parts, 3, m, line)
        return load(_parse_reg(parts[0], line), _parse_int(parts[1], line),
                    _parse_int(parts[2], line))
    if m == "store":
        _expect_arity(parts, 4, m, line)
        return store(_parse_int(parts[0], line), _parse_reg(parts[1], line),
                     _parse_int(parts[2], line), _parse_int(parts[3], line))
    if m == "send":
        _expect_arity(parts, 4, m, line)
        return send(_parse_int(parts[0], line), _parse_int(parts[1], line),
                    _parse_int(parts[2], line), _parse_int(parts[3], line))
    if m == "receive":
        _expect_arity(parts, 4, m, line)
        return recv(_parse_int(parts[0], line), _parse_int(parts[1], line),
                    _parse_int(parts[2], line), _parse_int(parts[3], line))
    if m == "jmp":
        _expect_arity(parts, 1, m, line)
        return jmp(_parse_int(parts[0], line))
    if m == "brn":
        _expect_arity(parts, 4, m, line)
        return brn(parts[0] if parts[0] in BRN_OPS else _bad_subop(parts[0], line),
                   _parse_reg(parts[1], line), _parse_reg(parts[2], line),
                   _parse_int(parts[3], line))
    raise AsmError(f"unknown mnemonic {m!r}", line)


def _bad_subop(tok, line):
    raise AsmError(f"unknown sub-operation {tok!r}", line)


def assemble(text):
    """UTF-8 assembly text -> instruction list; '#' starts a comment."""
    out = []
    for ln, raw_line in enumerate(text.splitlines(), start=1):
        code = raw_line.split("#", 1)[0].strip()
        if not code:
            continue
        instr = assemble_one(code, line=ln)
        validate(instr)
        out.append(instr)
    return out
