"""Instruction set: the opcode table, 7-byte binary codec, and assembly text.

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

`ISA` holds one row per opcode: its number, its subop name table (None
where the subop is a plain number: the MVMU mask, the FIFO id) and its
operands in assembly order as (name, slot, role). The slot is the
Instruction field that holds the operand (sub, a, b, c or w), or None for
a reserved operand that has no field. Validation, the subop check of
decoding, assembly, disassembly and register def/use (`registers`) are
all derived from the table. The roles:

    op      the subop, written by its name from the row's table
    vdst    register range of max(1, w) words, written
    vsrc    register range of max(1, w) words, read
    bsrc    like vsrc, but read only by binary subops
    dst     one register, written
    src     one register, read
    mask    MVMU bit mask, at least one bit set, written 0b...
    key     number written as name=value, in the row's order
    imm     12-bit immediate; negative text wraps to 12 bits, and
            `alui_immediate` says how each subop reads it
    addr    tile-memory address of the first of max(1, w) words
    fifo    FIFO id; an opcode with one runs on the tile unit, not a core
    tile    target tile
    num     plain number

Each row also gives its constructor, `isa.<op>` (`seti` for set, `recv` for
receive; also `ISA[op].make`). It takes the operands that have a slot, in
assembly order or as keywords by their names; a subop by its name, an
immediate wrapped to 12 bits. key and bsrc operands default to 0 and
vec_width to 1. Assembly and the compiler build every instruction through
it.
"""

from dataclasses import dataclass

INSTR_BYTES = 7

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

BRN_OPS = {"eq": 0, "ne": 1, "gt": 2, "ge": 3, "lt": 4, "le": 5}

FIELD_MAX = (1 << 12) - 1
WIDTH_MAX = (1 << 8) - 1
SUBOP_MAX = (1 << 5) - 1

# Register roles -> (max(1, w) words wide, written)
_REGISTER_ROLES = {"vdst": (True, True), "vsrc": (True, False),
                   "bsrc": (True, False), "dst": (False, True),
                   "src": (False, False)}


class OpSpec:
    """One row of the ISA table (see the module docstring)."""

    def __init__(self, code, subops, operands):
        self.code = code
        self.subops = subops
        self.subop_names = subops and {v: k for k, v in subops.items()}
        self.operands = operands
        self.fields = tuple(o for o in operands if o[1])
        self.sub_name, self.sub_role = next(
            ((n, role) for n, slot, role in operands if slot == "sub"),
            (None, None))
        # operands naming a part of the machine; the tile-memory address
        # slot, if any; whether the tile unit runs the opcode (fifo role)
        self.places = tuple(o for o in operands
                            if o[2] in ("mask", "fifo", "tile", "addr"))
        self.addr = next((s for _, s, r in operands if r == "addr"), None)
        self.on_tile = any(role == "fifo" for *_, role in operands)
        # (slot, vector wide, written, read only by binary subops)
        self.registers = tuple(
            (slot, *_REGISTER_ROLES[role], role == "bsrc")
            for _, slot, role in operands if role in _REGISTER_ROLES)


ISA = {
    "mvm": OpSpec(1, None, (("mask", "sub", "mask"), ("filter", "a", "key"),
                            ("stride", "b", "key"))),
    # src3 is reserved: no implemented vector op takes three sources
    "alu": OpSpec(2, ALU_OPS, (
        ("aluop", "sub", "op"), ("dest", "a", "vdst"), ("src1", "b", "vsrc"),
        ("src2", "c", "bsrc"), ("src3", None, None),
        ("vec_width", "w", "num"))),
    "alui": OpSpec(3, {k: v for k, v in ALU_OPS.items() if k in ALUI_OPS}, (
        ("aluop", "sub", "op"), ("dest", "a", "vdst"), ("src1", "b", "vsrc"),
        ("immediate", "c", "imm"), ("vec_width", "w", "num"))),
    "aluint": OpSpec(4, ALUINT_OPS, (
        ("aluop", "sub", "op"), ("dest", "a", "dst"), ("src1", "b", "src"),
        ("src2", "c", "src"))),
    "set": OpSpec(5, None, (("dest", "a", "dst"), ("immediate", "b", "num"))),
    "copy": OpSpec(6, None, (("dest", "a", "vdst"), ("src1", "b", "vsrc"),
                             ("vec_width", "w", "num"))),
    "load": OpSpec(7, None, (("dest", "a", "vdst"), ("immediate", "b", "addr"),
                             ("vec_width", "w", "num"))),
    "store": OpSpec(8, None, (
        ("dest", "a", "addr"), ("src1", "b", "vsrc"), ("count", "c", "num"),
        ("vec_width", "w", "num"))),
    "send": OpSpec(9, None, (
        ("memaddr", "a", "addr"), ("fifo_id", "sub", "fifo"),
        ("target", "b", "tile"), ("vec_width", "w", "num"))),
    "receive": OpSpec(10, None, (
        ("memaddr", "a", "addr"), ("fifo_id", "sub", "fifo"),
        ("count", "b", "num"), ("vec_width", "w", "num"))),
    "jmp": OpSpec(11, None, (("pc", "c", "num"),)),
    "brn": OpSpec(12, BRN_OPS, (("brnop", "sub", "op"), ("src1", "a", "src"),
                                ("src2", "b", "src"), ("pc", "c", "num"))),
}
OPCODES = {op: spec.code for op, spec in ISA.items()}
OPCODE_NAMES = {v: k for k, v in OPCODES.items()}
OPERAND_NAMES = {op: tuple(o[0] for o in spec.operands)
                 for op, spec in ISA.items()}


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
    """One instruction; a/b/c are the three 12-bit operand fields. The
    compiler's instructions hold a regalloc.VReg or regalloc.Mem there
    until registers and tile memory are assigned."""
    op: str
    sub: int = 0
    a: int = 0
    b: int = 0
    c: int = 0
    w: int = 0


def _constructor(op, name):
    """The constructor of row op (see the module docstring). Its source is
    generated from the row, as `dataclasses` generates `__init__`, so that
    a call costs what a hand-written constructor's call does."""
    spec = ISA[op]
    # each Instruction field's expression, in field order
    params, fields = [], dict.fromkeys(("sub", "a", "b", "c", "w"), "0")
    for n, slot, role in spec.fields:
        params.append(n + ("=1" if n == "vec_width" else
                           "=0" if role in ("key", "bsrc") else ""))
        fields[slot] = (f"(subops[{n}] if {n} in subops else bad({n}))"
                        if role == "op" else
                        f"{n} & {FIELD_MAX}" if role == "imm" else n)

    def bad(v):
        raise IsaError(f"{op} does not support {v!r}")

    scope = {"Instruction": Instruction, "subops": spec.subops, "bad": bad,
             "__name__": __name__}
    exec(f"def {name}({', '.join(params)}):\n"
         f"    return Instruction({op!r}, {', '.join(fields.values())})",
         scope)
    spec.make = make = scope[name]
    make.__doc__ = f"The {op} Instruction of operands ({', '.join(params)})."
    return make


(mvm, alu, alui, aluint, seti, copy, load, store, send, recv, jmp,
 brn) = (_constructor(op, {"set": "seti", "receive": "recv"}.get(op, op))
         for op in ISA)


def alui_immediate(op, field):
    """The value alui subop `op` reads from its 12-bit immediate field: add
    and sub read it as signed, the other subops as unsigned. A value v is
    encodable as that immediate iff alui_immediate(op, v & FIELD_MAX) == v."""
    return field - 4096 if op in ("add", "sub") and field & 0x800 else field


def registers(i):
    """The register operands of an Instruction, in assembly order, as
    (operand, words, written); before register allocation an operand may be
    a regalloc.VReg. A range spans max(1, w) words, a single register 1.
    mvm's fixed XbarIn/XbarOut traffic is not listed."""
    wide = i.w if i.w > 1 else 1      # max(1, w); this runs per instruction
    out = []
    for slot, vector, written, binary in ISA[i.op].registers:
        if not (binary and ALU_OP_NAMES[i.sub] in ALU_UNARY):
            out.append((getattr(i, slot), wide if vector else 1, written))
    return out


def fired_mvmus(i, mvmus):
    """The MVMUs that mvm i activates: the set bits of its mask."""
    return [u for u in range(mvmus) if i.sub >> u & 1]


def validate(i):
    """Raise IsaError unless every field is in range for its slot."""
    if i.op not in ISA:
        raise IsaError(f"unknown mnemonic {i.op!r}")
    if not (0 <= i.sub <= SUBOP_MAX and 0 <= i.a <= FIELD_MAX
            and 0 <= i.b <= FIELD_MAX and 0 <= i.c <= FIELD_MAX
            and 0 <= i.w <= WIDTH_MAX):   # this runs per instruction
        for name, v, hi in (("subop", i.sub, SUBOP_MAX), ("a", i.a, FIELD_MAX),
                            ("b", i.b, FIELD_MAX), ("c", i.c, FIELD_MAX),
                            ("vec_width", i.w, WIDTH_MAX)):
            if not 0 <= v <= hi:
                raise IsaError(f"{i.op}: operand {name}={v} out of range [0, {hi}]")
    _check_subop(i, IsaError)


def _check_subop(i, error):
    """The row's subop rule: a named subop is in its table, a mask is not 0."""
    spec = ISA[i.op]
    if spec.sub_role == "op" and i.sub not in spec.subop_names:
        raise error(f"{i.op}: bad {spec.sub_name} {i.sub}")
    if spec.sub_role == "mask" and i.sub == 0:
        raise error(f"{i.op}: {spec.sub_name} must activate at least one MVMU")


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
    i = Instruction(
        OPCODE_NAMES[opc],
        (val >> 5) & 0x1F,
        (val >> 10) & 0xFFF,
        (val >> 22) & 0xFFF,
        (val >> 34) & 0xFFF,
        (val >> 46) & 0xFF,
    )
    _check_subop(i, DecodeError)
    return i


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

def disassemble_one(i):
    spec = ISA.get(i.op)
    if spec is None:
        raise IsaError(f"cannot disassemble {i.op!r}")
    parts = []
    for name, slot, role in spec.fields:
        v = getattr(i, slot)
        if role == "op":
            parts.append(spec.subop_names[v])
        elif role == "mask":
            parts.append(f"0b{v:b}")
        elif role == "key":
            parts.append(f"{name}={v}")
        elif role in _REGISTER_ROLES:
            parts.append(f"${v}")
        else:
            parts.append(str(v))
    return f"{i.op} {', '.join(parts)}"


def disassemble(instrs):
    return "\n".join(disassemble_one(i) for i in instrs) + "\n"


def _parse_int(tok, line):
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(f"bad integer literal {tok!r}", line) from None


def assemble_one(text, line=None):
    head, _, rest = text.strip().partition(" ")
    parts = [p.strip() for p in rest.split(",")] if rest.strip() else []
    m = head.strip()
    spec = ISA.get(m)
    if spec is None:
        raise AsmError(f"unknown mnemonic {m!r}", line)
    if len(parts) != len(spec.fields):
        raise AsmError(f"{m} expects {len(spec.fields)} operand(s), got "
                       f"{len(parts)}", line)
    args = []     # a subop stays its name; the constructor looks it up
    for (name, _, role), tok in zip(spec.fields, parts):
        if role == "key":
            key, _, val = tok.partition("=")
            if key != name or not val:
                raise AsmError(f"{m} expects {name}= here, got {tok!r}", line)
            tok = val
        elif role in _REGISTER_ROLES:
            if not tok.startswith("$"):
                raise AsmError(f"expected register ($n), got {tok!r}", line)
            tok = tok[1:]
        args.append(tok if role == "op" else _parse_int(tok, line))
    try:
        instr = spec.make(*args)
        validate(instr)
    except IsaError as e:
        raise AsmError(str(e), line) from None
    return instr


def assemble(text):
    """UTF-8 assembly text -> instruction list; '#' starts a comment."""
    out = []
    for ln, raw_line in enumerate(text.splitlines(), start=1):
        code = raw_line.split("#", 1)[0].strip()
        if not code:
            continue
        out.append(assemble_one(code, line=ln))
    return out
