"""The instruction set: 7-byte encoding, assembly text, register classes."""

from xbarsim import isa

print("== the twelve instructions ==")
for mnem, names in isa.OPERAND_NAMES.items():
    print(f"  {mnem:8s} operands: {', '.join(names)}")

print("\n== encode / decode ==")
prog = [
    isa.mvm(0b11, filter=0, stride=0),
    isa.alu("add", 520, 512, 516, 128),
    isa.alu("sigmoid", 524, 520, 0, 128),
    isa.copy(0, 520, 128),
    isa.load(512, 64, 16),
    isa.store(80, 524, 2, 16),
    isa.send(80, 3, 1, 16),
    isa.recv(40, 3, 2, 16),
    isa.seti(600, 1),
    isa.aluint("add", 601, 601, 600),
    isa.brn("ne", 601, 602, 4),
    isa.jmp(0),
]
blob = isa.encode_program(prog)
print(f"  {len(prog)} instructions -> {len(blob)} bytes "
      f"({len(blob) // len(prog)} bytes each)")
assert isa.decode_program(blob) == prog

print("\n== assembly text ==")
text = isa.disassemble(prog)
print("\n".join("  " + line for line in text.splitlines()))
assert isa.assemble(text) == prog

print("\n== register space (128x128 crossbars, 2 MVMUs) ==")
rs = isa.RegisterSpace(128, 2)
print(f"  XbarIn   [{rs.xbar_in_base}, {rs.xbar_out_base})")
print(f"  XbarOut  [{rs.xbar_out_base}, {rs.general_base})")
print(f"  general  [{rs.general_base}, {rs.total})  "
      f"({rs.general_regs} registers = 2 * dim * mvmus)")
