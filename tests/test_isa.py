import random
import struct

import numpy as np
import pytest

from xbarsim import container, isa


def random_well_formed(rng):
    """One random instruction with every used field inside its range."""
    op = rng.choice(list(isa.OPCODES))
    f = lambda: rng.randrange(0, isa.FIELD_MAX + 1)
    w = lambda: rng.randrange(0, isa.WIDTH_MAX + 1)
    if op == "mvm":
        return isa.mvm(rng.randrange(1, 32), f(), f())
    if op == "alu":
        return isa.Instruction("alu", rng.choice(list(isa.ALU_OPS.values())),
                               f(), f(), f(), w())
    if op == "alui":
        sub = isa.ALU_OPS[rng.choice(sorted(isa.ALUI_OPS))]
        return isa.Instruction("alui", sub, f(), f(), f(), w())
    if op == "aluint":
        return isa.aluint(rng.choice(list(isa.ALUINT_OPS)), f(), f(), f())
    if op == "set":
        return isa.seti(f(), f())
    if op == "copy":
        return isa.copy(f(), f(), w())
    if op == "load":
        return isa.load(f(), f(), w())
    if op == "store":
        return isa.store(f(), f(), f(), w())
    if op == "send":
        return isa.send(f(), rng.randrange(32), f(), w())
    if op == "receive":
        return isa.recv(f(), rng.randrange(32), f(), w())
    if op == "jmp":
        return isa.jmp(f())
    return isa.brn(rng.choice(list(isa.BRN_OPS)), f(), f(), f())


def test_codec_round_trip_100k_random_instructions():
    rng = random.Random(1234)
    for _ in range(100_000):
        i = random_well_formed(rng)
        bs = isa.encode(i)
        assert len(bs) == 7
        assert isa.decode(bs) == i


def test_every_mnemonic_has_one_opcode_and_listed_operands():
    assert len(isa.OPCODES) == 12
    assert sorted(isa.OPCODES.values()) == list(range(1, 13))
    for mnem in isa.OPCODES:
        assert mnem in isa.OPERAND_NAMES
    # table rows carry the documented operand names
    assert isa.OPERAND_NAMES["mvm"] == ("mask", "filter", "stride")
    assert isa.OPERAND_NAMES["brn"] == ("brnop", "src1", "src2", "pc")
    assert "src3" in isa.OPERAND_NAMES["alu"]
    assert "count" in isa.OPERAND_NAMES["store"]
    assert "fifo_id" in isa.OPERAND_NAMES["send"]


def test_jmp_zero_encodes_all_operand_fields_zero():
    bs = isa.encode(isa.jmp(0))
    val = int.from_bytes(bs, "little")
    assert val & 0x1F == isa.OPCODES["jmp"]
    assert val >> 5 == 0


def test_copy_round_trips():
    i = isa.copy(512, 0, 128)
    assert isa.decode(isa.encode(i)) == i


def test_mvm_mask_bits_select_mvmus():
    i = isa.decode(isa.encode(isa.mvm(0b11)))
    assert i.sub == 0b11
    active = [m for m in range(5) if i.sub >> m & 1]
    assert active == [0, 1]


def test_all_zero_bytes_is_a_decode_error():
    with pytest.raises(isa.DecodeError):
        isa.decode(b"\x00" * 7)


def test_truncated_input_is_a_length_error():
    with pytest.raises(isa.DecodeError, match="expected 7 bytes"):
        isa.decode(b"\x00" * 5)


def test_reserved_bits_and_a_partial_instruction_are_decode_errors():
    val = int.from_bytes(isa.encode(isa.jmp(0)), "little") | 1 << 54
    with pytest.raises(isa.DecodeError, match="^reserved bits set$"):
        isa.decode(val.to_bytes(isa.INSTR_BYTES, "little"))
    with pytest.raises(isa.DecodeError,
                       match="^program length 8 not a multiple of 7$"):
        isa.decode_program(isa.encode(isa.jmp(0)) + b"\0")


def test_unknown_opcode_names_byte_offset():
    bad = (31).to_bytes(7, "little")  # opcode 31 unused
    with pytest.raises(isa.DecodeError, match="byte offset 0"):
        isa.decode(bad)


def test_operand_out_of_range_rejected():
    with pytest.raises(isa.IsaError, match="out of range"):
        isa.encode(isa.Instruction("set", 0, 5000, 0, 0, 0))
    with pytest.raises(isa.IsaError, match="mask"):
        isa.encode(isa.Instruction("mvm", 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# Assembly format
# ---------------------------------------------------------------------------

def test_assemble_mvm_mask_example():
    (i,) = isa.assemble("mvm 0b01, filter=0, stride=0\n")
    assert i == isa.mvm(1, 0, 0)


def test_assemble_brn_register_compare():
    (i,) = isa.assemble("brn eq, $5, $6, 12\n")
    assert i == isa.brn("eq", 5, 6, 12)


def test_assemble_handles_comments_and_blanks():
    text = "# program header\n\nset $520, 3   # constant\njmp 0\n"
    prog = isa.assemble(text)
    assert prog == [isa.seti(520, 3), isa.jmp(0)]


def test_disassemble_assemble_identity_random():
    rng = random.Random(99)
    prog = [random_well_formed(rng) for _ in range(500)]
    text = isa.disassemble(prog)
    assert isa.assemble(text) == prog
    # and the byte stream is identical
    assert isa.encode_program(isa.assemble(text)) == isa.encode_program(prog)


def test_assemble_errors_carry_line_numbers():
    with pytest.raises(isa.AsmError, match="line 2.*mnemonic"):
        isa.assemble("jmp 0\nfrobnicate $1, $2\n")
    with pytest.raises(isa.AsmError, match="line 1.*expects"):
        isa.assemble("copy $1\n")
    with pytest.raises(isa.AsmError, match="integer"):
        isa.assemble("jmp zork\n")
    with pytest.raises(isa.AsmError, match="register"):
        isa.assemble("copy 1, $2, 4\n")


@pytest.mark.parametrize("line, message", [
    ("set $5000, 1", "set: operand a=5000 out of range [0, 4095]"),
    ("alu add, $1, $2, $3, 300",
     "alu: operand vec_width=300 out of range [0, 255]"),
    ("mvm 0, filter=0, stride=0",
     "mvm: mask must activate at least one MVMU"),
])
def test_assemble_field_errors_carry_line_numbers(line, message):
    with pytest.raises(isa.AsmError) as e:
        isa.assemble("jmp 0\n" + line)
    assert str(e.value) == "line 2: " + message
    assert e.value.line == 2 and isinstance(e.value, isa.IsaError)


def test_register_space_partition():
    rs = isa.RegisterSpace(128, 2)
    assert rs.general_regs == 512          # 2 * dim * mvmus
    assert rs.total == 1024                # 1KB of 16-bit registers
    assert rs.class_of(0) == "xbar_in"
    assert rs.class_of(255) == "xbar_in"
    assert rs.class_of(256) == "xbar_out"
    assert rs.class_of(511) == "xbar_out"
    assert rs.class_of(512) == "general"
    assert rs.class_of(1023) == "general"
    with pytest.raises(isa.IsaError):
        rs.class_of(1024)


def test_register_space_exhaustive_partition_random_geometry():
    rng = random.Random(5)
    for _ in range(50):
        d = rng.choice([16, 32, 64, 128])
        m = rng.choice([1, 2, 4])
        rs = isa.RegisterSpace(d, m)
        counts = {"xbar_in": 0, "xbar_out": 0, "general": 0}
        for addr in range(rs.total):
            counts[rs.class_of(addr)] += 1
        assert counts == {"xbar_in": d * m, "xbar_out": d * m,
                          "general": 2 * d * m}


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------

def _tiny_program():
    prog = container.Program(128, 2, 8, 2, 12)
    prog.segments.append(container.Segment(0, 0, [isa.seti(512, 1), isa.jmp(2)]))
    prog.segments.append(container.Segment(0, container.TILE_UNIT,
                                           [isa.send(10, 0, 1, 4)]))
    prog.weights.append(container.WeightBlock(0, 0, 0, [[1, -2], [3, 4]]))
    prog.patterns.append(container.ShufflePattern(0, 0, 0, 1, [1, 0, 2, 3]))
    prog.data.append(container.DataBlock(0, 100, 2, [7, -8, 9]))
    prog.io.append(container.IoBinding("in", "x", 0, 0, 4, 1))
    prog.io.append(container.IoBinding("out", "y", 1, 50, 4, 1))
    prog.regions.append(container.Region(0, 100, 103))
    return prog


def test_container_round_trip():
    prog = _tiny_program()
    blob = container.save(prog)
    assert blob[:4] == b"PUMA"
    back = container.loads(blob)
    assert back.xbar_dim == 128 and back.tiles == 2
    assert back.segments[0].instrs == prog.segments[0].instrs
    assert back.segments[1].core == container.TILE_UNIT
    w = back.weights[0].w_raw
    assert isinstance(w, np.ndarray) and w.dtype == np.int16 and w.ndim == 2
    assert np.array_equal(w, [[1, -2], [3, 4]])
    assert back.patterns[0].perm == [1, 0, 2, 3]
    assert back.data[0].words == [7, -8, 9]
    assert [b.name for b in back.io] == ["x", "y"]
    assert back.regions == [container.Region(0, 100, 103)]


def test_loaded_weights_are_read_only_views_of_the_blob():
    prog = _tiny_program()
    prog.weights.append(container.WeightBlock(1, 2, 1, np.arange(
        -6, 6, dtype=np.int16).reshape(3, 4)))
    blob = container.save(prog)
    back = container.loads(blob)
    for wb in back.weights:
        assert np.shares_memory(wb.w_raw, np.frombuffer(blob, np.uint8))
        assert not wb.w_raw.flags.writeable
    assert container.save(back) == blob
    mutable = bytearray(blob)
    copied = container.loads(mutable)
    for wb in copied.weights:
        assert not np.shares_memory(wb.w_raw, np.frombuffer(mutable, np.uint8))
    assert container.save(copied) == blob


def test_container_rejects_bad_magic_and_truncation():
    blob = container.save(_tiny_program())
    with pytest.raises(container.ContainerError, match="magic"):
        container.loads(b"XXXX" + blob[4:])
    with pytest.raises(container.ContainerError, match="truncated"):
        container.loads(blob[:-3])


def test_container_rejects_another_version_and_trailing_bytes():
    blob = container.save(_tiny_program())
    with pytest.raises(container.ContainerError,
                       match="^unsupported container version 1$"):
        container.loads(blob[:4] + bytes([1]) + blob[5:])
    with pytest.raises(container.ContainerError,
                       match="^trailing bytes after container$"):
        container.loads(blob + b"\0")


# what the previous format (version 2) wrote for an empty 4-wide program:
# the header, then a zero count for each of its seven sections
V2_BLOB = b"PUMA" + struct.pack("<BHBBHB", 2, 4, 1, 1, 1, 12) + bytes(14)


def test_container_refuses_the_previous_version():
    with pytest.raises(container.ContainerError,
                       match="^unsupported container version 2$"):
        container.loads(V2_BLOB)


def test_save_file_writes_the_bytes_save_returns(tmp_path):
    prog = _tiny_program()
    path = tmp_path / "prog.bin"
    container.save_file(prog, str(path))
    assert path.read_bytes() == container.save(prog)
    assert [p.name for p in tmp_path.iterdir()] == ["prog.bin"]


def test_save_file_leaves_no_file_when_a_record_does_not_fit(tmp_path):
    prog = _tiny_program()
    prog.data.append(container.DataBlock(0, 0, 1, [40000]))
    with pytest.raises(container.ContainerError,
                       match=r"DataBlock\(tile=0, addr=0, count=1\).*"
                             r"does not fit its field"):
        container.save_file(prog, str(tmp_path / "prog.bin"))
    assert list(tmp_path.iterdir()) == []


def test_container_rejects_weight_outside_int16_naming_the_mvmu():
    prog = _tiny_program()
    prog.weights.append(container.WeightBlock(1, 3, 1, [[0, 40000]]))
    with pytest.raises(container.ContainerError,
                       match="tile 1 core 3 mvmu 1: .*int16"):
        container.save(prog)


def test_container_rejects_non_integer_weight_naming_the_mvmu():
    prog = _tiny_program()
    prog.weights.append(container.WeightBlock(0, 0, 0, [[0.7, -1.9]]))
    with pytest.raises(container.ContainerError,
                       match="tile 0 core 0 mvmu 0: .*integers"):
        container.save(prog)
    # integral values of any dtype still save exactly
    prog.weights[-1] = container.WeightBlock(0, 0, 0, [[3.0, -2.0]])
    back = container.loads(container.save(prog))
    assert back.weights[-1].w_raw.tolist() == [[3, -2]]


@pytest.mark.parametrize("section, record, match", [
    pytest.param("data", container.DataBlock(0, 0, 1, [40000]),
                 r"DataBlock\(tile=0, addr=0, count=1\)", id="data-word"),
    pytest.param("data", container.DataBlock(0, 70000, 1, [1]),
                 r"DataBlock\(tile=0, addr=70000, ", id="data-addr"),
    pytest.param("data", container.DataBlock(0, 0, 1 << 16, [1]),
                 r"count=65536\)", id="data-count"),
    pytest.param("patterns", container.ShufflePattern(0, 0, 0, 1,
                                                      [0, 1 << 16]),
                 r"ShufflePattern\(tile=0, core=0, mvmu=0, filt=1\)",
                 id="perm-entry"),
    pytest.param("io", container.IoBinding("in", "x" * (1 << 16), 0, 0, 4, 1),
                 r"IoBinding\(kind='in', name='xxx", id="io-name"),
    pytest.param("io", container.IoBinding("out", "y", 0, -1, 4, 1),
                 r"name='y', tile=0, addr=-1", id="io-addr"),
    pytest.param("io", container.IoBinding("inout", "y", 0, 0, 4, 1),
                 r"IoBinding\(kind='inout', ", id="io-kind"),
    pytest.param("regions", container.Region(0, 0, 1 << 16),
                 r"Region\(tile=0, lo=0, hi=65536\)", id="region-end"),
    pytest.param("segments", container.Segment(1 << 16, 0, []),
                 r"Segment\(tile=65536, core=0\)", id="segment-tile"),
])
def test_container_names_the_record_whose_value_does_not_fit(section, record,
                                                              match):
    prog = _tiny_program()
    getattr(prog, section).append(record)
    with pytest.raises(container.ContainerError,
                       match=match + r".*does not fit its field"):
        container.save(prog)


def test_container_names_the_header_that_does_not_fit():
    prog = _tiny_program()
    prog.mvmus_per_core = 256
    with pytest.raises(container.ContainerError,
                       match=r"Program\(xbar_dim=128, mvmus_per_core=256, "):
        container.save(prog)


def test_container_static_histogram_sums_to_length():
    prog = _tiny_program()
    hist = prog.static_histogram()
    assert sum(hist.values()) == prog.total_instructions() == 3
    assert hist == {"set": 1, "jmp": 1, "send": 1}


@pytest.mark.parametrize("record, at, byte", [
    (b"\x01\x01\x00y", 0, 5),                    # io binding "y": kind "out"
], ids=["io"])
def test_container_rejects_an_unknown_kind_byte_naming_it(record, at, byte):
    blob = container.save(_tiny_program())
    at += blob.index(record)
    bad = blob[:at] + bytes([byte]) + blob[at + 1:]
    with pytest.raises(container.ContainerError, match=rf"kind byte {byte}\b"):
        container.loads(bad)
