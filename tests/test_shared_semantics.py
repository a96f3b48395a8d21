"""The one vector-ALU op table and the one word codec, as every
interpreter and serialiser sees them."""

import json

import numpy as np
import pytest

from xbarsim import cli, fixedpoint as fp, graph as gr, isa
from xbarsim.compiler import compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run


def test_every_isa_alu_op_has_semantics():
    for name in isa.ALU_OPS:
        assert name in fp.VECTOR_OPS or name in fp.LUT_FUNCTIONS, name
    assert set(fp.VECTOR_OPS) <= set(isa.ALU_OPS)
    assert set(gr.ALU_BINOPS) <= set(fp.VECTOR_OPS)
    for f in gr.ACT_FUNCS:
        assert f in fp.VECTOR_OPS or f in fp.LUT_FUNCTIONS, f


def test_table_counts_each_saturated_element_once():
    a = np.array([30000, -30000, 5, 16384])
    b = np.array([10000, -10000, 7, 2])
    value, saturated = fp.vector_op("add", a, b)
    assert value.tolist() == [32767, -32768, 12, 16386]
    assert saturated == 2
    value, saturated = fp.vector_op("shl", a, [1, 1, 7, 2])
    assert value.tolist() == [32767, -32768, 640, 32767]
    assert saturated == 3
    assert fp.vector_op("min", a, b)[1] == 0


def test_out_of_range_shift_counts_clamp():
    value, saturated = fp.vector_op("shl", [30000, 5, 5], [64, 70, -1])
    assert value.tolist() == [32767] * 3 and saturated == 3
    value, saturated = fp.vector_op("shr", [-30000, 30000, 4], [64, -1, 1])
    assert value.tolist() == [-1, 0, 2] and saturated == 0
    g = gr.ModelGraph()
    a = g.input("a", 3)
    b = g.input("b", 3)
    g.output("y", g.alu("shl", a, b))
    g.freeze()
    inputs = {"a": np.array([30000, 5, 5]), "b": np.array([64, 70, -1])}
    assert gr.evaluate(g, inputs, 8)["y"].tolist() == [32767] * 3
    cfg = MachineConfig(xbar_dim=8, tiles=1)
    prog, _ = compile_model(g, cfg)
    assert "alu shl" in "\n".join(
        isa.disassemble_one(i) for s in prog.segments for i in s.instrs)
    rep = run(Machine(cfg, prog), inputs)
    assert rep.outputs["y"].tolist() == [32767] * 3
    assert rep.saturations == 3


def _div_model():
    g = gr.ModelGraph()
    a = g.input("a", 4)
    b = g.input("b", 4)
    g.output("y", g.alu("div", a, b))
    g.freeze()
    inputs = {"a": np.array([4096, -4096, 30000, 5]),
              "b": np.array([0, 0, 100, 7])}
    return g, inputs


def test_simulator_counts_div_saturations():
    g, inputs = _div_model()
    cfg = MachineConfig(xbar_dim=8, tiles=1)
    prog, _ = compile_model(g, cfg)
    rep = run(Machine(cfg, prog), inputs)
    assert rep.outputs["y"].tolist() == [32767, -32768, 32767, 2926]
    assert rep.outputs["y"].tolist() == gr.evaluate(g, inputs, 8)["y"].tolist()
    assert rep.saturations == 3


def test_cli_run_reports_div_saturation_exit_code(tmp_path):
    g, inputs = _div_model()
    cfg = MachineConfig(xbar_dim=8, tiles=1)
    gr.save_model(g, str(tmp_path / "div.json"))
    cli.write_tensors(str(tmp_path / "in.json"), inputs)
    (tmp_path / "m.cfg").write_text(cfg.to_text())
    binpath = str(tmp_path / "div.bin")
    assert cli.main(["compile", str(tmp_path / "div.json"), "-o", binpath,
                     "--config", str(tmp_path / "m.cfg")]) == cli.EXIT_OK
    assert cli.main(["run", binpath, "--inputs", str(tmp_path / "in.json"),
                     "--config", str(tmp_path / "m.cfg")]) \
        == cli.EXIT_SATURATION


@pytest.mark.parametrize("op", gr.ALU_BINOPS)
def test_alu_imm_every_builder_op_compiles_bit_exact(op):
    rng = np.random.default_rng(5)
    g = gr.ModelGraph()
    x = g.input("x", 12)
    g.output("y", g.alu_imm(op, x, 3))
    g.freeze()
    inputs = {"x": rng.integers(-6000, 6000, size=12)}
    cfg = MachineConfig(xbar_dim=8, tiles=1)
    prog, _ = compile_model(g, cfg)
    rep = run(Machine(cfg, prog), inputs)
    assert rep.outputs["y"].tolist() == gr.evaluate(g, inputs, 8)["y"].tolist()
    ops = {i.op for seg in prog.segments for i in seg.instrs}
    assert ("alui" in ops) == (op in isa.ALUI_OPS)


# ---------------------------------------------------------------------------
# Word codec
# ---------------------------------------------------------------------------

def test_hex_codec_round_trip_and_format():
    raw = np.array([0, 1, -1, 32767, -32768, 0x1234, -2])
    text = fp.to_hex(raw)
    assert text == "".join(f"{int(v) & 0xFFFF:04x}" for v in raw)
    assert fp.from_hex(text).tolist() == raw.tolist()
    assert fp.from_hex("").tolist() == []


@pytest.mark.parametrize("text", ["00ab12", "0", "zzzz", "00 0", "0001 002"])
def test_hex_codec_rejects_partial_or_foreign_words(text):
    with pytest.raises(ValueError):
        fp.from_hex(text)


def _one_matrix_doc():
    g = gr.ModelGraph()
    x = g.input("x", 2)
    g.output("y", g.mvm(g.const_matrix(np.eye(2)), x))
    g.freeze()
    return json.loads(gr.to_json(g))


@pytest.mark.parametrize("data", [
    "10000000000010",          # 3 words and a 2-digit tail
    "10000000",                # 2 words for a 2 x 2 matrix
    "10000000000010000000",    # 5 words
    "1000xx0000001000",        # not hex
])
def test_from_json_rejects_malformed_constant_data(data):
    doc = _one_matrix_doc()
    node = next(n for n in doc["nodes"] if n["kind"] == "const_matrix")
    node["data"] = data
    with pytest.raises(gr.GraphError):
        gr.from_json(json.dumps(doc))
