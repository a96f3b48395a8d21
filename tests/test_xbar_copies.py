"""Values land in XbarIn and are read from XbarOut: lowering drops the
staging copy around an MVM wherever the MVMU's fixed registers can hold
the value itself, and keeps it where they cannot. Every case runs
bit-exact against `graph.evaluate`."""

import numpy as np

from xbarsim import graph as gr, isa, models
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run

ONE_CORE = MachineConfig(xbar_dim=8, tiles=1, cores_per_tile=1)
# one MVMU, so that shared weights get no copy and one MVMU fires twice
ONE_MVMU = MachineConfig(xbar_dim=8, tiles=1, cores_per_tile=1,
                         mvmus_per_core=1)


def _program(g, inputs, cfg, opts=None):
    """The one core's instructions, after checking the run bit-exact."""
    prog, _ = compile_model(g, cfg, opts)
    rep = run(Machine(cfg, prog), inputs)
    want = gr.evaluate(g, inputs, xbar_dim=cfg.xbar_dim)
    assert {k: v.tolist() for k, v in rep.outputs.items()} == \
        {k: v.tolist() for k, v in want.items()}
    (seg,) = prog.segments
    return [isa.disassemble_one(i) for i in seg.instrs]


def test_mvm_pair_loads_into_xbar_in_and_stores_from_xbar_out():
    g, inputs = models.build_example("mvm_pair")
    assert _program(g, inputs, models.default_config_for("mvm_pair")) == [
        "load $0, 0, 128", "load $128, 128, 128",
        "mvm 0b11, filter=0, stride=0",
        "store 256, $256, 1, 128", "store 384, $384, 1, 128"]


def _shared_weights():
    """y = W x1 + W x2 on one weight matrix, so both mvms fire MVMU 0."""
    rng = np.random.default_rng(3)
    g = gr.ModelGraph()
    w = g.const_matrix(rng.uniform(-0.5, 0.5, (8, 8)))
    y1, y2 = g.mvm(w, g.input("x1", 8)), g.mvm(w, g.input("x2", 8))
    g.output("y", g.alu("add", y1, y2))
    g.freeze()
    return g, {k: rng.integers(-4096, 4096, 8) for k in ("x1", "x2")}


def test_an_output_read_after_its_mvmu_fires_again_keeps_its_copy_out():
    # y1 is read by the add after the second mvm has overwritten XbarOut
    assert _program(*_shared_weights(), ONE_MVMU) == [
        "load $0, 0, 8", "mvm 0b1, filter=0, stride=0", "copy $16, $8, 8",
        "load $0, 8, 8", "mvm 0b1, filter=0, stride=0",
        "alu add, $24, $16, $8, 8", "store 16, $24, 1, 8"]


def test_a_value_loaded_before_its_mvmu_fires_for_another_keeps_its_copy_in():
    # breadth-first order loads x2 before the first mvm reads x1 from XbarIn
    code = _program(*_shared_weights(), ONE_MVMU,
                    CompileOptions(naive_order=True))
    assert code[:3] == ["load $0, 0, 8", "load $16, 8, 8",
                        "mvm 0b1, filter=0, stride=0"]
    assert code[4:6] == ["copy $0, $16, 8", "mvm 0b1, filter=0, stride=0"]


def test_a_loaded_value_with_a_second_reader_keeps_its_copy_in():
    rng = np.random.default_rng(4)
    g = gr.ModelGraph()
    x = g.input("x", 8)
    g.output("y", g.mvm(g.const_matrix(rng.uniform(-0.5, 0.5, (8, 8))), x))
    g.output("z", g.alu_imm("mul", x, 0.5))
    g.freeze()
    code = _program(g, {"x": rng.integers(-4096, 4096, 8)}, ONE_CORE)
    assert code[:3] == ["load $32, 0, 8", "copy $0, $32, 8",
                        "mvm 0b1, filter=0, stride=0"]
    assert "alui mul, $40, $32, 2048, 8" in code
