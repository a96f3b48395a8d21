import csv
import json
import os
import pathlib

import numpy as np
import pytest

from xbarsim import cli, container, fixedpoint as fp, graph as gr, isa, models
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run

from test_isa import V2_BLOB


def _emit_example(tmp_path, name):
    assert cli.main(["example", name, "-o", str(tmp_path)]) == 0
    model = tmp_path / f"{name}.json"
    inputs = tmp_path / f"{name}_inputs.json"
    cfgf = tmp_path / f"{name}_machine.cfg"
    assert model.exists() and inputs.exists() and cfgf.exists()
    return str(model), str(inputs), str(cfgf)


def test_compile_run_round_trip(tmp_path):
    model, inputs, cfgf = _emit_example(tmp_path, "mlp4")
    binpath = str(tmp_path / "prog.bin")
    assert cli.main(["compile", model, "-o", binpath, "--config", cfgf,
                     "--report", str(tmp_path / "compile.txt")]) == 0
    outdir = str(tmp_path / "out")
    assert cli.main(["run", binpath, "--inputs", inputs, "--config", cfgf,
                     "--out", outdir]) == 0
    with open(os.path.join(outdir, "report.json")) as fh:
        doc = json.load(fh)
    assert doc["halted"] is True
    assert doc["outputs"]["y"]
    # outputs match a direct library-level run, bit for bit
    g = gr.load_model(model)
    cfg = models.default_config_for("mlp4")
    want = gr.evaluate(g, cli.read_tensors(inputs), cfg.xbar_dim)
    assert doc["outputs"]["y"] == want["y"].tolist()


def test_run_seed_flag_sets_the_write_noise_seed(tmp_path):
    model, inputs, cfgf = _emit_example(tmp_path, "mlp4")
    noisy = tmp_path / "noisy.cfg"
    noisy.write_text(pathlib.Path(cfgf).read_text() + "noise_sigma=0.1\n")
    binpath = str(tmp_path / "prog.bin")
    assert cli.main(["compile", model, "-o", binpath, "--config", cfgf]) == 0
    prog, xs = container.load_file(binpath), cli.read_tensors(inputs)

    def outputs(seed):
        cfg = MachineConfig(tiles=1, noise_sigma=0.1, seed=seed)
        return run(Machine(cfg, prog), xs).outputs["y"].tolist()

    outdir = str(tmp_path / "out")
    assert cli.main(["run", binpath, "--inputs", inputs, "--config",
                     str(noisy), "--seed", "7", "--out", outdir]) == 0
    got = cli.read_tensors(os.path.join(outdir, "outputs.json"))["y"]
    assert got.tolist() == outputs(7) != outputs(0)


def test_compile_is_deterministic(tmp_path):
    model, _, cfgf = _emit_example(tmp_path, "mlp128")
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    assert cli.main(["compile", model, "-o", p1, "--config", cfgf]) == 0
    assert cli.main(["compile", model, "-o", p2, "--config", cfgf]) == 0
    assert pathlib.Path(p1).read_bytes() == pathlib.Path(p2).read_bytes()


def test_compiled_core_program_disassembles_and_reassembles(tmp_path):
    """Golden-style round trip: disassemble a compiled core program and
    assemble it back to the identical byte stream."""
    model, _, cfgf = _emit_example(tmp_path, "mlp128")
    binpath = str(tmp_path / "prog.bin")
    assert cli.main(["compile", model, "-o", binpath, "--config", cfgf]) == 0
    prog = container.load_file(binpath)
    for seg in prog.segments:
        text = isa.disassemble(seg.instrs)
        back = isa.assemble(text)
        assert isa.encode_program(back) == isa.encode_program(seg.instrs)


def test_no_coalesce_flag_zeroes_group_count(tmp_path, capsys):
    model, inputs, cfgf = _emit_example(tmp_path, "mvm_pair")
    binpath = str(tmp_path / "prog.bin")
    capsys.readouterr()
    assert cli.main(["compile", model, "-o", binpath, "--config", cfgf,
                     "--no-coalesce"]) == 0
    assert "  coalesce groups: 0\n" in capsys.readouterr().out


def test_run_refuses_a_previous_version_container(tmp_path, capsys):
    _, inputs, cfgf = _emit_example(tmp_path, "mlp4")
    binpath = tmp_path / "old.bin"
    binpath.write_bytes(V2_BLOB)
    capsys.readouterr()
    assert cli.main(["run", str(binpath), "--inputs", inputs,
                     "--config", cfgf]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == ("error: unsupported container "
                                       "version 2\n")


def test_naive_partition_increases_data_movement():
    """Random placement on a 2-tile machine emits strictly more send and
    receive instructions than affinity placement."""
    g, _ = models.mlp_model(256)
    cfg = MachineConfig(tiles=2)
    base, _ = compile_model(g, cfg)
    naive, _ = compile_model(g, cfg, CompileOptions(naive_partition=True,
                                                    seed=3))
    h0 = base.static_histogram()
    h1 = naive.static_histogram()
    moved0 = h0.get("send", 0) + h0.get("receive", 0)
    moved1 = h1.get("send", 0) + h1.get("receive", 0)
    assert moved1 > moved0


def test_run_exit_code_on_deadlock(tmp_path):
    cfg = MachineConfig(xbar_dim=4, mvmus_per_core=2, cores_per_tile=2,
                        tiles=2, dmem_words=256)
    prog = container.Program(cfg.xbar_dim, cfg.mvmus_per_core,
                             cfg.cores_per_tile, cfg.tiles, cfg.frac_bits)
    prog.segments.append(container.Segment(
        0, container.TILE_UNIT, [isa.recv(0, 0, 1, 1)]))
    binpath = tmp_path / "bad.bin"
    container.save_file(prog, str(binpath))
    cfgf = tmp_path / "m.cfg"
    cfgf.write_text(cfg.to_text())
    inpf = tmp_path / "in.json"
    inpf.write_text("{}")
    code = cli.main(["run", str(binpath), "--inputs", str(inpf),
                     "--config", str(cfgf), "--step-limit", "1000"])
    assert code == cli.EXIT_STALLED


def test_run_exit_code_on_saturation(tmp_path):
    g = gr.ModelGraph()
    a = g.input("a", 4)
    g.output("y", g.alu("add", a, a))
    g.freeze()
    cfg = MachineConfig(xbar_dim=4, mvmus_per_core=2, cores_per_tile=2,
                        tiles=1, dmem_words=256)
    prog, _ = compile_model(g, cfg)
    binpath = tmp_path / "sat.bin"
    container.save_file(prog, str(binpath))
    cfgf = tmp_path / "m.cfg"
    cfgf.write_text(cfg.to_text())
    inpf = tmp_path / "in.json"
    cli.write_tensors(str(inpf), {"a": np.array([30000, 1, 2, 3])})
    code = cli.main(["run", str(binpath), "--inputs", str(inpf),
                     "--config", str(cfgf)])
    assert code == cli.EXIT_SATURATION


def test_missing_input_errors_before_simulation(tmp_path):
    model, _, cfgf = _emit_example(tmp_path, "mlp4")
    binpath = str(tmp_path / "prog.bin")
    assert cli.main(["compile", model, "-o", binpath, "--config", cfgf]) == 0
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert cli.main(["run", binpath, "--inputs", str(empty),
                     "--config", cfgf]) == cli.EXIT_ERROR


def test_run_rejects_a_tensor_that_is_not_one_vector(tmp_path):
    model, _, cfgf = _emit_example(tmp_path, "mlp4")
    binpath = str(tmp_path / "prog.bin")
    assert cli.main(["compile", model, "-o", binpath, "--config", cfgf]) == 0
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"x": [[1, 2, 3, 4], [5, 6, 7, 8]]}))
    outdir = tmp_path / "out"
    assert cli.main(["run", binpath, "--inputs", str(nested), "--config",
                     cfgf, "--out", str(outdir)]) == cli.EXIT_ERROR
    assert not (outdir / "outputs.json").exists()


def test_write_tensors_rejects_a_batch_naming_the_tensor(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="'y'"):
        cli.write_tensors(str(path), {"x": np.arange(4),
                                      "y": np.arange(8).reshape(2, 4)})
    assert not path.exists()


def test_sweep_single_point_matches_run(tmp_path):
    model, inputs, cfgf = _emit_example(tmp_path, "mlp4")
    outdir = str(tmp_path / "sw")
    assert cli.main(["sweep", model, "--axis", "vfu_lanes", "--range", "1",
                     "--inputs", inputs, "--config", cfgf,
                     "--out", outdir]) == 0
    with open(os.path.join(outdir, "sweep_vfu_lanes.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["vfu_lanes", "latency_ns", "energy_nj", "accuracy"]
    assert len(rows) == 2
    # identical to a direct run at the same configuration
    g = gr.load_model(model)
    cfg = models.default_config_for("mlp4")
    prog, _ = compile_model(g, cfg)
    rep = run(Machine(cfg, prog), cli.read_tensors(inputs))
    assert float(rows[1][1]) == rep.latency_ns
    assert float(rows[1][2]) == pytest.approx(rep.energy_total_nj)


def test_sweep_vector_kernel_latency_strictly_decreasing(tmp_path):
    model, inputs, cfgf = _emit_example(tmp_path, "vector")
    outdir = str(tmp_path / "sw")
    assert cli.main(["sweep", model, "--axis", "vfu_lanes",
                     "--range", "1,2,4,8", "--inputs", inputs,
                     "--config", cfgf, "--out", outdir]) == 0
    with open(os.path.join(outdir, "sweep_vfu_lanes.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    lat = [float(r[1]) for r in rows]
    assert lat[0] > lat[1] > lat[2], lat


def test_sweep_noise_with_eval_accuracy(tmp_path):
    g, pts, labels = models.trained_tiny_classifier()
    gr.save_model(g, str(tmp_path / "clf.json"))
    cli.write_tensors(str(tmp_path / "in.json"), pts[0])
    evalf = tmp_path / "eval.json"
    evalf.write_text(json.dumps({
        "input": "x", "output": "y", "labels": [int(v) for v in labels],
        "points": [fp.to_hex(p["x"]) for p in pts],
    }))
    cfgf = tmp_path / "m.cfg"
    cfgf.write_text(MachineConfig(tiles=1).to_text())
    outdir = str(tmp_path / "sw")
    assert cli.main(["sweep", str(tmp_path / "clf.json"), "--axis",
                     "noise_sigma", "--range", "0,0.05", "--inputs",
                     str(tmp_path / "in.json"), "--eval", str(evalf),
                     "--config", str(cfgf), "--out", outdir]) == 0
    with open(os.path.join(outdir, "sweep_noise_sigma.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    accs = [float(r[3]) for r in rows]
    assert accs[0] >= 0.95          # clean
    assert accs[1] < accs[0]        # heavy write noise costs accuracy


def test_conv_loop_flag_compiles_branching_program(tmp_path):
    model, inputs, cfgf = _emit_example(tmp_path, "conv_loop")
    binpath = str(tmp_path / "loop.bin")
    assert cli.main(["compile", model, "-o", binpath, "--config", cfgf,
                     "--conv-loop"]) == 0
    prog = container.load_file(binpath)
    hist = prog.static_histogram()
    # 4 windows, 2 per group, on two looped cores: one brn each
    loopers = {(s.tile, s.core) for s in prog.segments
               for i in s.instrs if i.op == "brn"}
    assert hist.get("brn", 0) == len(loopers) == 2
    assert hist.get("jmp", 0) == 0
    outdir = str(tmp_path / "out")
    assert cli.main(["run", binpath, "--inputs", inputs, "--config", cfgf,
                     "--out", outdir]) == 0


def test_loop_mode_equivalent_and_smaller_fragment(tmp_path):
    """Looped and unrolled compilations of the same windowed layer produce
    identical simulator outputs, and the loop fragment on the MVM-hosting
    core is smaller for >= 4 windows."""
    g, inputs = models.build_example("conv_loop")   # 4 windows
    cfg = models.default_config_for("conv8x8")
    unrolled, _ = compile_model(g, cfg)
    looped, _ = compile_model(g, cfg, CompileOptions(conv_loop=True))
    ru = run(Machine(cfg, unrolled), inputs, step_limit=5_000_000)
    rl = run(Machine(cfg, looped), inputs, step_limit=5_000_000)
    assert ru.halted and rl.halted
    assert all(ru.outputs[k].tolist() == rl.outputs[k].tolist()
               for k in ru.outputs)
    mvm_core = next((s.tile, s.core) for s in unrolled.segments
                    if any(i.op == "mvm" for i in s.instrs))
    unrolled_bytes = 7 * next(len(s.instrs) for s in unrolled.segments
                              if (s.tile, s.core) == mvm_core)
    loop_bytes = 7 * next(len(s.instrs) for s in looped.segments
                          if any(i.op == "brn" for i in s.instrs))
    assert loop_bytes < unrolled_bytes


def test_report_histograms_reconcile(tmp_path):
    """Static histogram equals the assembled program contents; dynamic
    counts cover every executed instruction."""
    g, inputs = models.build_example("mlp128")
    cfg = models.default_config_for("mlp128")
    prog, crep = compile_model(g, cfg)
    assert crep.static_histogram == prog.static_histogram()
    assert sum(crep.static_histogram.values()) == prog.total_instructions()
    rep = run(Machine(cfg, prog), inputs)
    assert rep.instr_static == prog.static_histogram()
    # straight-line program: every instruction executes exactly once
    assert rep.instr_dynamic == rep.instr_static
    assert rep.steps == sum(rep.instr_dynamic.values())


def test_sweep_remaining_axes_run(tmp_path):
    model, inputs, cfgf = _emit_example(tmp_path, "mlp4")
    for axis, rng_ in (("crossbar_dim", "32,64,128"),
                       ("mvmus_per_core", "1,2,4"),
                       ("register_size", "512,256"),
                       ("bits_per_device", "1,2,4")):
        outdir = str(tmp_path / f"sw_{axis}")
        assert cli.main(["sweep", model, "--axis", axis, "--range", rng_,
                         "--inputs", inputs, "--config", cfgf,
                         "--out", outdir]) == 0
        with open(os.path.join(outdir, f"sweep_{axis}.csv")) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(rng_.split(","))
