"""Sweep points pay only for what changes between them.

A sweep point compiles its model once per frozen graph and compile-relevant
config, and scores accuracy with one argmax over the batch of eval lanes."""

import gc
import json
import weakref

import numpy as np
import pytest

from xbarsim import cli, container, fixedpoint as fp, graph as gr, models
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.machine import RUN_ONLY_FIELDS, MachineConfig
from xbarsim.partition import CompileError

RUN_ONLY_VALUES = {"noise_sigma": 0.05, "seed": 7, "adc_bits": 9,
                   "power_mw": dict(MachineConfig().power_mw, net=1.0),
                   "bits_per_device": 4}


def _model(name):
    if name == "classifier":
        return models.trained_tiny_classifier()[0]
    return models.build_example(name)[0]


def _count_compiles(monkeypatch):
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return compile_model(*args, **kw)

    monkeypatch.setattr(cli, "compile_model", counted)
    return calls


@pytest.mark.parametrize("name", ["classifier", "mlp4"])
def test_run_only_fields_leave_the_program_unchanged(name):
    g = _model(name)
    cfg = models.default_config_for(name)
    want = container.save(compile_model(g, cfg)[0])
    for field, value in RUN_ONLY_VALUES.items():
        prog, _ = compile_model(g, cfg.with_overrides(**{field: value}))
        assert container.save(prog) == want, field
    assert set(RUN_ONLY_VALUES) == set(RUN_ONLY_FIELDS)


@pytest.mark.parametrize("axis, values, compiles", [
    ("noise_sigma", "0,0.01,0.02", 1),
    ("bits_per_device", "2,4,2", 1),
])
def test_a_sweep_compiles_once_per_distinct_program(tmp_path, monkeypatch,
                                                     axis, values, compiles):
    g, pts, labels = models.trained_tiny_classifier()
    gr.save_model(g, str(tmp_path / "clf.json"))
    cli.write_tensors(str(tmp_path / "in.json"), pts[0])
    evalf = tmp_path / "eval.json"
    evalf.write_text(json.dumps({
        "input": "x", "output": "y", "labels": [int(v) for v in labels[:6]],
        "points": [fp.to_hex(p["x"]) for p in pts[:6]]}))
    cfgf = tmp_path / "m.cfg"
    cfgf.write_text(MachineConfig(tiles=1).to_text())
    calls = _count_compiles(monkeypatch)
    assert cli.main(["sweep", str(tmp_path / "clf.json"), "--axis", axis,
                     "--range", values, "--inputs", str(tmp_path / "in.json"),
                     "--eval", str(evalf), "--config", str(cfgf),
                     "--out", str(tmp_path / "sw")]) == 0
    assert len(calls) == compiles


def test_a_graph_that_is_not_frozen_compiles_on_every_call(monkeypatch):
    g, pts, _ = models.trained_tiny_classifier()
    g.frozen = False
    calls = _count_compiles(monkeypatch)
    for _ in range(2):
        with pytest.raises(CompileError, match="freeze the model"):
            cli.sweep_point(g, MachineConfig(tiles=1), pts[0],
                            CompileOptions())
    assert len(calls) == 2


def test_the_memo_lets_go_of_a_deleted_graph():
    g, pts, _ = models.trained_tiny_classifier()
    cli.sweep_point(g, MachineConfig(tiles=1), pts[0], CompileOptions())
    assert g in cli._chips
    gone = weakref.ref(g)
    del g
    gc.collect()
    assert gone() is None
    assert len(cli._chips) == 0


def _per_row_accuracy(outputs, labels):
    """The per-row score classifier_accuracy replaces."""
    hits = sum(1 for out, lab in zip(outputs, labels)
               if int(np.argmax(out)) == lab)
    return hits / len(labels)


def test_accuracy_matches_the_per_row_score():
    rng = np.random.default_rng(0)
    batch = rng.integers(-4, 4, size=(40, 3))     # many tied maxima
    labels = rng.integers(0, 3, size=40)
    ties = np.array([[5, 5, 1], [0, 3, 3], [2, 2, 2], [1, 0, 1]])
    for outputs, labs in ((batch, labels), (list(batch), list(labels)),
                          (ties, [0, 1, 2, 2]), (list(ties), [1, 2, 0, 0]),
                          (batch[:30], labels), (batch, labels[:30])):
        got = models.classifier_accuracy(outputs, labs)
        assert got == _per_row_accuracy(outputs, labs)
    assert models.classifier_accuracy(ties, [0, 1, 2, 2]) == 0.5


def test_a_ragged_eval_set_is_refused():
    g, pts, labels = models.trained_tiny_classifier()
    ragged = [pts[1], {"x": np.append(pts[2]["x"], 0)}]
    with pytest.raises(ValueError):
        cli.sweep_point(g, MachineConfig(tiles=1), pts[0], CompileOptions(),
                        ragged, labels[1:3], "y")


def test_a_stalled_sweep_point_raises_its_diagnosis():
    g, pts, _ = models.trained_tiny_classifier()
    with pytest.raises(cli.StalledError, match=r"^sweep point hit its step "
                                               r"limit"):
        cli.sweep_point(g, MachineConfig(tiles=1), pts[0], CompileOptions(),
                        step_limit=1)


def test_a_sweep_that_stalls_exits_3_with_the_diagnosis(tmp_path, monkeypatch,
                                                        capsys):
    """mlp_l4 stopped after one step leaves tile 0 core 1 waiting on a
    load."""
    assert cli.main(["example", "mlp_l4", "-o", str(tmp_path)]) == 0
    point = cli.sweep_point
    monkeypatch.setattr(cli, "sweep_point",
                        lambda *a: point(*a, step_limit=1))
    assert cli.main(["sweep", str(tmp_path / "mlp_l4.json"), "--axis",
                     "noise_sigma", "--range", "0", "--inputs",
                     str(tmp_path / "mlp_l4_inputs.json"), "--config",
                     str(tmp_path / "mlp_l4_machine.cfg")]) == cli.EXIT_STALLED
    assert capsys.readouterr().err.startswith(
        "sweep point hit its step limit\ndiag: tile 0 core 1 blocked at pc 0 "
        "on load waiting on word")
