"""Raw weight matrices are int16 at every hand-off, from the model graph to
the crossbar, and are widened only where the arithmetic needs it: the
MAC accumulates in int64 and the digit extraction adds the 2^15 bias in
int64."""

import numpy as np
import pytest

from xbarsim import container, crossbar as xb, graph as gr
from xbarsim.compiler import compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine

CFG = MachineConfig(xbar_dim=8, mvmus_per_core=2, cores_per_tile=2, tiles=2,
                    dmem_words=256)


def _model():
    rng = np.random.default_rng(3)
    g = gr.ModelGraph()
    x = g.input("x", 12)
    h = g.mvm(g.const_matrix(rng.uniform(-9, 9, (12, 10))), x)  # saturates
    g.output("y", g.mvm(g.const_matrix(rng.uniform(-1, 1, (10, 6))), h))
    return g.freeze()


def test_graph_constants_are_int16_after_build_and_json():
    g = _model()
    back = gr.from_json(gr.to_json(g))
    for graph in (g, back):
        assert [w.dtype for w in graph.constants.values()] == [np.int16] * 2
    for nid, w in g.constants.items():
        assert np.array_equal(back.constants[nid], w)
    assert {int(g.constants[1].min()), int(g.constants[1].max())} \
        == {-32768, 32767}


def test_weight_blocks_and_machine_weights_are_int16():
    prog, _ = compile_model(_model(), CFG)
    back = container.loads(container.save(prog))
    for p in (prog, back):
        assert p.weights and all(wb.w_raw.dtype == np.int16
                                 for wb in p.weights)
    for a, b in zip(prog.weights, back.weights):
        assert np.array_equal(a.w_raw, b.w_raw)
    sliced = [s for ms in Machine(CFG, back).mvmus.values() for s in ms
              if s is not None]
    assert sliced and all(s.w_raw.dtype == np.int16 for s in sliced)


def test_full_range_int16_weights_round_trip_through_the_digits():
    w = np.array([[-32768, 32767], [0, -1]], dtype=np.int16)
    for bits in (1, 2, 4):
        m = xb.slice_weights(w, bits_per_device=bits)
        assert m.w_raw.dtype == np.int16
        assert np.array_equal(m.reconstruct_raw(), w)


@pytest.mark.parametrize("adc_bits", [None, 9])
def test_int16_weights_accumulate_like_int64(adc_bits):
    rng = np.random.default_rng(5)
    w = rng.integers(-32768, 32768, (128, 16)).astype(np.int16)
    w[0], w[1] = -32768, 32767
    x = rng.integers(-32768, 32768, (6, 128))
    x[0], x[1] = -32768, 32767
    x[2, 4:] = 0                      # a few small sums that do not saturate
    x[2, :4] = [300, -200, 100, 7]
    narrow = xb.slice_weights(w)
    assert narrow.w_raw.dtype == np.int16
    wide = xb.SlicedMatrix(w.astype(np.int64))
    got = xb.crossbar_mvm(narrow, x, adc_bits)
    assert np.array_equal(got, xb.crossbar_mvm(wide, x, adc_bits))
    assert np.array_equal(xb.ideal_mvm(w, x[2].astype(np.int16)),
                          xb.ideal_mvm(w.astype(np.int64), x[2]))


@pytest.mark.parametrize("kind", [np.array, lambda rows: rows],
                         ids=["int64", "list"])
def test_wide_weights_are_range_checked_then_narrowed(kind):
    bad, good = kind([[0, 40000], [-32769, 0]]), kind([[-32768, 5], [32767, 0]])
    prog = container.Program(8, 1, 1, 1, 12)
    prog.weights.append(container.WeightBlock(0, 0, 0, bad))
    with pytest.raises(ValueError, match="16-bit"):
        xb.slice_weights(bad)
    with pytest.raises(container.ContainerError, match="int16"):
        container.save(prog)
    prog.weights[0] = container.WeightBlock(0, 0, 0, good)
    back = container.loads(container.save(prog)).weights[0].w_raw
    for w in (xb.slice_weights(good).w_raw, back):
        assert w.dtype == np.int16
        assert w.tolist() == [[-32768, 5], [32767, 0]]
