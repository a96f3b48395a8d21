import math
from fractions import Fraction

import numpy as np
import pytest

from xbarsim import fixedpoint as fp


def test_quantize_zero():
    assert fp.quantize(0.0) == 0


def test_quantize_one_q312():
    assert fp.quantize(1.0, frac_bits=12) == 4096


def test_quantize_saturates_high():
    # range bound is (2^15-1) * 2^-12 ~= 7.99976
    assert fp.quantize(10.0, frac_bits=12) == 32767
    assert fp.quantize(-10.0, frac_bits=12) == -32768


def test_quantize_round_half_even():
    # 0.5 ulp cases land on the even raw value
    f = 12
    assert fp.quantize(0.5 / (1 << f), frac_bits=f) == 0
    assert fp.quantize(1.5 / (1 << f), frac_bits=f) == 2
    assert fp.quantize(2.5 / (1 << f), frac_bits=f) == 2
    assert fp.quantize(-0.5 / (1 << f), frac_bits=f) == 0
    assert fp.quantize(-1.5 / (1 << f), frac_bits=f) == -2


def test_quantize_rejects_bad_frac_bits():
    with pytest.raises(ValueError):
        fp.quantize(1.0, frac_bits=16)


def test_lut_table_refuses_an_unknown_function():
    with pytest.raises(ValueError, match="^unknown LUT function 'softplus'$"):
        fp.LutTable("softplus")


def _round_even_oracle(num, den):
    """Independent round-half-even of num/den via Fraction + round()."""
    return int(round(Fraction(num, den)))


def test_div_round_even_matches_fraction_oracle():
    rng = np.random.default_rng(7)
    vals = rng.integers(-(1 << 40), 1 << 40, size=2000)
    for den in (*(1 << n for n in (1, 4, 12, 15)), 3, 7, 1000, 4097):
        got = fp.div_round_even(vals, den)
        want = [_round_even_oracle(int(v), den) for v in vals]
        assert got.tolist() == want


def test_add_sub_saturate():
    assert int(fp.fx_add(30000, 10000)) == 32767
    assert int(fp.fx_sub(-30000, 10000)) == -32768
    assert int(fp.fx_add(-5, 3)) == -2


def test_mul_matches_fraction_oracle():
    rng = np.random.default_rng(11)
    a = rng.integers(-32768, 32768, size=500)
    b = rng.integers(-32768, 32768, size=500)
    got = fp.fx_mul(a, b, frac_bits=12)
    for ai, bi, gi in zip(a, b, got):
        want = _round_even_oracle(int(ai) * int(bi), 1 << 12)
        want = max(fp.RAW_MIN, min(fp.RAW_MAX, want))
        assert int(gi) == want


def test_div_matches_fraction_oracle():
    rng = np.random.default_rng(13)
    a = rng.integers(-32768, 32768, size=500)
    b = rng.integers(-32768, 32768, size=500)
    b[b == 0] = 1
    got = fp.fx_div(a, b, frac_bits=12)
    for ai, bi, gi in zip(a, b, got):
        want = _round_even_oracle(int(ai) << 12, int(bi))
        want = max(fp.RAW_MIN, min(fp.RAW_MAX, want))
        assert int(gi) == want


def test_div_by_zero_saturates():
    assert int(fp.fx_div(100, 0)) == fp.RAW_MAX
    assert int(fp.fx_div(-100, 0)) == fp.RAW_MIN
    assert int(fp.fx_div(0, 0)) == 0


def test_logical_ops_operate_on_bit_patterns():
    a, b = -1, 0x0F0F  # 0xFFFF and 0x0F0F
    assert int(fp.fx_and(a, b)) == 0x0F0F
    assert int(fp.fx_or(0, b)) == 0x0F0F
    assert int(fp.fx_not(0)) == -1
    assert int(fp.fx_not(-1)) == 0


def test_shifts():
    assert int(fp.fx_shl(1, 14)) == 16384
    assert int(fp.fx_shl(1, 15)) == 32767  # saturates
    assert int(fp.fx_shr(-4096, 2)) == -1024


def test_relu_min_max():
    a = np.array([-5, 0, 7])
    assert fp.fx_relu(a).tolist() == [0, 0, 7]
    assert int(fp.fx_min_(3, -2)) == -2
    assert int(fp.fx_max_(3, -2)) == 3


# ---------------------------------------------------------------------------
# LUT tables
# ---------------------------------------------------------------------------

def test_sigmoid_lut_at_zero_is_near_half():
    t = fp.LutTable("sigmoid")
    got = fp.to_float(t.lookup(0))
    # within one LUT bin of sigmoid(0) = 0.5
    assert abs(got - 0.5) <= t.error_bound()


def test_tanh_lut_clamps_beyond_range():
    t = fp.LutTable("tanh")
    hi_raw = fp.quantize(8.0)  # beyond hi=4 -> clamps to last entry
    got = fp.to_float(t.lookup(hi_raw))
    assert got == fp.to_float(int(t.entries[-1]))
    assert abs(got - 1.0) < 0.01
    lo_raw = fp.quantize(-8.0)
    assert t.lookup(lo_raw) == int(t.entries[0])


def test_lut_entries_monotone_for_monotone_functions():
    for name in ("sigmoid", "tanh", "log", "exp"):
        t = fp.LutTable(name)
        assert np.all(np.diff(t.entries) >= 0), name


@pytest.mark.parametrize("name", ["sigmoid", "tanh", "exp", "log"])
def test_lut_exhaustive_error_bound(name):
    """Sweep every Fixed16 input inside the table range against the real
    function; the max error must stay below the bound derived at build."""
    t = fp.LutTable(name)
    bound = t.error_bound()
    lo_raw = int(math.ceil(t.lo * 4096))
    hi_raw = int(math.floor(t.hi * 4096))
    lo_raw = max(lo_raw, fp.RAW_MIN)
    hi_raw = min(hi_raw, fp.RAW_MAX)
    raws = np.arange(lo_raw, hi_raw + 1)
    xs = raws / 4096.0
    exact = fp.LUT_FUNCTIONS[name](xs)
    got = t.entries[np.clip(np.floor((xs - t.lo) / t.bin_width).astype(np.int64),
                            0, t.size - 1)] / 4096.0
    err = np.max(np.abs(got - exact))
    assert err <= bound, f"{name}: err {err} > bound {bound}"


def test_sigmoid_lut_covers_entire_fixed16_domain():
    """At Q3.12 the whole representable domain sits inside [-8, 8], so the
    sweep over all 2^16 raw values is meaningful for sigmoid."""
    t = fp.LutTable("sigmoid")
    raws = np.arange(fp.RAW_MIN, fp.RAW_MAX + 1)
    got = t.lookup(raws) / 4096.0
    exact = 1.0 / (1.0 + np.exp(-raws / 4096.0))
    assert np.max(np.abs(got - exact)) <= t.error_bound()


def test_default_luts_are_built_once_and_read_only():
    luts = fp.build_default_luts()
    assert fp.build_default_luts(fp.DEFAULT_FRAC_BITS, 8) is luts
    assert fp.build_default_luts(fp.DEFAULT_FRAC_BITS, 6) is not luts
    with pytest.raises(ValueError, match="read-only"):
        luts["tanh"].entries[0] = 0
    with pytest.raises(TypeError):
        luts["tanh"] = fp.LutTable("tanh")
