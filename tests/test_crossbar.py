from fractions import Fraction

import numpy as np
import pytest

from xbarsim import crossbar as xb
from xbarsim import fixedpoint as fp


def mac_oracle(w_raw, x_raw, frac_bits=12):
    """Brute-force double-width integer MAC: round(sum_r W[r][c]*x[r] / 2^f),
    round-half-even via Fraction, then saturate. Independent of the
    crossbar path."""
    rows, cols = w_raw.shape
    out = []
    for c in range(cols):
        acc = 0
        for r in range(rows):
            acc += int(w_raw[r][c]) * int(x_raw[r])
        v = int(round(Fraction(acc, 1 << frac_bits)))
        out.append(max(fp.RAW_MIN, min(fp.RAW_MAX, v)))
    return out


def test_slice_bias_only():
    # raw 0x0000 -> biased 0x8000 -> LSB-first digits 0,0,0,0,0,0,0,2
    m = xb.slice_weights(np.array([[0]]))
    digits = [int(s[0, 0]) for s in m.slices]
    assert digits == [0, 0, 0, 0, 0, 0, 0, 2]


def test_slice_known_value():
    # raw 0x5A3C -> biased 0xDA3C -> MSB-first digits 3,1,2,2,0,3,3,0
    m = xb.slice_weights(np.array([[0x5A3C]]))
    digits = [int(s[0, 0]) for s in m.slices]
    assert list(reversed(digits)) == [3, 1, 2, 2, 0, 3, 3, 0]


def test_slice_round_trip_exhaustive():
    """All 2^16 raw values slice and reconstruct to themselves."""
    all_raws = np.arange(fp.RAW_MIN, fp.RAW_MAX + 1, dtype=np.int64)
    for block in all_raws.reshape(4, 128, 128):
        m = xb.slice_weights(block)
        assert np.array_equal(m.reconstruct_raw(), block)


@pytest.mark.parametrize("bits,nslices", [(1, 16), (2, 8), (4, 4)])
def test_slice_counts_per_device_precision(bits, nslices):
    m = xb.slice_weights(np.array([[123, -456]]), bits_per_device=bits)
    assert m.num_slices == nslices
    radix = 1 << bits
    for s in m.slices:
        assert s.min() >= 0 and s.max() < radix
    assert np.array_equal(m.reconstruct_raw(), [[123, -456]])


def test_slice_rejects_oversized_matrix():
    with pytest.raises(ValueError):
        xb.slice_weights(np.zeros((129, 4), dtype=np.int64), xbar_dim=128)


def test_noise_zero_sigma_is_identity():
    m = xb.slice_weights(np.array([[77, -3], [5, 12000]]))
    noisy = xb.apply_write_noise(m, 0.0, seed=42)
    for a, b in zip(m.slices, noisy.slices):
        assert np.array_equal(a, b)


def test_noise_deterministic_for_fixed_seed():
    m = xb.slice_weights(np.array([[3]]))
    n1 = xb.apply_write_noise(m, 0.1, seed=99)
    n2 = xb.apply_write_noise(m, 0.1, seed=99)
    for a, b in zip(n1.slices, n2.slices):
        assert np.array_equal(a, b)
    # oracle is the seeded generator itself
    rng = np.random.default_rng(99)
    for digits, noisy in zip(m.slices, n1.slices):
        eps = rng.normal(0.0, 0.1 * 3, size=digits.shape)
        want = np.clip(digits + eps, 0.0, 3.0)
        assert np.allclose(noisy, want)


def test_noise_clamps_at_zero_floor():
    m = xb.slice_weights(np.zeros((4, 4), dtype=np.int64) - 32768)  # all digits 0
    assert all(int(s.max()) == 0 for s in m.slices)
    noisy = xb.apply_write_noise(m, 0.5, seed=1)
    for s in noisy.slices:
        assert s.min() >= 0.0


def test_mvm_zero_matrix():
    m = xb.slice_weights(np.zeros((4, 4), dtype=np.int64))
    x = np.array([100, -200, 300, 32767])
    assert xb.crossbar_mvm(m, x).tolist() == [0, 0, 0, 0]


def test_mvm_identity_cell():
    w = np.zeros((4, 4), dtype=np.int64)
    w[0, 0] = fp.quantize(1.0)
    m = xb.slice_weights(w)
    x = np.array([fp.quantize(1.0), 0, 0, 0])
    out = xb.crossbar_mvm(m, x)
    assert out.tolist() == [fp.quantize(1.0), 0, 0, 0]


def test_mvm_ideal_matches_mac_oracle_property():
    """Ideal-mode crossbar MVM == double-width integer MAC oracle, >= 1e4
    random instances."""
    rng = np.random.default_rng(2024)
    trials = 0
    while trials < 10_000:
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        w = rng.integers(fp.RAW_MIN, fp.RAW_MAX + 1, size=(rows, cols))
        m = xb.slice_weights(w)
        for _ in range(20):
            x = rng.integers(-4096, 4097, size=rows)
            got = xb.crossbar_mvm(m, x)
            assert got.tolist() == mac_oracle(w, x)
            trials += 1


def test_mvm_ideal_matches_oracle_with_noisefree_float_digits():
    """sigma=0 noise conversion to float digits must not change results."""
    rng = np.random.default_rng(5)
    w = rng.integers(fp.RAW_MIN, fp.RAW_MAX + 1, size=(6, 6))
    m = xb.apply_write_noise(xb.slice_weights(w), 0.0, seed=0)
    x = rng.integers(-4096, 4097, size=6)
    assert xb.crossbar_mvm(m, x).tolist() == mac_oracle(w, x)


def test_mvm_rejects_dimension_mismatch():
    m = xb.slice_weights(np.zeros((4, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        xb.crossbar_mvm(m, np.zeros(5, dtype=np.int64))


def test_adc_error_monotone_in_resolution():
    """Reducing adc_bits never decreases max deviation from ideal on a
    fixed instance set."""
    rng = np.random.default_rng(77)
    instances = []
    for _ in range(20):
        w = rng.integers(fp.RAW_MIN, fp.RAW_MAX + 1, size=(16, 16))
        x = rng.integers(-4096, 4097, size=16)
        instances.append((xb.slice_weights(w), x))
    prev_err = -1.0
    for bits in (12, 10, 9, 8, 6, 4):
        err = 0.0
        for m, x in instances:
            ideal = xb.crossbar_mvm(m, x, xbar_dim=16)
            quant = xb.crossbar_mvm(m, x, adc_bits=bits, xbar_dim=16)
            err = max(err, float(np.max(np.abs(quant - ideal))))
        assert err >= prev_err, f"bits={bits}: {err} < {prev_err}"
        prev_err = err


def test_default_adc_bits_formula():
    assert xb.default_adc_bits(128) == 9


@pytest.mark.parametrize("bits,adc", [(2, None), (4, None), (2, 9)])
def test_batched_mvm_equals_per_vector(bits, adc):
    """A (batch, rows) input gives each row exactly its own MVM, under
    write noise and an ADC too."""
    rng = np.random.default_rng(bits)
    w = rng.integers(-32768, 32768, (128, 96))
    m = xb.apply_write_noise(xb.slice_weights(w, 128, bits), 0.02, 4)
    x = rng.integers(-32768, 32768, (64, 128))
    got = xb.crossbar_mvm(m, x, adc)
    assert got.shape == (64, 96)
    for row, out in zip(x, got):
        assert np.array_equal(out, xb.crossbar_mvm(m, row, adc))
    ideal = xb.slice_weights(w, 128, bits)
    assert np.array_equal(xb.crossbar_mvm(ideal, x),
                          [xb.crossbar_mvm(ideal, row) for row in x])
