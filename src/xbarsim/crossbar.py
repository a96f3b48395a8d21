"""Analog crossbar MVM behavior: bit slicing, write noise, ADC quantization.

A 16-bit weight is biased by +2^15 into an unsigned integer and decomposed
into base-(2^b) digits, one digit per physical crossbar (b bits per device,
default 2 -> 8 slices). The ideal MVM (no ADC, no write noise) is the exact
integer MAC over the raw weights and reads no slice. Under noise or an ADC
each slice computes a dot product with the full-precision input; slice
outputs pass through an ADC transfer function, are recombined by
shift-and-add, and the bias contribution is subtracted.
"""

import numpy as np

from .fixedpoint import (
    DEFAULT_FRAC_BITS,
    RAW_MAX,
    RAW_MIN,
    rshift_round_even,
    saturate,
)

WEIGHT_BIAS = 1 << 15
WEIGHT_BITS = 16


def slices_for_bits(bits_per_device):
    if bits_per_device not in (1, 2, 4):
        raise ValueError(f"bits per device must be 1, 2, or 4, got {bits_per_device}")
    return WEIGHT_BITS // bits_per_device


class SlicedMatrix:
    """Per-device digit planes of one weight matrix on one MVMU.

    w_raw is the programmed raw weight matrix, int16; the MAC and the
    digit extraction widen it to int64. slices is one float64
    (slices, rows, cols) array whose plane i holds digit i (least
    significant first) of the biased weights: integers in [0, 2^b - 1]
    before noise and real-valued conductances after. Without planes at
    construction they are built on first read of slices.
    """

    def __init__(self, w_raw, slices=None, bits_per_device=2, noise_sigma=0.0):
        self.w_raw = w_raw
        self.rows, self.cols = w_raw.shape
        self._slices = slices
        self.bits_per_device = bits_per_device
        self.noise_sigma = noise_sigma

    @property
    def slices(self):
        if self._slices is None:
            b = self.bits_per_device
            shifts = b * np.arange(slices_for_bits(b))[:, None, None]
            biased = self.w_raw.astype(np.int64) + WEIGHT_BIAS
            digits = (biased >> shifts) & ((1 << b) - 1)
            self._slices = digits.astype(np.float64)
        return self._slices

    @property
    def num_slices(self):
        return len(self.slices)

    def reconstruct_raw(self):
        """Shift-and-add the (noise-free) digits back to signed raw weights."""
        place = (1 << self.bits_per_device) ** np.arange(self.num_slices)
        digits = np.rint(self.slices).astype(np.int64)
        return np.tensordot(place, digits, axes=1) - WEIGHT_BIAS


def slice_weights(w_raw, xbar_dim=128, bits_per_device=2):
    """Decompose a raw Fixed16 weight matrix into unsigned digit planes.

    Digit d of slice i equals floor((raw + 2^15) / (2^b)^i) mod 2^b. The
    matrix is checked against the crossbar, and one of any dtype but int16
    against the 16-bit range, then narrowed to int16; the planes are built
    on their first read, since the ideal MVM never reads them.
    """
    w_raw = np.asarray(w_raw)
    if w_raw.ndim != 2:
        raise ValueError("weight matrix must be 2-D")
    rows, cols = w_raw.shape
    if rows > xbar_dim or cols > xbar_dim:
        raise ValueError(
            f"matrix {rows}x{cols} exceeds crossbar dimension {xbar_dim}"
        )
    slices_for_bits(bits_per_device)
    if w_raw.dtype != np.int16:
        if w_raw.min() < RAW_MIN or w_raw.max() > RAW_MAX:
            raise ValueError("weights outside 16-bit raw range")
        w_raw = w_raw.astype(np.int16)
    return SlicedMatrix(w_raw, None, bits_per_device)


def apply_write_noise(m, sigma, seed):
    """Gaussian conductance write noise, applied once at configuration time.

    Each stored digit g becomes clamp(g + eps, 0, g_range) with
    eps ~ Normal(0, sigma * g_range), drawn plane after plane from one
    generator. Deterministic for a fixed seed.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        return SlicedMatrix(m.w_raw, m.slices.copy(), m.bits_per_device)
    g_range = (1 << m.bits_per_device) - 1
    noisy = np.random.default_rng(seed).normal(0.0, sigma * g_range,
                                               size=m.slices.shape)
    noisy += m.slices
    np.clip(noisy, 0.0, g_range, out=noisy)
    return SlicedMatrix(m.w_raw, noisy, m.bits_per_device, sigma)


def default_adc_bits(xbar_dim=128):
    """ceil(log2(dim)) + 2; 9 bits at the default 128x128 crossbar."""
    return int(np.ceil(np.log2(xbar_dim))) + 2


def adc_transfer(values, adc_bits, full_scale):
    """Uniform mid-rise quantizer over [-full_scale, full_scale]."""
    step = 2.0 * full_scale / (1 << adc_bits)
    q = (np.floor(np.asarray(values, np.float64) / step) + 0.5) * step
    return np.clip(q, -full_scale + step / 2, full_scale - step / 2)


def ideal_mvm(w_raw, x_raw, frac_bits=DEFAULT_FRAC_BITS):
    """Exact integer MAC over raw weights, rounded half-even, saturated.
    x_raw is one input vector or a (batch, rows) stack of them; the
    product accumulates in int64 whatever the weights' dtype."""
    return saturate(rshift_round_even(np.asarray(x_raw, np.int64) @ w_raw,
                                      frac_bits))


def crossbar_mvm(m, x_raw, adc_bits=None, frac_bits=DEFAULT_FRAC_BITS, xbar_dim=128):
    """One analog MVM: out[c] = sat(round(sum_r W[r][c] * x[r] * 2^-f)).

    x_raw is one input vector (rows,) or a (batch, rows) stack of them;
    the output has the same leading shape. adc_bits=None is the ideal mode
    (no ADC quantization); at sigma=0 it is ideal_mvm, and only write noise
    or an ADC reads the slices. There each input row is multiplied as its
    own vector, so a row's floating-point sums do not depend on the batch.
    """
    x_raw = np.asarray(x_raw, dtype=np.int64)
    if x_raw.ndim not in (1, 2) or x_raw.shape[-1] != m.rows:
        raise ValueError(f"input length {x_raw.shape} does not match {m.rows} rows")
    if adc_bits is None and m.noise_sigma == 0:
        return ideal_mvm(m.w_raw, x_raw, frac_bits)

    radix = 1 << m.bits_per_device
    full_scale = float(xbar_dim * (radix - 1) * WEIGHT_BIAS)
    # one batched product: each lane's row times each plane, (..., 1, 1,
    # rows) @ (slices, rows, cols) -> (..., slices, 1, cols)
    x = np.asarray(x_raw, dtype=np.float64)[..., None, None, :]
    planes = (x @ m.slices)[..., 0, :]
    if adc_bits is not None:
        planes = adc_transfer(planes, adc_bits, full_scale)
    combined = np.zeros(x_raw.shape[:-1] + (m.cols,), dtype=np.float64)
    for i in range(m.num_slices):  # plane by plane fixes the sum order
        combined += planes[..., i, :] * float(radix ** i)
    combined -= float(WEIGHT_BIAS) * x_raw.sum(axis=-1, keepdims=True)
    out = np.rint(combined / (1 << frac_bits))
    return np.clip(out, RAW_MIN, RAW_MAX).astype(np.int64)
