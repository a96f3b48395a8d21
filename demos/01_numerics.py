"""Fixed-point numerics and the analog crossbar model, step by step.

Walks a weight value through quantization, bias + base-4 bit slicing,
write noise, and an MVM with and without ADC quantization, then shows
the ROM lookup tables used for transcendental functions.
"""

import numpy as np

from xbarsim import crossbar as xb
from xbarsim import fixedpoint as fp

print("== Q3.12 fixed point ==")
for v in (0.0, 1.0, -1.5, 3.14159, 10.0):
    raw = fp.quantize(v)
    print(f"  {v:8.5f} -> raw {raw:6d} -> {fp.to_float(raw):8.5f}")
print(f"  representable range: [{fp.fx_min():.5f}, {fp.fx_max():.5f}]")

print("\n== bit slicing: 8 crossbars of 2-bit devices ==")
w = np.array([[fp.quantize(0.75), fp.quantize(-0.5)]])
sliced = xb.slice_weights(w)
for i, digits in enumerate(sliced.slices):
    print(f"  slice {i} (weight 4^{i}): digits {digits.astype(int).tolist()}")
print(f"  reconstructed raw: {sliced.reconstruct_raw().tolist()} == {w.tolist()}")

print("\n== write noise perturbs stored conductances ==")
noisy = xb.apply_write_noise(sliced, sigma=0.05, seed=7)
print(f"  slice 7 before: {sliced.slices[7].astype(int).tolist()}")
print(f"  slice 7 after:  {np.round(noisy.slices[7], 3).tolist()}")

print("\n== crossbar MVM: ideal vs ADC-quantized vs noisy ==")
rng = np.random.default_rng(0)
w = rng.integers(-8000, 8000, size=(8, 4))
x = fp.quantize(rng.uniform(-1, 1, 8))
m = xb.slice_weights(w, xbar_dim=8)
ideal = xb.crossbar_mvm(m, x, None, xbar_dim=8)
coarse = xb.crossbar_mvm(m, x, adc_bits=6, xbar_dim=8)
noisy_m = xb.apply_write_noise(m, 0.02, seed=1)
with_noise = xb.crossbar_mvm(noisy_m, x, None, xbar_dim=8)
print(f"  ideal:       {ideal.tolist()}")
print(f"  6-bit ADC:   {coarse.tolist()}")
print(f"  write noise: {with_noise.tolist()}")
print(f"  default ADC resolution for a 128-wide crossbar: "
      f"{xb.default_adc_bits(128)} bits")

print("\n== ROM lookup tables ==")
for name in ("sigmoid", "tanh", "log", "exp"):
    t = fp.LutTable(name)
    mid = fp.quantize((t.lo + t.hi) / 2)
    print(f"  {name}: {t.size} entries over [{t.lo}, {t.hi}], "
          f"f(mid)={fp.to_float(t.lookup(mid)):.4f}, "
          f"max error bound {t.error_bound():.4f}")
