"""16-bit fixed-point arithmetic and ROM lookup tables.

All values are carried as raw two's-complement integers in numpy int64
arrays (logical range is int16), except weight matrices, which stay int16
from quantization to the crossbar and are widened only inside the MAC.
The radix point sits at ``frac_bits`` (default Q3.12). Every operation
saturates at the representable range instead of wrapping, and rounding is
round-to-nearest-even throughout.
"""

import operator
from types import MappingProxyType

import numpy as np

RAW_MIN = -(1 << 15)
RAW_MAX = (1 << 15) - 1
DEFAULT_FRAC_BITS = 12
WORD_MASK = 0xFFFF


def fx_max(frac_bits=DEFAULT_FRAC_BITS):
    """Largest representable value, (2^15 - 1) * 2^-frac_bits."""
    return RAW_MAX / (1 << frac_bits)


def fx_min(frac_bits=DEFAULT_FRAC_BITS):
    return RAW_MIN / (1 << frac_bits)


def saturate(raw):
    """Clamp raw values into the 16-bit two's-complement range (NaN stays
    NaN). Two ufuncs cost a third of np.clip on short vectors."""
    return np.minimum(np.maximum(raw, RAW_MIN), RAW_MAX)


def quantize(x, frac_bits=DEFAULT_FRAC_BITS):
    """Real value(s) -> raw fixed point, round-half-even, saturating.

    Total function: inputs beyond the range pin to the range bounds.
    """
    if not 0 <= frac_bits <= 15:
        raise ValueError(f"frac_bits must be in [0, 15], got {frac_bits}")
    scaled = np.rint(np.asarray(x, dtype=np.float64) * (1 << frac_bits))
    out = saturate(scaled).astype(np.int64)
    if np.isscalar(x) or np.ndim(x) == 0:
        return int(out)
    return out


def to_float(raw, frac_bits=DEFAULT_FRAC_BITS):
    """Raw fixed point -> real value(s)."""
    out = np.asarray(raw, dtype=np.float64) / (1 << frac_bits)
    if np.isscalar(raw) or np.ndim(raw) == 0:
        return float(out)
    return out


def div_round_even(num, den):
    """round-half-even of num/den for int64 arrays, den > 0 elementwise.
    The one rounding rule: a right shift by n is den = 1 << n."""
    q = num // den                      # floor
    rem = num - q * den
    twice = 2 * rem
    round_up = (twice > den) | ((twice == den) & ((q & 1) == 1))
    return q + round_up.astype(np.int64)


# ---------------------------------------------------------------------------
# Vector-ALU semantics (raw in, raw out, saturating): the one op table
# ---------------------------------------------------------------------------

def to_bits(a):
    """Raw values -> their 16-bit two's-complement word patterns."""
    return np.asarray(a, np.int64) & WORD_MASK


def from_bits(bits):
    """16-bit word patterns -> signed raw values."""
    bits = np.asarray(bits, np.int64) & WORD_MASK
    return np.where(bits >= 1 << 15, bits - (1 << 16), bits)


def _clipped(raw):
    """raw saturated, and the number of its elements that saturation moved."""
    out = saturate(raw)
    return out, int(np.count_nonzero(out != raw))


def _div_unclipped(a, b, frac_bits):
    """round-half-even a/b; division by zero lands one step past the range
    on the side of a's sign (0/0 is 0), so it saturates."""
    safe = np.where(b == 0, 1, b)
    sign = np.where(safe < 0, -1, 1)
    q = div_round_even((a << frac_bits) * sign, safe * sign)
    return np.where(b == 0, np.where(a > 0, RAW_MAX + 1,
                                     np.where(a < 0, RAW_MIN - 1, 0)), q)


# op name -> f(a, b, frac_bits) over int64 arrays -> (value, saturated
# element count). Unary ops ignore b. Shift counts are read as unsigned
# 16-bit words and clamped to 16 (shl) or 15 (shr). The transcendental ALU
# ops are ROM reads instead (LUT_FUNCTIONS below).
VECTOR_OPS = {
    "add": lambda a, b, f: _clipped(a + b),
    "sub": lambda a, b, f: _clipped(a - b),
    "mul": lambda a, b, f: _clipped(div_round_even(a * b, 1 << f)),
    "div": lambda a, b, f: _clipped(_div_unclipped(a, b, f)),
    "shl": lambda a, b, f: _clipped(a << np.minimum(to_bits(b), 16)),
    "shr": lambda a, b, f: (a >> np.minimum(to_bits(b), 15), 0),
    "and": lambda a, b, f: (from_bits(to_bits(a) & to_bits(b)), 0),
    "or": lambda a, b, f: (from_bits(to_bits(a) | to_bits(b)), 0),
    "not": lambda a, b, f: (from_bits(~to_bits(a)), 0),
    "min": lambda a, b, f: (np.minimum(a, b), 0),
    "max": lambda a, b, f: (np.maximum(a, b), 0),
    "relu": lambda a, b, f: (np.maximum(a, 0), 0),
}


# Scalar ops on one lane-uniform integer each: aluint (unsaturated result;
# the caller saturates it) and the brn conditions.
SCALAR_OPS = {"add": operator.add, "sub": operator.sub,
              "eq": lambda a, b: int(a == b), "gt": lambda a, b: int(a > b),
              "ne": lambda a, b: int(a != b)}
BRANCH_CONDS = {"eq": operator.eq, "ne": operator.ne, "gt": operator.gt,
                "ge": operator.ge, "lt": operator.lt, "le": operator.le}


def vector_op(op, a, b=0, frac_bits=DEFAULT_FRAC_BITS):
    """One vector-ALU op on raw operands -> (value, saturated element count)."""
    return VECTOR_OPS[op](np.asarray(a, np.int64), np.asarray(b, np.int64),
                          frac_bits)


def _value_of(op):
    def fx(a, b=0, frac_bits=DEFAULT_FRAC_BITS):
        return vector_op(op, a, b, frac_bits)[0]
    fx.__name__ = f"fx_{op}"
    return fx


# Single-op shorthands that return only the value.
(fx_add, fx_sub, fx_mul, fx_div, fx_shl, fx_shr, fx_and, fx_or, fx_not,
 fx_min_, fx_max_, fx_relu) = (_value_of(op) for op in (
    "add", "sub", "mul", "div", "shl", "shr", "and", "or", "not", "min",
    "max", "relu"))


# ---------------------------------------------------------------------------
# Word codec: raw values <-> base-16 Fixed16 words, 4 digits per word
# ---------------------------------------------------------------------------

def to_hex(raw):
    """Raw values -> their 16-bit two's-complement words as hex text."""
    return to_bits(raw).astype(">u2").tobytes().hex()


def from_hex(text):
    """Hex text of whole 4-digit words -> raw values as native int16."""
    try:
        data = bytes.fromhex(text)
    except ValueError:
        data = None
    if len(text) % 4 or data is None or 2 * len(data) != len(text):
        raise ValueError(f"not whole 4-digit hex words ({len(text)} "
                         f"characters)")
    return np.frombuffer(data, ">i2").astype(np.int16)


# ---------------------------------------------------------------------------
# ROM lookup tables for transcendental functions
# ---------------------------------------------------------------------------

LUT_FUNCTIONS = {
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "tanh": np.tanh,
    "log": np.log,
    "exp": np.exp,
}

# (lo, hi) input ranges chosen so outputs stay inside Q3.12 and the flat
# tails of the saturating functions are covered by the clamp behavior.
LUT_DEFAULT_RANGES = {
    "sigmoid": (-8.0, 8.0),
    "tanh": (-4.0, 4.0),
    "exp": (-8.0, 2.0),
    "log": (1.0 / 64.0, 8.0),
}


class LutTable:
    """2^k samples of a function over [lo, hi], one entry per input bin.

    Entry i holds the function at the midpoint of bin i, quantized to raw
    fixed point. Lookup clamps to the boundary entries outside [lo, hi]
    and reads the containing bin otherwise (a pure ROM read, no
    interpolation).
    """

    def __init__(self, name, frac_bits=DEFAULT_FRAC_BITS, bits=8):
        if name not in LUT_FUNCTIONS:
            raise ValueError(f"unknown LUT function {name!r}")
        lo, hi = LUT_DEFAULT_RANGES[name]
        self.name = name
        self.frac_bits = frac_bits
        self.bits = bits
        self.size = 1 << bits
        self.lo = lo
        self.hi = hi
        self.bin_width = (hi - lo) / self.size
        mids = lo + (np.arange(self.size) + 0.5) * self.bin_width
        self.entries = quantize(LUT_FUNCTIONS[name](mids), frac_bits)
        self.entries.flags.writeable = False    # ROM: shared by every reader

    def lookup(self, raw):
        """Raw fixed-point input(s) -> raw table entry of the containing bin."""
        x = np.asarray(raw, dtype=np.float64) / (1 << self.frac_bits)
        idx = np.floor((x - self.lo) / self.bin_width).astype(np.int64)
        idx = np.clip(idx, 0, self.size - 1)
        out = self.entries[idx]
        if np.isscalar(raw) or np.ndim(raw) == 0:
            return int(out)
        return out

    def error_bound(self):
        """Worst-case |table - exact| over [lo, hi], derived analytically.

        half-bin * max|f'| covers the midpoint sampling, plus half an LSB
        for entry quantization.
        """
        grid = np.linspace(self.lo, self.hi, 4 * self.size + 1)
        f = LUT_FUNCTIONS[self.name]
        if self.name == "sigmoid":
            s = f(grid)
            slope = np.max(s * (1 - s))
        elif self.name == "tanh":
            slope = np.max(1 - np.tanh(grid) ** 2)
        elif self.name == "exp":
            slope = np.exp(self.hi)
        else:  # log: steepest at lo
            slope = 1.0 / self.lo
        return self.bin_width / 2 * slope + 0.5 / (1 << self.frac_bits)


_ROMS = {}     # (frac_bits, bits) -> the tables built for it


def build_default_luts(frac_bits=DEFAULT_FRAC_BITS, bits=8):
    """The standard ROM contents: one table per transcendental function.
    Built once per (frac_bits, bits) and shared read-only by every
    caller."""
    key = (frac_bits, bits)
    if key not in _ROMS:
        _ROMS[key] = MappingProxyType({name: LutTable(name, frac_bits, bits)
                                       for name in LUT_FUNCTIONS})
    return _ROMS[key]
