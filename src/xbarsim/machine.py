"""Hardware configuration: geometry, latency, and power parameters.

Defaults describe one node of the modeled tile at 1 GHz: 128x128 crossbars,
2 MVMUs per core, 8 cores per tile, 16 receive FIFOs of depth 2. One MVM
instruction takes 2304 cycles and costs 43.97 nJ per activated MVMU; other
component energies are derived as component power x occupancy cycles.
"""

from dataclasses import dataclass, field, fields, replace

from .crossbar import slices_for_bits
from .fixedpoint import DEFAULT_FRAC_BITS
from .isa import FIELD_MAX, INSTR_BYTES, SUBOP_MAX, WIDTH_MAX, IsaError, \
    RegisterSpace


class ConfigError(Exception):
    pass


# Power (mW) of each rail; a config gives exactly these rails.
DEFAULT_POWER_MW = {
    "control": 0.25, "core_imem": 1.52, "regfile": 0.477, "vfu": 1.90,
    "sfu": 0.055, "tile_ctrl": 0.5, "tile_imem": 1.91, "dmem": 17.66,
    "attr": 2.77, "bus": 7.0, "rxbuf": 9.14, "net": 570.63}


@dataclass
class MachineConfig:
    # Geometry
    xbar_dim: int = 128
    mvmus_per_core: int = 2
    cores_per_tile: int = 8
    tiles: int = 2
    vfu_lanes: int = 1
    register_size: int = 0          # 0 -> default 2 * xbar_dim * mvmus_per_core
    dmem_words: int = 4096          # tile data memory, 16-bit words
    core_imem_bytes: int = 4096
    tile_imem_bytes: int = 8192
    num_fifos: int = 16
    fifo_depth: int = 2             # messages per FIFO
    flit_bits: int = 32

    # Numerics
    frac_bits: int = DEFAULT_FRAC_BITS
    bits_per_device: int = 2
    adc_bits: int = 0               # 0 -> ideal ADC (bypass)
    noise_sigma: float = 0.0
    seed: int = 0
    lut_bits: int = 8

    # Timing (cycles; clock converts to ns)
    clock_ghz: float = 1.0
    mvm_cycles: int = 2304
    hop_cycles: int = 4
    mode_switch_cycles: int = 2

    # Energy: paper-anchored MVM figure; everything else power x time.
    mvm_nj_per_mvmu: float = 43.97
    power_mw: dict = field(default_factory=lambda: dict(DEFAULT_POWER_MW))

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not 1 <= self.xbar_dim <= WIDTH_MAX:
            raise ConfigError(f"xbar_dim must be in [1, {WIDTH_MAX}] (8-bit "
                              f"vec-width field)")
        for name in ("mvmus_per_core", "cores_per_tile", "tiles", "vfu_lanes",
                     "num_fifos", "fifo_depth", "dmem_words", "mvm_cycles"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("register_size", "adc_bits", "noise_sigma", "seed",
                     "hop_cycles", "mode_switch_cycles"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not self.clock_ghz > 0:
            raise ConfigError("clock_ghz must be > 0")
        given, rails = self.power_mw.keys(), DEFAULT_POWER_MW.keys()
        for what, names in (("unknown", given - rails), ("missing", rails - given)):
            if names:
                raise ConfigError(f"power_mw: {what} rails {sorted(names)}")
        for k, v in self.power_mw.items():
            if v < 0:
                raise ConfigError(f"power.{k} must be >= 0")
        if self.mvmus_per_core > SUBOP_MAX.bit_length():
            raise ConfigError("mvmu mask lives in the 5-bit subop field")
        if self.num_fifos > SUBOP_MAX + 1:
            raise ConfigError(f"num_fifos must be <= {SUBOP_MAX + 1}: a fifo "
                              f"id lives in the 5-bit subop field")
        if self.tiles > FIELD_MAX + 1:
            raise ConfigError(f"tiles must be <= {FIELD_MAX + 1}: a send's "
                              f"target tile lives in a 12-bit field")
        try:
            slices_for_bits(self.bits_per_device)
        except ValueError as e:
            raise ConfigError(f"bits_per_device: {e}") from e
        if not 0 <= self.frac_bits <= 15:
            raise ConfigError("frac_bits must be in [0, 15]")
        if self.dmem_words > FIELD_MAX + 1:
            raise ConfigError("dmem_words beyond 12-bit address operands")
        try:
            self.regspace()
        except IsaError as e:
            raise ConfigError(f"register_size: {e}") from e

    @property
    def general_regs(self):
        if self.register_size:
            return self.register_size
        return 2 * self.xbar_dim * self.mvmus_per_core

    def regspace(self):
        return RegisterSpace(self.xbar_dim, self.mvmus_per_core, self.general_regs)

    @property
    def words_per_flit(self):
        return max(1, self.flit_bits // 16)

    @property
    def core_imem_capacity(self):
        return self.core_imem_bytes // INSTR_BYTES

    @property
    def tile_imem_capacity(self):
        return self.tile_imem_bytes // INSTR_BYTES

    @property
    def cycle_ns(self):
        return 1.0 / self.clock_ghz

    def energy_nj(self, component, cycles):
        """Power (mW) x busy time (ns) = pJ; returned in nJ."""
        return self.power_mw[component] * cycles * self.cycle_ns * 1e-3

    def with_overrides(self, **kw):
        return replace(self, **kw)

    # -- key=value config file round trip ---------------------------------

    def to_text(self):
        lines = []
        for f in fields(self):
            if f.name == "power_mw":
                for k, v in self.power_mw.items():
                    lines.append(f"power.{k}={v}")
            else:
                lines.append(f"{f.name}={getattr(self, f.name)}")
        return "\n".join(lines) + "\n"


# The config fields the compiler never reads: they change how a Machine
# programs a chip, not the program or its Chip, which CHIP_FIELDS fix.
RUN_ONLY_FIELDS = ("noise_sigma", "seed", "adc_bits", "power_mw",
                   "bits_per_device")
CHIP_FIELDS = tuple(f.name for f in fields(MachineConfig)
                    if f.name not in RUN_ONLY_FIELDS)
_FIELD_TYPES = {f.name: f.type for f in fields(MachineConfig)
                if f.name != "power_mw"}     # set by power.<rail> lines


def parse_config(text, base=None):
    """Parse key=value lines over a base config; '#' starts a comment."""
    cfg = base or MachineConfig()
    kw = {}
    powers = dict(cfg.power_mw)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not val:
            raise ConfigError(f"line {ln}: expected key=value, got {raw!r}")
        into, name, kind = kw, key, _FIELD_TYPES.get(key)
        if key.startswith("power."):
            into, name, kind = powers, key[len("power."):], float
        elif kind is None:
            raise ConfigError(f"line {ln}: unknown config key {key!r}")
        if key == "adc_bits" and val.lower() in ("ideal", "none"):
            val = "0"
        try:
            into[name] = kind(val)
        except ValueError:
            raise ConfigError(f"line {ln}: {key} must be of type "
                              f"{kind.__name__}, got {val!r}") from None
    kw["power_mw"] = powers
    return cfg.with_overrides(**kw)


def load_config(path, base=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base)
