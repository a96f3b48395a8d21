"""MachineConfig refuses, naming the field, every value that the model of
the machine cannot mean."""

import pytest

from xbarsim.machine import ConfigError, MachineConfig, parse_config

POWER = MachineConfig().power_mw


def _case(message, **overrides):
    return pytest.param(overrides, message, id=",".join(
        f"{k}={v}" for k, v in overrides.items()))


@pytest.mark.parametrize("overrides, message", [
    _case("xbar_dim", xbar_dim=0),
    _case("xbar_dim", xbar_dim=256),
    *(_case(f"^{name} must be >= 1$", **{name: 0})
      for name in ("mvmus_per_core", "cores_per_tile", "tiles", "vfu_lanes",
                   "num_fifos", "fifo_depth", "dmem_words", "mvm_cycles")),
    _case("^mvm_cycles must be >= 1$", mvm_cycles=-1),
    _case("5-bit subop field", mvmus_per_core=6),
    _case("frac_bits", frac_bits=16),
    _case("^bits_per_device: ", bits_per_device=3),
    _case("^register_size: register space 4512 exceeds", register_size=4000),
    _case("dmem_words", dmem_words=4097),
    *(_case(f"^{name} must be >= 0$", **{name: value})
      for name, value in (("register_size", -1), ("adc_bits", -3),
                          ("noise_sigma", -0.1), ("seed", -1),
                          ("hop_cycles", -1), ("mode_switch_cycles", -2),
                          ("mvm_nj_per_mvmu", -43.97))),
    *(_case(r"^lut_bits must be in \[1, 16\]: ROM inputs are 16-bit words$",
            lut_bits=bits) for bits in (-1, 0, 17)),
    _case("^clock_ghz must be > 0$", clock_ghz=0),
    _case("^clock_ghz must be > 0$", clock_ghz=-1.0),
    pytest.param({"power_mw": {**POWER, "vfu": -1.9}},
                 r"^power\.vfu must be >= 0$", id="power.vfu=-1.9"),
])
def test_a_value_outside_its_limits_is_a_config_error(overrides, message):
    with pytest.raises(ConfigError, match=message):
        MachineConfig(**overrides)


def test_each_limit_admits_its_bound():
    MachineConfig(mvm_cycles=1, register_size=0, adc_bits=0, noise_sigma=0.0,
                  seed=0, hop_cycles=0, mode_switch_cycles=0, clock_ghz=1e-3,
                  mvm_nj_per_mvmu=0.0, lut_bits=1,
                  power_mw=dict.fromkeys(POWER, 0.0))
    MachineConfig(lut_bits=16)


@pytest.mark.parametrize("power, message", [
    ({"vfu": 1.0}, r"^power_mw: missing rails \['attr', 'bus', "),
    ({**POWER, "vfuu": 3.0}, r"^power_mw: unknown rails \['vfuu'\]$"),
    ({k: v for k, v in POWER.items() if k != "net"},
     r"^power_mw: missing rails \['net'\]$"),
], ids=["one rail", "misspelt rail", "no net"])
def test_power_must_name_exactly_the_default_rails(power, message):
    with pytest.raises(ConfigError, match=message):
        MachineConfig(tiles=1, power_mw=power)


@pytest.mark.parametrize("text, message", [
    ("power.vfuu=3", r"^power_mw: unknown rails \['vfuu'\]$"),
    ("power_mw=3", r"^line 1: unknown config key 'power_mw'$"),
    ("seed=1\ntiles=1.5", r"^line 2: tiles must be of type int, got '1\.5'$"),
    ("power.vfu=abc", r"^line 1: power\.vfu must be of type float, got 'abc'$"),
    ("noise_sigma=lots", r"^line 1: noise_sigma must be of type float, got 'lots'$"),
    ("# geometry\ntiles 1", r"^line 2: expected key=value, got 'tiles 1'$"),
    ("tiles=", r"^line 1: expected key=value, got 'tiles='$"),
], ids=["unknown rail", "power_mw", "float for int", "power word",
        "float word", "no =", "no value"])
def test_parse_config_names_an_unknown_rail_and_a_value_not_a_number(text,
                                                                     message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


@pytest.mark.parametrize("word", ["ideal", "none", "IDEAL"])
def test_parse_config_skips_comments_and_blank_lines_and_reads_an_ideal_adc(
        word):
    cfg = parse_config(f"# a 9-bit ADC first\n\nadc_bits=9\n  \n"
                       f"adc_bits={word}  # then none\ntiles=1\n",
                       MachineConfig(adc_bits=4))
    assert (cfg.adc_bits, cfg.tiles) == (0, 1)


@pytest.mark.parametrize("overrides, message", [
    _case(r"^num_fifos must be <= 32: a fifo id lives in the 5-bit subop",
          num_fifos=33),
    _case(r"^tiles must be <= 4096: a send's target tile lives in a 12-bit",
          tiles=4097),
])
def test_more_fifos_or_tiles_than_the_isa_can_name_are_refused(overrides,
                                                               message):
    with pytest.raises(ConfigError, match=message):
        MachineConfig(**overrides)


def test_the_isa_names_32_fifos_and_4096_tiles():
    MachineConfig(num_fifos=32, tiles=4096)
