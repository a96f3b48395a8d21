"""Golden hashes: refactors must keep emitted bytes and reports identical.

Each case pins the sha256 of the container bytes (`container.save`), of
the model JSON (`graph.to_json`) and of the run report
(`RunReport.to_dict`, serialised with sorted keys). A change to any of
them is a change in behaviour and must be deliberate.

A second table pins the non-ideal numerics: run reports of the trained
tiny classifier under write noise and ADCs, with its eval points as
lanes, and `crossbar_mvm` outputs of one seeded block at each cell
precision, with and without noise and ADC, batched and unbatched.

To print both tables for the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json

import numpy as np
import pytest

from xbarsim import container, crossbar as xb, graph as gr, models
from xbarsim.compiler import CompileOptions, compile_model
from xbarsim.machine import MachineConfig
from xbarsim.simulator import Machine, run


def _sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _cases():
    """(name, model builder, machine config, compile options) per case."""
    ex, mc = models.EXAMPLES, models.default_config_for
    loop = CompileOptions(conv_loop=True)
    for name in sorted(ex):
        yield name, ex[name], mc(name), CompileOptions()
        if name == "conv_loop":
            yield "conv_loop/loop", ex[name], mc(name), loop
    yield ("mlp512/4tiles", lambda: models.mlp_model(512),
           MachineConfig(tiles=4), CompileOptions())
    # ablation paths: naive order, no coalescing, no input shuffle, naive
    # partition, and multi-MVMU coalesced groups at a narrow crossbar
    yield ("mlp256/naive_order", ex["mlp256"], mc("mlp256"),
           CompileOptions(naive_order=True))
    yield ("mvm_pair/no_coalesce", ex["mvm_pair"], mc("mvm_pair"),
           CompileOptions(coalesce=False))
    yield ("conv8x8/no_shuffle", ex["conv8x8"], mc("conv8x8"),
           CompileOptions(input_shuffle=False))
    yield ("mlp256/naive_partition", ex["mlp256"], mc("mlp256"),
           CompileOptions(naive_partition=True, seed=3))
    yield ("lstm8/xbar8", ex["lstm8"], MachineConfig(xbar_dim=8, tiles=2),
           CompileOptions())
    # loop bodies whose window spans two MVMUs, and three MVMUs with a
    # feeder that spills
    yield ("conv_c16/loop2", lambda: models.conv_model(
        side=4, channels=16, filters=8, seed=3, pixel_outputs=True),
        MachineConfig(tiles=2), loop)
    yield ("conv_c2/loop3_xbar8", lambda: models.conv_model(
        side=4, channels=2, filters=2, seed=3, pixel_outputs=True),
        MachineConfig(xbar_dim=8, mvmus_per_core=3, tiles=1), loop)


def _build(case):
    """Compile a case: (graph, inputs, machine config, program)."""
    _, make, cfg, opts = case
    g, inputs = make()
    prog, _ = compile_model(g, cfg, opts)
    return g, inputs, cfg, prog


def _hashes(case):
    g, inputs, cfg, prog = _build(case)
    report = run(Machine(cfg, prog), inputs)
    return (_sha(container.save(prog)), _sha(gr.to_json(g)),
            _sha(json.dumps(report.to_dict(), sort_keys=True)))


GOLDEN = {
    'cnn_small': (
        '3110c3686f80d296f1a92995b6bd5077e82c26c157487e76c9e9151499eeb229',
        'dc80e7c9874b55da4c5a58ed34fc00020b33f8765447939ea9b976e51f676d86',
        '67b8003a8010ae9d25dcd4c231b40ae458ff8829fa0c6f4b483f4e5b622c114c',
    ),
    'conv8x8': (
        'ed9a4f25e0b01b9da1629e7afe7cd296db10670abb77631e4dbfb0714a6b152d',
        'd8efdcd044ed3f8fd355a31a585b237483f27bbef13a4b1882071febf48ef04b',
        '84902ac400db0b0e43c02e767a5b87b248cdeed8b9a95524c8db7ea10f5fd42c',
    ),
    'conv_loop': (
        '4700a33d57db051196ae2d83490fbb7be765c43ada2d5d615cafc7b4b2d2996d',
        '834bd68e701639c572eb55e98904b38f623aa63394b49bac9739fa6d6931d66b',
        '89be1dc609d02d648f2a06e56f7314dab3e5f5c676e4fff4080031425102fb67',
    ),
    'conv_loop/loop': (
        'dcae8961b4b9a65350921d6b1e6ecee350d2b36ee6a6be05afd514dac3b5e01e',
        '834bd68e701639c572eb55e98904b38f623aa63394b49bac9739fa6d6931d66b',
        '29ebfcded0b3da8f9902c5eb1eeb2553c399ec7b4d8b332eed834b724190a674',
    ),
    'lstm128': (
        'de4e1883318604d9756933cf4d18ddae4bba9c7650b2f402754b11772465e597',
        '6229375791dfc5780f15b0af3c21867ea0a74afc3032fb4f2a3b05ef448e8512',
        '3d16acc080f1a6969182b7b6665bfdd7bb523e172940a2b5a02b951853f0e50c',
    ),
    'lstm8': (
        '6ec7f7e7d4c1d992cce105f5a80f3d72eeb1837edcc6937fa895c527303646e0',
        'b5f51a791ee877caf63e0e65f8d71f95426f8136d396278e19a6ed58363f50cd',
        '843d51138435337c910200d976a7a2de167e711b25a66b0dc709e7c83ab41b25',
    ),
    'mlp128': (
        'd6e60c6a1ba64a9c0ad3d84cee89b028b37822ed599bfc4b3744d5104b0c4f27',
        '5d213750cab0793a7b3b260d475b1958eba7ef81b645b051151c7faacd38663a',
        'd09c153c70de958da6e40f7ef3091f69d221d4e61a6579452f3888ab8612a41f',
    ),
    'mlp256': (
        '64ed5649e14d5fb1f76c43729c08a81bb235d5a94b701eaa19b486e58499ab08',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        'b6d3cf3e73d258b1a8ca23fc4031ac7cf4d18dc521a0af361d28c747774ea2b1',
    ),
    'mlp4': (
        'b4fdba8544157c80f8dea1a989d6d60d1dd2f69341dcc85ae5e49a7f202e3cf5',
        'e3a14bd5683be4bf604e071f11fbc25089520ee70daea90ce68b0f15d5ff227c',
        '31dd432ae2fd711b81647ab5412498b3adc9fd626b211dca3f4601dc8870c6c8',
    ),
    'mlp_l4': (
        'b4ae86b086ebc1ca748f156b96a2b254960a69ed16e92d6b66af1224dc1f6894',
        '46d5c6db94e2bc1ff0280cfa8d6cfb6685961b960afe02ae2ccc8e4ffd0fe51c',
        '2637b13cd4617b376fefdfa1cc7b90bcab11699450106f78850545c1771b0b69',
    ),
    'mvm_pair': (
        '709b3d4274ec19c0588e33557b00808848a85f47f628be7a83999e0ed2c4b90e',
        'cbdd12be5c5243ae26cd0c2cb42e6fc0cf00c7b42e554c2144a191c4b5098b1f',
        '253b2d34f2d61b550b51f115f299776a5e02a121dda4f4d5d1fa2ecdf9290798',
    ),
    'vector': (
        'f539b27b2103df44c1053b05641a7467bd6a1be03f6b533fc2593f3348ae7072',
        'bf6e138c2e7b15140ca9d292abd43feca625862bde66719c0eab25d534a98aa1',
        '5c684a3d1d5c7614efd4a785686e83031114e303d517f8e01e69b87307a70f51',
    ),
    'mlp512/4tiles': (
        '67ca8662894120912c6d4576a409f1aca8bad068d44efa639e4df84a05618e04',
        '6c5cf0b379b7380d91dbebe4bffe5e0b57b70ce4bdb9b1f543185cfe7bd1cfee',
        'b773aceeaf3af6770d2f73bd5ae56e4dc551566fef68ab4531473c6487fc82f2',
    ),
    'mlp256/naive_order': (
        'ccdf970ed4c40f2e4d70ea729da0b6c575d3142eb581110273f2a0cdffa426d4',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        '3c43d2f45ab503b6acf847c201282556948ea8007063976c489e2fbf65f014b1',
    ),
    'mvm_pair/no_coalesce': (
        'fd55d60a91b6f618580a903e2b0f4dfe6abffe23dc54799bf40d360831bfb6c4',
        'cbdd12be5c5243ae26cd0c2cb42e6fc0cf00c7b42e554c2144a191c4b5098b1f',
        '7f38f7b24dd4c78e82b1b43661a20410a325a64082e91f171f5cdb5edc0d3f4b',
    ),
    'conv8x8/no_shuffle': (
        '6c008865a1841cb00ab1b9530f1f3c37daa560f17710f7b58ebe6079d7e73781',
        'd8efdcd044ed3f8fd355a31a585b237483f27bbef13a4b1882071febf48ef04b',
        '2d7fce5ea4677ea50d037a410e8b1d6b1868ffb23f7da2fc7c740572de5c3e00',
    ),
    'mlp256/naive_partition': (
        '3a120aba46155f3bcfbed79c5d1c29486f5b6cb6b8bc578e98694167faad27e7',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        '98da2d292b2e8baecf9c7f089784e09260bf85c51160210fac226304ff881e57',
    ),
    'lstm8/xbar8': (
        '0b589ac6cd04c92b1b6570160c4f17990c806c7414669fd65ebb0880f191c902',
        'b5f51a791ee877caf63e0e65f8d71f95426f8136d396278e19a6ed58363f50cd',
        '19a0ed0abf40fe4f8649fc231b583751b24b860c7639e237410ddad21a7ba43b',
    ),
    'conv_c16/loop2': (
        '8073bd088391694d67b89f3949a174dc2eb627fa84c48ca2dec75c468dca00e6',
        'c8a6c1e5c3ed5e78b7287d8007e90af6df4c5827ff8c634f6e482204e1199aa6',
        '51fbb0840a16c1824d0be4a234613424d2f0bee9e4cd035ca503d90682a4123a',
    ),
    'conv_c2/loop3_xbar8': (
        'e8c0e068545930fcde8971f5bf2faacfed2117e13edb6d51f3bf8358fcf04f4e',
        '19e5b4c762a6f284a24a98b84cb7d4bafd9abcc471d05506bf3dd753b678634c',
        'b7d28c42456e9d4c2bc9e1ddd0062755cee09cda86e620616da42a76ffd5e8d2',
    ),
}


@pytest.mark.parametrize("case", list(_cases()), ids=[c[0] for c in _cases()])
def test_golden_bytes(case):
    assert _hashes(case) == GOLDEN[case[0]]


# (bits per device, noise sigma, noise seed, ADC bits); the last point is
# Defect B: a 9-bit ADC and no noise
NOISY_POINTS = ((2, 0.017, 5, 0), (4, 0.057, 8, 0), (1, 0.038, 3, 12),
                (2, 0.0, 0, 9))


def _noisy_report_hash(point):
    bits, sigma, seed, adc = point
    g, points, _ = models.trained_tiny_classifier()
    cfg = MachineConfig(tiles=1, bits_per_device=bits, noise_sigma=sigma,
                        seed=seed, adc_bits=adc)
    prog, _ = compile_model(g, cfg)
    lanes = {"x": np.stack([p["x"] for p in points])}
    report = run(Machine(cfg, prog), lanes)
    return _sha(json.dumps(report.to_dict(), sort_keys=True))


def _mvm_cases():
    """(name, bits, sigma, adc bits, batched) per crossbar_mvm case."""
    for bits in (1, 2, 4):
        for sigma in (0.0, 0.03):
            for adc in (None, 9, 14):
                if sigma or adc:    # else the ideal MVM the table above pins
                    for batched in (False, True):
                        yield (f"bits{bits}/sigma{sigma}/adc{adc}/"
                               + ("batched" if batched else "single"),
                               bits, sigma, adc, batched)


def _mvm_hash(case):
    _, bits, sigma, adc, batched = case
    rng = np.random.default_rng(2016)
    w = rng.integers(-32768, 32768, size=(128, 100))
    x = rng.integers(-512, 512, size=(5, 128))
    m = xb.apply_write_noise(xb.slice_weights(w, 128, bits), sigma, seed=7)
    out = xb.crossbar_mvm(m, x if batched else x[0], adc)
    return _sha(np.ascontiguousarray(out, dtype="<i8").tobytes())


NOISY_GOLDEN = {
    (2, 0.017, 5, 0):
        '035e93661999c33a0667428832bdd1da92e98b361d941a4671d26541d759a2ec',
    (4, 0.057, 8, 0):
        '7f05e8e7ff160c280c693a5d847be760b46a14bace86019b7bdb073a6abdae11',
    (1, 0.038, 3, 12):
        '82c8bf7a362ec39f298f190a9775c9b8c05e9b6e5f7e951e67423c318c3f9b97',
    (2, 0.0, 0, 9):
        '2759c38e46372f7b2c828fb23420c6b4db3b76ece74cf3570b36e04b8036cc02',
    'bits1/sigma0.0/adc9/single':
        '2a2710db1769f125f55e56587a4beff55afb5fd5aefeeea4a05a0b3adc5c2528',
    'bits1/sigma0.0/adc9/batched':
        'f82f99d2455ddda1dce7ee9e37fe41f78d33bf0125cd4e9ad385292d5f13b1ba',
    'bits1/sigma0.0/adc14/single':
        '2e73e0f032358cc7279ea032847474516f80ff5c59766477f80ed7b35d7fa4b1',
    'bits1/sigma0.0/adc14/batched':
        '78c38e604742b33b1c9d449e96cd391e7e75cc890a518cf8cba78a3ee884557f',
    'bits1/sigma0.03/adcNone/single':
        '92c67bb2da6c86c8a2a766059a717722d8b9078414a466b7178fdefb11082808',
    'bits1/sigma0.03/adcNone/batched':
        'a03fd4a6253766b0de17acfd77769189712f12e55eefc11894f9e869c495a05f',
    'bits1/sigma0.03/adc9/single':
        '1dd13e7974449677e9efdff528b8e7e13b1447c46c4a6a2751b290109c607981',
    'bits1/sigma0.03/adc9/batched':
        '98c43ccf286a22eb798107391b141e030bca4f46a9f952936972981ebbd988b7',
    'bits1/sigma0.03/adc14/single':
        '7712de3e2e3ac4ea716e15aff565304de5d15668b6491d3025d09b5f1a062b58',
    'bits1/sigma0.03/adc14/batched':
        'cadf9dc36755db031ced35e3a2618ce609e720c3c27b30cfde5daa51fdd85287',
    'bits2/sigma0.0/adc9/single':
        '3420456d58da2d48c91b392b71bd2a73965d3dad43947c9461d48c584322ee7f',
    'bits2/sigma0.0/adc9/batched':
        '9229243455cddbc437f9e92f0861791588eb2f103d524c3085106619ec38e165',
    'bits2/sigma0.0/adc14/single':
        '4d2f1f34096d18bc2d51dbf4e765e7e43548ef0758dda1ece9db8f0272344bd6',
    'bits2/sigma0.0/adc14/batched':
        'c402f58d2fbde0111767e06ed136311f99114d4d6d2f24a06029825cf0be47c3',
    'bits2/sigma0.03/adcNone/single':
        'bd2ae71a634bf2f87082b018913dae60261a6738481f094fbe9afb02be9c41cf',
    'bits2/sigma0.03/adcNone/batched':
        '88b55a79b731faeed33b5770bb0a4619be93541d3b352342c9fa73fe411615c9',
    'bits2/sigma0.03/adc9/single':
        'faedd6958793e4ba29ef4f5ae3e221862b60d1408e8696929913e3efc8c481c9',
    'bits2/sigma0.03/adc9/batched':
        '254b3ac63b26352677b0dc49a9f1d9230bd71ffc0afc73079ebae7a55dd7fcac',
    'bits2/sigma0.03/adc14/single':
        '3f63c194bbbed4a85383846a8fa099666656d237f8c2b2732e3f17db975cbdaf',
    'bits2/sigma0.03/adc14/batched':
        '1b9ae7345674bf964119ba16eafb452278e69c79eacaefd0f753599348f89a08',
    'bits4/sigma0.0/adc9/single':
        '3433372e6d6315c7296211df76a0d47906d8065ada8dd690940d4e92483d7c5d',
    'bits4/sigma0.0/adc9/batched':
        'e5b16f35f78bdc4337b5449ca7eeb7563a9b0a1d3a6d1695221f28f81355edd9',
    'bits4/sigma0.0/adc14/single':
        'cb539d0415f272b516ee3741075f39ccd25d847bc454621450bd405c6b9ca863',
    'bits4/sigma0.0/adc14/batched':
        '05c2980be4b3734af8f1b400cb10666ea2b0592e3f7b7aa9ca26d0c97f78b6c7',
    'bits4/sigma0.03/adcNone/single':
        'eb99d09ea3e5d650e1d92d5bbe65382764919b5722d9949adb5f1784af17ef39',
    'bits4/sigma0.03/adcNone/batched':
        '77d3d5c0754f5dda2184ef94c58e2b4bae8065ae00cee18a652cd6a2cf86535e',
    'bits4/sigma0.03/adc9/single':
        'a606f3964986ff27dd1613629b632977b21ecd332329c06cc4cfe9a69cf2bec7',
    'bits4/sigma0.03/adc9/batched':
        'b414d3a23f70321e5d746ccc255bb78978ada37e86f5b12c023db55040456f0e',
    'bits4/sigma0.03/adc14/single':
        '43ecb52d4ad1d8e3ff7636671f2ee57a5646678468c9165da42536e06d172daa',
    'bits4/sigma0.03/adc14/batched':
        '96b3c603b12f79510de9c0ef549f978a37646579d8d89305c0bac254a84fad83',
}


@pytest.mark.parametrize("point", NOISY_POINTS, ids=str)
def test_golden_noisy_reports(point):
    assert _noisy_report_hash(point) == NOISY_GOLDEN[point]


@pytest.mark.parametrize("case", list(_mvm_cases()),
                         ids=[c[0] for c in _mvm_cases()])
def test_golden_crossbar_mvm(case):
    assert _mvm_hash(case) == NOISY_GOLDEN[case[0]]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in _cases():
        print(f"    {case[0]!r}: (")
        for h in _hashes(case):
            print(f"        {h!r},")
        print("    ),")
    print("}")
    print("NOISY_GOLDEN = {")
    for point in NOISY_POINTS:
        print(f"    {point!r}:\n        {_noisy_report_hash(point)!r},")
    for case in _mvm_cases():
        print(f"    {case[0]!r}:\n        {_mvm_hash(case)!r},")
    print("}")
