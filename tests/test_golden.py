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
        '607dab56e84027b8f4f71082d9dd09d95219092379d75cf7a2334987e303ad90',
        'dc80e7c9874b55da4c5a58ed34fc00020b33f8765447939ea9b976e51f676d86',
        'abdff717da23c8bc90092b2b56be3a3b4d0358646f24c636790c75b6702647e8',
    ),
    'conv8x8': (
        '7a2c8f4a933c77900f8ad3aca478d77f38006d375d0740d9a95d8be2e3c65f35',
        'd8efdcd044ed3f8fd355a31a585b237483f27bbef13a4b1882071febf48ef04b',
        'c871b92758e8770aa4039fdef7542bc153a96bfffca889b2f423ebb1f91c12d0',
    ),
    'conv_loop': (
        'd4076a0ed8617407bc6183e5654cc9691bc61ce9246756aa137d2632f643fc48',
        '834bd68e701639c572eb55e98904b38f623aa63394b49bac9739fa6d6931d66b',
        '8d176571961cb560a9188cff27e67d6206067543e9a2e9fccf8534361fd809e2',
    ),
    'conv_loop/loop': (
        '1399dfa61c5e072a2a20f4c501b543f1af296968592cdf691d8eb4c5e3c87522',
        '834bd68e701639c572eb55e98904b38f623aa63394b49bac9739fa6d6931d66b',
        'a06f2294f5b98e4b0bc959ff1f6417c097a464ba5c42e3695bb9ebc02569168c',
    ),
    'lstm128': (
        '09c481a7aa94e4e7e97d625f31fe9ba770b7813aefe21e16aba3329200ecbddf',
        '6229375791dfc5780f15b0af3c21867ea0a74afc3032fb4f2a3b05ef448e8512',
        '75a8d82e856767069e51cd6afac3cb761b8fecacb644140e617a51cdeeca2927',
    ),
    'lstm8': (
        'b0f64a2d51825cd8958061d3a23a1cd667f2be342332141cae40467345864016',
        'b5f51a791ee877caf63e0e65f8d71f95426f8136d396278e19a6ed58363f50cd',
        'b6731990aa7200fe84500f88494ad8897ae1621ae5c90dbfac03224f65a5d5da',
    ),
    'mlp128': (
        '1ba1a7ae6e02803e4993c4df9109ccfb30799ad54c053fc91190fc569996b4da',
        '5d213750cab0793a7b3b260d475b1958eba7ef81b645b051151c7faacd38663a',
        'cca88fd2e7b418ed4126f868c424f1d270fdd99fefaa95d61859f4a0e98857d5',
    ),
    'mlp256': (
        'b4c0a50155ee1a040d2866f0f972fb3e9211f1d1c48c650bc7018a6d8990e1d0',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        '11ac77643ba9f9910850a135b5cb817ff4c7932f2117e5c533a2fa1c7a7f9a99',
    ),
    'mlp4': (
        'df3518606f7e641b7441630ef03b99571b9775b362a0ff14ce714cbb71a6bddf',
        'e3a14bd5683be4bf604e071f11fbc25089520ee70daea90ce68b0f15d5ff227c',
        'e0ef7c61aff5ba62df20045610d32e4231912ea32378d4f6d4b4780e5b87b8b3',
    ),
    'mlp_l4': (
        '93bc9193946f03cb7a7e453081300dd650a40d5aa5f5076afce518ae4e55a314',
        '46d5c6db94e2bc1ff0280cfa8d6cfb6685961b960afe02ae2ccc8e4ffd0fe51c',
        '6822da8d23df9ce5a2c7d1eddeaba36fc0fa029a12a8e0f8dd4d352909db0f6d',
    ),
    'mvm_pair': (
        '41583803701748a18046181c4cfed2ada2db99f86a14964e14cd226a4f23444a',
        'cbdd12be5c5243ae26cd0c2cb42e6fc0cf00c7b42e554c2144a191c4b5098b1f',
        '0655f6fa3a9dbc724ced9cfb9579b36505f77064b16897c240d9e1405b18270c',
    ),
    'vector': (
        'e12729edc20bd9a0ee6d8c52b7b64a44adf588bb30fe20318e00e0ae0587d97e',
        'bf6e138c2e7b15140ca9d292abd43feca625862bde66719c0eab25d534a98aa1',
        'c96a38e36ea855218831b0ef69448fc98f917471fca6b9fe966edbadfbe02783',
    ),
    'mlp512/4tiles': (
        '8858f58b9415dcbd4abb51bf34f2c185f2150c2b6d2f2821d2af337cccd74b98',
        '6c5cf0b379b7380d91dbebe4bffe5e0b57b70ce4bdb9b1f543185cfe7bd1cfee',
        '0d75d141c2e856ae2c1fdf0d25a0256deef3a929e8e0d9b06384faa195e6d230',
    ),
    'mlp256/naive_order': (
        '06aeac49f9f084f9798d062ecc318c0e942d3fcaa12940a8d33b3bccbc4afa17',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        'afcfb509ba62ea95c0a049dcf8c575b339dbae89600ac8807b013882dc831ec5',
    ),
    'mvm_pair/no_coalesce': (
        '2658513b0f650fa16a542ad747f0bd8b59a8e14be3c6c4a00bce7b1dcce81c4e',
        'cbdd12be5c5243ae26cd0c2cb42e6fc0cf00c7b42e554c2144a191c4b5098b1f',
        '883c0f326f8b1b5ee24c914ebd756d26c7494db29e79ece5c8e2b69785feba68',
    ),
    'conv8x8/no_shuffle': (
        '1d36cfb8161c221607c2acd895e1d6fa9da639c2e9d2931379dace73f5adf27e',
        'd8efdcd044ed3f8fd355a31a585b237483f27bbef13a4b1882071febf48ef04b',
        '13d63070ad7f55d9f20f5af7abe8ab0f459712fa8264b1e1cf856cc8398f4368',
    ),
    'mlp256/naive_partition': (
        'b6ff8be6c131de7f86e44d05cf4af0014d1ab0f09de290c99505008e81942e79',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        'c42ca3ac1a8c6dacac65cfbd965416c0ccb69dcb8e7d0df5cabed44c9cbe4bda',
    ),
    'lstm8/xbar8': (
        '65032bbbc63ae4dbad620015c1d052562c49362aeacb4b39b32c4811790573ce',
        'b5f51a791ee877caf63e0e65f8d71f95426f8136d396278e19a6ed58363f50cd',
        '3c1cc10348bd4d03995454ddd7088c7f472b137179ecb3938efe848396c5cb9e',
    ),
    'conv_c16/loop2': (
        '00e4d06e0cdfce8896d8f5426427a95a3a9ca54ed770af6489021a87205fb504',
        'c8a6c1e5c3ed5e78b7287d8007e90af6df4c5827ff8c634f6e482204e1199aa6',
        'ac3cc82da0d45b37a3705345f2b1cca515215e2e5156d773bace5898c760a827',
    ),
    'conv_c2/loop3_xbar8': (
        'ec180e3670ee1179a0de2cd233aa5e5a783e8803ddccb80a391bc88fae01feaa',
        '19e5b4c762a6f284a24a98b84cb7d4bafd9abcc471d05506bf3dd753b678634c',
        '8804477c59e200b75386663a85da6ea8da2919d76290026f74d58b89e2bb8593',
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
        '7b84267de757a399a18541972deb53e6c69efceb93894301d6a4a709992b6056',
    (4, 0.057, 8, 0):
        '68694a59a1983c883f8cb101e478daadc9d4c001922c0ad9535d8ccfbf0ce964',
    (1, 0.038, 3, 12):
        'f5167d09b2417a0bc3f64cc53338cad4667fd021954313eba3c5d1f4abdbbb95',
    (2, 0.0, 0, 9):
        '1048943c0e80849b784c10941657293b4259834c46d9ae6f7a6c14f80781a1c0',
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
