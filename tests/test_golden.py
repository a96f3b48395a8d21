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
        '964bf84bffdf6f02cfa10d67376eaa4947c72fca07aa8cc4ba6866ed9ee89d9a',
        'dc80e7c9874b55da4c5a58ed34fc00020b33f8765447939ea9b976e51f676d86',
        '24b02cb0f9e878ec9d6d53822690fcc4fd4de53828f23e1f5a276302769a0161',
    ),
    'conv8x8': (
        '6c5a697b7e7ce1db6ed8a4e703b78221ac37fedf020742d59d0d0e7fe3d723b3',
        'd8efdcd044ed3f8fd355a31a585b237483f27bbef13a4b1882071febf48ef04b',
        '503ff9356222bc74202d928025078df50e2ef29493276332b5b94a2e555996be',
    ),
    'conv_loop': (
        'd8e99b5c8b2ec6af7ec012b38b0a6f5828fab7f980170f2b7dbf699baa8fcf22',
        '834bd68e701639c572eb55e98904b38f623aa63394b49bac9739fa6d6931d66b',
        '15c373c689f5dfa5f5277c0e193da7fa4ec157c442cd3ef947a6b9fe2b2a160f',
    ),
    'conv_loop/loop': (
        '462f13207c9e14e6c7cb4e655ab50f802aa2c9d2db2acc8c063b695ce68f20d8',
        '834bd68e701639c572eb55e98904b38f623aa63394b49bac9739fa6d6931d66b',
        '74a2d49bb5fe779525b39ba0f72a48fa530449224c2bf37110e3babc20bae706',
    ),
    'lstm128': (
        '5bf6e6d29dce509977b69cdb47dcd19ee36c25889199186000e55c1a8b94323c',
        '6229375791dfc5780f15b0af3c21867ea0a74afc3032fb4f2a3b05ef448e8512',
        'ba179920332620b1308533c869a19138f99ab5489d1e9980ba708b368f0c5f45',
    ),
    'lstm8': (
        'ed5ab804c12a7baeff922df5134442c6c3d109854c473997670396aa28c4874d',
        'b5f51a791ee877caf63e0e65f8d71f95426f8136d396278e19a6ed58363f50cd',
        '3594c833d439fbc87d11e1d684fd9370fb98dcb726f162fc1f4b2531ed8c1965',
    ),
    'mlp128': (
        'e2ab269d0aa9bb52ff4a487b2ecf17a94acda0c0944a3e6b7294733cb80b01e5',
        '5d213750cab0793a7b3b260d475b1958eba7ef81b645b051151c7faacd38663a',
        '8193ed4bf1f211d079545f7372440fe683fef83217e17e250f04158098c53a34',
    ),
    'mlp256': (
        'c036c510853d32156c73c1d75a29154464870dca04f99205065e642723412c15',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        '4546462077e59574388bce51cd8b20b316aad771cc484f084667575bf9047ff5',
    ),
    'mlp4': (
        'c0552394155601fc74408d16315ece251fba7f6feb2510e87b6af97339fdbf57',
        'e3a14bd5683be4bf604e071f11fbc25089520ee70daea90ce68b0f15d5ff227c',
        '9bcb3628fdcec0abbb085b17374c9e50e4498832cb666fd97722f5d74c728ca9',
    ),
    'mlp_l4': (
        'a65f6d90724e1fbaa3bee720ad294c41f2496cd9d3dcc63c3382b80cfcb47782',
        '46d5c6db94e2bc1ff0280cfa8d6cfb6685961b960afe02ae2ccc8e4ffd0fe51c',
        'e164a902925df01219a98e4052484adb6fc0eafb82b448d02fe2545b33bae765',
    ),
    'mvm_pair': (
        '8c1cd4363e22290082af7b0dcf75d22497ab5538daf106bc285e0e3bcc2532bb',
        'cbdd12be5c5243ae26cd0c2cb42e6fc0cf00c7b42e554c2144a191c4b5098b1f',
        '815e9ca23a377bf4823475de9ec33b170a8131b94846a81199cdc4a6e1fcf9b8',
    ),
    'vector': (
        'f539b27b2103df44c1053b05641a7467bd6a1be03f6b533fc2593f3348ae7072',
        'bf6e138c2e7b15140ca9d292abd43feca625862bde66719c0eab25d534a98aa1',
        '0506fa496a342f387b37b75ee29850f94df61201cf6af1718893351271b95861',
    ),
    'mlp512/4tiles': (
        '232ba95886148f67bd285fed845a7fe6bbc8339532392e232b14955856c72158',
        '6c5cf0b379b7380d91dbebe4bffe5e0b57b70ce4bdb9b1f543185cfe7bd1cfee',
        'b2bc219e2d5c54367dffd401e1a8e24ff03c1e94ae28206e29659e2f949d8ba1',
    ),
    'mlp256/naive_order': (
        '90169b9c613e71788c6ce14db1967793ce82702962e2c05e6f72980d07636d24',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        '77b5b46d2bf24285d75efb0c0c469435aac816b97b51e43b0b286cc851b50c3b',
    ),
    'mvm_pair/no_coalesce': (
        '4a3d0f96b5409f70e2478b51fa162a60d499d2fa0ce6c9244366f67accd47d68',
        'cbdd12be5c5243ae26cd0c2cb42e6fc0cf00c7b42e554c2144a191c4b5098b1f',
        'c79674ffa7d21ea152174136b14ac2cbf561e7864d5a03f417644f93be3eff29',
    ),
    'conv8x8/no_shuffle': (
        '587832d3166db36f687e2462f3c251fc8880a4651c4b4e753303c86a9bc41f6c',
        'd8efdcd044ed3f8fd355a31a585b237483f27bbef13a4b1882071febf48ef04b',
        '0644e7213ff23d0692518a92616bb52bb2f2e852508936ba233d2e9fd62cd23e',
    ),
    'mlp256/naive_partition': (
        'a200827df2c0077f2926b2ba1e16b97515fe5b7f4df2a96d9738e9c5a6386f4d',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        '41ddfdf0a479d7d5e2bde72ae9c9d2a8dbc0f47dddcf4a3ee3de3266f640d39b',
    ),
    'lstm8/xbar8': (
        '0392efc76054412f6ca14d9fa50948ab1bd73b3cc9cb58e106717e998017e426',
        'b5f51a791ee877caf63e0e65f8d71f95426f8136d396278e19a6ed58363f50cd',
        'd83a725ed68baefe4df4cbe536a618d636619da1c7ed7ff6d9779cf9f6257c82',
    ),
    'conv_c16/loop2': (
        '80c709bcea2cd9e432f58c38f4a0f567b223a8f75848183e3e729bce354945b4',
        'c8a6c1e5c3ed5e78b7287d8007e90af6df4c5827ff8c634f6e482204e1199aa6',
        '3487fee3a58399a80c7178ce765e4c71475d449fbbc9e32474fe23d0150163bd',
    ),
    'conv_c2/loop3_xbar8': (
        '0732465a768f0798cab9f38c26ee23549fbfc7438acc050c7463e25648bf20af',
        '19e5b4c762a6f284a24a98b84cb7d4bafd9abcc471d05506bf3dd753b678634c',
        '6954c4cd65ca78bc74e680994cb0f3c020aeb86c61c05bbabcfe2afdba195e8c',
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
        '7ab347b447d3b6696e5fa6e43a577fb70f3560a86c539b630d968cd0896cc3ba',
    (4, 0.057, 8, 0):
        'e42fc2b3c1c38a8000186c1e9b2553ebc7321d1fb60767df8a49ba8ad5991642',
    (1, 0.038, 3, 12):
        'b6974e2abdacc2a3cb2dbb1026eb71835924589210908059e044580108a5d894',
    (2, 0.0, 0, 9):
        'b351edbf71b759842f3b85ffb089b267b2e75df645f6ad0b1714399ba6eaff06',
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
