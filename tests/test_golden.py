"""Golden hashes: refactors must keep emitted bytes and reports identical.

Each case pins the sha256 of the container bytes (`container.save`), of
the model JSON (`graph.to_json`) and of the run report
(`RunReport.to_dict`, serialised with sorted keys). A change to any of
them is a change in behaviour and must be deliberate.

To print the table for the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json

import pytest

from xbarsim import container, graph as gr, models
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
        '74d69a0c914af4dac699a5d3db62051420bcd1ba761a5b2404e7c21efabe588d',
        'dc80e7c9874b55da4c5a58ed34fc00020b33f8765447939ea9b976e51f676d86',
        '24b02cb0f9e878ec9d6d53822690fcc4fd4de53828f23e1f5a276302769a0161',
    ),
    'conv8x8': (
        '76cd8c54fffd705ec837ea585796a17a2d6dd64166ff00fc506990e5f67845da',
        'd8efdcd044ed3f8fd355a31a585b237483f27bbef13a4b1882071febf48ef04b',
        '503ff9356222bc74202d928025078df50e2ef29493276332b5b94a2e555996be',
    ),
    'conv_loop': (
        'e9cad712273d226ed09f69501ef724cf948f59c5fc95a17bd5109f6cefcbc7c9',
        '834bd68e701639c572eb55e98904b38f623aa63394b49bac9739fa6d6931d66b',
        '15c373c689f5dfa5f5277c0e193da7fa4ec157c442cd3ef947a6b9fe2b2a160f',
    ),
    'conv_loop/loop': (
        '1c12a3290622c2ca41a20a1e17dc41ebbd844936f0d55b8b7fe97b423b9c5982',
        '834bd68e701639c572eb55e98904b38f623aa63394b49bac9739fa6d6931d66b',
        '74a2d49bb5fe779525b39ba0f72a48fa530449224c2bf37110e3babc20bae706',
    ),
    'lstm128': (
        'afbc8ea8260fb2afdf642ae541aa330c84299a58389af3e53a93d4b84484a620',
        '6229375791dfc5780f15b0af3c21867ea0a74afc3032fb4f2a3b05ef448e8512',
        'ba179920332620b1308533c869a19138f99ab5489d1e9980ba708b368f0c5f45',
    ),
    'lstm8': (
        '45a33930365ada62ac1bc80ce9c395fb5cb0af13cc04d7ed5a4f8094c5998749',
        'b5f51a791ee877caf63e0e65f8d71f95426f8136d396278e19a6ed58363f50cd',
        '3594c833d439fbc87d11e1d684fd9370fb98dcb726f162fc1f4b2531ed8c1965',
    ),
    'mlp128': (
        '4d41fce0fc8e84e2eb2bd5c5eb93d14d4f0e83fc77e6875ccd6f129282888c6d',
        '5d213750cab0793a7b3b260d475b1958eba7ef81b645b051151c7faacd38663a',
        '8193ed4bf1f211d079545f7372440fe683fef83217e17e250f04158098c53a34',
    ),
    'mlp256': (
        'b8b612f3a69a480ebeb7aefbeb009b36923f0426ba321d8acd7a88b78d44e681',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        '4546462077e59574388bce51cd8b20b316aad771cc484f084667575bf9047ff5',
    ),
    'mlp4': (
        '3c5000c1222ade6611f458b2ca23388871af357925fbd612e5d0387db68302b1',
        'e3a14bd5683be4bf604e071f11fbc25089520ee70daea90ce68b0f15d5ff227c',
        '9bcb3628fdcec0abbb085b17374c9e50e4498832cb666fd97722f5d74c728ca9',
    ),
    'mlp_l4': (
        'cbeebe8ab2b9d83c12460cae0f0c8bc8e61d854a4b2c366170d1689bb70a8e77',
        '46d5c6db94e2bc1ff0280cfa8d6cfb6685961b960afe02ae2ccc8e4ffd0fe51c',
        'e164a902925df01219a98e4052484adb6fc0eafb82b448d02fe2545b33bae765',
    ),
    'mvm_pair': (
        'aaa99326e2005d73a862eedbae9174b22ed8c3586ab8df063d6cabdbe3f6d041',
        'cbdd12be5c5243ae26cd0c2cb42e6fc0cf00c7b42e554c2144a191c4b5098b1f',
        '815e9ca23a377bf4823475de9ec33b170a8131b94846a81199cdc4a6e1fcf9b8',
    ),
    'vector': (
        '48746bd85e7025bc711868a34e212c8d2fde5b6aa0470d007ab47b1bf6af7a4c',
        'bf6e138c2e7b15140ca9d292abd43feca625862bde66719c0eab25d534a98aa1',
        '0506fa496a342f387b37b75ee29850f94df61201cf6af1718893351271b95861',
    ),
    'mlp512/4tiles': (
        '4d4e91ccc8b398f075d82e05e723b694a1159661aebe4680fb13be66035e4a4a',
        '6c5cf0b379b7380d91dbebe4bffe5e0b57b70ce4bdb9b1f543185cfe7bd1cfee',
        'b2bc219e2d5c54367dffd401e1a8e24ff03c1e94ae28206e29659e2f949d8ba1',
    ),
    'mlp256/naive_order': (
        '62b13d5a259cb4930cae39401f25954a3a666a48be010575daebc82e7fa12c63',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        '77b5b46d2bf24285d75efb0c0c469435aac816b97b51e43b0b286cc851b50c3b',
    ),
    'mvm_pair/no_coalesce': (
        '56716156bbb521933d26d09e27de404a3668d1f2f18d83da4cb5102bc170e5e2',
        'cbdd12be5c5243ae26cd0c2cb42e6fc0cf00c7b42e554c2144a191c4b5098b1f',
        'c79674ffa7d21ea152174136b14ac2cbf561e7864d5a03f417644f93be3eff29',
    ),
    'conv8x8/no_shuffle': (
        '52590679870c56b535a9bed2b73b271c15796c32f6069d343da6fa5578bf2fcd',
        'd8efdcd044ed3f8fd355a31a585b237483f27bbef13a4b1882071febf48ef04b',
        '0644e7213ff23d0692518a92616bb52bb2f2e852508936ba233d2e9fd62cd23e',
    ),
    'mlp256/naive_partition': (
        '87c5a7e4b14e4a3783e1d930d8f76c2271f7fe07b94604deac1b317e3d3057c6',
        '006ab0b52ce7510f1e01f2c25029c555ed97a809e1c1f1ee29a302e58ba19fbf',
        '41ddfdf0a479d7d5e2bde72ae9c9d2a8dbc0f47dddcf4a3ee3de3266f640d39b',
    ),
    'lstm8/xbar8': (
        '770cac3019003a1d074342055fccefa9310306926a101b58c134c8f0d2c6671e',
        'b5f51a791ee877caf63e0e65f8d71f95426f8136d396278e19a6ed58363f50cd',
        'd83a725ed68baefe4df4cbe536a618d636619da1c7ed7ff6d9779cf9f6257c82',
    ),
    'conv_c16/loop2': (
        '5df8e2f80595642fa45700777f860dd4cf58b9fe1fdf584c6e3c975f50af06af',
        'c8a6c1e5c3ed5e78b7287d8007e90af6df4c5827ff8c634f6e482204e1199aa6',
        '3487fee3a58399a80c7178ce765e4c71475d449fbbc9e32474fe23d0150163bd',
    ),
    'conv_c2/loop3_xbar8': (
        '2eeda30498f6e64f3ebec95165535624c506147817a00f97908c96fbbddb538c',
        '19e5b4c762a6f284a24a98b84cb7d4bafd9abcc471d05506bf3dd753b678634c',
        '6954c4cd65ca78bc74e680994cb0f3c020aeb86c61c05bbabcfe2afdba195e8c',
    ),
}


@pytest.mark.parametrize("case", list(_cases()), ids=[c[0] for c in _cases()])
def test_golden_bytes(case):
    assert _hashes(case) == GOLDEN[case[0]]


if __name__ == "__main__":
    for case in _cases():
        print(f"    {case[0]!r}: (")
        for h in _hashes(case):
            print(f"        {h!r},")
        print("    ),")
