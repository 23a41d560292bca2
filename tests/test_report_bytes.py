"""Golden report bytes: a speed-up must not move a single byte.

Each command's report (and exit code) is compared with the recorded
sha256 of its bytes. A changed hash means a changed value, encoding or
order of checks; none of these may come from a fast path.
"""

import hashlib

import pytest

from mmda_lab.cli import main

GOLDEN = [
    ("verify-paths --m 16 --eps 1/2 --mode symbolic", 0,
     "d2c5ebd7f996e6397cf88be0e97aa6ec8eddb1543605ff7530f8ded7ac065724"),
    ("verify-lp --m 16 --eps 1/4", 0,
     "a198bac2f894e2d3e4e2fb610dd757fce93eb9c8776fedfca5e52abd2a066ef1"),
    ("scan --fn f_packing --lo 1e-4 --hi 1e-2", 0,
     "9e5a30124c0de965ca8eaf3162ddd260bab2cf91684930717deeaf54b402705b"),
    ("verify-paths --mode enumerated --m 4 --rounds 2", 4,
     "cbff6fb94dea0cb88cdd38a22387d1420eb537633cbaf9347bc20193620a1a01"),
    ("certificate --m 8", 0,
     "a69e122398aabe6e9b527cf20e8746f04a0f3abd7dc6948f591c4c68c01890a0"),
    ("ra --k 12 --eps 1/12 --cond 1 --alpha 5", 0,
     "d7382fdfefee25b9cd8223d988a2a65bbbb80c11b52e4845f2c09592d5dae411"),
    ("appendixb", 0,
     "e5b652b6ed91d3267827e5e2a41c748c9a9ecabab64bc78179fac4511cdc9db6"),
    ("appendixc", 0,
     "7044707db3b5ba9e844932b6f400a1a38b687f7568d9073ad999cc8e8b78c031"),
    ("build --m 8", 0,
     "005342f3d9ac82dc1fad2612f8e513e921f0d9de26cd645842bf0738da9566ca"),
    # the rest of scan, and a layerwise LP whose factors come from log2
    ("scan --fn g_integral --lo 1e-4 --hi 1e-2", 0,
     "b714bffbb4191745d9018e868c105e4531991c07f1ca39b48f691bc368d578da"),
    ("scan --fn k_bound_phase1 --lo 1e-3 --hi 1e-1", 0,
     "d54f8d08e6082a52c0a31ed84b2a98ef24373a0e3d4910a3c88204168528e754"),
    ("scan --fn k_bound_phase2 --lo 1e-3 --hi 1e-1", 0,
     "93aa32607654f4066f60b74f175ef4764bd86c8693de67a79ca76273c8ac3673"),
    ("scan --fn f1_appendix --lo 2 --hi 2001/1000", 0,
     "fcdb3106c9c081ea596c87ec3eb2caaec1ed92b76838178d8bc3d268221562b2"),
    ("verify-lp --m 24 --eps 1/2", 0,
     "dc83f8da24f1ee7612de66776989276b0cb5d87e0d87ff5bd70e948635a19b88"),
    # a large enumerated report, and the commands with no pinned report yet
    ("verify-paths --mode enumerated --m 12 --rho 1/12 --rounds 3", 4,
     "eaf7624752cc483e1cc48aa5fe3805f2361c1da6e9eb2f9e2b359e21a5357e75"),
    ("count-paths --m 12 --rho 1/12", 0,
     "db42aed5d13694d8db7fc5be0f97cfe11e3fd8f93f9506912be32d1fa712ec8c"),
    ("bruteforce --m 8 --budget 3000", 3,
     "73ab711cfd7905ad3ff3477b6b833a1aa75367f5ed73a7bb1ae02b6940ec72f5"),
    ("locally-good --m 8 --eps 1/2 --seeds 5", 0,
     "38263d3529d63495b828854fbce1f440a145dbdbcfcea72a6da028febc6087fc"),
    ("sa1-report --m 8", 0,
     "522c893bb7ea26b65101856fc7b2a7c6c7509cb0e6bec68213c6dfa9b8d4bec4"),
    # every edge with both signs, as one first edge per layer counted per edge
    ("sa1-report --m 8 --events all", 0,
     "e0f965b2764c67f4c33e6baf7ead6aae061c92f99b4594ea7c2f0adfbc87ad36"),
    # between m=8 and the m=20 extremes of test_shadow_invariants: sizes at
    # which a bottom edge's triggers fall into far fewer groups
    ("sa1-report --m 12", 0,
     "448248587f1a37b810046db83ad2bccfcc53616f8930abddf78296b713e8f793"),
    ("sa1-report --m 16", 0,
     "508e495261062da704fc2586eb4fa9b89ad7505dd24c3744243d3492edd49457"),
    ("shadow-sample --m 8 --samples 2000 --seed 1", 0,
     "d60cf882929ef2bf6bed9ce00fa7fca334d6b8974206a0159322c320d62c63d2"),
    # iterated rounds, which skip the rounds=1 exact comparison, and the
    # largest accepted seed
    ("shadow-sample --m 8 --samples 1001 --seed 7 --rounds 2", 0,
     "5676e433e395fbcf85c35be4ca23f7a3663bac67048780bf58a084366bfea3a5"),
    ("shadow-sample --m 4 --samples 75 --seed 9223372036854775807", 0,
     "f82238939dcde1166b7c8eda22e4eee7361a24a1790de6748b21b84018c2af22"),
    # above the m=24 size cap that verify-paths no longer takes: the last
    # round count that passes at m=32, and the first that fails
    ("verify-paths --m 32 --eps 1/8 --rounds 8 --mode symbolic", 0,
     "2bb36d746f8dee9d25aa06e82e5f017361f5edba81bc1d0d2f1ea464f0afd6f6"),
    ("verify-paths --m 32 --eps 1/8 --rounds 9 --mode symbolic", 4,
     "6fa7edce5b63928479b5ceee241daa35ea6dcbd71483ffbb3f3650bbe589e3c1"),
    # one subtree solution per layer gives the bytes of the every-edge walk,
    # and verify-lp takes no size cap: the bytes of --size-cap 48 before
    ("verify-lp --m 12 --subtrees", 0,
     "7e2c59ce9635e1d146983b210666993188e2874d641f4579bbabd5a140467a6a"),
    ("verify-lp --m 48", 0,
     "ae4c178290bf9b4f3f3f48bf4b573c5e1d639359923ee38a8a0bb3a65f692b9f"),
    # the bytes of the vertex walks that the class counts replaced: all
    # pairs, and sampled pairs on the certify job's shape
    ("count-paths --m 8 --eps 1/2", 0,
     "6ce52b7c346c26180542b27df84ef974524ff1ae38f02a943573701108a199cd"),
    ("count-paths --m 8 --eps 1/2 --samples 100 --seed 5", 0,
     "c2dfe67e02ea24a740bcf5446fd87dc441da66ab487cf5550f615b073e368cfe"),
]


@pytest.mark.parametrize("command,code,sha256", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_sha256(tmp_path, command, code, sha256):
    out = tmp_path / "report.json"
    assert main([*command.split(), "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
