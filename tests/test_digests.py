"""Frozen selection digests: one fixed corpus that every port can reproduce.

A selection digest is the sha256 of one line per selection, each the
selection's ``expected_sites`` cell in the vector CSV (sites ascending,
joined by ';', empty for a discard) followed by '\\n'; a packed-hex digest
hashes one dump per line, and the vector file's digest its bytes.  The
in-repo oracles stop at small S; these pin what the greedy curator selects
up to S=1024 against itself as it is today.  A digest changes only with a
CHANGES.md entry that says why; never regenerate one to make a test pass.
"""

import hashlib

import pytest

from streamsieve import (
    VALID_VALUE_BITS,
    pack_slots_hex,
    parse_algorithm,
    selection_stream,
    steady_assign,
    stream_capacity,
)
from streamsieve.cli import main

GREEDY_ARRIVALS = 1 << 15
SIZES = [1 << k for k in range(2, 11)]  # 4 .. 1024
# a Weyl sequence on 64 bits: arrival k of the fixed sample is
# ((k + 1) * GOLDEN) mod 2**64, shifted right by k mod 64
GOLDEN = 0x9E3779B97F4A7C15


def _digest(lines) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


def _weyl(k: int) -> int:
    return (k + 1) * GOLDEN % (1 << 64)


GREEDY = {
    ("stretched", 4): "aa1b3304688d5ca32e0936cade337ad8b229e770a13b5079016ed98c076738cc",
    ("stretched", 8): "2b0ba8b22eba5336e7099e15e54d2e650215fa32de3ee90289e06690db7fcf74",
    ("stretched", 16): "468d45820acb0d45413791e00cd3a3a63ae90dabb25c79fd15febe7c931b5994",
    ("stretched", 32): "61e8caa377609f71288b59ad9823edc6f2f0240dda6c3c1fa55c59b8a3857510",
    ("stretched", 64): "dbbee93e53b894410f761a46453aa8b39dd4d15f0353d7eed73b79ccb1da4b92",
    ("stretched", 128): "55d3fb37a74923b919647ff5cb916cb4465aef6fe32ac22650224f6273dc04e4",
    ("stretched", 256): "82bffa824ddf18cbb58e82adc2252c98c13550968ebf4f834193fba1c6ae031d",
    ("stretched", 512): "595fc9f9972ffb2f43ca5c37d51ab39ad286a6c21647cb47347e631b5001a0fb",
    ("stretched", 1024): "d31765adcaa36718b2d289fd2f7a69bbe18cf97ba40d71cd362582da802b99fe",
    ("tilted", 4): "4c710f3bf1400a6dbfa3843652c744f5042068055979f07c6ecc6420c1dc2abb",
    ("tilted", 8): "dc0e2b3aff13529612b8c4951fcd0a674520790af039c02c4bbf055e0a37cc7a",
    ("tilted", 16): "8597558d949be772bb28b16186fc42abaeffadc68b78f10772bdc64677ed1b7f",
    ("tilted", 32): "d2caecb01dd7fb0651a4a8b52390ead7526b20c46839bb3cc59d615019f2cade",
    ("tilted", 64): "161d2e720bebf85e8d61e96e63fd543f9c8771d65191e8dddad3bb49f6db167e",
    ("tilted", 128): "b3aa7b277f63a81e4ad51cfcb4d78a33779690ab64b53f97487d50073d9b0f11",
    ("tilted", 256): "b663400e5499c2fc18e9a16c036f8122e769935c3aa61ece8d6bfa401004037c",
    ("tilted", 512): "6adf307c587403ac942947b92899abea3f8c2f19744573c7c6d0952e2b690ce3",
    ("tilted", 1024): "9e70f387b9d2051c071bff19d599dc85deea8a1347d16ea29359371c9abfe755",
    ("hybrid(steady:16+stretched:16+tilted:32)", 64): "1dd841c9da711ff504c82b80e52193605308c97527dee1a7b4953cf23919fd9f",
}


@pytest.mark.parametrize("token, S", list(GREEDY), ids=[f"{t}-S{S}" for t, S in GREEDY])
def test_greedy_selections_are_frozen(token, S):
    # every arrival from T=0 to min(capacity, 2**15): 492 056 in all
    algo = parse_algorithm(token)
    count = min(stream_capacity(algo, S), GREEDY_ARRIVALS)
    cells = (";".join(map(str, sites)) for sites in selection_stream(algo, S, count))
    assert _digest(cells) == GREEDY[token, S]


STEADY_DEEP = "57bc95bd511bdcf9b0f9ed6cd554035753fa5e1b4563b0e956b3b5ed0ec26401"


def test_steady_closed_form_is_frozen_at_deep_times():
    # 1024 fixed arrivals, every depth from 2**64 down to 1, at every S
    times = [_weyl(k) >> (k % 64) for k in range(1024)]
    sites = (steady_assign(1 << s, T) for s in range(2, 21) for T in times)
    assert _digest("" if site is None else site for site in sites) == STEADY_DEEP


PACKED = {
    1: "e63a04d89c2757a9c97eddb58ece91cc0d67ef1d2dad378ddd68cdad92f29481",
    8: "c53df99f2e3aeaf28f7955e99e73b0e3f0335732e4e10270f4e6f5508a97aa26",
    16: "ad4bd43fbb8c389b597c369898ce68446a12a3a40fa9800b95b0ad7d59bdb3b2",
    32: "c8143429c49cf795b9f6293503aa2dedce4ea913db54dd4d30cddf7ced49fa3f",
    64: "8b5574b394b929f76c60c46376eafdc1024b6e51dc716421a7c5a186b7463ade",
}


@pytest.mark.parametrize("value_bits", VALID_VALUE_BITS)
def test_packed_hex_is_frozen(value_bits):
    # one dump per S in 4 .. 1024, slot k the top value_bits bits of _weyl(k)
    slots = [_weyl(k) >> (64 - value_bits) for k in range(SIZES[-1])]
    dumps = (pack_slots_hex(slots[:S], value_bits) for S in SIZES)
    assert _digest(dumps) == PACKED[value_bits]


# the vector mix the benchmark's validate-check workload generates
BENCHMARK_MIX = [
    "--algos", "steady,stretched,tilted,hybrid(steady:32+tilted:32)",
    "--max-S", "64", "--max-T", "4096", "--steady-extra", "100",
]
BENCHMARK_MIX_FILE = "05342ad67e9be73f0c386514d303046b6eb672359a92274a80d2e768706014cc"


def test_generated_vector_file_is_frozen(tmp_path, capsys):
    path = tmp_path / "vectors.csv"
    assert main(["validate", "--generate", str(path), *BENCHMARK_MIX]) == 0
    assert "wrote 50188 vectors" in capsys.readouterr().err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BENCHMARK_MIX_FILE
