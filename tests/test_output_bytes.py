"""Byte pins for what ``reflekt build``, ``reflekt stats`` and the LP / MPS
writers print.

Each case's output is hashed with sha256 and compared with the digest
recorded below.  A change to how relation bodies are written (dense or
sparse rows, shared scalars, integer arithmetic) must keep every byte: an
``int`` entry where a ``Fraction`` was would print as ``3``, not ``"3"``.
A rejected base pins its error message, which prints the chain's canonical
preimage of the base.
"""

import hashlib
import json

import pytest

from reflekt.cli import main
from reflekt.constructions import build_recipe
from reflekt.serialize import ef_to_dict, write_lp_format, write_mps

RECIPES = {
    "signing": {"n": 3},
    "mgon": {"m": 8},
    "i2_permutahedron": {"m": 5},
    "a_permutahedron": {"n": 4},
    "b_permutahedron": {"n": 3},
    "d_permutahedron": {"n": 3},
    "parity": {"n": 5, "parity": "odd"},
    "huffman_quadratic": {"n": 5},
    "huffman_nlogn": {"n": 5},
    "completion_time": {"p": [1, 2, 3]},
}

# bases with a negative entry, a zero, a fraction and a repeat; a base that
# is not its own canonical form is rejected, and its message is pinned
BASES = {
    "a_permutahedron": ("-1,0,1/2,1/2", "0,-1,1/2,1/2"),
    "b_permutahedron": ("0,1/2,1/2,3", "-1,0,1/2,1/2"),
    "d_permutahedron": ("-1/2,1/2,1/2,3", "0,1/2,1/2,3", "-1,0,1/2,1/2"),
    "signing": ("0,1/2,1/2", "-1,0,1/2"),
}

BUILDS = {name: (name, params) for name, params in RECIPES.items()}
BUILDS.update({
    f"{name}[{base}]": (name, {"n": len(base.split(",")), "base": base.split(",")})
    for name, bases in BASES.items() for base in bases
})
BUILDS.update({
    "mgon[13]": ("mgon", {"m": 13}),
    "completion_time[1,0,2]": ("completion_time", {"p": ["1", "0", "2"]}),
    "completion_time[0,1/2,2]": ("completion_time", {"p": ["0", "1/2", "2"]}),
    "completion_time[0,0,1]": ("completion_time", {"p": ["0", "0", "1"]}),
})

# the stats calls of the three benchmark workloads
STATS = [
    ("a_permutahedron", 6), ("b_permutahedron", 4), ("huffman_quadratic", 5),
    ("huffman_nlogn", 5), ("parity", 7), ("a_permutahedron", 8),
]

# recorded before relation bodies were written from their nonzeros
PINNED = {
    "build signing": "3e625bf29a584a78e7b5c12ac24f6b923d6e5b0e2e123f47f75f855ce0b94492",
    "build mgon": "1b8682c7e0af181734f1012ff2679c77c94d7b2b69a77fea4ee9d422ca0e3c4b",
    "build i2_permutahedron": "bfeb0ba591e8736b4c828399f6c0abffa794f053e280487f86a3f07898cd5bd0",
    "build a_permutahedron": "539d272baf39a64cb1cb16b73eff71c479da6f4111684c6db36911dfa8a66940",
    "build b_permutahedron": "1e32b5ba9c0f61df52f2b163f52a5c8a68c373be56ed2c39959f64489b53b6a4",
    "build d_permutahedron": "6d28d8d864f62c775423b9df1b35b73501fbe122de8986e8a9b7357177fe602d",
    "build parity": "3ce0bcd0dc07f4d2d0c9ce3d3b2c13a0ae7c07b9f99b930418acd0767ddca666",
    "build huffman_quadratic": "5052acfab380e63818fc0fed4b235ec3a62eb1f9d1744bac4ee112a32dc44b46",
    "build huffman_nlogn": "667bb760cc670cfc875d5654cd7aec3a80a613228d722b961e13e8e1a788ff19",
    "build completion_time": "c37a89db98f0b0c439b1bf3c311a306a9a1c220876b0795e4964de84c1124789",
    "build a_permutahedron[-1,0,1/2,1/2]": "fc97de975513c244373803977b04d5f0141687ef6ebd8fa6524ebb1825c61d38",
    "build a_permutahedron[0,-1,1/2,1/2]": "483a0cadc5824f8105b670bda99f5f8af89abad8ca3ac733846504b10183c459",
    "build b_permutahedron[0,1/2,1/2,3]": "0695ecec9a375de150d9306e243ec22b8e6c131ee82b241f1a25c5eaeb0dc8a4",
    "build b_permutahedron[-1,0,1/2,1/2]": "3278e589131b4937cc3da630113c5756e136ec33ef303046c61ceef2ad4ed129",
    "build d_permutahedron[-1/2,1/2,1/2,3]": "488bb33f512a6471c0d3262a9e9f384c1db6480b6a83bd29012f185f3bc0d6ab",
    "build d_permutahedron[0,1/2,1/2,3]": "31f9c3119ca6fc1cc42339b92334d9a7c6c921c07b5bf7cafb4687e7b76be455",
    "build d_permutahedron[-1,0,1/2,1/2]": "3278e589131b4937cc3da630113c5756e136ec33ef303046c61ceef2ad4ed129",
    "build signing[0,1/2,1/2]": "49a0dbb8d5fa5dabdf9a9b98e9669ad82dcaff185a32a9a215756f4934e9c4a0",
    "build signing[-1,0,1/2]": "5a7312f0a82a0b5e2e6fc909cabbcf58c0680afce9f1689ab72e8f844cd52009",
    "build mgon[13]": "12f7b0188546c51ab2a53542f6b1f315ee19ac7f81861a05eb85e3c3ed58b6eb",
    "build completion_time[1,0,2]": "a08ae54f78cf3348cd12a6bf88eab0b4424659999260c0d9a798d5eb3ef85953",
    "build completion_time[0,1/2,2]": "949a393e5e584e95ec1be7c5f332f60a7bbba9195c96828c24f24d5a46ea0953",
    "build completion_time[0,0,1]": "06428ff46bfbb45ca1533fd7194102b08cd65976c1a3e3fdd540125213817157",
    "lp signing": "fbd16b83c20908bd1e4f4cb1b1c8f68fe82c4a6c95b6782d195d8be23726f7fe",
    "mps signing": "26a4e2aae0127f5252f0cf62e2643173ab44449155956cf3968725130c7bf221",
    "lp mgon": "5b55f99475f3fd3b78abf6a01da344811c2fa6582d0f1a43d12e1c17f33a5bea",
    "mps mgon": "4c2ca65c09e2f40cc9e284c130af4d7ce182eda69ff33686ae1811a95133d6fa",
    "lp i2_permutahedron": "fb1a3674bc37f27d7cb558c7c3ba55d2facddab5fb4099f2b6fd3179bf68032d",
    "mps i2_permutahedron": "3b217a308b880808981ed7fbae9035099748ffdf915a16f8265b9d61536823e1",
    "lp a_permutahedron": "700b16f3a02ed2faedf06a6c16c01d59f56c3d931375c27f40d6b08d06f144a6",
    "mps a_permutahedron": "801796de61873681889a03824332f7fef4876a6b74becf7b2df9fe85612b7c2c",
    "lp b_permutahedron": "6e00dfeb737edda33c2f6519ae57b859404a66e14404024850ad8d48d26410f1",
    "mps b_permutahedron": "9027c7ce16e4def020aba745a45bf3c20d655bf72ef11dc831f6378925e0d2b1",
    "lp d_permutahedron": "f1c3df527199662bf06d25825220bc1f6fad32169521b83dba7aaf08ae4edc9c",
    "mps d_permutahedron": "86cac01bae94c77e21839f41e1194ef0f879542266b17d97bdf1ea3f3ed44f57",
    "lp parity": "46d18d5a0e2c0d54bda400d8a683a67c1059fe156501e0146186200ec201d7cc",
    "mps parity": "f50c1e3f4851631039cf609b365dba72f4d03a14f9b7f47a902fe1ccc2579c8d",
    "lp huffman_quadratic": "2a7cbdddeea775b61adb55135e43ea86dfc3879e98c0ee20ae5576e4dd9f0a1c",
    "mps huffman_quadratic": "0983476b82188e0fc09ea0a3e7945decab548b26da92ea92b51408a40d8e7b89",
    "lp huffman_nlogn": "cb293064f0230e1117340b611cfd5bab999e7598c5ebefed1fbdc689dbe4abd2",
    "mps huffman_nlogn": "e7ffd3383bb4ed548d41c184f2d89692c1a0feffb97382edc8968a3f5b02a4ec",
    "lp completion_time": "636f5b34d0bfa6c9f10697e3f426d4d768524c8d363fa6b58ae3a5d52cadc276",
    "mps completion_time": "b10ad6b081bb0182f0da8f2dc2f7343a18784ed62320e9fb8c71da5da5a1f582",
    "stats a_permutahedron 6": "e84c7f63a7e601f5bf9dc0a29c4d6aa020313a66083d6b05a10e38f844f42e74",
    "stats b_permutahedron 4": "f990e6f99b20f0981ae17a324ac84a35f7740d57f9dd52f868abd093e09df907",
    "stats huffman_quadratic 5": "97c6db7d07210d5acf63d0a45958498e2b692382c1ee457ac65cd84067bd7995",
    "stats huffman_nlogn 5": "40bec454c889f4cd9fdf10ebb8713e3d41adbe54e08bdc46e9c3d0b0451d1299",
    "stats parity 7": "688e8951adfc5244bfac46d73faa24671fb354e9657664dd06139d7013d49aae",
    "stats a_permutahedron 8": "c4f4863bcb887be516adb940c1a5050f5e3e1af8c06e1dd7ca07b011e09b8df0",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build_text(name, params) -> str:
    """The document ``reflekt build`` prints, or the message of the
    ValueError that rejects the base."""
    try:
        ef = build_recipe(name, params)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return json.dumps(ef_to_dict(ef), sort_keys=True, indent=2)


def stats_text(name, n, capsys) -> str:
    assert main(["stats", "--recipe", name, "--n", str(n)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("case", list(BUILDS))
def test_build_bytes(case):
    assert _sha(build_text(*BUILDS[case])) == PINNED[f"build {case}"]


@pytest.mark.parametrize("name", list(RECIPES))
@pytest.mark.parametrize("fmt", ["lp", "mps"])
def test_export_bytes(name, fmt):
    ef = build_recipe(name, RECIPES[name])
    text = write_lp_format(ef) if fmt == "lp" else write_mps(ef)
    assert _sha(text) == PINNED[f"{fmt} {name}"]


@pytest.mark.parametrize("name, n", STATS)
def test_stats_bytes(name, n, capsys):
    assert _sha(stats_text(name, n, capsys)) == PINNED[f"stats {name} {n}"]
