"""Byte-for-byte pins of the default outputs.

The digests are SHA-256 sums of the files that ``survey --out``,
``check --emit``, ``construct --emit`` and ``perfect-code --emit`` write,
of what ``show`` prints, of the subgroup member lists that
``all_subgroups`` returns for a group of order 96, and of the
multiplication tables that the preset builders make, which fix the element
numbering of every other output.  A change that only makes the program
faster must keep every one of them; a change that means to alter an output
updates the digest and says why.
"""

import hashlib
import json

import pytest

import regsets as rs
from regsets.cli import main

# the survey reports as written, and as written while each row's agreements
# also held a "perfect_code" key just before "normalizer_criterion"
SURVEY_REPORT_DIGESTS = {
    "symmetric:4": "2be2c2cf82a28899957e09187a0f1634ae0716bfd1f5e1f1e09ca630a7e1ba1d",
    "sl23": "86ba82339609757c783e299e71ff9e6dcafa860fab361c70f86a3514b0dd6b33",
    "dihedral:12": "ed17d2109743b4eff6a2f7d41d07725109fe27e96763f99e6a7b5896f650e6a7",
}
SURVEY_DIGESTS = {
    "symmetric:4": "842a79d0266ef263691d4b38942440ca891800d1f3848c6b5d9e526c0eb2038f",
    "sl23": "728d279de745f32a0a6530e621ab437e1e964460c72908b0809bb0421b88df1f",
    "dihedral:12": "5310c3337fa0dc1bafb246b67e1245a94679d9ac6a81f52f514e354ef8d56f58",
}

# (argv without --emit, digest of the emitted certificate)
CHECK_DIGESTS = [
    (["check", "preset:symmetric:4", "--A", "gen:1", "--r", "0", "--s", "1"],
     "0487880a894e893358918210ed0120f4e25ffab0ebdf791d38fbeb6ae065831b"),
    (["check", "preset:sl23", "--H", "0,6", "--A", "0,2,6,12,13,15,20,21",
      "--r", "1", "--s", "2"],
     "f2be62b134c87c5b353f09a3410d4764fcccddd217a7473f0283f4fab1943441"),
]

# (argv without --emit, digest of the emitted certificate): in D12, an
# inverse pair inside A, a self-inverse class in a self-paired block and a
# block paired with its inverse block; in C9, blocks tA != t^-1 A whose
# classes the construction picks in order of their least class
CONSTRUCT_DIGESTS = [
    (["construct", "preset:dihedral:12", "--A", "0,4,8", "--r", "2", "--s", "1"],
     "d7e23a8a60dfd58837fff35e9218104a27b6f14f540ca5d15c9a976be967a92d"),
    (["construct", "preset:cyclic:9", "--A", "0,3,6", "--r", "2", "--s", "2"],
     "c8349d3fe994f43d84387acd1dde8252f22e4d7cd561224b4962f50de34df53f"),
]

# (argv without --emit, digest of the emitted certificate): A4 over a
# non-normal C2 in S4, and Q8 over the centre of SL(2,3)
PERFECT_CODE_DIGESTS = [
    (["perfect-code", "preset:symmetric:4", "--H", "0,5",
      "--A", "0,3,4,5,11,12,13,14,15,21,22,23"],
     "4376a17200cff21874ef246bcdcd1c32f1c51c8407f144cfca4c9dce287d00c5"),
    (["perfect-code", "preset:sl23", "--H", "0,6", "--A", "0,2,6,12,13,15,20,21"],
     "f44e995f1f8521957832d6239177cfcd35b30c52872705f427e2c4d07d643a18"),
]

SHOW_DIGESTS = {
    "product:symmetric:4,cyclic:2":
        "0652a9e075a0e2c739e5da8c531eb8f234f6ea4c6d28e851cf4de899df277df7",
    "product:sl23,cyclic:2":
        "92af61c052178dbbf3abd10878db024a0a96efaeedccd5c75a2538cc20a73b46",
}

# json.dumps of the member lists of every subgroup of S4xC2xC2, in order
ORDER96_SUBGROUPS_DIGEST = "8ba41cf2553660d8e1b3f346dbee0917a4554cf72033eb493008708dc563a893"

# json.dumps of the multiplication table, as lists of rows, of every group
# of standard_corpus(), by label
CORPUS_TABLE_DIGESTS = {
    "cyclic(1)":
        "db407f11d7ede59abaab0e98e097ff2dae10a048207b801745d7199ef19c2387",
    "cyclic(2)":
        "c1b92cfd1182059c03f2934cec0ee71e1df9f08ff9f53dec0f3e468e62a0626c",
    "cyclic(3)":
        "17d0eee91e6333e1187ad1a09da05518b40b225dd366ee32342d785c61a3eea4",
    "cyclic(4)":
        "817530d43b21cd6b4da2490d0eff0e80139ee482e7ada0fcf951bad11fe0fbf2",
    "klein4":
        "90b5779b7e261488f04c79165fc22dd6b6c6ce01003a762f5efc6173099b54b4",
    "cyclic(5)":
        "5e0a80ad1110516e0dde1c48f11cffc6d8f606455ddf4505a7b77a4a0bef7de2",
    "cyclic(6)":
        "0c9f2a2b544b8808c85cde07de907b677871d08753017e06dd603e9375892293",
    "dihedral(3)":
        "f3cf1d0dd49bc125f2a5b872b0110aad2b4bd59c22a9b5ea23ec41c39407486d",
    "cyclic(7)":
        "52360c657a054a64b8a211f634f7bdd49189a129e1bc55407dc9eb444e320721",
    "cyclic(8)":
        "adacb0a8e923ba193275373de2aeff6dda59d2f51852a04c36e4f392f44eba9c",
    "cyclic(4)xcyclic(2)":
        "92dce32b79c37447bb451e68f81d1882ca63cd9e260dc976b2a46f2db7b90463",
    "cyclic(2)xcyclic(2)xcyclic(2)":
        "22c176af2b276c12d4d705ce1f0b2edef90573f13d0a35b761c61a35acd73e56",
    "dihedral(4)":
        "65dbc452a63235d3d3b90d3eb83b0928424f77457d61f83a679fade2cbd9a416",
    "dicyclic(2)":
        "c4e0d27860aabe341992f16b99412fecddc22678117b9d8aa1eae196a221f9aa",
    "cyclic(9)":
        "6e662b78e98bdaafe6189ad93e1e4b1bb97fd9a79491cf9b4de32d0e2128d048",
    "cyclic(3)xcyclic(3)":
        "5866c28f92e87f668ad348eb1f1c33ee41934252a4db957f364ac04703ea69a9",
    "cyclic(10)":
        "29edf3c044f9ee140747117a4fd386d95f258febed1a1f5f4db75050e91a8caf",
    "dihedral(5)":
        "320b070b62fd3aee8f1b80f21e720546029d2414c10951479e16ff2af07d0691",
    "cyclic(11)":
        "4c49cb2e90ed3d8cc4f082fbec7d28933b9c09998839826d285513b4aaf1a632",
    "cyclic(12)":
        "0ff2a8598890d20f3aa6f9c596f97bee96b9523979ea2584b4cdd71d1ccf872b",
    "cyclic(6)xcyclic(2)":
        "7ee1bfb0f3b033bd2a304a894069e1a8f213a7ed4c6281b8d041c56d71907000",
    "dihedral(6)":
        "e89af8c086bb93f5edd7dce04d657240d6204f4c374f4d63b9efb6fb0d65502b",
    "alternating(4)":
        "78cb628ff4f4910a3ccf93bd29e34f2a67363a0bfd65b2ebc9fa78b3c4bc721a",
    "dicyclic(3)":
        "c9d30d906198261ae0f0e360a1c83338dc7362e380faba5bea643b689fc1f128",
    "cyclic(13)":
        "58a76687ec6d3577b71d88d93da91f92794ff7453784ccea03c0f2136df850c0",
    "cyclic(14)":
        "358ff7f379ee62496d1fb1a28617272127bb7e79377641114c842a451d662851",
    "dihedral(7)":
        "24d4acc75fee03f6a8d37713ec4d4672a07e721e87130ed5ef1446e127578aba",
    "cyclic(15)":
        "6a8dc0ce97d26b8bdebfd55fbe20930594291e13e2ed7259a47fd1f5826ded2a",
    "cyclic(16)":
        "f5895705f6120c71efa4352f6207ec0cfd3d943c6a50e5837f361ac98551a9a4",
    "cyclic(4)xcyclic(4)":
        "1f682146199ed6a4060e6f1f183e218b7065acb8a35fdd38209712fac982831e",
    "c22_semi_c4":
        "11d5937b0b8e7dd774a1aabe33e2fae265b2cc91a82a0b6aa2ec1a7c0cb039d7",
    "c4_semi_c4":
        "163caf8c44dd127727d102a2701d402f505d9ec4062c66934962354e91250946",
    "cyclic(8)xcyclic(2)":
        "039ee73f75fc9119b036e78c06ec30d10cdb53354249859574acbfe11bffbdc9",
    "modular16":
        "f3652e418c64d7b4d2d49743c474f892799dde4cf429aae663388558a4c8fca2",
    "dihedral(8)":
        "d40074a3abb60196985e12c0538a17ab4164e5d104922061593bcf8e286daacd",
    "semidihedral16":
        "6d1332befbafa13cd9f466013a2047719d8950d6ed694653103433646bf433c4",
    "dicyclic(4)":
        "fd5282c86ab79c8c9ed9fa1b20eed6d4209b6a40102ac2e203691daa9141efbf",
    "cyclic(4)xcyclic(2)xcyclic(2)":
        "8774a884722ff2981f54815b76b362d7e43993d89c3b281dc92e48aa32dd6eea",
    "dihedral(4)xcyclic(2)":
        "d032f0ee5624e8c1587d715f27be03749c0ae3e06a4a02e32f22daaec4998786",
    "dicyclic(2)xcyclic(2)":
        "323b7d3b74788baf81de00fdacec7575f4f92d71b3b1a364209afc10094a1837",
    "pauli16":
        "14a24eab18667d11fdb6d3f65ccae0e46c03e6b49793f4df60bf604db6558d99",
    "cyclic(2)xcyclic(2)xcyclic(2)xcyclic(2)":
        "e5ac4e3c2de25c76e89667bf7c203b433ac180d8f88fbe455a5532c7b5fb0f87",
    "symmetric(4)":
        "9e1ec822f3f46d0e76b1cd3fa230dea3580006ff63e50c44f4b6c055d9927862",
    "dihedral(12)":
        "201a65198533d64d667e61145ea5db21d524b06bb863ca9c1723e9d4bec24956",
    "sl23":
        "ceba21de3951f033d7073a0aaaa27b4be954802ddfc24f1c8332b7ce9ce2dce2",
}

PRESET_TABLE_DIGESTS = {
    "product:symmetric:4,cyclic:2":
        "8a701686cb9a27b06ba80371d6ec8e3a248641fcf73719f7255831acc0877d03",
    "product:sl23,cyclic:2":
        "06ad8b232c1f789d369b5abdd5535e7e5a3ddedf6bc72d9cb82250a11d703616",
    "product:cyclic:2,cyclic:2,cyclic:2":
        "22c176af2b276c12d4d705ce1f0b2edef90573f13d0a35b761c61a35acd73e56",
    "symmetric:5":
        "7cd5ba4eecfae717a570a1fa17cbc07c87decf083fee7f8ba9318d03f09bbbc0",
    # order 256, the largest table built on byte rows, and 264 and 720 above it
    "product:dihedral:64,cyclic:2":
        "e5b23f608256816872b312c08aa1f4e890ae11935e5b44b0460b94467db714d6",
    "product:symmetric:4,cyclic:11":
        "e014568e9e9334ee0b35812c4a38111636194055d9f40377d6238e2029eebfde",
    "symmetric:6":
        "9743224757974c9fbe1b315ec0cb0b8aaa026804ec38107547af6eedfda7ad2d",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _with_perfect_code_column(row: dict) -> dict:
    """A survey row as it read with its "perfect_code" column: that column
    repeated "normalizer_criterion" for normal A and read "ok" otherwise."""
    agreements = {}
    for key, value in row["agreements"].items():
        if key == "normalizer_criterion":
            agreements["perfect_code"] = value if row["A_normal_in_G"] else "ok"
        agreements[key] = value
    return dict(row, agreements=agreements)


@pytest.mark.parametrize("group", sorted(SURVEY_DIGESTS))
def test_survey_report_bytes_are_pinned(tmp_path, capsys, group):
    out = tmp_path / "survey.json"
    assert main(["survey", f"preset:{group}", "--out", str(out)]) == 0
    assert _digest(out) == SURVEY_REPORT_DIGESTS[group]
    # with the perfect_code column put back, the report is byte for byte
    # the one pinned before that column was dropped
    report = json.loads(out.read_text(encoding="utf-8"))
    assert all(row["anomalies"] == [] for row in report["rows"])
    report["rows"] = [_with_perfect_code_column(row) for row in report["rows"]]
    text = json.dumps(report, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SURVEY_DIGESTS[group]


@pytest.mark.parametrize("argv,digest", CHECK_DIGESTS, ids=["S4", "SL23"])
def test_emitted_certificate_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "cert.json"
    assert main(argv + ["--emit", str(out)]) == 0
    assert _digest(out) == digest
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("argv,digest", CONSTRUCT_DIGESTS, ids=["D12", "C9"])
def test_constructed_certificate_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "cert.json"
    assert main(argv + ["--emit", str(out)]) == 0
    assert _digest(out) == digest
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("argv,digest", PERFECT_CODE_DIGESTS, ids=["A4", "Q8"])
def test_emitted_perfect_code_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "cert.json"
    assert main(argv + ["--emit", str(out)]) == 0
    assert _digest(out) == digest
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("group", sorted(SHOW_DIGESTS), ids=["S4xC2", "SL23xC2"])
def test_show_output_bytes_are_pinned(capsys, group):
    assert main(["show", f"preset:{group}"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SHOW_DIGESTS[group]


def test_order96_subgroup_list_is_pinned():
    G = rs.group_from_arg("preset:product:symmetric:4,cyclic:2,cyclic:2")
    subs = rs.all_subgroups(G, limits=rs.Limits(enumeration_cap=96))
    text = json.dumps([list(S.members) for S in subs])
    assert len(subs) == 420
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER96_SUBGROUPS_DIGEST


def _table_digest(G) -> str:
    return hashlib.sha256(json.dumps([list(row) for row in G.mult]).encode()).hexdigest()


def test_corpus_tables_are_pinned():
    assert {G.label: _table_digest(G) for G in rs.standard_corpus()} == CORPUS_TABLE_DIGESTS


@pytest.mark.parametrize("group", sorted(PRESET_TABLE_DIGESTS))
def test_preset_tables_are_pinned(group):
    G = rs.group_from_arg(f"preset:{group}")
    assert _table_digest(G) == PRESET_TABLE_DIGESTS[group]
