"""Byte-for-byte pins of the default outputs.

The digests are SHA-256 sums of the files that ``survey --out`` and
``check --emit`` write, of what ``show`` prints, and of the subgroup member
lists that ``all_subgroups`` returns for a group of order 96.  A change
that only makes the program faster must keep every one of them; a change
that means to alter an output updates the digest and says why.
"""

import hashlib
import json

import pytest

import regsets as rs
from regsets.cli import main

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

SHOW_DIGESTS = {
    "product:symmetric:4,cyclic:2":
        "0652a9e075a0e2c739e5da8c531eb8f234f6ea4c6d28e851cf4de899df277df7",
    "product:sl23,cyclic:2":
        "92af61c052178dbbf3abd10878db024a0a96efaeedccd5c75a2538cc20a73b46",
}

# json.dumps of the member lists of every subgroup of S4xC2xC2, in order
ORDER96_SUBGROUPS_DIGEST = "8ba41cf2553660d8e1b3f346dbee0917a4554cf72033eb493008708dc563a893"


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("group", sorted(SURVEY_DIGESTS))
def test_survey_report_bytes_are_pinned(tmp_path, capsys, group):
    out = tmp_path / "survey.json"
    assert main(["survey", f"preset:{group}", "--out", str(out)]) == 0
    assert _digest(out) == SURVEY_DIGESTS[group]


@pytest.mark.parametrize("argv,digest", CHECK_DIGESTS, ids=["S4", "SL23"])
def test_emitted_certificate_bytes_are_pinned(tmp_path, capsys, argv, digest):
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
