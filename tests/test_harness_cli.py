import dataclasses
import functools
import json

import pytest
from hypothesis import given, settings, strategies as st

import regsets as rs
from regsets import harness, regular_sets
from regsets.cli import main
from regsets.config import Limits, limits_from_env
from regsets.errors import OrderExceedsCap, ParseError

import oracles


# -- group spec parsing ----------------------------------------------------------


def test_parse_trivial_preset():
    g = rs.parse_group_spec('{"kind":"preset","name":"cyclic","n":1}')
    assert g.order == 1


def test_parse_sl23_preset():
    g = rs.parse_group_spec('{"kind":"preset","name":"sl23"}')
    assert g.order == 24
    assert sum(1 for a in range(1, 24) if g.mult[a][a] == 0) == 1


def test_parse_permutation_spec():
    g = rs.parse_group_spec('{"kind":"permutation","degree":3,"generators":[[[0,1,2]]]}')
    assert g.order == 3


def test_parse_table_spec():
    g = rs.parse_group_spec('{"kind":"table","matrix":[[0,1],[1,0]]}')
    assert g.order == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        rs.parse_group_spec("not json")
    with pytest.raises(ParseError):
        rs.parse_group_spec('{"kind":"nope"}')
    with pytest.raises(ParseError):
        rs.parse_group_spec('{"kind":"permutation","degree":3,"generators":[[[0,0]]]}')
    with pytest.raises(ParseError):
        rs.parse_group_spec('{"kind":"preset","name":"cyclic"}')


def test_permutation_degree_is_capped_before_anything_is_built(monkeypatch):
    built = []

    def perm_stand_in(degree, cycles):
        built.append(("perm", degree))
        return tuple(range(degree))

    def group_stand_in(degree, gens, label=None, limits=None):
        built.append(("group", degree))
        return rs.cyclic(1)

    monkeypatch.setattr(harness, "_cycles_to_perm", perm_stand_in)
    monkeypatch.setattr(harness, "from_generators", group_stand_in)
    monkeypatch.delenv("REGSET_MAX_ORDER", raising=False)
    cap = Limits().closure_cap
    spec = {"kind": "permutation", "degree": cap + 1, "generators": [[[0, 1]]]}
    with pytest.raises(ParseError):
        harness.group_from_spec_dict(spec)
    assert main(["show", json.dumps(spec)]) == 2
    small = Limits(closure_cap=10)
    with pytest.raises(ParseError):
        harness.group_from_spec_dict({**spec, "degree": 11}, limits=small)
    assert built == []
    harness.group_from_spec_dict({**spec, "degree": 10}, limits=small)
    assert built == [("perm", 10), ("group", 10)]


def test_table_order_is_capped_before_the_entries_are_read():
    # the non-integer entry would be a ParseError, but the size comes first
    small = Limits(closure_cap=4)
    matrix = [[0, 1, 2, 3, 4]] * 4 + [[0, 1, 2, 3, "4"]]
    with pytest.raises(OrderExceedsCap, match="table order 5 exceeds cap 4"):
        harness.group_from_spec_dict({"kind": "table", "matrix": matrix}, limits=small)
    with pytest.raises(ParseError):
        harness.group_from_spec_dict({"kind": "table", "matrix": matrix[1:]}, limits=small)


def test_spec_round_trip_reproduces_table(corpus):
    # every corpus group carries a spec that rebuilds the identical table
    for G in corpus:
        assert G.spec is not None
        again = rs.parse_group_spec(json.dumps(G.spec))
        assert again.mult == G.mult


_FAMILIES = ["cyclic", "dihedral", "dicyclic", "symmetric", "alternating"]
_FIXED = ["klein4", "quaternion8", "sl23", "semidihedral16", "modular16", "pauli16",
          "c4_semi_c4", "c22_semi_c4"]
_SPEC_NAMES = st.sampled_from(_FAMILIES + _FIXED + ["product", "nosuch", 5, None, ["cyclic"]])
_SPEC_NS = st.one_of(
    st.sampled_from([None, -3, 0, 10 ** 12, True, False, 2.0, "3", [2]]),
    st.integers(1, 6),
)
_JUNK_FACTORS = st.sampled_from([5, "x", {"a": 1}, [], [3, 4], [None, {}]])
_FAMILY_LEAVES = st.builds(lambda name, n: {"kind": "preset", "name": name, "n": n},
                          st.sampled_from(_FAMILIES), _SPEC_NS)
_GOOD_LEAVES = st.one_of(
    st.builds(lambda name, n: {"kind": "preset", "name": name, "n": n},
              st.sampled_from(_FAMILIES), st.integers(1, 4)),
    st.sampled_from(_FIXED).map(lambda name: {"kind": "preset", "name": name}),
)


def _preset_specs(depth: int):
    """Preset specs with products nested at most ``depth`` deep: well-formed
    ones, and ones with any field of the wrong type or value."""
    factors = _JUNK_FACTORS
    if depth > 0:
        inner = _preset_specs(depth - 1)
        factors = st.one_of(factors, st.lists(inner, min_size=1, max_size=3))
    spec = st.fixed_dictionaries(
        {"kind": st.sampled_from(["preset", "preset", "preset", "table"]), "name": _SPEC_NAMES},
        optional={"n": _SPEC_NS, "factors": factors},
    )
    if depth == 0:
        return st.one_of(spec, _FAMILY_LEAVES, _GOOD_LEAVES)
    entry = st.one_of(inner, inner, inner, st.sampled_from([3, "x", None]))
    product = st.fixed_dictionaries(
        {"kind": st.just("preset"), "name": st.just("product"),
         "factors": st.lists(entry, max_size=3)},
        optional={"n": _SPEC_NS},
    )
    return st.one_of(spec, _FAMILY_LEAVES, _GOOD_LEAVES, product)


@settings(max_examples=400, deadline=None)
@given(spec=_preset_specs(3))
def test_preset_spec_boundary(spec):
    # a malformed preset spec is an error of one of three kinds, never a
    # crash; a spec that builds names a group that its own spec rebuilds
    small = Limits(closure_cap=200)
    try:
        G = harness.group_from_spec_dict(spec, limits=small)
    except (ParseError, ValueError, OrderExceedsCap):
        return
    assert rs.parse_group_spec(json.dumps(G.spec), limits=small).mult == G.mult


def test_group_from_arg_shorthand():
    assert rs.group_from_arg("preset:cyclic:4").order == 4
    assert rs.group_from_arg("preset:sl23").order == 24
    g = rs.group_from_arg("preset:product:cyclic:2,cyclic:3")
    assert g.order == 6


def test_group_from_arg_file(tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"kind":"preset","name":"dihedral","n":4}')
    assert rs.group_from_arg(str(p)).order == 8
    with pytest.raises(ParseError):
        rs.group_from_arg("no/such/file.json")


def test_subgroup_from_arg(s3):
    assert rs.subgroup_from_arg(s3, "trivial").order == 1
    assert rs.subgroup_from_arg(s3, "all").order == 6
    t = s3.perms.index((1, 0, 2))
    sub = rs.subgroup_from_arg(s3, f"gen:{t}")
    assert sub.order == 2
    explicit = rs.subgroup_from_arg(s3, "0,%d" % t)
    assert explicit == sub
    with pytest.raises(ParseError):
        rs.subgroup_from_arg(s3, "0,x")


# -- certificates ------------------------------------------------------------------


def make_cert():
    g = rs.cyclic(4)
    pair = rs.PairSpec(g, rs.trivial_subgroup(g), rs.Subgroup(g, [0, 2]))
    return rs.decide_regular_set(pair, 0, 2)


def test_certificate_round_trip(tmp_path):
    cert = make_cert()
    path = tmp_path / "cert.json"
    rs.write_certificate(cert, path)
    assert rs.verify_certificate_file(path) is True


PASSING_CHECKS = [{"name": name, "pass": True} for name in (
    "inverse_symmetry", "disjoint_from_subgroup", "inside_count",
    "outside_counts", "graph_profile")]


def test_certificate_schema_fields(tmp_path):
    cert = make_cert()
    data = cert.to_json_dict()
    assert list(data) == ["group", "H", "A", "r", "s", "double_coset_reps", "U", "X", "checks"]
    assert data["U"] == [1, 3] and data["r"] == 0 and data["s"] == 2
    assert data["checks"] == PASSING_CHECKS


# D8 = dihedral(4) with H = {0, 2} central, A = {0, 2, 4, 6}: (1,1) is
# realized by U = HxH u HyH = {1, 3} u {4, 6}; {5, 7} is a third class.
TAMPERS = {
    "U": lambda d: d["U"][1:],
    "r": lambda d: d["r"] + 1,
    "s": lambda d: d["s"] + 1,
    "X": lambda d: d["X"][:1],
    "A": lambda d: list(range(d["group"]["order"])),
    "double_coset_reps": lambda d: [d["double_coset_reps"][0], 5],
    "group.order": lambda d: dict(d["group"], order=d["group"]["order"] + 1),
}


@pytest.mark.parametrize("field", list(TAMPERS))
def test_certificate_tamper(tmp_path, field):
    g = rs.dihedral(4)
    pair = rs.PairSpec(g, rs.Subgroup(g, [0, 2]), rs.Subgroup(g, [0, 2, 4, 6]))
    cert = rs.decide_regular_set(pair, 1, 1)
    path = tmp_path / "cert.json"
    rs.write_certificate(cert, path)
    data = json.loads(path.read_text())
    assert data["U"] == [1, 3, 4, 6] and data["double_coset_reps"] == [1, 4]
    assert rs.verify_certificate_file(path) is True
    key = field.split(".")[0]
    data[key] = TAMPERS[field](data)
    path.write_text(json.dumps(data))
    assert rs.verify_certificate_file(path) is False


# On the cyclic(4) certificate of make_cert (H trivial, A = {0, 2},
# U = X = double_coset_reps = [1, 3]), indexing would read -k as 4 - k, so
# each of these would otherwise name a valid certificate or crash.
NEGATIVE_IDS = {
    "H": [0, -4],
    "A": [0, -2],
    "U": [1, -1],
    "X": [1, -1],
    "double_coset_reps": [1, -1],
}


@pytest.mark.parametrize("field", list(NEGATIVE_IDS))
def test_certificate_negative_id_is_a_parse_error(tmp_path, capsys, field):
    path = tmp_path / "cert.json"
    rs.write_certificate(make_cert(), path)
    data = json.loads(path.read_text())
    data[field] = NEGATIVE_IDS[field]
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        rs.verify_certificate_file(path)
    assert main(["verify", str(path)]) == 2
    assert "valid" not in capsys.readouterr().out


def _tampered_cyclic4_cert(tmp_path, **fields):
    path = tmp_path / "cert.json"
    rs.write_certificate(make_cert(), path)
    data = json.loads(path.read_text())
    path.write_text(json.dumps(dict(data, **fields)))
    return path


@pytest.mark.parametrize("field", ["r", "s"])
def test_cli_verify_bool_r_or_s_is_an_error(tmp_path, capsys, field):
    # a bool is an int to Python; "r": true used to verify as INVALID (exit 1)
    path = _tampered_cyclic4_cert(tmp_path, **{field: True})
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "r and s must be integers" in captured.err


@pytest.mark.parametrize("s", [99, -5, 5])
def test_cli_verify_s_out_of_range_with_a_whole_group_is_invalid(tmp_path, capsys, s):
    # with A = G no block outside A tests s, so these used to verify as valid
    G = rs.cyclic(4)
    cert = rs.decide_regular_set(rs.PairSpec(G, rs.trivial_subgroup(G), G.full_subgroup()), 0, 0)
    path = tmp_path / "cert.json"
    rs.write_certificate(cert, path)
    assert main(["verify", str(path)]) == 0
    path.write_text(json.dumps(dict(json.loads(path.read_text()), s=s)))
    assert rs.verify_certificate_file(path) is False
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out


BAD_CHECKS = {
    "int": 5,
    "empty": [],
    "four": PASSING_CHECKS[:4],
    "reordered": PASSING_CHECKS[::-1],
    "failing": PASSING_CHECKS[:4] + [{"name": "graph_profile", "pass": False}],
    "pass-1": PASSING_CHECKS[:4] + [{"name": "graph_profile", "pass": 1}],
}


@pytest.mark.parametrize("checks", list(BAD_CHECKS))
def test_cli_verify_checks_must_be_the_five_passing_checks(tmp_path, capsys, checks):
    # each of these used to verify as valid (exit 0): checks was never read
    path = _tampered_cyclic4_cert(tmp_path, checks=BAD_CHECKS[checks])
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'checks'" in captured.err


@pytest.mark.parametrize("field,ids", [
    ("H", ["0"]), ("A", [0, "2"]), ("X", [True, 3]), ("A", [0, 2.0]),
    ("double_coset_reps", [1.0, 3.0]), ("double_coset_reps", [True, 3]),
    ("double_coset_reps", ["1", "3"]), ("U", [True, 3]),
], ids=["H-str", "A-str", "X-bool", "A-float", "reps-float", "reps-bool", "reps-str",
        "U-bool"])
def test_cli_verify_non_int_id_is_an_error(tmp_path, capsys, field, ids):
    # "H": ["0"] used to verify as valid (exit 0): Subgroup read "0" as 0;
    # so did each of the double_coset_reps and "U": [true, 3], read
    # through int()
    path = _tampered_cyclic4_cert(tmp_path, **{field: ids})
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-integer element id" in captured.err


def test_cli_verify_negative_int_id_in_a_u_with_other_ids_is_an_error(tmp_path, capsys):
    # a U that holds non-int ids has its int ids bounded one at a time
    path = _tampered_cyclic4_cert(tmp_path, U=["1", -1])
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "field 'U' holds a negative element id" in captured.err


@pytest.mark.parametrize("field", ["A", "U", "X", "double_coset_reps"])
def test_cli_verify_non_list_id_field_is_an_error(tmp_path, capsys, field):
    # each of these used to raise TypeError out of cli.main
    path = _tampered_cyclic4_cert(tmp_path, **{field: 5})
    with pytest.raises(ParseError):
        rs.verify_certificate_file(path)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{field!r} must be a list of element ids" in captured.err


@pytest.mark.parametrize("x", [4, 99])
def test_cli_verify_x_id_beyond_the_order_is_an_error(tmp_path, capsys, x):
    # "X": [99] used to raise IndexError out of cli.main
    path = _tampered_cyclic4_cert(tmp_path, X=[1, x])
    with pytest.raises(ParseError):
        rs.verify_certificate_file(path)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"id {x} in 'X' is not below the group order 4" in captured.err


@pytest.mark.parametrize("field,ids", [
    ("H", [99]), ("A", [0, 99]), ("U", [99]), ("U", ["1", 99]),
])
def test_cli_verify_id_beyond_the_order_is_an_error(tmp_path, capsys, field, ids):
    # on the dihedral(4) certificate of test_certificate_tamper each of these
    # used to verify as INVALID (exit 1)
    g = rs.dihedral(4)
    pair = rs.PairSpec(g, rs.Subgroup(g, [0, 2]), rs.Subgroup(g, [0, 2, 4, 6]))
    path = tmp_path / "cert.json"
    rs.write_certificate(rs.decide_regular_set(pair, 1, 1), path)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **{field: ids})))
    with pytest.raises(ParseError):
        rs.verify_certificate_file(path)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"id 99 in {field!r} is not below the group order 8" in captured.err


def test_certificate_missing_field(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text('{"group": {}}')
    with pytest.raises(ParseError):
        rs.verify_certificate_file(path)


# -- survey -------------------------------------------------------------------------


def test_survey_c4_rows():
    report = rs.survey(rs.cyclic(4))
    assert not report.anomalies
    row = next(r for r in report.rows if r["H"] == [0] and r["A"] == [0, 2])
    assert [0, 2] in row["achievable"]
    assert [0, 1] not in row["achievable"]


def test_survey_zero_anomalies_on_small_groups():
    for G in (rs.symmetric(3), rs.dihedral(4), rs.quaternion8(), rs.cyclic(6)):
        report = rs.survey(G)
        assert report.anomalies == []


def test_survey_sl23_contains_the_order24_instance_row(sl23_pair):
    report = rs.survey(sl23_pair.G)
    row = next(
        r for r in report.rows
        if r["H"] == list(sl23_pair.H.members) and r["A"] == list(sl23_pair.A.members)
    )
    assert [0, 2] in row["achievable"]
    assert [0, 1] not in row["achievable"]
    assert row["anomalies"] == []


def test_survey_degenerate_flag():
    report = rs.survey(rs.cyclic(2))
    full_row = next(r for r in report.rows if r["A"] == [0, 1])
    assert full_row["degenerate_s"] is True


def _survey_counting_rows(G):
    """The survey of ``G`` and the number of rows it decided."""
    calls = []
    real = harness._survey_row

    def counting(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_survey_row", counting)
        report = rs.survey(G)
    return report, len(calls)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_survey_answers_survive_relabelling(corpus, data):
    # relabel the table by a permutation fixing 0: representatives (least
    # elements), Light's generators, the automorphism search's candidates
    # and the grouping of pairs into Aut(G)-orbits are chosen on the new
    # labels, yet |Aut(G)| and the number of classes stay the same, and
    # every row must map back onto the original row
    G = data.draw(st.sampled_from(corpus))
    n = G.order
    perm = [0, *data.draw(st.permutations(range(1, n)))]
    back = [0] * n
    for a, p in enumerate(perm):
        back[p] = a
    relabelled = rs.from_table(
        [[perm[G.mult[back[i]][back[j]]] for j in range(n)] for i in range(n)]
    )
    assert len(oracles.permutation_group(rs.automorphism_generators(relabelled), n)) == len(
        oracles.permutation_group(rs.automorphism_generators(G), n))
    report, decided = _survey_counting_rows(G)
    want = {(tuple(row["H"]), tuple(row["A"])): row for row in report.rows}
    relabelled_report, relabelled_decided = _survey_counting_rows(relabelled)
    assert relabelled_decided == decided
    got = relabelled_report.rows
    assert len(got) == len(want)
    for row in got:
        H = tuple(sorted(back[h] for h in row["H"]))
        A = tuple(sorted(back[a] for a in row["A"]))
        assert {**row, "H": list(H), "A": list(A)} == want[(H, A)]


def test_survey_workers_match_sequential():
    g = rs.cyclic(4)
    seq = rs.survey(g, workers=1)
    par = rs.survey(g, workers=2)
    assert seq.rows == par.rows


def _class_representatives(G):
    """The first pair of each Aut(G)-orbit of subgroup pairs H <= A, in
    the survey's pair order, as (H, A) element sets."""
    subs = rs.all_subgroups(G)
    pairs = [
        (frozenset(H.members), frozenset(A.members))
        for A in subs for H in subs if H.is_subset_of(A)
    ]
    return oracles.pair_orbit_representatives(pairs, oracles.automorphisms_brute_force(G))


def test_survey_matches_a_row_for_every_pair(corpus):
    # Order 16 is left out to keep the test short; the abelian groups stay
    # in, as Aut(G) merges their pairs where conjugation merged none.
    for spec in (G.spec for G in corpus if G.order != 16):
        rows = rs.survey(rs.parse_group_spec(json.dumps(spec))).rows
        G = rs.parse_group_spec(json.dumps(spec))
        subs = rs.all_subgroups(G)
        every = [
            harness._survey_row(G, H, A, Limits())
            for A in subs for H in subs if H.is_subset_of(A)
        ]
        assert rows == sorted(every, key=lambda row: (row["H"], row["A"])), G.label


def test_automorphism_search_matches_brute_force(corpus):
    # the maps found generate the whole of Aut(G), each is a bijection that
    # preserves every product, and the survey decides one row per Aut-orbit
    sizes = {}
    for G in (G for G in corpus if G.order <= 16 or G.order == 24):
        n = G.order
        found = rs.automorphism_generators(G)
        brute = sizes[G.label] = oracles.automorphisms_brute_force(G)
        assert oracles.permutation_group(found, n) == set(brute), G.label
        for phi in found:
            assert sorted(phi) == list(range(n))
            assert all(phi[G.mult[a][b]] == G.mult[phi[a]][phi[b]]
                       for a in range(n) for b in range(n)), G.label
        subs = rs.all_subgroups(G)
        pairs = [(frozenset(H.members), frozenset(A.members))
                 for A in subs for H in subs if H.is_subset_of(A)]
        classes = len(oracles.pair_orbit_representatives(pairs, brute))
        assert _survey_counting_rows(G)[1] == classes, G.label
    c2 = "xcyclic(2)"
    assert {label: len(sizes[label]) for label in (
        "dicyclic(2)", "cyclic(2)" + 2 * c2, "cyclic(2)" + 3 * c2, "dihedral(12)"
    )} == {"dicyclic(2)": 24, "cyclic(2)" + 2 * c2: 168, "cyclic(2)" + 3 * c2: 20160,
           "dihedral(12)": 48}


@pytest.mark.parametrize("build, classes", [
    pytest.param(lambda: rs.symmetric(4), 45, id="S4"),
    pytest.param(lambda: rs.sl23(), 23, id="SL(2,3)"),
    pytest.param(lambda: rs.dihedral(12), 54, id="D24"),
    pytest.param(lambda: rs.dihedral(24), 90, id="D48"),
    pytest.param(lambda: rs.direct_product(rs.symmetric(4), rs.cyclic(2)), 171, id="S4xC2"),
    pytest.param(lambda: functools.reduce(rs.direct_product, [rs.cyclic(2)] * 5), 21,
                 id="C2^5"),
])
def test_survey_decides_one_row_per_automorphism_class(build, classes):
    report, decided = _survey_counting_rows(build())
    assert decided == classes
    assert report.anomalies == []


def test_survey_rows_share_no_lists():
    rows = rs.survey(rs.symmetric(3)).rows
    for field in ("achievable", "agreements", "anomalies"):
        assert len({id(row[field]) for row in rows}) == len(rows)
    assert len({id(p) for row in rows for p in row["achievable"]}) == sum(
        len(row["achievable"]) for row in rows
    )


def test_survey_decides_each_query_once(monkeypatch):
    sweeps = []
    decides = []
    real_sweep = regular_sets.achievable_profiles
    real_decide = regular_sets.decide_regular_set

    def counting_sweep(pair, *args, **kwargs):
        sweeps.append((pair.H.mask, pair.A.mask))
        return real_sweep(pair, *args, **kwargs)

    def counting_decide(*args, **kwargs):
        decides.append(args[1:3])
        return real_decide(*args, **kwargs)

    monkeypatch.setattr(harness, "achievable_profiles", counting_sweep)
    monkeypatch.setattr(regular_sets, "achievable_profiles", counting_sweep)
    monkeypatch.setattr(regular_sets, "decide_regular_set", counting_decide)
    G = rs.symmetric(4)
    report = rs.survey(G)
    # every (r,s) of a class representative comes from one achievable_profiles
    # call; the row reads only the normalizer reduction's verdict, so the
    # representatives with A normal in G and (0,1) achievable, whose
    # reduction would lift a certificate, run no quotient-level search
    reps = _class_representatives(G)
    assert len(sweeps) == len(set(sweeps)) == len(reps)
    codes = {
        (frozenset(row["H"]), frozenset(row["A"]))
        for row in report.rows if [0, 1] in row["achievable"]
    }
    lifted = sum(
        (h, a) in codes
        and all(oracles.conjugate_set(G, a, g) == a for g in range(G.order))
        for h, a in reps
    )
    assert 0 < lifted < len(reps)
    assert decides == []


def test_survey_certifies_every_achievable_profile(monkeypatch):
    # every achievable r and every achievable s of each class
    # representative is certified, within one set, on that representative's
    # own pair during the survey; by certify's halves argument those sets
    # back every (r,s) of the row
    certified = set()
    real_certify = regular_sets.certify

    def recording_certify(pair, class_reps, U, r, s):
        cert = real_certify(pair, class_reps, U, r, s)
        certified.add((pair.G, frozenset(pair.H.members), frozenset(pair.A.members), r, s))
        return cert

    monkeypatch.setattr(regular_sets, "certify", recording_certify)
    G = rs.symmetric(4)
    report = rs.survey(G)
    rows = {(frozenset(row["H"]), frozenset(row["A"])): row for row in report.rows}
    profiles = 0
    for h, a in _class_representatives(G):
        achievable = rows[(h, a)]["achievable"]
        mine = [(r, s) for g, hh, aa, r, s in certified if g is G and (hh, aa) == (h, a)]
        assert {r for r, _ in achievable} == {r for r, _ in mine}
        assert {s for _, s in achievable} == {s for _, s in mine}
        profiles += len(achievable)
    assert profiles > len(certified) > len(_class_representatives(G))


# each perfect-code column of a survey row: the name harness reads its
# criterion under, and the anomaly it reports when it disagrees with the search
PERFECT_CODE_CRITERIA = {
    "perfect_code": ("normalizer_reduction",
                     "perfect-code decision disagrees with search at (0,1)"),
    "normalizer_criterion": ("perfect_code_normalizer_criterion",
                             "normalizer criterion disagrees with perfect-code"),
    "quotient_criterion": ("perfect_code_quotient_criterion",
                           "quotient criterion disagrees with perfect-code"),
    "odd_order": ("perfect_code_odd_order_criterion",
                  "odd-order criterion disagrees with perfect-code"),
    "necessary": ("necessary_conjugate_intersection",
                  "necessary conjugate-intersection condition violated"),
}


@pytest.mark.parametrize("key", list(PERFECT_CODE_CRITERIA))
def test_survey_fails_a_negated_criterion_alone(monkeypatch, key):
    # each criterion is checked against the search, not against another
    # criterion, so negating one fails its own column and no other
    G = rs.symmetric(4)
    clean = rs.survey(G).rows
    name, anomaly = PERFECT_CODE_CRITERIA[key]
    real = getattr(harness, name)

    def negated(*args, **kwargs):
        verdict = real(*args, **kwargs)
        if name == "normalizer_reduction":
            return dataclasses.replace(verdict, verdict=not verdict.verdict)
        return not verdict

    monkeypatch.setattr(harness, name, negated)
    rows = rs.survey(G).rows
    failed = 0
    for before, after in zip(clean, rows):
        assert list(after["agreements"]) == list(before["agreements"])
        if before["agreements"][key] == "n/a" or (
                key == "perfect_code" and not before["A_normal_in_G"]):
            assert after == before
            continue
        failed += 1
        assert before["agreements"][key] == "ok" and before["anomalies"] == []
        assert after == dict(before, agreements=dict(before["agreements"], **{key: "fail"}),
                             anomalies=[anomaly])
    assert failed


class _RecordingPool:
    """Stands in for ProcessPoolExecutor and runs the rows in-process."""

    made: list = []
    mapped: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.made.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.mapped.extend(items)
        return map(fn, items)


def test_survey_pool_maps_class_representatives_only(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(_RecordingPool, "mapped", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1000)
    G = rs.symmetric(4)
    report = rs.survey(G, workers=1000)
    reps = _class_representatives(G)
    masks = [tuple(sum(1 << e for e in s) for s in rep) for rep in reps]
    assert _RecordingPool.mapped == masks
    assert _RecordingPool.made == [len(reps)]
    assert len(report.rows) > len(reps)
    assert report.rows == rs.survey(rs.symmetric(4)).rows


@pytest.mark.parametrize("workers, cpus, expected", [
    (1000, 4, [4]),     # capped at the CPU count
    (1000, 64, [6]),    # capped at the 6 subgroup pairs of C4
    (3, 64, [3]),
    (1000, None, []),   # unknown CPU count: run sequentially
    (1, 64, []),
])
def test_survey_clamps_workers(monkeypatch, workers, cpus, expected):
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    report = rs.survey(rs.cyclic(4), workers=workers)
    assert _RecordingPool.made == expected
    assert report.rows == rs.survey(rs.cyclic(4)).rows


def test_survey_rejects_fewer_than_one_worker(monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    with pytest.raises(ValueError):
        rs.survey(rs.cyclic(4), workers=0)
    assert main(["survey", "preset:cyclic:4", "--workers", "0"]) == 2
    assert main(["survey", "preset:cyclic:4", "--workers", "-3"]) == 2


def test_survey_cap():
    with pytest.raises(OrderExceedsCap):
        rs.survey(rs.cyclic(8), limits=Limits(enumeration_cap=4))


def test_survey_json_shape():
    report = rs.survey(rs.cyclic(4))
    data = report.to_json_dict()
    assert list(data) == ["group", "order", "rows"]
    assert all(
        list(row) == ["H", "A", "H_normal_in_A", "A_normal_in_G", "degenerate_s",
                      "achievable", "agreements", "anomalies"]
        for row in data["rows"]
    )


# -- env overrides ---------------------------------------------------------------------


def test_limits_from_env(monkeypatch):
    monkeypatch.setenv("REGSET_MAX_ORDER", "100")
    lim = limits_from_env()
    assert lim.enumeration_cap == 100
    assert lim.closure_cap == 5000
    monkeypatch.setenv("REGSET_MAX_ORDER", "bogus")
    with pytest.raises(ParseError):
        limits_from_env()


def test_limits_from_env_keeps_the_group_order_cap(monkeypatch):
    # the environment may raise the enumeration cap up to closure_cap, never
    # closure_cap itself, so every group order stays bounded
    monkeypatch.setenv("REGSET_MAX_ORDER", "5000")
    assert limits_from_env() == Limits(enumeration_cap=5000)
    for value in ("5001", "1000000000"):
        monkeypatch.setenv("REGSET_MAX_ORDER", value)
        with pytest.raises(ParseError, match="exceeds the group-order cap 5000"):
            limits_from_env()
    base = Limits(closure_cap=60)
    monkeypatch.setenv("REGSET_MAX_ORDER", "60")
    assert limits_from_env(base) == Limits(closure_cap=60, enumeration_cap=60)
    monkeypatch.setenv("REGSET_MAX_ORDER", "61")
    with pytest.raises(ParseError, match="exceeds the group-order cap 60"):
        limits_from_env(base)


# -- command line -------------------------------------------------------------------------


def test_cli_check_found_and_emit(tmp_path, capsys):
    path = tmp_path / "c.json"
    rc = main(["check", "preset:cyclic:4", "--A", "0,2", "--r", "0", "--s", "2",
               "--emit", str(path)])
    assert rc == 0
    assert path.exists()
    assert main(["verify", str(path)]) == 0


def test_cli_check_absent():
    assert main(["check", "preset:cyclic:4", "--A", "0,2", "--r", "0", "--s", "1"]) == 1


def test_cli_perfect_code_exit_codes():
    assert main(["perfect-code", "preset:cyclic:4", "--A", "0,2"]) == 1
    assert main(["perfect-code", "preset:symmetric:3", "--A", "gen:2"]) == 0


def test_cli_construct(tmp_path, capsys):
    path = tmp_path / "c.json"
    rc = main(["construct", "preset:quaternion8", "--H", "0,2", "--A", "gen:1",
               "--r", "1", "--s", "2", "--emit", str(path)])
    assert rc == 0
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    # conditions fail -> exit 1, each failure named with its least element
    assert main(["construct", "preset:cyclic:4", "--A", "0,2", "--r", "0", "--s", "1"]) == 1
    assert capsys.readouterr().out == (
        "condition parity: pass\n"
        "condition divisibility: pass\n"
        "condition self_paired: FAIL (witness element 1)\n"
    )
    assert main(["construct", "preset:dihedral:4", "--H", "0,4", "--A", "0,2,4,6",
                 "--r", "0", "--s", "1"]) == 1
    assert capsys.readouterr().out == (
        "condition parity: pass\n"
        "condition divisibility: FAIL (witness element 1)\n"
        "condition self_paired: pass\n"
    )


def test_cli_verify_tampered(tmp_path):
    path = tmp_path / "c.json"
    main(["check", "preset:cyclic:4", "--A", "0,2", "--r", "0", "--s", "2",
          "--emit", str(path)])
    data = json.loads(path.read_text())
    data["X"] = data["X"][:1]
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1


def test_cli_survey(tmp_path, capsys):
    out = tmp_path / "survey.json"
    rc = main(["survey", "preset:cyclic:4", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["group"] == "cyclic(4)" and len(data["rows"]) == 6
    text = capsys.readouterr().out
    assert "total anomalies: 0" in text


def test_cli_show(capsys):
    assert main(["show", "preset:quaternion8"]) == 0
    out = capsys.readouterr().out
    assert "6 subgroups" in out


def test_cli_show_checks_the_cap_before_printing(monkeypatch, capsys):
    monkeypatch.setenv("REGSET_MAX_ORDER", "1")
    assert main(["show", "preset:cyclic:300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds enumeration cap 1" in captured.err


@pytest.mark.parametrize("value", ["abc", "0", "5001", "1000000000"])
def test_cli_malformed_max_order_is_an_error(monkeypatch, capsys, value):
    monkeypatch.setenv("REGSET_MAX_ORDER", value)
    assert main(["show", "preset:cyclic:4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_cli_usage_error_exits_2():
    assert main(["check", "preset:cyclic:4"]) == 2  # missing required args
    assert main([]) == 2


def test_cli_builds_the_parser_once(monkeypatch, capsys):
    from regsets import cli

    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    outputs = []
    for _ in range(2):
        assert main(["show", "preset:cyclic:4"]) == 0
        outputs.append(capsys.readouterr())
    assert len(built) <= 1
    assert outputs[0] == outputs[1] and "3 subgroups" in outputs[0].out


_C1 = '{"kind":"preset","name":"cyclic","n":1}'


def _nested_products_text(depth: int) -> str:
    """A product spec with ``depth`` nested products (JSON about twice as
    deep), built as text so that nothing here recurses."""
    return ('{"kind":"preset","name":"product","factors":[' * depth + _C1
            + ("," + _C1 + "]}") * depth)


@pytest.mark.parametrize("spec", [
    '{"kind":"preset","name":"cyclic","n":[1]}',
    '{"kind":"preset","name":[1]}',
    '{"kind":"preset","name":"cyclic","n":true}',
    '{"kind":"preset","name":"product","factors":5}',
    '{"kind":"preset","name":"product","factors":[3,4]}',
    '{"kind":"preset","name":"product","factors":'
    '[{"kind":"preset","name":"cyclic","n":[2]},{"kind":"preset","name":"cyclic","n":2}]}',
    '{"kind":"permutation","degree":"3","generators":[]}',
    '{"kind":"permutation","degree":3,"generators":[5]}',
    '{"kind":"permutation","degree":3,"generators":[[[[0],1]]]}',
    '{"kind":"table","matrix":[5]}',
    '{"kind":"table","matrix":[[0,"1"],[1,0]]}',
    '{"kind":"preset","name":"product","n":3,"factors":[%s,%s]}' % (_C1, _C1),
    # json.loads raised RecursionError out of cli.main on this one
    pytest.param(_nested_products_text(600), id="products-nested-600"),
])
def test_cli_malformed_group_spec_exits_2(spec, capsys):
    assert main(["show", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_show_deeply_nested_product(capsys):
    # the spec walk used to raise RecursionError at 400 levels
    assert main(["show", _nested_products_text(400)]) == 0
    assert "order 1\n" in capsys.readouterr().out


def test_cli_verify_certificate_too_deep_for_json_exits_2(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text("[" * 5000 + "]" * 5000)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: cannot read certificate")


def test_preset_spec_too_deep_to_walk_is_a_parse_error():
    c1 = spec = {"kind": "preset", "name": "cyclic", "n": 1}
    for _ in range(5000):
        spec = {"kind": "preset", "name": "product", "factors": [spec, c1]}
    with pytest.raises(ParseError, match="nested too deep"):
        harness.group_from_spec_dict(spec)


def test_cli_bad_inputs_exit_2():
    assert main(["show", "preset:nosuch"]) == 2
    assert main(["check", "preset:cyclic:4", "--A", "0,1,2", "--r", "0", "--s", "0"]) == 2
    assert main(["verify", "missing.json"]) == 2
