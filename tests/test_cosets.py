import json

import pytest

import regsets as rs
from regsets import cosets, regular_sets
from regsets.cli import main
from regsets.errors import NotLeftCosetUnion

import oracles


def transposition_subgroup(s3):
    t = s3.perms.index((1, 0, 2))
    return rs.generate_subgroup(s3, [t])


def three_cycle(s3):
    return s3.perms.index((1, 2, 0))


# -- left cosets ---------------------------------------------------------------


def test_left_cosets_whole_group(s3):
    space = rs.left_cosets(s3, s3.full_subgroup())
    assert space.size == 1 and space.reps == (0,)


def test_left_cosets_trivial_subgroup(s3):
    space = rs.left_cosets(s3, rs.trivial_subgroup(s3))
    assert space.size == 6


def test_left_cosets_s3_index_three(s3):
    H = transposition_subgroup(s3)
    space = rs.left_cosets(s3, H)
    assert space.size == 3
    assert space.reps[0] == 0
    # representatives are the minimum of their coset
    for c in oracles.left_coset_sets(s3, H.members):
        assert space.reps[space.coset_of[min(c)]] == min(c)


def test_coset_of_membership_rule(s3):
    H = transposition_subgroup(s3)
    space = rs.left_cosets(s3, H)
    for g1 in range(6):
        for g2 in range(6):
            same = space.coset_of[g1] == space.coset_of[g2]
            assert same == (s3.mult[s3.inv[g1]][g2] in H)


def test_coset_sizes_sum(small_corpus):
    for G in small_corpus:
        for H in rs.all_subgroups(G):
            space = rs.left_cosets(G, H)
            assert space.size * H.order == G.order
            assert all(m.bit_count() == H.order for m in space.masks)


def test_left_cosets_match_naive_partition(s3):
    H = transposition_subgroup(s3)
    space = rs.left_cosets(s3, H)
    want = [rs.mask_of(s3, c) for c in oracles.left_coset_sets(s3, H.members)]
    assert sorted(space.masks) == sorted(want)


# -- transversals ----------------------------------------------------------------


def test_transversal_whole_group(s3):
    assert rs.left_cosets(s3, s3.full_subgroup()).reps == (0,)


def test_transversal_trivial(s3):
    assert rs.left_cosets(s3, rs.trivial_subgroup(s3)).reps == tuple(range(6))


def test_transversal_c6_over_c3():
    g = rs.cyclic(6)
    A = rs.Subgroup(g, [0, 2, 4])
    assert rs.left_cosets(g, A).reps == (0, 1)


# -- double cosets -----------------------------------------------------------------


def test_double_coset_inside_subgroup(s3):
    H = transposition_subgroup(s3)
    for h in H.members:
        assert rs.double_coset(H, h) == frozenset(H.members)


def test_double_coset_trivial_subgroup(s3):
    H = rs.trivial_subgroup(s3)
    assert rs.double_coset(H, 4) == frozenset([4])


def test_double_coset_s3(s3):
    H = transposition_subgroup(s3)
    d = rs.double_coset(H, three_cycle(s3))
    assert len(d) == 4
    assert d == oracles.double_coset_set(s3, set(H.members), three_cycle(s3))


def test_double_coset_rejects_ids_outside_the_group(s3):
    # a negative id is not read from the end of the coset table
    H = rs.trivial_subgroup(s3)
    for x in (-1, s3.order):
        for double in (cosets.double_coset_mask, rs.double_coset):
            with pytest.raises(IndexError, match=f"element {x} out of range 0..5"):
                double(H, x)


def test_double_coset_well_defined(small_corpus):
    for G in small_corpus[:8]:
        for H in rs.all_subgroups(G):
            for x in range(G.order):
                d = rs.double_coset(H, x)
                for y in d:
                    assert rs.double_coset(H, y) == d


def test_double_coset_size_formula(small_corpus):
    # |HxH| = |H|^2 / |H meet H^x|
    for G in small_corpus[:8]:
        for H in rs.all_subgroups(G):
            for x in range(G.order):
                d = rs.double_coset(H, x)
                meet = set(H.members) & oracles.conjugate_set(G, H.members, x)
                assert len(d) * len(meet) == H.order * H.order


# -- decomposition -------------------------------------------------------------------


def test_decompose_single_subgroup_class(s3):
    # class 0 is H itself
    H = transposition_subgroup(s3)
    d = rs.decompose_into_double_cosets(H)
    assert d.reps[0] == 0 and d.masks[0] == H.mask and d.inverse[0] == 0
    assert d.cosets[0] == (0,) and d.class_of[0] == 0
    whole = rs.decompose_into_double_cosets(s3.full_subgroup())
    assert len(whole) == 1 and whole.inverse == (0,) and whole.class_of == (0,)


def test_decompose_whole_group(small_corpus):
    for G in small_corpus[:8]:
        for H in rs.all_subgroups(G):
            d = rs.decompose_into_double_cosets(H)
            classes = [oracles.double_coset_set(G, H.members, rep) for rep in d.reps]
            # each mask is its class by definition, and the classes partition G
            assert list(d.masks) == [rs.mask_of(G, c) for c in classes]
            assert sorted(x for c in classes for x in c) == list(range(G.order))
            assert all(rep == min(c) for rep, c in zip(d.reps, classes))
            assert list(d.reps) == sorted(d.reps) and classes[0] == frozenset(H.members)
            # inverse locates the inverse set; it is an involution
            for i, c in enumerate(classes):
                assert classes[d.inverse[i]] == frozenset(G.inv[x] for x in c)
                assert d.inverse[d.inverse[i]] == i
            # class_of places each left coset in the class holding it
            space = rs.left_cosets(G, H)
            for c in oracles.left_coset_sets(G, H.members):
                assert c <= classes[d.class_of[space.coset_of[min(c)]]]


def test_decompose_lists_each_class_coset_minima(small_corpus):
    # cosets[i] is the least element of each left H-coset inside class i, ascending
    for G in small_corpus:
        for H in rs.all_subgroups(G):
            cosets = oracles.left_coset_sets(G, set(H.members))
            d = rs.decompose_into_double_cosets(H)
            assert len(d.cosets) == len(d)
            for mask, minima in zip(d.masks, d.cosets):
                assert minima == tuple(sorted(
                    min(c) for c in cosets if all(mask >> g & 1 for g in c)))


def test_one_split_serves_every_caller(monkeypatch, tmp_path):
    # the units, every double-coset lookup, and issuing and verifying a
    # certificate each read the one cached split of G per (group, H)
    built = []
    real_split = cosets.DoubleCosetDecomp

    def counting_split(*args):  # constructed once per cold decomposition
        built.append(real_split(*args))  # kept alive, so ids stay distinct
        return built[-1]

    monkeypatch.setattr(cosets, "DoubleCosetDecomp", counting_split)

    def distinct():
        return len({(id(d.subgroup.parent), d.subgroup.mask) for d in built})

    G = rs.symmetric(4)
    subs = rs.all_subgroups(G)
    for H in subs:
        regular_sets._subgroup_units(G, H)
        for x in range(G.order):
            assert cosets.double_coset_mask(H, x) >> x & 1
    assert len(built) == len(subs) == distinct()
    path = tmp_path / "cert.json"
    assert main(["check", "preset:symmetric:4", "--H", "0,1", "--A", "gen:1,5",
                 "--r", "1", "--s", "2", "--emit", str(path)]) == 0
    assert distinct() == len(built) > len(subs)
    emitted = len(built)
    assert len(json.loads(path.read_text())["double_coset_reps"]) > 1
    assert rs.verify_certificate_file(path)
    assert len(built) == emitted + 1 == distinct()


# -- coset counting --------------------------------------------------------------------


def test_left_coset_count_empty(s3):
    H = transposition_subgroup(s3)
    assert rs.left_coset_count([], H) == 0


def test_left_coset_count_subgroup(s3):
    H = transposition_subgroup(s3)
    assert rs.left_coset_count(H.members, H) == 1


def test_left_coset_count_double_coset(s3):
    H = transposition_subgroup(s3)
    assert rs.left_coset_count(rs.double_coset(H, three_cycle(s3)), H) == 2


def test_left_coset_count_rejects_partial(s3):
    H = transposition_subgroup(s3)
    with pytest.raises(NotLeftCosetUnion):
        rs.left_coset_count([three_cycle(s3)], H)


# -- conjugation index -------------------------------------------------------------------


def test_conj_index_normalizer_element(s3):
    H = transposition_subgroup(s3)
    for t in rs.normalizer(s3, H).members:
        assert rs.conj_index(H, t) == 1


def test_conj_index_trivial_subgroup(s3):
    H = rs.trivial_subgroup(s3)
    assert all(rs.conj_index(H, t) == 1 for t in range(6))


def test_conj_index_s3(s3):
    H = transposition_subgroup(s3)
    assert rs.conj_index(H, three_cycle(s3)) == 2


def test_conj_index_symmetric_under_inverse(small_corpus):
    for G in small_corpus[:8]:
        for H in rs.all_subgroups(G):
            for t in range(G.order):
                assert rs.conj_index(H, t) == rs.conj_index(H, G.inv[t])


def test_conj_index_matches_double_coset_size(small_corpus):
    for G in small_corpus[:6]:
        for H in rs.all_subgroups(G):
            for t in range(G.order):
                assert rs.conj_index(H, t) * H.order == len(rs.double_coset(H, t))
