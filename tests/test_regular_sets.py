import hashlib
import json
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import regsets as rs
from regsets import cosets, group_core, regular_sets
from regsets.config import Limits
from regsets.errors import (
    ConstructionFailed,
    NotDoubleCosetUnion,
    PreconditionViolated,
    RegsetError,
    SearchBudgetExceeded,
)
from regsets.regular_sets import CheckResult

import oracles


def c4_pair():
    g = rs.cyclic(4)
    return rs.PairSpec(g, rs.trivial_subgroup(g), rs.Subgroup(g, [0, 2]))


def s3_a3_pair(s3):
    A3 = rs.generate_subgroup(s3, [s3.perms.index((1, 2, 0))])
    return rs.PairSpec(s3, rs.trivial_subgroup(s3), A3)


def assert_certificate_sound(cert):
    pair = cert.pair
    G, H, A = pair.G, pair.H, pair.A
    assert all(c.passed for c in cert.checks)
    # degree identity k = r + (|G:A| - 1) * s
    blocks = G.order // A.order
    if blocks > 1:
        assert cert.degree == cert.r + (blocks - 1) * cert.s
    # independent recount straight from definitions
    prof = oracles.graph_profile(G, set(H.members), set(cert.connection.members),
                                 set(A.members))
    assert prof is not None and prof[0] == cert.r
    if blocks > 1:
        assert prof[1] == cert.s
    # U decomposes into exactly the reported double cosets
    rebuilt = set()
    for rep in cert.double_coset_reps:
        rebuilt |= rs.double_coset(H, rep)
    assert rebuilt == set(cert.connection.members)


# -- witness verification -----------------------------------------------------


def test_empty_witness_is_zero_zero(s3):
    pair = s3_a3_pair(s3)
    assert rs.verify_witness(pair, (), 0, 0).ok


def test_c4_single_element_witness_fails_inverse_closure():
    pair = c4_pair()
    report = rs.verify_witness(pair, {1}, 0, 1)
    assert not report.ok
    flags = dict(report.checks)
    assert flags["inverse_symmetry"] is False


def test_sl23_explicit_witness(sl23_pair):
    # X = {hx, hx^-1, x, x^-1} with h generating H and x of order 3
    G, H = sl23_pair.G, sl23_pair.H
    h = min(a for a in H.members if G.element_order(a) == 4)
    verified = 0
    for x in range(G.order):
        if G.element_order(x) != 3:
            continue
        X = {G.mult[h][x], G.mult[h][G.inv[x]], x, G.inv[x]}
        if rs.verify_witness(sl23_pair, X, 0, 2).ok:
            verified += 1
    assert verified == 8  # every order-3 element works


# -- certification ---------------------------------------------------------------


def chain_checks(pair, U, r, s):
    """The certificate checks as the witness test and the profile of the built
    coset graph compute them, independently of ``certify``."""
    G, H, A = pair.G, pair.H, pair.A
    graph = rs.build(G, H, rs.validate_connection_set(H, rs.mask_of(G, U)))
    cvert = {graph.space.coset_of[a] for a in A.members}
    prof = rs.profile_subset(graph, cvert)
    if len(cvert) == graph.vertex_count:
        profile_ok = prof is not None and prof[0] == r
    else:
        profile_ok = prof == (r, s)
    return rs.verify_witness(pair, U, r, s).checks + (CheckResult("graph_profile", profile_ok),)


def certify_checks(pair, U, r, s):
    try:
        return rs.certify(pair, rs.mask_of(pair.G, U), r, s).checks
    except ConstructionFailed as exc:
        return exc.checks


def test_certify_agrees_with_witness_and_graph_oracle(small_corpus):
    # every certificate the search finds, and unions of units against a
    # wrong (r,s), on every pair H <= A of every group of order <= 12
    rng = random.Random(11)
    certified = 0
    failures = {name: 0 for name in ("inside_count", "outside_counts", "graph_profile")}
    for G in small_corpus:
        subs = rs.all_subgroups(G)
        for A in subs:
            for H in subs:
                if not H.is_subset_of(A):
                    continue
                pair = rs.PairSpec(G, H, A)
                idx = pair.code_index
                for r in range(idx):
                    for s in range(idx + 1):
                        cert = rs.decide_regular_set(pair, r, s)
                        if cert is None:
                            continue
                        U = cert.connection.members
                        assert cert.checks == chain_checks(pair, U, r, s)
                        assert all(c.passed for c in cert.checks)
                        certified += 1
                units = oracles.inverse_closed_units(G, set(H.members))
                for _ in range(4):
                    U = set().union(*(u for u in units if rng.random() < 0.5))
                    prof = oracles.graph_profile(G, set(H.members), U, set(A.members))
                    for r in range(idx):
                        for s in (0, idx):
                            if prof == (r, s) or prof == (r, None):
                                continue
                            checks = certify_checks(pair, U, r, s)
                            assert checks == chain_checks(pair, U, r, s)
                            assert not all(c.passed for c in checks)
                            for c in checks:
                                if not c.passed:
                                    failures[c.name] += 1
    assert certified == 5160
    assert all(failures.values())


def test_certify_rejects_invalid_connection_sets(s3):
    pair = s3_a3_pair(s3)
    with pytest.raises(RegsetError):
        rs.certify(pair, rs.mask_of(s3, {0}), 0, 0)  # meets H
    t = s3.perms.index((1, 2, 0))
    with pytest.raises(RegsetError):
        rs.certify(pair, rs.mask_of(s3, {t}), 0, 0)  # not inverse closed
    with pytest.raises(ValueError, match="negative"):
        rs.certify(pair, -1, 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        rs.certify(pair, 1 << s3.order, 0, 0)  # past the group order
    # {t, t^-1} is inverse closed and misses H = <(0 1)>, but holds only t
    # of the H-coset {t, t(0 1)}
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    split = rs.mask_of(s3, {t, s3.inv[t]})
    with pytest.raises(NotDoubleCosetUnion):
        rs.certify(rs.PairSpec(s3, H, s3.full_subgroup()), split, 0, 1)


def _record_certificates(monkeypatch):
    """The list that every certificate regular_sets.certify issues from
    now on is appended to."""
    issued = []
    real = regular_sets.certify

    def recording(*args):
        cert = real(*args)
        issued.append(cert)
        return cert

    monkeypatch.setattr(regular_sets, "certify", recording)
    return issued


def _count_walks(monkeypatch):
    """The list that every connection set regular_sets walks from now on is
    appended to."""
    walks = []
    real = regular_sets.validate_connection_set

    def counting(H, U):
        walks.append(U)
        return real(H, U)

    monkeypatch.setattr(regular_sets, "validate_connection_set", counting)
    return walks


def test_certificates_built_from_masks_materialise(small_corpus, monkeypatch):
    # certify sees U only as a mask; the members read back from each set
    # that achievable_profiles certifies (one per r, one per s) must be the
    # union of the units (element sets from the oracle) that the reported
    # representatives name, and both JSON fields list them
    issued = _record_certificates(monkeypatch)
    materialised = profiles = 0
    for G in small_corpus:
        for bad in (-1, G.order):
            with pytest.raises(ValueError):
                rs.mask_of(G, [0, bad])
        subs = rs.all_subgroups(G)
        for A in subs:
            for H in subs:
                if not H.is_subset_of(A):
                    continue
                units = oracles.inverse_closed_units(G, set(H.members))
                issued.clear()
                R, S = rs.achievable_profiles(rs.PairSpec(G, H, A))
                profiles += len(R) * len(S)
                assert {c.r for c in issued} == set(R) and {c.s for c in issued} == set(S)
                for cert in issued:
                    reps = set(cert.double_coset_reps)
                    want = frozenset().union(*(u for u in units if u & reps))
                    members = cert.connection.members
                    assert members == want and cert.witness == want
                    assert cert.connection.mask == rs.mask_of(G, want)
                    assert len(cert.connection) == len(want)
                    data = cert.to_json_dict()
                    assert data["U"] == data["X"] == sorted(members)
                    materialised += 1
    assert profiles == 5160  # every achievable (r,s), as the search finds them
    assert materialised == 2137  # |R| + |S| - 1 per pair: the (0,0) set is both halves


def test_halves_certify_every_profile(small_corpus, monkeypatch):
    # achievable_profiles certifies each r-half as (r, 0) and each s-half as
    # (0, s); the union of any r-half and any s-half must then pass all five
    # checks as (r, s), and count as (r, s) in the coset graph built from
    # the definitions; its representatives are those of the two halves
    issued = _record_certificates(monkeypatch)
    backed = 0
    for G in small_corpus + [rs.symmetric(4)]:
        subs = rs.all_subgroups(G)
        for A in subs:
            for H in subs:
                if not H.is_subset_of(A):
                    continue
                pair = rs.PairSpec(G, H, A)
                issued.clear()
                R, S = rs.achievable_profiles(pair)
                rhalf = {c.r: c for c in issued if c.s == 0}
                shalf = {c.s: c for c in issued if c.r == 0}
                assert sorted(rhalf) == list(R) and sorted(shalf) == list(S)
                for r in R:
                    for s in S:
                        reps = rhalf[r].double_coset_reps + shalf[s].double_coset_reps
                        U = rhalf[r].connection.mask | shalf[s].connection.mask
                        cert = rs.certify(pair, U, r, s)
                        assert cert.checks == regular_sets._ALL_PASS
                        assert cert.double_coset_reps == tuple(sorted(reps))
                        prof = oracles.graph_profile(G, set(H.members),
                                                     set(cert.connection.members),
                                                     set(A.members))
                        assert prof in ((r, s), (r, None))
                        backed += 1
    assert backed == 5160 + 3906  # every profile: corpus groups of order <= 12, then S4


def test_certificates_are_consistent_by_construction(small_corpus, monkeypatch, tmp_path):
    # every certificate of the exact decision, of the normal-chain
    # construction and of each joined r- and s-half names the least element
    # of each class of U, in ascending order; OR-ing those classes gives U
    # exactly, and the certificate written to a file verifies
    issued = _record_certificates(monkeypatch)
    path = tmp_path / "cert.json"
    written = set()
    built = 0
    for G in small_corpus:
        full = G.full_subgroup()
        subs = rs.all_subgroups(G)
        for A in subs:
            for H in subs:
                if not H.is_subset_of(A):
                    continue
                pair = rs.PairSpec(G, H, A)
                issued.clear()
                R, S = rs.achievable_profiles(pair)
                rhalves = [c for c in issued if c.s == 0]
                shalves = [c for c in issued if c.r == 0]
                certs = [rs.decide_regular_set(pair, r, s) for r in R for s in S]
                certs += [rs.certify(pair, a.connection.mask | b.connection.mask, a.r, b.s)
                          for a in rhalves for b in shalves]
                if rs.is_normal(H, A) and rs.is_normal(A, full):
                    idx = pair.code_index
                    certs += [rs.construct_normal_chain(pair, r, s)
                              for r in range(idx) for s in range(idx + 1)
                              if rs.check_normal_chain(pair, r, s).verdict]
                hset = set(H.members)
                for cert in certs:
                    reps = cert.double_coset_reps
                    assert list(reps) == sorted(set(reps))
                    assert all(x == min(oracles.double_coset_set(G, hset, x)) for x in reps)
                    rebuilt = 0
                    for x in reps:
                        rebuilt |= cosets.double_coset_mask(H, x)
                    assert rebuilt == cert.connection.mask
                    key = (G.label, H.mask, A.mask, cert.r, cert.s, rebuilt)
                    if key not in written:
                        written.add(key)
                        rs.write_certificate(cert, path)
                        assert rs.verify_certificate_file(path), key
                    built += 1
    assert built > len(written) > 5160


# -- exact decision --------------------------------------------------------------


def test_zero_zero_always_present(small_corpus):
    for G in small_corpus[:8]:
        subs = rs.all_subgroups(G)
        H = subs[0]
        for A in subs:
            cert = rs.decide_regular_set(rs.PairSpec(G, H, A), 0, 0)
            assert cert is not None and len(cert.connection) == 0


def test_c4_perfect_code_absent():
    assert rs.decide_regular_set(c4_pair(), 0, 1) is None


def test_c4_zero_two_present():
    cert = rs.decide_regular_set(c4_pair(), 0, 2)
    assert sorted(cert.connection.members) == [1, 3]
    assert_certificate_sound(cert)


def test_decide_matches_naive_enumeration_c4():
    g = rs.cyclic(4)
    A = rs.Subgroup(g, [0, 2])
    profiles = oracles.achievable_profiles(g, {0}, [set(A.members)])[0]
    pair = c4_pair()
    for r in range(2):
        for s in range(3):
            present = rs.decide_regular_set(pair, r, s) is not None
            assert present == ((r, s) in profiles)


def test_sweep_matches_naive_enumeration(corpus):
    # every pair H <= A of every group of order <= 16: R x S from
    # achievable_profiles, in (r,s) order, is exactly the set of profiles
    # that enumerating every connection set finds, and decide_regular_set
    # returns None exactly off that set
    for G in (G for G in corpus if G.order <= 16):
        subs = rs.all_subgroups(G)
        for H in subs:
            supers = [A for A in subs if H.is_subset_of(A)]
            naive = oracles.achievable_profiles(
                G, set(H.members), [set(A.members) for A in supers]
            )
            for A, profiles in zip(supers, naive):
                pair = rs.PairSpec(G, H, A)
                idx = pair.code_index
                if A.order == G.order:
                    want = [(r, s) for r in range(idx) for s in range(idx + 1)
                            if (r, None) in profiles]
                else:
                    want = sorted(profiles)
                R, S = rs.achievable_profiles(pair)
                assert [(r, s) for r in R for s in S] == want, (G.label, H.members, A.members)
                for r in range(idx):
                    for s in range(idx + 1):
                        cert = rs.decide_regular_set(pair, r, s)
                        assert (cert is not None) == ((r, s) in want)
                        if cert is not None:
                            assert (cert.r, cert.s) == (r, s)
                            assert all(c.passed for c in cert.checks)


def test_pair_analysis_is_freed_with_the_pair():
    # the per-pair analysis lives in the pair, not in the group's cache, so
    # a survey of every pair leaves none of it behind in G
    G = rs.symmetric(4)
    subs = rs.all_subgroups(G)
    pair = rs.PairSpec(G, subs[0], subs[-1])
    rs.decide_regular_set(pair, 0, 1)
    rs.check_normal_chain(pair, 0, 1)
    rs.normalizer_reduction(pair, 0, 1)
    ref = weakref.ref(pair._context)
    del pair
    assert ref() is None


def test_components_match_the_union_find_oracle(corpus):
    # the components from block masks against the list-based union-find and
    # greedy order: same components in the same order, same unit order
    # inside each (the tie-break included), same packed fields; the oracle
    # numbers the classes of G minus H, so class i of the split is its i - 1
    reordered = multi = 0
    for G in corpus:
        subs = rs.all_subgroups(G)
        for A in subs:
            for H in subs:
                if not H.is_subset_of(A):
                    continue
                ids = {x: i - 1 for i, x in enumerate(rs.decompose_into_double_cosets(H).reps)}
                got = [(tuple(tuple(map(ids.__getitem__, u.reps)) for u in c.units),
                        c.vectors, c.closes, c.ones, c.width)
                       for c in rs.PairSpec(G, H, A)._context.components]
                want = oracles.pair_components(G, frozenset(H.members), frozenset(A.members))
                assert got == want, (G.label, H.members, A.members)
                multi += sum(ones.bit_count() > 1 for _, _, _, ones, _ in want)
                reordered += sum(list(ids) != sorted(ids) for ids, *_ in want)
    assert multi and reordered


def test_units_list_each_class_coset_minima(small_corpus):
    # a unit's cosets are the least elements of the left H-cosets in its
    # mask, class by class in class-id order and ascending inside a class
    paired = 0
    for G in small_corpus:
        for H in rs.all_subgroups(G):
            hset = set(H.members)
            cosets = oracles.left_coset_sets(G, hset)
            for u in regular_sets._subgroup_units(G, H):
                classes = [oracles.double_coset_set(G, hset, rep) for rep in u.reps]
                assert u.mask == sum(1 << g for c in classes for g in c)
                assert u.cosets == tuple(m for c in classes
                                         for m in sorted(min(k) for k in cosets if k <= c))
                paired += len(classes) == 2
    assert paired


ORDER_48_PRESETS = ("preset:product:symmetric:4,cyclic:2", "preset:product:sl23,cyclic:2")


def test_unit_and_component_oracles_hold_on_the_order_48_presets():
    # the two oracle tests above, on the groups that set the median of a
    # single check: 1,074 pairs H <= A
    groups = [rs.group_from_arg(spec) for spec in ORDER_48_PRESETS]
    test_components_match_the_union_find_oracle(groups)
    test_units_list_each_class_coset_minima(groups)


def test_survey_builds_each_subgroups_units_once(monkeypatch):
    # the double-coset units of H are cached with the group: a survey
    # builds them once per (group, H), however many A lie over H; deciding
    # every perfect code with A normal then builds those of each H that
    # the survey, deciding one pair per Aut(G)-orbit, did not reach, once
    built = []
    contexts = []
    real_decompose = regular_sets.decompose_into_double_cosets
    real_context = regular_sets._PairContext

    def counting_decompose(H):  # called once per build of H's units
        built.append((id(H.parent), H.mask))
        return real_decompose(H)

    def counting_context(pair):
        contexts.append(pair)
        return real_context(pair)

    monkeypatch.setattr(regular_sets, "decompose_into_double_cosets", counting_decompose)
    monkeypatch.setattr(regular_sets, "_PairContext", counting_context)
    G = rs.symmetric(4)
    rs.survey(G)
    assert len(built) == len(set(built))
    on_g = sum(gid == id(G) for gid, _ in built)
    assert 0 < on_g < sum(pair.G is G for pair in contexts)
    full = G.full_subgroup()
    subs = rs.all_subgroups(G)
    for A in subs:
        if rs.is_normal(A, full):
            for H in subs:
                if H.is_subset_of(A):
                    rs.perfect_code_pair(rs.PairSpec(G, H, A))
    assert len(built) == len(set(built))
    assert len(built) > on_g


def test_certify_range_checks_s_when_a_is_the_whole_group():
    # A = G leaves no block outside A to test s
    G = rs.cyclic(4)
    pair = rs.PairSpec(G, rs.trivial_subgroup(G), G.full_subgroup())
    U = rs.decide_regular_set(pair, 0, 0).connection.mask
    for s in range(5):
        assert rs.certify(pair, U, 0, s).s == s
    for r, s in ((0, 5), (0, -1), (4, 0), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            rs.certify(pair, U, r, s)


def test_certify_on_a_cold_pair_builds_no_decision_context(s3):
    # verify re-runs certify on a fresh pair: it reads the group's coset
    # spaces and caches nothing on the pair
    pair = s3_a3_pair(s3)
    rs.certify(pair, 0, 0, 0)
    assert set(vars(pair)) == {"G", "H", "A"}


def test_normalizer_reduction_caches_nothing_on_the_pair(sl23_pair):
    # the reduction reads the group's normalizer and masks on every call
    pair = rs.PairSpec(sl23_pair.G, sl23_pair.H, sl23_pair.A)
    rs.normalizer_reduction(pair, 0, 1)
    rs.perfect_code_normalizer_criterion(pair)
    assert set(vars(pair)) == {"G", "H", "A"}


def test_achievable_profiles_walks_each_r_and_s_once(monkeypatch):
    # the |R| x |S| profiles from at most |R| + |S| connection-set walks
    walks = _count_walks(monkeypatch)
    G = rs.symmetric(4)
    subs = rs.all_subgroups(G)
    saved = 0
    for H in subs:
        for A in subs:
            if not H.is_subset_of(A):
                continue
            walks.clear()
            R, S = rs.achievable_profiles(rs.PairSpec(G, H, A))
            assert len(walks) <= len(R) + len(S)
            saved = max(saved, len(R) * len(S) - len(R) - len(S))
    assert saved > 0


def test_decide_range_validation():
    pair = c4_pair()
    with pytest.raises(ValueError):
        rs.decide_regular_set(pair, 2, 0)
    with pytest.raises(ValueError):
        rs.decide_regular_set(pair, 0, 3)


def test_search_budget_exceeded():
    with pytest.raises(SearchBudgetExceeded):
        rs.decide_regular_set(c4_pair(), 0, 2, limits=Limits(search_node_budget=1))


def test_sweep_budget_counts_states():
    # C4 over the trivial subgroup, A = {0, 2}: block 0 holds the empty and
    # the one-unit state, the other block the empty state and count 2
    pair = c4_pair()
    assert rs.decide_regular_set(pair, 1, 2, limits=Limits(search_node_budget=4))
    with pytest.raises(SearchBudgetExceeded):
        rs.decide_regular_set(pair, 1, 2, limits=Limits(search_node_budget=3))
    R, S = rs.achievable_profiles(pair, limits=Limits(search_node_budget=4))
    assert len(R) * len(S) == 4
    with pytest.raises(SearchBudgetExceeded):
        rs.achievable_profiles(pair, limits=Limits(search_node_budget=3))


def test_whole_group_as_code_is_degenerate(s3):
    pair = rs.PairSpec(s3, rs.trivial_subgroup(s3), s3.full_subgroup())
    for s in range(7):
        cert = rs.decide_regular_set(pair, 2, s)
        assert cert is not None and cert.degree == 2


# -- normal chain criteria ------------------------------------------------------


def test_chain_conditions_c4():
    pair = c4_pair()
    rep = rs.check_normal_chain(pair, 0, 1)
    assert rep.outcomes == (True, True, False)
    assert rep.witnesses[2] == 1  # x = g has no self-paired class in gA
    assert rs.check_normal_chain(pair, 0, 2).verdict


def test_chain_whole_group_only_parity():
    # A = G leaves only the parity condition; |A:H| - 1 = 4 forces r even
    g = rs.cyclic(5)
    pair = rs.PairSpec(g, rs.trivial_subgroup(g), g.full_subgroup())
    for r in range(5):
        rep = rs.check_normal_chain(pair, r, 0)
        assert rep.outcomes[1:] == (True, True)
        assert rep.verdict == (r % 2 == 0)
        present = rs.decide_regular_set(pair, r, 0) is not None
        assert present == rep.verdict


def test_chain_requires_normality(s3):
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    pair = rs.PairSpec(s3, H, H)
    with pytest.raises(PreconditionViolated):
        rs.check_normal_chain(pair, 0, 0)


def test_chain_precondition_raises_on_every_call(s3):
    # a pair that passes the precondition keeps the pass; one that fails it
    # must raise again on every later call, and so must an (r,s) out of range
    t = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    failing = (
        (rs.PairSpec(s3, t, s3.full_subgroup()), "H is not normal in A"),
        (rs.PairSpec(s3, t, t), "A is not normal in G"),
    )
    for pair, message in failing:
        for _ in range(2):
            with pytest.raises(PreconditionViolated, match=message):
                rs.check_normal_chain(pair, 0, 0)
    a3 = rs.generate_subgroup(s3, [s3.perms.index((1, 2, 0))])
    pair = rs.PairSpec(s3, rs.trivial_subgroup(s3), a3)
    assert rs.check_normal_chain(pair, 0, 0).verdict
    for _ in range(2):
        with pytest.raises(ValueError):
            rs.check_normal_chain(pair, 3, 0)
    assert rs.check_normal_chain(pair, 0, 0) == rs.check_normal_chain(pair, 0, 0)


def test_chain_conditions_match_elementwise_oracle(corpus):
    failures = [0, 0, 0]
    for G in corpus:
        if G.order > 16:
            continue
        subs = rs.all_subgroups(G)
        full = G.full_subgroup()
        for A in subs:
            if not rs.is_normal(A, full):
                continue
            for H in subs:
                if not H.is_subset_of(A) or not rs.is_normal(H, A):
                    continue
                pair = rs.PairSpec(G, H, A)
                expected = oracles.normal_chain_reports(
                    G, frozenset(H.members), frozenset(A.members)
                )
                for (r, s), (outcomes, witnesses) in expected.items():
                    report = rs.check_normal_chain(pair, r, s)
                    assert report.condition_ids == ("parity", "divisibility", "self_paired")
                    assert (report.outcomes, report.witnesses) == (outcomes, witnesses), \
                        (G.label, H.members, A.members, r, s)
                    for k, ok in enumerate(outcomes):
                        failures[k] += not ok
    assert all(failures), failures


def test_criteria_split_into_an_r_and_an_s_condition(corpus):
    # the survey evaluates the normal-chain conditions once per r (parity)
    # and once per s (divisibility, self_paired), and the Cayley criterion
    # once per s; on every normal A of the corpus both verdicts factor so
    from math import gcd

    chains = cayleys = 0
    for G in corpus:
        subs = rs.all_subgroups(G)
        full = G.full_subgroup()
        for A in subs:
            if not rs.is_normal(A, full):
                continue
            for H in subs:
                if not H.is_subset_of(A) or not rs.is_normal(H, A):
                    continue
                pair = rs.PairSpec(G, H, A)
                idx = pair.code_index
                for r in range(idx):
                    parity = rs.check_normal_chain(pair, r, 0).outcomes[0]
                    for s in range(idx + 1):
                        outside = all(rs.check_normal_chain(pair, 0, s).outcomes[1:])
                        assert rs.check_normal_chain(pair, r, s).verdict == (parity and outside)
                chains += 1
            for s in range(A.order + 1):
                want = rs.cayley_normal_criterion(G, A, 0, s)
                for r in range(0, A.order, gcd(2, A.order - 1)):
                    assert rs.cayley_normal_criterion(G, A, r, s) == want
            cayleys += 1
    assert chains > cayleys > 0


# -- construction -----------------------------------------------------------------


def test_construct_zero_zero(s3):
    pair = s3_a3_pair(s3)
    cert = rs.construct_normal_chain(pair, 0, 0)
    assert len(cert.connection) == 0


def test_construct_c4():
    cert = rs.construct_normal_chain(c4_pair(), 0, 2)
    assert sorted(cert.connection.members) == [1, 3]
    assert_certificate_sound(cert)


def test_construct_q8_center_pair():
    q8 = rs.quaternion8()
    center = next(s for s in rs.all_subgroups(q8) if s.order == 2)
    A = next(s for s in rs.all_subgroups(q8) if s.order == 4)
    pair = rs.PairSpec(q8, center, A)
    cert = rs.construct_normal_chain(pair, 1, 2)
    assert_certificate_sound(cert)
    also = rs.decide_regular_set(pair, 1, 2)
    assert also is not None


def test_construct_rejected_when_conditions_fail():
    with pytest.raises(PreconditionViolated):
        rs.construct_normal_chain(c4_pair(), 0, 1)


def test_construct_agrees_with_decide_on_d4():
    d4 = rs.dihedral(4)
    subs = rs.all_subgroups(d4)
    full = d4.full_subgroup()
    for A in subs:
        if not rs.is_normal(A, full):
            continue
        for H in subs:
            if not H.is_subset_of(A) or not rs.is_normal(H, A):
                continue
            pair = rs.PairSpec(d4, H, A)
            idx = pair.code_index
            for r in range(idx):
                for s in range(idx + 1):
                    present = rs.decide_regular_set(pair, r, s) is not None
                    assert rs.check_normal_chain(pair, r, s).verdict == present
                    if present:
                        assert_certificate_sound(rs.construct_normal_chain(pair, r, s))


# -- split and padding invariants ---------------------------------------------------


def test_profile_splits_into_inside_and_outside_parts(small_corpus):
    # (r,s) is achievable exactly when (r,0) and (0,s) both are
    for G in small_corpus:
        if G.order > 8:
            continue
        subs = rs.all_subgroups(G)
        for A in subs:
            for H in subs:
                if not H.is_subset_of(A):
                    continue
                pair = rs.PairSpec(G, H, A)
                idx = pair.code_index
                for r in range(idx):
                    for s in range(idx + 1):
                        whole = rs.decide_regular_set(pair, r, s) is not None
                        inside = rs.decide_regular_set(pair, r, 0) is not None
                        outside = rs.decide_regular_set(pair, 0, s) is not None
                        assert whole == (inside and outside)


def test_nontrivial_subgroup_achieves_every_even_s(small_corpus):
    # a nontrivial subgroup is an (r,s)-regular set of (G, 1) for every even
    # s and every r passing the parity condition
    from math import gcd

    for G in small_corpus:
        if G.order > 10:
            continue
        triv = rs.trivial_subgroup(G)
        for A in rs.all_subgroups(G):
            if A.order in (1,):
                continue
            pair = rs.PairSpec(G, triv, A)
            for r in range(A.order):
                if r % gcd(2, A.order - 1) != 0:
                    continue
                for s in range(0, A.order + 1, 2):
                    assert rs.decide_regular_set(pair, r, s) is not None


# -- Cayley criteria ----------------------------------------------------------------


def test_cayley_even_s_always_true(s3):
    A3 = rs.generate_subgroup(s3, [s3.perms.index((1, 2, 0))])
    assert rs.cayley_normal_criterion(s3, A3, 0, 2)
    assert rs.cayley_normal_criterion(s3, A3, 2, 0)


def test_cayley_odd_s_c4():
    g = rs.cyclic(4)
    assert not rs.cayley_normal_criterion(g, rs.Subgroup(g, [0, 2]), 0, 1)


def test_cayley_odd_s_s3(s3):
    A3 = rs.generate_subgroup(s3, [s3.perms.index((1, 2, 0))])
    assert rs.cayley_normal_criterion(s3, A3, 0, 1)


def test_cayley_criterion_gcd_precondition(s3):
    A3 = rs.generate_subgroup(s3, [s3.perms.index((1, 2, 0))])
    with pytest.raises(PreconditionViolated):
        rs.cayley_normal_criterion(s3, A3, 1, 0)  # gcd(2, 2) = 2 does not divide 1


def test_square_criterion_whole_group(s3):
    assert rs.normal_perfect_code_criterion(s3, s3.full_subgroup())


def test_square_criterion_c4():
    g = rs.cyclic(4)
    assert not rs.normal_perfect_code_criterion(g, rs.Subgroup(g, [0, 2]))


def test_square_criterion_q8_center():
    q8 = rs.quaternion8()
    center = next(s for s in rs.all_subgroups(q8) if s.order == 2)
    assert not rs.normal_perfect_code_criterion(q8, center)


def cayley_odd_s_check(G, A, r, s):
    """For odd s, (r, s)-regularity of a normal subgroup in some Cayley graph
    coincides with the perfect-code criterion.  Returns (verdict,
    consistency), where the flag re-derives the verdict from the exhaustive
    search."""
    assert s % 2 == 1
    verdict = rs.normal_perfect_code_criterion(G, A)
    assert verdict == rs.cayley_normal_criterion(G, A, r, s)
    pair = rs.PairSpec(G, rs.trivial_subgroup(G), A)
    present = rs.decide_regular_set(pair, r, s) is not None
    return verdict, verdict == present


def test_odd_s_equivalence_check():
    g = rs.cyclic(4)
    verdict, consistent = cayley_odd_s_check(g, rs.Subgroup(g, [0, 2]), 1, 1)
    assert verdict is False and consistent is True


def test_odd_s_equivalence_s3(s3):
    A3 = rs.generate_subgroup(s3, [s3.perms.index((1, 2, 0))])
    verdict, consistent = cayley_odd_s_check(s3, A3, 0, 1)
    assert verdict is True and consistent is True


# -- normalizer reduction ---------------------------------------------------------------


def test_reduction_with_normal_h_matches_direct_search():
    d4 = rs.dihedral(4)
    full = d4.full_subgroup()
    subs = rs.all_subgroups(d4)
    center = next(s for s in subs if s.order == 2 and rs.is_normal(s, full))
    for A in subs:
        if not rs.is_normal(A, full) or not center.is_subset_of(A):
            continue
        pair = rs.PairSpec(d4, center, A)
        n = rs.normalizer(d4, center)
        border = (A.mask & n.mask).bit_count() // center.order
        for r in range(border):
            if r % 2 != 0 and (border - 1) % 2 == 0:
                continue
            red = rs.normalizer_reduction(pair, r, 1)
            cert = rs.decide_regular_set(pair, r, 1)
            assert red.verdict == (cert is not None)
            if red.verdict:
                assert_certificate_sound(cert)


def test_reduction_rejects_non_normal_a(s3):
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    with pytest.raises(PreconditionViolated):
        rs.normalizer_reduction(rs.PairSpec(s3, H, H), 0, 1)


def test_reduction_sl23_zero_two_not_applicable_yet_search_succeeds(sl23_pair):
    red = rs.normalizer_reduction(sl23_pair, 0, 2)
    assert red.applicable is False and red.verdict is False
    assert rs.decide_regular_set(sl23_pair, 0, 2) is not None


def _outcome(verdict):
    """``verdict()``, or "raises" if it raises on its input."""
    try:
        return verdict()
    except (PreconditionViolated, ValueError):
        return "raises"


def test_mask_criteria_match_the_quotient_tables(corpus):
    # normalizer_reduction and perfect_code_quotient_criterion read on masks
    # of G what the library once decided on a quotient table: the same
    # verdict at every in-range (r,s) of every pair with A normal in G, an
    # error on both sides where r fails the parity condition, and on both
    # sides for r and s one past their ranges
    groups = list(corpus) + [rs.direct_product(rs.symmetric(4), rs.cyclic(2)),
                             rs.direct_product(rs.sl23(), rs.cyclic(2))]
    compared = raised = 0
    lifts, quotient_verdicts = set(), set()  # the verdicts where they can differ
    for G in groups:
        full = G.full_subgroup()
        subs = rs.all_subgroups(G)
        for A in subs:
            if not rs.is_normal(A, full):
                continue
            for H in subs:
                if not H.is_subset_of(A):
                    continue
                pair = rs.PairSpec(G, H, A)
                n = rs.normalizer(G, H)
                border = len(set(A.members) & set(n.members)) // H.order
                on_quotient = oracles.normalizer_reduction_on_quotient(pair)
                for r in range(border + 1):
                    for s in range(border + 2):
                        got = _outcome(lambda: rs.normalizer_reduction(pair, r, s).verdict)
                        want = _outcome(lambda: on_quotient(r, s))
                        assert got == want, (G.label, H.members, A.members, r, s)
                        compared += 1
                        raised += r < border and s <= border and got == "raises"
                        if s % 2 and got != "raises" and \
                                rs.normalizer_reduction(pair, 0, 0).applicable:
                            lifts.add(got)
                if rs.is_normal(H, A):
                    verdict = rs.perfect_code_quotient_criterion(pair)
                    assert verdict == oracles.quotient_criterion_on_quotient(pair), \
                        (G.label, H.members, A.members)
                    quotient_verdicts.add(verdict)
    assert compared and raised
    assert lifts == quotient_verdicts == {True, False}


# SHA-256 of json.dumps of the list of perfect_code_pair certificates, each
# as its JSON dict or None, of every pair H <= A with A normal in G, A and
# then H in all_subgroups order, over the corpus groups of order <= 12:
# 363 pairs, 337 of them perfect codes.  The digest was taken when normal A
# lifted its certificate through the normalizer quotient; the exact search
# at (0,1) gives the same bytes.
LIFTED_CERTIFICATES_DIGEST = "17736ed67ff5e0180adb2d4d8f78f281a416bd6362f8db44f9c8b8b69864a452"


def test_lifted_perfect_code_certificates_are_pinned(small_corpus):
    certs = []
    for G in small_corpus:
        full = G.full_subgroup()
        subs = rs.all_subgroups(G)
        for A in subs:
            if rs.is_normal(A, full):
                for H in subs:
                    if H.is_subset_of(A):
                        _, cert = rs.perfect_code_pair(rs.PairSpec(G, H, A))
                        certs.append(None if cert is None else cert.to_json_dict())
    assert (len(certs), sum(c is not None for c in certs)) == (363, 337)
    digest = hashlib.sha256(json.dumps(certs).encode()).hexdigest()
    assert digest == LIFTED_CERTIFICATES_DIGEST


# -- perfect_code_pair ---------------------------------------------------------------------


def test_whole_group_is_perfect_code(s3):
    pair = rs.PairSpec(s3, rs.trivial_subgroup(s3), s3.full_subgroup())
    ok, cert = rs.perfect_code_pair(pair)
    assert ok and cert is not None and len(cert.connection) == 0


def test_sl23_pair_is_not_perfect_code(sl23_pair):
    ok, cert = rs.perfect_code_pair(sl23_pair)
    assert not ok and cert is None


def test_s3_a3_is_perfect_code(s3):
    ok, cert = rs.perfect_code_pair(s3_a3_pair(s3))
    assert ok
    assert_certificate_sound(cert)


@pytest.mark.parametrize("group", ["S3/A3", "SL(2,3)/Q8"])
def test_perfect_code_pair_is_one_search_on_the_pair(monkeypatch, group):
    # normal A takes the same path as any other A: one exact decision at
    # (0,1) on the pair itself, and no quotient table
    decides = []
    real_decide = regular_sets.decide_regular_set

    def counting_decide(pair, r, s, limits=None):
        decides.append((pair, r, s))
        return real_decide(pair, r, s, limits=limits)

    def no_quotient(*args, **kwargs):
        raise AssertionError("perfect_code_pair built a quotient")

    if group == "S3/A3":
        pair = s3_a3_pair(rs.symmetric(3))
    else:
        G = rs.sl23()
        q8 = rs.sylow_subgroup(G.full_subgroup(), 2)
        center = next(s for s in rs.all_subgroups(G) if s.order == 2)
        pair = rs.PairSpec(G, center, q8)
    assert rs.is_normal(pair.A, pair.G.full_subgroup())
    monkeypatch.setattr(regular_sets, "decide_regular_set", counting_decide)
    assert not hasattr(regular_sets, "quotient")  # only group_core's could be built
    monkeypatch.setattr(group_core, "quotient", no_quotient)
    ok, cert = rs.perfect_code_pair(pair)
    assert decides == [(pair, 0, 1)]
    assert ok
    assert_certificate_sound(cert)


def test_non_normal_code_falls_back_to_search(s3):
    H2 = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    pair = rs.PairSpec(s3, rs.trivial_subgroup(s3), H2)
    ok, cert = rs.perfect_code_pair(pair)
    assert ok
    assert_certificate_sound(cert)


# -- derived perfect-code criteria --------------------------------------------------


def test_normalizer_criterion_examples(s3, sl23_pair):
    A3 = rs.generate_subgroup(s3, [s3.perms.index((1, 2, 0))])
    pair = s3_a3_pair(s3)
    assert rs.perfect_code_normalizer_criterion(pair) is True
    assert rs.perfect_code_normalizer_criterion(sl23_pair) is False


def test_quotient_criterion_examples(sl23_pair):
    d4 = rs.dihedral(4)
    full = d4.full_subgroup()
    center = next(
        s for s in rs.all_subgroups(d4) if s.order == 2 and rs.is_normal(s, full)
    )
    pair = rs.PairSpec(d4, center, center)
    assert rs.perfect_code_quotient_criterion(pair) == rs.perfect_code_pair(pair)[0]
    G = sl23_pair.G
    zg = next(
        s for s in rs.all_subgroups(G)
        if s.order == 2 and rs.is_normal(s, G.full_subgroup())
    )
    pair2 = rs.PairSpec(G, zg, sl23_pair.A)
    assert rs.perfect_code_quotient_criterion(pair2) == rs.perfect_code_pair(pair2)[0]


def test_odd_order_criterion(s3):
    A3 = rs.generate_subgroup(s3, [s3.perms.index((1, 2, 0))])
    pair = rs.PairSpec(s3, A3, A3)
    assert rs.perfect_code_odd_order_criterion(pair) is True
    assert rs.perfect_code_pair(pair)[0] is True
    full_pair = rs.PairSpec(s3, rs.trivial_subgroup(s3), s3.full_subgroup())
    with pytest.raises(PreconditionViolated):
        # |A| = 6 and |G:A| = 1 is fine; pick an even/even instance instead
        g8 = rs.cyclic(8)
        rs.perfect_code_odd_order_criterion(
            rs.PairSpec(g8, rs.trivial_subgroup(g8), rs.Subgroup(g8, [0, 4]))
        )
    assert rs.perfect_code_odd_order_criterion(full_pair) is True


def test_sylow_criterion_s4():
    s4 = rs.symmetric(4)
    a4 = next(s for s in rs.all_subgroups(s4) if s.order == 12)
    got = rs.perfect_code_sylow_criterion(s4, a4, 3)
    h = rs.sylow_subgroup(a4, 3)
    assert got == rs.perfect_code_pair(rs.PairSpec(s4, h, a4))[0]


def test_sylow_criterion_sl23(sl23_pair):
    G, A = sl23_pair.G, sl23_pair.A
    got = rs.perfect_code_sylow_criterion(G, A, 2)
    assert got == rs.perfect_code_pair(rs.PairSpec(G, A, A))[0]


def test_square_root_criteria_match_the_unfolded_loops(corpus):
    # The criteria share square_roots_lift, which skips x in A; the
    # reference tests every x with x^2 in A, as both loops once did.
    for G in corpus:
        full = G.full_subgroup()
        every, one = frozenset(range(G.order)), frozenset({0})
        subs = rs.all_subgroups(G)
        for A in subs:
            if not rs.is_normal(A, full):
                continue
            aset = frozenset(A.members)
            assert rs.normal_perfect_code_criterion(G, A) == (
                oracles.square_roots_lift_everywhere(G, aset, every, one)
            )
            for H in subs:
                if not H.is_subset_of(A):
                    continue
                hset = frozenset(H.members)
                nset = oracles.normalizer_set(G, hset)
                covers = len({G.mult[a][n] for a in aset for n in nset}) == G.order
                want = covers and oracles.square_roots_lift_everywhere(G, aset, nset, hset)
                assert rs.perfect_code_normalizer_criterion(rs.PairSpec(G, H, A)) == want
            for p in (p for p in range(2, A.order + 1) if A.order % p == 0):
                if any(p % q == 0 for q in range(2, p)):
                    continue
                pset = frozenset(rs.sylow_subgroup(A, p).members)
                want = oracles.square_roots_lift_everywhere(
                    G, aset, oracles.normalizer_set(G, pset), pset
                )
                assert rs.perfect_code_sylow_criterion(G, A, p) == want


# -- necessary conditions -----------------------------------------------------------------------


def test_conjugate_intersection_trivial_cases(s3):
    pair_full = rs.PairSpec(s3, rs.trivial_subgroup(s3), s3.full_subgroup())
    assert rs.necessary_conjugate_intersection(pair_full)
    H2 = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    pair_trivial_h = rs.PairSpec(s3, rs.trivial_subgroup(s3), H2)
    assert rs.necessary_conjugate_intersection(pair_trivial_h)


def test_conjugate_intersection_matches_elementwise_oracle(corpus):
    outcomes = set()
    for G in corpus:
        subs = rs.all_subgroups(G)
        for A in subs:
            for H in subs:
                if H.is_subset_of(A):
                    got = rs.necessary_conjugate_intersection(rs.PairSpec(G, H, A))
                    want = oracles.conjugate_intersection_elementwise(
                        G, frozenset(H.members), frozenset(A.members))
                    assert got == want, (G.label, H.members, A.members)
                    outcomes.add(got)
    assert outcomes == {True, False}


def test_divisibility_trivial_cases(s3):
    A3 = rs.generate_subgroup(s3, [s3.perms.index((1, 2, 0))])
    assert rs.necessary_divisibility(s3_a3_pair(s3))
    assert rs.necessary_divisibility(rs.PairSpec(s3, A3, A3))


def test_divisibility_matches_set_products(corpus):
    for G in corpus:
        subs = rs.all_subgroups(G)
        for A in subs:
            for H in subs:
                if H.is_subset_of(A) and rs.is_normal(H, A):
                    assert rs.necessary_divisibility(rs.PairSpec(G, H, A)) == (
                        oracles.divisibility_by_set_products(G, H.members, A.members)
                    )


def test_necessary_conditions_follow_from_perfect_code(sl23_pair):
    # evaluated on the order-24 instance; no implication may be violated
    pc, _ = rs.perfect_code_pair(sl23_pair)
    lem = rs.necessary_conjugate_intersection(sl23_pair)
    div = rs.necessary_divisibility(sl23_pair)
    assert not pc or (lem and div)


# -- arc-transitive case ---------------------------------------------------------------------------


def test_arc_transitive_s3_all_self_paired_classes(s3):
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    pair = rs.PairSpec(s3, H, H)
    for x in range(6):
        if x in H:
            continue
        d = rs.double_coset(H, x)
        if d != frozenset(s3.inv[m] for m in d):
            continue
        got = rs.arc_transitive_perfect_code(pair, x)
        conn = rs.validate_connection_set(H, rs.mask_of(s3, d))
        graph = rs.build(s3, H, conn)
        C = frozenset(graph.space.coset_of[a] for a in H.members)
        assert got == (rs.profile_subset(graph, C) == (0, 1))


def test_arc_transitive_requires_self_inverse_class():
    g = rs.cyclic(3)
    pair = rs.PairSpec(g, rs.trivial_subgroup(g), rs.trivial_subgroup(g))
    with pytest.raises(PreconditionViolated):
        rs.arc_transitive_perfect_code(pair, 1)


def test_arc_transitive_requires_x_outside_h(s3):
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    with pytest.raises(PreconditionViolated):
        rs.arc_transitive_perfect_code(rs.PairSpec(s3, H, H), H.members[1])


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_decisions_survive_conjugation(corpus, data):
    # the split's class ids, the union-find roots and the sweep order follow
    # the labels of H and A; the pair (H^g, A^g) of the same group must get
    # the same answers, and each of its certificates, conjugated back by
    # g^-1, must certify on the original pair
    G = data.draw(st.sampled_from(corpus))
    g = data.draw(st.integers(0, G.order - 1))
    gi = G.inv[g]
    subs = rs.all_subgroups(G)
    for A in subs:
        moved_a = rs.Subgroup(G, [G.conjugate(a, g) for a in A.members])
        for H in subs:
            if not H.is_subset_of(A):
                continue
            pair = rs.PairSpec(G, H, A)
            moved = rs.PairSpec(G, rs.Subgroup(G, [G.conjugate(h, g) for h in H.members]),
                                moved_a)
            assert rs.achievable_profiles(moved) == rs.achievable_profiles(pair)
            k = pair.code_index
            for r in range(k):
                for s in range(k + 1):
                    cert = rs.decide_regular_set(moved, r, s)
                    assert (cert is None) == (rs.decide_regular_set(pair, r, s) is None)
                    if cert is not None:
                        back = sum(1 << G.conjugate(u, gi) for u in cert.connection.members)
                        assert rs.certify(pair, back, r, s).checks == regular_sets._ALL_PASS


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_decisions_survive_relabelling(corpus, data):
    # the split's class ids, the union-find roots and the sweep order follow
    # the element labels; relabelling by a permutation fixing 0 must leave
    # every answer unchanged, and each certificate must map back onto one
    # of the original pair
    G = data.draw(st.sampled_from(corpus))
    n = G.order
    perm = [0, *data.draw(st.permutations(range(1, n)))]
    back = [0] * n
    for a, p in enumerate(perm):
        back[p] = a
    relabelled = rs.from_table(
        [[perm[G.mult[back[i]][back[j]]] for j in range(n)] for i in range(n)]
    )
    subs = rs.all_subgroups(G)
    for A in subs:
        moved_a = rs.Subgroup(relabelled, [perm[a] for a in A.members])
        for H in subs:
            if not H.is_subset_of(A):
                continue
            pair = rs.PairSpec(G, H, A)
            moved = rs.PairSpec(relabelled, rs.Subgroup(relabelled, [perm[h] for h in H.members]),
                                moved_a)
            assert rs.achievable_profiles(moved) == rs.achievable_profiles(pair)
            k = pair.code_index
            for r in range(k):
                for s in range(k + 1):
                    cert = rs.decide_regular_set(moved, r, s)
                    assert (cert is None) == (rs.decide_regular_set(pair, r, s) is None)
                    if cert is not None:
                        rs.certify(pair, sum(1 << back[g] for g in cert.connection.members),
                                   r, s)
