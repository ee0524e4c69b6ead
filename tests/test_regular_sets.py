import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import regsets as rs
from regsets import regular_sets
from regsets.config import Limits
from regsets.errors import (
    ConstructionFailed,
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
        return rs.certify(pair, (), rs.mask_of(pair.G, U), r, s).checks
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
        rs.certify(pair, (), rs.mask_of(s3, {0}), 0, 0)  # meets H
    t = s3.perms.index((1, 2, 0))
    with pytest.raises(RegsetError):
        rs.certify(pair, (), rs.mask_of(s3, {t}), 0, 0)  # not inverse closed


def test_certificates_built_from_masks_materialise(small_corpus):
    # certify sees U only as a mask; the members read back from it must be
    # the union of the units (element sets from the oracle) that the
    # reported representatives name, and both JSON fields list them
    materialised = 0
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
                for cert in rs.achievable_profiles(rs.PairSpec(G, H, A)):
                    reps = set(cert.double_coset_reps)
                    want = frozenset().union(*(u for u in units if u & reps))
                    members = cert.connection.members
                    assert members == want and cert.witness == want
                    assert cert.connection.mask == rs.mask_of(G, want)
                    assert len(cert.connection) == len(want)
                    data = cert.to_json_dict()
                    assert data["U"] == data["X"] == sorted(members)
                    materialised += 1
    assert materialised == 5160  # every achievable (r,s), as the search finds them


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
    # every pair H <= A of every group of order <= 16: achievable_profiles
    # yields exactly the profiles that enumerating every connection set
    # finds, in (r,s) order, and decide_regular_set returns None exactly off
    # that set
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
                certs = list(rs.achievable_profiles(pair))
                assert [(c.r, c.s) for c in certs] == want, (G.label, H.members, A.members)
                assert all(all(c.passed for c in cert.checks) for cert in certs)
                for r in range(idx):
                    for s in range(idx + 1):
                        cert = rs.decide_regular_set(pair, r, s)
                        assert (cert is not None) == ((r, s) in want)
                        if cert is not None:
                            assert (cert.r, cert.s) == (r, s)


def test_pair_analysis_is_freed_with_the_pair():
    # the per-pair analysis lives in the pair, not in the group's cache, so
    # a survey of every pair leaves none of it behind in G
    G = rs.symmetric(4)
    subs = rs.all_subgroups(G)
    pair = rs.PairSpec(G, subs[0], subs[-1])
    rs.decide_regular_set(pair, 0, 1)
    rs.check_normal_chain(pair, 0, 1)
    rs.normalizer_reduction(pair, 0, 1)
    refs = [weakref.ref(item) for item in (
        pair._context, pair._chain, pair._certification, pair._quotient_pair
    )]
    del pair
    assert [ref() for ref in refs] == [None] * 4


def test_certify_on_a_cold_pair_builds_no_decision_context(s3):
    # verify re-runs certify on a fresh pair: it needs the A-coset data only
    pair = s3_a3_pair(s3)
    rs.certify(pair, (), 0, 0, 0)
    assert "_certification" in vars(pair) and "_context" not in vars(pair)


def _certify_outcome(pair, reps, U, r, s):
    try:
        cert = rs.certify(pair, reps, U, r, s)
    except Exception as exc:  # the class, message and checks must agree
        return type(exc), str(exc), getattr(exc, "checks", None)
    return cert.r, cert.s, cert.double_coset_reps, cert.connection.mask, cert.checks


@pytest.fixture(scope="module")
def small_pairs(small_corpus):
    """Every pair H <= A of every group of order <= 12, with the masks of
    its inverse-closed units (from the oracle) and of its A-cosets."""
    pairs = []
    for G in small_corpus:
        subs = rs.all_subgroups(G)
        for H in subs:
            units = [rs.mask_of(G, u) for u in oracles.inverse_closed_units(G, set(H.members))]
            for A in subs:
                if H.is_subset_of(A):
                    pairs.append((G, H, A, units, rs.left_cosets(G, A).masks))
    return pairs


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_warm_certify_agrees_with_cold(small_pairs, data):
    # one warm pair certifies a stream of masks: valid connection sets and
    # mixes of their halves, with their own (r,s) or a wrong one, and sets
    # that break an invariant; each outcome must be the outcome of certify
    # on a fresh pair, whatever halves the warm pair has recorded
    G, H, A, units, amasks = data.draw(st.sampled_from(small_pairs))
    warm = rs.PairSpec(G, H, A)
    idx = warm.code_index
    seen = [0]
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.sampled_from(["valid", "mix", "repeat", "bit", "range", "negative"]))
        if kind == "valid":
            U = 0
            for u in units:
                if data.draw(st.booleans()):
                    U |= u
        elif kind == "mix":  # the inside half of one set, the outside of another
            U = data.draw(st.sampled_from(seen)) & A.mask | data.draw(st.sampled_from(seen)) & ~A.mask
        elif kind == "repeat":
            U = data.draw(st.sampled_from(seen))
        elif kind == "bit":  # misses an inverse, splits an H-coset or meets H
            U = data.draw(st.sampled_from(seen)) ^ (1 << data.draw(st.integers(0, G.order - 1)))
        elif kind == "range":
            U = data.draw(st.sampled_from(seen)) | 1 << data.draw(st.integers(G.order, G.order + 3))
        else:
            U = -1 - data.draw(st.sampled_from(seen))
        if U >= 0 and not U >> G.order:
            seen.append(U)
        counts = [(U & m).bit_count() // H.order for m in amasks]
        if data.draw(st.booleans()):  # the set's own counts, when it has them
            r, s = counts[0], counts[-1]
        else:
            r, s = data.draw(st.integers(-1, idx)), data.draw(st.integers(-1, idx + 1))
        reps = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
        fresh = rs.PairSpec(G, H, A)
        assert _certify_outcome(warm, reps, U, r, s) == _certify_outcome(fresh, reps, U, r, s)


def test_achievable_profiles_walks_each_r_and_s_once(monkeypatch):
    # |R| x |S| certificates from at most |R| + |S| connection-set walks
    walks = []
    real = regular_sets.validate_connection_set

    def counting(H, U):
        walks.append(U)
        return real(H, U)

    monkeypatch.setattr(regular_sets, "validate_connection_set", counting)
    G = rs.symmetric(4)
    subs = rs.all_subgroups(G)
    saved = 0
    for H in subs:
        for A in subs:
            if not H.is_subset_of(A):
                continue
            walks.clear()
            certs = list(rs.achievable_profiles(rs.PairSpec(G, H, A)))
            R, S = {c.r for c in certs}, {c.s for c in certs}
            assert len(certs) == len(R) * len(S)
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
    assert len(list(rs.achievable_profiles(pair, limits=Limits(search_node_budget=4)))) == 4
    with pytest.raises(SearchBudgetExceeded):
        list(rs.achievable_profiles(pair, limits=Limits(search_node_budget=3)))


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
        border = rs.intersect(A, n).order // center.order
        for r in range(border):
            if r % 2 != 0 and (border - 1) % 2 == 0:
                continue
            red = rs.normalizer_reduction(pair, r, 1)
            present = rs.decide_regular_set(pair, r, 1) is not None
            assert red.verdict == present
            if red.verdict:
                assert_certificate_sound(red.certificate)


def test_reduction_rejects_non_normal_a(s3):
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    with pytest.raises(PreconditionViolated):
        rs.normalizer_reduction(rs.PairSpec(s3, H, H), 0, 1)


def test_reduction_sl23_zero_two_not_applicable_yet_search_succeeds(sl23_pair):
    red = rs.normalizer_reduction(sl23_pair, 0, 2)
    assert red.applicable is False and red.verdict is False
    assert rs.decide_regular_set(sl23_pair, 0, 2) is not None


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
        assert got == rs.is_perfect_code(graph, C)


def test_arc_transitive_requires_self_inverse_class():
    g = rs.cyclic(3)
    pair = rs.PairSpec(g, rs.trivial_subgroup(g), rs.trivial_subgroup(g))
    with pytest.raises(PreconditionViolated):
        rs.arc_transitive_perfect_code(pair, 1)


def test_arc_transitive_requires_x_outside_h(s3):
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    with pytest.raises(PreconditionViolated):
        rs.arc_transitive_perfect_code(rs.PairSpec(s3, H, H), H.members[1])
