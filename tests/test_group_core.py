import random
import re
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import regsets as rs
from regsets.config import Limits
from regsets.errors import (
    ClosureExceedsCap,
    InvalidPermutation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    OrderExceedsCap,
    PNotDividing,
    RegsetError,
)
from regsets.group_core import (
    _conjugate_mask,
    _generated,
    _mask_of,
    _members_of,
    product_is_group,
    square_roots_lift,
)

import oracles

# 5x5 loops found by exhaustive search: the first has an element without a
# two-sided inverse, the second has all inverses but is not associative.
NOINV_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]
NONASSOC_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def find_elem(G, perm):
    return G.perms.index(tuple(perm))


# -- from_generators ---------------------------------------------------------


def test_from_generators_cyclic3():
    g = rs.from_generators(3, [(1, 2, 0)])
    assert g.order == 3


def test_from_generators_s3_matches_closure_oracle():
    gens = [(1, 2, 0), (1, 0, 2)]
    g = rs.from_generators(3, gens)
    assert g.order == len(oracles.perm_closure(3, gens)) == 6


def test_from_generators_trivial():
    g = rs.from_generators(1, [])
    assert g.order == 1


def test_from_generators_table_matches_composition():
    gens = [(1, 2, 0, 3), (1, 0, 2, 3)]
    g = rs.from_generators(4, gens)
    for a in range(g.order):
        for b in range(g.order):
            assert g.perms[g.mult[a][b]] == oracles.perm_compose(g.perms[a], g.perms[b])


def test_from_generators_rejects_non_bijection():
    with pytest.raises(InvalidPermutation):
        rs.from_generators(3, [(0, 0, 1)])


def test_from_generators_closure_cap():
    gens = [(1, 2, 3, 0), (1, 0, 2, 3)]  # S4
    with pytest.raises(ClosureExceedsCap):
        rs.from_generators(4, gens, limits=Limits(closure_cap=10))


# -- from_table ---------------------------------------------------------------


def test_from_table_trivial():
    assert rs.from_table([[0]]).order == 1


def test_from_table_z2():
    g = rs.from_table([[0, 1], [1, 0]])
    assert g.order == 2 and g.inv == (0, 1)


def test_from_table_not_latin():
    with pytest.raises(NotLatinSquare):
        rs.from_table([[0, 1], [1, 1]])


def test_from_table_relabels_identity():
    # C2 written with its identity at index 1
    g = rs.from_table([[1, 0], [0, 1]])
    assert g.mult == ((0, 1), (1, 0))


def test_from_table_no_identity():
    with pytest.raises(NoIdentity):
        rs.from_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_from_table_no_inverse():
    with pytest.raises(NoInverse):
        rs.from_table(NOINV_TABLE)


def test_from_table_not_associative():
    with pytest.raises(NotAssociative):
        rs.from_table(NONASSOC_TABLE)


def test_from_table_order_cap():
    with pytest.raises(OrderExceedsCap):
        rs.from_table([[0, 1], [1, 0]], limits=Limits(closure_cap=1))


def _latin_squares_without_group_law():
    """Reduced Latin squares of order 5 and the first 3000 of order 6 that
    are not groups, split into those where some element has no two-sided
    inverse and those with all inverses that are not associative."""
    out = {"no_inverse": [], "not_associative": []}
    for n in (5, 6):
        for t in islice(oracles.reduced_latin_squares(n), 3000):
            if any(t[t[a].index(0)][a] != 0 for a in range(n)):
                out["no_inverse"].append(t)
            elif oracles.associativity_failure(t) is not None:
                out["not_associative"].append(t)
    return out


LOOPS = _latin_squares_without_group_law()

TABLE_DEFECTS = ("none", "short_row", "out_of_range", "repeated_in_row",
                 "repeated_in_column", "repeated_in_column_off_identity",
                 "no_identity", *LOOPS)


def _relabel(mult, perm):
    """The table of ``mult`` with each element a renamed perm[a]."""
    n = len(mult)
    back = [0] * n
    for a, p in enumerate(perm):
        back[p] = a
    return [[perm[mult[back[i]][back[j]]] for j in range(n)] for i in range(n)]


@st.composite
def tables_with_one_defect(draw, groups):
    """A group table relabelled by a random permutation (fixing 0 or not)
    with at most one defect, or a relabelled square of ``LOOPS``."""
    defect = draw(st.sampled_from(TABLE_DEFECTS))
    if defect in LOOPS:
        base = draw(st.sampled_from(LOOPS[defect]))
    else:
        base = draw(st.sampled_from(groups)).mult
    n = len(base)
    perm = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        perm = [0, *[p for p in perm if p]]  # the identity stays at 0
    table = _relabel(base, perm)
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    if defect == "short_row":
        table[i].pop()
    elif defect == "out_of_range":
        table[i][j] = draw(st.sampled_from([-1, n, n + 7]))
    elif defect == "repeated_in_row" and j != k:
        table[i][j] = table[i][k]
    elif defect == "repeated_in_column" and j != k:
        table[i][j], table[i][k] = table[i][k], table[i][j]
    elif defect == "repeated_in_column_off_identity" and n >= 3:
        # a swap in a row and columns other than the identity's keeps the
        # rows Latin and the identity two-sided, but breaks two columns
        others = [a for a in range(n) if a != perm[0]]
        i = draw(st.sampled_from(others))
        j, k = draw(st.permutations(others))[:2]
        table[i][j], table[i][k] = table[i][k], table[i][j]
    elif defect == "no_identity" and n >= 3:
        # swapping two rows that are not the identity's leaves a Latin square
        # whose only identity row has a column that is not the identity's
        e = perm[0]
        i, k = [a for a in range(n) if a != e][:2]
        table[i], table[k] = table[k], table[i]
    return table


def _table_outcome(build, table):
    try:
        result = build(table)
    except (ValueError, RegsetError) as exc:
        return type(exc), str(exc)
    return result if isinstance(result, tuple) else (result.mult, result.inv)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_table_validation_matches_the_ordered_reference(small_corpus, data):
    # the same first violation (class and message), or the same table and
    # inverses, as the ordered checks of GroupTable and from_table
    table = data.draw(tables_with_one_defect(small_corpus))
    assert (_table_outcome(rs.GroupTable, table)
            == _table_outcome(oracles.group_table_reference, table))
    assert (_table_outcome(rs.from_table, table)
            == _table_outcome(oracles.from_table_reference, table))


def _tables_with_reduced_rows(n):
    """Every n x n table whose rows are permutations of 0..n-1 and whose
    row 0 and column 0 are 0..n-1: 1, 1, 4 and 216 tables for n = 1..4."""
    choices = [[p for p in permutations(range(n)) if p[0] == i] for i in range(1, n)]
    for rest in product(*choices):
        yield (tuple(range(n)), *rest)


@pytest.mark.parametrize("n", range(1, 5))
def test_table_validation_matches_the_reference_on_every_small_table(n):
    # these pass every check that GroupTable makes on whole rows, so the
    # columns are checked only through Light's test and the first-violation
    # pass after it; the outcome must still be the reference's
    for table in _tables_with_reduced_rows(n):
        assert (_table_outcome(rs.GroupTable, table)
                == _table_outcome(oracles.group_table_reference, table)), table


class _Int(int):
    pass


@pytest.mark.parametrize("entries", [
    [[False, True], [True, False]],
    [[0, 1], [1, _Int(0)]],
    [(0, 1), (1, 0.0)],
    [["0", "1"], ["1", "0"]],
], ids=["bool", "int-subclass", "float", "str"])
def test_table_entries_come_out_as_exact_ints(entries):
    G = rs.GroupTable(entries)
    assert G.mult == ((0, 1), (1, 0))
    assert {type(x) for row in G.mult for x in row} == {int}


def test_table_keeps_rows_of_exact_ints():
    rows = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    G = rs.GroupTable(rows)
    assert all(a is b for a, b in zip(G.mult, rows))


# -- associativity (Light's test on a generating set) ------------------------


def _reported_triple(exc):
    return tuple(map(int, re.match(r"\((\d+)\*(\d+)\)\*(\d+)", str(exc)).groups()))


@pytest.mark.parametrize("n", range(1, 7))
def test_associativity_check_is_exact_on_reduced_latin_squares(n):
    """9471 tables in all; the check itself runs on each, and so does the
    constructor, which may stop earlier at a missing two-sided inverse."""
    for table in oracles.reduced_latin_squares(n):
        failure = oracles.associativity_failure(table)
        bare = object.__new__(rs.GroupTable)
        bare.order, bare.mult = n, table
        try:
            bare._check_associative()
        except NotAssociative as exc:
            assert failure is not None
            a, b, c = _reported_triple(exc)
            assert table[table[a][b]][c] != table[a][table[b][c]]
        else:
            assert failure is None, table
        try:
            rs.GroupTable(table)
        except (NotAssociative, NoInverse):
            assert failure is not None
        else:
            assert failure is None


@st.composite
def permutation_generators(draw):
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=3))
    return degree, [tuple(g) for g in gens]


@settings(max_examples=40, deadline=None)
@given(permutation_generators())
def test_from_generators_table_is_the_composition_table(case):
    degree, gens = case
    g = rs.from_generators(degree, gens)
    assert (g.perms, g.mult) == oracles.perm_table_all_pairs(degree, gens)


# -- masks and generate_subgroup ----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.sets(st.integers(0, 200)),
    st.sets(st.integers(0, 1 << 14), max_size=8),  # sparse, with high ids
))
def test_members_of_lists_a_mask_in_order(S):
    assert _members_of(_mask_of(S)) == tuple(sorted(S))


def test_generated_matches_the_set_closure(small_corpus):
    rng = random.Random(5)
    for G in small_corpus:
        for _ in range(10):
            seed = [rng.randrange(G.order) for _ in range(rng.randrange(3))]
            want = oracles.subgroup_closure(G, seed)
            assert _generated(G, seed) == _mask_of(want)
            assert rs.generate_subgroup(G, seed).members == tuple(sorted(want))


def test_generate_rejects_ids_out_of_range(s3):
    for bad in (-1, s3.order):
        with pytest.raises(ValueError, match=f"element {bad} out of range"):
            rs.generate_subgroup(s3, [1, bad])


def test_generate_empty_seed():
    g = rs.cyclic(6)
    assert rs.generate_subgroup(g, []).members == (0,)


def test_generate_in_c4():
    g = rs.cyclic(4)
    assert rs.generate_subgroup(g, [2]).members == (0, 2)


def test_generate_three_cycle_in_s3(s3):
    x = find_elem(s3, (1, 2, 0))
    assert rs.generate_subgroup(s3, [x]).order == 3


def test_lagrange_on_random_seeds(small_corpus):
    rng = random.Random(11)
    for G in small_corpus:
        for _ in range(5):
            k = rng.randrange(1, 3)
            seed = [rng.randrange(G.order) for _ in range(k)]
            assert G.order % rs.generate_subgroup(G, seed).order == 0


# -- conjugation / normalizer / intersection ---------------------------------


def test_conjugate_by_identity(s3):
    H = rs.generate_subgroup(s3, [find_elem(s3, (1, 0, 2))])
    assert _conjugate_mask(s3, H, 0) == H.mask


def test_conjugate_of_normal_subgroup(s3):
    A3 = rs.generate_subgroup(s3, [find_elem(s3, (1, 2, 0))])
    for g in range(6):
        assert _conjugate_mask(s3, A3, g) == A3.mask


def test_conjugate_transposition_subgroup(s3):
    # <(0 1)> conjugated by (0 1 2) is <(1 2)>; the expectation is computed
    # with a standalone permutation oracle
    t = find_elem(s3, (1, 0, 2))
    c = find_elem(s3, (1, 2, 0))
    H = rs.generate_subgroup(s3, [t])
    got = _conjugate_mask(s3, H, c)
    expected_perm = oracles.perm_compose(
        oracles.perm_compose(oracles.perm_inverse(s3.perms[c]), s3.perms[t]),
        s3.perms[c],
    )
    assert expected_perm == (0, 2, 1)
    assert got == rs.generate_subgroup(s3, [find_elem(s3, expected_perm)]).mask


def test_normalizer_of_normal_is_whole_group(s3):
    A3 = rs.generate_subgroup(s3, [find_elem(s3, (1, 2, 0))])
    assert rs.normalizer(s3, A3).order == 6


def test_normalizer_of_whole_group(s3):
    assert rs.normalizer(s3, s3.full_subgroup()).order == 6


def test_normalizer_of_transposition_in_s3(s3):
    H = rs.generate_subgroup(s3, [find_elem(s3, (1, 0, 2))])
    assert rs.normalizer(s3, H) == H


def test_normalizer_contains_and_normalizes(small_corpus):
    for G in small_corpus:
        for H in rs.all_subgroups(G):
            N = rs.normalizer(G, H)
            assert H.is_subset_of(N)
            assert rs.is_normal(H, N)


def test_intersect(s3):
    H = rs.generate_subgroup(s3, [find_elem(s3, (1, 0, 2))])
    K = rs.generate_subgroup(s3, [find_elem(s3, (0, 2, 1))])
    assert rs.intersect(H, H) == H
    assert rs.intersect(H, rs.trivial_subgroup(s3)).members == (0,)
    assert rs.intersect(H, K).members == (0,)


# -- set products --------------------------------------------------------------


def test_set_product_identity(s3):
    A = {1, 3, 4}
    assert rs.set_product(s3, A, {0}) == frozenset(A)


def test_set_product_subgroup_idempotent(s3):
    H = rs.generate_subgroup(s3, [find_elem(s3, (1, 0, 2))])
    assert rs.set_product(s3, H.members, H.members) == frozenset(H.members)


def test_set_product_two_transposition_subgroups(s3):
    H = rs.generate_subgroup(s3, [find_elem(s3, (1, 0, 2))])
    K = rs.generate_subgroup(s3, [find_elem(s3, (0, 2, 1))])
    assert len(rs.set_product(s3, H.members, K.members)) == 4


def test_product_formula(small_corpus):
    # |HK| * |H meet K| == |H| * |K|
    for G in small_corpus:
        subs = rs.all_subgroups(G)
        for H in subs:
            for K in subs:
                hk = rs.set_product(G, H.members, K.members)
                assert len(hk) * rs.intersect(H, K).order == H.order * K.order


def test_product_is_group_matches_set_product(corpus):
    seen = {True: 0, False: 0}
    for G in corpus:
        if G.order > 16:
            continue
        subs = rs.all_subgroups(G)
        for N in subs:
            for A in subs:
                covers = len(rs.set_product(G, N.members, A.members)) == G.order
                assert product_is_group(N, A) == covers, (G.label, N, A)
                seen[covers] += 1
    assert all(seen.values())


# -- normality / quotients ------------------------------------------------------


def test_is_normal_in_abelian():
    g = rs.cyclic(12)
    for H in rs.all_subgroups(g):
        assert rs.is_normal(H, g.full_subgroup())


def test_is_normal_s3_cases(s3):
    full = s3.full_subgroup()
    H = rs.generate_subgroup(s3, [find_elem(s3, (1, 0, 2))])
    A3 = rs.generate_subgroup(s3, [find_elem(s3, (1, 2, 0))])
    assert not rs.is_normal(H, full)
    assert rs.is_normal(A3, full)


def test_quotient_by_itself(s3):
    A3 = rs.generate_subgroup(s3, [find_elem(s3, (1, 2, 0))])
    q = rs.quotient(A3, A3)
    assert q.table.order == 1


def test_quotient_by_trivial_reproduces_table(s3):
    q = rs.quotient(s3.full_subgroup(), rs.trivial_subgroup(s3))
    assert q.table.mult == s3.mult


def test_quotient_q8_by_center_is_klein():
    q8 = rs.quaternion8()
    center = next(s for s in rs.all_subgroups(q8) if s.order == 2)
    q = rs.quotient(q8.full_subgroup(), center)
    assert q.table.order == 4
    assert all(q.table.element_order(a) == 2 for a in range(1, 4))


def test_quotient_projection_is_homomorphism(small_corpus):
    rng = random.Random(5)
    for G in small_corpus[:8]:
        subs = [s for s in rs.all_subgroups(G) if rs.is_normal(s, G.full_subgroup())]
        for K in subs:
            q = rs.quotient(G.full_subgroup(), K)
            for _ in range(20):
                a, b = rng.randrange(G.order), rng.randrange(G.order)
                assert q.projection[G.mult[a][b]] == q.table.mult[q.projection[a]][q.projection[b]]
            # fibres all have kernel size, section is a right inverse
            fibres: dict[int, int] = {}
            for m in G.full_subgroup().members:
                fibres[q.projection[m]] = fibres.get(q.projection[m], 0) + 1
            assert fibres == {c: K.order for c in range(q.table.order)}
            for c in range(q.table.order):
                assert q.projection[q.section[c]] == c


def test_quotient_not_normal(s3):
    H = rs.generate_subgroup(s3, [find_elem(s3, (1, 0, 2))])
    with pytest.raises(NotNormal):
        rs.quotient(s3.full_subgroup(), H)


# -- Sylow subgroups -------------------------------------------------------------


def test_sylow_of_p_group():
    q8 = rs.quaternion8()
    assert rs.sylow_subgroup(q8.full_subgroup(), 2) == q8.full_subgroup()


def test_sylow_3_in_s3(s3):
    P = rs.sylow_subgroup(s3.full_subgroup(), 3)
    assert P.order == 3


def test_sylow_2_of_sl23_is_quaternion():
    g = rs.sl23()
    P = rs.sylow_subgroup(g.full_subgroup(), 2)
    assert P.order == 8
    orders = sorted(g.element_order(a) for a in P.members)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_sylow_p_not_dividing(s3):
    with pytest.raises(PNotDividing):
        rs.sylow_subgroup(s3.full_subgroup(), 5)


def test_sylow_rejects_a_p_that_is_not_prime():
    # on S4, p = 4 once returned an order-4 subgroup (the Sylow 2-subgroup
    # has order 8), p = 6 failed inside the growth loop, and p = 1 was
    # reported as not dividing 24
    s4 = rs.symmetric(4)
    full = s4.full_subgroup()
    for p in (0, 1, 4, 6, 12):
        with pytest.raises(PNotDividing, match="not a prime"):
            rs.sylow_subgroup(full, p)
        with pytest.raises(PNotDividing, match="not a prime"):
            rs.perfect_code_sylow_criterion(s4, full, p)


def test_sylow_order_is_p_part(corpus):
    # S5 and A5 are there because in them the least y outside P with y^2 in
    # P does not always normalize P, and adjoining it would leave the 2-groups
    cases = [(G, rs.all_subgroups(G)) for G in corpus if G.order <= 16]
    cases += [(G, rs.all_subgroups(G)) for G in (
        rs.direct_product(rs.symmetric(4), rs.cyclic(2)),
        rs.direct_product(rs.sl23(), rs.cyclic(2)))]
    cases += [(G, [G.full_subgroup()]) for G in (rs.symmetric(5), rs.alternating(5))]
    for G, subs in cases:
        for A in subs:
            for p in (2, 3, 5, 7):
                if A.order % p != 0:
                    continue
                P = rs.sylow_subgroup(A, p)
                part = 1
                rest = A.order
                while rest % p == 0:
                    part *= p
                    rest //= p
                assert P.order == part
                assert P.is_subset_of(A)
                assert all(G.element_order(x) % p == 0 for x in P.members[1:])


# -- subgroup enumeration ----------------------------------------------------------


def test_all_subgroups_trivial():
    g = rs.cyclic(1)
    assert [s.members for s in rs.all_subgroups(g)] == [(0,)]


def test_all_subgroups_c4():
    assert [s.order for s in rs.all_subgroups(rs.cyclic(4))] == [1, 2, 4]


def test_all_subgroups_q8():
    subs = rs.all_subgroups(rs.quaternion8())
    assert [s.order for s in subs] == [1, 2, 4, 4, 4, 8]


def test_all_subgroups_matches_naive_filter(small_corpus):
    for G in small_corpus:
        got = [frozenset(s.members) for s in rs.all_subgroups(G)]
        assert got == oracles.all_subgroup_sets(G)


def test_all_subgroups_matches_join_closure_oracle(corpus):
    # the cyclic extension against the pairwise join closure, order and all
    groups = [G for G in corpus if G.order <= 16]
    groups += [rs.direct_product(rs.symmetric(4), rs.cyclic(2)),
               rs.direct_product(rs.sl23(), rs.cyclic(2))]
    for G in groups:
        got = [s.members for s in rs.all_subgroups(G)]
        assert got == oracles.join_closure_subgroups(G), G.label


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_all_subgroups_of_a_relabelled_table(corpus, data):
    # relabelling by a permutation fixing 0 changes which element generates
    # each cyclic subgroup first, and the order in which layers are found
    G = data.draw(st.sampled_from([G for G in corpus if G.order <= 16]))
    n = G.order
    perm = [0, *data.draw(st.permutations(range(1, n)))]
    back = [0] * n
    for a, p in enumerate(perm):
        back[p] = a
    relabelled = rs.from_table(
        [[perm[G.mult[back[i]][back[j]]] for j in range(n)] for i in range(n)]
    )
    got = [s.members for s in rs.all_subgroups(relabelled)]
    assert got == oracles.join_closure_subgroups(relabelled)


def test_all_subgroups_cap():
    with pytest.raises(OrderExceedsCap):
        rs.all_subgroups(rs.cyclic(8), limits=Limits(enumeration_cap=6))


# -- automorphisms ---------------------------------------------------------------


def test_group_table_keeps_lights_generators(corpus):
    # the generators Light's test picked generate G, each outside the
    # subgroup the earlier ones generate, so there are at most log2 |G|
    for G in corpus:
        gens = G.generators
        assert _generated(G, gens) == (1 << G.order) - 1
        for i, g in enumerate(gens):
            assert not (_generated(G, gens[:i]) >> g) & 1
        assert 2 ** len(gens) <= G.order


def test_group_table_generators_are_the_greedy_generating_set(corpus):
    # each generator is the least element outside the subgroup that the
    # earlier ones generate; the automorphism search and the survey order
    # depend on this choice
    for G in corpus:
        gens, reached = [], frozenset({0})
        while len(reached) < G.order:
            gens.append(min(set(range(G.order)) - reached))
            reached = oracles.subgroup_closure(G, gens)
        assert G.generators == tuple(gens), G.label


def test_automorphism_generators_are_cached():
    G = rs.quaternion8()
    assert rs.automorphism_generators(G) is rs.automorphism_generators(G)


# -- involutions in cosets -----------------------------------------------------------


def test_involution_coset_when_x_is_involution(s3):
    t = find_elem(s3, (1, 0, 2))
    A3 = rs.generate_subgroup(s3, [find_elem(s3, (1, 2, 0))])
    assert rs.involution_exists_in_coset(s3, t, A3)


def test_involution_coset_c4_fails():
    g = rs.cyclic(4)
    A = rs.Subgroup(g, [0, 2])
    assert not rs.involution_exists_in_coset(g, 1, A)


def test_involution_coset_s3_transversal(s3):
    A3 = rs.generate_subgroup(s3, [find_elem(s3, (1, 2, 0))])
    for x in range(6):
        if x in A3:
            continue
        assert rs.involution_exists_in_coset(s3, x, A3)


def test_square_roots_lift_memo_keeps_n_and_h_apart():
    # One group object, so every call after the first of a key is a cache
    # hit.  For each A the loop runs over H outside and N inside, so a key
    # without N would answer a later N with an earlier one's result, and a
    # key without H a later H with an earlier one's; the answers do vary in
    # both, so either would disagree with the oracle.
    G = rs.dihedral(4)
    subs = rs.all_subgroups(G)
    sets = [(S, frozenset(S.members)) for S in subs]
    ns = [(None, frozenset(range(G.order)))] + sets  # N defaults to G
    hs = [(None, frozenset({0}))] + sets  # H defaults to 1
    varies_in_n = varies_in_h = False
    for A in subs:
        aset = frozenset(A.members)
        got = {}
        for H, hset in hs:
            for N, nset in ns:
                got[(N, H)] = square_roots_lift(G, A, N, H)
                want = oracles.square_roots_lift_everywhere(G, aset, nset, hset)
                assert got[(N, H)] == want, (A.members, N, H)
        varies_in_n |= any(len({got[(N, H)] for N, _ in ns}) > 1 for H, _ in hs)
        varies_in_h |= any(len({got[(N, H)] for H, _ in hs}) > 1 for N, _ in ns)
    assert varies_in_n and varies_in_h
