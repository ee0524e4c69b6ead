import random

import pytest

import regsets as rs
from regsets.errors import (
    IntersectsSubgroup,
    NotDoubleCosetUnion,
    NotInverseClosed,
    RegsetError,
)

import oracles


def cayley(G, U):
    H = rs.trivial_subgroup(G)
    return rs.build(G, H, rs.validate_connection_set(H, rs.mask_of(G, U)))


# -- connection set validation ------------------------------------------------


def test_empty_connection_set_valid(s3):
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    conn = rs.validate_connection_set(H, 0)
    assert conn.degree == 0


def test_cayley_pair_valid():
    g = rs.cyclic(5)
    conn = rs.validate_connection_set(rs.trivial_subgroup(g), rs.mask_of(g, [1, 4]))
    assert conn.degree == 2


def test_connection_set_meeting_subgroup_rejected(s3):
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    with pytest.raises(IntersectsSubgroup):
        rs.validate_connection_set(H, H.mask)


def test_connection_set_not_inverse_closed():
    g = rs.cyclic(5)
    with pytest.raises(NotInverseClosed):
        rs.validate_connection_set(rs.trivial_subgroup(g), rs.mask_of(g, [1]))


def test_connection_set_not_double_coset_union(s3):
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    x = s3.perms.index((1, 2, 0))
    with pytest.raises(NotDoubleCosetUnion):
        rs.validate_connection_set(H, rs.mask_of(s3, [x, s3.inv[x]]))


def test_connection_set_mask_out_of_range(s3):
    H = rs.trivial_subgroup(s3)
    with pytest.raises(ValueError, match="element 6 out of range"):
        rs.validate_connection_set(H, 1 << 6 | 1 << 1)
    with pytest.raises(ValueError):
        rs.validate_connection_set(H, -1)


def _candidate_sets(G, H, rng):
    """Random element sets of every kind validation tells apart: any subset,
    subsets of G - H with and without their inverses, unions of left
    H-cosets with and without their inverses, such a union with one more
    element, and unions of inverse-closed units."""
    outside = [g for g in range(G.order) if not (H.mask >> g) & 1]
    cosets = [c for c in oracles.left_coset_sets(G, set(H.members)) if 0 not in c]
    units = oracles.inverse_closed_units(G, set(H.members))
    yield [-1]
    yield [G.order]
    for _ in range(6):
        yield [g for g in range(G.order) if rng.random() < 0.3]
        some = [g for g in outside if rng.random() < 0.4]
        yield some
        yield some + [G.inv[g] for g in some]
        left = set().union(*(c for c in cosets if rng.random() < 0.4))
        yield left
        yield left | {G.inv[g] for g in left}
        if outside:
            yield left | {rng.choice(outside)}
        yield set().union(*(u for u in units if rng.random() < 0.5))


def test_mask_validation_matches_elementwise(small_corpus):
    # every subgroup H of every group of order <= 12: the mask validation
    # accepts exactly the sets the element-wise one accepts, and otherwise
    # raises the same exception with the same message; among the rejected
    # sets are H-stable ones that are not inverse-closed and sets that are
    # neither, which must raise NotInverseClosed first
    rng = random.Random(6)
    outcomes = {}
    for G in small_corpus:
        for H in rs.all_subgroups(G):
            for U in _candidate_sets(G, H, rng):
                uset = set(U)
                closed = uset == {G.inv[u] for u in uset if 0 <= u < G.order}
                stable = all(G.mult[u][h] in uset for u in uset if 0 <= u < G.order
                             for h in H.members)
                try:
                    want = oracles.validate_connection_set_elementwise(H, U)
                except (ValueError, RegsetError) as exc:
                    with pytest.raises(type(exc)) as got:
                        rs.validate_connection_set(H, rs.mask_of(G, U))
                    assert type(got.value) is type(exc), (G.label, H.members, U)
                    assert str(got.value) == str(exc), (G.label, H.members, U)
                    key = (type(exc).__name__, closed, stable)
                    outcomes[key] = outcomes.get(key, 0) + 1
                    continue
                conn = rs.validate_connection_set(H, rs.mask_of(G, U))
                assert conn.members == want
                assert conn.mask == sum(1 << u for u in want)
                outcomes["valid"] = outcomes.get("valid", 0) + 1
    kinds = {key if key == "valid" else key[0] for key in outcomes}
    assert kinds == {"ValueError", "IntersectsSubgroup", "NotInverseClosed",
                     "NotDoubleCosetUnion", "valid"}
    assert ("NotInverseClosed", False, True) in outcomes  # H-stable only
    assert ("NotInverseClosed", False, False) in outcomes  # fails both
    assert ("NotDoubleCosetUnion", True, False) in outcomes


# -- graph construction ---------------------------------------------------------


def test_empty_graph(s3):
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    graph = rs.build(s3, H, rs.validate_connection_set(H, 0))
    assert graph.vertex_count == 3
    assert all(graph.neighbors(v) == () for v in range(3))


def test_build_rejects_connection_set_of_another_group():
    # {1, 5} is a connection set of C6 over its trivial subgroup, but not of
    # D3 over its own: there it is not inverse-closed
    c6, d3 = rs.cyclic(6), rs.dihedral(3)
    conn = rs.validate_connection_set(rs.trivial_subgroup(c6), rs.mask_of(c6, [1, 5]))
    with pytest.raises(ValueError, match="different subgroup"):
        rs.build(d3, rs.trivial_subgroup(d3), conn)
    with pytest.raises(NotInverseClosed):
        rs.validate_connection_set(rs.trivial_subgroup(d3), conn.mask)


def test_c4_cayley_is_four_cycle():
    g = rs.cyclic(4)
    graph = cayley(g, [1, 3])
    assert graph.neighbor_masks == (0b1010, 0b0101, 0b1010, 0b0101)
    assert [graph.neighbors(v) for v in range(4)] == [(1, 3), (0, 2), (1, 3), (0, 2)]


def test_complete_graph():
    g = rs.cyclic(5)
    graph = cayley(g, [1, 2, 3, 4])
    assert all(len(graph.neighbors(v)) == 4 for v in range(5))


def test_graph_regularity_on_random_connection_sets(small_corpus):
    rng = random.Random(3)
    for G in small_corpus[:8]:
        for H in rs.all_subgroups(G)[:4]:
            units = oracles.inverse_closed_units(G, set(H.members))
            for _ in range(4):
                chosen = [u for u in units if rng.random() < 0.5]
                U = set().union(*chosen) if chosen else set()
                graph = rs.build(G, H, rs.validate_connection_set(H, rs.mask_of(G, U)))
                k = len(U) // H.order
                assert graph.degree == k
                assert all(len(graph.neighbors(v)) == k for v in range(graph.vertex_count))


def test_adjacency_is_representative_independent(s3):
    # recompute the edge set with random (non-minimal) coset representatives
    rng = random.Random(9)
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    x = s3.perms.index((1, 2, 0))
    U = rs.double_coset(H, x)
    graph = rs.build(s3, H, rs.validate_connection_set(H, rs.mask_of(s3, U)))
    space = graph.space
    cosets = [sorted(c) for c in oracles.left_coset_sets(s3, H.members)]
    for _ in range(10):
        reps = [rng.choice(cosets[i]) for i in range(space.size)]
        edges = set()
        for i in range(space.size):
            for j in range(space.size):
                if i < j and s3.mult[s3.inv[reps[i]]][reps[j]] in U:
                    edges.add((i, j))
        assert edges == {(v, w) for v in range(space.size) for w in graph.neighbors(v) if v < w}


# -- profiles ----------------------------------------------------------------------


def test_profile_edgeless(s3):
    H = rs.generate_subgroup(s3, [s3.perms.index((1, 0, 2))])
    graph = rs.build(s3, H, rs.validate_connection_set(H, 0))
    assert rs.profile_subset(graph, [0, 1]) == (0, 0)


def test_profile_complete_graph():
    g = rs.cyclic(5)
    graph = cayley(g, [1, 2, 3, 4])
    assert rs.profile_subset(graph, [0, 2, 3]) == (2, 3)


def test_profile_four_cycle_antipodal():
    g = rs.cyclic(4)
    graph = cayley(g, [1, 3])
    assert rs.profile_subset(graph, [0, 2]) == (0, 2)


def test_profile_not_regular_returns_none():
    g = rs.cyclic(4)
    graph = cayley(g, [1, 3])
    # outside vertex 2 sees 0 vertices of {0}, vertices 1 and 3 see one
    assert rs.profile_subset(graph, [0]) is None


def test_profile_whole_vertex_set_degenerate():
    g = rs.cyclic(4)
    graph = cayley(g, [1, 3])
    assert rs.profile_subset(graph, [0, 1, 2, 3]) == (2, 0)


def test_profile_empty_rejected():
    g = rs.cyclic(4)
    graph = cayley(g, [1, 3])
    with pytest.raises(ValueError):
        rs.profile_subset(graph, [])


def test_profile_matches_naive_recount(small_corpus):
    # coset graphs over every subgroup H, the trivial one giving Cayley
    # graphs; the recount takes C as the union of its cosets
    rng = random.Random(21)
    outcomes = set()
    for G in small_corpus:
        for H in rs.all_subgroups(G):
            units = oracles.inverse_closed_units(G, set(H.members))
            cosets = oracles.left_coset_sets(G, H.members)  # ascending minima
            for _ in range(5):
                chosen = [u for u in units if rng.random() < 0.5]
                U = set().union(*chosen) if chosen else set()
                graph = rs.build(G, H, rs.validate_connection_set(H, rs.mask_of(G, U)))
                C = set(rng.sample(range(len(cosets)), rng.randrange(1, len(cosets) + 1)))
                got = rs.profile_subset(graph, C)
                want = oracles.graph_profile(G, H.members, U, set().union(*(cosets[c] for c in C)))
                if want is None:
                    assert got is None
                elif want[1] is None:
                    assert got == (want[0], 0)
                else:
                    assert got == want
                outcomes.add((H.order > 1, want is None))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_edge_double_count_identity(small_corpus):
    # |C| * (k - r) == (|V| - |C|) * s whenever a profile exists
    rng = random.Random(4)
    for G in small_corpus[:8]:
        for H in rs.all_subgroups(G)[:3]:
            units = oracles.inverse_closed_units(G, set(H.members))
            space = rs.left_cosets(G, H)
            if space.size < 2:
                continue
            for _ in range(6):
                chosen = [u for u in units if rng.random() < 0.5]
                U = set().union(*chosen) if chosen else set()
                graph = rs.build(G, H, rs.validate_connection_set(H, rs.mask_of(G, U)))
                size = rng.randrange(1, space.size)
                C = set(rng.sample(range(space.size), size))
                prof = rs.profile_subset(graph, C)
                if prof is not None:
                    r, s = prof
                    assert len(C) * (graph.degree - r) == (space.size - len(C)) * s


# -- perfect codes --------------------------------------------------------------------


def test_singleton_in_complete_graph_is_code():
    g = rs.cyclic(5)
    graph = cayley(g, [1, 2, 3, 4])
    assert rs.profile_subset(graph, [2]) == (0, 1)


def test_single_vertex_of_four_cycle_is_not():
    g = rs.cyclic(4)
    graph = cayley(g, [1, 3])
    assert rs.profile_subset(graph, [0]) != (0, 1)


def test_a3_in_transposition_cayley_graph(s3):
    t = s3.perms.index((1, 0, 2))
    graph = cayley(s3, [t])
    A3 = rs.generate_subgroup(s3, [s3.perms.index((1, 2, 0))])
    assert rs.profile_subset(graph, A3.members) == (0, 1)
