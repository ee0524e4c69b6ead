from collections import Counter

import pytest

import regsets as rs
from regsets import presets
from regsets.config import Limits
from regsets.errors import OrderExceedsCap, ParseError

import oracles


def order_profile(G):
    return tuple(sorted(Counter(G.element_order(a) for a in range(G.order)).items()))


def is_abelian(G):
    return all(
        G.mult[a][b] == G.mult[b][a] for a in range(G.order) for b in range(G.order)
    )


def center_size(G):
    return sum(
        1
        for a in range(G.order)
        if all(G.mult[a][b] == G.mult[b][a] for b in range(G.order))
    )


def square_root_counts(G):
    counts = Counter(G.mult[x][x] for x in range(G.order))
    return tuple(sorted(counts.values(), reverse=True))


def fingerprint(G):
    return (G.order, is_abelian(G), order_profile(G), center_size(G),
            square_root_counts(G))


# -- individual constructions ---------------------------------------------------


def test_cyclic():
    g = rs.cyclic(6)
    assert g.order == 6 and g.element_order(1) == 6


def test_dihedral_relations():
    g = rs.dihedral(5)
    assert g.order == 10
    r, s = 1, 5  # encoding: rotation 1, first reflection at index n
    assert g.element_order(r) == 5 and g.element_order(s) == 2
    assert g.mult[g.mult[s][r]][g.inv[s]] == g.inv[r]


def test_dicyclic_relations():
    for n in (2, 3, 4):
        g = rs.dicyclic(n)
        assert g.order == 4 * n
        a, b = 1, 2 * n
        assert g.element_order(a) == 2 * n
        assert g.mult[b][b] == pow_elem(g, a, n)
        assert g.mult[g.mult[b][a]][g.inv[b]] == g.inv[a]


def pow_elem(G, a, k):
    x = 0
    for _ in range(k):
        x = G.mult[x][a]
    return x


def test_quaternion8_unique_involution():
    g = rs.quaternion8()
    assert g.order == 8
    assert sum(1 for a in range(1, 8) if g.mult[a][a] == 0) == 1


def test_klein4():
    g = rs.klein4()
    assert g.order == 4 and all(g.mult[a][a] == 0 for a in range(4))


def test_symmetric_orders():
    assert rs.symmetric(1).order == 1
    assert rs.symmetric(2).order == 2
    assert rs.symmetric(3).order == 6
    assert rs.symmetric(4).order == 24


def test_alternating_orders():
    assert rs.alternating(2).order == 1
    assert rs.alternating(3).order == 3
    assert rs.alternating(4).order == 12
    a4 = rs.alternating(4)
    assert order_profile(a4) == ((1, 1), (2, 3), (3, 8))


def test_sl23_structure():
    g = rs.sl23()
    assert g.order == 24
    assert order_profile(g) == ((1, 1), (2, 1), (3, 8), (4, 6), (6, 8))
    assert center_size(g) == 2


def test_semidihedral_and_modular_differ():
    sd = rs.semidihedral16()
    m = rs.modular16()
    assert sd.order == m.order == 16
    assert order_profile(sd) == ((1, 1), (2, 5), (4, 6), (8, 4))
    assert order_profile(m) == ((1, 1), (2, 3), (4, 4), (8, 8))
    assert not is_abelian(sd) and not is_abelian(m)


def test_pauli16_structure():
    g = rs.pauli16()
    assert g.order == 16
    assert order_profile(g) == ((1, 1), (2, 7), (4, 8))
    # cyclic center of order 4
    z = [a for a in range(16)
         if all(g.mult[a][b] == g.mult[b][a] for b in range(16))]
    assert len(z) == 4
    assert max(g.element_order(a) for a in z) == 4


def test_pauli16_validates_each_table_once(monkeypatch):
    # C4, Q8, their product and the quotient: the quotient's own table is
    # relabelled, not copied into a fifth
    built = []
    init = rs.GroupTable.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rs.GroupTable, "__init__", counting)
    g = rs.pauli16()
    assert len(built) == 4
    assert (g.label, g.spec) == ("pauli16", {"kind": "preset", "name": "pauli16"})


def test_direct_product():
    g = rs.direct_product(rs.cyclic(2), rs.cyclic(3))
    assert g.order == 6 and is_abelian(g)
    assert g.element_order(g.mult[3][1]) == 6  # (1,0)*(0,1) generates


# -- preset dispatch ---------------------------------------------------------------


def test_preset_dispatch():
    assert rs.preset("cyclic", 4).order == 4
    assert rs.preset("quaternion8").order == 8
    assert rs.preset("product", factors=[
        {"kind": "preset", "name": "cyclic", "n": 2},
        {"kind": "preset", "name": "cyclic", "n": 2},
    ]).order == 4


def test_preset_errors():
    with pytest.raises(ParseError):
        rs.preset("nosuch")
    with pytest.raises(ParseError):
        rs.preset("cyclic")
    with pytest.raises(ParseError):
        rs.preset("klein4", 3)
    c2 = {"kind": "preset", "name": "cyclic", "n": 2}
    with pytest.raises(ParseError):
        rs.preset("product", factors=[c2])
    with pytest.raises(ParseError, match="'product' takes no parameter"):
        rs.preset("product", 3, factors=[c2, c2])
    with pytest.raises(ParseError, match="takes no parameter"):
        rs.preset("product", factors=[c2, {**c2, "name": "klein4"}])
    with pytest.raises(ParseError, match="takes no factors"):
        rs.preset("cyclic", 2, factors=[c2, c2])


def _every_preset():
    """(name, n) for every preset, with the parametric ones at n = 1..5."""
    return [(name, n)
            for name, (_, order) in presets._PRESETS.items()
            for n in (range(1, 6) if callable(order) else [None])]


def test_preset_order_is_known_before_building():
    for name, n in _every_preset():
        assert presets._preset_order(name, n, None, 5000) == rs.preset(name, n).order, name


def test_permutation_presets_match_the_all_pairs_tables(monkeypatch):
    built = []
    from_generators = presets.from_generators

    def recording(degree, gens, **kwargs):
        g = from_generators(degree, gens, **kwargs)
        built.append((degree, gens, g))
        return g

    monkeypatch.setattr(presets, "from_generators", recording)
    for name, n in _every_preset():
        rs.preset(name, n)
    labels = {g.label for _, _, g in built}
    assert {"symmetric(5)", "alternating(5)", "semidihedral16", "modular16"} <= labels
    for degree, gens, g in built:
        assert (g.perms, g.mult) == oracles.perm_table_all_pairs(degree, gens), g.label


def test_preset_cap_applies_before_any_table_is_built(monkeypatch):
    small = Limits(closure_cap=100)
    assert rs.preset("cyclic", 100, limits=small).order == 100

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(rs.GroupTable, "__init__", no_table)
    c10 = {"kind": "preset", "name": "cyclic", "n": 10}
    c11 = {"kind": "preset", "name": "cyclic", "n": 11}
    for name, n, factors in [
        ("cyclic", 101, None),
        ("dihedral", 51, None),
        ("dicyclic", 26, None),
        ("symmetric", 5, None),
        ("alternating", 6, None),
        ("product", None, [c11, c10]),
        ("product", None, [c10, {"kind": "preset", "name": "sl23"}]),
    ]:
        with pytest.raises(OrderExceedsCap):
            rs.preset(name, n, factors, limits=small)


# -- catalog ------------------------------------------------------------------------


def test_catalog_counts_per_order():
    groups = rs.groups_up_to_16()
    counts = Counter(G.order for G in groups)
    assert counts == {
        1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
        11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14,
    }


def test_catalog_pairwise_non_isomorphic():
    groups = rs.groups_up_to_16()
    seen = {}
    for G in groups:
        fp = fingerprint(G)
        assert fp not in seen, f"{G.label} collides with {seen.get(fp)}"
        seen[fp] = G.label


def test_standard_corpus_extras():
    labels = [G.label for G in rs.standard_corpus()]
    assert "symmetric(4)" in labels
    assert "dihedral(12)" in labels
    assert "sl23" in labels
    assert "alternating(4)" in labels
