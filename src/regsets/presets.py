"""Ready-made group constructors and the small-order test corpus."""

from __future__ import annotations

from itertools import chain
from typing import Optional

from .config import DEFAULT_LIMITS, Limits
from .errors import ClosureExceedsCap, OrderExceedsCap, ParseError
from .group_core import GroupTable, _bfs_table, from_generators, generate_subgroup, quotient


def _turns_and_flips(m: int) -> tuple[list, list]:
    """Rows ``((i + k) % m)_k`` and ``((i - k) % m)_k`` of Z_m, for each i."""
    r = tuple(range(m))
    return [r[i:] + r[:i] for i in range(m)], [r[i::-1] + r[:i:-1] for i in range(m)]


def _shifted(row: tuple, by: int) -> tuple:
    return tuple(map(by.__add__, row))


def cyclic(n: int, limits: Optional[Limits] = None) -> GroupTable:
    if n < 1:
        raise ValueError("cyclic order must be positive")
    turns, _ = _turns_and_flips(n)
    return GroupTable(turns, f"cyclic({n})", {"kind": "preset", "name": "cyclic", "n": n})


def dihedral(n: int, limits: Optional[Limits] = None) -> GroupTable:
    """Symmetries of the n-gon, order 2n; element i + n*j is r^i s^j, with
    s r s = r^-1, so r^i s^j * r^k s^l = r^(i + (-1)^j k) s^(j + l)."""
    if n < 1:
        raise ValueError("dihedral parameter must be positive")
    turns, flips = _turns_and_flips(n)
    mult = ([t + _shifted(t, n) for t in turns]
            + [_shifted(f, n) + f for f in flips])
    return GroupTable(mult, f"dihedral({n})", {"kind": "preset", "name": "dihedral", "n": n})


def dicyclic(n: int, limits: Optional[Limits] = None) -> GroupTable:
    """Order 4n; a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1.  dicyclic(2) is the
    quaternion group.  Element i + 2n*j is a^i b^j."""
    if n < 1:
        raise ValueError("dicyclic parameter must be positive")
    m = 2 * n
    turns, flips = _turns_and_flips(m)
    # a^i b * a^k = a^(i-k) b and a^i b * a^k b = a^(i-k+n)
    mult = ([t + _shifted(t, m) for t in turns]
            + [_shifted(flips[i], m) + flips[(i + n) % m] for i in range(m)])
    return GroupTable(mult, f"dicyclic({n})", {"kind": "preset", "name": "dicyclic", "n": n})


def quaternion8(limits: Optional[Limits] = None) -> GroupTable:
    g = dicyclic(2, limits=limits)
    g.label = "quaternion8"
    g.spec = {"kind": "preset", "name": "quaternion8"}
    return g


def symmetric(n: int, limits: Optional[Limits] = None) -> GroupTable:
    if n < 1:
        raise ValueError("degree must be positive")
    gens = []
    if n >= 2:
        gens.append(tuple([1, 0] + list(range(2, n))))
    if n >= 3:
        gens.append(tuple(list(range(1, n)) + [0]))
    g = from_generators(n, gens, label=f"symmetric({n})", limits=limits)
    g.spec = {"kind": "preset", "name": "symmetric", "n": n}
    return g


def alternating(n: int, limits: Optional[Limits] = None) -> GroupTable:
    if n < 1:
        raise ValueError("degree must be positive")
    gens = []
    if n >= 3:
        gens.append(tuple([1, 2, 0] + list(range(3, n))))
    if n >= 4:
        if n % 2 == 1:
            gens.append(tuple(list(range(1, n)) + [0]))
        else:
            gens.append(tuple([0] + list(range(2, n)) + [1]))
    g = from_generators(max(n, 1), gens, label=f"alternating({n})", limits=limits)
    g.spec = {"kind": "preset", "name": "alternating", "n": n}
    return g


def klein4(limits: Optional[Limits] = None) -> GroupTable:
    mult = [[i ^ j for j in range(4)] for i in range(4)]
    return GroupTable(mult, "klein4", {"kind": "preset", "name": "klein4"})


def semidihedral16(limits: Optional[Limits] = None) -> GroupTable:
    """Order 16; r of order 8 with s r s = r^3 (s reflects 0..7 by i -> 3i)."""
    r = tuple((i + 1) % 8 for i in range(8))
    s = tuple((3 * i) % 8 for i in range(8))
    g = from_generators(8, [r, s], label="semidihedral16", limits=limits)
    g.spec = {"kind": "preset", "name": "semidihedral16"}
    return g


def modular16(limits: Optional[Limits] = None) -> GroupTable:
    """Order 16; r of order 8 with s r s = r^5."""
    r = tuple((i + 1) % 8 for i in range(8))
    s = tuple((5 * i) % 8 for i in range(8))
    g = from_generators(8, [r, s], label="modular16", limits=limits)
    g.spec = {"kind": "preset", "name": "modular16"}
    return g


def c4_semi_c4(limits: Optional[Limits] = None) -> GroupTable:
    """Order 16; a^4 = b^4 = 1 with b a b^-1 = a^-1."""

    def enc(i, j):
        return i + 4 * j

    mult = [[0] * 16 for _ in range(16)]
    for i1 in range(4):
        for j1 in range(4):
            for i2 in range(4):
                for j2 in range(4):
                    i = (i1 + (i2 if j1 % 2 == 0 else -i2)) % 4
                    mult[enc(i1, j1)][enc(i2, j2)] = enc(i, (j1 + j2) % 4)
    return GroupTable(mult, "c4_semi_c4", {"kind": "preset", "name": "c4_semi_c4"})


def c22_semi_c4(limits: Optional[Limits] = None) -> GroupTable:
    """Order 16; C2 x C2 extended by C4 swapping the two factors."""

    def swap(v):
        return ((v & 1) << 1) | (v >> 1)

    def enc(v, j):
        return v + 4 * j

    mult = [[0] * 16 for _ in range(16)]
    for v1 in range(4):
        for j1 in range(4):
            for v2 in range(4):
                for j2 in range(4):
                    w = v2 if j1 % 2 == 0 else swap(v2)
                    mult[enc(v1, j1)][enc(v2, j2)] = enc(v1 ^ w, (j1 + j2) % 4)
    return GroupTable(mult, "c22_semi_c4", {"kind": "preset", "name": "c22_semi_c4"})


def pauli16(limits: Optional[Limits] = None) -> GroupTable:
    """Central product of the quaternion group with C4 (the order-16 group
    with cyclic center of order 4 and seven involutions)."""
    base = direct_product(dicyclic(2, limits=limits), cyclic(4, limits=limits),
                          limits=limits)
    # identify the quaternion -1 (index 2) with the square of the C4 generator
    k = generate_subgroup(base, [2 * 4 + 2])
    quo = quotient(base.full_subgroup(), k)
    g = GroupTable(quo.table.mult, label="pauli16",
                   spec={"kind": "preset", "name": "pauli16"})
    return g


def sl23(limits: Optional[Limits] = None) -> GroupTable:
    """SL(2,3): 2x2 matrices of determinant 1 over the 3-element field,
    enumerated by BFS from the identity and tabulated."""
    limits = limits if limits is not None else DEFAULT_LIMITS
    if limits.closure_cap < 24:  # |SL(2,3)| = 24
        raise ClosureExceedsCap("matrix closure exceeded cap")

    def mat_mul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            (a1 * a2 + b1 * c2) % 3,
            (a1 * b2 + b1 * d2) % 3,
            (c1 * a2 + d1 * c2) % 3,
            (c1 * b2 + d1 * d2) % 3,
        )

    mats, mult = _bfs_table((1, 0, 0, 1), [(1, 1, 0, 1), (0, 2, 1, 0)], mat_mul, 24)
    g = GroupTable(mult, label="sl23", spec={"kind": "preset", "name": "sl23"})
    g.mats = mats
    return g


def direct_product(G1: GroupTable, G2: GroupTable,
                   limits: Optional[Limits] = None) -> GroupTable:
    """Direct product with element ids packed as a*|G2| + b."""
    n2 = G2.order
    # blocks[b][c] = (c*|G2| + b*y)_y; row (a, b) is the blocks of b at row a of G1
    blocks = [[_shifted(rb, c * n2) for c in range(G1.order)] for rb in G2.mult]
    mult = [tuple(chain.from_iterable(map(blocks[b].__getitem__, ra)))
            for ra in G1.mult for b in range(n2)]
    spec = None
    if G1.spec is not None and G2.spec is not None:
        spec = {"kind": "preset", "name": "product", "factors": [G1.spec, G2.spec]}
    return GroupTable(mult, label=f"{G1.label}x{G2.label}", spec=spec)


_NO_ARG_PRESETS = {
    "klein4": klein4,
    "quaternion8": quaternion8,
    "sl23": sl23,
    "semidihedral16": semidihedral16,
    "modular16": modular16,
    "pauli16": pauli16,
    "c4_semi_c4": c4_semi_c4,
    "c22_semi_c4": c22_semi_c4,
}

_N_ARG_PRESETS = {
    "cyclic": cyclic,
    "dihedral": dihedral,
    "dicyclic": dicyclic,
    "symmetric": symmetric,
    "alternating": alternating,
}


# Orders of the presets, known before anything is built.
_NO_ARG_ORDERS = {
    "klein4": 4,
    "quaternion8": 8,
    "sl23": 24,
    "semidihedral16": 16,
    "modular16": 16,
    "pauli16": 16,
    "c4_semi_c4": 16,
    "c22_semi_c4": 16,
}


def _preset_order(name, n, factors, cap: int) -> int:
    """The order of the group ``preset`` would build, or 0 when the
    arguments are malformed (the builders report those).  Above ``cap`` the
    result is only a lower bound, so no huge product is ever formed."""
    if name == "product":
        if not isinstance(factors, (list, tuple)):
            return 0
        order = 1
        for f in factors:
            if isinstance(f, GroupTable):
                order *= f.order
            elif isinstance(f, dict):
                order *= _preset_order(f.get("name"), f.get("n"), f.get("factors"), cap)
            else:
                return 0
            if order > cap:
                break
        return order
    if name in _NO_ARG_ORDERS:
        return _NO_ARG_ORDERS[name]
    if name not in _N_ARG_PRESETS or n is None:
        return 0
    try:
        n = int(n)
    except (TypeError, ValueError):
        return 0
    if name == "cyclic":
        return n
    if name == "dihedral":
        return 2 * n
    if name == "dicyclic":
        return 4 * n
    order = 1  # symmetric: n!, alternating: n!/2
    for k in range(2, n + 1):
        order *= k
        if order > 2 * cap:
            break
    return order // 2 if name == "alternating" and n >= 2 else order


def preset(name: str, n: Optional[int] = None, factors: Optional[list] = None,
           limits: Optional[Limits] = None) -> GroupTable:
    """Build a preset group by name.  ``product`` takes ``factors``, the
    parametric families take ``n``, the rest take no arguments.  The order
    is checked against ``limits.closure_cap`` before any table is built."""
    limits = limits if limits is not None else DEFAULT_LIMITS
    if name == "product":
        if not factors or len(factors) < 2:
            raise ParseError("product preset needs at least two factors")
    elif name in _NO_ARG_PRESETS:
        if n is not None:
            raise ParseError(f"preset {name!r} takes no parameter")
    elif name in _N_ARG_PRESETS:
        if n is None:
            raise ParseError(f"preset {name!r} needs a parameter n")
    else:
        raise ParseError(f"unknown preset {name!r}")
    order = _preset_order(name, n, factors, limits.closure_cap)
    if order > limits.closure_cap:
        raise OrderExceedsCap(
            f"preset {name!r} has order at least {order}, above the cap {limits.closure_cap}"
        )
    if name == "product":
        built = [
            f if isinstance(f, GroupTable) else _factor_from_spec(f, limits)
            for f in factors
        ]
        g = built[0]
        for other in built[1:]:
            g = direct_product(g, other, limits=limits)
        return g
    if name in _NO_ARG_PRESETS:
        return _NO_ARG_PRESETS[name](limits=limits)
    return _N_ARG_PRESETS[name](int(n), limits=limits)


def _factor_from_spec(spec: dict, limits: Optional[Limits]) -> GroupTable:
    if not isinstance(spec, dict) or spec.get("kind") != "preset":
        raise ParseError("product factors must be preset specs")
    return preset(spec.get("name"), spec.get("n"), spec.get("factors"), limits)


def groups_up_to_16(limits: Optional[Limits] = None) -> list[GroupTable]:
    """One representative of every isomorphism class of order at most 16."""
    L = limits
    prod = direct_product

    def c(n):
        return cyclic(n, limits=L)

    out: list[GroupTable] = []
    out.extend([c(1), c(2), c(3)])
    out.extend([c(4), klein4(limits=L)])
    out.append(c(5))
    out.extend([c(6), dihedral(3, limits=L)])
    out.append(c(7))
    out.extend([
        c(8),
        prod(c(4), c(2), limits=L),
        prod(prod(c(2), c(2), limits=L), c(2), limits=L),
        dihedral(4, limits=L),
        dicyclic(2, limits=L),
    ])
    out.extend([c(9), prod(c(3), c(3), limits=L)])
    out.extend([c(10), dihedral(5, limits=L)])
    out.append(c(11))
    out.extend([
        c(12),
        prod(c(6), c(2), limits=L),
        dihedral(6, limits=L),
        alternating(4, limits=L),
        dicyclic(3, limits=L),
    ])
    out.append(c(13))
    out.extend([c(14), dihedral(7, limits=L)])
    out.append(c(15))
    out.extend([
        c(16),
        prod(c(4), c(4), limits=L),
        c22_semi_c4(limits=L),
        c4_semi_c4(limits=L),
        prod(c(8), c(2), limits=L),
        modular16(limits=L),
        dihedral(8, limits=L),
        semidihedral16(limits=L),
        dicyclic(4, limits=L),
        prod(prod(c(4), c(2), limits=L), c(2), limits=L),
        prod(dihedral(4, limits=L), c(2), limits=L),
        prod(dicyclic(2, limits=L), c(2), limits=L),
        pauli16(limits=L),
        prod(prod(prod(c(2), c(2), limits=L), c(2), limits=L), c(2), limits=L),
    ])
    return out


def standard_corpus(limits: Optional[Limits] = None) -> list[GroupTable]:
    """The cross-validation corpus: everything up to order 16 plus S4, the
    order-24 dihedral group and SL(2,3) (A4 is already in the list)."""
    out = groups_up_to_16(limits=limits)
    out.append(symmetric(4, limits=limits))
    out.append(dihedral(12, limits=limits))
    out.append(sl23(limits=limits))
    return out
