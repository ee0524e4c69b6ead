"""Ready-made group constructors and the small-order test corpus."""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import prod
from typing import Optional

from .config import DEFAULT_LIMITS, Limits
from .errors import OrderExceedsCap, ParseError
from .group_core import (
    GroupTable,
    _bfs_table,
    _byte_rows,
    _translation,
    from_generators,
    generate_subgroup,
    quotient,
)


def _turns_and_flips(m: int) -> tuple[list, list]:
    """Rows ``((i + k) % m)_k`` and ``((i - k) % m)_k`` of Z_m, for each i."""
    r = tuple(range(m))
    return [r[i:] + r[:i] for i in range(m)], [r[i::-1] + r[:i:-1] for i in range(m)]


def _shifted(row: tuple, by: int) -> tuple:
    return tuple(map(by.__add__, row))


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise ValueError("cyclic order must be positive")
    turns, _ = _turns_and_flips(n)
    return GroupTable(turns, f"cyclic({n})", {"kind": "preset", "name": "cyclic", "n": n})


def dihedral(n: int) -> GroupTable:
    """Symmetries of the n-gon, order 2n; element i + n*j is r^i s^j, with
    s r s = r^-1, so r^i s^j * r^k s^l = r^(i + (-1)^j k) s^(j + l)."""
    if n < 1:
        raise ValueError("dihedral parameter must be positive")
    turns, flips = _turns_and_flips(n)
    mult = ([t + _shifted(t, n) for t in turns]
            + [_shifted(f, n) + f for f in flips])
    return GroupTable(mult, f"dihedral({n})", {"kind": "preset", "name": "dihedral", "n": n})


def dicyclic(n: int) -> GroupTable:
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


def quaternion8() -> GroupTable:
    g = dicyclic(2)
    g.label = "quaternion8"
    g.spec = {"kind": "preset", "name": "quaternion8"}
    return g


def _permutation_preset(degree: int, gens: list, order: int, label: str,
                        spec: dict) -> GroupTable:
    """Close ``gens``, which generate a group of ``order``, with that order
    as the closure cap: :func:`preset` has already checked it."""
    g = from_generators(degree, gens, label=label, limits=Limits(closure_cap=order))
    g.spec = spec
    return g


def symmetric(n: int) -> GroupTable:
    if n < 1:
        raise ValueError("degree must be positive")
    gens = []
    if n >= 2:
        gens.append(tuple([1, 0] + list(range(2, n))))
    if n >= 3:
        gens.append(tuple(list(range(1, n)) + [0]))
    return _permutation_preset(n, gens, prod(range(2, n + 1)), f"symmetric({n})",
                               {"kind": "preset", "name": "symmetric", "n": n})


def alternating(n: int) -> GroupTable:
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
    return _permutation_preset(n, gens, prod(range(3, n + 1)), f"alternating({n})",
                               {"kind": "preset", "name": "alternating", "n": n})


_XOR4 = [[v ^ w for w in range(4)] for v in range(4)]  # the table of C2 x C2


def klein4() -> GroupTable:
    return GroupTable(_XOR4, "klein4", {"kind": "preset", "name": "klein4"})


def _metacyclic16(k: int, name: str) -> GroupTable:
    """Order 16; r of order 8 with s r s = r^k (s maps 0..7 by i -> k*i)."""
    r = tuple((i + 1) % 8 for i in range(8))
    s = tuple((k * i) % 8 for i in range(8))
    return _permutation_preset(8, [r, s], 16, name, {"kind": "preset", "name": name})


def semidihedral16() -> GroupTable:
    return _metacyclic16(3, "semidihedral16")


def modular16() -> GroupTable:
    return _metacyclic16(5, "modular16")


def _extension_by_c4(vmul: list, act: tuple, name: str) -> GroupTable:
    """Order 16; a group V of order 4 with table ``vmul``, extended by b of
    order 4 acting on V as the involution ``act``.  Element v + 4j is
    v b^j, and v b^j * w b^l = (v * act^j(w)) b^(j + l)."""
    mult = []
    for j in range(4):
        twist = act if j % 2 else range(4)
        for row in vmul:
            base = tuple(map(row.__getitem__, twist))
            mult.append(tuple(chain.from_iterable(
                _shifted(base, 4 * ((j + l) % 4)) for l in range(4))))
    return GroupTable(mult, name, {"kind": "preset", "name": name})


def c4_semi_c4() -> GroupTable:
    """Order 16; a^4 = b^4 = 1 with b a b^-1 = a^-1."""
    turns, _ = _turns_and_flips(4)
    return _extension_by_c4(turns, (0, 3, 2, 1), "c4_semi_c4")


def c22_semi_c4() -> GroupTable:
    """Order 16; C2 x C2 extended by C4 swapping the two factors."""
    return _extension_by_c4(_XOR4, (0, 2, 1, 3), "c22_semi_c4")


def pauli16() -> GroupTable:
    """Central product of the quaternion group with C4 (the order-16 group
    with cyclic center of order 4 and seven involutions)."""
    base = direct_product(dicyclic(2), cyclic(4))
    # identify the quaternion -1 (index 2) with the square of the C4 generator
    k = generate_subgroup(base, [2 * 4 + 2])
    g = quotient(base.full_subgroup(), k).table  # a fresh table: ours to relabel
    g.label = "pauli16"
    g.spec = {"kind": "preset", "name": "pauli16"}
    return g


def sl23() -> GroupTable:
    """SL(2,3): 2x2 matrices of determinant 1 over the 3-element field,
    enumerated by BFS from the identity and tabulated."""

    def mat_mul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            (a1 * a2 + b1 * c2) % 3,
            (a1 * b2 + b1 * d2) % 3,
            (c1 * a2 + d1 * c2) % 3,
            (c1 * b2 + d1 * d2) % 3,
        )

    _, mult = _bfs_table((1, 0, 0, 1), [(1, 1, 0, 1), (0, 2, 1, 0)], mat_mul, 24)
    return GroupTable(mult, label="sl23", spec={"kind": "preset", "name": "sl23"})


def direct_product(G1: GroupTable, G2: GroupTable) -> GroupTable:
    """Direct product with element ids packed as a*|G2| + b."""
    n1, n2 = G1.order, G2.order
    spans = _byte_rows([range(c * n2, c * n2 + n2) for c in range(n1)])
    if spans is None:  # order above 256
        # blocks[b][c] = (c*|G2| + b*y)_y; row (a, b) is the blocks of b at row a of G1
        blocks = [[_shifted(rb, c * n2) for c in range(n1)] for rb in G2.mult]
        mult = [tuple(chain.from_iterable(map(blocks[b].__getitem__, ra)))
                for ra in G1.mult for b in range(n2)]
    else:
        # row (a, b) is row (0, b), (x, y) -> (x, b*y), followed by row (a, 0),
        # (x, y) -> (a*x, y); spans[c] = (c*|G2| + y)_y is block c of row (0, 0)
        tables = list(map(_translation, spans))
        rights = [b"".join(map(rb.translate, tables)) for rb in G2.mult]
        lefts = [b"".join([spans[c] for c in ra]) for ra in G1.mult]
        mult = [q.translate(t) for t in map(_translation, lefts) for q in rights]
    spec = None
    if G1.spec is not None and G2.spec is not None:
        spec = {"kind": "preset", "name": "product", "factors": [G1.spec, G2.spec]}
    return GroupTable(mult, label=f"{G1.label}x{G2.label}", spec=spec)


# Every preset but ``product``: name -> (builder, order).  The order is an
# int, or for a family that takes ``n`` the function of n.
_PRESETS = {
    "cyclic": (cyclic, lambda n: n),
    "dihedral": (dihedral, lambda n: 2 * n),
    "dicyclic": (dicyclic, lambda n: 4 * n),
    "symmetric": (symmetric, lambda n: prod(range(2, n + 1))),
    "alternating": (alternating, lambda n: prod(range(3, n + 1))),
    "klein4": (klein4, 4),
    "quaternion8": (quaternion8, 8),
    "sl23": (sl23, 24),
    "semidihedral16": (semidihedral16, 16),
    "modular16": (modular16, 16),
    "pauli16": (pauli16, 16),
    "c4_semi_c4": (c4_semi_c4, 16),
    "c22_semi_c4": (c22_semi_c4, 16),
}


def _preset_order(name, n, factors, cap: int) -> int:
    """Check the arguments of :func:`preset`, and recursively the specs of a
    product's factors, raising ParseError at the first malformed one.
    Return the order of the group that would be built, or ``cap + 1`` if it
    is larger."""
    if name == "product":
        if n is not None:
            raise ParseError("preset 'product' takes no parameter")
        if not isinstance(factors, list) or len(factors) < 2:
            raise ParseError("product preset needs a list of at least two factors")
        order = 1
        for f in factors:
            if not isinstance(f, dict) or f.get("kind") != "preset":
                raise ParseError("product factors must be preset specs")
            order *= _preset_order(f.get("name"), f.get("n"), f.get("factors"), cap)
            order = min(order, cap + 1)
        return order
    if not isinstance(name, str) or name not in _PRESETS:
        raise ParseError(f"unknown preset {name!r}")
    if factors is not None:
        raise ParseError(f"preset {name!r} takes no factors")
    size = _PRESETS[name][1]
    if not callable(size):
        if n is not None:
            raise ParseError(f"preset {name!r} takes no parameter")
        return size
    if n is None:
        raise ParseError(f"preset {name!r} needs a parameter n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError(f"preset parameter 'n' must be an integer, got {n!r}")
    # Each family's order grows with n and is above cap from n = cap + 2, so
    # clamping n keeps a huge n cheap.  An n below 1 is the builder's error.
    return min(size(min(max(n, 0), cap + 2)), cap + 1)


def preset(name: str, n: Optional[int] = None, factors: Optional[list] = None,
           limits: Optional[Limits] = None) -> GroupTable:
    """Build a preset group by name.  ``product`` takes ``factors``, a list
    of at least two preset specs; the families take ``n``; the rest take no
    arguments.  Every argument is checked, and the order compared with
    ``limits.closure_cap``, before any table is built: this is the one
    place where a preset meets the cap."""
    cap = (limits if limits is not None else DEFAULT_LIMITS).closure_cap
    if _preset_order(name, n, factors, cap) > cap:
        raise OrderExceedsCap(f"preset {name!r} has order above the cap {cap}")
    return _build(name, n, factors)


def _build(name, n, factors) -> GroupTable:
    if name == "product":
        return reduce(direct_product,
                      [_build(f["name"], f.get("n"), f.get("factors")) for f in factors])
    builder, size = _PRESETS[name]
    return builder(n) if callable(size) else builder()


def groups_up_to_16() -> list[GroupTable]:
    """One representative of every isomorphism class of order at most 16."""
    c = cyclic
    times = direct_product
    out: list[GroupTable] = []
    out.extend([c(1), c(2), c(3)])
    out.extend([c(4), klein4()])
    out.append(c(5))
    out.extend([c(6), dihedral(3)])
    out.append(c(7))
    out.extend([
        c(8),
        times(c(4), c(2)),
        times(times(c(2), c(2)), c(2)),
        dihedral(4),
        dicyclic(2),
    ])
    out.extend([c(9), times(c(3), c(3))])
    out.extend([c(10), dihedral(5)])
    out.append(c(11))
    out.extend([
        c(12),
        times(c(6), c(2)),
        dihedral(6),
        alternating(4),
        dicyclic(3),
    ])
    out.append(c(13))
    out.extend([c(14), dihedral(7)])
    out.append(c(15))
    out.extend([
        c(16),
        times(c(4), c(4)),
        c22_semi_c4(),
        c4_semi_c4(),
        times(c(8), c(2)),
        modular16(),
        dihedral(8),
        semidihedral16(),
        dicyclic(4),
        times(times(c(4), c(2)), c(2)),
        times(dihedral(4), c(2)),
        times(dicyclic(2), c(2)),
        pauli16(),
        times(times(times(c(2), c(2)), c(2)), c(2)),
    ])
    return out


def standard_corpus() -> list[GroupTable]:
    """The cross-validation corpus: everything up to order 16 plus S4, the
    order-24 dihedral group and SL(2,3) (A4 is already in the list)."""
    return groups_up_to_16() + [symmetric(4), dihedral(12), sl23()]
