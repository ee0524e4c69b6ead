"""Coset graphs, their validation, and the brute-force profile oracle."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional

from .cosets import CosetSpace, decompose_into_double_cosets, left_cosets
from .errors import IntersectsSubgroup, NotDoubleCosetUnion, NotInverseClosed
from .group_core import GroupTable, Subgroup, _members_of


class ConnectionSet:
    """An inverse-closed union of (H,H)-double cosets disjoint from H.

    Such a set makes coset adjacency independent of representative choice;
    use :func:`validate_connection_set` to build one.  The set is held as
    its bitmask; ``members`` lists the set bits the first time it is read.
    """

    def __init__(self, subgroup: Subgroup, mask: int):
        self.subgroup = subgroup
        self.mask = mask

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(_members_of(self.mask))

    @property
    def degree(self) -> int:
        return len(self) // self.subgroup.order

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"ConnectionSet(|U|={len(self)}, |H|={self.subgroup.order})"


def validate_connection_set(H: Subgroup, U: int) -> ConnectionSet:
    """Check the three connection-set invariants on ``U``, the bitmask of
    the set, and wrap it; :func:`~regsets.cosets.mask_of` turns element ids
    into one.

    U must lie in G, miss H, equal U^-1, and contain or miss each left
    H-coset whole (UH = U).  For an inverse-closed U, UH = U gives
    HU = (U^-1 H)^-1 = U as well, so U is a union of (H,H)-double cosets.

    The check walks the (H,H)-double cosets that U meets, read from the
    split of :func:`~regsets.cosets.decompose_into_double_cosets`: it takes
    the class of the highest element not yet covered, requires that class
    and its inverse class whole in U, and removes the class.  When the walk
    uses up U, U is a union of classes that holds the inverse of each, so
    U is valid exactly when the walk uses it up.  A set that fails is
    handed to :func:`_first_violation`, which names the first invariant it
    breaks, in the order above.
    """
    G = H.parent
    if U < 0:
        raise ValueError("a connection-set mask cannot be negative")
    if U >> G.order:
        raise ValueError(f"element {U.bit_length() - 1} out of range")
    if U & H.mask:
        raise IntersectsSubgroup("connection set meets the base subgroup")
    split = decompose_into_double_cosets(H)
    coset_of = left_cosets(G, H).coset_of
    class_of, masks, inverse = split.class_of, split.masks, split.inverse
    rest = U
    while rest:
        k = class_of[coset_of[rest.bit_length() - 1]]
        cls, inv = masks[k], masks[inverse[k]]
        if U & cls != cls or U & inv != inv:
            break
        rest ^= cls
    if rest:
        raise _first_violation(H, U)
    return ConnectionSet(H, U)


def _first_violation(H: Subgroup, U: int) -> Exception:
    """The error for a set in range and outside H that is not a union of
    left H-cosets equal to its inverse: NotInverseClosed when U^-1 != U
    (naming the member whose missing inverse is the highest element), else
    NotDoubleCosetUnion at the highest element of U in the first left
    H-coset that U meets only in part."""
    G = H.parent
    inv = G.inv
    inv_mask = 0
    rest = U
    while rest:  # walk the set bits of U, highest first
        u = rest.bit_length() - 1
        inv_mask |= 1 << inv[u]
        rest ^= 1 << u
    if inv_mask != U:
        outside = inv_mask & ~U  # inverses of members that are not members
        u = inv[outside.bit_length() - 1]
        return NotInverseClosed(f"{u} is in the set but its inverse is not")
    for coset in left_cosets(G, H).masks:
        meet = coset & U
        if meet and meet != coset:
            return NotDoubleCosetUnion(
                f"set is not H-stable at element {meet.bit_length() - 1}"
            )
    raise AssertionError("the coset walk rejected a valid connection set")


class CosetGraph:
    """The graph on left cosets of H with ``g1H ~ g2H`` iff ``g1^-1 g2`` is
    in the connection set.  Simple, undirected, |U|/|H|-regular.
    ``neighbor_masks[v]`` is the mask of the vertices adjacent to ``v``."""

    def __init__(self, space: CosetSpace, connection: ConnectionSet,
                 neighbor_masks: tuple[int, ...]):
        self.space = space
        self.connection = connection
        self.neighbor_masks = neighbor_masks

    @property
    def vertex_count(self) -> int:
        return self.space.size

    @property
    def degree(self) -> int:
        return self.connection.degree

    def neighbors(self, v: int) -> tuple[int, ...]:
        return _members_of(self.neighbor_masks[v])

    def __repr__(self) -> str:
        return f"CosetGraph({self.vertex_count} vertices, degree {self.degree})"


def build(G: GroupTable, H: Subgroup, connection: ConnectionSet) -> CosetGraph:
    """Build the coset graph for a connection set validated over ``H``."""
    if connection.subgroup != H:
        raise ValueError("connection set was validated over a different subgroup")
    space = left_cosets(G, H)
    assert 0 not in connection.members  # loops are impossible by U cap H = {}
    k = connection.degree
    coset_of = space.coset_of
    mult = G.mult
    adjacency = []
    for v, rep in enumerate(space.reps):
        row = mult[rep]
        nb = 0
        for u in connection.members:
            nb |= 1 << coset_of[row[u]]
        assert nb.bit_count() == k and not (nb >> v) & 1
        adjacency.append(nb)
    return CosetGraph(space, connection, tuple(adjacency))


def profile_subset(graph: CosetGraph, C: Iterable[int]) -> Optional[tuple[int, int]]:
    """The (r, s) profile of vertex subset ``C``, or None if not regular.

    When ``C`` is the whole vertex set the outside condition is vacuous; the
    returned pair reports ``s = 0`` and callers should treat it as degenerate.
    """
    cset = frozenset(int(v) for v in C)
    n = graph.vertex_count
    if not cset:
        raise ValueError("subset must be nonempty")
    for v in cset:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
    cmask = 0
    for v in cset:
        cmask |= 1 << v
    masks = graph.neighbor_masks
    r = -1
    for v in cset:
        cnt = (masks[v] & cmask).bit_count()
        if r < 0:
            r = cnt
        elif cnt != r:
            return None
    if len(cset) == n:
        return (r, 0)
    s = -1
    for v in range(n):
        if v in cset:
            continue
        cnt = (masks[v] & cmask).bit_count()
        if s < 0:
            s = cnt
        elif cnt != s:
            return None
    return (r, s)
