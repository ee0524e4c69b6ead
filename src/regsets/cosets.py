"""Left cosets, transversals and (H,H)-double cosets."""

from __future__ import annotations

from typing import Iterable

from .errors import NotLeftCosetUnion
from .group_core import GroupTable, Subgroup, _mask_of, _members_of


class CosetSpace:
    """The left cosets of a subgroup, with minimum-element representatives.

    ``reps[0]`` is always the identity (the subgroup itself is coset 0),
    ``coset_of`` is total over the parent group, and ``masks[i]`` is the
    bitmask of coset ``i`` (bit g set for each member g).
    """

    def __init__(self, subgroup: Subgroup, reps: tuple[int, ...],
                 coset_of: tuple[int, ...], masks: tuple[int, ...]):
        self.subgroup = subgroup
        self.reps = reps
        self.coset_of = coset_of
        self.masks = masks

    @property
    def size(self) -> int:
        return len(self.reps)

    def __repr__(self) -> str:
        return f"CosetSpace({self.size} cosets of |H|={self.subgroup.order})"


class DoubleCosetDecomp:
    """The whole group split into (H,H)-double cosets, class 0 being H.

    Classes are numbered by their least elements, ascending: ``reps[i]``
    is the least element of class ``i``, ``masks[i]`` its bitmask,
    ``cosets[i]`` the least element of each left H-coset in it, ascending,
    and ``inverse[i]`` the class of ``reps[i]^-1``, an involution on the
    class ids.  ``class_of[c]`` is the class of left coset ``c`` of
    :func:`left_cosets`.
    """

    def __init__(self, subgroup: Subgroup, reps: tuple[int, ...],
                 masks: tuple[int, ...], cosets: tuple[tuple[int, ...], ...],
                 inverse: tuple[int, ...], class_of: tuple[int, ...]):
        self.subgroup = subgroup
        self.reps = reps
        self.masks = masks
        self.cosets = cosets
        self.inverse = inverse
        self.class_of = class_of

    def __len__(self) -> int:
        return len(self.reps)


def mask_of(G: GroupTable, ids: Iterable[int]) -> int:
    """The bitmask of a collection of element ids (bit g for each id g).

    This is where element ids from outside become masks: an id that is
    negative or not below ``G.order`` raises ValueError before any shift.
    """
    ids = frozenset(map(int, ids))
    if ids and not 0 <= min(ids) <= max(ids) < G.order:
        bad = min(ids) if min(ids) < 0 else max(ids)
        raise ValueError(f"element {bad} out of range")
    return _mask_of(ids)


def left_cosets(G: GroupTable, H: Subgroup) -> CosetSpace:
    if H.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    cached = G._cache.get(("left_cosets", H.mask))
    if cached is not None:
        return cached
    coset_of = [-1] * G.order
    reps = []
    masks = []
    mult = G.mult
    hm = H.members
    for g in range(G.order):  # ascending scan makes reps minimal
        if coset_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        row = mult[g]
        mask = 0
        for h in hm:
            gh = row[h]
            coset_of[gh] = idx
            mask |= 1 << gh
        masks.append(mask)
    space = CosetSpace(H, tuple(reps), tuple(coset_of), tuple(masks))
    G._cache[("left_cosets", H.mask)] = space
    return space


def double_coset_mask(H: Subgroup, x: int) -> int:
    """The bitmask of the double coset ``HxH``, read from the split of
    :func:`decompose_into_double_cosets`; an ``x`` outside 0..|G|-1
    raises IndexError."""
    n = H.parent.order
    if not 0 <= x < n:
        raise IndexError(f"element {x} out of range 0..{n - 1}")
    split = decompose_into_double_cosets(H)
    return split.masks[split.class_of[left_cosets(H.parent, H).coset_of[x]]]


def double_coset(H: Subgroup, x: int) -> frozenset[int]:
    """The double coset ``HxH`` as an element set, the members of
    :func:`double_coset_mask`."""
    return frozenset(_members_of(double_coset_mask(H, x)))


def decompose_into_double_cosets(H: Subgroup) -> DoubleCosetDecomp:
    """Split the group of ``H`` into (H,H)-double cosets, each the OR of
    the masks of its left H-cosets, and pair each class with its inverse
    class.  Built once per subgroup and cached on the group."""
    G = H.parent
    key = ("double_cosets", H.mask)
    split = G._cache.get(key)
    if split is not None:
        return split
    space = left_cosets(G, H)
    at = space.coset_of.__getitem__
    rows = tuple(map(G.mult.__getitem__, H.members[1:]))  # members[0] is the identity
    class_of = [-1] * space.size
    reps: list[int] = []
    masks: list[int] = []
    minima: list[list[int]] = []
    # cosets ascend by their minima, so a class is first met at its least
    # coset xH, which marks the rest of HxH: the cosets hxH
    for c, m, x in zip(range(space.size), space.masks, space.reps):
        k = class_of[c]
        if k < 0:
            k = class_of[c] = len(reps)
            reps.append(x)
            masks.append(m)
            minima.append([x])
            for row in rows:
                class_of[at(row[x])] = k
        else:
            masks[k] |= m
            minima[k].append(x)
    inverse = tuple(map(class_of.__getitem__, map(at, map(G.inv.__getitem__, reps))))
    split = G._cache[key] = DoubleCosetDecomp(H, tuple(reps), tuple(masks),
                                              tuple(map(tuple, minima)), inverse,
                                              tuple(class_of))
    return split


def left_coset_count(U: Iterable[int], H: Subgroup) -> int:
    """Number of left cosets of ``H`` making up ``U``.

    Validates that ``U`` is a union of left cosets (``U*H == U``).
    """
    G = H.parent
    uset = frozenset(int(u) for u in U)
    mult = G.mult
    for u in uset:
        row = mult[u]
        for h in H.members:
            if row[h] not in uset:
                raise NotLeftCosetUnion(
                    f"{u}*{h} leaves the set; not a union of left cosets"
                )
    return len(uset) // H.order


def conj_index(H: Subgroup, t: int) -> int:
    """The index ``|H| / |H meet H^t|``; equals ``|HtH| / |H|``."""
    G = H.parent
    mult = G.mult
    ti = G.inv[t]
    row_t = mult[t]
    meet = 0
    hmask = H.mask
    for h in H.members:
        # t h t^-1 in H  <=>  h in H^t
        if (hmask >> mult[row_t[h]][ti]) & 1:
            meet += 1
    return H.order // meet
