"""Left cosets, transversals and (H,H)-double cosets."""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import NotDoubleCosetUnion, NotLeftCosetUnion
from .group_core import GroupTable, Subgroup, _mask_of, _members_of


class CosetSpace:
    """The left cosets of a subgroup, with minimum-element representatives.

    ``reps[0]`` is always the identity (the subgroup itself is coset 0),
    ``coset_of`` is total over the parent group, ``masks[i]`` is the
    bitmask of coset ``i`` (bit g set for each member g), and
    ``inverse_masks[i]`` the bitmask of its inverse set, the right coset
    ``H reps[i]^-1``.
    """

    def __init__(self, group: GroupTable, subgroup: Subgroup,
                 reps: tuple[int, ...], coset_of: tuple[int, ...],
                 masks: tuple[int, ...], inverse_masks: tuple[int, ...]):
        self.group = group
        self.subgroup = subgroup
        self.reps = reps
        self.coset_of = coset_of
        self.masks = masks
        self.inverse_masks = inverse_masks

    @property
    def size(self) -> int:
        return len(self.reps)

    def __repr__(self) -> str:
        return f"CosetSpace({self.size} cosets of |H|={self.subgroup.order})"


class DoubleCosetDecomp:
    """A set split into (H,H)-double cosets.

    ``masks[i]`` is the bitmask of the class of ``reps[i]``, ``cosets[i]``
    the least element of each left H-coset in that class, ascending, and
    ``inverse_pairing[i] = (i, j)`` locates the class of ``reps[i]^-1``;
    ``j`` is None when that class lies outside the decomposed set.
    """

    def __init__(self, subgroup: Subgroup, reps: tuple[int, ...],
                 masks: tuple[int, ...], cosets: tuple[tuple[int, ...], ...],
                 inverse_pairing: tuple[tuple[int, Optional[int]], ...]):
        self.subgroup = subgroup
        self.reps = reps
        self.masks = masks
        self.cosets = cosets
        self.inverse_pairing = inverse_pairing

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
    inverse_masks = []
    mult = G.mult
    inv = G.inv
    hm = H.members
    for g in range(G.order):  # ascending scan makes reps minimal
        if coset_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        row = mult[g]
        mask = inverse = 0
        for h in hm:
            gh = row[h]
            coset_of[gh] = idx
            mask |= 1 << gh
            inverse |= 1 << inv[gh]
        masks.append(mask)
        inverse_masks.append(inverse)
    space = CosetSpace(G, H, tuple(reps), tuple(coset_of), tuple(masks),
                       tuple(inverse_masks))
    G._cache[("left_cosets", H.mask)] = space
    return space


def _double_coset(space: CosetSpace, x: int) -> tuple[set[int], int]:
    """``HxH`` for the subgroup H of ``space``: the left cosets hxH (h in H)
    that make it up, and the OR of their masks."""
    mult, coset_of, masks = space.group.mult, space.coset_of, space.masks
    cosets = {coset_of[mult[h][x]] for h in space.subgroup.members}
    mask = 0
    for c in cosets:
        mask |= masks[c]
    return cosets, mask


def double_coset_mask(H: Subgroup, x: int) -> int:
    """The bitmask of the double coset ``HxH``."""
    return _double_coset(left_cosets(H.parent, H), x)[1]


def double_coset(H: Subgroup, x: int) -> frozenset[int]:
    """The double coset ``HxH`` as an element set, the members of
    :func:`double_coset_mask`."""
    return frozenset(_members_of(double_coset_mask(H, x)))


def decompose_into_double_cosets(S: Iterable[int], H: Subgroup) -> DoubleCosetDecomp:
    """Partition ``S`` into (H,H)-double cosets, each the OR of the masks
    of its left H-cosets, and list each class's coset minima.

    Raises :class:`NotDoubleCosetUnion` when some class straddles the
    boundary of ``S``, and ValueError for an id out of range.
    Representatives are minimal and ascending.
    """
    G = H.parent
    smask = mask_of(G, S)
    space = left_cosets(G, H)
    at = space.coset_of.__getitem__
    rows = tuple(map(G.mult.__getitem__, H.members[1:]))  # members[0] is the identity
    # per left H-coset: its class, or -1 when the least coset of its class misses S
    class_of: list[Optional[int]] = [None] * space.size
    reps: list[int] = []
    masks: list[int] = []
    minima: list[list[int]] = []
    # cosets ascend by their minima, so a class is first met at its least
    # coset xH, which marks the rest of HxH: the cosets hxH
    for c, m, x in zip(range(space.size), space.masks, space.reps):
        k = class_of[c]
        if k is None:
            if m & smask:
                k = len(reps)
                reps.append(x)
                masks.append(m)
                minima.append([x])
            else:
                k = -1
            class_of[c] = k
            for row in rows:
                class_of[at(row[x])] = k
        elif k >= 0:
            masks[k] |= m
            minima[k].append(x)
    if sum(masks) != smask:  # some class meets S without lying inside it
        _straddle(space, smask, class_of, masks)
    pairing = tuple((i, j if j >= 0 else None) for i, j in enumerate(
        map(class_of.__getitem__, map(at, map(G.inv.__getitem__, reps)))))
    return DoubleCosetDecomp(H, tuple(reps), tuple(masks), tuple(map(tuple, minima)),
                             pairing)


def _straddle(space: CosetSpace, smask: int, class_of: list[int], masks: list[int]) -> None:
    """Raise for the least x in S whose double coset leaves S, given the
    class of each left coset (-1 for a class whose least coset misses S)
    and the masks of the other classes."""
    x = min(((m & smask) & -(m & smask)).bit_length() - 1
            for m, k in zip(space.masks, class_of)
            if m & smask and (k < 0 or masks[k] & ~smask))
    raise NotDoubleCosetUnion(f"double coset of {x} leaves the given set")


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
