"""Deciders, constructions and certificates for (r,s)-regular subgroup sets.

A subgroup ``A`` with ``H <= A <= G`` is an (r,s)-regular set of the pair
(G, H) when some coset graph on G/H exists in which the A-cosets form an
(r,s)-regular vertex set.  Equivalently (and this is how the decision
works): there is an inverse-closed union ``U`` of (H,H)-double cosets
avoiding H whose H-coset count inside the block ``A`` is ``r`` and inside
every other left A-coset is ``s``.

Everything here returns either a re-checkable :class:`RegSetCertificate`
(validated against the graph oracle before being handed out) or a definite
"absent" after an exact reachable-sums sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import gcd
from typing import NamedTuple, Optional

from .config import DEFAULT_LIMITS, Limits
from .coset_graph import ConnectionSet, validate_connection_set
from .cosets import (
    decompose_into_double_cosets,
    double_coset_mask,
    left_coset_count,
    left_cosets,
)
from .errors import (
    ConstructionFailed,
    FrattiniCheckFailed,
    NotLeftCosetUnion,
    PreconditionViolated,
    SearchBudgetExceeded,
)
from .group_core import (
    GroupTable,
    Subgroup,
    _conjugate_mask,
    _members_of,
    is_normal,
    normalizer,
    product_is_group,
    set_product,
    square_roots_lift,
    sylow_subgroup,
)


@dataclass(frozen=True)
class PairSpec:
    """The data of a decision instance: a chain ``H <= A <= G``.

    The per-pair analysis is built on first use and kept in the one cached
    property ``_context``, so it lives exactly as long as the pair: a group
    keeps no pair's data after the pair is gone.  The exact decision and
    the normal-chain conditions both read it.  What depends on H alone
    (the double-coset units of :func:`_subgroup_units`) is cached with the
    group and shared by every pair over H.
    """

    G: GroupTable
    H: Subgroup
    A: Subgroup

    def __post_init__(self):
        if self.H.parent is not self.G or self.A.parent is not self.G:
            raise ValueError("subgroups must belong to the given group")
        if not self.H.is_subset_of(self.A):
            raise ValueError("H must be contained in A")

    @property
    def code_index(self) -> int:
        """|A : H|, the number of H-cosets inside A."""
        return self.A.order // self.H.order

    @cached_property
    def _context(self) -> _PairContext:
        """The A-cosets and the components of the decision."""
        return _PairContext(self)

    def __repr__(self) -> str:
        return (
            f"PairSpec({self.G.label}, |H|={self.H.order}, |A|={self.A.order})"
        )


class CheckResult(NamedTuple):
    name: str
    passed: bool


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    checks: tuple[CheckResult, ...]


class RegSetCertificate(NamedTuple):
    """An explicit, independently re-checkable (r,s) witness.

    ``connection`` is the connection set U, ``witness`` the set X with
    ``XH = HX^-1`` (here X = U, which always works since U is inverse-closed
    and H-stable), and ``double_coset_reps`` the minimal representatives of
    the double cosets whose union is U, read from U.
    """

    pair: PairSpec
    r: int
    s: int
    connection: ConnectionSet
    checks: tuple[CheckResult, ...]

    @property
    def double_coset_reps(self) -> tuple[int, ...]:
        """The least element of each class of U, ascending: the classes of
        :func:`decompose_into_double_cosets` that U meets, which it holds
        whole."""
        split = decompose_into_double_cosets(self.pair.H)
        U = self.connection.mask
        return tuple(x for x, m in zip(split.reps, split.masks) if m & U)

    @property
    def witness(self) -> frozenset[int]:
        return self.connection.members

    @property
    def degree(self) -> int:
        return self.connection.degree

    def to_json_dict(self) -> dict:
        group = {"label": self.pair.G.label, "order": self.pair.G.order}
        if self.pair.G.spec is not None:
            group["spec"] = self.pair.G.spec
        return {
            "group": group,
            "H": list(self.pair.H.members),
            "A": list(self.pair.A.members),
            "r": self.r,
            "s": self.s,
            "double_coset_reps": list(self.double_coset_reps),
            "U": sorted(self.connection.members),
            "X": sorted(self.witness),
            "checks": [{"name": c.name, "pass": c.passed} for c in self.checks],
        }


class ConditionReport(NamedTuple):
    """Outcome of the three normal-chain conditions, with witnesses for
    failures (an offending coset representative where applicable)."""

    condition_ids: tuple[str, ...]
    outcomes: tuple[bool, ...]
    witnesses: tuple[Optional[int], ...]

    @property
    def verdict(self) -> bool:
        return all(self.outcomes)


@dataclass(frozen=True)
class NormalizerReduction:
    """Verdict of the normalizer-quotient criterion.

    ``applicable`` records whether G equals N_G(H)*A; ``verdict`` is the
    conjunction with the quotient-level criterion.  For s = 1 the reduction
    is exact: a false verdict proves that no connection set exists.
    """

    applicable: bool
    verdict: bool


# -- shared per-pair analysis ---------------------------------------------


class _Unit(NamedTuple):
    """An atomic inverse-closed union of double cosets (a self-inverse class
    or a class paired with its inverse class): ``reps`` holds the least
    element of each class, one or two of them, in the order of the classes
    of :func:`decompose_into_double_cosets`."""

    reps: tuple[int, ...]
    mask: int  # the union of the classes, bit g for each member g
    cosets: tuple[int, ...]  # each class's left H-coset minima, class by class


def _subgroup_units(G: GroupTable, H: Subgroup) -> tuple[_Unit, ...]:
    """The half of a pair's analysis that depends on H alone: the
    (H,H)-double cosets of G minus H paired into units, in order of their
    least class.  Built once per group, so every A over the same H reads
    one copy."""
    key = ("subgroup_units", H.mask)
    units = G._cache.get(key)
    if units is not None:
        return units
    split = decompose_into_double_cosets(H)
    reps, masks, cosets = split.reps, split.masks, split.cosets
    units = []
    for i, j in enumerate(split.inverse[1:], 1):  # class 0 is H
        if i == j:
            units.append(_Unit((reps[i],), masks[i], cosets[i]))
        elif i < j:
            units.append(_Unit((reps[i], reps[j]), masks[i] | masks[j], cosets[i] + cosets[j]))
    units = G._cache[key] = tuple(units)
    return units


class _Component(NamedTuple):
    """A set of A-coset blocks, bit b of ``blocks`` for block b, that no
    unit joins to any other block, with the units touching them in sweep
    order.  Block counts are packed into fields of ``width`` bits, one per
    block of the component in ascending order; ``ones`` has a 1 in every
    field and ``closes[i]`` covers the fields that no unit after
    ``units[i]`` touches."""

    blocks: int
    units: tuple[_Unit, ...]
    vectors: tuple[int, ...]
    closes: tuple[int, ...]
    ones: int
    width: int


def _component(blocks: list[int], units: list[_Unit], touched: list[tuple[int, ...]],
               index: int) -> _Component:
    """Pack one component, given its blocks in ascending order and, per
    unit, the block of each of its H-cosets.  Units are ordered so that
    blocks close early: repeatedly take the open block touched by the
    fewest remaining units, the least such block on a tie, and sweep all of
    them in the order given."""
    # a field holds at most 2*index (a state plus one unit), below its top bit
    width = index.bit_length() + 2
    fmask = (1 << width) - 1
    if len(blocks) == 1:  # every unit touches the one block, in order
        closes = (0,) * (len(units) - 1) + (fmask,) if units else ()
        return _Component(1 << blocks[0], tuple(units), tuple(map(len, touched)), closes, 1,
                          width)
    one = (1).__lshift__
    field = dict(zip(blocks, map(one, range(0, width * len(blocks), width))))
    ones = sum(field.values())
    vectors = [sum(map(field.__getitem__, t)) for t in touched]
    # a unit puts at most index < 2**(width - 2) cosets in a block, so adding
    # 2**(width - 1) - 1 to its field sets the field's top bit exactly when
    # the unit touches the block: the supports have a 1 in each such field
    top = width - 1
    bump = ones * ((1 << top) - 1)
    supports = [(v + bump) >> top & ones for v in vectors]
    pending = dict.fromkeys(blocks, 0)  # per block, the units touching it
    bit = 1
    for t in touched:
        for b in t:
            pending[b] |= bit
        bit <<= 1
    pending = list(pending.values())
    order: list[int] = []
    while pending:  # blocks that some unit not yet swept touches, ascending
        taken = min(pending, key=int.bit_count)
        order += _members_of(taken)
        pending = [q for p in pending if (q := p & ~taken)]
    closes = []
    still_open = ones
    for k in reversed(order):  # a block closes at the last unit touching it
        closing = supports[k] & still_open
        still_open ^= closing
        closes.append(closing * fmask)  # fill each closing field
    return _Component(sum(map(one, blocks)), tuple(map(units.__getitem__, order)),
                      tuple(map(vectors.__getitem__, order)), tuple(closes[::-1]), ones, width)


class _PairContext:
    """The half of a pair's analysis that depends on A: the left A-cosets
    (the blocks) and the units of H split into components.
    ``components[0]`` is block 0 (A itself) with the units inside A; the
    others are the classes of blocks 1.. under "some unit touches both",
    found by a union-find over the blocks whose root is the least block of
    each class, in order of their least block."""

    def __init__(self, pair: PairSpec):
        hunits = _subgroup_units(pair.G, pair.H)
        aspace = left_cosets(pair.G, pair.A)
        block = aspace.coset_of.__getitem__
        touched = [tuple(map(block, u.cosets)) for u in hunits]
        parent = list(range(aspace.size))  # parent[b] <= b; roots are least blocks
        for blocks in touched:
            r = blocks[0]
            while parent[r] != r:
                r = parent[r]
            for b in blocks:
                while parent[b] != b:
                    b = parent[b]
                if b < r:
                    parent[r] = r = b
                elif b > r:
                    parent[b] = r
        comp_of = []  # per block; a parent is a smaller block, so already placed
        comps: list[list[int]] = []
        for b, p in enumerate(parent):
            if p == b:
                comp_of.append(len(comps))
                comps.append([b])
            else:
                comp_of.append(comp_of[p])
                comps[comp_of[p]].append(b)
        # x outside A puts HxH and Hx^-1H outside A, so block 0 stays alone
        assert comps[0] == [0]
        units: list[list[_Unit]] = [[] for _ in comps]
        touched_of: list[list[tuple[int, ...]]] = [[] for _ in comps]
        for u, blocks in zip(hunits, touched):
            c = comp_of[blocks[0]]
            units[c].append(u)
            touched_of[c].append(blocks)
        self.components = tuple(map(_component, comps, units, touched_of,
                                    repeat(pair.code_index)))


def _validate_range(pair: PairSpec, r: int, s: int) -> None:
    idx = pair.code_index
    if not 0 <= r <= idx - 1:
        raise ValueError(f"r={r} out of range 0..{idx - 1}")
    if not 0 <= s <= idx:
        raise ValueError(f"s={s} out of range 0..{idx}")


# -- verification ----------------------------------------------------------


def verify_witness(pair: PairSpec, X, r: int, s: int) -> WitnessReport:
    """Re-check a witness set X directly against the coset-count conditions:
    XH = HX^-1, XH disjoint from H, XH meets A in exactly r left H-cosets
    and every other left A-coset in exactly s of them."""
    G, H, A = pair.G, pair.H, pair.A
    xset = frozenset(int(x) for x in X)
    mult = G.mult
    inv = G.inv
    xh = set()
    hxinv = set()
    for x in xset:
        row = mult[x]
        xi = inv[x]
        for h in H.members:
            xh.add(row[h])
            hxinv.add(mult[h][xi])
    checks = []
    checks.append(CheckResult("inverse_symmetry", xh == hxinv))
    checks.append(CheckResult("disjoint_from_subgroup", not any((H.mask >> y) & 1 for y in xh)))
    try:
        inside_ok = left_coset_count(xh & set(A.members), H) == r
    except NotLeftCosetUnion:
        inside_ok = False
    checks.append(CheckResult("inside_count", inside_ok))
    aspace = left_cosets(G, A)
    outside_ok = True
    for t in aspace.reps[1:]:
        row = mult[t]
        ta = {row[a] for a in A.members}
        try:
            if left_coset_count(xh & ta, H) != s:
                outside_ok = False
                break
        except NotLeftCosetUnion:
            outside_ok = False
            break
    checks.append(CheckResult("outside_counts", outside_ok))
    checks = tuple(checks)
    return WitnessReport(all(c.passed for c in checks), checks)


_CHECK_NAMES = ("inverse_symmetry", "disjoint_from_subgroup", "inside_count",
                "outside_counts", "graph_profile")
_ALL_PASS = tuple(CheckResult(name, True) for name in _CHECK_NAMES)


def certify(pair: PairSpec, U: int, r: int, s: int) -> RegSetCertificate:
    """Check a candidate connection set U, given as its bitmask, with
    witness X = U, and return its certificate; this is the only source of
    certificates, and ``verify`` re-runs it on stored ones.  U is the
    whole input: the certificate reads its double-coset representatives
    from U.

    An r or s out of range raises ValueError, checked first: when A = G no
    block outside A tests s.  :func:`validate_connection_set` proves
    ``inverse_symmetry`` and ``disjoint_from_subgroup`` for X = U.  The
    counts are one popcount of U per left A-coset mask (coset 0 is A).

    ``graph_profile`` is the definition of an (r,s)-regular set: in
    Cos(G,H,U) the vertex gH has |U meet g^-1 A| / |H| neighbours among the
    H-cosets of A (its neighbours are the cosets guH, each reached by |H|
    elements u, and gu lies in A exactly when u lies in g^-1 A).  As g runs
    over G, g^-1 A runs over every left A-coset, and g^-1 A = A exactly
    when g lies in A; so every vertex has the right count exactly when
    ``inside_count`` and ``outside_counts`` pass, and ``graph_profile`` is
    their conjunction.  Failure raises ConstructionFailed.
    """
    _validate_range(pair, r, s)
    conn = validate_connection_set(pair.H, U)
    hord = pair.H.order
    counts = [(U & m).bit_count() for m in left_cosets(pair.G, pair.A).masks]
    want_out = s * hord
    inside_ok = counts[0] == r * hord
    outside_ok = all(c == want_out for c in counts[1:])
    if not (inside_ok and outside_ok):
        checks = tuple(map(CheckResult, _CHECK_NAMES,
                           (True, True, inside_ok, outside_ok, inside_ok and outside_ok)))
        failed = [c.name for c in checks if not c.passed]
        raise ConstructionFailed(f"candidate failed validation: {failed}", checks)
    return RegSetCertificate(pair, r, s, conn, _ALL_PASS)


# -- exact decision -----------------------------------------------------------


def _sweep(comp: _Component, cap: int, target: Optional[int],
           budget: int) -> dict[int, Optional[tuple[int, int]]]:
    """Forward reachable-sums sweep over the units of one component.

    A state is the packed block counts of a sub-collection of the units
    swept so far, each count at most ``cap``.  A block is closed once every
    unit touching it has been swept, and its count is then final.  With a
    ``target``, a closed block must hold exactly ``target`` and the sweep
    stops once (target, ..., target) is reached.  Without one, the closed
    blocks must agree on one value c and no block may exceed c, because
    only states (c, ..., c) are wanted.  Returns the parent pointers,
    state -> (previous state, position of the added unit), with None for
    the empty state; each state keeps the first way it was reached.  More
    than ``budget`` states raise :class:`SearchBudgetExceeded`.
    """
    ones, width = comp.ones, comp.width
    guard = ones << (width - 1)
    fmask = (1 << width) - 1
    limit = cap * ones | guard  # (limit - w) & guard == guard iff w <= cap
    goal = None if target is None else target * ones
    parent: dict[int, Optional[tuple[int, int]]] = {0: None}
    frontier = [0]
    closed = 0
    for pos, (u, closing) in enumerate(zip(comp.vectors, comp.closes)):
        if goal in parent:
            break
        grown = []
        for v in frontier:
            w = v + u
            if w not in parent and (limit - w) & guard == guard:
                parent[w] = (v, pos)
                grown.append(w)
        if len(parent) > budget:
            raise SearchBudgetExceeded(f"state budget {budget} exhausted")
        frontier += grown
        if closing:
            closed |= closing
            if goal is not None:
                frontier = [v for v in frontier if (v ^ goal) & closed == 0]
            else:
                low = (closed & -closed).bit_length() - 1  # a closed field's lowest bit
                kept = []
                for v in frontier:
                    c = (v >> low) & fmask
                    if (v ^ c * ones) & closed == 0 and \
                            ((c * ones | guard) - v) & guard == guard:
                        kept.append(v)
                frontier = kept
    if len(parent) > budget:
        raise SearchBudgetExceeded(f"state budget {budget} exhausted")
    return parent


def _witness(comp: _Component, parent: dict, state: int) -> list[_Unit]:
    """The units that the parent pointers record for ``state``."""
    units = []
    step = parent[state]
    while step is not None:
        state, pos = step
        units.append(comp.units[pos])
        step = parent[state]
    return units


def decide_regular_set(pair: PairSpec, r: int, s: int,
                       limits: Optional[Limits] = None) -> Optional[RegSetCertificate]:
    """Exact decision of the profile (r, s), with a certificate when it is
    achievable.

    The complement of H splits into atomic inverse-closed units (a
    self-inverse double coset, or a class taken together with its inverse
    class), each with a vector of H-coset counts per left A-coset block.
    The blocks split into components that share no unit (see
    :func:`achievable_profiles`), so (r, s) is achievable exactly when
    block 0 reaches r and every other component reaches s on each of its
    blocks; one :func:`_sweep` per component decides that, every count
    bounded by its target.  ``None`` therefore proves non-existence; more
    than ``limits.search_node_budget`` sweep states raise
    :class:`SearchBudgetExceeded` instead.
    """
    limits = limits if limits is not None else DEFAULT_LIMITS
    _validate_range(pair, r, s)
    budget = limits.search_node_budget
    chosen: list[_Unit] = []
    for k, comp in enumerate(pair._context.components):
        target = r if k == 0 else s
        parent = _sweep(comp, target, target, budget)
        budget -= len(parent)
        if target * comp.ones not in parent:
            return None
        chosen += _witness(comp, parent, target * comp.ones)
    return certify(pair, sum(u.mask for u in chosen), r, s)  # units are disjoint


def achievable_profiles(pair: PairSpec, limits: Optional[Limits] = None
                        ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The achievable r values R and s values S, each ascending: the
    achievable profiles are exactly R x S.

    For x outside A the unit of HxH lies inside AxA u Ax^-1A, so its vector
    is zero on A and on every block outside those double cosets.  The
    blocks therefore split into independent components: block 0, whose
    reachable sums R are the achievable r, and the components of blocks
    1.. under "some unit touches both", each giving the set S_k of values s
    it reaches on all of its blocks at once.  Choices in different
    components never interact, so the achievable profiles are exactly
    R x (S_1 meet S_2 ...), with every s in 0..|A:H| when A = G leaves no
    other component.  One sweep per component finds every S_k with one
    witness per value.  The witness of (r, s) is the union of its r-half
    (block 0's witness of r) and its s-half (the others' witnesses of s).
    Each half is certified once, as (r, 0) or (0, s), since the halves of 0
    are empty, and that backs every profile in R x S: an r-half joined with
    an s-half is a witness of (r, s).  A and G minus A are unions of left
    H-cosets closed under inverses, so the union is a connection set (in
    range, missing H, a union of left H-cosets, equal to its inverse)
    because each half is; its count on A is the r-half's and its count on
    every other A-coset the s-half's.
    """
    limits = limits if limits is not None else DEFAULT_LIMITS
    index = pair.code_index
    budget = limits.search_node_budget
    reached = []  # per component: value -> units reaching it on every block
    for comp in pair._context.components:
        parent = _sweep(comp, index, None, budget)
        budget -= len(parent)
        reached.append({
            c: _witness(comp, parent, c * comp.ones)
            for c in range(index + 1) if c * comp.ones in parent
        })
    inside, outside = reached[0], reached[1:]
    R = tuple(r for r in range(index) if r in inside)
    S = tuple(s for s in range(index + 1) if all(s in S_k for S_k in outside))
    for r in R:
        certify(pair, sum(u.mask for u in inside[r]), r, 0)
    for s in S[1:]:
        certify(pair, sum(u.mask for S_k in outside for u in S_k[s]), 0, s)
    return R, S


# -- normal-chain criteria and construction ---------------------------------


def _chain_components(pair: PairSpec) -> list[tuple[int, int, _Component]]:
    """(least block, class size, component) for each component of the
    decision, in order of least block; raises PreconditionViolated, on
    every call, unless H is normal in A and A is normal in G.

    In a normal chain HxH lies in the block xA and its inverse class in
    x^-1 A (A is normal and contains H).  So a component is one block
    tA = t^-1 A, or the two blocks tA != t^-1 A with one class of each unit
    in each block.  All classes of a component have the same H-coset count
    |HtH:H| (H is normal in A), which is 1 in block 0."""
    if not is_normal(pair.H, pair.A):
        raise PreconditionViolated("H is not normal in A")
    if not is_normal(pair.A, pair.G.full_subgroup()):
        raise PreconditionViolated("A is not normal in G")
    return [((c.blocks & -c.blocks).bit_length() - 1,
             len(c.units[0].cosets) // len(c.units[0].reps) if c.units else 1, c)
            for c in pair._context.components]


def _outside_witnesses(reps: tuple[int, ...], comps: list, s: int
                       ) -> tuple[Optional[int], Optional[int]]:
    """The divisibility and self_paired witnesses at s, None where the
    condition holds: the representative of the least block of the first
    failing component.  The two blocks of a two-block component have the
    same class size, so they pass or fail together; x^2 lies outside A for
    x in them, so self_paired can fail only on a one-block component."""
    div_witness = self_witness = None
    for least, size, comp in comps[1:]:
        if s % size != 0:
            if div_witness is None:
                div_witness = reps[least]
        elif (s // size) % 2 == 1 and comp.blocks == 1 << least and \
                all(len(u.reps) == 2 for u in comp.units):
            if self_witness is None:
                self_witness = reps[least]
    return div_witness, self_witness


def check_normal_chain(pair: PairSpec, r: int, s: int) -> ConditionReport:
    """Evaluate the three conditions that characterize (r, s)-regularity for
    a normal chain H <| A <| G:

    - parity: gcd(2, |A:H| - 1) divides r;
    - divisibility: |H| / |H meet H^t| divides s for every t outside A;
    - self_paired: whenever x outside A has x^2 in A and s/|HxH:H| is odd,
      some class inside xA is its own inverse class.

    Both element conditions are read once per component of the decision
    (:func:`_chain_components`), and this is exact: each is constant on
    tA u t^-1 A.  For x in tA, the classes HxH and Hx^-1H lie in xA = tA
    and x^-1 A = t^-1 A and have the size |HtH:H|, and x^2 lies in A
    exactly when t^-1 A = tA.  The witness of a failure is the
    representative of the least block of the first failing component,
    which is the first failing coset; representatives are the minimal
    elements of their cosets, so it is also the least failing element.
    """
    comps = _chain_components(pair)  # a failing pair raises on every call
    _validate_range(pair, r, s)
    parity_ok = r % gcd(2, pair.code_index - 1) == 0
    div_witness, self_witness = _outside_witnesses(
        left_cosets(pair.G, pair.A).reps, comps, s)
    return ConditionReport(
        ("parity", "divisibility", "self_paired"),
        (parity_ok, div_witness is None, self_witness is None),
        (None, div_witness, self_witness),
    )


def normal_chain_verdicts(pair: PairSpec) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """The verdicts of :func:`check_normal_chain` for every (r, s) at once,
    as a condition on r and a condition on s: the parity outcome for each
    r in 0..|A:H|-1 and the conjunction of divisibility and self_paired for
    each s in 0..|A:H|.  The verdict at (r, s) is ``parity[r] and
    outside[s]``.  Raises PreconditionViolated as check_normal_chain does."""
    comps = _chain_components(pair)
    reps = left_cosets(pair.G, pair.A).reps
    step = gcd(2, pair.code_index - 1)
    return (tuple(r % step == 0 for r in range(pair.code_index)),
            tuple(_outside_witnesses(reps, comps, s) == (None, None)
                  for s in range(pair.code_index + 1)))


def _select(units: list[tuple[int, _Unit]], quota: int) -> list[_Unit]:
    """Units whose classes in one block number ``quota``: units with two
    classes there first, then units with one, each in the block's order."""
    picked = []
    for want in (2, 1):
        for k, u in units:
            if k == want <= quota:
                picked.append(u)
                quota -= k
    if quota:
        raise ConstructionFailed(f"{quota} classes short of the quota")
    return picked


def construct_normal_chain(pair: PairSpec, r: int, s: int) -> RegSetCertificate:
    """Explicitly build a connection set realizing (r, s) for a normal chain.

    Each component is filled, in component order, through its least block:
    up to r (component 0) or s H-cosets, that is r or s/|HtH:H| classes
    (:func:`_select`), with units taken in order of their least class in
    that block: inverse pairs inside the block, then self-inverse classes,
    or for a block tA != t^-1 A its classes paired with their inverses in
    t^-1 A, which then arrives full.
    """
    report = check_normal_chain(pair, r, s)
    if not report.verdict:
        raise PreconditionViolated(
            f"normal-chain conditions fail: {report!r}"
        )
    acos = left_cosets(pair.G, pair.A).coset_of
    chosen: list[_Unit] = []
    for least, size, comp in _chain_components(pair):
        ordered = sorted(([x for x in u.reps if acos[x] == least], u)
                         for u in comp.units)  # no two units share a class
        chosen += _select([(len(reps), u) for reps, u in ordered],
                          (r if least == 0 else s) // size)
    return certify(pair, sum(u.mask for u in chosen), r, s)


# -- Cayley-case criteria (H trivial) ---------------------------------------


def cayley_normal_criterion(G: GroupTable, A: Subgroup, r: int, s: int) -> bool:
    """Decide (r, s)-regularity of a normal subgroup in some Cayley graph:
    always constructible for even s; for odd s exactly when A is a perfect
    code of some Cayley graph (:func:`normal_perfect_code_criterion`)."""
    if not 0 <= r <= A.order - 1 or not 0 <= s <= A.order:
        raise ValueError(f"(r,s)=({r},{s}) out of range for |A|={A.order}")
    if r % gcd(2, A.order - 1) != 0:
        raise PreconditionViolated(f"gcd(2,|A|-1) does not divide r={r}")
    if s % 2 == 1:
        return normal_perfect_code_criterion(G, A)
    if not is_normal(A, G.full_subgroup()):
        raise PreconditionViolated("A is not normal in G")
    return True


def normal_perfect_code_criterion(G: GroupTable, A: Subgroup) -> bool:
    """Square-root criterion for a normal subgroup to be a perfect code of
    some Cayley graph: every x with x^2 in A admits a in A with (xa)^2 = 1."""
    if not is_normal(A, G.full_subgroup()):
        raise PreconditionViolated("A is not normal in G")
    return square_roots_lift(G, A)


# -- normalizer-quotient reduction ------------------------------------------


def normalizer_reduction(pair: PairSpec, r: int, s: int) -> NormalizerReduction:
    """Reduce the pair decision for a normal A to the quotient N_G(H)/H.

    Tests G = N_G(H) * A, then decides whether B = N_A(H)/H is an
    (r,s)-regular set of some Cayley graph of N_G(H)/H by the criterion of
    :func:`cayley_normal_criterion`: every even s holds, and an odd s
    holds exactly when every X of N_G(H)/H outside B with X^2 in B has
    some Y in B with (XY)^2 = 1.  For s = 1 the reduction is an
    equivalence (the paper's theorem).  For s != 1 the verdict equals the
    exact decision wherever G = N_G(H) * A on every pair of the acceptance
    corpus; that is measured, not proved.  Where G != N_G(H) * A, some
    s != 1 profiles are achievable though the verdict is false.

    No quotient table is built: the criterion is read on masks of G, with
    N = N_G(H) and X = xH for x in N.  This is exact:

    - |B| = |A meet N| / |H|, since H <= A meet N;
    - xH lies in B exactly when x lies in A, since H <= A meet N and x is
      in N; so X lies outside B exactly when x lies outside A, and X^2 =
      x^2 H lies in B exactly when x^2 lies in A;
    - Y = bH for b in A meet N, and (XY)^2 = 1 says (xb)^2 lies in H; for
      x in N, xb lies in N exactly when b does, so some such b exists
      exactly when ``involution_exists_in_coset(G, x, A, N, H)``;
    - the quotient form also asks that B be normal in N_G(H)/H, which
      follows from A being normal in G, checked first.

    The quotient form ranges over x in N, and ``square_roots_lift(G, A,
    N, H)`` over every x of G; they agree once G = N * A, the only case
    where the lift is read.  The three conditions on x (outside A, x^2 in
    A, the coset test) depend on xA alone, since A is normal, and every
    left A-coset xA = naA = nA meets N.  When G != N * A the verdict is
    false, so this is :func:`perfect_code_normalizer_criterion` at s = 1.
    """
    G, H, A = pair.G, pair.H, pair.A
    if not is_normal(A, G.full_subgroup()):
        raise PreconditionViolated("A is not normal in G")
    N = normalizer(G, H)
    border = (A.mask & N.mask).bit_count() // H.order
    if not 0 <= r <= border - 1 or not 0 <= s <= border:
        raise PreconditionViolated(
            f"(r,s)=({r},{s}) out of range for |N_A(H)/H|={border}"
        )
    if r % gcd(2, border - 1) != 0:
        raise PreconditionViolated("gcd(2,|N_A(H)/H|-1) does not divide r")
    applicable = product_is_group(N, A)
    return NormalizerReduction(
        applicable, applicable and (s % 2 == 0 or square_roots_lift(G, A, N, H)))


def perfect_code_pair(pair: PairSpec,
                      limits: Optional[Limits] = None
                      ) -> tuple[bool, Optional[RegSetCertificate]]:
    """Decide whether A is a perfect code of the pair (G, H), i.e. a
    (0,1)-regular set, by the exact decision at (0, 1)."""
    cert = decide_regular_set(pair, 0, 1, limits=limits)
    return cert is not None, cert


# -- perfect-code corollaries ------------------------------------------------


def perfect_code_normalizer_criterion(pair: PairSpec) -> bool:
    """Perfect-code test for normal A via normalizer membership: G = A*N_G(H)
    and every x with x^2 in A admits b in A with xb in N_G(H), (xb)^2 in H.
    That is :func:`normalizer_reduction` at (0, 1), which is always in
    range since H <= N_A(H)."""
    return normalizer_reduction(pair, 0, 1).verdict


def perfect_code_quotient_criterion(pair: PairSpec) -> bool:
    """For a normal chain, A is a perfect code of (G, H) iff H is normal in
    all of G and A/H is a perfect code of G/H.

    With H normal in G, the latter is the square-root criterion of
    :func:`normal_perfect_code_criterion` on G/H, read on coset
    representatives without a quotient table: xH lies in A/H exactly when
    x lies in A (H <= A), and some aH in A/H has (xaH)^2 = H exactly when
    some a in A has (xa)^2 in H, which is
    ``square_roots_lift(G, A, None, H)``.  A/H is normal in G/H because A
    is normal in G."""
    G, H, A = pair.G, pair.H, pair.A
    full = G.full_subgroup()
    if not is_normal(H, A) or not is_normal(A, full):
        raise PreconditionViolated("requires H normal in A and A normal in G")
    if not is_normal(H, full):
        return False
    return square_roots_lift(G, A, None, H)


def perfect_code_odd_order_criterion(pair: PairSpec) -> bool:
    """When |A| or |G:A| is odd, the perfect-code property reduces to the
    single product condition G = N_G(H) * A."""
    G, H, A = pair.G, pair.H, pair.A
    if not is_normal(A, G.full_subgroup()):
        raise PreconditionViolated("A is not normal in G")
    if A.order % 2 == 0 and (G.order // A.order) % 2 == 0:
        raise PreconditionViolated("requires |A| or |G:A| odd")
    return product_is_group(normalizer(G, H), A)


def perfect_code_sylow_criterion(G: GroupTable, A: Subgroup, p: int) -> bool:
    """Perfect-code test for (G, H, A) with H a Sylow p-subgroup of a normal
    A.  The product G = N_G(H)*A must hold automatically (Frattini argument);
    it is checked, not assumed."""
    if not is_normal(A, G.full_subgroup()):
        raise PreconditionViolated("A is not normal in G")
    H = sylow_subgroup(A, p)
    N = normalizer(G, H)
    if not product_is_group(N, A):
        raise FrattiniCheckFailed("G != N_G(H) * A for a Sylow subgroup of A")
    return square_roots_lift(G, A, N, H)


# -- necessary conditions -----------------------------------------------------


def necessary_conjugate_intersection(pair: PairSpec) -> bool:
    """Necessary for a perfect code: every g admits a in A with
    A^(ga) meet H equal to H^(ga) meet H.

    Conjugating by c^-1, where c = ga, the condition says that cHc^-1 meets
    A only inside H.  cHc^-1 depends on the left H-coset cH alone, so the
    condition is tested once per H-coset, and it must pass somewhere in
    every left A-coset gA, a union of H-cosets."""
    G, H, A = pair.G, pair.H, pair.A
    acos = left_cosets(G, A).coset_of
    outside = A.mask & ~H.mask
    passed: set[int] = set()
    for c in left_cosets(G, H).reps:
        block = acos[c]
        if block not in passed and not _conjugate_mask(G, H, G.inv[c]) & outside:
            passed.add(block)
    return len(passed) == G.order // A.order


def necessary_divisibility(pair: PairSpec) -> bool:
    """Necessary for a perfect code when H is normal in A: |H * A^x| divides
    |A * A^x| for every x.

    The condition holds for every such pair, so this returns True once H
    is normal in A: both are products of two subgroups, and |XY| =
    |X||Y| / |X meet Y|.  With D = A meet A^x, H D is a subgroup of A (H is
    normal in A) of order |H||D| / |H meet D|, and H meet A^x = H meet D,
    so |A A^x| / |H A^x| = |A| |H meet D| / (|H| |D|) = |A : HD|, an
    integer."""
    if not is_normal(pair.H, pair.A):
        raise PreconditionViolated("H is not normal in A")
    return True


# -- arc-transitive (single double coset) case --------------------------------


def arc_transitive_perfect_code(pair: PairSpec, x: int) -> bool:
    """Perfect-code conditions when the connection set is the single
    self-inverse double coset HxH: G = A u AxA, H meet H^x = H meet A^x, and
    every a in A has some h in H with ha in A meet A^x."""
    G, H, A = pair.G, pair.H, pair.A
    if (H.mask >> x) & 1:
        raise PreconditionViolated("x must lie outside H")
    if double_coset_mask(H, x) != double_coset_mask(H, G.inv[x]):
        raise PreconditionViolated("HxH is not inverse closed")
    axa = set_product(G, A.members, set_product(G, (x,), A.members))
    cover = A.mask
    for m in axa:
        cover |= 1 << m
    if cover.bit_count() != G.order:
        return False
    hx_mask = 0
    ax_mask = 0
    for h in H.members:
        hx_mask |= 1 << G.conjugate(h, x)
    for a in A.members:
        ax_mask |= 1 << G.conjugate(a, x)
    if H.mask & hx_mask != H.mask & ax_mask:
        return False
    mult = G.mult
    for a in A.members:
        if not any((ax_mask >> mult[h][a]) & 1 for h in H.members):
            return False
    return True
