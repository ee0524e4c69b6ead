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
from math import gcd
from typing import Iterator, NamedTuple, Optional

from .config import DEFAULT_LIMITS, Limits
from .coset_graph import ConnectionSet, validate_connection_set
from .cosets import (
    decompose_into_double_cosets,
    double_coset,
    left_coset_count,
    left_cosets,
    mask_of,
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
    intersect,
    is_normal,
    normalizer,
    product_is_group,
    quotient,
    set_product,
    square_roots_lift,
    sylow_subgroup,
    trivial_subgroup,
)


@dataclass(frozen=True)
class PairSpec:
    """The data of a decision instance: a chain ``H <= A <= G``.

    The per-pair analysis is built on first use and kept in the cached
    properties below, so it lives exactly as long as the pair: a group
    keeps no pair's data after the pair is gone.
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
        """Cosets, double cosets, units and components of the decision."""
        return _PairContext(self)

    @cached_property
    def _chain(self) -> _ChainContext:
        """The normal-chain data; raises PreconditionViolated, on every
        access, unless H is normal in A and A is normal in G."""
        if not is_normal(self.H, self.A):
            raise PreconditionViolated("H is not normal in A")
        if not is_normal(self.A, self.G.full_subgroup()):
            raise PreconditionViolated("A is not normal in G")
        return _ChainContext(self)

    @cached_property
    def _certification(self) -> _CertifyData:
        """What :func:`certify` reads; a cold pair builds only this."""
        return _CertifyData(self)

    @cached_property
    def _quotient_pair(self) -> PairSpec:
        """The pair (N_G(H)/H, 1, N_A(H)/H) of :func:`normalizer_reduction`."""
        N = normalizer(self.G, self.H)
        quo = quotient(N, self.H)
        image = {quo.projection[m] for m in intersect(self.A, N).members}
        return PairSpec(quo.table, trivial_subgroup(quo.table), Subgroup(quo.table, sorted(image)))

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
    the double cosets whose union is U.
    """

    pair: PairSpec
    r: int
    s: int
    double_coset_reps: tuple[int, ...]
    connection: ConnectionSet
    checks: tuple[CheckResult, ...]

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
    """Result of reducing a pair decision to the normalizer quotient.

    ``applicable`` records whether G equals N_G(H)*A; ``verdict`` is the
    conjunction with the quotient-level criterion.  For s = 1 the reduction
    is exact: a false verdict proves that no connection set exists.
    """

    applicable: bool
    verdict: bool
    certificate: Optional[RegSetCertificate]


# -- shared per-pair analysis ---------------------------------------------


class _Unit(NamedTuple):
    """An atomic inverse-closed union of double cosets (a self-inverse class
    or a class paired with its inverse class)."""

    class_ids: tuple[int, ...]
    reps: tuple[int, ...]
    vector: tuple[int, ...]  # H-coset count per A-coset block
    mask: int  # the union of the classes, bit g for each member g


class _Component(NamedTuple):
    """A set of A-coset blocks that no unit joins to any other block, with
    the units touching them in sweep order.  Block counts are packed into
    fields of ``width`` bits, one per block of the component in ascending
    order; ``ones`` has a 1 in every field and ``closes[i]`` covers the
    fields that no unit after ``units[i]`` touches."""

    units: tuple[_Unit, ...]
    vectors: tuple[int, ...]
    closes: tuple[int, ...]
    ones: int
    width: int


def _component(blocks: list[int], units: list[_Unit], index: int) -> _Component:
    """Order the units so that blocks close early: repeatedly take the open
    block touched by the fewest remaining units and sweep all of them."""
    pending = {b: [k for k, u in enumerate(units) if u.vector[b]] for b in blocks}
    order: list[int] = []
    while len(order) < len(units):
        first = min((b for b in blocks if pending[b]), key=lambda b: len(pending[b]))
        taken = pending[first]
        order.extend(taken)
        for b in blocks:
            pending[b] = [k for k in pending[b] if k not in taken]
    # a field holds at most 2*index (a state plus one unit), below its top bit
    width = index.bit_length() + 2
    fmask = (1 << width) - 1
    vectors = tuple(
        sum(units[k].vector[b] << (width * i) for i, b in enumerate(blocks))
        for k in order
    )
    closes = [0] * len(order)
    for i, b in enumerate(blocks):
        touching = [pos for pos, k in enumerate(order) if units[k].vector[b]]
        if touching:  # only block 0, when A = H, has no unit
            closes[touching[-1]] |= fmask << (width * i)
    ones = sum(1 << (width * i) for i in range(len(blocks)))
    return _Component(tuple(units[k] for k in order), vectors, tuple(closes), ones, width)


class _PairContext:
    """Cosets, double cosets and units of a pair, and the units split into
    components.  ``components[0]`` is block 0 (A itself) with the units
    inside A; the others are the union-find components of blocks 1.. under
    "some unit touches both"."""

    def __init__(self, pair: PairSpec):
        G, H, A = pair.G, pair.H, pair.A
        self.hspace = left_cosets(G, H)
        self.aspace = left_cosets(G, A)
        self.nblocks = self.aspace.size
        self.block_inv = tuple(
            self.aspace.coset_of[G.inv[rep]] for rep in self.aspace.reps
        )
        outside = [g for g in range(G.order) if not (H.mask >> g) & 1]
        self.decomp = decompose_into_double_cosets(outside, H)
        hmasks, hcos = self.hspace.masks, self.hspace.coset_of
        acos = self.aspace.coset_of
        vectors = []
        for mask in self.decomp.masks:  # one H-coset at a time
            vec = [0] * self.nblocks
            while mask:
                g = (mask & -mask).bit_length() - 1
                vec[acos[g]] += 1
                mask &= ~hmasks[hcos[g]]
            vectors.append(tuple(vec))
        self.class_vectors = tuple(vectors)
        units = []
        for (i, j) in self.decomp.inverse_pairing:
            assert j is not None  # complement of H is inverse closed
            if j == i:
                units.append(self._make_unit((i,)))
            elif i < j:
                units.append(self._make_unit((i, j)))
        root = list(range(self.nblocks))

        def find(b: int) -> int:
            while root[b] != b:
                root[b] = root[root[b]]
                b = root[b]
            return b

        firsts = []
        for u in units:
            touched = [b for b, c in enumerate(u.vector) if c]
            for b in touched[1:]:
                root[find(b)] = find(touched[0])
            firsts.append(touched[0])
        # x outside A puts HxH and Hx^-1H outside A, so block 0 stays alone
        assert all(find(b) != find(0) for b in range(1, self.nblocks))
        blocks_of: dict[int, list[int]] = {}
        for b in range(self.nblocks):
            blocks_of.setdefault(find(b), []).append(b)
        units_of: dict[int, list[_Unit]] = {root_b: [] for root_b in blocks_of}
        for u, first in zip(units, firsts):
            units_of[find(first)].append(u)
        index = pair.code_index
        self.components = tuple(
            _component(blocks, units_of[root_b], index)
            for root_b, blocks in blocks_of.items()
        )

    def _make_unit(self, class_ids: tuple[int, ...]) -> _Unit:
        vec = [0] * self.nblocks
        mask = 0
        reps = []
        for c in class_ids:
            for b, x in enumerate(self.class_vectors[c]):
                vec[b] += x
            mask |= self.decomp.masks[c]
            reps.append(self.decomp.reps[c])
        return _Unit(class_ids, tuple(sorted(reps)), tuple(vec), mask)


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


class _CertifyData:
    """The left A-coset masks (coset 0 is A), the blocks b != 0 of g^-1 A
    over the H-coset representatives g, the only blocks that
    ``graph_profile`` reads outside A, and the halves of every U that
    :func:`certify` has passed: ``inside`` maps U meet A to its count r|H|,
    ``outside`` maps U minus A to its count s|H| on every block outside A,
    or to None (any s) when A = G leaves no such block."""

    def __init__(self, pair: PairSpec):
        G = pair.G
        aspace = left_cosets(G, pair.A)
        acos, inv = aspace.coset_of, G.inv
        reached = {acos[inv[g]] for g in left_cosets(G, pair.H).reps}
        self.amasks = aspace.masks
        self.blocks = tuple(sorted(reached - {0}))
        self.inside: dict[int, int] = {}
        self.outside: dict[int, Optional[int]] = {}


def certify(pair: PairSpec, class_reps, U: int, r: int, s: int) -> RegSetCertificate:
    """Check a candidate connection set U, given as its bitmask, with
    witness X = U, and return its certificate; this is the only source of
    certificates, and ``verify`` re-runs it on stored ones.

    :func:`validate_connection_set` proves ``inverse_symmetry`` and
    ``disjoint_from_subgroup`` for X = U.  The counts are popcounts of U
    against the left A-coset masks.  ``graph_profile`` checks every vertex
    gH by definition: its neighbours are the cosets guH (u in U), each
    reached by |H| elements u, and gu lies in A exactly when u lies in
    g^-1 A, so |U meet g^-1 A| must be r|H| (g in A) or s|H| (g outside A).
    That count is the count of the block of g^-1 A, and g lies in A exactly
    when that block is 0, so the check compares the count of each distinct
    block g^-1 A once (:class:`_CertifyData`); those blocks are among the
    ones ``outside_counts`` reads.  Failure raises ConstructionFailed.

    U is checked through its halves U meet A and U minus A.  A and G minus
    A are unions of left H-cosets and closed under inverses, so U is a
    connection set (in range, missing H, a union of left H-cosets, equal to
    U^-1) exactly when each half is; ``inside_count`` reads only the
    inside half, ``outside_counts`` only the outside half, and
    ``graph_profile`` follows from those two.  So a U whose halves both
    come from sets that passed, with the counts r|H| and s|H|, passes
    without a walk; any other U is checked in full, and its halves are
    recorded when it passes.
    """
    data = pair._certification
    hord = pair.H.order
    inside = U & data.amasks[0]
    outside = U ^ inside
    if data.inside.get(inside) == r * hord and outside in data.outside \
            and data.outside[outside] in (None, s * hord):
        return RegSetCertificate(pair, r, s, tuple(sorted(class_reps)),
                                 ConnectionSet(pair.H, U), _ALL_PASS)
    conn = validate_connection_set(pair.H, U)
    counts = [(U & m).bit_count() for m in data.amasks]  # coset 0 is A
    want_in, want_out = r * hord, s * hord
    inside_ok = counts[0] == want_in
    outside_ok = all(c == want_out for c in counts[1:])
    profile_ok = inside_ok and (outside_ok or all(counts[b] == want_out for b in data.blocks))
    if not (inside_ok and outside_ok and profile_ok):
        checks = tuple(map(CheckResult, _CHECK_NAMES,
                           (True, True, inside_ok, outside_ok, profile_ok)))
        failed = [c.name for c in checks if not c.passed]
        raise ConstructionFailed(f"candidate failed validation: {failed}", checks)
    data.inside[inside] = counts[0]
    data.outside[outside] = counts[1] if len(counts) > 1 else None
    return RegSetCertificate(pair, r, s, tuple(sorted(class_reps)), conn, _ALL_PASS)


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


def _union(units: list[_Unit]) -> tuple[list[int], int]:
    """The double-coset representatives and the mask of a set of units."""
    mask = 0
    for u in units:
        mask |= u.mask
    return [rep for u in units for rep in u.reps], mask


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
    reps, mask = _union(chosen)
    return certify(pair, reps, mask, r, s)


def achievable_profiles(pair: PairSpec, limits: Optional[Limits] = None
                        ) -> Iterator[RegSetCertificate]:
    """Yield a certificate for every achievable (r, s), in (r, s) order.

    For x outside A the unit of HxH lies inside AxA u Ax^-1A, so its vector
    is zero on A and on every block outside those double cosets.  The
    blocks therefore split into independent components: block 0, whose
    reachable sums R are the achievable r, and the union-find components of
    blocks 1.. , each giving the set S_k of values s it reaches on all of
    its blocks at once.  Choices in different components never interact, so
    the achievable profiles are exactly R x (S_1 meet S_2 ...), with every s
    in 0..|A:H| when A = G leaves no other component.  One sweep per
    component finds every S_k with one witness per value, and the witness
    of (r, s) is the union of its components' witnesses.  The units of each
    r and of each s are united once, so a profile costs one OR and one
    :func:`certify`, and certify walks a connection set only when an r or
    an s is new to it: at most |R| + |S| walks for the |R| x |S| profiles.
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
    svalues = [s for s in range(index + 1) if all(s in S for S in outside)]
    rhalves = [(r, _union(inside[r])) for r in range(index) if r in inside]
    shalves = [(s, _union([u for S in outside for u in S[s]])) for s in svalues]
    for r, (rreps, rmask) in rhalves:
        for s, (sreps, smask) in shalves:
            yield certify(pair, rreps + sreps, rmask | smask, r, s)


# -- normal-chain criteria and construction ---------------------------------


class _ChainContext:
    """Per-block data valid when H is normal in A and A is normal in G:
    every double coset lies in a single A-coset block and all classes of a
    block have the same H-coset count.  ``conditions[s]`` holds the
    divisibility and self_paired outcomes and witnesses at s, which do not
    depend on r."""

    def __init__(self, pair: PairSpec):
        ctx = pair._context
        nb = ctx.nblocks
        self.block_inv = ctx.block_inv
        self.classes_by_block: list[list[int]] = [[] for _ in range(nb)]
        self.block_ci: list[Optional[int]] = [None] * nb
        block_of = []
        for c, vec in enumerate(ctx.class_vectors):
            (b,) = (b for b, n in enumerate(vec) if n)  # guaranteed by the normal chain
            assert self.block_ci[b] in (None, vec[b])  # classes of one block share their size
            self.block_ci[b] = vec[b]
            self.classes_by_block[b].append(c)
            block_of.append(b)
        self.selfs_by_block = [
            [c for c in ids if ctx.decomp.self_inverse_flags[c]]
            for ids in self.classes_by_block
        ]
        self.partner = dict(ctx.decomp.inverse_pairing)
        self.pairs_by_block: list[list[tuple[int, int]]] = [[] for _ in range(nb)]
        for c, j in ctx.decomp.inverse_pairing:
            if c < j and block_of[j] == block_of[c]:
                self.pairs_by_block[block_of[c]].append((c, j))
        reps = ctx.aspace.reps
        self.conditions = tuple(self._conditions_at(reps, s)
                                for s in range(pair.code_index + 1))

    def _conditions_at(self, reps: tuple[int, ...], s: int) -> tuple:
        div_ok, div_witness = True, None
        self_ok, self_witness = True, None
        for b in range(1, len(reps)):
            ci = self.block_ci[b]
            if s % ci != 0:
                if div_ok:
                    div_ok, div_witness = False, reps[b]
            elif self.block_inv[b] == b and (s // ci) % 2 == 1:
                if not self.selfs_by_block[b] and self_ok:
                    self_ok, self_witness = False, reps[b]
        return div_ok, div_witness, self_ok, self_witness


def check_normal_chain(pair: PairSpec, r: int, s: int) -> ConditionReport:
    """Evaluate the three conditions that characterize (r, s)-regularity for
    a normal chain H <| A <| G:

    - parity: gcd(2, |A:H| - 1) divides r;
    - divisibility: |H| / |H meet H^t| divides s for every t outside A;
    - self_paired: whenever x outside A has x^2 in A and s/|HxH:H| is odd,
      some class inside xA is its own inverse class.

    Both element conditions are tested once per left A-coset tA, and this
    is exact: each is constant on tA u t^-1 A.  For x in tA, the classes
    HxH and Hx^-1H lie in xA = tA and x^-1 A = t^-1 A (A is normal and
    contains H) and have the size |HtH:H| (H is normal in A), and x^2 lies
    in A exactly when t^-1 A = tA.  The witness of a failure is the
    representative of the first failing coset; representatives are the
    minimal elements of their cosets, so it is also the least failing
    element.
    """
    chain = pair._chain  # a failing pair raises on every call
    _validate_range(pair, r, s)
    parity_ok = r % gcd(2, pair.code_index - 1) == 0
    div_ok, div_witness, self_ok, self_witness = chain.conditions[s]
    return ConditionReport(
        ("parity", "divisibility", "self_paired"),
        (parity_ok, div_ok, self_ok),
        (None, div_witness, self_witness),
    )


def _select_in_block(cctx: _ChainContext, b: int, quota: int) -> list[int]:
    """Pick ``quota`` classes from a self-paired block, inverse pairs first,
    self-inverse classes for the remainder; minimum-representative order."""
    pairs = cctx.pairs_by_block[b]
    selfs = cctx.selfs_by_block[b]
    npairs = min(len(pairs), quota // 2)
    rem = quota - 2 * npairs
    if rem > len(selfs):
        raise ConstructionFailed(
            f"block {b}: need {rem} self-inverse classes, have {len(selfs)}"
        )
    chosen: list[int] = []
    for i, j in pairs[:npairs]:
        chosen.extend((i, j))
    chosen.extend(selfs[:rem])
    return chosen


def construct_normal_chain(pair: PairSpec, r: int, s: int) -> RegSetCertificate:
    """Explicitly build a connection set realizing (r, s) for a normal chain.

    Inside A the construction picks r H-cosets (inverse pairs padded with
    self-inverse cosets); outside, each A-coset orbit receives s/|HtH:H|
    whole double cosets, pairing a coset with its inverse class or using the
    even/odd split inside self-paired orbits.
    """
    report = check_normal_chain(pair, r, s)
    if not report.verdict:
        raise PreconditionViolated(
            f"normal-chain conditions fail: {report!r}"
        )
    ctx, cctx = pair._context, pair._chain
    chosen = _select_in_block(cctx, 0, r)
    for b in range(1, ctx.nblocks):
        binv = cctx.block_inv[b]
        if binv < b:
            continue
        ci = cctx.block_ci[b]
        lt = s // ci
        if lt == 0:
            continue
        if binv != b:
            ids = cctx.classes_by_block[b][:lt]
            if len(ids) < lt:
                raise ConstructionFailed(f"block {b}: fewer than {lt} classes")
            chosen.extend(ids)
            chosen.extend(cctx.partner[c] for c in ids)
        else:
            chosen.extend(_select_in_block(cctx, b, lt))
    mask = 0
    for c in chosen:
        mask |= ctx.decomp.masks[c]
    return certify(pair, [ctx.decomp.reps[c] for c in chosen], mask, r, s)


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


def normalizer_reduction(pair: PairSpec, r: int, s: int,
                         limits: Optional[Limits] = None) -> NormalizerReduction:
    """Reduce the pair decision for a normal A to the quotient N_G(H)/H.

    Tests G = N_G(H) * A, then decides whether the image of N_A(H) is an
    (r,s)-regular set of the quotient; when both hold a certificate for the
    original pair is produced by lifting a quotient-level connection set
    through the section.  For s = 1 the reduction is an equivalence.
    """
    limits = limits if limits is not None else DEFAULT_LIMITS
    G, H, A = pair.G, pair.H, pair.A
    full = G.full_subgroup()
    if not is_normal(A, full):
        raise PreconditionViolated("A is not normal in G")
    N = normalizer(G, H)
    quo = quotient(N, H)
    qpair = pair._quotient_pair  # keeps its analysis across (r, s)
    B = qpair.A
    border = B.order
    if not 0 <= r <= border - 1 or not 0 <= s <= border:
        raise PreconditionViolated(
            f"(r,s)=({r},{s}) out of range for |N_A(H)/H|={border}"
        )
    if r % gcd(2, border - 1) != 0:
        raise PreconditionViolated("gcd(2,|N_A(H)/H|-1) does not divide r")
    applicable = product_is_group(N, A)
    quotient_ok = cayley_normal_criterion(quo.table, B, r, s)
    verdict = applicable and quotient_ok
    certificate = None
    if verdict:
        qcert = decide_regular_set(qpair, r, s, limits=limits)
        if qcert is None:  # criterion guarantees existence
            raise ConstructionFailed("quotient-level search found no witness")
        fibers: dict[int, list[int]] = {}
        for m in N.members:
            fibers.setdefault(quo.projection[m], []).append(m)
        members: set[int] = set()
        class_reps = []
        for q in qcert.connection.members:
            fib = fibers[q]
            members.update(fib)
            class_reps.append(min(fib))
        certificate = certify(pair, class_reps, mask_of(G, members), r, s)
    return NormalizerReduction(applicable, verdict, certificate)


def perfect_code_pair(pair: PairSpec,
                      limits: Optional[Limits] = None
                      ) -> tuple[bool, Optional[RegSetCertificate]]:
    """Decide whether A is a perfect code of the pair (G, H), i.e. a
    (0,1)-regular set.  Normal A goes through the normalizer-quotient
    criterion (with a lifted certificate); otherwise the exact decision
    decides."""
    limits = limits if limits is not None else DEFAULT_LIMITS
    if is_normal(pair.A, pair.G.full_subgroup()):
        red = normalizer_reduction(pair, 0, 1, limits=limits)
        return red.verdict, red.certificate
    cert = decide_regular_set(pair, 0, 1, limits=limits)
    return cert is not None, cert


# -- perfect-code corollaries ------------------------------------------------


def perfect_code_normalizer_criterion(pair: PairSpec) -> bool:
    """Perfect-code test for normal A via normalizer membership: G = A*N_G(H)
    and every x with x^2 in A admits b in A with xb in N_G(H), (xb)^2 in H."""
    G, H, A = pair.G, pair.H, pair.A
    if not is_normal(A, G.full_subgroup()):
        raise PreconditionViolated("A is not normal in G")
    N = normalizer(G, H)
    if not product_is_group(N, A):
        return False
    return square_roots_lift(G, A, N, H)


def perfect_code_quotient_criterion(pair: PairSpec) -> bool:
    """For a normal chain, A is a perfect code of (G, H) iff H is normal in
    all of G and A/H is a perfect code of G/H."""
    G, H, A = pair.G, pair.H, pair.A
    full = G.full_subgroup()
    if not is_normal(H, A) or not is_normal(A, full):
        raise PreconditionViolated("requires H normal in A and A normal in G")
    if not is_normal(H, full):
        return False
    quo = quotient(full, H)
    abar = Subgroup(quo.table, sorted({quo.projection[a] for a in A.members}))
    return normal_perfect_code_criterion(quo.table, abar)


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
    A^(ga) meet H equal to H^(ga) meet H."""
    G, H, A = pair.G, pair.H, pair.A
    mult = G.mult
    inv = G.inv
    amask = A.mask
    hmask = H.mask
    for g in range(G.order):
        row = mult[g]
        found = False
        for a in A.members:
            c = row[a]
            ci = inv[c]
            crow = mult[c]
            ok = True
            for u in H.members:
                t = mult[crow[u]][ci]  # u in H^c iff c u c^-1 in H
                if bool((amask >> t) & 1) != bool((hmask >> t) & 1):
                    ok = False
                    break
            if ok:
                found = True
                break
        if not found:
            return False
    return True


def necessary_divisibility(pair: PairSpec) -> bool:
    """Necessary for a perfect code when H is normal in A: |H * A^x| divides
    |A * A^x| for every x.  Both are products of two subgroups, so
    |XY| = |X||Y| / |X meet Y| gives their sizes from mask intersections,
    once per distinct conjugate A^x."""
    G, H, A = pair.G, pair.H, pair.A
    if not is_normal(H, A):
        raise PreconditionViolated("H is not normal in A")
    seen: set[int] = set()
    for x in range(G.order):
        ax = _conjugate_mask(G, A, x)
        if ax in seen:
            continue
        seen.add(ax)
        aax = A.order * A.order // (A.mask & ax).bit_count()
        hax = H.order * A.order // (H.mask & ax).bit_count()
        if aax % hax != 0:
            return False
    return True


# -- arc-transitive (single double coset) case --------------------------------


def arc_transitive_perfect_code(pair: PairSpec, x: int) -> bool:
    """Perfect-code conditions when the connection set is the single
    self-inverse double coset HxH: G = A u AxA, H meet H^x = H meet A^x, and
    every a in A has some h in H with ha in A meet A^x."""
    G, H, A = pair.G, pair.H, pair.A
    if (H.mask >> x) & 1:
        raise PreconditionViolated("x must lie outside H")
    d = double_coset(H, x)
    if d != frozenset(G.inv[m] for m in d):
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
