"""An oracle for (r,s)-regular subgroup sets that shares nothing with regsets
but the raw multiplication table.

Two parts:

- ``certificate_holds`` checks a connection set U at the level of the
  definition: U avoids H, is inverse-closed and H-stable on both sides, and
  the H-cosets inside A form an (r,s)-regular vertex set of Cos(G,H,U), with
  adjacency ``g1H ~ g2H  iff  g1^-1 g2 in U`` counted vertex by vertex.
- ``achievable`` decides existence with a forward reachable-sums sweep over
  the inverse-closed double-coset units.  The library searches backwards
  from the target with a depth-first search and a failed-state memo; this
  sweep instead grows the set of all partial sums unit by unit, ordered so
  that A-coset blocks are closed early, and keeps a partial sum only while
  it stays below the target and matches it on every closed block.

Element 0 must be the identity; everything else is derived from ``mult``.
"""

from __future__ import annotations

_FIELD = 8                      # bits per packed block count
_GUARD_BIT = 1 << (_FIELD - 1)  # above every count, as a count is at most |G| < 128


class Table:
    """A group given only by its multiplication table (row a, column b is a*b)."""

    def __init__(self, mult):
        self.mult = [list(row) for row in mult]
        self.order = len(self.mult)
        if self.order >= _GUARD_BIT:
            raise ValueError("the oracle packs coset counts into 7 bits; order too large")
        self.inv = [row.index(0) for row in self.mult]

    def is_subgroup(self, S) -> bool:
        S = frozenset(S)
        return 0 in S and all(self.mult[a][b] in S for a in S for b in S)

    def conjugate_set(self, S, g) -> frozenset:
        """S^g = g^-1 S g."""
        gi = self.inv[g]
        return frozenset(self.mult[self.mult[gi][s]][g] for s in S)

    def left_coset_index(self, S) -> list:
        """``idx[g]`` numbers the left coset gS; coset 0 is S itself."""
        idx = [-1] * self.order
        k = 0
        for g in range(self.order):
            if idx[g] < 0:
                for s in S:
                    idx[self.mult[g][s]] = k
                k += 1
        return idx

    def double_coset(self, H, x) -> frozenset:
        return frozenset(self.mult[self.mult[h1][x]][h2] for h1 in H for h2 in H)

    def units(self, H) -> list:
        """The atomic inverse-closed unions of (H,H)-double coset covering G - H."""
        seen = set(H)
        out = []
        for x in range(self.order):
            if x in seen:
                continue
            d = self.double_coset(H, x)
            d |= self.double_coset(H, self.inv[x])
            seen |= d
            out.append(d)
        return out


def certificate_holds(T: Table, H, A, U, r: int, s: int) -> bool:
    """True iff U is a valid connection set over H and the H-cosets inside A
    are an (r,s)-regular set of Cos(G,H,U).  When A is all of G only r is
    tested, as the outside condition is vacuous."""
    H, A, U = frozenset(H), frozenset(A), frozenset(U)
    mult, inv = T.mult, T.inv
    if not (T.is_subgroup(H) and T.is_subgroup(A) and H <= A):
        return False
    if not all(0 <= u < T.order for u in U) or U & H:
        return False
    if any(inv[u] not in U for u in U):
        return False
    if any(mult[u][h] not in U or mult[h][u] not in U for u in U for h in H):
        return False
    hidx = T.left_coset_index(H)
    reps = {}
    for g in range(T.order):
        reps.setdefault(hidx[g], g)
    inside = {i for i, g in reps.items() if g in A}
    for i, gi in reps.items():
        gin = inv[gi]
        count = sum(1 for j in inside if j != i and mult[gin][reps[j]] in U)
        if count != (r if i in inside else s):
            return False
    return True


def table_matches_permutations(T: Table, perms, degree: int, generators) -> bool:
    """True iff ``perms`` (element i is perms[i]) is exactly the closure of
    the generators, given as cycles, and ``T`` is its table for the product
    "apply p, then q"."""
    def compose(p, q):
        return tuple(q[i] for i in p)

    gens = []
    for cycles in generators:
        perm = list(range(degree))
        for cycle in cycles:
            for i, point in enumerate(cycle):
                perm[point] = cycle[(i + 1) % len(cycle)]
        gens.append(tuple(perm))
    closure = {tuple(range(degree))}
    frontier = list(closure)
    while frontier:
        frontier = [y for y in {compose(x, g) for x in frontier for g in gens}
                    if y not in closure]
        closure.update(frontier)
    index = {tuple(p): i for i, p in enumerate(perms)}
    if set(index) != closure or len(index) != T.order:
        return False
    return all(index[compose(p, q)] == T.mult[index[p]][index[q]]
               for p in index for q in index)


class PairOracle:
    """Existence of (r,s) connection sets for one chain H <= A <= G."""

    def __init__(self, T: Table, H, A):
        H, A = frozenset(H), frozenset(A)
        self.index = len(A) // len(H)
        hidx = T.left_coset_index(H)
        aidx = T.left_coset_index(A)
        self.nblocks = max(aidx) + 1
        vectors = []
        for unit in T.units(H):
            vec = [0] * self.nblocks
            for u in {hidx[u]: u for u in unit}.values():  # one element per H-coset
                vec[aidx[u]] += 1
            vectors.append(vec)
        self._order_units(vectors)

    def _order_units(self, vectors) -> None:
        """Sweep order: repeatedly take the open block touched by the fewest
        remaining units and sweep all of them, so blocks close early.
        ``closes[k]`` is the mask of blocks closed after the k-th unit."""
        pending = {b: {k for k, v in enumerate(vectors) if v[b]}
                   for b in range(self.nblocks)}
        order = []
        while any(pending.values()):
            b = min((len(us), b) for b, us in pending.items() if us)[1]
            for k in sorted(pending[b]):
                order.append(k)
                for us in pending.values():
                    us.discard(k)
        self.packed = [self._pack(vectors[k]) for k in order]
        touched = [{b for b in range(self.nblocks) if vectors[k][b]} for k in order]
        last = {}
        for pos, bs in enumerate(touched):
            for b in bs:
                last[b] = pos
        self.closes = [0] * len(order)
        for b, pos in last.items():
            self.closes[pos] |= ((1 << _FIELD) - 1) << (_FIELD * b)
        self.untouched = 0
        for b in range(self.nblocks):
            if b not in last:
                self.untouched |= ((1 << _FIELD) - 1) << (_FIELD * b)

    def _pack(self, vec) -> int:
        return sum(c << (_FIELD * b) for b, c in enumerate(vec))

    def reachable(self, target) -> bool:
        """Is some sub-collection of units summing to the block vector ``target``?"""
        t = self._pack(target)
        if t & self.untouched:
            return False
        guard = self._pack([_GUARD_BIT] * self.nblocks)
        tg = t | guard
        closed = 0
        frontier = {0}
        for u, closing in zip(self.packed, self.closes):
            closed |= closing
            grown = set()
            for v in frontier:
                w = v + u
                if (tg - w) & guard == guard:  # w <= t in every block
                    grown.add(w)
            frontier |= grown
            frontier = {v for v in frontier if (v ^ t) & closed == 0}
            if not frontier:
                return False
        return t in frontier

    def exists(self, r: int, s: int) -> bool:
        if self.nblocks == 1:
            return self.reachable([r])
        return self.reachable([r] + [s] * (self.nblocks - 1))

    def achievable(self) -> list:
        """Every achievable [r, s], r in 0..|A:H|-1 and s in 0..|A:H|, in the
        order of regsets survey rows.  When A is G every s goes with an
        achievable r."""
        return [[r, s] for r in range(self.index) for s in range(self.index + 1)
                if self.exists(r, s)]
