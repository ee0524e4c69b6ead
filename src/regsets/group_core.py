"""Finite-group arithmetic on dense multiplication tables.

Elements are integers ``0..n-1`` with ``0`` always the identity.  Conjugation
is right conjugation throughout: ``h^g = g^-1 h g``.  Every representative
choice (coset representatives, quotient sections, enumeration order) picks the
minimum element id, so all outputs are deterministic.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import isqrt
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import (
    ClosureExceedsCap,
    ConstructionFailed,
    InvalidPermutation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    OrderExceedsCap,
    PNotDividing,
)

Perm = tuple[int, ...]


def _compose(p: Perm, q: Perm) -> Perm:
    """Permutation product p*q: apply p first, then q."""
    return tuple(q[i] for i in p)


def _mask_of(members: Iterable[int]) -> int:
    m = 0
    for e in members:
        m |= 1 << e
    return m


def _members_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _generated(G: "GroupTable", gens: Sequence[int]) -> int:
    """The mask of the elements reached from 0 by right multiplication by
    ``gens``.  In a finite group every inverse is a positive power, so this
    is the subgroup that ``gens`` generate."""
    mult = G.mult
    mask = 1
    stack = [0]
    while stack:
        row = mult[stack.pop()]
        for g in gens:
            y = row[g]
            if not (mask >> y) & 1:
                mask |= 1 << y
                stack.append(y)
    return mask


def _byte_rows(rows: Sequence[Sequence[int]]) -> Optional[tuple[bytes, ...]]:
    """``rows`` as bytes, or None if there are more than 256 of them or an
    entry does not fit in a byte.  This is the one test that puts a table
    on the byte kernel, which for the rows of a table means an order of at
    most 256: there composing two rows is one C-level ``bytes.translate``
    (see :func:`_translation`) instead of an ``itemgetter`` over n entries.
    Larger tables keep rows of ints, the only rows that hold their
    entries."""
    if len(rows) <= 256:
        try:
            return tuple(map(bytes, rows))
        except ValueError:  # an entry below 0 or above 255
            pass
    return None


def _translation(row: bytes) -> bytes:
    """``row`` padded to a ``bytes.translate`` table, so that
    ``p.translate(_translation(q))`` is q after p, the map y -> q[p[y]]."""
    return row.ljust(256, b"\0")


def _checked_inverses(rows: tuple) -> tuple[int, ...]:
    """The inverse of every element of a table whose rows are permutations
    of 0..n-1, whose row 0 and column 0 are the identity and in which every
    element has a two-sided inverse, each checked on whole rows; any other
    table raises :func:`_first_violation`.  ``rows`` are the bytes of
    :func:`_byte_rows` up to order 256, where a row of length n is a
    permutation when deleting its bytes from 0..n-1 leaves nothing, and
    tuples of ints above it.  The columns are not checked here: see
    :class:`GroupTable`."""
    n = len(rows)
    if n and set(map(len, rows)) == {n}:
        if isinstance(rows[0], bytes):
            ident = bytes(range(n))
            permutations = not any(map(ident.translate, repeat(None), rows))
        else:
            ident = tuple(range(n))
            permutations = all(map(set(ident).__eq__, map(set, rows)))
        kind = type(ident)
        if permutations and rows[0] == ident == kind(map(itemgetter(0), rows)):
            inv = kind(map(kind.index, rows, repeat(0)))
            # a*inv[a] = 0; that inv[a]*a = 0 too says inv is an involution
            if kind(map(inv.__getitem__, inv)) == ident:
                return tuple(inv)
    raise _first_violation(rows) or AssertionError("the whole-row checks rejected a group table")


def _first_violation(rows: Sequence[Sequence[int]]) -> Optional[Exception]:
    """The error for a table that fails one of the first four checks of
    :class:`GroupTable`: those checks in order, one row, column or element
    at a time, naming the first row, column, entry or element at fault.
    None if the table passes all four."""
    n = len(rows)
    if n == 0:
        return ValueError("multiplication table is empty")
    for i, row in enumerate(rows):
        if len(row) != n:
            return ValueError(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if not 0 <= x < n:
                return ValueError(f"entry {x} out of range 0..{n - 1}")
    full = frozenset(range(n))
    for i, row in enumerate(rows):
        if frozenset(row) != full:
            return NotLatinSquare(f"row {i} is not a permutation of 0..{n - 1}")
    for j, column in enumerate(zip(*rows)):
        if frozenset(column) != full:
            return NotLatinSquare(f"column {j} is not a permutation of 0..{n - 1}")
    for a in range(n):
        if rows[0][a] != a or rows[a][0] != a:
            return NoIdentity("index 0 does not act as the identity")
    for a in range(n):
        if rows[rows[a].index(0)][a] != 0:
            return NoInverse(f"element {a} has no two-sided inverse")
    return None


def _light_generators(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Light's associativity test on a greedily chosen generating set,
    which it returns; a failure raises NotAssociative naming the least
    (a*b)*c != a*(b*c) for the failing generator b.

    Let B be the set of b with (x*b)*y = x*(b*y) for all x, y.  B holds
    the identity 0, and it is closed under products: for b, c in B,
    (x*(b*c))*y = ((x*b)*c)*y = (x*b)*(c*y) = x*(b*(c*y)) = x*((b*c)*y),
    using b in B, c in B (with x*b for x), b in B (with c*y for y) and c
    in B (with b for x) in turn.  So once every generator passes, B
    contains every element reachable from 0 by right multiplication by
    generators, and the generators are picked until that is the whole
    table.  Each generator b costs one comparison of row a*b with
    a*(b*y) over all y per a, made for all a at once: on the byte rows of
    :func:`_byte_rows` row a*(b*y) is one ``bytes.translate`` of row b,
    and on rows of ints one ``itemgetter`` over n entries.

    A generator is tested before the next is picked.  While all tested
    generators pass, the reached set R lies in B and is closed under
    products, and every row is a permutation (left cancellation).  So
    for r in R, y -> r*y maps R onto R, and the y with r*y = 0 lies in
    R.  The next generator g lies outside R, so g*R is disjoint from R
    (g*r = x in R would give g = (g*r)*y = x*y in R, as r lies in B),
    has |R| elements, and is reached too: R at least doubles.  Hence
    at most ceil(log2 n) generators are ever tested, and the whole
    check costs O(n^2 log n) on any table with permutation rows, group
    or not.
    """
    n = len(rows)
    tables = list(map(_translation, rows)) if n and isinstance(rows[0], bytes) else None
    seen = bytearray(n)
    seen[0] = 1
    reached = [0]
    gens: list[int] = []
    candidate = 1
    while len(reached) < n:
        while seen[candidate]:
            candidate += 1
        b = candidate
        rowb = rows[b]
        # row a*(b*y) over all y, then row (a*b)*y, for every a
        if tables is None:
            times_b = list(map(itemgetter(*rowb), rows))  # n >= 2: tuples
        else:
            times_b = list(map(rowb.translate, tables))
        then_b = [rows[row[b]] for row in rows]
        if then_b != times_b:
            a = next(a for a in range(n) if then_b[a] != times_b[a])
            c = next(c for c in range(n) if then_b[a][c] != times_b[a][c])
            raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
        gens.append(b)
        stack = list(reached)
        while stack:
            row = rows[stack.pop()]
            for g in gens:
                y = row[g]
                if not seen[y]:
                    seen[y] = 1
                    reached.append(y)
                    stack.append(y)
    return tuple(gens)


class GroupTable:
    """A finite group given by its full multiplication table.

    The constructor validates all group axioms exactly, at every order, and
    reports the first failure in this order: every row has n entries in
    0..n-1, the rows and then the columns are permutations, index 0 acts as
    the identity, every element has a two-sided inverse, and associativity
    holds, by Light's test on a generating set in O(n^2 log n).  Rows may
    be given as ``bytes``, whose entries are exact ints by type; entries of
    other rows that are not exact ints go through ``int`` once, and rows of
    exact ints are kept as they are.  ``mult`` is always a tuple of tuples
    of exact ints.

    Each check is made once, on whole rows.  Up to order 256 the rows are
    checked as bytes (:func:`_byte_rows`), so each check is one C call per
    row or per generator: deleting a row's bytes from 0..n-1, ``index``
    for the inverses, and ``bytes.translate`` to compose rows in Light's
    test.  Above 256 a row no longer fits in bytes, so the same checks run
    on the rows of ints, with a set per row and ``itemgetter`` to compose;
    that path serves every order up to ``closure_cap``.  The columns get no
    pass of their own: a table with permutation rows, a two-sided identity
    and two-sided inverses that passes Light's test is associative, hence a
    group, hence its columns are permutations too.  Light's test keeps its
    O(n^2 log n) bound on such tables, since its doubling argument needs
    only left cancellation, which the rows give.  So a table with a column
    that is not a permutation fails a row check or Light's test.  A table
    that fails any check goes to :func:`_first_violation`, which repeats
    the first four checks one row, column or element at a time and names
    the first violation; NotAssociative is raised only if those all pass.
    ``generators`` keeps the generating set that Light's test picked.
    """

    identity = 0

    def __init__(
        self,
        mult: Sequence[Sequence[int]],
        label: str = "G",
        spec: Optional[dict] = None,
    ):
        given = tuple(mult)
        mult = tuple(map(tuple, given))  # keeps rows that are tuples already
        if set(map(type, given)) != {bytes}:  # the entries of bytes are exact ints
            if not set(map(type, chain.from_iterable(mult))) <= {int}:
                mult = tuple(tuple(map(int, row)) for row in mult)
            given = mult
        rows = _byte_rows(given) or mult  # the rows that every check reads
        self.order = len(mult)
        self.mult = mult
        self.label = label
        self.spec = spec
        self._cache: dict = {}
        self.inv = _checked_inverses(rows)
        try:
            self.generators = _light_generators(rows)
        except NotAssociative as exc:
            # a column that is not a permutation is reported as such
            raise _first_violation(mult) or exc from None

    # -- basic arithmetic -----------------------------------------------

    def conjugate(self, a: int, g: int) -> int:
        """Right conjugate a^g = g^-1 a g."""
        return self.mult[self.mult[self.inv[g]][a]][g]

    def element_order(self, a: int) -> int:
        x = a
        k = 1
        while x != 0:
            x = self.mult[x][a]
            k += 1
        return k

    def full_subgroup(self) -> "Subgroup":
        sub = self._cache.get("full_subgroup")
        if sub is None:
            sub = Subgroup(self, range(self.order))
            self._cache["full_subgroup"] = sub
        return sub

    def __repr__(self) -> str:
        return f"GroupTable({self.label!r}, order={self.order})"


class Subgroup:
    """A validated subgroup of a :class:`GroupTable`, stored as a sorted
    member tuple plus a bitmask for fast set algebra."""

    def __init__(self, parent: GroupTable, members: Iterable[int]):
        self.parent = parent
        mems = sorted(set(int(m) for m in members))
        n = parent.order
        for m in mems:
            if not 0 <= m < n:
                raise ValueError(f"element {m} out of range 0..{n - 1}")
        if not mems or mems[0] != 0:
            raise ValueError("subgroup must contain the identity 0")
        memset = frozenset(mems)
        mult = parent.mult
        inv = parent.inv
        for a in mems:
            if inv[a] not in memset:
                raise ValueError(f"subgroup not closed under inverse at {a}")
            row = mult[a]
            for b in mems:
                if row[b] not in memset:
                    raise ValueError(f"subgroup not closed under product at ({a},{b})")
        if n % len(mems) != 0:
            raise ValueError("subgroup order does not divide the group order")
        self.members = tuple(mems)
        self.mask = _mask_of(mems)
        self.order = len(mems)

    def __contains__(self, e: int) -> bool:
        return bool((self.mask >> e) & 1)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.mask == self.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.mask))

    def is_subset_of(self, other: "Subgroup") -> bool:
        return self.mask & ~other.mask == 0

    def __repr__(self) -> str:
        if self.order <= 12:
            return f"Subgroup({list(self.members)} of {self.parent.label})"
        return f"Subgroup(order={self.order} of {self.parent.label})"


class QuotientGroup:
    """Quotient of a subgroup by a normal subgroup, with projection/section.

    ``projection`` maps every element of the subgroup to its coset index in
    ``table``; ``section`` picks the minimum-id representative per coset.
    """

    def __init__(
        self,
        base: GroupTable,
        table: GroupTable,
        projection: dict[int, int],
        section: tuple[int, ...],
    ):
        self.base = base
        self.table = table
        self.projection = projection
        self.section = section

    def __repr__(self) -> str:
        return f"QuotientGroup(order={self.table.order} of {self.base.label})"


def trivial_subgroup(G: GroupTable) -> Subgroup:
    sub = G._cache.get("trivial_subgroup")
    if sub is None:
        sub = Subgroup(G, (0,))
        G._cache["trivial_subgroup"] = sub
    return sub


# -- constructors --------------------------------------------------------


def _bfs_table(identity, generators: Sequence, multiply, cap: int) -> tuple[tuple, tuple]:
    """Close ``generators`` under the associative ``multiply``, numbering
    the elements in BFS discovery order from ``identity`` with the
    generators in input order.  Returns the elements and the rows of their
    multiplication table: bytes when :func:`_byte_rows` takes the
    generators' right-multiplication maps, as it does up to order 256, and
    tuples of ints otherwise.  An element beyond the first ``cap`` raises
    ClosureExceedsCap."""
    index = {identity: 0}
    elements = [identity]
    # right[k][i] = index of elements[i]*generators[k];
    # spanning tree y = parent[y]*generators[via[y]]
    right: list[list[int]] = [[] for _ in generators]
    parent = [0]
    via = [0]
    for i, x in enumerate(elements):  # grows while iterating: a BFS queue
        for k, g in enumerate(generators):
            y = multiply(x, g)
            j = index.get(y)
            if j is None:
                if len(elements) >= cap:
                    raise ClosureExceedsCap(f"closure exceeded cap {cap}")
                j = index[y] = len(elements)
                elements.append(y)
                parent.append(i)
                via.append(k)
            right[k].append(j)

    # Column y of the table is the map i -> elements[i]*elements[y].  With
    # elements[y] = elements[x]*g this is column x followed by right[g], so
    # each column after the first costs one composition of index maps: one
    # bytes.translate on the byte kernel, and the rows are the transpose.
    n = len(elements)
    maps = _byte_rows(right)
    if maps is None:
        columns = [tuple(range(n))]
        for y in range(1, n):
            columns.append(tuple(map(right[via[y]].__getitem__, columns[parent[y]])))
        return tuple(elements), tuple(zip(*columns))
    tables = list(map(_translation, maps))
    columns = [bytes(range(n))]
    for y in range(1, n):
        columns.append(columns[parent[y]].translate(tables[via[y]]))
    return tuple(elements), tuple(map(bytes, zip(*columns)))


def from_generators(
    degree: int,
    generators: Sequence[Sequence[int]],
    label: Optional[str] = None,
    limits: Optional[Limits] = None,
) -> GroupTable:
    """Close a list of permutations on ``0..degree-1`` into a group table.

    Elements are numbered in BFS discovery order from the identity, using
    the generators in input order, so the result is deterministic.  The
    resulting table carries the discovered permutations in ``.perms``.
    """
    limits = limits if limits is not None else DEFAULT_LIMITS
    if degree < 1:
        raise ValueError("degree must be positive")
    gens: list[Perm] = []
    for g in generators:
        p = tuple(int(x) for x in g)
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise InvalidPermutation(f"{list(g)} is not a permutation of 0..{degree - 1}")
        gens.append(p)

    perms, rows = _bfs_table(tuple(range(degree)), gens, _compose, limits.closure_cap)
    table = GroupTable(rows, label=label or f"perm{degree}<{len(perms)}>")
    table.perms = perms
    return table


def from_table(
    matrix: Sequence[Sequence[int]],
    label: Optional[str] = None,
    limits: Optional[Limits] = None,
) -> GroupTable:
    """Validate an explicit multiplication table, relabelling so the
    identity sits at index 0.  :class:`GroupTable` makes every check; a
    Latin square that it rejects only because 0 is not the identity has its
    two-sided identity, if any, swapped with 0 and is validated again."""
    limits = limits if limits is not None else DEFAULT_LIMITS
    n = len(matrix)
    if n > limits.closure_cap:
        raise OrderExceedsCap(f"table order {n} exceeds cap {limits.closure_cap}")
    label = label or f"table<{n}>"
    try:
        return GroupTable(matrix, label=label)
    except NoIdentity:
        pass  # rows and columns are permutations of 0..n-1
    rows = [tuple(map(int, row)) for row in matrix]
    ident = tuple(range(n))
    e = next((c for c, column in enumerate(zip(*rows)) if column == ident == rows[c]), None)
    if e is None:
        raise NoIdentity("table has no two-sided identity")
    sigma = list(ident)
    sigma[0], sigma[e] = e, 0
    swapped = itemgetter(*sigma)  # n >= 2 here, so this yields tuples
    return GroupTable(
        [tuple(map(sigma.__getitem__, swapped(rows[a]))) for a in sigma], label=label
    )


# -- subgroup operations --------------------------------------------------


def generate_subgroup(G: GroupTable, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of ``G`` containing ``seed``."""
    gens = tuple(map(int, seed))
    for s in gens:
        if not 0 <= s < G.order:
            raise ValueError(f"element {s} out of range")
    return Subgroup(G, _members_of(_generated(G, gens)))


def _conjugate_mask(G: GroupTable, H: Subgroup, g: int) -> int:
    mult = G.mult
    gi = mult[G.inv[g]]
    m = 0
    for h in H.members:
        m |= 1 << mult[gi[h]][g]
    return m


def normalizer(G: GroupTable, H: Subgroup) -> Subgroup:
    """Largest subgroup of ``G`` in which ``H`` is normal."""
    if H.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    cached = G._cache.get(("normalizer", H.mask))
    if cached is not None:
        return cached
    members = [g for g in range(G.order) if _conjugate_mask(G, H, g) == H.mask]
    result = Subgroup(G, members)
    G._cache[("normalizer", H.mask)] = result
    return result


def set_product(G: GroupTable, A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
    """The element set ``{a*b : a in A, b in B}``."""
    B = tuple(B)
    out = set()
    mult = G.mult
    for a in A:
        row = mult[a]
        for b in B:
            out.add(row[b])
    return frozenset(out)


def product_is_group(N: Subgroup, A: Subgroup) -> bool:
    """True iff N*A is the whole parent group.  For subgroups,
    |NA| = |N||A| / |N meet A|, so this holds exactly when
    |N||A| = |G| |N meet A|."""
    if N.parent is not A.parent:
        raise ValueError("subgroups of different groups")
    return N.order * A.order == N.parent.order * (N.mask & A.mask).bit_count()


def is_normal(H: Subgroup, K: Subgroup) -> bool:
    """True iff ``H^k = H`` for every ``k`` in ``K``, that is iff ``K`` lies
    in the normalizer of ``H``; requires ``H <= K``."""
    if H.parent is not K.parent:
        raise ValueError("subgroups of different groups")
    if not H.is_subset_of(K):
        raise ValueError("first subgroup is not contained in the second")
    return not K.mask & ~normalizer(H.parent, H).mask


def quotient(N: Subgroup, K: Subgroup) -> QuotientGroup:
    """Quotient group ``N/K`` on left cosets of ``K``, with projection and
    minimum-representative section."""
    G = N.parent
    if not K.is_subset_of(N):
        raise ValueError("kernel is not contained in the domain")
    if not is_normal(K, N):
        raise NotNormal("kernel is not normal in the domain")
    mult = G.mult
    projection: dict[int, int] = {}
    section: list[int] = []
    for m in N.members:  # ascending, so each coset rep is its minimum
        if m in projection:
            continue
        idx = len(section)
        section.append(m)
        row = mult[m]
        for k in K.members:
            projection[row[k]] = idx
    q = len(section)
    qmult = [
        [projection[mult[section[i]][section[j]]] for j in range(q)] for i in range(q)
    ]
    table = GroupTable(qmult, label=f"{G.label}/k{K.order}")
    return QuotientGroup(G, table, projection, tuple(section))


def sylow_subgroup(A: Subgroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of ``A``; a ``p`` that is not a prime dividing
    ``|A|`` raises PNotDividing.

    P grows from 1 by adjoining the least ``y`` of N_A(P) outside P with
    ``y^p`` in P, so each step multiplies |P| by p.  While P is not Sylow, p
    divides |N_A(P) : P|, and Cauchy's theorem in N_A(P)/P gives such a
    ``y``.  The choice of ``y`` makes the result deterministic.
    """
    if p >= 2 and A.order % p != 0:
        raise PNotDividing(f"{p} does not divide {A.order}")
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):  # p <= |A| here
        raise PNotDividing(f"{p} is not a prime")
    G = A.parent
    mult = G.mult
    target = 1
    rest = A.order
    while rest % p == 0:
        target *= p
        rest //= p
    P = trivial_subgroup(G)
    gens: list[int] = []
    while P.order < target:
        pm = P.mask
        for y in A.members:
            if (pm >> y) & 1:
                continue
            z = y
            for _ in range(p - 1):
                z = mult[z][y]
            if (pm >> z) & 1 and _conjugate_mask(G, P, y) == pm:
                break
        else:  # Cauchy guarantees a y while P is not Sylow
            raise ConstructionFailed("no y of N_A(P) outside P with y^p in P")
        gens.append(y)
        P = generate_subgroup(G, gens)
    return P


def all_subgroups(G: GroupTable, limits: Optional[Limits] = None) -> list[Subgroup]:
    """Every subgroup of ``G``, sorted by (order, member list).

    Cyclic extension: every subgroup is generated by cyclic subgroups, so
    starting from the distinct cyclic subgroups and extending each subgroup
    found in the last layer by each cyclic subgroup not inside it reaches
    them all.  The closure runs on masks, and one :class:`Subgroup` is built
    per distinct mask at the end.
    """
    limits = limits if limits is not None else DEFAULT_LIMITS
    if G.order > limits.enumeration_cap:
        raise OrderExceedsCap(
            f"group order {G.order} exceeds enumeration cap {limits.enumeration_cap}"
        )
    cached = G._cache.get("all_subgroups")
    if cached is not None:
        return list(cached)
    cyclic: dict[int, int] = {}  # mask -> least generator
    for x in range(G.order):
        cyclic.setdefault(_generated(G, (x,)), x)
    found = {m: (x,) for m, x in cyclic.items()}  # mask -> generators
    layer = list(found)
    while layer:
        extended = []
        for m in layer:
            gens = found[m]
            for c, x in cyclic.items():
                if c & ~m:
                    j = _generated(G, gens + (x,))
                    if j not in found:
                        found[j] = gens + (x,)
                        extended.append(j)
        layer = extended
    ordered = sorted(map(_members_of, found), key=lambda mem: (len(mem), mem))
    result = [Subgroup(G, mem) for mem in ordered]
    G._cache["all_subgroups"] = result
    return list(result)


# -- automorphisms ---------------------------------------------------------


def _extend_map(mult, gens: Sequence[int], images: Sequence[int], phi: list[int],
                domain: list[int], image: int) -> Optional[tuple[list[int], list[int], int]]:
    """Extend ``phi``, an injective homomorphism on ``domain`` =
    <gens[:i]> with image mask ``image``, to <gens[:i+1]> by
    gens[j] -> images[j] (j <= i).  Elements are mapped by BFS along the
    edges y -> y*gens[j], phi(y*gens[j]) = phi(y)*images[j]; the map is
    rejected (None) at the first edge that conflicts with an assigned image
    or collides with another element's.  ``phi`` passed every edge of the
    old generators on ``domain``, so there only the new generator's edges
    are walked; every new element walks all of them."""
    i = len(images) - 1
    phi = phi.copy()
    edges = tuple(zip(gens[:i + 1], images))
    new_edges = edges[i:]
    old = len(domain)
    queue = list(domain)
    for k, y in enumerate(queue):  # grows while iterating: a BFS queue
        row, image_row = mult[y], mult[phi[y]]
        for g, x in new_edges if k < old else edges:
            z = row[g]
            w = image_row[x]
            f = phi[z]
            if f < 0:
                if (image >> w) & 1:
                    return None
                phi[z] = w
                image |= 1 << w
                queue.append(z)
            elif f != w:
                return None
    return phi, queue, image


def _orbit_mask(x: int, maps: Sequence[Sequence[int]]) -> int:
    """The mask of the orbit of ``x`` under the group the permutations
    ``maps`` generate."""
    mask = 1 << x
    stack = [x]
    while stack:
        y = stack.pop()
        for phi in maps:
            z = phi[y]
            if not (mask >> z) & 1:
                mask |= 1 << z
                stack.append(z)
    return mask


def automorphism_generators(G: GroupTable) -> tuple[tuple[int, ...], ...]:
    """A generating set of Aut(G), each automorphism as the tuple of the
    images of 0..n-1.  Memoized in ``G._cache``.

    An automorphism is fixed by the images of the generators g_1..g_k that
    Light's test picked (``G.generators``).  Each g_i may only go to an
    element with the same order, centralizer order and number of square
    roots (|{y : y^2 = g_i}|); an automorphism keeps all three, so these
    filters drop no automorphism and change no search result.  A partial
    map is extended over <g_1..g_i> by :func:`_extend_map` and dropped at
    its first conflict or collision, so a map that reaches all of G
    satisfies phi(y*g_j) = phi(y)*phi(g_j) for every y and j, hence is a
    homomorphism, and it is injective: every returned map is a verified
    automorphism.

    The generating set comes from the stabilizer chain Aut(G) = A_0 >= A_1
    >= ... >= A_k = 1, where A_i fixes g_1..g_i, walked from i = k up.  At
    level i every automorphism found so far lies in A_(i-1), and those
    found at deeper levels generate A_i.  A candidate image x of g_i
    already in the orbit of g_i under the maps found so far is skipped;
    for any other x the search looks for one map of A_(i-1) with
    g_i -> x.  One found is added; none found rules out the whole orbit of
    x under A_i.  The maps found then reach the whole A_(i-1)-orbit of g_i
    and generate a group containing A_i, the stabilizer of g_i in A_(i-1),
    so they generate A_(i-1).  The search is deterministic (candidates in ascending order).
    """
    cached = G._cache.get("automorphism_generators")
    if cached is not None:
        return cached
    n = G.order
    mult = G.mult
    gens = G.generators
    k = len(gens)
    columns = tuple(zip(*mult))
    roots = [0] * n  # roots[x]: the number of y with y^2 = x
    for square in map(tuple.__getitem__, mult, range(n)):
        roots[square] += 1
    invariant = [
        (G.element_order(x), sum(map(int.__eq__, mult[x], columns[x])), roots[x])
        for x in range(n)
    ]
    candidates = [[x for x in range(n) if invariant[x] == invariant[g]] for g in gens]
    # identity[i]: the identity map on <g_1..g_i>, as (phi, domain, image mask)
    identity = [([0] + [-1] * (n - 1), [0], 1)]
    for i in range(k):
        identity.append(_extend_map(mult, gens, gens[:i + 1], *identity[i]))

    def search(images: list[int], state) -> Optional[list[int]]:
        """The first automorphism, in candidate order, that extends the map
        ``state`` by ``images``, the images of the first generators."""
        extended = _extend_map(mult, gens, images, *state)
        if extended is None or len(images) == k:
            return extended and extended[0]
        for x in candidates[len(images)]:
            found = search(images + [x], extended)
            if found is not None:
                return found
        return None

    found: list[tuple[int, ...]] = []
    for i in reversed(range(k)):  # gens[i] is g_(i+1)
        stabilizer = found[:]  # generates A_(i+1), which fixes gens[i]
        orbit = 1 << gens[i]
        ruled_out = 0
        for x in candidates[i]:
            if ((orbit | ruled_out) >> x) & 1:
                continue
            phi = search([*gens[:i], x], identity[i])
            if phi is None:
                ruled_out |= _orbit_mask(x, stabilizer)
            else:
                found.append(tuple(phi))
                orbit = _orbit_mask(gens[i], found)
    result = tuple(found)
    G._cache["automorphism_generators"] = result
    return result


def involution_exists_in_coset(G: GroupTable, x: int, A: Subgroup,
                               N: Optional[Subgroup] = None,
                               H: Optional[Subgroup] = None) -> bool:
    """True iff some ``y`` in the coset ``xA`` lies in ``N`` and has ``y^2``
    in ``H``; by default ``N = G`` and ``H = 1``, so ``y`` is an involution
    or the identity.  With ``N = N_G(H)`` this asks for an element of
    ``N_G(H)/H`` of order at most 2 in the image of ``xA``.

    Intended for ``x`` outside ``A``; for ``x`` in ``A`` the coset contains
    the identity and the answer is trivially True.
    """
    mult = G.mult
    nmask = -1 if N is None else N.mask  # -1 has every bit set
    hmask = 1 if H is None else H.mask  # bit 0 is the identity
    row = mult[x]
    for a in A.members:
        y = row[a]
        if (nmask >> y) & 1 and (hmask >> mult[y][y]) & 1:
            return True
    return False


def square_roots_lift(G: GroupTable, A: Subgroup, N: Optional[Subgroup] = None,
                      H: Optional[Subgroup] = None) -> bool:
    """True iff :func:`involution_exists_in_coset` holds for every ``x`` with
    ``x^2`` in ``A``: some ``b`` in ``A`` has ``xb`` in ``N`` and ``(xb)^2``
    in ``H``.  Elements ``x`` of ``A`` are skipped, since ``b = x^-1`` gives
    ``xb = 1``."""
    mult = G.mult
    amask = A.mask
    return all(
        involution_exists_in_coset(G, x, A, N, H)
        for x in range(G.order)
        if not (amask >> x) & 1 and (amask >> mult[x][x]) & 1
    )
