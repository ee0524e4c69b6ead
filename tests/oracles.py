"""Definition-level reimplementations used to cross-check the library.

Everything here works straight from first principles (set closures, naive
partition scans, adjacency from the defining relation) and shares only the
raw multiplication table with the code under test.  The exceptions are the
quotient-table forms at the end, which decide a criterion the way the
library once did, on a quotient table built by the library.
"""

from __future__ import annotations

from itertools import combinations, product


def perm_compose(p, q):
    """Product p*q: apply p first, then q."""
    return tuple(q[i] for i in p)


def perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_closure(degree, gens):
    """Unordered set closure of permutations under composition."""
    els = {tuple(range(degree))}
    els.update(tuple(g) for g in gens)
    changed = True
    while changed:
        changed = False
        for a in list(els):
            for b in list(els):
                c = perm_compose(a, b)
                if c not in els:
                    els.add(c)
                    changed = True
    return els


def perm_table_all_pairs(degree, gens):
    """Permutations and multiplication table the way the library first
    built them: BFS from the identity over the generators in input order,
    then one composition per ordered pair of elements."""
    identity = tuple(range(degree))
    index = {identity: 0}
    perms = [identity]
    queue = [identity]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = perm_compose(x, tuple(g))
            if y not in index:
                index[y] = len(perms)
                perms.append(y)
                queue.append(y)
    mult = tuple(tuple(index[perm_compose(p, q)] for q in perms) for p in perms)
    return tuple(perms), mult


def associativity_failure(mult):
    """The first triple (a, b, c) with (a*b)*c != a*(b*c), or None."""
    n = len(mult)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mult[mult[a][b]][c] != mult[a][mult[b][c]]:
                    return (a, b, c)
    return None


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    in_row = [{i} for i in range(n)]
    in_col = [{j} for j in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in rows)
            return
        i, j = cells[k]
        for v in range(n):
            if v in in_row[i] or v in in_col[j]:
                continue
            rows[i][j] = v
            in_row[i].add(v)
            in_col[j].add(v)
            yield from fill(k + 1)
            in_row[i].discard(v)
            in_col[j].discard(v)

    yield from fill(0)


def is_subgroup_set(G, subset) -> bool:
    ss = frozenset(subset)
    if 0 not in ss:
        return False
    for a in ss:
        if G.inv[a] not in ss:
            return False
        for b in ss:
            if G.mult[a][b] not in ss:
                return False
    return True


def all_subgroup_sets(G):
    """All subgroups by filtering every subset; only sane for |G| <= 12."""
    n = G.order
    rest = list(range(1, n))
    out = []
    for k in range(n):
        if n % (k + 1) != 0:
            continue
        for combo in combinations(rest, k):
            ss = frozenset((0,) + combo)
            if is_subgroup_set(G, ss):
                out.append(ss)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def subgroup_closure(G, seed):
    """The subgroup generated by ``seed``: the seed, its inverses and the
    identity, closed under products."""
    gens = {0}
    for x in seed:
        gens.add(x)
        gens.add(G.inv[x])
    els = set(gens)
    frontier = list(els)
    while frontier:
        new = []
        for a in frontier:
            row = G.mult[a]
            for g in gens:
                c = row[g]
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return frozenset(els)


def join_closure_subgroups(G):
    """Every subgroup as a member tuple, sorted by (order, members): the
    cyclic subgroups closed under pairwise joins until a fixed point."""
    found = {subgroup_closure(G, (x,)) for x in range(G.order)}
    queue = list(found)
    while queue:
        s1 = queue.pop()
        for s2 in list(found):
            joined = s1 | s2
            if joined == s1 or joined == s2 or joined in found:
                continue
            sub = subgroup_closure(G, joined)
            if sub not in found:
                found.add(sub)
                queue.append(sub)
    return sorted((tuple(sorted(s)) for s in found), key=lambda m: (len(m), m))


def sylow_by_closure(G, amembers, p):
    """The Sylow p-subgroup of the subgroup with ``amembers`` that
    ``sylow_subgroup`` picks, as a member tuple: from 1, adjoin the least y
    of A outside P with y^p in P and P^y = P, closing P each time."""
    target = 1
    while len(amembers) % (target * p) == 0:
        target *= p
    P = frozenset({0})
    gens = []
    while len(P) < target:
        for y in sorted(amembers):
            z = 0
            for _ in range(p):
                z = G.mult[z][y]
            if y not in P and z in P and conjugate_set(G, P, y) == P:
                break
        gens.append(y)
        P = subgroup_closure(G, gens)
    return tuple(sorted(P))


def left_coset_sets(G, hset):
    hs = sorted(hset)
    seen = set()
    cosets = []
    for g in range(G.order):
        if g in seen:
            continue
        cs = frozenset(G.mult[g][h] for h in hs)
        cosets.append(cs)
        seen |= cs
    return cosets


def double_coset_set(G, hset, x):
    return frozenset(
        G.mult[G.mult[h1][x]][h2] for h1 in hset for h2 in hset
    )


def inverse_closed_units(G, hset):
    """Atomic inverse-closed double-coset unions covering G minus H."""
    classes = []
    seen = set(hset)
    for x in range(G.order):
        if x in seen:
            continue
        d = double_coset_set(G, hset, x)
        classes.append(d)
        seen |= d
    units = []
    used = set()
    for i, d in enumerate(classes):
        if i in used:
            continue
        used.add(i)
        dinv = frozenset(G.inv[m] for m in d)
        if dinv == d:
            units.append(d)
        else:
            j = next(k for k, e in enumerate(classes) if e == dinv)
            used.add(j)
            units.append(d | dinv)
    return units


def graph_profile(G, hset, U, aset):
    """(r, s) profile of the A-cosets in the coset graph over H with
    connection set U, from the defining adjacency; None when not regular and
    s None when A covers everything."""
    cosets = left_coset_sets(G, hset)
    reps = [min(c) for c in cosets]
    nv = len(reps)
    inside = [min(c) in aset for c in cosets]
    r = None
    s = None
    for i, gi in enumerate(reps):
        gin = G.inv[gi]
        cnt = 0
        for j, gj in enumerate(reps):
            if i != j and G.mult[gin][gj] in U and inside[j]:
                cnt += 1
        if inside[i]:
            if r is None:
                r = cnt
            elif cnt != r:
                return None
        else:
            if s is None:
                s = cnt
            elif cnt != s:
                return None
    return (r, s)


def achievable_profiles(G, hset, asets):
    """For each subgroup set in ``asets``: every (r, s) realized by some
    valid connection set, enumerating all of them.  The s component is None
    when the subgroup covers the whole group."""
    units = inverse_closed_units(G, hset)
    cosets = left_coset_sets(G, hset)
    reps = [min(c) for c in cosets]
    nv = len(reps)
    connect = [
        [G.mult[G.inv[gi]][gj] for gj in reps] for gi in reps
    ]
    amasks = []
    for aset in asets:
        m = 0
        for i, c in enumerate(cosets):
            if min(c) in aset:
                m |= 1 << i
        amasks.append(m)
    results = [set() for _ in asets]
    for bits in range(1 << len(units)):
        U = set()
        for k in range(len(units)):
            if (bits >> k) & 1:
                U |= units[k]
        masks = []
        for i in range(nv):
            row = connect[i]
            m = 0
            for j in range(nv):
                if i != j and row[j] in U:
                    m |= 1 << j
            masks.append(m)
        for amask, res in zip(amasks, results):
            r = None
            s = None
            ok = True
            for v in range(nv):
                cnt = (masks[v] & amask).bit_count()
                if (amask >> v) & 1:
                    if r is None:
                        r = cnt
                    elif cnt != r:
                        ok = False
                        break
                else:
                    if s is None:
                        s = cnt
                    elif cnt != s:
                        ok = False
                        break
            if ok:
                res.add((r, s))
    return results


def divisibility_by_set_products(G, hset, aset):
    """The divisibility condition by explicit element sets: |H A^x| divides
    |A A^x| for every x, with each product listed element by element."""
    mult = G.mult
    for x in range(G.order):
        ax = {mult[mult[G.inv[x]][a]][x] for a in aset}
        hax = {mult[h][y] for h in hset for y in ax}
        aax = {mult[a][y] for a in aset for y in ax}
        if len(aax) % len(hax) != 0:
            return False
    return True


def conjugate_set(G, subset, g):
    """The right conjugate g^-1 S g of an element set."""
    mult = G.mult
    return frozenset(mult[mult[G.inv[g]][s]][g] for s in subset)


def automorphisms_brute_force(G):
    """Every automorphism of ``G``, as the tuple of the images of 0..n-1.
    A generating set is picked greedily (the least element outside the
    subgroup generated so far), every tuple of images of it is extended
    along words in the generators, and a tuple is kept when the map is a
    bijection that preserves all n^2 products of the table."""
    n = G.order
    mult = G.mult
    gens = []
    reached = frozenset({0})
    while len(reached) < n:
        gens.append(min(set(range(n)) - reached))
        reached = subgroup_closure(G, gens)
    word = {0: None}  # y -> (x, j) with y = x * gens[j]
    order = [0]
    for y in order:
        for j, g in enumerate(gens):
            z = mult[y][g]
            if z not in word:
                word[z] = (y, j)
                order.append(z)
    out = []
    for images in product(range(n), repeat=len(gens)):
        phi = [0] * n
        for y in order[1:]:
            x, j = word[y]
            phi[y] = mult[phi[x]][images[j]]
        # phi(a*b) = phi(a)*phi(b) for every b, one row a at a time
        if len(set(phi)) == n and all(
            tuple(map(phi.__getitem__, mult[a])) == tuple(map(mult[phi[a]].__getitem__, phi))
            for a in range(n)
        ):
            out.append(tuple(phi))
    return out


def permutation_group(maps, degree):
    """The group generated by the permutations ``maps`` of 0..degree-1, as a
    set of tuples: the identity closed under composition with each map."""
    identity = tuple(range(degree))
    els = {identity}
    stack = [identity]
    while stack:
        p = stack.pop()
        for m in maps:
            q = perm_compose(p, m)
            if q not in els:
                els.add(q)
                stack.append(q)
    return els


def pair_orbit_representatives(pairs, automorphisms):
    """The first pair of each orbit of ``pairs`` (given as (H, A) element
    sets) under (H, A) -> (phi(H), phi(A)) for every phi in
    ``automorphisms``, which must be a whole group, in ``pairs`` order."""
    seen = set()
    reps = []
    for hset, aset in pairs:
        if (hset, aset) in seen:
            continue
        reps.append((hset, aset))
        for phi in automorphisms:
            seen.add((frozenset(map(phi.__getitem__, hset)),
                      frozenset(map(phi.__getitem__, aset))))
    return reps


def conjugate_intersection_elementwise(G, hset, aset):
    """The necessary conjugate-intersection condition element by element,
    as the library first tested it: every g has some a in A such that, with
    c = ga, each t = c u c^-1 (u in H) lies in A exactly when it lies in H."""
    mult, inv = G.mult, G.inv
    for g in range(G.order):
        if not any(
            all((t in aset) == (t in hset)
                for t in (mult[mult[c][u]][inv[c]] for u in hset))
            for c in (mult[g][a] for a in aset)
        ):
            return False
    return True


def pair_components(G, hset, aset):
    """The components of the pair (G, H, A) as the library first built
    them, from element sets: the units of G minus H with their H-coset
    counts per left A-coset, the blocks joined by a list-based union-find
    under "some unit touches both", and each component's units ordered by
    repeatedly sweeping every remaining unit of the open block touched by
    the fewest.  Classes are numbered by least element, A-cosets likewise
    (block 0 is A), units by their first class, components by their least
    block.  Per component: (class ids of each unit in sweep order, packed
    vectors, closes, ones, width), the fields of :class:`_Component`."""
    classes = []
    seen = set(hset)
    for x in range(G.order):
        if x not in seen:
            classes.append(double_coset_set(G, hset, x))
            seen |= classes[-1]
    class_of = {g: i for i, d in enumerate(classes) for g in d}
    cosets = left_coset_sets(G, aset)
    block_of = {g: b for b, c in enumerate(cosets) for g in c}
    nblocks, hord = len(cosets), len(hset)
    units = []  # (class ids, H-coset count per block)
    for i, d in enumerate(classes):
        j = class_of[G.inv[min(d)]]
        if j >= i:
            ids = (i,) if j == i else (i, j)
            vec = [0] * nblocks
            for c in ids:
                for g in classes[c]:
                    vec[block_of[g]] += 1
            units.append((ids, [v // hord for v in vec]))
    root = list(range(nblocks))

    def find(b):
        while root[b] != b:
            b = root[b]
        return b

    firsts = []
    for _, vec in units:
        touched = [b for b, c in enumerate(vec) if c]
        for b in touched[1:]:
            root[find(b)] = find(touched[0])
        firsts.append(touched[0])
    blocks_of = {}
    for b in range(nblocks):
        blocks_of.setdefault(find(b), []).append(b)
    units_of = {r: [] for r in blocks_of}
    for u, first in zip(units, firsts):
        units_of[find(first)].append(u)
    index = len(aset) // hord
    out = []
    for r, blocks in blocks_of.items():
        comp = units_of[r]
        pending = {b: [k for k, (_, vec) in enumerate(comp) if vec[b]] for b in blocks}
        order = []
        while len(order) < len(comp):
            first = min((b for b in blocks if pending[b]), key=lambda b: len(pending[b]))
            taken = pending[first]
            order.extend(taken)
            for b in blocks:
                pending[b] = [k for k in pending[b] if k not in taken]
        width = index.bit_length() + 2
        vectors = tuple(sum(comp[k][1][b] << (width * i) for i, b in enumerate(blocks))
                        for k in order)
        closes = [0] * len(order)
        for i, b in enumerate(blocks):
            touching = [pos for pos, k in enumerate(order) if comp[k][1][b]]
            if touching:
                closes[touching[-1]] |= ((1 << width) - 1) << (width * i)
        ones = sum(1 << (width * i) for i in range(len(blocks)))
        out.append((tuple(comp[k][0] for k in order), vectors, tuple(closes), ones, width))
    return out


def normalizer_set(G, hset):
    return frozenset(g for g in range(G.order) if conjugate_set(G, hset, g) == hset)


def square_roots_lift_everywhere(G, aset, nset, hset):
    """Every x with x^2 in A, x in A included, has some b in A with xb in N
    and (xb)^2 in H."""
    mult = G.mult
    for x in range(G.order):
        if mult[x][x] not in aset:
            continue
        if not any(
            mult[x][b] in nset and mult[mult[x][b]][mult[x][b]] in hset for b in aset
        ):
            return False
    return True


def validate_connection_set_elementwise(H, U):
    """Connection-set validation element by element, as the library first
    did it: range, then H, then inverses, then u*h and h*u for every u in U
    and h in H.  Returns the element set or raises the library's error.

    Each error names the library's witness: the member whose missing
    inverse is the highest element, or the highest member of U in the first
    left H-coset (ordered by least element) that U meets in part."""
    from regsets.errors import IntersectsSubgroup, NotDoubleCosetUnion, NotInverseClosed

    G = H.parent
    uset = frozenset(int(u) for u in U)
    for u in uset:
        if not 0 <= u < G.order:
            raise ValueError(f"element {u} out of range")
    if any((H.mask >> u) & 1 for u in uset):
        raise IntersectsSubgroup("connection set meets the base subgroup")
    missing = [u for u in uset if G.inv[u] not in uset]
    if missing:
        u = max(missing, key=lambda u: G.inv[u])
        raise NotInverseClosed(f"{u} is in the set but its inverse is not")
    if any(G.mult[u][h] not in uset or G.mult[h][u] not in uset
           for u in uset for h in H.members):
        # U = U^-1 here, so HU = U would follow from UH = U: some left coset
        # meets U in part
        partial = [c for c in left_coset_sets(G, H.members) if 0 < len(c & uset) < len(c)]
        witness = max(partial[0] & uset)
        raise NotDoubleCosetUnion(f"set is not H-stable at element {witness}")
    return uset


def normal_chain_reports(G, hset, aset):
    """The three normal-chain conditions, element by element, for every
    (r, s) with 0 <= r < |A:H| and 0 <= s <= |A:H|: a dict
    (r, s) -> (outcomes, witnesses) in the order parity, divisibility,
    self_paired, each witness the least failing element (None for parity
    and for a condition that holds).

    - parity: r is even or |A:H| is even;
    - divisibility: |H : H meet H^t| divides s for every t outside A;
    - self_paired: every x outside A with x^2 in A and s / |H : H meet H^x|
      odd has some a in A whose double coset HxaH is its own inverse set.
    """
    mult = G.mult
    index = len(aset) // len(hset)
    outside = [t for t in range(G.order) if t not in aset]
    size = {t: len(hset) // len(hset & conjugate_set(G, hset, t)) for t in outside}
    squares_in_a = [x for x in outside if mult[x][x] in aset]
    self_paired = {}

    def has_self_paired(x):
        if x not in self_paired:
            self_paired[x] = any(
                frozenset(G.inv[m] for m in d) == d
                for d in (double_coset_set(G, hset, mult[x][a]) for a in aset)
            )
        return self_paired[x]

    reports = {}
    for s in range(index + 1):
        div = next((t for t in outside if s % size[t] != 0), None)
        selfp = next((x for x in squares_in_a if s % size[x] == 0
                      and (s // size[x]) % 2 == 1 and not has_self_paired(x)), None)
        for r in range(index):
            parity = r % 2 == 0 or index % 2 == 0
            reports[(r, s)] = ((parity, div is None, selfp is None), (None, div, selfp))
    return reports


def group_table_reference(mult):
    """Table validation as ``GroupTable.__init__`` first did it, check by
    check: entries through ``int``, row lengths and range row by row, the
    rows and then the columns as permutations, 0 as the identity, a
    two-sided inverse per element, and Light's test on greedily picked
    generators.  Returns ``(rows, inv)`` or raises the first violation."""
    from operator import itemgetter

    from regsets.errors import NoIdentity, NoInverse, NotAssociative, NotLatinSquare

    rows = tuple(tuple(map(int, row)) for row in mult)
    n = len(rows)
    if n == 0:
        raise ValueError("multiplication table is empty")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            x = next(x for x in row if not 0 <= x < n)
            raise ValueError(f"entry {x} out of range 0..{n - 1}")
    full = frozenset(range(n))
    for i, row in enumerate(rows):
        if frozenset(row) != full:
            raise NotLatinSquare(f"row {i} is not a permutation of 0..{n - 1}")
    for j, column in enumerate(zip(*rows)):
        if frozenset(column) != full:
            raise NotLatinSquare(f"column {j} is not a permutation of 0..{n - 1}")
    for a in range(n):
        if rows[0][a] != a or rows[a][0] != a:
            raise NoIdentity("index 0 does not act as the identity")
    inv = []
    for a in range(n):
        b = rows[a].index(0)
        if rows[b][a] != 0:
            raise NoInverse(f"element {a} has no two-sided inverse")
        inv.append(b)
    seen = [False] * n
    seen[0] = True
    reached = [0]
    gens = []
    candidate = 1
    while len(reached) < n:
        while seen[candidate]:
            candidate += 1
        b = candidate
        rowb = rows[b]
        times_b = itemgetter(*rowb)
        for a in range(n):
            rowa = rows[a]
            rowab = rows[rowa[b]]
            if rowab != times_b(rowa):
                c = next(c for c in range(n) if rowab[c] != rowa[rowb[c]])
                raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
        gens.append(b)
        stack = list(reached)
        while stack:
            row = rows[stack.pop()]
            for g in gens:
                y = row[g]
                if not seen[y]:
                    seen[y] = True
                    reached.append(y)
                    stack.append(y)
    return rows, tuple(inv)


def from_table_reference(matrix):
    """``from_table`` as first written, under the default size cap: its own
    range and Latin checks, a search for a two-sided identity, the swap of
    its label with 0, then :func:`group_table_reference`."""
    from regsets.errors import NoIdentity, NotLatinSquare, OrderExceedsCap

    if len(matrix) > 5000:
        raise OrderExceedsCap(f"table order {len(matrix)} exceeds cap 5000")
    rows = [list(int(x) for x in row) for row in matrix]
    n = len(rows)
    if n == 0:
        raise ValueError("multiplication table is empty")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if not 0 <= x < n:
                raise ValueError(f"entry {x} out of range 0..{n - 1}")
    full = frozenset(range(n))
    for i, row in enumerate(rows):
        if frozenset(row) != full:
            raise NotLatinSquare(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        if frozenset(row[j] for row in rows) != full:
            raise NotLatinSquare(f"column {j} is not a permutation of 0..{n - 1}")
    e = next(
        (c for c in range(n) if all(rows[c][a] == a and rows[a][c] == a for a in range(n))),
        None,
    )
    if e is None:
        raise NoIdentity("table has no two-sided identity")
    if e != 0:
        sigma = list(range(n))
        sigma[0], sigma[e] = e, 0
        rows = [[sigma[rows[sigma[a]][sigma[b]]] for b in range(n)] for a in range(n)]
    return group_table_reference(rows)


def normalizer_reduction_on_quotient(pair):
    """The normalizer reduction's verdict decided on the quotient table, as
    the library once did it, as a function of (r, s): build N_G(H)/H with
    ``group_core.quotient``, take the image B of N_A(H), and return
    G = N_G(H)*A and ``cayley_normal_criterion`` of B in N_G(H)/H at
    (r, s).  The function raises wherever ``cayley_normal_criterion`` does
    on the quotient."""
    import regsets as rs

    G, H, A = pair.G, pair.H, pair.A
    N = rs.normalizer(G, H)
    nset, aset = frozenset(N.members), frozenset(A.members)
    applicable = len(nset) * len(aset) == G.order * len(nset & aset)  # |NA| = |G|
    quo = rs.quotient(N, H)
    B = rs.Subgroup(quo.table, {quo.projection[m] for m in nset & aset})
    return lambda r, s: rs.cayley_normal_criterion(quo.table, B, r, s) and applicable


def quotient_criterion_on_quotient(pair):
    """The quotient perfect-code criterion decided on the quotient table:
    H normal in G and ``normal_perfect_code_criterion`` of A/H in G/H, with
    G/H built by ``group_core.quotient``."""
    import regsets as rs

    G, H, A = pair.G, pair.H, pair.A
    full = G.full_subgroup()
    if not rs.is_normal(H, full):
        return False
    quo = rs.quotient(full, H)
    abar = rs.Subgroup(quo.table, {quo.projection[a] for a in A.members})
    return rs.normal_perfect_code_criterion(quo.table, abar)
