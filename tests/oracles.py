"""Definition-level reimplementations used to cross-check the library.

Everything here works straight from first principles (set closures, naive
partition scans, adjacency from the defining relation) and shares only the
raw multiplication table with the code under test.
"""

from __future__ import annotations

from itertools import combinations


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


def pair_class_representatives(G, pairs):
    """The first pair of each class of ``pairs`` (given as (H, A) element
    sets) under simultaneous conjugation, in ``pairs`` order."""
    seen = set()
    reps = []
    for hset, aset in pairs:
        if (hset, aset) in seen:
            continue
        reps.append((hset, aset))
        for g in range(G.order):
            seen.add((conjugate_set(G, hset, g), conjugate_set(G, aset, g)))
    return reps


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
