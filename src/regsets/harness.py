"""Group-spec parsing, certificate files, and the cross-validation survey."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from math import gcd
from pathlib import Path
from typing import Optional

from .config import DEFAULT_LIMITS, Limits
from .cosets import double_coset_mask, mask_of
from .errors import OrderExceedsCap, ParseError, RegsetError
from .group_core import (
    GroupTable,
    Subgroup,
    _byte_rows,
    all_subgroups,
    automorphism_generators,
    from_generators,
    from_table,
    generate_subgroup,
    is_normal,
    trivial_subgroup,
)
from .presets import preset
from .regular_sets import (
    PairSpec,
    RegSetCertificate,
    _CHECK_NAMES,
    achievable_profiles,
    cayley_normal_criterion,
    certify,
    necessary_conjugate_intersection,
    normal_chain_verdicts,
    perfect_code_normalizer_criterion,
    perfect_code_odd_order_criterion,
    perfect_code_quotient_criterion,
)

# -- group specs -------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _all_ints(values) -> bool:
    """:func:`_is_int` of every value, tested once per distinct type."""
    return all(t is not bool and issubclass(t, int) for t in set(map(type, values)))


def _cycles_to_perm(degree: int, cycles) -> tuple[int, ...]:
    if not isinstance(cycles, list):
        raise ParseError("a permutation must be a list of cycles")
    perm = list(range(degree))
    seen: set[int] = set()
    for cycle in cycles:
        if not isinstance(cycle, list) or not cycle:
            raise ParseError("each cycle must be a nonempty list of points")
        if not all(_is_int(p) for p in cycle):
            raise ParseError(f"cycle points must be integers, got {cycle!r}")
        for p in cycle:
            if not 0 <= p < degree:
                raise ParseError(f"point {p} out of range 0..{degree - 1}")
            if p in seen:
                raise ParseError(f"point {p} repeated across cycles")
            seen.add(p)
        for i, p in enumerate(cycle):
            perm[p] = cycle[(i + 1) % len(cycle)]
    return tuple(perm)


def group_from_spec_dict(spec: dict, limits: Optional[Limits] = None) -> GroupTable:
    """Build the group of a parsed spec.  Each size (a preset's order, a
    permutation degree, a table's row count) is checked against
    ``closure_cap`` before anything of that size is built or read."""
    if not isinstance(spec, dict):
        raise ParseError("group spec must be a JSON object")
    limits = limits if limits is not None else DEFAULT_LIMITS
    kind = spec.get("kind")
    label = spec.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError("group spec 'label' must be a string")
    if kind == "preset":
        try:
            g = preset(spec.get("name"), spec.get("n"), spec.get("factors"), limits)
        except RecursionError as exc:
            raise ParseError("preset spec is nested too deep") from exc
        if label:
            g.label = label
        return g
    if kind == "permutation":
        degree = spec.get("degree")
        gens_raw = spec.get("generators")
        if not _is_int(degree) or not isinstance(gens_raw, list):
            raise ParseError("permutation spec needs integer 'degree' and list 'generators'")
        if degree > limits.closure_cap:
            raise ParseError(
                f"permutation degree {degree} exceeds cap {limits.closure_cap}"
            )
        gens = [_cycles_to_perm(degree, g) for g in gens_raw]
        g = from_generators(degree, gens, label=label, limits=limits)
        g.spec = {"kind": "permutation", "degree": degree, "generators": gens_raw}
        return g
    if kind == "table":
        matrix = spec.get("matrix")
        if not isinstance(matrix, list):
            raise ParseError("table spec needs a 'matrix' list of integer rows")
        if len(matrix) > limits.closure_cap:
            raise OrderExceedsCap(
                f"table order {len(matrix)} exceeds cap {limits.closure_cap}"
            )
        if not all(isinstance(row, list) for row in matrix) or not _all_ints(
            chain.from_iterable(matrix)
        ):
            raise ParseError("table spec needs a 'matrix' list of integer rows")
        # rows that fit in bytes are ints by type, so GroupTable scans no entry
        g = from_table(_byte_rows(matrix) or matrix, label=label, limits=limits)
        g.spec = {"kind": "table", "matrix": [list(r) for r in g.mult]}
        return g
    raise ParseError(f"unknown group spec kind {kind!r}")


def parse_group_spec(text: str, limits: Optional[Limits] = None) -> GroupTable:
    """Parse a JSON group spec (kinds: preset, permutation, table)."""
    try:
        spec = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return group_from_spec_dict(spec, limits=limits)


def _shorthand_to_spec(text: str) -> dict:
    """Translate 'cyclic:4', 'sl23', 'product:cyclic:2,cyclic:8' into specs."""
    parts = text.split(":", 1)
    name = parts[0]
    if name == "product":
        if len(parts) < 2:
            raise ParseError("product shorthand needs factors")
        factors = [_shorthand_to_spec(f) for f in parts[1].split(",") if f]
        if len(factors) < 2:
            raise ParseError("product shorthand needs at least two factors")
        return {"kind": "preset", "name": "product", "factors": factors}
    spec: dict = {"kind": "preset", "name": name}
    if len(parts) == 2 and parts[1]:
        try:
            spec["n"] = int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad preset parameter {parts[1]!r}") from exc
    return spec


def group_from_arg(text: str, limits: Optional[Limits] = None) -> GroupTable:
    """Resolve a CLI group argument: 'preset:...' shorthand, inline JSON, or
    a path to a JSON spec file."""
    if text.startswith("preset:"):
        return group_from_spec_dict(_shorthand_to_spec(text[len("preset:"):]),
                                    limits=limits)
    if text.lstrip().startswith("{"):
        return parse_group_spec(text, limits=limits)
    path = Path(text)
    if not path.exists():
        raise ParseError(f"group argument {text!r} is neither a preset, JSON, nor a file")
    return parse_group_spec(path.read_text(encoding="utf-8"), limits=limits)


def subgroup_from_arg(G: GroupTable, text: str) -> Subgroup:
    """Parse a subgroup argument: 'trivial', 'all', explicit ids '0,2,5', or
    generators 'gen:3,5' (closed automatically)."""
    text = text.strip()
    if text == "trivial":
        return trivial_subgroup(G)
    if text == "all":
        return G.full_subgroup()
    try:
        if text.startswith("gen:"):
            ids = [int(x) for x in text[len("gen:"):].split(",") if x.strip()]
            return generate_subgroup(G, ids)
        ids = [int(x) for x in text.split(",") if x.strip()]
        return Subgroup(G, ids)
    except ValueError as exc:
        raise ParseError(f"bad subgroup argument {text!r}: {exc}") from exc


# -- certificate files --------------------------------------------------------


def certificate_to_json_text(cert: RegSetCertificate) -> str:
    return json.dumps(cert.to_json_dict(), indent=2) + "\n"


def write_certificate(cert: RegSetCertificate, path) -> None:
    Path(path).write_text(certificate_to_json_text(cert), encoding="utf-8")


_CERT_FIELDS = ("group", "H", "A", "r", "s", "double_coset_reps", "U", "X", "checks")
_CERT_ID_FIELDS = ("H", "A", "double_coset_reps", "U", "X")
_PASSING_CHECKS = [{"name": name, "pass": True} for name in _CHECK_NAMES]


def verify_certificate_file(path, limits: Optional[Limits] = None) -> bool:
    """Re-check a stored certificate: the group order, the double-coset
    reconstruction of U, XH = U, and then :func:`certify`, the same checks
    that issued it.  Parse failures raise :class:`ParseError`, as do an
    ``A``, ``U``, ``X`` or ``double_coset_reps`` that is not a list, a
    negative element id, an id in ``H``, ``A``, ``X`` or
    ``double_coset_reps`` that is not an int, a bool, str or float id in
    ``U``, an int id in ``H``, ``A``, ``U`` or ``X`` that is not below the
    group order, a group ``order``, ``r`` or ``s`` that is not an int, and
    ``checks`` other than the five named checks, each passing; a
    well-formed but wrong certificate returns False."""
    limits = limits if limits is not None else DEFAULT_LIMITS
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read certificate: {exc}") from exc
    if not isinstance(data, dict) or any(f not in data for f in _CERT_FIELDS):
        raise ParseError("certificate is missing required fields")
    group = data["group"]
    if not isinstance(group, dict) or "spec" not in group:
        raise ParseError("certificate group has no reconstructible spec")
    r, s = data["r"], data["s"]
    if not _is_int(r) or not _is_int(s):
        raise ParseError("r and s must be integers")
    if not _is_int(group.get("order")):
        raise ParseError("certificate group order must be an integer")
    checks = data["checks"]
    if checks != _PASSING_CHECKS or any(c["pass"] is not True for c in checks):
        raise ParseError("certificate 'checks' must be the five named checks, each passing")
    int_ids: dict[str, list] = {}  # the int ids of each list field
    for field in _CERT_ID_FIELDS:
        ids = data[field]
        # a non-list H and a dict, list or None id in U are still unchecked:
        # the verify benchmark counts them as crashes until ROADMAP item 4(a)
        if not isinstance(ids, list):
            if field == "H":
                continue
            raise ParseError(f"certificate field {field!r} must be a list of element ids")
        if not _all_ints(ids):
            if field != "U" or not {bool, str, float}.isdisjoint(map(type, ids)):
                raise ParseError(f"certificate field {field!r} holds a non-integer element id")
            ids = [x for x in ids if _is_int(x)]
        if ids and min(ids) < 0:
            raise ParseError(f"certificate field {field!r} holds a negative element id")
        int_ids[field] = ids
    G = group_from_spec_dict(group["spec"], limits=limits)
    for field in ("H", "A", "U", "X"):
        ids = int_ids.get(field)
        if ids and max(ids) >= G.order:
            raise ParseError(f"certificate element id {max(ids)} in {field!r} "
                             f"is not below the group order {G.order}")
    if G.order != group["order"]:
        return False
    try:
        H = Subgroup(G, data["H"])
        A = Subgroup(G, data["A"])
        pair = PairSpec(G, H, A)
    except ValueError:
        return False
    umask = mask_of(G, data["U"])
    rebuilt = 0
    for rep in data["double_coset_reps"]:
        rebuilt |= double_coset_mask(H, rep)
    if rebuilt != umask:
        return False
    mult = G.mult
    if mask_of(G, (mult[x][h] for x in data["X"] for h in H.members)) != umask:
        return False
    try:
        certify(pair, rebuilt, r, s)  # rebuilt is the mask of U
    except (RegsetError, ValueError):
        return False
    return True


# -- survey -------------------------------------------------------------------


@dataclass
class SurveyReport:
    group: str
    order: int
    rows: list[dict]

    @property
    def anomalies(self) -> list[str]:
        out = []
        for row in self.rows:
            for a in row["anomalies"]:
                out.append(f"H={row['H']} A={row['A']}: {a}")
        return out

    def to_json_dict(self) -> dict:
        return {"group": self.group, "order": self.order, "rows": self.rows}

    def to_text(self) -> str:
        lines = [f"survey of {self.group} (order {self.order})"]
        header = f"{'H':>20} {'A':>20} {'H<|A':>5} {'A<|G':>5} {'#rs':>5}  anomalies"
        lines.append(header)
        for row in self.rows:
            lines.append(
                f"{str(row['H'])[:20]:>20} {str(row['A'])[:20]:>20} "
                f"{'y' if row['H_normal_in_A'] else 'n':>5} "
                f"{'y' if row['A_normal_in_G'] else 'n':>5} "
                f"{len(row['achievable']):>5}  {'; '.join(row['anomalies'])}"
            )
        lines.append(f"total anomalies: {len(self.anomalies)}")
        return "\n".join(lines) + "\n"


def _survey_row(G: GroupTable, H: Subgroup, A: Subgroup, limits: Limits) -> dict:
    pair = PairSpec(G, H, A)
    idx = pair.code_index
    h_norm = is_normal(H, A)
    a_norm = is_normal(A, G.full_subgroup())
    degenerate = A.order == G.order
    R, S = achievable_profiles(pair, limits=limits)
    achievable = [[r, s] for r in R for s in S]
    anomalies: list[str] = []
    agreements: dict[str, str] = {}
    chain = h_norm and a_norm
    cayley = a_norm and H.order == 1
    # each criterion's verdict is a condition on r and a condition on s, so
    # it agrees with R x S at every (r,s) when its r-vector and s-vector do
    in_R = tuple(r in R for r in range(idx))
    in_S = tuple(s in S for s in range(idx + 1))
    agree = True
    if chain:
        chain_r, chain_s = normal_chain_verdicts(pair)
        agree = chain_r == in_R and chain_s == in_S
    if cayley:  # one verdict for even s and one for odd s, for the r it tests
        cayley_parity = [cayley_normal_criterion(G, A, 0, s) for s in (0, 1)]
        cayley_r = [r % gcd(2, A.order - 1) == 0 for r in range(idx)]
        agree = agree and all(in_R[r] for r in range(idx) if cayley_r[r]) and all(
            cayley_parity[s % 2] == in_S[s] for s in range(idx + 1))
    chain_ok = cayley_ok = True
    if not agree:  # the anomalies, in grid order
        for r in range(idx):
            for s in range(idx + 1):
                present = in_R[r] and in_S[s]
                if chain and (chain_r[r] and chain_s[s]) != present:
                    chain_ok = False
                    anomalies.append(f"normal-chain criteria disagree with search at ({r},{s})")
                if cayley and cayley_r[r] and cayley_parity[s % 2] != present:
                    cayley_ok = False
                    anomalies.append(f"cayley criterion disagrees with search at ({r},{s})")
    agreements["normal_chain"] = ("ok" if chain_ok else "fail") if chain else "n/a"
    agreements["cayley_normal"] = ("ok" if cayley_ok else "fail") if cayley else "n/a"

    code = 0 in R and 1 in S  # the search's verdict: A is a perfect code
    odd = A.order % 2 == 1 or (G.order // A.order) % 2 == 1
    # (agreement key, applies, criterion, anomaly): each applicable verdict
    # must equal the search's.  The necessary condition holds for every
    # perfect code, so it is checked on codes.
    criteria = (
        ("normalizer_criterion", a_norm, lambda: perfect_code_normalizer_criterion(pair),
         "normalizer criterion disagrees with perfect-code"),
        ("quotient_criterion", chain, lambda: perfect_code_quotient_criterion(pair),
         "quotient criterion disagrees with perfect-code"),
        ("odd_order", a_norm and odd, lambda: perfect_code_odd_order_criterion(pair),
         "odd-order criterion disagrees with perfect-code"),
        ("necessary", code, lambda: necessary_conjugate_intersection(pair),
         "necessary conjugate-intersection condition violated"),
    )
    for key, applies, criterion, anomaly in criteria:
        if not applies:
            agreements[key] = "n/a"
        elif criterion() == code:
            agreements[key] = "ok"
        else:
            agreements[key] = "fail"
            anomalies.append(anomaly)

    return {
        "H": list(H.members),
        "A": list(A.members),
        "H_normal_in_A": h_norm,
        "A_normal_in_G": a_norm,
        "degenerate_s": degenerate,
        "achievable": achievable,
        "agreements": agreements,
        "anomalies": anomalies,
    }


def _class_representatives(G: GroupTable, subs: list[Subgroup],
                           pairs: list[tuple[Subgroup, Subgroup]]) -> list[int]:
    """For each pair, the index in ``pairs`` of its class representative
    under (H, A) -> (phi(H), phi(A)) for phi in Aut(G): the first pair of
    its orbit in ``pairs`` order.  Each generator of Aut(G)
    (:func:`automorphism_generators`) permutes ``subs``, found by member
    lookup, and the orbits of pairs are closed under those permutations."""
    index = {S.mask: i for i, S in enumerate(subs)}
    moves = []
    for phi in automorphism_generators(G):
        bits = [1 << y for y in phi]  # bits[x]: the bit of phi(x)
        moves.append([index[sum(map(bits.__getitem__, S.members))] for S in subs])
    rep_of: dict[tuple[int, int], int] = {}
    reps = []
    for i, (H, A) in enumerate(pairs):
        key = (index[H.mask], index[A.mask])
        rep = rep_of.get(key)
        if rep is None:
            rep = rep_of[key] = i
            orbit = [key]
            for h, a in orbit:  # grows while iterating
                for move in moves:
                    image = (move[h], move[a])
                    if image not in rep_of:
                        rep_of[image] = i
                        orbit.append(image)
        reps.append(rep)
    return reps


def _member_row(row: dict, H: Subgroup, A: Subgroup) -> dict:
    """The representative's ``row`` for the pair (H, A) of its class, sharing
    no list or dict with it."""
    return {
        **row,
        "H": list(H.members),
        "A": list(A.members),
        "achievable": [list(rs) for rs in row["achievable"]],
        "agreements": dict(row["agreements"]),
        "anomalies": list(row["anomalies"]),
    }


def survey(G: GroupTable, limits: Optional[Limits] = None,
           workers: int = 1) -> SurveyReport:
    """Cross-validate every criterion against the exact decision over all
    subgroup pairs H <= A of ``G``, in this process.  Rows are sorted by
    (H, A) members.  ``workers`` must be 1, its only valid value; any other
    value raises ``ValueError``.

    An automorphism phi of G maps Cos(G,H,U) onto Cos(G,phi(H),phi(U)) and
    the A-cosets onto the phi(A)-cosets, so every answer in a row is the same
    for all pairs in an Aut(G)-orbit.  One representative per orbit is
    decided and its row is copied to the other members."""
    limits = limits if limits is not None else DEFAULT_LIMITS
    if workers != 1:
        raise ValueError(f"a survey runs in one process: workers must be 1, got {workers}")
    subs = all_subgroups(G, limits=limits)
    pairs = [(H, A) for A in subs for H in subs if H.is_subset_of(A)]
    rep_index = _class_representatives(G, subs, pairs)
    row_of = {i: _survey_row(G, *pairs[i], limits) for i in dict.fromkeys(rep_index)}
    rows = [_member_row(row_of[i], H, A) for (H, A), i in zip(pairs, rep_index)]
    rows.sort(key=lambda row: (row["H"], row["A"]))
    return SurveyReport(G.label, G.order, rows)
