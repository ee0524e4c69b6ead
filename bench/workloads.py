"""The three regsets workloads: survey, decide and verify.

Each workload has the same shape:

- ``setup()`` does the program's own work before the first timed operation
  and returns the seconds that work took.  Input selection done by the
  benchmark in between (picking subgroup pairs, tampering with files) is
  not counted.
- ``round(between)`` runs one round of timed operations and returns one
  ``(seconds, operations, failed)`` triple per timed call, calling
  ``between()`` before each, outside the timing.  Every round of a run is
  the same list of operations, so the failed share is fixed.
- ``check()`` compares everything the program returned against the oracle
  in ``regoracle`` or against known facts, outside every timed region, and
  returns a list of disagreements.

All program calls go through module attributes (``harness.survey``,
``cli.main``) so a tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from pathlib import Path
from typing import NamedTuple, Optional

import regoracle


def dihedral_table(n: int) -> list[list[int]]:
    """The dihedral group of order 2n from its definition: element i + n*j
    is r^i s^j, and r^i s^j * r^k s^l = r^(i + (-1)^j k) s^(j + l)."""
    return [[(i + (k if j == 0 else -k)) % n + n * ((j + l) % 2)
             for l in range(2) for k in range(n)]
            for j in range(2) for i in range(n)]


PERM_S4xC2 = {"kind": "permutation", "degree": 6,
              "generators": [[[0, 1]], [[0, 1, 2, 3]], [[4, 5]]]}

# The CLI group argument of every group a workload uses.
GROUPS = {
    "S4": "preset:symmetric:4",
    "SL23": "preset:sl23",
    "D24": "preset:dihedral:12",
    "S4xC2": "preset:product:symmetric:4,cyclic:2",
    "SL23xC2": "preset:product:sl23,cyclic:2",
    "S4xC2-perm": json.dumps(PERM_S4xC2),
    "D48-table": json.dumps({"kind": "table", "matrix": dihedral_table(24)}),
}

# Numbers of subgroups from the literature: S4 has 30, SL(2,3) 15 and
# S4 x C2 98; the dihedral group of order 2n has tau(n) + sigma(n).
KNOWN_SUBGROUP_COUNTS = {"S4": 30, "SL23": 15, "D24": 6 + 28, "S4xC2": 98,
                         "S4xC2-perm": 98, "D48-table": 8 + 60}


class Sub(NamedTuple):
    """A subgroup described by invariants; ``None`` matches anything."""

    order: int
    normal: Optional[bool] = None
    cyclic: Optional[bool] = None
    square_involution: Optional[bool] = None  # its involution is a square in G


def _element_order(T: regoracle.Table, x: int) -> int:
    k, y = 1, x
    while y != 0:
        y = T.mult[y][x]
        k += 1
    return k


def _matches(T: regoracle.Table, S: frozenset, want: Sub) -> bool:
    if len(S) != want.order:
        return False
    if want.normal is not None:
        normal = all(T.conjugate_set(S, g) == S for g in range(T.order))
        if normal != want.normal:
            return False
    if want.cyclic is not None:
        cyclic = any(_element_order(T, x) == len(S) for x in S)
        if cyclic != want.cyclic:
            return False
    if want.square_involution is not None:
        squares = {T.mult[g][g] for g in range(T.order)}
        invols = [x for x in S if x and T.mult[x][x] == 0]
        if len(invols) != 1 or (invols[0] in squares) != want.square_involution:
            return False
    return True


def pick_pair(T: regoracle.Table, lattice, hdesc: Optional[Sub], adesc: Sub,
              g: int) -> tuple[frozenset, frozenset]:
    """The first A in lattice order matching ``adesc`` and the first H inside
    it matching ``hdesc`` (trivial when None), both conjugated by ``g``."""
    A = next((S for S in lattice if _matches(T, S, adesc)), None)
    H = frozenset({0}) if hdesc is None or A is None else next(
        (S for S in lattice if S <= A and _matches(T, S, hdesc)), None)
    if A is None or H is None:
        raise ValueError(f"no subgroup pair matches H={hdesc} A={adesc}")
    return T.conjugate_set(H, g), T.conjugate_set(A, g)


def _nothing() -> None:
    pass


def ids(S) -> str:
    return ",".join(str(x) for x in sorted(S))


def build_groups(lib, names) -> tuple[dict, float]:
    """Build each group from its CLI spec and enumerate its subgroups: the
    set-up every workload starts with.  Returns the groups and the seconds."""
    t0 = time.perf_counter()
    out = {}
    for name in names:
        G = lib.harness.group_from_arg(GROUPS[name])
        out[name] = (G, lib.group_core.all_subgroups(G))
    return out, time.perf_counter() - t0


def check_lattices(groups: dict) -> list[str]:
    errors = []
    for name, (G, subs) in groups.items():
        want = KNOWN_SUBGROUP_COUNTS.get(name)
        if want is not None and len(subs) != want:
            errors.append(f"{name}: {len(subs)} subgroups, expected {want}")
    return errors


def call_cli(lib, argv: list[str]) -> tuple[float, Optional[int], str]:
    """Run one ``regsets`` command in-process with its output captured.
    Returns (seconds, exit code or None if it raised, stdout or the error)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a verdict
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, out.getvalue()


def record_holds(T: regoracle.Table, cert: dict) -> bool:
    """Definition-level check of a certificate record: the stated U is a
    connection set realizing (r, s), the representatives' double cosets make
    up U, and X H = U."""
    try:
        H, A, U = (frozenset(int(x) for x in cert[k]) for k in ("H", "A", "U"))
        X = frozenset(int(x) for x in cert["X"])
        reps = [int(x) for x in cert["double_coset_reps"]]
        r, s = int(cert["r"]), int(cert["s"])
    except (KeyError, TypeError, ValueError):
        return False
    if cert.get("group", {}).get("order") != T.order:
        return False
    if not all(0 <= x < T.order for x in (*H, *A, *U, *X, *reps)):
        return False
    rebuilt = set()
    for x in reps:
        rebuilt |= T.double_coset(H, x)
    if rebuilt != U or {T.mult[x][h] for x in X for h in H} != U:
        return False
    return regoracle.certificate_holds(T, H, A, U, r, s)


# -- survey ---------------------------------------------------------------------


class Survey:
    """``harness.survey`` over S4, SL(2,3) and D24 (399 subgroup pairs), as a
    library user deciding every (r,s) for every pair would.  Every round
    surveys freshly built groups, so no round reuses the per-group caches of
    another; that build is a set-up sample."""

    names = ("S4", "SL23", "D24")
    sample_rows = 200
    setup_each_round = True
    trace_rounds = 1

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.groups: dict = {}
        self.reports: dict = {}
        self.errors: list[str] = []

    def setup(self) -> float:
        self.groups, seconds = build_groups(self.lib, self.names)
        return seconds

    def round(self, between=_nothing) -> list[tuple[float, int, int]]:
        out = []
        for name in self.names:
            G, subs = self.groups[name]
            between()
            t0 = time.perf_counter()
            try:
                report = self.lib.harness.survey(G, workers=1)
            except Exception:  # every row of a survey that raised has failed
                npairs = sum(1 for A in subs for H in subs if H.is_subset_of(A))
                out.append((time.perf_counter() - t0, npairs, npairs))
                continue
            out.append((time.perf_counter() - t0, len(report.rows), 0))
            rows = report.to_json_dict()["rows"]
            if name not in self.reports:
                self.reports[name] = (G.mult, rows)
            elif self.reports[name][1] != rows:
                self.errors.append(f"survey {name}: rows differ between rounds")
            self.errors += [f"{name}: {a}" for a in report.anomalies]
        return out

    def check(self) -> list[str]:
        errors = list(self.errors) + check_lattices(self.groups)
        rng = random.Random(self.seed)
        sampled = []
        for name in self.names:
            if name not in self.reports:
                continue
            mult, rows = self.reports[name]
            T = regoracle.Table(mult)
            subgroups = {tuple(row["A"]) for row in rows}
            want = KNOWN_SUBGROUP_COUNTS[name]
            if len(subgroups) != want:
                errors.append(f"{name}: survey covers {len(subgroups)} subgroups, expected {want}")
            if not all(T.is_subgroup(S) for S in subgroups):
                errors.append(f"{name}: survey reports a subset that is no subgroup")
            pairs = {(tuple(row["H"]), tuple(row["A"])) for row in rows}
            complete = {(H, A) for A in subgroups for H in subgroups if set(H) <= set(A)}
            if pairs != complete or len(rows) != len(complete):
                errors.append(f"{name}: survey rows are not every pair H <= A once")
            sampled += [(name, T, row) for row in rows]
        for name, T, row in rng.sample(sampled, min(self.sample_rows, len(sampled))):
            oracle = regoracle.PairOracle(T, row["H"], row["A"])
            if row["achievable"] != oracle.achievable():
                errors.append(f"{name} H={row['H']} A={row['A']}: achievable "
                              f"{row['achievable']} but the oracle finds {oracle.achievable()}")
            H, A, full = frozenset(row["H"]), frozenset(row["A"]), range(T.order)
            if row["H_normal_in_A"] != all(T.conjugate_set(H, a) == H for a in A):
                errors.append(f"{name} H={row['H']} A={row['A']}: H_normal_in_A is wrong")
            if row["A_normal_in_G"] != all(T.conjugate_set(A, g) == A for g in full):
                errors.append(f"{name} H={row['H']} A={row['A']}: A_normal_in_G is wrong")
        return errors

    def close(self) -> None:
        pass


# -- decide ---------------------------------------------------------------------

# One round of requests: (group, command, H, A, r, s); H None is trivial.
# Latencies cluster by the group table each request builds and by the
# search, and clusters built from different code speed up and slow down
# unequally with the machine.  So the median is kept inside one cluster:
# 12 order-24 requests are faster and the 16 slowest (4 order-48 perfect
# codes with normal A, through N_G(H)/H, and the 12 absent searches of
# DECIDE_TAIL) slower than the 20 checks and searched perfect codes on
# S4 x C2, half of them absent.  p90 falls among the slowest searches.
DECIDE_ROUND = (
    ("S4", "check", None, Sub(4, normal=True), 1, 2),
    ("S4", "check", None, Sub(3), 1, 1),
    ("S4", "perfect-code", None, Sub(8), None, None),
    ("S4", "perfect-code", Sub(2), Sub(12, normal=True), None, None),
    ("SL23", "check", None, Sub(8, normal=True), 0, 1),
    ("SL23", "check", None, Sub(4), 2, 3),
    ("SL23", "perfect-code", Sub(2), Sub(8, normal=True), None, None),
    ("SL23", "check", Sub(2), Sub(6), 0, 1),
    ("D24", "check", None, Sub(6, cyclic=False), 0, 1),
    ("D24", "perfect-code", Sub(2, normal=False), Sub(12, normal=True, cyclic=False), None, None),
    ("D24", "check", Sub(2, normal=False), Sub(4, cyclic=False), 1, 1),
    ("D24", "check", None, Sub(8), 2, 3),
    ("S4xC2", "check", None, Sub(4, normal=False, cyclic=False), 0, 2),
    ("S4xC2", "check", None, Sub(3), 1, 1),
    ("S4xC2", "check", Sub(2, normal=False), Sub(8, normal=False), 1, 2),
    ("S4xC2", "perfect-code", None, Sub(6, cyclic=False), None, None),
    ("S4xC2", "check", Sub(2, normal=True), Sub(12, normal=False), 2, 3),
    ("S4xC2", "check", None, Sub(16), 0, 2),
    ("S4xC2", "perfect-code", Sub(2, normal=False), Sub(4, cyclic=True), None, None),
    ("S4xC2", "check", Sub(3), Sub(6, cyclic=True), 0, 1),
    ("S4xC2", "check", Sub(2, normal=False), Sub(6, cyclic=False), 1, 2),
    ("S4xC2", "perfect-code", Sub(2, normal=False), Sub(8, normal=False), None, None),
    ("S4xC2", "check", Sub(2, normal=False), Sub(12, normal=True), 2, 1),
    ("S4xC2", "check", Sub(2, normal=False), Sub(8, normal=False), 0, 3),
    ("S4xC2", "check", None, Sub(3), 2, 3),
    ("S4xC2", "check", None, Sub(8, normal=True), 1, 2),
    ("S4xC2", "perfect-code", None, Sub(12, normal=False), None, None),
    ("S4xC2", "check", Sub(2, normal=True), Sub(6, cyclic=True), 1, 3),
    ("S4xC2", "check", Sub(2, normal=False), Sub(12, normal=True), 0, 3),
    ("S4xC2", "check", None, Sub(2, normal=False), 1, 1),
    ("S4xC2", "check", Sub(2, normal=False), Sub(16), 1, 2),
    ("S4xC2", "check", None, Sub(3), 1, 2),
    ("S4xC2", "perfect-code", Sub(2, normal=False), Sub(24, normal=True), None, None),
    ("S4xC2", "perfect-code", None, Sub(2, normal=True), None, None),
    ("SL23xC2", "perfect-code", Sub(2, normal=True), Sub(16, normal=True), None, None),
    ("SL23xC2", "perfect-code", None, Sub(24, normal=True), None, None),
)

# Absent answers found only by exhaustive search, asked for every conjugate
# of A, since their cost depends on the labelling of A's elements.
DECIDE_TAIL = ("SL23xC2", None, Sub(6, square_involution=True), ((2, 3), (3, 3), (4, 3)))


class Decide:
    """A seeded stream of ``regsets check`` and ``regsets perfect-code``
    requests through ``cli.main``, each building its group from the spec
    cold as every CLI call does.  The seed conjugates each pair of
    ``DECIDE_ROUND`` by its own random element and shuffles the round."""

    names = ("S4", "SL23", "D24", "S4xC2", "SL23xC2")
    setup_each_round = False
    trace_rounds = 10

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.requests: list[tuple] = []
        self.outputs: list = []
        self.errors: list[str] = []

    def setup(self) -> float:
        self.groups, seconds = build_groups(self.lib, self.names)
        tables = {name: regoracle.Table(G.mult) for name, (G, _) in self.groups.items()}
        lattices = {name: [frozenset(S.members) for S in subs]
                    for name, (_, subs) in self.groups.items()}
        rng = random.Random(self.seed)
        asks = []
        for name, command, hdesc, adesc, r, s in DECIDE_ROUND:
            T = tables[name]
            H, A = pick_pair(T, lattices[name], hdesc, adesc, rng.randrange(T.order))
            asks.append((name, command, H, A, r, s))
        name, hdesc, adesc, profiles = DECIDE_TAIL
        T = tables[name]
        conjugates = sorted({pick_pair(T, lattices[name], hdesc, adesc, g)
                             for g in range(T.order)}, key=lambda p: sorted(p[1]))
        asks += [(name, "check", H, A, r, s) for H, A in conjugates for r, s in profiles]
        requests = []
        for name, command, H, A, r, s in asks:
            argv = [command, GROUPS[name], "--H", ids(H), "--A", ids(A)]
            if command == "check":
                argv += ["--r", str(r), "--s", str(s)]
            else:
                r, s = 0, 1
            requests.append((argv, tables[name], H, A, r, s))
        rng.shuffle(requests)
        self.requests = requests
        return seconds

    def round(self, between=_nothing) -> list[tuple[float, int, int]]:
        out = []
        first = not self.outputs
        for i, (argv, *_rest) in enumerate(self.requests):
            between()
            seconds, code, text = call_cli(self.lib, argv)
            failed = code not in (0, 1)
            out.append((seconds, 1, int(failed)))
            if first:
                self.outputs.append((code, text))
            elif self.outputs[i] != (code, text):
                self.errors.append(f"{' '.join(argv[:2])}: output differs between rounds")
        return out

    def check(self) -> list[str]:
        errors = list(self.errors) + check_lattices(self.groups)
        oracles: dict = {}
        for (argv, T, H, A, r, s), (code, text) in zip(self.requests, self.outputs):
            if code not in (0, 1):
                continue  # counted as failed
            key = (id(T), H, A)
            if key not in oracles:
                oracles[key] = regoracle.PairOracle(T, H, A)
            present = oracles[key].exists(r, s)
            label = f"{argv[0]} {argv[1]} |H|={len(H)} |A|={len(A)} ({r},{s})"
            if present != (code == 0):
                errors.append(f"{label}: exit {code} but the oracle says "
                              f"{'present' if present else 'absent'}")
                continue
            if code == 1:
                continue
            try:
                cert = json.loads(text[text.index("{"):])
            except ValueError:
                errors.append(f"{label}: no certificate in the output")
                continue
            if (frozenset(cert["H"]), frozenset(cert["A"]), cert["r"], cert["s"]) != (H, A, r, s):
                errors.append(f"{label}: certificate is for another question")
            elif not record_holds(T, cert):
                errors.append(f"{label}: certificate fails the definition-level check")
        return errors

    def close(self) -> None:
        pass


# -- verify ---------------------------------------------------------------------

# (group, H, A, r, s) for groups given as a preset, a permutation spec and a
# table spec; every answer is present.  The three kinds parse and validate
# along different code, so the preset is more than half of the successful
# verifications, which keeps the median inside one cluster.
VERIFY_CERTS = (
    ("SL23xC2", None, Sub(8, normal=False), 0, 2),
    ("SL23xC2", Sub(2, normal=True), Sub(6), 2, 3),
    ("SL23xC2", None, Sub(3), 2, 3),
    ("SL23xC2", None, Sub(12), 0, 2),
    ("SL23xC2", Sub(2, normal=True), Sub(16, normal=True), 1, 2),
    ("S4xC2-perm", None, Sub(4, normal=False, cyclic=False), 0, 2),
    ("S4xC2-perm", Sub(2, normal=False), Sub(8, normal=False), 1, 2),
    ("D48-table", None, Sub(12, normal=False), 2, 3),
    ("D48-table", Sub(2, normal=False), Sub(8, cyclic=False), 1, 2),
)

# Malformed certificates that should exit 2 (error) but crash the verifier.
MALFORMED = (("H", 5), ("U", [{"a": 1}]), ("double_coset_reps", [99]))


class Verify:
    """``regsets verify`` through ``cli.main`` on certificates that set-up
    writes with ``check --emit``, for groups given as a preset, a permutation
    spec and a table spec.  Each valid certificate comes with three tampered
    copies (r shifted, s shifted, one unit dropped from U, X and the
    representatives) that must exit 1, and three malformed copies of the
    first certificate must exit 2.  The seed conjugates the pairs and picks
    the dropped unit."""

    names = ("SL23xC2", "S4xC2-perm", "D48-table")
    setup_each_round = False
    trace_rounds = 10

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.ops: list[tuple] = []
        self.outputs: list = []
        self.errors: list[str] = []

    def setup(self) -> float:
        self.groups, seconds = build_groups(self.lib, self.names)
        self.tables = {name: regoracle.Table(G.mult) for name, (G, _) in self.groups.items()}
        lattices = {name: [frozenset(S.members) for S in subs]
                    for name, (_, subs) in self.groups.items()}
        rng = random.Random(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        emits = []
        for k, (name, hdesc, adesc, r, s) in enumerate(VERIFY_CERTS):
            T = self.tables[name]
            H, A = pick_pair(T, lattices[name], hdesc, adesc, rng.randrange(T.order))
            path = self.workdir / f"cert{k}.json"
            argv = ["check", GROUPS[name],
                    "--H", ids(H), "--A", ids(A), "--r", str(r), "--s", str(s),
                    "--emit", str(path)]
            emits.append((name, path, argv))
        for name, path, argv in emits:
            elapsed, code, text = call_cli(self.lib, argv)
            seconds += elapsed
            if code != 0:
                raise RuntimeError(f"check --emit for {name} exited {code}: {text}")
        self._tamper(emits, rng)
        return seconds

    def _tamper(self, emits, rng: random.Random) -> None:
        """Write the tampered and malformed copies next to the valid ones."""
        ops = []
        first = None
        for name, path, _ in emits:
            T = self.tables[name]
            cert = json.loads(path.read_text(encoding="utf-8"))
            first = first or (name, cert)
            ops.append((str(path), 0, name, cert))
            idx = len(cert["A"]) // len(cert["H"])
            shifted_r = dict(cert, r=cert["r"] + 1 if cert["r"] + 1 < idx else cert["r"] - 1)
            shifted_s = dict(cert, s=cert["s"] + 1 if cert["s"] < idx else cert["s"] - 1)
            H = frozenset(cert["H"])
            x = rng.choice(cert["double_coset_reps"])
            unit = T.double_coset(H, x) | T.double_coset(H, T.inv[x])
            dropped = dict(cert,
                           U=[u for u in cert["U"] if u not in unit],
                           X=[u for u in cert["X"] if u not in unit],
                           double_coset_reps=[y for y in cert["double_coset_reps"]
                                              if y not in unit])
            for tag, bad in (("r", shifted_r), ("s", shifted_s), ("unit", dropped)):
                ops.append((self._write(path, tag, bad), 1, name, bad))
        name, cert = first
        for field, value in MALFORMED:
            ops.append((self._write(Path(ops[0][0]), f"bad-{field}", dict(cert, **{field: value})),
                        2, name, None))
        self.ops = ops

    def _write(self, path: Path, tag: str, cert: dict) -> str:
        out = path.with_name(f"{path.stem}-{tag}.json")
        out.write_text(json.dumps(cert, indent=2) + "\n", encoding="utf-8")
        return str(out)

    def round(self, between=_nothing) -> list[tuple[float, int, int]]:
        out = []
        first = not self.outputs
        for i, (path, expected, _name, _cert) in enumerate(self.ops):
            between()
            seconds, code, text = call_cli(self.lib, ["verify", path])
            failed = code != 2 if expected == 2 else code not in (0, 1)
            out.append((seconds, 1, int(failed)))
            if first:
                self.outputs.append(code)
            elif self.outputs[i] != code:
                self.errors.append(f"verify {Path(path).name}: exit code differs between rounds")
        return out

    def check(self) -> list[str]:
        errors = list(self.errors) + check_lattices(self.groups)
        G, _ = self.groups["S4xC2-perm"]
        if not regoracle.table_matches_permutations(
                self.tables["S4xC2-perm"], G.perms, PERM_S4xC2["degree"],
                PERM_S4xC2["generators"]):
            errors.append("S4xC2-perm: table does not match its permutations")
        G, _ = self.groups["D48-table"]
        if [list(row) for row in G.mult] != dihedral_table(24):
            errors.append("D48-table: the program changed the table it was given")
        for (path, expected, name, cert), code in zip(self.ops, self.outputs):
            label = Path(path).name
            if expected == 2:
                continue  # malformed: anything but exit 2 is counted as failed
            if code not in (0, 1):
                continue  # counted as failed
            if code != expected:
                errors.append(f"verify {label}: exit {code}, expected {expected}")
            if record_holds(self.tables[name], cert) != (expected == 0):
                errors.append(f"verify {label}: the definition-level check says "
                              f"{'invalid' if expected == 0 else 'valid'}")
        return errors

    def close(self) -> None:
        for path, *_ in self.ops:
            Path(path).unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            self.workdir.rmdir()


WORKLOADS = {"survey": Survey, "decide": Decide, "verify": Verify}
