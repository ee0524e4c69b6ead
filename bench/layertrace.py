"""Spans around the public functions of each regsets module, recorded from
outside the library.

``Tracer.attach`` replaces every wrapped function in each regsets module
namespace that holds it (the library imports with ``from .x import f``), and
wraps ``__init__`` rather than the class for ``GroupTable`` and ``Subgroup``,
so ``isinstance`` keeps working.  ``detach`` restores the originals.  A name
that the library no longer has is listed in ``missing`` and reports zero.

Spans are kept in memory as parallel arrays (function, parent span, start,
end) and aggregated, or written out, after the traced pass.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute); the metric prefix is "<module>.<name>"
TARGETS = (
    ("cli", "main"),
    ("harness", "survey"),
    ("harness", "verify_certificate_file"),
    ("harness", "group_from_spec_dict"),
    ("harness", "certificate_to_json_text"),
    ("presets", "preset"),
    ("group_core", "GroupTable.__init__"),
    ("group_core", "Subgroup.__init__"),
    ("group_core", "generate_subgroup"),
    ("group_core", "all_subgroups"),
    ("group_core", "is_normal"),
    ("group_core", "normalizer"),
    ("group_core", "quotient"),
    ("group_core", "set_product"),
    ("group_core", "sylow_subgroup"),
    ("cosets", "left_cosets"),
    ("cosets", "decompose_into_double_cosets"),
    ("cosets", "double_coset"),
    ("cosets", "left_coset_count"),
    ("cosets", "conj_index"),
    ("coset_graph", "validate_connection_set"),
    ("coset_graph", "build"),
    ("coset_graph", "profile_subset"),
    ("regular_sets", "decide_regular_set"),
    ("regular_sets", "verify_witness"),
    ("regular_sets", "check_normal_chain"),
    ("regular_sets", "normalizer_reduction"),
    ("regular_sets", "perfect_code_pair"),
    ("regular_sets", "cayley_normal_criterion"),
    ("regular_sets", "perfect_code_normalizer_criterion"),
    ("regular_sets", "perfect_code_quotient_criterion"),
    ("regular_sets", "perfect_code_odd_order_criterion"),
    ("regular_sets", "necessary_conjugate_intersection"),
    ("regular_sets", "necessary_divisibility"),
)

MODULES = ("cli", "harness", "presets", "group_core", "cosets", "coset_graph",
           "regular_sets")


NAMES = tuple(f"{m}.{a.split('.')[0]}" for m, a in TARGETS)

# Inclusive groups: the time inside any of these spans, nested ones counted once.
GROUPS = {
    "certification": ("coset_graph.validate_connection_set",
                      "regular_sets.verify_witness",
                      "coset_graph.build",
                      "coset_graph.profile_subset"),
    "criteria": ("regular_sets.check_normal_chain",
                 "regular_sets.cayley_normal_criterion",
                 "regular_sets.perfect_code_normalizer_criterion",
                 "regular_sets.perfect_code_quotient_criterion",
                 "regular_sets.perfect_code_odd_order_criterion",
                 "regular_sets.necessary_conjugate_intersection",
                 "regular_sets.necessary_divisibility"),
}


def metric_names() -> list[str]:
    """Every per-layer metric name the traced run reports, in a fixed order."""
    out = []
    for name in NAMES:
        out += [f"{name}.calls", f"{name}.self_s"]
    out += [f"{m}.self_s" for m in MODULES]
    out += [f"{g}.total_s" for g in GROUPS]
    out += ["trace.unattributed_s", "trace.overhead_s"]
    return out


class Tracer:
    def __init__(self):
        self.func = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.missing: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, idx: int):
        func, parent, start, end = self.func, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(func)
            func.append(idx)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def attach(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "regsets" or name.startswith("regsets."))}
        for idx, (modname, attr) in enumerate(TARGETS):
            mod = mods.get(f"regsets.{modname}")
            owner_name, _, method = attr.partition(".")
            owner = getattr(mod, owner_name, None) if mod is not None else None
            if owner is None or (method and method not in vars(owner)):
                self.missing.append(NAMES[idx])
                continue
            if method:
                original = vars(owner)[method]
                self._replace(owner, method, original, self._wrap(original, idx))
                continue
            wrapped = self._wrap(owner, idx)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is owner:
                        self._replace(m, key, owner, wrapped)

    def _replace(self, holder, key: str, original, wrapped) -> None:
        setattr(holder, key, wrapped)
        self._restore.append((holder, key, original))

    def detach(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def span_count(self) -> int:
        return len(self.func)

    def aggregate(self) -> dict:
        """Per function: call count and self time (span minus wrapped
        children); per inclusive group: time inside it; top-level total."""
        n = len(self.func)
        func, parent = self.func, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        for i in range(n):
            calls[func[i]] += 1
            self_ns[func[i]] += dur[i] - child[i]
        groups = {}
        for gname, members in GROUPS.items():
            ids = {NAMES.index(m) for m in members}
            inside = array("b", [0]) * n  # span has an ancestor in the group
            total = 0
            for i in range(n):
                p = parent[i]
                inside[i] = p >= 0 and (inside[p] or func[p] in ids)
                if func[i] in ids and not inside[i]:
                    total += dur[i]
            groups[gname] = total / 1e9
        top = sum(dur[i] for i in range(n) if parent[i] < 0)
        return {
            "calls": dict(zip(NAMES, calls)),
            "self_s": {name: ns / 1e9 for name, ns in zip(NAMES, self_ns)},
            "groups": groups,
            "top_level_s": top / 1e9,
        }

    def write_spans(self, path) -> None:
        """A JSON header line (function names, span count, column types), then
        the columns as raw native arrays.  A span's request is found by
        following ``parent`` up to a span whose parent is -1."""
        columns = (("function", self.func), ("parent", self.parent),
                   ("start_ns", self.start), ("end_ns", self.end))
        header = {"functions": list(NAMES), "spans": len(self.func),
                  "columns": [[name, arr.typecode, arr.itemsize] for name, arr in columns]}
        with open(path, "wb") as out:
            out.write((json.dumps(header) + "\n").encode("utf-8"))
            for _, arr in columns:
                arr.tofile(out)
