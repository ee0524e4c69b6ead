"""Every top-level function and class of the library is used by the
library outside its own definition, or is a public name listed below with
the reason it stays; and every field of a class is read by the library, or
is listed below with the reason it stays."""

import ast
from pathlib import Path

import regsets

SRC = Path(regsets.__file__).parent

# Public names that no module of regsets refers to, outside the re-exports
# of __init__ and their own definitions.
UNREFERENCED = {
    "coset_graph.build": "bench/layertrace.TARGETS traces it",
    "coset_graph.profile_subset": "bench/layertrace.TARGETS traces it",
    "cosets.conj_index": "bench/layertrace.TARGETS traces it",
    "cosets.double_coset": "bench/layertrace.TARGETS traces it",
    "regular_sets.verify_witness": "bench/layertrace.TARGETS traces it",
    "regular_sets.necessary_divisibility": "bench/layertrace.TARGETS traces it",
    "regular_sets.arc_transitive_perfect_code":
        "a corollary of the paper, checked by the acceptance suite",
    "regular_sets.perfect_code_sylow_criterion":
        "a corollary of the paper, checked by the acceptance suite",
    "presets.standard_corpus": "the public corpus of groups of order <= 16",
}


def _names_used(node) -> set[str]:
    """The names and attribute names that appear anywhere in ``node``."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _unreferenced_definitions() -> set[str]:
    """``module.name`` of each top-level function and class of regsets that
    no top-level statement of regsets, other than its own definition, uses;
    the re-exports of __init__ do not count."""
    definitions = []  # (module.name, name, the statement defining it)
    statements = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        body = ast.parse(path.read_text(encoding="utf-8")).body
        statements += body
        definitions += [(f"{path.stem}.{node.name}", node.name, node) for node in body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    used = {id(node): _names_used(node) for node in statements}
    return {
        full for full, name, defn in definitions
        if not any(name in names for key, names in used.items() if key != id(defn))
    }


def test_every_unreferenced_public_name_is_listed():
    # a private definition is never listed: it is used or it goes
    assert _unreferenced_definitions() == set(UNREFERENCED)


# Private names that a module of regsets imports from another one, as
# "importer <- module.name", each with the reason it crosses the boundary.
PRIVATE_IMPORTS = {
    "coset_graph <- group_core._members_of": "lists a connection set or neighbour mask",
    "cosets <- group_core._mask_of": "mask_of range-checks outside ids, then builds the mask",
    "cosets <- group_core._members_of": "double_coset lists the bits of its mask",
    "harness <- regular_sets._CHECK_NAMES": "a stored certificate names the five checks",
    "presets <- group_core._bfs_table": "sl23 tabulates its matrices as from_generators does",
    "presets <- group_core._byte_rows": "direct_product lays out its byte kernel",
    "presets <- group_core._translation": "direct_product composes byte rows",
    "regular_sets <- group_core._conjugate_mask": "necessary_conjugate_intersection reads H^g",
    "regular_sets <- group_core._members_of": "orders a component's units by block masks",
}


def _private_imports() -> set[str]:
    """``importer <- module.name`` for each private name that a module of
    regsets imports from another module of regsets."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.ImportFrom) and sub.level:
                found |= {f"{path.stem} <- {sub.module}.{alias.name}"
                          for alias in sub.names if alias.name.startswith("_")}
    return found


def test_every_private_import_is_listed():
    assert _private_imports() == set(PRIVATE_IMPORTS)


def test_only_group_core_and_the_product_kernel_use_byte_rows():
    # GroupTable picks the format of every table's rows; harness passes a
    # table spec's rows to from_table as they are
    users = {f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and "_byte_rows" in _names_used(node)}
    assert users == {"group_core.GroupTable", "group_core._bfs_table", "presets.direct_product"}


# Fields of regsets classes that no module of regsets reads.
UNREAD_FIELDS = {
    "QuotientGroup.projection": "read by the tests and their oracles",
    "QuotientGroup.section": "read by the tests and their oracles",
    "NormalizerReduction.applicable": "a public result: whether G = N_G(H) * A",
    "WitnessReport.ok": "a public result: whether every check passed",
}


def _class_fields() -> set[str]:
    """``Class.field`` for each field of a top-level class of regsets: an
    annotation or an assignment in the class body (a NamedTuple field, a
    dataclass field or a class attribute) or a ``self.field = ...``
    assignment in one of its methods."""
    fields = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            targets = [sub.target for sub in node.body if isinstance(sub, ast.AnnAssign)]
            targets += [t for sub in node.body if isinstance(sub, ast.Assign) for t in sub.targets]
            fields |= {f"{node.name}.{t.id}" for t in targets if isinstance(t, ast.Name)}
            fields |= {f"{node.name}.{sub.attr}" for sub in ast.walk(node)
                       if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                       and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
    return fields


def _attributes_read() -> set[str]:
    """The attribute names that regsets reads anywhere."""
    read = set()
    for path in sorted(SRC.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                read.add(sub.attr)
    return read


def test_every_private_field_is_read():
    # a field that is only unpacked or never read is dead weight, in a
    # public class as in a private one, unless it is listed with its reason
    fields = _class_fields()
    assert {"_Unit.reps", "GroupTable.order", "PairSpec.H"} <= fields
    read = _attributes_read()
    assert {f for f in fields if f.split(".")[1] not in read} == set(UNREAD_FIELDS)


def _unused_imports() -> set[str]:
    """``module.name`` of each name that a module of regsets imports and
    never loads; __init__ imports to re-export and is left out."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Import) or (
                    isinstance(sub, ast.ImportFrom) and sub.module != "__future__"):
                bound |= {(alias.asname or alias.name).split(".")[0] for alias in sub.names}
        loaded = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused |= {f"{path.stem}.{name}" for name in bound - loaded}
    return unused


def test_every_imported_name_is_used():
    # an import left behind by a deletion is dead weight
    assert _unused_imports() == set()


def _modules_imported() -> set[str]:
    """The top-level package of every module that regsets imports, relative
    imports left out."""
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in sub.names}
            elif isinstance(sub, ast.ImportFrom) and sub.level == 0:
                imported.add(sub.module.split(".")[0])
    return imported


def test_the_library_runs_in_one_process():
    # a survey decides its rows in the calling process: no pool, no threads
    imported = _modules_imported()
    assert "json" in imported
    assert imported & {"concurrent", "multiprocessing", "threading"} == set()


def test_pair_data_is_cached_in_one_property():
    # the decision and the normal-chain conditions read one per-pair analysis
    body = ast.parse((SRC / "regular_sets.py").read_text(encoding="utf-8")).body
    pair = next(node for node in body
                if isinstance(node, ast.ClassDef) and node.name == "PairSpec")
    cached = [node.name for node in pair.body if isinstance(node, ast.FunctionDef)
              and any(_names_used(d) == {"cached_property"} for d in node.decorator_list)]
    assert cached == ["_context"]
