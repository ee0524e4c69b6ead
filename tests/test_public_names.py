"""Every public function and class of the library is used by the library,
or is listed below with the reason it stays."""

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
    "regular_sets.verify_witness": "bench/layertrace.TARGETS traces it",
    "regular_sets.necessary_divisibility": "bench/layertrace.TARGETS traces it",
    "regular_sets.arc_transitive_perfect_code":
        "a corollary of the paper, checked by the acceptance suite",
    "regular_sets.perfect_code_sylow_criterion":
        "a corollary of the paper, checked by the acceptance suite",
    "presets.standard_corpus": "the public corpus of groups of order <= 16",
}


def test_every_unreferenced_public_name_is_listed():
    defined = []
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = {name for name in defined if name.split(".")[1] not in referenced}
    assert unreferenced == set(UNREFERENCED)
