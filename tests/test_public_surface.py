"""Every module-level public function and class of `benchlens` has a reader in the package.

An AST scan of `src/benchlens`: a name counts as read where another statement
of the package names it (a name, an attribute or an import), outside its own
definition. The re-exports of `__init__.py` are no reader. The exceptions are
the names only users and scripts call: the bundled sample paths of the README
quickstart and `dataset.save_scores`, which `scripts/make_sample_data.py` calls.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import benchlens

PACKAGE = Path(benchlens.__file__).parent
UNREAD = {
    "bundled.sample_store_path", "bundled.sample_scores_path", "bundled.sample_countermap_path",
    "bundled.sample_raw_dump_path", "dataset.save_scores",
}


def reads(tree: ast.AST) -> Counter:
    """How often `tree` names each identifier: as a name, an attribute or an import."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    )


def test_every_public_function_and_class_is_read_in_the_package():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    del modules["__init__"]
    read = sum(map(reads, modules.values()), Counter())
    unread = {
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and read[node.name] == reads(node)[node.name]  # named only inside its own definition
    }
    assert unread == UNREAD
