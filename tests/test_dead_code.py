"""No dead code in `src/bfsmooth/`: every import a module makes is used,
and every module-level private name is referenced somewhere in the
package, so a deletion cannot leave an orphaned import or helper behind.

An import counts as used when its module reads the name, or when a
sibling module imports the name from it.  `__init__.py` is exempt from
the import check: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import bfsmooth

SOURCES = sorted(Path(bfsmooth.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """name -> line of each name the module-level imports bind,
    `from __future__` aside."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def unused_imports(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each import that is neither read by its
    module nor imported from it by a sibling (`from .module import name`)."""
    reexported = {(node.module, alias.name)
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names}
    found = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.extend((module, line, name) for name, line in _imported(tree).items()
                     if name not in read and (module, name) not in reexported)
    return found


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """name -> line of each module-level def, class or assignment whose
    name has one leading underscore."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def unreferenced_privates(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each module-level private name that no
    module reads, as a name or an attribute, or imports."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [(module, line, name) for module, tree in trees.items()
            for name, line in _private_definitions(tree).items()
            if name not in referenced]


def _package() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}


def test_sources_found():
    assert {"__init__", "assembly", "interpolant", "study"} <= set(_package())


def test_no_unused_imports():
    found = unused_imports(_package())
    assert not found, f"unused imports (module, line, name): {found}"


def test_every_private_name_is_referenced():
    found = unreferenced_privates(_package())
    assert not found, f"unreferenced private names (module, line, name): {found}"


def test_checks_see_each_form():
    trees = {
        "a": ast.parse("from __future__ import annotations\nimport os\n"
                       "import numpy as np\nfrom .b import _used, kept\n"
                       "_dead = 1\n_live: int = 2\ndef _orphan(): pass\n"
                       "class _Gone: pass\nnp.zeros(_live)\n_used()\n"),
        "b": ast.parse("def _used(): pass\nkept = 1\nfrom .a import os\n"),
        "__init__": ast.parse("from .b import kept\n"),
    }
    # a's os is re-exported through b, where it is unused
    assert unused_imports(trees) == [("a", 4, "kept"), ("b", 3, "os")]
    assert unreferenced_privates(trees) == [("a", 5, "_dead"), ("a", 7, "_orphan"),
                                            ("a", 8, "_Gone")]
