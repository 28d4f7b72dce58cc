import ast
from pathlib import Path

import drbcd
from drbcd import datagen, driver, factorization, schedule, subsolver, tensors


def test_package_exports_the_core_modules_lists():
    names = drbcd.__all__
    assert len(names) == len(set(names))
    core = [datagen, driver, factorization, schedule, subsolver, tensors]
    assert names == [name for module in core for name in module.__all__] + ["__version__"]
    for module in core:
        for name in module.__all__:
            assert getattr(drbcd, name) is getattr(module, name)


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from drbcd import *", namespace)
    assert set(drbcd.__all__) <= set(namespace)


# ---------------------------------------------------------------------------
# dead code, found with the standard library alone

SOURCES = sorted(Path(drbcd.__file__).parent.glob("*.py"))

# Imported and not called: ``bench/tracing.py`` wraps it as an attribute
# of ``factorization``.
UNUSED_IMPORTS_KEPT = {("factorization", "stationarity_measure")}


def parsed():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}


def listed_names(tree) -> set[str]:
    """The strings of the module's ``__all__``, where it is a literal list
    (the package's own is computed, and imports nothing it lists)."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, ast.List)
        ):
            return set(ast.literal_eval(node.value))
    return set()


def referenced(tree) -> set[str]:
    """Every name the module reads, as a name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_imported_name_is_used_or_exported():
    unused = set()
    for module, tree in parsed().items():
        used = referenced(tree) | listed_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.add((module, name))
    assert unused == UNUSED_IMPORTS_KEPT


def test_every_private_definition_is_referenced():
    trees = parsed()
    used = set().union(*(referenced(tree) for tree in trees.values()))
    unreferenced = {
        (module, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in used
    }
    assert unreferenced == set()
