"""Which ``src/`` modules nothing that ships reaches: a pinned ratchet.

The shipping program is the service (``repro.service.http`` and its
``python -m repro.service`` entry point), the verdict front door
(``repro.termination.portfolio``), and the library API the scripts in
``examples/`` import.  This test walks the AST import closure from those
entry points — imports inside functions included — and compares the
modules it never reaches with :data:`UNREACHED`.  The root package's
re-exports are left out: ``import repro`` reaches ``repro/__init__.py``
only, not everything it re-exports.

A new module nothing imports, or a pinned module that something starts
importing, fails the test until :data:`UNREACHED` is edited to match, so
the list only changes on purpose.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

ENTRY_POINTS = (
    "repro.service.http",
    "repro.service.__main__",
    "repro.termination.portfolio",
)

#: The modules the entry points do not reach.
UNREACHED = {
    "repro.chase.oblivious",
    "repro.chase.real_oblivious",
    "repro.chase.weakly_restricted",
    "repro.core.cores",
    "repro.core.queries",
    "repro.guarded.abstract_join_tree",
    "repro.guarded.chaseable",
    "repro.guarded.join_tree",
    "repro.guarded.treeification",
    "repro.obs.report",
    "repro.sticky.caterpillar",
    "repro.sticky.extraction",
    "repro.util.unionfind",
}

ROOT = "repro"


def module_files():
    modules = {}
    for path in SRC.rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def imported_names(tree, package):
    """Every dotted name an import in ``tree`` may load, relative ones
    resolved against ``package``; ``from m import n`` yields ``m`` and
    ``m.n`` (``n`` may be a submodule)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def reached_from(roots, modules):
    """The closure of ``roots``.  Importing ``a.b.c`` runs the packages
    ``a.b`` above it too, except the root package, whose re-exports are
    left out."""
    seen = set()
    todo = list(roots)
    while todo:
        parts = todo.pop().split(".")
        for depth in range(2, len(parts) + 1):
            name = ".".join(parts[:depth])
            if name in seen or name not in modules:
                continue
            seen.add(name)
            path = modules[name]
            package = name if path.name == "__init__.py" else name.rpartition(".")[0]
            todo.extend(imported_names(ast.parse(path.read_text()), package))
    return seen


def example_imports():
    names = set()
    for path in (REPO / "examples").glob("*.py"):
        names.update(
            name
            for name in imported_names(ast.parse(path.read_text()), "")
            if name.split(".")[0] == ROOT
        )
    return names


def test_unreached_modules_are_the_pinned_list():
    modules = module_files()
    reached = reached_from(set(ENTRY_POINTS) | example_imports(), modules)
    unreached = set(modules) - reached - {ROOT}
    assert unreached == UNREACHED, (
        f"newly unreached: {sorted(unreached - UNREACHED)}; "
        f"now reached: {sorted(UNREACHED - unreached)}"
    )


def test_the_walk_follows_lazy_imports():
    # The engine imports the dependency graph inside a method; the walk
    # must see it, or the closure would undercount.
    modules = module_files()
    assert "repro.termination.dependencies" in reached_from(
        ["repro.chase.engine"], modules
    )
