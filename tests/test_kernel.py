"""The trusted kernel stands alone.

A verdict is only as sound as the program that checks it, so the kernel, the
modules a checker of runs and traces needs, is read here off the import graph
of ``src/duelhalt``: it reaches none of the accelerators, drivers or
reductions, no module borrows a kernel module's private names, and the
strategy layer applies no move of its own.  The graph counts every
import statement, those inside functions too, and importing a module counts
as importing each package above it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

KERNEL = {
    "duelhalt.errors", "duelhalt.coding", "duelhalt.carddb", "duelhalt.trace",
    "duelhalt.engine", "duelhalt.engine.config", "duelhalt.engine.moves",
    "duelhalt.engine.rules",
}
OUTSIDE = {
    "duelhalt.engine.frame", "duelhalt.scripts", "duelhalt.strategy",
    "duelhalt.reductions", "duelhalt.tm", "duelhalt.cli",
}


def _modules() -> dict[str, Path]:
    """Each module of the package by dotted name; a package by its own."""
    out = {}
    for path in sorted((SRC / "duelhalt").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return out


MODULES = _modules()


def _imports(name: str) -> list[tuple[str, tuple[str, ...]]]:
    """(module, names taken from it) for each import in module name, with
    relative imports resolved and ``from pkg import submodule`` read as an
    import of the submodule; modules outside the package are left out."""
    path = MODULES[name]
    package = name.split(".") if path.name == "__init__.py" else name.split(".")[:-1]
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out += [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            names = tuple(alias.name for alias in node.names)
            out.append((module, names))
            out += [(f"{module}.{n}", ()) for n in names if f"{module}.{n}" in MODULES]
    return [(m, names) for m, names in out if m in MODULES]


def _reach(roots) -> set[str]:
    """The modules that importing roots runs, roots included."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for module, _names in _imports(name):
            parts = module.split(".")
            todo += [".".join(parts[:k]) for k in range(1, len(parts) + 1)]
    return seen


def test_the_graph_is_read():
    # the kernel and the rest exist, and the reader sees relative imports,
    # submodules imported by name and the package above an import
    assert KERNEL | OUTSIDE <= set(MODULES)
    assert ("duelhalt.trace", ()) in _imports("duelhalt.cli")
    assert "duelhalt.engine.rules" in {m for m, _n in _imports("duelhalt.engine")}
    assert {"duelhalt.engine.frame", "duelhalt.engine"} <= _reach(["duelhalt.scripts"])


def test_the_kernel_reaches_nothing_outside_it():
    assert _reach(KERNEL) & OUTSIDE == set()


def test_no_module_imports_a_private_kernel_name():
    borrowed = [(name, module, n) for name in MODULES for module, names in _imports(name)
                if module in KERNEL for n in names if n.startswith("_")]
    assert borrowed == []


def test_the_cli_imports_no_private_name():
    # the command line reads every module through its public names
    borrowed = [(module, n) for module, names in _imports("duelhalt.cli")
                for n in names if n.startswith("_")]
    assert borrowed == []


def test_the_strategy_layer_applies_no_move():
    # the drivers follow planned lines: the strategy module binds apply
    # under its own name, since the benchmark's tracer tests count the
    # modules that bind it, and reads it nowhere
    tree = ast.parse(MODULES["duelhalt.strategy"].read_text())
    bound = [alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name == "apply"]
    assert all(name is None for name in bound)  # not renamed to be called as another
    assert not any(isinstance(node, ast.Name) and node.id == "apply"
                   or isinstance(node, ast.Attribute) and node.attr == "apply"
                   for node in ast.walk(tree))
