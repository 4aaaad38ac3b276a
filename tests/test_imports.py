"""Every module of the package uses what it imports and reads every private name it defines."""

import ast
from pathlib import Path

import dadda

# perfbench's tracer wraps ``matmul`` in each module that binds it, and
# perfbench/test_perfbench.py asserts the wrapped binding in problem and
# solver, which do not call it
TRACED_BINDINGS = {("problem.py", "matmul"), ("solver.py", "matmul")}


def _unused_imports(path: Path) -> list[str]:
    """Names that ``path`` imports and neither uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported - used if (path.name, name) not in TRACED_BINDINGS)


def test_every_import_is_used_or_exported():
    paths = sorted(Path(dadda.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    unused = {path.name: names for path in paths if (names := _unused_imports(path))}
    assert not unused, unused


def _private_names(tree: ast.Module) -> set[str]:
    """The module-level ``_name``s that ``tree`` defines: functions, classes
    and assigned names, dunders left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _read_names(tree: ast.Module) -> set[str]:
    """Every name that code in ``tree`` reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_every_private_module_name_is_read():
    # a helper that lost its last caller shows here, not only in review
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(dadda.__file__).parent.glob("*.py"))
    }
    read = set().union(*map(_read_names, trees.values()))
    unread = {
        name: names
        for name, tree in trees.items()
        if (names := sorted(_private_names(tree) - read))
    }
    assert not unread, unread
