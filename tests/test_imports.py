"""Import direction inside the package.

config owns the schema every layer reads, so it sits at the bottom: it
imports no package module but errors and jsonutil, and taskgen takes
StreamConfig from it. Neither config.py nor anything it imports may
import runner or cli, and it reaches no training code at all (losses,
tensor). No package module imports cli, the outermost layer.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mulki"


def imported_modules(path: Path) -> set:
    """Names of the package modules that `path` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("mulki."))
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "mulki"):
            module = (node.module or "").removeprefix("mulki").lstrip(".")
            if module:
                names.add(module.split(".")[0])
            else:  # from . import a, b
                names.update(alias.name for alias in node.names)
    return names


def reachable(module: str) -> set:
    """`module` and every package module it imports, directly or not."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        path = PACKAGE / f"{name}.py"
        if name not in seen and path.exists():
            seen.add(name)
            todo.extend(imported_modules(path))
    return seen


def test_config_imports_neither_runner_nor_cli():
    assert imported_modules(PACKAGE / "config.py").isdisjoint({"runner", "cli"})
    assert reachable("config").isdisjoint({"runner", "cli"})


def test_config_reaches_neither_losses_nor_tensor():
    assert reachable("config").isdisjoint({"losses", "tensor"})


def test_no_package_module_imports_cli():
    importers = [p.name for p in sorted(PACKAGE.glob("*.py")) if p.name != "cli.py" and "cli" in imported_modules(p)]
    assert importers == []


def test_config_imports_only_errors_and_jsonutil():
    assert imported_modules(PACKAGE / "config.py") <= {"errors", "jsonutil"}


def test_taskgen_takes_stream_config_from_config():
    tree = ast.parse((PACKAGE / "taskgen.py").read_text(encoding="utf-8"))
    sources = {
        node.module.removeprefix("mulki").lstrip(".")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(alias.name == "StreamConfig" for alias in node.names)
    }
    assert sources == {"config"}
    assert not any(isinstance(node, ast.ClassDef) and node.name == "StreamConfig" for node in ast.walk(tree))
