"""The error taxonomy: four classes, and every raise in src/mulki names one of three.

A bad config or CLI value is a ConfigError, a malformed file or any other
violated precondition a ContractError, and a non-finite loss a
TrainingDivergedError; MulkiError is their common base. Nothing tells
finer kinds apart, so none may come back. A bare re-raise and a raise of
a caught variable construct nothing and pass.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mulki"
RAISED = {"ContractError", "ConfigError", "TrainingDivergedError"}


def constructed(node: ast.Raise) -> str | None:
    """The name of the exception class `node` constructs, or None for a re-raise."""
    exc = node.exc
    if exc is None or isinstance(exc, ast.Name):
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def test_errors_defines_exactly_four_classes():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes == ["MulkiError", "ContractError", "ConfigError", "TrainingDivergedError"]


def test_every_raise_constructs_one_of_three_classes():
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Raise) and constructed(node) not in (None, *RAISED):
                strays.append(f"{path.name}:{node.lineno}: {constructed(node)}")
    assert strays == []


@pytest.mark.parametrize(
    "source,name",
    [
        ("raise ContractError('x')", "ContractError"),
        ("raise KeyError(f'{a}') from exc", "KeyError"),
        ("raise errors.MulkiError", "errors.MulkiError"),
        ("raise", None),
        ("raise exc", None),
    ],
)
def test_constructed_names_the_class_or_none(source, name):
    assert constructed(ast.parse(source).body[0]) == name

