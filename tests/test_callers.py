"""Every public function, class and method in src/mulki has a caller in src/.

A name that only tests reach is surface production does not run; it goes,
or moves next to the tests that use it. A reference inside the name's own
definition (recursion) does not count, and neither does an import. A name
defined inside a class (a method, property or nested class) counts only
`obj.name` attribute references, so a local variable that shares its name
does not keep it alive.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mulki"

ALLOWED = {
    # the console-script entry point (pyproject.toml) and `python -m mulki.cli`
    "cli.main",
}


def definitions_and_references():
    """({"module.name": [(path, first line, last line, in a class)]}, [(path, line, name, is an attribute)])."""
    definitions, references = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [(tree, False)]
        while scopes:
            scope, in_class = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not node.name.startswith("_") and (in_class or scope is tree):
                        key = f"{path.stem}.{node.name}"
                        definitions.setdefault(key, []).append((path, node.lineno, node.end_lineno, in_class))
                    scopes.append((node, isinstance(node, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((path, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                references.append((path, node.lineno, node.attr, True))
    return definitions, references


def test_every_public_name_has_a_caller_in_src():
    definitions, references = definitions_and_references()
    uncalled = []
    for key, spans in sorted(definitions.items()):
        name = key.split(".", 1)[1]
        attributes_only = all(in_class for *_, in_class in spans)
        called = any(
            ref == name
            and (is_attribute or not attributes_only)
            and not any(path == p and first <= line <= last for p, first, last, _ in spans)
            for path, line, ref, is_attribute in references
        )
        if not called and key not in ALLOWED:
            uncalled.append(key)
    assert uncalled == []


def test_allow_list_names_real_definitions():
    definitions, _ = definitions_and_references()
    assert ALLOWED <= set(definitions)
