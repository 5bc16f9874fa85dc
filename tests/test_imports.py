"""Every name that a package module imports is used there or exported.

No linter ships with the project, so this stands in for its unused-import
rule: a module's imported names must each be read somewhere in the module
or be listed in its __all__.
"""

import ast
import pathlib

import pytest

import svpsido

MODULES = sorted(pathlib.Path(svpsido.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names that source imports and neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = (
        "import os\n"
        "import os.path\n"
        "from math import floor as fl, pi, tau\n"
        "__all__ = ['tau']\n"
        "print(pi)\n"
    )
    assert unused_imports(source) == ["os", "os", "fl"]
