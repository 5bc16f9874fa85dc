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


# ---- the order boundary ----------------------------------------------------------------------

# Modules that work on twice-int orders and floors only: a HalfInt enters
# and leaves through psido's public accessors and halfint's conversions,
# never through floor arithmetic or order lookups here.
TWICE_INT_MODULES = ("ring", "transforms", "kacmoody", "cocycles", "poisson", "svaction",
                     "diffop2")
HALFINT_NAMES = {"HalfInt", "hmax", "hmin", "h"}


def halfint_uses(source: str) -> list:
    """The HalfInt names that source imports or reads as an attribute
    (halfint.HalfInt), and any import of the halfint module itself.  h is
    looked for in imports only: an SvElement's phase loop is X.h."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            found += [n for n in names if n in HALFINT_NAMES]
            if node.module is None:  # from . import halfint
                found += [n for n in names if n == "halfint"]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[-1] == "halfint"]
        elif isinstance(node, ast.Attribute) and node.attr in HALFINT_NAMES - {"h"}:
            found.append(node.attr)
    return found


@pytest.mark.parametrize("name", TWICE_INT_MODULES)
def test_twice_int_modules_use_no_halfint_arithmetic(name):
    path = pathlib.Path(svpsido.__file__).parent / f"{name}.py"
    assert halfint_uses(path.read_text()) == []


def test_the_boundary_guard_sees_halfint_uses():
    source = (
        "from .halfint import EXACT, HalfInt, low_of\n"
        "from .halfint import hmax as top\n"
        "from .halfint import h\n"
        "from . import halfint\n"
        "import svpsido.halfint\n"
        "x = halfint.hmin(1, 2)\n"
        "y = X.h.terms\n"
    )
    assert halfint_uses(source) == ["HalfInt", "hmax", "h", "halfint", "svpsido.halfint", "hmin"]


# ---- one spelling of linear structure ---------------------------------------------------------

# +, - and unary - are the package's only spelling of sums: ring.Value
# writes them once, and the classes whose parts are tables override them.
LINEAR_METHODS = {"add", "sub", "neg"}
LINEAR_FUNCTIONS = {"sym_add", "sym_sub", "sym_neg"}


def linear_spellings(source: str) -> list:
    """The methods named add, sub or neg defined in a class of source, as
    Class.name, and the module-level functions sym_add, sym_sub and
    sym_neg."""
    tree = ast.parse(source)
    found = [f"{node.name}.{item.name}" for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body
             if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in LINEAR_METHODS]
    found += [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in LINEAR_FUNCTIONS]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_linear_structure_is_spelled_with_operators(path):
    assert linear_spellings(path.read_text()) == []


def test_the_linear_guard_sees_other_spellings():
    source = (
        "class A:\n"
        "    def add(self, other): pass\n"
        "    def __add__(self, other): pass\n"
        "    def neg(self): pass\n"
        "class B:\n"
        "    def sub(self, other): pass\n"
        "    def scale(self, c): pass\n"
        "def sym_add(a, b): pass\n"
        "def sym_neg(a): pass\n"
        "def sym_mul(a, b): pass\n"
        "def add(a, b): pass\n"
    )
    assert linear_spellings(source) == ["A.add", "A.neg", "B.sub", "sym_add", "sym_neg"]


# ---- one base for the coefficient tables -------------------------------------------------------

# DiffOp2 and LocalFunctional take their constructor and linear structure
# from ring.CoeffTable, and name their key check in _key alone.
TABLE_CLASSES = {"DiffOp2": "diffop2", "LocalFunctional": "poisson"}
TABLE_METHODS = {"__init__", "__add__", "__sub__", "__neg__", "is_zero", "zero"}


def own_methods(source: str, name: str) -> set:
    """The names that the body of class name in source defines, or binds
    by assignment."""
    cls = next(node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == name)
    found = {item.name for item in cls.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found |= {t.id for item in cls.body if isinstance(item, ast.Assign)
              for t in item.targets if isinstance(t, ast.Name)}
    return found


@pytest.mark.parametrize("name", list(TABLE_CLASSES))
def test_tables_inherit_their_constructor_and_sums(name):
    path = pathlib.Path(svpsido.__file__).parent / f"{TABLE_CLASSES[name]}.py"
    assert own_methods(path.read_text(), name) & TABLE_METHODS == set()


def test_the_table_guard_sees_own_methods():
    source = (
        "class DiffOp2(Base):\n"
        "    __slots__ = ()\n"
        "    def __init__(self, terms): pass\n"
        "    @staticmethod\n"
        "    def zero(): pass\n"
        "    __sub__ = lambda self, other: None\n"
        "    def scale(self, s): pass\n"
        "class Other:\n"
        "    def __add__(self, other): pass\n"
    )
    assert own_methods(source, "DiffOp2") & TABLE_METHODS == {"__init__", "zero", "__sub__"}
