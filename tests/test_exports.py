"""Every exported name resolves, and each is listed once.

A function deleted from a module can leave its name behind in an ``__all__``
list, where only ``from bevbox... import *`` would notice; this checks the
package's list and each submodule's.  The package lists no name itself: it
exports the lists of the modules that define the names.
"""

import ast
import collections
import importlib
import inspect
import pkgutil

import pytest

import bevbox

MODULES = ["bevbox"] + [f"bevbox.{m.name}" for m in pkgutil.iter_modules(bevbox.__path__)]

# The submodules with an ``__all__`` list, in file name order.
LISTING = [module for module in map(importlib.import_module, MODULES[1:])
           if hasattr(module, "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_the_module_lists():
    assert [m.__name__ for m in LISTING] == [
        "bevbox.assignment", "bevbox.geometry", "bevbox.gradients", "bevbox.harness",
        "bevbox.losses"]
    assert bevbox.__all__ == [name for m in LISTING for name in m.__all__] + ["__version__"]


def test_no_name_in_two_lists():
    counts = collections.Counter(name for m in LISTING for name in m.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


@pytest.mark.parametrize("module", LISTING, ids=lambda m: m.__name__)
def test_listed_names_are_defined_in_their_module(module):
    # A top-level def, class or assignment of the module's own source; an
    # imported name is not one.
    tree = ast.parse(inspect.getsource(module))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert [name for name in module.__all__ if name not in defined] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bevbox import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(bevbox.__all__)
