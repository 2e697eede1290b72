"""Every exported name resolves.

A function deleted from a module can leave its name behind in an ``__all__``
list, where only ``from bevbox... import *`` would notice; this checks the
package's list and each submodule's.
"""

import importlib
import pkgutil

import pytest

import bevbox

MODULES = ["bevbox"] + [f"bevbox.{m.name}" for m in pkgutil.iter_modules(bevbox.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
