import importlib
import pkgutil

import pytest

import ipstruct

# the package and each of its modules that declares an export list
MODULES = [m for m in [ipstruct] + [importlib.import_module(f"ipstruct.{info.name}")
                                     for info in pkgutil.iter_modules(ipstruct.__path__)]
           if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
