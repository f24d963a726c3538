import doctest
import pkgutil
from importlib import import_module

import pytest

import catkit

MODULES = sorted(info.name
                 for info in pkgutil.iter_modules(catkit.__path__, "catkit."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, _ = doctest.testmod(import_module(name))
    assert failures == 0
