import doctest

import pytest

from catkit import boolmat, dyck, hecke, monoid, permutations, repmin


@pytest.mark.parametrize("module", [permutations, boolmat, dyck, hecke,
                                    monoid, repmin])
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
