import doctest

import pytest

from autorbit import arith, bench, equivalence, fastquot, groups, oracle, orbits, snf

MODULES = [arith, bench, equivalence, fastquot, groups, oracle, orbits, snf]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, tried = doctest.testmod(module)
    assert failures == 0
    assert tried > 0, f"no doctests collected from {module.__name__}"
