"""Every name a package lists in `__all__` resolves: `from ... import *`
raises AttributeError on a listed name the package does not define."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["tweetiment", "tweetiment.models"])
def test_star_import_resolves_every_name(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    names = importlib.import_module(module).__all__
    assert len(set(names)) == len(names)
    assert set(names) <= namespace.keys()
