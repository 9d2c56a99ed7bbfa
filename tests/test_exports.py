"""The package root's export list names exactly its public bindings."""

import types

import prioclose


def test_all_lists_exactly_the_public_bindings():
    public = {
        name
        for name, value in vars(prioclose).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(prioclose.__all__) == sorted(public)
    assert len(set(prioclose.__all__)) == len(prioclose.__all__)


def test_every_listed_name_resolves():
    namespace: dict = {}
    exec("from prioclose import *", namespace)
    assert all(name in namespace for name in prioclose.__all__)
