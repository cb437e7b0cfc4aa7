"""Tests for the package's public namespace."""

import types

import rbell


def test_all_names_the_public_namespace_once():
    names = rbell.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(rbell, name)
    public = {
        name
        for name, value in vars(rbell).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public | {"__version__"}
