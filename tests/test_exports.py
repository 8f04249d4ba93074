"""The package's public names."""

from __future__ import annotations

import types

import bicert


def test_all_lists_exactly_the_bound_names():
    bound = {
        name for name, value in vars(bicert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(bicert.__all__)) == len(bicert.__all__)
    assert set(bicert.__all__) == bound
