from __future__ import annotations

import types

import cosetcodes


def test_all_is_the_public_surface():
    """Every name in __all__ resolves, and every public attribute of the
    package that is not a submodule is listed in __all__."""
    assert all(hasattr(cosetcodes, name) for name in cosetcodes.__all__)
    public = {
        name
        for name, value in vars(cosetcodes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(cosetcodes.__all__)
