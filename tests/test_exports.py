"""The package exports only names it has."""

import sparsim


def test_every_exported_name_resolves():
    missing = [name for name in sparsim.__all__ if not hasattr(sparsim, name)]
    assert missing == []
    assert len(set(sparsim.__all__)) == len(sparsim.__all__)
