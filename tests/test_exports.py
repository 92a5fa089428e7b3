"""The package's public names: every ``__all__`` entry resolves, once."""

import spectral_limits


def test_every_export_resolves():
    missing = [name for name in spectral_limits.__all__ if not hasattr(spectral_limits, name)]
    assert missing == []


def test_no_duplicate_exports():
    names = spectral_limits.__all__
    assert len(names) == len(set(names))


def test_star_import():
    namespace = {}
    exec("from spectral_limits import *", namespace)
    assert set(spectral_limits.__all__) <= set(namespace)
