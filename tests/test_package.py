"""The package's public surface: airfl.__all__ and what it no longer holds."""

import importlib

import airfl

# removed public names, by the module that used to define them
_REMOVED = {
    "specfun": ("Accuracy", "heaviside"),
    "channel": ("pathloss_amplitude",),
    "fltrain": ("ModelParams", "load_idx", "load_idx_pair", "binary_subset"),
}


def test_all_is_the_public_surface():
    names = airfl.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(airfl, n)]
    assert missing == []

    namespace: dict = {}
    exec("from airfl import *", namespace)
    assert set(names) <= namespace.keys()

    for module, removed in _REMOVED.items():
        mod = importlib.import_module(f"airfl.{module}")
        for name in removed:
            assert name not in names
            assert not hasattr(airfl, name)
            assert not hasattr(mod, name)
