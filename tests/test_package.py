"""The package's public names: each module's __all__, exported once."""

import gsmgof
from gsmgof import bounds, errors, gsm, montecarlo, sequences, testproc

MODULES = (bounds, errors, gsm, montecarlo, sequences, testproc)


def test_every_module_name_is_exported():
    for module in MODULES:
        missing = set(module.__all__) - set(gsmgof.__all__)
        assert not missing, f"{module.__name__}: {sorted(missing)}"


def test_no_name_is_exported_twice():
    assert len(gsmgof.__all__) == len(set(gsmgof.__all__))


def test_every_exported_name_resolves():
    for name in gsmgof.__all__:
        assert hasattr(gsmgof, name), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gsmgof, name) is getattr(module, name), name
