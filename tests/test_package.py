import wpduality
from wpduality import discrimination, duality, matlin, quantum, sdp

MODULES = (discrimination, duality, matlin, quantum, sdp)


def test_package_exports_every_module_name():
    """The package's public API is the union of its modules' ``__all__``,
    each name bound to the module's own object."""
    assert set(wpduality.__all__) == {name for mod in MODULES for name in mod.__all__}
    assert len(wpduality.__all__) == len(set(wpduality.__all__))
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(wpduality, name) is getattr(mod, name)
