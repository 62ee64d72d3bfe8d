import inspect
import pathlib
import re

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


def test_module_exports_every_public_definition():
    """Every public function and class a module defines is in its ``__all__``."""
    for mod in MODULES:
        defined = {name for name, obj in vars(mod).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == mod.__name__}
        assert defined - set(mod.__all__) == set(), mod.__name__


def test_one_psd_rule():
    """Only ``matlin`` holds the PSD tolerance or calls LAPACK's ``eigh``:
    every other module checks and decomposes through ``matlin``."""
    holders = [path.name for path in sorted(pathlib.Path(wpduality.__file__).parent.glob("*.py"))
               if re.search(r"PSD_TOL|linalg\.eigh\b", path.read_text(encoding="utf-8"))]
    assert holders == ["matlin.py"]
