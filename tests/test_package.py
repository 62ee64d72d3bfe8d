import inspect
import math
import pathlib
import re

import pytest

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


def test_one_number_rule():
    """Only ``matlin`` tests a value against ``numbers``: every other module
    checks a real or integral input through ``matlin.real_in`` or
    ``matlin.integer_at_least``."""
    holders = [path.name for path in sorted(pathlib.Path(wpduality.__file__).parent.glob("*.py"))
               if re.search(r"\bnumbers\.", path.read_text(encoding="utf-8"))]
    assert holders == ["matlin.py"]


REAL_INPUTS = {
    "outcome": lambda v: discrimination.DiscriminationOutcome(v, 0.0, 0.0, "x"),
    "symmetric-overlap": lambda v: discrimination.SymmetricConfig(3, v),
    "asymmetric-p": lambda v: discrimination.AsymmetricConfig(2, v),
    "binary-entropy": quantum.binary_entropy,
    "tolerance": lambda v: sdp.SolverOptions(tolerance=v),
    "surface": lambda v: duality.error_margin_surface(3, v, 0.0),
}


@pytest.mark.parametrize("value", [True, "0.5", None, 0.5 + 0j, math.nan],
                         ids=["bool", "str", "none", "complex", "nan"])
@pytest.mark.parametrize("entry", REAL_INPUTS.values(), ids=REAL_INPUTS.keys())
def test_real_inputs_reject_what_is_not_a_real_number_in_range(entry, value):
    """Each real-number entry point takes the one rule, so a bool, a
    non-real and NaN get ``ValidationError``, not acceptance or a TypeError."""
    with pytest.raises(matlin.ValidationError):
        entry(value)


def test_outcome_flag_must_be_a_bool():
    with pytest.raises(matlin.ValidationError, match="budget_exceeded"):
        discrimination.DiscriminationOutcome(1.0, 0.0, 0.0, "x", budget_exceeded="no")
