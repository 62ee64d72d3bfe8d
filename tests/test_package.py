import array
import inspect
import math
import pathlib
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
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


def test_one_array_rule():
    """Only ``matlin`` casts an array to a dtype or tests it for finite
    entries: every other module takes an outside array through
    ``matlin.number_array``."""
    holders = [path.name for path in sorted(pathlib.Path(wpduality.__file__).parent.glob("*.py"))
               if re.search(r"np\.isfinite|np\.asarray\([^)]*dtype=",
                            path.read_text(encoding="utf-8"))]
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


IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
# entry point, the float value it accepts (every entry 0 or 1, so that it has
# a bool form), and whether it takes complex entries
ARRAY_INPUTS = {
    "probability-vector": (quantum.probability_vector, [1.0, 0.0], False),
    "shannon-entropy": (quantum.shannon_entropy, [1.0, 0.0], False),
    "channel-statistics": (quantum.ChannelStatistics, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], False),
    "usd-success": (lambda v: quantum.usd_channel_statistics([0.5, 0.5], v), [1.0, 0.0], False),
    "config-priors": (lambda v: quantum.InterferometerConfig(v, IDENTITY), [1.0, 0.0], False),
    "config-gram": (lambda v: quantum.InterferometerConfig([0.5, 0.5], v), IDENTITY, True),
    "problem-gram": (lambda v: sdp.BlockSdpProblem(v, 0.0, 2), IDENTITY, True),
    "hermitian": (matlin.hermitian, IDENTITY, True),
}


def _leaves(tree, leaf):
    return [_leaves(x, leaf) for x in tree] if isinstance(tree, list) else leaf(tree)


def _first_leaf(tree, value):
    return [_first_leaf(tree[0], value), *tree[1:]] if isinstance(tree, list) else value


NOT_NUMBERS = {
    "strings": lambda tree: _leaves(tree, str),
    "bool-list": lambda tree: _leaves(tree, bool),
    "bool-array": lambda tree: np.array(_leaves(tree, bool)),
    "none-leaf": lambda tree: _first_leaf(tree, None),
    "complex": lambda tree: _leaves(tree, complex),
    "object-array-string": lambda tree: np.array(_first_leaf(tree, "1.0"), dtype=object),
}


@pytest.mark.parametrize("spoil", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("entry", ARRAY_INPUTS.values(), ids=ARRAY_INPUTS.keys())
def test_array_inputs_reject_what_is_not_numbers(entry, spoil):
    """Each array entry point takes the one rule, so numbers written as
    strings or bools, a ``None`` leaf, and complex entries where reals are
    expected get ``ValidationError``, although numpy would cast them."""
    call, value, takes_complex = entry
    call(value)
    if takes_complex and spoil is NOT_NUMBERS["complex"]:
        call(spoil(value))  # complex entries are this entry point's numbers
        return
    with pytest.raises(matlin.ValidationError):
        call(spoil(value))


class _ArrayInterface:
    """An array-like that is not a sequence: numpy reads it through ``__array__``."""

    def __init__(self, values):
        self.values = values

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values)


REAL_FORMS = {
    "int-list": ([1, 0], [1.0, 0.0]),
    "int-array": (np.array([1, 0]), [1.0, 0.0]),
    "uint8-array": (np.array([1, 0], dtype=np.uint8), [1.0, 0.0]),
    "float32-array": (np.array([0.5, 0.25], dtype=np.float32), [0.5, 0.25]),
    "tuple": ((0.5, 0.25), [0.5, 0.25]),
    "object-array": (np.array([0.5, 1], dtype=object), [0.5, 1.0]),
    "numpy-scalars": ([np.float64(0.5), np.int64(1), np.float32(0.25)], [0.5, 1.0, 0.25]),
    "numpy-scalar": (np.float64(0.5), 0.5),
    "fractions": ([Fraction(1, 2), Fraction(1, 4)], [0.5, 0.25]),
    "nested-arrays": ([np.array([0.5, 0.25]), np.array([1, 0])], [[0.5, 0.25], [1.0, 0.0]]),
    "0-d-array": ([np.array(0.5), 0.25], [0.5, 0.25]),
    "range": (range(2), [0.0, 1.0]),
    "nested-ranges": ([range(2), range(1, 3)], [[0.0, 1.0], [1.0, 2.0]]),
    "array.array": (array.array("d", [0.5, 0.25]), [0.5, 0.25]),
    "memoryview": (memoryview(array.array("d", [0.5, 0.25])), [0.5, 0.25]),
    "__array__": (_ArrayInterface([0.5, 0.25]), [0.5, 0.25]),
}
COMPLEX = [[1.0, 0.5j], [-0.5j, 1.0]]
COMPLEX_FORMS = {
    "complex-array": (np.array(COMPLEX), COMPLEX),
    "complex-list": (COMPLEX, COMPLEX),
    "complex-object-array": (np.array(COMPLEX, dtype=object), COMPLEX),
    "complex64-list": ([[np.complex64(1.0), 0.5j], [-0.5j, 1]], COMPLEX),
}


@pytest.mark.parametrize("values,expected,dtype", [
    *(pytest.param(v, e, dtype, id=f"{dtype.__name__}-{key}")
      for dtype in (np.float64, np.complex128) for key, (v, e) in REAL_FORMS.items()),
    *(pytest.param(v, e, np.complex128, id=f"complex128-{key}")
      for key, (v, e) in COMPLEX_FORMS.items()),
])
def test_number_array_accepts_every_number(values, expected, dtype):
    """Every form of numbers that numpy casts gives the array the float (or
    complex) list gives: real forms for both dtypes, complex forms for
    complex128."""
    got = matlin.number_array(values, "x", dtype)
    want = np.asarray(expected, dtype=dtype)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("values,message", [
    (["0.5"], "x must hold only numbers"),
    ([Decimal("0.5")], "x must hold only numbers"),  # not a numbers.Real
    ([_ArrayInterface([True, False])], "x must hold only numbers"),
    ([[0.5], [0.5, 0.5]], "x is not numeric: "),
    ([10**400], "x is not numeric: "),
    ([0.5, math.inf], "x must hold finite numbers"),
    ([math.nan], "x must hold finite numbers"),
], ids=["string", "decimal", "bool-__array__", "ragged", "int-beyond-float", "inf", "nan"])
def test_number_array_messages(values, message):
    with pytest.raises(matlin.ValidationError, match=f"^{re.escape(message)}"):
        matlin.number_array(values, "x")
