"""The value classes are interned: one argument tuple, one object.

Arithmetic gates on identity (`field is other.field`, and `AbelianGroup`
compares by `is`), so two spellings of one value must give the same object,
and an argument that is rejected must be rejected on every call.
"""

import pytest

from starklab.arith import CapacityError
from starklab.biquad import BiquadField
from starklab.grpring import AbelianGroup, InputError
from starklab.lfun import AbelianFieldRealization, DirichletChar
from starklab.numfld import ClassGroup, QuadField
from starklab.verify import Scenario

# (make, other spellings of the same value, rejected arguments)
CASES = {
    "AbelianGroup": (
        lambda: AbelianGroup((2, 2)),
        [lambda: AbelianFieldRealization(8, []).group,
         lambda: AbelianFieldRealization.multiquadratic([-4, 8]).group],
        [(lambda: AbelianGroup((3, 2)), InputError),
         (lambda: AbelianGroup((1,)), InputError),
         (lambda: AbelianGroup((3,) * 7), InputError)]),
    "QuadField": (
        lambda: QuadField(5),
        [lambda: Scenario({"field": {"type": "quad", "disc": 5}}).field],
        [(lambda: QuadField(20), InputError),
         (lambda: QuadField(10 ** 7 + 1), CapacityError)]),
    "BiquadField": (
        lambda: BiquadField(5, 8),
        [],
        [(lambda: BiquadField(5, 5), InputError)]),
    # DirichletChar.quadratic is the interned constructor: a quadratic
    # field's coordinate character is the same object
    "DirichletChar": (
        lambda: DirichletChar.quadratic(-23),
        [lambda: AbelianFieldRealization.quadratic(-23)
         .coordinate_characters[0],
         lambda: Scenario({"field": {"type": "quad", "disc": -23}})
         .realization.coordinate_characters[0]],
        [(lambda: DirichletChar.quadratic(3), InputError),
         (lambda: DirichletChar.quadratic(0), InputError)]),
    "ClassGroup": (
        lambda: ClassGroup(-23),
        [],
        [(lambda: ClassGroup(20), InputError),
         (lambda: ClassGroup(0), InputError)]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_classes_are_interned(name):
    make, spellings, rejected = CASES[name]
    x = make()
    assert type(x).__name__ == name
    assert make() is x
    for spell in spellings:
        assert spell() is x
    # a failed construction caches nothing: it fails again every time
    for bad, error in rejected:
        for _ in range(2):
            with pytest.raises(error):
                bad()
