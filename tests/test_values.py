"""The engine's value types: equality, hashing, ordering, immutability and repr.

The reprs are pinned as literal strings because the demos print these types.
"""
import copy
import pickle
from fractions import Fraction as F

import pytest

from modunits.cusps import Cusp, DivisorVector, divisor_of_siegel_power
from modunits.thetag import ThetaChar
from modunits.units import FracVector, GammaMatrix
from modunits.verify import VerifyReport

FROZEN = [
    (FracVector(F(1, 2), F(-1, 3)), "r"),
    (GammaMatrix(1, 1, 0, 1), "a"),
    (Cusp(0, 1, 2), "level"),
    (ThetaChar([0, F(1, 2)], [F(1, 3), 1]), "s"),
]


@pytest.mark.parametrize(
    "value, text",
    [
        (FracVector(F(1, 2), F(-1, 3)), "FracVector(r=Fraction(1, 2), s=Fraction(-1, 3))"),
        (FracVector(1, 0), "FracVector(r=Fraction(1, 1), s=Fraction(0, 1))"),
        (GammaMatrix(1, 1, 0, 1), "GammaMatrix(a=1, b=1, c=0, d=1)"),
        (Cusp(0, 1, 2), "Cusp(a=0, c=1, level=2)"),
        (
            divisor_of_siegel_power(FracVector(F(1, 2), 0), 2),
            "DivisorVector(level=2, orders=(4, -2, -2))",
        ),
        (
            VerifyReport("jacobi", "trunc=3", True),
            "VerifyReport(identity='jacobi', parameter='trunc=3', passed=True, witness=None, wall_ms=0.0)",
        ),
        (
            VerifyReport("rank", "N=4", False, witness="w", wall_ms=1.5),
            "VerifyReport(identity='rank', parameter='N=4', passed=False, witness='w', wall_ms=1.5)",
        ),
        (
            ThetaChar([0, F(1, 2)], [F(1, 3), 1]),
            "ThetaChar(r=(Fraction(0, 1), Fraction(1, 2)), s=(Fraction(1, 3), Fraction(1, 1)))",
        ),
    ],
)
def test_repr(value, text):
    assert repr(value) == text


def test_equal_values_hash_equal():
    pairs = [
        (FracVector(F(1, 2), F(1, 3)), FracVector("1/2", F(2, 6))),
        (GammaMatrix(2, 1, 1, 1), GammaMatrix(2, 1, 1, 1)),
        (ThetaChar((F(1, 2),), (0,)), ThetaChar([0.5], [F(0)])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert FracVector(F(1, 2), F(1, 3)) != FracVector(F(1, 2), F(1, 4))
    assert GammaMatrix(1, 1, 0, 1) != GammaMatrix(1, 0, 0, 1)
    assert ThetaChar((0,), (0,)) != ThetaChar((0, 0), (0, 0))
    # another type compares unequal, as with a dataclass: the fields do not make it equal
    assert FracVector(1, 0) != (F(1), F(0))
    assert GammaMatrix(1, 0, 0, 1) != (1, 0, 0, 1)


def test_cusp_compares_and_hashes_by_a_c_and_level():
    assert Cusp(1, 2, 5) == Cusp(1, 2, 5) and hash(Cusp(1, 2, 5)) == hash(Cusp(1, 2, 5))
    assert Cusp(1, 2, 5) != Cusp(1, 2, 7)
    assert Cusp(1, 2, 5) != Cusp(2, 1, 5)
    assert Cusp(1, 2, 5) != (1, 2, 5)
    assert len({Cusp(1, 2, 5), Cusp(1, 2, 7), Cusp(1, 3, 5), Cusp(1, 2, 5)}) == 3


@pytest.mark.parametrize("value, field", FROZEN)
def test_frozen_types_refuse_assignment(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 0
    assert repr(value) == before


@pytest.mark.parametrize("value", [v for v, _ in FROZEN])
def test_frozen_types_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def test_mutable_types_compare_by_fields_and_do_not_hash():
    report = VerifyReport("jacobi", "trunc=3", True)
    assert report == VerifyReport("jacobi", "trunc=3", True)
    report.wall_ms = 2.0  # the timer sets it after the check
    assert report != VerifyReport("jacobi", "trunc=3", True)
    div = divisor_of_siegel_power(FracVector(F(1, 2), 0), 2)
    assert div == DivisorVector(2, [4, -2, -2])
    assert div != DivisorVector(4, div.orders)
    for value in (report, div):
        with pytest.raises(TypeError):
            hash(value)


def test_constructors_validate():
    with pytest.raises(ValueError, match="determinant"):
        GammaMatrix(1, 1, 1, 1)
    with pytest.raises(ValueError, match="primitive"):
        Cusp(2, 4, 6)
    with pytest.raises(ValueError, match="same length"):
        ThetaChar((0, 0), (0,))
    assert FracVector(r="1/2", s=0.25) == FracVector(F(1, 2), F(1, 4))
