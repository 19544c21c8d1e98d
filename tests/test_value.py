"""The package's value classes, which share nimtower.value.Value: equality,
hashing, repr, immutability, defaults, pickling and the validating
constructors."""

import copy
import pickle

import pytest

from nimtower import expr
from nimtower.errors import LevelError, NotInField, ValidationError
from nimtower.fermat import FactoredOrder, FermatFactorization
from nimtower.orders import AlphaChain
from nimtower.report import CheckRecord, VerificationReport
from nimtower.tower import TowerElement
from nimtower.value import Value

# (class, fields, repr) for every value class.
SAMPLES = [
    (TowerElement, (4, 0x1234), "0x1234@L4"),
    (FermatFactorization, (2, (17,)), "FermatFactorization(j=2, factors=(17,))"),
    (FactoredOrder, (15, (3, 5)), "FactoredOrder(value=15, factors=(3, 5))"),
    (AlphaChain, (3, "c", (257, 17, 5)), "AlphaChain(i=3, base='c', alphas=(257, 17, 5))"),
    (CheckRecord, ("thm1.i02", True, "x"), "CheckRecord(check_id='thm1.i02', ok=True, detail='x')"),
    (
        VerificationReport,
        ([CheckRecord("l2ex.order-sum", False, "")],),
        "VerificationReport(records=[CheckRecord(check_id='l2ex.order-sum', ok=False, detail='')])",
    ),
    (expr.Sum, ((expr.CAtom(1), expr.BitAtom(1)),), "Sum(terms=(CAtom(k=1), BitAtom(value=1)))"),
    (expr.Prod, ((expr.AAtom(2), expr.HexAtom(31, 3)),), "Prod(factors=(AAtom(k=2), HexAtom(value=31, level=3)))"),
    (expr.Pow, (expr.CAtom(3), expr.IntLit(5)), "Pow(base=CAtom(k=3), exponent=IntLit(value=5))"),
    (expr.CAtom, (1,), "CAtom(k=1)"),
    (expr.AAtom, (1,), "AAtom(k=1)"),
    (expr.BitAtom, (0,), "BitAtom(value=0)"),
    (expr.HexAtom, (255, None), "HexAtom(value=255, level=None)"),
    (expr.IntLit, (0,), "IntLit(value=0)"),
    (expr.FermatRef, (5,), "FermatRef(j=5)"),
    (expr.IntMul, (expr.IntLit(2), expr.FermatRef(3)), "IntMul(left=IntLit(value=2), right=FermatRef(j=3))"),
    (expr.IntDiv, (expr.FermatRef(5), expr.IntLit(641)), "IntDiv(left=FermatRef(j=5), right=IntLit(value=641))"),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]
UNHASHABLE = {VerificationReport}  # a list field


def test_samples_cover_every_value_class():
    assert {cls for cls, _, _ in SAMPLES} == set(Value.__subclasses__())
    assert len(SAMPLES) == 17


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_objects_with_equal_hashes(cls, fields, text):
    a, b = cls(*fields), cls(*copy.deepcopy(fields))
    assert a == b and not a != b
    assert tuple(getattr(a, name) for name in cls.__slots__) == fields
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(fields)


def test_equality_is_type_strict():
    assert expr.CAtom(1) != expr.AAtom(1)
    assert expr.IntLit(0) != expr.BitAtom(0)
    assert expr.IntMul(1, 2) != expr.IntDiv(1, 2)
    assert TowerElement(3, 5) != (3, 5) and TowerElement(3, 5) != 5
    assert expr.CAtom(1) != expr.CAtom(2)
    assert len({expr.CAtom(1), expr.AAtom(1), expr.CAtom(1)}) == 2


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_frozen_fields_refuse_assignment_and_deletion(cls, fields, text):
    x = cls(*fields)
    if cls is VerificationReport:  # the one mutable class
        x.records = []
        assert x == VerificationReport()
        return
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == cls(*fields)


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(cls(*fields)) == text


def test_defaults_are_fresh_per_instance():
    r1, r2 = VerificationReport(), VerificationReport()
    r1.add("a", True)
    assert r1.records == [CheckRecord("a", True, "")] and r2.records == []


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, fields, text):
    x = cls(*fields)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x and repr(y) == text


def test_fields_by_name_and_wrong_calls():
    assert CheckRecord(check_id="a", ok=True, detail="") == CheckRecord("a", True, "")
    assert CheckRecord("a", detail="", ok=True) == CheckRecord("a", True, "")
    assert TowerElement(level=3, value=5) == TowerElement(3, 5)
    assert VerificationReport(records=[]) == VerificationReport()
    for call in (
        lambda: expr.CAtom(),
        lambda: expr.CAtom(1, 2),
        lambda: expr.CAtom(1, k=1),
        lambda: expr.CAtom(j=1),
        lambda: CheckRecord("a", True),
        lambda: TowerElement(3),
    ):
        with pytest.raises(TypeError):
            call()


def test_validating_constructors():
    with pytest.raises(NotInField):
        TowerElement(2, 256)
    with pytest.raises(NotInField):
        TowerElement(-1, -1)
    with pytest.raises(LevelError):
        TowerElement(21, 0)
    with pytest.raises(ValidationError):
        FactoredOrder(10, (3,))
    with pytest.raises(ValidationError):
        FactoredOrder(15, (5, 3))


def test_of_primes_equals_the_checked_constructor_without_rechecking(monkeypatch):
    checked = FactoredOrder(15, (3, 5))
    built = FactoredOrder.of_primes((3, 5))
    assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)

    def refuse(*args):
        raise AssertionError("re-checked")

    monkeypatch.setattr(FactoredOrder, "__init__", refuse)
    assert FactoredOrder.of_primes((3, 5)) == checked
