"""Every slotted record is immutable through one base, and the value
records compare and hash by their data through another.

``curvecomp.Frozen`` rejects assignment and deletion of any field, and
``curvecomp.Value`` adds equality and hashing from one ``_key()``.  The
guard below walks the nine modules, so a new slotted class that forgets the
base, or a class that writes its own ``__setattr__``, fails here.
"""

import importlib
import inspect

import pytest

from curvecomp import Frozen, Value
from curvecomp.borel import ExpSum, ExpTerm
from curvecomp.chern import CIData, LogChernReport, invariants
from curvecomp.covering import CyclicCover, SymForm
from curvecomp.expfun import ExpPoly, ExpTermRec
from curvecomp.nevanlinna import HomDivisor, ProjCurve
from curvecomp.planeconf import (Configuration, PlaneCurve, ProjPoint,
                                 TangentLine)
from curvecomp.polys import MPoly, Poly, RatFunc
from curvecomp.scalars import CRat, CycField, CycNum

from conftest import XI, mp3, poly

MODULES = ("scalars", "polys", "expfun", "nevanlinna", "borel", "planeconf",
           "covering", "chern", "cli")


def _line(i):
    e = [0, 0, 0]
    e[i] = 1
    return PlaneCurve(mp3([(tuple(e), 1)]))


def _point():
    return ProjPoint.from_exact([CRat(1), CRat(2), CRat(3)])


# one instance builder and one field of each slotted record
RECORDS = {
    CRat: (lambda: CRat(1, 2), "re"),
    CycNum: (lambda: CycField(12).zeta(), "vec"),
    Poly: (lambda: poly(1, 2), "coeffs"),
    MPoly: (lambda: MPoly.monomial(2, (1, 0)), "terms"),
    RatFunc: (lambda: RatFunc(MPoly.monomial(2, (1, 0))), "num"),
    ExpTermRec: (lambda: ExpTermRec(poly(1), XI, CRat(0)), "coeff"),
    ExpPoly: (lambda: ExpPoly.exp_of(XI), "terms"),
    ProjCurve: (lambda: ProjCurve([ExpPoly.constant(1)]), "components"),
    HomDivisor: (lambda: HomDivisor.hyperplane([CRat(1), CRat(-1)]),
                 "degree"),
    ExpTerm: (lambda: ExpTerm(CRat(1), 1, 0, 2, 3), "i"),
    ExpSum: (lambda: ExpSum([ExpTerm(CRat(1), 0, 0, 0, 1)], XI, XI), "M"),
    CIData: (lambda: CIData([], (2, 2, 2)), "b"),
    LogChernReport: (lambda: invariants(CIData([2], (1, 2, 3))), "A"),
    CyclicCover: (lambda: CyclicCover(3), "b"),
    SymForm: (lambda: SymForm.monomial(2, 1, CRat(1)), "coeffs"),
    PlaneCurve: (lambda: _line(0), "poly"),
    Configuration: (lambda: Configuration([_line(i) for i in range(3)]),
                    "curves"),
    ProjPoint: (_point, "coords"),
    TangentLine: (lambda: TangentLine((CRat(0), CRat(0), CRat(1)), _point(),
                                      True), "point"),
}

# the value records: two builders of equal records, and one of a different
VALUES = {
    ExpTermRec: (RECORDS[ExpTermRec][0],
                 lambda: ExpTermRec(poly(2), XI, CRat(0))),
    ExpTerm: (RECORDS[ExpTerm][0], lambda: ExpTerm(CRat(1), 1, 0, 2, 4)),
    CIData: (lambda: CIData([1], [2, 2, 2]), lambda: CIData([], (2, 2, 3))),
    LogChernReport: (RECORDS[LogChernReport][0],
                     lambda: LogChernReport(2, 2, 1, 1, 2, 4)),
    CyclicCover: (RECORDS[CyclicCover][0], lambda: CyclicCover(2)),
    ProjPoint: (lambda: ProjPoint.from_exact([CRat(2), CRat(4), CRat(6)]),
                lambda: ProjPoint.from_exact([CRat(1), CRat(2), CRat(4)])),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_record_is_frozen(cls):
    make, field = RECORDS[cls]
    x = make()
    assert type(x) is cls and isinstance(x, Frozen)
    assert not hasattr(x, "__dict__")
    before = getattr(x, field)
    with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
        setattr(x, field, before)
    with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, field) is before


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_value_equality_is_by_key(cls):
    make, other = VALUES[cls]
    a, b, c = make(), make(), other()
    assert isinstance(a, Value) and a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c and len({a, b, c}) == 2
    assert (a == 1) is False and a != a._key() and a != object()


def _classes():
    mods = [importlib.import_module(f"curvecomp.{m}") for m in MODULES]
    return [c for mod in mods for _, c in inspect.getmembers(mod,
                                                             inspect.isclass)
            if c.__module__ == mod.__name__]


def test_every_slotted_class_derives_from_frozen():
    slotted = {c for c in _classes() if "__slots__" in vars(c)}
    assert all(issubclass(c, Frozen) for c in slotted)
    assert slotted == set(RECORDS)
    assert {c for c in _classes() if issubclass(c, Value)} == set(VALUES)


def test_only_frozen_defines_setattr_or_delattr():
    owners = {c for c in _classes() + [Frozen, Value]
              if {"__setattr__", "__delattr__"} & set(vars(c))}
    assert owners == {Frozen}
