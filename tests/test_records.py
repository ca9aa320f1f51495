"""Every slotted record is immutable through one base, the value records
compare and hash by their data through another, and the result records
declare their fields once through a third.

``curvecomp.Frozen`` rejects assignment and deletion of any field,
``curvecomp.Value`` adds equality and hashing from one ``_key()``, and
``curvecomp.Record`` builds a record and its JSON from its ``__slots__``.
The guard below walks the nine modules, so a new slotted class that forgets
the base, a class with ``to_json`` that is not frozen, or a class that
writes its own ``__setattr__``, fails here.
"""

import importlib
import inspect

import pytest

from curvecomp import Frozen, Record, Value
from curvecomp.borel import (AnalysisOutcome, Case1Report, ExpSum, ExpTerm,
                             Factorization)
from curvecomp.chern import CIData, LogChernReport, TheoremVerdict, invariants
from curvecomp.covering import CyclicCover, SymForm
from curvecomp.expfun import ExpPoly, ExpTermRec
from curvecomp.nevanlinna import (FmtReport, GrowthReport, HomDivisor,
                                  ProjCurve, SmtReport)
from curvecomp.planeconf import (CaseVerdict, Configuration, CrossingsReport,
                                 ExclusionReport, PlaneCurve, ProjPoint,
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
    return ProjPoint.of([CRat(1), CRat(2), CRat(3)])


def _smt():
    return SmtReport([4.0, 8.0], [1.0, 2.0], [0.5, 1.0], [0.5, 1.0], 0.1,
                     0.2, 0.01, 3.0, True)


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
    TangentLine: (lambda: TangentLine((CRat(0), CRat(0), CRat(1)), _point()),
                  "point"),
    GrowthReport: (lambda: GrowthReport([8.0, 16.0], [1.0, 4.0], 0.5, 2.0,
                                        ["log-growth"]), "flags"),
    FmtReport: (lambda: FmtReport([4.0, 8.0], [1, 2], [1.5, 2.5], 0.5, -0.1,
                                  0.2, True), "counting"),
    SmtReport: (_smt, "delta"),
    CrossingsReport: (lambda: CrossingsReport(
        False, [True, True, False],
        [{"pair": [0, 1], "transversal": True, "worst_multiplicity": 1}],
        [_point()]), "pairwise"),
    CaseVerdict: (lambda: CaseVerdict(
        1, "P in C1 and C2", "A transversal at P", "survivor",
        {"m_P": 1, "window_solutions": [(1, 2)]}), "certificate"),
    ExclusionReport: (lambda: ExclusionReport(
        False, False, 1, [{"P": _point().to_json(), "notes": ["exact"]}],
        ["candidate equals the line component: skipped"]), "violations"),
    AnalysisOutcome: (lambda: AnalysisOutcome(
        "case2_proportional", {"per_subset": [{"rho": "2"}], "skipped": []},
        CRat(1), CRat(1, 2)), "witness"),
    Factorization: (lambda: Factorization(
        CRat(1), [(CRat(1), CRat(2), True)], True), "factors"),
    Case1Report: (lambda: Case1Report(3, [4.0, 8.0], [1.0, 4.0], 12.0, 0.1,
                                      _smt(), True, "T exceeds the log ray"),
                  "radii"),
    TheoremVerdict: (lambda: TheoremVerdict(
        True, True, False, notes=["borderline"]), "notes"),
}

# the result records, which build themselves and their JSON from __slots__
REPORTS = [cls for cls in RECORDS if issubclass(cls, Record)]

# the value records: two builders of equal records, and one of a different
VALUES = {
    ExpTermRec: (RECORDS[ExpTermRec][0],
                 lambda: ExpTermRec(poly(2), XI, CRat(0))),
    ExpTerm: (RECORDS[ExpTerm][0], lambda: ExpTerm(CRat(1), 1, 0, 2, 4)),
    CIData: (lambda: CIData([1], [2, 2, 2]), lambda: CIData([], (2, 2, 3))),
    LogChernReport: (RECORDS[LogChernReport][0],
                     lambda: LogChernReport(2, 2, 1, 1, 2, 4)),
    CyclicCover: (RECORDS[CyclicCover][0], lambda: CyclicCover(2)),
    ProjPoint: (lambda: ProjPoint.of([CRat(2), CRat(4), CRat(6)]),
                lambda: ProjPoint.of([CRat(1), CRat(2), CRat(4)])),
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


def test_every_class_with_to_json_derives_from_frozen():
    with_json = {c for c in _classes() if hasattr(c, "to_json")}
    assert set(REPORTS) <= with_json
    assert all(issubclass(c, Frozen) for c in with_json)


def _containers(x, seen):
    """The ids of every list and dict reachable from x, records included."""
    if isinstance(x, Record):
        for name in x.__slots__:
            _containers(getattr(x, name), seen)
    elif isinstance(x, (list, tuple)):
        if isinstance(x, list):
            seen.add(id(x))
        for v in x:
            _containers(v, seen)
    elif isinstance(x, dict):
        seen.add(id(x))
        for v in x.values():
            _containers(v, seen)
    return seen


@pytest.mark.parametrize("cls", REPORTS, ids=lambda c: c.__name__)
def test_report_json_shares_no_container(cls):
    x = RECORDS[cls][0]()
    own = _containers(x, set())
    assert own
    js = x.to_json()
    assert not own & _containers(js, set())
    assert js == x.to_json()


def test_record_rejects_missing_and_unknown_fields():
    lead, factors = CRat(1), [(CRat(1), CRat(2), True)]
    f = Factorization(factors=factors, exact=True, lead=lead)
    assert (f.lead, f.factors, f.exact) == (lead, factors, True)
    with pytest.raises(TypeError, match="missing field 'exact'"):
        Factorization(lead, factors)
    with pytest.raises(TypeError, match=r"got 3 by position and \['size'\]"):
        Factorization(lead, factors, True, size=1)
    with pytest.raises(TypeError, match=r"got 1 by position and \['lead'\]"):
        Factorization(lead, factors=factors, exact=True, lead=lead)
    with pytest.raises(TypeError, match="got 4 by position"):
        Factorization(lead, factors, True, 1)
    v = TheoremVerdict(True, True, True, notes=[])
    assert (v.main2_case, v.mt_applicable) == ("none", False)
    with pytest.raises(TypeError, match="missing field 'notes'"):
        TheoremVerdict(True, True, True)


def test_only_frozen_defines_setattr_or_delattr():
    owners = {c for c in _classes() + [Frozen, Value]
              if {"__setattr__", "__delattr__"} & set(vars(c))}
    assert owners == {Frozen}
