import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curvecomp import nevanlinna
from curvecomp.expfun import ExpPoly
from curvecomp.polys import MPoly, Poly
from curvecomp.scalars import CRat


def cr(a, b=0):
    return CRat(Fraction(a), Fraction(b))


def poly(*coeffs):
    return Poly([c if isinstance(c, CRat) else CRat(Fraction(c))
                 for c in coeffs])


XI = poly(0, 1)
XI2 = poly(0, 0, 1)


def exp_of(p, coeff=1):
    return ExpPoly.exp_of(p, coeff)


def count_evaluations(monkeypatch):
    """Count the integrand evaluations made through integrate_periodic:
    the angles of every call, not the calls."""
    calls = [0]
    inner = nevanlinna.integrate_periodic

    def counted(fn, *args, **kwargs):
        def f(thetas):
            calls[0] += len(thetas)
            return fn(thetas)
        return inner(f, *args, **kwargs)

    monkeypatch.setattr(nevanlinna, "integrate_periodic", counted)
    return calls


def count_reference_columns(monkeypatch):
    """Count the eval_columns calls of nevanlinna that ask for the
    cancellation references (refs=True)."""
    calls = [0]
    inner = nevanlinna.eval_columns

    def counted(expos, comps, zs, refs=False):
        calls[0] += refs
        return inner(expos, comps, zs, refs)

    monkeypatch.setattr(nevanlinna, "eval_columns", counted)
    return calls


def mp3(monos):
    return MPoly(3, [(e, CRat(Fraction(c)) if not isinstance(c, CRat) else c)
                     for e, c in monos])


@pytest.fixture
def one():
    return ExpPoly.constant(1)


@pytest.fixture
def e_xi():
    return exp_of(XI)


@pytest.fixture
def e_xi2():
    return exp_of(XI2)
