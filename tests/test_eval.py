"""MPoly.eval and Poly.eval against the per-ring loops they replaced.

Each reference below is a copy of a loop the package used to carry once per
ring: exact evaluation, complex evaluation, the mpmath coefficient loop of
planeconf's numeric fibre, linear substitution, polynomial composition and
the divisor and form substitutions into ExpPoly curves.  The inputs are
seeded random polynomials; every comparison is exact (complex values with
==, mpmath values at 50 digits with ==).
"""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from curvecomp.expfun import ExpPoly
from curvecomp.nevanlinna import HomDivisor, ProjCurve
from curvecomp.polys import MPoly, Poly
from curvecomp.scalars import CRat, CycField

SEEDS = range(12)
Q12 = CycField(12)


def _crat(rng):
    return CRat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def _cyc(rng):
    return Q12.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(3)])


def _mpoly(rng, nvars, scalar, terms=5, deg=3):
    return MPoly(nvars, [(tuple(rng.randint(0, deg) for _ in range(nvars)),
                          scalar(rng)) for _ in range(terms)])


def _form(rng, nvars, deg):
    """A random homogeneous form of degree deg."""
    items = []
    for _ in range(4):
        e = [0] * nvars
        for _ in range(deg):
            e[rng.randrange(nvars)] += 1
        items.append((tuple(e), _crat(rng)))
    return MPoly(nvars, items)


# -- the removed loops --------------------------------------------------------

def ref_mpoly_exact(p, point):
    out = None
    for e, c in p.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v = v * (x ** k)
        out = v if out is None else out + v
    if out is None:
        return point[0].zero() if point else CRat(0)
    return out


def ref_mpoly_complex(p, point):
    out = 0j
    for e, c in p.terms.items():
        v = c.to_complex()
        for x, k in zip(point, e):
            if k:
                v *= x ** k
        out += v
    return out


def ref_poly_exact(p, x):
    if not p.coeffs:
        return x.zero()
    out = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        out = out * x + c
    return out


def ref_compose(p, q):
    out = Poly()
    for c in reversed(p.coeffs):
        out = out * q + Poly([c])
    return out


def ref_substitute_linear(p, matrix):
    n = p.nvars
    lin = [MPoly(n, [((0,) * j + (1,) + (0,) * (n - j - 1), matrix[i][j])
                     for j in range(n)]) for i in range(n)]
    out = MPoly(n)
    for e, c in p.terms.items():
        m = MPoly.monomial(n, (0,) * n, c)
        for i, k in enumerate(e):
            if k:
                m = m * lin[i] ** k
        out = out + m
    return out


def ref_univariate_mpmath(c, al):
    v = mp.mpc(0)
    for (e,), coeff in c.terms.items():
        v += mp.mpc(str(coeff.re), str(coeff.im)) * al ** e
    return v


def ref_divisor_compose(poly, comps):
    out = ExpPoly.zero()
    for e, c in poly.iter_sorted():
        term = ExpPoly.constant(c)
        for comp, k in zip(comps, e):
            if k:
                term = term * comp ** k
        out = out + term
    return out


def ref_on_curve(p, g1, g2):
    out = ExpPoly.zero()
    for (e1, e2), c in p.iter_sorted():
        term = ExpPoly.constant(c.to_crat())
        if e1:
            term = term * g1 ** e1
        if e2:
            term = term * g2 ** e2
        out = out + term
    return out


# -- the comparisons ----------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scalar", [_crat, _cyc], ids=["crat", "cyc12"])
def test_exact_rings(seed, scalar):
    rng = random.Random(seed)
    p = _mpoly(rng, 3, scalar)
    point = [scalar(rng) for _ in range(3)]
    assert p.eval(point) == ref_mpoly_exact(p, point)
    assert MPoly(3).eval(point) == ref_mpoly_exact(MPoly(3), point)
    q = Poly([scalar(rng) for _ in range(rng.randint(0, 5))])
    x = scalar(rng)
    assert q.eval(x) == ref_poly_exact(q, x)


@pytest.mark.parametrize("seed", SEEDS)
def test_complex(seed):
    rng = random.Random(seed)
    p = _mpoly(rng, 3, _crat, terms=6)
    point = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
    assert p.eval(point, CRat.to_complex) == ref_mpoly_complex(p, point)
    assert MPoly(3).eval(point, CRat.to_complex) == 0j


@pytest.mark.parametrize("seed", SEEDS)
def test_mpmath_50_digits(seed):
    rng = random.Random(seed)
    a = _mpoly(rng, 2, _crat, terms=8, deg=4)
    with mp.workdps(50):
        al = mp.mpc(mp.mpf(rng.uniform(-2, 2)), mp.mpf(rng.uniform(-2, 2)))
        for c in a.as_univariate(1):
            got = c.eval([al], lambda q: mp.mpc(str(q.re), str(q.im)))
            assert got == ref_univariate_mpmath(c, al)


@pytest.mark.parametrize("seed", SEEDS)
def test_mpoly_substitution(seed):
    rng = random.Random(seed)
    p = _mpoly(rng, 3, _crat, deg=2)
    matrix = [[CRat(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
    assert p.substitute_linear(matrix) == ref_substitute_linear(p, matrix)


@pytest.mark.parametrize("seed", SEEDS)
def test_poly_composition(seed):
    rng = random.Random(seed)
    p = Poly([_crat(rng) for _ in range(rng.randint(0, 5))])
    q = Poly([_crat(rng) for _ in range(rng.randint(0, 3))])
    assert p.eval(q, lambda c: Poly([c])) == ref_compose(p, q)


def _expoly(rng):
    return ExpPoly([(Poly([_crat(rng) for _ in range(2)]),
                     Poly([CRat(0), CRat(rng.randint(-1, 1)), CRat(1)]))
                    for _ in range(2)])


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_expoly_composition(seed):
    rng = random.Random(seed)
    comps = [_expoly(rng) for _ in range(3)]
    poly = _form(rng, 3, 2)
    assert HomDivisor(poly).compose(ProjCurve(comps)) == \
        ref_divisor_compose(poly, comps)
    # a form coefficient on a curve, as annihilation_check substitutes it
    g1, g2 = comps[:2]
    p = _mpoly(rng, 2, _crat, terms=3, deg=2)

    def lift(c):
        return ExpPoly.constant(c.to_crat())

    assert p.eval((g1, g2), lift) == ref_on_curve(p, g1, g2)
