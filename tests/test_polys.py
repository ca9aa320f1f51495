from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecomp.polys import (MPoly, Poly, RatFunc, biv_exact_div, biv_gcd,
                             det_field, exact_roots, lagrange_interpolate,
                             poly_gcd, resultant_bivariate,
                             resultant_univariate, squarefree_decomposition)
from curvecomp.scalars import CRat, CycField

from conftest import cr, poly


class TestCRat:
    def test_field_ops(self):
        a = cr(Fraction(1, 2), Fraction(3, 4))
        assert (a * a.inverse()) == CRat(1)
        assert (a - a).is_zero()
        assert a + 1 == cr(Fraction(3, 2), Fraction(3, 4))
        assert (a ** 3) * (a ** -3) == CRat(1)

    def test_json_roundtrip(self):
        a = cr(Fraction(-2, 7), Fraction(5, 3))
        assert CRat.from_json(a.to_json()) == a
        assert CRat.from_json([3, 4]) == CRat(Fraction(3, 4))


class TestCyclotomic:
    def test_cube_roots(self):
        f = CycField(12)
        w = f.zeta(4)
        assert (w ** 3) == f.one()
        assert (f.one() + w + w * w).is_zero()
        assert (f.i_unit() ** 2 + f.one()).is_zero()

    def test_inverse(self):
        f = CycField(12)
        x = f.one() + f.zeta(1)
        assert (x * x.inverse()) == f.one()

    def test_crat_roundtrip(self):
        f = CycField(12)
        c = cr(Fraction(2, 3), Fraction(-1, 5))
        assert f.embed_crat(c).to_crat() == c
        with pytest.raises(ValueError):
            f.zeta(1).to_crat()

    def test_numeric_value(self):
        f = CycField(3)
        w = f.zeta(1)
        z = w.to_complex()
        assert abs(z ** 3 - 1) < 1e-12 and abs(z - 1) > 1


class TestPoly:
    def test_divmod_roundtrip(self):
        a = poly(1, 2, 0, 1)
        b = poly(-1, 1)
        q, r = a.divmod(b)
        assert q * b + r == a

    def test_gcd(self):
        a = poly(-1, 0, 1)          # (x-1)(x+1)
        b = poly(-1, 1) * poly(2, 1)
        assert poly_gcd(a, b) == poly(-1, 1)

    def test_squarefree(self):
        assert squarefree_decomposition(poly(0, 0, 1)) == [(poly(0, 1), 2)]
        p = poly(0, 1) ** 3 * poly(1, 1)
        assert squarefree_decomposition(p) == [(poly(1, 1), 1), (poly(0, 1), 3)]

    def test_resultant(self):
        # res(x^2 - 1, x - 2) = (2^2 - 1) * lc stuff = 3
        assert resultant_univariate(poly(-1, 0, 1), poly(-2, 1)) == CRat(3)
        # common root -> 0
        assert resultant_univariate(poly(-1, 1), poly(-1, 0, 1)).is_zero()

    def test_lagrange(self):
        pts = [(CRat(k), CRat(k * k)) for k in range(3)]
        assert lagrange_interpolate(pts) == poly(0, 0, 1)

    def test_exact_roots(self):
        ex, nu = exact_roots(poly(2, -3, 1))
        assert sorted(c.re for c in ex) == [1, 2] and not nu
        ex2, nu2 = exact_roots(poly(-1, 0, 2))
        assert not ex2 and len(nu2) == 2

    def test_exact_root_with_large_denominator(self):
        # a float carries too few digits to snap 123456789/1000003 back
        a = cr(Fraction(123456789, 1000003))
        ex, nu = exact_roots(poly(-a, 1) * poly(-1, 1))
        assert sorted(ex, key=lambda c: c.re) == [CRat(1), a] and not nu
        # signs of both parts survive the snap
        b = cr(Fraction(-987654321, 1000003), Fraction(-5, 7))
        ex, nu = exact_roots(poly(-b, 1) * poly(Fraction(3, 2), 1))
        assert sorted(ex, key=lambda c: c.re) == [b, cr(Fraction(-3, 2))]
        assert not nu

    def test_compose(self):
        p = poly(1, 0, 1)      # x^2 + 1
        q = poly(0, 2)         # 2x
        assert p.eval(q, lambda c: Poly([c])) == poly(1, 0, 4)

    def test_to_poly_pads_in_the_coefficient_field(self):
        f = CycField(12)
        z = f.zeta(1)
        p = MPoly(1, [((2,), z)]).to_poly()
        assert all(c.field is f for c in p.coeffs)
        assert len({p, Poly([f.zero(), f.zero(), z])}) == 1
        assert MPoly(1).to_poly() == Poly()


class TestDet:
    def test_det(self):
        m = [[CRat(1), CRat(2)], [CRat(3), CRat(4)]]
        assert det_field(m) == CRat(-2)
        m2 = [[CRat(1), CRat(2)], [CRat(2), CRat(4)]]
        assert det_field(m2).is_zero()


class TestBivariate:
    def setup_method(self):
        self.x = MPoly.monomial(2, (1, 0))
        self.y = MPoly.monomial(2, (0, 1))
        self.one = MPoly.monomial(2, (0, 0))

    def test_gcd(self):
        x, y, one = self.x, self.y, self.one
        a = (x + y) * (x - y)
        b = (x + y) * (x * x + one)
        g = biv_gcd(a, b)
        assert biv_exact_div(a, g).total_degree() == 1
        assert biv_exact_div(b, g).total_degree() == 2

    def test_exact_div_rejects_a_remainder(self):
        x, y, one = self.x, self.y, self.one
        with pytest.raises(ArithmeticError):
            biv_exact_div(x * y + one, x)       # remainder 1 after quotient y
        with pytest.raises(ArithmeticError):
            biv_exact_div(x * x + one, x * y)   # leading coefficients: 1 / y
        assert biv_exact_div((x + y) * (x - y), x + y) == x - y

    def test_gcd_coprime(self):
        assert biv_gcd(self.x, self.y).total_degree() == 0

    def test_ratfunc_reduction(self):
        x, y = self.x, self.y
        r = RatFunc((x + y) * x, (x + y) * y)
        assert r == RatFunc(x, y)
        assert (r - RatFunc(x, y)).is_zero()

    def test_resultant_bivariate(self):
        x, y, one = self.x, self.y, self.one
        f = x * x + y * y - one
        g = x - y
        r = resultant_bivariate(f, g, elim=1)
        assert r == poly(-1, 0, 2)

    def test_resultant_degree_drop_is_exact(self):
        # nominal-degree Sylvester must specialize correctly even where the
        # leading coefficient vanishes
        x, y = self.x, self.y
        f = x * y + self.one      # leading y-coeff is x, vanishing at x=0
        g = y * y - self.one
        r = resultant_bivariate(f, g, elim=1)
        # res_y(xy + 1, y^2 - 1) = (x+1)(... ) check two values by hand:
        # at x=1: roots y=+-1 of g, f(1,y)=y+1 -> res = lc_g^1 * f-eval product
        assert r.eval(CRat(1)).is_zero()  # y=-1 shared
        assert not r.eval(CRat(2)).is_zero()


# ---------------------------------------------------------------------------
# differential oracle: sympy over QQ<I>
# ---------------------------------------------------------------------------

_gauss = st.builds(lambda a, b, c, d: CRat(Fraction(a, b), Fraction(c, d)),
                   st.integers(-6, 6), st.integers(1, 4),
                   st.integers(-6, 6), st.integers(1, 4))
_biv = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       _gauss, min_size=1, max_size=6).map(
    lambda terms: MPoly(2, terms))


def _sym(sympy, c):
    return sympy.Rational(c.re.numerator, c.re.denominator) + \
        sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)


def _from_sym(sympy, expr, var):
    """A sympy polynomial in var as a Poly with CRat coefficients."""
    out = []
    for c in reversed(sympy.Poly(expr, var).all_coeffs()):
        re, im = sympy.re(c), sympy.im(c)
        out.append(CRat(Fraction(int(re.p), int(re.q)),
                        Fraction(int(im.p), int(im.q))))
    return Poly(out)


class TestSympyOracle:
    @settings(max_examples=40, deadline=None)
    @given(_biv, _biv, st.sampled_from([0, 1]))
    def test_resultant_bivariate(self, f, g, elim):
        sympy = pytest.importorskip("sympy")
        if f.degree_in(elim) < 1 or g.degree_in(elim) < 1:
            return
        xs = sympy.symbols("x0 x1")

        def expr(p):
            return sum((_sym(sympy, c) * xs[0] ** e[0] * xs[1] ** e[1]
                        for e, c in p.terms.items()), sympy.Integer(0))

        want = sympy.expand(sympy.resultant(expr(f), expr(g), xs[elim]))
        got = resultant_bivariate(f, g, elim)
        assert got == _from_sym(sympy, want, xs[1 - elim])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_gauss, min_size=1, max_size=9, unique=True),
           st.lists(_gauss, min_size=9, max_size=9))
    def test_lagrange_interpolate(self, nodes, values):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        pts = list(zip(nodes, values))
        want = sympy.expand(sympy.interpolate(
            [(_sym(sympy, a), _sym(sympy, b)) for a, b in pts], x))
        assert lagrange_interpolate(pts) == _from_sym(sympy, want, x)
