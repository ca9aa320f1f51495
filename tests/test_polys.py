from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecomp.polys import (MPoly, Poly, RatFunc, biv_exact_div, biv_gcd,
                             det_field, exact_roots, lagrange_interpolate,
                             poly_gcd, rank_field, resultant_bivariate,
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

    def test_linear_root_is_exact_at_any_denominator(self):
        a = cr(Fraction(7, 10 ** 12 + 39))
        assert exact_roots(poly(-a, 1)) == ([a], [])
        # a linear remainder left by deflation too
        b = cr(Fraction(-5, 10 ** 30 + 7), Fraction(1, 3))
        ex, nu = exact_roots(poly(-b, 1) * poly(-2, 1))
        assert ex == [CRat(2), b] and nu == []

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

    def test_poly_over_poly(self):
        # K[y][x]: * is the product in x, scale() applies a coefficient
        y = poly(0, 1)
        f = Poly([poly(1), Poly(), poly(1)])             # 1 + x^2
        assert f * Poly([y]) == Poly([y, Poly(), y])     # y + x^2 y
        assert f.scale(y) == f * Poly([y])
        assert f.zero() == Poly()
        # the pseudo-remainder keeps to the ring: over Q it is the scalar 5
        assert poly(1, 0, 1).pseudo_rem(poly(1, 2)) == poly(5)

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


def _crat(sympy, c):
    """A Gaussian rational sympy number as a CRat."""
    re, im = sympy.re(c), sympy.im(c)
    return CRat(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _from_sym(sympy, expr, var):
    """A sympy polynomial in var as a Poly with CRat coefficients."""
    return Poly([_crat(sympy, c)
                 for c in reversed(sympy.Poly(expr, var).all_coeffs())])


def _biv_sym(sympy, p, xs, lift=None):
    """A bivariate MPoly as a sympy expression in xs; lift maps a
    coefficient into sympy (default: a Gaussian rational)."""
    lift = lift or (lambda c: _sym(sympy, c))
    return sum((lift(c) * xs[0] ** e[0] * xs[1] ** e[1]
                for e, c in p.terms.items()), sympy.Integer(0))


def _lex_monic(p: MPoly) -> MPoly:
    """p scaled to lex-leading coefficient one, as biv_gcd returns it."""
    return p.scale(p.terms[max(p.terms)].inverse())


@st.composite
def _matrices(draw, square):
    """Products of an n x k and a k x m Gaussian-rational matrix, so that
    singular and rank-deficient matrices are common."""
    n = draw(st.integers(1, 4))
    m = n if square else draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    entry = st.one_of(st.just(CRat(0)), _gauss)
    a = [[draw(entry) for _ in range(k)] for _ in range(n)]
    b = [[draw(entry) for _ in range(m)] for _ in range(k)]
    return [[sum((a[i][t] * b[t][j] for t in range(k)), CRat(0))
             for j in range(m)] for i in range(n)]


class TestSympyOracle:
    @settings(max_examples=40, deadline=None)
    @given(_biv, _biv, st.sampled_from([0, 1]))
    def test_resultant_bivariate(self, f, g, elim):
        sympy = pytest.importorskip("sympy")
        if f.degree_in(elim) < 1 or g.degree_in(elim) < 1:
            return
        xs = sympy.symbols("x0 x1")
        want = sympy.expand(sympy.resultant(_biv_sym(sympy, f, xs),
                                            _biv_sym(sympy, g, xs), xs[elim]))
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

    @settings(max_examples=30, deadline=None)
    @given(_biv, _biv, _biv)
    def test_biv_gcd(self, f, g, h):
        sympy = pytest.importorskip("sympy")
        a, b = f * h, g * h
        if a.is_zero() or b.is_zero():
            return
        xs = sympy.symbols("x0 x1")
        sa, sb = (sympy.Poly(_biv_sym(sympy, p, xs), *xs, domain=sympy.QQ_I)
                  for p in (a, b))
        want = MPoly(2, [(e, _crat(sympy, c))
                         for e, c in sa.gcd(sb).terms()])
        assert biv_gcd(a, b) == _lex_monic(want)

    @settings(max_examples=30, deadline=None)
    @given(_biv, _biv)
    def test_biv_exact_div(self, f, g):
        if g.is_zero():
            return
        assert biv_exact_div(f * g, g) == f

    def test_biv_gcd_over_cyclotomic_field(self):
        """(x - zeta y)(x + y) and (x - zeta y)(x - y) in Q(zeta_12): the
        gcd is x - zeta y, as sympy finds over Q(sqrt(3), i)."""
        sympy = pytest.importorskip("sympy")
        field = CycField(12)
        x = MPoly.monomial(2, (1, 0), field.one())
        y = MPoly.monomial(2, (0, 1), field.one())
        zeta = field.zeta(1)
        a, b = (x - y.scale(zeta)) * (x + y), (x - y.scale(zeta)) * (x - y)
        got = biv_gcd(a, b)
        assert got == x - y.scale(zeta)
        assert biv_exact_div(a, got) == x + y

        xs = sympy.symbols("x0 x1")
        z = sympy.sqrt(3) / 2 + sympy.I / 2      # exp(2 pi i / 12)

        def lift(c):
            return sum((sympy.Rational(q.numerator, q.denominator) * z ** k
                        for k, q in enumerate(c.vec)), sympy.Integer(0))

        want = sympy.gcd(_biv_sym(sympy, a, xs, lift),
                         _biv_sym(sympy, b, xs, lift), extension=True)
        diff = sympy.expand(_biv_sym(sympy, got, xs, lift) - want)
        assert sympy.Poly(diff, *xs, extension=True).is_zero

    @settings(max_examples=40, deadline=None)
    @given(_matrices(square=True))
    def test_det_field(self, m):
        sympy = pytest.importorskip("sympy")
        want = sympy.expand(sympy.Matrix(
            [[_sym(sympy, c) for c in row] for row in m]).det())
        assert det_field(m) == _crat(sympy, want)

    @settings(max_examples=40, deadline=None)
    @given(_matrices(square=False))
    def test_rank_field(self, m):
        sympy = pytest.importorskip("sympy")
        want = sympy.Matrix([[_sym(sympy, c) for c in row] for row in m])
        assert rank_field(m) == want.rank()
