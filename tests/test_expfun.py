import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecomp.expfun import EvalOverflowError, ExpPoly, combine
from curvecomp.polys import Poly
from curvecomp.scalars import CRat

from conftest import XI, XI2, cr, exp_of, poly


class TestEvaluate:
    def test_exp_at_zero(self):
        assert exp_of(XI).evaluate(0) == 1

    def test_xi_exp_xi_squared(self):
        f = ExpPoly([(XI, XI2)])
        assert abs(f.evaluate(1.0) - cmath.exp(1)) < 1e-14

    def test_cancellation(self):
        f = exp_of(XI) - exp_of(XI)
        assert f.evaluate(3 + 4j) == 0

    def test_overflow_reported(self):
        f = exp_of(XI2)
        with pytest.raises(EvalOverflowError):
            f.evaluate(40.0)

    def test_value_inside_float_range_past_exp_range(self):
        # 1e-10 e^z at z = 720: e^720 alone overflows, the value does not;
        # at z = 1420 even e^(z/2) does, below a subnormal coefficient
        for coeff, z in ((Fraction(1, 10 ** 10), 720.0),
                         (Fraction(1, 10 ** 10), 720 + 2.5j),
                         (Fraction(1, 10 ** 320), 1420.0)):
            f = exp_of(XI, cr(coeff))
            want = complex(mp.mpf(float(coeff)) * mp.exp(mp.mpc(z)))
            assert abs(f.evaluate(z) - want) <= 1e-15 * abs(want)

    def test_overflow_threshold_is_the_largest_float(self):
        f = exp_of(XI)
        assert f.evaluate(705.0) == math.exp(705.0)
        assert f.evaluate(709.7) == math.exp(709.7)
        with pytest.raises(EvalOverflowError):
            f.evaluate(709.8)
        with pytest.raises(EvalOverflowError):
            exp_of(XI, cr(Fraction(1, 10 ** 10))).evaluate(733.0)

    def test_scaled_eval_never_overflows(self):
        v, s = exp_of(XI2).eval_scaled(40.0)
        assert abs(v) == pytest.approx(1.0)
        assert s == pytest.approx(1600.0)


class TestDifferentiate:
    def test_exp(self):
        assert exp_of(XI).differentiate() == exp_of(XI)

    def test_chain_rule(self):
        assert exp_of(XI2).differentiate() == ExpPoly([(poly(0, 2), XI2)])

    def test_constant(self):
        assert ExpPoly.constant(5).differentiate().is_zero()


class TestCombine:
    def test_add_cancels(self):
        out = combine("add", exp_of(XI), exp_of(XI, -1))
        assert out.is_zero() and not out.terms

    def test_multiply_adds_exponents(self):
        out = combine("multiply", exp_of(XI), exp_of(XI2))
        assert out == exp_of(XI + XI2)

    def test_scale(self):
        out = combine("scale", ExpPoly([(XI, XI)]), 2)
        assert out == ExpPoly([(poly(0, 2), XI)])

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            combine("divide", exp_of(XI), exp_of(XI))


class TestIsZero:
    def test_independent_classes(self):
        assert not (exp_of(XI) + exp_of(XI2)).is_zero()

    def test_zero_coefficient(self):
        assert ExpPoly([(poly(0), XI)]).is_zero()

    def test_constant_absorption(self):
        # exp(x+1) - e*exp(x) == 0 via the symbolic exponent constant
        t1 = exp_of(poly(1, 1))
        t2 = ExpPoly([(poly(1), XI, CRat(1))])
        diff = t1 - t2
        assert diff.is_zero()
        rng = random.Random(11)
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(t1.evaluate(z) - t2.evaluate(z)) < 1e-9 * (
                1 + abs(t1.evaluate(z)))


class TestCoordinates:
    def test_canonical_coordinates(self):
        # (1 + 2x^2) e^x + 3 e^(x+1) + (5x - 3) e^(x+1): the cancelled
        # constant of the second term is left out
        f = ExpPoly([(poly(1, 0, 2), XI), (poly(3), poly(1, 1)),
                     (poly(-3, 5), XI, CRat(1))])
        assert f.coordinates() == {(XI, CRat(0), 0): CRat(1),
                                   (XI, CRat(0), 2): CRat(2),
                                   (XI, CRat(1), 1): CRat(5)}


class TestSerialization:
    def test_roundtrip(self):
        f = ExpPoly([(poly(1, 2), XI2, cr(1, 2)), (poly(3), XI)])
        assert ExpPoly.from_json(f.to_json()) == f

    def test_schema_shape(self):
        doc = exp_of(XI).to_json()
        assert doc == [{"coeff": [[1, 1, 0, 1]], "exp": [[0, 1, 0, 1], [1, 1, 0, 1]],
                        "expconst": [0, 1, 0, 1]}]


_small_rat = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def _polys(max_deg):
    return st.lists(_small_rat, min_size=0, max_size=max_deg + 1).map(
        lambda cs: Poly([CRat(c) for c in cs]))


_expolys = st.lists(
    st.tuples(_polys(3), _polys(2)), min_size=1, max_size=2).map(ExpPoly)


class TestAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(_expolys, _expolys)
    def test_product_rule(self, f, g):
        lhs = (f * g).differentiate()
        rhs = f.differentiate() * g + f * g.differentiate()
        assert (lhs - rhs).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(_expolys)
    def test_canonical_fixpoint(self, f):
        assert ExpPoly(f.terms) == f

    @settings(max_examples=40, deadline=None)
    @given(_expolys, _expolys)
    def test_zero_matches_numeric(self, f, g):
        total = f + g - g - f
        assert total.is_zero()
        rng = random.Random(5)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            vf, vg = f.evaluate(z), g.evaluate(z)
            scale = 1.0 + abs(vf) + abs(vg)
            assert abs((f + g).evaluate(z) - vf - vg) < 1e-9 * scale


class TestPolynomialPredicates:
    def test_polynomial_detection(self):
        assert ExpPoly([(XI2 + poly(1), Poly())]).is_polynomial()
        assert not exp_of(XI).is_polynomial()
        canceled = exp_of(XI) - exp_of(XI) + ExpPoly.from_poly(XI)
        assert canceled.is_polynomial()
