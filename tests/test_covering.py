import random
from fractions import Fraction

import pytest

from curvecomp.covering import (CoveringError, CyclicCover,
                                NonInvariantFormError, SymForm,
                                annihilation_check, deck_pullback,
                                express_log_basis, express_plain_basis,
                                is_deck_invariant, norm_form,
                                pull_back_cyclic, push_down)
from curvecomp.expfun import ExpPoly
from curvecomp.polys import MPoly, Poly, RatFunc
from curvecomp.scalars import CRat

from conftest import XI, cr, exp_of, poly

Z1 = MPoly.monomial(2, (1, 0))
Z2 = MPoly.monomial(2, (0, 1))
B2 = CyclicCover(2)
B3 = CyclicCover(3)
R0 = RatFunc.zero()
R1 = RatFunc(Z1)
R2 = RatFunc(Z2, MPoly(2, [((1, 0), CRat(1)), ((0, 0), CRat(1))]))
R3 = RatFunc.const(cr(1, 2))


def test_cyclic_cover_is_an_immutable_value():
    assert CyclicCover(2) == B2 and B2 != B3
    assert len({B2, CyclicCover(2), B3}) == 2
    with pytest.raises(AttributeError):
        B2.b = 3
    with pytest.raises(AttributeError):
        del B2.b
    assert B2 != 2
    f = SymForm.monomial(2, 1, CRat(1))
    with pytest.raises(AttributeError):
        del f.coeffs
    with pytest.raises(ValueError, match="branching order"):
        CyclicCover(0)


class TestDeckPullback:
    def test_b2_flips_dz1(self):
        f = SymForm.monomial(2, 1, CRat(1))
        assert deck_pullback(f, 1, B2) == SymForm.monomial(2, 1, CRat(-1))

    def test_identity_element(self):
        f = SymForm.monomial(3, 2, Z1 * Z2)
        assert deck_pullback(f, 0, B2) == f

    def test_coefficient_rotation(self):
        f = SymForm.monomial(2, 2, Z1)
        assert deck_pullback(f, 1, B2) == SymForm.monomial(2, 2, Z1.scale(CRat(-1)))

    def test_log_basis_invariant_weight(self):
        f = SymForm.monomial(2, 2, Z1 * Z1, basis="log1")
        out = deck_pullback(f, 1, B2)
        assert out == f  # z1^2 is rotation invariant under b=2

    def test_b3_order(self):
        f = SymForm.monomial(1, 1, CRat(1))
        g1 = deck_pullback(f, 1, B3)
        assert g1 != f
        g3 = deck_pullback(deck_pullback(g1, 1, B3), 1, B3)
        assert g3 == f  # zeta^3 = 1: three pullbacks are the identity


class TestNormForm:
    def test_trivial_cover(self):
        f = SymForm.monomial(2, 1, Z2)
        assert norm_form(f, CyclicCover(1)) == f

    def test_worked_example(self):
        nf = norm_form(SymForm.monomial(2, 1, CRat(1)), B2)
        assert nf == SymForm.monomial(4, 2, CRat(-1))

    def test_invariant_form(self):
        nf = norm_form(SymForm.monomial(1, 0, CRat(1)), B2)
        assert nf == SymForm.monomial(2, 0, CRat(1))

    def test_b3_polynomial_coefficient(self):
        f = SymForm.monomial(1, 1, MPoly(2, [((0, 0), CRat(1)),
                                             ((1, 0), CRat(1))]))
        nf = norm_form(f, B3)
        want = SymForm.monomial(3, 3, MPoly(2, [((0, 0), CRat(1)),
                                                ((3, 0), CRat(1))]))
        assert nf == want

    def test_degree_bookkeeping(self):
        rng = random.Random(3)
        for _ in range(10):
            b = rng.randint(1, 3)
            m = rng.randint(1, 2)
            i = rng.randint(0, m)
            coeff = MPoly.monomial(2, (rng.randint(0, 2), rng.randint(0, 2)),
                                   CRat(rng.randint(1, 4)))
            nf = norm_form(SymForm.monomial(m, i, coeff), CyclicCover(b))
            assert nf.M == b * m

    def test_invariance(self):
        rng = random.Random(9)
        for _ in range(10):
            b = rng.randint(1, 3)
            cover = CyclicCover(b)
            m = rng.randint(1, 2)
            i = rng.randint(0, m)
            coeff = MPoly.monomial(2, (rng.randint(0, 2), rng.randint(0, 2)),
                                   CRat(rng.randint(1, 4)))
            nf = norm_form(SymForm.monomial(m, i, coeff), cover)
            assert is_deck_invariant(nf, cover)


def _convolve(a, b):
    """The coefficients of the product of the polynomials with ascending
    coefficients a and b, one sum of products at a time."""
    out = [R0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _padded(p, n):
    return list(p.coeffs) + [R0] * (n - len(p.coeffs))


class TestPolyOverRatFunc:
    @pytest.mark.parametrize("a, b", [
        ([R1, R2], [R3, R1, R2]),
        ([R0, R1, R0, R2], [R3]),          # zeros on the left
        ([R2, R3], [R1, R0, R0, R2]),      # zeros on the right
        ([R0, R2, R0], [R0, R0, R1, R0]),  # zeros on both, trailing ones too
        ([R0, R0], [R1, R2]),              # a zero factor
    ])
    def test_product_is_the_convolution(self, a, b):
        want = _convolve(a, b)
        assert _padded(Poly(a) * Poly(b), len(want)) == want

    def test_cyclotomic_cover_form(self):
        f = SymForm(2, "plain", [R2, R0, RatFunc(Z1 * Z2)])
        g = deck_pullback(f, 1, B3)
        assert not all(isinstance(v, CRat) for c in g.coeffs
                       for v in c.num.terms.values())
        want = _convolve(f.coeffs, g.coeffs)
        assert _padded(Poly(f.coeffs) * Poly(g.coeffs), 5) == want
        assert list((f * g).coeffs) == want


class TestLogBasis:
    def test_plain_to_log(self):
        lb = express_log_basis(SymForm.monomial(2, 2, CRat(1)))
        assert lb.coeffs[2] == RatFunc(Z1 * Z1)

    def test_pole_becomes_regular(self):
        f = SymForm.monomial(1, 1, RatFunc(MPoly.monomial(2, (0, 0)), Z1))
        assert express_log_basis(f).coeffs[1] == RatFunc.const(CRat(1))

    def test_roundtrip(self):
        f = SymForm.monomial(3, 2, Z1 * Z2 + Z2)
        assert express_plain_basis(express_log_basis(f)) == f


class TestPushDown:
    def test_worked_example(self):
        nf = norm_form(SymForm.monomial(2, 1, CRat(1)), B2)
        pd = push_down(nf, B2)
        assert pd.basis == "log1" and pd.var_names == ("xi1", "xi2")
        assert pd.coeffs[2] == RatFunc(
            MPoly.monomial(2, (1, 0), cr(Fraction(-1, 4))))
        plain = express_plain_basis(pd)
        assert plain.coeffs[2] == RatFunc(
            MPoly.monomial(2, (0, 0), CRat(-1)),
            MPoly.monomial(2, (1, 0), CRat(4)))

    def test_trivial_cover_renames(self):
        pd = push_down(SymForm.monomial(2, 1, Z2), CyclicCover(1))
        assert pd.var_names == ("xi1", "xi2")

    def test_non_invariant_rejected(self):
        with pytest.raises(NonInvariantFormError):
            push_down(SymForm.monomial(2, 0, Z1), B2)

    def test_coefficient_spanning_two_classes_rejected(self):
        # z1 + z1^2: its monomials lie in the classes 1 and 0 mod 2
        form = SymForm.monomial(1, 0, Z1 + Z1 * Z1)
        with pytest.raises(NonInvariantFormError,
                           match="breaks the mod-2 class"):
            push_down(form, B2)

    def test_round_trip(self):
        rng = random.Random(21)
        for _ in range(10):
            b = rng.randint(2, 3)
            cover = CyclicCover(b)
            m = rng.randint(1, 2)
            i = rng.randint(0, m)
            coeff = MPoly.monomial(2, (rng.randint(0, 2), rng.randint(0, 2)),
                                   CRat(rng.randint(1, 4)))
            nf = norm_form(SymForm.monomial(m, i, coeff), cover)
            pd = push_down(nf, cover)
            assert pull_back_cyclic(pd, cover) == express_log_basis(nf)


class TestAnnihilation:
    def test_symmetric_cancellation(self):
        g = exp_of(XI)
        form = SymForm(1, "plain", [RatFunc(Z1.scale(CRat(-1))), RatFunc(Z2)],
                       ("xi1", "xi2"))
        ok, resid = annihilation_check(form, g, g)
        assert ok and resid.is_zero()

    def test_nonvanishing(self):
        ok, _ = annihilation_check(SymForm.monomial(1, 1, CRat(1)),
                                   exp_of(XI), exp_of(XI))
        assert not ok

    def test_denominator_vanishing_on_the_curve_rejected(self):
        # 1/(x1 - x2) on g1 = g2 = e^z
        form = SymForm.monomial(1, 0, RatFunc(MPoly.monomial(2, (0, 0)),
                                              Z1 - Z2))
        with pytest.raises(CoveringError, match="vanishes identically"):
            annihilation_check(form, exp_of(XI), exp_of(XI))

    def test_inverse_pair(self):
        g1, g2 = exp_of(XI), exp_of(poly(0, -1))
        form = SymForm.monomial(2, 1, (Z1 * Z2).scale(CRat(2)))
        ok, resid = annihilation_check(form, g1, g2)
        assert not ok and resid == ExpPoly.constant(-2)

    def test_denominator_cleared(self):
        # xi2/xi1 dxi1 - dxi2 on g1 = g2 = exp(x): e^x/e^x * e^x - e^x = 0
        form = SymForm(1, "plain", [RatFunc(MPoly(2), Z1) - RatFunc(MPoly(2), Z1)
                                    + RatFunc(MPoly.monomial(2, (0, 0), CRat(-1))),
                                    RatFunc(Z2, Z1)], ("xi1", "xi2"))
        g = exp_of(XI)
        ok, _ = annihilation_check(form, g, g)
        assert ok

    def test_annihilation_transfer(self):
        # upstairs b=2: the invariant form z2 dz1 - z1 dz2 annihilates the
        # curve (exp(t), exp(2t)) after the cover substitution exactly when
        # the pushed form annihilates (exp(2t), exp(2t))
        g1, g2 = exp_of(XI), exp_of(poly(0, 2))
        upstairs = SymForm(1, "plain",
                           [RatFunc(Z1.scale(CRat(-1))), RatFunc(Z2)])
        up = norm_form(upstairs, B2)
        ok_up, _ = annihilation_check(
            SymForm(up.M, up.basis, up.coeffs, ("xi1", "xi2")), g1, g2)
        pushed = push_down(up, B2)
        ok_down, _ = annihilation_check(pushed, g1 * g1, g2)
        assert ok_up == ok_down


class TestSerialization:
    def test_roundtrip(self):
        f = SymForm(2, "plain", [RatFunc(Z1), RatFunc(Z2, Z1), RatFunc.const(cr(1, 2))])
        assert SymForm.from_json(f.to_json()) == f

    def test_cyclotomic_rejected(self):
        f = deck_pullback(SymForm.monomial(1, 1, CRat(1)), 1, B3)
        with pytest.raises(CoveringError):
            f.to_json()
