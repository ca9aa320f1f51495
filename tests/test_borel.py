import random
from fractions import Fraction
from itertools import combinations

import pytest

from curvecomp import nevanlinna as nev
from curvecomp.borel import (AnalysisOutcome, BorelError, ExpSum, ExpTerm,
                             InconsistentCase2Error, NotAnIdentityError,
                             NotCase1Error, case1_refute, case2_conclude,
                             degeneracy_pipeline, factor_homogeneous,
                             form_coefficients, minimal_vanishing_subsets,
                             partition_classes, random_case2_instance, realize)
from curvecomp.expfun import ExpPoly
from curvecomp.polys import Poly
from curvecomp.scalars import CRat

from conftest import XI, XI2, cr, exp_of, poly

ETA = XI


def term(c, i, j, k, M):
    return ExpTerm(CRat(Fraction(c)), i, j, k, M)


def test_term_is_an_immutable_value():
    t = term(Fraction(1, 2), 1, 0, 2, 3)
    assert t == term(Fraction(1, 2), 1, 0, 2, 3) != term(1, 1, 0, 2, 3)
    assert len({t, term(Fraction(1, 2), 1, 0, 2, 3)}) == 1
    with pytest.raises(AttributeError):
        t.i = 0
    with pytest.raises(AttributeError):
        del t.coeff
    assert t != (t.coeff, 1, 0, 2, 3)
    s = ExpSum([t], XI, XI2)
    with pytest.raises(AttributeError):
        del s.terms
    with pytest.raises(ValueError, match="outside"):
        term(1, 4, 0, 0, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        term(1, 0, -1, 0, 3)
    assert AnalysisOutcome("degenerate_input").witness == {}
    assert AnalysisOutcome("x").witness is not AnalysisOutcome("x").witness


def spec_case2_sum():
    """M=2, p1=eta, p2=2*eta, form x^2 - 3/2 xy + 1/2 y^2 on one class."""
    terms = [term(1, 2, 0, 1, 2), term(Fraction(-3, 2), 1, 1, 0, 2),
             term(Fraction(1, 2), 0, 0, 0, 2)]
    return ExpSum(terms, ETA, ETA.scale(CRat(2)))


class TestRealize:
    def test_single_term_exp(self):
        s = ExpSum([term(1, 1, 0, 0, 1)], ETA, Poly())
        assert realize(s) == exp_of(ETA)

    def test_cancelling_pair(self):
        s = ExpSum([term(1, 1, 0, 0, 1), term(-1, 1, 0, 0, 1)], ETA, XI2)
        assert realize(s).is_zero()

    def test_derivative_prefactor(self):
        s = ExpSum([term(1, 1, 0, 0, 2)], XI2, ETA)
        assert realize(s) == ExpPoly([(poly(0, 2), poly(0, 1, 1))])

    def test_respects_partition(self):
        s = spec_case2_sum()
        total = ExpPoly.zero()
        for cls in partition_classes(s):
            total = total + realize(cls)
        assert (total - realize(s)).is_zero()


class TestPartition:
    def test_proportional_exponents_merge(self):
        # p1 = eta, p2 = 2*eta: (i+j, M-i+k) = (2,0) and (0,1) share 2*eta
        s = ExpSum([term(1, 1, 1, 0, 1), term(1, 0, 0, 0, 1)],
                   ETA, ETA.scale(CRat(2)))
        assert len(partition_classes(s)) == 1

    def test_distinct_exponents_split(self):
        s = ExpSum([term(1, 1, 0, 0, 1), term(1, 0, 0, 0, 1)], ETA, XI2)
        assert len(partition_classes(s)) == 2

    def test_single_class(self):
        s = spec_case2_sum()
        assert len(partition_classes(s)) == 1


class TestMinimalSubsets:
    def test_two_cancelling_pairs(self):
        tt = [term(1, 1, 1, 0, 1), term(-1, 1, 1, 0, 1),
              term(1, 0, 0, 0, 1), term(-1, 0, 0, 0, 1)]
        s = ExpSum(tt, ETA, XI2)
        subs = minimal_vanishing_subsets(s)
        assert sorted(len(x.terms) for x in subs) == [2, 2]

    def test_minimal_triple(self):
        tt = [term(1, 1, 0, 0, 1), term(1, 1, 0, 0, 1), term(-2, 1, 0, 0, 1)]
        s = ExpSum(tt, ETA, ETA)
        subs = minimal_vanishing_subsets(s)
        assert [len(x.terms) for x in subs] == [3]

    def test_already_minimal(self):
        s = spec_case2_sum()
        subs = minimal_vanishing_subsets(s)
        assert len(subs) == 1 and len(subs[0].terms) == 3

    def test_non_identity_rejected(self):
        s = ExpSum([term(1, 1, 0, 0, 1)], ETA, Poly())
        with pytest.raises(NotAnIdentityError):
            minimal_vanishing_subsets(s)


class TestCase2:
    def test_spec_example(self):
        out = case2_conclude(spec_case2_sum())
        assert out.kind == "case2_proportional"
        assert out.lam == CRat(1) and out.gam == CRat(Fraction(1, 2))
        assert "dxi1/xi1" in out.omega0()

    def test_identical_polynomials(self):
        s = ExpSum([term(1, 1, 0, 0, 1), term(-1, 0, 0, 0, 1)], ETA, ETA)
        out = case2_conclude(s)
        assert (out.lam, out.gam) == (CRat(1), CRat(1))

    def test_constant_exponent_degenerate(self):
        s = ExpSum([term(1, 1, 0, 0, 1)], ETA, poly(3))
        assert case2_conclude(s).kind == "degenerate_input"

    def test_inconsistent_input(self):
        # single class but the form does not vanish at the derivative ray
        s = ExpSum([term(1, 1, 1, 0, 1), term(1, 0, 0, 0, 1)],
                   ETA, ETA.scale(CRat(2)))
        with pytest.raises(InconsistentCase2Error):
            case2_conclude(s)

    def test_annihilation_exact(self):
        out = case2_conclude(spec_case2_sum())
        s = spec_case2_sum()
        assert (s.p1.derivative().scale(out.lam)
                - s.p2.derivative().scale(out.gam)).is_zero()


class TestFactorization:
    def test_spec_quadratic(self):
        fz = factor_homogeneous([cr(Fraction(1, 2)), cr(Fraction(-3, 2)),
                                 CRat(1)], 2)
        assert fz.exact
        gammas = sorted(g.re for _, g, _ in fz.factors)
        assert gammas == [Fraction(1, 2), 1]

    def test_reconstruction(self):
        coeffs = [cr(Fraction(1, 2)), cr(Fraction(-3, 2)), CRat(1)]
        fz = factor_homogeneous(coeffs, 2)
        assert fz.reconstruct_coeffs(2) == coeffs

    def test_y_factors(self):
        # x^2 y^2: factors x, x, y, y
        fz = factor_homogeneous([CRat(0), CRat(0), CRat(1), CRat(0), CRat(0)], 4)
        assert fz.exact
        assert fz.reconstruct_coeffs(4) == [CRat(0), CRat(0), CRat(1),
                                            CRat(0), CRat(0)]

    def test_irrational_roots_flagged(self):
        fz = factor_homogeneous([CRat(-1), CRat(0), CRat(2)], 2)
        assert not fz.exact


class TestCase1:
    WITNESS_RADII = (4.0, 8.0, 16.0, 32.0)

    def test_order_two_witness_refuted(self):
        e1, e2 = exp_of(ETA), exp_of(XI2)
        rep = case1_refute([e1, e2, -(e1 + e2)], radii=self.WITNESS_RADII)
        assert rep.refuted
        assert rep.log_factor >= 10
        assert rep.logfit_residual > 0.05
        assert rep.smt is not None and rep.smt.relative_residual < 0.05

    def test_T_is_computed_once_per_radius(self, monkeypatch):
        e1, e2 = exp_of(ETA), exp_of(XI2)
        summands = [e1, e2, -(e1 + e2)]
        curve = nev.ProjCurve(summands)
        direct = [nev.characteristic(curve, r) for r in self.WITNESS_RADII]
        calls = []
        plain = nev.characteristic

        def counted(*args, **kwargs):
            calls.append(args[1])
            return plain(*args, **kwargs)

        monkeypatch.setattr(nev, "characteristic", counted)
        rep = case1_refute(summands, radii=self.WITNESS_RADII)
        assert rep.smt is not None
        assert calls == list(self.WITNESS_RADII)
        assert [t.hex() for t in rep.T] == [t.hex() for t in direct]
        assert rep.T == rep.smt.T

    def test_only_a_nevanlinna_error_drops_the_smt_data(self, monkeypatch):
        e1, e2 = exp_of(ETA), exp_of(XI2)
        summands = [e1, e2, -(e1 + e2)]

        def failing(err):
            def smt(*args, **kwargs):
                raise err
            return smt

        monkeypatch.setattr(nev, "smt_defect_on_sum_relation",
                            failing(nev.DegenerateCurveError("degenerate")))
        rep = case1_refute(summands, radii=self.WITNESS_RADII)
        assert rep.refuted and rep.smt is None
        monkeypatch.setattr(nev, "smt_defect_on_sum_relation",
                            failing(AssertionError("broken invariant")))
        with pytest.raises(AssertionError, match="broken invariant"):
            case1_refute(summands, radii=self.WITNESS_RADII)

    def test_common_polynomial_factor_is_stripped(self):
        # z e^z, 2z e^{z^2}, -3z e^{z^3} share the zero z = 0; without it
        # they are e^z, 2 e^{z^2}, -3 e^{z^3}
        xi3 = poly(0, 0, 0, 1)
        plain = [exp_of(ETA), exp_of(XI2, 2), exp_of(xi3, -3)]
        with_z = [ExpPoly([(poly(0, c), p)])
                  for c, p in ((1, ETA), (2, XI2), (-3, xi3))]
        want = case1_refute(plain, radii=self.WITNESS_RADII)
        got = case1_refute(with_z, radii=self.WITNESS_RADII)
        assert got.to_json() == want.to_json()
        assert got.L == 3 and got.refuted

    def test_two_summands_syntactic(self):
        rep = case1_refute([exp_of(ETA), ExpPoly.from_poly(ETA).scale(-1)])
        assert rep.refuted and "rational function" in rep.reason

    def test_single_class_rejected(self):
        with pytest.raises(NotCase1Error):
            case1_refute([exp_of(ETA), exp_of(ETA).scale(2)])

    def test_expsum_entry(self):
        terms = [term(1, 1, 0, 0, 1), term(1, 0, 0, 0, 1), term(1, 1, 0, 1, 1)]
        s = ExpSum(terms, ETA, XI2)
        rep = case1_refute(s, radii=self.WITNESS_RADII)
        assert rep.L == 3 and rep.refuted


class TestPipeline:
    def test_single_class(self):
        out = degeneracy_pipeline(spec_case2_sum())
        assert out.kind == "case2_proportional"
        assert (out.lam, out.gam) == (CRat(1), CRat(Fraction(1, 2)))

    def test_two_classes_each_vanishing(self):
        tt = [term(1, 1, 1, 0, 1), term(-1, 1, 1, 0, 1),
              term(2, 0, 0, 0, 1), term(-2, 0, 0, 0, 1)]
        s = ExpSum(tt, ETA, ETA.scale(CRat(3)))
        out = degeneracy_pipeline(s)
        # cancelling pairs carry no constraint, but the derivatives are
        # proportional outright
        assert out.kind == "case2_proportional"
        assert (out.lam * CRat(1) - out.gam * CRat(3)).is_zero() or \
            out.verify(s.p1, s.p2)

    def test_constant_exponent(self):
        s = ExpSum([term(1, 1, 0, 0, 1), term(-1, 1, 0, 0, 1)], poly(5), ETA)
        assert degeneracy_pipeline(s).kind == "degenerate_input"

    def test_not_an_identity(self):
        s = ExpSum([term(1, 1, 0, 0, 1)], ETA, XI2)
        with pytest.raises(NotAnIdentityError):
            degeneracy_pipeline(s)

    def test_class_cap(self):
        tt = [term(1, 1, 0, 0, 1) for _ in range(11)] + \
             [term(-11, 1, 0, 0, 1)]
        s = ExpSum(tt, ETA, ETA)
        # 12 terms in one class is fine; 21 would not be
        assert len(minimal_vanishing_subsets(s)) >= 1
        big = ExpSum([term(1, 1, 0, 0, 1) for _ in range(21)]
                     + [term(-21, 1, 0, 0, 1)], ETA, ETA)
        with pytest.raises(BorelError):
            minimal_vanishing_subsets(big)


def _reference_subsets(s):
    """Today's greedy order by brute force: realize every candidate.

    Per rational class, the smallest vanishing subset of the remaining
    terms, lexicographically first among those of its size, is taken out.
    """
    out = []
    for cls in partition_classes(s):
        remaining = list(range(len(cls.terms)))
        while remaining:
            found = next(
                combo for size in range(1, len(remaining) + 1)
                for combo in combinations(remaining, size)
                if realize(cls.subset(combo)).is_zero())
            out.append(cls.subset(found))
            remaining = [i for i in remaining if i not in found]
    return out


def _planted_sum(rng, n):
    """n terms in one or two rational classes whose sum vanishes.

    With p1 = x and p2 = x^2 (M = 3) a term's prefactor is (2x)^(3-i), so
    terms of one class land on up to four powers of x.  Each class is made
    of zero-sum groups of two or three terms on one power, shuffled, so
    many subsets vanish and several of them share a size.
    """
    M = 3
    shapes = [(3, 0), (4, 1)][:rng.randint(1, 2)]   # (j + i, k - i) per class
    terms = []
    while len(terms) < n:
        jsum, kshift = rng.choice(shapes)
        i = rng.randint(0, M)
        left = n - len(terms)
        size = 3 if left == 3 or (left >= 5 and rng.random() < 0.5) else 2
        cs = [Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
              for _ in range(size - 1)]
        if sum(cs) == 0:
            cs[0] += 1
        cs.append(-sum(cs))
        terms += [term(c, i, jsum - i, kshift + i, M) for c in cs]
    rng.shuffle(terms)
    return ExpSum(terms, XI, XI2, M)


class TestGreedyOrder:
    def test_matches_brute_force_on_planted_classes(self):
        rng = random.Random(7)
        for n in [6, 7, 8, 9, 10, 11, 12] * 3:
            s = _planted_sum(rng, n)
            got = minimal_vanishing_subsets(s)
            want = _reference_subsets(s)
            assert [x.terms for x in got] == [x.terms for x in want]

    def test_ties_broken_lexicographically(self):
        # distinct terms with equal realizations: the pairs (0, 1), (0, 3),
        # (1, 2) and (2, 3) vanish; greedy takes (0, 1), then (2, 3)
        tt = [term(1, 1, 0, 0, 1), term(-1, 1, 0, 0, 1),
              term(1, 0, 0, 0, 1), term(-1, 0, 0, 0, 1)]
        subs = minimal_vanishing_subsets(ExpSum(tt, ETA, ETA))
        assert [x.terms for x in subs] == [tuple(tt[:2]), tuple(tt[2:])]


class TestRandomInstances:
    def test_hundred_seeded(self):
        rng = random.Random(0)
        for _ in range(100):
            s, (lam, gam) = random_case2_instance(rng)
            assert realize(s).is_zero()
            out = degeneracy_pipeline(s)
            assert out.kind == "case2_proportional"
            assert (out.lam * gam - out.gam * lam).is_zero()
            assert out.verify(s.p1, s.p2)

    def test_perturbed_instances_refused(self):
        rng = random.Random(1)
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
               for _ in range(5)]
        for _ in range(20):
            s, _ = random_case2_instance(rng)
            bad_terms = list(s.terms)
            t0 = bad_terms[0]
            bad_terms[0] = ExpTerm(t0.coeff + CRat(1), t0.i, t0.j, t0.k, t0.M)
            bad = ExpSum(bad_terms, s.p1, s.p2, s.M)
            with pytest.raises(NotAnIdentityError):
                degeneracy_pipeline(bad)
            h = realize(bad)
            assert not h.is_zero()
            assert any(abs(h.evaluate(z)) > 1e-8 for z in pts)


class TestSerialization:
    def test_roundtrip(self):
        s = spec_case2_sum()
        s2 = ExpSum.from_json(s.to_json())
        assert realize(s2) == realize(s)
        assert s2.M == s.M and s2.p1 == s.p1

    def test_outcome_json(self):
        out = degeneracy_pipeline(spec_case2_sum())
        doc = out.to_json()
        assert doc["kind"] == "case2_proportional"
        assert doc["lambda"] == [1, 1, 0, 1]
        assert doc["gamma"] == [1, 2, 0, 1]
        assert "omega0" in doc
