"""Degeneracy engine for vanishing sums of exponential monomial terms.

The input is an indexed identity

    sum_{(i,j,k)} c_{ijk} exp((i+j) p1 + (M-i+k) p2) (p1')^i (p2')^{M-i}  =  0

with p1, p2 exact polynomials.  Two summands either have a rational quotient
(same exponent polynomial up to an additive constant) or they do not; the
engine groups terms into these rational classes, extracts inclusion-minimal
vanishing subsets, numerically refutes the mixed-class situation (growth of
the summand curve beats every log bound, while the value-distribution defect
would force log growth), and in the single-class situation factors the
resulting homogeneous form to produce exact (lambda, gamma) with
lambda*p1' = gamma*p2' -- the coefficients of the logarithmic 1-form witness
omega0 = lambda*dxi1/xi1 - gamma*dxi2/xi2.
"""

from __future__ import annotations

import math
from itertools import combinations

from . import Frozen, Record, Value
from .expfun import ExpPoly
from .polys import Poly, as_crat, exact_roots, squarefree_decomposition
from .scalars import CRat

MAX_CLASS_TERMS = 20
CASE2_MAX_DEG = 2        # largest degree of p1 in random_case2_instance
CASE2_MAX_M = 4          # largest M in random_case2_instance


class BorelError(Exception):
    pass


class NotAnIdentityError(BorelError):
    pass


class NotCase1Error(BorelError):
    pass


class InconsistentCase2Error(BorelError):
    pass


class ExpTerm(Value):
    """One summand: coeff * exp((i+j)p1 + (M-i+k)p2) * (p1')^i (p2')^(M-i)."""

    __slots__ = ("coeff", "i", "j", "k", "M")

    def __init__(self, coeff: CRat, i: int, j: int, k: int, M: int):
        if not (0 <= i <= M):
            raise ValueError(f"i={i} outside [0, M={M}]")
        if j < 0 or k < 0:
            raise ValueError("j, k must be nonnegative")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "M", M)

    def _key(self):
        return (self.coeff, self.i, self.j, self.k, self.M)

    def to_json(self):
        return {"coeff": self.coeff.to_json(), "i": self.i, "j": self.j,
                "k": self.k}


class ExpSum(Frozen):
    """A collection of ExpTerms over shared exponent polynomials p1, p2."""

    __slots__ = ("terms", "p1", "p2", "M")

    def __init__(self, terms, p1: Poly, p2: Poly, M: int = None):
        terms = tuple(terms)
        if M is None:
            if not terms:
                raise ValueError("empty sums need an explicit M")
            M = terms[0].M
        for t in terms:
            if t.M != M:
                raise ValueError("terms disagree about M")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "M", M)

    def subset(self, indices) -> "ExpSum":
        return ExpSum([self.terms[i] for i in indices], self.p1, self.p2, self.M)

    def term_exponent(self, t: ExpTerm) -> Poly:
        return self.p1 * (t.i + t.j) + self.p2 * (self.M - t.i + t.k)

    def term_realized(self, t: ExpTerm) -> ExpPoly:
        pref = (self.p1.derivative() ** t.i) * \
            (self.p2.derivative() ** (self.M - t.i))
        return ExpPoly([(pref.scale(t.coeff), self.term_exponent(t))])

    def to_json(self):
        return {"M": self.M, "p1": self.p1.to_json(), "p2": self.p2.to_json(),
                "terms": [t.to_json() for t in self.terms]}

    @classmethod
    def from_json(cls, data):
        M = int(data["M"])
        terms = [ExpTerm(CRat.from_json(t["coeff"]), int(t["i"]), int(t["j"]),
                         int(t["k"]), M) for t in data["terms"]]
        return cls(terms, Poly.from_json(data["p1"]), Poly.from_json(data["p2"]), M)


class AnalysisOutcome(Record):
    # kind: case1_contradiction | case2_proportional | degenerate_input
    __slots__ = ("kind", "witness", "lam", "gam")
    DEFAULTS = {"witness": dict, "lam": None, "gam": None}
    JSON_NAMES = {"lam": "lambda", "gam": "gamma"}

    def omega0(self) -> str:
        if self.kind != "case2_proportional":
            return ""
        return f"omega0 = ({self.lam})*dxi1/xi1 - ({self.gam})*dxi2/xi2"

    def verify(self, p1: Poly, p2: Poly) -> bool:
        if self.kind != "case2_proportional":
            return True
        if self.lam.is_zero() and self.gam.is_zero():
            return False
        return (p1.derivative().scale(self.lam)
                - p2.derivative().scale(self.gam)).is_zero()

    def to_json(self):
        out = super().to_json()
        if self.lam is None:
            del out["lambda"], out["gamma"]
        else:
            out["omega0"] = self.omega0()
        return out


# ---------------------------------------------------------------------------
# realization and class structure
# ---------------------------------------------------------------------------

def realize(s: ExpSum) -> ExpPoly:
    """The exact entire function the sum denotes."""
    out = ExpPoly.zero()
    for t in s.terms:
        out = out + s.term_realized(t)
    return out


def partition_classes(s: ExpSum):
    """Group terms by exponent polynomial modulo additive constants.

    Two summands have a rational quotient exactly when they land in the same
    group (the exponential parts then differ by a constant and the rest is a
    ratio of polynomials).
    """
    groups = {}
    for idx, t in enumerate(s.terms):
        key = s.term_exponent(t).drop_constant()
        groups.setdefault(key, []).append(idx)
    ordered = sorted(groups.items(), key=lambda kv: kv[0].sort_key())
    return [s.subset(idx) for _, idx in ordered]


def _term_rows(cls: ExpSum):
    """The class's terms realized once each, as exact integer rows.

    A realized term is a sum of Gaussian-rational coefficients over the
    coordinates (exponent polynomial, exponent constant, power of x), the
    coordinates over which ExpPoly's canonical form adds.  Each row holds
    the real or the imaginary part of one coordinate, one entry per term,
    all scaled by a common denominator; a sub-collection realizes to zero
    exactly when its entries sum to zero in every row.
    """
    vecs = [cls.term_realized(t).coordinates() for t in cls.terms]
    keys = dict.fromkeys(key for vec in vecs for key in vec)
    den = math.lcm(*(q.denominator for vec in vecs for c in vec.values()
                     for q in (c.re, c.im)))
    zero = CRat(0)
    rows = []
    for key in keys:
        col = [vec.get(key, zero) for vec in vecs]
        for row in (tuple(int(c.re * den) for c in col),
                    tuple(int(c.im * den) for c in col)):
            if any(row):
                rows.append(row)
    return rows


def minimal_vanishing_subsets(s: ExpSum):
    """Inclusion-minimal vanishing sub-collections covering all terms.

    Works class by class (a minimal vanishing set can never straddle two
    rational classes: its class parts would vanish separately).  Within a
    class the search is greedy and exhaustive: the smallest vanishing
    subset of the remaining terms, the lexicographically first among those
    of that size, is taken out and the search repeats.  Each term is
    realized once, as an exact integer vector (:func:`_term_rows`), so a
    candidate costs a few integer sums instead of an ExpPoly build; every
    subset returned is still verified by realizing it.  The enumeration is
    exponential in the class size, so classes are capped at MAX_CLASS_TERMS
    terms.
    """
    if not realize(s).is_zero():
        raise NotAnIdentityError("realized sum is not identically zero")
    out = []
    for cls in partition_classes(s):
        if len(cls.terms) > MAX_CLASS_TERMS:
            raise BorelError(
                f"class with {len(cls.terms)} terms exceeds the search cap "
                f"{MAX_CLASS_TERMS}")
        rows = _term_rows(cls)

        def vanishes(combo):
            return not any(sum(map(row.__getitem__, combo)) for row in rows)

        remaining = list(range(len(cls.terms)))
        while remaining:
            found = next((combo for size in range(1, len(remaining) + 1)
                          for combo in combinations(remaining, size)
                          if vanishes(combo)), None)
            if found is None:
                raise AssertionError(
                    "remaining terms of a vanishing class do not vanish "
                    "(build bug)")
            sub = cls.subset(found)
            if not realize(sub).is_zero():
                raise AssertionError(
                    "vector test passed a subset that does not realize to "
                    "zero (build bug)")
            out.append(sub)
            remaining = [i for i in remaining if i not in found]
    return out


# ---------------------------------------------------------------------------
# homogeneous forms
# ---------------------------------------------------------------------------

def form_coefficients(s: ExpSum):
    """Coefficients d_i of the degree-M form, as exact exponential constants.

    All terms must lie in one rational class; constant differences between
    exponents are absorbed symbolically (exp of an exact constant), so each
    d_i is an ExpPoly with constant terms only.
    """
    classes = partition_classes(s)
    if len(classes) != 1:
        raise ValueError("form extraction requires a single rational class")
    base = s.term_exponent(s.terms[0]).drop_constant()
    dvec = [ExpPoly.zero() for _ in range(s.M + 1)]
    for t in s.terms:
        expo = s.term_exponent(t)
        c = (expo - base).constant()
        dvec[t.i] = dvec[t.i] + ExpPoly([(Poly([t.coeff]), Poly(), c)])
    return dvec


class Factorization(Record):
    # lead: CRat or complex; factors: [(lam, gam, exact: bool)]
    __slots__ = ("lead", "factors", "exact")

    def reconstruct_coeffs(self, M: int):
        """Multiply the linear factors back out (exact factorizations only)."""
        if not self.exact:
            raise ValueError("reconstruction needs an exact factorization")
        if len(self.factors) != M:
            raise ValueError(f"factor count {len(self.factors)} != degree {M}")
        out = Poly([as_crat(self.lead)])
        for lam, gam, _ in self.factors:
            out = out * Poly([-gam, lam])
        return list(out.coeffs) + [CRat(0)] * (M + 1 - len(out.coeffs))


def factor_homogeneous(dvec, M: int) -> Factorization:
    """Split sum_i d_i x^i y^(M-i) into linear factors lam*x - gam*y.

    Exact Gaussian-rational roots are found and deflated first; whatever
    remains is localized numerically (the annihilation decision downstream
    never relies on an inexact root).
    """
    ds = [as_crat(d) for d in dvec]
    if len(ds) != M + 1:
        raise ValueError("coefficient list must have length M+1")
    imax = max((i for i, d in enumerate(ds) if not d.is_zero()), default=-1)
    if imax < 0:
        raise ValueError("zero form has no factorization")
    factors = [(CRat(0), CRat(-1), True)] * (M - imax)
    g = Poly(ds[: imax + 1])  # roots t of g give factors x - t*y
    exact_all = True
    for sq, mult in squarefree_decomposition(g):
        ex, nu = exact_roots(sq)
        for root in ex:
            factors.extend([(CRat(1), root, True)] * mult)
        for z in nu:
            exact_all = False
            factors.extend([(CRat(1), complex(z), False)] * mult)
    return Factorization(ds[imax], factors, exact_all)


def _proportionality_ratio(p1d: Poly, p2d: Poly):
    """rho with p2' = rho * p1', or None if the derivatives are independent."""
    if p1d.is_zero() or p2d.is_zero():
        return None
    if p1d.degree != p2d.degree:
        return None
    rho = p2d.lead() / p1d.lead()
    return rho if (p2d - p1d.scale(rho)).is_zero() else None


def case2_conclude(s: ExpSum) -> AnalysisOutcome:
    """The single-class endgame: extract exact (lambda, gamma).

    The vanishing of the class forces the homogeneous form to vanish on
    (p1', p2'); a linear factor lam*x - gam*y must then annihilate the
    derivative pair.  The binding annihilation test is exact regardless of
    how the factor candidates were located.
    """
    p1d, p2d = s.p1.derivative(), s.p2.derivative()
    if p1d.is_zero() or p2d.is_zero():
        return AnalysisOutcome("degenerate_input", witness={
            "reason": "an exponent polynomial is constant"})
    dvec = form_coefficients(s)
    if all(d.is_zero() for d in dvec):
        return AnalysisOutcome("degenerate_input", witness={
            "reason": "homogeneous form vanishes identically: no constraint"})
    rho = _proportionality_ratio(p1d, p2d)
    if rho is None:
        raise InconsistentCase2Error(
            "derivatives are not proportional; the realized sum cannot vanish")
    # G(rho) = sum_i d_i rho^(M-i) must be exactly zero
    g = ExpPoly.zero()
    for i, d in enumerate(dvec):
        g = g + d.scale(rho ** (s.M - i))
    if not g.is_zero():
        raise InconsistentCase2Error(
            "no linear factor annihilates the derivative pair")
    lam, gam = CRat(1), rho.inverse()
    witness = {"rho": str(rho), "class_size": len(s.terms)}
    if all(t.expconst.is_zero() for d in dvec for t in d.terms):
        plain = [d.polynomial_part().constant() for d in dvec]
        fz = factor_homogeneous(plain, s.M)
        witness["factors"] = [
            {"lambda": str(l) if isinstance(l, CRat) else repr(l),
             "gamma": str(gm) if isinstance(gm, CRat) else repr(gm),
             "exact": ex} for l, gm, ex in fz.factors]
    else:
        witness["factors"] = "transcendental constants: factorization skipped"
    out = AnalysisOutcome("case2_proportional", witness, lam, gam)
    if not out.verify(s.p1, s.p2):
        raise AssertionError("annihilation verification failed (build bug)")
    return out


# ---------------------------------------------------------------------------
# case 1: numeric refutation of mixed classes
# ---------------------------------------------------------------------------

class Case1Report(Record):
    # smt: nevanlinna.SmtReport or None
    __slots__ = ("L", "radii", "T", "log_factor", "logfit_residual", "smt",
                 "refuted", "reason")


def _strip_common_poly_zeros(components):
    from .polys import poly_gcd_many
    single = all(len(c.terms) == 1 for c in components)
    if not single:
        return components
    g = poly_gcd_many([c.terms[0].coeff for c in components])
    if g.degree < 1:
        return components
    return [ExpPoly([(c.terms[0].coeff.exact_div(g), c.terms[0].expo,
                      c.terms[0].expconst)]) for c in components]


def case1_refute(subset, radii=(4.0, 8.0, 16.0, 32.0),
                 factor_threshold: float = 10.0) -> Case1Report:
    """Numeric witness that a mixed-class identity cannot hold.

    Accepts either an ExpSum whose terms span several rational classes, or a
    plain list of ExpPoly summands.  The refutation contrasts the growth of
    the summand curve (order two beats any a*log r + b by a large factor at
    the top radius) with the log-growth the defect relation would force.
    """
    if isinstance(subset, ExpSum):
        classes = partition_classes(subset)
        if len(classes) < 2:
            raise NotCase1Error("all terms share one rational class")
        components = [realize(cls) for cls in classes]
    else:
        components = list(subset)
        keys = set()
        for c in components:
            for t in c.terms:
                keys.add((t.expo.sort_key()))
        if len(keys) < 2:
            raise NotCase1Error("all summands share one rational class")
    L = len(components)
    radii = sorted(float(r) for r in radii)
    if L == 2:
        # dividing by one summand equates an exponential of a nonconstant
        # polynomial with a rational function: impossible on its face
        return Case1Report(L, list(radii), [], float("inf"), float("inf"),
                           None, True,
                           "two distinct classes: exp(nonconstant polynomial) "
                           "would equal a rational function")
    from .nevanlinna import (NevanlinnaError, ProjCurve, characteristic,
                             fit_linear, log_bound_factor,
                             smt_defect_on_sum_relation)
    components = _strip_common_poly_zeros(components)
    curve = ProjCurve(components)
    ts = [characteristic(curve, r) for r in radii]
    factor = log_bound_factor(radii, ts)
    _, _, rms = fit_linear([math.log(r) for r in radii], ts)
    resid = rms / max(1.0, max(abs(t) for t in ts))
    total = components[0]
    for c in components[1:]:
        total = total + c
    smt = None
    if total.is_zero():
        try:
            smt = smt_defect_on_sum_relation(components, radii,
                                             n_method="circle-mean")
        except NevanlinnaError:
            smt = None
    refuted = factor >= factor_threshold
    reason = (f"T at r={radii[-1]:g} exceeds the log ray by x{factor:.3g}"
              if refuted else "log-bounded growth: no contradiction witnessed")
    return Case1Report(L, list(radii), ts, factor, resid, smt, refuted, reason)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def degeneracy_pipeline(s: ExpSum) -> AnalysisOutcome:
    """partition -> minimality -> per-class conclusion.

    Mixed-class minimal subsets cannot occur for a true identity (each
    rational class vanishes separately), so the pipeline reduces to the
    single-class conclusion on every minimal subset and cross-checks that
    all of them agree on (lambda, gamma).
    """
    if s.p1.derivative().is_zero() or s.p2.derivative().is_zero():
        return AnalysisOutcome("degenerate_input", witness={
            "reason": "an exponent polynomial is constant"})
    subsets = minimal_vanishing_subsets(s)
    outcomes = []
    notes = []
    for sub in subsets:
        out = case2_conclude(sub)
        if out.kind == "case2_proportional":
            outcomes.append(out)
        else:
            notes.append(out.witness.get("reason", out.kind))
    if outcomes:
        lam, gam = outcomes[0].lam, outcomes[0].gam
        for o in outcomes[1:]:
            if (o.lam * gam - o.gam * lam) != CRat(0):
                raise AssertionError("inconsistent per-class conclusions")
        witness = {"classes": len(partition_classes(s)),
                   "minimal_subsets": len(subsets),
                   "per_subset": [o.witness for o in outcomes]}
        if notes:
            witness["skipped"] = notes
        final = AnalysisOutcome("case2_proportional", witness, lam, gam)
        if not final.verify(s.p1, s.p2):
            raise AssertionError("pipeline verification failed")
        return final
    rho = _proportionality_ratio(s.p1.derivative(), s.p2.derivative())
    if rho is not None:
        return AnalysisOutcome(
            "case2_proportional", lam=CRat(1), gam=rho.inverse(),
            witness={"reason": "no subset constraint; proportional directly",
                     "skipped": notes})
    return AnalysisOutcome("degenerate_input", witness={
        "reason": "identity carries no homogeneous constraint",
        "skipped": notes})


# ---------------------------------------------------------------------------
# seeded instance generators (shared by tests and the acceptance gate)
# ---------------------------------------------------------------------------

def random_case2_instance(rng):
    """A random vanishing single-class instance with proportional exponents.

    Returns (ExpSum, expected (lambda, gamma) normalized to lambda = 1).
    """
    from fractions import Fraction

    def rnd_frac(nonzero=False):
        while True:
            v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if v or not nonzero:
                return v

    deg = rng.randint(1, CASE2_MAX_DEG)
    p1 = Poly([CRat(rnd_frac()) for _ in range(deg)] + [CRat(rnd_frac(True))])
    rho = CRat(rnd_frac(True))
    p2 = p1.scale(rho) + Poly([CRat(rnd_frac())])
    M = rng.randint(1, CASE2_MAX_M)
    idx = sorted(rng.sample(range(M + 1), rng.randint(2, M + 1)))
    i0 = idx[-1]
    coeffs = {}
    acc = CRat(0)
    for i in idx[:-1]:
        c = CRat(rnd_frac(True))
        coeffs[i] = c
        acc = acc + c * rho ** (M - i)
    c0 = -acc / rho ** (M - i0)
    if c0.is_zero():
        # deterministic retry: shift one coefficient
        coeffs[idx[0]] = coeffs[idx[0]] + CRat(1)
        acc = sum((coeffs[i] * rho ** (M - i) for i in idx[:-1]), CRat(0))
        c0 = -acc / rho ** (M - i0)
    coeffs[i0] = c0
    terms = [ExpTerm(coeffs[i], i, M - i, i, M) for i in idx]
    return ExpSum(terms, p1, p2, M), (CRat(1), rho.inverse())
