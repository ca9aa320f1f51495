"""Plane-curve configurations: exact intersections and genericity checks.

Intersection points and multiplicities come from resultant elimination after
a deterministic (seeded) linear change of coordinates chosen so that nothing
hides on the line at infinity, the elimination direction is regular, and
distinct points have distinct abscissae; multiplicities are then exact root
multiplicities of the eliminant, and the Bezout total is the eliminant
degree -- an exact integer identity.

The two-puncture case engine is purely combinatorial: it enumerates how an
irreducible curve meeting the three-component configuration in exactly two
points could distribute its intersection numbers, applies the forced
multiplicity equations, and tests them against the singularity bound

    m_P (m_P - 1) + m_Q (m_Q - 1) <= (d0 - 1)(d0 - 2)

whose consequence is m_P, m_Q < d0 unless d0 = m_P = m_Q = 1.  Every
"impossible" verdict ships an arithmetic certificate.

The quadric exclusion searches for a line meeting each non-quadric component
in a single point (restriction a perfect power -- a rank-one condition on
scaled binary-form coefficients) and passing through the two tangency points
on the quadric.  It is supported for component degrees up to four.

Three bivariate systems share one exact-first solver, ``_common_zeros``: two
curves meeting, a curve and its partial derivatives (its singular points),
and the rank-one minors of a total tangent line.  It eliminates the second
variable by a resultant and takes the eliminant's squarefree factors and
their roots, exact ones (small-denominator Gaussian rationals verified by
substitution) before numeric ones.  Over an exact root the fibre is the
squarefree part of the gcd of the two specialised polynomials, so a
repeated fibre root is found once, and a linear fibre gives its root
exactly; over a numeric root the fibre roots of the two polynomials that
agree to 1e-12 are matched.  A point with a numeric coordinate is flagged
inexact.  A numeric tangent line is accepted when every minor is below the
absolute bound ``1e-10 (1 + |lam| + |mu|)^8`` in its chart coordinates.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from . import Frozen, Value
from .polys import (MPoly, Poly, biv_gcd, exact_roots, poly_gcd,
                    resultant_bivariate, squarefree_decomposition)
from .scalars import CRat


class PlaneConfError(Exception):
    pass


class NonCoprimeError(PlaneConfError):
    pass


class UnsupportedDegreeError(PlaneConfError):
    pass


class DegenerateChangeError(PlaneConfError):
    pass


_BINOM = [[math.comb(n, k) for k in range(n + 1)] for n in range(12)]


# ---------------------------------------------------------------------------
# curves and configurations
# ---------------------------------------------------------------------------

class PlaneCurve(Frozen):
    """Squarefree homogeneous curve in the projective plane."""

    __slots__ = ("poly", "degree")

    def __init__(self, poly: MPoly):
        if poly.nvars != 3:
            raise ValueError("plane curves live in three homogeneous variables")
        if poly.is_zero() or not poly.is_homogeneous():
            raise ValueError("curve polynomial must be nonzero homogeneous")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "degree", poly.total_degree())
        if not self._squarefree():
            raise ValueError("curve polynomial has a repeated component")

    def _squarefree(self) -> bool:
        if self.degree <= 1:
            return True
        a, = _affine_chart([self.poly], seed=17)
        g = biv_gcd(biv_gcd(a, a.partial(0)), a.partial(1))
        return g.total_degree() <= 0

    def eval_exact(self, point):
        return self.poly.eval(point)

    def is_smooth(self) -> bool:
        """No projective point where the curve and its gradient all vanish."""
        if self.degree == 1:
            return True
        for chart in (0, 1, 2):
            a = self.poly.substitute_value(chart, CRat(1))
            au, av = a.partial(0), a.partial(1)
            if _bivariate_common_zero(au, av, a):
                return False
        return True

    def to_json(self):
        out = []
        for e, c in self.poly.iter_sorted():
            if c.im:
                out.append({"exponents": list(e), "coeff": c.to_json()})
            else:
                out.append({"exponents": list(e),
                            "coeff": [c.re.numerator, c.re.denominator]})
        return {"monomials": out}

    @classmethod
    def from_json(cls, data):
        return cls(MPoly.from_json(3, data["monomials"]))

    def __repr__(self):
        return f"PlaneCurve(deg={self.degree}, {self.poly!r})"


class Configuration(Frozen):
    """Three squarefree curves with pairwise coprime equations."""

    __slots__ = ("curves",)

    def __init__(self, curves):
        curves = tuple(curves)
        if len(curves) != 3:
            raise ValueError("a configuration holds exactly three curves")
        for i in range(3):
            for j in range(i + 1, 3):
                if not _coprime(curves[i].poly, curves[j].poly):
                    raise NonCoprimeError(f"curves {i} and {j} share a component")
        object.__setattr__(self, "curves", curves)

    def to_json(self):
        return {"curves": [c.to_json() for c in self.curves]}

    @classmethod
    def from_json(cls, data):
        return cls(PlaneCurve.from_json(c) for c in data["curves"])


def _coprime(p: MPoly, q: MPoly) -> bool:
    a, b = _affine_chart([p, q], seed=23)
    return biv_gcd(a, b).total_degree() <= 0


def _affine_chart(polys, seed: int):
    """The forms polys in the first change of _change_schedule whose line
    at infinity divides none of them, restricted to x2 = 1."""
    for matrix in _change_schedule(seed=seed):
        moved = [p.substitute_linear(matrix) for p in polys]
        if not any(m.substitute_value(2, CRat(0)).is_zero() for m in moved):
            return [m.substitute_value(2, CRat(1)) for m in moved]
    raise DegenerateChangeError("no usable coordinate change found")


def _change_schedule(seed: int, attempts: int = 6):
    """Identity first, then seeded random small-integer invertible changes."""
    from .polys import det_field
    ident = [[CRat(1 if i == j else 0) for j in range(3)] for i in range(3)]
    yield ident
    rng = random.Random(seed)
    produced = 0
    while produced < attempts:
        m = [[CRat(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        if not det_field(m).is_zero():
            produced += 1
            yield m


# ---------------------------------------------------------------------------
# exact/numeric hybrid points
# ---------------------------------------------------------------------------

class ProjPoint(Value):
    """Projective point with exact coordinates when available."""

    __slots__ = ("coords", "exact")

    def __init__(self, coords: tuple, exact: bool):
        # coords: a CRat triple (exact) or a complex triple (numeric)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "exact", exact)

    def _key(self):
        return (self.coords, self.exact)

    @classmethod
    def from_exact(cls, cs):
        cs = tuple(cs)
        for c in cs:
            if not c.is_zero():
                inv = c.inverse()
                return cls(tuple(x * inv for x in cs), True)
        raise ValueError("zero vector is not a projective point")

    @classmethod
    def from_numeric(cls, cs):
        cs = tuple(complex(c) for c in cs)
        mx = max(abs(c) for c in cs)
        if mx == 0:
            raise ValueError("zero vector is not a projective point")
        cs = tuple(c / mx for c in cs)
        return cls(cs, False)

    def same_as(self, other: "ProjPoint", tol: float = 1e-9) -> bool:
        return _proportional(self.coords, other.coords,
                             self.exact and other.exact, tol)

    def to_json(self):
        if self.exact:
            return {"exact": True, "coords": [c.to_json() for c in self.coords]}
        return {"exact": False,
                "coords": [[c.real, c.imag] for c in self.coords]}

    def __repr__(self):
        if self.exact:
            return "(" + " : ".join(str(c) for c in self.coords) + ")"
        return "(" + " : ".join(f"{c:.6g}" for c in self.coords) + ")"


def _proportional(a, b, exact: bool, tol: float, scaled: bool = False):
    """Do the triples a and b span the same projective point?

    Exact triples compare exactly.  Otherwise every 2x2 minor a_i b_j -
    a_j b_i must be at most tol in modulus, or at most
    tol * max|a_i| * max|b_i| when scaled.
    """
    pairs = ((0, 1), (0, 2), (1, 2))
    if exact:
        return all((a[i] * b[j] - a[j] * b[i]).is_zero() for i, j in pairs)
    a = [complex(c) for c in a]
    b = [complex(c) for c in b]
    if scaled:
        tol = tol * max(abs(x) for x in a) * max(abs(x) for x in b)
    return not any(abs(a[i] * b[j] - a[j] * b[i]) > tol for i, j in pairs)


# ---------------------------------------------------------------------------
# intersection points
# ---------------------------------------------------------------------------

def intersection_points(c1: PlaneCurve, c2: PlaneCurve, seed: int = 0):
    """All intersection points with exact local multiplicities.

    Returns [(ProjPoint, multiplicity)] with the Bezout identity
    sum(multiplicities) == deg(c1) * deg(c2) asserted exactly.
    """
    if not _coprime(c1.poly, c2.poly):
        raise NonCoprimeError("curves share a component")
    return _coprime_intersections(c1, c2, seed)


def _coprime_intersections(c1, c2, seed):
    """intersection_points for a pair already known to be coprime."""
    d1, d2 = c1.degree, c2.degree
    last = None
    for matrix in _change_schedule(seed=seed, attempts=8):
        try:
            return _intersections_in_chart(c1, c2, matrix)
        except DegenerateChangeError as exc:
            last = exc
    raise DegenerateChangeError(
        f"no coordinate change separated the {d1 * d2} intersections: {last}")


def _intersections_in_chart(c1, c2, matrix):
    d1, d2 = c1.degree, c2.degree
    p1 = c1.poly.substitute_linear(matrix)
    p2 = c2.poly.substitute_linear(matrix)
    # nothing at infinity: the two restrictions to x2 = 0 share no root
    r1 = p1.substitute_value(2, CRat(0))
    r2 = p2.substitute_value(2, CRat(0))
    if r1.is_zero() or r2.is_zero():
        raise DegenerateChangeError("infinity line inside a curve")
    if _binary_resultant(r1, r2).is_zero():
        raise DegenerateChangeError("intersection on the infinity line")
    a1 = p1.substitute_value(2, CRat(1))
    a2 = p2.substitute_value(2, CRat(1))
    # regular elimination direction: top v-coefficients are constants
    if a1.degree_in(1) != d1 or a2.degree_in(1) != d2 or \
            a1.as_univariate(1)[d1].total_degree() > 0 or \
            a2.as_univariate(1)[d2].total_degree() > 0:
        raise DegenerateChangeError("elimination direction not regular")
    res = resultant_bivariate(a1, a2, elim=1)
    if res.degree != d1 * d2:
        raise DegenerateChangeError(
            f"eliminant degree {res.degree} != {d1 * d2}")
    out = []
    for u, vs, mult in _common_zeros(a1, a2, res):
        if len(vs) != 1:
            raise DegenerateChangeError(
                "two intersections share an abscissa" if vs
                else "eliminant root without a fiber point")
        coords = _apply_matrix(matrix, (u, vs[0], CRat(1)))
        pt = ProjPoint.from_exact(coords) if isinstance(vs[0], CRat) \
            else ProjPoint.from_numeric(coords)
        out.append((pt, mult))
    total = sum(m for _, m in out)
    if total != d1 * d2:
        raise AssertionError(f"Bezout total {total} != {d1 * d2} (build bug)")
    out.sort(key=_point_sort_key)
    return out


def _point_sort_key(pm):
    return tuple((round(c.real, 9), round(c.imag, 9))
                 for c in map(complex, pm[0].coords))


def _apply_matrix(matrix, y):
    """matrix times the column y: exact when every y_j is a CRat, else in
    complex numbers."""
    if not all(isinstance(c, CRat) for c in y):
        matrix = [[c.to_complex() for c in row] for row in matrix]
        y = [complex(c) for c in y]
    return tuple(sum(a * b for a, b in zip(row, y)) for row in matrix)


def _binary_resultant(f: MPoly, g: MPoly):
    """Resultant of two binary forms (exact scalar)."""
    from .polys import sylvester_det
    df, dg = f.total_degree(), g.total_degree()
    fc = [CRat(0)] * (df + 1)
    for (i, j), c in f.terms.items():
        fc[i] = c
    gc = [CRat(0)] * (dg + 1)
    for (i, j), c in g.terms.items():
        gc[i] = c
    return sylvester_det(fc, gc)


def _common_zeros(f: MPoly, g: MPoly, eliminant: Poly):
    """Affine common zeros of f and g, exact roots first.

    eliminant is a nonzero resultant of f and g eliminating the second
    variable.  For each of its distinct roots u, squarefree factor by factor
    and exact roots before numeric ones, yields (u, vs, mult): mult is the
    multiplicity of u in the eliminant and vs lists the distinct v with
    f(u, v) = g(u, v) = 0.  An exact u (CRat) takes vs from the squarefree
    part of gcd(f(u, .), g(u, .)): the exact root of a linear part, else its
    exact_roots (CRat roots, then mpmath ones).  A numeric u (mpmath) takes
    vs from _common_v_numeric, as complex numbers.
    """
    for factor, mult in squarefree_decomposition(eliminant):
        exact, numeric = exact_roots(factor)
        for u in exact:
            fibre = poly_gcd(f.substitute_value(0, u).to_poly(),
                             g.substitute_value(0, u).to_poly())
            if fibre.degree > 1:
                fibre = fibre.exact_div(poly_gcd(fibre, fibre.derivative()))
            if fibre.degree < 1:
                vs = []
            elif fibre.degree == 1:
                vs = [-fibre.coeffs[0] / fibre.coeffs[1]]
            else:
                ex, nu = exact_roots(fibre)
                vs = ex + nu
            yield u, vs, mult
        for u in numeric:
            yield u, _common_v_numeric(f, g, u), mult


def _common_v_numeric(a1, a2, alpha):
    """The distinct roots v shared by a1(alpha, v) and a2(alpha, v).

    A root of each within 1e-12 counts as shared.  The closest such pair
    gives the first v; a further pair gives another only when it lies more
    than 1e-10 from every v kept.
    """
    import mpmath as mp
    q1 = _poly_at_numeric(a1, alpha)
    q2 = _poly_at_numeric(a2, alpha)
    r1 = mp.polyroots(q1, maxsteps=200, extraprec=120) if len(q1) > 1 else []
    r2 = mp.polyroots(q2, maxsteps=200, extraprec=120) if len(q2) > 1 else []
    vs = []
    for d, x in sorted(((abs(x - y), x) for x in r1 for y in r2),
                       key=lambda dx: dx[0]):
        if d > 1e-12:
            break
        if all(abs(x - v) > 1e-10 for v in vs):
            vs.append(x)
    return [complex(v) for v in vs]


def _poly_at_numeric(a: MPoly, alpha):
    import mpmath as mp
    with mp.workdps(50):
        al = mp.mpc(alpha)
        vals = [c.eval([al], lambda q: mp.mpc(str(q.re), str(q.im)))
                for c in a.as_univariate(1)]
        while vals and abs(vals[-1]) < mp.mpf(10) ** (-40):
            vals.pop()
        return list(reversed(vals))


def _bivariate_common_zero(f: MPoly, g: MPoly, witness: MPoly) -> bool:
    """Does {f = g = 0} meet {witness = 0} in the affine chart?  Exact-first."""
    res = resultant_bivariate(f, g, elim=1)
    if res.is_zero():
        shared = biv_gcd(f, g)
        res2 = resultant_bivariate(shared, witness, elim=1)
        if res2.is_zero():
            return True  # a whole common curve inside the witness locus
        return _candidates_hit(shared, witness, witness, res2)
    return _candidates_hit(f, g, witness, res)


def _candidates_hit(f, g, witness, eliminant: Poly) -> bool:
    return any(_vanishes(witness, (u, v), isinstance(v, CRat), 1e-10)
               for u, vs, _ in _common_zeros(f, g, eliminant) for v in vs)


def _vanishes(poly: MPoly, coords, exact: bool, tol: float) -> bool:
    """Is poly zero at coords: exactly, or else below tol in modulus with
    coords and coefficients taken as complex numbers?"""
    if exact:
        return poly.eval(coords).is_zero()
    return abs(poly.eval([complex(c) for c in coords], CRat.to_complex)) < tol


# ---------------------------------------------------------------------------
# normal crossings
# ---------------------------------------------------------------------------

class CrossingsReport:
    def __init__(self, passed: bool, smooth: list, pairwise: list,
                 triple_points: list):
        self.passed = passed
        self.smooth = smooth
        self.pairwise = pairwise
        self.triple_points = triple_points

    def to_json(self):
        return {"pass": self.passed, "smooth": self.smooth,
                "pairwise": self.pairwise,
                "triple_points": [p.to_json() for p in self.triple_points]}


def normal_crossings(conf: Configuration, seed: int = 0) -> CrossingsReport:
    """Smooth components, transversal pairwise meetings, no triple points."""
    smooth = [c.is_smooth() for c in conf.curves]
    pairwise = []
    points = {}
    for i in range(3):
        for j in range(i + 1, 3):
            # Configuration proved every pair coprime on construction
            pts = _coprime_intersections(conf.curves[i], conf.curves[j], seed)
            points[(i, j)] = pts
            worst = max(m for _, m in pts)
            pairwise.append({
                "pair": [i, j],
                "bezout_total": sum(m for _, m in pts),
                "transversal": worst == 1,
                "worst_multiplicity": worst,
            })
    triples = [pt for pt, _m in points[(0, 1)]
               if _vanishes(conf.curves[2].poly, pt.coords, pt.exact, 1e-9)]
    passed = all(smooth) and all(p["transversal"] for p in pairwise) \
        and not triples
    return CrossingsReport(passed, smooth, pairwise, triples)


# ---------------------------------------------------------------------------
# two-puncture case engine
# ---------------------------------------------------------------------------

def eq_star(d0: int, m_p: int, m_q: int) -> bool:
    """The multiplicity window singular curves leave open."""
    return (m_p < d0 and m_q < d0) or (d0 == 1 and m_p == 1 and m_q == 1)


def fulton_bound(d0: int, m_p: int, m_q: int) -> bool:
    return m_p * (m_p - 1) + m_q * (m_q - 1) <= (d0 - 1) * (d0 - 2)


class CaseVerdict:
    def __init__(self, d0: int, pattern: str, tangency: str, verdict: str,
                 certificate: dict = None):
        self.d0 = d0
        self.pattern = pattern
        self.tangency = tangency
        self.verdict = verdict    # "impossible" | "survivor"
        self.certificate = {} if certificate is None else certificate

    def to_json(self):
        return {"d0": self.d0, "pattern": self.pattern,
                "tangency": self.tangency, "verdict": self.verdict,
                "certificate": dict(self.certificate)}


def two_puncture_case_engine(degrees, d0_max: int):
    """Enumerate every two-puncture meeting pattern up to degree d0_max.

    Patterns: the curve A meets the configuration in exactly two points P, Q;
    P sits on two components.  Either Q sits on the remaining component only,
    or Q sits on a second crossing sharing one component with P.  Transversal
    single-point meetings force m = d_component * d0; a two-point transversal
    split on the shared component forces m_P + m_Q = d_shared * d0.  Each
    branch is closed off by the multiplicity window or survives.
    """
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) != 3 or min(degrees) < 2 or max(degrees) < 3:
        raise PlaneConfError(
            "engine expects three degrees, all >= 2 with at least one >= 3")
    if d0_max < 1:
        raise PlaneConfError(f"d0_max must be >= 1, got {d0_max}")
    verdicts = []
    for d0 in range(1, d0_max + 1):
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            pattern = f"P in C{i + 1} and C{j + 1}; Q in C{k + 1} only"
            # at a normal crossing A is tangent to at most one branch, so at
            # least one of C_i, C_j meets A transversally, entirely at P
            for tangent in (None, i, j):
                trans = j if tangent == i else i
                m_p = degrees[trans] * d0
                cert = {
                    "equation": f"m_P = I(P, A.C{trans + 1}) = "
                                f"{degrees[trans]}*{d0} = {m_p}",
                    "eq_star_holds": eq_star(d0, m_p, 1),
                    "fulton_with_mQ_1": fulton_bound(d0, m_p, 1),
                    "m_P": m_p, "m_Q_free": True,
                }
                tag = f"A tangent to C{tangent + 1} at P" if tangent is not None \
                    else "A transversal at P"
                verdicts.append(CaseVerdict(
                    d0, pattern, tag,
                    "survivor" if eq_star(d0, m_p, 1) and m_p == 1
                    else "impossible", cert))
        for shared in (0, 1, 2):
            others = [x for x in (0, 1, 2) if x != shared]
            i, k = others
            pattern = (f"P in C{i + 1} and C{shared + 1}; "
                       f"Q in C{shared + 1} and C{k + 1}")
            for tang_i in (False, True):
                for tang_k in (False, True):
                    tag = (f"tangent to C{i + 1} at P: {tang_i}; "
                           f"tangent to C{k + 1} at Q: {tang_k}")
                    if not tang_i:
                        m_p = degrees[i] * d0
                        cert = {"equation": f"m_P = {degrees[i]}*{d0} = {m_p}",
                                "eq_star_holds": eq_star(d0, m_p, 1),
                                "m_P": m_p}
                        verdicts.append(CaseVerdict(
                            d0, pattern, tag,
                            "survivor" if eq_star(d0, m_p, 1) and m_p == 1
                            else "impossible", cert))
                        continue
                    if not tang_k:
                        m_q = degrees[k] * d0
                        cert = {"equation": f"m_Q = {degrees[k]}*{d0} = {m_q}",
                                "eq_star_holds": eq_star(d0, 1, m_q),
                                "m_Q": m_q}
                        verdicts.append(CaseVerdict(
                            d0, pattern, tag,
                            "survivor" if eq_star(d0, 1, m_q) and m_q == 1
                            else "impossible", cert))
                        continue
                    # tangent to both outer components: the shared component
                    # is transversal at P and Q, so m_P + m_Q = d_shared * d0
                    ds = degrees[shared]
                    split = ds * d0
                    solutions = [(mp_, split - mp_)
                                 for mp_ in range(1, split)
                                 if eq_star(d0, mp_, split - mp_)]
                    cert = {"equation": f"m_P + m_Q = {ds}*{d0} = {split}",
                            "window_solutions": solutions}
                    if solutions:
                        cert["shared_degree"] = ds
                        verdicts.append(CaseVerdict(
                            d0, pattern, tag, "survivor", cert))
                    else:
                        cert["reason"] = ("no multiplicity split satisfies "
                                          "the window")
                        verdicts.append(CaseVerdict(
                            d0, pattern, tag, "impossible", cert))
    return verdicts


def surviving_cases(verdicts):
    return [v for v in verdicts if v.verdict == "survivor"]


# ---------------------------------------------------------------------------
# total tangent lines and the quadric exclusion
# ---------------------------------------------------------------------------

class TangentLine(Frozen):
    __slots__ = ("dual", "point", "exact")

    def __init__(self, dual: tuple, point: ProjPoint, exact: bool):
        # dual: the line's coefficients, a CRat or complex triple; point:
        # the single contact point
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "exact", exact)

    def same_line(self, other: "TangentLine", tol: float = 1e-9) -> bool:
        return _proportional(self.dual, other.dual,
                             self.exact and other.exact, tol, scaled=True)

    def to_json(self):
        if self.exact:
            dual = [c.to_json() for c in self.dual]
        else:
            dual = [[c.real, c.imag] for c in self.dual]
        return {"dual": dual, "exact": self.exact,
                "point": self.point.to_json()}


_CHARTS = (
    # (dual vector builder, two points spanning the line)
    (lambda l, m: (CRat(1), l, m),
     lambda l, m: ((-l, CRat(1), CRat(0)), (-m, CRat(0), CRat(1)))),
    (lambda l, m: (l, CRat(1), m),
     lambda l, m: ((CRat(1), -l, CRat(0)), (CRat(0), -m, CRat(1)))),
    (lambda l, m: (l, m, CRat(1)),
     lambda l, m: ((CRat(1), CRat(0), -l), (CRat(0), CRat(1), -m))),
)


def _restrict_to_line(poly: MPoly, p1, p2, lift):
    """Binary-form coefficients of poly restricted to the line span(p1, p2).

    Entry q is the coefficient of s^q t^(d-q) in poly(s p1 + t p2).  The
    entries of p1 and p2 may lie in any ring with + and *: exact scalars,
    complex numbers, or MPoly(2) over the dual chart parameters.  lift maps
    an exact coefficient of poly into that ring.
    """
    zero = lift(CRat(0))
    out = [zero] * (poly.total_degree() + 1)
    for e, c in poly.terms.items():
        # product over coordinates of (p1_c s + p2_c t)^{e_c}, kept as a
        # list over powers of s
        acc = [lift(c)]
        for coord in range(3):
            for _ in range(e[coord]):
                nxt = [zero] * (len(acc) + 1)
                for q, a in enumerate(acc):
                    nxt[q + 1] = nxt[q + 1] + a * p1[coord]
                    nxt[q] = nxt[q] + a * p2[coord]
                acc = nxt
        for q, a in enumerate(acc):
            out[q] = out[q] + a
    return out


def total_tangent_lines(curve: PlaneCurve):
    """All lines meeting the curve in a single point (full multiplicity).

    Supported for degrees 3..4 (the rank-one system is solved by pairwise
    resultants with exact verification; candidates found only numerically
    are kept and flagged inexact).  On a conic every tangent line is a
    total tangent, a one-parameter family rather than a finite set, so
    degree 2 is refused up front like degrees 1 and 5+.
    """
    d = curve.degree
    if d < 2:
        raise UnsupportedDegreeError("total tangency needs degree >= 2")
    if d == 2:
        raise UnsupportedDegreeError(
            "every tangent line of a conic is a total tangent: the lines "
            "form a one-parameter family (search supports degrees 3..4)")
    if d > 4:
        raise UnsupportedDegreeError(
            f"total-tangent search unsupported at degree {d} (cap 4)")
    lam = MPoly.monomial(2, (1, 0), CRat(1))
    mu = MPoly.monomial(2, (0, 1), CRat(1))

    def lift(c):
        return c if isinstance(c, MPoly) else MPoly.monomial(2, (0, 0), c)

    found = []
    for dual_of, points_of in _CHARTS:
        p1, p2 = ([lift(x) for x in p] for p in points_of(lam, mu))
        avec = _restrict_to_line(curve.poly, p1, p2, lift)
        bvec = [a.scale(Fraction(1, _BINOM[d][q])) for q, a in enumerate(avec)]
        minors = []
        for q in range(d):
            for r_ in range(q + 1, d):
                mqr = bvec[q] * bvec[r_ + 1] - bvec[r_] * bvec[q + 1]
                if not mqr.is_zero():
                    minors.append(mqr)
        if not minors:
            raise PlaneConfError(
                "every line is a total tangent: degenerate curve")
        sols = _solve_rank_one(minors)
        for lam0, mu0, is_exact in sols:
            tl = _build_tangent_line(curve, dual_of, points_of, lam0, mu0,
                                     is_exact)
            if tl is None:
                continue
            if not any(tl.same_line(t) for t in found):
                found.append(tl)
    return found


def _solve_rank_one(minors):
    """Common zeros of the minor system, exact-first, fully verified."""
    for g1, g2 in combinations(minors, 2):
        res = resultant_bivariate(g1, g2, elim=1)
        if res.is_zero():
            continue
        sols = []
        for lam0, mus, _ in _common_zeros(g1, g2, res):
            for mu0 in mus:
                exact = isinstance(mu0, CRat)
                if exact:
                    pt, tol = (lam0, mu0), 0.0
                else:
                    pt = (complex(lam0), complex(mu0))
                    tol = 1e-10 * (1.0 + abs(pt[0]) + abs(pt[1])) ** 8
                if all(_vanishes(m, pt, exact, tol) for m in minors):
                    sols.append(pt + (exact,))
        return sols
    raise PlaneConfError("rank-one system degenerate in every direction")


def _build_tangent_line(curve, dual_of, points_of, lam0, mu0, is_exact):
    """The line at chart parameters (lam0, mu0) with its contact point, or
    None when the curve restricts to zero or to no perfect power on it."""
    if is_exact:
        dual = tuple(dual_of(lam0, mu0))
        p1, p2 = points_of(lam0, mu0)
        lift, zero, one = (lambda c: c), CRat(0), CRat(1)
    else:
        lamc, muc = complex(lam0), complex(mu0)

        def numeric(vec):
            # the chart entries are 0, 1, +-lamc or +-muc, so exact; + 0j
            # turns the -0.0 parts that negation leaves into 0.0
            return tuple(complex(c) + 0j for c in vec)

        dual = numeric(dual_of(lamc, muc))
        p1, p2 = (numeric(p) for p in points_of(lamc, muc))
        lift, zero, one = CRat.to_complex, 0.0, 1.0
    d = curve.degree
    avec = _restrict_to_line(curve.poly, p1, p2, lift)
    bq = [avec[q] / _BINOM[d][q] for q in range(d + 1)]
    if all(b == 0 for b in bq):
        return None  # line inside the curve: not a tangent line
    if is_exact:
        small = CRat.is_zero
    else:
        lead = max(abs(b) for b in bq)

        def small(b):
            return abs(b) < 1e-18 * lead

    if all(small(b) for b in bq[:-1]):
        s, t = zero, one
    elif small(bq[0]):
        return None  # not a perfect power (rank check failed)
    else:
        s, t = one, -(bq[1] / bq[0])
    pt = tuple(s * a + t * b for a, b in zip(p1, p2))
    try:
        point = ProjPoint.from_exact(pt) if is_exact \
            else ProjPoint.from_numeric(pt)
    except ValueError:
        return None
    return TangentLine(dual, point, is_exact)


class ExclusionReport:
    def __init__(self, vacuous: bool, passed: bool, candidates: int,
                 violations: list, notes: list = None):
        self.vacuous = vacuous
        self.passed = passed
        self.candidates = candidates
        self.violations = violations
        self.notes = [] if notes is None else notes

    def to_json(self):
        return {"vacuous": self.vacuous, "pass": self.passed,
                "candidates": self.candidates,
                "violations": [v for v in self.violations],
                "notes": list(self.notes)}


def quadric_line_exclusion(conf: Configuration) -> ExclusionReport:
    """Search for the excluded line when exactly one component is a quadric.

    A violating line meets each non-quadric component in one point (total
    tangency) and meets the quadric exactly in those two contact points.
    """
    quadrics = [i for i, c in enumerate(conf.curves) if c.degree == 2]
    if len(quadrics) != 1:
        return ExclusionReport(True, True, 0, [],
                               ["number of quadrics != 1: vacuous"])
    qi = quadrics[0]
    quadric = conf.curves[qi]
    others = [c for i, c in enumerate(conf.curves) if i != qi]
    for c in others:
        if c.degree > 4:
            raise UnsupportedDegreeError(
                f"component degree {c.degree} beyond the search cap 4")
    notes = []
    line_curves = [c for c in others if c.degree == 1]
    heavy = [c for c in others if c.degree >= 3]
    if len(line_curves) == 2:
        raise UnsupportedDegreeError(
            "two line components: the candidate family is not finite")
    tangent_sets = [total_tangent_lines(c) for c in heavy]
    violations = []
    candidates = 0
    if len(heavy) == 2:
        for t1 in tangent_sets[0]:
            for t2 in tangent_sets[1]:
                if not t1.same_line(t2):
                    continue
                candidates += 1
                v = _check_quadric_condition(quadric, t1, t2.point)
                if v is not None:
                    violations.append(v)
    else:
        # one line component: every total tangent of the heavy component
        # meets the line component once automatically
        line_curve = line_curves[0]
        for t1 in tangent_sets[0]:
            other_pt = _line_line_meet(t1, line_curve)
            if other_pt is None:
                notes.append("candidate equals the line component: skipped")
                continue
            candidates += 1
            v = _check_quadric_condition(quadric, t1, other_pt)
            if v is not None:
                violations.append(v)
    return ExclusionReport(False, not violations, candidates, violations, notes)


def _line_line_meet(tl: TangentLine, line_curve: PlaneCurve):
    b = [CRat(0)] * 3
    for e, c in line_curve.poly.terms.items():
        b[e.index(1)] = c
    a = tl.dual
    if not tl.exact:
        a = [complex(c) for c in a]
        b = [c.to_complex() for c in b]
    cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
    if tl.exact:
        if all(c.is_zero() for c in cross):
            return None
        return ProjPoint.from_exact(cross)
    if max(abs(c) for c in cross) < 1e-12:
        return None
    return ProjPoint.from_numeric(cross)


def _check_quadric_condition(quadric: PlaneCurve, tline: TangentLine,
                             other_point: ProjPoint):
    """Violation record if the quadric meets the line exactly at the two
    contact points (which must be distinct)."""
    p, q = tline.point, other_point
    if p.same_as(q):
        return None
    exact = p.exact and q.exact and tline.exact
    if _vanishes(quadric.poly, p.coords, exact, 1e-10) and \
            _vanishes(quadric.poly, q.coords, exact, 1e-10):
        return {"line": tline.to_json(), "P": p.to_json(), "Q": q.to_json(),
                "exact": exact}
    return None
