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
agree to 1e-12 are matched.  A point or line is exact when every coordinate
is a CRat, as the one predicate ``_exact`` reads off the data.  A numeric
tangent line is accepted when every minor is below the absolute bound
``1e-10 (1 + |lam| + |mu|)^8`` in its chart coordinates.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

from . import Frozen, Record, Value
from .polys import (ROOT_DPS, MPoly, Poly, biv_gcd, exact_roots, mp_roots,
                    poly_gcd, resultant_bivariate, squarefree_decomposition)
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
SAME_TOL = 1e-9         # how far numeric points or lines may differ


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
    """Projective point: a CRat triple when exact, else a complex triple."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple):
        object.__setattr__(self, "coords", coords)

    @property
    def exact(self) -> bool:
        return _exact(self.coords)

    def _key(self):
        return self.coords

    @classmethod
    def of(cls, cs):
        """cs scaled: exact to a first nonzero entry 1, else complex to a
        largest modulus 1."""
        cs = tuple(cs)
        if _exact(cs):
            for c in cs:
                if not c.is_zero():
                    inv = c.inverse()
                    return cls(tuple(x * inv for x in cs))
        else:
            cs = tuple(complex(c) for c in cs)
            mx = max(abs(c) for c in cs)
            if mx != 0:
                return cls(tuple(c / mx for c in cs))
        raise ValueError("zero vector is not a projective point")

    def same_as(self, other: "ProjPoint") -> bool:
        return _proportional(self.coords, other.coords)

    def to_json(self):
        return {"exact": self.exact, "coords": _triple_json(self.coords)}

    def __repr__(self):
        form = str if self.exact else "{:.6g}".format
        return "(" + " : ".join(map(form, self.coords)) + ")"


def _exact(values) -> bool:
    """Are all values exact scalars, so that they compute exactly?"""
    return all(isinstance(c, CRat) for c in values)


def _triple_json(cs):
    return ([c.to_json() for c in cs] if _exact(cs)
            else [[c.real, c.imag] for c in cs])


def _cross(a, b):
    """a x b: its entries are the 2x2 minors a_i b_j - a_j b_i of (a, b)."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _proportional(a, b, scaled: bool = False):
    """Do the triples a and b span the same projective point?

    Two exact triples compare exactly.  Otherwise every 2x2 minor a_i b_j -
    a_j b_i must be at most SAME_TOL in modulus, or at most
    SAME_TOL * max|a_i| * max|b_i| when scaled.
    """
    if _exact(a) and _exact(b):
        return all(c.is_zero() for c in _cross(a, b))
    a, b = [complex(c) for c in a], [complex(c) for c in b]
    tol = SAME_TOL
    if scaled:
        tol = tol * max(abs(x) for x in a) * max(abs(x) for x in b)
    return not any(abs(c) > tol for c in _cross(a, b))


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
        out.append((ProjPoint.of(_apply_matrix(matrix, (u, vs[0], CRat(1)))),
                    mult))
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
    if not _exact(y):
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
    r1 = mp_roots(_poly_at_numeric(a1, alpha))
    r2 = mp_roots(_poly_at_numeric(a2, alpha))
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
    with mp.workdps(ROOT_DPS):
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
    return any(_vanishes(witness, (u, v), 1e-10)
               for u, vs, _ in _common_zeros(f, g, eliminant) for v in vs)


def _vanishes(poly: MPoly, coords, tol: float) -> bool:
    """Is poly zero at coords: exactly when they are exact, or else below tol
    in modulus with coords and coefficients taken as complex numbers?"""
    if _exact(coords):
        return poly.eval(coords).is_zero()
    return abs(poly.eval([complex(c) for c in coords], CRat.to_complex)) < tol


# ---------------------------------------------------------------------------
# normal crossings
# ---------------------------------------------------------------------------

class CrossingsReport(Record):
    __slots__ = ("passed", "smooth", "pairwise", "triple_points")
    JSON_NAMES = {"passed": "pass"}


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
               if _vanishes(conf.curves[2].poly, pt.coords, 1e-9)]
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


class CaseVerdict(Record):
    # verdict: "impossible" | "survivor"
    __slots__ = ("d0", "pattern", "tangency", "verdict", "certificate")


def two_puncture_case_engine(degrees, d0_max: int):
    """Enumerate every two-puncture meeting pattern up to degree d0_max.

    Patterns: the curve A meets the configuration in exactly two points P, Q;
    P sits on two components.  Either Q sits on the remaining component only,
    or Q sits on a second crossing sharing one component with P.  Transversal
    single-point meetings force m = d_component * d0; a two-point transversal
    split on the shared component forces m_P + m_Q = d_shared * d0, and only
    a split can fit the multiplicity window and survive.
    """
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) != 3 or min(degrees) < 2 or max(degrees) < 3:
        raise PlaneConfError(
            "engine expects three degrees, all >= 2 with at least one >= 3")
    if d0_max < 1:
        raise PlaneConfError(f"d0_max must be >= 1, got {d0_max}")
    verdicts = []

    def forced(d0, pattern, tag, equation, m, **fields):
        # a component of degree d meeting A transversally at one point alone
        # forces m = d * d0 >= 2 d0 there (every degree is >= 2), which fits
        # neither the window's m < d0 nor its exception d0 = m = 1
        verdicts.append(CaseVerdict(d0, pattern, tag, "impossible", {
            "equation": f"{equation} = {m}",
            "eq_star_holds": eq_star(d0, m, 1), **fields}))

    for d0 in range(1, d0_max + 1):
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            pattern = f"P in C{i + 1} and C{j + 1}; Q in C{k + 1} only"
            # at a normal crossing A is tangent to at most one branch, so at
            # least one of C_i, C_j (C_c) meets A transversally, entirely at P
            for tag, c in (("A transversal at P", i),
                           (f"A tangent to C{i + 1} at P", j),
                           (f"A tangent to C{j + 1} at P", i)):
                m = degrees[c] * d0
                forced(d0, pattern, tag,
                       f"m_P = I(P, A.C{c + 1}) = {degrees[c]}*{d0}", m,
                       fulton_with_mQ_1=fulton_bound(d0, m, 1), m_P=m,
                       m_Q_free=True)
        for shared in (0, 1, 2):
            i, k = (x for x in (0, 1, 2) if x != shared)
            pattern = (f"P in C{i + 1} and C{shared + 1}; "
                       f"Q in C{shared + 1} and C{k + 1}")
            for tang_i, tang_k in product((False, True), repeat=2):
                tag = (f"tangent to C{i + 1} at P: {tang_i}; "
                       f"tangent to C{k + 1} at Q: {tang_k}")
                if not (tang_i and tang_k):
                    # C_i transversal meets A at P alone, else C_k at Q alone
                    side, c = ("Q", k) if tang_i else ("P", i)
                    m = degrees[c] * d0
                    forced(d0, pattern, tag, f"m_{side} = {degrees[c]}*{d0}",
                           m, **{f"m_{side}": m})
                    continue
                # tangent to both outer components: the shared component is
                # transversal at P and Q, so m_P + m_Q = d_shared * d0
                ds = degrees[shared]
                split = ds * d0
                solutions = [(mp_, split - mp_) for mp_ in range(1, split)
                             if eq_star(d0, mp_, split - mp_)]
                cert = {"equation": f"m_P + m_Q = {ds}*{d0} = {split}",
                        "window_solutions": solutions}
                cert.update({"shared_degree": ds} if solutions else
                            {"reason": "no multiplicity split satisfies "
                                       "the window"})
                verdicts.append(CaseVerdict(
                    d0, pattern, tag,
                    "survivor" if solutions else "impossible", cert))
    return verdicts


def surviving_cases(verdicts):
    return [v for v in verdicts if v.verdict == "survivor"]


# ---------------------------------------------------------------------------
# total tangent lines and the quadric exclusion
# ---------------------------------------------------------------------------

class TangentLine(Frozen):
    __slots__ = ("dual", "point")

    def __init__(self, dual: tuple, point: ProjPoint):
        # dual: the line's coefficients; point: the single contact point
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "point", point)

    @property
    def exact(self) -> bool:
        return _exact(self.dual)

    def same_line(self, other: "TangentLine") -> bool:
        return _proportional(self.dual, other.dual, scaled=True)

    def to_json(self):
        return {"dual": _triple_json(self.dual), "exact": self.exact,
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
    are kept as numeric lines).  On a conic every tangent line is a
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
        for lam0, mu0 in _solve_rank_one(minors):
            tl = _build_tangent_line(curve, dual_of, points_of, lam0, mu0)
            if tl is not None and not any(tl.same_line(t) for t in found):
                found.append(tl)
    return found


def _solve_rank_one(minors):
    """Common zeros (lam, mu) of the minors, exact-first, fully verified."""
    for g1, g2 in combinations(minors, 2):
        res = resultant_bivariate(g1, g2, elim=1)
        if res.is_zero():
            continue
        sols = []
        for lam0, mus, _ in _common_zeros(g1, g2, res):
            for mu0 in mus:
                pt, tol = (lam0, mu0), 0.0
                if not _exact(pt):
                    pt = (complex(lam0), complex(mu0))
                    tol = 1e-10 * (1.0 + abs(pt[0]) + abs(pt[1])) ** 8
                if all(_vanishes(m, pt, tol) for m in minors):
                    sols.append(pt)
        return sols
    raise PlaneConfError("rank-one system degenerate in every direction")


def _build_tangent_line(curve, dual_of, points_of, lam, mu):
    """The line at chart parameters (lam, mu) with its contact point, or
    None when the curve restricts to zero or to no perfect power on it."""
    exact = _exact((lam, mu))
    if exact:
        vec, lift, zero, one = tuple, (lambda c: c), CRat(0), CRat(1)
    else:
        def vec(entries):
            # the chart entries are 0, 1, +-lam or +-mu, so exact; + 0j
            # turns the -0.0 parts that negation leaves into 0.0
            return tuple(complex(c) + 0j for c in entries)

        lift, zero, one = CRat.to_complex, 0.0, 1.0
    dual = vec(dual_of(lam, mu))
    p1, p2 = (vec(p) for p in points_of(lam, mu))
    d = curve.degree
    avec = _restrict_to_line(curve.poly, p1, p2, lift)
    bq = [avec[q] / _BINOM[d][q] for q in range(d + 1)]
    if all(b == 0 for b in bq):
        return None  # line inside the curve: not a tangent line
    if exact:
        small = [b.is_zero() for b in bq]
    else:
        tiny = 1e-18 * max(abs(b) for b in bq)
        small = [abs(b) < tiny for b in bq]
    if all(small[:-1]):
        s, t = zero, one
    elif small[0]:
        return None  # not a perfect power (rank check failed)
    else:
        s, t = one, -(bq[1] / bq[0])
    pt = tuple(s * a + t * b for a, b in zip(p1, p2))
    try:
        point = ProjPoint.of(pt)
    except ValueError:
        return None
    return TangentLine(dual, point)


class ExclusionReport(Record):
    __slots__ = ("vacuous", "passed", "candidates", "violations", "notes")
    JSON_NAMES = {"passed": "pass"}


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
    # candidates: (line, its contact point with the other component)
    if len(heavy) == 2:
        candidates = [(t1, t2.point) for t1 in tangent_sets[0]
                      for t2 in tangent_sets[1] if t1.same_line(t2)]
    else:
        # one line component: every total tangent of the heavy component
        # meets the line component once automatically
        candidates = []
        for t1 in tangent_sets[0]:
            other_pt = _line_line_meet(t1, line_curves[0])
            if other_pt is None:
                notes.append("candidate equals the line component: skipped")
            else:
                candidates.append((t1, other_pt))
    violations = [v for v in (_check_quadric_condition(quadric, t, q)
                              for t, q in candidates) if v is not None]
    return ExclusionReport(False, not violations, len(candidates), violations,
                           notes)


def _line_line_meet(tl: TangentLine, line_curve: PlaneCurve):
    b = [CRat(0)] * 3
    for e, c in line_curve.poly.terms.items():
        b[e.index(1)] = c
    a = tl.dual
    if not tl.exact:
        a, b = [complex(c) for c in a], [complex(c) for c in b]
    cross = _cross(a, b)
    if all(c.is_zero() for c in cross) if tl.exact \
            else max(abs(c) for c in cross) < 1e-12:
        return None
    return ProjPoint.of(cross)


def _check_quadric_condition(quadric: PlaneCurve, tline: TangentLine,
                             other_point: ProjPoint):
    """Violation record if the quadric meets the line exactly at the two
    contact points (which must be distinct)."""
    p, q = tline.point, other_point
    if p.same_as(q):
        return None
    # both points are tested numerically unless they and the line are exact
    exact = p.exact and q.exact and tline.exact
    tests = [x.coords if exact else [complex(c) for c in x.coords]
             for x in (p, q)]
    if all(_vanishes(quadric.poly, coords, 1e-10) for coords in tests):
        return {"line": tline.to_json(), "P": p.to_json(), "Q": q.to_json(),
                "exact": exact}
    return None
