"""Exact polynomial arithmetic over the scalar types.

``Poly`` is a univariate polynomial with ascending coefficient tuple; the
zero polynomial is the empty tuple.  ``MPoly`` is a sparse multivariate
polynomial (monomial-exponent dict).  Both are generic over the scalars in
:mod:`curvecomp.scalars` and never ask which one they hold.  A scalar must
provide ``+ - *`` and unary ``-`` (also with ``int`` and ``Fraction``),
``inverse()``, ``is_zero()``, ``zero()`` and ``one()`` of its own field,
``to_complex()``, ``==``, ``hash`` and ``sort_key()``.  Plain ``int`` and
``Fraction`` inputs are read as ``CRat``.

Evaluation is one routine per class, generic over the ring of the point:
``Poly.eval`` (Horner) and ``MPoly.eval`` (a sum over the terms) take a
``lift`` that maps an exact coefficient into that ring, so the same code
evaluates at exact scalars, at complex or mpmath numbers, and substitutes
MPoly, Poly or ExpPoly values.  A Poly caches its complex coefficients for
the compiled ExpPoly kernel, which evaluates them with the float operations
of ``Poly.eval(z, complex)``.

The heavier tools live at the bottom: univariate gcd and squarefree
decomposition, one Gaussian elimination behind ``det_field`` and
``rank_field``, Sylvester resultants (scalar and one-variable-eliminated via
evaluation/interpolation), bivariate gcd by a primitive remainder sequence
on K[y][x] read as a ``Poly`` over ``Poly``, and reduced bivariate rational
functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from . import Frozen
from .scalars import SCALAR_TYPES, CRat, power

# what Poly, MPoly and RatFunc multiply by as a scalar
_SCALAR_LIKE = SCALAR_TYPES + (int, Fraction)


def as_crat(x) -> CRat:
    if isinstance(x, CRat):
        return x
    if isinstance(x, (int, Fraction)):
        return CRat(x)
    raise TypeError(f"cannot interpret {x!r} as an exact complex rational")


class Poly(Frozen):
    """Univariate polynomial, ascending coefficients, trimmed.

    The coefficients may be Polys in y themselves (K[y][x]); ``*`` is then
    the product in x, and a coefficient is applied by scale().
    """

    __slots__ = ("coeffs", "_num")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, _COEFF_TYPES) else as_crat(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_num", None)

    # -- basics ---------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant(self):
        return self.coeffs[0] if self.coeffs else CRat(0)

    def zero(self) -> "Poly":
        return Poly()

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def sort_key(self):
        return (len(self.coeffs), tuple(c.sort_key() for c in self.coeffs))

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _SCALAR_LIKE):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                p = a * b
                out[i + j] = p if out[i + j] is None else out[i + j] + p
        zero = self.coeffs[0].zero()
        return Poly([zero if c is None else c for c in out])

    __rmul__ = __mul__

    def scale(self, s):
        if isinstance(s, (int, Fraction)):
            s = CRat(s)
        return Poly([c * s for c in self.coeffs])

    def __pow__(self, k: int):
        return power(self, k, Poly([1]))

    def derivative(self) -> "Poly":
        return Poly([c * k for k, c in enumerate(self.coeffs)][1:])

    def drop_constant(self) -> "Poly":
        if not self.coeffs:
            return self
        zero = self.coeffs[0].zero()
        return Poly((zero,) + self.coeffs[1:])

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = other.lead().inverse()
        q = [None] * max(0, len(rem) - db)
        for k in range(len(rem) - db - 1, -1, -1):
            c = rem[k + db] * inv_lead
            q[k] = c
            if not c.is_zero():
                for j, bj in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * bj
        zero = other.lead().zero()
        q = [zero if c is None else c for c in q]
        return Poly(q), Poly(rem[:db])

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("non-exact polynomial division")
        return q

    def pseudo_rem(self, g: "Poly") -> "Poly":
        """Pseudo-remainder by a nonzero g, without division: each step
        takes f to lead(g) f - lead(f) x^(deg f - deg g) g."""
        f = list(self.coeffs)
        dg, lg = g.degree, g.lead()
        while len(f) - 1 >= dg:
            df, lf = len(f) - 1, f[-1]
            f = [c * lg for c in f]
            for j, gj in enumerate(g.coeffs):
                f[df - dg + j] = f[df - dg + j] - gj * lf
            while f and f[-1].is_zero():
                f.pop()
        return Poly(f)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.lead().inverse()
        return Poly([c * inv for c in self.coeffs])

    # -- evaluation --------------------------------------------------------
    def eval(self, x, lift=None):
        """The value at x by Horner's rule, in the ring of x.

        lift maps an exact coefficient into that ring; None keeps it as it
        is (x an exact scalar).  A Poly x gives the composition p(x).
        """
        cs = self.coeffs if lift is None else [lift(c) for c in self.coeffs]
        if not cs:
            return x.zero() if lift is None else lift(CRat(0))
        out = cs[-1]
        for c in reversed(cs[:-1]):
            out = out * x + c
        return out

    def _numeric(self):
        if self._num is None:
            object.__setattr__(self, "_num",
                               tuple(c.to_complex() for c in self.coeffs))
        return self._num

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    @classmethod
    def from_json(cls, data):
        return cls([CRat.from_json(q) for q in data])

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{k}")
        return "Poly[" + " + ".join(parts) + "]"


_COEFF_TYPES = SCALAR_TYPES + (Poly,)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the coefficient field."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


def poly_gcd_many(ps) -> Poly:
    ps = [p for p in ps if not p.is_zero()]
    if not ps:
        return Poly()
    return reduce(poly_gcd, ps)


def squarefree_decomposition(p: Poly):
    """Yun's algorithm; returns [(factor, multiplicity)] with factors monic."""
    if p.degree < 1:
        return []
    p = p.monic()
    dp = p.derivative()
    a = poly_gcd(p, dp)
    out = []
    b, c = p.exact_div(a), dp.exact_div(a)
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = poly_gcd(b, d)
        if g.is_zero():
            g = Poly([1])
        if g.degree > 0:
            out.append((g, i))
        b = b.exact_div(g)
        c = d.exact_div(g)
        i += 1
    return out


# ---------------------------------------------------------------------------
# determinants and resultants
# ---------------------------------------------------------------------------

def _pivots(rows):
    """Gaussian elimination of a copy of rows, over a field.

    Yields (pivot, swapped) column by column, pivot None for a column with
    no pivot left.  A column is cleared below its pivot only when the next
    one is asked for, so a caller that stops early does no more work.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    top = 0
    for col in range(ncols):
        piv = None
        for r in range(top, len(m)):
            if not m[r][col].is_zero():
                piv = r
                break
        if piv is None:
            yield None, False
            continue
        m[top], m[piv] = m[piv], m[top]
        yield m[top][col], piv != top
        inv = m[top][col].inverse()
        for r in range(top + 1, len(m)):
            f = m[r][col] * inv
            if not f.is_zero():
                for c in range(col, ncols):
                    m[r][c] = m[r][c] - f * m[top][c]
        top += 1


def det_field(rows):
    """Exact determinant by Gaussian elimination (any field scalar)."""
    if not rows:
        raise ValueError("empty matrix")
    det, sign = rows[0][0].one(), 1
    for pv, swapped in _pivots(rows):
        if pv is None:
            return det.zero()
        sign = -sign if swapped else sign
        det = det * pv
    return det if sign > 0 else -det


def rank_field(rows) -> int:
    """Exact rank by Gaussian elimination (any field scalar)."""
    return sum(pv is not None for pv, _ in _pivots(rows))


def sylvester_det(fc, gc):
    """Resultant from nominal coefficient lists (ascending, padded)."""
    df, dg = len(fc) - 1, len(gc) - 1
    if df < 0 or dg < 0:
        raise ValueError("zero polynomial in resultant")
    if df == 0 and dg == 0:
        return fc[0].one()
    n = df + dg
    zero = fc[0].zero()
    rows = []
    frow = list(reversed(fc))
    grow = list(reversed(gc))
    for k in range(dg):
        rows.append([zero] * k + frow + [zero] * (n - df - 1 - k))
    for k in range(df):
        rows.append([zero] * k + grow + [zero] * (n - dg - 1 - k))
    return det_field(rows)


def resultant_univariate(f: Poly, g: Poly):
    if f.is_zero() or g.is_zero():
        return CRat(0)
    return sylvester_det(list(f.coeffs), list(g.coeffs))


def lagrange_interpolate(points) -> Poly:
    """Exact interpolant through [(x_i, y_i)] with distinct field nodes.

    Newton form: the divided differences c_k = f[x_0, ..., x_k] take
    O(n^2) field operations, and Horner's rule on
    c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)) expands them into
    ascending coefficients in O(n^2) more.  The interpolant of degree < n
    is unique, so the coefficients are exactly those of the Lagrange form.
    """
    if not points:
        return Poly()
    xs = [x for x, _ in points]
    cs = [y for _, y in points]
    n = len(xs)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) * (xs[i] - xs[i - k]).inverse()
    out = Poly([cs[-1]])
    for k in range(n - 2, -1, -1):
        out = out * Poly([-xs[k], 1]) + Poly([cs[k]])
    return out


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MPoly(Frozen):
    """Sparse multivariate polynomial: {exponent tuple: scalar}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        t = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                e = tuple(int(x) for x in e)
                if len(e) != nvars:
                    raise ValueError("exponent arity mismatch")
                c = c if isinstance(c, SCALAR_TYPES) else as_crat(c)
                if e in t:
                    c = t[e] + c
                if c.is_zero():
                    t.pop(e, None)
                else:
                    t[e] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", t)

    @classmethod
    def monomial(cls, nvars, expo, coeff=1):
        return cls(nvars, [(tuple(expo), coeff)])

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def iter_sorted(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(
            (e, c.sort_key()) for e, c in self.terms.items()))))

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            if e in t:
                s = t[e] + c
                if s.is_zero():
                    del t[e]
                else:
                    t[e] = s
            else:
                t[e] = c
        out = MPoly.__new__(MPoly)
        object.__setattr__(out, "nvars", self.nvars)
        object.__setattr__(out, "terms", t)
        return out

    def __neg__(self):
        out = MPoly.__new__(MPoly)
        object.__setattr__(out, "nvars", self.nvars)
        object.__setattr__(out, "terms", {e: -c for e, c in self.terms.items()})
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _SCALAR_LIKE):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = c1 * c2
                if e in t:
                    p = t[e] + p
                if p.is_zero():
                    t.pop(e, None)
                else:
                    t[e] = p
        out = MPoly.__new__(MPoly)
        object.__setattr__(out, "nvars", self.nvars)
        object.__setattr__(out, "terms", t)
        return out

    __rmul__ = __mul__

    def scale(self, s):
        if isinstance(s, (int, Fraction)):
            s = CRat(s)
        if s.is_zero():
            return MPoly(self.nvars)
        out = MPoly.__new__(MPoly)
        object.__setattr__(out, "nvars", self.nvars)
        object.__setattr__(out, "terms", {e: c * s for e, c in self.terms.items()})
        return out

    def __pow__(self, k: int):
        return power(self, k, MPoly.monomial(self.nvars, (0,) * self.nvars, 1))

    def partial(self, var: int) -> "MPoly":
        t = []
        for e, c in self.terms.items():
            if e[var]:
                e2 = list(e)
                e2[var] -= 1
                t.append((tuple(e2), c * e[var]))
        return MPoly(self.nvars, t)

    def eval(self, point, lift=None):
        """The value at point, the sum over the terms of lift(c) * x^e.

        The entries of point may lie in any ring with + and * and integer
        powers: exact scalars, complex or mpmath numbers, MPoly or ExpPoly
        values.  lift maps an exact coefficient into that ring; None keeps
        it as it is (an exact point).  Terms are summed in dict order.
        """
        out = None
        for e, c in self.terms.items():
            v = c if lift is None else lift(c)
            for x, k in zip(point, e):
                if k:
                    v = v * x ** k
            out = v if out is None else out + v
        if out is None:
            if lift is not None:
                return lift(CRat(0))
            return point[0].zero() if point else CRat(0)
        return out

    def substitute_value(self, var: int, value) -> "MPoly":
        """Plug an exact scalar into one variable (arity drops by one)."""
        t = {}
        for e, c in self.terms.items():
            v = c * (value ** e[var]) if e[var] else c
            e2 = e[:var] + e[var + 1:]
            if e2 in t:
                v = t[e2] + v
            if v.is_zero():
                t.pop(e2, None)
            else:
                t[e2] = v
        return MPoly(self.nvars - 1, t)

    def substitute_linear(self, matrix) -> "MPoly":
        """x_i -> sum_j matrix[i][j] * y_j, matrix of exact scalars."""
        n = self.nvars
        lin = [MPoly(n, [((0,) * j + (1,) + (0,) * (n - j - 1), matrix[i][j])
                         for j in range(n)])
               for i in range(n)]
        return self.eval(lin, lambda c: MPoly.monomial(n, (0,) * n, c))

    def as_univariate(self, var: int):
        """Coefficient list (ascending in `var`) of MPolys in the other vars."""
        d = self.degree_in(var)
        out = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            e2 = e[:var] + e[var + 1:]
            out[e[var]][e2] = c
        return [MPoly(self.nvars - 1, t) for t in out]

    def to_poly(self) -> Poly:
        if self.nvars != 1:
            raise ValueError("to_poly needs a univariate MPoly")
        zero = next(iter(self.terms.values()), CRat(0)).zero()
        cs = [zero] * (self.degree_in(0) + 1)
        for (e,), c in self.terms.items():
            cs[e] = c
        return Poly(cs)

    def to_json(self):
        return [{"exponents": list(e), "coeff": c.to_json()}
                for e, c in self.iter_sorted()]

    @classmethod
    def from_json(cls, nvars, data):
        for m in data:
            if any(int(k) < 0 for k in m["exponents"]):
                raise ValueError(f"negative exponent in monomial "
                                 f"{list(m['exponents'])}")
        return cls(nvars, [(tuple(m["exponents"]), CRat.from_json(m["coeff"]))
                           for m in data])

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = [f"({c})*x^{list(e)}" for e, c in self.iter_sorted()]
        return "MPoly[" + " + ".join(bits) + "]"


# ---------------------------------------------------------------------------
# bivariate gcd (primitive remainder sequence) and rational functions
# ---------------------------------------------------------------------------

def _from_biv(p: MPoly) -> Poly:
    """Nonzero bivariate MPoly -> K[y][x], a Poly in x over Polys in y."""
    zero = next(iter(p.terms.values())).zero()
    rows = [{} for _ in range(p.degree_in(0) + 1)]
    for (i, j), c in p.terms.items():
        rows[i][j] = c
    return Poly([Poly([r.get(j, zero) for j in range(max(r, default=-1) + 1)])
                 for r in rows])


def _to_biv(f: Poly) -> MPoly:
    """K[y][x] -> bivariate MPoly."""
    return MPoly(2, [((i, j), c) for i, p in enumerate(f.coeffs)
                     for j, c in enumerate(p.coeffs) if not c.is_zero()])


def _primitive(f: Poly):
    """(primitive part, content) of a nonzero f in K[y][x]."""
    cont = poly_gcd_many(f.coeffs)
    return Poly([p.exact_div(cont) for p in f.coeffs]), cont


def biv_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Gcd of bivariate polynomials over a field, canonically normalized."""
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        fa, ca = _primitive(_from_biv(a))
        fb, cb = _primitive(_from_biv(b))
        if fa.degree < fb.degree:
            fa, fb = fb, fa
        while True:
            r = fa.pseudo_rem(fb)
            if r.is_zero():
                g = fb
                break
            if r.degree == 0:
                # nonzero remainder of x-degree 0: primitive parts are coprime
                g = Poly([Poly([1])])
                break
            fa, fb = fb, _primitive(r)[0]
        # g is primitive already: the last divisor fb, or 1
        g = _to_biv(g.scale(poly_gcd(ca, cb)))
    if g.is_zero():
        return g
    # canonical: leading (lex-largest) coefficient one
    lead = g.terms[max(g.terms)]
    return g.scale(lead.inverse())


def biv_exact_div(a: MPoly, b: MPoly) -> MPoly:
    """Exact division of bivariate polynomials (raises if not divisible)."""
    if a.is_zero():
        return a
    if b.is_zero():
        raise ZeroDivisionError
    f, g = list(_from_biv(a).coeffs), _from_biv(b)
    dg, lg = g.degree, g.lead()
    out = [Poly()] * (len(f) - dg)
    while len(f) > dg:
        k = len(f) - 1 - dg
        out[k], r = f[-1].divmod(lg)
        if not r.is_zero():
            break
        for j, gj in enumerate(g.coeffs):
            f[k + j] = f[k + j] - gj * out[k]
        while f and f[-1].is_zero():
            f.pop()
    if f:
        raise ArithmeticError("non-exact bivariate division")
    return _to_biv(Poly(out))


class RatFunc(Frozen):
    """Reduced bivariate rational function num/den."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly = None, reduce_now=True):
        if den is None:
            den = MPoly.monomial(num.nvars, (0,) * num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce_now and not num.is_zero():
            g = biv_gcd(num, den)
            if g.total_degree() > 0:
                num = biv_exact_div(num, g)
                den = biv_exact_div(den, g)
        if num.is_zero():
            den = MPoly.monomial(num.nvars, (0,) * num.nvars, 1)
        # canonical: lex-leading denominator coefficient 1
        lead = den.terms[max(den.terms)]
        if lead != lead.one():
            inv = lead.inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def zero(cls):
        return cls(MPoly(2))

    @classmethod
    def const(cls, c):
        return cls(MPoly.monomial(2, (0, 0), c))

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce_now=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _SCALAR_LIKE):
            return RatFunc(self.num.scale(other), self.den, reduce_now=False)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data):
        return cls(MPoly.from_json(2, data["num"]),
                   MPoly.from_json(2, data.get("den", [{"exponents": [0, 0],
                                                        "coeff": [1, 1, 0, 1]}])))

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"


# ---------------------------------------------------------------------------
# resultant of bivariate polynomials via evaluation / interpolation
# ---------------------------------------------------------------------------

def resultant_bivariate(f: MPoly, g: MPoly, elim: int) -> Poly:
    """Resultant eliminating variable `elim`; returns Poly in the other one.

    Works by specializing the kept variable at the integer nodes
    0, 1, -1, 2, -2, ... (one more than the degree bound), taking exact
    Sylvester determinants with the *nominal* degrees, and interpolating
    the values by :func:`lagrange_interpolate` (Newton form, O(n^2) field
    operations in the node count).  Exact throughout.
    """
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError("resultant_bivariate needs bivariate input")
    keep = 1 - elim
    df, dg = f.degree_in(elim), g.degree_in(elim)
    if df < 0 or dg < 0:
        return Poly()
    bound = df * g.degree_in(keep) + dg * f.degree_in(keep)
    fc = f.as_univariate(elim)
    gc = g.as_univariate(elim)
    nodes = []
    k = 0
    while len(nodes) < bound + 1:
        nodes.append(CRat(k))
        if k > 0 and len(nodes) < bound + 1:
            nodes.append(CRat(-k))
        k += 1
    pts = []
    for u in nodes:
        fu = [c.eval([u]) for c in fc]
        gu = [c.eval([u]) for c in gc]
        pts.append((u, sylvester_det(fu, gu)))
    return lagrange_interpolate(pts)


# ---------------------------------------------------------------------------
# numeric root finding with exact snapping
# ---------------------------------------------------------------------------

ROOT_DPS = 50            # decimal digits of every numeric root
SNAP_DEN = 10 ** 9       # largest denominator a root is snapped to


def poly_roots_numeric(p: Poly):
    """ROOT_DPS-digit roots of a (preferably squarefree) polynomial."""
    import mpmath as mp
    with mp.workdps(ROOT_DPS):
        return mp_roots([mp.mpc(str(c.re), str(c.im))
                         for c in reversed(p.coeffs)])


def mp_roots(cs):
    """ROOT_DPS-digit roots of the polynomial whose mpmath coefficients cs
    run from the highest degree down."""
    if len(cs) < 2:
        return []
    import mpmath as mp
    with mp.workdps(ROOT_DPS):
        return list(mp.polyroots(cs, maxsteps=200, extraprec=120))


def _binary_fraction(x) -> Fraction:
    """The exact value of a float or a finite mpmath real."""
    import mpmath as mp
    if not isinstance(x, mp.mpf):
        return Fraction(x)
    if not mp.isfinite(x):
        raise ValueError(f"cannot snap the non-finite value {x}")
    man, exp = x.man_exp          # man is |mantissa|; the sign is apart
    if x < 0:
        man = -man
    return Fraction(man * 2 ** exp) if exp >= 0 else Fraction(man, 2 ** -exp)


def snap_to_crat(z) -> CRat:
    """Nearest Gaussian rational with denominators up to SNAP_DEN (no
    verification here).

    Snaps from the exact binary value of z, so the full working precision
    of an mpmath root is used, not just its nearest float.
    """
    re = _binary_fraction(z.real if hasattr(z, "real") else z)
    im = _binary_fraction(z.imag if hasattr(z, "imag") else 0.0)
    return CRat(re.limit_denominator(SNAP_DEN), im.limit_denominator(SNAP_DEN))


def exact_roots(p: Poly):
    """Split roots of p into exact CRat roots and residual numeric ones.

    Returns (exact: list[CRat], numeric: list[mpmath.mpc]); exact roots are
    verified by substitution and deflated before the numeric pass.
    """
    exact = []
    q = p
    progress = True
    while progress and q.degree >= 1:
        progress = False
        for z in poly_roots_numeric(q):
            cand = snap_to_crat(z)
            if q.eval(cand).is_zero():
                exact.append(cand)
                q = q.exact_div(Poly([-cand, CRat(1)]))
                progress = True
                break
    numeric = poly_roots_numeric(q) if q.degree >= 1 else []
    return exact, numeric
