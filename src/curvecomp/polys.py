"""Exact polynomial arithmetic over the scalar types.

``Poly`` is a univariate polynomial with ascending coefficient tuple; the
zero polynomial is the empty tuple.  ``MPoly`` is a sparse multivariate
polynomial (monomial-exponent dict).  Both are generic over the scalars in
:mod:`curvecomp.scalars` and never ask which one they hold.  A scalar must
provide ``+ - *`` and unary ``-`` (also with ``int`` and ``Fraction``),
``inverse()``, ``is_zero()``, ``zero()`` and ``one()`` of its own field,
``to_complex()``, ``==``, ``hash`` and ``sort_key()``.  Plain ``int`` and
``Fraction`` inputs are read as ``CRat``.

The heavier tools live at the bottom: univariate gcd and squarefree
decomposition, Sylvester resultants (scalar and one-variable-eliminated via
evaluation/interpolation), bivariate gcd by a primitive remainder sequence,
and reduced bivariate rational functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

import mpmath as mp

from .scalars import SCALAR_TYPES, CRat, power

# what Poly, MPoly and RatFunc multiply by as a scalar
_SCALAR_LIKE = SCALAR_TYPES + (int, Fraction)


def as_crat(x) -> CRat:
    if isinstance(x, CRat):
        return x
    if isinstance(x, (int, Fraction)):
        return CRat(x)
    raise TypeError(f"cannot interpret {x!r} as an exact complex rational")


class Poly:
    """Univariate polynomial, ascending coefficients, trimmed."""

    __slots__ = ("coeffs", "_num")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, SCALAR_TYPES) else as_crat(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_num", None)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- basics ---------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant(self):
        return self.coeffs[0] if self.coeffs else CRat(0)

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

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.lead().inverse()
        return Poly([c * inv for c in self.coeffs])

    def compose(self, other: "Poly") -> "Poly":
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * other + Poly([c])
        return out

    # -- evaluation --------------------------------------------------------
    def eval_exact(self, x):
        if not self.coeffs:
            return x.zero()
        out = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            out = out * x + c
        return out

    def _numeric(self):
        if self._num is None:
            object.__setattr__(self, "_num",
                               tuple(c.to_complex() for c in self.coeffs))
        return self._num

    def eval_complex(self, z: complex) -> complex:
        cs = self._numeric()
        if not cs:
            return 0j
        out = cs[-1]
        for c in reversed(cs[:-1]):
            out = out * z + c
        return out

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

def det_field(rows):
    """Exact determinant by Gaussian elimination (any field scalar)."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    m = [list(r) for r in rows]
    one = m[0][0].one()
    det = one
    sign = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not m[r][col].is_zero():
                piv = r
                break
        if piv is None:
            return one.zero()
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pv = m[col][col]
        det = det * pv
        inv = pv.inverse()
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f.is_zero():
                continue
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return det if sign > 0 else -det


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
    out = [cs[-1]]
    for k in range(n - 2, -1, -1):
        xk = xs[k]
        # out <- out * (x - x_k) + c_k
        nxt = out + [out[-1]]
        for i in range(len(out) - 1, 0, -1):
            nxt[i] = out[i - 1] - xk * out[i]
        nxt[0] = cs[k] - xk * out[0]
        out = nxt
    return Poly(out)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MPoly:
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

    def __setattr__(self, *a):
        raise AttributeError("MPoly is immutable")

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

    def eval_exact(self, point):
        out = None
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * (x ** k)
            out = v if out is None else out + v
        if out is None:
            return point[0].zero() if point else CRat(0)
        return out

    def eval_complex(self, point) -> complex:
        out = 0j
        for e, c in self.terms.items():
            v = c.to_complex()
            for x, k in zip(point, e):
                if k:
                    v *= x ** k
            out += v
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
        lin = [MPoly(self.nvars, [((0,) * j + (1,) + (0,) * (self.nvars - j - 1),
                                   matrix[i][j])
                                  for j in range(self.nvars)])
               for i in range(self.nvars)]
        out = MPoly(self.nvars)
        for e, c in self.terms.items():
            m = MPoly.monomial(self.nvars, (0,) * self.nvars, c)
            for i, k in enumerate(e):
                if k:
                    m = m * lin[i] ** k
            out = out + m
        return out

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
        d = self.degree_in(0)
        cs = [CRat(0)] * (d + 1)
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

def _biv_rec(p: MPoly):
    """Bivariate MPoly -> list over x-degree of univariate-in-y Poly."""
    d = p.degree_in(0)
    out = [dict() for _ in range(d + 1)]
    zero = None
    for (i, j), c in p.terms.items():
        out[i][j] = c
        zero = c.zero()
    recs = []
    for t in out:
        dd = max(t, default=-1)
        recs.append(Poly([t.get(k, zero) for k in range(dd + 1)]))
    return recs


def _rec_biv(rec, nvars=2) -> MPoly:
    items = []
    for i, p in enumerate(rec):
        for j, c in enumerate(p.coeffs):
            if not c.is_zero():
                items.append(((i, j), c))
    return MPoly(nvars, items)


def _rec_trim(rec):
    while rec and rec[-1].is_zero():
        rec.pop()
    return rec


def _rec_content(rec) -> Poly:
    return poly_gcd_many(rec)


def _rec_primitive(rec):
    cont = _rec_content(rec)
    if cont.is_zero():
        return rec, cont
    return [p.exact_div(cont) for p in rec], cont


def _rec_mul_poly(rec, q: Poly):
    return [p * q for p in rec]


def _rec_pseudo_rem(f, g):
    """Pseudo-remainder of f by g in K[y][x] (both trimmed, g nonzero)."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and _rec_trim(f):
        df = len(f) - 1
        lf = f[-1]
        f = _rec_mul_poly(f, lg)
        for j in range(dg + 1):
            f[df - dg + j] = f[df - dg + j] - g[j] * lf
        f = _rec_trim(f)
        if len(f) - 1 < dg:
            break
    return f


def biv_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Gcd of bivariate polynomials over a field, canonically normalized."""
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        fa, fb = _rec_trim(_biv_rec(a)), _rec_trim(_biv_rec(b))
        fa, ca = _rec_primitive(fa)
        fb, cb = _rec_primitive(fb)
        cont = poly_gcd(ca, cb)
        if len(fa) < len(fb):
            fa, fb = fb, fa
        while True:
            r = _rec_pseudo_rem(fa, fb)
            if not r:
                g_rec = fb
                break
            if len(r) == 1:
                # nonzero remainder of x-degree 0: primitive parts are coprime
                g_rec = [Poly([1])]
                break
            fa, fb = fb, _rec_primitive(r)[0]
        g_rec, _ = _rec_primitive(g_rec)
        g = _rec_biv(_rec_mul_poly(g_rec, cont))
    if g.is_zero():
        return g
    # canonical: leading (lex-largest) coefficient one
    lead = g.terms[max(g.terms)]
    return g.scale(lead.inverse())


def biv_exact_div(a: MPoly, b: MPoly) -> MPoly:
    """Exact division of bivariate polynomials (raises if not divisible)."""
    if a.is_zero():
        return a
    fa, fb = _rec_trim(_biv_rec(a)), _rec_trim(_biv_rec(b))
    if not fb:
        raise ZeroDivisionError
    out = [Poly() for _ in range(len(fa) - len(fb) + 1)]
    fa = list(fa)
    dg = len(fb) - 1
    while _rec_trim(fa) and len(fa) - 1 >= dg:
        df = len(fa) - 1
        q = fa[-1].exact_div(fb[-1]) if fa[-1].divmod(fb[-1])[1].is_zero() else None
        if q is None:
            raise ArithmeticError("non-exact bivariate division")
        out[df - dg] = q
        for j in range(dg + 1):
            fa[df - dg + j] = fa[df - dg + j] - fb[j] * q
        if not fa[-1].is_zero():
            raise ArithmeticError("non-exact bivariate division")
        fa.pop()
    if _rec_trim(fa):
        raise ArithmeticError("non-exact bivariate division")
    return _rec_biv(out)


class RatFunc:
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

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def zero(cls, nvars=2):
        return cls(MPoly(nvars))

    @classmethod
    def const(cls, c, nvars=2):
        return cls(MPoly.monomial(nvars, (0,) * nvars, c))

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

    def eval_complex(self, point) -> complex:
        return self.num.eval_complex(point) / self.den.eval_complex(point)

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
        fu = [c.eval_exact([u]) for c in fc]
        gu = [c.eval_exact([u]) for c in gc]
        pts.append((u, sylvester_det(fu, gu)))
    return lagrange_interpolate(pts)


# ---------------------------------------------------------------------------
# numeric root finding with exact snapping
# ---------------------------------------------------------------------------

def poly_roots_numeric(p: Poly, dps: int = 50):
    """High-precision roots of a (preferably squarefree) polynomial."""
    if p.degree < 1:
        return []
    with mp.workdps(dps):
        cs = [mp.mpc(str(c.re), str(c.im)) for c in reversed(p.coeffs)]
        roots = mp.polyroots(cs, maxsteps=200, extraprec=120)
    return list(roots)


def _binary_fraction(x) -> Fraction:
    """The exact value of a float or a finite mpmath real."""
    if not isinstance(x, mp.mpf):
        return Fraction(x)
    if not mp.isfinite(x):
        raise ValueError(f"cannot snap the non-finite value {x}")
    man, exp = x.man_exp          # man is |mantissa|; the sign is apart
    if x < 0:
        man = -man
    return Fraction(man * 2 ** exp) if exp >= 0 else Fraction(man, 2 ** -exp)


def snap_to_crat(z, max_den: int = 10 ** 12) -> CRat:
    """Nearest small-denominator Gaussian rational (no verification here).

    Snaps from the exact binary value of z, so the full working precision
    of an mpmath root is used, not just its nearest float.
    """
    re = _binary_fraction(z.real if hasattr(z, "real") else z)
    im = _binary_fraction(z.imag if hasattr(z, "imag") else 0.0)
    return CRat(re.limit_denominator(max_den), im.limit_denominator(max_den))


def exact_roots(p: Poly, dps: int = 50, max_den: int = 10 ** 9):
    """Split roots of p into exact CRat roots and residual numeric ones.

    Returns (exact: list[CRat], numeric: list[mpmath.mpc]); exact roots are
    verified by substitution and deflated before the numeric pass.
    """
    exact = []
    q = p
    progress = True
    while progress and q.degree >= 1:
        progress = False
        for z in poly_roots_numeric(q, dps=dps):
            cand = snap_to_crat(z, max_den)
            if q.eval_exact(cand).is_zero():
                exact.append(cand)
                q = q.exact_div(Poly([-cand, CRat(1)]))
                progress = True
                break
    numeric = poly_roots_numeric(q, dps=dps) if q.degree >= 1 else []
    return exact, numeric
