"""Exact algebra and identity testing for exponential polynomials.

An :class:`ExpPoly` is a finite sum of terms

    q(x) * exp(c) * exp(P(x))

with q, P polynomials over the Gaussian rationals and c an exact Gaussian
rational kept *symbolically* (exp(c) is irrational in general, so folding it
into q numerically would destroy exactness).  Canonical form:

* every exponent polynomial P has zero constant term (constants are moved
  into the symbolic tag c),
* the pairs (P, c) are pairwise distinct and sorted,
* no term has a zero coefficient polynomial.

Because exponentials of distinct polynomials with algebraic data are
linearly independent over the algebraic numbers, a canonical ExpPoly is the
zero function iff it has no terms; ``is_zero`` is therefore an exact
syntactic check.

All values are immutable; operations are pure functions.  Numeric values
come from one column kernel, :func:`eval_columns`, which evaluates the
compiled terms of one or several ExpPolys on a whole list of points at
once, one pass per exponent, component and term (an exponent shared by
several terms is evaluated once, real part included);
:meth:`ExpPoly.eval_scaled` is that kernel at one point.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from itertools import repeat

from . import Frozen, Value
from .polys import Poly, as_crat
from .scalars import CRat, power


class EvalOverflowError(ArithmeticError):
    """A term's exponent exceeds the floating-point range at the point."""


_LOG_MAX = math.log(sys.float_info.max)


class ExpTermRec(Value):
    """One canonical term q(x)*exp(c)*exp(P(x)); P has zero constant term."""

    __slots__ = ("coeff", "expo", "expconst")

    def __init__(self, coeff: Poly, expo: Poly, expconst: CRat):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "expo", expo)
        object.__setattr__(self, "expconst", expconst)

    def sort_key(self):
        return (self.expo.sort_key(), self.expconst.sort_key())

    def _key(self):
        return (self.coeff, self.expo, self.expconst)


class ExpPoly(Frozen):
    """Canonical finite sum of q_k(x) * exp(c_k + P_k(x))."""

    __slots__ = ("terms", "_kernel")

    def __init__(self, terms=()):
        """Build from (coeff, expo[, expconst]) triples; canonicalizes."""
        merged: dict = {}
        for t in terms:
            if isinstance(t, ExpTermRec):
                coeff, expo, const = t.coeff, t.expo, t.expconst
            else:
                coeff, expo = t[0], t[1]
                const = t[2] if len(t) > 2 else CRat(0)
            if not isinstance(coeff, Poly):
                coeff = Poly([coeff])
            if not isinstance(expo, Poly):
                expo = Poly(expo)
            const = as_crat(const) + expo.constant()
            expo = expo.drop_constant()
            if coeff.is_zero():
                continue
            k = (expo, const)
            merged[k] = merged[k] + coeff if k in merged else coeff
        rec = []
        for (expo, const), coeff in merged.items():
            if not coeff.is_zero():
                rec.append(ExpTermRec(coeff, expo, const))
        rec.sort(key=ExpTermRec.sort_key)
        object.__setattr__(self, "terms", tuple(rec))
        object.__setattr__(self, "_kernel", None)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "ExpPoly":
        return cls([(Poly([as_crat(c)]), Poly())])

    @classmethod
    def from_poly(cls, p: Poly) -> "ExpPoly":
        return cls([(p, Poly())])

    @classmethod
    def exp_of(cls, p, coeff=1) -> "ExpPoly":
        """coeff * exp(p) for a polynomial exponent p."""
        if not isinstance(p, Poly):
            p = Poly(p)
        return cls([(Poly([as_crat(coeff)]), p)])

    # -- structure ----------------------------------------------------------
    def is_zero(self) -> bool:
        """Exact identity test: zero iff no canonical terms survive."""
        return not self.terms

    def is_polynomial(self) -> bool:
        """True iff every term has trivial exponential part."""
        return all(t.expo.is_zero() for t in self.terms)

    def polynomial_part(self) -> Poly:
        """The terms with trivial exponent, as a plain polynomial.

        Only meaningful when the exponent constants are zero too; used by
        the rational-growth test after checking :meth:`is_polynomial`.
        """
        out = Poly()
        for t in self.terms:
            if t.expo.is_zero() and t.expconst.is_zero():
                out = out + t.coeff
        return out

    def coordinates(self) -> dict:
        """{(exponent P, exponent constant c, power k of x): coefficient}.

        These are the coordinates in which the canonical form adds terms;
        zero coefficients are left out.
        """
        return {(t.expo, t.expconst, k): c
                for t in self.terms for k, c in enumerate(t.coeff.coeffs)
                if not c.is_zero()}

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    # -- algebra -----------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly(self.terms + other.terms)

    def __neg__(self):
        return ExpPoly([(-t.coeff, t.expo, t.expconst) for t in self.terms])

    def __sub__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            return self.scale(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append((a.coeff * b.coeff, a.expo + b.expo,
                            a.expconst + b.expconst))
        return ExpPoly(out)

    __rmul__ = __mul__

    def scale(self, s) -> "ExpPoly":
        s = as_crat(s)
        return ExpPoly([(t.coeff.scale(s), t.expo, t.expconst)
                        for t in self.terms])

    def __pow__(self, k: int):
        return power(self, k, ExpPoly.constant(1))

    def differentiate(self) -> "ExpPoly":
        """Exact derivative: (q e^P)' = (q' + q P') e^P."""
        out = []
        for t in self.terms:
            out.append((t.coeff.derivative() + t.coeff * t.expo.derivative(),
                        t.expo, t.expconst))
        return ExpPoly(out)

    # -- evaluation ----------------------------------------------------------
    def compiled(self):
        """The complex term data of :func:`compile_terms`, built once."""
        if self._kernel is None:
            expos, (terms,) = compile_terms([self])
            object.__setattr__(self, "_kernel", (expos, terms))
        return self._kernel

    def eval_scaled(self, z: complex):
        """Return (v, s) with f(z) = v * exp(s), s real.

        The scale s is the largest real part among the term exponents, so v
        never overflows; this is the evaluation every growth functional
        uses (only log|f| or arg f is ever needed).  It is
        :func:`eval_columns` at the one point z.
        """
        expos, terms = self.compiled()
        (v,), (s,) = eval_columns(expos, (terms,), [z])[0]
        return v, s

    def evaluate(self, z: complex) -> complex:
        """Plain complex value; raises EvalOverflowError when its modulus
        is past the largest float."""
        v, s = self.eval_scaled(z)
        if v == 0:
            return 0j
        mag = s + math.log(abs(v))
        if mag > _LOG_MAX:
            raise EvalOverflowError(
                f"|value| ~ exp({mag:.3g}) exceeds the floating range at {z}")
        while s > _LOG_MAX:  # e^s alone overflows, |v| e^s does not
            h = min(s / 2, _LOG_MAX)
            v, s = v * math.exp(h), s - h
        return v * math.exp(s)

    # -- serialization ---------------------------------------------------------
    def to_json(self):
        return [{"coeff": t.coeff.to_json(),
                 "exp": t.expo.to_json(),
                 "expconst": t.expconst.to_json()} for t in self.terms]

    @classmethod
    def from_json(cls, data) -> "ExpPoly":
        terms = []
        for t in data:
            coeff = Poly.from_json(t["coeff"])
            expo = Poly.from_json(t.get("exp", []))
            const = CRat.from_json(t["expconst"]) if "expconst" in t else CRat(0)
            terms.append((coeff, expo, const))
        return cls(terms)

    def __repr__(self):
        if not self.terms:
            return "ExpPoly(0)"
        bits = []
        for t in self.terms:
            b = f"({t.coeff!r})"
            if not t.expconst.is_zero():
                b += f"*exp({t.expconst})"
            if not t.expo.is_zero():
                b += f"*exp({t.expo!r})"
            bits.append(b)
        return " + ".join(bits)


# -- numeric kernel ----------------------------------------------------------
# Evaluation reads only plain complex data compiled once from the exact terms,
# and one routine, eval_columns, evaluates it on a list of points: a single
# point is a batch of one, and a circle sweep or a quadrature refinement is
# one call.  Every float operation is the one Poly.eval(z, complex) and
# CRat.to_complex would perform, in the same order, so values are bit-identical
# to evaluating the exact terms directly, whatever the batch.

def _horner_data(p: Poly):
    """(lead, rest): p(z) is lead folded by out = out * z + c over rest."""
    cs = [c.to_complex() for c in p.coeffs]
    if not cs:
        return 0j, ()
    return cs[-1], tuple(reversed(cs[:-1]))


def _compile_exponent(expo: Poly, expconst: CRat):
    """(w, rest, c): the exponent c + P(z) in the form eval_columns reads.

    A constant P leaves the whole exponent c + P in w, with rest None.
    """
    c = expconst.to_complex()
    lead, rest = _horner_data(expo)
    if not rest:
        return c + lead, None, None
    return lead, rest, c


def compile_terms(polys):
    """Complex data for evaluating several ExpPolys at the same points.

    Returns (expos, terms): each distinct (expo, expconst) pair of the polys
    once in expos, and per poly a tuple of (coeff lead, coeff rest, index
    into expos), one entry per term in canonical order.
    """
    index: dict = {}
    expos = []
    out = []
    for f in polys:
        rows = []
        for t in f.terms:
            key = (t.expo, t.expconst)
            i = index.get(key)
            if i is None:
                i = index[key] = len(expos)
                expos.append(_compile_exponent(t.expo, t.expconst))
            lead, rest = _horner_data(t.coeff)
            rows.append((lead, rest, i))
        out.append(tuple(rows))
    return tuple(expos), tuple(out)


def _horner(lead, rest, zs) -> list:
    """lead folded by out = out * z + a over the non-empty rest, at every z."""
    a, *more = rest
    col = [lead * z + a for z in zs]
    for a in more:
        col = [x * z + a for x, z in zip(col, zs)]
    return col


def column_max(cols) -> list:
    """The column of pointwise maxima of one or more equal-length columns
    (cols[0] itself for one), by the builtin max's rule with no call per
    point: y replaces x only where y > x, so the first value is kept on a
    tie or a NaN, as map(max, *cols) keeps it."""
    out = cols[0]
    for col in cols[1:]:
        out = [y if y > x else x for x, y in zip(out, col)]
    return out


def eval_columns(expos, comps, zs, weights=None) -> list:
    """Each component of comps evaluated at every point of zs, by columns.

    expos and comps are the data of :func:`compile_terms`.  Returns per
    component the columns (vs, ss) with f(z) = v * exp(s) at each point, s
    the largest real part of the component's exponents there (v = 0, s = 0
    for a component with no terms); with weights, one log weight l_k per
    term of each component, also the winding certificate's bound column
    sum_k exp(Re w_k - s + l_k).  Terms more than 745 below s underflow to
    zero and are skipped in v.  The work runs column by column: the Horner
    pass of each exponent over all points and its real part, taken once
    however many terms share the exponent; then each component's scale, by
    column_max over its terms; then per term one pass for a polynomial
    coefficient (a constant one is used as it is) and one for the value,
    which forms w - s as it goes.  Where every exponent of a component is
    constant, s and each w - s are the same at every point, so exp(w - s),
    the skip and the bound are decided once per term, and the first term
    added makes its column 0j + q(z) x with no pass over the zero column
    (one value n times for a constant coefficient).  Every point sees the
    float operations of a one-point evaluation in the same order, so a
    value does not depend on the other points of the batch.
    """
    n = len(zs)
    ws = [[w] * n if rest is None else [c + x for x in _horner(w, rest, zs)]
          for w, rest, c in expos]
    reals = [[w.real] * n if rest is None else [x.real for x in col]
             for (w, rest, _), col in zip(expos, ws)]
    cexp, rexp = cmath.exp, math.exp
    out = []
    for terms, ls in zip(comps, weights or repeat(None)):
        vs = zero = [0j] * n
        if const := all(expos[i][1] is None for _, _, i in terms):
            # read off the constants, not the columns: they are empty at n = 0
            s = max((expos[i][0].real for _, _, i in terms), default=0.0)
            ss = [s] * n
            for q, rest, i in terms:
                w = expos[i][0]
                qs = _horner(q, rest, zs) if rest else repeat(q)
                # skipped in v where it underflows, as at each point below
                if (e := w - s).real >= -745.0:
                    x = cexp(e)
                    if vs is not zero:
                        vs = [v + y * x for v, y in zip(vs, qs)]
                    elif rest:
                        vs = [0j + y * x for y in qs]
                    else:
                        # repeat(q) never ends: one value n times
                        vs = [0j + q * x] * n
        else:
            ss = column_max([reals[i] for _, _, i in terms])
            for q, rest, i in terms:
                if rest:
                    qs = _horner(q, rest, zs)
                    vs = [v if (e := w - s).real < -745.0 else v + x * cexp(e)
                          for v, x, w, s in zip(vs, qs, ws[i], ss)]
                else:
                    vs = [v if (e := w - s).real < -745.0 else v + q * cexp(e)
                          for v, w, s in zip(vs, ws[i], ss)]
        if ls is None:
            out.append((vs, ss))
            continue
        # with constant exponents one point's bound is every point's
        bs = [0.0] * (1 if const else n)
        for (_, _, i), l in zip(terms, ls):
            bs = [b + rexp(wr - s + l) for b, wr, s in zip(bs, reals[i], ss)]
        out.append((vs, ss, bs * n if const else bs))
    return out


def combine(op: str, f: ExpPoly, g) -> ExpPoly:
    """Dispatch add/multiply/scale by name (the CLI entry point)."""
    if op == "add":
        return f + g
    if op == "multiply":
        return f * g
    if op == "scale":
        return f.scale(g)
    raise ValueError(f"unknown combine op {op!r} (want add|multiply|scale)")
