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

All values are immutable; operations are pure functions.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .polys import Poly, as_crat
from .scalars import CRat, power


class EvalOverflowError(ArithmeticError):
    """A term's exponent exceeds the floating-point range at the point."""


class ExpTermRec:
    """One canonical term q(x)*exp(c)*exp(P(x)); P has zero constant term."""

    __slots__ = ("coeff", "expo", "expconst")

    def __init__(self, coeff: Poly, expo: Poly, expconst: CRat):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "expo", expo)
        object.__setattr__(self, "expconst", expconst)

    def __setattr__(self, *a):
        raise AttributeError("term is immutable")

    def key(self):
        return (self.expo.sort_key(), self.expconst.sort_key())

    def __eq__(self, other):
        return (self.coeff, self.expo, self.expconst) == \
            (other.coeff, other.expo, other.expconst)

    def __hash__(self):
        return hash((self.coeff, self.expo, self.expconst))


class ExpPoly:
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
        rec.sort(key=ExpTermRec.key)
        object.__setattr__(self, "terms", tuple(rec))
        object.__setattr__(self, "_kernel", None)

    def __setattr__(self, *a):
        raise AttributeError("ExpPoly is immutable")

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
        uses (only log|f| or arg f is ever needed).
        """
        expos, terms = self.compiled()
        if not terms:
            return 0j, 0.0
        return scaled_sum(terms, eval_exponents(expos, z), z)

    def evaluate(self, z: complex) -> complex:
        """Plain complex value; raises EvalOverflowError out of float range."""
        v, s = self.eval_scaled(z)
        if v == 0:
            return 0j
        mag = s + math.log(abs(v))
        if mag > 700.0:
            raise EvalOverflowError(
                f"|value| ~ exp({mag:.3g}) exceeds the floating range at {z}")
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
# Evaluation at a point reads only plain complex data compiled once from the
# exact terms.  Every float operation is the one Poly.eval_complex and
# CRat.to_complex would perform, in the same order, so values are bit-identical
# to evaluating the exact terms directly.

def _horner_data(p: Poly):
    """(lead, rest): p(z) is lead folded by out = out * z + c over rest."""
    cs = p._numeric()
    if not cs:
        return 0j, ()
    return cs[-1], tuple(reversed(cs[:-1]))


def _compile_exponent(expo: Poly, expconst: CRat):
    """(w, rest, c): the exponent c + P(z) in the form eval_exponents reads.

    A constant P leaves the whole exponent c + P in w, with rest None.
    """
    c = expconst.to_complex()
    lead, rest = _horner_data(expo)
    if not rest:
        return c + lead, None, None
    return lead, rest, c


def compile_terms(polys):
    """Complex data for evaluating several ExpPolys at one point.

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


def eval_exponents(expos, z: complex) -> list:
    """The value c + P(z) of every compiled exponent at z."""
    ws = []
    for w, rest, c in expos:
        if rest is not None:
            for a in rest:
                w = w * z + a
            w = c + w
        ws.append(w)
    return ws


def scaled_sum(terms, ws, z: complex):
    """(v, s) with sum_k q_k(z) exp(w_k) = v * exp(s) for nonempty terms.

    s is the largest real part of the terms' exponents; terms more than 745
    below it underflow to zero and are skipped.
    """
    s = max([ws[i].real for _, _, i in terms])
    v = 0j
    for q, rest, i in terms:
        e = ws[i] - s
        if e.real < -745.0:
            continue
        for a in rest:
            q = q * z + a
        v += q * cmath.exp(e)
    return v, s


def combine(op: str, f: ExpPoly, g) -> ExpPoly:
    """Dispatch add/multiply/scale by name (the CLI entry point)."""
    if op == "add":
        return f + g
    if op == "multiply":
        return f * g
    if op == "scale":
        return f.scale(g)
    raise ValueError(f"unknown combine op {op!r} (want add|multiply|scale)")
