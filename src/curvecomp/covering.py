"""Symmetric-form transport through the cyclic branched cover model.

The local model is (z1, z2) -> (z1^b, z2).  Its deck group is generated by
z1 -> zeta*z1 with zeta a primitive b-th root of unity; the symmetric product
of all deck pullbacks of an m-form is invariant and descends: written over
the basis (dz1/z1)^i (dz2)^(M-i) its coefficients use only powers z1^(b*k),
and b*dz1/z1 = dxi1/xi1 turns them into honest coefficients downstairs.

Roots of unity are exact: scalars live in the cyclotomic field
Q(zeta_lcm(4,b)) (which also contains i) during pullbacks, and are lowered
back to Gaussian rationals the moment they fit.  Rational-function
coefficients are kept reduced by exact gcd after every operation, which is
what makes the invariance (exponent classes mod b) decidable by inspection.

Only this cyclic model is implemented; the extension claim for a global
three-section morphism reduces to it on smooth branch points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .expfun import ExpPoly
from .polys import MPoly, RatFunc, as_crat
from .scalars import CRat, CycField, CycNum


class CoveringError(Exception):
    pass


class NonInvariantFormError(CoveringError):
    pass


@dataclass(frozen=True)
class CyclicCover:
    """Branching order b of the local model (z1, z2) -> (z1^b, z2)."""

    b: int

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("branching order must be >= 1")

    def field(self) -> CycField:
        return CycField(math.lcm(4, self.b))

    def zeta(self, k: int = 1) -> CycNum:
        f = self.field()
        return f.zeta((k % self.b) * (f.order // self.b))


PLAIN = "plain"
LOG1 = "log1"


def _as_ratfunc(c) -> RatFunc:
    """A form coefficient: a RatFunc, an MPoly or an exact scalar."""
    if isinstance(c, RatFunc):
        return c
    if isinstance(c, MPoly):
        return RatFunc(c)
    return RatFunc.const(as_crat(c))


class SymForm:
    """Symmetric M-form with reduced rational-function coefficients.

    basis "plain":  sum_i c_i (d1)^i (d2)^(M-i)
    basis "log1":   sum_i r_i (d1/x1)^i (d2)^(M-i)

    Coefficient index equals the power of the first differential.
    """

    __slots__ = ("M", "basis", "coeffs", "var_names")

    def __init__(self, M: int, basis: str, coeffs, var_names=("z1", "z2")):
        if basis not in (PLAIN, LOG1):
            raise ValueError(f"unknown basis {basis!r}")
        cs = [_as_ratfunc(c) for c in coeffs]
        if len(cs) != M + 1:
            raise ValueError(f"need M+1 = {M + 1} coefficients, got {len(cs)}")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var_names", tuple(var_names))

    def __setattr__(self, *a):
        raise AttributeError("SymForm is immutable")

    @classmethod
    def monomial(cls, M: int, i: int, coeff, basis: str = PLAIN,
                 var_names=("z1", "z2")) -> "SymForm":
        cs = [RatFunc.zero()] * (M + 1)
        cs[i] = _as_ratfunc(coeff)
        return cls(M, basis, cs, var_names)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, SymForm):
            return NotImplemented
        return (self.M == other.M and self.basis == other.basis
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        """Symmetric product; bases must agree."""
        if not isinstance(other, SymForm):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError("cannot multiply forms in different bases")
        M = self.M + other.M
        out = [RatFunc.zero() for _ in range(M + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return SymForm(M, self.basis, out, self.var_names)

    def map_coeffs(self, fn) -> "SymForm":
        return SymForm(self.M, self.basis, [fn(c) for c in self.coeffs],
                       self.var_names)

    def to_json(self):
        for c in self.coeffs:
            for v in list(c.num.terms.values()) + list(c.den.terms.values()):
                if not isinstance(v, CRat):
                    raise CoveringError(
                        "cyclotomic coefficients have no JSON form; "
                        "push further down first")
        return {"M": self.M, "basis": self.basis,
                "vars": list(self.var_names),
                "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data) -> "SymForm":
        return cls(int(data["M"]), data["basis"],
                   [RatFunc.from_json(c) for c in data["coeffs"]],
                   tuple(data.get("vars", ("z1", "z2"))))

    def __repr__(self):
        d1 = f"d{self.var_names[0]}"
        if self.basis == LOG1:
            d1 = f"(d{self.var_names[0]}/{self.var_names[0]})"
        d2 = f"d{self.var_names[1]}"
        bits = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            bits.append(f"[{c.num!r}/{c.den!r}]*{d1}^{i}*{d2}^{self.M - i}")
        return "SymForm(" + (" + ".join(bits) or "0") + ")"


# ---------------------------------------------------------------------------
# scalar field shuttling
# ---------------------------------------------------------------------------

def _lower_mpoly(p: MPoly) -> MPoly:
    return MPoly(p.nvars, [(e, c.to_crat()) for e, c in p.terms.items()])


def _try_lower(form: SymForm) -> SymForm:
    """Drop cyclotomic scalars back to Gaussian rationals when possible."""
    try:
        return form.map_coeffs(lambda c: RatFunc(_lower_mpoly(c.num),
                                                 _lower_mpoly(c.den),
                                                 reduce_now=False))
    except ValueError:
        return form


def _rot_mpoly(p: MPoly, zeta_k: CycNum) -> MPoly:
    """Substitute x1 -> zeta^k * x1 (monomial-wise exact rotation)."""
    return MPoly(2, [((e1, e2), zeta_k ** e1 * c)
                     for (e1, e2), c in p.terms.items()])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def deck_pullback(form: SymForm, k: int, cover: CyclicCover) -> SymForm:
    """Exact pullback under the deck rotation z1 -> e^(2 pi i k / b) z1."""
    if not (0 <= k < cover.b):
        raise ValueError(f"deck index {k} outside [0, {cover.b})")
    if k == 0:
        return form
    zk = cover.zeta(k)

    def pull(c: RatFunc, weight: int) -> RatFunc:
        num = _rot_mpoly(c.num, zk)
        den = _rot_mpoly(c.den, zk)
        if weight:
            num = num.scale(zk ** weight)
        return RatFunc(num, den, reduce_now=False)

    out = []
    for i, c in enumerate(form.coeffs):
        # dz1 picks up zeta^k per plain power; dz1/z1 is rotation-invariant
        w = i if form.basis == PLAIN else 0
        out.append(pull(c, w))
    return _try_lower(SymForm(form.M, form.basis, out, form.var_names))


def norm_form(form: SymForm, cover: CyclicCover) -> SymForm:
    """Symmetric product of all deck pullbacks (degree becomes b*M)."""
    out = form
    for k in range(1, cover.b):
        out = out * deck_pullback(form, k, cover)
    return _try_lower(out)


def express_log_basis(form: SymForm) -> SymForm:
    """Rewrite plain-basis coefficients over (d1/x1)^i: r_i = x1^i * c_i."""
    if form.basis == LOG1:
        return form
    x1 = MPoly.monomial(2, (1, 0))
    out = []
    for i, c in enumerate(form.coeffs):
        out.append(RatFunc(c.num * x1 ** i, c.den))
    return SymForm(form.M, LOG1, out, form.var_names)


def express_plain_basis(form: SymForm) -> SymForm:
    if form.basis == PLAIN:
        return form
    x1 = MPoly.monomial(2, (1, 0))
    out = []
    for i, c in enumerate(form.coeffs):
        out.append(RatFunc(c.num, c.den * x1 ** i))
    return SymForm(form.M, PLAIN, out, form.var_names)


def _invariance_residue(p: MPoly, b: int, where: str) -> int:
    """The common exponent class mod b of the x1-exponents of p."""
    cls = None
    for e in sorted(p.terms):
        r = e[0] % b
        if cls is None:
            cls = r
        elif r != cls:
            raise NonInvariantFormError(
                f"{where} monomial x1^{e[0]} x2^{e[1]} breaks the mod-{b} "
                f"class")
    return 0 if cls is None else cls


def _map_x1(p: MPoly, fn) -> MPoly:
    """p with every x1-exponent e1 replaced by fn(e1)."""
    return MPoly(2, [((fn(e[0]), e[1]), v) for e, v in p.terms.items()])


def push_down(form: SymForm, cover: CyclicCover) -> SymForm:
    """Descend a deck-invariant form along z1 -> xi1 = z1^b, exactly.

    Coefficients are taken in the log basis, checked monomial-by-monomial
    (all x1-exponents in one residue class mod b, numerator matching
    denominator), stripped of the common x1 power, and re-read in xi1 with
    the 1/b^i differential factors.
    """
    b = cover.b
    lf = express_log_basis(form)
    out = []
    binv = CRat(Fraction(1, b))
    for i, c in enumerate(lf.coeffs):
        if c.is_zero():
            out.append(c)
            continue
        sn, sd = (_invariance_residue(p, b, f"coefficient {i}: {part}")
                  for part, p in (("numerator", c.num),
                                  ("denominator", c.den)))
        if sn != sd:
            raise NonInvariantFormError(
                f"coefficient {i}: numerator class {sn} != denominator class "
                f"{sd} (mod {b})")
        shift = min(e[0] for p in (c.num, c.den) for e in p.terms)
        num, den = (_map_x1(p, lambda e1: (e1 - shift) // b)
                    for p in (c.num, c.den))
        out.append(RatFunc(num, den) * binv ** i)
    return SymForm(lf.M, LOG1, out, ("xi1", "xi2"))


def pull_back_cyclic(form: SymForm, cover: CyclicCover) -> SymForm:
    """Substitute xi1 = z1^b back into a pushed-down form (round-trip aid)."""
    b = cover.b
    lf = express_log_basis(form)
    out = []
    bfac = CRat(b)
    for i, c in enumerate(lf.coeffs):
        num, den = (_map_x1(p, lambda e1: e1 * b) for p in (c.num, c.den))
        out.append(RatFunc(num, den) * bfac ** i)
    return SymForm(lf.M, LOG1, out, ("z1", "z2"))


def is_deck_invariant(form: SymForm, cover: CyclicCover) -> bool:
    return all(deck_pullback(form, k, cover) == form
               for k in range(cover.b))


def annihilation_check(form: SymForm, g1: ExpPoly, g2: ExpPoly):
    """Does the curve (g1, g2) annihilate the form?  Exact.

    Substitutes xi_i = g_i, dxi_i = g_i', collapses to one ExpPoly and
    applies the exact zero test.  Returns (bool, residual ExpPoly).
    """
    pf = express_plain_basis(form)
    g1d, g2d = g1.differentiate(), g2.differentiate()

    def mp_on_curve(p: MPoly) -> ExpPoly:
        out = ExpPoly.zero()
        for (e1, e2), c in p.iter_sorted():
            term = ExpPoly.constant(c.to_crat())
            if e1:
                term = term * g1 ** e1
            if e2:
                term = term * g2 ** e2
            out = out + term
        return out

    dens_on = [None] * (pf.M + 1)
    for i, c in enumerate(pf.coeffs):
        if c.is_zero() or c.den.total_degree() == 0:
            continue  # canonical constant denominator is exactly 1
        d = mp_on_curve(c.den)
        if d.is_zero():
            raise CoveringError(
                f"coefficient {i}: denominator vanishes identically on the curve")
        dens_on[i] = d

    # clear all denominators at once: the residual is the numerator of the
    # pulled-back form, zero iff the form annihilates the curve
    total = ExpPoly.zero()
    for i, c in enumerate(pf.coeffs):
        if c.is_zero():
            continue
        piece = mp_on_curve(c.num) * (g1d ** i) * (g2d ** (pf.M - i))
        for j, d in enumerate(dens_on):
            if d is not None and j != i:
                piece = piece * d
        total = total + piece
    return total.is_zero(), total
