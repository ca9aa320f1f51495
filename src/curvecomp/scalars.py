"""Exact scalar arithmetic.

Two scalar types are provided:

* ``CRat`` -- Gaussian rationals a + b*i with a, b arbitrary-precision
  ``Fraction``.  This is the coefficient field for almost everything in the
  package: exponential polynomials, divisors, plane curves.

* ``CycNum`` -- elements of the cyclotomic field Q(zeta_L), represented as
  polynomials in zeta of degree < phi(L) reduced modulo the L-th cyclotomic
  polynomial.  Only the covering module needs these (deck transformations
  rotate a coordinate by an exact root of unity).  Taking L = lcm(4, b)
  embeds both i and the b-th roots of unity into one field, so arithmetic
  never leaves exact ground.

Both types are immutable and hashable and share one interface, so the
polynomial layer in :mod:`curvecomp.polys` and the covering code never ask
which of the two they hold:

* ``+ - *`` and unary ``-``, mixed freely with ``int`` and ``Fraction``
  (and, for ``CycNum``, with ``CRat``, which it embeds);
* ``/`` and ``**``, where a negative exponent inverts first;
* ``inverse()`` (``ZeroDivisionError`` on zero) and ``is_zero()``;
* ``zero()`` and ``one()``, the units of the element's own field;
* ``to_crat()``: the element as a ``CRat`` (``ValueError`` when it is not a
  Gaussian rational; a ``CRat`` returns itself);
* ``to_complex()`` and ``complex(x)``, the float value;
* ``==``, ``hash`` and ``sort_key()``.

``__rsub__``, ``__truediv__``, ``__rtruediv__`` and ``__pow__`` are one set
of module-level functions bound in both class bodies; :func:`power` is the
square-and-multiply routine behind ``**`` here and in the polynomial types.
``CycField`` builds its elements and products with the Q[x] list helpers at
the bottom (``_qx_mul``, ``_qx_divmod``): a product is the Q[x] product
reduced modulo Phi_L, an element its coefficient list reduced the same way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import Frozen


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


def power(x, k: int, one):
    """x ** k for k >= 0 by square-and-multiply; `one` is x ** 0.

    The one power loop of the package: the scalar fields and the
    polynomial rings all call it.  A negative k raises ValueError; the
    fields invert before they get here.
    """
    if k < 0:
        raise ValueError(f"negative exponent {k}: {type(x).__name__} "
                         f"has no inverses")
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


# The field operators CRat and CycNum share.  Each is bound by name in both
# class bodies rather than inherited, so each class holds its own entry
# (perfbench/tracer.py wraps the operators class by class).

def _rsub(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return o - self


def _truediv(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return self * o.inverse()


def _rtruediv(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return o * self.inverse()


def _pow(self, k: int):
    if k < 0:
        return power(self.inverse(), -k, self.one())
    return power(self, k, self.one())


class CRat(Frozen):
    """Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_json(cls, quad) -> "CRat":
        """Parse ``[re_num, re_den, im_num, im_den]`` (or ``[num, den]``)."""
        if len(quad) == 2:
            return cls(Fraction(int(quad[0]), int(quad[1])))
        if len(quad) == 4:
            return cls(Fraction(int(quad[0]), int(quad[1])),
                       Fraction(int(quad[2]), int(quad[3])))
        raise ValueError(f"expected [n,d] or [re_n,re_d,im_n,im_d], got {quad!r}")

    def to_json(self) -> list:
        return [self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator]

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- arithmetic ---------------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, CRat):
            return other
        if isinstance(other, (int, Fraction)):
            return CRat(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CRat(self.re - o.re, self.im - o.im)

    __rsub__ = _rsub

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CRat(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "CRat":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero CRat")
        return CRat(self.re / n, -self.im / n)

    __truediv__ = _truediv
    __rtruediv__ = _rtruediv
    __pow__ = _pow

    def zero(self) -> "CRat":
        return CRat(0)

    def one(self) -> "CRat":
        return CRat(1)

    # -- comparisons / hashing ----------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def sort_key(self):
        """Deterministic total ordering key (for canonical term orders)."""
        return (self.re, self.im)

    # -- conversions ---------------------------------------------------------
    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __complex__(self) -> complex:
        return self.to_complex()

    def to_crat(self) -> "CRat":
        return self

    def __repr__(self):
        if not self.im:
            return f"CRat({self.re})"
        return f"CRat({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


# ---------------------------------------------------------------------------
# Cyclotomic field Q(zeta_L)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    # x^n - 1 divided by the product of Phi_d for proper divisors d
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _qx_divmod(num, [Fraction(c) for c in cyclotomic_poly(d)])
            if any(rem):
                raise ArithmeticError("non-exact polynomial division")
    return tuple(int(c) for c in num)


def _qx_divmod(a, b):
    """Quotient and remainder of Q[x] lists (ascending, b[-1] nonzero).

    The remainder has exactly len(b) - 1 entries, zero-padded.
    """
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] / lb
        q[k] = c
        if c:
            for j in range(db + 1):
                a[k + j] -= c * b[j]
    rem = a[:db]
    return q, rem + [Fraction(0)] * (db - len(rem))


@lru_cache(maxsize=None)
def _euler_phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


class CycField:
    """The field Q(zeta_L); a factory/context for CycNum elements."""

    _cache: dict = {}

    def __new__(cls, order: int):
        if order in cls._cache:
            return cls._cache[order]
        self = super().__new__(cls)
        self.order = order
        self.degree = _euler_phi(order)
        self.modulus = [Fraction(c) for c in cyclotomic_poly(order)]
        cls._cache[order] = self
        return self

    def element(self, coeffs) -> "CycNum":
        return CycNum(self, tuple(self.reduce([_frac(c) for c in coeffs])))

    @lru_cache(maxsize=None)
    def _reduce_power(self, k: int) -> tuple:
        """zeta^k as a length-`degree` coefficient vector."""
        k %= self.order
        return tuple(self.reduce([Fraction(0)] * k + [Fraction(1)]))

    def reduce(self, poly) -> list:
        """The remainder of a Q[x] list modulo Phi_L, `degree` entries."""
        return _qx_divmod(poly, self.modulus)[1]

    def zero(self) -> "CycNum":
        return self.element([])

    def one(self) -> "CycNum":
        return self.element([1])

    def zeta(self, k: int = 1) -> "CycNum":
        return CycNum(self, self._reduce_power(k))

    def i_unit(self) -> "CycNum":
        if self.order % 4:
            raise ValueError(f"Q(zeta_{self.order}) does not contain i")
        return self.zeta(self.order // 4)

    def embed_crat(self, c: CRat) -> "CycNum":
        out = self.element([c.re])
        if c.im:
            out = out + self.element([c.im]) * self.i_unit()
        return out

    def __repr__(self):
        return f"CycField({self.order})"


class CycNum(Frozen):
    """Element of Q(zeta_L): coefficient vector over the power basis."""

    __slots__ = ("field", "vec")

    def __init__(self, field: CycField, vec: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vec", vec)

    def is_zero(self) -> bool:
        return all(not c for c in self.vec)

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.field is not self.field:
                raise ValueError("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        if isinstance(other, CRat):
            return self.field.embed_crat(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum(self.field, tuple(a + b for a, b in zip(self.vec, o.vec)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.field, tuple(-a for a in self.vec))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    __rsub__ = _rsub

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = _qx_mul(self.vec, o.vec)
        return CycNum(self.field, tuple(self.field.reduce(prod)))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero CycNum")
        # extended Euclid in Q[x] against the cyclotomic modulus
        s0, s1 = [Fraction(1)], []
        r0, r1 = _trim(list(self.vec)), _trim(list(self.field.modulus))
        while r1:
            q, r = _qx_divmod(r0, r1)
            r0, r1 = r1, _trim(r)
            s0, s1 = s1, _trim(_qx_sub(s0, _qx_mul(q, s1)))
        if len(r0) != 1:
            raise ArithmeticError("element not invertible (unexpected)")
        inv_lead = 1 / r0[0]
        vec = [c * inv_lead for c in s0]
        return CycNum(self.field, tuple(self.field.reduce(vec)))

    __truediv__ = _truediv
    __rtruediv__ = _rtruediv
    __pow__ = _pow

    def zero(self) -> "CycNum":
        return self.field.zero()

    def one(self) -> "CycNum":
        return self.field.one()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.vec == o.vec

    def __hash__(self):
        return hash((self.field.order, self.vec))

    def sort_key(self):
        return tuple(self.vec)

    def to_complex(self) -> complex:
        L = self.field.order
        z = 0j
        for k, c in enumerate(self.vec):
            if c:
                ang = 2 * math.pi * k / L
                z += complex(c) * complex(math.cos(ang), math.sin(ang))
        return z

    def __complex__(self) -> complex:
        return self.to_complex()

    def to_crat(self) -> CRat:
        """Express the element in Q(i) if possible, else raise ValueError.

        With i = zeta^(L/4) in the field, self = a + b*i is read off one
        coordinate j >= 1 where i's vector is nonzero (1 is the first basis
        vector, so there b = vec[j] / i[j]), a = vec[0] - b*i[0], and the
        candidate is checked by substitution.
        """
        vec = self.vec
        if self.field.order % 4:
            if any(vec[1:]):
                raise ValueError("element is not a Gaussian rational")
            return CRat(vec[0])
        iu = self.field.i_unit().vec
        j = next(j for j in range(1, len(iu)) if iu[j])
        b = vec[j] / iu[j]
        cand = CRat(vec[0] - b * iu[0], b)
        if self.field.embed_crat(cand) != self:
            raise ValueError("element is not a Gaussian rational")
        return cand

    def __repr__(self):
        return f"CycNum(L={self.field.order}, {list(self.vec)})"


SCALAR_TYPES = (CRat, CycNum)


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _qx_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _qx_sub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]
