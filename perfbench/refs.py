"""Reference values computed apart from curvecomp.

Nothing in this module imports curvecomp.  The references are closed forms,
exact Gaussian-rational arithmetic on plain data (pairs of Fractions) and
mpmath quadrature.  Every check in the workloads compares a program output
against one of these.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath as mp

def close(got, want, tol, what):
    """No message when |got - want| <= tol, else one."""
    if abs(got - want) <= tol:
        return []
    return [f"{what}: {got!r}, reference {want!r} (tolerance {tol:g})"]


def cached(cache, key, fn, *args):
    """fn(*args), computed once per run for each key."""
    if key not in cache:
        cache[key] = fn(*args)
    return cache[key]


# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) pairs of Fractions, and their JSON forms
# ---------------------------------------------------------------------------


def q(re, im=0):
    return (Fraction(re), Fraction(im))


def q_json(z):
    """``[re_n, re_d, im_n, im_d]`` as the program's JSON schema writes it."""
    return [z[0].numerator, z[0].denominator, z[1].numerator, z[1].denominator]


def q_from_json(quad):
    if len(quad) == 2:
        return (Fraction(quad[0], quad[1]), Fraction(0))
    return (Fraction(quad[0], quad[1]), Fraction(quad[2], quad[3]))


def qadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def qmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def qpow(a, k):
    out = q(1)
    for _ in range(k):
        out = qmul(out, a)
    return out


def qzero(a):
    return a[0] == 0 and a[1] == 0


def qcomplex(a):
    return complex(float(a[0]), float(a[1]))


def eval_monos(monos, point):
    """Exact value of sum c * x^e at a point; monos is [(exps, coeff pair)]."""
    acc = q(0)
    for exps, c in monos:
        term = c
        for x, e in zip(point, exps):
            term = qmul(term, qpow(x, e))
        acc = qadd(acc, term)
    return acc


def eval_monos_numeric(monos, point):
    acc = 0j
    for exps, c in monos:
        term = qcomplex(c)
        for x, e in zip(point, exps):
            term *= x ** e
        acc += term
    return acc


def eval_mpoly_json(monos, point):
    """Complex value of an MPoly in the program's JSON form at a point."""
    return eval_monos_numeric(
        [(m["exponents"], q_from_json(m["coeff"])) for m in monos], point)


def proj_close(a, b, tol):
    """Projective closeness of two complex triples (normalized 2x2 minors)."""
    na = max(abs(x) for x in a)
    nb = max(abs(x) for x in b)
    a = [x / na for x in a]
    b = [x / nb for x in b]
    return all(abs(a[i] * b[j] - a[j] * b[i]) <= tol
               for i in range(3) for j in range(i + 1, 3))


def proj_equal_exact(a, b):
    return all(qzero(qadd(qmul(a[i], b[j]), qmul((-a[j][0], -a[j][1]), b[i])))
               for i in range(3) for j in range(i + 1, 3))


# ---------------------------------------------------------------------------
# growth functionals
# ---------------------------------------------------------------------------


def t_rational(d, r):
    """T of [1 : z^d]: the circle mean of (1/2) log(1 + r^(2d))."""
    return 0.5 * math.log1p(float(r) ** (2 * d))


def t0_exp(r):
    """Scalar characteristic of e^z: r / pi."""
    return float(r) / math.pi


def t_order2(r, dps=20):
    """T of [e^z : e^{z^2} : -(e^z + e^{z^2})] at radius r.

    mpmath quadrature of (1/4pi) log(|e^z|^2 + |e^{z^2}|^2 + |e^z+e^{z^2}|^2)
    on |z| = r, split at the kink angles where Re z = Re z^2, that is where
    2 cos^2 t - cos(t)/r - 1 = 0.
    """
    with mp.workdps(dps):
        rr = mp.mpf(r)

        def f(th):
            z = rr * mp.expj(th)
            a, b = mp.exp(z), mp.exp(z * z)
            return mp.log(abs(a) ** 2 + abs(b) ** 2 + abs(a + b) ** 2)

        cs = [(1 / rr + s * mp.sqrt(1 / rr ** 2 + 8)) / 4 for s in (1, -1)]
        kinks = set()
        for c in cs:
            t = float(mp.acos(c))
            kinks.update((t, 2 * math.pi - t))
        pts = [mp.mpf(0)] + [mp.mpf(t) for t in sorted(kinks)] + [2 * mp.pi]
        return float(mp.quad(f, pts) / (4 * mp.pi))


def t_exp_line(r, dps=20):
    """T of [1 : e^z]: (1/4pi) int log(1 + e^{2 r cos t}), split at +-pi/2."""
    with mp.workdps(dps):
        rr = mp.mpf(r)
        f = lambda th: mp.log1p(mp.exp(2 * rr * mp.cos(th)))  # noqa: E731
        pts = [0, mp.pi / 2, 3 * mp.pi / 2, 2 * mp.pi]
        return float(mp.quad(f, pts) / (4 * mp.pi))


# ---------------------------------------------------------------------------
# counting functions from closed-form zeros
# ---------------------------------------------------------------------------


def counting_from_zeros(zeros, r):
    """N(r) = sum over zeros |a| < r of log(r / max(|a|, 1)), with r0 = 1."""
    return sum(math.log(r / max(abs(a), 1.0)) for a in zeros if abs(a) < r)


def zeros_exp_minus_c(c, r):
    """Zeros of e^z - c: log c + 2 pi i k (c a nonzero complex)."""
    base = cmath.log(c)
    kmax = int(r / (2 * math.pi)) + 2
    return [base + 2j * math.pi * k for k in range(-kmax, kmax + 1)]


def zeros_exp_z2_minus_one(r):
    """Zeros of e^{z^2} - 1: +-sqrt(2 pi i k); z = 0 is a double zero."""
    out = [0j, 0j]
    for k in range(1, int(r * r / (2 * math.pi)) + 2):
        for w in (cmath.sqrt(2j * math.pi * k), cmath.sqrt(-2j * math.pi * k)):
            out.extend((w, -w))
    return out


def zeros_exp_sum(r):
    """Zeros of e^z + e^{z^2}: z^2 - z = i pi (2k+1), all simple."""
    out = []
    kmax = int(r * r / math.pi) + 3
    for k in range(-kmax, kmax + 1):
        w = cmath.sqrt(1 + 4j * math.pi * (2 * k + 1))
        out.extend(((1 + w) / 2, (1 - w) / 2))
    return out


# ---------------------------------------------------------------------------
# logarithmic Chern data of plane configurations
# ---------------------------------------------------------------------------


def plane_chern(b):
    """Invariants of three plane curves of degrees b, from plane topology.

    e(P^2) = 3, a smooth plane curve of degree d has e = d(3 - d), pairwise
    meetings are b_i b_j points, Gamma^2 = (sum b - 3)^2 and
    c1^2 - c2 = sum (b_i - 2)(b_j - 2) + sum b - 6.
    """
    b1, b2, b3 = b
    s = b1 + b2 + b3
    comps = [x * (3 - x) for x in b]
    pair = [b1 * b2, b1 * b3, b2 * b3]
    return {
        "euler_surface": 3,
        "euler_components": comps,
        "euler_C": sum(comps) - sum(pair),
        "gamma_sq": (s - 3) ** 2,
        "c1sq_minus_c2": ((b1 - 2) * (b2 - 2) + (b1 - 2) * (b3 - 2)
                          + (b2 - 2) * (b3 - 2) + s - 6),
        "pairwise_intersections": pair,
    }


def chern_identity_holds(rep):
    return rep["c1sq_minus_c2"] == (rep["gamma_sq"] - rep["euler_surface"]
                                    + rep["euler_C"])


# ---------------------------------------------------------------------------
# symmetric forms through the cyclic cover (z1, z2) -> (z1^b, z2)
# ---------------------------------------------------------------------------


def pushed_monomial_form(b, m, i, a, c, coeff):
    """Push-down of the norm of coeff * z1^a z2^c dz1^i dz2^(m-i).

    The norm multiplies the b deck pullbacks: the coefficient becomes
    coeff^b z1^(b a) z2^(b c) times prod_k zeta^(k (a + i)), which is
    (-1)^((a + i)(b - 1)), in degree b m with dz1-power b i.  In the log
    basis the coefficient gains z1^(b i); reading z1^b as xi1 and
    (dz1/z1) as (1/b)(dxi1/xi1) gives
    (-1)^((a+i)(b-1)) coeff^b xi1^(a+i) xi2^(b c) / b^(b i).
    Returns (M, index, exponents, Gaussian-rational coefficient).
    """
    sign = -1 if ((a + i) * (b - 1)) % 2 else 1
    val = qpow(coeff, b)
    val = (val[0] * sign / Fraction(b) ** (b * i),
           val[1] * sign / Fraction(b) ** (b * i))
    return b * m, b * i, (a + i, b * c), val
