"""Growth functionals for entire curves with exponential-polynomial data.

The characteristic of a projective curve is computed as the circle average
of log||f||^2 (the radial integration constant is dropped); the scalar
characteristic is the classical log-plus average.  Counting functions come
from the argument principle: integer winding numbers on a ladder of radii,
with the radial integral done exactly on the resolved piecewise-constant
count.  Each count is proved: one sweep of the circle, every arc of it
certified by a bound on |h'| that folds in the rounding of the values
(Ying and Katz, Numer. Math. 53, 1988), only failing arcs bisected.
Every evaluation goes through the column kernel
:func:`curvecomp.expfun.eval_columns`: each step of the adaptive
quadrature evaluates the nodes of all its arcs in one call, and a sweep
its points, or one depth of midpoints, in one call with the bound column;
log||f||^2 combines the components' columns in column passes too.  Values
are doubles: where a coefficient polynomial leaves the double range on the
circle the integrand is NaN, and the quadrature raises QuadratureError
rather than return a value; a winding count raises EvalOverflowError where
a sweep meets a value that is NaN or infinite.  Since the count does not
decrease with the radius, the ladder is bisected from its two ends and a
stretch whose end counts agree is filled without sweeping it.  For entire
functions with very many zeros a circle-mean variant is available
(Jensen's identity: N(r) = m(r) - m(r0)), cross-checked against the
winding ladder in the tests.  The main theorem checks count each function
once for all their radii, sharing the counts n(t) or the base mean m(r0).

All radial normalizations use r0 = 1.  The paper bounds carry O(1) slack;
every check here therefore fits one constant (or one a*log r + b line) per
instance and reports residuals relative to the characteristic scale.  The
main-theorem exceptional set (finite Lebesgue measure) is invisible to any
finite radius schedule, so the second-main-theorem check is a fit-based
heuristic by design.
"""

from __future__ import annotations

import cmath
import heapq
import math
from functools import lru_cache
from itertools import combinations, compress, zip_longest
from operator import mul, truediv

from . import Frozen, Record
from .expfun import (EvalOverflowError, ExpPoly, column_max, compile_terms,
                     eval_columns)
from .polys import MPoly, det_field, rank_field
from .scalars import CRat

R0 = 1.0


class NevanlinnaError(Exception):
    pass


class QuadratureError(NevanlinnaError):
    def __init__(self, msg, achieved=None):
        super().__init__(msg)
        self.achieved = achieved


class WindingError(NevanlinnaError):
    pass


class GeneralPositionError(NevanlinnaError):
    pass


class DegenerateCurveError(NevanlinnaError):
    pass


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class ProjCurve(Frozen):
    """Entire curve [f_0 : ... : f_n] with ExpPoly components."""

    __slots__ = ("components", "_kernel")

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("a curve needs at least one component")
        if all(c.is_zero() for c in comps):
            raise ValueError("all components are identically zero")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_kernel", None)

    @property
    def n(self) -> int:
        return len(self.components) - 1

    def compiled(self):
        """Term data of all components, each distinct exponent listed once."""
        if self._kernel is None:
            object.__setattr__(self, "_kernel",
                               compile_terms(self.components))
        return self._kernel

    def log_norm_sq(self, z: complex) -> float:
        """log sum_j |f_j(z)|^2, overflow-safe (exponents factored out)."""
        return self.log_norm_sqs([z])[0]

    def log_norm_sqs(self, zs) -> list:
        """log_norm_sq at every point of zs, in one call to eval_columns.

        The components are combined in column passes: the column of
        log|f_j| per component (-inf where f_j vanishes), their maximum m
        by column_max, the sum a of exp(2 (log|f_j| - m)) one component at
        a time, and 2 m + log a.  A vanishing component adds exp(-inf) =
        0.0 to the sum, so it leaves it as it was; where every component
        vanishes the result is -inf, and a NaN anywhere gives NaN.
        """
        ninf = float("-inf")
        log, exp = math.log, math.exp
        cols = [[s + log(abs(v)) if v else ninf for v, s in zip(vs, ss)]
                for vs, ss in eval_columns(*self.compiled(), zs)]
        ms = column_max(cols)
        if ninf in ms:
            # m = -inf only where the first component vanishes and no other
            # is above -inf: take m = 0 there, so that the sum is 0.0 where
            # all vanish and NaN where one is NaN
            ms = [m if m > ninf else 0.0 for m in ms]
        # the terms are added left to right, as sum() does on Python 3.11
        # (3.12's sum compensates its additions, which would move the
        # last bits)
        acc = [exp(2.0 * (l - m)) for l, m in zip(cols[0], ms)]
        for col in cols[1:]:
            acc = [a + exp(2.0 * (l - m)) for a, l, m in zip(acc, col, ms)]
        return [2.0 * m + log(a) if a else ninf for m, a in zip(ms, acc)]

    def to_json(self):
        return {"components": [c.to_json() for c in self.components]}

    @classmethod
    def from_json(cls, data):
        return cls(ExpPoly.from_json(c) for c in data["components"])


class HomDivisor(Frozen):
    """Divisor cut out by a homogeneous polynomial with exact coefficients."""

    __slots__ = ("poly", "degree")

    def __init__(self, poly: MPoly, degree: int = None):
        if poly.is_zero():
            raise ValueError("divisor polynomial is zero")
        if not poly.is_homogeneous():
            raise ValueError("divisor polynomial is not homogeneous")
        d = poly.total_degree()
        if degree is not None and degree != d:
            raise ValueError(f"stated degree {degree} != actual {d}")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "degree", d)

    @classmethod
    def hyperplane(cls, coeffs) -> "HomDivisor":
        n = len(coeffs)
        return cls(MPoly(n, [(tuple(int(i == j) for i in range(n)), c)
                             for j, c in enumerate(coeffs)]))

    def normal(self):
        """Coefficient vector for a degree-1 divisor."""
        if self.degree != 1:
            raise ValueError("normal vector only defined for hyperplanes")
        n = self.poly.nvars
        vec = [CRat(0)] * n
        for e, c in self.poly.terms.items():
            vec[e.index(1)] = c
        return vec

    def compose(self, curve: ProjCurve) -> ExpPoly:
        """The entire function P(f_0, ..., f_n)."""
        if self.poly.nvars != len(curve.components):
            raise ValueError("divisor arity does not match the curve")
        return self.poly.eval(curve.components, ExpPoly.constant)

    def to_json(self):
        return {"monomials": self.poly.to_json(), "degree": self.degree}

    @classmethod
    def from_json(cls, data):
        mono = data["monomials"]
        if not mono:
            raise ValueError("divisor 'monomials' list is empty")
        return cls(MPoly.from_json(len(mono[0]["exponents"]), mono),
                   data.get("degree"))


class GrowthReport(Record):
    __slots__ = ("radii", "values", "fitted_slope", "fitted_order", "flags")


# ---------------------------------------------------------------------------
# quadrature on the circle
# ---------------------------------------------------------------------------
# On |z| = r the integrands follow max_j Re(c_j + P_j(z)) over the exponents,
# so where two exponents switch they have a corner or a transition of width
# w = 1/|D'|, D(theta) the difference of the two real parts, and the
# trapezoid rule converges only algebraically there (Trefethen & Weideman,
# SIAM Review 56, 2014).  The circle is cut at those switching angles and
# integrated by global adaptive Gauss-Kronrod 7/15 (QUADPACK's qk15,
# Piessens et al. 1983): the arc with the largest error estimate is refined
# next, at points graded toward its switching angles while there are any,
# else by halving.

QUAD_BUDGET = 1 << 18          # integrand evaluations per integral
# A transition narrower than 1/64 of its arc lies inside the outermost
# Kronrod node (0.43% of the arc from the end) and well inside the next
# (2.5%): the rule cannot see it, so its mass enters the error estimate.
_UNSEEN = 1.0 / 64.0
_EPS = 2.220446049250313e-16

# the positive Kronrod abscissae on [-1, 1] (decreasing) with their weights,
# and the Gauss weights of every second one; _X15, _K15 and _G7 are the
# whole rules, the abscissae increasing and the Gauss rule on _X15[1::2]
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_X15 = tuple(-x for x in _XGK) + (0.0,) + _XGK[::-1]
_K15 = _WGK + (0.209482141084727828012999174891714,) + _WGK[::-1]
_G7 = _WG + (0.417959183673469387755102040816327,) + _WG[::-1]


def _gk15(fs, h: float, smooth: bool):
    """(integral, error estimate) by the 7/15 rule from the values fs at the
    nodes of an arc of half-length h.

    The estimate is QUADPACK's, |K15 - G7| rescaled by the variation of f
    over the arc; for smooth f it is |K15 - G7| where that is smaller.  It
    is never below the rounding of the sum.
    """
    resk = sum(map(mul, _K15, fs))
    resg = sum(map(mul, _G7, fs[1::2]))
    mean = 0.5 * resk
    resasc = sum(map(mul, _K15, [abs(v - mean) for v in fs])) * h
    err = abs((resk - resg) * h)
    if resasc and err:
        scaled = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        err = min(err, scaled) if smooth else scaled
    # resasc + |resk h| bounds the integral of |f|, whose rounding QUADPACK
    # takes as the floor
    return resk * h, max(err, 50.0 * _EPS * (resasc + abs(resk * h)))


def _refine(a: float, b: float, wa: float, wb: float):
    """Sub-arcs (lo, hi, width at lo, width at hi) of the arc [a, b].

    An end with a transition of width w is cut off at the largest w * 4^k
    below a quarter of the arc, so repeated refinement approaches it
    through those points; an arc with no such cut is halved.
    """
    quarter = 0.25 * (b - a)
    da, db = [w * 4.0 ** int(math.log(quarter / w, 4.0)) if 0 < w < quarter
              else 0.0 for w in (wa, wb)]
    if not (da or db):
        m = 0.5 * (a + b)
        return [(a, m, wa, 0.0), (m, b, 0.0, wb)]
    out = [(a, a + da, wa, 0.0)] if da else []
    out.append((a + da, b - db, 0.0 if da else wa, 0.0 if db else wb))
    return out + [(b - db, b, 0.0, wb)] if db else out


def integrate_periodic(fn, tol: float, splits=(), smooth: bool = False):
    """Integral of f over one period [0, 2pi) to absolute error tol.

    fn maps a list of angles to the list of the values of f there.  The
    15 Gauss-Kronrod nodes of every arc of a step (the initial arcs, or
    the parts of a refined arc) go to fn in one call.  A node whose value
    is NaN or -inf (a zero of log|h| hit exactly), on an arc whose values
    do not sum to a number above -inf, is evaluated again 1e-9 further
    on, all such nodes of a step in one more call.  An arc whose integral
    or error estimate is still NaN after that raises QuadratureError at
    once: refining it would give NaN again, and a NaN estimate would pass
    for convergence.  So does an OverflowError from fn, which abs() of a
    complex raises where its modulus alone leaves the floating range.

    splits holds (angle, width) pairs: the circle is cut at each angle (no
    splits: one arc from 0), and a positive width marks a transition of
    about that width there, such as the switching of two exponents.  The
    arc with the largest error estimate is refined (see _refine) until the
    estimates sum below tol.  A transition narrower than _UNSEEN of its
    arc adds twice its width to the arc's estimate, since it carries a
    mass of about one width on each side that the nodes cannot see.

    smooth says that f is analytic on the circle away from the marked
    transitions, as log||f||^2 of a curve is; log|h| (singular at zeros of
    h) and log+ (corners) are not.  Only then may an arc's estimate be the
    bare |K15 - G7| (see _gk15): next to a singularity it can understate
    the error tenfold.  Returns (integral, error_estimate); running out of
    the QUAD_BUDGET evaluations raises with the achieved estimate attached.
    """
    def arcs(parts):
        """Heap entries of the arcs (a, b, width at a, width at b)."""
        halves = [(0.5 * (a + b), 0.5 * (b - a)) for a, b, _, _ in parts]
        nodes = [c + h * x for c, h in halves for x in _X15]
        try:
            fs = fn(nodes)
            blocks = [fs[k:k + 15] for k in range(0, len(fs), 15)]
            redo = [15 * j + k for j, block in enumerate(blocks)
                    if not sum(block) > float("-inf")
                    for k, v in enumerate(block) if not v > float("-inf")]
            if redo:
                for k, v in zip(redo, fn([nodes[k] + 1e-9 for k in redo])):
                    blocks[k // 15][k % 15] = v
        except OverflowError as exc:
            raise QuadratureError(f"integrand out of the floating range: "
                                  f"{exc}") from exc
        out = []
        for (a, b, wa, wb), (_, h), block in zip(parts, halves, blocks):
            val, err = _gk15(block, h, smooth)
            if val != val or err != err:
                raise QuadratureError(
                    f"integrand is not a number on the arc [{a:g}, {b:g}]"
                    ": a value out of the floating range?")
            unseen = _UNSEEN * (b - a)
            floor = (2.0 * wa if wa < unseen else 0.0) + (
                2.0 * wb if wb < unseen else 0.0)
            out.append((-max(err, floor), a, b, wa, wb, val))
        return out

    two_pi = 2.0 * math.pi
    widths = {}
    for t, w in splits:
        t %= two_pi
        widths[t] = max(w, widths.get(t, 0.0))
    cuts = sorted(widths) or [0.0]
    ws = [widths.get(t, 0.0) for t in cuts]
    heap = arcs(list(zip(cuts, cuts[1:] + [cuts[0] + two_pi], ws,
                         ws[1:] + ws[:1])))
    heapq.heapify(heap)
    used = 15 * len(heap)
    total = -sum(h[0] for h in heap)
    while total > tol:
        neg, a, b, wa, wb, _ = heap[0]
        parts = _refine(a, b, wa, wb)
        if used + 15 * len(parts) > QUAD_BUDGET or not a < parts[0][1] < b:
            raise QuadratureError(
                f"no convergence below {tol:g} after {used} points "
                f"(error estimate {total:g})", achieved=total)
        heapq.heappop(heap)
        total += neg
        for new in arcs(parts):
            heapq.heappush(heap, new)
            total -= new[0]
        used += 15 * len(parts)
    return (math.fsum(h[5] for h in heap), -math.fsum(h[0] for h in heap))


def _illinois(f, a: float, b: float, fa: float, fb: float) -> float:
    """A zero of f in [a, b], where fa and fb differ in sign."""
    side = 0
    c = a
    for _ in range(100):
        prev, c = c, (a * fb - b * fa) / (fb - fa)
        fc = f(c)
        if fc == 0 or not a < c < b or abs(c - prev) <= 4.0 * _EPS * abs(c):
            return c
        if (fc < 0) == (fa < 0):
            a, fa = c, fc
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side == 1:
                fa *= 0.5
            side = 1
    return c


def _switching_splits(expos, r: float, log_plus: bool = False):
    """(angle, width) splits for integrate_periodic from compiled exponents.

    Each split is an angle on |z| = r where two exponents (for log+ also
    an exponent and the constant 1) have equal real part: a zero of D, the
    real part of their difference, with its width 1/|D'|.  Sign changes
    of D on a grid of 16 points per degree are refined by the Illinois
    method.
    """
    polys = [[w] if rest is None else [c + rest[-1], *rest[-2::-1], w]
             for w, rest, c in expos]
    if log_plus:
        polys.append([0j])
    two_pi = 2.0 * math.pi
    out = []
    for p, q in combinations(polys, 2):
        b = [x - y for x, y in zip_longest(p, q, fillvalue=0j)]
        while len(b) > 1 and b[-1] == 0:
            b.pop()
        if len(b) < 2:
            continue

        def D(t, b=b):
            z = r * complex(math.cos(t), math.sin(t))
            v = 0j
            for c in reversed(b):
                v = v * z + c
            return v.real

        n = 16 * (len(b) - 1)
        ts = [two_pi * k / n for k in range(n + 1)]
        fs = [D(t) for t in ts[:-1]]
        fs.append(fs[0])
        for t0, t1, f0, f1 in zip(ts, ts[1:], fs, fs[1:]):
            if f0 == 0:
                t = t0
            elif f0 * f1 < 0:
                t = _illinois(D, t0, t1, f0, f1)
            else:
                continue
            z = r * complex(math.cos(t), math.sin(t))
            dv = 0j
            for m in range(len(b) - 1, 0, -1):
                dv = dv * z + m * b[m]
            slope = abs((z * dv).imag)
            out.append((t, 1.0 / slope if slope else 0.0))
    return out


def _zero_crossings(u, splits):
    """Zeros of u near the split angles, as extra (angle, 0.0) splits.

    u maps a list of angles to its values there.  It is looked at on t and
    t +- w * 4^k for each split (t, w), out to a quarter of the gap to the
    nearest other split angle (at that quarter alone when w exceeds it),
    all these angles in one call; sign changes are refined by the Illinois
    method.  log+ |g| has its corners at the zeros of u = log |g|.
    """
    two_pi = 2.0 * math.pi
    angles = sorted(t for t, _ in splits)
    grids = []
    for t, w in splits:
        i = angles.index(t)
        quarter = 0.25 * min((angles[(i + 1) % len(angles)] - t) % two_pi
                             or two_pi, (t - angles[i - 1]) % two_pi or two_pi)
        pts = [t]
        d = min(w, quarter)
        while d > 0:
            pts = [t - d] + pts + [t + d]
            d = 4.0 * d if 4.0 * d < quarter else 0.0
        grids.append(pts)
    vals = iter(u([p for pts in grids for p in pts]))
    out = []
    for (t, _), pts in zip(splits, grids):
        fs = [next(vals) for _ in pts]
        for a, b, fa, fb in zip(pts, pts[1:], fs, fs[1:]):
            if fa * fb < 0 and math.isfinite(fa - fb):
                c = _illinois(lambda th: u([th])[0], a, b, fa, fb)
                if abs(c - t) > 4.0 * _EPS * two_pi:
                    out.append((c, 0.0))
    return out


def _positive_finite(name: str, *values):
    """ValueError unless every value is a positive finite number."""
    for x in values:
        if not (x > 0 and math.isfinite(x)):
            raise ValueError(
                f"{name} must be a positive finite number, got {x!r}")


def _on_circle(r: float, thetas) -> list:
    """The points r e^(i theta) of the angles thetas."""
    return [r * complex(math.cos(t), math.sin(t)) for t in thetas]


def characteristic(curve: ProjCurve, r: float, tol: float = 1e-8) -> float:
    """Circle average (1/4pi) int log||f||^2 at radius r."""
    _positive_finite("r", r)
    _positive_finite("tol", tol)
    val, _ = integrate_periodic(
        lambda ths: curve.log_norm_sqs(_on_circle(r, ths)),
        tol * 4.0 * math.pi, _switching_splits(curve.compiled()[0], r),
        smooth=True)
    return val / (4.0 * math.pi)


def _log_abs_on_circle(h: ExpPoly, r: float):
    """thetas -> [log|h(r e^(i theta))|], -inf at an exact zero (a node
    where it lands is retried nearby by integrate_periodic)."""
    expos, terms = h.compiled()

    def log_abs(thetas):
        (vs, ss), = eval_columns(expos, (terms,), _on_circle(r, thetas))
        return [s + math.log(abs(v)) if v != 0 else float("-inf")
                for v, s in zip(vs, ss)]
    return log_abs


def characteristic_scalar(g: ExpPoly, r: float, tol: float = 1e-8) -> float:
    """Classical scalar characteristic (1/2pi) int log+ |g|."""
    _positive_finite("r", r)
    _positive_finite("tol", tol)
    log_abs = _log_abs_on_circle(g, r)

    # the corners of log+ lie near the switching angles against the
    # constant 1, moved by the coefficients and the other terms
    splits = _switching_splits(g.compiled()[0], r, log_plus=True)
    try:
        splits += _zero_crossings(log_abs, splits)
    except OverflowError as exc:
        raise QuadratureError(f"log|g| out of the floating range: "
                              f"{exc}") from exc
    # log+ is max(0.0, u) except that NaN stays NaN for the quadrature to
    # reject (max(0.0, nan) is 0.0)
    val, _ = integrate_periodic(
        lambda ths: [0.0 if u <= 0.0 else u for u in log_abs(ths)],
        tol * 2.0 * math.pi, splits)
    return val / (2.0 * math.pi)


def circle_log_mean(h: ExpPoly, r: float, tol: float = 1e-8) -> float:
    """(1/2pi) int log|h| on the circle of radius r (dips are integrable)."""
    _positive_finite("r", r)
    _positive_finite("tol", tol)
    val, _ = integrate_periodic(_log_abs_on_circle(h, r), tol * 2.0 * math.pi,
                                _switching_splits(h.compiled()[0], r))
    return val / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# winding numbers and counting functions
# ---------------------------------------------------------------------------

_SWEEP0 = 64           # points of the one sweep of a circle
_MAX_DEPTH = 54        # bisections of one arc of the sweep
_MAX_ARCS = 1 << 16    # uncertified arcs one depth may bisect
_SLACK = 2.0 ** -40    # disc widening per unit radius: point rounding


@lru_cache(maxsize=None)
def _grid(n: int) -> tuple:
    """The unit points complex(cos t, sin t), t = 2pi k / n for k < n."""
    return tuple(complex(math.cos(t), math.sin(t))
                 for t in (2.0 * math.pi * k / n for k in range(n)))


def _majorant(moduli, x: float):
    """(p(x), p'(x)) for p with the coefficients moduli, top degree first."""
    val = der = 0.0
    for c in moduli:
        der = der * x + val
        val = val * x + c
    return val, der


def _certificate(h: ExpPoly, radius: float):
    """(floor, log_weights) of the arc certificate of h on |z| = radius.

    For h = sum_k q_k e^{w_k}, w_k = c_k + P_k, within rho of z and with
    bars for coefficient moduli on |w| <= R = |z| + rho, rho |h'| e^{-s} <=
    sum_k rho M_k e^{rho L_k} e^{Re w_k(z) - s}, M_k = qbar_k' + qbar_k
    Pbar_k', L_k = Pbar_k'.  A computed v is within sum_k G_k e^{Re w_k -
    s} of h(z) e^{-s}, G_k = qbar_k (1 + gamma) e^eta expm1(eta + 4 gamma)
    + alpha, with gamma = gamma_n (Higham), n = 8 (D + T + 4) for degree D
    and T terms; eta = 4 gamma max |w_k| + alpha the error of Re w_k - s;
    alpha = 2^-1020 n sum_{j<=D} max(1, R)^j the losses to underflow.  The
    log_weights(rho) hold rho M_k e^{rho L_k + eta} + 3 G_k, rounded up:
    where their eval_columns column is below |v|, no zero is within rho.
    For rho = 0 the column is thrice the error of v at its point, and
    floor, the sum of those weights, bounds it anywhere.
    """
    expos, terms = h.compiled()
    # moduli, top degree first: (P, |c|) per exponent, (q, index) per term
    exps = [((), abs(w)) if rest is None
            else ([abs(w), *map(abs, rest)], abs(c)) for w, rest, c in expos]
    coeffs = [([abs(q), *map(abs, rest)], i) for q, rest, i in terms]
    deg = max([1] + [len(p) - 1 for p, _ in exps + coeffs])
    n = 8 * (deg + len(terms) + 4)
    gamma = n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)
    up = 1.0 + gamma

    def majorants(x):
        """(|w_k|, |q_k|, M_k, L_k) bounded on |w| <= x, per term."""
        es = [(_majorant(p, x), c) for p, c in exps]
        return [(a + c, qx, dq + qx * dp, dp) for ((a, dp), c), (qx, dq)
                in ((es[i], _majorant(q, x)) for q, i in coeffs)]

    x = radius * (1.0 + _SLACK)
    rows = majorants(x)
    alpha = 2.0 ** -1020 * n * _majorant((1.0,) * (deg + 1), max(1.0, x))[0]
    eta = 4.0 * gamma * max((a for a, _, _, _ in rows), default=0.0) + alpha
    grow = up * math.exp(eta) * math.expm1(eta + 4.0 * gamma)
    gs = [q * grow + alpha for _, q, _, _ in rows]

    def log_weights(rho):
        ks = [((rho * m * up * math.exp(y) if (y := rho * dp * up + eta) < 709
                else math.inf) + 3.0 * g) * up ** 3
              for (_, _, m, dp), g in zip(majorants(x + rho) if rho else rows,
                                          gs)]
        # the log and the column's exp round by under 746 u each
        return [math.log(k) + 2.0 ** -42 if k < 1e300 else math.inf
                for k in ks]
    return up * sum(map(math.exp, log_weights(0.0))), log_weights


def _circle_values(h: ExpPoly, radius: float, units, floor: float,
                   log_weights, rho: float) -> tuple:
    """(vs, ok): h's scaled values v at the points radius * u, u in units,
    in one call to eval_columns, and where its bound column for
    log_weights(rho) is below |v|.  An infinite |v|, else a NaN one, or an
    infinite floor raises EvalOverflowError (no nudged radius brings h into
    range).  A |v| at or below its column for log_weights(0), thrice its
    rounding bound, raises WindingError: a zero on or next to the circle;
    that column is built only where |v| is at or below floor.
    """
    expos, terms = h.compiled()
    (vs, _, bs), = eval_columns(expos, (terms,), [radius * u for u in units],
                                (log_weights(rho),))
    sizes = list(map(abs, vs))
    if not sum(sizes) < math.inf:       # an inf or a NaN, or a large sum
        for what, hit in (("not finite on r={} at", math.isinf),
                          ("not a number on r={} near", math.isnan)):
            for u, a in zip(units, sizes):
                if hit(a):
                    raise EvalOverflowError(
                        f"h is {what.format(radius)} theta="
                        f"{cmath.phase(u) % math.tau}: a value out of the "
                        f"floating range")
    if not floor < math.inf:
        raise EvalOverflowError(f"the bound of h's rounding leaves the "
                                f"floating range on r={radius}")
    if min(sizes, default=math.inf) <= floor:
        low = [u for u, a in zip(units, sizes) if a <= floor]
        (lv, _, es), = eval_columns(expos, (terms,), [radius * u for u in low],
                                    (log_weights(0.0),))
        for u, v, e in zip(low, lv, es):
            if abs(v) <= e:
                raise WindingError(f"near-zero on circle r={radius} at "
                                   f"theta={cmath.phase(u) % math.tau}")
    return vs, [b < a for a, b in zip(sizes, bs)]


def _winding_pass(h: ExpPoly, radius: float, floor: float, log_weights):
    """The one sweep of the circle, certified arc by arc: total phase / 2pi.

    Arc k runs from point k of _grid(_SWEEP0) to point k + 1; if the disc
    about one end, of radius its length, holds no zero, its phase change is
    phase(h(z_b) / h(z_a)).  A failed arc is bisected, its midpoint (the
    start turned by half the angle, well inside _SLACK) certifying both
    halves with the weights for half the length, or each half is bisected
    in turn: one eval_columns call per depth.  As every |v| is above
    thrice its rounding bound, each phase errs by under pi/6, and these
    errors cancel between adjacent arcs.  Arcs uncertified after
    _MAX_DEPTH bisections, or more than _MAX_ARCS at one depth (where |h|
    is small along a stretch of the circle, as for a polynomial factor of
    high degree, the bound is far above |h'|), raise WindingError.
    """
    n = _SWEEP0
    units = _grid(n)
    vas, ok = _circle_values(h, radius, units, floor, log_weights,
                             radius * (math.tau / n + _SLACK))
    vbs = vas[1:] + vas[:1]
    ok = [a or b for a, b in zip(ok, ok[1:] + ok[:1])]
    total = 0.0
    for depth in range(_MAX_DEPTH + 1):
        total += sum(map(cmath.phase, map(truediv, compress(vbs, ok),
                                          compress(vas, ok))))
        bad = [not good for good in ok]
        if True not in bad:
            return total / math.tau
        if depth == _MAX_DEPTH or bad.count(True) > _MAX_ARCS:
            raise WindingError(f"{bad.count(True)} arcs not certified on "
                               f"r={radius} at depth {depth}; zero on the "
                               f"circle?")
        vas, vbs, units = (list(compress(xs, bad))
                           for xs in (vas, vbs, units))
        n *= 2
        turn = complex(math.cos(math.tau / n), math.sin(math.tau / n))
        mids = [u * turn for u in units]
        vms, ok = _circle_values(h, radius, mids, floor, log_weights,
                                 radius * (math.tau / n + _SLACK))
        # each failed arc splits into (a, m) and (m, b), in any order
        vas, vbs, units, ok = vas + vms, vms + vbs, units + mids, ok + ok


def winding_number(h: ExpPoly, radius: float) -> int:
    """Zeros of h inside |z| = radius, proved by the argument principle:
    one sweep, every arc certified by a bound on |h'| that folds in the
    rounding of the values (see _certificate).  A value out of the floating
    range raises EvalOverflowError, which zero_count does not retry; a zero
    on or next to the circle raises WindingError.
    """
    try:
        return round(_winding_pass(h, radius, *_certificate(h, radius)))
    except OverflowError as exc:
        raise EvalOverflowError(
            f"h leaves the floating range on r={radius}: {exc}") from exc


_NUDGES = (0.0, 1e-7, -1e-7, 7e-7, -7e-7, 5e-6, -5e-6, 4e-5, -4e-5, 3e-4)


def zero_count(h: ExpPoly, t: float) -> int:
    """n(t): zeros in the open disk of radius t, nudging off near-circle zeros."""
    last = None
    for eps in _NUDGES:
        try:
            return winding_number(h, t * (1.0 + eps))
        except WindingError as exc:
            last = exc
    raise WindingError(f"all probe radii near t={t} failed: {last}")


def counting(curve: ProjCurve, divisor: HomDivisor, r: float,
             tol: float = 1e-3, method: str = "winding") -> float:
    """N_f(D, r): radially integrated zero count of the composed function."""
    return counting_entire(_pullback(curve, divisor), r, tol=tol,
                           method=method)


def _pullback(curve: ProjCurve, divisor: HomDivisor) -> ExpPoly:
    """The entire function whose zeros are f*D; it must not vanish."""
    h = divisor.compose(curve)
    if h.is_zero():
        raise DegenerateCurveError("divisor pulls back to zero on the curve")
    return h


def counting_entire(h: ExpPoly, r: float, tol: float = 1e-3,
                    method: str = "winding") -> float:
    """N(r) = int_R0^r n(t) dt / t for the zeros of h (0 for r <= R0).

    tol bounds the error of the radial integral; see _counting_radii.
    """
    return _counting_radii(h, [r], tol, method)[0]


def _counting_radii(h: ExpPoly, radii, tol: float = 1e-3,
                    method: str = "winding") -> list:
    """N(r) of h at each of the radii, in one pass that shares their work.

    circle-mean takes N(r) = m(r) - m(R0), m the circle mean of log|h|,
    with the base mean m(R0) integrated once.  winding shares one memo of
    the counts n(t) between the radii (see _ladder_counting).
    """
    if h.is_zero():
        raise DegenerateCurveError("cannot count zeros of the zero function")
    _positive_finite("r", *radii)
    _positive_finite("tol", tol)
    if method not in ("winding", "circle-mean"):
        raise ValueError(f"unknown counting method {method!r}")
    out = []
    base = None
    counts = {}
    for r in radii:
        if r <= R0:
            out.append(0.0)
        elif method == "circle-mean":
            mean = circle_log_mean(h, r, tol=tol * 0.25)
            if base is None:
                base = circle_log_mean(h, R0, tol=tol * 0.25)
            out.append(mean - base)
        else:
            out.append(_ladder_counting(h, r, tol, counts))
    return out


def _ladder_counting(h: ExpPoly, r: float, tol: float, counts: dict):
    """N(r) from the integer counts n(t) on a refined ladder of radii.

    counts memoizes t -> n(t).  The ladder runs geometrically from R0 to r
    with about four rungs per doubling.  Since n(t) does not decrease in t,
    its two ends are counted first and the rungs are bisected by index: a
    stretch whose end counts agree takes that count without a sweep.  The
    integral of the resolved step function is exact up to the segments
    still holding a jump; those are halved, the costliest first, until
    their total width in log t times the jump is below tol.
    """

    def n_at(t):
        if t not in counts:
            counts[t] = zero_count(h, t)
        return counts[t]

    k = max(4, int(math.ceil(4 * math.log(r / R0, 2))))
    ladder = [R0 * (r / R0) ** (i / k) for i in range(k + 1)]
    spans = [(0, k)]
    while spans:
        i, j = spans.pop()
        ni = n_at(ladder[i])
        if ni == n_at(ladder[j]):
            for t in ladder[i + 1:j]:
                counts.setdefault(t, ni)
        elif j - i > 1:
            m = (i + j) // 2
            spans += [(m, j), (i, m)]
    segs = []
    for lo, hi in zip(ladder[:-1], ladder[1:]):
        jump = n_at(hi) - n_at(lo)
        if jump:
            heapq.heappush(segs, (-jump * math.log(hi / lo), lo, hi))
    lower = sum(n_at(lo) * math.log(hi / lo)
                for lo, hi in zip(ladder[:-1], ladder[1:]))
    err = -sum(s[0] for s in segs)
    while err > tol and segs:
        neg, lo, hi = heapq.heappop(segs)
        err += neg
        mid = math.sqrt(lo * hi)
        if mid <= lo or mid >= hi:
            # interval at floating resolution; accept midpoint estimate
            lower += (-neg) * 0.5
            continue
        nm = n_at(mid)
        lower += (nm - n_at(lo)) * math.log(hi / mid)
        for a, b in ((lo, mid), (mid, hi)):
            jump = n_at(b) - n_at(a)
            if jump:
                cost = jump * math.log(b / a)
                heapq.heappush(segs, (-cost, a, b))
                err += cost
    return lower + 0.5 * err


# ---------------------------------------------------------------------------
# fits and growth reports
# ---------------------------------------------------------------------------

def fit_linear(xs, ys):
    """Least squares y = a*x + b; returns (a, b, rms_residual)."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two samples to fit")
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit abscissae")
    a = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    b = my - a * mx
    rms = math.sqrt(sum((y - (a * x + b)) ** 2
                        for x, y in zip(xs, ys)) / n)
    return a, b, rms


def log_bound_factor(radii, values) -> float:
    """How far values outgrow the pure-log ray through the first sample.

    For T = c*log r this stays near 1; for polynomial-order growth it blows
    up like r^order / log r.  The factor compares the last sample against
    the ray value (v_first / log r_first) * log r_last.
    """
    v0, v1 = values[0], values[-1]
    r0, r1 = radii[0], radii[-1]
    if r0 <= 1.0 or r1 <= r0:
        raise ValueError("radii must exceed 1 and increase")
    ray = (v0 / math.log(r0)) * math.log(r1)
    if abs(ray) < 1e-9:
        return float("inf") if abs(v1) > 1e-6 else 1.0
    return v1 / ray


def order_estimate(curve: ProjCurve, radii, tol: float = 1e-8) -> GrowthReport:
    """Growth order from a radius schedule.

    fitted_slope is the slope of T against log r (equal to the degree for
    rational curves); fitted_order is the log-log slope, with log-growth
    detected first so bounded-by-log curves report order zero exactly.
    """
    radii = [float(r) for r in radii]
    _positive_finite("r", *radii)
    _positive_finite("tol", tol)
    radii.sort()
    if len(radii) < 4:
        raise ValueError("need at least four radii")
    flags = []
    if radii[-1] / radii[0] < 99.0:
        flags.append("narrow-schedule")
    values = [characteristic(curve, r, tol=tol) for r in radii]
    logs = [math.log(r) for r in radii]
    scale = max(1e-12, max(abs(v) for v in values))
    if max(values) - min(values) < 1e-9 * max(1.0, scale):
        return GrowthReport(radii, values, 0.0, 0.0, flags + ["constant"])
    slope, _, rms = fit_linear(logs, values)
    if rms < 1e-3 * max(1.0, scale):
        return GrowthReport(radii, values, slope, 0.0, flags + ["log-growth"])
    if min(values) <= 0:
        flags.append("nonpositive-T")
    lvals = [math.log(max(v, 1e-12)) for v in values]
    order, _, _ = fit_linear(logs, lvals)
    return GrowthReport(radii, values, slope, order, flags)


# ---------------------------------------------------------------------------
# main theorem checks
# ---------------------------------------------------------------------------

class FmtReport(Record):
    __slots__ = ("radii", "counting", "d_times_T", "fitted_C",
                 "max_violation", "defect", "passed")
    JSON_NAMES = {"passed": "pass"}


def fmt_check(curve: ProjCurve, divisor: HomDivisor, radii,
              tol: float = 0.02, n_method: str = "winding") -> FmtReport:
    """First-main-theorem check: N <= d*T + C with one fitted constant.

    The defect reported is 1 - max_r N/(d*T); the check passes when no
    radius exceeds the fitted constant by more than tol on the scale of
    d*T (and the defect is above -tol).
    """
    radii = sorted(float(r) for r in radii)
    d = divisor.degree
    ns = _counting_radii(_pullback(curve, divisor), radii, method=n_method)
    ts = [d * characteristic(curve, r) for r in radii]
    excess = [n - t for n, t in zip(ns, ts)]
    # the bound is one-sided; calibrate the constant at the smallest radius
    # and flag only upward drift beyond tol on the d*T scale
    c_fit = excess[0]
    scale = max(1.0, max(abs(t) for t in ts))
    max_violation = max(e - c_fit for e in excess) - tol * scale
    ratios = [n / t for n, t in zip(ns, ts) if abs(t) > 1e-9]
    defect = 1.0 - max(ratios) if ratios else 1.0
    passed = max_violation <= 0.0 and defect >= -tol
    return FmtReport(radii, ns, ts, c_fit, max_violation, defect, passed)


def _component_rank(components) -> int:
    """Exact rank of the components over the canonical term basis."""
    coords = [comp.coordinates() for comp in components]
    basis = {key: None for row in coords for key in row}
    return rank_field([[row.get(key, CRat(0)) for key in basis]
                       for row in coords])


def check_general_position(hyperplanes, n: int):
    """Every (n+1)-subset of hyperplane normals must be independent."""
    normals = [h.normal() for h in hyperplanes]
    for idx in combinations(range(len(normals)), n + 1):
        rows = [normals[i] for i in idx]
        if det_field(rows).is_zero():
            raise GeneralPositionError(
                f"hyperplanes {list(idx)} are linearly dependent")


SMT_RESID_TOL = 0.05     # an SMT fit passes below this relative residual


class SmtReport(Record):
    __slots__ = ("radii", "T", "N", "delta", "fit_slope", "fit_intercept",
                 "relative_residual", "log_factor_T", "passed")

    def to_json(self):
        return {"radii": list(self.radii), "T": list(self.T),
                "N": list(self.N), "delta": list(self.delta),
                "fit": {"a": self.fit_slope, "b": self.fit_intercept},
                "relative_residual": self.relative_residual,
                "log_factor_T": self.log_factor_T, "pass": self.passed}


def smt_check(curve: ProjCurve, hyperplanes, radii,
              resid_tol: float = SMT_RESID_TOL,
              n_method: str = "winding") -> SmtReport:
    """Second-main-theorem defect check against a fitted a*log r + b.

    delta(r) = (q-n-1) T(r) - sum_j N(H_j, r) should stay within log-size
    slack; the residual of the log fit is reported relative to the largest
    characteristic value (defects are always measured on the T scale).
    """
    radii = sorted(float(r) for r in radii)
    n = curve.n
    q = len(hyperplanes)
    if q < n + 2:
        raise GeneralPositionError(f"need at least n+2 = {n + 2} hyperplanes")
    for h in hyperplanes:
        if h.degree != 1:
            raise ValueError("smt_check expects hyperplanes")
    check_general_position(hyperplanes, n)
    if _component_rank(curve.components) < n + 1:
        raise DegenerateCurveError("curve is linearly degenerate")
    return _smt_report(curve, radii, q - n - 1, hyperplanes,
                       lambda h, rs: _counting_radii(_pullback(curve, h), rs,
                                                     method=n_method),
                       resid_tol)


def smt_defect_on_sum_relation(components, radii,
                               n_method: str = "winding") -> SmtReport:
    """SMT defect for summand curves living in the hyperplane sum(z) = 0.

    The components must add up to zero exactly and the relation must be the
    only one (minimality): the curve then sits nondegenerately in the sum
    hyperplane, the L coordinate hyperplanes cut it in general position, and
    the defect is delta(r) = T(r) - sum_i N({z_i = 0}, r).
    """
    comps = list(components)
    L = len(comps)
    if L < 3:
        raise DegenerateCurveError("need at least three summands")
    total = comps[0]
    for c in comps[1:]:
        total = total + c
    if not total.is_zero():
        raise DegenerateCurveError("components do not satisfy the sum relation")
    # With sum(c) = 0 and rank L - 1 the relations are exactly the multiples
    # of (1, ..., 1), none of which omits a component: any L - 1 of the
    # components are independent, so minimality needs no further check.
    if _component_rank(comps) != L - 1:
        raise DegenerateCurveError("extra linear relations among the summands")
    radii = sorted(float(r) for r in radii)
    return _smt_report(ProjCurve(comps), radii, 1, comps,
                       lambda c, rs: _counting_radii(c, rs, method=n_method),
                       SMT_RESID_TOL)


def _smt_report(curve, radii, weight, targets, count, resid_tol):
    """delta(r) = weight T(r) - sum_j N_j(r), fitted against a log r + b;
    count(targets[j], radii) gives N_j at all radii.  The residual is taken
    relative to the largest T."""
    ts = [characteristic(curve, r) for r in radii]
    ns = [count(x, radii) for x in targets]
    delta = [weight * t - sum(col[i] for col in ns)
             for i, t in enumerate(ts)]
    a, b, rms = fit_linear([math.log(r) for r in radii], delta)
    rel = rms / max(1.0, max(abs(t) for t in ts))
    factor = log_bound_factor(radii, ts) if radii[0] > 1.0 else float("nan")
    return SmtReport(radii, ts, ns, delta, a, b, rel, factor, rel < resid_tol)


def rational_growth_test(f0: ExpPoly, f1: ExpPoly, radii=None) -> bool:
    """True iff [f0 : f1] has log-bounded growth, i.e. both parts polynomial.

    Decided syntactically on canonical forms; a numeric growth factor over
    the radius schedule guards against an inconsistent build.
    """
    if f1.is_zero():
        raise DegenerateCurveError("f1 must not vanish identically")
    syntactic = f0.is_polynomial() and f1.is_polynomial()
    radii = sorted(float(r) for r in (radii or (4.0, 8.0, 16.0, 32.0)))
    ts = [characteristic(ProjCurve([f0, f1]), r, tol=1e-6) for r in radii]
    if syntactic and abs(ts[0]) > 1e-9 and log_bound_factor(radii, ts) > 10.0:
        raise NevanlinnaError("polynomial data with super-log growth: broken")
    return syntactic
