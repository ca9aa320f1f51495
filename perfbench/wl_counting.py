"""Workload ``counting``: the counting function N by the winding method.

Every job calls ``counting_entire``/``fmt_check`` with the winding method
named explicitly.  It evaluates ``eval_scaled`` one point at a time, through
adaptive phase bisection, nudged radii and the refined radius ladder, so a
batch kernel that helps ``growth`` can leave this path unhelped or slower.
The transcendental targets have fixed radii; the seed draws the planted
polynomial roots and the fmt_check targets.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import refs
from harness import Job, interleave

MODULES = ("curvecomp.nevanlinna",)

ONE = [1, 1, 0, 1]
ZERO = [0, 1, 0, 1]
EXP_MINUS_ONE = [{"coeff": [ONE], "exp": [ZERO, ONE]},
                 {"coeff": [[-1, 1, 0, 1]], "exp": []}]
EXP_Z2_MINUS_ONE = [{"coeff": [ONE], "exp": [ZERO, ZERO, ONE]},
                    {"coeff": [[-1, 1, 0, 1]], "exp": []}]
LINE_CURVE = [[{"coeff": [ONE], "exp": []}], [{"coeff": [ONE],
                                              "exp": [ZERO, ONE]}]]
POLY_R = 1.8
# planted root moduli: all inside the unit circle (the ladder sees no jump)
# or one in the annulus 1 < |a| < r (the ladder is refined around it)
POLY_MODULI = {"poly_inner": (0.5, 0.7, 0.9), "poly_annulus": (0.5, 0.8, 1.4)}
FMT_RADII = (1.5, 2.0, 3.0)

# (kind, radius, jobs per pass).  By cost the annulus polynomials sit across
# the median (ranks 41-90 of 113, the median at 57) and the e^z - 1, r = 10
# block across the 90th percentile (ranks 94-107, the percentile at 102.6).
LAYOUT = (("poly_inner", POLY_R, 40), ("poly_annulus", POLY_R, 50),
          ("exp", 10.0, 14), ("exp", 20.0, 1), ("exp", 40.0, 1),
          ("exp", 80.0, 1), ("exp_z2", 4.0, 1), ("exp_z2", 6.0, 1),
          ("exp_z2", 8.0, 1), ("fmt", None, 3))
# fixed light instances of every kind, so that set-up does the same work
# whatever the seed
WARMUP_ROOTS = {"poly_inner": (0.5, 0.6j, -0.7), "poly_annulus": (0.5, 0.6j,
                                                                 -1.25)}


def _gauss(x):
    """Nearest Gaussian rational with denominator 64."""
    return refs.q(Fraction(round(x.real * 64), 64),
                  Fraction(round(x.imag * 64), 64))


def _poly_from_roots(roots):
    coeffs = [refs.q(1)]                  # ascending
    for a in roots:
        neg = (-a[0], -a[1])
        nxt = [refs.q(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] = refs.qadd(nxt[k + 1], c)
            nxt[k] = refs.qadd(nxt[k], refs.qmul(c, neg))
        coeffs = nxt
    return [refs.q_json(c) for c in coeffs]


def _poly_job(rng, kind):
    roots = [cmath.rect(m * (1 + rng.uniform(-0.03, 0.03)),
                        rng.uniform(0, 2 * math.pi))
             for m in POLY_MODULI[kind]]
    return _poly_with_roots(kind, roots)


def _poly_with_roots(kind, zeros):
    roots = [_gauss(z) for z in zeros]
    h = [{"coeff": _poly_from_roots(roots), "exp": []}]
    return Job(kind, {"h": h, "r": POLY_R,
                        "zeros": [refs.qcomplex(a) for a in roots]})


def _fmt_job(rng, radii=FMT_RADII):
    # |log c| < 0.95: the zero of e^z - c nearest 0 lies inside the unit
    # circle, so every seed costs the same (one in the annulus 1 < |z| < r
    # would double the cost, as for the annulus polynomials)
    c = _gauss(cmath.rect(math.exp(rng.uniform(0.5, 0.8)),
                          rng.uniform(-0.5, 0.5)))
    divisor = [[-c[0].numerator, c[0].denominator, -c[1].numerator,
                c[1].denominator], ONE]
    return Job("fmt", {"curve": LINE_CURVE, "divisor": divisor,
                       "radii": radii, "c": refs.qcomplex(c)})


def make_jobs(seed):
    rng = random.Random(seed)
    groups = []
    for kind, r, n in LAYOUT:
        if kind.startswith("poly"):
            jobs = [_poly_job(rng, kind) for _ in range(n)]
        elif kind == "fmt":
            jobs = [_fmt_job(rng) for _ in range(n)]
        else:
            h = EXP_MINUS_ONE if kind == "exp" else EXP_Z2_MINUS_ONE
            jobs = [Job(kind, {"h": h, "r": r}) for _ in range(n)]
        groups.append((kind, jobs))
    return interleave(groups)


def setup(seed, workdir):
    warm = [_poly_with_roots(kind, roots)
            for kind, roots in WARMUP_ROOTS.items()]
    warm += [Job("exp", {"h": EXP_MINUS_ONE, "r": 2.0}),
             Job("exp_z2", {"h": EXP_Z2_MINUS_ONE, "r": 1.5}),
             _fmt_job(random.Random(0), radii=(1.5, 2.0))]
    return make_jobs(seed), warm


def run(job):
    from curvecomp import nevanlinna as nev
    from curvecomp.expfun import ExpPoly
    d = job.data
    if job.kind == "fmt":
        curve = nev.ProjCurve.from_json({"components": d["curve"]})
        div = nev.HomDivisor.hyperplane(
            [nev.CRat.from_json(c) for c in d["divisor"]])
        return nev.fmt_check(curve, div, d["radii"], n_method="winding")
    return nev.counting_entire(ExpPoly.from_json(d["h"]), d["r"],
                               method="winding")


COUNT_TOL = 1e-3     # counting_entire's default ladder tolerance


def _zeros(job):
    d = job.data
    if job.kind.startswith("poly"):
        return d["zeros"]
    if job.kind == "exp":
        return refs.zeros_exp_minus_c(1, d["r"])
    return refs.zeros_exp_z2_minus_one(d["r"])


def check(job, out, cache):
    d = job.data
    if job.kind == "fmt":
        errs = []
        zeros = refs.zeros_exp_minus_c(d["c"], max(d["radii"]))
        for r, n, dt in zip(out.radii, out.counting, out.d_times_T):
            errs += refs.close(n, refs.counting_from_zeros(zeros, r),
                               COUNT_TOL, f"fmt N({r})")
            errs += refs.close(dt, refs.cached(cache, ("t_exp_line", r),
                                               refs.t_exp_line, r),
                               1e-7, f"fmt T({r})")
        return errs
    return refs.close(out, refs.counting_from_zeros(_zeros(job), d["r"]),
                      COUNT_TOL, f"N({d['r']})")
