"""Workload ``growth``: the characteristic T over a radius ladder.

Nearly all time goes to ``ExpPoly.eval_scaled`` inside the batched trapezoid
levels of ``integrate_periodic``, and the panel count grows with r.  The
order-2 sum curve [e^z : e^{z^2} : -(e^z + e^{z^2})] at r = 8 ... 128 is
the main load; its radii are fixed because the panel count doubles at
thresholds in r, so a seeded radius would move a job's cost by 2x.  The
seed draws the rational curves and the radii of the scalar jobs.
"""

from __future__ import annotations

import math
import random

import refs
from harness import Job, interleave

MODULES = ("curvecomp.nevanlinna",)

ONE = [1, 1, 0, 1]
ZERO = [0, 1, 0, 1]
E_Z = [{"coeff": [ONE], "exp": [ZERO, ONE]}]
E_Z2 = [{"coeff": [ONE], "exp": [ZERO, ZERO, ONE]}]
MINUS_SUM = [{"coeff": [[-1, 1, 0, 1]], "exp": [ZERO, ONE]},
             {"coeff": [[-1, 1, 0, 1]], "exp": [ZERO, ZERO, ONE]}]
ORDER2 = [E_Z, E_Z2, MINUS_SUM]
CONST_ONE = [{"coeff": [ONE], "exp": []}]
QUAD_TOL = 1e-4          # absolute on T: relative 5e-6 at r=8, 2e-8 at r=128
SMT_RADII = (2.0, 4.0, 6.0, 8.0)
ORDER_RADII = (2.0, 4.0, 8.0, 16.0)

# (kind, jobs per pass).  Sorted by cost the list puts the r=8 block across
# the median and the r=32 block across the 90th percentile.
LAYOUT = (("rational", 78), ("scalar_exp", 30), ("order2_r8", 88),
          ("smt", 10), ("order_estimate", 10), ("order2_r16", 20),
          ("order2_r32", 28), ("order2_r64", 6), ("order2_r128", 6))


def _power_curve(d):
    return [CONST_ONE, [{"coeff": [ZERO] * d + [ONE], "exp": []}]]


def _order2_job(r, tol=QUAD_TOL):
    return {"curve": ORDER2, "r": float(r), "tol": tol}


def make_jobs(seed):
    rng = random.Random(seed)
    groups = []
    for kind, n in LAYOUT:
        if kind == "rational":
            jobs = []
            for _ in range(n):
                d = rng.randint(1, 6)
                r = round(math.exp(rng.uniform(math.log(2),
                                               math.log(1000))), 3)
                jobs.append(Job(kind, {"curve": _power_curve(d), "d": d,
                                       "r": r, "tol": 1e-8}))
        elif kind == "scalar_exp":
            jobs = [Job(kind, {"g": E_Z, "r": round(rng.uniform(5, 40), 3),
                               "tol": QUAD_TOL}) for _ in range(n)]
        elif kind == "smt":
            jobs = [Job(kind, {"components": ORDER2, "radii": SMT_RADII})
                    for _ in range(n)]
        elif kind == "order_estimate":
            jobs = [Job(kind, {"curve": ORDER2, "radii": ORDER_RADII,
                               "tol": QUAD_TOL}) for _ in range(n)]
        else:
            r = int(kind.split("_r")[1])
            jobs = [Job("order2", _order2_job(r)) for _ in range(n)]
        groups.append((kind, jobs))
    return interleave(groups)


def setup(seed, workdir):
    warm = [Job("rational", {"curve": _power_curve(1), "d": 1, "r": 2.0,
                             "tol": 1e-8}),
            Job("scalar_exp", {"g": E_Z, "r": 2.0, "tol": 1e-3}),
            Job("order2", _order2_job(2.0)),
            Job("smt", {"components": ORDER2, "radii": (2.0, 2.5, 3.0)}),
            Job("order_estimate", {"curve": ORDER2, "radii": (2.0, 2.5, 3.0,
                                                              3.5),
                                   "tol": 1e-3})]
    return make_jobs(seed), warm


def run(job):
    from curvecomp import nevanlinna as nev
    from curvecomp.expfun import ExpPoly
    d = job.data
    if job.kind in ("order2", "rational"):
        curve = nev.ProjCurve.from_json({"components": d["curve"]})
        return nev.characteristic(curve, d["r"], tol=d["tol"])
    if job.kind == "scalar_exp":
        return nev.characteristic_scalar(ExpPoly.from_json(d["g"]), d["r"],
                                         tol=d["tol"])
    if job.kind == "smt":
        comps = [ExpPoly.from_json(c) for c in d["components"]]
        return nev.smt_defect_on_sum_relation(comps, d["radii"],
                                              n_method="circle-mean")
    if job.kind == "order_estimate":
        curve = nev.ProjCurve.from_json({"components": d["curve"]})
        return nev.order_estimate(curve, d["radii"], tol=d["tol"])
    raise ValueError(job.kind)


def check(job, out, cache):
    d = job.data
    if job.kind == "rational":
        return refs.close(out, refs.t_rational(d["d"], d["r"]),
                          10 * d["tol"], f"T[1:z^{d['d']}]({d['r']})")
    if job.kind == "scalar_exp":
        return refs.close(out, refs.t0_exp(d["r"]), 10 * d["tol"],
                          f"T0(e^z)({d['r']})")
    if job.kind == "order2":
        want = refs.cached(cache, ("order2", d["r"]), refs.t_order2, d["r"])
        return refs.close(out, want, 10 * d["tol"], f"T order-2 ({d['r']})")
    if job.kind == "order_estimate":
        errs = []
        for r, v in zip(out.radii, out.values):
            want = refs.cached(cache, ("order2", r), refs.t_order2, r)
            errs += refs.close(v, want, 10 * d["tol"],
                               f"order_estimate T({r})")
        return errs
    if job.kind == "smt":
        # T from the reference quadrature (default tol 1e-8); N of the
        # components from their closed-form zeros: e^z and e^{z^2} have
        # none, -(e^z + e^{z^2}) vanishes where z^2 - z = i pi (2k + 1)
        errs = []
        for r, t in zip(out.radii, out.T):
            want = refs.cached(cache, ("order2", r), refs.t_order2, r)
            errs += refs.close(t, want, 1e-7, f"smt T({r})")
        zero_sets = ([], [], refs.zeros_exp_sum(max(out.radii)))
        for j, (col, zeros) in enumerate(zip(out.N, zero_sets)):
            for r, n in zip(out.radii, col):
                errs += refs.close(n, refs.counting_from_zeros(zeros, r),
                                   1e-3, f"smt N(component {j}, {r})")
        return errs
    return [f"unknown kind {job.kind}"]
