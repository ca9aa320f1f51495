"""Workload ``exact``: the exact engines.

Time goes to Fraction/CRat arithmetic, ``det_field``, ``resultant_bivariate``,
gcds, ``exact_roots`` and the vanishing-subset search, with almost no complex
evaluation.  Job kinds: plane-curve intersections (half with a planted
rational meeting point, so both the exact-snap and the numeric root paths
run), normal crossings and the quadric/line exclusion on seeded and planted
configurations, the degeneracy pipeline on case-2 instances, minimal
vanishing subsets with planted groups, cyclic-cover round trips and Chern
invariants.  Degree patterns, subset sizes and batch sizes are fixed so that
each engine keeps its share of the run whatever the seed; the seed draws the
coefficients, points and matrices.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from itertools import product

import refs
from harness import Job, interleave

MODULES = ("curvecomp.planeconf", "curvecomp.borel", "curvecomp.covering",
           "curvecomp.chern")

# intersection degree pairs; each pair appears planted and unplanted
PAIRS = ((1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (3, 3), (2, 4))
SUBSET_GROUPS = {6: (3, 3), 8: (2, 3, 3), 11: (3, 4, 4)}
# batch sizes set each kind's cost: a pipeline job (3-40 ms) is cheaper
# than the median, and a cover job costs about what a chern job does
PIPELINE_BATCH = 1
COVER_BATCH = 6
CHERN_SURFACES, CHERN_TRIPLES = 40, 100    # 4000 (a; b) rows per job

# (kind, jobs per pass).  By cost the pipelines, the lines, (1,2) and the
# 6-term subsets sit below the median; the chern and cover batches with the
# 8-term subsets, the tangent crossings and the (1,3), (2,2) intersections
# form the block of 30-60 ms jobs across it; the 11-term subset searches,
# the (2,4), (3,3) intersections, the cubic crossings and the exclusions
# form the block of 0.2-1 s jobs across the 90th percentile.
LAYOUT = (("chern", 28), ("cover", 28), ("pipeline", 28), ("intersect", 28),
          ("nc_lines", 5), ("nc_tangent", 5), ("nc_cubic", 3),
          ("exclusion_planted", 1), ("exclusion_generic", 1),
          ("subsets_6", 6), ("subsets_8", 6), ("subsets_11", 16))
# kinds left out of the warm-up: they run the code of a warmed kind
# (nc_lines, subsets_6/8) at many times its cost
HEAVY = ("exclusion_planted", "exclusion_generic", "nc_cubic", "subsets_11")

# the flagged configuration of the exclusion search: two cubics totally
# tangent to x2 = 0 and a quadric through both contact points
FLAGGED = (
    {(0, 3, 0): 1, (0, 0, 3): -1, (2, 0, 1): -1},
    {(1, 1, 0): 1, (0, 0, 2): -1},
    {(3, 0, 0): 1, (0, 2, 1): -1, (0, 0, 3): 1},
)


# ---------------------------------------------------------------------------
# plain-data polynomials: {exponent tuple: Fraction}
# ---------------------------------------------------------------------------

def _monos(d):
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]


def _curve_json(poly):
    return {"monomials": [{"exponents": list(e),
                           "coeff": [c.numerator, c.denominator]}
                          for e, c in sorted(poly.items()) if c]}


def _plain(poly):
    return [(e, refs.q(c)) for e, c in poly.items() if c]


def _point_value(e, p):
    return p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]


def _random_poly(rng, d, through=None):
    """Nonzero small-integer coefficients; one adjusted to pass through a
    given rational point."""
    poly = {e: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
            for e in _monos(d)}
    if through is not None:
        fixable = [e for e in poly if _point_value(e, through)]
        e0 = fixable[rng.randrange(len(fixable))]
        rest = sum(c * _point_value(e, through) for e, c in poly.items()
                   if e != e0)
        poly[e0] = -rest / _point_value(e0, through)
    return poly


def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _substitute(poly, m):
    """poly(M y): x_i = sum_j M[i][j] y_j."""
    lin = [{tuple(int(k == j) for k in range(3)): Fraction(m[i][j])
            for j in range(3) if m[i][j]} for i in range(3)]
    out = {}
    for e, c in poly.items():
        term = {(0, 0, 0): Fraction(c)}
        for i, k in enumerate(e):
            for _ in range(k):
                term = _mul(term, lin[i])
        for et, ct in term.items():
            out[et] = out.get(et, 0) + ct
    return {e: c for e, c in out.items() if c}


def _rational_point(rng):
    return tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                 for _ in range(3))


def _degree(poly):
    return max(sum(e) for e in poly)


def _contains_line(curve, line):
    """Does the curve vanish on the whole line?  A degree-d form that is
    zero at d + 2 distinct points of the line is zero on it."""
    a = [line.get(tuple(int(i == k) for i in range(3)), Fraction(0))
         for k in range(3)]
    if a[2]:
        p, q = (a[2], 0, -a[0]), (0, a[2], -a[1])
    elif a[1]:
        p, q = (a[1], -a[0], 0), (0, 0, 1)
    else:
        p, q = (0, 1, 0), (0, 0, 1)
    pts = [q] + [tuple(x + k * y for x, y in zip(p, q))
                 for k in range(_degree(curve) + 1)]
    return all(sum(c * _point_value(e, pt) for e, c in curve.items()) == 0
               for pt in pts)


def _coprime(c1, c2):
    """Independent test for the pairs the generators draw: a line shares a
    component only by lying in the other curve.  Two dense random curves of
    degree >= 2 share one only if both are reducible; that is not tested."""
    if _degree(c1) == 1:
        return not _contains_line(c2, c1)
    if _degree(c2) == 1:
        return not _contains_line(c1, c2)
    return True


class _Gen:
    """Seeded input generator.  Each curve is vetted by the program's own
    constructor (squarefree) and the curves of a pair or configuration by
    ``_coprime``; a failing draw is drawn again, so that no job fails on
    malformed input."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def curve(self, d, through=None):
        from curvecomp.planeconf import PlaneCurve
        while True:
            poly = _random_poly(self.rng, d, through)
            try:
                PlaneCurve.from_json(_curve_json(poly))
                return poly
            except ValueError:
                continue

    def config(self, draw):
        """Curves from ``draw()``, drawn again until pairwise coprime."""
        while True:
            curves = draw()
            if all(_coprime(curves[i], curves[j])
                   for i in range(len(curves))
                   for j in range(i + 1, len(curves))):
                return curves

    def intersect(self, d1, d2, planted):
        p = _rational_point(self.rng) if planted else None
        c1, c2 = self.config(lambda: [self.curve(d1, p), self.curve(d2, p)])
        return {"curves": [_curve_json(c1), _curve_json(c2)],
                "plain": [_plain(c1), _plain(c2)],
                "degrees": (d1, d2), "planted": p and [refs.q(x) for x in p]}

    def nc(self, kind):
        rng = self.rng
        if kind == "nc_lines":
            p = _rational_point(rng)
            curves = self.config(lambda: [self.curve(1, p) for _ in range(3)])
            expect = {"triple": [refs.q(x) for x in p]}
        elif kind == "nc_tangent":
            p = _rational_point(rng)

            def draw():
                conic = self.curve(2, p)
                grad = [sum(c * e[k] * _point_value(
                    tuple(x - (i == k) for i, x in enumerate(e)), p)
                    for e, c in conic.items() if e[k]) for k in range(3)]
                tangent = {tuple(int(i == k) for i in range(3)): grad[k]
                           for k in range(3) if grad[k]}
                return [conic, tangent, self.curve(1)]
            curves = self.config(draw)
            expect = {"tangent_pair": [0, 1]}
        else:
            curves = self.config(lambda: [self.curve(3), self.curve(2),
                                          self.curve(1)])
            expect = {}
        return {"config": {"curves": [_curve_json(c) for c in curves]},
                "plain": [_plain(c) for c in curves],
                "degrees": [_degree(c) for c in curves],
                "expect": expect}

    def exclusion(self, planted):
        rng = self.rng
        if planted:
            # a seeded signed permutation of the coordinates: it keeps the
            # polynomials sparse, so the search costs the same every seed
            perm = rng.sample(range(3), 3)
            m = [[rng.choice((-1, 1)) * int(j == perm[i]) for j in range(3)]
                 for i in range(3)]
            curves = [_substitute(c, m) for c in FLAGGED]
            expect = [refs.q(x) for x in m[2]]
        else:
            curves = self.config(lambda: [self.smooth(3), self.smooth(2),
                                          self.curve(1)])
            expect = None
        return {"config": {"curves": [_curve_json(c) for c in curves]},
                "quadric": _plain(curves[1]), "expect_line": expect}

    def smooth(self, d):
        from curvecomp.planeconf import PlaneCurve
        while True:
            poly = self.curve(d)
            if PlaneCurve.from_json(_curve_json(poly)).is_smooth():
                return poly

    def _frac(self, nonzero=False):
        while True:
            v = Fraction(self.rng.randint(-4, 4), self.rng.randint(1, 3))
            if v or not nonzero:
                return v

    def case2(self):
        """Vanishing single-class sum with exponents p1, p2 = rho p1 + c;
        the planted pair is (lambda, gamma) = (1, 1/rho)."""
        rng = self.rng
        deg = rng.randint(1, 2)
        p1 = [self._frac() for _ in range(deg)] + [self._frac(True)]
        rho = self._frac(True)
        p2 = [rho * c for c in p1]
        p2[0] += self._frac()
        m = rng.randint(1, 4)
        idx = sorted(rng.sample(range(m + 1), rng.randint(2, m + 1)))
        while True:
            coeffs = {i: self._frac(True) for i in idx[:-1]}
            acc = sum(c * rho ** (m - i) for i, c in coeffs.items())
            last = -acc / rho ** (m - idx[-1])
            if last:
                coeffs[idx[-1]] = last
                break
        terms = [{"coeff": [c.numerator, c.denominator], "i": i, "j": m - i,
                  "k": i} for i, c in sorted(coeffs.items())]
        return {"sum": {"M": m, "p1": [refs.q_json(refs.q(c)) for c in p1],
                        "p2": [refs.q_json(refs.q(c)) for c in p2],
                        "terms": terms},
                "planted": (Fraction(1), 1 / rho)}

    def subsets(self, n):
        """One rational class of n terms made of planted vanishing groups.

        p2 = rho p1, so a term (c, i, j, k) is c rho^(M-i) (p1')^M
        exp(((i + j) + rho (M - i + k)) p1); every term sits on the line
        (i + j) + rho (M - i + k) = S and a group vanishes when its weighted
        coefficients c rho^(M-i) sum to zero.
        """
        rng = self.rng
        rho = Fraction(rng.choice((2, 3)))
        m = 2
        target = 2 * m + 4
        line = [(i, j, k) for i in range(m + 1) for j in range(8)
                for k in range(8) if (i + j) + rho * (m - i + k) == target]
        p1 = [Fraction(0)] + [self._frac(True) for _ in range(2)]
        terms = []
        for g in SUBSET_GROUPS[n]:
            picks = [line[rng.randrange(len(line))] for _ in range(g)]
            ws = [rho ** (m - i) for i, _, _ in picks]
            # wide coefficients: no accidental vanishing subset besides the
            # planted groups, so the search does the same tests every seed
            cs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 999),
                           rng.randint(1, 97)) for _ in range(g - 1)]
            cs.append(-sum(c * w for c, w in zip(cs, ws)) / ws[-1])
            terms += [{"coeff": [c.numerator, c.denominator], "i": i, "j": j,
                       "k": k} for c, (i, j, k) in zip(cs, picks)]
        return {"sum": {"M": m, "p1": [refs.q_json(refs.q(c)) for c in p1],
                        "p2": [refs.q_json(refs.q(rho * c)) for c in p1],
                        "terms": terms},
                "rho": rho}

    def form(self):
        """coeff z1^a z2^c dz1^i dz2^(m-i) and a branching order b."""
        rng = self.rng
        b = rng.choice((2, 3))
        m = rng.randint(1, 2)
        i = rng.randint(0, m)
        a, c = rng.randint(0, 2), rng.randint(0, 2)
        coeff = refs.q(rng.randint(1, 4), rng.randint(-2, 2))
        cs = [{"num": []} for _ in range(m + 1)]
        cs[i] = {"num": [{"exponents": [a, c], "coeff": refs.q_json(coeff)}]}
        return {"b": b, "form": {"M": m, "basis": "plain", "coeffs": cs},
                "monomial": (m, i, a, c, coeff)}

    def cover(self):
        return {"forms": [self.form() for _ in range(COVER_BATCH)]}

    def chern(self):
        """Every pairing of seeded surfaces and curve-degree triples, the
        plane among the surfaces, led by (1; 2,2,2) and (1; 2,2,3)."""
        rng = self.rng
        surfaces = [(1,)] + [tuple(rng.randint(1, 4)
                                   for _ in range(rng.randint(1, 2)))
                             for _ in range(CHERN_SURFACES - 1)]
        triples = [(2, 2, 2), (2, 2, 3)] + [
            tuple(rng.randint(1, 10) for _ in range(3))
            for _ in range(CHERN_TRIPLES - 2)]
        return {"rows": [(a, b) for a in surfaces for b in triples]}


def make_jobs(seed):
    gen = _Gen(seed)
    groups = []
    for kind, n in LAYOUT:
        if kind == "intersect":
            jobs = [Job(kind, gen.intersect(d1, d2, planted))
                    for _, (d1, d2), planted in product(
                        range(n // (2 * len(PAIRS))), PAIRS, (True, False))]
        elif kind.startswith("nc_"):
            jobs = [Job(kind, gen.nc(kind)) for _ in range(n)]
        elif kind.startswith("exclusion"):
            jobs = [Job(kind, gen.exclusion(kind.endswith("planted")))
                    for _ in range(n)]
        elif kind == "pipeline":
            jobs = [Job(kind, [gen.case2() for _ in range(PIPELINE_BATCH)])
                    for _ in range(n)]
        elif kind.startswith("subsets"):
            jobs = [Job(kind, gen.subsets(int(kind.split("_")[1])))
                    for _ in range(n)]
        else:
            jobs = [Job(kind, getattr(gen, kind)()) for _ in range(n)]
        groups.append((kind, jobs))
    return interleave(groups)


def setup(seed, workdir):
    jobs = make_jobs(seed)
    warm, seen = [], set()
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            warm.append(job)
    return jobs, [w for w in warm if w.kind not in HEAVY]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run(job):
    d = job.data
    kind = job.kind
    if kind == "intersect":
        from curvecomp.planeconf import PlaneCurve, intersection_points
        c1, c2 = (PlaneCurve.from_json(c) for c in d["curves"])
        return intersection_points(c1, c2, seed=0)
    if kind.startswith("nc_"):
        from curvecomp.planeconf import Configuration, normal_crossings
        return normal_crossings(Configuration.from_json(d["config"]))
    if kind.startswith("exclusion"):
        from curvecomp.planeconf import Configuration, quadric_line_exclusion
        return quadric_line_exclusion(Configuration.from_json(d["config"]))
    if kind == "pipeline":
        from curvecomp.borel import ExpSum, degeneracy_pipeline
        return [degeneracy_pipeline(ExpSum.from_json(c["sum"])) for c in d]
    if kind.startswith("subsets"):
        from curvecomp.borel import ExpSum, minimal_vanishing_subsets
        return minimal_vanishing_subsets(ExpSum.from_json(d["sum"]))
    if kind == "cover":
        from curvecomp.covering import (CyclicCover, SymForm, norm_form,
                                        pull_back_cyclic, push_down)
        out = []
        for f in d["forms"]:
            cover = CyclicCover(f["b"])
            nf = norm_form(SymForm.from_json(f["form"]), cover)
            pushed = push_down(nf, cover)
            out.append((nf, pushed, pull_back_cyclic(pushed, cover)))
        return out
    if kind == "chern":
        from curvecomp.chern import CIData, invariants
        return [invariants(CIData(a, b)) for a, b in d["rows"]]
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _exact_coords(pt_json):
    return [refs.q_from_json(c) for c in pt_json["coords"]]


def _numeric_coords(pt_json):
    if pt_json["exact"]:
        return [refs.qcomplex(c) for c in _exact_coords(pt_json)]
    return [complex(re, im) for re, im in pt_json["coords"]]


def _on_curve(plain, pt_json):
    if pt_json["exact"]:
        return refs.qzero(refs.eval_monos(plain, _exact_coords(pt_json)))
    x = _numeric_coords(pt_json)
    scale = max(abs(v) for v in x)
    x = [v / scale for v in x]
    size = sum(abs(refs.qcomplex(c)) for _, c in plain)
    return abs(refs.eval_monos_numeric(plain, x)) <= 1e-8 * size


def _has_point(points, target):
    want = [refs.qcomplex(c) for c in target]
    for pj in points:
        if pj["exact"] and refs.proj_equal_exact(_exact_coords(pj), target):
            return True
        if not pj["exact"] and refs.proj_close(_numeric_coords(pj), want,
                                               1e-8):
            return True
    return False


def _check_intersect(d, out):
    errs = []
    d1, d2 = d["degrees"]
    total = sum(m for _, m in out)
    if total != d1 * d2:
        errs.append(f"Bezout total {total} != {d1 * d2}")
    pts = [p.to_json() for p, _ in out]
    for pj in pts:
        if pj["exact"] and not all(_on_curve(c, pj) for c in d["plain"]):
            errs.append(f"exact point {pj['coords']} is off a curve")
    if d["planted"] and not _has_point(pts, d["planted"]):
        errs.append("planted meeting point not found")
    return errs


def _check_nc(d, out):
    errs = []
    rep = out.to_json()
    deg = d["degrees"]
    for pair in rep["pairwise"]:
        i, j = pair["pair"]
        if pair["bezout_total"] != deg[i] * deg[j]:
            errs.append(f"pair {i},{j}: Bezout total {pair['bezout_total']}")
    for pj in rep["triple_points"]:
        if not all(_on_curve(c, pj) for c in d["plain"]):
            errs.append("triple point off a curve")
    exp = d["expect"]
    if "triple" in exp and (rep["pass"]
                            or not _has_point(rep["triple_points"],
                                              exp["triple"])):
        errs.append("planted triple point not reported")
    if "tangent_pair" in exp:
        worst = {tuple(p["pair"]): p["worst_multiplicity"]
                 for p in rep["pairwise"]}
        if rep["pass"] or worst[tuple(exp["tangent_pair"])] < 2:
            errs.append("planted tangency not reported")
    return errs


def _check_exclusion(d, out):
    errs = []
    rep = out.to_json()
    for v in rep["violations"]:
        for key in ("P", "Q"):
            if v[key]["exact"] and not _on_curve(d["quadric"], v[key]):
                errs.append(f"violation point {key} is off the quadric")
    line = d["expect_line"]
    if line is not None:
        found = any(v["exact"] and refs.proj_equal_exact(
            [refs.q_from_json(c) for c in v["line"]["dual"]], line)
            for v in rep["violations"])
        if rep["pass"] or not found:
            errs.append("planted excluded line not flagged")
    return errs


def _check_pipeline(d, out):
    errs = []
    for case, res in zip(d, out):
        if res.kind != "case2_proportional":
            errs.append(f"pipeline verdict {res.kind}")
            continue
        errs += check_case2(case, refs.q_from_json(res.lam.to_json()),
                            refs.q_from_json(res.gam.to_json()))
    return errs


def check_case2(d, lam, gam):
    """(lambda, gamma) is proportional to the planted pair and verifies."""
    lam0, gam0 = (refs.q(x) for x in d["planted"])
    errs = []
    if not refs.qzero(refs.qadd(refs.qmul(lam, gam0),
                                refs.qmul((-gam[0], -gam[1]), lam0))):
        errs.append("(lambda, gamma) not proportional to the planted pair")
    # verify(p1, p2): lambda p1' == gamma p2', coefficient by coefficient
    p1 = [refs.q_from_json(c) for c in d["sum"]["p1"]]
    p2 = [refs.q_from_json(c) for c in d["sum"]["p2"]]
    n = max(len(p1), len(p2))
    p1 += [refs.q(0)] * (n - len(p1))
    p2 += [refs.q(0)] * (n - len(p2))
    for k in range(1, n):
        a = refs.qmul(lam, refs.qmul(refs.q(k), p1[k]))
        b = refs.qmul(gam, refs.qmul(refs.q(k), p2[k]))
        if a != b:
            errs.append("lambda p1' != gamma p2'")
            break
    return errs


def _term_key(t):
    return (tuple(refs.q_from_json(t["coeff"])), t["i"], t["j"], t["k"])


def _check_subsets(d, out):
    errs = []
    rho = d["rho"]
    m = d["sum"]["M"]
    got = []
    for sub in out:
        js = sub.to_json()
        groups = {}
        for t in js["terms"]:
            c = refs.q_from_json(t["coeff"])
            e = (t["i"] + t["j"]) + rho * (m - t["i"] + t["k"])
            w = refs.qmul(c, refs.q(rho ** (m - t["i"])))
            groups[e] = refs.qadd(groups.get(e, refs.q(0)), w)
        if not all(refs.qzero(v) for v in groups.values()):
            errs.append("a returned subset does not realize to zero")
        got += [_term_key(t) for t in js["terms"]]
    want = [_term_key(t) for t in d["sum"]["terms"]]
    if sorted(got) != sorted(want):
        errs.append("the subsets do not partition the terms")
    return errs


_PROBES = (complex(0.7, 0.2), complex(-1.3, 0.5), complex(0.4, -1.1))


def _ratfunc(cj, z):
    den = cj.get("den") or [{"exponents": [0, 0], "coeff": [1, 1, 0, 1]}]
    return refs.eval_mpoly_json(cj["num"], z) / refs.eval_mpoly_json(den, z)


def check_pushed(f, pj):
    """The push-down equals the closed form of refs.pushed_monomial_form."""
    M, idx, (e1, e2), val = refs.pushed_monomial_form(f["b"], *f["monomial"])
    want = [[] for _ in range(M + 1)]
    want[idx] = [{"exponents": [e1, e2], "coeff": refs.q_json(val)}]
    got = [cj["num"] for cj in pj["coeffs"]]
    one = [{"exponents": [0, 0], "coeff": [1, 1, 0, 1]}]
    if pj["M"] != M or pj["basis"] != "log1" or got != want or any(
            cj.get("den", one) != one for cj in pj["coeffs"]):
        return [f"b={f['b']}: push-down differs from the closed form"]
    return []


def _check_cover(d, out):
    errs = []
    for f, (nf, pushed, back) in zip(d["forms"], out):
        b = f["b"]
        nfj, bj = nf.to_json(), back.to_json()
        zeta = cmath.exp(2j * cmath.pi / b)
        for z1, z2 in zip(_PROBES, _PROBES[1:] + _PROBES[:1]):
            for k, cj in enumerate(nfj["coeffs"]):
                v = _ratfunc(cj, (z1, z2))
                rot = _ratfunc(cj, (zeta * z1, z2)) * zeta ** k
                if abs(rot - v) > 1e-9 * (1 + abs(v)):
                    errs.append(f"b={b}: norm form not deck invariant")
                back_v = _ratfunc(bj["coeffs"][k], (z1, z2))
                if abs(back_v - z1 ** k * v) > 1e-9 * (1 + abs(v)):
                    errs.append(f"b={b}: pull-back of the push-down differs")
        errs += check_pushed(f, pushed.to_json())
    return sorted(set(errs))


def _check_chern(d, out):
    errs = []
    for (a, b), rep in zip(d["rows"], out):
        rj = rep.to_json()
        if not refs.chern_identity_holds(rj):
            errs.append(f"Chern identity fails at {a};{b}")
        if a == (1,):
            want = refs.plane_chern(b)
            if any(rj[k] != v for k, v in want.items()):
                errs.append(f"plane invariants differ at {b}")
    vals = [rep.c1sq_minus_c2 for rep in out[:2]]
    if vals != [0, 1]:
        errs.append(f"(1;2,2,2)/(1;2,2,3) give {vals}, want [0, 1]")
    return errs


_CHECKS = {"intersect": _check_intersect, "pipeline": _check_pipeline,
           "cover": _check_cover, "chern": _check_chern}


def check(job, out, cache):
    kind = job.kind
    if kind.startswith("nc_"):
        return _check_nc(job.data, out)
    if kind.startswith("exclusion"):
        return _check_exclusion(job.data, out)
    if kind.startswith("subsets"):
        return _check_subsets(job.data, out)
    return _CHECKS[kind](job.data, out)
