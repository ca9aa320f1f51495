"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from curvecomp.borel import (ExpSum, ExpTerm, NotAnIdentityError,
                             degeneracy_pipeline, random_case2_instance,
                             realize)
from curvecomp.chern import (CIData, classify_main2, identity_check_main2c,
                             invariants)
from curvecomp.covering import (CyclicCover, SymForm, deck_pullback,
                                express_log_basis, express_plain_basis,
                                is_deck_invariant, norm_form,
                                pull_back_cyclic, push_down)
from curvecomp.expfun import ExpPoly
from curvecomp.nevanlinna import (HomDivisor, ProjCurve, characteristic,
                                  characteristic_scalar, counting, fit_linear,
                                  fmt_check, log_bound_factor,
                                  smt_defect_on_sum_relation)
from curvecomp.planeconf import (Configuration, NonCoprimeError, PlaneCurve,
                                 intersection_points, normal_crossings,
                                 quadric_line_exclusion, surviving_cases,
                                 two_puncture_case_engine)
from curvecomp.polys import MPoly, Poly, RatFunc
from curvecomp.scalars import CRat

from conftest import XI, XI2, exp_of, mp3, poly


def _report(num, message, t0, budget=None):
    dt = time.time() - t0
    line = f"[PASS] criterion {num}: {message} ({dt:.2f}s"
    if budget is not None:
        assert dt < budget, f"criterion {num} exceeded its {budget}s budget"
        line += f" < {budget:g}s"
    print(line + ")")


def test_criterion_1_borderline_reproduction():
    t0 = time.time()
    assert invariants(CIData([1], (2, 2, 2))).c1sq_minus_c2 == 0
    assert invariants(CIData([1], (2, 2, 3))).c1sq_minus_c2 == 1
    for b in combinations_with_replacement(range(1, 11), 3):
        verdict = classify_main2(CIData([1], b))
        expected = min(b) >= 2 and max(b) >= 3
        if expected:
            assert verdict.main2_case == "c", b
        if b == (2, 2, 2):
            assert verdict.main2_case == "none"
    _report(1, "plane borderline values and exhaustive classifier b <= 10",
            t0, budget=1.0)


def test_criterion_2_identity_suite():
    t0 = time.time()
    for b in product(range(1, 21), repeat=3):
        assert identity_check_main2c(b)
    surfaces = []
    for r in (1, 2, 3):
        surfaces.extend(combinations_with_replacement(range(1, 7), r))
    for a in surfaces:
        for b in combinations_with_replacement(range(1, 11), 3):
            rep = invariants(CIData(a, b))  # constructor asserts the identity
            assert rep.c1sq_minus_c2 == rep.gamma_sq - rep.euler_surface \
                + rep.euler_C
    _report(2, "both plane expansions (b <= 20) and the Chern identity "
               "(a_i <= 6, r <= 3, b_i <= 10), exhaustively exact", t0)


def test_criterion_3_euler_cross_checks():
    t0 = time.time()
    assert invariants(CIData([1], (1, 1, 1))).euler_surface == 3
    assert invariants(CIData([2], (1, 1, 1))).euler_surface == 4
    assert invariants(CIData([5], (1, 1, 1))).euler_surface == 55
    for bj in range(1, 11):
        e = invariants(CIData([1], (bj, 1, 1))).euler_components[0]
        assert e == 2 - (bj - 1) * (bj - 2)
    _report(3, "surface Euler numbers 3/4/55 and plane-curve 2-2g", t0,
            budget=1.0)


def test_criterion_4_nevanlinna_numerics():
    t0 = time.time()
    one = ExpPoly.constant(1)
    e_xi = exp_of(XI)
    for r in (5.0, 10.0, 20.0):
        v = characteristic_scalar(e_xi, r, tol=1e-6)
        assert abs(v - r / math.pi) <= 0.01 * (r / math.pi)
    radii = [10.0, 31.6, 100.0, 316.0, 1000.0]
    logs = [math.log(r) for r in radii]
    for d in (1, 3, 5):
        comp = ExpPoly.from_poly(poly(*([0] * d + [1])))
        vals = [characteristic(ProjCurve([one, comp]), r, tol=1e-7)
                for r in radii]
        slope, _, _ = fit_linear(logs, vals)
        assert abs(slope - d) <= 0.01, (d, slope)
    suite = [
        (ProjCurve([one, e_xi]), HomDivisor.hyperplane([CRat(-1), CRat(1)])),
        (ProjCurve([one, e_xi]), HomDivisor.hyperplane([CRat(0), CRat(1)])),
        (ProjCurve([one, ExpPoly.from_poly(XI2)]),
         HomDivisor.hyperplane([CRat(0), CRat(1)])),
    ]
    for curve, divisor in suite:
        rep = fmt_check(curve, divisor, [5.0, 10.0, 20.0], tol=0.02)
        assert rep.passed and rep.defect >= -0.02
    n20 = counting(ProjCurve([one, e_xi]),
                   HomDivisor.hyperplane([CRat(-1), CRat(1)]), 20.0)
    assert abs(n20 - 20 / math.pi) <= 0.02 * (20 / math.pi)
    _report(4, "T0(exp) to 1%, rational slopes to 0.01, documented "
               "first-main-theorem suite, N(e^x=1,20) to 2%", t0, budget=30.0)


WITNESS_RADII = (4.0, 8.0, 16.0, 32.0)


def test_criterion_5_smt_property():
    t0 = time.time()
    e1, e2 = exp_of(XI), exp_of(XI2)
    psi = [e1, e2, -(e1 + e2)]
    rep = smt_defect_on_sum_relation(psi, WITNESS_RADII,
                                     n_method="circle-mean")
    assert rep.relative_residual < 0.05
    # the same order-two mixed-class curve must beat every log ray at r=32
    # by a factor of at least 10
    assert rep.log_factor_T >= 10.0
    curve = ProjCurve(psi)
    ts = [characteristic(curve, r) for r in WITNESS_RADII]
    assert log_bound_factor(list(WITNESS_RADII), ts) >= 10.0
    _report(5, f"defect log fit residual {rep.relative_residual:.2e} < 5%, "
               f"growth factor {rep.log_factor_T:.1f} >= 10 at r=32", t0)


def test_criterion_6_borel_soundness():
    t0 = time.time()
    rng = random.Random(0)
    for _ in range(100):
        s, (lam, gam) = random_case2_instance(rng)
        assert realize(s).is_zero()
        out = degeneracy_pipeline(s)
        assert out.kind == "case2_proportional"
        assert (s.p1.derivative().scale(out.lam)
                - s.p2.derivative().scale(out.gam)).is_zero()
        assert (out.lam * gam - out.gam * lam).is_zero()
    probe = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
    for _ in range(20):
        s, _ = random_case2_instance(rng)
        ts = list(s.terms)
        ts[0] = ExpTerm(ts[0].coeff + CRat(1), ts[0].i, ts[0].j, ts[0].k,
                        ts[0].M)
        bad = ExpSum(ts, s.p1, s.p2, s.M)
        with pytest.raises(NotAnIdentityError):
            degeneracy_pipeline(bad)
        h = realize(bad)
        assert any(abs(h.evaluate(z)) > 1e-8 for z in probe)
    _report(6, "100 seeded instances exactly annihilated, 20 perturbed "
               "instances refused and numerically nonzero", t0, budget=10.0)


def test_criterion_7_covering_round_trip():
    t0 = time.time()
    rng = random.Random(2)
    for b in (2, 3):
        cover = CyclicCover(b)
        for _ in range(8):
            m = rng.randint(1, 2)
            i = rng.randint(0, m)
            coeff = MPoly.monomial(2, (rng.randint(0, 2), rng.randint(0, 2)),
                                   CRat(rng.randint(1, 4)))
            nf = norm_form(SymForm.monomial(m, i, coeff), cover)
            assert nf.M == b * m
            for k in range(b):
                assert deck_pullback(nf, k, cover) == nf
            pushed = push_down(nf, cover)
            assert pull_back_cyclic(pushed, cover) == express_log_basis(nf)
    nf = norm_form(SymForm.monomial(2, 1, CRat(1)), CyclicCover(2))
    pushed = push_down(nf, CyclicCover(2))
    plain = express_plain_basis(pushed)
    want = RatFunc(MPoly.monomial(2, (0, 0), CRat(-1)),
                   MPoly.monomial(2, (1, 0), CRat(4)))
    assert plain.coeffs[2] == want
    assert all(plain.coeffs[i].is_zero() for i in (0, 1, 3, 4))
    _report(7, "norm forms deck-invariant, exact round trips for b in {2,3}, "
               "worked b=2 push-down equals -(1/(4 xi1)) d xi1^2 d xi2^2",
            t0, budget=1.0)


def test_criterion_8_plane_suite():
    t0 = time.time()
    rng = random.Random(88)

    def rand_curve(d, tries=40):
        monos = [(e0, e1, d - e0 - e1) for e0 in range(d + 1)
                 for e1 in range(d + 1 - e0)]
        for _ in range(tries):
            p = MPoly(3, [(e, CRat(rng.randint(-4, 4))) for e in monos])
            try:
                return PlaneCurve(p)
            except ValueError:
                continue
        return None

    done = 0
    while done < 20:
        c1 = rand_curve(rng.randint(1, 4))
        c2 = rand_curve(rng.randint(1, 4))
        if c1 is None or c2 is None:
            continue
        try:
            pts = intersection_points(c1, c2, seed=done)
        except NonCoprimeError:
            continue
        assert sum(m for _, m in pts) == c1.degree * c2.degree
        done += 1

    x0 = PlaneCurve(mp3([((1, 0, 0), 1)]))
    x1 = PlaneCurve(mp3([((0, 1, 0), 1)]))
    x2 = PlaneCurve(mp3([((0, 0, 1), 1)]))
    assert normal_crossings(Configuration([x0, x1, x2])).passed
    l3 = PlaneCurve(mp3([((0, 1, 0), 1), ((0, 0, 1), -1)]))
    assert not normal_crossings(Configuration([x1, x2, l3])).passed
    tangent = PlaneCurve(mp3([((0, 1, 1), 1), ((2, 0, 0), -1)]))
    assert not normal_crossings(Configuration([tangent, x1, x0])).passed

    assert not surviving_cases(two_puncture_case_engine((3, 3, 3), 10))
    surv = surviving_cases(two_puncture_case_engine((2, 2, 3), 10))
    assert surv and all(
        v.d0 == 1 and v.certificate["shared_degree"] == 2
        and v.certificate["window_solutions"] == [(1, 1)] for v in surv)

    flagged = Configuration([
        PlaneCurve(mp3([((0, 3, 0), 1), ((0, 0, 3), -1), ((2, 0, 1), -1)])),
        PlaneCurve(mp3([((1, 1, 0), 1), ((0, 0, 2), -1)])),
        PlaneCurve(mp3([((3, 0, 0), 1), ((0, 2, 1), -1), ((0, 0, 3), 1)])),
    ])
    rep = quadric_line_exclusion(flagged)
    assert not rep.passed and rep.violations
    _report(8, "20 exact Bezout totals, documented crossing verdicts, "
               "(3,3,3) empty vs (2,2,3) survivor, planted line flagged",
            t0, budget=60.0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    cmd = [sys.executable, "-m", "curvecomp.cli", "chern", "enumerate",
           "--a", "1", "--bmax", "10"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first and first == second

    from curvecomp.cli import main as cli_main
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({"components": [
        [{"coeff": [[1, 1, 0, 1]], "exp": []}],
        [{"coeff": [[1, 1, 0, 1]], "exp": [[0, 1, 0, 1], [1, 1, 0, 1]]}]]}))
    sum_file = tmp_path / "sum.json"
    sum_file.write_text(json.dumps({
        "M": 2, "p1": [[0, 1, 0, 1], [1, 1, 0, 1]],
        "p2": [[0, 1, 0, 1], [2, 1, 0, 1]],
        "terms": [{"coeff": [1, 1, 0, 1], "i": 2, "j": 0, "k": 1},
                  {"coeff": [-3, 2, 0, 1], "i": 1, "j": 1, "k": 0},
                  {"coeff": [1, 2, 0, 1], "i": 0, "j": 0, "k": 0}]}))
    form_file = tmp_path / "form.json"
    form_file.write_text(json.dumps({
        "M": 2, "basis": "plain", "vars": ["z1", "z2"], "coeffs": [
            {"num": []},
            {"num": [{"exponents": [0, 0], "coeff": [1, 1, 0, 1]}]},
            {"num": []}]}))
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps({"curves": [
        {"monomials": [{"exponents": [1, 0, 1], "coeff": [1, 1]},
                       {"exponents": [0, 2, 0], "coeff": [-1, 1]}]},
        {"monomials": [{"exponents": [0, 1, 0], "coeff": [1, 1]}]}]}))
    catalogue = [
        ["chern", "invariants", "--a", "1", "--b", "2,2,2"],
        ["chern", "enumerate", "--a", "1", "--bmax", "3"],
        ["chern", "classify", "--a", "5", "--b", "1,2,2", "--generic-nl"],
        ["nev", "order", "--curve", str(curve_file),
         "--radii", "2,4,8,16,32"],
        ["nev", "T", "--curve", str(curve_file), "--r", "10"],
        ["borel", "analyze", "--input", str(sum_file)],
        ["cover", "pushdown", "--b", "2", "--form", str(form_file)],
        ["plane", "intersect", "--input", str(pair_file)],
        ["plane", "engine", "--degrees", "2,2,3", "--d0max", "10"],
    ]
    for n, argv in enumerate(catalogue):
        out1, out2 = tmp_path / f"r{n}a.json", tmp_path / f"r{n}b.json"
        assert cli_main(argv + ["--output", str(out1)]) == 0, argv
        assert cli_main(argv + ["--output", str(out2)]) == 0, argv
        assert out1.read_bytes() == out2.read_bytes(), argv
    _report(9, "byte-identical golden enumeration (process level) and "
               "documented command catalogue", t0)
