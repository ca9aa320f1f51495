import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement

from pathlib import Path

import pytest

from curvecomp.planeconf import (Configuration, NonCoprimeError, PlaneCurve,
                                 PlaneConfError, ProjPoint, TangentLine,
                                 UnsupportedDegreeError, _line_line_meet,
                                 eq_star, fulton_bound,
                                 intersection_points, normal_crossings,
                                 quadric_line_exclusion, surviving_cases,
                                 total_tangent_lines,
                                 two_puncture_case_engine)
from curvecomp.polys import MPoly
from curvecomp.scalars import CRat

from conftest import mp3

GOLDEN = Path(__file__).resolve().parent / "golden" / "planeconf"


def curve(monos):
    return PlaneCurve(mp3(monos))


X0 = curve([((1, 0, 0), 1)])
X1 = curve([((0, 1, 0), 1)])
X2 = curve([((0, 0, 1), 1)])
CONIC_SIMPLE = curve([((1, 0, 1), 1), ((0, 2, 0), -1)])   # x0 x2 - x1^2
CONIC_TANGENT = curve([((0, 1, 1), 1), ((2, 0, 0), -1)])  # x1 x2 - x0^2
# the flagged configuration: smooth cubics totally tangent to x2 = 0
C1 = curve([((0, 3, 0), 1), ((0, 0, 3), -1), ((2, 0, 1), -1)])
C2Q = curve([((1, 1, 0), 1), ((0, 0, 2), -1)])
C3 = curve([((3, 0, 0), 1), ((0, 2, 1), -1), ((0, 0, 3), 1)])
FERMAT = curve([((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 1)])


def pt(*coords):
    return ProjPoint.of([CRat(Fraction(c)) for c in coords])


def test_points_and_lines_are_immutable():
    p = pt(2, 4, 6)
    assert p == pt(1, 2, 3) != pt(1, 2, 4)
    assert len({p, pt(1, 2, 3)}) == 1
    line = TangentLine((CRat(0), CRat(0), CRat(1)), p)
    with pytest.raises(AttributeError):
        p.exact = False
    with pytest.raises(AttributeError):
        line.point = pt(1, 0, 0)
    with pytest.raises(AttributeError):
        del p.coords
    with pytest.raises(AttributeError):
        del line.dual
    assert p != (p.coords, True)
    with pytest.raises(AttributeError):
        del curve([((1, 0, 0), 1)]).poly


class TestExactnessFollowsCoordinates:
    def test_of_scales_exact_entries_to_a_first_one(self):
        p = ProjPoint.of([CRat(0), CRat(Fraction(2, 3)), CRat(4)])
        assert p.exact and p.coords == (CRat(0), CRat(1), CRat(6))
        with pytest.raises(ValueError):
            ProjPoint.of([CRat(0)] * 3)

    def test_of_scales_other_entries_to_a_largest_modulus_one(self):
        p = ProjPoint.of([1j, -2 + 0j, 0j])
        assert not p.exact and p.coords == (0.5j, -1 + 0j, 0j)
        assert all(type(c) is complex for c in p.coords)
        with pytest.raises(ValueError):
            ProjPoint.of([0j, 0j, 0j])

    def test_of_makes_mixed_entries_complex(self):
        p = ProjPoint.of([CRat(4), 2j, CRat(0)])
        assert not p.exact and p.coords == (1 + 0j, 0.5j, 0j)
        assert all(type(c) is complex for c in p.coords)
        assert p.to_json() == {"exact": False,
                               "coords": [[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]]}

    def test_an_exact_point_is_one_point_by_every_path(self):
        # the meeting point of x0 = 0 and x1 = 0, built four ways
        met, = intersection_points(X0, X1)
        tangent = TangentLine((CRat(1), CRat(0), CRat(0)), pt(0, 1, 0))
        paths = [ProjPoint((CRat(0), CRat(0), CRat(1))),
                 ProjPoint.of([CRat(0), CRat(0), CRat(-7)]),
                 met[0],
                 _line_line_meet(tangent, X1)]
        for p in paths:
            assert p.exact and p == paths[0] and hash(p) == hash(paths[0])
            assert p.to_json() == {"exact": True, "coords": [
                [0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]}
        assert ProjPoint((CRat(1), CRat(0), CRat(0))) == \
            ProjPoint.of([CRat(2), CRat(0), CRat(0)])
        assert ProjPoint.of([CRat(1), CRat(0), CRat(0)]) != \
            ProjPoint.of([1 + 0j, 0j, 0j])

    def test_tangent_line_exactness_follows_dual(self):
        numeric_point = ProjPoint.of([1 + 0j, 0j, 0j])
        exact = TangentLine((CRat(0), CRat(0), CRat(1)), numeric_point)
        assert exact.exact and exact.to_json()["exact"] is True
        numeric = TangentLine((0j, 0j, 1 + 0j), pt(1, 0, 0))
        assert not numeric.exact and numeric.to_json() == {
            "dual": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "exact": False,
            "point": {"exact": True, "coords": [[1, 1, 0, 1], [0, 1, 0, 1],
                                                [0, 1, 0, 1]]}}


class TestPlaneCurve:
    def test_repeated_component_rejected(self):
        with pytest.raises(ValueError):
            curve([((2, 0, 0), 1)])  # x0^2

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            curve([((1, 0, 0), 1), ((2, 0, 0), 1)])

    def test_smoothness(self):
        assert X0.is_smooth()
        assert CONIC_SIMPLE.is_smooth()
        assert C1.is_smooth() and C3.is_smooth() and FERMAT.is_smooth()
        cusp = curve([((3, 0, 0), 1), ((0, 1, 2), -1), ((0, 0, 3), -1)])
        assert not cusp.is_smooth()
        node = curve([((0, 1, 2), 1), ((2, 0, 1), -1), ((3, 0, 0), -1)])
        assert not node.is_smooth()

    def test_json_roundtrip(self):
        doc = CONIC_SIMPLE.to_json()
        assert doc["monomials"][0]["coeff"] == [-1, 1]  # rational pairs
        assert PlaneCurve.from_json(doc).poly == CONIC_SIMPLE.poly


class TestIntersections:
    def test_two_lines(self):
        pts = intersection_points(X0, X1)
        assert len(pts) == 1 and pts[0][1] == 1
        assert pts[0][0].same_as(pt(0, 0, 1))

    def test_conic_line_transversal(self):
        pts = intersection_points(CONIC_SIMPLE, X1)
        assert sorted(m for _, m in pts) == [1, 1]
        got = {tuple(str(c) for c in p.coords) for p, _ in pts}
        assert got == {("1", "0", "0"), ("0", "0", "1")}

    def test_conic_line_tangent(self):
        pts = intersection_points(CONIC_TANGENT, X1)
        assert len(pts) == 1 and pts[0][1] == 2
        assert pts[0][0].same_as(pt(0, 0, 1))

    def test_shared_component_rejected(self):
        with pytest.raises(NonCoprimeError):
            intersection_points(X0, X0)

    def test_bezout_cubics(self):
        pts = intersection_points(C1, FERMAT)
        assert sum(m for _, m in pts) == 9

    def test_bezout_random_pairs(self):
        rng = random.Random(2024)
        done = 0
        while done < 8:
            d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
            c1 = _random_curve(rng, d1)
            c2 = _random_curve(rng, d2)
            if c1 is None or c2 is None:
                continue
            try:
                pts = intersection_points(c1.poly and c1, c2, seed=done)
            except NonCoprimeError:
                continue
            assert sum(m for _, m in pts) == c1.degree * c2.degree
            done += 1

    def test_projective_invariance(self):
        # intersections transform with the coordinates
        rng = random.Random(5)
        from curvecomp.polys import det_field
        while True:
            m = [[CRat(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            if not det_field(m).is_zero():
                break
        a = CONIC_SIMPLE.poly.substitute_linear(m)
        b = X1.poly.substitute_linear(m)
        pts_orig = intersection_points(CONIC_SIMPLE, X1)
        pts_moved = intersection_points(PlaneCurve(a), PlaneCurve(b))
        assert sorted(mm for _, mm in pts_orig) == \
            sorted(mm for _, mm in pts_moved)
        # moved points map back through m
        for q, _ in pts_moved:
            img = [sum((m[i][j] * q.coords[j] for j in range(3)),
                       CRat(0)) for i in range(3)]
            assert any(p.same_as(ProjPoint.of(img))
                       for p, _ in pts_orig)


def _random_curve(rng, d, tries=40):
    monos = [(e0, e1, d - e0 - e1) for e0 in range(d + 1)
             for e1 in range(d + 1 - e0)]
    for _ in range(tries):
        poly = MPoly(3, [((e), CRat(rng.randint(-4, 4))) for e in monos])
        try:
            return PlaneCurve(poly)
        except ValueError:
            continue
    return None


class TestNormalCrossings:
    def test_coordinate_lines_pass(self):
        rep = normal_crossings(Configuration([X0, X1, X2]))
        assert rep.passed and not rep.triple_points

    def test_concurrent_lines_fail(self):
        l3 = curve([((0, 1, 0), 1), ((0, 0, 1), -1)])
        rep = normal_crossings(Configuration([X1, X2, l3]))
        assert not rep.passed
        assert any(p.same_as(pt(1, 0, 0)) for p in rep.triple_points)

    def test_tangency_fails(self):
        rep = normal_crossings(Configuration([CONIC_TANGENT, X1, X0]))
        assert not rep.passed
        worst = {tuple(p["pair"]): p["worst_multiplicity"] for p in rep.pairwise}
        assert worst[(0, 1)] == 2

    def test_nonsmooth_component_fails(self):
        cusp = curve([((3, 0, 0), 1), ((0, 1, 2), -1), ((0, 0, 3), -1)])
        rep = normal_crossings(Configuration([cusp, X1, X0]))
        assert not rep.passed and not rep.smooth[0]

    def test_coprimality_proved_once(self, monkeypatch):
        from curvecomp import planeconf
        calls = []
        orig = planeconf._coprime
        monkeypatch.setattr(planeconf, "_coprime",
                            lambda p, q: calls.append(1) or orig(p, q))
        conf = Configuration([CONIC_SIMPLE, X1, X0])
        assert len(calls) == 3
        rep = normal_crossings(conf)
        assert len(calls) == 3
        assert [p["bezout_total"] for p in rep.pairwise] == [2, 2, 1]
        intersection_points(CONIC_SIMPLE, X1)
        assert len(calls) == 4


class TestCaseEngine:
    def test_hypothesis_guard(self):
        with pytest.raises(PlaneConfError):
            two_puncture_case_engine((1, 3, 3), 5)
        with pytest.raises(PlaneConfError):
            two_puncture_case_engine((2, 2, 2), 5)

    @pytest.mark.parametrize("d0_max", [0, -1])
    def test_rejects_d0_max_below_one(self, d0_max):
        with pytest.raises(PlaneConfError, match="d0_max must be >= 1"):
            two_puncture_case_engine((2, 2, 3), d0_max)

    def test_333_no_survivor(self):
        assert not surviving_cases(two_puncture_case_engine((3, 3, 3), 10))

    def test_all_ge3_no_survivor(self):
        for degs in combinations_with_replacement(range(3, 6), 3):
            assert not surviving_cases(two_puncture_case_engine(degs, 10))

    def test_223_sole_survivor(self):
        surv = surviving_cases(two_puncture_case_engine((2, 2, 3), 10))
        assert surv
        for v in surv:
            assert v.d0 == 1
            assert v.certificate["shared_degree"] == 2
            assert v.certificate["window_solutions"] == [(1, 1)]

    def test_star_window(self):
        assert eq_star(1, 1, 1)
        assert not eq_star(1, 2, 1)
        assert eq_star(3, 2, 2)
        assert not eq_star(3, 3, 1)

    def test_certificates_recheck(self):
        # soundness: every impossible verdict carries arithmetic that fails
        # the window on its face
        for v in two_puncture_case_engine((2, 3, 4), 6):
            if v.verdict != "impossible":
                continue
            cert = v.certificate
            if "m_P" in cert:
                assert not eq_star(v.d0, cert["m_P"], 1)
                assert cert["m_P"] >= 2 * v.d0
            elif "m_Q" in cert:
                assert not eq_star(v.d0, 1, cert["m_Q"])
            else:
                assert cert["window_solutions"] == []

    def test_verdicts_match_golden(self):
        # tests/golden/planeconf/engine.json holds the to_json() of every
        # verdict, recorded before the forced-multiplicity verdicts were
        # built in one place; distinct degrees catch a swap of components
        want = json.loads((GOLDEN / "engine.json").read_text())
        for degrees in ((2, 3, 5), (5, 3, 2)):
            got = [v.to_json() for v in two_puncture_case_engine(degrees, 4)]
            assert json.loads(json.dumps(got)) == \
                want[",".join(map(str, degrees))]

    def test_fulton_bound_consistency(self):
        # the window is exactly what the Fulton inequality leaves open
        for d0 in range(1, 8):
            for m_p in range(1, d0 + 2):
                for m_q in range(1, d0 + 2):
                    if fulton_bound(d0, m_p, m_q):
                        continue
                    # violating the genus bound implies violating the window
                    # whenever both multiplicities reach d0
                    if m_p >= d0 and m_q >= d0:
                        assert not eq_star(d0, m_p, m_q) or d0 == 1


class TestTotalTangents:
    def test_smooth_cubic_has_nine(self):
        assert len(total_tangent_lines(C1)) == 9
        assert len(total_tangent_lines(C3)) == 9

    def test_planted_line_exact(self):
        target = (CRat(0), CRat(0), CRat(1))  # the line x2 = 0
        planted = [
            t for t in total_tangent_lines(C1) if t.exact and
            all((t.dual[i] * target[j] - t.dual[j] * target[i]).is_zero()
                for i in range(3) for j in range(i + 1, 3))]
        assert planted
        assert planted[0].point.same_as(pt(1, 0, 0))

    def test_degree_cap(self):
        quintic = curve([((5, 0, 0), 1), ((0, 5, 0), 1), ((0, 0, 5), 1)])
        with pytest.raises(UnsupportedDegreeError):
            total_tangent_lines(quintic)

    def test_conic_refused_as_a_family(self):
        # every tangent of a smooth conic is total, so there is no finite
        # answer; the refusal must say so instead of blaming the solver
        rng = random.Random(5)
        expos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1),
                 (0, 1, 1)]
        smooth = 0
        while smooth < 8:
            cs = [rng.randint(-4, 4) for _ in expos]
            a, b, c, d, e, f = (Fraction(x) for x in cs)
            # symmetric matrix [[a, d/2, e/2], [d/2, b, f/2], [e/2, f/2, c]]
            det = a * b * c + d * e * f / 4 - (a * f * f + b * e * e
                                               + c * d * d) / 4
            if det == 0:
                continue
            smooth += 1
            conic = curve(list(zip(expos, cs)))
            with pytest.raises(UnsupportedDegreeError, match="conic"):
                total_tangent_lines(conic)


# a singular cubic whose rank-one fibre gcd is -x^4: without a squarefree
# split the numeric root finder does not converge on it
SINGULAR_CUBIC = curve([((0, 0, 3), 1), ((0, 1, 2), 2), ((0, 2, 1), -2),
                        ((0, 3, 0), -2), ((1, 2, 0), -3)])


class TestSingularCubic:
    def test_total_tangent_lines_exact(self):
        lines = total_tangent_lines(SINGULAR_CUBIC)
        want = [((0, 1, 0), (1, 0, 0)),
                ((1, Fraction(62, 81), Fraction(10, 9)),
                 (1, Fraction(-81, 2), 27))]
        assert len(lines) == 2 and all(t.exact for t in lines)
        for dual, point in want:
            line = TangentLine(tuple(CRat(c) for c in dual), pt(*point))
            assert sum(t.same_line(line) and t.point.same_as(line.point)
                       for t in lines) == 1
        for t in lines:
            # the curve restricted to the line is f(q) s^3 around the contact
            # point p: f(p + s q) = f(q) s^3 at four values of s, with q the
            # cross product of the dual and p, a second point on the line
            p, l = t.point.coords, t.dual
            q = (l[1] * p[2] - l[2] * p[1], l[2] * p[0] - l[0] * p[2],
                 l[0] * p[1] - l[1] * p[0])
            assert not ProjPoint.of(q).same_as(t.point)
            assert sum((a * b for a, b in zip(l, p)), CRat(0)).is_zero()
            fq = SINGULAR_CUBIC.eval_exact(q)
            for k in range(4):
                at = [a + CRat(k) * b for a, b in zip(p, q)]
                assert SINGULAR_CUBIC.eval_exact(at) == fq * CRat(k ** 3)

    def test_quadric_exclusion_passes(self):
        circle = curve([((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), -1)])
        line = curve([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)])
        rep = quadric_line_exclusion(
            Configuration([SINGULAR_CUBIC, circle, line]))
        assert not rep.vacuous and rep.passed
        assert rep.candidates == 2


def _hexed(doc):
    if isinstance(doc, float):
        return doc.hex()
    if isinstance(doc, dict):
        return {k: _hexed(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_hexed(v) for v in doc]
    return doc


class TestTangentLinePins:
    """Tangent lines and their floats, bit for bit as first recorded.

    tests/golden/planeconf/tangent_lines.json holds the to_json() of every
    line, floats as float.hex, written before the exact and numeric line
    restrictions were merged into one ring-generic routine.
    """

    WANT = json.loads((GOLDEN / "tangent_lines.json").read_text())

    @pytest.mark.parametrize("name, monos, n_exact", [
        ("fermat", [((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 1)], 3),
        ("x3+2y3-3z3+xyz", [((3, 0, 0), 1), ((0, 3, 0), 2), ((0, 0, 3), -3),
                            ((1, 1, 1), 1)], 0),
    ])
    def test_lines_bit_identical(self, name, monos, n_exact):
        lines = total_tangent_lines(curve(monos))
        assert len(lines) == 9
        assert sum(t.exact for t in lines) == n_exact
        assert [_hexed(t.to_json()) for t in lines] == self.WANT[name]

    def test_point_tolerance_is_absolute(self):
        big = ProjPoint((100.0 + 0j, 0j, 0j))
        assert big.same_as(ProjPoint((1 + 0j, 0.9e-11 + 0j, 0j)))
        assert not big.same_as(ProjPoint((1 + 0j, 1.1e-11 + 0j, 0j)))
        unit = ProjPoint((1 + 0j, 0j, 0j))
        assert unit.same_as(ProjPoint((1 + 0j, 0.9e-9 + 0j, 0j)))
        assert not unit.same_as(ProjPoint((1 + 0j, 1.1e-9 + 0j, 0j)))
        # mixed exact and numeric compares through complex values
        assert pt(1, 0, 0).same_as(ProjPoint((2 + 0j, 0.9e-9j, 0j)))
        assert not pt(1, 0, 0).same_as(ProjPoint((2 + 0j, 1.1e-9j, 0j)))
        # exact pairs compare exactly
        assert pt(1, 2, 3).same_as(pt(2, 4, 6))
        assert not pt(1, 2, 3).same_as(
            ProjPoint.of([CRat(1), CRat(2), CRat(3 + Fraction(1, 10 ** 30))]))

    def test_line_tolerance_is_scaled(self):
        anchor = pt(0, 0, 1)

        def line(*dual):
            return TangentLine(tuple(dual), anchor)

        big = line(100.0 + 0j, 0j, 0j)
        # |minor| 9e-8 and 1.1e-7 against tol * |a| * |b| = 1e-7
        assert big.same_line(line(1 + 0j, 0.9e-9 + 0j, 0j))
        assert not big.same_line(line(1 + 0j, 1.1e-9 + 0j, 0j))
        # exact against numeric
        ex = line(CRat(1), CRat(0), CRat(0))
        assert ex.same_line(line(3 + 0j, 2.9e-9j, 0j))
        assert not ex.same_line(line(3 + 0j, 3.1e-9j, 0j))
        # exact pairs compare exactly
        assert ex.same_line(line(CRat(5), CRat(0), CRat(0)))
        assert not ex.same_line(line(CRat(1), CRat(Fraction(1, 10 ** 30)),
                                     CRat(0)))


class TestQuadricExclusion:
    def test_flagged_configuration(self):
        rep = quadric_line_exclusion(Configuration([C1, C2Q, C3]))
        assert not rep.vacuous
        assert not rep.passed
        assert rep.violations and rep.violations[0]["exact"]
        assert rep.violations[0]["line"]["dual"] == [[0, 1, 0, 1],
                                                     [0, 1, 0, 1],
                                                     [1, 1, 0, 1]]

    def test_generic_configuration_passes(self):
        rng = random.Random(3)

        def smooth(d):
            while True:
                c = _random_curve(rng, d)
                if c is not None and c.is_smooth():
                    return c

        rep = quadric_line_exclusion(
            Configuration([smooth(3), smooth(2), smooth(3)]))
        assert not rep.vacuous and rep.passed

    def test_one_line_component_flags_the_excluded_line(self):
        # the line z = 0 is totally tangent to C1 at P = (1:0:0), meets the
        # line x = y at Q = (1:1:0), and the conic xy - y^2 + z^2 meets it
        # at exactly P and Q
        conic = curve([((1, 1, 0), 1), ((0, 2, 0), -1), ((0, 0, 2), 1)])
        line = curve([((1, 0, 0), 1), ((0, 1, 0), -1)])
        rep = quadric_line_exclusion(Configuration([C1, conic, line]))
        assert not rep.vacuous and not rep.passed and not rep.notes
        one, zero = [1, 1, 0, 1], [0, 1, 0, 1]
        assert rep.violations == [{
            "line": {"dual": [zero, zero, one], "exact": True,
                     "point": {"exact": True, "coords": [one, zero, zero]}},
            "P": {"exact": True, "coords": [one, zero, zero]},
            "Q": {"exact": True, "coords": [one, one, zero]},
            "exact": True}]

    def test_one_line_component_skips_a_candidate_equal_to_it(self):
        conic = curve([((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), -1),
                       ((1, 1, 0), 1)])
        rep = quadric_line_exclusion(Configuration([C1, conic, X2]))
        assert not rep.vacuous and rep.passed and not rep.violations
        assert rep.notes == ["candidate equals the line component: skipped"]

    def test_no_quadric_vacuous(self):
        rep = quadric_line_exclusion(Configuration([C1, C3, FERMAT]))
        assert rep.vacuous and rep.passed
