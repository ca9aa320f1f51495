import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from curvecomp import nevanlinna
from curvecomp.expfun import EvalOverflowError, ExpPoly
from curvecomp.nevanlinna import (DegenerateCurveError, GeneralPositionError,
                                  HomDivisor, ProjCurve, QuadratureError,
                                  characteristic, characteristic_scalar,
                                  counting, counting_entire, fit_linear,
                                  fmt_check,
                                  integrate_periodic, log_bound_factor,
                                  circle_log_mean, order_estimate,
                                  rational_growth_test,
                                  smt_check, smt_defect_on_sum_relation,
                                  winding_number, zero_count)
from curvecomp.polys import Poly
from curvecomp.scalars import CRat

from conftest import (XI, XI2, count_evaluations, count_reference_columns,
                      cr, exp_of, poly)


def curve(*components):
    return ProjCurve(list(components))


def hyper(*coeffs):
    return HomDivisor.hyperplane([CRat(Fraction(c)) for c in coeffs])


ONE = ExpPoly.constant(1)
E_XI = exp_of(XI)
E_XI2 = exp_of(XI2)
ORDER2 = curve(E_XI, E_XI2, -(E_XI + E_XI2))


def oracle_circle_mean(fn, r, dps=25, cuts=()):
    """Independent quadrature oracle (mpmath tanh-sinh, not our rule).

    cuts are angles in (0, 2pi) where fn has a corner or singularity on
    the circle; the oracle integrates between them.
    """
    with mp.workdps(dps):
        pts = [mp.mpf(0)] + sorted(mp.mpf(c) for c in cuts) + [2 * mp.pi]
        val = mp.quad(lambda th: fn(r * mp.e ** (1j * th)), pts)
        return float(val) / (2 * math.pi)


def oracle_log_plus_mean(fn, r, dps=25, grid=256):
    """(1/2pi) int log+ |fn| on |z| = r, cut where |fn| = 1 (mpmath)."""
    with mp.workdps(dps):
        u = lambda th: mp.log(abs(fn(r * mp.expj(th))))  # noqa: E731
        ts = [2 * mp.pi * k / grid for k in range(grid + 1)]
        us = [u(t) for t in ts]
        cuts = [mp.findroot(u, (a, b), solver="anderson")
                for a, b, ua, ub in zip(ts, ts[1:], us, us[1:]) if ua * ub < 0]
    return oracle_circle_mean(lambda z: max(mp.log(abs(fn(z))), 0), r, dps,
                              cuts)


def order2_oracle(r, dps=20):
    """T of [e^z : e^{z^2} : -(e^z + e^{z^2})] by mpmath, cut at its kinks.

    The kinks are the angles where Re z = Re z^2 on |z| = r, the roots of
    2 cos^2 t - cos(t) / r - 1 = 0.
    """
    with mp.workdps(dps):
        rr = mp.mpf(r)
        cuts = []
        for sign in (1, -1):
            t = mp.acos((1 / rr + sign * mp.sqrt(1 / rr ** 2 + 8)) / 4)
            cuts += [t, 2 * mp.pi - t]

        def log_norm_sq(z):
            a, b = mp.exp(z), mp.exp(z * z)
            return mp.log(abs(a) ** 2 + abs(b) ** 2 + abs(a + b) ** 2)
        return oracle_circle_mean(log_norm_sq, r, dps, cuts) / 2


class TestCharacteristicScalar:
    def test_exp_at_pi(self):
        assert characteristic_scalar(E_XI, math.pi) == pytest.approx(1.0, abs=1e-6)

    def test_cubic_at_e(self):
        v = characteristic_scalar(ExpPoly.from_poly(poly(0, 0, 0, 1)), math.e)
        assert v == pytest.approx(3.0, abs=1e-7)

    def test_small_constant(self):
        half = ExpPoly.constant(Fraction(1, 2))
        assert characteristic_scalar(half, 5.0) == 0.0


class TestCharacteristic:
    def test_rational_closed_form(self):
        v = characteristic(curve(ONE, ExpPoly.from_poly(XI)), 10.0)
        assert v == pytest.approx(0.5 * math.log(101), abs=1e-8)

    def test_exp_against_oracle(self):
        got = characteristic(curve(ONE, E_XI), 10.0)
        want = oracle_circle_mean(
            lambda z: mp.log(1 + mp.e ** (2 * mp.re(z))) / 2, 10.0)
        assert got == pytest.approx(want, abs=1e-6)
        assert got == pytest.approx(10 / math.pi, rel=5e-3)

    def test_constant_curve(self):
        # a constant map has no growth: the circle average is r-independent
        f = curve(ExpPoly.constant(3), ExpPoly.constant(4))
        v = characteristic(f, 7.0)
        assert v == pytest.approx(math.log(25) / 2, abs=1e-8)
        assert characteristic(f, 70.0) - v == pytest.approx(0.0, abs=1e-8)

    def test_slope_of_linear_curve(self):
        radii = [10, 31.6, 100, 316, 1000]
        vals = [characteristic(curve(ONE, ExpPoly.from_poly(XI)), r)
                for r in radii]
        slope, _, _ = fit_linear([math.log(r) for r in radii], vals)
        assert slope == pytest.approx(1.0, abs=0.01)

    def test_monotone_in_radius(self):
        f = curve(ONE, E_XI + ExpPoly.from_poly(XI))
        vals = [characteristic(f, r) for r in (2, 4, 8, 16)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_big_radius_overflow_safe(self):
        v = characteristic(curve(ONE, E_XI2), 40.0)
        assert v == pytest.approx(1600 / math.pi, rel=2e-2)


def count_circle_values(monkeypatch):
    """(radius, number of angles) of every _circle_values call, in order."""
    calls = []
    inner = nevanlinna._circle_values

    def counted(h, radius, thetas):
        calls.append((radius, len(thetas)))
        return inner(h, radius, thetas)

    monkeypatch.setattr(nevanlinna, "_circle_values", counted)
    return calls


Z100 = ExpPoly.from_poly(poly(*[0] * 100, 1))
Z100_MINUS_ONE = ExpPoly.from_poly(poly(-1, *[0] * 99, 1))
Z200_MINUS_ONE = ExpPoly.from_poly(poly(-1, *[0] * 199, 1))


class TestWinding:
    def test_exp_minus_one_counts(self):
        h = E_XI - ONE
        for t, n in ((5.0, 1), (7.0, 3), (20.0, 7)):
            assert zero_count(h, t) == n

    def test_polynomial(self):
        h = ExpPoly.from_poly(poly(-1, 0, 0, 0, 1))  # x^4 - 1
        assert winding_number(h, 2.0) == 4
        assert winding_number(h, 0.5) == 0

    def test_zero_on_probe_circle_nudged(self):
        # e^x - 1 vanishes at 2 pi i, exactly on the circle |x| = 2 pi
        h = E_XI - ONE
        assert zero_count(h, 2 * math.pi) in (1, 3)

    def test_nan_step_fails_at_once(self, monkeypatch):
        # z^200 - 1 is NaN on |z| = 1000: one sweep, with no bisection of a
        # NaN step to depth 54 and no nudged radius (550 calls before)
        sweeps = count_circle_values(monkeypatch)
        with pytest.raises(EvalOverflowError, match="r=1000.0 near theta="):
            zero_count(Z200_MINUS_ONE, 1000.0)
        assert sweeps == [(1000.0, 256)]
        sweeps.clear()
        with pytest.raises(EvalOverflowError):
            counting_entire(Z200_MINUS_ONE, 1000.0)
        assert [s for s in sweeps if s[0] > 2.0] == [(1000.0, 256)]

    def test_overflow_in_sweep_is_not_retried(self, monkeypatch):
        # on |z| = 1211 the parts of z^100 are finite where its modulus is
        # not, and abs() raises OverflowError
        sweeps = count_circle_values(monkeypatch)
        for count in (zero_count, counting_entire):
            sweeps.clear()
            with pytest.raises(EvalOverflowError, match="r=1211.0"):
                count(Z100_MINUS_ONE, 1211.0)
            assert [s for s in sweeps if s[0] > 2.0] == [(1211.0, 256)]

    def test_infinite_value_is_not_a_zero_on_the_circle(self, monkeypatch):
        # on |z| = 1220 z^100 leaves the double range in its parts, and
        # inf <= 1e-12 * inf would pass the near-zero test: every nudged
        # radius failed (3,317 sweeps) before WindingError was raised
        sweeps = count_circle_values(monkeypatch)
        for count in (zero_count, counting_entire):
            sweeps.clear()
            with pytest.raises(EvalOverflowError,
                               match="not finite on r=1220.0 at theta="):
                count(Z100_MINUS_ONE, 1220.0)
            assert [s for s in sweeps if s[0] > 2.0] == [(1220.0, 256)]


class TestCounting:
    def test_exp_unit_divisor(self):
        # zeros of e^x - 1 at 2 pi i k: exact radially integrated count
        n20 = counting(curve(ONE, E_XI), hyper(-1, 1), 20.0)
        closed = (math.log(2 * math.pi) + 3 * math.log(2)
                  + 5 * math.log(1.5) + 7 * math.log(20 / (6 * math.pi)))
        assert n20 == pytest.approx(closed, abs=2e-3)
        assert n20 == pytest.approx(20 / math.pi, rel=0.02)

    def test_linear_zero_at_origin(self):
        v = counting(curve(ONE, ExpPoly.from_poly(XI)), hyper(0, 1), 10.0)
        assert v == pytest.approx(math.log(10), abs=1e-6)

    def test_omitted_divisor(self):
        assert counting(curve(ONE, E_XI), hyper(0, 1), 30.0) == 0.0

    def test_methods_agree(self):
        f = curve(ONE, E_XI)
        d = hyper(-1, 1)
        a = counting(f, d, 12.0, method="winding")
        b = counting(f, d, 12.0, method="circle-mean")
        assert a == pytest.approx(b, abs=5e-3)

    def test_circle_mean_zero_on_base_circle(self, monkeypatch):
        # z - 1 vanishes at the angle 0 of the base circle r0 = 1
        h = ExpPoly.from_poly(poly(-1, 1))
        wind = counting_entire(h, 2.0)
        assert wind == pytest.approx(math.log(2), abs=1e-3)
        calls = count_evaluations(monkeypatch)
        mean = counting_entire(h, 2.0, method="circle-mean")
        assert mean == pytest.approx(wind, abs=1e-3)
        # adaptive arcs close in on the log singularity; a uniform rule
        # converges only algebraically there (65,569 evaluations)
        assert calls[0] < 2000
        assert calls[0] == 810

    def test_winding_sweeps_share_evaluations(self, monkeypatch):
        calls = count_circle_values(monkeypatch)
        n = counting_entire(E_XI - ONE, 10.0)
        # the integer counts, hence N, are those of independent sweeps on
        # every rung, which evaluate h 18,436 times on this ladder (12,290
        # with the sweeps of one circle sharing their grid points)
        assert n.hex() == "0x1.9daf20080c499p+1"
        assert sum(k for _, k in calls) <= 7684

    def test_monotone(self):
        f = curve(ONE, E_XI)
        d = hyper(-1, 1)
        ns = [counting(f, d, r) for r in (5, 10, 20)]
        assert ns[0] <= ns[1] <= ns[2]

    def test_divisor_containing_curve_rejected(self):
        with pytest.raises(DegenerateCurveError):
            counting(curve(ONE, ONE), hyper(-1, 1), 5.0)


def planted(*roots):
    """The monic polynomial with the given roots, as an ExpPoly."""
    p = poly(1)
    for a in roots:
        p = p * Poly([-a, CRat(1)])
    return ExpPoly.from_poly(p)


def count_zero_counts(monkeypatch):
    """The radii t of the zero_count calls, in call order."""
    ts = []
    inner = nevanlinna.zero_count

    def counted(h, t):
        ts.append(t)
        return inner(h, t)

    monkeypatch.setattr(nevanlinna, "zero_count", counted)
    return ts


H = Fraction(1, 2)
# (h, r, N as float.hex, zero_count calls).  N was recorded before the
# sweeps of a circle were batched and the ladder filled by monotonicity;
# the ladders then took 5, 13, 24, 49 and 31 zero_count calls.
COUNTING_PINS = {
    "cubic_inner": (planted(cr(H), cr(0, Fraction(3, 5)),
                            cr(Fraction(-7, 10), Fraction(1, 10))),
                    1.8, "0x1.c36b8f8456aa4p+0", 2),
    "cubic_annulus": (planted(cr(H), cr(0, Fraction(4, 5)),
                              cr(Fraction(-5, 4), Fraction(1, 4))),
                      1.8, "0x1.8555cf2758944p+0", 12),
    "exp_r10": (E_XI - ONE, 10.0, "0x1.9daf20080c499p+1", 15),
    "exp_r20": (E_XI - ONE, 20.0, "0x1.96fe3cae7fb75p+2", 39),
    "exp_z2_r4": (E_XI2 - ONE, 4.0, "0x1.48029f3e20de5p+2", 28),
}
# fmt_check of [1 : e^z] against z_1 = 3 z_0 at radii 1.5, 2, 3 (the zero
# log 3 lies in the annulus), recorded as above; 41 zero_count calls then
FMT_PIN = {
    "radii": ["0x1.8000000000000p+0", "0x1.0000000000000p+1",
              "0x1.8000000000000p+1"],
    "counting": ["0x1.3f19ddc344052p-2", "0x1.32e412f3da1dbp-1",
                 "0x1.01275c04f7a48p+0"],
    "d_times_T": ["0x1.25cff7157c6fdp-1", "0x1.6a4b0c423062ep-1",
                  "0x1.001a5f526dc35p+0"],
    "fitted_C": "-0x1.0c861067b4da8p-2",
    "max_violation": "0x1.f87a0b9e368acp-3",
    "defect": "-0x1.0ce0ff91da300p-8",
    "pass": False,
}


def hexed(doc):
    """doc with every float written as float.hex."""
    if isinstance(doc, float):
        return doc.hex()
    if isinstance(doc, dict):
        return {k: hexed(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [hexed(v) for v in doc]
    return doc


class TestCountingPins:
    @pytest.mark.parametrize("name", sorted(COUNTING_PINS))
    def test_counts_bit_identical(self, monkeypatch, name):
        h, r, want, calls = COUNTING_PINS[name]
        ts = count_zero_counts(monkeypatch)
        assert counting_entire(h, r).hex() == want
        assert len(ts) == len(set(ts)) == calls

    def test_fmt_report_bit_identical(self, monkeypatch):
        ts = count_zero_counts(monkeypatch)
        rep = fmt_check(curve(ONE, E_XI), hyper(-3, 1), [1.5, 2.0, 3.0])
        assert hexed(rep.to_json()) == FMT_PIN
        # the three ladders share one memo of counts, so n(R0) once
        assert len(ts) == len(set(ts)) == 33
        assert ts.count(1.0) == 1

    @pytest.mark.parametrize("name", sorted(COUNTING_PINS) + ["fmt"])
    def test_sweeps_build_no_reference_column(self, monkeypatch, name):
        # h has constant coefficients or is a polynomial: a bound decides
        # every near-zero test of every sweep and bisection midpoint
        calls = count_reference_columns(monkeypatch)
        if name == "fmt":
            fmt_check(curve(ONE, E_XI), hyper(-3, 1), [1.5, 2.0, 3.0])
        else:
            h, r, _, _ = COUNTING_PINS[name]
            counting_entire(h, r)
        assert calls[0] == 0

    def test_polynomial_coefficient_in_a_sum_builds_references(
            self, monkeypatch):
        # z e^z - 1: no bound applies, so the sweeps build the references
        calls = count_reference_columns(monkeypatch)
        h = ExpPoly([(XI, XI)]) - ONE
        assert zero_count(h, 2.0) == 1
        assert calls[0] >= 1

    def test_ladder_ends_first(self, monkeypatch):
        # every root inside the unit circle: n(R0) = n(r) fills the ladder
        h, r, _, _ = COUNTING_PINS["cubic_inner"]
        ts = count_zero_counts(monkeypatch)
        counting_entire(h, r)
        assert ts == [1.0, r]


class TestSharedRadii:
    """Several radii of one function share the base circle or the counts."""

    FMT = (curve(ONE, E_XI), hyper(-3, 1), [1.5, 2.0, 3.0])

    def test_fmt_circle_mean_integrates_base_once(self, monkeypatch):
        f, d, radii = self.FMT
        h = d.compose(f)
        calls = count_evaluations(monkeypatch)
        fmt_check(f, d, radii, n_method="circle-mean")
        total = calls[0]
        calls[0] = 0
        for r in radii:
            characteristic(f, r)
            circle_log_mean(h, r, tol=0.25e-3)
        circle_log_mean(h, 1.0, tol=0.25e-3)
        assert total == calls[0] == 915

    def test_sum_relation_base_circle_per_summand(self, monkeypatch):
        radii = []
        inner = nevanlinna.circle_log_mean

        def counted(h, r, tol=1e-8):
            radii.append(r)
            return inner(h, r, tol)

        monkeypatch.setattr(nevanlinna, "circle_log_mean", counted)
        smt_defect_on_sum_relation([E_XI, E_XI2, -(E_XI + E_XI2)],
                                   [2, 4, 6, 8], n_method="circle-mean")
        assert radii.count(1.0) == 3 and len(radii) == 3 * 5

    def test_smt_winding_counts_base_once_per_hyperplane(self, monkeypatch):
        ts = count_zero_counts(monkeypatch)
        smt_check(curve(ONE, E_XI), [hyper(1, 0), hyper(0, 1), hyper(1, -1)],
                  [2, 3])
        # the pullbacks e^z, 1 and 1 - e^z: each counts n(R0) once for
        # both radii, and n(2) = n(3) = n(R0) fills both ladders
        assert ts == [1.0, 2.0, 3.0] * 3


class TestCountingInputs:
    @pytest.mark.parametrize("r", [-3.0, 0.0, float("inf"), float("nan")])
    def test_radius_must_be_positive_finite(self, r):
        with pytest.raises(ValueError, match="^r must be a positive finite"):
            counting_entire(E_XI - ONE, r)

    @pytest.mark.parametrize("tol", [-1e-3, 0.0, float("inf"), float("nan")])
    def test_tol_must_be_positive_finite(self, tol):
        for method in ("winding", "circle-mean"):
            with pytest.raises(ValueError,
                               match="^tol must be a positive finite"):
                counting_entire(E_XI - ONE, 5.0, tol=tol, method=method)

    def test_unit_disk_counts_nothing(self):
        assert counting_entire(E_XI - ONE, 1.0) == 0.0
        assert counting_entire(E_XI - ONE, 0.5) == 0.0

    def test_method_checked_at_every_radius(self):
        for r in (0.5, 5.0):
            with pytest.raises(ValueError, match="unknown counting method"):
                counting_entire(E_XI - ONE, r, method="jensen")

    def test_fmt_radius_checked(self):
        with pytest.raises(ValueError, match="^r must be a positive finite"):
            fmt_check(curve(ONE, E_XI), hyper(-1, 1), [2.0, float("nan")])


class TestOrderEstimate:
    def test_exp_order_one(self):
        rep = order_estimate(curve(ONE, E_XI), [2, 4, 8, 16, 32, 64, 128, 256])
        assert rep.fitted_order == pytest.approx(1.0, abs=0.05)

    def test_exp_sq_order_two(self):
        rep = order_estimate(curve(ONE, E_XI2), [2, 4, 8, 16, 32])
        assert rep.fitted_order == pytest.approx(2.0, abs=0.05)

    def test_quintic_order_zero(self):
        rep = order_estimate(curve(ONE, ExpPoly.from_poly(poly(0, 0, 0, 0, 0, 1))),
                             [10, 31.6, 100, 316, 1000])
        assert rep.fitted_order == 0.0
        assert "log-growth" in rep.flags
        assert rep.fitted_slope == pytest.approx(5.0, abs=1e-3)

    def test_constant_flagged(self):
        rep = order_estimate(curve(ONE, ExpPoly.constant(2)), [2, 4, 8, 16, 100, 300])
        assert rep.fitted_order == 0.0 and "constant" in rep.flags

    def test_lemma_e_structural(self):
        # unit-coefficient exponential components of degree <= lam miss the
        # coordinate hyperplanes; the fitted order must respect the degree
        for lam, comp in ((1, E_XI), (2, E_XI2)):
            rep = order_estimate(curve(ONE, comp), [4, 8, 16, 32, 64])
            assert rep.fitted_order <= lam + 0.1


class TestFmt:
    def test_near_equality(self):
        rep = fmt_check(curve(ONE, E_XI), hyper(-1, 1), [5, 10, 20])
        assert rep.passed
        assert rep.defect == pytest.approx(0.0, abs=0.02)

    def test_omitted(self):
        rep = fmt_check(curve(ONE, E_XI), hyper(0, 1), [5, 10, 20])
        assert rep.passed
        assert rep.counting == [0.0, 0.0, 0.0]
        assert rep.defect == 1.0

    def test_square_closed_forms(self):
        rep = fmt_check(curve(ONE, ExpPoly.from_poly(XI2)), hyper(0, 1),
                        [5, 10, 20])
        assert rep.passed
        assert rep.counting[0] == pytest.approx(2 * math.log(5), abs=1e-5)


class TestSmt:
    def test_exp_three_hyperplanes(self):
        hyps = [hyper(1, 0), hyper(0, 1), hyper(1, 1)]
        rep = smt_check(curve(ONE, E_XI), hyps, [4, 8, 16, 32])
        assert rep.passed
        assert rep.relative_residual < 0.05

    def test_rational_trivial(self):
        hyps = [hyper(1, 0), hyper(0, 1), hyper(1, 1)]
        rep = smt_check(curve(ONE, ExpPoly.from_poly(XI)), hyps, [4, 8, 16, 32])
        assert rep.passed

    def test_degenerate_curve_rejected(self):
        hyps = [hyper(1, 0), hyper(0, 1), hyper(1, 1)]
        const = curve(ONE, ExpPoly.constant(-1))
        with pytest.raises(DegenerateCurveError):
            smt_check(const, hyps, [4, 8, 16])

    def test_general_position_enforced(self):
        hyps = [hyper(1, 0), hyper(0, 1), hyper(0, 2)]
        with pytest.raises(GeneralPositionError):
            smt_check(curve(ONE, E_XI), hyps, [4, 8, 16])

    def test_too_few_hyperplanes(self):
        with pytest.raises(GeneralPositionError):
            smt_check(curve(ONE, E_XI), [hyper(1, 0), hyper(0, 1)], [4, 8])

    def test_sum_relation_witness(self):
        psi = [E_XI, E_XI2, -(E_XI + E_XI2)]
        rep = smt_defect_on_sum_relation(psi, [4, 8, 16, 32],
                                         n_method="circle-mean")
        assert rep.passed and rep.relative_residual < 0.05
        assert rep.log_factor_T >= 10

    def test_sum_relation_requires_minimality(self):
        with pytest.raises(DegenerateCurveError,
                           match="extra linear relations"):
            smt_defect_on_sum_relation([E_XI, -E_XI, E_XI2, -E_XI2],
                                       [4, 8, 16])

    @pytest.mark.parametrize("second, rank", [
        (E_XI - E_XI2, 2),
        (E_XI.scale(2) + E_XI2.scale(2), 1),
    ])
    def test_component_rank(self, second, rank):
        assert nevanlinna._component_rank([E_XI + E_XI2, second]) == rank

    def test_reports_bit_identical(self):
        """Both SMT checks' reports, floats by hex as first recorded
        (tests/golden/nevanlinna/smt_reports.json, written before the two
        checks shared one T / N / delta / fit tail)."""
        want = json.loads((Path(__file__).resolve().parent / "golden"
                           / "nevanlinna" / "smt_reports.json").read_text())
        rep = smt_check(curve(ONE, E_XI),
                        [hyper(1, 0), hyper(0, 1), hyper(1, -1)],
                        [2, 3, 4, 5])
        assert hexed(rep.to_json()) == want["smt_check"]
        rep = smt_defect_on_sum_relation([E_XI, E_XI2, -(E_XI + E_XI2)],
                                         [2, 4, 6, 8], n_method="circle-mean")
        assert hexed(rep.to_json()) == want["sum_relation"]


class TestRationalGrowth:
    def test_polynomial_pair(self):
        assert rational_growth_test(ExpPoly.from_poly(poly(1, 0, 1)),
                                    ExpPoly.from_poly(XI))

    def test_exponential(self):
        assert not rational_growth_test(E_XI, ONE)

    def test_cancelled_exponentials(self):
        f0 = E_XI - E_XI + ExpPoly.from_poly(XI)
        assert rational_growth_test(f0, ONE)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DegenerateCurveError):
            rational_growth_test(ONE, ExpPoly.zero())


class TestPaperInequalities:
    """O(1)-slack inequalities, one fitted constant per instance."""

    RADII = (5.0, 10.0, 20.0, 40.0)

    def _bounded(self, values, scale):
        mean = sum(values) / len(values)
        rms = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        return rms / max(1.0, scale)

    def test_scalar_vs_projective_characteristic(self):
        # log-plus integrands have corners; 1e-6 absolute is ample here
        for g in (E_XI, ExpPoly.from_poly(poly(0, 0, 0, 1)), E_XI2):
            diffs, scale = [], 0.0
            for r in self.RADII:
                t0 = characteristic_scalar(g, r, tol=1e-6)
                t1 = characteristic(curve(ONE, g), r, tol=1e-6)
                diffs.append(t0 - t1)
                scale = max(scale, abs(t0))
            assert self._bounded(diffs, scale) < 0.05

    def _random_exppoly(self, rng):
        terms = []
        for _ in range(rng.randint(1, 2)):
            cdeg = rng.randint(0, 2)
            co = poly(*[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                        for _ in range(cdeg + 1)])
            ed = rng.randint(0, 2)
            ex = poly(*([0] + [Fraction(rng.randint(-2, 2), 2)
                               for _ in range(ed)]))
            terms.append((co, ex))
        f = ExpPoly(terms)
        return f if not f.is_zero() else ONE

    def test_lemma_calc_sum_product_bounds(self):
        rng = random.Random(42)
        radii = (4.0, 8.0, 16.0)
        cache = {}

        def T(f, r):
            key = (f, r)  # ExpPoly hashes canonically; id() would be recycled
            if key not in cache:
                cache[key] = characteristic_scalar(f, r, tol=1e-6)
            return cache[key]

        for _ in range(10):
            f, g = self._random_exppoly(rng), self._random_exppoly(rng)
            for op, combo in (("mul", f * g), ("add", f + g)):
                if combo.is_zero():
                    continue
                excess = [T(combo, r) - T(f, r) - T(g, r) for r in radii]
                scale = max(1.0, *(abs(T(combo, r)) for r in radii))
                # bounded above by one constant: no upward drift beyond slack
                assert max(excess) - excess[0] < 0.05 * scale + 0.5

    def test_lemma_calc_projective_bound(self):
        rng = random.Random(7)
        radii = (4.0, 8.0, 16.0)
        for _ in range(5):
            f, g = self._random_exppoly(rng), self._random_exppoly(rng)
            excess = []
            for r in radii:
                tp = characteristic(curve(ONE, f, g), r, tol=1e-6)
                ts = (characteristic_scalar(f, r, tol=1e-6)
                      + characteristic_scalar(g, r, tol=1e-6))
                excess.append(tp - ts)
            scale = max(1.0, abs(excess[0]))
            assert max(excess) - excess[0] < 0.05 * max(
                1.0, *(abs(e) for e in excess)) + 0.5


class TestQuadrature:
    def test_smooth_integrand(self):
        val, err = integrate_periodic(
            lambda ts: [math.cos(3 * t) ** 2 for t in ts], 1e-10)
        assert val == pytest.approx(math.pi, abs=1e-9)

    @pytest.mark.parametrize("r", [128.0, 256.0, 512.0])
    def test_order2_large_radius(self, r, monkeypatch):
        # at r = 128 each kink lies 0.0028 rad from a multiple of pi/4; at
        # r >= 256 a uniform rule ran out of its 2^18 points
        calls = count_evaluations(monkeypatch)
        got = characteristic(ORDER2, r)
        assert got == pytest.approx(order2_oracle(r), abs=10 * 1e-8)
        assert got == pytest.approx(r * r / math.pi, rel=0.01)
        # the cost must not grow with r again
        assert calls[0] <= 5000
        assert calls[0] == {128.0: 1170, 256.0: 990, 512.0: 1230}[r]

    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    def test_log_plus_corner_off_switching_angle(self, tol):
        # log|z + 3| moves the corner of log+ |(z + 3) e^z| off the angles
        # where Re z = 0 by about 0.24 rad at r = 10
        g = ExpPoly([(poly(3, 1), XI)])
        want = oracle_log_plus_mean(lambda z: (z + 3) * mp.exp(z), 10.0)
        assert characteristic_scalar(g, 10.0, tol=tol) == pytest.approx(
            want, abs=tol)

    @pytest.mark.parametrize("r, tol", [(9.0, 1e-4), (5.0, 1e-6)])
    def test_log_plus_corners_of_several_terms(self, r, tol):
        # corners close to, but not at, the switching angles against 1:
        # the coefficients and the other term move them
        half = Fraction(1, 2)
        cases = [
            (ExpPoly([(poly(half, 0, 3), poly(0, -half, 1))]),
             lambda z: (half + 3 * z * z) * mp.exp(z * z - z / 2)),
            (ExpPoly([(poly(2, -1), poly(0, 0, half)),
                      (poly(half, 1), poly(0, 1, half))]),
             lambda z: ((2 - z) + (half + z) * mp.exp(z)) * mp.exp(z * z / 2)),
        ]
        for g, fn in cases:
            want = oracle_log_plus_mean(fn, r)
            assert characteristic_scalar(g, r, tol=tol) == pytest.approx(
                want, abs=tol)

    @pytest.mark.parametrize("tol", [2.5e-4, 1e-8])
    def test_circle_mean_zero_on_circle(self, tol):
        # z - (3 + 4i)/5 vanishes on |z| = 1, inside an arc
        h = ExpPoly.from_poly(poly(cr(Fraction(-3, 5), Fraction(-4, 5)), 1))
        want = oracle_circle_mean(
            lambda z: mp.log(abs(z - mp.mpc(0.6, 0.8))), 1.0,
            cuts=[mp.atan2(4, 3)])
        assert circle_log_mean(h, 1.0, tol=tol) == pytest.approx(want, abs=tol)
        # e^z - 1 vanishes at 2 pi i, on |z| = 2 pi at a switching angle
        h = E_XI - ONE
        want = oracle_circle_mean(lambda z: mp.log(abs(mp.exp(z) - 1)),
                                  2 * math.pi, cuts=[mp.pi / 2, 3 * mp.pi / 2])
        assert circle_log_mean(h, 2 * math.pi, tol=tol) == pytest.approx(
            want, abs=tol)

    def test_nan_integrand_raises_at_once(self):
        # the first step and its retry, no refinement: a NaN estimate used
        # to pass for convergence and come back as the integral
        calls = []

        def nan(thetas):
            calls.append(len(thetas))
            return [float("nan")] * len(thetas)
        with pytest.raises(QuadratureError, match="not a number"):
            integrate_periodic(nan, 1e-8)
        assert calls == [15, 15]

    @pytest.mark.parametrize("d, r", [(150, 1000.0), (120, 400.0),
                                      (400, 10.0)])
    def test_characteristic_beyond_float_range_raises(self, d, r):
        # |z^d| exceeds the double range on the circle
        zd = ExpPoly.from_poly(poly(*[0] * d, 1))
        with pytest.raises(QuadratureError, match="not a number"):
            characteristic(curve(ONE, zd), r)

    @pytest.mark.parametrize("functional", [
        circle_log_mean, characteristic_scalar,
        lambda h, r: counting_entire(h, r, method="circle-mean")],
        ids=["circle_log_mean", "characteristic_scalar", "counting_entire"])
    def test_log_means_beyond_float_range_raise(self, functional):
        # the means came back as NaN, and log+ made NaN 0.0, so the scalar
        # T was 0.0 where about 1381.55 is due
        h = ExpPoly.from_poly(poly(-1, *[0] * 199, 1))
        with pytest.raises(QuadratureError, match="not a number"):
            functional(h, 1000.0)

    @pytest.mark.parametrize("call", [
        lambda: characteristic(curve(ONE, Z100), 1211.0),
        lambda: characteristic_scalar(Z100, 1211.0),
        lambda: circle_log_mean(Z100_MINUS_ONE, 1211.0),
        lambda: counting_entire(Z100_MINUS_ONE, 1211.0,
                                method="circle-mean")],
        ids=["characteristic", "characteristic_scalar", "circle_log_mean",
             "counting_entire"])
    def test_modulus_past_float_range_raises(self, call):
        # on |z| = 1211 the parts of z^100 are finite where its modulus is
        # not: abs() raised a bare OverflowError there
        with pytest.raises(QuadratureError, match="out of the floating range"):
            call()

    def test_corner_search_past_float_range_raises(self):
        # z^100 e^z: log|g| overflows at the angles sampled near the
        # corners of log+, before the quadrature starts
        g = ExpPoly([(poly(*[0] * 100, 1), XI)])
        with pytest.raises(QuadratureError, match="log\\|g\\| out of"):
            characteristic_scalar(g, 1211.0)

    def test_log_factor(self):
        radii = [4, 8, 16, 32]
        logs = [3 * math.log(r) for r in radii]
        assert log_bound_factor(radii, logs) == pytest.approx(1.0, abs=1e-9)
        quads = [r * r / math.pi for r in radii]
        assert log_bound_factor(radii, quads) > 20
