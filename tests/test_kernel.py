"""The compiled numeric kernel against a per-term reference, bit for bit.

The reference below evaluates every term straight from its exact data
through CRat.to_complex and Poly.eval(z, complex), one point at a time, as
ExpPoly.eval_scaled did before evaluation moved to compiled complex data.
The column kernel eval_columns performs the same float operations in the
same order on a whole batch of points, so the results must be equal, not
merely close, whatever the batch.
"""

import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecomp.expfun import (EvalOverflowError, ExpPoly, column_max,
                              eval_columns)
from curvecomp.nevanlinna import (ProjCurve, WindingError, _X15,
                                  _circle_values, _grid, _log_abs_on_circle,
                                  characteristic, characteristic_scalar,
                                  circle_log_mean)
from curvecomp.polys import Poly
from curvecomp.scalars import CRat

from conftest import (XI, XI2, count_evaluations, count_reference_columns,
                      cr, exp_of, poly)


def ref_eval_scaled(f, z):
    if not f.terms:
        return 0j, 0.0
    ws = [t.expconst.to_complex() + t.expo.eval(z, complex) for t in f.terms]
    s = max(w.real for w in ws)
    v = 0j
    for t, w in zip(f.terms, ws):
        e = w - s
        if e.real < -745.0:
            continue
        v += t.coeff.eval(z, complex) * cmath.exp(e)
    return v, s


def ref_eval_unit(f, z):
    """(v, ref): the scaled value and the size it would have without
    cancellation, sum_k |q_k(z)| exp(min(Re w_k - s, 0))."""
    v, s = ref_eval_scaled(f, z)
    ref = 0.0
    for t in f.terms:
        w = t.expconst.to_complex() + t.expo.eval(z, complex)
        ref += abs(t.coeff.eval(z, complex)) * math.exp(min(w.real - s, 0.0))
    return v, ref


def ref_log_norm_sq(curve, z):
    logs = []
    for comp in curve.components:
        v, s = ref_eval_scaled(comp, z)
        if v != 0:
            logs.append(s + math.log(abs(v)))
    if not logs:
        return float("-inf")
    m = max(logs)
    return 2.0 * m + math.log(sum(math.exp(2.0 * (l - m)) for l in logs))


def bits(x):
    """Float fields as hex, so that signed zeros count too; every NaN reads
    'nan', so that NaN matches NaN as by isnan."""
    if isinstance(x, tuple):
        return tuple(bits(y) for y in x)
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    return float(x).hex()


def assert_identical(got, want):
    assert bits(got) == bits(want)


def reference(fn, zs):
    """fn at every point of zs, or OverflowError if it raises that at one:
    abs() of a complex raises when the modulus passes the double range
    while both parts are finite, in the reference as in the kernel."""
    try:
        return tuple(fn(z) for z in zs)
    except OverflowError:
        return OverflowError


def assert_matches(kernel, want):
    """kernel() is want bit for bit, or raises as the reference did."""
    if want is OverflowError:
        with pytest.raises(OverflowError):
            kernel()
    else:
        assert_identical(tuple(kernel()), want)


def points(seed, n=40):
    """Seeded points from the origin out to radius 40 (deep underflow)."""
    rng = random.Random(seed)
    pts = [0j, 1 + 0j, -1j]
    for _ in range(n):
        r = math.exp(rng.uniform(math.log(0.01), math.log(40.0)))
        pts.append(cmath.rect(r, rng.uniform(0.0, 2 * math.pi)))
    return pts


def grids(seed, count=16):
    """Seeded circles out to radius 40, each with its list of angles:
    the uniform grid 2 pi k / n or n random angles."""
    rng = random.Random(seed)
    out = [(1.0, [0.0]), (40.0, [2.0 * math.pi * k / 16 for k in range(16)])]
    for _ in range(count):
        r = math.exp(rng.uniform(math.log(0.01), math.log(40.0)))
        n = rng.randint(1, 48)
        if rng.random() < 0.5:
            thetas = [2.0 * math.pi * k / n for k in range(n)]
        else:
            thetas = [rng.uniform(0.0, 2 * math.pi) for _ in range(n)]
        out.append((r, thetas))
    return out


def ref_circle_values(f, radius, thetas):
    """(values, None): the values at thetas by ref_eval_unit; or, where
    some |v| <= 1e-12 ref (the winding sweep's near-zero test), (error,
    angle): EvalOverflowError and the first angle whose ref is infinite if
    there is one, else WindingError and the first angle that failed."""
    pairs = [ref_eval_unit(f, radius * complex(math.cos(t), math.sin(t)))
             for t in thetas]
    small = [t for t, (v, ref) in zip(thetas, pairs)
             if abs(v) <= 1e-12 * max(ref, 1e-300)]
    if not small:
        return [v for v, _ in pairs], None
    infinite = [t for t, (_, ref) in zip(thetas, pairs) if ref == math.inf]
    if infinite:
        return EvalOverflowError, infinite[0]
    return WindingError, small[0]


def sweep_message(error, radius, theta):
    """The message of _circle_values' error at the angle theta."""
    if error is EvalOverflowError:
        return (f"h is not finite on r={radius} at theta={theta}: "
                f"a value out of the floating range")
    return f"near-zero on circle r={radius} at theta={theta}"


ONE = ExpPoly.constant(1)
E_XI = exp_of(XI)
E_XI2 = exp_of(XI2)
ZERO = E_XI - E_XI
# empty exponents: a polynomial part and a constant tag exp(1/2 - i/3)
POLY_PART = ExpPoly.from_poly(poly(cr(1, 2), -3, cr(0, 1)))
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
TAGGED = ExpPoly([(poly(2, 1), Poly(), cr(HALF, -THIRD))])
MIXED = (exp_of(poly(0, cr(1, 1), -2), cr(2, -1)) + TAGGED
         + ExpPoly([(poly(1, 1), XI2, cr(-3, HALF))]) + POLY_PART)
# at |z| = 40 the e^z term sits about 1560 below e^{z^2}: it underflows
UNDERFLOW = E_XI2 + ExpPoly([(poly(0, 1), XI)])
# the first node of the one arc [0, 2pi) that integrate_periodic starts
# with when there are no splits
NODE_THETA = math.pi + math.pi * _X15[0]


def vanishing_at(z):
    """z - z0 for the exact value z0 of z: exactly 0 when evaluated at z."""
    return ExpPoly.from_poly(Poly([CRat(-Fraction(z.real), -Fraction(z.imag)),
                                   CRat(1)]))


NODE_Z = 2.5 * complex(math.cos(NODE_THETA), math.sin(NODE_THETA))
NODE_ZERO = vanishing_at(NODE_Z)

# a constant coefficient whose term underflows at |z| = 40, as UNDERFLOW's
# polynomial one does
UNDERFLOW_CONST = E_XI2 + E_XI.scale(3)
# z^800 overflows to NaN from |z| of about 2.4 on (NODE_Z among them) and
# underflows to an exact 0 below about 0.4
Z800 = ExpPoly.from_poly(poly(*[0] * 800, 1))
# B + B e^{iz} with B = 3 * 2^1022: |v| is inf where the two terms add up
# past the double range, at z = 0, 1 and -i among others
BIG = Fraction(3 * 2 ** 1022)
OVERFLOW = ExpPoly([(poly(BIG), Poly()), (poly(BIG), poly(0, cr(0, 1)))])

# every exponent constant, two different ones: eval_columns takes s and
# each term's exponential once for all points
CONST_EXPONENTS = POLY_PART + TAGGED
# a constant exponent 800 below the scale 0: its term is skipped in v
DEEP_CONST = ONE + ExpPoly([(poly(2, 1), Poly(), cr(-800))])

# a polynomial scaled into the subnormal range: |v| at |z| = 1 lies between
# 1e-12 * 1e-300 and 1e-300, so the sweep's near-zero floor decides
TINY = Fraction(1, 10 ** 310)
SUBNORMAL = ExpPoly.from_poly(poly(3 * TINY, cr(0, TINY), TINY))
# one term whose constant exponent is not real, and a polynomial
# coefficient in a sum: the sweep builds their references
IMAG_EXPONENT = ExpPoly([(poly(cr(-HALF), 1), Poly(), cr(0, 1))])
Z_EXP_MINUS_ONE = ExpPoly([(poly(0, 1), XI)]) - ONE

FUNCTIONS = {"zero": ZERO, "one": ONE, "poly_part": POLY_PART,
             "tagged": TAGGED, "mixed": MIXED, "underflow": UNDERFLOW,
             "exp_minus_one": E_XI - ONE, "node_zero": NODE_ZERO,
             "node_zero_exp": NODE_ZERO * E_XI2 + ZERO,
             "underflow_const": UNDERFLOW_CONST, "z800": Z800,
             "overflow": OVERFLOW, "const_exponents": CONST_EXPONENTS,
             "deep_const": DEEP_CONST, "subnormal": SUBNORMAL,
             "imag_exponent": IMAG_EXPONENT, "z_exp_minus_one": Z_EXP_MINUS_ONE}

CURVES = {
    # 4 terms, 2 distinct exponents shared between components
    "order2": ProjCurve([E_XI, E_XI2, -(E_XI + E_XI2)]),
    "shared_coeffs": ProjCurve([ExpPoly([(poly(1, 1), XI)]), E_XI2 - E_XI,
                                MIXED, POLY_PART]),
    "zero_component": ProjCurve([ZERO, E_XI2, UNDERFLOW]),
    "rational": ProjCurve([ONE, ExpPoly.from_poly(poly(0, 0, 0, 1))]),
    # one component vanishes exactly at NODE_Z, or both do
    "node_zero": ProjCurve([NODE_ZERO, E_XI2, UNDERFLOW]),
    "node_zero_only": ProjCurve([ZERO, NODE_ZERO]),
    "node_zero_last": ProjCurve([E_XI, NODE_ZERO]),
    "node_zero_twice": ProjCurve([NODE_ZERO, NODE_ZERO * E_XI2]),
    # at NODE_Z the first component vanishes and the second is NaN
    "node_zero_nan": ProjCurve([NODE_ZERO, Z800]),
    "overflow": ProjCurve([E_XI, OVERFLOW, NODE_ZERO]),
    "underflow_const": ProjCurve([UNDERFLOW_CONST, POLY_PART]),
    "single": ProjCurve([MIXED]),
    "single_term": ProjCurve([E_XI2]),
}


def batches(seed, count=6):
    """Seeded batches of points, each with NODE_Z somewhere in it."""
    rng = random.Random(seed)
    out = [[NODE_Z], points(seed)]
    for _ in range(count):
        pts = points(rng.randrange(1 << 30), n=rng.randint(0, 44))
        pts.insert(rng.randint(0, len(pts)), NODE_Z)
        out.append(pts)
    return out


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_kernel_batches_match_reference(name):
    """eval_columns on whole batches, against the one-point reference."""
    f = FUNCTIONS[name]
    expos, terms = f.compiled()
    for zs in batches(seed=300 + len(name)):
        want = [ref_eval_scaled(f, z) for z in zs]
        (vs, ss), = eval_columns(expos, (terms,), zs)
        assert_identical(tuple(zip(vs, ss)), tuple(want))
        (vs, ss, refs), = eval_columns(expos, (terms,), zs, refs=True)
        assert_identical(tuple(zip(vs, ss)), tuple(want))
        assert_identical(tuple(refs),
                         tuple(ref_eval_unit(f, z)[1] for z in zs))


@pytest.mark.parametrize("name", ["zero", "one", "poly_part", "tagged",
                                  "const_exponents", "deep_const"])
def test_kernel_empty_batch_of_constant_exponents(name):
    expos, terms = FUNCTIONS[name].compiled()
    assert all(rest is None for _, rest, _ in expos)
    assert eval_columns(expos, (terms,), []) == [([], [])]
    assert eval_columns(expos, (terms,), [], refs=True) == [([], [], [])]


# NaN, signed zeros, infinities and few enough values for ties
_column_floats = st.sampled_from(
    [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -2.5, 1e308])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(_column_floats, st.floats()), min_size=n,
             max_size=n), min_size=2, max_size=5)))
def test_column_max_is_the_builtin_max(cols):
    got = column_max(cols)
    want = list(map(max, *cols))
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert all(x is y for x, y in zip(got, want))


def test_column_max_of_one_column_is_that_column():
    col = [math.nan, 0.0]
    assert column_max([col]) is col


@pytest.mark.parametrize("name", sorted(CURVES))
def test_log_norm_sqs_batches_match_reference(name):
    c = CURVES[name]
    for zs in batches(seed=400 + len(name)):
        assert_matches(lambda: c.log_norm_sqs(zs),
                       reference(lambda z: ref_log_norm_sq(c, z), zs))


def test_kernel_serves_components_of_a_curve():
    c = CURVES["node_zero"]
    zs = points(seed=5)
    cols = eval_columns(*c.compiled(), zs)
    for comp, (vs, ss) in zip(c.components, cols):
        assert_identical(tuple(zip(vs, ss)),
                         tuple(ref_eval_scaled(comp, z) for z in zs))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_eval_scaled_matches_reference(name):
    f = FUNCTIONS[name]
    for z in points(seed=len(name)):
        assert_identical(f.eval_scaled(z), ref_eval_scaled(f, z))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_eval_unit_matches_reference(name):
    """The batched circle sweep, angle by angle against ref_eval_unit."""
    f = FUNCTIONS[name]
    for radius, thetas in grids(seed=100 + len(name)):
        # the sweep takes |v| at every angle before its near-zero test
        if reference(lambda t: abs(ref_eval_unit(
                f, radius * complex(math.cos(t), math.sin(t)))[0]),
                thetas) is OverflowError:
            with pytest.raises(OverflowError):
                _circle_values(f, radius, thetas)
            continue
        want, bad = ref_circle_values(f, radius, thetas)
        if bad is None:
            assert_identical(tuple(_circle_values(f, radius, thetas)),
                             tuple(want))
        else:
            with pytest.raises(want) as exc:
                _circle_values(f, radius, thetas)
            assert str(exc.value) == sweep_message(want, radius, bad)


def sweep_outcome(f, radius, thetas):
    """_circle_values' values as float bits, or its error and message."""
    try:
        return bits(tuple(_circle_values(f, radius, thetas)))
    except (ArithmeticError, WindingError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_grid_sweep_matches_angle_list(name):
    """A sweep on a grid of winding_number, whose points are radius times
    the grid's unit points, is a sweep on the same angles given as a list."""
    f = FUNCTIONS[name]
    for n, ks in ((256, range(256)), (512, range(1, 512, 2)),
                  (1024, range(1, 1024, 2))):
        thetas = [2.0 * math.pi * k / n for k in ks]
        grid = _grid(n, len(ks) < n)
        assert_identical(tuple(grid), tuple(thetas))
        assert_identical(tuple(grid.units), tuple(
            complex(math.cos(t), math.sin(t)) for t in thetas))
        for radius in (0.5, 2.5, 40.0):
            assert (sweep_outcome(f, radius, grid)
                    == sweep_outcome(f, radius, thetas))


def ref_outcome(f, radius, thetas):
    """ref_circle_values in the form of sweep_outcome."""
    try:
        want, bad = ref_circle_values(f, radius, thetas)
    except OverflowError as exc:
        return OverflowError, str(exc)
    if bad is None:
        return bits(tuple(want))
    return want, sweep_message(want, radius, bad)


GRID = _grid(256, False)
QUARTER = 0.5 * math.pi
Z100_MINUS_ONE = ExpPoly.from_poly(poly(-1, *[0] * 99, 1))
Z200_MINUS_ONE = ExpPoly.from_poly(poly(-1, *[0] * 199, 1))
# (h, radius, angles, outcome, reference columns built).  The outcome is
# "values" or the error _circle_values raises; a bound that decides the
# near-zero test builds no reference column, one that cannot builds one.
SWEEPS = {
    # (A) constant coefficients: e^z - 1 vanishes at 2 pi i, the angle
    # pi/2 of the circle of radius 2 pi, where the two terms cancel
    "exp_cancels": (E_XI - ONE, 2.0 * math.pi,
                    [QUARTER - 1e-3, QUARTER, QUARTER + 1e-3], WindingError,
                    1),
    "exp_cancels_grid": (E_XI - ONE, 2.0 * math.pi, GRID, WindingError, 1),
    "exp_off_zero": (E_XI - ONE, 2.0 * math.pi,
                     [QUARTER - 1e-3, QUARTER + 1e-3], "values", 0),
    "exp_z2": (E_XI2 - ONE, 4.0, GRID, "values", 0),
    "const_sum": (E_XI2 + E_XI.scale(3) - ONE.scale(cr(HALF, 2)), 6.0, GRID,
                  "values", 0),
    # (B) one term with a real constant exponent: a subnormal |v| is small
    # exactly where it is at or below 1e-12 * 1e-300
    "subnormal_small": (ExpPoly.from_poly(poly(0, TINY)), 0.001, GRID,
                        WindingError, 1),
    "subnormal_above_floor": (ExpPoly.from_poly(poly(0, TINY)), 0.011,
                              GRID, "values", 0),
    "subnormal": (SUBNORMAL, 1.0, GRID, "values", 0),
    "cubic": (ExpPoly.from_poly(poly(cr(HALF, -1), 0, cr(0, 3), 1)), 1.8,
              GRID, "values", 0),
    # values out of the floating range take the reference's way
    "z100_infinite": (Z100_MINUS_ONE, 1220.0, GRID, EvalOverflowError, 1),
    "z200_nan": (Z200_MINUS_ONE, 1000.0, GRID, "values", 1),
    # neither rule applies
    "imag_exponent": (IMAG_EXPONENT, 0.5, [0.0, 1.0], WindingError, 1),
    "imag_exponent_off": (IMAG_EXPONENT, 0.5, [1.0], "values", 1),
    "z_exp_minus_one": (Z_EXP_MINUS_ONE, 0.5671432904097838, [0.0, 1.0],
                        WindingError, 1),
    "z_exp_off": (Z_EXP_MINUS_ONE, 2.0, GRID, "values", 1),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_bound_decides_as_the_reference(monkeypatch, name):
    """Where a bound decides the near-zero test no reference column is
    built; either way the values, or the error and its message, are the
    reference's."""
    f, radius, thetas, outcome, columns = SWEEPS[name]
    want = ref_outcome(f, radius, thetas)
    assert (want[0] if want[0] in (WindingError, EvalOverflowError)
            else "values") == outcome
    calls = count_reference_columns(monkeypatch)
    assert sweep_outcome(f, radius, thetas) == want
    assert calls[0] == columns


_small_ints = st.integers(-9, 9)
_gaussian = st.builds(lambda a, b, d: cr(Fraction(a, d), Fraction(b, d)),
                      _small_ints, _small_ints, st.integers(1, 9))
_radius = st.sampled_from([1e-3, 0.3, 1.0, 1.8, 2 * math.pi, 40.0, 1e3])


@st.composite
def scaled_polynomials(draw):
    """A Gaussian-rational polynomial of degree <= 4 times 10^k."""
    # the ends of the range and the near-zero floor 1e-12 * 1e-300 are
    # drawn more often than the rest
    k = draw(st.one_of(st.sampled_from([-320, -313, -312, -311, -300, 300]),
                       st.integers(-320, 300)))
    scale = CRat(Fraction(10) ** k)
    cs = draw(st.lists(_gaussian, min_size=1, max_size=5))
    return ExpPoly.from_poly(Poly([c * scale for c in cs]))


@st.composite
def constant_coefficient_sums(draw):
    """A sum of terms c e^{p(z)}, c a constant and deg p <= 2."""
    terms = [(Poly([c]), Poly(draw(st.lists(_gaussian, max_size=3))))
             for c in draw(st.lists(_gaussian, min_size=1, max_size=4))]
    return ExpPoly(terms)


def assert_sweeps_match_reference(f, radius, theta):
    for thetas in (_grid(256, False), _grid(512, True), [theta]):
        assert sweep_outcome(f, radius, thetas) == ref_outcome(f, radius,
                                                              thetas)


@settings(max_examples=100, deadline=None)
@given(scaled_polynomials(), _radius, st.floats(0.0, 2 * math.pi))
def test_polynomial_sweeps_match_reference(f, radius, theta):
    assert_sweeps_match_reference(f, radius, theta)


@settings(max_examples=100, deadline=None)
@given(constant_coefficient_sums(), _radius, st.floats(0.0, 2 * math.pi))
def test_constant_coefficient_sweeps_match_reference(f, radius, theta):
    assert_sweeps_match_reference(f, radius, theta)


def test_near_zero_names_first_failing_angle():
    # e^z + 1 vanishes at z = +-i pi, the angles pi/2 and 3pi/2 of the
    # circle of radius pi, both on the 8-point grid; the two terms cancel
    h = E_XI + ONE
    thetas = [2.0 * math.pi * k / 8 for k in range(8)]
    for first, sweep in ((thetas[2], thetas), (thetas[6], thetas[3:])):
        assert ref_circle_values(h, math.pi, sweep) == (WindingError, first)
        with pytest.raises(WindingError) as exc:
            _circle_values(h, math.pi, sweep)
        assert str(exc.value) == (
            f"near-zero on circle r={math.pi} at theta={first}")


@pytest.mark.parametrize("name", sorted(CURVES))
def test_log_norm_sq_matches_reference(name):
    c = CURVES[name]
    for z in points(seed=200 + len(name)):
        assert_matches(lambda: [c.log_norm_sq(z)],
                       reference(lambda z: ref_log_norm_sq(c, z), [z]))


def test_cases_are_exercised():
    assert ZERO.is_zero() and ZERO.eval_scaled(2.0) == (0j, 0.0)
    assert NODE_ZERO.eval_scaled(NODE_Z) == (0j, 0.0)
    assert CURVES["node_zero_only"].log_norm_sq(NODE_Z) == float("-inf")
    assert math.isfinite(CURVES["node_zero"].log_norm_sq(NODE_Z))
    assert ref_eval_unit(ZERO, 2.0) == (0j, 0.0)
    with pytest.raises(WindingError, match=r"at theta=0\.5$"):
        _circle_values(ZERO, 2.0, [0.5, 1.0])
    assert all(t.expo.is_zero() for t in TAGGED.terms + POLY_PART.terms)
    v, s = UNDERFLOW.eval_scaled(40.0)
    assert s == 1600.0 and v == 1.0
    assert ref_eval_unit(UNDERFLOW, 40.0)[1] == 1.0
    v, s = UNDERFLOW_CONST.eval_scaled(40.0)
    assert s == 1600.0 and v == 1.0
    assert Z800.eval_scaled(0.3) == (0j, 0.0)
    assert math.isnan(abs(Z800.eval_scaled(NODE_Z)[0]))
    assert math.isnan(CURVES["node_zero_nan"].log_norm_sq(NODE_Z))
    assert CURVES["node_zero_twice"].log_norm_sq(NODE_Z) == float("-inf")
    assert all(abs(OVERFLOW.eval_scaled(z)[0]) == math.inf
               for z in (0j, 1 + 0j, -1j))
    assert math.isnan(CURVES["overflow"].log_norm_sq(0j))
    with pytest.raises(EvalOverflowError, match=r"r=1\.0 at theta=0\.0:"):
        _circle_values(OVERFLOW, 1.0, [0.0, 1.0])
    for f, exponents in ((CONST_EXPONENTS, 2), (DEEP_CONST, 2)):
        expos, _ = f.compiled()
        assert len(expos) == exponents
        assert all(rest is None for _, rest, _ in expos)
    assert DEEP_CONST.eval_scaled(2.0) == (1 + 0j, 0.0)
    assert ref_eval_unit(DEEP_CONST, 2.0) == (1 + 0j, 1.0)


def test_curve_lists_each_exponent_once():
    curve = CURVES["order2"]
    assert sum(len(c.terms) for c in curve.components) == 4
    expos, comps = curve.compiled()
    assert len(expos) == 2
    assert [len(t) for t in comps] == [1, 1, 2]
    assert curve.compiled() is curve.compiled()


def test_compiled_data_is_cached():
    assert MIXED.compiled() is MIXED.compiled()
    expos, terms = MIXED.compiled()
    assert len(expos) == len(terms) == len(MIXED.terms)


def test_import_leaves_numpy_out():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, curvecomp.cli, curvecomp.nevanlinna; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


ORDER2 = CURVES["order2"]
# float.hex of values recorded before the quadrature evaluated its nodes in
# batches through eval_columns, one angle per call then
T_PINS = {8.0: "0x1.4cd1c326189cep+4", 32.0: "0x1.466019576ae99p+8",
          128.0: "0x1.45f9d8732e754p+12"}


@pytest.mark.parametrize("r", sorted(T_PINS))
def test_characteristic_bit_identical(r):
    assert characteristic(ORDER2, r).hex() == T_PINS[r]


def test_characteristic_scalar_bit_identical():
    assert characteristic_scalar(E_XI, 10.0).hex() == "0x1.976fc893c3aa4p+1"


@pytest.mark.parametrize("r, want", [(1.0, "0x1.7a6b0ca7f4621p-33"),
                                     (2.5, "0x1.d5240f0f8872ap-1")])
def test_circle_mean_retries_exact_zero_at_node(monkeypatch, r, want):
    # z - z0 with z0 exactly the first node of the circle of radius r: the
    # integrand is -inf there, and that one node is evaluated again 1e-9
    # further on (1,245 nodes in 83 arcs, plus the retry)
    z0 = r * complex(math.cos(NODE_THETA), math.sin(NODE_THETA))
    h = vanishing_at(z0)
    assert _log_abs_on_circle(h, r)([NODE_THETA]) == [float("-inf")]
    calls = count_evaluations(monkeypatch)
    assert circle_log_mean(h, r).hex() == want
    assert calls[0] == 1246


def test_circle_mean_zero_on_circle_bit_identical():
    # zeros on the circle inside an arc and at a switching angle
    h = ExpPoly.from_poly(poly(cr(Fraction(-3, 5), Fraction(-4, 5)), 1))
    assert circle_log_mean(h, 1.0).hex() == "-0x1.261206cc78ce2p-33"
    assert circle_log_mean(E_XI - ONE, 2 * math.pi).hex() == (
        "0x1.d67f1c865f968p+0")
