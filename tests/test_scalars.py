"""The scalar layer: CRat and CycNum share one interface, and one power
routine serves the two fields and the three polynomial rings.

The field properties run in Q(zeta_L) for L in {3, 4, 8, 12, 20, 420}.  At
L = 420 the unit i = zeta^105 lies beyond the power basis (phi(420) = 96),
so it reduces modulo the cyclotomic polynomial; at L = 3 there is no i.
These pins use only operators and methods both scalar types have always
had; ``test_shared_interface`` covers zero(), one(), to_crat() on a CRat
and complex().

A negative exponent is an error in a ring.  The regression tests for it run
in a child process with a timeout, because a power loop that accepts a
negative exponent never ends.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from curvecomp.expfun import ExpPoly
from curvecomp.polys import MPoly, Poly
from curvecomp.scalars import CRat, CycField, cyclotomic_poly

ORDERS = (3, 4, 8, 12, 20, 420)
SRC = Path(__file__).resolve().parent.parent / "src"
ONE_Q = [1, 1, 0, 1]


def _elements(field):
    """A few nonzero elements: a root of unity, sums of a few powers of
    zeta, and the top basis vector plus zeta^(L-1)."""
    d = field.degree
    return [field.zeta(1),
            field.element([Fraction(1, 2), 0, -3]),
            field.element([Fraction(k + 1, 7 - (k % 5)) * (-1) ** k
                           for k in range(min(d, 4))]),
            field.element([0] * (d - 1) + [5]) + field.zeta(field.order - 1)]


def _close(a: complex, b: complex):
    return abs(a - b) <= 1e-9 * (1 + abs(b))


@pytest.mark.parametrize("order", ORDERS)
class TestCycNumField:
    def test_inverse_and_negative_powers(self, order):
        f = CycField(order)
        for x in _elements(f):
            assert x * x.inverse() == f.one()
            assert x ** -3 == (x ** 3).inverse()
            assert x ** 0 == f.one()

    def test_mixed_operators_match_floats(self, order):
        f = CycField(order)
        for x in _elements(f):
            z = x.to_complex()
            assert _close((1 - x).to_complex(), 1 - z)
            assert _close((2 / x).to_complex(), 2 / z)
            assert _close((x / Fraction(1, 3)).to_complex(), 3 * z)
            if order % 4 == 0:
                assert _close((x - CRat(0, 1)).to_complex(), z - 1j)
            else:
                with pytest.raises(ValueError):
                    x - CRat(0, 1)

    def test_crat_round_trip(self, order):
        f = CycField(order)
        cs = [CRat(0), CRat(Fraction(-7, 3)), CRat(2, -5),
              CRat(Fraction(1, 9), Fraction(4, 11))]
        for c in cs:
            if order % 4 and c.im:
                with pytest.raises(ValueError):
                    f.embed_crat(c)
                continue
            assert f.embed_crat(c).to_crat() == c
        if order == 4:  # Q(zeta_4) is Q(i)
            assert f.zeta(1).to_crat() == CRat(0, 1)
        else:
            with pytest.raises(ValueError):
                f.zeta(1).to_crat()


def test_i_reduces_modulo_phi_420():
    f = CycField(420)
    assert f.degree == 96 < 105
    i = f.i_unit()
    assert i * i == -f.one()
    assert i.to_crat() == CRat(0, 1)
    assert (f.zeta(105) + 3).to_crat() == CRat(3, 1)
    with pytest.raises(ValueError):
        (i + f.zeta(7)).to_crat()


@pytest.mark.parametrize("order", ORDERS)
def test_shared_interface(order):
    f = CycField(order)
    c = CRat(Fraction(3, 4), -2)
    assert c.to_crat() is c
    assert c.zero() == CRat(0) and c.one() == CRat(1)
    assert complex(c) == c.to_complex() == 0.75 - 2j
    for x in _elements(f):
        assert x.zero() == f.zero() and x.one() == f.one()
        assert complex(x) == x.to_complex()


def test_crat_field_operators():
    c = CRat(Fraction(3, 4), -2)
    assert c ** -2 == (c * c).inverse()
    assert 1 - c == CRat(Fraction(1, 4), 2)
    assert 2 / c == CRat(2) * c.inverse()
    with pytest.raises(ZeroDivisionError):
        CRat(0) ** -1


def test_cyclotomic_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 61):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert cyclotomic_poly(n) == tuple(int(c) for c in reversed(want)), n


# -- the power routine ---------------------------------------------------------

def _ring_samples():
    p = Poly([CRat(1), CRat(2, -1), CRat(0), CRat(Fraction(1, 3))])
    m = MPoly(2, [((1, 0), CRat(1)), ((0, 2), CRat(-2, 1)),
                  ((0, 0), CRat(3))])
    e = ExpPoly.exp_of(Poly([0, 1]), 2) + ExpPoly.constant(CRat(0, 1))
    return [(p, Poly([1])), (m, MPoly.monomial(2, (0, 0))),
            (e, ExpPoly.constant(1))]


@pytest.mark.parametrize("k", range(0, 8))
def test_power_is_repeated_multiplication(k):
    for x, one in _ring_samples():
        want = one
        for _ in range(k):
            want = want * x
        assert x ** k == want


def test_power_of_zero_and_zeroth_power():
    assert Poly() ** 0 == Poly([1])
    assert Poly() ** 3 == Poly()
    assert MPoly(2) ** 0 == MPoly.monomial(2, (0, 0))
    assert (MPoly(2) ** 2).is_zero()
    assert ExpPoly.zero() ** 0 == ExpPoly.constant(1)
    assert ExpPoly.zero() ** 2 == ExpPoly.zero()
    assert CRat(0) ** 0 == CRat(1)
    f = CycField(12)
    assert f.zero() ** 0 == f.one()
    assert f.zero() ** 5 == f.zero()


# -- negative exponents --------------------------------------------------------

def _child(args, timeout=20):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable] + args, env=env, timeout=timeout,
                          capture_output=True, text=True)


@pytest.mark.parametrize("expr", [
    "Poly([1, 1]) ** -1",
    "MPoly(2, [((1, 0), 1), ((0, 1), 1)]) ** -1",
    "ExpPoly.exp_of(Poly([0, 1])) ** -1",
])
def test_ring_power_rejects_negative_exponent(expr):
    code = ("from curvecomp.polys import MPoly, Poly\n"
            "from curvecomp.expfun import ExpPoly\n"
            "try:\n"
            f"    {expr}\n"
            "except ValueError as exc:\n"
            "    print('ValueError', exc)\n")
    out = _child(["-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ValueError")


def _cli_error(tmp_path, argv):
    out = _child(["-m", "curvecomp.cli"] + argv + ["--output", "-"])
    assert out.returncode == 1, out.stderr
    return json.loads(out.stdout)["error"]


def test_nev_N_rejects_negative_exponent(tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"components": [
        [{"coeff": [ONE_Q], "exp": []}],
        [{"coeff": [ONE_Q], "exp": [[0, 1, 0, 1], ONE_Q]}]]}))
    divisor = tmp_path / "divisor.json"
    divisor.write_text(json.dumps({"monomials": [
        {"exponents": [-1, 2], "coeff": ONE_Q}]}))
    err = _cli_error(tmp_path, ["nev", "N", "--curve", str(curve),
                                "--divisor", str(divisor), "--r", "2"])
    assert err["type"] == "ValueError"
    assert "[-1, 2]" in err["message"]


def test_plane_nc_rejects_negative_exponent(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"curves": [
        {"monomials": [{"exponents": [3, -1, 0], "coeff": [1, 1]},
                       {"exponents": [0, 0, 2], "coeff": [-1, 1]}]},
        {"monomials": [{"exponents": [1, 1, 0], "coeff": [1, 1]},
                       {"exponents": [0, 0, 2], "coeff": [-1, 1]}]},
        {"monomials": [{"exponents": [0, 1, 0], "coeff": [1, 1]}]}]}))
    err = _cli_error(tmp_path, ["plane", "nc", "--config", str(conf)])
    assert err["type"] == "ValueError"
    assert "[3, -1, 0]" in err["message"]
