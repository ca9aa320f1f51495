import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from curvecomp.cli import main

CURVE_EXP = {"components": [
    [{"coeff": [[1, 1, 0, 1]], "exp": []}],
    [{"coeff": [[1, 1, 0, 1]], "exp": [[0, 1, 0, 1], [1, 1, 0, 1]]}],
]}

SUM_SPEC = {
    "M": 2,
    "p1": [[0, 1, 0, 1], [1, 1, 0, 1]],
    "p2": [[0, 1, 0, 1], [2, 1, 0, 1]],
    "terms": [
        {"coeff": [1, 1, 0, 1], "i": 2, "j": 0, "k": 1},
        {"coeff": [-3, 2, 0, 1], "i": 1, "j": 1, "k": 0},
        {"coeff": [1, 2, 0, 1], "i": 0, "j": 0, "k": 0},
    ],
}

FORM_DZ1DZ2 = {"M": 2, "basis": "plain", "vars": ["z1", "z2"], "coeffs": [
    {"num": [], "den": [{"exponents": [0, 0], "coeff": [1, 1, 0, 1]}]},
    {"num": [{"exponents": [0, 0], "coeff": [1, 1, 0, 1]}],
     "den": [{"exponents": [0, 0], "coeff": [1, 1, 0, 1]}]},
    {"num": [], "den": [{"exponents": [0, 0], "coeff": [1, 1, 0, 1]}]},
]}

CONF_FLAGGED = {"curves": [
    {"monomials": [{"exponents": [0, 3, 0], "coeff": [1, 1]},
                   {"exponents": [0, 0, 3], "coeff": [-1, 1]},
                   {"exponents": [2, 0, 1], "coeff": [-1, 1]}]},
    {"monomials": [{"exponents": [1, 1, 0], "coeff": [1, 1]},
                   {"exponents": [0, 0, 2], "coeff": [-1, 1]}]},
    {"monomials": [{"exponents": [3, 0, 0], "coeff": [1, 1]},
                   {"exponents": [0, 2, 1], "coeff": [-1, 1]},
                   {"exponents": [0, 0, 3], "coeff": [1, 1]}]},
]}


def run_cli(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_bytes()


def run_json(tmp_path, name, argv):
    code, raw = run_cli(tmp_path, name, argv)
    return code, json.loads(raw)


@pytest.fixture
def curve_file(tmp_path):
    p = tmp_path / "curve.json"
    p.write_text(json.dumps(CURVE_EXP))
    return str(p)


class TestChernCli:
    def test_invariants_example(self, tmp_path):
        code, doc = run_json(tmp_path, "o.json",
                             ["chern", "invariants", "--a", "1", "--b", "2,2,2"])
        assert code == 0
        assert doc["c1sq_minus_c2"] == 0
        assert doc["meta"]["version"]

    def test_enumerate_bmax3(self, tmp_path):
        code, doc = run_json(tmp_path, "o.json",
                             ["chern", "enumerate", "--a", "1", "--bmax", "3"])
        assert code == 0
        rows = {(r["b1"], r["b2"], r["b3"]): r["case"] for r in doc["rows"]}
        assert rows[(2, 2, 3)] == "c" and rows[(2, 2, 2)] == "none"

    def test_golden_write_then_match(self, tmp_path):
        gold = tmp_path / "golden"
        argv = ["chern", "enumerate", "--a", "1", "--bmax", "3",
                "--golden", str(gold)]
        code, doc = run_json(tmp_path, "w.json", argv + ["--update"])
        assert code == 0 and doc["golden"]["mode"] == "written"
        code, doc = run_json(tmp_path, "c.json", argv)
        assert code == 0 and doc["golden"]["mode"] == "match"
        # corrupt and verify mismatch is detected
        path = gold / "chern_enumerate_a1_bmax3.csv"
        path.write_text(path.read_text().replace("2,2,3,1", "2,2,3,9"))
        code, doc = run_json(tmp_path, "m.json", argv)
        assert code == 1 and "golden mismatch" in doc["error"]["message"]


class TestNevCli:
    def test_order_documented_example(self, tmp_path, curve_file):
        code, doc = run_json(tmp_path, "o.json",
                             ["nev", "order", "--curve", curve_file,
                              "--radii", "2,4,8,16,32"])
        assert code == 0
        assert abs(doc["fit"]["order"] - 1.0) < 0.1

    def test_T_and_N(self, tmp_path, curve_file):
        code, doc = run_json(tmp_path, "t.json",
                             ["nev", "T", "--curve", curve_file, "--r", "10"])
        assert code == 0 and abs(doc["values"]["T"] - 10 / 3.14159) < 0.1
        div = tmp_path / "div.json"
        div.write_text(json.dumps(
            {"monomials": [{"exponents": [1, 0], "coeff": [-1, 1, 0, 1]},
                           {"exponents": [0, 1], "coeff": [1, 1, 0, 1]}]}))
        code, doc = run_json(tmp_path, "n.json",
                             ["nev", "N", "--curve", curve_file,
                              "--divisor", str(div), "--r", "20"])
        assert code == 0 and abs(doc["values"]["N"] - 20 / 3.14159) < 0.2

    def test_payload_input(self, tmp_path):
        payload = tmp_path / "in.json"
        payload.write_text(json.dumps({"curve": CURVE_EXP, "r": 5.0}))
        code, doc = run_json(tmp_path, "o.json",
                             ["nev", "T", "--input", str(payload)])
        assert code == 0 and doc["values"]["r"] == 5.0


class TestBorelCli:
    def test_analyze(self, tmp_path):
        p = tmp_path / "sum.json"
        p.write_text(json.dumps(SUM_SPEC))
        code, doc = run_json(tmp_path, "o.json",
                             ["borel", "analyze", "--input", str(p)])
        assert code == 0
        assert doc["kind"] == "case2_proportional"
        assert doc["lambda"] == [1, 1, 0, 1]
        assert doc["gamma"] == [1, 2, 0, 1]
        assert "dxi1/xi1" in doc["omega0"]


class TestCoverCli:
    def test_pushdown_worked_example(self, tmp_path):
        p = tmp_path / "form.json"
        p.write_text(json.dumps(FORM_DZ1DZ2))
        code, doc = run_json(tmp_path, "o.json",
                             ["cover", "pushdown", "--b", "2", "--form", str(p)])
        assert code == 0
        pushed = doc["pushed"]
        assert pushed["basis"] == "log1" and pushed["M"] == 4
        r2 = pushed["coeffs"][2]
        assert r2["num"] == [{"exponents": [1, 0], "coeff": [-1, 4, 0, 1]}]

    def test_check(self, tmp_path):
        form = tmp_path / "form.json"
        # xi2 dxi1 - xi1 dxi2
        form.write_text(json.dumps({
            "M": 1, "basis": "plain", "vars": ["xi1", "xi2"], "coeffs": [
                {"num": [{"exponents": [1, 0], "coeff": [-1, 1, 0, 1]}],
                 "den": [{"exponents": [0, 0], "coeff": [1, 1, 0, 1]}]},
                {"num": [{"exponents": [0, 1], "coeff": [1, 1, 0, 1]}],
                 "den": [{"exponents": [0, 0], "coeff": [1, 1, 0, 1]}]}]}))
        g = tmp_path / "g.json"
        g.write_text(json.dumps(
            [{"coeff": [[1, 1, 0, 1]], "exp": [[0, 1, 0, 1], [1, 1, 0, 1]]}]))
        code, doc = run_json(tmp_path, "o.json",
                             ["cover", "check", "--form", str(form),
                              "--g1", str(g), "--g2", str(g)])
        assert code == 0 and doc["annihilates"] is True


class TestPlaneCli:
    def test_intersect(self, tmp_path):
        p = tmp_path / "pair.json"
        p.write_text(json.dumps({"curves": [
            {"monomials": [{"exponents": [1, 0, 1], "coeff": [1, 1]},
                           {"exponents": [0, 2, 0], "coeff": [-1, 1]}]},
            {"monomials": [{"exponents": [0, 1, 0], "coeff": [1, 1]}]}]}))
        code, doc = run_json(tmp_path, "o.json",
                             ["plane", "intersect", "--input", str(p)])
        assert code == 0 and doc["bezout_total"] == 2

    def test_engine(self, tmp_path):
        code, doc = run_json(tmp_path, "o.json",
                             ["plane", "engine", "--degrees", "2,2,3",
                              "--d0max", "10"])
        assert code == 0
        assert doc["survivors"] and all(v["d0"] == 1 for v in doc["survivors"])

    def test_nc_and_exclusion(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(CONF_FLAGGED))
        code, doc = run_json(tmp_path, "nc.json",
                             ["plane", "nc", "--config", str(conf)])
        assert code == 0
        code, doc = run_json(tmp_path, "ex.json",
                             ["plane", "exclusion", "--config", str(conf)])
        assert code == 0 and doc["pass"] is False

    def test_exclusion_on_singular_cubic(self, tmp_path):
        # the rank-one fibre gcd of this cubic is -x^4, on which the numeric
        # root finder does not converge without a squarefree split
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"curves": [
            {"monomials": [
                {"exponents": [0, 0, 3], "coeff": [1, 1]},
                {"exponents": [0, 1, 2], "coeff": [2, 1]},
                {"exponents": [0, 2, 1], "coeff": [-2, 1]},
                {"exponents": [0, 3, 0], "coeff": [-2, 1]},
                {"exponents": [1, 2, 0], "coeff": [-3, 1]}]},
            {"monomials": [{"exponents": [2, 0, 0], "coeff": [1, 1]},
                           {"exponents": [0, 2, 0], "coeff": [1, 1]},
                           {"exponents": [0, 0, 2], "coeff": [-1, 1]}]},
            {"monomials": [{"exponents": [1, 0, 0], "coeff": [1, 1]},
                           {"exponents": [0, 1, 0], "coeff": [1, 1]},
                           {"exponents": [0, 0, 1], "coeff": [1, 1]}]}]}))
        code, doc = run_json(tmp_path, "ex.json",
                             ["plane", "exclusion", "--config", str(conf)])
        assert code == 0, doc
        assert doc["pass"] is True and doc["candidates"] == 2


class TestExpfunCli:
    def test_eval(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text(json.dumps(
            [{"coeff": [[1, 1, 0, 1]], "exp": [[0, 1, 0, 1], [1, 1, 0, 1]]}]))
        code, doc = run_json(tmp_path, "o.json",
                             ["expfun", "eval", "--f", str(f), "--point", "0"])
        assert code == 0 and doc["value"] == [1.0, 0.0]

    def test_iszero(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text(json.dumps([
            {"coeff": [[1, 1, 0, 1]], "exp": [[1, 1, 0, 1], [1, 1, 0, 1]]},
            {"coeff": [[-1, 1, 0, 1]], "exp": [[0, 1, 0, 1], [1, 1, 0, 1]],
             "expconst": [1, 1, 0, 1]}]))
        code, doc = run_json(tmp_path, "o.json",
                             ["expfun", "iszero", "--f", str(f)])
        assert code == 0 and doc["is_zero"] is True

    @pytest.mark.parametrize("operands, message", [
        (["--op", "add"], "--op add takes --g and no --scalar"),
        (["--op", "multiply"], "--op multiply takes --g and no --scalar"),
        (["--op", "multiply", "--g", "@f", "--scalar", "2"],
         "--op multiply takes --g and no --scalar"),
        (["--op", "scale"], "--op scale takes --scalar and no --g"),
        (["--op", "scale", "--scalar", "2", "--g", "@f"],
         "--op scale takes --scalar and no --g"),
        (["--op", "scale", "--scalar", "1/0"],
         "--scalar must be a rational number, got '1/0'"),
        (["--op", "scale", "--scalar", "half"],
         "--scalar must be a rational number, got 'half'"),
    ])
    def test_combine_operand_errors_name_the_flag(self, tmp_path, operands,
                                                  message):
        f = tmp_path / "f.json"
        f.write_text(json.dumps([{"coeff": [[1, 1, 0, 1]], "exp": []}]))
        argv = [str(f) if a == "@f" else a for a in operands]
        code, doc = run_json(tmp_path, "o.json",
                             ["expfun", "combine", "--f", str(f)] + argv)
        assert code == 1 and doc["error"] == {"type": "SchemaError",
                                              "message": message}


class TestErrors:
    def test_schema_error_envelope(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, doc = run_json(tmp_path, "o.json",
                             ["borel", "analyze", "--input", str(bad)])
        assert code == 1 and doc["error"]["type"] == "SchemaError"

    def test_computational_error_envelope(self, tmp_path):
        p = tmp_path / "pair.json"
        # two identical lines: shared component
        line = {"monomials": [{"exponents": [0, 1, 0], "coeff": [1, 1]}]}
        p.write_text(json.dumps({"curves": [line, line]}))
        code, doc = run_json(tmp_path, "o.json",
                             ["plane", "intersect", "--input", str(p)])
        assert code == 1 and doc["error"]["type"] == "NonCoprimeError"

    @pytest.mark.parametrize("argv, payload, field", [
        (["nev", "T"], {"curve": CURVE_EXP}, "r"),
        (["nev", "T", "--r", "2"], {}, "curve"),
        (["nev", "Tscalar"], {"r": 2.0}, "g"),
        (["nev", "N", "--r", "2"], {"curve": CURVE_EXP}, "divisor"),
        (["nev", "order"], {"curve": CURVE_EXP}, "radii"),
        (["nev", "smt", "--radii", "2,3,4,5"], {"curve": CURVE_EXP},
         "divisors"),
    ])
    def test_missing_nev_input_named(self, tmp_path, argv, payload, field):
        p = tmp_path / "in.json"
        p.write_text(json.dumps(payload))
        code, doc = run_json(tmp_path, "o.json", argv + ["--input", str(p)])
        assert code == 1 and doc["error"]["type"] == "SchemaError"
        assert doc["error"]["message"] == (
            f"missing '{field}': give --{field} or put it in the --input "
            f"payload")

    @staticmethod
    def _T_of_power(tmp_path, d, r):
        """nev T of the curve [1 : z^d] at radius r."""
        zero, one = [0, 1, 0, 1], [1, 1, 0, 1]
        curve = {"components": [[{"coeff": [one], "exp": []}],
                                [{"coeff": [zero] * d + [one],
                                  "exp": []}]]}
        p = tmp_path / "curve.json"
        p.write_text(json.dumps(curve))
        return run_json(tmp_path, "o.json",
                        ["nev", "T", "--curve", str(p), "--r", r])

    def test_T_beyond_float_range_gives_envelope(self, tmp_path):
        # [1 : z^150] at r = 1000: |z^150| exceeds the double range
        code, doc = self._T_of_power(tmp_path, 150, "1000")
        assert code == 1 and doc["error"]["type"] == "QuadratureError"
        assert "values" not in doc

    def test_T_modulus_past_float_range_gives_envelope(self, tmp_path):
        # [1 : z^100] at r = 1211: the parts of z^100 are finite where its
        # modulus is not, and abs() raised a bare OverflowError
        code, doc = self._T_of_power(tmp_path, 100, "1211")
        assert code == 1 and doc["error"]["type"] == "QuadratureError"
        assert "values" not in doc

    def test_empty_divisor_monomials_is_bad_input(self, tmp_path):
        p = tmp_path / "in.json"
        p.write_text(json.dumps({"curve": CURVE_EXP, "r": 2.0,
                                 "divisor": {"monomials": []}}))
        code, doc = run_json(tmp_path, "o.json",
                             ["nev", "N", "--input", str(p)])
        assert code == 1 and doc["error"]["type"] == "ValueError"
        assert "'monomials'" in doc["error"]["message"]

    @pytest.mark.parametrize("flag, value", [
        ("--r", "-3"), ("--r", "0"), ("--r", "inf"), ("--r", "nan"),
        ("--tol", "nan"), ("--tol", "-0.001"),
    ])
    def test_nev_N_needs_positive_finite_input(self, tmp_path, curve_file,
                                               flag, value):
        d = tmp_path / "d.json"
        d.write_text(json.dumps({"monomials": [
            {"exponents": [1, 0], "coeff": [-1, 1, 0, 1]},
            {"exponents": [0, 1], "coeff": [1, 1, 0, 1]}]}))
        opts = {"--r": "2", "--tol": "1e-3", flag: value}
        argv = ["nev", "N", "--curve", curve_file, "--divisor", str(d)]
        code, doc = run_json(tmp_path, "o.json",
                             argv + [x for kv in opts.items() for x in kv])
        assert code == 1 and doc["error"]["type"] == "ValueError"
        name = flag[2:]
        assert doc["error"]["message"] == (
            f"{name} must be a positive finite number, got {float(value)!r}")

    @pytest.mark.parametrize("argv, name, value", [
        (["nev", "T", "--r", "nan"], "r", "nan"),
        (["nev", "T", "--r", "inf"], "r", "inf"),
        (["nev", "T", "--r", "2", "--tol", "nan"], "tol", "nan"),
        (["nev", "T", "--r", "2", "--tol", "0"], "tol", "0"),
        (["nev", "order", "--radii", "2,4,nan,16"], "r", "nan"),
        (["nev", "order", "--radii", "2,4,8,16", "--tol", "inf"], "tol",
         "inf"),
    ], ids=["T-r-nan", "T-r-inf", "T-tol-nan", "T-tol-0", "order-r-nan",
            "order-tol-inf"])
    def test_nev_T_needs_positive_finite_input(self, tmp_path, curve_file,
                                               argv, name, value):
        code, doc = run_json(tmp_path, "o.json",
                             argv + ["--curve", curve_file])
        assert code == 1 and doc["error"]["type"] == "ValueError"
        assert doc["error"]["message"] == (
            f"{name} must be a positive finite number, got {float(value)!r}")

    @pytest.mark.parametrize("flag, value", [
        ("--r", "nan"), ("--r", "inf"), ("--tol", "nan"),
    ])
    def test_nev_Tscalar_needs_positive_finite_input(self, tmp_path, flag,
                                                     value):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(CURVE_EXP["components"][1]))
        opts = {"--r": "2", "--tol": "1e-6", flag: value}
        code, doc = run_json(tmp_path, "o.json",
                             ["nev", "Tscalar", "--g", str(g)]
                             + [x for kv in opts.items() for x in kv])
        assert code == 1 and doc["error"]["type"] == "ValueError"
        assert doc["error"]["message"] == (
            f"{flag[2:]} must be a positive finite number, "
            f"got {float(value)!r}")

    def test_payload_curve_needs_components(self, tmp_path):
        p = tmp_path / "in.json"
        p.write_text(json.dumps({"curve": {"comps": []}, "r": 2.0}))
        code, doc = run_json(tmp_path, "o.json",
                             ["nev", "T", "--input", str(p)])
        assert code == 1 and doc["error"]["type"] == "SchemaError"
        assert "'components'" in doc["error"]["message"]

    def test_output_is_strict_json(self, tmp_path):
        # two rational classes: the refutation's factors are infinite
        p = tmp_path / "sum.json"
        p.write_text(json.dumps({
            "M": 1, "p1": [[0, 1, 0, 1], [1, 1, 0, 1]],
            "p2": [[0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]],
            "terms": [{"coeff": [1, 1, 0, 1], "i": 1, "j": 0, "k": 0},
                      {"coeff": [-2, 1, 0, 1], "i": 0, "j": 1, "k": 1}]}))
        code, raw = run_cli(tmp_path, "o.json",
                            ["borel", "refute", "--input", str(p)])

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads(raw, parse_constant=reject)
        assert code == 0 and doc["refuted"] and doc["L"] == 2
        assert doc["log_factor"] is None and doc["logfit_residual"] is None

    def test_unknown_subcommand_exit2(self):
        with pytest.raises(SystemExit) as exc:
            main(["nosuchgroup"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("b", ["2,2,2", "2,2"])
    def test_unwritable_output_gives_envelope(self, tmp_path, b):
        # a result, and an error envelope, that cannot be written go to
        # stdout as a SchemaError envelope
        path = str(tmp_path / "missing" / "x.json")
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["chern", "invariants", "--b", b, "--output", path])
        doc = json.loads(buf.getvalue())
        assert code == 1 and doc["error"]["type"] == "SchemaError"
        assert doc["error"]["message"].startswith(f"cannot write {path}: ")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("d0max", ["-1", "0"])
    def test_engine_rejects_d0max_below_one(self, tmp_path, d0max):
        code, doc = run_json(tmp_path, "o.json",
                             ["plane", "engine", "--degrees", "2,2,3",
                              "--d0max", d0max])
        assert code == 1 and doc["error"]["type"] == "PlaneConfError"
        assert doc["error"]["message"] == f"d0_max must be >= 1, got {d0max}"


# the benchmark's command catalogue; "@key" is the path of CATALOGUE_FILES[key]
CATALOGUE = {
    "chern invariants": ["--b", "2,2,2"],
    "chern enumerate": ["--bmax", "3"],
    "chern classify": ["--a", "5", "--b", "1,2,2", "--generic-nl"],
    "nev order": ["--curve", "@curve", "--radii", "2,4,8,16,32"],
    "nev T": ["--curve", "@curve", "--r", "3"],
    "borel analyze": ["--input", "@sum"],
    "borel refute": ["--input", "@mixed"],
    "cover pushdown": ["--b", "2", "--form", "@form"],
    "cover check": ["--form", "@wedge", "--g1", "@g", "--g2", "@g"],
    "plane intersect": ["--input", "@pair"],
    "plane engine": ["--degrees", "2,2,3", "--d0max", "3"],
    "plane nc": ["--config", "@conf"],
}
CATALOGUE_FILES = {
    "curve": CURVE_EXP, "sum": SUM_SPEC, "form": FORM_DZ1DZ2,
    "mixed": {"M": 1, "p1": [[0, 1, 0, 1], [1, 1, 0, 1]],
              "p2": [[0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]],
              "terms": [{"coeff": [1, 1, 0, 1], "i": 1, "j": 0, "k": 0},
                        {"coeff": [-2, 1, 0, 1], "i": 0, "j": 1, "k": 1}]},
    "wedge": {"M": 1, "basis": "plain", "coeffs": [
        {"num": [{"exponents": [1, 0], "coeff": [-1, 1, 0, 1]}]},
        {"num": [{"exponents": [0, 1], "coeff": [1, 1, 0, 1]}]}]},
    "g": [{"coeff": [[1, 1, 0, 1]], "exp": [[0, 1, 0, 1], [1, 1, 0, 1]]}],
    "pair": {"curves": [
        {"monomials": [{"exponents": [1, 0, 1], "coeff": [1, 1]},
                       {"exponents": [0, 2, 0], "coeff": [-1, 1]}]},
        {"monomials": [{"exponents": [0, 1, 0], "coeff": [1, 1]}]}]},
    "conf": CONF_FLAGGED,
}
# modules a command's child process must not load, beyond the ones no
# command loads (test_command_leaves_mpmath_out checks mpmath)
NEVER_LOADED = ("dataclasses", "inspect")
NOT_LOADED = {
    "chern invariants": ("curvecomp.scalars",),
    "chern enumerate": ("curvecomp.scalars",),
    "chern classify": ("curvecomp.scalars",),
    "borel analyze": ("curvecomp.nevanlinna",),
    "cover pushdown": ("curvecomp.expfun",),
}


def loaded_modules(tmp_path, argv, modules):
    """Run argv through cli.main in a child; which of modules it loaded."""
    argv = argv + ["--output", str(tmp_path / "o.json")]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys; from curvecomp.cli import main; "
            f"code = main(sys.argv[1:]); mods = {list(modules)!r}; "
            "print(code, *[m for m in mods if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


class TestImports:
    @pytest.mark.parametrize("command", ["nev T", "cover pushdown"])
    def test_command_leaves_mpmath_out(self, tmp_path, curve_file, command):
        # mpmath is imported only where numeric roots are taken
        form = tmp_path / "form.json"
        form.write_text(json.dumps(FORM_DZ1DZ2))
        argv = {"nev T": ["nev", "T", "--curve", curve_file, "--r", "3"],
                "cover pushdown": ["cover", "pushdown", "--b", "2",
                                   "--form", str(form)]}[command]
        assert loaded_modules(tmp_path, argv, ["mpmath"]) == ["0"]

    @pytest.mark.parametrize("command", sorted(CATALOGUE))
    def test_catalogue_command_loads_only_its_engine(self, tmp_path,
                                                     command):
        paths = {}
        for key, doc in CATALOGUE_FILES.items():
            paths[key] = tmp_path / f"{key}.json"
            paths[key].write_text(json.dumps(doc))
        argv = command.split() + [str(paths[a[1:]]) if a.startswith("@")
                                  else a for a in CATALOGUE[command]]
        absent = NEVER_LOADED + NOT_LOADED.get(command, ())
        assert loaded_modules(tmp_path, argv, absent) == ["0"]


class TestDeterminism:
    def test_repeat_runs_identical(self, tmp_path, curve_file):
        catalogue = [
            ["chern", "invariants", "--a", "1", "--b", "2,2,2"],
            ["chern", "enumerate", "--a", "1", "--bmax", "3"],
            ["nev", "order", "--curve", curve_file, "--radii", "2,4,8,16,32"],
            ["plane", "engine", "--degrees", "2,2,3", "--d0max", "10"],
        ]
        for n, argv in enumerate(catalogue):
            _, a = run_cli(tmp_path, f"a{n}.json", argv)
            _, b = run_cli(tmp_path, f"b{n}.json", argv)
            assert a == b

    def test_subprocess_runs_identical(self):
        cmd = [sys.executable, "-m", "curvecomp.cli", "chern", "enumerate",
               "--a", "1", "--bmax", "5"]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a and a == b
