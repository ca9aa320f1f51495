"""Byte-level golden outputs of the documented CLI commands.

Each case runs one command through ``cli.main`` with ``--output -`` and
compares the stdout bytes with ``tests/golden/cli/<name>.json``.  The files
were written by the code before the planeconf/nevanlinna/cli consolidation
and pin its output byte for byte: the criterion-9 catalogue, every ``nev``
command with flags, with ``--input`` and with both, ``plane nc`` and
``plane exclusion`` on the flagged configuration, and the ``expfun``
commands.  The ``borel refute`` and ``cover check`` files were written
later, by the code before the per-command parser.

The data is never rewritten by the test.  To write it on purpose, run

    PYTHONPATH=src python tests/test_cli_golden.py --write tests/golden/cli

and say in the change log which commit wrote it.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

ONE, ZERO, MINUS_ONE = [1, 1, 0, 1], [0, 1, 0, 1], [-1, 1, 0, 1]
CURVE_EXP = {"components": [[{"coeff": [ONE], "exp": []}],
                            [{"coeff": [ONE], "exp": [ZERO, ONE]}]]}
G_SCALAR = [{"coeff": [ONE], "exp": [ZERO, ONE]},
            {"coeff": [[2, 1, 0, 1]], "exp": []}]
DIVISOR = {"monomials": [{"exponents": [1, 0], "coeff": MINUS_ONE},
                         {"exponents": [0, 1], "coeff": ONE}]}
DIVISOR_VECTOR = [[-2, 1, 0, 1], ONE]
HYPERPLANES = [[ONE, ZERO], [ZERO, ONE], [ONE, MINUS_ONE]]
SUM_SPEC = {"M": 2, "p1": [ZERO, ONE], "p2": [ZERO, [2, 1, 0, 1]],
            "terms": [{"coeff": ONE, "i": 2, "j": 0, "k": 1},
                      {"coeff": [-3, 2, 0, 1], "i": 1, "j": 1, "k": 0},
                      {"coeff": [1, 2, 0, 1], "i": 0, "j": 0, "k": 0}]}
FORM = {"M": 2, "basis": "plain", "vars": ["z1", "z2"], "coeffs": [
    {"num": []}, {"num": [{"exponents": [0, 0], "coeff": ONE}]}, {"num": []}]}
PAIR = {"curves": [
    {"monomials": [{"exponents": [1, 0, 1], "coeff": [1, 1]},
                   {"exponents": [0, 2, 0], "coeff": [-1, 1]}]},
    {"monomials": [{"exponents": [0, 1, 0], "coeff": [1, 1]}]}]}
CONF_FLAGGED = {"curves": [
    {"monomials": [{"exponents": [0, 3, 0], "coeff": [1, 1]},
                   {"exponents": [0, 0, 3], "coeff": [-1, 1]},
                   {"exponents": [2, 0, 1], "coeff": [-1, 1]}]},
    {"monomials": [{"exponents": [1, 1, 0], "coeff": [1, 1]},
                   {"exponents": [0, 0, 2], "coeff": [-1, 1]}]},
    {"monomials": [{"exponents": [3, 0, 0], "coeff": [1, 1]},
                   {"exponents": [0, 2, 1], "coeff": [-1, 1]},
                   {"exponents": [0, 0, 3], "coeff": [1, 1]}]}]}
F_EXP = [{"coeff": [ONE, [0, 1, 1, 2]], "exp": [ZERO, ONE]},
         {"coeff": [[3, 1, 0, 1]], "exp": [ZERO, ZERO, MINUS_ONE],
          "expconst": [1, 2, 0, 1]}]
G_EXP = [{"coeff": [[0, 1, 1, 1]], "exp": [ZERO, ONE]},
         {"coeff": [MINUS_ONE], "exp": []}]
# exponents (i + j) z + (M - i + k) z^2: two rational classes (z, z + 2z^2)
# and three (adding z^2)
MIXED_2 = {"M": 1, "p1": [ZERO, ONE], "p2": [ZERO, ZERO, ONE],
           "terms": [{"coeff": [3, 2, 0, 1], "i": 1, "j": 0, "k": 0},
                     {"coeff": [-2, 1, 0, 1], "i": 0, "j": 1, "k": 1}]}
MIXED_3 = {"M": 1, "p1": [ZERO, ONE], "p2": [ZERO, ZERO, ONE],
           "terms": MIXED_2["terms"] + [
               {"coeff": [1, 3, 0, 1], "i": 0, "j": 0, "k": 0}]}
# x2 dz1 - x1 dz2 annihilates (3 e^{2z}, (1/2 - i) e^{2z}), not F_EXP, G_EXP
FORM_WEDGE = {"M": 1, "basis": "plain", "coeffs": [
    {"num": [{"exponents": [1, 0], "coeff": MINUS_ONE}]},
    {"num": [{"exponents": [0, 1], "coeff": ONE}]}]}
G1_LINE = [{"coeff": [[3, 1, 0, 1]], "exp": [ZERO, [2, 1, 0, 1]]}]
G2_LINE = [{"coeff": [[1, 2, -1, 1]], "exp": [ZERO, [2, 1, 0, 1]]}]

FILES = {
    "curve": CURVE_EXP, "g": G_SCALAR, "div": DIVISOR,
    "hyps": {"divisors": HYPERPLANES}, "sum": SUM_SPEC, "form": FORM,
    "pair": PAIR, "conf": CONF_FLAGGED, "f": F_EXP, "gexp": G_EXP,
    "mixed2": MIXED_2, "mixed3": MIXED_3, "wedge": FORM_WEDGE,
    "g1line": G1_LINE, "g2line": G2_LINE,
    "in_T": {"curve": CURVE_EXP, "r": 3.0},
    "in_T_tol": {"curve": CURVE_EXP["components"], "r": 2.5, "tol": 1e-6},
    "in_Tscalar": {"g": G_SCALAR, "r": 2.0},
    "in_N": {"curve": CURVE_EXP, "divisor": DIVISOR, "r": 3.0},
    "in_order": {"curve": CURVE_EXP, "radii": [2, 3, 4, 5], "tol": 1e-6},
    "in_fmt": {"curve": CURVE_EXP, "divisor": DIVISOR_VECTOR,
               "radii": [2.0, 3.0]},
    "in_smt": {"curve": CURVE_EXP, "divisors": HYPERPLANES,
               "radii": [2.0, 3.0, 4.0, 5.0]},
}

# name -> argv; "@key" is replaced by the path of FILES[key]
CASES = {
    # the criterion-9 catalogue
    "chern_invariants": ["chern", "invariants", "--a", "1", "--b", "2,2,2"],
    "chern_enumerate_3": ["chern", "enumerate", "--a", "1", "--bmax", "3"],
    "chern_enumerate_10": ["chern", "enumerate", "--a", "1", "--bmax", "10"],
    "chern_classify": ["chern", "classify", "--a", "5", "--b", "1,2,2",
                       "--generic-nl"],
    "nev_order": ["nev", "order", "--curve", "@curve",
                  "--radii", "2,4,8,16,32"],
    "nev_T": ["nev", "T", "--curve", "@curve", "--r", "10"],
    "borel_analyze": ["borel", "analyze", "--input", "@sum"],
    "cover_pushdown": ["cover", "pushdown", "--b", "2", "--form", "@form"],
    "plane_intersect": ["plane", "intersect", "--input", "@pair"],
    "plane_engine": ["plane", "engine", "--degrees", "2,2,3",
                     "--d0max", "10"],
    # every nev command: flags, payload, and a flag over the payload
    "nev_T_input": ["nev", "T", "--input", "@in_T"],
    "nev_T_input_tol": ["nev", "T", "--input", "@in_T_tol"],
    "nev_T_flag_over_input": ["nev", "T", "--input", "@in_T", "--r", "2",
                              "--tol", "1e-6"],
    "nev_Tscalar": ["nev", "Tscalar", "--g", "@g", "--r", "2.5"],
    "nev_Tscalar_input": ["nev", "Tscalar", "--input", "@in_Tscalar"],
    "nev_N": ["nev", "N", "--curve", "@curve", "--divisor", "@div",
              "--r", "3"],
    "nev_N_input": ["nev", "N", "--input", "@in_N"],
    "nev_N_circle_mean": ["nev", "N", "--input", "@in_N", "--divisor",
                          "@div", "--method", "circle-mean", "--tol", "1e-4"],
    "nev_order_small": ["nev", "order", "--curve", "@curve",
                        "--radii", "2,3,4,6"],
    "nev_order_input": ["nev", "order", "--input", "@in_order"],
    "nev_fmt": ["nev", "fmt", "--curve", "@curve", "--divisor", "@div",
                "--radii", "2,3"],
    "nev_fmt_input": ["nev", "fmt", "--input", "@in_fmt"],
    "nev_smt": ["nev", "smt", "--curve", "@curve", "--divisors", "@hyps",
                "--radii", "2,3,4,5"],
    "nev_smt_input": ["nev", "smt", "--input", "@in_smt", "--tol", "0.1"],
    # the rest of the benchmark catalogue
    "borel_refute": ["borel", "refute", "--input", "@mixed2"],
    "borel_refute_three_classes": ["borel", "refute", "--input", "@mixed3",
                                   "--radii", "2,4,8", "--factor", "2"],
    "cover_check": ["cover", "check", "--form", "@wedge",
                    "--g1", "@g1line", "--g2", "@g2line"],
    "cover_check_residual": ["cover", "check", "--form", "@wedge",
                             "--g1", "@f", "--g2", "@gexp"],
    # plane checks on the flagged configuration
    "plane_nc_flagged": ["plane", "nc", "--config", "@conf"],
    "plane_exclusion_flagged": ["plane", "exclusion", "--config", "@conf"],
    # expfun
    "expfun_eval": ["expfun", "eval", "--f", "@f", "--point", "1-2i"],
    "expfun_diff": ["expfun", "diff", "--f", "@f"],
    "expfun_iszero": ["expfun", "iszero", "--f", "@f"],
    "expfun_combine_add": ["expfun", "combine", "--op", "add",
                           "--f", "@f", "--g", "@gexp"],
    "expfun_combine_multiply": ["expfun", "combine", "--op", "multiply",
                                "--f", "@f", "--g", "@gexp"],
    "expfun_combine_scale": ["expfun", "combine", "--op", "scale",
                             "--f", "@f", "--scalar=-3/7"],
}


def write_inputs(directory: Path) -> dict:
    paths = {}
    for key, doc in FILES.items():
        path = directory / f"{key}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[key] = str(path)
    return paths


def run_case(name: str, paths: dict) -> bytes:
    from curvecomp.cli import main
    argv = [paths[a[1:]] if a.startswith("@") else a for a in CASES[name]]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv + ["--output", "-"])
    assert code == 0, buf.getvalue()
    return buf.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_unchanged(name, input_paths):
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert run_case(name, input_paths) == want


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:2] != ["--write"] or len(sys.argv) != 3:
        sys.exit("usage: test_cli_golden.py --write DIR")
    out = Path(sys.argv[2])
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for case in sorted(CASES):
            (out / f"{case}.json").write_bytes(run_case(case, paths))
            print("wrote", out / f"{case}.json")
