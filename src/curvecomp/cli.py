"""JSON command-line front end.

One executable with a command group per computational area:

    curvecomp chern  invariants|classify|enumerate
    curvecomp nev    T|Tscalar|N|order|fmt|smt
    curvecomp borel  analyze|refute
    curvecomp cover  pushdown|check
    curvecomp plane  intersect|nc|engine|exclusion
    curvecomp expfun eval|diff|iszero|combine

Every command reads/writes JSON (``--input FILE|-``, ``--output FILE|-``),
echoes a ``meta`` block (version, seed, tolerances used) and is
deterministic: identical argv and input files produce byte-identical output.
Exports of exact numbers are ``[num, den]`` / ``[re_n, re_d, im_n, im_d]``
pairs; floating values are rounded to 15 significant digits.  Exit codes:
0 success, 1 schema or computational error (structured JSON on the output
stream, or on stdout when the output file cannot be written), 2 usage.

Start-up follows use.  COMMANDS is the one table of groups, commands,
handlers and flags; ``main`` builds the parser of the named command alone,
and the full parser only for help, an unknown or missing name, or a usage
error, so help text and usage errors read the same either way.  A handler
imports its engine module when it runs, and this module imports no engine
and no scalar type at the top.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import zip_longest

from . import __version__, _json


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------

class SchemaError(ValueError):
    pass


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _round_floats(doc):
    if isinstance(doc, float):
        # JSON has no Infinity or NaN: a non-finite value is written as null
        return float(f"{doc:.15g}") if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: _round_floats(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_round_floats(v) for v in doc]
    return doc


def _emit(doc, path: str):
    """Write doc to path; _json writes the records and complex values in
    it, and floats are rounded."""
    text = json.dumps(_round_floats(_json(doc)), indent=2,
                      allow_nan=False) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _meta(args, **tols):
    return {"version": __version__,
            "seed": getattr(args, "seed", 0),
            "tol": {k: v for k, v in tols.items() if v is not None}}


def _report(rec, args, **tols):
    """The document of a command whose answer is one record: its fields,
    then meta."""
    return {**rec.to_json(), "meta": _meta(args, **tols)}


def _ints(spec: str):
    spec = spec.strip()
    if not spec:
        return []
    return [int(x) for x in spec.split(",")]


def _floats(spec: str):
    return [float(x) for x in spec.split(",")]


def _parse_complex(spec: str) -> complex:
    return complex(spec.replace(" ", "").replace("i", "j"))


def _from_file(parse):
    return lambda path: parse(_read_json(path))


def _exppoly_from(data):
    from .expfun import ExpPoly
    if isinstance(data, dict) and "terms" in data:
        data = data["terms"]
    if not isinstance(data, list):
        raise SchemaError("exponential polynomial JSON must be a term array")
    return ExpPoly.from_json(data)


_load_exppoly = _from_file(_exppoly_from)


def _curve_from(data):
    from .nevanlinna import ProjCurve
    if isinstance(data, list):
        data = {"components": data}
    if not isinstance(data, dict) or "components" not in data:
        raise SchemaError("curve JSON needs a 'components' array")
    return ProjCurve.from_json(data)


def _divisor_from(data):
    from .nevanlinna import HomDivisor
    from .scalars import CRat
    if isinstance(data, dict) and "monomials" in data:
        return HomDivisor.from_json(data)
    if isinstance(data, list) and data and isinstance(data[0], list):
        # plain coefficient vector: a hyperplane sum(c_j z_j)
        return HomDivisor.hyperplane([CRat.from_json(c) for c in data])
    raise SchemaError("divisor JSON needs 'monomials' or a coefficient list")


def _divisors_from(data):
    if isinstance(data, dict):
        data = data.get("divisors")
    if not isinstance(data, list):
        raise SchemaError("divisors JSON needs a list of hyperplanes")
    return [_divisor_from(d) for d in data]


# ---------------------------------------------------------------------------
# chern group
# ---------------------------------------------------------------------------

def _ci(args):
    from .chern import CIData
    return CIData(_ints(args.a), tuple(_ints(args.b)))


def _cmd_chern_invariants(args):
    from .chern import invariants
    return _report(invariants(_ci(args)), args)


def _cmd_chern_classify(args):
    from .chern import classify_main2, invariants
    ci = _ci(args)
    v = classify_main2(ci, pic_is_Z=args.pic, generic_NL=args.generic_nl)
    return {"invariants": invariants(ci), "verdict": v, "meta": _meta(args)}


def _cmd_chern_enumerate(args):
    from .chern import enumerate_configs, golden_csv_lines
    rows = enumerate_configs(_ints(args.a), args.bmax, pic_is_Z=args.pic,
                             generic_NL=args.generic_nl)
    out = {"rows": rows, "meta": _meta(args)}
    if args.golden:
        import os
        name = f"chern_enumerate_a{'-'.join(args.a.split(','))}_bmax{args.bmax}.csv"
        path = os.path.join(args.golden, name)
        lines = golden_csv_lines(rows)
        try:
            if args.update:
                os.makedirs(args.golden, exist_ok=True)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    have = fh.read().splitlines()
        except OSError as exc:
            verb = "write" if args.update else "read"
            raise SchemaError(f"cannot {verb} {path}: {exc}") from exc
        if not args.update and have != lines:
            # a missing or an extra line differs too
            diff = [i for i, (a, b) in enumerate(zip_longest(have, lines))
                    if a != b]
            raise SchemaError(
                f"golden mismatch in {path} at lines {diff[:5]} "
                f"(and {max(0, len(diff) - 5)} more)")
        out["golden"] = {"path": path,
                         "mode": "written" if args.update else "match"}
    return out


# ---------------------------------------------------------------------------
# nev group
# ---------------------------------------------------------------------------

# nev input -> (its flag's argparse options, read the flag's value, read
# the --input payload's value)
_NEV_INPUTS = {
    "curve": ({"help": "curve JSON file"}, _from_file(_curve_from),
              _curve_from),
    "g": ({"help": "scalar function JSON file"}, _load_exppoly,
          _exppoly_from),
    "divisor": ({}, _from_file(_divisor_from), _divisor_from),
    "divisors": ({"help": "JSON file with a list of hyperplanes"},
                 _from_file(_divisors_from), _divisors_from),
    "r": ({"type": float}, float, float),
    "radii": ({"help": "e.g. 2,4,8,16,32"}, _floats,
              lambda xs: [float(x) for x in xs]),
}


def _nev_inputs(args):
    """The command's inputs (args.needs), then its tolerance.

    Each input comes from its flag when given, else from the --input
    payload; tol from --tol, else the payload, else args.tol_default.
    """
    pay = _read_json(args.input) if args.input else {}
    if not isinstance(pay, dict):
        raise SchemaError("the --input payload must be a JSON object")
    out = []
    for name in args.needs:
        _, from_flag, from_payload = _NEV_INPUTS[name]
        flag = getattr(args, name)
        if flag not in (None, ""):
            out.append(from_flag(flag))
        elif name in pay:
            out.append(from_payload(pay[name]))
        else:
            raise SchemaError(f"missing {name!r}: give --{name} or put it "
                              f"in the --input payload")
    tol = args.tol if args.tol is not None else \
        float(pay.get("tol", args.tol_default))
    return out + [tol]


def _cmd_nev_T(args):
    from .nevanlinna import characteristic
    curve, r, tol = _nev_inputs(args)
    val = characteristic(curve, r, tol=tol)
    return {"values": {"T": val, "r": r}, "meta": _meta(args, quadrature=tol)}


def _cmd_nev_Tscalar(args):
    from .nevanlinna import characteristic_scalar
    g, r, tol = _nev_inputs(args)
    val = characteristic_scalar(g, r, tol=tol)
    return {"values": {"T0": val, "r": r}, "meta": _meta(args, quadrature=tol)}


def _cmd_nev_N(args):
    from .nevanlinna import counting
    curve, div, r, tol = _nev_inputs(args)
    val = counting(curve, div, r, tol=tol, method=args.method)
    return {"values": {"N": val, "r": r},
            "meta": _meta(args, counting=tol, method=args.method)}


def _cmd_nev_order(args):
    from .nevanlinna import order_estimate
    curve, radii, tol = _nev_inputs(args)
    rep = order_estimate(curve, radii, tol=tol)
    return {"values": rep, "fit": {"slope": rep.fitted_slope,
                                   "order": rep.fitted_order},
            "meta": _meta(args, quadrature=tol)}


def _cmd_nev_fmt(args):
    from .nevanlinna import fmt_check
    curve, div, radii, tol = _nev_inputs(args)
    return _report(fmt_check(curve, div, radii, tol=tol), args, slack=tol)


def _cmd_nev_smt(args):
    from .nevanlinna import smt_check
    curve, hyps, radii, tol = _nev_inputs(args)
    rep = smt_check(curve, hyps, radii, resid_tol=tol, n_method=args.method)
    return _report(rep, args, residual=tol, method=args.method)


# ---------------------------------------------------------------------------
# borel group
# ---------------------------------------------------------------------------

def _cmd_borel_analyze(args):
    from .borel import ExpSum, degeneracy_pipeline
    s = ExpSum.from_json(_read_json(args.input))
    return _report(degeneracy_pipeline(s), args)


def _cmd_borel_refute(args):
    from .borel import ExpSum, case1_refute
    s = ExpSum.from_json(_read_json(args.input))
    radii = _floats(args.radii) if args.radii else [4.0, 8.0, 16.0, 32.0]
    rep = case1_refute(s, radii=radii, factor_threshold=args.factor)
    return _report(rep, args, factor_threshold=args.factor)


# ---------------------------------------------------------------------------
# cover group
# ---------------------------------------------------------------------------

def _cmd_cover_pushdown(args):
    from .covering import CyclicCover, SymForm, norm_form, push_down
    form = SymForm.from_json(_read_json(args.form))
    cover = CyclicCover(args.b)
    nf = norm_form(form, cover) if args.norm else form
    pushed = push_down(nf, cover)
    out = {"pushed": pushed, "meta": _meta(args)}
    if args.norm:
        out["norm_form"] = nf
    return out


def _cmd_cover_check(args):
    from .covering import SymForm, annihilation_check
    form = SymForm.from_json(_read_json(args.form))
    g1 = _load_exppoly(args.g1)
    g2 = _load_exppoly(args.g2)
    ok, resid = annihilation_check(form, g1, g2)
    return {"annihilates": ok, "residual": resid, "meta": _meta(args)}


# ---------------------------------------------------------------------------
# plane group
# ---------------------------------------------------------------------------

def _cmd_plane_intersect(args):
    from .planeconf import PlaneCurve, intersection_points
    data = _read_json(args.input)
    if not (isinstance(data, dict) and "curves" in data and
            len(data["curves"]) == 2):
        raise SchemaError("intersect input needs {'curves': [c1, c2]}")
    c1 = PlaneCurve.from_json(data["curves"][0])
    c2 = PlaneCurve.from_json(data["curves"][1])
    pts = intersection_points(c1, c2, seed=args.seed)
    return {"points": [{"point": p, "multiplicity": m} for p, m in pts],
            "bezout_total": sum(m for _, m in pts),
            "meta": _meta(args)}


def _cmd_plane_nc(args):
    from .planeconf import Configuration, normal_crossings
    conf = Configuration.from_json(_read_json(args.config))
    return _report(normal_crossings(conf, seed=args.seed), args)


def _cmd_plane_engine(args):
    from .planeconf import surviving_cases, two_puncture_case_engine
    verdicts = two_puncture_case_engine(_ints(args.degrees), args.d0max)
    surv = surviving_cases(verdicts)
    return {"verdicts": verdicts, "survivors": surv, "meta": _meta(args)}


def _cmd_plane_exclusion(args):
    from .planeconf import Configuration, quadric_line_exclusion
    conf = Configuration.from_json(_read_json(args.config))
    return _report(quadric_line_exclusion(conf), args)


# ---------------------------------------------------------------------------
# expfun group
# ---------------------------------------------------------------------------

def _cmd_expfun_eval(args):
    f = _load_exppoly(args.f)
    return {"value": f.evaluate(_parse_complex(args.point)),
            "meta": _meta(args)}


def _cmd_expfun_diff(args):
    f = _load_exppoly(args.f)
    return {"derivative": f.differentiate(), "meta": _meta(args)}


def _cmd_expfun_iszero(args):
    f = _load_exppoly(args.f)
    return {"is_zero": f.is_zero(), "canonical": f, "meta": _meta(args)}


def _cmd_expfun_combine(args):
    from fractions import Fraction

    from .expfun import combine
    from .scalars import CRat
    f = _load_exppoly(args.f)
    flag, stray = ("scalar", "g") if args.op == "scale" else ("g", "scalar")
    if getattr(args, flag) is None or getattr(args, stray) is not None:
        raise SchemaError(f"--op {args.op} takes --{flag} and no --{stray}")
    if flag == "g":
        g = _load_exppoly(args.g)
    else:
        try:
            g = CRat(Fraction(args.scalar))
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"--scalar must be a rational number, got "
                              f"{args.scalar!r}") from None
    return {"result": combine(args.op, f, g), "meta": _meta(args)}


# ---------------------------------------------------------------------------
# command table and parser assembly
# ---------------------------------------------------------------------------

def _nev(fn, needs, tol, *extra):
    """A nev command: --input, one flag per input it needs, then extra."""
    flags = [("--input", {"default": None,
                          "help": "JSON payload with curve/divisor/radii/tol"})]
    flags += [(f"--{key}", {"default": None, **_NEV_INPUTS[key][0]})
              for key in needs]
    return fn, flags + list(extra), {"needs": needs, "tol_default": tol}


_METHOD = ("--method", {"default": "winding",
                        "choices": ["winding", "circle-mean"]})
_REQUIRED = {"required": True}

# group -> (help, {command: (handler, [(flag, argparse options)], defaults)});
# a command with a "tol_default" default also takes --tol
COMMANDS = {
    "chern": ("complete-intersection invariants", {
        "invariants": (_cmd_chern_invariants, [
            ("--a", {"default": "1",
                     "help": "hypersurface degrees, e.g. 1 or 2,3"}),
            ("--b", {"required": True,
                     "help": "three curve degrees, e.g. 2,2,2"})], {}),
        "classify": (_cmd_chern_classify, [
            ("--a", {"default": "1"}),
            ("--b", _REQUIRED),
            ("--pic", {"action": "store_true", "help": "assume Pic = Z"}),
            ("--generic-nl", {"action": "store_true",
                              "help": "assume Noether-Lefschetz "
                                      "genericity"})], {}),
        "enumerate": (_cmd_chern_enumerate, [
            ("--a", {"default": "1"}),
            ("--bmax", {"type": int, "required": True}),
            ("--pic", {"action": "store_true"}),
            ("--generic-nl", {"action": "store_true"}),
            ("--golden", {"default": None,
                          "help": "golden table directory"}),
            ("--update", {"action": "store_true",
                          "help": "write the golden table instead of "
                                  "comparing"})], {}),
    }),
    "nev": ("growth functionals and main theorems", {
        "T": _nev(_cmd_nev_T, ("curve", "r"), 1e-8),
        "Tscalar": _nev(_cmd_nev_Tscalar, ("g", "r"), 1e-8),
        "N": _nev(_cmd_nev_N, ("curve", "divisor", "r"), 1e-3, _METHOD),
        "order": _nev(_cmd_nev_order, ("curve", "radii"), 1e-8),
        "fmt": _nev(_cmd_nev_fmt, ("curve", "divisor", "radii"), 0.02),
        "smt": _nev(_cmd_nev_smt, ("curve", "divisors", "radii"), 0.05,
                    _METHOD),
    }),
    "borel": ("exponential identity engine", {
        "analyze": (_cmd_borel_analyze, [
            ("--input", {"required": True, "help": "ExpSum JSON file"})], {}),
        "refute": (_cmd_borel_refute, [
            ("--input", {"required": True, "help": "ExpSum JSON file"}),
            ("--radii", {"default": None}),
            ("--factor", {"type": float, "default": 10.0})], {}),
    }),
    "cover": ("cyclic-cover form transport", {
        "pushdown": (_cmd_cover_pushdown, [
            ("--b", {"type": int, "required": True,
                     "help": "branching order"}),
            ("--form", {"required": True, "help": "SymForm JSON file"}),
            ("--no-norm", {"dest": "norm", "action": "store_false",
                           "help": "push the form as-is (skip the "
                                   "deck-product step)"})], {}),
        "check": (_cmd_cover_check, [
            ("--form", _REQUIRED),
            ("--g1", {"required": True,
                      "help": "first coordinate ExpPoly JSON"}),
            ("--g2", _REQUIRED)], {}),
    }),
    "plane": ("plane configuration checks", {
        "intersect": (_cmd_plane_intersect, [
            ("--input", {"required": True,
                         "help": "{'curves': [c1, c2]} JSON"})], {}),
        "nc": (_cmd_plane_nc, [
            ("--config", {"required": True,
                          "help": "Configuration JSON file"})], {}),
        "engine": (_cmd_plane_engine, [
            ("--degrees", {"required": True, "help": "e.g. 2,2,3"}),
            ("--d0max", {"type": int, "required": True})], {}),
        "exclusion": (_cmd_plane_exclusion, [("--config", _REQUIRED)], {}),
    }),
    "expfun": ("exponential polynomial algebra", {
        "eval": (_cmd_expfun_eval, [
            ("--f", {"required": True, "help": "ExpPoly JSON file"}),
            ("--point", {"required": True,
                         "help": "complex point, e.g. 1+2i"})], {}),
        "diff": (_cmd_expfun_diff, [("--f", _REQUIRED)], {}),
        "iszero": (_cmd_expfun_iszero, [("--f", _REQUIRED)], {}),
        "combine": (_cmd_expfun_combine, [
            ("--op", {"required": True,
                      "choices": ["add", "multiply", "scale"]}),
            ("--f", _REQUIRED),
            ("--g", {"default": None,
                     "help": "second operand (add/multiply)"}),
            ("--scalar", {"default": None,
                          "help": "rational scalar (scale)"})], {}),
    }),
}


class _UsageError(Exception):
    pass


class _OneCommandParser(argparse.ArgumentParser):
    """The parser of one command, which leaves a usage error to the full
    parser: its messages list every group and command."""

    def error(self, message):
        raise _UsageError(message)


def build_parser(only=None) -> argparse.ArgumentParser:
    """The command-line parser; only=(group, command) builds that command
    alone, with a parser that raises _UsageError on bad usage."""
    top = (argparse.ArgumentParser if only is None else _OneCommandParser)(
        prog="curvecomp",
        description="exact/numerical toolkit around curve-complement "
                    "hyperbolicity criteria")
    groups = top.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        if only is not None and group != only[0]:
            continue
        sub = groups.add_parser(group, help=group_help).add_subparsers(
            dest="cmd", required=True)
        for name, (fn, flags, defaults) in commands.items():
            if only is not None and name != only[1]:
                continue
            p = sub.add_parser(name)
            for flag, opts in flags:
                p.add_argument(flag, **opts)
            p.add_argument("--output", default="-",
                           help="output file or - for stdout")
            p.add_argument("--seed", type=int, default=0,
                           help="seed for any internal randomized schedule")
            if "tol_default" in defaults:
                p.add_argument("--tol", type=float, default=None,
                               help=f"tolerance (default "
                                    f"{defaults['tol_default']})")
            p.set_defaults(func=fn, **defaults)
    return top


def _parse(argv):
    """Parse with the named command's parser alone when argv starts with a
    known group and command and asks for no help; anything else, and any
    usage error, goes to the full parser, which prints help and errors."""
    group = COMMANDS.get(argv[0]) if argv else None
    if group and len(argv) > 1 and argv[1] in group[1] \
            and "-h" not in argv and "--help" not in argv:
        try:
            return build_parser(only=argv[:2]).parse_args(argv)
        except _UsageError:
            pass
    return build_parser().parse_args(argv)


def _error(exc, args):
    """The structured error envelope of one exception."""
    return {"error": {"type": type(exc).__name__, "message": str(exc)},
            "meta": _meta(args)}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        doc, code = args.func(args), 0
    except Exception as exc:  # structured error envelope, exit 1
        doc, code = _error(exc, args), 1
    try:
        _emit(doc, args.output)
    except OSError as exc:
        if args.output == "-":  # stdout itself failed: nowhere to report
            raise
        err = SchemaError(f"cannot write {args.output}: {exc}")
        _emit(_error(err, args), "-")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
