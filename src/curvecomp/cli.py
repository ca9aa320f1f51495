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
stream), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .scalars import CRat


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
    if isinstance(doc, (list, tuple)):
        return [_round_floats(v) for v in doc]
    return doc


def _emit(doc, path: str):
    text = json.dumps(_round_floats(doc), indent=2, allow_nan=False) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _meta(args, **tols):
    return {"version": __version__,
            "seed": getattr(args, "seed", 0),
            "tol": {k: v for k, v in tols.items() if v is not None}}


def _ints(spec: str):
    spec = spec.strip()
    if not spec:
        return []
    return [int(x) for x in spec.split(",")]


def _floats(spec: str):
    return [float(x) for x in spec.split(",")]


def _parse_complex(spec: str) -> complex:
    return complex(spec.replace(" ", "").replace("i", "j"))


def _load_exppoly(path):
    return _exppoly_from(_read_json(path))


def _exppoly_from(data):
    from .expfun import ExpPoly
    if isinstance(data, dict) and "terms" in data:
        data = data["terms"]
    if not isinstance(data, list):
        raise SchemaError("exponential polynomial JSON must be a term array")
    return ExpPoly.from_json(data)


def _curve_from(data):
    from .nevanlinna import ProjCurve
    if isinstance(data, list):
        data = {"components": data}
    if not isinstance(data, dict) or "components" not in data:
        raise SchemaError("curve JSON needs a 'components' array")
    return ProjCurve.from_json(data)


def _divisor_from(data):
    from .nevanlinna import HomDivisor
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

def _cmd_chern_invariants(args):
    from .chern import CIData, invariants
    ci = CIData(_ints(args.a), tuple(_ints(args.b)))
    rep = invariants(ci)
    out = rep.to_json()
    out["meta"] = _meta(args)
    return out


def _cmd_chern_classify(args):
    from .chern import CIData, classify_main2, invariants
    ci = CIData(_ints(args.a), tuple(_ints(args.b)))
    v = classify_main2(ci, pic_is_Z=args.pic, generic_NL=args.generic_nl)
    out = {"invariants": invariants(ci).to_json(), "verdict": v.to_json(),
           "meta": _meta(args)}
    return out


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
        if args.update:
            os.makedirs(args.golden, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            out["golden"] = {"path": path, "mode": "written"}
        else:
            with open(path, "r", encoding="utf-8") as fh:
                have = fh.read().splitlines()
            if have != lines:
                diff = [i for i, (a, b) in enumerate(zip(have, lines)) if a != b]
                raise SchemaError(
                    f"golden mismatch in {path} at lines {diff[:5]} "
                    f"(and {max(0, len(diff) - 5)} more)")
            out["golden"] = {"path": path, "mode": "match"}
    return out


# ---------------------------------------------------------------------------
# nev group
# ---------------------------------------------------------------------------

def _from_file(parse):
    return lambda path: parse(_read_json(path))


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
    return {"values": rep.to_json(), "fit": {"slope": rep.fitted_slope,
                                             "order": rep.fitted_order},
            "meta": _meta(args, quadrature=tol)}


def _cmd_nev_fmt(args):
    from .nevanlinna import fmt_check
    curve, div, radii, tol = _nev_inputs(args)
    out = fmt_check(curve, div, radii, tol=tol).to_json()
    out["meta"] = _meta(args, slack=tol)
    return out


def _cmd_nev_smt(args):
    from .nevanlinna import smt_check
    curve, hyps, radii, tol = _nev_inputs(args)
    rep = smt_check(curve, hyps, radii, resid_tol=tol, n_method=args.method)
    out = rep.to_json()
    out["meta"] = _meta(args, residual=tol, method=args.method)
    return out


# ---------------------------------------------------------------------------
# borel group
# ---------------------------------------------------------------------------

def _cmd_borel_analyze(args):
    from .borel import ExpSum, degeneracy_pipeline
    s = ExpSum.from_json(_read_json(args.input))
    out = degeneracy_pipeline(s).to_json()
    out["meta"] = _meta(args)
    return out


def _cmd_borel_refute(args):
    from .borel import ExpSum, case1_refute
    s = ExpSum.from_json(_read_json(args.input))
    radii = _floats(args.radii) if args.radii else [4.0, 8.0, 16.0, 32.0]
    rep = case1_refute(s, radii=radii, factor_threshold=args.factor)
    out = rep.to_json()
    out["meta"] = _meta(args, factor_threshold=args.factor)
    return out


# ---------------------------------------------------------------------------
# cover group
# ---------------------------------------------------------------------------

def _cmd_cover_pushdown(args):
    from .covering import CyclicCover, SymForm, norm_form, push_down
    form = SymForm.from_json(_read_json(args.form))
    cover = CyclicCover(args.b)
    nf = norm_form(form, cover) if args.norm else form
    pushed = push_down(nf, cover)
    out = {"pushed": pushed.to_json(), "meta": _meta(args)}
    if args.norm:
        out["norm_form"] = nf.to_json()
    return out


def _cmd_cover_check(args):
    from .covering import SymForm, annihilation_check
    form = SymForm.from_json(_read_json(args.form))
    g1 = _load_exppoly(args.g1)
    g2 = _load_exppoly(args.g2)
    ok, resid = annihilation_check(form, g1, g2)
    return {"annihilates": ok, "residual": resid.to_json(),
            "meta": _meta(args)}


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
    return {"points": [{"point": p.to_json(), "multiplicity": m}
                       for p, m in pts],
            "bezout_total": sum(m for _, m in pts),
            "meta": _meta(args)}


def _cmd_plane_nc(args):
    from .planeconf import Configuration, normal_crossings
    conf = Configuration.from_json(_read_json(args.config))
    rep = normal_crossings(conf, seed=args.seed)
    out = rep.to_json()
    out["meta"] = _meta(args)
    return out


def _cmd_plane_engine(args):
    from .planeconf import surviving_cases, two_puncture_case_engine
    verdicts = two_puncture_case_engine(_ints(args.degrees), args.d0max)
    surv = surviving_cases(verdicts)
    return {"verdicts": [v.to_json() for v in verdicts],
            "survivors": [v.to_json() for v in surv],
            "meta": _meta(args)}


def _cmd_plane_exclusion(args):
    from .planeconf import Configuration, quadric_line_exclusion
    conf = Configuration.from_json(_read_json(args.config))
    rep = quadric_line_exclusion(conf)
    out = rep.to_json()
    out["meta"] = _meta(args)
    return out


# ---------------------------------------------------------------------------
# expfun group
# ---------------------------------------------------------------------------

def _cmd_expfun_eval(args):
    f = _load_exppoly(args.f)
    z = _parse_complex(args.point)
    v = f.evaluate(z)
    return {"value": [v.real, v.imag], "meta": _meta(args)}


def _cmd_expfun_diff(args):
    f = _load_exppoly(args.f)
    return {"derivative": f.differentiate().to_json(), "meta": _meta(args)}


def _cmd_expfun_iszero(args):
    f = _load_exppoly(args.f)
    return {"is_zero": f.is_zero(), "canonical": f.to_json(),
            "meta": _meta(args)}


def _cmd_expfun_combine(args):
    from .expfun import combine
    f = _load_exppoly(args.f)
    if args.op == "scale":
        g = CRat(Fraction(args.scalar))
    else:
        g = _load_exppoly(args.g)
    return {"result": combine(args.op, f, g).to_json(), "meta": _meta(args)}


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _common(p, tol_default=None):
    p.add_argument("--output", default="-", help="output file or - for stdout")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for any internal randomized schedule")
    if tol_default is not None:
        p.add_argument("--tol", type=float, default=None,
                       help=f"tolerance (default {tol_default})")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="curvecomp",
        description="exact/numerical toolkit around curve-complement "
                    "hyperbolicity criteria")
    groups = top.add_subparsers(dest="group", required=True)

    chern = groups.add_parser("chern", help="complete-intersection invariants")
    csub = chern.add_subparsers(dest="cmd", required=True)
    p = csub.add_parser("invariants")
    p.add_argument("--a", default="1", help="hypersurface degrees, e.g. 1 or 2,3")
    p.add_argument("--b", required=True, help="three curve degrees, e.g. 2,2,2")
    _common(p)
    p.set_defaults(func=_cmd_chern_invariants)
    p = csub.add_parser("classify")
    p.add_argument("--a", default="1")
    p.add_argument("--b", required=True)
    p.add_argument("--pic", action="store_true", help="assume Pic = Z")
    p.add_argument("--generic-nl", action="store_true",
                   help="assume Noether-Lefschetz genericity")
    _common(p)
    p.set_defaults(func=_cmd_chern_classify)
    p = csub.add_parser("enumerate")
    p.add_argument("--a", default="1")
    p.add_argument("--bmax", type=int, required=True)
    p.add_argument("--pic", action="store_true")
    p.add_argument("--generic-nl", action="store_true")
    p.add_argument("--golden", default=None, help="golden table directory")
    p.add_argument("--update", action="store_true",
                   help="write the golden table instead of comparing")
    _common(p)
    p.set_defaults(func=_cmd_chern_enumerate)

    nev = groups.add_parser("nev", help="growth functionals and main theorems")
    nsub = nev.add_subparsers(dest="cmd", required=True)
    for name, fn, needs, tol in (
            ("T", _cmd_nev_T, ("curve", "r"), 1e-8),
            ("Tscalar", _cmd_nev_Tscalar, ("g", "r"), 1e-8),
            ("N", _cmd_nev_N, ("curve", "divisor", "r"), 1e-3),
            ("order", _cmd_nev_order, ("curve", "radii"), 1e-8),
            ("fmt", _cmd_nev_fmt, ("curve", "divisor", "radii"), 0.02),
            ("smt", _cmd_nev_smt, ("curve", "divisors", "radii"), 0.05)):
        p = nsub.add_parser(name)
        p.add_argument("--input", default=None,
                       help="JSON payload with curve/divisor/radii/tol")
        for key in needs:
            p.add_argument(f"--{key}", default=None, **_NEV_INPUTS[key][0])
        if name in ("N", "smt"):
            p.add_argument("--method", default="winding",
                           choices=["winding", "circle-mean"])
        _common(p, tol_default=tol)
        p.set_defaults(func=fn, needs=needs, tol_default=tol)

    borel = groups.add_parser("borel", help="exponential identity engine")
    bsub = borel.add_subparsers(dest="cmd", required=True)
    p = bsub.add_parser("analyze")
    p.add_argument("--input", required=True, help="ExpSum JSON file")
    _common(p)
    p.set_defaults(func=_cmd_borel_analyze)
    p = bsub.add_parser("refute")
    p.add_argument("--input", required=True, help="ExpSum JSON file")
    p.add_argument("--radii", default=None)
    p.add_argument("--factor", type=float, default=10.0)
    _common(p)
    p.set_defaults(func=_cmd_borel_refute)

    cover = groups.add_parser("cover", help="cyclic-cover form transport")
    vsub = cover.add_subparsers(dest="cmd", required=True)
    p = vsub.add_parser("pushdown")
    p.add_argument("--b", type=int, required=True, help="branching order")
    p.add_argument("--form", required=True, help="SymForm JSON file")
    p.add_argument("--no-norm", dest="norm", action="store_false",
                   help="push the form as-is (skip the deck-product step)")
    _common(p)
    p.set_defaults(func=_cmd_cover_pushdown)
    p = vsub.add_parser("check")
    p.add_argument("--form", required=True)
    p.add_argument("--g1", required=True, help="first coordinate ExpPoly JSON")
    p.add_argument("--g2", required=True)
    _common(p)
    p.set_defaults(func=_cmd_cover_check)

    plane = groups.add_parser("plane", help="plane configuration checks")
    psub = plane.add_subparsers(dest="cmd", required=True)
    p = psub.add_parser("intersect")
    p.add_argument("--input", required=True, help="{'curves': [c1, c2]} JSON")
    _common(p)
    p.set_defaults(func=_cmd_plane_intersect)
    p = psub.add_parser("nc")
    p.add_argument("--config", required=True, help="Configuration JSON file")
    _common(p)
    p.set_defaults(func=_cmd_plane_nc)
    p = psub.add_parser("engine")
    p.add_argument("--degrees", required=True, help="e.g. 2,2,3")
    p.add_argument("--d0max", type=int, required=True)
    _common(p)
    p.set_defaults(func=_cmd_plane_engine)
    p = psub.add_parser("exclusion")
    p.add_argument("--config", required=True)
    _common(p)
    p.set_defaults(func=_cmd_plane_exclusion)

    expf = groups.add_parser("expfun", help="exponential polynomial algebra")
    esub = expf.add_subparsers(dest="cmd", required=True)
    p = esub.add_parser("eval")
    p.add_argument("--f", required=True, help="ExpPoly JSON file")
    p.add_argument("--point", required=True, help="complex point, e.g. 1+2i")
    _common(p)
    p.set_defaults(func=_cmd_expfun_eval)
    p = esub.add_parser("diff")
    p.add_argument("--f", required=True)
    _common(p)
    p.set_defaults(func=_cmd_expfun_diff)
    p = esub.add_parser("iszero")
    p.add_argument("--f", required=True)
    _common(p)
    p.set_defaults(func=_cmd_expfun_iszero)
    p = esub.add_parser("combine")
    p.add_argument("--op", required=True, choices=["add", "multiply", "scale"])
    p.add_argument("--f", required=True)
    p.add_argument("--g", default=None, help="second operand (add/multiply)")
    p.add_argument("--scalar", default=None, help="rational scalar (scale)")
    _common(p)
    p.set_defaults(func=_cmd_expfun_combine)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
    except Exception as exc:  # structured error envelope, exit 1
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)},
               "meta": _meta(args)}
        _emit(doc, getattr(args, "output", "-"))
        return 1
    _emit(doc, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
