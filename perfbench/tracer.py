"""Per-layer counts and self times, recorded from outside the package.

The tracer replaces functions and methods of the curvecomp modules with
timing wrappers while a traced pass runs, then puts the originals back.  A
function imported by name into another module (``from .polys import
exact_roots``) is replaced in every module that holds it.  Fine-grained
calls (scalar arithmetic, ``eval_scaled``) are kept as aggregate counts and
self time rather than one span per call.

A layer's self time is the time inside its wrapped functions minus the time
spent in wrapped functions they call, so the layers' self times add up to
the traced time without double counting.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, tracer key).  "Class.method" paths wrap the method
# on the class; plain names are replaced wherever the function is held.
_CRAT_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "inverse", "__truediv__", "__rtruediv__",
             "__pow__")
TARGETS = (
    [("scalars", f"CRat.{op}", f"crat.{op}") for op in _CRAT_OPS]
    + [("scalars", f"CycNum.{op}", f"cycnum.{op}") for op in _CRAT_OPS]
    + [("scalars", "CRat.to_complex", "to_complex"),
       ("polys", "det_field", "det_field"),
       ("polys", "resultant_bivariate", "resultant_bivariate"),
       ("polys", "biv_gcd", "biv_gcd"),
       ("polys", "exact_roots", "exact_roots"),
       ("expfun", "ExpPoly.eval_scaled", "eval_scaled"),
       ("expfun", "ExpPoly.is_zero", "is_zero"),
       ("expfun", "ExpPoly.__init__", "expoly_init"),
       ("nevanlinna", "integrate_periodic", "integrate_periodic"),
       ("nevanlinna", "counting_entire", "counting_entire"),
       ("nevanlinna", "zero_count", "zero_count"),
       ("nevanlinna", "winding_number", "winding_number"),
       ("nevanlinna", "_winding_pass", "winding_pass"),
       ("borel", "minimal_vanishing_subsets", "mvs"),
       ("borel", "realize", "realize"),
       ("borel", "partition_classes", "partition_classes"),
       ("borel", "case2_conclude", "case2_conclude"),
       ("borel", "form_coefficients", "form_coefficients"),
       ("borel", "factor_homogeneous", "factor_homogeneous"),
       ("planeconf", "intersection_points", "intersection_points"),
       ("planeconf", "_intersections_in_chart", "chart"),
       ("planeconf", "normal_crossings", "normal_crossings"),
       ("planeconf", "quadric_line_exclusion", "quadric_line_exclusion"),
       ("covering", "deck_pullback", "deck_pullback"),
       ("covering", "norm_form", "norm_form"),
       ("covering", "push_down", "push_down"),
       ("chern", "invariants", "invariants"),
       ("cli", "_emit", "emit")]
)

# (name, unit, better): the per-layer metrics every traced run prints.
METRICS = [
    ("scalars.crat_ops", "count", "lower"),
    ("scalars.crat_self_s", "s", "lower"),
    ("scalars.cycnum_ops", "count", "lower"),
    ("scalars.to_complex_calls", "count", "lower"),
    ("polys.det_field_calls", "count", "lower"),
    ("polys.resultant_bivariate_calls", "count", "lower"),
    ("polys.biv_gcd_calls", "count", "lower"),
    ("polys.exact_roots_calls", "count", "lower"),
    ("polys.det_field_self_s", "s", "lower"),
    ("polys.resultant_bivariate_self_s", "s", "lower"),
    ("polys.biv_gcd_self_s", "s", "lower"),
    ("polys.exact_roots_self_s", "s", "lower"),
    ("polys.roots_exact", "count", "higher"),
    ("polys.roots_numeric", "count", "lower"),
    ("expfun.eval_scaled_calls", "count", "lower"),
    ("expfun.eval_scaled_self_s", "s", "lower"),
    ("expfun.evals_per_s", "1/s", "higher"),
    ("expfun.is_zero_calls", "count", "lower"),
    ("expfun.is_zero_self_s", "s", "lower"),
    ("expfun.expoly_builds", "count", "lower"),
    ("nevanlinna.quad_calls", "count", "lower"),
    ("nevanlinna.quad_points", "count", "lower"),
    ("nevanlinna.points_per_quad", "points/quad", "lower"),
    ("nevanlinna.quad_self_s", "s", "lower"),
    ("nevanlinna.winding_calls", "count", "lower"),
    ("nevanlinna.winding_sweeps", "count", "lower"),
    ("nevanlinna.nudges", "count", "lower"),
    ("nevanlinna.ladder_points", "count", "lower"),
    ("nevanlinna.winding_self_s", "s", "lower"),
    ("borel.subset_tests", "count", "lower"),
    ("borel.subsets_found", "count", "higher"),
    ("borel.subset_yield", "ratio", "higher"),
    ("borel.subsets_self_s", "s", "lower"),
    ("borel.case2_self_s", "s", "lower"),
    ("planeconf.intersection_calls", "count", "lower"),
    ("planeconf.chart_attempts", "count", "lower"),
    ("planeconf.change_matrices", "count", "lower"),
    ("planeconf.intersection_self_s", "s", "lower"),
    ("planeconf.crossings_self_s", "s", "lower"),
    ("planeconf.exclusion_self_s", "s", "lower"),
    ("covering.deck_pullback_calls", "count", "lower"),
    ("covering.norm_form_self_s", "s", "lower"),
    ("covering.push_down_self_s", "s", "lower"),
    ("chern.invariants_calls", "count", "lower"),
    ("chern.invariants_self_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.start_s", "s", "lower"),
    ("cli.emit_self_s", "s", "lower"),
    ("trace.jobs_per_s_untraced", "1/s", "higher"),
    ("trace.jobs_per_s_traced", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


class Tracer:
    """Wraps the TARGETS while installed; accumulates calls and times."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self._stack = [0.0]      # child-time accumulator per open call
        self._in_mvs = 0
        self._restore = []

    # -- wrapping -----------------------------------------------------------
    def _timed(self, key, fn, before=None, after=None):
        perf = time.perf_counter
        stack, calls = self._stack, self.calls
        self_s, total_s = self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                calls[key] += 1
                self_s[key] += dt - child
                total_s[key] += dt
                stack[-1] += dt
            if after is not None:
                after(out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, key):
        """Extra counting for the keys whose metrics are not call counts."""
        counts = self.counts
        if key == "integrate_periodic":
            def before(args):
                fn = args[0]

                def counted(theta):
                    counts["quad_points"] += 1
                    return fn(theta)
                return (counted,) + tuple(args[1:])
            return before, None
        if key == "exact_roots":
            def after(out):
                counts["roots_exact"] += len(out[0])
                counts["roots_numeric"] += len(out[1])
            return None, after
        if key == "realize":
            def after(out):
                if self._in_mvs:
                    counts["realize_in_mvs"] += 1
            return None, after
        if key == "mvs":
            def after(out):
                counts["subsets_found"] += len(out)
            return None, after
        return None, None

    def _mvs_depth(self, fn):
        def scoped(*args, **kwargs):
            self._in_mvs += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_mvs -= 1
        scoped.__wrapped__ = fn
        return scoped

    def _counted_generator(self, fn):
        counts = self.counts

        def gen(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["change_matrices"] += 1
                yield item
        gen.__wrapped__ = fn
        return gen

    def install(self):
        mods = {name: sys.modules[f"curvecomp.{name}"]
                for name in ("scalars", "polys", "expfun", "nevanlinna",
                             "borel", "planeconf", "covering", "chern", "cli")
                if f"curvecomp.{name}" in sys.modules}
        holders = [m for name, m in sys.modules.items()
                   if name.startswith("curvecomp") and m is not None]
        for modname, path, key in TARGETS:
            mod = mods.get(modname)
            if mod is None:
                continue
            before, after = self._hooks(key)
            if "." in path:
                clsname, meth = path.split(".")
                cls = getattr(mod, clsname)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._timed(key, orig, before, after))
                continue
            orig = getattr(mod, path)
            wrapped = self._timed(key, orig, before, after)
            if key == "mvs":
                wrapped = self._mvs_depth(wrapped)
            self._replace_everywhere(holders, orig, wrapped)
        schedule = getattr(mods.get("planeconf"), "_change_schedule", None)
        if schedule is not None:
            self._replace_everywhere(holders, schedule,
                                     self._counted_generator(schedule))

    def _replace_everywhere(self, holders, orig, new):
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- metrics ------------------------------------------------------------
    def table(self):
        """Calls, self and total seconds per wrapped function, and the
        extra counters: the trace file a traced run writes."""
        funcs = {key: {"calls": self.calls[key], "self_s": self.self_s[key],
                       "total_s": self.total_s[key]}
                 for key in sorted(self.calls)}
        return {"functions": funcs,
                "counters": dict(sorted(self.counts.items()))}

    def _sum(self, table, keys):
        return sum(table[k] for k in keys)

    def metrics(self):
        """Layer metrics computed from the counters (cli.* and trace.* are
        filled in by the runner)."""
        c, s, t, n = self.calls, self.self_s, self.total_s, self.counts
        crat = [f"crat.{op}" for op in _CRAT_OPS]
        cyc = [f"cycnum.{op}" for op in _CRAT_OPS]
        out = {
            "scalars.crat_ops": self._sum(c, crat),
            "scalars.crat_self_s": self._sum(s, crat),
            "scalars.cycnum_ops": self._sum(c, cyc),
            "scalars.to_complex_calls": c["to_complex"],
            "polys.roots_exact": n["roots_exact"],
            "polys.roots_numeric": n["roots_numeric"],
            "expfun.eval_scaled_calls": c["eval_scaled"],
            "expfun.eval_scaled_self_s": s["eval_scaled"],
            "expfun.evals_per_s": (c["eval_scaled"] / t["eval_scaled"]
                                   if t["eval_scaled"] else 0.0),
            "expfun.is_zero_calls": c["is_zero"],
            "expfun.is_zero_self_s": s["is_zero"],
            "expfun.expoly_builds": c["expoly_init"],
            "nevanlinna.quad_calls": c["integrate_periodic"],
            "nevanlinna.quad_points": n["quad_points"],
            "nevanlinna.points_per_quad": (
                n["quad_points"] / c["integrate_periodic"]
                if c["integrate_periodic"] else 0.0),
            "nevanlinna.quad_self_s": s["integrate_periodic"],
            "nevanlinna.winding_calls": c["winding_number"],
            "nevanlinna.winding_sweeps": c["winding_pass"],
            "nevanlinna.nudges": c["winding_number"] - c["zero_count"],
            "nevanlinna.ladder_points": c["zero_count"],
            "nevanlinna.winding_self_s": self._sum(
                s, ("counting_entire", "zero_count", "winding_number",
                    "winding_pass")),
            "borel.subset_tests": n["realize_in_mvs"] - c["mvs"],
            "borel.subsets_found": n["subsets_found"],
            "borel.subsets_self_s": self._sum(
                s, ("mvs", "realize", "partition_classes")),
            "borel.case2_self_s": self._sum(
                s, ("case2_conclude", "form_coefficients",
                    "factor_homogeneous")),
            "planeconf.intersection_calls": c["intersection_points"],
            "planeconf.chart_attempts": c["chart"],
            "planeconf.change_matrices": n["change_matrices"],
            "planeconf.intersection_self_s": s["intersection_points"]
            + s["chart"],
            "planeconf.crossings_self_s": s["normal_crossings"],
            "planeconf.exclusion_self_s": s["quadric_line_exclusion"],
            "covering.deck_pullback_calls": c["deck_pullback"],
            "covering.norm_form_self_s": s["norm_form"] + s["deck_pullback"],
            "covering.push_down_self_s": s["push_down"],
            "chern.invariants_calls": c["invariants"],
            "chern.invariants_self_s": s["invariants"],
            "cli.emit_self_s": s["emit"],
        }
        tests = out["borel.subset_tests"]
        out["borel.subset_yield"] = (out["borel.subsets_found"] / tests
                                     if tests else 0.0)
        for key in ("det_field", "resultant_bivariate", "biv_gcd",
                    "exact_roots"):
            out[f"polys.{key}_calls"] = c[key]
            out[f"polys.{key}_self_s"] = s[key]
        return out
