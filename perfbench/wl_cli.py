"""Workload ``cli``: the documented command catalogue, one child at a time.

Each job runs ``python -m curvecomp.cli ...`` as a child process on small
seeded inputs: the criterion-9 catalogue plus ``plane nc``, ``borel refute``
and ``cover check``.  Only here are interpreter start, per-command imports,
argparse, JSON load and ``_emit``/``_round_floats`` paid.  The traced run
also runs the same commands in-process through ``cli.main`` to split a
command's time into start-up and ``main``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import refs
import wl_exact
from harness import Job, interleave

MODULES = ("curvecomp.cli",)
RSS_OF_CHILDREN = True
SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_TIMEOUT_S = 60

ONE = [1, 1, 0, 1]
ZERO = [0, 1, 0, 1]
CURVE_EXP = {"components": [[{"coeff": [ONE], "exp": []}],
                            [{"coeff": [ONE], "exp": [ZERO, ONE]}]]}
ORDER_RADII = (2.0, 4.0, 8.0, 16.0, 32.0)
COMMANDS = ("chern_invariants", "chern_enumerate", "chern_classify",
            "nev_order", "nev_T", "borel_analyze", "cover_pushdown",
            "plane_intersect", "plane_engine", "plane_nc", "borel_refute",
            "cover_check")
JOBS_PER_COMMAND = 10


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class _Inputs:
    """Seeded inputs for one job of each command, written under workdir."""

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.gen = wl_exact._Gen(seed)
        self.dir = workdir

    def make(self, cmd, k):
        rng, f = self.rng, self.dir / f"{cmd}_{k}"
        if cmd == "chern_invariants":
            b = [rng.randint(1, 10) for _ in range(3)]
            return ["chern", "invariants", "--a", "1",
                    "--b", ",".join(map(str, b))], {"b": b}
        if cmd == "chern_enumerate":
            return ["chern", "enumerate", "--a", "1", "--bmax", "3"], {}
        if cmd == "chern_classify":
            a = rng.randint(4, 6)
            b = [rng.randint(1, 4) for _ in range(3)]
            return ["chern", "classify", "--a", str(a), "--b",
                    ",".join(map(str, b)), "--generic-nl"], {"a": a}
        if cmd == "nev_order":
            return ["nev", "order", "--curve", _write(f.with_suffix(".json"),
                                                      CURVE_EXP),
                    "--radii", ",".join(f"{r:g}" for r in ORDER_RADII)], {}
        if cmd == "nev_T":
            d = rng.randint(1, 5)
            r = round(rng.uniform(2, 50), 2)
            curve = {"components": [[{"coeff": [ONE], "exp": []}],
                                    [{"coeff": [ZERO] * d + [ONE],
                                      "exp": []}]]}
            path = _write(f.with_suffix(".json"), curve)
            return ["nev", "T", "--curve", path, "--r", f"{r}"], \
                {"d": d, "r": r}
        if cmd == "borel_analyze":
            case = self.gen.case2()
            return ["borel", "analyze", "--input",
                    _write(f.with_suffix(".json"), case["sum"])], case
        if cmd == "cover_pushdown":
            form = self.gen.form()
            return ["cover", "pushdown", "--b", str(form["b"]), "--form",
                    _write(f.with_suffix(".json"), form["form"])], form
        if cmd == "plane_intersect":
            pair = self.gen.intersect(2, 2, True)
            return ["plane", "intersect", "--input",
                    _write(f.with_suffix(".json"),
                           {"curves": pair["curves"]})], pair
        if cmd == "plane_engine":
            return ["plane", "engine", "--degrees", "2,2,3", "--d0max",
                    "10"], {}
        if cmd == "plane_nc":
            conf = self.gen.nc("nc_lines")
            return ["plane", "nc", "--config",
                    _write(f.with_suffix(".json"), conf["config"])], conf
        if cmd == "borel_refute":
            return ["borel", "refute", "--input",
                    _write(f.with_suffix(".json"), self._mixed_sum())], {}
        if cmd == "cover_check":
            return self._annihilation(f)
        raise ValueError(cmd)

    def _mixed_sum(self):
        """Two rational classes: p1 = z, p2 = z^2, terms with distinct
        exponents (i + j) z + (M - i + k) z^2."""
        rng = self.rng
        terms = []
        for i, j, k in ((1, 0, 0), (0, 1, 1)):
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                         rng.randint(1, 5))
            terms.append({"coeff": [c.numerator, c.denominator, 0, 1],
                          "i": i, "j": j, "k": k})
        return {"M": 1, "p1": [ZERO, ONE], "p2": [ZERO, ZERO, ONE],
                "terms": terms}

    def _annihilation(self, f):
        """x2 dz1 - x1 dz2 on g1 = a e^P, g2 = c e^P: annihilated exactly."""
        rng = self.rng
        p = [ZERO] + [[rng.randint(-3, 3) or 1, 1, 0, 1]
                      for _ in range(rng.randint(1, 2))]
        a, c = (refs.q_json(refs.q(rng.randint(1, 5), rng.randint(-2, 2)))
                for _ in range(2))
        form = {"M": 1, "basis": "plain", "coeffs": [
            {"num": [{"exponents": [1, 0], "coeff": [-1, 1, 0, 1]}]},
            {"num": [{"exponents": [0, 1], "coeff": ONE}]}]}
        argv = ["cover", "check",
                "--form", _write(f.with_suffix(".form.json"), form),
                "--g1", _write(f.with_suffix(".g1.json"),
                               [{"coeff": [a], "exp": p}]),
                "--g2", _write(f.with_suffix(".g2.json"),
                               [{"coeff": [c], "exp": p}])]
        return argv, {}


def make_jobs(seed, workdir):
    inputs = _Inputs(seed, workdir)
    groups = []
    for cmd in COMMANDS:
        jobs = []
        for k in range(JOBS_PER_COMMAND):
            argv, expect = inputs.make(cmd, k)
            jobs.append(Job(cmd, {"argv": argv, "expect": expect,
                                  "out": str(workdir / f"{cmd}_{k}.out")}))
        groups.append((cmd, jobs))
    return interleave(groups)


def setup(seed, workdir):
    jobs = make_jobs(seed, workdir)
    firsts = {}
    for job in jobs:
        firsts.setdefault(job.kind, job)
    # one child start, and every command once in-process (which also
    # compiles the lazily imported modules the children load)
    run(firsts["chern_invariants"])
    for job in firsts.values():
        run_traced(job)
    return jobs, []


def run(job):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "curvecomp.cli",
                           *job.data["argv"]], capture_output=True, env=env,
                          timeout=CHILD_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout.decode("utf-8")


def run_traced(job):
    """The same command through ``cli.main`` in this process."""
    from curvecomp import cli
    path = job.data["out"]
    code = cli.main(job.data["argv"] + ["--output", path])
    return code, Path(path).read_text(encoding="utf-8")


def layer_metrics(jobs, child_pass, inproc_pass):
    """cli.main_s and cli.start_s: medians over the catalogue commands."""
    child, inproc = {}, {}
    for job, tc, ti in zip(jobs, child_pass.scaled_times(),
                           inproc_pass.scaled_times()):
        child.setdefault(job.kind, []).append(tc)
        inproc.setdefault(job.kind, []).append(ti)
    main_s = {k: statistics.median(v) for k, v in inproc.items()}
    start_s = [statistics.median(child[k]) - main_s[k] for k in child]
    return {"cli.main_s": statistics.median(main_s.values()),
            "cli.start_s": statistics.median(start_s)}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _chern_rows_ok(rows):
    errs = []
    for rj, b in rows:
        want = refs.plane_chern(b)
        if not refs.chern_identity_holds(rj) or any(
                rj[k] != v for k, v in want.items()):
            errs.append(f"plane invariants differ at {b}")
    return errs


def check(job, out, cache):
    code, text = out
    if code != 0:
        return [f"exit code {code}: {text[:200]}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"invalid JSON: {exc}"]
    exp = job.data["expect"]
    cmd = job.kind
    if cmd == "chern_invariants":
        return _chern_rows_ok([(doc, exp["b"])])
    if cmd == "chern_enumerate":
        rows = [(r["invariants"], (r["b1"], r["b2"], r["b3"]))
                for r in doc["rows"]]
        errs = _chern_rows_ok(rows)
        return errs + ([] if len(rows) == 10 else [f"{len(rows)} rows"])
    if cmd == "chern_classify":
        inv, d = doc["invariants"], exp["a"]
        errs = [] if refs.chern_identity_holds(inv) else ["Chern identity"]
        return errs + refs.close(inv["euler_surface"],
                                 d ** 3 - 4 * d ** 2 + 6 * d, 0,
                                 f"e(S) of a degree-{d} surface")
    if cmd == "nev_order":
        errs = []
        for r, v in zip(doc["values"]["radii"], doc["values"]["values"]):
            want = refs.cached(cache, ("t_exp_line", r), refs.t_exp_line, r)
            errs += refs.close(v, want, 1e-7, f"T[1:e^z]({r})")
        return errs
    if cmd == "nev_T":
        return refs.close(doc["values"]["T"],
                          refs.t_rational(exp["d"], exp["r"]), 1e-7,
                          f"T[1:z^{exp['d']}]({exp['r']})")
    if cmd == "borel_analyze":
        if doc["kind"] != "case2_proportional":
            return [f"verdict {doc['kind']}"]
        return wl_exact.check_case2(exp, refs.q_from_json(doc["lambda"]),
                                    refs.q_from_json(doc["gamma"]))
    if cmd == "cover_pushdown":
        return wl_exact.check_pushed(exp, doc["pushed"])
    if cmd == "plane_intersect":
        errs = [] if doc["bezout_total"] == 4 else ["Bezout total"]
        pts = [p["point"] for p in doc["points"]]
        for pj in pts:
            if pj["exact"] and not all(wl_exact._on_curve(c, pj)
                                       for c in exp["plain"]):
                errs.append("exact point off a curve")
        if not wl_exact._has_point(pts, exp["planted"]):
            errs.append("planted meeting point not found")
        return errs
    if cmd == "plane_engine":
        surv = doc["survivors"]
        ok = surv and all(v["d0"] == 1
                          and v["certificate"]["shared_degree"] == 2
                          and v["certificate"]["window_solutions"] == [[1, 1]]
                          for v in surv)
        return [] if ok else ["(2,2,3) survivors differ"]
    if cmd == "plane_nc":
        triples = doc["triple_points"]
        if doc["pass"] or not wl_exact._has_point(
                triples, exp["expect"]["triple"]):
            return ["planted triple point not reported"]
        return []
    if cmd == "borel_refute":
        return [] if doc["refuted"] and doc["L"] == 2 else ["not refuted"]
    if cmd == "cover_check":
        resid = doc["residual"]
        return [] if doc["annihilates"] and resid == [] else \
            ["form not annihilated"]
    return [f"unknown command {cmd}"]
