"""Tests of the benchmark itself: deterministic inputs, checks that reject a
perturbed output, metric names that match BENCHMARK.json, a tracer that
restores what it wraps, and a run that refuses to start without the program.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import wl_cli  # noqa: E402
import wl_counting  # noqa: E402
import wl_exact  # noqa: E402
import wl_growth  # noqa: E402


class Mutated:
    """A program output whose JSON form is altered; attributes given as
    keywords replace the original's, the rest pass through."""

    def __init__(self, orig, mutate=None, **attrs):
        self._orig = orig
        self._mutate = mutate
        self.__dict__.update(attrs)

    def to_json(self):
        doc = copy.deepcopy(self._orig.to_json())
        if self._mutate is not None:
            self._mutate(doc)
        return doc

    def __getattr__(self, name):
        return getattr(self._orig, name)


def first_of(jobs, kind):
    return next(j for j in jobs if j.kind == kind)


def accepts_then_rejects(wl, job, out, bad):
    assert wl.check(job, out, {}) == [], job.kind
    assert wl.check(job, bad, {}), f"{job.kind}: perturbed output accepted"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("wl", [wl_growth, wl_counting, wl_exact],
                         ids=["growth", "counting", "exact"])
def test_generators_deterministic(wl):
    assert wl.make_jobs(5) == wl.make_jobs(5)
    assert wl.make_jobs(5) != wl.make_jobs(6)
    assert len(wl.make_jobs(5)) >= 100


def test_cli_generator_deterministic(tmp_path):
    def snapshot(seed):
        jobs = wl_cli.make_jobs(seed, tmp_path)
        files = {p.name: p.read_text() for p in sorted(tmp_path.iterdir())}
        return jobs, files

    assert snapshot(5) == snapshot(5)
    assert snapshot(5) != snapshot(6)
    assert len(snapshot(5)[0]) >= 100


def test_interleave_spreads_kinds():
    from harness import Job, interleave
    order = interleave([("a", [Job("a", i) for i in range(4)]),
                        ("b", [Job("b", 0)])])
    assert [j.kind for j in order] == ["a", "a", "b", "a", "a"]


def test_scaled_times_follow_the_probes_near_each_job():
    from harness import REF_PROBE_S, PassResult
    n = 40
    starts = [0.01 * i for i in range(n)]
    times = [0.009] * n
    # reference speed for the first half of the pass, then half speed
    probes = [REF_PROBE_S if i < n // 2 else 2 * REF_PROBE_S
              for i in range(n)]
    scaled = PassResult(0.4, starts, times, probes, [None] * n).scaled_times()
    assert scaled[5] == pytest.approx(0.009)
    assert scaled[35] == pytest.approx(0.0045)
    assert scaled[5] * 2 == pytest.approx(
        PassResult(0.4, starts, [0.018] * n, probes,
                   [None] * n).scaled_times()[5])


# ---------------------------------------------------------------------------
# checks reject perturbed outputs
# ---------------------------------------------------------------------------

def test_growth_checks():
    jobs = wl_growth.make_jobs(3)
    for kind in ("rational", "scalar_exp"):
        job = first_of(jobs, kind)
        out = wl_growth.run(job)
        accepts_then_rejects(wl_growth, job, out, out * 1.001)
    job = wl_growth.Job("order2", wl_growth._order2_job(8.0))
    out = wl_growth.run(job)
    accepts_then_rejects(wl_growth, job, out, out + 0.01)
    job = first_of(jobs, "order_estimate")
    out = wl_growth.run(job)
    bad = SimpleNamespace(radii=out.radii,
                          values=out.values[:-1] + [out.values[-1] + 0.01])
    accepts_then_rejects(wl_growth, job, out, bad)
    job = first_of(jobs, "smt")
    out = wl_growth.run(job)
    n_bad = [list(col) for col in out.N]
    n_bad[2][-1] += 0.01
    accepts_then_rejects(wl_growth, job, out,
                         SimpleNamespace(radii=out.radii, T=out.T, N=n_bad))


def test_counting_checks():
    jobs = wl_counting.make_jobs(3)
    for kind in ("poly_inner", "poly_annulus"):
        job = first_of(jobs, kind)
        out = wl_counting.run(job)
        accepts_then_rejects(wl_counting, job, out, out + 0.01)
    job = wl_counting.Job("exp", {"h": wl_counting.EXP_MINUS_ONE, "r": 10.0})
    out = wl_counting.run(job)
    accepts_then_rejects(wl_counting, job, out, out - 0.01)
    job = first_of(jobs, "fmt")
    out = wl_counting.run(job)
    bad = SimpleNamespace(radii=out.radii, d_times_T=out.d_times_T,
                          counting=[n + 0.01 for n in out.counting])
    accepts_then_rejects(wl_counting, job, out, bad)


def test_exact_checks():
    from curvecomp.scalars import CRat
    jobs = wl_exact.make_jobs(3)

    job = next(j for j in jobs if j.kind == "intersect" and j.data["planted"])
    out = wl_exact.run(job)
    accepts_then_rejects(wl_exact, job, out, out[:-1])
    # a wrong exact point: the planted one moved off both curves
    pt, m = next((p, m) for p, m in out if p.exact)
    moved = Mutated(pt, lambda d: d["coords"][0].__setitem__(0, 12345))
    accepts_then_rejects(wl_exact, job, out,
                         [(moved, m) if p is pt else (p, m) for p, m in out])

    job = first_of(jobs, "nc_lines")
    out = wl_exact.run(job)
    accepts_then_rejects(wl_exact, job, out, Mutated(
        out, lambda d: d.update(triple_points=[], **{"pass": True})))

    job = first_of(jobs, "nc_tangent")
    out = wl_exact.run(job)

    def transversal(d):
        d["pass"] = True
        for p in d["pairwise"]:
            p["worst_multiplicity"] = 1
    accepts_then_rejects(wl_exact, job, out, Mutated(out, transversal))

    job = first_of(jobs, "exclusion_planted")
    out = wl_exact.run(job)
    accepts_then_rejects(wl_exact, job, out, Mutated(
        out, lambda d: d.update(violations=[], **{"pass": True})))

    job = first_of(jobs, "pipeline")
    out = wl_exact.run(job)
    wrong = SimpleNamespace(kind=out[0].kind, lam=out[0].lam,
                            gam=out[0].gam * CRat(2))
    accepts_then_rejects(wl_exact, job, out, [wrong] + out[1:])

    job = first_of(jobs, "subsets_6")
    out = wl_exact.run(job)
    accepts_then_rejects(wl_exact, job, out, out[:-1])
    off = Mutated(out[0], lambda d: d["terms"][0].__setitem__(
        "coeff", [7, 1, 0, 1]))
    accepts_then_rejects(wl_exact, job, out, [off] + out[1:])

    job = first_of(jobs, "cover")
    out = wl_exact.run(job)
    nf, pushed, back = out[0]

    def scale(d):
        k = next(i for i, c in enumerate(d["coeffs"]) if c["num"])
        d["coeffs"][k]["num"][0]["coeff"][0] *= 2
    bad = [(nf, Mutated(pushed, scale), back)] + out[1:]
    accepts_then_rejects(wl_exact, job, out, bad)
    accepts_then_rejects(wl_exact, job, out,
                         [(nf, pushed, Mutated(back, scale))] + out[1:])

    job = first_of(jobs, "chern")
    out = wl_exact.run(job)
    shifted = Mutated(out[1], lambda d: d.update(
        c1sq_minus_c2=d["c1sq_minus_c2"] + 1), c1sq_minus_c2=2)
    accepts_then_rejects(wl_exact, job, out, [out[0], shifted] + out[2:])


CLI_MUTATIONS = {
    "chern_invariants": lambda d: d.update(c1sq_minus_c2=d["c1sq_minus_c2"]
                                           + 1),
    "chern_enumerate": lambda d: d["rows"].pop(),
    "chern_classify": lambda d: d["invariants"].update(
        euler_surface=d["invariants"]["euler_surface"] + 1),
    "nev_order": lambda d: d["values"]["values"].__setitem__(
        -1, d["values"]["values"][-1] + 0.01),
    "nev_T": lambda d: d["values"].update(T=d["values"]["T"] + 0.01),
    "borel_analyze": lambda d: d["gamma"].__setitem__(
        0, 2 * d["gamma"][0] + 1),
    "cover_pushdown": lambda d: next(
        c for c in d["pushed"]["coeffs"] if c["num"])["num"][0][
            "coeff"].__setitem__(0, 999),
    "plane_intersect": lambda d: d.update(
        bezout_total=d["bezout_total"] + 1),
    "plane_engine": lambda d: d.update(survivors=[]),
    "plane_nc": lambda d: d.update(triple_points=[]),
    "borel_refute": lambda d: d.update(refuted=False),
    "cover_check": lambda d: d.update(annihilates=False),
}


def test_cli_checks(tmp_path):
    jobs = wl_cli.make_jobs(3, tmp_path)
    for cmd in wl_cli.COMMANDS:
        job = first_of(jobs, cmd)
        code, text = wl_cli.run_traced(job)
        doc = json.loads(text)
        CLI_MUTATIONS[cmd](doc)
        accepts_then_rejects(wl_cli, job, (code, text), (0, json.dumps(doc)))
        assert wl_cli.check(job, (1, text), {})
        assert wl_cli.check(job, (0, text[:-5]), {})


# ---------------------------------------------------------------------------
# metric names, the tracer, and the missing-program refusal
# ---------------------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench_run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)


def test_tracer_counts_and_restores():
    from curvecomp import planeconf, polys
    from curvecomp.scalars import CRat
    add, roots = CRat.__dict__["__add__"], polys.exact_roots
    t = tracer.Tracer()
    t.install()
    try:
        CRat(1) + CRat(2)
        p = polys.Poly([CRat(-2), CRat(0), CRat(1)])     # x^2 - 2
        polys.Poly([CRat(-1), CRat(1)])
        planeconf.exact_roots(p * polys.Poly([CRat(-1), CRat(1)]))
    finally:
        t.uninstall()
    m = t.metrics()
    assert m["scalars.crat_ops"] >= 1
    assert m["polys.exact_roots_calls"] == 1
    assert (m["polys.roots_exact"], m["polys.roots_numeric"]) == (1, 2)
    assert CRat.__dict__["__add__"] is add
    assert polys.exact_roots is roots and planeconf.exact_roots is roots


def test_refuses_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "growth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
