"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` replaces functions and methods of the nine
``curvecomp`` modules by name while a traced pass runs.  A renamed or
deleted target makes ``Tracer.install`` raise, or, for the coordinate-change
schedule it looks up softly, go unwrapped; this test catches both.
"""

import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("scalars", "polys", "expfun", "nevanlinna", "borel", "planeconf",
           "covering", "chern", "cli")


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def _held(mods, modname, path):
    """The object the tracer wraps for one TARGETS entry."""
    if "." in path:
        cls, meth = path.split(".")
        return getattr(mods[modname], cls).__dict__[meth]
    return getattr(mods[modname], path)


def test_tracer_installs_on_every_module_and_restores():
    tracer = _tracer()
    mods = {m: importlib.import_module(f"curvecomp.{m}") for m in MODULES}
    targets = [(m, p) for m, p, _ in tracer.TARGETS]
    assert {m for m, _ in targets} == set(MODULES)
    before = {t: _held(mods, *t) for t in targets}
    schedule = mods["planeconf"]._change_schedule
    t = tracer.Tracer()
    t.install()
    try:
        for target, orig in before.items():
            held = _held(mods, *target)
            assert held is not orig and inspect.unwrap(held) is orig, target
        assert mods["planeconf"]._change_schedule.__wrapped__ is schedule
    finally:
        t.uninstall()
    for target, orig in before.items():
        assert _held(mods, *target) is orig, target
    assert mods["planeconf"]._change_schedule is schedule
