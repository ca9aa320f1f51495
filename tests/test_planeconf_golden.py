"""Float-hex pins of the plane-configuration checks on random configurations.

``tests/golden/planeconf/configurations.json`` holds, for each of a seeded
set of random conic/cubic/quartic configurations, the configuration itself,
the ``intersection_points`` of every pair, the ``normal_crossings`` report
and the ``quadric_line_exclusion`` report, with every float written as
``float.hex``.  Most intersection points are numeric; three configurations
have curves through a planted rational point, one of them a triple point, so
both root paths of the common-zero solver are pinned.  A configuration whose
checks raise when the file is written is left out.

The file was written before the three bivariate solvers of ``planeconf``
were merged into one, and the test never rewrites it.  To write it on
purpose, run

    PYTHONPATH=src python tests/test_planeconf_golden.py --write \\
        tests/golden/planeconf/configurations.json

and say in the change log which commit wrote it.
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from curvecomp.planeconf import (Configuration, PlaneCurve,
                                 intersection_points, normal_crossings,
                                 quadric_line_exclusion)
from curvecomp.polys import MPoly
from curvecomp.scalars import CRat

from test_planeconf import _hexed

GOLDEN = (Path(__file__).resolve().parent / "golden" / "planeconf"
          / "configurations.json")

# (degrees, the curves through a planted rational point): a cubic or
# quartic exclusion search with a line component, two vacuous exclusions (two
# conics) with cubic and quartic intersections, and a planted triple point
PATTERNS = (((2, 3, 1), (0, 1)), ((1, 2, 3), (0, 1, 2)), ((2, 2, 3), ()),
            ((2, 2, 4), (1, 2)), ((2, 4, 1), ()))
SEED = 61


def _random_curve(rng, d, through):
    """Coefficients in [-4, 4]; with a point, the first monomial that does
    not vanish there is adjusted so that the curve passes through it."""
    monos = [(e0, e1, d - e0 - e1) for e0 in range(d + 1)
             for e1 in range(d + 1 - e0)]
    while True:
        coeffs = {e: Fraction(rng.randint(-4, 4)) for e in monos}
        if through is not None:
            def at(e):
                return math.prod(x ** k for x, k in zip(through, e))
            e0 = next(e for e in monos if at(e))
            coeffs[e0] = -sum(c * at(e) for e, c in coeffs.items()
                              if e != e0) / at(e0)
        try:
            return PlaneCurve(MPoly(3, [(e, CRat(c))
                                        for e, c in coeffs.items()]))
        except ValueError:
            continue


def random_configurations():
    """(name, configuration JSON) for each pattern, seeded."""
    rng = random.Random(SEED)
    for degrees, planted in PATTERNS:
        point = (1, rng.randint(-3, 3), rng.randint(1, 3))
        curves = [_random_curve(rng, d, point if i in planted else None)
                  for i, d in enumerate(degrees)]
        name = "deg" + "".join(map(str, degrees))
        yield name, {"curves": [c.to_json() for c in curves]}


def checks(conf_json):
    """The pinned outputs of one configuration, floats as hex."""
    conf = Configuration.from_json(conf_json)
    curves = conf.curves
    pairs = [[[p.to_json(), m] for p, m in intersection_points(curves[i],
                                                               curves[j])]
             for i in range(3) for j in range(i + 1, 3)]
    return _hexed({"configuration": conf_json,
                  "intersections": pairs,
                  "crossings": normal_crossings(conf).to_json(),
                  "exclusion": quadric_line_exclusion(conf).to_json()})


def _load():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


WANT = _load()


def test_pins_cover_both_root_paths():
    assert len(WANT) >= 4
    flags = [p[0]["exact"] for doc in WANT.values()
             for pair in doc["intersections"] for p in pair]
    assert True in flags and False in flags


@pytest.mark.parametrize("name", sorted(WANT))
def test_checks_bit_identical(name):
    want = WANT[name]
    assert checks(want["configuration"]) == want


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or len(sys.argv) != 3:
        sys.exit("usage: test_planeconf_golden.py --write FILE")
    out = {}
    for name, conf_json in random_configurations():
        try:
            out[name] = checks(conf_json)
        except Exception as exc:      # left out: see the module docstring
            print("left out", name, type(exc).__name__, exc)
            continue
        print("recorded", name)
    Path(sys.argv[2]).write_text(json.dumps(out, indent=1, sort_keys=True)
                                 + "\n")
