"""Logarithmic Chern numbers of complete-intersection surfaces carrying a
three-component curve, and the degeneracy/hyperbolicity classifiers.

A surface is cut out of P_{r+2} by hypersurfaces of degrees a_1..a_r (the
projective plane itself is encoded by the device r=1, a=[1]); the three
curve components are transversal hypersurface sections of degrees b_1,b_2,b_3.
Everything here is exact integer arithmetic; no floating point enters.

Whether Pic = Z holds, or whether the ambient hypersurface is generic in the
Noether-Lefschetz sense, cannot be computed from degree data; both enter only
as caller-supplied hypothesis flags.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import Record, Value


class InvalidDegreeError(ValueError):
    pass


class CIData(Value):
    """Degrees of a complete-intersection surface with a 3-component curve.

    `a` empty means the plane; it is normalized to the single degree-1
    hypersurface presentation so every formula below has one code path.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = tuple(int(x) for x in a)
        if not a:
            a = (1,)
        b = tuple(int(x) for x in b)
        if len(b) != 3:
            raise InvalidDegreeError("exactly three curve degrees required")
        if any(x < 1 for x in a) or any(x < 1 for x in b):
            raise InvalidDegreeError("all degrees must be >= 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _key(self):
        return (self.a, self.b)

    @property
    def r(self) -> int:
        return len(self.a)

    @property
    def A(self) -> int:
        out = 1
        for x in self.a:
            out *= x
        return out

    @property
    def a_sum(self) -> int:
        return sum(self.a)

    @property
    def b_sum(self) -> int:
        return sum(self.b)

    def is_plane(self) -> bool:
        return all(x == 1 for x in self.a)


class LogChernReport(Value):
    """Logarithmic Chern data of one surface-with-curve configuration.

    Holds only the degree data, as ints in slots: A = prod a_i, a_sum =
    sum a_i, r and the curve degrees b1, b2, b3.  Every invariant is a
    property computed from them on access, so a report costs a fixed
    handful of machine words however many invariants are read.  Building a
    report checks the identity c1^2 - c2 = Gamma^2 - e(S) + e(C), which
    holds for all degree data; a failure means the formulas are broken.
    """

    __slots__ = ("A", "a_sum", "r", "b1", "b2", "b3")

    def __init__(self, A: int, a_sum: int, r: int, b1: int, b2: int,
                 b3: int):
        setter = object.__setattr__
        setter(self, "A", A)
        setter(self, "a_sum", a_sum)
        setter(self, "r", r)
        setter(self, "b1", b1)
        setter(self, "b2", b2)
        setter(self, "b3", b3)
        ident = self.gamma_sq - self.euler_surface + self.euler_C
        if ident != self.c1sq_minus_c2:
            raise AssertionError(
                f"internal identity broken: {self.c1sq_minus_c2} != {ident}")

    def _key(self):
        return (self.A, self.a_sum, self.r, self.b1, self.b2, self.b3)

    @property
    def euler_surface(self) -> int:
        return self.A * (2 + (self.a_sum - self.r - 1) ** 2)

    @property
    def euler_components(self) -> tuple:
        A, b1, b2, b3 = self.A, self.b1, self.b2, self.b3
        shift = 3 + self.r - self.a_sum
        return (A * b1 * (shift - b1), A * b2 * (shift - b2),
                A * b3 * (shift - b3))

    @property
    def pairwise_intersections(self) -> tuple:
        A, b1, b2, b3 = self.A, self.b1, self.b2, self.b3
        return (A * b1 * b2, A * b1 * b3, A * b2 * b3)

    @property
    def euler_C(self) -> int:
        e1, e2, e3 = self.euler_components
        p1, p2, p3 = self.pairwise_intersections
        return e1 + e2 + e3 - p1 - p2 - p3

    @property
    def gamma_sq(self) -> int:
        return self.A * self.det_estar_degree ** 2

    @property
    def c1sq_minus_c2(self) -> int:
        b1, b2, b3 = self.b1, self.b2, self.b3
        return self.A * ((self.a_sum - self.r - 3) * (b1 + b2 + b3 - 4) - 6
                         + (b1 * b2 + b1 * b3 + b2 * b3))

    @property
    def det_estar_degree(self) -> int:
        return self.a_sum + self.b1 + self.b2 + self.b3 - 3 - self.r

    def to_json(self):
        return {
            "euler_surface": self.euler_surface,
            "euler_components": list(self.euler_components),
            "euler_C": self.euler_C,
            "gamma_sq": self.gamma_sq,
            "c1sq_minus_c2": self.c1sq_minus_c2,
            "det_estar_degree": self.det_estar_degree,
            "pairwise_intersections": list(self.pairwise_intersections),
        }


class TheoremVerdict(Record):
    __slots__ = ("condition_i_pic", "condition_ii", "condition_iii",
                 "main2_case", "mt_applicable", "notes")
    DEFAULTS = {"main2_case": "none", "mt_applicable": False}

    @property
    def applicable(self) -> bool:
        return self.condition_i_pic and self.condition_ii and self.condition_iii

    def to_json(self):
        out = super().to_json()
        out["applicable"] = self.applicable
        out["notes"] = out.pop("notes")   # after "applicable"
        return out


def invariants(ci: CIData) -> LogChernReport:
    """All surface/curve invariants derived from the degree data, exactly."""
    return LogChernReport(ci.A, ci.a_sum, ci.r, *ci.b)


def theorem_main_check(ci: CIData, pic_is_Z: bool) -> TheoremVerdict:
    """Degeneracy criterion from the Chern-number and determinant conditions.

    Condition (ii) is c1^2 - c2 > 0; the report's value is A times
    (a - r - 3)(b - 4) + sum b_i b_j - 6 with A >= 1, so its sign, and
    whether it is zero, are those of the bracket.
    """
    rep = invariants(ci)
    excess = rep.c1sq_minus_c2
    notes = []
    if rep.det_estar_degree == 0:
        # determinant bundle has degree zero here; effectivity is only
        # guaranteed by triviality, so flag the edge rather than decide it
        notes.append("degree of det(E*) is zero: borderline effectivity")
    if excess == 0:
        notes.append("Chern-number criterion met with equality: borderline")
    return TheoremVerdict(bool(pic_is_Z), excess > 0,
                          rep.det_estar_degree >= 0, notes=notes)


def classify_main2(ci: CIData, pic_is_Z: bool = False,
                   generic_NL: bool = False) -> TheoremVerdict:
    """Which (if any) of the three ready-made degeneracy cases applies.

    a) Pic = Z surfaces with a >= r+3 and total curve degree >= 5;
    b) generic hypersurfaces in P_3 of degree >= 4 with curve degree >= 5;
    c) the plane, with either all b_j >= 2 and one >= 3, or (sorted)
       b = (1, x, y) with x >= 3 and y >= 4.
    """
    v = theorem_main_check(ci, pic_is_Z)
    a, r, b = ci.a_sum, ci.r, ci.b_sum
    b1, b2, b3 = sorted(ci.b)
    # case (c)'s first branch, with no line component, is mt_applicable
    no_line = ci.is_plane() and b1 >= 2 and b3 >= 3
    if no_line or (ci.is_plane() and b1 == 1 and b2 >= 3 and b3 >= 4):
        case = "c"
    elif pic_is_Z and a >= r + 3 and b >= 5:
        case = "a"
    elif r == 1 and generic_NL and ci.a[0] >= 4 and b >= 5:
        case = "b"
    else:
        case = "none"
    return TheoremVerdict(v.condition_i_pic, v.condition_ii, v.condition_iii,
                          case, no_line, v.notes)


def identity_check_main2c(b) -> bool:
    """Verify the two expansions of the plane Chern-number expression.

    Returns True when all three agree; on mismatch (which would indicate a
    broken build, not bad input) returns False and the caller can inspect
    :func:`identity_values_main2c`.
    """
    v0, v1, v2 = identity_values_main2c(b)
    return v0 == v1 == v2


def identity_values_main2c(b):
    b1, b2, b3 = (int(x) for x in b)
    s = b1 + b2 + b3
    direct = -3 * (s - 4) - 6 + (b1 * b2 + b1 * b3 + b2 * b3)
    exp1 = ((b1 - 2) * (b2 - 2) + (b1 - 2) * (b3 - 2) + (b2 - 2) * (b3 - 2)
            + s - 6)
    exp2 = ((b1 - 1) * (b2 - 1) + (b1 - 1) * (b3 - 2) + (b2 - 3) * (b3 - 4)
            + (2 * b2 + b3) - 9)
    return direct, exp1, exp2


def enumerate_configs(a, b_max: int, pic_is_Z: bool = False,
                      generic_NL: bool = False):
    """All sorted degree triples up to b_max with invariants and verdicts.

    Rows come back lexicographically sorted; each row is JSON-ready.
    """
    if b_max < 3:
        raise InvalidDegreeError("b_max must be at least 3")
    rows = []
    for b in combinations_with_replacement(range(1, b_max + 1), 3):
        ci = CIData(a, b)
        rep = invariants(ci)
        verdict = classify_main2(ci, pic_is_Z=pic_is_Z, generic_NL=generic_NL)
        rows.append({
            "b1": b[0], "b2": b[1], "b3": b[2],
            "invariants": rep.to_json(),
            "verdict": verdict.to_json(),
            "c1sq_minus_c2": rep.c1sq_minus_c2,
            "det_deg": rep.det_estar_degree,
            "case": verdict.main2_case,
        })
    return rows


def golden_csv_lines(rows):
    """The frozen golden-table format: b1,b2,b3,c1sq_minus_c2,det_deg,case."""
    out = ["b1,b2,b3,c1sq_minus_c2,det_deg,case"]
    for row in rows:
        out.append(f"{row['b1']},{row['b2']},{row['b3']},"
                   f"{row['c1sq_minus_c2']},{row['det_deg']},{row['case']}")
    return out
