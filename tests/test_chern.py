from itertools import combinations_with_replacement, product

import pytest

from curvecomp.chern import (CIData, InvalidDegreeError, classify_main2,
                             enumerate_configs, identity_check_main2c,
                             identity_values_main2c, invariants,
                             theorem_main_check)


def test_plane_normalization():
    assert CIData([], (2, 2, 2)).a == (1,)
    assert CIData([1], (2, 2, 2)).is_plane()
    assert not CIData([2], (2, 2, 2)).is_plane()


def test_cidata_is_an_immutable_value():
    ci = CIData([], (2, 2, 2))
    assert ci == CIData([1], [2, 2, 2]) and ci != CIData([1], (2, 2, 3))
    assert len({ci, CIData([1], (2, 2, 2))}) == 1
    with pytest.raises(AttributeError):
        ci.b = (1, 1, 1)
    with pytest.raises(AttributeError):
        del ci.a
    assert ci != ((1,), (2, 2, 2))
    rep = invariants(ci)
    assert rep == invariants(CIData([1], (2, 2, 2))) != invariants(
        CIData([1], (2, 2, 3)))
    with pytest.raises(AttributeError):
        del rep.b1


def test_verdict_notes_not_shared():
    a, b = (theorem_main_check(CIData([1], (2, 2, 2)), True)
            for _ in range(2))
    assert a.notes == b.notes and a.notes is not b.notes


def test_invalid_degrees():
    with pytest.raises(InvalidDegreeError):
        CIData([1], (2, 2))
    with pytest.raises(InvalidDegreeError):
        CIData([0], (2, 2, 2))


def test_plane_three_quadrics_borderline():
    rep = invariants(CIData([1], (2, 2, 2)))
    assert rep.euler_surface == 3
    assert rep.c1sq_minus_c2 == 0
    assert rep.det_estar_degree == 3
    assert rep.euler_components == (2, 2, 2)


def test_quintic_surface():
    rep = invariants(CIData([5], (1, 1, 3)))
    assert rep.euler_surface == 55
    assert rep.c1sq_minus_c2 == 10


def test_plane_1_3_4():
    rep = invariants(CIData([1], (1, 3, 4)))
    assert rep.c1sq_minus_c2 == -3 * 4 - 6 + (3 + 4 + 12)
    assert rep.c1sq_minus_c2 == 1


def test_euler_cross_checks():
    # the plane, the quadric surface, and the quintic
    assert invariants(CIData([1], (1, 1, 1))).euler_surface == 3
    assert invariants(CIData([2], (1, 1, 1))).euler_surface == 4
    assert invariants(CIData([5], (1, 1, 1))).euler_surface == 55


def test_plane_curve_euler_is_2_minus_2g():
    for bj in range(1, 11):
        rep = invariants(CIData([1], (bj, 1, 1)))
        assert rep.euler_components[0] == bj * (3 - bj)
        assert rep.euler_components[0] == 2 - (bj - 1) * (bj - 2)


def test_det_degree_plane_adjunction():
    for b in combinations_with_replacement(range(1, 8), 3):
        rep = invariants(CIData([1], b))
        assert rep.det_estar_degree == sum(b) - 3


def test_internal_identity_exhaustive():
    surfaces = []
    for r in (1, 2, 3):
        surfaces.extend(combinations_with_replacement(range(1, 7), r))
    bs = list(combinations_with_replacement(range(1, 11), 3))
    for a in surfaces:
        for b in bs:
            rep = invariants(CIData(a, b))  # the constructor checks the identity
            assert rep.c1sq_minus_c2 == rep.gamma_sq - rep.euler_surface + rep.euler_C


def test_theorem_main_check_examples():
    v = theorem_main_check(CIData([1], (2, 2, 3)), pic_is_Z=True)
    assert v.condition_ii and v.condition_iii and v.applicable
    v = theorem_main_check(CIData([1], (2, 2, 2)), pic_is_Z=True)
    assert not v.condition_ii and not v.applicable
    v = theorem_main_check(CIData([4], (1, 2, 2)), pic_is_Z=True)
    assert v.condition_ii and v.condition_iii and v.applicable


def test_theorem_main_permutation_invariant():
    for b in product(range(1, 6), repeat=3):
        base = theorem_main_check(CIData([2, 3], b), True)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            v = theorem_main_check(CIData([2, 3], tuple(b[i] for i in perm)), True)
            assert (v.condition_ii, v.condition_iii) == \
                (base.condition_ii, base.condition_iii)


def test_classify_main2_cases():
    assert classify_main2(CIData([1], (2, 3, 2))).main2_case == "c"
    assert classify_main2(CIData([4], (1, 1, 3)), generic_NL=True).main2_case == "b"
    assert classify_main2(CIData([1], (1, 2, 4))).main2_case == "none"
    assert classify_main2(CIData([1], (1, 3, 4))).main2_case == "c"
    assert classify_main2(CIData([1], (1, 3, 3))).main2_case == "none"
    assert classify_main2(CIData([1], (2, 2, 2))).main2_case == "none"
    assert classify_main2(CIData([1], (2, 2, 2)), pic_is_Z=True,
                          generic_NL=True).main2_case == "none"
    assert classify_main2(CIData([3, 3], (2, 2, 1)), pic_is_Z=True).main2_case == "a"
    # hypersurface too low-degree for the generic route, no Pic knowledge
    assert classify_main2(CIData([3], (2, 2, 1)), generic_NL=True).main2_case == "none"


def test_identity_check_main2c_documented_values():
    assert identity_values_main2c((2, 2, 2)) == (0, 0, 0)
    assert identity_values_main2c((1, 3, 4)) == (1, 1, 1)
    assert identity_values_main2c((5, 5, 5)) == (36, 36, 36)


def test_identity_check_main2c_exhaustive():
    for b in product(range(1, 21), repeat=3):
        assert identity_check_main2c(b)


def test_enumerate_plane_bmax3():
    rows = enumerate_configs([1], 3)
    by_b = {(r["b1"], r["b2"], r["b3"]): r for r in rows}
    assert by_b[(2, 2, 3)]["case"] == "c"
    assert by_b[(2, 3, 3)]["case"] == "c"
    assert by_b[(3, 3, 3)]["case"] == "c"
    assert by_b[(2, 2, 2)]["case"] == "none"
    keys = [(r["b1"], r["b2"], r["b3"]) for r in rows]
    assert keys == sorted(keys)


def test_enumerate_plane_bmax4_has_134():
    rows = enumerate_configs([1], 4)
    by_b = {(r["b1"], r["b2"], r["b3"]): r for r in rows}
    assert by_b[(1, 3, 4)]["case"] == "c"


def test_enumerate_quintic_generic():
    rows = enumerate_configs([5], 3, generic_NL=True)
    by_b = {(r["b1"], r["b2"], r["b3"]): r for r in rows}
    assert by_b[(1, 2, 2)]["case"] == "b"


def _reference_json(a, b):
    """The invariants as first computed: each formula from the degree data."""
    A = 1
    for x in a:
        A *= x
    a_sum, r = sum(a), len(a)
    b1, b2, b3 = b
    bs = b1 + b2 + b3
    e_comp = [A * bj * (3 + r - a_sum - bj) for bj in b]
    pairwise = [A * b1 * b2, A * b1 * b3, A * b2 * b3]
    return {
        "euler_surface": A * (2 + (a_sum - r - 1) ** 2),
        "euler_components": e_comp,
        "euler_C": sum(e_comp) - sum(pairwise),
        "gamma_sq": A * (a_sum + bs - r - 3) ** 2,
        "c1sq_minus_c2": A * ((a_sum - r - 3) * (bs - 4) - 6
                              + (b1 * b2 + b1 * b3 + b2 * b3)),
        "det_estar_degree": a_sum + bs - 3 - r,
        "pairwise_intersections": pairwise,
    }


def test_report_json_matches_reference_grid():
    surfaces = [(1,), (2,), (5,), (2, 2), (3, 4), (2, 3, 5)]
    for a in surfaces:
        for b in product(range(1, 8), repeat=3):
            rep = invariants(CIData(a, b))
            assert rep.to_json() == _reference_json(a, b), (a, b)


def test_report_keeps_only_degree_data():
    import gc
    import tracemalloc

    grid = [(a, b) for a in ((1,), (2,), (4,), (2, 3))
            for b in product(range(1, 11), repeat=3)][:4000]
    assert len(grid) == 4000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reps = [invariants(CIData(a, b)) for a, b in grid]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(reps) == 4000
    assert kept / 4000 <= 128, f"{kept / 4000:.1f} B per report"


def test_theorem_conditions_follow_the_report():
    for a in ((1,), (2,), (4,), (2, 2)):
        for b in combinations_with_replacement(range(1, 7), 3):
            ci = CIData(a, b)
            rep, v = invariants(ci), theorem_main_check(ci, pic_is_Z=True)
            assert v.condition_ii == (rep.c1sq_minus_c2 > 0)
            assert v.condition_iii == (rep.det_estar_degree >= 0)
            borderline = "Chern-number criterion met with equality: borderline"
            assert (borderline in v.notes) == (rep.c1sq_minus_c2 == 0)
