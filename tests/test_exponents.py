from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import exponents as ex


rationals = st.fractions(min_value=F(-8), max_value=F(8))
positive_rationals = st.fractions(min_value=F(1, 64), max_value=F(8))


def test_sharp_line_values():
    assert ex.sharp_line(3, F(4)) == 2
    assert ex.sharp_line(3, F(103, 27)) == F(103, 49)


def test_sharp_line_domain_error():
    with pytest.raises(ex.ExponentDomainError):
        ex.sharp_line(3, F(2))


@given(q=st.fractions(min_value=F(21, 10), max_value=F(10)))
@settings(max_examples=50, deadline=None)
def test_sharp_line_roundtrip(q):
    p = ex.sharp_line(3, q)
    assert ex.sharp_line_inverse(3, p) == q


def test_region_bilinear_product_endpoint():
    r = ex.region(ex.BILINEAR_RESTRICTION, 3)
    x, y = F(1, 2), F(3, 5)
    # second and third constraints hold with equality
    assert r.halfplanes[1].a * x + r.halfplanes[1].b * y == r.halfplanes[1].c
    assert r.halfplanes[2].a * x + r.halfplanes[2].b * y == r.halfplanes[2].c
    assert r.contains(x, y)


def test_region_kakeya_equalities():
    r = ex.region(ex.KAKEYA_BILINEAR_REGION, 3)
    # (p, q) = (5/2, 5) saturates the second constraint
    x, y = F(2, 5), F(1, 5)
    h = r.halfplanes[1]
    assert h.a * x + h.b * y == h.c
    for n in (2, 3, 4, 7):
        rn = ex.region(ex.KAKEYA_BILINEAR_REGION, n)
        x = y = F(1, n)
        for h in rn.halfplanes:
            assert h.a * x + h.b * y == h.c


def test_region_unknown_kind():
    with pytest.raises(ex.ExponentDomainError):
        ex.region("nonsense", 3)


def test_region_vertices_bilinear():
    verts = ex.region_vertices(ex.region(ex.BILINEAR_RESTRICTION, 3))
    assert (F(1, 2), F(3, 5)) in verts
    # counterclockwise from the lexicographically smallest vertex
    assert verts[0] == min(verts)
    area2 = sum(verts[i][0] * verts[(i + 1) % len(verts)][1]
                - verts[(i + 1) % len(verts)][0] * verts[i][1]
                for i in range(len(verts)))
    assert area2 > 0


def test_region_vertices_kakeya():
    verts = ex.region_vertices(ex.region(ex.KAKEYA_BILINEAR_REGION, 3))
    assert (F(1, 3), F(1, 3)) in verts


def test_region_vertices_single_halfplane_clips_to_square():
    r = ex.Region((ex.Halfplane(F(1), F(0), F(1, 2)),), 2)
    verts = ex.region_vertices(r)
    assert set(verts) == {(F(0), F(0)), (F(1, 2), F(0)),
                          (F(1, 2), F(1)), (F(0), F(1))}


def test_region_vertices_empty():
    r = ex.Region((ex.Halfplane(F(1), F(0), F(-1)),), 2)
    assert ex.region_vertices(r) == []


def test_interpolate_lands_on_bilinear_sharp_line():
    e1 = ex.EstimatePoint(F(3, 7), F(11, 21), ex.BILINEAR)
    e2 = ex.EstimatePoint(F(7, 12), F(1, 2), ex.BILINEAR)
    mid = ex.interpolate(e1, e2, F(4, 11))
    assert (mid.inv_p, mid.inv_q) == (F(16, 33), F(17, 33))
    assert mid.inv_p + mid.inv_q == 1
    assert 2 * mid.q == 4 - F(2, 17)


def test_interpolate_endpoints_and_midpoint():
    e1 = ex.EstimatePoint(F(1, 2), F(1, 2), ex.LINEAR)
    e2 = ex.EstimatePoint(F(1, 2), F(1, 4), ex.LINEAR)
    assert ex.interpolate(e1, e2, F(0)) == e1
    assert ex.interpolate(e1, e2, F(1, 2)).inv_q == F(3, 8)


def test_interpolate_kind_mismatch():
    e1 = ex.EstimatePoint(F(1, 2), F(1, 2), ex.LINEAR)
    e2 = ex.EstimatePoint(F(1, 2), F(1, 4), ex.BILINEAR)
    with pytest.raises(ex.ExponentDomainError):
        ex.interpolate(e1, e2, F(1, 2))


def test_lemma_alpha_main_exponents():
    q_tilde, ratio = ex.lemma_alpha(F(5, 2), F(10, 3), F(3, 80), 3)
    assert (q_tilde, ratio) == (F(34, 9), F(77, 45))
    assert q_tilde / ratio == F(170, 77)


def test_lemma_alpha_parenthetical():
    q_tilde, _ = ex.lemma_alpha(F(20, 7), F(10, 3), F(1, 20), 3)
    assert q_tilde == F(42, 11)


@given(q=positive_rationals)
@settings(max_examples=30, deadline=None)
def test_lemma_alpha_zero_alpha_collapses(q):
    q_tilde, _ = ex.lemma_alpha(q, q, F(0), 3)
    assert q_tilde == 2 + q / 2


def test_lemma_alpha_domain_error():
    with pytest.raises(ex.ExponentDomainError):
        ex.lemma_alpha(F(2), F(10), F(1, 2), 3)


def test_lemma_alpha_monotone_in_alpha():
    vals = [ex.lemma_alpha(F(5, 2), F(10, 3), a, 3)[0]
            for a in (F(1, 100), F(1, 50), F(1, 25), F(1, 10))]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_bootstrap_values():
    assert ex.bootstrap_fixed_point() == F(3, 20)
    assert ex.bootstrap_map(F(3, 20)) == F(3, 20)
    assert ex.bootstrap_map(F(1)) == F(8, 25)


def test_bootstrap_geometric_contraction():
    iters = ex.bootstrap_iterate(F(1), 25)
    for k, a in enumerate(iters):
        assert abs(a - F(3, 20)) == F(17, 20) / 5**k


@given(x=rationals, y=rationals)
@settings(max_examples=50, deadline=None)
def test_bootstrap_exact_contraction_rate(x, y):
    assert abs(ex.bootstrap_map(x) - ex.bootstrap_map(y)) == abs(x - y) / 5


def test_modest_threshold():
    assert ex.modest_threshold(3) == F(12, 7)
    assert ex.modest_threshold(2) == 2
    assert ex.modest_threshold(4) == F(8, 5)


def test_whitney_exponent_check():
    ok, eps = ex.whitney_exponent_check(3, F(2), F(199, 100), F(2))
    assert ok and eps > 0
    ok, eps = ex.whitney_exponent_check(3, F(2), F(2), F(2))
    assert not ok and eps == 0
    ok, eps = ex.whitney_exponent_check(3, F(2), F(199, 100), F(3, 2))
    assert not ok and eps == 0


def test_x_imply_headline_point():
    w, r, applicable = ex.x_imply(F(170, 77), F(34, 9))
    assert w == F(35, 9) == 4 - F(1, 9)
    assert r == F(60, 31)
    assert applicable
    assert ex.x_imply_collinearity(F(170, 77), F(34, 9)) == 0


def test_x_imply_domain():
    with pytest.raises(ex.ExponentDomainError):
        ex.x_imply(F(2), F(4))
    with pytest.raises(ex.ExponentDomainError):
        ex.x_imply(F(2), F(2))


@given(q=st.fractions(min_value=F(21, 10), max_value=F(39, 10)),
       p=st.fractions(min_value=F(11, 10), max_value=F(4)))
@settings(max_examples=100, deadline=None)
def test_x_imply_collinearity_identically_zero(q, p):
    assert ex.x_imply_collinearity(p, q) == 0


def test_sqrt2_comparison_by_squaring():
    # r = 4(sqrt(2)-1) ~ 1.657; straddle it with rationals
    _, r, ok = ex.x_imply(F(170, 77), F(34, 9))
    s = r / 4 + 1
    assert ok == (s * s > 2)
    # a point that is not applicable: r small when p' small (p large)
    _, r2, ok2 = ex.x_imply(F(100), F(39, 10))
    assert not ok2 and (r2 / 4 + 1) ** 2 < 2


def test_table1_catalog():
    rows = ex.table1_catalog()
    assert len(rows) == 9
    row6 = rows[5]
    assert row6.point.p == F(42, 11) == 4 - F(2, 11)
    assert row6.point.q == F(42, 11)
    assert row6.open_endpoint
    row8 = rows[7]
    assert (row8.point.p, row8.point.q) == (F(170, 77), F(34, 9))
    row9 = rows[8]
    assert row9.sharp and row9.point.q == F(103, 27) == 4 - F(5, 27)
    # sharp rows actually lie on the scale-critical line
    for row in rows:
        if row.sharp and row.point.inv_q > 0:
            assert ex.sharp_line(3, row.point.q) == row.point.p


def test_table1_row4_matches_sharp_line():
    rows = ex.table1_catalog()
    assert rows[3].point.p == ex.sharp_line(3, F(4)) == 2


@given(a=st.fractions(min_value=F(1, 50), max_value=F(50)))
@settings(max_examples=50, deadline=None)
def test_rational_arithmetic_exact(a):
    assert a * (1 / a) == 1
    assert F(a.numerator, a.denominator) == a


def test_region_monotone_in_inv_p_for_nonnegative_coefficients():
    r = ex.region(ex.BILINEAR_RESTRICTION, 3)
    x, y = F(1, 2), F(3, 5)
    assert r.contains(x, y)
    for h in r.halfplanes:
        if h.a >= 0:
            # decreasing 1/p preserves each such constraint
            assert h.admits(x - F(1, 7), y)


def test_estimate_point_validation():
    with pytest.raises(ValueError):
        ex.EstimatePoint(F(3, 2), F(1, 2), ex.LINEAR)
    with pytest.raises(ValueError):
        ex.EstimatePoint(F(1, 2), F(1, 2), ex.KAKEYA, alpha=F(1, 4))
    pt = ex.EstimatePoint(F(1, 2), F(1, 2), ex.BILINEAR, alpha=F(1, 4))
    assert pt.alpha == F(1, 4)


@pytest.mark.parametrize("make", [
    lambda: ex.EstimatePoint(F(3, 2), F(1, 2), ex.LINEAR),
    lambda: ex.EstimatePoint(F(1, 2), F(1, 2), "nonsense"),
    lambda: ex.EstimatePoint(F(1, 2), F(1, 2), ex.KAKEYA, alpha=F(1, 4)),
    lambda: ex.EstimatePoint(F(1, 2), F(1, 2), ex.LINEAR, alpha=F(-1)),
    lambda: ex.Halfplane(F(0), F(0), F(1)),
], ids=["outside-square", "unknown-kind", "alpha-on-kakeya",
        "negative-alpha", "degenerate-halfplane"])
def test_estimate_point_and_halfplane_raise_domain_errors(make):
    with pytest.raises(ex.ExponentDomainError):
        make()


@pytest.mark.parametrize("call", [
    lambda n: ex.region(ex.BILINEAR_RESTRICTION, n),
    lambda n: ex.modest_threshold(n),
    lambda n: ex.sharp_line(n, F(5)),
    lambda n: ex.sharp_line_inverse(n, F(2)),
    lambda n: ex.lemma_alpha(F(2), F(2), F(0), n),
    lambda n: ex.whitney_exponent_check(n, F(3), F(2), F(0)),
], ids=["region", "modest", "sharp-line", "sharp-line-inverse",
        "lemma-alpha", "whitney-check"])
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_dimension_below_two_refused(call, n):
    with pytest.raises(ex.ExponentDomainError):
        call(n)


def test_json_serialization():
    r = ex.region(ex.BILINEAR_RESTRICTION, 3)
    blob = r.to_json()
    assert {"num": 1, "den": 2} in [v[0] for v in blob["vertices"]]
    rows = ex.catalog_to_json()
    assert rows[7]["point"]["inv_p"] == {"num": 77, "den": 170}


def test_region_kind_aliases():
    assert ex.region("bilinear-restriction", 3) == ex.region(
        ex.BILINEAR_RESTRICTION, 3)
    assert ex.region("kakeya-bilinear", 3) == ex.region(
        ex.KAKEYA_BILINEAR_REGION, 3)


def test_strict_edge_membership():
    r = ex.region(ex.RESTRICTION, 3)
    # the q-constraint is strict: its boundary is outside the open region
    # but inside the closure used for polygon geometry
    x, y = F(1, 4), F(1, 3)  # 1/q = (n-1)/(2n) at n = 3
    assert r.contains(x, y, closure=True)
    assert not r.contains(x, y, closure=False)


def test_modest_threshold_is_the_q2_region_boundary():
    # at 1/q = 1/2 the first product constraint is active exactly at the
    # symmetric bilinear L^2 threshold
    for n in range(2, 8):
        x = 1 / ex.modest_threshold(n)
        r = ex.region(ex.BILINEAR_RESTRICTION, n)
        h = r.halfplanes[1]
        assert h.a * x + h.b * F(1, 2) == h.c
        assert r.contains(x, F(1, 2))
        # any larger 1/p (smaller p) leaves the region
        assert not r.contains(x + F(1, 1000), F(1, 2))


def test_interpolation_endpoints_match_catalog():
    # endpoint e2 of the sharp-line interpolation is the bilinear form of
    # the symmetric L^2 estimate at the n=3 threshold
    e2 = ex.EstimatePoint(F(7, 12), F(1, 2), ex.BILINEAR)
    assert 1 / e2.inv_p == ex.modest_threshold(3) == F(12, 7)
    # endpoint e1 doubles to the 42/11 catalog entry
    e1 = ex.EstimatePoint(F(3, 7), F(11, 21), ex.BILINEAR)
    rows = ex.table1_catalog()
    assert 2 * e1.q == rows[6].point.q == F(42, 11)
    assert 1 / e1.inv_p == rows[6].point.p == F(7, 3)


def test_slab_witness_point_saturates_kakeya_boundary():
    # the improved slab estimate sits exactly on the second constraint for
    # every dimension: (p, q) = ((n+2)/2, n+2)
    for n in range(2, 9):
        p = F(n + 2, 2)
        q = F(n + 2)
        r = ex.region(ex.KAKEYA_BILINEAR_REGION, n)
        h = r.halfplanes[1]
        assert h.a / p + h.b / q == h.c
        # and its conjugate-side exponents are (n+2)/(n+1) and (n+2)/(2n)
        assert ex.conjugate(q) == F(n + 2, n + 1)
        assert ex.conjugate(p) / 2 == F(n + 2, 2 * n)


@given(t=st.fractions(min_value=F(0), max_value=F(1)))
@settings(max_examples=50, deadline=None)
def test_interpolate_stays_in_unit_square(t):
    e1 = ex.EstimatePoint(F(1, 5), F(2, 3), ex.LINEAR)
    e2 = ex.EstimatePoint(F(4, 5), F(1, 7), ex.LINEAR)
    mid = ex.interpolate(e1, e2, t)
    assert 0 <= mid.inv_p <= 1 and 0 <= mid.inv_q <= 1
