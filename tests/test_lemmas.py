import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

from tubelab import geometry, lemmas
from tubelab.fields import grid_from_sampler


# ---------------------------------------------------------------------------
# quasi-orthogonality


def test_quasi_single_rectangle_is_one():
    ratio = lemmas.quasi_orthogonality_ratio([lemmas.FreqRect((0,), (4,))], 0, 1.5)
    assert ratio == pytest.approx(1.0, rel=1e-12)


def test_quasi_plancherel_case():
    rects = [lemmas.FreqRect((c,), (4,)) for c in (-60, 0, 60)]
    for seed in range(5):
        ratio = lemmas.quasi_orthogonality_ratio(rects, seed, 2.0)
        assert ratio <= 1 + 1e-6


def test_quasi_constant_sweep():
    rects = [lemmas.FreqRect((c,), (4,))
             for c in (-192, -144, -96, -48, 0, 48, 96, 144)]
    for p in (1.0, 1.5, np.inf):
        worst = max(lemmas.quasi_orthogonality_ratio(rects, s, p)
                    for s in range(50))
        assert worst <= 4.0


def test_quasi_two_dimensional():
    rects = [lemmas.FreqRect((0, 0), (3, 3)), lemmas.FreqRect((40, 40), (3, 3))]
    ratio = lemmas.quasi_orthogonality_ratio(rects, 1, 2.0)
    assert ratio <= 1 + 1e-6


def test_quasi_rejects_overlapping_doubles():
    rects = [lemmas.FreqRect((0,), (8,)), lemmas.FreqRect((20,), (8,))]
    with pytest.raises(lemmas.LemmaError):
        lemmas.quasi_orthogonality_ratio(rects, 0, 2.0)


# ---------------------------------------------------------------------------
# dyadic mass bounds


@pytest.mark.parametrize("shape, n, resolution_j", [
    ((2,), 2, 0), ((32,), 2, 4), ((8, 8), 3, 2), ((4, 4, 4), 4, 1)])
def test_omega_set_reads_n_and_resolution_off_its_mask(shape, n, resolution_j):
    om = lemmas.OmegaSet(np.ones(shape, dtype=int))
    assert (om.n, om.resolution_j, om.mask.dtype) == (n, resolution_j, bool)
    assert om.measure == 2 ** (n - 1)


@pytest.mark.parametrize("shape", [(), (0,), (1,), (1, 1), (6,), (12, 12), (8, 4), (8, 8, 16)])
def test_omega_set_refuses_a_mask_that_is_not_a_dyadic_cube(shape):
    with pytest.raises(lemmas.LemmaError, match="need a cube of side") as err:
        lemmas.OmegaSet(np.zeros(shape, dtype=bool))
    assert err.value.exit_code == 2


@pytest.mark.parametrize("n", [1, 0, 2.5, 3.0, True, "3"])
def test_random_omega_set_refuses_n_below_two_or_not_an_integer(n):
    with pytest.raises(lemmas.LemmaError, match="need n >= 2, an integer") as err:
        lemmas.random_omega_set(n, 3, 0)
    assert err.value.exit_code == 2
    assert lemmas.random_omega_set(np.int64(3), 3, 0).n == 3


@pytest.mark.parametrize("j", [1.5, 2.0, -1, True, "2", None])
def test_random_omega_set_refuses_a_resolution_that_is_not_an_integer_at_least_zero(j):
    with pytest.raises(lemmas.LemmaError, match="need resolution_j >= 0, an integer") as err:
        lemmas.random_omega_set(3, j, 0)
    assert err.value.exit_code == 2
    assert lemmas.random_omega_set(3, np.int64(0), 0).resolution_j == 0


def test_xr_bounds_p1_identity():
    om = lemmas.random_omega_set(2, 5, 7)
    lhs, rhs_big, _ = lemmas.xr_bounds_check(om, 3, 1.0, F(1))
    assert lhs == float(om.measure)  # exact dyadic sum
    assert lhs <= rhs_big * 16


def test_xr_bounds_single_cube():
    side = 2 ** (4 + 1)
    mask = np.zeros((side,), dtype=bool)
    mask[4:6] = True  # one level-4 cube at resolution 4 (two cells)
    om = lemmas.OmegaSet(mask)
    lhs, rhs_big, _ = lemmas.xr_bounds_check(om, 3, 2.0, F(1))
    # a single level-3 cube holds everything: lhs = |Omega|^2
    assert lhs == pytest.approx(float(om.measure) ** 2)
    assert rhs_big >= lhs


def test_xr_bounds_alpha_hypothesis_enforced():
    om = lemmas.random_omega_set(2, 4, 1)
    with pytest.raises(lemmas.LemmaError):
        lemmas.xr_bounds_check(om, 1, 2.0, F(1, 10**6))


def test_xr_bounds_random_sweep():
    for k in range(100):
        n = 2 if k % 2 == 0 else 3
        om = lemmas.random_omega_set(n, 4, 100 + k)
        for p in (0.5, 2.0, 4.0):
            j = 1 + k % 3
            lhs, rhs_big, rhs_small = lemmas.xr_bounds_check(om, j, p, F(1))
            rhs = rhs_big if p >= 1 else rhs_small
            assert lhs <= 16.0 * rhs + 1e-12


# ---------------------------------------------------------------------------
# elementary inequalities


def test_young_examples():
    s, _f = lemmas.young_check([1.0, 1.0], 2.0)
    assert s
    u = grid_from_sampler(lambda P: np.ones(P.shape[0], dtype=complex),
                          [-1], [1], [16])
    s, f = lemmas.young_check([1.0], 3.0, [u], 0.5)
    assert s and f


def test_young_random_sweep():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.standard_normal(rng.integers(1, 15))
        p = float(rng.uniform(1, 8))
        q = float(rng.uniform(0.2, 1.0))
        us = [grid_from_sampler(
            lambda P, c=rng.standard_normal(): c * np.exp(-np.sum(P * P, axis=1)),
            [-1] * 2, [1] * 2, [8, 8]) for _ in range(3)]
        s, f = lemmas.young_check(a, p, us, q)
        assert s and f


# ---------------------------------------------------------------------------
# stopping time


def test_cz_all_ones_threshold_no_bad_cubes():
    om = lemmas.random_omega_set(2, 4, 3)
    dec = lemmas.cz_decompose(om, {j: F(1) for j in range(5)})
    assert dec.bad_cubes == []
    assert np.array_equal(dec.good_set.mask, om.mask)
    assert dec.validate(om)


def test_cz_single_cube_selection():
    side = 2 ** (4 + 1)
    mask = np.zeros((side, side), dtype=bool)
    mask[4:6, 8:10] = True  # an aligned 2x2 cell block: one level-3 cube
    om = lemmas.OmegaSet(mask)
    dec = lemmas.cz_decompose(om, {j: F(1, 2) for j in range(5)})
    assert dec.validate(om)
    assert len(dec.bad_cubes) == 1
    cube, trapped = dec.bad_cubes[0]
    assert trapped == om.measure
    # density first exceeds 1/2 exactly at the block's own level
    assert cube.level_j == 3
    # the parent (level 2) was left unselected: density 4/16 <= 1/2
    assert om.cube_counts(2).max() == 4


def test_cz_random_invariants():
    for k in range(60):
        n = 2 if k % 2 == 0 else 3
        om = lemmas.random_omega_set(n, 4, 500 + k)
        thresholds = {j: F(1, 2 ** min(j + 1, 3)) for j in range(5)}
        dec = lemmas.cz_decompose(om, thresholds)
        assert dec.validate(om)
        # disjointness and cover are also rechecked directly
        covered = np.zeros_like(om.mask)
        for cube, _m in dec.bad_cubes:
            b = 2 ** (om.resolution_j - cube.level_j)
            sel = tuple(slice(kk * b, (kk + 1) * b) for kk in cube.index_k)
            covered[sel] |= om.mask[sel]
        assert np.array_equal(covered | dec.good_set.mask, om.mask)


def test_cz_flags_max_level():
    side = 2 ** (2 + 1)
    mask = np.zeros((side,), dtype=bool)
    mask[3] = True  # a single cell
    om = lemmas.OmegaSet(mask)
    dec = lemmas.cz_decompose(om, {j: F(1, 2) for j in range(3)})
    assert dec.flagged_max_level
    assert dec.validate(om)


def test_cz_threshold_validation():
    om = lemmas.random_omega_set(2, 3, 9)
    with pytest.raises(lemmas.LemmaError):
        lemmas.cz_decompose(om, {j: F(0) for j in range(4)})


def _break_cz(dec, om, fault):
    """dec with one of the seven faults its validate refuses."""
    (cube, trapped), *rest = dec.bad_cubes
    if fault == "duplicate":
        return dataclasses.replace(dec, bad_cubes=dec.bad_cubes + [(cube, trapped)])
    if fault == "trapped":
        return dataclasses.replace(dec, bad_cubes=[(cube, trapped + om.cell_measure), *rest])
    if fault == "below":
        return dataclasses.replace(dec, thresholds={**dec.thresholds, cube.level_j: F(1)})
    if fault == "above-parent":  # 4 alpha_parent |cube| / |cell| = 1/16 < 1 cell
        return dataclasses.replace(dec, thresholds={**dec.thresholds, cube.level_j - 1: F(1, 1024)})
    if fault == "dense-good":
        return dataclasses.replace(dec, good_set=om)
    b = 2 ** (om.resolution_j - cube.level_j)
    sel = tuple(slice(kk * b, (kk + 1) * b) for kk in cube.index_k)
    if fault == "meets":  # one of the cube's cells: no level's density bound fails
        mask = dec.good_set.mask.copy()
        mask[sel][np.unravel_index(np.argmax(om.mask[sel]), om.mask[sel].shape)] = True
        return dataclasses.replace(dec, good_set=lemmas.OmegaSet(mask))
    assert fault == "misses"
    return dataclasses.replace(dec, bad_cubes=rest)


@pytest.mark.parametrize("fault, message", [
    ("duplicate", "selected cubes overlap"),
    ("trapped", "trapped measure mismatch"),
    ("below", "selected cube below threshold"),
    ("above-parent", "selected cube exceeds the parent bound"),
    ("dense-good", "good-set density bound fails at level 1"),
    ("meets", "good set meets a selected cube"),
    ("misses", "good set plus trapped parts do not cover Omega"),
])
def test_cz_validate_refuses_each_fault(fault, message):
    om = lemmas.random_omega_set(3, 3, 0)
    dec = lemmas.cz_decompose(om, {0: F(1), 1: F(1, 4), 2: F(1, 2), 3: F(1)})
    assert dec.validate(om) and dec.bad_cubes[0][0].level_j == 1
    with pytest.raises(lemmas.LemmaError, match=message) as err:
        _break_cz(dec, om, fault).validate(om)
    assert err.value.exit_code == 2


FULL = lemmas.OmegaSet(np.ones((16, 16), dtype=bool))  # n = 3, J = 3


@pytest.mark.parametrize("thresholds, message", [
    ({0: 1e-30}, None),  # alpha's denominator alone exceeds int64
    (lemmas.stopping_thresholds(0, 3.99, max_level=3), None),  # alpha_0 = 2^-1596
    ({j: 0.01 for j in range(4)}, None),  # 2^59 denominator: counts * 2^59 wraps int64
    ({0: float("nan")}, r"thresholds must lie in \(0, 1\]"),
    ({0: float("inf")}, r"thresholds must lie in \(0, 1\]"),
    ({0: -float("inf")}, r"thresholds must lie in \(0, 1\]"),
    ({0: None}, r"thresholds must lie in \(0, 1\]"),
    ({0: "1/2"}, r"thresholds must lie in \(0, 1\]"),
    ({0: True}, r"thresholds must lie in \(0, 1\]"),
    ({"0": F(1, 2)}, "need threshold level >= 0, an integer"),
    ({1.5: F(1, 2)}, "need threshold level >= 0, an integer"),
    ({-1: F(1, 2)}, "need threshold level >= 0, an integer"),
    ({True: F(1, 2)}, "need threshold level >= 0, an integer"),
], ids=["tiny", "schedule-r-3.99", "float-wraps", "nan", "inf", "-inf", "None", "str",
        "bool", "key-str", "key-float", "key-negative", "key-bool"])
def test_cz_thresholds_follow_one_integer_rule(thresholds, message):
    # a cube of c cells at alpha may hold floor(alpha c) cells; anything but a
    # real number in (0, 1] at an integer level >= 0 is refused
    if message is None:
        dec = lemmas.cz_decompose(FULL, thresholds)
        assert dec.validate(FULL)
        assert [cube.level_j for cube, _t in dec.bad_cubes] == [0, 0, 0, 0]
        return
    with pytest.raises(lemmas.LemmaError, match=message) as err:
        lemmas.cz_decompose(FULL, thresholds)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("malformed", ["deeper-than-grid", "other-dimension", "good-set-grid"])
def test_cz_validate_refuses_a_decomposition_off_the_grid(malformed):
    om = lemmas.random_omega_set(3, 3, 0)
    dec = lemmas.cz_decompose(om, {0: F(1), 1: F(1, 4), 2: F(1, 2), 3: F(1)})
    if malformed == "good-set-grid":
        dec = dataclasses.replace(dec, good_set=lemmas.OmegaSet(np.zeros((8, 8), dtype=bool)))
    else:
        cube = geometry.DyadicCube(5, (0, 0)) if malformed == "deeper-than-grid" \
            else geometry.DyadicCube(1, (0, 0, 0))
        dec = dataclasses.replace(dec, bad_cubes=dec.bad_cubes + [(cube, F(0))])
    with pytest.raises(lemmas.LemmaError, match="selected cube off Omega's 2-axis levels 0..3") as err:
        dec.validate(om)
    assert err.value.exit_code == 2


def test_cz_with_density_schedule():
    # thresholds from the density equation (m = 4), j0 from the measure
    for k in range(20):
        om = lemmas.random_omega_set(3, 4, 1300 + k)
        j0 = lemmas.level_from_measure(om)
        for r in (1.5, 2.0):
            sched = lemmas.stopping_thresholds(j0, r, m=4, max_level=4)
            assert all(0 < a <= 1 for a in sched.values())
            dec = lemmas.cz_decompose(om, sched)
            assert dec.validate(om)


def test_stopping_thresholds_window():
    sched = lemmas.stopping_thresholds(3, 2.0, m=4, max_level=8)
    # inside the window the solved alpha is 2^{2(j - j0) - 4}
    assert sched[3] == F(1, 16)
    assert sched[4] == F(1, 4)
    assert sched[2] == F(1, 64)
    # at and beyond j - j0 = m/2 the threshold saturates at one
    assert sched[5] == F(1) and sched[8] == F(1)


# ---------------------------------------------------------------------------
# multi-scale functional


def test_xr_norm_empty():
    om = lemmas.OmegaSet(np.zeros((16, 16), dtype=bool))
    res = lemmas.xr_norm(om, 2.0)
    assert res.value == 0.0 and res.tail_fourth == 0.0


def test_xr_norm_full_cube_closed_form():
    for J in (2, 3, 4):
        om = lemmas.OmegaSet(np.ones((2 ** (J + 1),) * 2, dtype=bool))
        res = lemmas.xr_norm(om, 2.0)
        # geometric series: total fourth power is exactly 16/3
        assert res.value**4 + res.tail_fourth == pytest.approx(16 / 3, rel=1e-12)


def test_xr_norm_monotone():
    rng = np.random.default_rng(4)
    for k in range(50):
        om = lemmas.random_omega_set(3, 4, 900 + k)
        sub_mask = om.mask & (rng.random(om.mask.shape) < 0.6)
        if not sub_mask.any():
            continue
        sub = lemmas.OmegaSet(sub_mask)
        for r in (1.0, 2.0, 4.0):
            assert lemmas.xr_norm(sub, r).value <= lemmas.xr_norm(om, r).value + 1e-12


def test_xr_norm_dominates_single_scale():
    om = lemmas.random_omega_set(3, 4, 12)
    r = 2.0
    res = lemmas.xr_norm(om, r)
    for j in range(0, 5):
        counts = om.cube_counts(j).astype(float)
        cells = om.cube_cells_total(j)
        dens = counts[counts > 0] / cells
        term = 2.0 ** (-4 * j) * float(np.sum(dens ** (4 / r)))
        assert res.value**4 >= term - 1e-12


def test_xr_norm_requires_n3():
    om = lemmas.random_omega_set(2, 3, 1)
    with pytest.raises(lemmas.LemmaError):
        lemmas.xr_norm(om, 2.0)


def test_level_from_measure():
    side = 2 ** (3 + 1)
    mask = np.zeros((side, side), dtype=bool)
    mask[0:2, 0:2] = True  # measure 4 * 2^{-6} = 1/16 -> j0 = 2 at n = 3
    om = lemmas.OmegaSet(mask)
    assert om.measure == F(1, 16)
    assert lemmas.level_from_measure(om) == 2
