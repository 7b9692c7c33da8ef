import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubelab import geometry as geo, witnesses as wit, xray


# ---------------------------------------------------------------------------
# dyadic cubes


def test_dyadic_cube_counts():
    assert len(geo.dyadic_cubes(2, 1)) == 4
    assert len(geo.dyadic_cubes(3, 1)) == 16
    assert len(geo.dyadic_cubes(3, 0)) == 4


def test_dyadic_cubes_partition():
    cubes = geo.dyadic_cubes(3, 2)
    total = sum(c.sidelength ** 2 for c in cubes)
    assert math.isclose(total, 4.0)
    rng = np.random.default_rng(0)
    for pt in rng.uniform(-1, 1, size=(50, 2)):
        owners = [c for c in cubes if c.contains(pt)]
        assert len(owners) == 1


def brute_force_close_pairs(n, j):
    """Independent oracle: interval adjacency checked on float bounds."""
    cubes = geo.dyadic_cubes(n, j)

    def adjacent(c1, c2):
        for (lo1, hi1), (lo2, hi2) in zip(c1.bounds(), c2.bounds()):
            if hi1 < lo2 - 1e-12 or hi2 < lo1 - 1e-12:
                return False
        return True

    out = []
    for c1, c2 in itertools.product(cubes, cubes):
        if adjacent(c1, c2):
            continue
        if adjacent(c1.parent(), c2.parent()):
            out.append((c1, c2))
    return out


@pytest.mark.parametrize("n,j", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_close_pairs_match_brute_force(n, j):
    got = {(a.index_k, b.index_k) for a, b in geo.close_pairs(n, j)}
    want = {(a.index_k, b.index_k) for a, b in brute_force_close_pairs(n, j)}
    assert got == want


def test_close_pairs_symmetric_and_separated():
    pairs = geo.close_pairs(2, 2)
    keys = {(a.index_k, b.index_k) for a, b in pairs}
    for a, b in pairs:
        assert (b.index_k, a.index_k) in keys
        # non-adjacency: gap at least one sidelength in some axis
        gap = max(abs(x - y) for x, y in zip(a.index_k, b.index_k))
        assert gap >= 2


def test_close_pairs_level_zero_rejected():
    with pytest.raises(geo.GeometryError):
        geo.close_pairs(2, 0)


# ---------------------------------------------------------------------------
# whitney location


def whitney_scan_oracle(x, y, max_level):
    hits = []
    for j in range(1, max_level + 1):
        k1 = tuple(int(math.floor((v + 1) * 2**j)) for v in np.atleast_1d(x))
        k2 = tuple(int(math.floor((v + 1) * 2**j)) for v in np.atleast_1d(y))
        if geo.cubes_close(geo.DyadicCube(j, k1), geo.DyadicCube(j, k2)):
            hits.append(j)
    return hits


def test_whitney_locate_example():
    j, c1, c2 = geo.whitney_locate([-0.9], [0.9], 20)
    assert whitney_scan_oracle([-0.9], [0.9], 20) == [j]
    assert c1.contains([-0.9]) and c2.contains([0.9])


def test_whitney_locate_uniqueness_random():
    rng = np.random.default_rng(42)
    found = 0
    for n in (2, 3):
        for _ in range(500):
            x = rng.uniform(-1, 1, n - 1)
            y = rng.uniform(-1, 1, n - 1)
            try:
                j, c1, c2 = geo.whitney_locate(x, y, 16)
            except geo.DepthExceededError:
                continue
            found += 1
            assert whitney_scan_oracle(x, y, 16) == [j]
    assert found > 900


def test_whitney_locate_errors():
    with pytest.raises(geo.DepthExceededError):
        geo.whitney_locate([0.3001], [0.3001 + 2**-20], 10)
    with pytest.raises(geo.DegenerateInputError):
        geo.whitney_locate([0.5], [0.9], 10)


@st.composite
def dyadic_pairs(draw):
    """(max_level, x, y): dyadic coordinates k/2^m (m <= max_level + 2), some
    moved by +-2^-(max_level+4) off the lattice, some pairs closer than the
    max-level resolution."""
    max_level = draw(st.integers(1, 24))
    d, rows = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def coord():
        m = draw(st.integers(0, max_level + 2))
        v = draw(st.integers(-2**m, 2**m)) / 2**m
        v += draw(st.sampled_from([1, -1, 0])) * 2.0 ** -(max_level + 4)
        return min(max(v, -1.0), 1.0)

    x = np.array([[coord() for _ in range(d)] for _ in range(rows)])
    y = np.array([[coord() for _ in range(d)] for _ in range(rows)])
    for r in range(rows):
        if draw(st.booleans()):  # within 2^-max_level of x along every axis
            steps = [draw(st.integers(-3, 3)) for _ in range(d)]
            y[r] = np.clip(x[r] + np.array(steps) * 2.0 ** -(max_level + 2), -1, 1)
    return max_level, x, y


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=dyadic_pairs())
def test_whitney_levels_match_the_oracle_on_dyadic_points(case):
    # -1 exactly on a level-max_level hyperplane; else the oracle's one hit, or 0
    max_level, x, y = case
    levels = geo.whitney_levels(x, y, max_level)
    for xr, yr, level in zip(x, y, levels.tolist()):
        on_plane = any(((Fraction(v) + 1) * 2**max_level).denominator == 1
                       for v in [*xr, *yr])
        assert (level == -1) == on_plane
        if level != -1:
            assert whitney_scan_oracle(xr, yr, max_level) == ([level] if level else [])


def test_whitney_levels_match_scalar_location_and_oracle():
    # random pairs, plus rows forced onto dyadic hyperplanes (of level 16
    # and coarser) and rows closer than the level-16 resolution
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        x = rng.uniform(-1, 1, (2100, n - 1))
        y = rng.uniform(-1, 1, (2100, n - 1))
        y[:50] = x[:50] + rng.uniform(-2**-18, 2**-18, (50, n - 1))
        x[50:100, -1] = rng.integers(0, 2**17, 50) / 2**16 - 1
        y[100:150, 0] = rng.choice([-1.0, -0.5, 0.0, 0.25, 1.0], 50)
        y = np.clip(y, -1, 1)
        levels = geo.whitney_levels(x, y, 16)
        assert levels.shape == (2100,)
        assert {-1, 0} <= set(levels.tolist()) and levels.max() > 1
        for xr, yr, level in zip(x, y, levels):
            try:
                j, c1, c2 = geo.whitney_locate(xr, yr, 16)
            except geo.DegenerateInputError:
                assert level == -1
                continue
            except geo.DepthExceededError:
                assert level == 0 and whitney_scan_oracle(xr, yr, 16) == []
                continue
            assert level == j and whitney_scan_oracle(xr, yr, 16) == [j]
            assert c1.contains(xr) and c2.contains(yr)


@pytest.mark.parametrize("x,y,max_level", [
    ([0.3], [0.61, 0.2], 16),        # points of different dimensions
    ([0.3], [0.61], 0),
    ([0.3], [0.61], 1.5),
    ([0.3], [0.61], True),
    ([0.3], [0.61], 2000),           # 2**2000 is not a finite float
    ([1.3], [0.61], 16),
    ([float("nan")], [0.61], 16),
    ([], [], 16),
    ([0.3 + 0.5j], [0.61], 16),
    (["0.3"], [0.61], 16),
])
def test_whitney_input_contract(x, y, max_level):
    with pytest.raises(geo.GeometryError):
        geo.whitney_locate(x, y, max_level)
    with pytest.raises(geo.GeometryError):
        geo.whitney_levels(np.atleast_2d(x), np.atleast_2d(y), max_level)


def test_dyadic_cube_refuses_a_negative_level():
    with pytest.raises(geo.GeometryError, match="negative level"):
        geo.DyadicCube(-1, (0,))


def test_dyadic_cube_contains_refuses_a_point_of_another_dimension():
    cube = geo.DyadicCube(2, (1,))  # [-0.75, -0.5)
    assert cube.contains([-0.6]) and not cube.contains([0.6])
    for x in ([-0.6, 5.0], [], [-0.6, -0.6, -0.6]):
        with pytest.raises(geo.GeometryError, match="1-dimensional cube"):
            cube.contains(x)


def test_cubes_close_refuses_cubes_of_different_dimensions():
    c1, c2 = geo.DyadicCube(2, (1,)), geo.DyadicCube(2, (3,))
    assert geo.cubes_close(c1, c2)
    for other in (geo.DyadicCube(2, (3, 0)), geo.DyadicCube(1, (3, 0)), geo.DyadicCube(2, ())):
        with pytest.raises(geo.GeometryError, match="cubes of dimensions"):
            geo.cubes_close(c1, other)
        with pytest.raises(geo.GeometryError, match="cubes of dimensions"):
            geo.cubes_close(other, c1)


# ---------------------------------------------------------------------------
# tubes


def broadcast_contains(t, pts):
    """Tube membership as one (m, n-1) broadcast expression."""
    y_, yn = pts[:, :-1], pts[:, -1]
    omega = np.asarray(t.direction_omega)
    base = np.asarray(t.base_i)
    dev = y_ - yn[:, None] * omega[None, :] - base[None, :]
    return (np.abs(yn) <= 1.0) & (np.sum(dev * dev, axis=1) <= t.delta**2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tube_contains_matches_the_broadcast_expression(n):
    rng = np.random.default_rng(n)
    for delta in (1 / 8, 1 / 16, 1 / 32):
        for _ in range(20):
            t = geo.Tube(tuple(rng.uniform(-1, 1, n - 1)),
                         tuple(rng.uniform(-1, 1, n - 1)), delta)
            # points near the axis, half the heights beyond |y_n| = 1
            yn = rng.uniform(-2, 2, 5000)
            near = (np.asarray(t.base_i) + yn[:, None] * t.direction_omega
                    + rng.uniform(-delta, delta, (5000, n - 1)))
            pts = np.column_stack([near, yn])
            got = t.contains(pts)
            assert (np.abs(pts[:, -1]) > 1).any() and got.any()
            assert np.array_equal(got, broadcast_contains(t, pts))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tube_contains_reads_a_strided_view_like_its_contiguous_copy(n):
    rng = np.random.default_rng(30 + n)
    t = geo.Tube(tuple(rng.uniform(-1, 1, n - 1)), tuple(rng.uniform(-0.5, 0.5, n - 1)),
                 1 / 4)
    wide = rng.uniform(-1.5, 1.5, (3000, 2 * n + 1))
    for view in (wide[:, 1:n + 1], wide[:, 1::2]):
        assert view.shape == (3000, n) and not view.flags.c_contiguous
        got = t.contains(view)
        assert got.any() and not got.all()
        assert np.array_equal(got, t.contains(np.ascontiguousarray(view)))


def test_tube_contains_refuses_points_of_another_dimension():
    with pytest.raises(geo.GeometryError):
        geo.Tube((0.1, 0.2), (0.0, 0.0), 1 / 8).contains(np.zeros((4, 4)))
    with pytest.raises(geo.GeometryError):
        geo.Tube((0.1, 0.2), (0.0,), 1 / 8).contains(np.zeros((4, 3)))


def two_mask_volume(t1, t2, n, mc_samples, seed):
    """The Monte-Carlo estimate with both tubes tested on every sample."""
    iv = geo._overlap_interval(t1, t2)
    if iv is None:
        return 0.0, 0.0
    lo, hi = iv
    omega1, base1 = np.asarray(t1.direction_omega), np.asarray(t1.base_i)
    c_lo, c_hi = base1 + lo * omega1, base1 + hi * omega1
    lo_full = np.append(np.minimum(c_lo, c_hi) - t1.delta, lo)
    hi_full = np.append(np.maximum(c_lo, c_hi) + t1.delta, hi)
    vol_box = float(np.prod(hi_full - lo_full))
    pts = np.random.default_rng(seed).uniform(lo_full, hi_full, (mc_samples, n))
    k = int(np.count_nonzero(broadcast_contains(t1, pts)
                             & broadcast_contains(t2, pts)))
    p_hat = k / mc_samples
    p_err = max(p_hat, 1.0 / mc_samples)
    return p_hat * vol_box, vol_box * math.sqrt(p_err * (1 - p_hat) / mc_samples)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tube_intersection_volume_matches_the_two_mask_reference(n):
    rng = np.random.default_rng(20 + n)
    delta = 1 / 16
    net = geo.build_net(n, delta)
    hits = 0
    for seed in range(40):
        w1 = net.e1[rng.integers(0, len(net.e1))]
        w2 = net.e2[rng.integers(0, len(net.e2))]
        i1 = net.points[rng.integers(0, len(net.points))]
        i2 = net.points[net.nearest_index(i1 + rng.uniform(-0.5, 0.5) * (w1 - w2))]
        t1 = geo.Tube(tuple(w1), tuple(i1), delta)
        t2 = geo.Tube(tuple(w2), tuple(i2), delta)
        got = geo.tube_intersection_volume(t1, t2, 4000, seed)
        assert got == two_mask_volume(t1, t2, n, 4000, seed)
        hits += got[0] > 0
    assert hits >= 10


@pytest.mark.parametrize("mc_samples", [geo.MC_CHUNK, geo.MC_CHUNK + 1,
                                        2 * geo.MC_CHUNK + 1001])
@pytest.mark.parametrize("n", [2, 3])
def test_chunked_draws_match_the_single_draw_reference(n, mc_samples):
    t1 = geo.Tube((0.25,) + (0.0,) * (n - 2), (0.0,) * (n - 1), 1 / 16)
    t2 = geo.Tube((-0.25,) + (0.1,) * (n - 2), (0.05,) * (n - 1), 1 / 16)
    got = geo.tube_intersection_volume(t1, t2, mc_samples, 7)
    assert got[0] > 0
    assert got == two_mask_volume(t1, t2, n, mc_samples, 7)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tube_intersection_volume_matches_the_reference_at_both_ends_of_the_hit_fraction(n):
    delta = 1 / 16
    t1 = geo.Tube((0.0,) * (n - 1), (0.0,) * (n - 1), delta)
    # the same vertical tube twice: T1 fills its box up to the ball's share
    same = geo.tube_intersection_volume(t1, t1, 4000, 5)
    assert same == two_mask_volume(t1, t1, n, 4000, 5)
    assert same[0] == pytest.approx(geo.tube_volume(t1), rel=0.05)
    # parallel tubes touching along a line: the overlap interval is all of
    # [-1, 1], yet no sample lies in both
    t2 = geo.Tube(t1.direction_omega, (2 * delta,) + (0.0,) * (n - 2), delta)
    assert geo._overlap_interval(t1, t2) == (-1.0, 1.0)
    touch = geo.tube_intersection_volume(t1, t2, 4000, 5)
    assert touch == two_mask_volume(t1, t2, n, 4000, 5)
    assert touch[0] == 0.0 < touch[1]


def test_monte_carlo_memory_is_one_chunk():
    t1, t2 = geo.Tube((0.25,), (0.0,), 1 / 16), geo.Tube((-0.25,), (0.05,), 1 / 16)
    tracemalloc.start()
    try:
        assert geo.tube_intersection_volume(t1, t2, 200_000, 3)[0] > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_tube_volume_values():
    assert geo.tube_volume(geo.Tube((0.0,), (0.0,), 1 / 8)) == pytest.approx(0.5)
    assert geo.tube_volume(geo.Tube((0.0, 0.0), (0.0, 0.0), 1 / 8)) == (
        pytest.approx(2 * math.pi / 64))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tube_volume_reads_n_off_the_tube(n):
    # 2 v_{n-1} delta^{n-1}; passing n = 5 for an n = 3 tube once gave 9.87e-4,
    # not its 2 pi delta^2
    delta = 0.1
    t = geo.Tube((0.3,) * (n - 1), (-0.2,) * (n - 1), delta)
    v = {1: 2.0, 2: math.pi, 3: 4 * math.pi / 3, 4: math.pi**2 / 2}[n - 1]
    assert geo.tube_volume(t) == pytest.approx(2 * v * delta ** (n - 1), rel=1e-15)


def test_tube_volume_monte_carlo():
    t = geo.Tube((0.3, -0.2), (0.1, 0.05), 1 / 8)
    omega, base = np.abs(t.direction_omega), np.asarray(t.base_i)
    lo = np.append(base - omega - t.delta, -1.0)  # a box holding the tube
    hi = np.append(base + omega + t.delta, 1.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(lo, hi, size=(10**6, 3))
    frac = np.count_nonzero(t.contains(pts)) / len(pts)
    est = frac * float(np.prod(hi - lo))
    assert abs(est - geo.tube_volume(t)) <= 0.01 * geo.tube_volume(t)


def test_tube_intersection_self():
    t = geo.Tube((0.25, 0.0), (0.0, 0.0), 1 / 16)
    assert geo.tube_intersection_exact(t, t) == pytest.approx(
        geo.tube_volume(t), rel=1e-6)


def test_tube_intersection_disjoint():
    t1 = geo.Tube((0.5,), (0.0,), 1 / 16)
    t2 = geo.Tube((0.5,), (0.5,), 1 / 16)
    assert geo.tube_intersection_exact(t1, t2) == 0.0
    est, err = geo.tube_intersection_volume(t1, t2, 2000, 0)
    assert est == 0.0


def test_tube_intersection_strip_example():
    # parallel-in-base crossing strips at angle 1/2: closed form 8 delta^2
    delta = 1 / 16
    t1 = geo.Tube((0.0,), (0.0,), delta)
    t2 = geo.Tube((0.5,), (0.0,), delta)
    exact = geo.tube_intersection_exact(t1, t2)
    assert exact == pytest.approx(8 * delta**2, rel=1e-12)
    # overlap bound with the oracle-calibrated constant
    assert exact <= 4.5 * delta**2 / (0.5 + delta)
    est, err = geo.tube_intersection_volume(t1, t2, 200000, 3)
    assert abs(est - exact) <= 0.02 * exact + 3 * err


GOOD = geo.Tube((0.1, 0.2), (0.0, 0.05), 1 / 8)
BAD_TUBES = {  # (direction, base, delta) of tubes a kernel can never be handed
    "nan-delta": ((0.1, 0.2), (0.0, 0.05), math.nan),
    "inf-delta": ((0.1, 0.2), (0.0, 0.05), math.inf),
    "negative-delta": ((0.1, 0.2), (0.0, 0.05), -0.1),
    "zero-delta": ((0.1, 0.2), (0.0, 0.05), 0.0),
    "nan-direction": ((math.nan, 0.2), (0.0, 0.05), 1 / 8),
    "inf-direction": ((0.1, -math.inf), (0.0, 0.05), 1 / 8),
    "nan-base": ((0.1, 0.2), (0.0, math.nan), 1 / 8),
    "inf-base": ((0.1, 0.2), (math.inf, 0.05), 1 / 8),
}


@pytest.mark.parametrize("bad", BAD_TUBES.values(), ids=BAD_TUBES.keys())
@pytest.mark.parametrize("kernel", [
    lambda a, b: geo.tube_intersection_exact(a, b),
    lambda a, b: geo.tube_intersection_volume(a, b, 2000, 0),
], ids=["exact", "monte-carlo"])
def test_tube_pairs_refuse_a_non_finite_or_non_positive_tube(kernel, bad):
    # the bad tube is refused where it is built, before the kernel runs
    with pytest.raises(geo.GeometryError, match="finite") as err:
        kernel(geo.Tube(*bad), GOOD)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("args", [
    *BAD_TUBES.values(),
    ((0.1, 0.2), (0.0,), 1 / 8),  # a 1-D base for a 2-D direction
    ((0.1,), (0.0, 0.0), 1 / 8),
    ((), (), 1 / 8),  # n = 1
    ((0.1, 0.2), (0.0, 0.05), -math.inf),
    ((0.1, math.nan), (math.inf, 0.05), math.nan),
], ids=[*BAD_TUBES.keys(), "short-base", "short-direction", "empty", "minus-inf-delta",
        "all-bad"])
def test_a_bad_tube_is_refused_where_it_is_built(args):
    with pytest.raises(geo.GeometryError, match="a tube needs a finite direction and base "
                                                "of one dimension") as err:
        geo.Tube(*args)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("n", [4, 5])
def test_tube_intersection_exact_refuses_n_outside_two_and_three_for_every_pair(n):
    t = geo.Tube((0.1,) * (n - 1), (0.0,) * (n - 1), 0.1)
    far = geo.Tube((0.1,) * (n - 1), (0.9,) * (n - 1), 0.1)  # axes never within 2 delta
    for pair in ((t, far), (t, t)):
        with pytest.raises(geo.GeometryError, match=r"n in \{2, 3\}") as err:
            geo.tube_intersection_exact(*pair)
        assert err.value.exit_code == 2


def test_tube_intersection_mc_rejects_small_samples():
    t = geo.Tube((0.0,), (0.0,), 1 / 8)
    with pytest.raises(geo.GeometryError):
        geo.tube_intersection_volume(t, t, 500, 0)


def test_tube_intersection_input_contract():
    t2 = geo.Tube((0.1,), (0.0,), 1 / 8)
    t3 = geo.Tube((0.1, 0.2), (0.0, 0.0), 1 / 8)
    with pytest.raises(geo.GeometryError, match="dimension"):
        geo.Tube((0.1, 0.2), (0.0,), 1 / 8)  # a 1-D base for a 2-D direction
    for a, b in ((t2, t3), (t3, t2)):
        with pytest.raises(geo.GeometryError, match="dimension"):
            geo.tube_intersection_exact(a, b)
        with pytest.raises(geo.GeometryError, match="dimension"):
            geo.tube_intersection_volume(a, b, 2000, 0)
    for samples in (2000.5, 2000.0, "2000", True):
        with pytest.raises(geo.GeometryError, match="mc_samples"):
            geo.tube_intersection_volume(t3, t3, samples, 0)
    for seed in (-1, 1.5, None, False):
        with pytest.raises(geo.GeometryError, match="seed"):
            geo.tube_intersection_volume(t3, t3, 2000, seed)
    assert geo.tube_intersection_volume(t3, t3, np.int64(2000), np.int64(0))[0] > 0


def test_cordoba_style_bound_sample():
    rng = np.random.default_rng(7)
    delta = 1 / 16
    net = geo.build_net(3, delta)
    for _ in range(30):
        w1 = net.e1[rng.integers(0, len(net.e1))]
        w2 = net.e2[rng.integers(0, len(net.e2))]
        i1 = net.points[rng.integers(0, len(net.points))]
        i2 = net.points[rng.integers(0, len(net.points))]
        t1 = geo.Tube(tuple(w1), tuple(i1), delta)
        t2 = geo.Tube(tuple(w2), tuple(i2), delta)
        vol = geo.tube_intersection_exact(t1, t2)
        sep = float(np.linalg.norm(w1 - w2)) + delta
        assert vol * sep / delta**3 <= 64.0


# ---------------------------------------------------------------------------
# nets


def test_build_net_counts():
    net = geo.build_net(2, 0.25)
    assert len(net.points) == 9
    assert np.allclose(net.points.ravel(),
                       np.arange(-1, 1.01, 0.25))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_build_net_points_are_lexicographic(n):
    # first axis major, the order xray_transform reads the lattice in
    for delta in (1 / 4, 0.1, 0.07, 1 / 16):
        pts = geo.build_net(n, delta).points
        assert np.array_equal(np.lexsort(pts.T[::-1]), np.arange(len(pts)))


def test_product_grid_is_first_axis_major():
    got = geo.product_grid([np.array([0.0, 1.0]), np.array([5.0, 6.0, 7.0])])
    assert got.tolist() == [[0, 5], [0, 6], [0, 7], [1, 5], [1, 6], [1, 7]]


@pytest.mark.parametrize("axes", [[2] * 29, [3] * 33, [9] * 65],
                         ids=["2^29", "3^33", "9^65"])
def test_product_grid_refuses_past_the_point_cap_before_forming_it(monkeypatch, axes):
    # counted as a Python int, so past numpy's size and dimension limits too
    monkeypatch.setattr(np, "meshgrid", None)  # any attempt to form it fails
    with pytest.raises(MemoryError, match=rf"needs {math.prod(axes)} points, "
                                          rf"above the {geo.MAX_GRID_POINTS} cap"):
        geo.product_grid([np.zeros(m) for m in axes])


def test_build_net_separation_and_covering():
    net = geo.build_net(3, 1 / 8)
    for e1 in net.e1:
        for e2 in net.e2:
            assert np.linalg.norm(e1 - e2) >= 0.5 - 1e-12
    rng = np.random.default_rng(1)
    q = rng.uniform(-1, 1, size=(1000, 2))
    d = np.min(np.linalg.norm(q[:, None, :] - net.points[None], axis=2), axis=1)
    assert float(d.max()) <= net.delta


#: smallest delta drawn per n: the net holds (2 kmax + 1)^{n-1} points
NET_FLOOR = {2: 1e-4, 3: 1 / 128, 4: 1 / 32}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from([2, 3, 4]).flatmap(
    lambda n: st.tuples(st.just(n), st.floats(NET_FLOOR[n], 0.25))))
@example(case=(2, 0.25))
@example(case=(3, 0.25))
@example(case=(4, 0.25))
def test_build_net_subsets_are_populated_and_half_apart(case):
    # the half-open sub-cubes hold a lattice point for every delta <= 1/4,
    # and E1's last and E2's first coordinate along e1 lie more than 1/2 apart
    net = geo.build_net(*case)
    assert len(net.e1_indices) > 0 and len(net.e2_indices) > 0
    assert np.min(net.e2[:, 0]) - np.max(net.e1[:, 0]) > 0.5


def test_build_net_normalized_counts():
    # half-open subcube convention: delta^{n-1} #E1 is exactly 2^{1-n}
    for delta in (1 / 8, 1 / 16, 1 / 32):
        net = geo.build_net(3, delta)
        assert len(net.e1_indices) * delta**2 == pytest.approx(0.25, abs=1e-12)


def test_build_net_rejects_bad_delta():
    with pytest.raises(geo.GeometryError):
        geo.build_net(2, 0.5)


@pytest.mark.parametrize("dim, delta, message", [
    (0, 1 / 8, "need n >= 2, got n = 1"), (-1, 1 / 8, "need n >= 2, got n = 0"),
    (2, 0.0, "need 0 < delta <= 1/4"), (2, 0.3, "need 0 < delta <= 1/4"),
    (2, -1 / 8, "need 0 < delta <= 1/4"), (2, math.nan, "need 0 < delta <= 1/4"),
    (1.5, 1 / 8, "need an integer dim"), (2.0, 1 / 8, "need an integer dim"),
    (True, 1 / 8, "need an integer dim"), ("2", 1 / 8, "need an integer dim"),
])
def test_a_hand_built_net_is_validated(dim, delta, message):
    with pytest.raises(geo.GeometryError, match=message) as err:
        geo.DirectionNet(dim, delta)
    assert err.value.exit_code == 2


def test_build_net_refuses_a_dimension_that_is_not_an_integer():
    with pytest.raises(geo.GeometryError, match="need an integer dim") as err:
        geo.build_net(2.5, 1 / 8)
    assert err.value.exit_code == 2
    assert geo.build_net(np.int64(2), 1 / 8) == geo.build_net(2, 1 / 8)


@pytest.mark.parametrize("x", [[0.5], [0.1, 0.2, 0.3], [[0.5, 0.5]], 0.5,
                               [math.nan, 0.0], [0.0, math.inf]],
                         ids=["short", "long", "2-d", "scalar", "nan", "inf"])
def test_nearest_index_refuses_a_point_that_is_not_a_finite_net_vector(x):
    net = geo.build_net(3, 1 / 4)
    with pytest.raises(geo.GeometryError, match="need a finite point of 2 coordinates") as err:
        net.nearest_index(x)
    assert err.value.exit_code == 2
    assert net.points[net.nearest_index(np.array([0.45, 0.55]))].tolist() == [0.5, 0.5]


def test_a_net_is_the_value_of_its_dim_and_delta():
    net = geo.DirectionNet(2, 1 / 8)
    assert net == geo.build_net(3, 1 / 8) and hash(net) == hash(geo.build_net(3, 1 / 8))
    assert net != geo.build_net(3, 1 / 4) and net != geo.build_net(2, 1 / 8)
    assert np.array_equal(net.axis, np.arange(-8, 9) / 8)
    assert np.array_equal(net.points, geo.product_grid([net.axis] * 2))
    with pytest.raises(TypeError):
        geo.DirectionNet(2, 1 / 8, points=net.points)


@pytest.mark.parametrize("call", [
    lambda n: geo.build_net(n, 1 / 8),
    lambda n: xray.kakeya_witness(xray.K0_DELTAS, n, 1 / 8),
    lambda n: xray.delta_ball_ratio(n, 2.0, 2.0, 1 / 8),
    lambda n: xray.run_kakeya_sweep(xray.K1_SLAB, n, 2.0, 2.0, [1 / 8]),
    lambda n: xray.run_kakeya_sweep_multi(xray.K1_SLAB, n, [(2.0, 2.0)], [1 / 8]),
    lambda n: wit.run_sweep(xray.K0_DELTAS, n, 2.0, 2.0, [1 / 16, 1 / 8, 1 / 4]),
], ids=["build_net", "kakeya_witness", "delta_ball_ratio", "run_kakeya_sweep",
        "run_kakeya_sweep_multi", "run_sweep"])
@pytest.mark.parametrize("n", [1, 0])
def test_nets_below_two_dimensions_are_refused(call, n):
    with pytest.raises(geo.GeometryError, match="need n >= 2"):
        call(n)


# ---------------------------------------------------------------------------
# elliptic phases


def test_quadratic_phase_properties():
    phi = geo.quadratic_phase(2)
    lo, hi = phi.validate()
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)


def test_perturbed_phase_band():
    phi = geo.perturbed_phase(2, 0.05)
    lo, hi = phi.validate()
    assert 0.95 - 1e-9 <= lo and hi <= 1.05 + 1e-9
    # the perturbation is genuinely there
    assert hi - lo > 0.01


@pytest.mark.parametrize("dim, eps0", [
    (3, 0.05), (0, 0.05), (1.0, 0.05), (True, 0.05), ("2", 0.05),
    (2, math.nan), (2, -0.01), (2, 1.0), (2, math.inf)])
def test_perturbed_phase_refuses_a_dimension_or_eps0_it_has_no_bumps_for(dim, eps0):
    # dim = 3 raised a bare KeyError, and eps0 = NaN validated to (nan, nan)
    with pytest.raises(geo.GeometryError, match=r"need dim in \{1, 2\} and 0 <= eps0 < 1") as err:
        geo.perturbed_phase(dim, eps0)
    assert err.value.exit_code == 2


def test_parabolic_rescale_quadratic_fixed_point():
    phi = geo.quadratic_phase(2)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
    for j in (1, 2, 5):
        resc = geo.parabolic_rescale(phi, j, [0.0, 0.0])
        assert np.allclose(resc(pts), phi(pts), atol=1e-12)


def test_parabolic_rescale_recenters():
    phi = geo.perturbed_phase(2, 0.05)
    resc = geo.parabolic_rescale(phi, 2, [0.3, -0.1])
    zero = np.zeros((1, 2))
    assert abs(float(resc(zero)[0])) < 1e-12
    assert float(np.max(np.abs(resc.grad(zero)))) < 1e-10


@pytest.mark.parametrize("j", [1.5, 2.0, True, 512, 1030, -512, -2000])
def test_parabolic_rescale_refuses_j_outside_the_double_range(j):
    # the values scale by 4^j: j = 512 and 1030 raised a bare OverflowError,
    # and 2.0**-2000 = 0 made every value NaN
    with pytest.raises(geo.GeometryError, match="bad j") as err:
        geo.parabolic_rescale(geo.quadratic_phase(2), j, [0.0, 0.0])
    assert err.value.exit_code == 2


@pytest.mark.parametrize("j", [11, 15, 20])
def test_parabolic_rescale_refuses_j_where_the_difference_cancels(j):
    # exact value 0.065 at every j; relative error 1.3e-10 at j = 11, 5.4e-5 at 20
    with pytest.raises(geo.GeometryError, match=r"bad j .*\[-511, 10\]") as err:
        geo.parabolic_rescale(geo.quadratic_phase(2), j, [0.1, 0.2])
    assert err.value.exit_code == 2


def test_parabolic_rescale_keeps_ten_digits_at_the_largest_j():
    resc = geo.parabolic_rescale(geo.quadratic_phase(2), 10, [0.1, 0.2])
    assert abs(float(resc([[0.3, -0.2]])[0]) - 0.065) <= 1e-10 * 0.065


def test_parabolic_rescale_preserves_band():
    phi = geo.perturbed_phase(2, 0.05)
    resc = geo.parabolic_rescale(phi, 3, [0.25, 0.25])
    lo, hi = resc.validate(tol=1e-6)
    assert 0.95 - 1e-6 <= lo and hi <= 1.05 + 1e-6
    # finite-difference Hessian oracle at a few points
    pts = np.array([[0.2, -0.3], [0.0, 0.0], [-0.4, 0.1]])
    h = 1e-5
    for pt in pts:
        fd = np.empty((2, 2))
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fd[:, a] = (resc.grad((pt + e)[None, :])[0]
                        - resc.grad((pt - e)[None, :])[0]) / (2 * h)
        assert np.allclose(fd, resc.hess(pt[None, :])[0], atol=1e-6)

