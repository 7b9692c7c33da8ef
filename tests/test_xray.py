import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import xray
from tubelab.fields import (GridFunction, LpAccumulator, NetFunction, SUM_I,
                            grid_from_sampler, mixed_norm)
from tubelab.geometry import Tube, build_net, tube_intersection_exact, unit_ball_volume
from tubelab.witnesses import fit_power_law


def ball_function(n, delta, resolution=8):
    h = delta / resolution
    pad = delta + 2 * h
    m = int(math.ceil(2 * pad / h))
    return grid_from_sampler(
        lambda P: (np.sum(P * P, axis=1) <= delta**2).astype(complex),
        [-pad] * n, [pad] * n, [m] * n)


def box_function(n, delta, half=1.0):
    h = delta / 4
    m = int(math.ceil(2 * half / h))
    return grid_from_sampler(lambda P: np.ones(P.shape[0], dtype=complex),
                             [-half] * n, [half] * n, [m] * n)


def test_transform_constant_field():
    delta = 1 / 8
    net = build_net(2, delta)
    f = box_function(2, delta)
    xf = xray.xray_transform(f, net)
    # interior tubes (small direction, central base) see the full slab value
    xv = xf.values
    interior = xv.values[(np.abs(net.points[xv.omega, 0]) <= 0.25)
                         & (np.abs(net.points[xv.base, 0]) <= 0.25)]
    expect = 2 * unit_ball_volume(1)  # = 4
    assert interior.size
    for v in interior:
        assert abs(v - expect) / expect <= 0.05


def test_transform_zero_field():
    delta = 1 / 8
    net = build_net(2, delta)
    f = grid_from_sampler(lambda P: np.zeros(P.shape[0], dtype=complex),
                          [-1, -1], [1, 1], [64, 64])
    xf = xray.xray_transform(f, net)
    assert len(xf.values.values) == 0


def test_transform_guard():
    delta = 1 / 8
    net = build_net(2, delta)
    f = grid_from_sampler(lambda P: np.ones(P.shape[0], dtype=complex),
                          [-1, -1], [1, 1], [16, 16])  # spacing 1/8 > delta/4
    with pytest.raises(xray.XrayError):
        xray.xray_transform(f, net)


def test_transform_rejects_imaginary_input():
    from tubelab.fields import GridFunction

    delta = 1 / 8
    net = build_net(2, delta)
    f = ball_function(2, delta)  # real values stored as complex
    assert xray.kakeya_ratio(f, net, 2, 2) > 0
    imaginary = GridFunction(f.origin, f.spacing, 1j * f.samples)
    with pytest.raises(xray.XrayError):
        xray.xray_transform(imaginary, net)
    with pytest.raises(xray.XrayError):
        xray.kakeya_ratio(imaginary, net, 2, 2)


def test_transform_ball_witness_band():
    delta = 1 / 8
    n = 3
    net = build_net(n, delta)
    f = ball_function(n, delta)
    xf = xray.xray_transform(f, net)
    omegas, sups = xf.values.inner_aggregates("sup_i")
    per_omega = np.zeros(len(net.points))
    per_omega[omegas] = sups
    assert all(v > 0 for v in per_omega)
    lo, hi = min(per_omega), max(per_omega)
    # the through-tube captures most of the ball: ~ (4 pi / 3) delta
    assert lo >= 1.0 * delta and hi <= 5.0 * delta
    assert hi / lo <= 4.0


@pytest.mark.parametrize("n", [2, 3])
def test_transform_matches_tube_contains(n):
    # random nonnegative f on an offset grid of non-dyadic spacing, with
    # mass at |x_n| > 1 and beyond the reach |x_a| <= 2 + delta of any tube
    delta = 1 / 8 if n == 2 else 1 / 4
    net = build_net(n, delta)
    rng = np.random.default_rng(7 + n)
    h = 0.9 * delta / 4
    dims = (int(5.0 / h),) * (n - 1) + (int(2.6 / h),)
    origin = (-2.5 + 0.37 * h,) * (n - 1) + (-1.3 + 0.21 * h,)
    live = rng.random(dims) < (1.0 if n == 2 else 0.01)
    f = GridFunction(origin, (h,) * n, live * rng.uniform(0.1, 2.0, dims))
    xv = xray.xray_transform(f, net).values
    got = dict(zip(zip(xv.omega.tolist(), xv.base.tolist()), xv.values.tolist()))
    centers = f.centers()[live.reshape(-1)]
    weights = f.samples.reshape(-1)[live.reshape(-1)]
    assert (np.abs(centers[:, -1]) > 1).any()
    assert (np.abs(centers[:, 0]) > 2 + delta).any()
    scale = delta ** (1 - n) * f.cell_measure
    expect = {}
    for w, omega in enumerate(net.points):
        for i, base in enumerate(net.points):
            inside = Tube(tuple(omega), tuple(base), delta).contains(centers)
            if inside.any():
                expect[(w, i)] = scale * np.sum(weights[inside])
    assert got.keys() == expect.keys()
    assert all(abs(got[key] - v) <= 1e-12 * v for key, v in expect.items())


def test_transform_sums_a_row_of_any_range():
    # one row holds pi 1e300 and, far after it, 0.7: the runs over the 0.7
    # cell alone keep it beside a value 300 decades larger in the same row
    delta = 1 / 8
    net = build_net(3, delta)
    dims = (16, 64, 4)
    samples = np.zeros(dims)
    samples[8, 2, 1], samples[8, 60, 1] = math.pi * 1e300, 0.7
    f = GridFunction((-0.5, -1.0, 0.2), (delta / 4,) * 3, samples)
    xv = xray.xray_transform(f, net).values
    got = dict(zip(zip(xv.omega.tolist(), xv.base.tolist()), xv.values.tolist()))
    live = samples.reshape(-1) > 0
    centers, weights = f.centers()[live], samples.reshape(-1)[live]
    scale = delta ** -2 * f.cell_measure
    expect = {}
    for w, omega in enumerate(net.points):
        for i, base in enumerate(net.points):
            inside = Tube(tuple(omega), tuple(base), delta).contains(centers)
            if inside.any():
                expect[(w, i)] = scale * np.sum(weights[inside])
    assert max(expect.values()) > 1e300 * min(expect.values())
    assert got.keys() == expect.keys()
    assert all(abs(got[key] - v) <= 1e-12 * v for key, v in expect.items())


def test_transform_of_an_input_with_no_live_cell_skips_the_kernel(monkeypatch):
    # all zero, or mass only above |x_n| = 1: the empty field at once
    def forbidden(*args):
        raise AssertionError("_tube_sums ran")

    delta = 1 / 8
    net = build_net(3, delta)
    f = ball_function(3, delta)
    zero = GridFunction(f.origin, f.spacing, 0 * f.samples)
    high = GridFunction(f.origin[:-1] + (5.0,), f.spacing, f.samples)
    monkeypatch.setattr(xray, "_tube_sums", forbidden)
    for g in (zero, high):
        assert xray.xray_transform(g, net).values.values.size == 0
    with pytest.raises(AssertionError, match="_tube_sums ran"):
        xray.xray_transform(f, net)  # a live cell takes the kernel path


# (n, delta) -> (entries, SHA-256 of the little-endian omega, base and values
# bytes) of the delta-ball transform.  The input is 0/1, so each value is an
# exact cell count times one scale: the bytes do not depend on summation
# order or BLAS, and a rewrite of the transform kernel must reproduce them.
DELTA_BALL_TRANSFORM_BYTES = {
    (2, 1 / 8): (79, "7ff30bd59de4b7ca9ee8693675b26c53"
                     "872c3bcd6a4b3312d4069e1fcd99f248"),
    (2, 1 / 16): (151, "5b0bb248059954b15bf4c62d740d6fef"
                       "07a82ff460f162667ae2ba12c971c77d"),
    (3, 1 / 8): (4049, "f05457dda3a62e044c126e0c2b2cf126"
                       "d24eb7555bae784511f5894500a072b5"),
    (3, 1 / 16): (14945, "e29bc8838d8a1c45d0576214aabba15d"
                         "ecffc4e96f9f54c59c6c541067995924"),
}


@pytest.mark.parametrize("n, delta", sorted(DELTA_BALL_TRANSFORM_BYTES))
def test_delta_ball_transform_bytes_are_pinned(n, delta):
    xv = xray.xray_transform(ball_function(n, delta), build_net(n, delta)).values
    digest = hashlib.sha256()
    for arr, dtype in ((xv.omega, "<i8"), (xv.base, "<i8"), (xv.values, "<f8")):
        digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    assert (len(xv.values), digest.hexdigest()) == DELTA_BALL_TRANSFORM_BYTES[(n, delta)]


def disc_sums(shifts, bases, values, delta, axes):
    """sum_k values[k] [disc k holds g] at each point g of the grid spanned by
    axes, in disc order: the whole-grid windows of xray._disc_windows and one
    bincount, as X* rasterized before it worked over live sub-grids."""
    inside, _d2, flat = xray._disc_windows(shifts, bases, delta, axes)
    dims = tuple(len(ax) for ax in axes)
    weights = np.broadcast_to(values.reshape((-1,) + (1,) * len(axes)), inside.shape)
    return np.bincount(np.broadcast_to(flat, inside.shape)[inside],
                       weights[inside], math.prod(dims)).reshape(dims)


def splat_transform(f, net):
    """The forward transform before the row-interval gather, kept as a
    reference: per direction, every live cell splats its value onto the net
    lattice points within delta of x_ - x_n omega through X*'s disc kernel."""
    delta, n = net.delta, f.ndim
    axes = [np.unique(net.points[:, a]) for a in range(net.dim)]
    vals, centers = np.real(f.samples).reshape(-1), f.centers()
    live = (vals > 0) & (np.abs(centers[:, -1]) <= 1.0)
    x_, yn, vals = centers[live, :-1], centers[live, -1], vals[live]
    scale = delta ** (1 - n) * f.cell_measure
    out = {}
    for w, omega in enumerate(net.points):
        sums = disc_sums(x_ - yn[:, None] * omega, np.zeros_like(x_), vals,
                         delta, axes).reshape(-1)
        out.update({(w, i): sums[i] * scale for i in np.nonzero(sums)[0].tolist()})
    return out


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("grid", ["dyadic", "near-tangent", "rounded"])
@pytest.mark.parametrize("n", [2, 3])
def test_transform_matches_the_splat_reference(n, grid, weighted):
    # off-centre random support over heights on both sides of x_n = 1.
    # dyadic: cell centres x0 + k delta/4, so the cell x0 + delta e_1 lies
    # exactly delta from the base (x0, ..., x0).  near-tangent: the last
    # x-axis is moved by 1e-10; for n = 3 that cell is then 1e-10 off the
    # omega = 0 disc's centre row yet inside by the exact test (1e-20 is
    # below half an ulp of delta^2), for n = 2 it is 1e-10 outside the disc.
    # rounded: non-dyadic spacing, every boundary rounded.
    delta = 1 / 16 if n == 2 else 1 / 8
    x0 = 0.125  # a lattice coordinate
    h, origin = delta / 4, [x0] * (n - 1) + [0.5]
    if grid == "near-tangent":
        origin[-2] += 1e-10
    if grid == "rounded":
        h, origin = 0.9 * delta / 4, [x0 + 0.37 * delta] * (n - 1) + [0.45 + 0.21 * delta]
    dims = (int(0.75 / h),) * n
    rng = np.random.default_rng(n)
    live = rng.random(dims) < 0.3
    live[(4,) + (0,) * (n - 1)] = True  # x0 + 4 h = x0 + delta (dyadic grids)
    f = GridFunction(tuple(origin), (h,) * n,  # weights over twelve decades
                     live * (10.0 ** rng.uniform(-6, 6, dims) if weighted else 1.0))
    heights = f.axis_centers(n - 1)
    assert heights[0] < 1 < heights[-1] and heights[0] > 0.4
    if grid != "rounded":
        edge = f.centers()[np.ravel_multi_index((4,) + (0,) * (n - 1), dims)]
        assert 1.0 in heights and (edge[0] - x0 == delta or n == 2)
        inside = Tube((0.0,) * (n - 1), (x0,) * (n - 1), delta).contains(edge[None])[0]
        assert inside == (grid == "dyadic" or n == 3)
    net = build_net(n, delta)
    xv = xray.xray_transform(f, net).values
    got = dict(zip(zip(xv.omega.tolist(), xv.base.tolist()), xv.values.tolist()))
    want = splat_transform(f, net)
    assert got.keys() == want.keys()
    if weighted:
        assert all(abs(got[key] - v) <= 1e-12 * v for key, v in want.items())
    else:  # 0/1 input: exact cell counts times one scale
        assert got == want


def test_transform_of_the_finest_lab_delta_ball_stays_small():
    # a dense (directions x net) accumulator would take 143 MB here
    f, net = ball_function(3, 1 / 32), build_net(3, 1 / 32)
    tracemalloc.start()
    try:
        xray.xray_transform(f, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def traced_peak(call):
    """tracemalloc's peak over call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bilinear_products_stay_small():
    # X* works in blocks of about 2^14 window entries plus live sub-grid
    # cells.  Rasterizing each slab's whole intersection box instead, this
    # random 24-tube Prop. 1.11 pair at delta = 1/32 peaked at 2.1 MiB (0.7 in
    # blocks) and the k0 witness at delta = 1/64 at 2.5 MiB (2.2 in blocks)
    pairs = [(2.0, 10 / 3), (3.0, 10 / 3), (4.0, 10 / 3)]
    small = xray.kakeya_witness(xray.K0_DELTAS, 3, 1 / 8)
    xray.bilinear_kakeya_ratios(*small, pairs)  # lazy imports and caches, untraced
    xray.prop111_constant(*small)
    F, G = random_pair(build_net(3, 1 / 32), np.random.default_rng(5))
    assert traced_peak(lambda: xray.prop111_constant(F, G, spacing=F.delta / 4)) < 2**20
    F, G = xray.kakeya_witness(xray.K0_DELTAS, 3, 1 / 64)
    assert traced_peak(lambda: xray.bilinear_kakeya_ratios(F, G, pairs)) < 2.4 * 2**20


@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_single_tube_indicator(n):
    delta = 1 / 8
    net = build_net(n, delta)
    w_idx, i_idx = 3, 5
    g = xray.XrayField(net, delta, NetFunction(net, {(w_idx, i_idx): 1.0}))
    grid = box_function(n, delta, half=1.5)
    out = xray.xray_adjoint(g, grid)
    vals = np.unique(out.samples)
    assert set(np.round(vals, 12)).issubset({0.0, 1.0})
    tube = Tube(tuple(net.points[w_idx]), tuple(net.points[i_idx]), delta)
    centers = grid.centers()
    inside = tube.contains(centers)
    assert inside.any()
    assert np.array_equal(out.samples.reshape(-1) > 0.5, inside)


@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_weighted_tubes_partly_off_grid(n):
    # one tube through the grid, one crossing its edge, one wholly outside
    delta = 1 / 8
    net = build_net(n, delta)
    half = 0.6
    m = int(math.ceil(2 * half / (delta / 4)))
    grid = grid_from_sampler(lambda P: np.zeros(P.shape[0], dtype=complex),
                             [-half] * n, [half] * n, [m] * n)
    centers = grid.centers()

    def point(x0):
        return net.nearest_index([x0] + [0.0] * (n - 2))

    through = (point(0.25), point(0.0))
    edge = (point(-0.125), point(half))
    outside = (point(0.0), point(-1.0))
    vals = {through: 0.5, edge: 2.0, outside: 3.25}
    g = xray.XrayField(net, delta, NetFunction(net, vals))
    out = xray.xray_adjoint(g, grid)
    hits = {key: Tube(tuple(net.points[key[0]]), tuple(net.points[key[1]]),
                      delta).contains(centers) for key in vals}
    assert hits[through].any() and hits[edge].any()
    assert not hits[outside].any()
    expect = sum(v * hits[key] for key, v in sorted(vals.items()))
    assert np.allclose(out.samples.reshape(-1), expect, rtol=0, atol=1e-12)


def test_adjoint_bush_counts_directions():
    delta = 1 / 8
    net = build_net(2, delta)
    origin = net.nearest_index([0.0])
    vals = {(int(w), origin): 1.0 for w in net.e2_indices}
    g = xray.XrayField(net, delta, NetFunction(net, vals))
    h = delta / 4
    m = int(math.ceil(0.5 / h))
    grid = grid_from_sampler(lambda P: np.zeros(P.shape[0], dtype=complex),
                             [-0.25] * 2, [0.25] * 2, [m] * 2)
    out = xray.xray_adjoint(g, grid)
    centers = grid.centers()
    near0 = np.argmin(np.linalg.norm(centers, axis=1))
    assert out.samples.reshape(-1)[near0] == len(net.e2_indices)


def test_adjointness_identity():
    delta = 1 / 8
    net = build_net(2, delta)
    rng = np.random.default_rng(0)
    f = grid_from_sampler(
        lambda P: np.exp(-np.sum(P * P, axis=1)), [-1, -1], [1, 1], [80, 80])
    xf = xray.xray_transform(f, net)
    xv = xf.values
    vals = {(w, i): float(rng.uniform(0, 1))
            for w, i in zip(xv.omega[::3].tolist(), xv.base[::3].tolist())}
    g = xray.XrayField(net, delta, NetFunction(net, vals))
    xg = xray.xray_adjoint(g, f)
    lhs = sum(delta * x * v for x, v in zip(xv.values[::3], vals.values()))
    rhs = float(np.real(np.sum(np.conj(f.samples) * xg.samples)) * f.cell_measure)
    # X and X* share one cell test, so only the summation order differs
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@pytest.mark.parametrize("reach", [0.625, 2.0], ids=["clipping", "whole"])
@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_matches_tube_contains(n, reach):
    # random weighted tubes, on the clipping grid reaching past it on every
    # side; both grids reach past the tubes in height.  Cell centres on
    # (1/32) Z put cells exactly delta from the axes of the tubes with
    # direction 0
    delta = 1 / 8
    net = build_net(n, delta)
    rng = np.random.default_rng(n)
    zero = net.nearest_index(np.zeros(n - 1))
    vals = {(int(w), int(rng.integers(0, len(net.points)))): float(rng.uniform(0.1, 3.0))
            for w in [*rng.integers(0, len(net.points), 20), zero, zero, zero, zero]}
    g = xray.XrayField(net, delta, NetFunction(net, vals))
    half = [reach + 1 / 64] * (n - 1) + [1.3125 + 1 / 64]
    grid = grid_from_sampler(lambda P: np.zeros(P.shape[0]), np.negative(half), half,
                             [int(64 * reach) + 1] * (n - 1) + [85])
    centers = grid.centers()
    expect = np.zeros(len(centers))
    for w, i, v in zip(*g.tubes()):
        expect += v * Tube(tuple(w), tuple(i), delta).contains(centers)
    assert 0 < np.count_nonzero(expect) < len(expect)
    assert np.array_equal(xray.xray_adjoint(g, grid).samples.reshape(-1), expect)


def test_kakeya_ratio_homogeneity():
    from tubelab.fields import GridFunction

    delta = 1 / 8
    net = build_net(2, delta)
    f = ball_function(2, delta)
    r1 = xray.kakeya_ratio(f, net, 2, 2)
    f7 = GridFunction(f.origin, f.spacing, 7 * f.samples)
    r2 = xray.kakeya_ratio(f7, net, 2, 2)
    assert r1 == pytest.approx(r2, rel=1e-9)


@pytest.mark.parametrize("q, factor, match", [
    (float("nan"), 1.0, "exponent nan"), (0.0, 1.0, "exponent 0"),
    (2.0, -1.0, "nonnegative real"), (2.0, float("nan"), "nonnegative real"),
    (2.0, 1j, "nonnegative real"),
], ids=["q-nan", "q-zero", "negative-samples", "nan-samples",
        "imaginary-samples"])
def test_kakeya_ratio_checks_before_the_transform(monkeypatch, q, factor, match):
    from tubelab import TubelabError
    from tubelab.fields import GridFunction

    def forbidden(*args):
        raise AssertionError("xray_transform ran before the input checks")

    monkeypatch.setattr(xray, "xray_transform", forbidden)
    delta = 1 / 8
    f = ball_function(2, delta)
    f = GridFunction(f.origin, f.spacing, factor * f.samples.real)
    with pytest.raises(TubelabError, match=match):
        xray.kakeya_ratio(f, build_net(2, delta), 2, q)


def test_kakeya_ratio_zero_errors():
    delta = 1 / 8
    net = build_net(2, delta)
    f = grid_from_sampler(lambda P: np.zeros(P.shape[0], dtype=complex),
                          [-1, -1], [1, 1], [64, 64])
    with pytest.raises(xray.XrayError):
        xray.kakeya_ratio(f, net, 2, 2)


def test_constant_field_ratio_slope():
    # full-box input: ratio scales like delta^{n/p - 1}
    n, p, q = 2, 1.0, 2.0
    rows = []
    for delta in (1 / 8, 1 / 16, 1 / 32):
        net = build_net(n, delta)
        f = box_function(n, delta)
        rows.append((delta, xray.kakeya_ratio(f, net, p, q)))
    fit = fit_power_law(rows)
    assert abs(fit.slope - (n / p - 1)) <= 0.1


def test_bilinear_ratio_disjoint_tubes():
    delta = 1 / 8
    net = build_net(3, delta)
    w1 = int(net.e1_indices[0])
    w2 = int(net.e2_indices[-1])
    base_far_1 = net.nearest_index([-0.9, -0.9])
    base_far_2 = net.nearest_index([0.9, 0.9])
    F = xray.XrayField(net, delta, NetFunction(net, {(w1, base_far_1): 1.0}))
    G = xray.XrayField(net, delta, NetFunction(net, {(w2, base_far_2): 1.0}))
    r = xray.bilinear_kakeya_ratios(F, G, [(2, 2)])[0]
    assert r == 0.0


def test_bilinear_ratio_slab_saturation_point_accepted():
    # (p, q) = (5/2, 5): the norm exponent is p'/2 = 5/6, the direction
    # norm exponent q' = 5/4
    p, q = 5 / 2, 5.0
    assert (p / (p - 1)) / 2 == pytest.approx(5 / 6)
    assert q / (q - 1) == pytest.approx(5 / 4)
    delta = 1 / 8
    F, G = xray.kakeya_witness(xray.K1_SLAB, 3, delta)
    r = xray.bilinear_kakeya_ratios(F, G, [(p, q)])[0]
    assert r > 0
    assert xray.PREDICTED_EXPONENTS[xray.K1_SLAB](3, p, q) == pytest.approx(0.0)


def test_bilinear_ratio_support_enforced():
    delta = 1 / 8
    net = build_net(3, delta)
    w1 = int(net.e1_indices[0])
    F = xray.XrayField(net, delta, NetFunction(net, {(w1, 0): 1.0}))
    with pytest.raises(xray.XrayError):
        xray.bilinear_kakeya_ratios(F, F, [(2, 2)])  # F directions are not in E2


@pytest.mark.parametrize("one_empty", [True, False], ids=["one-empty", "both-empty"])
def test_bilinear_ratio_empty_fields_zero_denominator(one_empty):
    delta = 1 / 8
    net = build_net(3, delta)
    w2 = int(net.e2_indices[0])
    F = xray.XrayField(net, delta, NetFunction(net, {}))
    G = xray.XrayField(net, delta, NetFunction(
        net, {(w2, 0): 1.0} if one_empty else {}))
    with pytest.raises(xray.XrayError, match="zero denominator"):
        xray.bilinear_kakeya_ratios(F, G, [(2, 2)])


def test_single_tube_pair_value_matches_rasterization():
    delta = 1 / 8
    net = build_net(3, delta)
    w1 = int(net.e1_indices[len(net.e1_indices) // 2])
    w2 = int(net.e2_indices[len(net.e2_indices) // 2])
    i0 = net.nearest_index([0.0, 0.0])
    F = xray.XrayField(net, delta, NetFunction(net, {(w1, i0): 2.0}))
    G = xray.XrayField(net, delta, NetFunction(net, {(w2, i0): 3.0}))
    res = xray.prop111_constant(F, G, spacing=delta / 16)
    assert res.relative_gap <= 0.05
    # hand value: the pair sum is 6 |T cap T'| over the normalization
    t1 = Tube(tuple(net.points[w1]), tuple(net.points[i0]), delta)
    t2 = Tube(tuple(net.points[w2]), tuple(net.points[i0]), delta)
    vol = tube_intersection_exact(t1, t2)
    denom = delta ** (-1) * (delta**2 * 2.0) * (delta**2 * 3.0)
    assert res.pair_value == pytest.approx(6.0 * vol / denom, rel=1e-9)


def test_prop111_disjoint_pair_zero():
    delta = 1 / 8
    net = build_net(3, delta)
    w1 = int(net.e1_indices[0])
    w2 = int(net.e2_indices[-1])
    F = xray.XrayField(net, delta, NetFunction(net, {(w1, net.nearest_index([-0.9, -0.9])): 1.0}))
    G = xray.XrayField(net, delta, NetFunction(net, {(w2, net.nearest_index([0.9, 0.9])): 1.0}))
    res = xray.prop111_constant(F, G)
    assert res.grid_value == 0.0 and res.pair_value == 0.0


def full_box_product_norms(F, G, acc, spacing):
    """The bilinear product before the per-slab box cut, kept as a reference:
    every height slab rasterizes X*F and X*G over the whole grid covering both
    tube unions."""
    delta, tubes = F.delta, (F.tubes(), G.tubes())
    omegas, bases, _ = (np.concatenate(ab) for ab in zip(*tubes))
    lo = (bases - np.abs(omegas) - delta).min(axis=0) - spacing
    hi = (bases + np.abs(omegas) + delta).max(axis=0) + spacing
    x_axes = [lo[a] + (np.arange(int(math.ceil((hi[a] - lo[a]) / spacing))) + 0.5) * spacing
              for a in range(F.net.dim)]
    m_n = int(math.ceil(2.0 / spacing))
    for yn in -1.0 + (np.arange(m_n) + 0.5) * (2.0 / m_n):
        prod = np.multiply(*(disc_sums(yn * om, b, v, delta, x_axes)
                             for om, b, v in tubes))
        if prod.max(initial=0.0) > 0:
            acc.add(prod[prod > 0])
    return {s: acc.norm(s, spacing ** F.net.dim * (2.0 / m_n)) for s in acc.running}


def random_pair(net, rng, tubes=24):
    def draw(idx_set):
        return {(int(rng.choice(idx_set)), int(rng.integers(0, len(net.points)))):
                float(rng.uniform(0.2, 1.0)) for _ in range(tubes)}

    return (xray.XrayField(net, net.delta, NetFunction(net, draw(net.e1_indices))),
            xray.XrayField(net, net.delta, NetFunction(net, draw(net.e2_indices))))


def crossing_pair(n, delta):
    # bushes through x_ = 0 at height 0 with directions near -e1 / 2 and e1 / 2:
    # their disc centres part as |x_n| grows, so the boxes meet only near x_n = 0
    net = build_net(n, delta)
    i0 = net.nearest_index(np.zeros(net.dim))
    return tuple(xray.XrayField(net, delta, NetFunction(
        net, {(int(w), i0): 1.0 + k / 7 for k, w in enumerate(idx[::3])}))
        for idx in (net.e1_indices, net.e2_indices))


def origin_bush_pair(n, delta):
    # every direction of E1 (F) and of E2 (G), all from the base at the origin
    net = build_net(n, delta)
    i0 = net.nearest_index(np.zeros(net.dim))
    return tuple(xray.XrayField(net, delta, NetFunction(
        net, dict.fromkeys(((int(w), i0) for w in idx), 1.0)))
        for idx in (net.e1_indices, net.e2_indices))


PRODUCT_CASES = {
    **{f"{kind}-n{n}-{delta}": lambda k=kind, n=n, d=delta: xray.kakeya_witness(k, n, d)
       for kind in (xray.K0_DELTAS, xray.K1_SLAB) for n in (2, 3)
       for delta in (1 / 8, 1 / 16)},
    **{f"bush-n{n}-{delta}": lambda n=n, d=delta: origin_bush_pair(n, d)
       for n in (2, 3) for delta in (1 / 8, 1 / 16)},
    **{f"random-n{n}-{seed}": lambda n=n, s=seed: random_pair(
        build_net(n, 1 / 16), np.random.default_rng(s)) for n in (2, 3) for seed in range(3)},
    **{f"crossing-n{n}": lambda n=n: crossing_pair(n, 1 / 16) for n in (2, 3)},
}


@pytest.mark.parametrize("case", list(PRODUCT_CASES))
@pytest.mark.parametrize("per_delta", [4, 8])
def test_product_norms_match_the_full_box_reference(case, per_delta):
    F, G = PRODUCT_CASES[case]()
    spacing = F.delta / per_delta
    exps = [1.0, 5 / 6, 0.7, 2.5, np.inf]
    got = xray._adjoint_product_norms(F, G, LpAccumulator(exps), spacing)
    assert got == full_box_product_norms(F, G, LpAccumulator(exps), spacing)


@pytest.mark.parametrize("case", ["k0-deltas-n3-0.125", "k1-slab-n2-0.0625", "random-n3-1"])
def test_bilinear_ratio_at_p_one_is_the_product_sup(case):
    # p = 1 gives s = p'/2 = inf, so the numerator is the sup of X*F . X*G
    F, G = PRODUCT_CASES[case]()
    n, q = F.net.dim + 1, 3.0
    sup = full_box_product_norms(F, G, LpAccumulator([np.inf]), F.delta / 4)[np.inf]
    norm_f, norm_g = (mixed_norm(h.values, 1.5, SUM_I) for h in (F, G))  # q' = 3/2
    assert sup > 0
    assert xray.bilinear_kakeya_ratios(F, G, [(1, q)]) == [
        sup / (F.delta ** (2.0 - 2.0 * n) * norm_f * norm_g)]


@pytest.mark.parametrize("n", [2, 3])
def test_crossing_pair_boxes_meet_in_some_slabs_only(n):
    F, G = crossing_pair(n, 1 / 16)
    spacing = F.delta / 4
    x_axes = [np.arange(-1.5, 1.5, spacing) + spacing / 2] * F.net.dim
    heights = -1.0 + (np.arange(2 / spacing) + 0.5) * spacing
    met = {s for s, _lines, _sums in xray._adjoint_slabs(
        [F.tubes(), G.tubes()], heights, x_axes, F.delta)}
    assert met and len(met) < len(heights)
    norms = xray._adjoint_product_norms(F, G, LpAccumulator([1.0]), spacing)
    assert norms[1.0] > 0


def mismatched_pairs():
    n3 = build_net(3, 1 / 8)
    F = xray.XrayField(n3, 1 / 8, NetFunction(n3, {(int(n3.e1_indices[0]), 0): 1.0}))
    n2 = build_net(2, 1 / 8)
    G2 = xray.XrayField(n2, 1 / 8, NetFunction(n2, {(int(n2.e2_indices[0]), 0): 1.0}))
    fine = build_net(3, 1 / 16)
    G16 = xray.XrayField(fine, 1 / 16, NetFunction(fine, {(int(fine.e2_indices[0]), 0): 1.0}))
    return {"dimension": (F, G2), "delta": (F, G16)}


@pytest.mark.parametrize("entry", ["bilinear", "prop111"])
@pytest.mark.parametrize("mismatch", ["dimension", "delta"])
def test_bilinear_entry_points_refuse_mismatched_fields(entry, mismatch):
    F, G = mismatched_pairs()[mismatch]
    call = {"bilinear": lambda: xray.bilinear_kakeya_ratios(F, G, [(2, 2)]),
            "prop111": lambda: xray.prop111_constant(F, G)}[entry]
    with pytest.raises(xray.XrayError, match="share a net dimension and delta"):
        call()


@pytest.mark.parametrize("spacing", [0.0, -1 / 64, float("nan"), 1 / 16])
def test_bilinear_entry_points_refuse_a_spacing_outside_the_guard(spacing):
    F, G = xray.kakeya_witness(xray.K0_DELTAS, 3, 1 / 8)
    with pytest.raises(xray.XrayError, match="grid spacing"):
        xray.prop111_constant(F, G, spacing=spacing)


@pytest.mark.parametrize("base", [200, 3], ids=["index-past-the-net", "index-inside"])
def test_xray_field_refuses_values_of_another_net(base):
    # the delta = 1/8 net has 289 points, the delta = 1/4 net 81: index 200
    # would overrun it, and index 3 would read a point of the wrong net
    coarse, fine = build_net(3, 1 / 4), build_net(3, 1 / 8)
    values = NetFunction(fine, {(int(fine.e1_indices[0]), base): 1.0})
    with pytest.raises(xray.XrayError, match="different net") as err:
        xray.XrayField(coarse, 1 / 4, values)
    assert err.value.exit_code == 2
    xray.XrayField(fine, 1 / 8, values)
    xray.XrayField(build_net(3, 1 / 8), 1 / 8, values)  # an equal net is the same net


def test_prop111_random_constant_bound():
    rng = np.random.default_rng(11)
    delta = 1 / 16
    net = build_net(3, delta)

    def draw(idx_set):
        vals = {}
        for _ in range(24):
            w = int(rng.choice(idx_set))
            i = int(rng.integers(0, len(net.points)))
            vals[(w, i)] = float(rng.uniform(0.2, 1.0))
        return vals

    for _ in range(5):
        F = xray.XrayField(net, delta, NetFunction(net, draw(net.e1_indices)))
        G = xray.XrayField(net, delta, NetFunction(net, draw(net.e2_indices)))
        res = xray.prop111_constant(F, G, spacing=delta / 4)
        assert res.pair_value <= 32.0 and res.grid_value <= 32.0


def test_kakeya_witness_shapes():
    delta = 1 / 8
    F, G = xray.kakeya_witness(xray.K0_DELTAS, 3, delta)
    # one base per direction, all of E1 / E2
    assert len(F.values.values) == len(F.net.e1_indices)
    assert len(G.values.values) == len(G.net.e2_indices)
    pred = xray.PREDICTED_EXPONENTS[xray.K0_DELTAS]
    assert pred(3, 2.0, 10 / 3) == pytest.approx(1.0)
    assert pred(3, 3.0, 10 / 3) == pytest.approx(0.0)
    # F's apex is the origin and G's the net point nearest -3/4 e_1, also
    # off the 1/8-lattice (0.07)
    for n in (2, 3):
        for d in (1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64, 0.07):
            F, G = xray.kakeya_witness(xray.K0_DELTAS, n, d)
            seed = np.array([-0.75] + [0.0] * (n - 2))
            apex = G.net.nearest_index(seed)
            assert set(F.values.base) == {G.net.nearest_index(0 * seed)}
            assert set(G.values.base) == {apex}
            assert np.linalg.norm(G.net.points[apex] - seed) <= d / 2 + 1e-12

    F, G = xray.kakeya_witness(xray.K1_SLAB, 3, delta)
    for w in F.values.omega:
        assert abs(F.net.points[w][1]) <= delta + 1e-12
    assert xray.PREDICTED_EXPONENTS[xray.K1_SLAB](3, 5 / 2, 5.0) == pytest.approx(0.0)

    with pytest.raises(xray.XrayError):
        xray.kakeya_witness("nonsense", 3, delta)


def test_bush_witness_value_at_origin():
    delta = 1 / 8
    F, G = origin_bush_pair(3, delta)
    grid = grid_from_sampler(lambda P: np.zeros(P.shape[0], dtype=complex),
                             [-0.1] * 3, [0.1] * 3, [8] * 3)
    out = xray.xray_adjoint(G, grid)
    centers = grid.centers()
    near0 = np.argmin(np.linalg.norm(centers, axis=1))
    assert out.samples.reshape(-1)[near0] == len(G.net.e2_indices)


def unfiltered_pair_volumes(F, G):
    """(sum F G |T cap T'|, |T cap T'| of each pair) over every tube pair in
    F-major order: the loop before the pairs whose axes never meet were left out."""
    total, volumes = 0.0, []
    for w1, b1, v1 in zip(*F.tubes()):
        t1 = Tube(tuple(w1), tuple(b1), F.delta)
        for w2, b2, v2 in zip(*G.tubes()):
            volumes.append(tube_intersection_exact(t1, Tube(tuple(w2), tuple(b2), G.delta)))
            total += float(v1 * v2 * volumes[-1])
    return total, volumes


def pair_value_and_volumes(F, G, monkeypatch):
    """prop111_constant's pair value, with the grid product stubbed out, and the
    exact intersection volumes it computed."""
    volumes = []

    def counted(t1, t2):
        volumes.append(tube_intersection_exact(t1, t2))
        return volumes[-1]

    monkeypatch.setattr(xray, "_adjoint_product_norms", lambda *args: {1.0: 0.0})
    monkeypatch.setattr(xray, "tube_intersection_exact", counted)
    return xray.prop111_constant(F, G).pair_value, volumes


def pair_denominator(F, G):
    return F.delta ** (1.0 - F.net.dim) * F.norm_l1l1() * G.norm_l1l1()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 3])
def test_pair_sum_skips_only_pairs_that_never_meet(n, seed, monkeypatch):
    # the skipped pairs would each have added exactly 0.0, so the sum and the
    # number of pairs that meet are those of the full double loop
    F, G = random_pair(build_net(n, 1 / 8), np.random.default_rng(seed))
    got, volumes = pair_value_and_volumes(F, G, monkeypatch)
    want, every = unfiltered_pair_volumes(F, G)
    assert want > 0 and got == want / pair_denominator(F, G)
    assert len(volumes) < len(every)
    assert sum(v > 0 for v in volumes) == sum(v > 0 for v in every)


@dataclasses.dataclass
class ShiftedField(xray.XrayField):
    """A field whose tubes' bases are moved by shift along axis."""
    axis: int = 0
    shift: float = 0.0

    def tubes(self):
        omegas, bases, values = super().tubes()
        bases = bases.copy()
        bases[:, self.axis] += self.shift
        return omegas, bases, values


@pytest.mark.parametrize("shift", [0.0, 1e-12, -1e-12, -2e-9, 2e-9])
@pytest.mark.parametrize("where", ["end-n2", "end-n3", "middle-n3"])
def test_pair_sum_at_the_touching_distance(where, shift, monkeypatch):
    # one pair of axes 2 delta + shift apart at their closest: at x_n = 1 for
    # -e1/2 from 5/8 e1 against +e1/2 from -5/8 e1, at x_n = 0 for -e1/2 from
    # delta e2 against +e1/2 from -delta e2.  2 delta + 2e-9 is past the
    # filter's 1e-9 and skipped; the rest are kept
    kind, n = where.split("-n")[0], int(where[-1])
    delta = 1 / 8
    net = build_net(n, delta)
    rest = [0.0] * (n - 2)
    w1, w2 = (net.nearest_index([x] + rest) for x in (-0.5, 0.5))
    if kind == "end":
        (b1, b2), axis = (net.nearest_index([x] + rest) for x in (0.625, -0.625)), 0
    else:
        (b1, b2), axis = (net.nearest_index([0.0, x]) for x in (delta, -delta)), 1
    F = ShiftedField(net, delta, NetFunction(net, {(w1, b1): 0.5}), axis, shift)
    G = xray.XrayField(net, delta, NetFunction(net, {(w2, b2): 3.0}))
    got, volumes = pair_value_and_volumes(F, G, monkeypatch)
    want, every = unfiltered_pair_volumes(F, G)
    assert got == want / pair_denominator(F, G)
    assert volumes == ([] if shift > 1e-9 else every)
    assert (every[0] > 0) == (shift < 0)


@pytest.mark.parametrize("overlap", [True, False], ids=["overlapping", "disjoint"])
def test_prop111_refuses_n_4_before_the_grid_product(overlap, monkeypatch):
    # n = 4 has no exact tube-pair sum: both pairs are refused before any grid work
    def forbidden(*args):
        raise AssertionError("the grid product ran")

    monkeypatch.setattr(xray, "_adjoint_product_norms", forbidden)
    delta = 1 / 4
    net = build_net(4, delta)
    i0 = net.nearest_index([0.0] * 3)
    far = net.nearest_index([1.0] * 3) if not overlap else i0
    F = xray.XrayField(net, delta, NetFunction(net, {(int(net.e1_indices[0]), i0): 1.0}))
    G = xray.XrayField(net, delta, NetFunction(net, {(int(net.e2_indices[0]), far): 1.0}))
    with pytest.raises(xray.XrayError, match="n = 4") as err:
        xray.prop111_constant(F, G)
    assert err.value.exit_code == 2


# ---------------------------------------------------------------------------
# properties: small random instances against the oracles above

WEIGHTS = st.floats(0.125, 8.0)


@st.composite
def small_nets(draw):
    n, delta = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1 / 4, 1 / 8]))
    return build_net(n, delta)


@st.composite
def field_on(draw, net, directions):
    """A bush (some of directions from one base) or a sparse random field."""
    base = st.integers(0, len(net.points) - 1)
    if draw(st.booleans()):
        b = draw(base)
        omegas = draw(st.lists(st.sampled_from(directions.tolist()), min_size=1, unique=True))
        values = {(w, b): draw(WEIGHTS) for w in omegas}
    else:
        values = {(draw(st.sampled_from(directions.tolist())), draw(base)): draw(WEIGHTS)
                  for _ in range(draw(st.integers(1, 12)))}
    return xray.XrayField(net, net.delta, NetFunction(net, values))


@st.composite
def product_cases(draw):
    net = draw(small_nets())
    F, G = draw(field_on(net, net.e1_indices)), draw(field_on(net, net.e2_indices))
    return F, G, net.delta / draw(st.sampled_from([4, 8]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=product_cases())
def test_block_product_matches_the_full_box_reference_on_random_fields(case):
    F, G, spacing = case
    exps = [1.0, 5 / 6, 0.7, 2.5, np.inf]
    got = xray._adjoint_product_norms(F, G, LpAccumulator(exps), spacing)
    assert got == full_box_product_norms(F, G, LpAccumulator(exps), spacing)


@st.composite
def grids(draw, centre, delta):
    """A zero grid of spacing at most delta/4 around centre, offset at random;
    it may reach past |x_n| = 1 and past the tubes."""
    h = delta / draw(st.sampled_from([4, 4 / 0.9, 8]))
    dims = tuple(draw(st.integers(1, 32)) for _ in centre)
    origin = tuple(c - m * h * draw(st.floats(0.0, 1.0)) for c, m in zip(centre, dims))
    return GridFunction(origin, (h,) * len(dims), np.zeros(dims))


@st.composite
def adjoint_cases(draw):
    """A field on any tubes and a grid around a point of one of its tube axes."""
    net = draw(small_nets())
    g = draw(field_on(net, np.arange(len(net.points))))
    omegas, bases, _ = g.tubes()
    k, t = draw(st.integers(0, len(bases) - 1)), draw(st.floats(-1.25, 1.25))
    return g, draw(grids(list(bases[k] + t * omegas[k]) + [t], net.delta))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=adjoint_cases())
def test_adjoint_matches_tube_contains_on_random_fields(case):
    g, grid = case
    centers, expect = grid.centers(), np.zeros(math.prod(grid.dims))
    for w, i, v in zip(*g.tubes()):
        expect += v * Tube(tuple(w), tuple(i), g.delta).contains(centers)
    assert np.array_equal(xray.xray_adjoint(g, grid).samples.reshape(-1), expect)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=adjoint_cases(), data=st.data())
def test_transform_and_adjoint_are_adjoint_on_random_inputs(case, data):
    # <Xf, g> with the delta^{n-1} direction measure is <f, X* g> with the cell measure
    g, grid = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = GridFunction(grid.origin, grid.spacing,
                     (rng.random(grid.dims) < 0.3) * rng.uniform(0.1, 2.0, grid.dims))
    xv = xray.xray_transform(f, g.net).values
    xf = dict(zip(zip(xv.omega.tolist(), xv.base.tolist()), xv.values.tolist()))
    gv = g.values
    lhs = g.delta ** g.net.dim * sum(xf.get(key, 0.0) * v for key, v in zip(
        zip(gv.omega.tolist(), gv.base.tolist()), gv.values.tolist()))
    rhs = float(np.sum(f.samples * xray.xray_adjoint(g, f).samples)) * f.cell_measure
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=0)


@st.composite
def transform_cases(draw):
    """A sparse random field, 0/1 or weighted over twelve decades, on a grid
    around a random point that may reach past |x_n| = 1, and its net."""
    net = draw(small_nets())
    centre = [draw(st.floats(-1.25, 1.25)) for _ in range(net.dim + 1)]
    grid = draw(grids(centre, net.delta))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    live = rng.random(grid.dims) < draw(st.sampled_from([0.02, 0.3]))
    weighted = draw(st.booleans())
    values = live * (10.0 ** rng.uniform(-6, 6, grid.dims) if weighted else 1.0)
    return GridFunction(grid.origin, grid.spacing, values), net, weighted


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=transform_cases())
def test_transform_matches_the_splat_reference_on_random_fields(case):
    f, net, weighted = case
    xv = xray.xray_transform(f, net).values
    got = dict(zip(zip(xv.omega.tolist(), xv.base.tolist()), xv.values.tolist()))
    want = splat_transform(f, net)
    assert got.keys() == want.keys()
    if weighted:
        assert all(abs(got[key] - v) <= 1e-12 * v for key, v in want.items())
    else:  # 0/1 input: exact cell counts times one scale
        assert got == want
