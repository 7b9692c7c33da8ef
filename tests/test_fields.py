import math

import numpy as np
import pytest

from tubelab import fields
from tubelab.geometry import build_net


def unit_box_function(value=1.0, m=16):
    return fields.grid_from_sampler(
        lambda P: np.full(P.shape[0], value, dtype=complex),
        [-1, -1], [1, 1], [m, m])


def test_lp_norm_constant_on_box():
    u = unit_box_function()
    dom = fields.Box((-1, -1), (1, 1))
    for p in (1, 2, 3.5):
        assert fields.lp_norm(u, p, dom) == pytest.approx(4.0 ** (1 / p), rel=1e-12)


def test_lp_norm_sup():
    u = fields.grid_from_sampler(lambda P: P[:, 0] + 2j * P[:, 1],
                                 [-1, -1], [1, 1], [32, 32])
    vals = np.abs(u.samples)
    assert fields.lp_norm(u, np.inf) == pytest.approx(float(vals.max()))


def test_lp_norm_against_reference_summation():
    rng = np.random.default_rng(0)
    u = fields.grid_from_sampler(
        lambda P: rng.standard_normal(P.shape[0]) + 1j * rng.standard_normal(P.shape[0]),
        [-1, -0.5], [0.5, 1], [13, 17])
    for p in (0.7, 1, 2, 4):
        ref = (np.sum(np.abs(u.samples) ** p) * u.cell_measure) ** (1 / p)
        assert fields.lp_norm(u, p) == pytest.approx(ref, rel=1e-12)


def test_lp_norm_homogeneity():
    u = unit_box_function(1.0)
    v = unit_box_function(-2.5)
    for p in (0.5, 1, 2, np.inf):
        assert fields.lp_norm(v, p) == pytest.approx(
            2.5 * fields.lp_norm(u, p), rel=1e-12)


def test_lp_norm_monotone_in_domain():
    rng = np.random.default_rng(1)
    u = fields.grid_from_sampler(lambda P: np.abs(rng.standard_normal(P.shape[0])),
                                 [-1, -1], [1, 1], [20, 20])
    small = fields.Box((-0.5, -0.5), (0.5, 0.5))
    large = fields.Box((-1, -1), (1, 1))
    for p in (1, 2, 3):
        assert fields.lp_norm(u, p, small) <= fields.lp_norm(u, p, large) + 1e-15


def test_lp_norm_empty_domain_errors():
    u = unit_box_function()
    with pytest.raises(fields.FieldError):
        fields.lp_norm(u, 2, fields.Ball((10, 10), 0.1))


def test_ball_domain_cells():
    u = unit_box_function(m=64)
    ball = fields.Ball((0, 0), 0.5)
    val = fields.lp_norm(u, 1, ball)
    assert val == pytest.approx(math.pi * 0.25, rel=0.02)


def test_mixed_norm_single_atom():
    net = build_net(3, 1 / 8)
    g = fields.NetFunction(net, {(5, 7): 1.0})
    d = net.delta
    assert fields.mixed_norm(g, 2, fields.SUP_I) == pytest.approx(d)  # d^{(n-1)/2}
    assert fields.mixed_norm(g, 2, fields.SUM_I) == pytest.approx(d)


def test_mixed_norm_one_direction_many_bases():
    net = build_net(3, 1 / 8)
    m = 5
    g = fields.NetFunction(net, {(3, i): 1.0 for i in range(m)})
    d = net.delta
    for q in (1, 2, 4):
        assert fields.mixed_norm(g, q, fields.SUM_I) == pytest.approx(
            m * d ** (2 / q), rel=1e-12)
    assert fields.mixed_norm(g, 3, fields.SUP_I) == pytest.approx(
        d ** (2 / 3), rel=1e-12)


def test_mixed_norm_reference_oracle():
    net = build_net(2, 1 / 8)
    rng = np.random.default_rng(2)
    vals = {(int(rng.integers(0, 17)), int(rng.integers(0, 17))): float(v)
            for v in rng.uniform(0, 1, 25)}
    g = fields.NetFunction(net, vals)
    # independent reference: dense array aggregation
    dense = np.zeros((17, 17))
    for (w, i), v in vals.items():
        dense[w, i] = v
    for q, inner in ((2, fields.SUP_I), (3, fields.SUM_I)):
        agg = dense.max(axis=1) if inner == fields.SUP_I else dense.sum(axis=1)
        ref = (np.sum(agg**q) * net.delta) ** (1 / q)
        assert fields.mixed_norm(g, q, inner) == pytest.approx(ref, rel=1e-12)


def test_mixed_norm_sup_limit_band():
    net = build_net(2, 1 / 8)
    g = fields.NetFunction(net, {(0, 0): 2.0, (4, 1): 1.0})
    sup = 2.0  # max over directions of the inner aggregate
    gaps = [abs(fields.mixed_norm(g, q, fields.SUP_I) - sup) for q in (8, 16, 32)]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 0.3


def test_nesting_inequality_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = np.abs(rng.standard_normal(rng.integers(1, 10)))
        p = float(rng.uniform(1, 5))
        assert (np.sum(a**p)) ** (1 / p) <= np.sum(a) + 1e-12


def test_resample_check_band_limited():
    def sampler(P):
        x, y = P[:, 0], P[:, 1]
        return (np.exp(2j * np.pi * x) + 0.5 * np.exp(-2j * np.pi * (x + y))
                + 0.25 * np.exp(2j * np.pi * 2 * y))

    u = fields.grid_from_sampler(sampler, [-1, -1], [1, 1], [32, 32])
    coarse, fine = fields.resample_check(u, 2)
    assert abs(fine - coarse) / fine <= 1e-3
    coarse, fine = fields.resample_check(u, 4)
    assert abs(fine - coarse) / fine <= 1e-3


def test_resample_check_constant_exact():
    u = fields.grid_from_sampler(lambda P: np.ones(P.shape[0], dtype=complex),
                                 [-1, -1], [1, 1], [8, 8])
    coarse, fine = fields.resample_check(u, 3)
    assert coarse == pytest.approx(fine, rel=1e-14)


def test_resample_check_indicator_reports_difference():
    def sampler(P):
        return (np.linalg.norm(P, axis=1) <= 0.4).astype(complex)

    u = fields.grid_from_sampler(sampler, [-1, -1], [1, 1], [8, 8])
    coarse, fine = fields.resample_check(u, 1)
    assert abs(fine - coarse) > 1e-4  # visibly unconverged, not hidden


def test_resample_check_needs_generator():
    u = fields.GridFunction((4,), (0.0,), (0.25,), np.ones(4, dtype=complex))
    with pytest.raises(fields.FieldError):
        fields.resample_check(u, 2)


def test_binary_roundtrip():
    rng = np.random.default_rng(4)
    u = fields.grid_from_sampler(
        lambda P: rng.standard_normal(P.shape[0]) + 1j * rng.standard_normal(P.shape[0]),
        [-1, 0], [1, 0.5], [6, 9])
    raw, sidecar = u.to_binary()
    v = fields.GridFunction.from_binary(raw, sidecar)
    assert v.dims == u.dims
    assert np.array_equal(v.samples, u.samples)
    assert v.spacing == pytest.approx(u.spacing)


def test_netfunction_json_roundtrip():
    net = build_net(2, 1 / 4)
    g = fields.NetFunction(net, {(1, 2): 0.5, (3, 0): 1.25})
    blob = g.to_json()
    back = fields.NetFunction.from_json(net, blob)
    for attr in ("omega", "base", "values"):
        assert np.array_equal(getattr(back, attr), getattr(g, attr))


def test_netfunction_validation():
    net = build_net(2, 1 / 32)  # 65 points, so 40.5 lies inside the range
    nan, inf = float("nan"), float("inf")
    for key, value in [((100, 0), 1.0), ((65, 0), 1.0), ((0, -1), 1.0),
                       ((3, 40.5), 1.0), ((nan, 0), 1.0), ((0, 0), -1.0),
                       ((0, 0), nan), ((0, 0), inf), ((0, 0), -inf),
                       (("3", "4"), "0.5"), ((3, 4), "0.5"), (("3", 4), 0.5),
                       ((3, b"4"), 0.5), ((True, 4), 0.5), ((3, 4), True),
                       ((3, np.bool_(True)), 0.5), ((3, 4), np.True_),
                       (5, 1.0), ((1, 2, 3), 1.0), ((1,), 1.0)]:
        with pytest.raises(fields.FieldError, match="net entry"):
            fields.NetFunction(net, {(1, 2): 0.5, key: value})
    # Python and numpy integers and floats are numbers
    g = fields.NetFunction(net, {(np.int64(3), 4.0): np.float32(0.5),
                                 (1, np.uint8(2)): 1})
    assert g.omega.tolist() == [1, 3] and g.base.tolist() == [2, 4]
    assert g.values.tolist() == [1.0, 0.5]


def test_netfunction_stores_sorted_arrays():
    net = build_net(2, 1 / 4)
    g = fields.NetFunction(net, {(3, 0): 1.25, (1, 2): 0.5, (1, 0): 2.0})
    assert g.omega.tolist() == [1, 1, 3] and g.base.tolist() == [0, 2, 0]
    assert g.values.tolist() == [2.0, 0.5, 1.25]
    assert g.to_json() == [[1, 0, 2.0], [1, 2, 0.5], [3, 0, 1.25]]
    omegas, sums = g.inner_aggregates(fields.SUM_I)
    assert omegas.tolist() == [1, 3] and sums.tolist() == [2.5, 1.25]
    assert g.inner_aggregates(fields.SUP_I)[1].tolist() == [2.0, 1.25]
    empty = fields.NetFunction(net, {})
    assert len(empty.values) == 0 and empty.to_json() == []
    assert fields.mixed_norm(empty, 2.0) == 0.0


def test_netfunction_from_arrays_matches_the_mapping():
    net = build_net(2, 1 / 32)
    rng = np.random.default_rng(4)
    keys = rng.permutation(len(net.points) ** 2)[:200]
    omega, base = np.divmod(keys, len(net.points))
    values = rng.uniform(0, 5, len(keys))
    g = fields.NetFunction.from_arrays(net, omega, base, values)
    h = fields.NetFunction(net, dict(zip(zip(omega.tolist(), base.tolist()), values.tolist())))
    for attr in ("omega", "base", "values"):
        assert np.array_equal(getattr(g, attr), getattr(h, attr))
    empty = fields.NetFunction.from_arrays(net, [], [], [])
    assert len(empty.values) == 0 and empty.omega.dtype == h.omega.dtype
    for o, b, v in [(65, 0, 1.0), (0, -1, 1.0), (3, 40.5, 1.0), (0, 0, -1.0),
                    (0, 0, float("nan")), (0, 0, float("inf"))]:
        with pytest.raises(fields.FieldError, match="net entry"):
            fields.NetFunction.from_arrays(net, [1, o], [2, b], [0.5, v])


def test_lp_accumulator_matches_one_pass_reference():
    rng = np.random.default_rng(11)
    chunks = [rng.random(rng.integers(0, 40)) for _ in range(6)]
    acc = fields.LpAccumulator([0.5, 1, 3, np.inf])
    for chunk in chunks:
        acc.add(chunk)
    allv = np.concatenate(chunks)
    for s in (0.5, 1, 3):
        ref = (np.sum(allv**s) * 0.25) ** (1 / s)
        assert acc.norm(s, 0.25) == pytest.approx(ref, rel=1e-13)
    assert acc.norm(np.inf, 0.25) == allv.max()


@pytest.mark.parametrize("s", [0, -1, -0.0, -np.inf, math.nan])
def test_lp_accumulator_refuses_exponents_outside_domain(s):
    with pytest.raises(fields.FieldError):
        fields.LpAccumulator([2, s])


def _lp_entry_points():
    """(id, call) for every Lp entry point at an exponent outside (0, inf];
    each of these returned a number or raised ZeroDivisionError before the
    reduction refused such exponents."""
    from tubelab import extension, lemmas, witnesses, xray
    from tubelab.geometry import quadratic_phase

    cap = extension.CapFunction((-1.0, -1.0), (1.0, 1.0))
    dense = extension.CapFunction((-0.5,), (0.5,),
                                  density=lambda y: 1.0 + y[:, 0] ** 2)
    f, g = witnesses.trace_caps(3, 4)
    phi = quadratic_phase(2)
    empty = fields.NetFunction(build_net(2, 1 / 8), {})
    F, G, _pred = xray.kakeya_witness(xray.K1_SLAB, 2, 1 / 8)
    u = unit_box_function(m=4)
    rects = [lemmas.FreqRect((c,), (2,)) for c in (-20, 0, 20)]

    def annulus(s):
        dot = fields.GridFunction((1, 1), (0.0, 0.0), (0.1, 0.1),
                                  np.ones((1, 1), dtype=complex))
        return extension.annulus_ratio(dot, dot, s, 2.0)

    return [
        ("norm_lp-zero", lambda: cap.norm_lp(0)),
        ("norm_lp-negative", lambda: cap.norm_lp(-1)),
        ("norm_lp-density-negative", lambda: dense.norm_lp(-1)),
        ("local_ratio-q-zero", lambda: extension.local_ratio(f, g, phi, 2, 0, 4)),
        ("local_ratio-q-negative",
         lambda: extension.local_ratio(f, g, phi, 2, -1, 4)),
        ("local_ratio-p-zero", lambda: extension.local_ratio(f, g, phi, 0, 1, 4)),
        ("mixed_norm-empty-zero", lambda: fields.mixed_norm(empty, 0)),
        ("mixed_norm-empty-negative",
         lambda: fields.mixed_norm(empty, -1, fields.SUM_I)),
        ("lp_norm-nan", lambda: fields.lp_norm(u, math.nan)),
        ("annulus-nan", lambda: annulus(math.nan)),
        ("kakeya_ratio-q-nan",
         lambda: xray.delta_ball_ratio(2, 2, math.nan, 1 / 4)),
        ("bilinear-p-half", lambda: xray.bilinear_kakeya_ratios(F, G, [(0.5, 2)])),
        ("bilinear-p-zero", lambda: xray.bilinear_kakeya_ratios(F, G, [(0, 2)])),
        ("bilinear-q-nan",
         lambda: xray.bilinear_kakeya_ratios(F, G, [(2, math.nan)])),
        ("quasi-p-half",
         lambda: lemmas.quasi_orthogonality_ratio(rects, 0, 0.5, grid_m=64)),
        ("quasi-p-zero",
         lambda: lemmas.quasi_orthogonality_ratio(rects, 0, 0, grid_m=64)),
        ("young-sequence-nan", lambda: lemmas.young_check([1.0, 2.0], math.nan)),
    ]


@pytest.mark.parametrize("case", _lp_entry_points(), ids=lambda c: c[0])
def test_lp_entry_points_refuse_exponents_outside_domain(case):
    from tubelab.lemmas import LemmaError

    with pytest.raises((fields.FieldError, LemmaError)):
        case[1]()
