import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import fields
from tubelab.geometry import build_net


def unit_box_function(value=1.0, m=16):
    return fields.grid_from_sampler(
        lambda P: np.full(P.shape[0], value, dtype=complex),
        [-1, -1], [1, 1], [m, m])


def lp_over(u, p, domain):
    """lp_norm of u over the cells whose centres the domain contains,
    refusing a domain that contains none."""
    mask = domain.contains(u.centers())
    if not mask.any():
        raise fields.FieldError("domain does not intersect the grid")
    return fields.lp(np.abs(u.samples).reshape(-1)[mask], p, u.cell_measure)


def test_lp_norm_constant_on_box():
    u = unit_box_function()
    dom = fields.Box((-1, -1), (1, 1))
    for p in (1, 2, 3.5):
        assert lp_over(u, p, dom) == pytest.approx(4.0 ** (1 / p), rel=1e-12)


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
        assert lp_over(u, p, small) <= lp_over(u, p, large) + 1e-15


def test_lp_norm_empty_domain_errors():
    u = unit_box_function()
    with pytest.raises(fields.FieldError):
        lp_over(u, 2, fields.Ball((10, 10), 0.1))


@pytest.mark.parametrize("make, match", [
    (lambda: fields.Ball((0, 0), math.nan), "radius"),
    (lambda: fields.Ball((0, 0), math.inf), "radius"),
    (lambda: fields.Ball((0, 0), -0.5), "radius"),
    (lambda: fields.Ball((math.nan, 0), 0.5), "bounds"),
    (lambda: fields.Box((0, math.nan), (1, 1)), "bounds"),
    (lambda: fields.Box((0, 0), (math.inf, 1)), "bounds"),
    (lambda: fields.CylinderDomain((0, 2), (0, 0), -2.0, (-1,), (1,)), "radius"),
    (lambda: fields.CylinderDomain((0, 2), (0, 0), math.nan, (-1,), (1,)), "radius"),
    (lambda: fields.CylinderDomain((0, 2), (0, 0), 2.0, (-1,), (math.nan,)), "bounds"),
    (lambda: fields.CylinderDomain((0, 2), (math.nan, 0), 2.0, (-1,), (1,)), "bounds"),
], ids=["ball-nan-radius", "ball-inf-radius", "ball-negative-radius", "ball-nan-center",
        "box-nan", "box-inf", "cylinder-negative-radius", "cylinder-nan-radius",
        "cylinder-nan-rest", "cylinder-nan-center"])
def test_domains_refuse_bad_bounds(make, match):
    # a non-finite bound or a negative radius is a usage error (exit 2)
    with pytest.raises(fields.FieldError, match=match) as err:
        make()
    assert err.value.exit_code == 2


def grid(origin, spacing):
    n = len(origin)
    return fields.GridFunction(origin, spacing, np.ones((8,) * n))


@pytest.mark.parametrize("make, match", [
    (lambda: grid((0.0, 0.0), (math.nan, 0.1)), "spacing"),
    (lambda: grid((0.0, 0.0, 0.0), (0.01, math.nan, 0.01)), "spacing"),
    (lambda: grid((0.0, 0.0), (0.1, math.inf)), "spacing"),
    (lambda: grid((0.0, 0.0), (0.1, 0.0)), "spacing"),
    (lambda: grid((0.0, 0.0), (-0.1, 0.1)), "spacing"),
    (lambda: grid((math.nan, 0.0, 0.0), (0.01, 0.01, 0.01)), "origin"),
    (lambda: grid((0.0, -math.inf), (0.1, 0.1)), "origin"),
    (lambda: fields.grid_from_sampler(lambda P: np.ones(len(P)), [math.nan, 0.0],
                                      [1.0, 1.0], [4, 4]), "spacing"),
], ids=["nan-spacing", "nan-spacing-3d", "inf-spacing", "zero-spacing",
        "negative-spacing", "nan-origin", "inf-origin", "nan-sampler-box"])
def test_grids_refuse_bad_spacing_and_origin(make, match):
    # a NaN spacing would give lp_norm, kakeya_ratio and annulus_ratio a NaN,
    # and a NaN origin a kakeya_ratio of 0
    with pytest.raises(fields.FieldError, match=match) as err:
        make()
    assert err.value.exit_code == 2


def test_ball_domain_cells():
    u = unit_box_function(m=64)
    ball = fields.Ball((0, 0), 0.5)
    val = lp_over(u, 1, ball)
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


#: real and imaginary parts: signed zeros, infinities, NaN, subnormals, any double
_PARTS = (st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310])
          | st.floats())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple), data=st.data())
def test_binary_round_trip_is_exact(dims, data):
    size = 2 * math.prod(dims)
    parts = data.draw(st.lists(_PARTS, min_size=size, max_size=size))
    samples = np.array(parts, dtype=float).view(np.complex128).reshape(dims)
    u = fields.GridFunction(tuple(-0.5 * a for a in range(len(dims))), (0.25,) * len(dims), samples)
    raw, sidecar = u.to_binary()
    v = fields.GridFunction.from_binary(raw, sidecar)
    assert v.dims == dims and v.samples.tobytes() == samples.tobytes()
    assert v.to_binary() == (raw, sidecar)
    v.samples[(0,) * len(dims)] = 1.0  # a writable copy


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
    omegas, sums = g.inner_aggregates(fields.SUM_I)
    assert omegas.tolist() == [1, 3] and sums.tolist() == [2.5, 1.25]
    assert g.inner_aggregates(fields.SUP_I)[1].tolist() == [2.0, 1.25]
    empty = fields.NetFunction(net, {})
    assert len(empty.values) == len(empty.omega) == len(empty.base) == 0
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
    f, g = witnesses.trace_caps(3, 4)
    phi = quadratic_phase(2)
    empty = fields.NetFunction(build_net(2, 1 / 8), {})
    F, G = xray.kakeya_witness(xray.K1_SLAB, 2, 1 / 8)
    u = unit_box_function(m=4)
    rects = [lemmas.FreqRect((c,), (2,)) for c in (-20, 0, 20)]
    omega = lemmas.random_omega_set(3, 2, 0)

    def annulus(s):
        dot = fields.GridFunction((0.0, 0.0), (0.1, 0.1),
                                  np.ones((1, 1), dtype=complex))
        return extension.annulus_ratio(dot, dot, s, 2.0)

    return [
        ("norm_lp-zero", lambda: cap.norm_lp(0)),
        ("norm_lp-negative", lambda: cap.norm_lp(-1)),
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
         lambda: lemmas.quasi_orthogonality_ratio(rects, 0, 0.5)),
        ("quasi-p-zero",
         lambda: lemmas.quasi_orthogonality_ratio(rects, 0, 0)),
        ("young-sequence-nan", lambda: lemmas.young_check([1.0, 2.0], math.nan)),
        ("xr_bounds-p-nan", lambda: lemmas.xr_bounds_check(omega, 1, math.nan, 1)),
        ("xr_bounds-p-inf", lambda: lemmas.xr_bounds_check(omega, 1, math.inf, 1)),
        ("xr_bounds-p-zero", lambda: lemmas.xr_bounds_check(omega, 1, 0, 1)),
        ("xr_bounds-p-negative", lambda: lemmas.xr_bounds_check(omega, 1, -1, 1)),
        ("xr_norm-r-nan", lambda: lemmas.xr_norm(omega, math.nan)),
    ]


@pytest.mark.parametrize("case", _lp_entry_points(), ids=lambda c: c[0])
def test_lp_entry_points_refuse_exponents_outside_domain(case):
    from tubelab.lemmas import LemmaError

    with pytest.raises((fields.FieldError, LemmaError)):
        case[1]()


def _cap(dim):
    from tubelab.extension import CapFunction
    return CapFunction((-0.5,) * dim, (0.5,) * dim)


def from_binary(raw, dims):
    return fields.GridFunction.from_binary(
        raw, {"dims": dims, "origin": [0.0] * len(dims), "spacing": [1.0] * len(dims)})


def _ratio(f, g, domain):
    from tubelab.extension import domain_norm_ratio
    from tubelab.geometry import quadratic_phase
    return domain_norm_ratio(f, g, quadratic_phase(f.dim), 2, 2, domain)


@pytest.mark.parametrize("call", [
    lambda: _ratio(_cap(2), None, fields.Ball((0, 0), 4.0)),
    lambda: _ratio(_cap(2), None, fields.Box((0, 0), (1, 1))),
    lambda: _ratio(_cap(2), _cap(1), fields.Ball((0, 0, 0), 1.0)),
    lambda: fields.Box((0, 0), (1,)),
    lambda: fields.GridFunction((0.0,), (1.0,), np.zeros((4, 4))),
    lambda: fields.GridFunction((0.0, 0.0), (1.0,), np.zeros((4, 4))),
    lambda: fields.GridFunction.from_binary(
        np.zeros(32).tobytes(), {"dims": [4, 4], "origin": [0.0], "spacing": [1.0]}),
    lambda: from_binary(bytes(16 * 15), [4, 4]),
    lambda: from_binary(bytes(16 * 16 - 1), [4, 4]),
    lambda: from_binary(bytes(16 * 17), [4, 4]),
    lambda: from_binary(bytes(16 * 16), [-1, 4]),
    lambda: fields.CylinderDomain((0, 2), (0, 0), 2.0, (-1,), (1, 2)),
    lambda: fields.CylinderDomain((0, 0), (0, 0), 2.0, (-1,), (1,)),
    lambda: fields.CylinderDomain((0, 5), (0, 0), 2.0, (-1,), (1,)),
    lambda: fields.CylinderDomain((0, 2), (0, 0, 0), 2.0, (-1,), (1,)),
], ids=["ratio-3d-cap-2d-ball", "ratio-3d-cap-2d-box", "ratio-caps-of-two-dims",
        "box-bounds-of-two-lengths", "grid-origin-short", "grid-spacing-short", "grid-from-binary-sidecar",
        "grid-from-binary-short", "grid-from-binary-odd-bytes", "grid-from-binary-long",
        "grid-from-binary-wildcard-dims", "cylinder-rest-bounds-of-two-lengths",
        "cylinder-repeated-disc-axis", "cylinder-disc-axis-out-of-range",
        "cylinder-disc-center-of-three"])
def test_dimensions_must_agree(call):
    """A domain, cap pair or grid whose parts have different dimensions is
    refused with a library error (exit code 2), never broadcast or answered."""
    from tubelab.extension import ExtensionError

    with pytest.raises((fields.FieldError, ExtensionError)) as err:
        call()
    assert err.value.exit_code == 2
