import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import witnesses as wit, xray
from tubelab.extension import (CapFunction, OscillationGuardError,
                               domain_norm_ratio, required_grid_counts)
from tubelab.geometry import quadratic_phase


def test_fit_power_law_exact_line():
    fit = wit.fit_power_law([(2, 4), (4, 16)])
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(0.0)
    assert fit.max_residual == pytest.approx(0.0, abs=1e-12)


def test_fit_power_law_constant():
    fit = wit.fit_power_law([(1, 3), (2, 3), (4, 3)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_power_law_noisy_recovery():
    rng = np.random.default_rng(0)
    slope = -1.7
    pts = [(s, 5.0 * s**slope * math.exp(rng.normal(0, 0.01)))
           for s in (1, 2, 4, 8, 16)]
    fit = wit.fit_power_law(pts)
    assert abs(fit.slope - slope) <= 0.02


def test_fit_power_law_validation():
    with pytest.raises(wit.WitnessError):
        wit.fit_power_law([(1, 1)])
    with pytest.raises(wit.WitnessError):
        wit.fit_power_law([(1, 1), (2, -1)])


@pytest.mark.parametrize("points", [
    [(1, 1), (2, math.nan), (4, 2)],
    [(1, 1), (2, math.inf), (4, 2)],
    [(1, 1), (math.inf, 2), (4, 2)],
    [(0, 1), (2, 2), (4, 2)],
    [(-1, 1), (2, 2), (4, 2)],
], ids=["nan-value", "inf-value", "inf-scale", "zero-scale", "negative-scale"])
def test_fit_rejects_non_finite_and_non_positive_points(points):
    with pytest.raises(wit.WitnessError, match="positive and finite"):
        wit.fit_power_law(points)
    with pytest.raises(wit.WitnessError, match="positive and finite"):
        wit.fit_sweep(wit.C0_MODULATED, points)  # inverts the scales first


@pytest.mark.parametrize("points", [
    [(1, 1), (1, 2)],
    [(2, 1), (4, 3), (2.0, 4)],
], ids=["pair", "unsorted"])
def test_fit_rejects_repeated_scales(points):
    with pytest.raises(wit.WitnessError, match="distinct"):
        wit.fit_power_law(points)
    with pytest.raises(wit.WitnessError, match="distinct"):
        wit.fit_sweep(wit.C0_MODULATED, points)


def test_fit_sweep_rejects_scales_whose_inverses_repeat():
    s = 1.5617  # 1 / s == 1 / nextafter(s, inf)
    points = [(s, 1.0), (math.nextafter(s, math.inf), 2.0), (4.0, 2.0)]
    wit.fit_power_law(points)
    with pytest.raises(wit.WitnessError, match="distinct"):
        wit.fit_sweep(wit.C0_MODULATED, points)


def test_synthetic_sweep_slope():
    pts = [(s, s**0.5) for s in (1 / 8, 1 / 4, 1 / 2)]
    fit = wit.fit_power_law(pts)
    assert fit.slope == pytest.approx(0.5) and fit.max_residual < 1e-12


def test_predicted_exponents_at_key_points():
    assert wit.predicted_exponent(wit.C1_SQUASHED, 3, 2, 5 / 3) == pytest.approx(0.0)
    assert wit.predicted_exponent(wit.C2_STRETCHED, 3, 2, 5 / 3) == pytest.approx(0.0)
    assert wit.predicted_exponent(wit.C0_MODULATED, 3, 2, 3 / 2) == pytest.approx(0.0)
    assert wit.predicted_exponent(wit.C0_MODULATED, 2, 2, 2) == pytest.approx(0.0)
    assert wit.predicted_exponent(wit.C1_SQUASHED, 3, 2, 2) == pytest.approx(0.5)
    # the single-cap family saturates exactly on the scale-critical line
    assert wit.predicted_exponent(wit.KNAPP_CLASSIC, 3, 2, 4) == pytest.approx(0.0)
    # the tube families: bushes at p = n, slabs at (5/2, 5), and the
    # delta-ball everywhere
    assert wit.predicted_exponent(xray.K0_DELTAS, 3, 3, 10 / 3) == pytest.approx(0.0)
    assert wit.predicted_exponent(xray.K0_DELTAS, 3, 2, 10 / 3) == pytest.approx(1.0)
    assert wit.predicted_exponent(xray.K1_SLAB, 3, 5 / 2, 5) == pytest.approx(0.0)
    assert wit.predicted_exponent(xray.DELTA_BALL, 3, 5 / 2, 10 / 3) == 0.0
    with pytest.raises(wit.WitnessError):
        wit.predicted_exponent("nonsense", 3, 2, 2)


def test_one_table_of_tube_kinds():
    # every tube kind xray can sweep is a family, with the same exponent function
    tubes = {name: fam.predicted for name, fam in wit.FAMILIES.items() if fam.tubes}
    assert tubes.keys() == xray.PREDICTED_EXPONENTS.keys()
    for name, predicted in tubes.items():
        assert predicted is xray.PREDICTED_EXPONENTS[name]


@pytest.mark.parametrize("kind", [wit.C1_SQUASHED, wit.C0_MODULATED, xray.K0_DELTAS])
@pytest.mark.parametrize("n", [1, 0])
def test_predicted_exponent_refuses_n_below_two(kind, n):
    # as build_witness does: c1 at n = 1 would give -0.5
    with pytest.raises(wit.WitnessError, match="need n >= 2"):
        wit.predicted_exponent(kind, n, 2, 4)


@pytest.mark.parametrize("call", [
    lambda n: wit.build_witness(wit.C1_SQUASHED, n, 0.125),
    lambda n: wit.predicted_exponent(wit.C1_SQUASHED, n, 2, 2),
    lambda n: wit.witness_ratio(wit.C1_SQUASHED, n, 0.125, 2, 2),
], ids=["build_witness", "predicted_exponent", "witness_ratio"])
@pytest.mark.parametrize("n", [2.5, 3.0, "3"])
def test_a_dimension_that_is_not_an_integer_is_refused(call, n):
    # n = 2.5 raised a bare TypeError, or gave an exponent of 0.25
    with pytest.raises(wit.WitnessError, match="need n >= 2, an integer") as err:
        call(n)
    assert err.value.exit_code == 2


def test_witness_support_measures():
    for delta in (1 / 8, 1 / 16):
        f, g, _ = wit.build_witness(wit.C1_SQUASHED, 3, delta)
        assert f.measure == pytest.approx(4 * delta**3)  # 2 delta^2 x 2 delta
        assert g.measure == pytest.approx(4 * delta**3)
        f, g, _ = wit.build_witness(wit.C2_STRETCHED, 3, delta)
        assert f.measure == pytest.approx(delta)  # 1/2 x 2 delta
        assert g.measure == pytest.approx(delta)
        f, g, _ = wit.build_witness(wit.KNAPP_CLASSIC, 3, delta)
        assert g is None
        assert f.measure == pytest.approx(delta**2)


def test_witness_supports_separated():
    f, g, _ = wit.build_witness(wit.C1_SQUASHED, 3, 1 / 8)
    assert f.support_hi[0] <= -0.25 and g.support_lo[0] >= 0.25


def test_witness_scale_validation():
    with pytest.raises(wit.WitnessError):
        wit.build_witness(wit.C1_SQUASHED, 3, 0.5)
    with pytest.raises(wit.WitnessError):
        wit.build_witness(wit.C0_MODULATED, 3, 2.0)
    with pytest.raises(wit.WitnessError):
        wit.build_witness(wit.C2_STRETCHED, 2, 1 / 8)
    with pytest.raises(wit.WitnessError):
        wit.build_witness("nonsense", 3, 1 / 8)
    with pytest.raises(wit.WitnessError):
        wit.build_witness(xray.K0_DELTAS, 3, 1 / 8)
    for kind, n, scale in ((wit.KNAPP_CLASSIC, 2, math.nan),
                           (wit.C1_SQUASHED, 3, -math.inf),
                           (wit.C0_MODULATED, 2, math.inf),
                           (wit.C0_MODULATED, 2, math.nan),
                           (wit.KNAPP_CLASSIC, 1, 1 / 4),
                           (wit.C1_SQUASHED, 0, 1 / 4)):
        with pytest.raises(wit.WitnessError):
            wit.build_witness(kind, n, scale)
    # the region's side 1/(box_constant delta^2) would overflow
    with pytest.raises(wit.WitnessError):
        wit.build_witness(wit.KNAPP_CLASSIC, 2, 1e-12, box_constant=1e-300)
    # ... or delta**2 underflows to 0 while 1 / C / delta / delta stays finite
    for kind in (wit.KNAPP_CLASSIC, wit.C1_SQUASHED):
        with pytest.raises(wit.WitnessError, match="delta too small"):
            wit.build_witness(kind, 2, 6.989649496468677e-193,
                              box_constant=1.1386064608808005e+76)


def test_run_sweep_requires_dyadic_scales():
    with pytest.raises(wit.WitnessError):
        wit.run_sweep(wit.C1_SQUASHED, 3, 2, 5 / 3, [1 / 4, 1 / 8])
    with pytest.raises(wit.WitnessError):
        wit.run_sweep(xray.K0_DELTAS, 3, 5 / 2, 10 / 3, [1 / 4, 1 / 8])
    with pytest.raises(wit.WitnessError):
        wit.run_sweep(xray.DELTA_BALL, 3, 5 / 2, 10 / 3, [1 / 4, 1 / 8, 1 / 9])
    with pytest.raises(wit.WitnessError):
        wit.run_sweep(wit.C1_SQUASHED, 3, 2, 5 / 3, [1 / 4, 1 / 8, 1 / 9])


def test_c1_sweep_slope_and_grid_stability():
    scales = [1 / 4, 1 / 8, 1 / 16]
    fit1, rows = wit.run_sweep(wit.C1_SQUASHED, 3, 2, 5 / 3, scales)
    assert abs(fit1.slope) <= 0.15
    refined = []  # every quadrature node count doubled: 32 where the sweep has 16
    for s in scales:
        f, g, box = wit.build_witness(wit.C1_SQUASHED, 3, s)
        ratio, stats = domain_norm_ratio(f, g, quadratic_phase(2), 2, 5 / 3, box, min_nodes=32)
        assert stats["grid_counts"] == [[32, 32], [32, 32]]
        refined.append((s, ratio))
    fit2 = wit.fit_sweep(wit.C1_SQUASHED, refined)
    assert abs(fit1.slope - fit2.slope) <= 0.05


def test_c0_sweep_fit_abscissa_is_inverse_r():
    fit, rows = wit.run_sweep(wit.C0_MODULATED, 2, 2, 2, [8, 16, 32])
    assert rows[0][0] == 8.0
    assert fit.points[0][0] == pytest.approx(1 / 32)
    assert abs(fit.slope - 0.0) <= 0.15


def test_knapp_sweep_saturates_sharp_line():
    fit, _ = wit.run_sweep(wit.KNAPP_CLASSIC, 3, 2, 4, [1 / 4, 1 / 8, 1 / 16])
    assert abs(fit.slope) <= 0.1


def test_trace_caps_shrink():
    f, g = wit.trace_caps(3, 16.0)
    assert f.measure == pytest.approx((2 / 16) ** 2)
    assert f.support_hi[0] <= -0.25 and g.support_lo[0] >= 0.25
    for n, R in ((3, 2.0), (3, 0.0), (3, -8.0), (3, math.nan), (3, math.inf),
                 (1, 16.0), (0, 16.0), (2.5, 16.0), (3.0, 16.0), (True, 16.0)):
        with pytest.raises(wit.WitnessError, match="need n >= 2 and 4 <= R < inf"):
            wit.trace_caps(n, R)
    f, g = wit.trace_caps(2, 4.0)
    assert (f.support_lo, g.support_hi) == ((-0.75,), (0.75,))


def test_saturating_family_bounded_ratio():
    # at a zero-predicted point the measured ratios vary by a small factor
    _fit, rows = wit.run_sweep(wit.C1_SQUASHED, 3, 2, 5 / 3,
                               [1 / 4, 1 / 8, 1 / 16, 1 / 32])
    vals = [v for _s, v in rows]
    assert max(vals) / min(vals) <= 4.0
    _fit, rows = wit.run_sweep(wit.C2_STRETCHED, 3, 2, 5 / 3,
                               [1 / 8, 1 / 16, 1 / 32])
    vals = [v for _s, v in rows]
    assert max(vals) / min(vals) <= 4.0
    _fit, rows = wit.run_sweep(wit.KNAPP_CLASSIC, 3, 2, 4,
                               [1 / 4, 1 / 8, 1 / 16])
    vals = [v for _s, v in rows]
    assert max(vals) / min(vals) <= 4.0


def test_modulation_search_recovers_c0_overlap():
    # the searched shift must give g an amplitude comparable to f's on the box
    from tubelab.extension import evaluate_extension

    phi = quadratic_phase(1)
    f, g, box = wit.build_witness(wit.C0_MODULATED, 2, 16.0)
    lo, hi = box.bounding_box()
    center = 0.5 * (lo + hi)
    pts = np.array([center, 0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi])
    gn = required_grid_counts(g, phi, pts).max()
    vf = np.abs(evaluate_extension(f, phi, pts, gn))
    vg = np.abs(evaluate_extension(g, phi, pts, gn))
    assert np.all(vg >= 0.3 * vf)


def _exhaustive_modulated(cap, phi, seed, radius, probes, active_axes, floor):
    """The reference search: every lattice trial sized by its own guard call
    and scored at every probe."""
    offsets = np.linspace(-radius, radius, 9)
    best, best_score = None, -1.0
    grids = np.meshgrid(*[offsets] * len(active_axes), indexing="ij")
    for off in np.stack([g.reshape(-1) for g in grids], axis=-1):
        x0 = seed.copy()
        for a, da in zip(active_axes, off):
            x0[a] += da
        trial = CapFunction(cap.support_lo, cap.support_hi, tuple(x0))
        gn = required_grid_counts(trial, phi, probes).max()
        score = float(np.abs(wit.evaluate_extension(trial, phi, probes, gn)).min())
        if score > best_score:
            best, best_score = trial, score
    if best_score < floor:
        raise wit.ModulationSearchError(
            f"best modulated amplitude {best_score:.3g} is below the floor "
            f"{floor:.3g}")
    return best


@pytest.mark.parametrize("kind, n, scale", [
    (wit.C2_STRETCHED, 3, 1 / 4), (wit.C2_STRETCHED, 3, 1 / 8),
    (wit.C2_STRETCHED, 3, 1 / 16), (wit.C2_STRETCHED, 4, 1 / 4),
    (wit.C0_MODULATED, 2, 8.0), (wit.C0_MODULATED, 2, 64.0),
    (wit.C0_MODULATED, 3, 8.0), (wit.C0_MODULATED, 3, 64.0),
])
def test_modulation_search_matches_the_exhaustive_search(monkeypatch, kind, n,
                                                         scale):
    searched, pairs = wit._modulated, []

    def both(*args, **kwargs):
        got = searched(*args, **kwargs)
        pairs.append((got, _exhaustive_modulated(*args, **kwargs)))
        return got
    monkeypatch.setattr(wit, "_modulated", both)
    wit.build_witness(kind, n, scale)
    assert len(pairs) == (1 if kind == wit.C0_MODULATED else 2)
    for got, want in pairs:
        assert (got.support_lo, got.support_hi) == (want.support_lo, want.support_hi)
        assert (np.array(got.modulation).tobytes()
                == np.array(want.modulation).tobytes())


@st.composite
def modulated_witnesses(draw):
    """(kind, n, scale, box_constant): c0 at n in {2, 3} and R in {4, 8, 16},
    or c2 at n = 3 and delta in {1/4, 1/8}; the box constant moves the c2
    probes, rho and seeds."""
    if draw(st.booleans()):
        kind, n, scale = (wit.C0_MODULATED, draw(st.sampled_from([2, 3])),
                          draw(st.sampled_from([4.0, 8.0, 16.0])))
    else:
        kind, n, scale = wit.C2_STRETCHED, 3, draw(st.sampled_from([1 / 4, 1 / 8]))
    return kind, n, scale, draw(st.floats(4.0, 16.0))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=modulated_witnesses())
def test_modulation_search_matches_the_exhaustive_search_on_drawn_witnesses(case):
    # the same modulation bytes from both searches, or both refuse
    kind, n, scale, box_constant = case
    searched, pairs = wit._modulated, []

    def both(*args, **kwargs):
        try:
            got = searched(*args, **kwargs)
        except wit.ModulationSearchError:
            got = None
        try:
            want = _exhaustive_modulated(*args, **kwargs)
        except wit.ModulationSearchError:
            want = None
        pairs.append((got, want))
        if got is None:
            raise wit.ModulationSearchError("refused")
        return got
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wit, "_modulated", both)
        try:
            wit.build_witness(kind, n, scale, box_constant=box_constant)
        except wit.ModulationSearchError:
            pass
    assert pairs
    for got, want in pairs:
        assert (got is None) == (want is None)
        if got is not None:
            assert (np.array(got.modulation).tobytes()
                    == np.array(want.modulation).tobytes())


def test_modulation_search_keeps_the_first_of_tied_maxima(monkeypatch):
    # c0 at n = 2, R = 8 tries x0 = (-24 + d, 0), d = -2, -1.5, ..., 2, on
    # probes with x_1 in {11.3, 12, 12.7}.  The fake amplitude is 1/2 unless
    # -12.9 < x_1 + x0_1 < -10.6, where it is 1 farther than 0.7 from -11.75
    # and 2 nearer.  So d = 0 and d = 1/2 tie at 1, at mirrored probes: the
    # tied trial is not screened out, and the first in lattice order wins.
    def fake(cap, phi, pts, gn):
        eff = np.atleast_2d(pts) + cap.modulation_vector()
        inside = (eff[:, 0] > -12.9) & (eff[:, 0] < -10.6)
        near = np.abs(eff[:, 0] + 11.75) < 0.7
        return np.where(inside, np.where(near, 2.0, 1.0), 0.5).astype(complex)
    monkeypatch.setattr(wit, "evaluate_extension", fake)
    _f, g, _box = wit.build_witness(wit.C0_MODULATED, 2, 8.0)
    assert g.modulation == (-24.0, 0.0)


def test_modulation_search_screens_out_most_probe_points(monkeypatch):
    searched, points = wit.evaluate_extension, {}

    def counting(cap, phi, pts, gn):
        key = cap.support_lo
        points[key] = points.get(key, 0) + np.atleast_2d(pts).shape[0]
        return searched(cap, phi, pts, gn)
    monkeypatch.setattr(wit, "evaluate_extension", counting)
    wit.build_witness(wit.C2_STRETCHED, 3, 1 / 16)
    # the exhaustive search scores 81 trials at 27 probes per cap
    assert len(points) == 2
    assert all(count < 81 * 27 / 2 for count in points.values())


def test_modulation_search_beyond_the_node_cap_is_refused():
    with pytest.raises(OscillationGuardError, match=r"nodes per support axis"):
        wit.build_witness(wit.C0_MODULATED, 2, 1e200)
