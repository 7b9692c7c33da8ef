import functools
import math

import numpy as np
import pytest

from tubelab import extension as ext
from tubelab import witnesses
from tubelab.fields import Ball, Box, grid_from_sampler, lp, lp_norm
from tubelab.geometry import (EllipticPhase, parabolic_rescale, perturbed_phase,
                              quadratic_phase)


PHI2 = quadratic_phase(1)
PHI3 = quadratic_phase(2)
# a tagless clone of PHI3: the same phase, evaluated on the generic route
GENERIC_QUADRATIC = EllipticPhase(
    evaluator=lambda p: 0.5 * np.sum(p * p, axis=-1),
    gradient=lambda p: p.copy(),
    hessian=lambda p: np.broadcast_to(np.eye(2), (p.shape[0], 2, 2)).copy(),
    eps0=0.0, dim=2)


def test_full_cap_at_origin_gives_measure():
    f = ext.CapFunction((-1, -1), (1, 1))
    val = ext.evaluate_extension(f, PHI3, [[0, 0, 0]], 32)
    assert val[0] == pytest.approx(4.0)


def midpoint_sum(cap, phi, pts, m):
    """The extension integral's midpoint sum with m nodes per axis, written
    out: the sum over the nodes y of e^{-2 pi i (x + x0) . (y, Phi(y))}
    times the cell measure, one row per point x."""
    axes = [lo + (np.arange(m) + 0.5) * (hi - lo) / m
            for lo, hi in zip(cap.support_lo, cap.support_hi)]
    y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, cap.dim)
    x = np.asarray(pts, dtype=float) + cap.modulation_vector()
    return np.exp(-2j * np.pi * x @ np.column_stack([y, phi(y)]).T).sum(axis=1) \
        * cap.measure / m**cap.dim


def test_modulation_covariance():
    # the modulated cap at x is the plain cap at x + x0, on both routes
    pts = np.array([[0.5, 0.4, 1.2], [1.0, -0.3, 2.0], [0.0, 0.0, 0.5]])
    shift = (0.3, -0.2, 0.0)
    plain = ext.CapFunction((-0.75, -0.25), (-0.25, 0.25))
    modulated = ext.CapFunction(plain.support_lo, plain.support_hi, modulation=shift)
    want = midpoint_sum(plain, PHI3, pts + shift, 64)
    for phi in (PHI3, GENERIC_QUADRATIC):
        va = ext.evaluate_extension(modulated, phi, pts, 64)
        assert np.max(np.abs(va - want)) < 1e-10


def test_modulation_vector_route_matches_a_direct_midpoint_sum():
    pts = np.array([[0.2, 0.1, 0.7], [1.5, 0.0, 3.0]])
    cap = ext.CapFunction((-0.75, -0.25), (-0.25, 0.25), modulation=(0.4, -0.1, 0.8))
    for phi in (PHI3, GENERIC_QUADRATIC, perturbed_phase(2, 0.05)):
        gn = int(ext.required_grid_counts(cap, phi, pts).max())
        va = ext.evaluate_extension(cap, phi, pts, gn)
        assert np.max(np.abs(va - midpoint_sum(cap, phi, pts, gn))) < 1e-9


def test_uniform_bound_by_l1():
    rng = np.random.default_rng(0)
    f = ext.CapFunction((-0.75, -0.25), (-0.25, 0.25))
    pts = np.concatenate([rng.uniform(-3, 3, size=(30, 2)),
                          rng.uniform(0, 4, size=(30, 1))], axis=1)
    gn = ext.required_grid_counts(f, PHI3, pts).max()
    vals = ext.evaluate_extension(f, PHI3, pts, gn)
    assert np.all(np.abs(vals) <= f.norm_lp(1) + 1e-9)


def test_stationary_decay_and_oracle_agreement():
    f = ext.CapFunction((-1, -1), (1, 1))
    vals = []
    for t in (8, 16, 32):
        v1 = abs(ext.evaluate_extension(f, PHI3, [[0, 0, t]], 4096)[0])
        v2 = abs(ext.evaluate_extension(f, PHI3, [[0, 0, t]], 8192)[0])
        assert abs(v1 - v2) <= 1e-6
        vals.append((t, v1))
    fit = witnesses.fit_power_law(vals)
    assert abs(fit.slope - (-1.0)) <= 0.1


def test_oscillation_guard_raises_with_required_size():
    f = ext.CapFunction((-1, -1), (1, 1))
    with pytest.raises(ext.OscillationGuardError) as err:
        ext.evaluate_extension(f, PHI3, [[0, 0, 64]], 16)
    assert "grid_n" in str(err.value)


def test_oscillation_guard_is_per_axis():
    # at (8, 0, 8) axis 0 binds: 4 * 2 * (|x_0| + |x_n| max|y_0|) = 128 nodes,
    # above the global frequency's 4 * 2 * 8 sqrt(2) (91 nodes on axis 1)
    f = ext.CapFunction((-1, -1), (1, 1))
    pts = [[8, 0, 8]]
    assert ext.required_grid_counts(f, PHI3, pts).max() == 128
    with pytest.raises(ext.OscillationGuardError, match=r"need grid_n >= \[128, 91\]"):
        ext.evaluate_extension(f, PHI3, pts, 100)
    ext.evaluate_extension(f, PHI3, pts, 128)


@pytest.mark.parametrize("grid_n", [2.5, 32.9, "32", True, [16.7, 16.2], math.nan,
                                    [16, True], [16, 16, 16], [[16, 16]]],
                         ids=["fraction", "fraction-high", "str", "bool", "fractions",
                              "nan", "bool-axis", "three-axes", "nested"])
def test_grids_must_be_integers(grid_n):
    # a fraction, string or bool is refused, never truncated to a grid
    f = ext.CapFunction((-1, -1), (1, 1))
    with pytest.raises(ext.ExtensionError, match="grid_n must be an integer or 2 integers") as err:
        ext.evaluate_extension(f, PHI3, [[0, 0, 0]], grid_n)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("grid_n", [0, -2, [16, 0]])
def test_grids_below_one_node_are_refused(grid_n):
    # at the origin the guard needs no node; a grid still needs one per axis
    f = ext.CapFunction((-1, -1), (1, 1))
    with pytest.raises(ext.OscillationGuardError, match=r"need grid_n >= \[1, 1\]"):
        ext.evaluate_extension(f, PHI3, [[0, 0, 0]], grid_n)


@pytest.mark.parametrize("phi", [
    PHI3, perturbed_phase(2, 0.05),
    parabolic_rescale(perturbed_phase(2, 0.05), 1, (0.25, -0.5)),
], ids=["quadratic", "perturbed", "rescaled"])
@pytest.mark.parametrize("cap", [
    ext.CapFunction((-0.75, -0.25), (-0.25, 0.25)),
    ext.CapFunction((0.25, -1.0), (1.0, -0.5)),
    ext.CapFunction((-0.5, 0.0), (0.0, 1.0), modulation=(2.0, -3.0, 1.5)),
], ids=["plain", "corner", "modulated"])
@pytest.mark.parametrize("seed", range(3))
def test_required_grid_counts_agree_with_the_guard(cap, phi, seed):
    # the sizing always passes evaluate_extension's guard, and one node fewer on
    # an axis the guard binds (count above min_nodes) is refused
    pts = np.random.default_rng(seed).uniform(-12.0, 12.0, size=(5, 3))
    ext.evaluate_extension(cap, phi, pts, ext.required_grid_counts(cap, phi, pts))
    counts = ext.required_grid_counts(cap, phi, pts, min_nodes=1)
    ext.evaluate_extension(cap, phi, pts, counts)
    binding = [a for a in range(cap.dim) if counts[a] > 1]
    assert binding
    for a in binding:
        fewer = counts.copy()
        fewer[a] -= 1
        with pytest.raises(ext.OscillationGuardError, match="oscillation guard"):
            ext.evaluate_extension(cap, phi, pts, fewer)


@pytest.mark.parametrize("cap", [
    ext.CapFunction((-0.75, -0.25), (-0.25, 0.25)),
    ext.CapFunction((-0.5, 0.0), (0.0, 1.0), modulation=(2.0, -3.0, 1.5)),
], ids=["plain", "modulated"])
def test_required_grid_counts_of_a_stack_are_those_of_each_set(cap):
    stack = np.random.default_rng(5).uniform(-40.0, 40.0, size=(2, 4, 6, 3))
    counts = ext.required_grid_counts(cap, PHI3, stack)
    assert counts.shape == (2, 4, 2)
    for i, j in np.ndindex(2, 4):
        want = ext.required_grid_counts(cap, PHI3, stack[i, j])
        assert counts[i, j].tobytes() == want.tobytes()


def test_a_stack_beyond_the_node_cap_reports_the_per_axis_maximum():
    f = ext.CapFunction((-1, -1), (1, 1))
    stack = np.array([[[0.0, 0.0, 1e6]], [[1e5, 0.0, 0.0]]])
    # set 0 needs 4 * 2 * 1e6 sqrt(2) per axis, set 1 8e5 per axis
    with pytest.raises(ext.OscillationGuardError,
                       match=r"needs \['1\.13137e\+07', '1\.13137e\+07'\] nodes"):
        ext.required_grid_counts(f, PHI3, stack)


@pytest.mark.parametrize("bad", [0, -1, 1.5, 2.0, "2", math.nan, True],
                         ids=["zero", "negative", "fraction", "float", "str", "nan", "bool"])
def test_node_floors_and_refinements_must_be_integers_from_one(bad):
    f = ext.CapFunction((-0.75, -0.25), (-0.25, 0.25))
    g = ext.CapFunction((0.25, -0.25), (0.75, 0.25))
    box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    calls = [
        lambda: ext.domain_norm_ratio(f, g, PHI3, 2, 2, box, min_nodes=bad),
        lambda: ext.required_grid_counts(f, PHI3, [[0, 0, 1]], min_nodes=bad),
        lambda: witnesses.witness_ratio(witnesses.C1_SQUASHED, 3, 1 / 4, 2, 5 / 3,
                                        grid_n=bad),
    ]
    for call in calls:
        with pytest.raises(ext.ExtensionError, match="must be an integer >= 1") as err:
            call()
        assert err.value.exit_code == 2


def test_separable_path_matches_generic():
    # same midpoint sum, factored; compare against a tagless clone of the
    # quadratic phase which takes the generic route
    f = ext.CapFunction((-0.75, -0.25), (-0.25, 0.25), modulation=(0.5, 0.0, 1.0))
    pts = np.array([[0.3, -0.2, 1.0], [2.0, 0.5, 3.5], [0.0, 0.0, 0.0]])
    gn = ext.required_grid_counts(f, PHI3, pts).max()
    va = ext.evaluate_extension(f, PHI3, pts, gn)
    vb = ext.evaluate_extension(f, GENERIC_QUADRATIC, pts, gn)
    assert np.max(np.abs(va - vb)) < 1e-10


@pytest.mark.parametrize("q", [1, 2, np.inf])
def test_domain_norm_ratio_modulated_separable_matches_generic(q):
    # the modulation is a shift of the evaluation point on both routes, so
    # the factored and the generic slab fields give the same norms
    f = ext.CapFunction((-0.75, -0.25), (-0.25, 0.25), modulation=(0.5, -0.3, 1.0))
    box = Box((-2.0, -2.0, 0.0), (2.0, 2.0, 3.0))
    ra, sa = ext.domain_norm_ratio(f, None, PHI3, 2, q, box)
    rb, sb = ext.domain_norm_ratio(f, None, GENERIC_QUADRATIC, 2, q, box)
    assert sa["grid_counts"] == sb["grid_counts"]
    assert rb == pytest.approx(ra, rel=1e-12)


def grid_slabs(quad, x_axes, xn_axis):
    """slab(s): the field at x_n = xn_axis[s] on the x-grid, from the
    factors' columns s under the quadratic phase, else quad.slabs."""
    if not quad.separable:
        return quad.slabs(x_axes, xn_axis)
    fac = quad.factors(x_axes, xn_axis)
    return lambda s: functools.reduce(np.multiply.outer, [f[:, s] for f in fac])


@pytest.mark.parametrize("phi", [PHI3, GENERIC_QUADRATIC, perturbed_phase(2, 0.05)],
                         ids=["separable", "tagless-quadratic", "perturbed"])
@pytest.mark.parametrize("cap", [
    ext.CapFunction((-0.75, -0.25), (-0.25, 0.25)),
    ext.CapFunction((-0.75, -0.25), (-0.25, 0.25), modulation=(0.5, -0.3, 1.0)),
], ids=["plain", "modulated"])
def test_grid_slabs_match_scattered_points(cap, phi):
    # the domain-grid slabs (the factors' columns under the quadratic phase)
    # and the scattered-point values are the same midpoint sum at the same points
    x_axes = [np.linspace(-1.5, 1.0, 6), np.linspace(-0.5, 1.5, 5)]
    xn_axis = np.linspace(0.25, 2.5, 4)
    corners = np.array([[-1.5, -0.5, 0.25], [1.0, 1.5, 2.5]])
    gn = ext.required_grid_counts(cap, phi, corners)
    slab = grid_slabs(ext._CapQuadrature(cap, phi, gn), x_axes, xn_axis)
    mesh = np.stack(np.meshgrid(*x_axes, indexing="ij"), axis=-1).reshape(-1, 2)
    for s, xn in enumerate(xn_axis):
        pts = np.concatenate([mesh, np.full((len(mesh), 1), xn)], axis=1)
        want = ext.evaluate_extension(cap, phi, pts, gn)
        assert np.max(np.abs(slab(s).reshape(-1) - want)) < 1e-12


@pytest.mark.parametrize("make", [
    lambda: ext.CapFunction((np.nan, 0.0), (0.5, 0.5)),
    lambda: ext.CapFunction((-0.5, 0.0), (0.5, np.nan)),
    lambda: ext.CapFunction((-0.5, 0.0), (0.5, 0.5), modulation=(np.nan, 0, 0)),
    lambda: ext.CapFunction((-0.5, 0.0), (0.5, 0.5), modulation=(0, np.inf, 0)),
    lambda: ext.evaluate_extension(ext.CapFunction((-0.5, 0.0), (0.5, 0.5)), PHI3,
                                   [[np.nan, 0.0, 0.0]], 32),
    lambda: ext.evaluate_extension(ext.CapFunction((-0.5, 0.0), (0.5, 0.5)), PHI3,
                                   [[0.0, 0.0, np.inf]], 32),
], ids=["nan-lo", "nan-hi", "nan-modulation", "inf-modulation", "nan-point",
        "inf-point"])
def test_non_finite_extension_input_is_a_usage_error(make):
    with pytest.raises(ext.ExtensionError) as err:
        f = make()
        ext.local_ratio(f, None, PHI3, 2, 2, 4)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("modulation", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), (), 0.5,
                                        ((0.1, 0.2, 0.3),)])
def test_a_modulation_outside_r_n_is_refused_where_the_cap_is_built(modulation):
    with pytest.raises(ext.ExtensionError, match=r"vector in R\^3") as err:
        ext.CapFunction((-0.5, 0.0), (0.5, 0.5), modulation=modulation)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("call", [
    lambda: ext.evaluate_extension(ext.CapFunction((-0.5,), (0.5,)),
                                   perturbed_phase(2, 0.05), [[0.0, 0.0]], 64),
    lambda: ext.evaluate_extension(ext.CapFunction((-0.5, 0.0), (0.5, 0.5)), PHI2,
                                   [[0.0, 0.0, 0.0]], 64),
    lambda: ext.domain_norm_ratio(ext.CapFunction((-0.5, 0.0), (0.5, 0.5)), None, PHI2,
                                  2, 2, Ball((0.0, 0.0, 0.0), 4.0)),
    lambda: ext.local_ratio(*witnesses.trace_caps(3, 8), quadratic_phase(3), 2, 1, 8),
    lambda: ext.required_grid_counts(ext.CapFunction((-0.5,), (0.5,)), PHI3, [[0.0, 0.0]]),
    lambda: ext.required_grid_counts(ext.CapFunction((-0.5,), (0.5,)), PHI2,
                                     [[0.0, 0.0, 0.0]]),
], ids=["evaluate-1d-cap-2d-phase", "evaluate-2d-cap-1d-phase", "domain-norm",
        "local-ratio", "grid-counts-phase", "grid-counts-points"])
def test_a_phase_or_points_of_another_dimension_than_the_cap_are_refused(call):
    # the mismatch raised numpy's matmul ValueError, or sized a grid for the wrong phase
    with pytest.raises(ext.ExtensionError, match="dimension") as err:
        call()
    assert err.value.exit_code == 2


def test_node_cap_applies_to_scattered_points():
    f = ext.CapFunction((-1, -1), (1, 1))
    with pytest.raises(ext.OscillationGuardError, match="cap"):
        ext.evaluate_extension(f, PHI3, [[0, 0, 0]], ext.MAX_GRID_NODES + 1)


@pytest.mark.parametrize("floor", [ext.MAX_GRID_NODES + 1, 10**30], ids=["cap+1", "huge"])
def test_node_cap_applies_to_node_floors(floor):
    f = ext.CapFunction((-0.75, -0.25), (-0.25, 0.25))
    g = ext.CapFunction((0.25, -0.25), (0.75, 0.25))
    box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    calls = [
        lambda: ext.domain_norm_ratio(f, g, PHI3, 2, 2, box, min_nodes=floor),
        lambda: ext.required_grid_counts(f, PHI3, [[0, 0, 1]], min_nodes=floor),
        lambda: witnesses.witness_ratio(witnesses.C1_SQUASHED, 3, 1 / 4, 2, 5 / 3,
                                        grid_n=floor),
    ]
    for call in calls:
        with pytest.raises(ext.OscillationGuardError, match="cap") as err:
            call()
        assert err.value.exit_code == 3


def test_parabolic_rescaling_covariance():
    # with the rescaled phase, the field of f at (a, b) equals
    # 2^{(n-1)j} times the field of f(2^j .) at (2^j a, 2^{2j} b)
    from tubelab.geometry import parabolic_rescale

    j = 2
    lam = 2.0**j
    f = ext.CapFunction((-0.6, -0.2), (-0.3, 0.2))
    shrunk = ext.CapFunction(tuple(v / lam for v in f.support_lo),
                             tuple(v / lam for v in f.support_hi))
    phi_resc = parabolic_rescale(PHI3, j, [0.0, 0.0])
    pts = np.array([[0.5, 0.25, 1.5], [1.0, -0.5, 0.25]])
    scaled_pts = pts * np.array([lam, lam, lam**2])
    lhs = ext.evaluate_extension(f, phi_resc, pts, 64)
    rhs = lam**2 * ext.evaluate_extension(shrunk, PHI3, scaled_pts, 64)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_local_ratio_zero_denominator():
    # the support's measure 1e-200 * 1e-200 underflows to 0.0
    f = ext.CapFunction((0.0, 0.0), (1e-200, 1e-200))
    g = ext.CapFunction((0.5, -0.25), (1.0, 0.25))
    assert f.measure == 0.0
    with pytest.raises(ext.ExtensionError, match="zero denominator"):
        ext.local_ratio(f, g, PHI3, 2, 1, 8)


@pytest.mark.parametrize("R", [math.nan, math.inf], ids=["nan", "inf"])
def test_local_ratio_refuses_R_outside_one_to_inf(R):
    f = ext.CapFunction((-0.75, -0.25), (-0.25, 0.25))
    with pytest.raises(ext.ExtensionError, match=r"need 1 <= R < inf"):
        ext.local_ratio(f, None, PHI3, 2, 2, R)


def test_local_ratio_separation_enforced():
    f = ext.CapFunction((-0.75, -0.25), (-0.25, 0.25))
    g = ext.CapFunction((-0.2, -0.25), (0.3, 0.25))
    with pytest.raises(ext.ExtensionError):
        ext.local_ratio(f, g, PHI3, 2, 2, 8)


def test_trace_growth_and_flat_l2():
    # bilinear trace behaviour: p=2, q=1 grows ~ R; n=2 (2,2) stays bounded
    rows = []
    for R in (8, 16, 32):
        ratio = ext.local_ratio(*witnesses.trace_caps(3, R), PHI3, 2, 1, R)
        rows.append((R, ratio.value))
    fit = witnesses.fit_power_law(rows)
    assert 0.8 <= fit.slope <= 1.2

    f2 = ext.CapFunction((-0.75,), (-0.25,))
    g2 = ext.CapFunction((0.25,), (0.75,))
    rows = [(R, ext.local_ratio(f2, g2, PHI2, 2, 2, R).value)
            for R in (8, 16, 32, 64)]
    fit = witnesses.fit_power_law(rows)
    assert abs(fit.slope) <= 0.1


def annulus_sampler(R, support_lo, support_hi, phi, thickness=1.0):
    def sampler(P):
        x_, xn = P[:, :-1], P[:, -1]
        ok = np.all((x_ >= np.asarray(support_lo)) & (x_ <= np.asarray(support_hi)),
                    axis=1)
        ok &= np.abs(xn - phi(x_)) <= thickness / R
        return ok.astype(complex)

    return sampler


def annulus_function(n, R, support_lo, support_hi, phi, m=48, thickness=1.0):
    lo = list(support_lo) + [-0.1]
    hi = list(support_hi) + [0.7]
    dims = [m] * (n - 1) + [m]
    return grid_from_sampler(annulus_sampler(R, support_lo, support_hi, phi, thickness),
                             lo, hi, dims)


def weighted_annulus_function(n, R, support_lo, support_hi, phi):
    """indicator x (1 + 0.3i cos 5 x_1): a complex-weighted annulus input."""
    u = annulus_function(n, R, support_lo, support_hi, phi)
    sampler = annulus_sampler(R, support_lo, support_hi, phi)
    return grid_from_sampler(lambda P: sampler(P) * (1 + 0.3j * np.cos(5 * P[:, 0])),
                             list(support_lo) + [-0.1], list(support_hi) + [0.7],
                             list(u.dims))


def dense_annulus_ratios(f, g, ps, R):
    """annulus_ratio at each p in ps, each fhat(xi) one sum over the live
    cells c of exp(-2 pi i xi . c) u(c) |cell|.  The exponential is the
    product of per-axis tables over the live centres; one row of xi_1 values
    at a time, the last axis' table enters by one matrix product."""
    n = f.ndim
    xi = ext._axis_cover(-R, R, ext.DOMAIN_SPACING)
    mesh = np.stack(np.meshgrid(*[xi] * n, indexing="ij"), axis=-1).reshape(-1, n)
    inside = np.sum(mesh * mesh, axis=1) <= R * R
    hats = []
    for u in (f, g):
        vals = u.samples.reshape(-1) * u.cell_measure
        live = np.abs(vals) > 0
        tables = [np.exp(-2j * np.pi * np.outer(xi, c)) for c in u.centers()[live].T]
        rows = []
        for lead in tables[0] * vals[live]:  # xi_1 fixed
            lead = lead[None]
            for table in tables[1:-1]:
                lead = (lead[:, None] * table).reshape(-1, lead.shape[-1])
            rows.append((lead @ tables[-1].T).reshape(-1))
        hats.append(np.concatenate(rows)[inside])
    return [lp(np.abs(hats[0] * hats[1]), p, ext.DOMAIN_SPACING**n)
            / (R ** (1 / p - 1) * lp_norm(f, p) * R ** (1 / p - 1) * lp_norm(g, p))
            for p in ps]


@pytest.mark.parametrize("R", [8.0, 16.0, 32.0])
def test_annulus_ratio_matches_the_dense_transform(R):
    f = weighted_annulus_function(2, R, [-0.75], [-0.25], PHI2)
    g = weighted_annulus_function(2, R, [0.25], [0.75], PHI2)
    ps = [1, 2, 3.5, np.inf]
    want = dense_annulus_ratios(f, g, ps, R)
    for p, w in zip(ps, want):
        assert ext.annulus_ratio(f, g, p, R) == pytest.approx(w, rel=1e-12, abs=0)


def test_annulus_ratio_scaling_and_homogeneity():
    R = 16.0
    f = annulus_function(2, R, [-0.75], [-0.25], PHI2)
    g = annulus_function(2, R, [0.25], [0.75], PHI2)
    base = ext.annulus_ratio(f, g, 2, R)
    sampler = annulus_sampler(R, [-0.75], [-0.25], PHI2)
    f3 = grid_from_sampler(lambda P: 3 * sampler(P),
                           [-0.75, -0.1], [-0.25, 0.7], list(f.dims))
    assert ext.annulus_ratio(f3, g, 2, R) == pytest.approx(base, rel=1e-9)


def test_annulus_ratio_zero_denominator():
    R = 8.0
    f = annulus_function(2, R, [-0.75], [-0.25], PHI2)
    zero = grid_from_sampler(lambda P: np.zeros(P.shape[0], dtype=complex),
                             [0.25, -0.1], [0.75, 0.7], list(f.dims))
    with pytest.raises(ext.ExtensionError):
        ext.annulus_ratio(f, zero, 2, R)


def test_annulus_ratio_support_check():
    R = 8.0
    bad = grid_from_sampler(lambda P: np.ones(P.shape[0], dtype=complex),
                            [-0.75, 0.5], [-0.25, 0.9], [16, 16])
    good = annulus_function(2, R, [0.25], [0.75], PHI2)
    with pytest.raises(ext.ExtensionError):
        ext.annulus_ratio(bad, good, 2, R)


def test_annulus_ratio_cross_validates_local_ratio():
    # slope agreement between the two formulations, n=2, p=q=2
    ann_rows, loc_rows = [], []
    f_cap = ext.CapFunction((-0.75,), (-0.25,))
    g_cap = ext.CapFunction((0.25,), (0.75,))
    for R in (8.0, 16.0, 32.0):
        f = annulus_function(2, R, [-0.75], [-0.25], PHI2)
        g = annulus_function(2, R, [0.25], [0.75], PHI2)
        ann_rows.append((R, ext.annulus_ratio(f, g, 2, R)))
        loc_rows.append((R, ext.local_ratio(f_cap, g_cap, PHI2, 2, 2, R).value))
    slope_a = witnesses.fit_power_law(ann_rows).slope
    slope_l = witnesses.fit_power_law(loc_rows).slope
    assert abs(slope_a - slope_l) <= 0.25


def test_annulus_ratio_three_dimensional_smoke():
    R = 4.0

    def sampler(P):
        x_, xn = P[:, :-1], P[:, -1]
        ok = np.all((x_ >= np.array([-0.75, -0.25]))
                    & (x_ <= np.array([-0.25, 0.25])), axis=1)
        ok &= np.abs(xn - PHI3(x_)) <= 1.0 / R
        return ok.astype(complex)

    def sampler_g(P):
        x_, xn = P[:, :-1], P[:, -1]
        ok = np.all((x_ >= np.array([0.25, -0.25]))
                    & (x_ <= np.array([0.75, 0.25])), axis=1)
        ok &= np.abs(xn - PHI3(x_)) <= 1.0 / R
        return ok.astype(complex)

    f = grid_from_sampler(sampler, [-0.75, -0.25, -0.1], [-0.25, 0.25, 0.7],
                          [20, 20, 24])
    g = grid_from_sampler(sampler_g, [0.25, -0.25, -0.1], [0.75, 0.25, 0.7],
                          [20, 20, 24])
    val = ext.annulus_ratio(f, g, 2, R)
    assert np.isfinite(val) and val > 0
    assert val == pytest.approx(dense_annulus_ratios(f, g, [2], R)[0], rel=1e-12, abs=0)


@pytest.mark.parametrize("R", [math.nan, math.inf, 0.0, -8.0, 0.5],
                         ids=["nan", "inf", "zero", "negative", "half"])
def test_annulus_ratio_refuses_R_outside_one_to_inf(R):
    f = annulus_function(2, 8.0, [-0.75], [-0.25], PHI2)
    g = annulus_function(2, 8.0, [0.25], [0.75], PHI2)
    with pytest.raises(ext.ExtensionError, match=r"need 1 <= R < inf"):
        ext.annulus_ratio(f, g, 2, R)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_annulus_ratio_refuses_non_finite_samples(bad):
    R = 8.0
    f = annulus_function(2, R, [-0.75], [-0.25], PHI2)
    g = annulus_function(2, R, [0.25], [0.75], PHI2)
    f.samples[np.unravel_index(np.argmax(np.abs(f.samples)), f.dims)] = bad
    with pytest.raises(ext.ExtensionError, match="finite"):
        ext.annulus_ratio(f, g, 2, R)


def test_annulus_ratio_refuses_inputs_of_different_dimension():
    u2 = annulus_function(2, 8.0, [-0.75], [-0.25], PHI2)
    u3 = annulus_function(3, 8.0, [0.25, -0.25], [0.75, 0.25], PHI3, m=12)
    for f, g in [(u2, u3), (u3, u2)]:
        with pytest.raises(ext.ExtensionError, match="differ in dimension"):
            ext.annulus_ratio(f, g, 2, 8.0)


def test_rotational_curvature_quadratic():
    assert ext.rotational_curvature(PHI3, [0.8, 0.0], [0.6, 0.0]) == (
        pytest.approx(0.36, abs=1e-8))
    assert ext.rotational_curvature(PHI3, [0.3, 0.2], [0.0, 0.0]) == (
        pytest.approx(0.0, abs=1e-12))
    rng = np.random.default_rng(1)
    for _ in range(100):
        y = rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1, 2)
        det = ext.rotational_curvature(PHI3, y, w)
        assert abs(det - w @ w) <= 1e-8


@pytest.mark.parametrize("y, w", [([0.1], [0.2]), ([0.1, 0.2], [0.2]),
                                  ([0.1], [0.1, 0.2]), ([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])])
def test_rotational_curvature_refuses_points_of_another_dimension(y, w):
    # ([0.1], [0.2]) under the 2-D phase once gave 0.04 without complaint
    with pytest.raises(ext.ExtensionError, match="need 2 coordinates") as err:
        ext.rotational_curvature(PHI3, y, w)
    assert err.value.exit_code == 2


def test_rotational_curvature_perturbed_band():
    phi = perturbed_phase(2, 0.05)
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1, 2)
        det = ext.rotational_curvature(phi, y, w)
        assert abs(det - w @ w) <= 10 * 0.05 * (y @ y + w @ w) + 1e-12
