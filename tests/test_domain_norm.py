"""Row-interval domain reduction: the runs select exactly the cells a
domain contains, the run reduction matches the plain one, and
domain_norm_ratio keeps its counters and its resource cap."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tubelab import extension as ext
from tubelab import witnesses
from tubelab.fields import Ball, Box, CylinderDomain, LpAccumulator, row_intervals
from tubelab.geometry import perturbed_phase, quadratic_phase
from tubelab.witnesses import ShearedBox

PHI3 = quadratic_phase(2)


def tagless(d):
    """The quadratic phase on d axes without its tag: the generic route."""
    return dataclasses.replace(quadratic_phase(d), tag="generic")


# off-centre domains, each with a cell centre of the test grid exactly on
# its boundary (edge) and an outward axis direction there; for the discs
# 2.25 - 0.125 = 2.125 is the radius
DOMAINS = {
    "ball-2": (Ball((0.125, 0.25), 2.125), (2.25, 0.25), 0),
    "ball-3": (Ball((0.125, 0.0, 0.25), 2.125), (2.25, 0.0, 0.25), 0),
    "box-2": (Box((-1.25, 0.5), (1.5, 2.0)), (1.5, 2.0), 0),
    "box-3": (Box((-1.25, -0.5, 0.25), (1.5, 2.0, 1.75)), (1.5, 2.0, 1.75), 1),
    "cylinder-2": (CylinderDomain((0, 1), (0.125, 0.25), 2.125, (), ()),
                   (2.25, 0.25), 0),
    "cylinder-3-disc-x1-xn": (CylinderDomain((0, 2), (0.125, 0.25), 2.125,
                                             (-0.75,), (1.25,)), (2.25, 0.0, 0.25), 0),
    "cylinder-3-disc-x2-xn": (CylinderDomain((1, 2), (0.125, 0.25), 2.125,
                                             (-0.75,), (1.25,)), (0.0, 2.25, 0.25), 1),
    "cylinder-3-disc-x1-x2": (CylinderDomain((0, 1), (0.125, 0.0), 2.125,
                                             (-1.0,), (0.5,)), (2.25, 0.0, 0.0), 0),
    "sheared-2": (ShearedBox(shear=-0.5, w1=1.25, w_mid=(), w_n=2.0), (1.5, 0.5), 0),
    "sheared-3": (ShearedBox(shear=-0.5, w1=1.25, w_mid=(1.0,), w_n=2.0),
                  (1.5, 0.0, 0.5), 0),
}


@pytest.mark.parametrize("name", DOMAINS)
def test_row_intervals_select_exactly_the_contained_cells(name):
    domain, edge, out = DOMAINS[name]
    n = len(edge)
    x_axes = [np.arange(-12, 13) * 0.25 + 0.25 * a for a in range(n - 1)]
    heights = np.arange(-12, 13) * 0.25
    assert all(edge[a] in x_axes[a] for a in range(n - 1)) and edge[-1] in heights
    nudged = np.array(edge)
    nudged[out] += 1e-9
    assert domain.contains(np.array(edge)) and not domain.contains(nudged)
    for axis in range(n - 1):
        others = [a for a in range(n - 1) if a != axis]
        grids = np.meshgrid(heights, *[x_axes[a] for a in others], x_axes[axis],
                            indexing="ij")
        pts = np.empty(grids[0].shape + (n,))
        for col, a in enumerate([n - 1] + others + [axis]):
            pts[..., a] = grids[col]
        want = domain.contains(pts.reshape(-1, n)).reshape(-1, len(x_axes[axis]))
        lo, hi = row_intervals(domain, x_axes, heights, axis)
        cols = np.arange(len(x_axes[axis]))
        assert np.array_equal((cols >= lo[:, None]) & (cols < hi[:, None]), want)
        assert np.all(hi >= lo)
        # one slab at a time gives the same runs
        per_slab = [row_intervals(domain, x_axes, t, axis) for t in heights]
        assert np.array_equal(np.concatenate([r[0] for r in per_slab]), lo)
        assert np.array_equal(np.concatenate([r[1] for r in per_slab]), hi)


def test_row_intervals_on_rounded_boundaries():
    # a non-dyadic grid, and discs through a grid point up to rounding: the
    # closed-form chords land within an ulp of cell centres on either side
    rng = np.random.default_rng(5)
    x_axes = [np.arange(-30, 31) * 0.1, np.arange(-20, 21) * 0.1 + 0.05]
    heights = np.arange(-30, 31) * 0.1
    pts = np.stack(np.meshgrid(heights, *x_axes, indexing="ij"), axis=-1)
    pts = pts[..., [1, 2, 0]].reshape(-1, 3)
    cols = np.arange(len(x_axes[1]))
    for _ in range(40):
        center = rng.uniform(-0.5, 0.5, 3)
        radius = float(np.linalg.norm(pts[rng.integers(len(pts))] - center))
        cyl = CylinderDomain((0, 1), tuple(center[:2]), radius, (-1.0,), (1.0,))
        for domain in (Ball(tuple(center), radius), cyl):
            want = domain.contains(pts).reshape(-1, len(cols))
            lo, hi = row_intervals(domain, x_axes, heights, 1)
            assert np.array_equal((cols >= lo[:, None]) & (cols < hi[:, None]), want)


@pytest.mark.parametrize("shared", [True, False], ids=["one-row", "row-per-run"])
def test_add_rows_matches_add_of_the_runs(shared):
    rng = np.random.default_rng(3)
    m, k = 17, 40
    rows = rng.random((1 if shared else k, m))
    pick = np.zeros(k, dtype=int) if shared else np.arange(k)
    lo = rng.integers(0, m + 1, k)
    hi = np.minimum(lo + rng.integers(0, 6, k), m)
    lo[:3], hi[:3] = (0, m, 5), (m, m, 5)  # a whole row, empty runs at m and 5
    scale = rng.random(k) * 3
    exps = [0.5, 1, 3, np.inf]
    runs = LpAccumulator(exps).add_rows(scale, rows, pick, lo, hi)
    plain = LpAccumulator(exps)
    for j in range(k):
        plain.add(scale[j] * rows[pick[j], lo[j]:hi[j]])
    for s in exps:
        assert runs.norm(s, 0.5) == pytest.approx(plain.norm(s, 0.5), rel=1e-13)


#: add_rows' rows are WIDTH wide here.  A run whose prefix sum up to its end
#: is at most 2^20 times its own sum keeps the prefix difference, which errs
#: by about 2 WIDTH u times that prefix (u = 2^-53): 2^-29 of the run's sum
WIDTH = 8


@st.composite
def _rows_and_runs(draw):
    # values from 0 and the subnormals to the largest double (v^3 overflows)
    k = draw(st.integers(1, 3))
    rows = draw(arrays(float, (k, WIDTH), elements=st.floats(0.0, np.finfo(float).max)))
    runs = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, WIDTH),
                                   st.integers(0, WIDTH)), max_size=12))
    pick = np.array([r[0] for r in runs], dtype=int)
    lo = np.array([min(r[1:]) for r in runs], dtype=int)
    hi = np.array([max(r[1:]) for r in runs], dtype=int)
    return rows, pick, lo, hi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_rows_and_runs())
@example(case=(np.array([[1e20, 1.0, 1.0]]), np.zeros(1, dtype=int), np.array([1]),
               np.array([3])))
def test_add_rows_matches_add_on_rows_across_the_double_range(case):
    # a run far below the prefix before it, or after an inf, is summed
    # directly; the others agree with add within the bound above, and the
    # max exactly
    rows, pick, lo, hi = case
    exps = [0.5, 1, 3, np.inf]
    with np.errstate(over="ignore", invalid="ignore"):  # v^3 and sums reach inf
        runs = LpAccumulator(exps).add_rows(np.ones(len(pick)), rows, pick, lo, hi)
        plain = LpAccumulator(exps)
        for j in range(len(pick)):
            plain.add(rows[pick[j], lo[j]:hi[j]])
    for s in exps:
        want = plain.running[s]
        assert runs.running[s] == (want if s == np.inf else pytest.approx(want, rel=2.0**-28))


def grid_slabs(quad, x_axes, xn_axis):
    """slab(s): the field at x_n = xn_axis[s] on the x-grid, from the
    factors' columns s under the quadratic phase, else quad.slabs."""
    if not quad.separable:
        return quad.slabs(x_axes, xn_axis)
    fac = quad.factors(x_axes, xn_axis)
    return lambda s: functools.reduce(np.multiply.outer, [f[:, s] for f in fac])


def _per_cell_reference(f, g, phi, p, q, domain):
    """(ratio, cells) with contains run on every cell of every slab; at
    q = inf the ratio is the sup, read through acc.norm(np.inf)."""
    caps = [f] if g is None else [f, g]
    lo, hi = domain.bounding_box()
    n = len(lo)
    axes = [ext._axis_cover(lo[a], hi[a], ext.DOMAIN_SPACING) for a in range(n)]
    corners = np.array([[a[0] for a in axes], [a[-1] for a in axes]])
    slabs = [grid_slabs(ext._CapQuadrature(c, phi, ext.required_grid_counts(c, phi, corners)),
                        axes[:-1], axes[-1]) for c in caps]
    flat = np.stack(np.meshgrid(*axes[:-1], indexing="ij"), axis=-1).reshape(-1, n - 1)
    acc, cells = LpAccumulator([q]), 0
    for s, t in enumerate(axes[-1]):
        mask = domain.contains(np.column_stack([flat, np.full(len(flat), t)]))
        cells += int(np.count_nonzero(mask))
        acc.add(np.abs(np.prod([slab(s).reshape(-1)[mask] for slab in slabs], axis=0)))
    denom = np.prod([c.norm_lp(p) for c in caps])
    return acc.norm(q, ext.DOMAIN_SPACING**n) / denom, cells


def _witness(kind, n):
    f, g, box = witnesses.build_witness(kind, n, 1 / 8)
    return f, g, quadratic_phase(n - 1), box


# (f, g, phi, domain): the quadratic phase on every domain class, and the
# generic path through a perturbed phase and the tagless quadratic phase
CASES = {
    "trace": lambda: (*witnesses.trace_caps(3, 8), PHI3, Ball((0.0,) * 3, 8.0)),
    "perturbed": lambda: (*witnesses.trace_caps(3, 8), perturbed_phase(2, 0.05),
                          Ball((0.5, -0.25, 1.0), 6.125)),
    "box": lambda: (ext.CapFunction((-0.75, -0.25), (-0.25, 0.25),
                                    modulation=(0.5, -0.3, 1.0)),
                    None, PHI3, Box((-2.0, -1.75, 0.0), (2.25, 2.0, 3.0))),
    "c1": lambda: _witness(witnesses.C1_SQUASHED, 3),
    "knapp-2": lambda: _witness(witnesses.KNAPP_CLASSIC, 2),
    "knapp-3": lambda: _witness(witnesses.KNAPP_CLASSIC, 3),
    "tagless-quadratic": lambda: (
        ext.CapFunction((-0.75, -0.25), (-0.25, 0.25), modulation=(-0.4, 0.2, -0.5)),
        None, tagless(2), CylinderDomain((1, 2), (0.3, 1.0), 2.125, (-1.7,), (2.2,))),
    # several blocks of slabs, so live boxes lie strictly inside the bounding
    # box: the ball's first and last slabs hold no cell (64 slabs, the
    # outermost 7.875 from the centre, their nearest cells outside 7.876)
    "perturbed-blocks": lambda: (*witnesses.trace_caps(3, 8), perturbed_phase(2, 0.05),
                                 Ball((0.0,) * 3, 7.876)),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("q", [1, 5 / 3, np.inf])
def test_domain_norm_ratio_matches_the_per_cell_reduction(case, q):
    f, g, phi, domain = CASES[case]()
    ratio, cells = _per_cell_reference(f, g, phi, 2, q, domain)
    got, stats = ext.domain_norm_ratio(f, g, phi, 2, q, domain)
    assert stats["cells"] == cells
    assert got == pytest.approx(ratio, rel=1e-12)


@st.composite
def _random_cap(draw, d):
    lo = [draw(st.floats(-1.0, 0.6)) for _ in range(d)]
    hi = [a + draw(st.floats(0.1, 0.4)) for a in lo]
    modulation = draw(st.none() | st.tuples(*[st.floats(-2.0, 2.0)] * (d + 1)))
    return ext.CapFunction(tuple(lo), tuple(hi), modulation=modulation)


@st.composite
def _random_domain(draw, n):
    # up to sizes whose grid spans several blocks of slabs, so that a
    # block's live box can lie strictly inside the bounding box
    centre = [draw(st.floats(-1.0, 1.0)) for _ in range(n)]
    size = st.floats(0.5, 48.0 if n == 2 else 8.0)
    kind = draw(st.sampled_from(["ball", "box", "cylinder", "sheared"]))
    if kind == "ball":
        return Ball(tuple(centre), draw(size))
    if kind == "box":
        halves = [draw(size) for _ in range(n)]
        return Box(tuple(np.subtract(centre, halves)), tuple(np.add(centre, halves)))
    if kind == "cylinder":
        disc = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
        rest = [a for a in range(n) if a not in disc]
        halves = [draw(size) for _ in rest]
        return CylinderDomain(disc, tuple(centre[a] for a in disc), draw(size),
                              tuple(centre[a] - h for a, h in zip(rest, halves)),
                              tuple(centre[a] + h for a, h in zip(rest, halves)))
    return ShearedBox(shear=draw(st.floats(-1.0, 1.0)), w1=draw(size),
                      w_mid=tuple(draw(size) for _ in range(n - 2)), w_n=draw(size))


@st.composite
def _random_case(draw):
    n = draw(st.sampled_from([2, 3]))
    phi = draw(st.sampled_from([quadratic_phase(n - 1), tagless(n - 1),
                                perturbed_phase(n - 1, 0.05)]))
    g = draw(st.none() | _random_cap(n - 1))
    return draw(_random_cap(n - 1)), g, phi, draw(_random_domain(n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_random_case(), q=st.sampled_from([1, 5 / 3, np.inf]))
def test_domain_norm_ratio_matches_the_per_cell_reduction_on_random_inputs(case, q):
    # every domain class, pairs and single caps, on each phase's path
    f, g, phi, domain = case
    ratio, cells = _per_cell_reference(f, g, phi, 2, q, domain)
    got, stats = ext.domain_norm_ratio(f, g, phi, 2, q, domain)
    assert stats["cells"] == cells
    assert got == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("radius", [2.0, 3.0])
def test_generic_slabs_contract_every_support_axis(radius):
    # at n = 4 the tagless quadratic phase takes the generic path and must
    # match the separable path on the same cap; the per-cell reference forms
    # its generic slabs with the same _CapQuadrature.slabs, so it cannot be
    # the oracle here
    cap = ext.CapFunction((-0.75, -0.25, -0.25), (-0.25, 0.25, 0.25))
    ball = Ball((0.0,) * 4, radius)
    for q in (1, 5 / 3, np.inf):
        want, want_stats = ext.domain_norm_ratio(cap, None, quadratic_phase(3), 2, q, ball)
        got, stats = ext.domain_norm_ratio(cap, None, tagless(3), 2, q, ball)
        assert stats == want_stats
        assert got == pytest.approx(want, rel=1e-12)


# (q, ratio at q, ratio at q = inf, stats["cells"], stats["grid_counts"])
# before the row-interval reduction (the perturbed entry before the generic
# path formed slabs over live boxes), which perfbench's domain_norm_ratio
# counters read; the q = inf ratio is the field's sup over ||f||_2 ||g||_2
PINNED = {
    "trace-R16": (1, 14.784312348742512, 0.015596888455876952, 1099136,
                  [[16, 16], [16, 16]]),
    "perturbed-R16": (1, 14.92499870211395, 0.015597338469205644, 1099136,
                      [[16, 16], [16, 16]]),
    "c1-delta1/16": (5 / 3, 0.25008270560453166, 0.0009757774357652064, 823488,
                     [[16, 16], [16, 16]]),
}


def _pinned_call(name, q):
    if name in ("trace-R16", "perturbed-R16"):
        f, g = witnesses.trace_caps(3, 16)
        phi = PHI3 if name == "trace-R16" else perturbed_phase(2, 0.05)
        return ext.domain_norm_ratio(f, g, phi, 2, q, Ball((0.0,) * 3, 16.0))
    f, g, box = witnesses.build_witness(witnesses.C1_SQUASHED, 3, 1 / 16)
    return ext.domain_norm_ratio(f, g, PHI3, 2, q, box)


@pytest.mark.parametrize("name", PINNED)
def test_domain_norm_ratio_counters_are_pinned(name):
    q, ratio, sup_ratio, cells, grid_counts = PINNED[name]
    for q_call, want in ((q, ratio), (np.inf, sup_ratio)):
        got, stats = _pinned_call(name, q_call)
        assert stats["cells"] == cells
        assert stats["grid_counts"] == grid_counts
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("phi", [PHI3, perturbed_phase(2, 0.05)],
                         ids=["quadratic", "perturbed"])
def test_domain_norm_ratio_samples_the_slope_once_per_cap(phi):
    # each cap's node counts are sized once, and its quadrature is built
    # from them without sampling the phase slope again
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return phi.gradient(pts)
    f, g = witnesses.trace_caps(3, 8)
    ext.domain_norm_ratio(f, g, dataclasses.replace(phi, gradient=counted), 2, 1,
                          Ball((0.0,) * 3, 8.0))
    assert len(calls) == 2


def test_domain_cap_bounds_the_work_each_path_does():
    # separable trace caps at R = 128 lay 1024^3 cells but reduce only
    # 1024^2 rows; the generic path over the same ball forms every cell
    f, g = witnesses.trace_caps(3, 128)
    r128 = ext.local_ratio(f, g, PHI3, 2, 1, 128).value
    r64 = ext.local_ratio(*witnesses.trace_caps(3, 64), PHI3, 2, 1, 64).value
    assert r128 / r64 == pytest.approx(2.0, rel=0.01)
    with pytest.raises(ext.OscillationGuardError, match="cells") as err:
        ext.local_ratio(f, g, perturbed_phase(2, 0.05), 2, 1, 128)
    assert err.value.exit_code == 3
    # 2^16 rows in each of 2^16 slabs is past the cap on the separable path
    f, g = witnesses.trace_caps(3, 8192)
    with pytest.raises(ext.OscillationGuardError, match="rows"):
        ext.local_ratio(f, g, PHI3, 2, 1, 8192)



@pytest.mark.parametrize("name", ["perturbed-R16", "c1-delta1/16"])
def test_runs_found_for_many_slabs_at_once_match_one_call_per_slab(name, monkeypatch):
    # domain_norm_ratio finds the runs of up to 2^16 rows in one row_intervals
    # call and slices them per slab block; finding them one slab at a time
    # gives the same ratio and stats, bit for bit
    calls = []

    def counted(domain, x_axes, t, axis):
        calls.append(len(t))
        return row_intervals(domain, x_axes, t, axis)

    def per_slab(domain, x_axes, t, axis):
        runs = [counted(domain, x_axes, t[i:i + 1], axis) for i in range(len(t))]
        return tuple(np.concatenate(v) for v in zip(*runs))

    q = PINNED[name][0]
    got = {}
    for finder in (counted, per_slab):
        monkeypatch.setattr(ext, "row_intervals", finder)
        got[finder] = [(ratio.hex(), stats) for ratio, stats in
                       (_pinned_call(name, s) for s in (q, np.inf))]
    assert got[per_slab] == got[counted]
    slabs = calls[0]  # every slab's runs in one call at the batched pass
    assert calls[:2] == [slabs, slabs] and calls[2:] == [1] * (2 * slabs)
