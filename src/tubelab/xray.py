"""Discretized tube transform X, its adjoint X*, the linear and bilinear
tube-maximal norm ratios, the inner-product constant, and the necessity
witness configurations.

Rasterization convention: a grid cell belongs to a tube iff its center does.
X, X* and geometry.Tube.contains test it with one expression, evaluated in
this order, so X and X* are adjoint cell by cell: (x_, x_n) is in T_omega^i
iff |x_n| <= 1 and sum_a ((x_a - x_n omega_a) - i_a)^2 <= delta^2.  In a
height slab a tube is that disc of cells.  X* rasterizes the discs (_disc_sums)
only inside each slab's intersection box of its fields' discs (_slab_sums, one
helper for xray_adjoint and the bilinear product); X gathers each disc as one run
per grid row (fields.row_runs) from row prefix sums.  The guard spacing <=
delta/4 resolves the delta-wide cross-section by at least four cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import TubelabError
from .fields import (GridFunction, LpAccumulator, NetFunction, SUM_I, SUP_I,
                     check_exponent, conjugate, lp_norm, mixed_norm, row_runs)
from .geometry import DirectionNet, Tube, tube_intersection_exact

class XrayError(TubelabError):
    pass


@dataclass
class XrayField:
    net: DirectionNet
    delta: float
    values: NetFunction

    def __post_init__(self):
        if abs(self.delta - self.net.delta) > 1e-12:
            raise XrayError("delta does not match the net")

    def tubes(self):
        """(directions, bases, values) as arrays, one row per tube in
        (omega index, base index) order."""
        v = self.values
        return self.net.points[v.omega], self.net.points[v.base], v.values

    def norm_l1l1(self) -> float:
        """L^1_omega L^1_i with the normalized direction measure, summed in order."""
        return self.net.delta**self.net.dim * sum(self.values.values.tolist())

    def to_json(self) -> dict:
        return {"delta": float(self.delta), "values": self.values.to_json()}


@dataclass
class KakeyaRatio:
    p: float
    q: float
    delta: float
    value: float
    bilinear: bool

    def __post_init__(self):
        if self.value < 0:
            raise XrayError("ratio must be nonnegative")


def _check_spacing(spacing, delta):
    if not 0 < min(spacing) <= max(spacing) <= delta / 4 + 1e-12:
        raise XrayError(
            f"grid spacing {list(spacing)} outside (0, delta/4 = {delta / 4}]"
        )


def _real_samples(f: GridFunction) -> np.ndarray:
    """The samples of f, which X needs real, finite and nonnegative."""
    vals = np.real(f.samples)
    if np.any(np.imag(f.samples) != 0) or not np.all((vals >= 0) & (vals < np.inf)):
        raise XrayError("X takes finite nonnegative real input; f has complex, "
                        "negative or non-finite samples")
    return vals


def xray_transform(f: GridFunction, net: DirectionNet) -> XrayField:
    """X f(omega, i) = delta^{1-n} * (midpoint quadrature of f over the tube).

    Each slab x_n = t (|t| <= 1) of f is cut to the box of its live cells;
    _tube_sums gathers the tubes of a block of directions from its row
    prefix sums.  Tubes that meet no live cell are left out of the field."""
    delta = net.delta
    _check_spacing(f.spacing, delta)
    n = f.ndim
    if n - 1 != net.dim:
        raise XrayError("grid dimension does not match net")
    axes = [np.unique(net.points[:, a]) for a in range(net.dim)]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    if not np.array_equal(lattice.reshape(-1, net.dim), net.points):
        raise XrayError("net points are not the full product of their axes "
                        "in lexicographic order")
    slabs = []  # (t, live box x-axes, row prefix sums of multiples of unit and of the rest)
    for t, v in zip(f.axis_centers(n - 1), np.moveaxis(_real_samples(f), -1, 0)):
        if abs(t) <= 1.0 and v.any():
            box = tuple(slice(k.min(), k.max() + 1) for k in np.nonzero(v))
            v = v[box]  # unit: 2^-52 of a power of two above v.sum(), so its multiples add exactly
            rest = np.fmod(v, np.ldexp(1.0, max(np.frexp(v.sum())[1] - 52, -1022)))
            slabs.append((t, [f.axis_centers(a)[k] for a, k in enumerate(box)], np.cumsum(
                np.pad(np.stack([v - rest, rest]), [(0, 0)] * (n - 1) + [(1, 0)]), -1)))
    if not slabs:  # no live cell: every tube vanishes
        return XrayField(net, delta, NetFunction(net, {}))
    scale, parts = delta ** (1 - n) * f.cell_measure, []
    for w in range(0, len(net.points), 64):  # blocks of directions
        b, base, sums = _tube_sums(slabs, net.points[w:w + 64], net.points, axes, delta)
        parts.append((b + w, base, sums * scale))
    return XrayField(net, delta, NetFunction.from_arrays(net, *map(np.concatenate, zip(*parts))))


def _tube_sums(slabs, omegas, points, axes, delta):
    """(row of omegas, index into points, sum) of the tubes (omega, i) with a
    nonzero sum over the slabs of xray_transform, among the bases whose disc
    can meet a slab's box.  Slab t meets the tube in X's disc sum_a ((x_a -
    t omega_a) - i_a)^2 <= delta^2: rows by _disc_windows over all but the
    last axis, one run per row by fields.row_runs, summed by prefix sums."""
    keys, sums = [], []
    for t, xs, prefix in slabs:
        mid, half = np.array([[(x[0] + x[-1]) / 2, (x[-1] - x[0]) / 2] for x in xs]).T
        cand, _, flat = _disc_windows(-t * omegas, np.broadcast_to(mid, omegas.shape),
                                      delta + 1e-12 + np.hypot.reduce(half), axes)
        b, k = np.nonzero(cand)[0], np.broadcast_to(flat, cand.shape)[cand]
        near = np.all(np.abs(points[k] + t * omegas[b] - mid) <= half + delta + 1e-12, axis=1)
        b, k = b[near], k[near]
        base, sh = points[k], t * omegas[b]
        ok, d2, row = _disc_windows(sh[:, :-1], base[:, :-1], delta, xs[:-1])
        tube = np.nonzero(ok)[0]
        d2, row = np.broadcast_to(d2, ok.shape)[ok], np.broadcast_to(row, ok.shape)[ok]
        lo, hi = row_runs(xs[-1], base[tube, -1] + sh[tube, -1], np.sqrt(delta**2 - d2),
                          lambda x: d2 + ((x - sh[tube, -1]) - base[tube, -1]) ** 2 <= delta**2)
        ends = prefix.reshape(2, -1)[:, row[:, None] * prefix.shape[-1] + np.stack([lo, hi], -1)]
        keys.append(b * len(points) + k)
        sums.append(np.bincount(tube, np.diff(ends).sum(axis=0)[:, 0], minlength=len(b)))
    keys, slot = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(slot, np.concatenate(sums))
    return *np.divmod(keys[sums > 0], len(points)), sums[sums > 0]


def _disc_windows(shifts, bases, delta, axes):
    """(inside, d2, flat) at the points g of disc k's searchsorted window in the
    grid spanned by axes (padded to the widest): d2 = sum_a ((g_a - shifts[k, a])
    - bases[k, a])^2 in axis order, inside = d2 <= delta^2, flat = g's index."""
    centers = bases + shifts
    d = len(axes)
    inside, d2, flat = np.ones((len(bases),) + (1,) * d, dtype=bool), 0.0, 0
    for a, ax in enumerate(axes):
        lo = np.searchsorted(ax, centers[:, a] - delta - 1e-12)
        hi = np.searchsorted(ax, centers[:, a] + delta + 1e-12)
        idx = lo[:, None] + np.arange((hi - lo).max(initial=0))
        shape = (len(bases),) + (1,) * a + (idx.shape[1],) + (1,) * (d - 1 - a)
        inside = inside & (idx < hi[:, None]).reshape(shape)
        idx = np.minimum(idx, len(ax) - 1)
        dev = (ax[idx] - shifts[:, a, None]) - bases[:, a, None]
        d2 = d2 + (dev**2).reshape(shape)
        flat = flat * len(ax) + idx.reshape(shape)
    return inside & (d2 <= delta**2), d2, flat


def _disc_sums(shifts, bases, values, delta, axes):
    """sum_k values[k] [disc k of _disc_windows holds g] at each point g of the grid
    spanned by axes, in disc order (X* passes y_n omega and i at each height)."""
    inside, _d2, flat = _disc_windows(shifts, bases, delta, axes)
    dims = tuple(len(ax) for ax in axes)
    weights = np.broadcast_to(values.reshape((-1,) + (1,) * len(axes)), inside.shape)
    return np.bincount(np.broadcast_to(flat, inside.shape)[inside],
                       weights[inside], math.prod(dims)).reshape(dims)


def _slab_sums(fields, yn, x_axes, delta):
    """(box, sums): X* at height yn of each of fields (XrayField.tubes arrays) by
    _disc_sums on the x_axes cells in box, the slices within delta of disc centres
    of every field, or None if box holds no cell or |yn| > 1.  The tubes near box
    keep their order, so its cells get their whole-grid sums; outside it some field is 0."""
    centres = [b + yn * om for om, b, _v in fields]
    lo = np.max([c.min(axis=0, initial=np.inf) for c in centres], axis=0) - delta - 1e-12
    hi = np.min([c.max(axis=0, initial=-np.inf) for c in centres], axis=0) + delta + 1e-12
    box = tuple(slice(*np.searchsorted(ax, [l, h], side="right"))
                for ax, l, h in zip(x_axes, lo, hi))
    axes = [ax[k] for ax, k in zip(x_axes, box)]
    if abs(yn) > 1.0 or min(map(len, axes)) == 0:
        return box, None
    near = [np.all((c >= lo - delta - 1e-12) & (c <= hi + delta + 1e-12), axis=1)
            for c in centres]
    return box, [_disc_sums(yn * om[k], b[k], v[k], delta, axes)
                 for (om, b, v), k in zip(fields, near)]


def xray_adjoint(g: XrayField, grid: GridFunction) -> GridFunction:
    """X* g = sum over (omega, i) of g(omega, i) chi_tube, rasterized on the
    template grid (counting-measure form of the adjoint) by _slab_sums."""
    _check_spacing(grid.spacing, g.delta)
    n = grid.ndim
    if n - 1 != g.net.dim:
        raise XrayError("grid dimension does not match net")
    x_axes = [grid.axis_centers(a) for a in range(n - 1)]
    tubes, out = g.tubes(), np.zeros(grid.dims, dtype=float)
    for s, yn in enumerate(grid.axis_centers(n - 1)):
        box, sums = _slab_sums([tubes], yn, x_axes, g.delta)
        if sums:
            out[box + (s,)] = sums[0]
    return GridFunction(grid.dims, grid.origin, grid.spacing, out)


def _adjoint_product_norms(F: XrayField, G: XrayField, acc: LpAccumulator,
                           spacing: float):
    """|| X*F . X*G ||_s for each exponent s of acc, over a grid covering both
    tube unions, streamed into acc by _slab_sums of F and G in each height
    slab.  s = inf gives the sup; s = 1 the plain inner product integral."""
    delta, tubes = F.delta, [F.tubes(), G.tubes()]
    omegas, bases, _ = (np.concatenate(ab) for ab in zip(*tubes))
    lo = (bases - np.abs(omegas) - delta).min(axis=0, initial=np.inf) - spacing
    hi = (bases + np.abs(omegas) + delta).max(axis=0, initial=-np.inf) + spacing
    x_axes = [l + (np.arange(m) + 0.5) * spacing
              for l, m in zip(lo, np.ceil((hi - lo) / spacing).astype(int))]
    m_n = int(math.ceil(2.0 / spacing))
    cellvol = spacing ** F.net.dim * (2.0 / m_n)
    for yn in -1.0 + (np.arange(m_n) + 0.5) * (2.0 / m_n):
        sums = _slab_sums(tubes, yn, x_axes, delta)[1]
        prod = np.multiply(*sums) if sums else np.zeros(0)
        if prod.max(initial=0.0) > 0:
            acc.add(prod[prod > 0])
    return {s: acc.norm(s, cellvol) for s in [*acc.sums, np.inf]}


def kakeya_ratio(f: GridFunction, net: DirectionNet, p: float, q: float) -> KakeyaRatio:
    """|| Xf ||_{L^q_omega L^inf_i} / (delta^{1 - n/p} ||f||_p); q and f
    are checked before the transform runs."""
    check_exponent(q)
    _real_samples(f)
    denom_f = lp_norm(f, p)
    if denom_f == 0:
        raise XrayError("||f||_p = 0")
    xf = xray_transform(f, net)
    num = mixed_norm(xf.values, q, SUP_I)
    denom = net.delta ** (1.0 - f.ndim / p) * denom_f
    return KakeyaRatio(p=p, q=q, delta=net.delta, value=num / denom, bilinear=False)


def _check_pair(F: XrayField, G: XrayField):
    """Refuse F, G of different net dimensions or deltas, or off E1, E2."""
    if F.net.dim != G.net.dim or abs(F.delta - G.delta) > 1e-12:
        raise XrayError("fields must share a net dimension and delta")
    for field, allowed, name in ((F, F.net.e1_indices, "F"), (G, G.net.e2_indices, "G")):
        if not np.isin(field.values.omega, allowed).all():
            raise XrayError(f"{name} has direction support outside its set")


def bilinear_kakeya_ratios(F: XrayField, G: XrayField, pq_pairs,
                           spacing: Optional[float] = None):
    """|| X*F X*G ||_{p'/2} / (delta^{2 - 2n/p} ||F|| ||G||) for each (p, q),
    with the L^{q'}_omega L^1_i norms in the denominator.  The rasterized
    product field is shared across the exponent pairs."""
    _check_pair(F, G)
    n, delta = F.net.dim + 1, F.delta
    if spacing is None:
        spacing = delta / 4
    _check_spacing([spacing], delta)
    pairs = list(pq_pairs)
    exps = {(p, q): conjugate(p) / 2 for p, q in pairs}
    acc = LpAccumulator(exps.values())
    denoms = {}
    for p, q in pairs:
        norm_f, norm_g = (mixed_norm(h.values, conjugate(q), SUM_I) for h in (F, G))
        if norm_f == 0 or norm_g == 0:
            raise XrayError("zero denominator")
        denoms[(p, q)] = delta ** (2.0 - 2.0 * n / p) * norm_f * norm_g
    norms = _adjoint_product_norms(F, G, acc, spacing)
    return [KakeyaRatio(p=p, q=q, delta=delta,
                        value=norms[exps[(p, q)]] / denoms[(p, q)], bilinear=True)
            for p, q in pairs]


@dataclass
class Prop111Result:
    grid_value: float
    pair_value: float
    delta: float

    @property
    def relative_gap(self) -> float:
        ref = max(self.grid_value, self.pair_value)
        return abs(self.grid_value - self.pair_value) / ref if ref else 0.0


def prop111_constant(F: XrayField, G: XrayField,
                     spacing: Optional[float] = None) -> Prop111Result:
    """<X*F, X*G> normalized by delta^{2-n} ||F||_{L1 L1} ||G||_{L1 L1},
    computed two ways: a grid inner product and the exact tube-pair sum
    sum F G |T cap T'| (cross-section overlap integrals)."""
    _check_pair(F, G)
    n, delta = F.net.dim + 1, F.delta
    if spacing is None:
        spacing = delta / 8
    _check_spacing([spacing], delta)
    denom = delta ** (2.0 - n) * F.norm_l1l1() * G.norm_l1l1()
    if denom == 0:
        raise XrayError("zero denominator")
    inner = _adjoint_product_norms(F, G, LpAccumulator([1.0]), spacing)[1.0]
    pair_sum = 0.0
    tubes_g = [(Tube(tuple(w), tuple(b), delta), v) for w, b, v in zip(*G.tubes())]
    for omega1, base1, v1 in zip(*F.tubes()):
        t1 = Tube(tuple(omega1), tuple(base1), delta)
        for t2, v2 in tubes_g:  # a zero volume adds 0.0, which leaves pair_sum as it is
            pair_sum += float(v1 * v2 * tube_intersection_exact(t1, t2, n))
    return Prop111Result(inner / denom, pair_sum / denom, delta)


# ---------------------------------------------------------------------------
# necessity witnesses

K0_DELTAS = "k0-deltas"
K1_SLAB = "k1-slab"
BUSH = "bush"
DELTA_BALL = "delta-ball"

#: grid cells per delta across the delta-ball input
BALL_RESOLUTION = 8


def _bush_exponent(n: int, p: float, q: float) -> float:
    return 2.0 * n / p - 2.0


#: kind -> predicted(n, p, q): the delta-exponent the configuration's ratio
#: should follow, >= 0 exactly when the corresponding feasibility condition
#: holds.  The delta-ball saturates the delta^{1 - n/p} normalization.
PREDICTED_EXPONENTS = {
    K0_DELTAS: _bush_exponent,
    K1_SLAB: lambda n, p, q: 2.0 * ((n - 2) / q + 2.0 / p - 1.0),
    BUSH: _bush_exponent,
    DELTA_BALL: lambda n, p, q: 0.0,
}


def _bush_cover_score(net: DirectionNet, base1, base2) -> int:
    """Probe-count of points inside both continuum direction cones.

    The score is deliberately independent of delta so that the chosen apex
    is stable across scales of a sweep."""
    dim = net.dim
    probes_axis = np.linspace(-1.2, 1.2, 25)
    t_axis = np.linspace(0.05, 1.0, 20)
    mesh = np.meshgrid(*([probes_axis] * dim + [t_axis]), indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, dim + 1)
    x_, t = pts[:, :-1], pts[:, -1]
    both = np.ones(len(pts), dtype=bool)
    for base, center1 in ((base1, -0.5), (base2, +0.5)):
        ratio = (x_ - np.asarray(base)) / t[:, None]
        ok = np.abs(ratio[:, 0] - center1) <= 0.25
        for a in range(1, dim):
            ok &= np.abs(ratio[:, a]) <= 0.25
        both &= ok
    return int(np.count_nonzero(both))


def kakeya_witness(kind: str, n: int, delta: float):
    """The necessity configurations: point-base direction bushes (k0),
    coplanar-direction slabs (k1), and the diagnostic bush.

    Returns (F, G, predicted) where predicted(p, q) is the kind's entry of
    PREDICTED_EXPONENTS at this n.
    """
    from .geometry import build_net

    net = build_net(n, delta)
    origin_idx = net.nearest_index(np.zeros(net.dim))

    def field_from(omega_indices, base_idx):
        return XrayField(net, delta, NetFunction(
            net, dict.fromkeys(((w, base_idx) for w in omega_indices), 1.0)))

    if kind == K0_DELTAS:
        # bushes crossing at height ~ 3/4: base separation matching the
        # direction separation, refined over a coarse candidate lattice.
        # Restricting candidates to the 1/8-sublattice keeps the choice
        # identical across the deltas of a sweep.
        coarse = max(delta, 0.125)
        seed = [-0.75] + [0.0] * (net.dim - 1)
        lattice = net.points / coarse
        on_coarse = np.all(np.abs(lattice - np.round(lattice)) < 1e-9, axis=1)
        near = np.linalg.norm(net.points - seed, axis=1) <= 0.3
        cands = np.nonzero(on_coarse & near)[0]
        best = max(cands, key=lambda i: _bush_cover_score(
            net, np.zeros(net.dim), net.points[i]))
        F = field_from(net.e1_indices, origin_idx)
        G = field_from(net.e2_indices, best)
    elif kind == K1_SLAB:
        in_slab = np.all(np.abs(net.points[:, 1:]) <= delta + 1e-12, axis=1)
        e1 = net.e1_indices[in_slab[net.e1_indices]]
        e2 = net.e2_indices[in_slab[net.e2_indices]]
        rest = [0.0] * (net.dim - 1)
        F = field_from(e1, net.nearest_index([+0.5] + rest))
        G = field_from(e2, net.nearest_index([-0.5] + rest))
    elif kind == BUSH:
        F = field_from(net.e1_indices, origin_idx)
        G = field_from(net.e2_indices, origin_idx)
    else:
        raise XrayError(f"unknown witness kind {kind!r}")
    return F, G, functools.partial(PREDICTED_EXPONENTS[kind], n)


def delta_ball_ratio(n: int, p: float, q: float, delta: float) -> KakeyaRatio:
    """Tube-maximal ratio for the delta-ball input, the sharpness witness
    for the delta^{1 - n/p} normalization."""
    from .geometry import build_net
    from .fields import grid_from_sampler

    net = build_net(n, delta)
    h = delta / BALL_RESOLUTION
    pad = delta + 2 * h

    def sampler(pts):
        return (np.sum(pts * pts, axis=1) <= delta**2).astype(complex)

    m = int(math.ceil(2 * pad / h))
    f = grid_from_sampler(sampler, [-pad] * n, [pad] * n, [m] * n)
    return kakeya_ratio(f, net, p, q)


def run_kakeya_sweep(kind: str, n: int, p: float, q: float, deltas):
    """Ratio observations across delta for a witness family, with the
    predicted exponent; fitting is left to the caller (see witnesses)."""
    rows, preds = run_kakeya_sweep_multi(kind, n, [(p, q)], deltas)
    return rows[(p, q)], preds[(p, q)]


def run_kakeya_sweep_multi(kind: str, n: int, pq_pairs, deltas):
    """Like run_kakeya_sweep for several exponent pairs at once; the witness
    construction and rasterization are shared per delta."""
    if kind not in PREDICTED_EXPONENTS:
        raise XrayError(f"unknown witness kind {kind!r}")
    pairs = list(pq_pairs)
    rows = {pq: [] for pq in pairs}
    for delta in sorted(deltas):
        if kind == DELTA_BALL:
            ratios = [delta_ball_ratio(n, p, q, delta) for p, q in pairs]
        else:
            F, G, _pred = kakeya_witness(kind, n, delta)
            ratios = bilinear_kakeya_ratios(F, G, pairs)
        for pq, ratio in zip(pairs, ratios):
            rows[pq].append((delta, ratio.value))
    preds = {(p, q): PREDICTED_EXPONENTS[kind](n, p, q) for p, q in pairs}
    return rows, preds
