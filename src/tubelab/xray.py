"""Discretized tube transform X, its adjoint X*, the linear and bilinear
tube-maximal norm ratios, the inner-product constant, and the necessity
witness configurations.

Rasterization convention: a grid cell belongs to a tube iff its center does.
X, X* and geometry.Tube.contains test it with one expression, evaluated in
this order, so X and X* are adjoint cell by cell: (x_, x_n) is in T_omega^i
iff |x_n| <= 1 and sum_a ((x_a - x_n omega_a) - i_a)^2 <= delta^2.  In a
height slab a tube is that disc of cells.  X* (_adjoint_slabs, for xray_adjoint
and the bilinear product) keeps the discs near the box where its fields meet and
the grid lines in a disc window of every field, and bincounts blocks of slabs on
those live sub-grids; X sums each disc as one run per grid row (fields.row_runs)
of the slab's values.  The guard spacing <= delta/4 resolves the delta-wide
cross-section by at least four cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import TubelabError, fields, geometry
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
        if self.values.net != self.net:
            raise XrayError("values are indexed on a different net")

    def tubes(self):
        """(directions, bases, values) as arrays, one row per tube in
        (omega index, base index) order."""
        v = self.values
        return self.net.points[v.omega], self.net.points[v.base], v.values

    def norm_l1l1(self) -> float:
        """L^1_omega L^1_i with the normalized direction measure, summed in order."""
        return self.net.delta**self.net.dim * sum(self.values.values.tolist())


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
    _tube_sums sums the tubes of a block of directions over its rows, one
    run per row.  Tubes that meet no live cell are left out of the field."""
    delta = net.delta
    _check_spacing(f.spacing, delta)
    n = f.ndim
    if n - 1 != net.dim:
        raise XrayError("grid dimension does not match net")
    axes = [net.axis] * net.dim
    slabs = []  # (t, live box x-axes, its values with one zero column after each row)
    for t, v in zip(f.axis_centers(n - 1), np.moveaxis(_real_samples(f), -1, 0)):
        if abs(t) <= 1.0 and v.any():
            box = tuple(slice(k.min(), k.max() + 1) for k in np.nonzero(v))
            slabs.append((t, [f.axis_centers(a)[k] for a, k in enumerate(box)],
                          np.pad(v[box], [(0, 0)] * (n - 2) + [(0, 1)])))
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
    last axis, one run per row by fields.row_runs, each run summed directly
    (one add.reduceat), so a row may hold values of any range."""
    keys, sums = [], []
    for t, xs, vals in slabs:
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
        # (start, end) of each run; the zero column after each row keeps an end in vals
        bounds = row[:, None] * vals.shape[-1] + np.stack([lo, hi], -1)
        runs = np.add.reduceat(vals.reshape(-1), bounds.reshape(-1))[::2]
        keys.append(b * len(points) + k)
        sums.append(np.bincount(tube, np.where(lo < hi, runs, 0.0), minlength=len(b)))
    keys, slot = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(slot, np.concatenate(sums))
    return *np.divmod(keys[sums > 0], len(points)), sums[sums > 0]


def _disc_windows(shifts, bases, delta, axes, codes=None):
    """(inside, d2, flat) at the points g of disc k's searchsorted window in the
    grid spanned by axes (padded to the widest): d2 = sum_a ((g_a - shifts[k, a])
    - bases[k, a])^2 in axis order, inside = d2 <= delta^2, flat = g's index, or
    with codes (per axis: windows [lo, hi), table, row) the sum of g's lines'
    table[row[k] + line], where inside also needs each >= 0."""
    centers = bases + shifts
    d = len(axes)
    inside, d2, flat = np.ones((len(bases),) + (1,) * d, dtype=bool), 0.0, 0
    for a, ax in enumerate(axes):
        lo, hi, table, row = codes[a] if codes else (
            np.searchsorted(ax, centers[:, a] - delta - 1e-12),
            np.searchsorted(ax, centers[:, a] + delta + 1e-12), None, None)
        idx = lo[:, None] + np.arange((hi - lo).max(initial=0))
        shape = (len(bases),) + (1,) * a + (idx.shape[1],) + (1,) * (d - 1 - a)
        ok = idx < hi[:, None]
        idx = np.minimum(idx, len(ax) - 1)
        line = idx if codes is None else table[row[:, None] + idx]
        inside = inside & (ok if codes is None else ok & (line >= 0)).reshape(shape)
        dev = (ax[idx] - shifts[:, a, None]) - bases[:, a, None]
        d2 = d2 + (dev**2).reshape(shape)
        flat = (flat * len(ax) if codes is None else flat) + line.reshape(shape)
    return inside & (d2 <= delta**2), d2, flat


def _adjoint_slabs(fields, heights, x_axes, delta):
    """Yield (s, lines, sums) for each slab s (|heights[s]| <= 1) whose live
    sub-grid holds a cell: lines, per x-axis, are in a _disc_windows window of
    every field (XrayField.tubes arrays), near the box where all their discs
    meet; sums is X* of each field on the lines' product (weights bincounted in
    disc order), off which some field is 0.  Chunks of about 2^14 disc-centre
    coordinates and grid lines are cut at once; blocks of about 2^14 window
    entries plus cells are rasterized by one _disc_windows pass per field."""
    lens = [len(ax) for ax in x_axes]
    slabs = np.nonzero(np.abs(heights) <= 1.0)[0]
    chunk = max(1, (1 << 14) // (len(lens) * sum(len(f[1]) for f in fields) + sum(lens)))
    for c0 in range(0, len(slabs), chunk):
        ss = slabs[c0:c0 + chunk]
        yn = heights[ss]
        centres = [np.ascontiguousarray(b.T) + yn[:, None, None] * np.ascontiguousarray(om.T)
                   for om, b, _v in fields]  # (slab, axis, disc): fast reductions over discs
        lo = np.max([c.min(axis=2, initial=np.inf) for c in centres], axis=0) - delta - 1e-12
        hi = np.min([c.max(axis=2, initial=-np.inf) for c in centres], axis=0) + delta + 1e-12
        near, live = [], [np.ones((len(ss), m), dtype=bool) for m in lens]
        for c in centres:  # the (slab, disc) pairs near the box, and their windows per axis
            j, k = np.nonzero(np.all((c >= (lo - delta - 1e-12)[:, :, None])
                                     & (c <= (hi + delta + 1e-12)[:, :, None]), axis=1))
            ends = [(np.searchsorted(ax, c[j, a, k] - delta - 1e-12),
                     np.searchsorted(ax, c[j, a, k] + delta + 1e-12))
                    for a, ax in enumerate(x_axes)]
            near.append((j, k, ends))
            for mask, m, (w0, w1) in zip(live, lens, ends):  # a row's count is 0 again at m
                cover = np.bincount(j * (m + 1) + w0, None, len(ss) * (m + 1)) - np.bincount(
                    j * (m + 1) + w1, None, len(ss) * (m + 1))
                mask &= np.cumsum(cover).reshape(len(ss), m + 1)[:, :-1] > 0
        del centres, c, cover  # the windows and live lines are all the blocks need
        counts = np.array([mask.sum(axis=1) for mask in live])
        cells = counts.prod(axis=0)
        off = np.cumsum(cells) - cells  # each slab's first cell in the chunk's sub-grids
        strides = np.cumprod(np.vstack([np.ones_like(cells), counts[:0:-1]]), axis=0)[::-1]
        codes = [np.where(mask, (np.cumsum(mask, axis=1) - 1) * st[:, None]
                          + (a == 0) * off[:, None], -1).reshape(-1)
                 for a, (mask, st) in enumerate(zip(live, strides))]  # rank codes, -1 off live
        cost = cells + sum(np.bincount(j, math.prod(w1 - w0 for w0, w1 in ends), len(ss))
                           for j, _k, ends in near)
        block = (np.cumsum(cost) - cost) // (1 << 14)
        edges = [0, *(np.flatnonzero(np.diff(block)) + 1), len(ss)]
        for b0, b1 in zip(edges[:-1], edges[1:]):
            base, size, sums = off[b0], off[b1 - 1] + cells[b1 - 1] - off[b0], []
            for (j, k, ends), (om, b, v) in zip(near, fields) if size else ():
                i0, i1 = np.searchsorted(j, [b0, b1])
                j, k = j[i0:i1], k[i0:i1]
                win = [(w0[i0:i1], w1[i0:i1], t, j * m)
                       for (w0, w1), t, m in zip(ends, codes, lens)]
                inside, flat = _disc_windows(yn[j, None] * om[k], b[k], delta, x_axes, win)[::2]
                weights = np.broadcast_to(v[k].reshape((-1,) + (1,) * len(lens)), inside.shape)
                sums.append(np.bincount(flat[inside] - base, weights[inside], size))
                del inside, flat, weights  # before the next field's windows
            for r in b0 + np.nonzero(cells[b0:b1])[0]:
                yield (ss[r], [np.nonzero(mask[r])[0] for mask in live],
                       [x[off[r] - base:][:cells[r]].reshape(counts[:, r]) for x in sums])


def xray_adjoint(g: XrayField, grid: GridFunction) -> GridFunction:
    """X* g = sum over (omega, i) of g(omega, i) chi_tube, rasterized on the
    template grid (counting-measure form of the adjoint) by _adjoint_slabs."""
    _check_spacing(grid.spacing, g.delta)
    n = grid.ndim
    if n - 1 != g.net.dim:
        raise XrayError("grid dimension does not match net")
    x_axes = [grid.axis_centers(a) for a in range(n - 1)]
    out = np.zeros(grid.dims, dtype=float)
    for s, lines, (sums,) in _adjoint_slabs([g.tubes()], grid.axis_centers(n - 1),
                                            x_axes, g.delta):
        out[np.ix_(*lines) + (s,)] = sums
    return GridFunction(grid.origin, grid.spacing, out)


def _adjoint_product_norms(F: XrayField, G: XrayField, acc: LpAccumulator,
                           spacing: float):
    """|| X*F . X*G ||_s for each exponent s of acc, over a grid covering both
    tube unions, streamed into acc one height slab at a time (in box order)
    from _adjoint_slabs.  s = inf gives the sup; s = 1 the plain inner
    product integral."""
    delta, tubes = F.delta, [F.tubes(), G.tubes()]
    omegas, bases, _ = (np.concatenate(ab) for ab in zip(*tubes))
    lo = (bases - np.abs(omegas) - delta).min(axis=0, initial=np.inf) - spacing
    hi = (bases + np.abs(omegas) + delta).max(axis=0, initial=-np.inf) + spacing
    x_axes = [l + (np.arange(m) + 0.5) * spacing
              for l, m in zip(lo, np.ceil((hi - lo) / spacing).astype(int))]
    m_n = int(math.ceil(2.0 / spacing))
    cellvol = spacing ** F.net.dim * (2.0 / m_n)
    for _s, _lines, sums in _adjoint_slabs(tubes, -1.0 + (np.arange(m_n) + 0.5) * (2.0 / m_n),
                                           x_axes, delta):
        prod = np.multiply(*sums)
        if prod.max(initial=0.0) > 0:
            acc.add(prod[prod > 0])
    return {s: acc.norm(s, cellvol) for s in acc.running}


def kakeya_ratio(f: GridFunction, net: DirectionNet, p: float, q: float) -> float:
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
    return num / denom


def _check_pair(F: XrayField, G: XrayField):
    """Refuse F, G of different net dimensions or deltas, or off E1, E2."""
    if F.net.dim != G.net.dim or abs(F.delta - G.delta) > 1e-12:
        raise XrayError("fields must share a net dimension and delta")
    for field, allowed, name in ((F, F.net.e1_indices, "F"), (G, G.net.e2_indices, "G")):
        if not np.isin(field.values.omega, allowed).all():
            raise XrayError(f"{name} has direction support outside its set")


def bilinear_kakeya_ratios(F: XrayField, G: XrayField, pq_pairs):
    """|| X*F X*G ||_{p'/2} / (delta^{2 - 2n/p} ||F|| ||G||) for each (p, q),
    with the L^{q'}_omega L^1_i norms in the denominator.  The product field
    is rasterized once, at spacing delta/4, for all the exponent pairs."""
    _check_pair(F, G)
    n, delta = F.net.dim + 1, F.delta
    pairs = list(pq_pairs)
    exps = {(p, q): conjugate(p) / 2 for p, q in pairs}
    acc = LpAccumulator(exps.values())
    denoms = {}
    for p, q in pairs:
        norm_f, norm_g = (mixed_norm(h.values, conjugate(q), SUM_I) for h in (F, G))
        if norm_f == 0 or norm_g == 0:
            raise XrayError("zero denominator")
        denoms[(p, q)] = delta ** (2.0 - 2.0 * n / p) * norm_f * norm_g
    norms = _adjoint_product_norms(F, G, acc, delta / 4)
    return [norms[exps[(p, q)]] / denoms[(p, q)] for p, q in pairs]


@dataclass
class Prop111Result:
    grid_value: float
    pair_value: float

    @property
    def relative_gap(self) -> float:
        ref = max(self.grid_value, self.pair_value)
        return abs(self.grid_value - self.pair_value) / ref if ref else 0.0


def prop111_constant(F: XrayField, G: XrayField,
                     spacing: Optional[float] = None) -> Prop111Result:
    """<X*F, X*G> normalized by delta^{2-n} ||F||_{L1 L1} ||G||_{L1 L1},
    computed two ways: a grid inner product and the exact tube-pair sum
    sum F G |T cap T'| (cross-section overlaps, of the pairs whose axes come
    within 2 delta + 1e-9 over |x_n| <= 1: the rest add 0.0); n is 2 or 3."""
    _check_pair(F, G)
    n, delta = F.net.dim + 1, F.delta
    if n not in (2, 3):
        raise XrayError(f"the exact tube-pair sum takes n in {{2, 3}}, not n = {n}")
    if spacing is None:
        spacing = delta / 8
    _check_spacing([spacing], delta)
    denom = delta ** (2.0 - n) * F.norm_l1l1() * G.norm_l1l1()
    if denom == 0:
        raise XrayError("zero denominator")
    inner = _adjoint_product_norms(F, G, LpAccumulator([1.0]), spacing)[1.0]
    (w1, b1, v1), (w2, b2, v2) = F.tubes(), G.tubes()
    gap, slope = b1[:, None] - b2, w1[:, None] - w2  # axis gap + t slope at x_n = t
    t = np.clip(-np.sum(gap * slope, axis=2) / np.maximum(np.sum(slope**2, axis=2), 1e-300), -1, 1)
    meet = np.sum((gap + t[..., None] * slope) ** 2, axis=2) <= (2 * delta + 1e-9) ** 2
    pair_sum = 0.0
    for f, g in zip(*np.nonzero(meet)):  # in F-major order, as the full double loop
        pair_sum += float(v1[f] * v2[g] * tube_intersection_exact(
            Tube(tuple(w1[f]), tuple(b1[f]), delta), Tube(tuple(w2[g]), tuple(b2[g]), delta)))
    return Prop111Result(inner / denom, pair_sum / denom)


# ---------------------------------------------------------------------------
# necessity witnesses

K0_DELTAS = "k0-deltas"
K1_SLAB = "k1-slab"
DELTA_BALL = "delta-ball"

#: grid cells per delta across the delta-ball input
BALL_RESOLUTION = 8


#: kind -> predicted(n, p, q): the delta-exponent the configuration's ratio
#: should follow, >= 0 exactly when the corresponding feasibility condition
#: holds.  The delta-ball saturates the delta^{1 - n/p} normalization.
PREDICTED_EXPONENTS = {
    K0_DELTAS: lambda n, p, q: 2.0 * n / p - 2.0,
    K1_SLAB: lambda n, p, q: 2.0 * ((n - 2) / q + 2.0 / p - 1.0),
    DELTA_BALL: lambda n, p, q: 0.0,
}


def kakeya_witness(kind: str, n: int, delta: float):
    """The fields (F, G) of a necessity configuration: point-base direction
    bushes (k0, F at the origin and G at the net point nearest the apex
    -3/4 e_1) or coplanar-direction slabs (k1).  The kind's exponent is its
    PREDICTED_EXPONENTS entry."""
    net = geometry.build_net(n, delta)

    def field_from(omega_indices, base_idx):
        return XrayField(net, delta, NetFunction(
            net, dict.fromkeys(((w, base_idx) for w in omega_indices), 1.0)))

    if kind == K0_DELTAS:
        # bushes crossing at height 3/4: the tubes from the origin along
        # -e_1/2 and from the analytic apex -3/4 e_1 along +e_1/2 meet there
        apex = net.nearest_index([-0.75] + [0.0] * (net.dim - 1))
        F = field_from(net.e1_indices, net.nearest_index(np.zeros(net.dim)))
        G = field_from(net.e2_indices, apex)
    elif kind == K1_SLAB:
        in_slab = np.all(np.abs(net.points[:, 1:]) <= delta + 1e-12, axis=1)
        e1 = net.e1_indices[in_slab[net.e1_indices]]
        e2 = net.e2_indices[in_slab[net.e2_indices]]
        rest = [0.0] * (net.dim - 1)
        F = field_from(e1, net.nearest_index([+0.5] + rest))
        G = field_from(e2, net.nearest_index([-0.5] + rest))
    else:
        raise XrayError(f"unknown witness kind {kind!r}")
    return F, G


def delta_ball_ratio(n: int, p: float, q: float, delta: float) -> float:
    """Tube-maximal ratio for the delta-ball input, the sharpness witness
    for the delta^{1 - n/p} normalization."""
    net = geometry.build_net(n, delta)
    h = delta / BALL_RESOLUTION
    pad = delta + 2 * h

    def sampler(pts):
        return (np.sum(pts * pts, axis=1) <= delta**2).astype(complex)

    m = int(math.ceil(2 * pad / h))
    f = fields.grid_from_sampler(sampler, [-pad] * n, [pad] * n, [m] * n)
    return kakeya_ratio(f, net, p, q)


def run_kakeya_sweep(kind: str, n: int, p: float, q: float, deltas):
    """The (delta, ratio) rows of a witness family across delta; the fit
    against PREDICTED_EXPONENTS[kind] is left to the caller (see witnesses)."""
    rows, _preds = run_kakeya_sweep_multi(kind, n, [(p, q)], deltas)
    return rows[(p, q)]


def run_kakeya_sweep_multi(kind: str, n: int, pq_pairs, deltas):
    """Like run_kakeya_sweep for several exponent pairs at once.  Per delta,
    the bilinear witness is built and its product field rasterized once for
    all pairs; the delta-ball transform runs once per (p, q) pair."""
    if kind not in PREDICTED_EXPONENTS:
        raise XrayError(f"unknown witness kind {kind!r}")
    pairs = list(pq_pairs)
    rows = {pq: [] for pq in pairs}
    for delta in sorted(deltas):
        if kind == DELTA_BALL:
            ratios = [delta_ball_ratio(n, p, q, delta) for p, q in pairs]
        else:
            F, G = kakeya_witness(kind, n, delta)
            ratios = bilinear_kakeya_ratios(F, G, pairs)
        for pq, ratio in zip(pairs, ratios):
            rows[pq].append((delta, ratio))
    preds = {(p, q): PREDICTED_EXPONENTS[kind](n, p, q) for p, q in pairs}
    return rows, preds
