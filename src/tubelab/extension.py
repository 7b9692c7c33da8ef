"""Adjoint-restriction fields for elliptic phases: scattered-point
evaluation, bilinear norm ratios over localized domains, the annulus
reformulation, and the rotational-curvature determinant.

All quadrature is midpoint rule on the cap's support box, held by one
_CapQuadrature per cap for both scattered points and domain grids.  Its node
counts come from required_grid_counts, the one sizing rule (the per-axis
oscillation guard); evaluate_extension is the one place that checks counts
a caller passes in.  A cap is the indicator of a box, so the phase alone
decides the evaluator.  For the quadratic phase the integral factors per
axis (one complex GEMM per axis), so a domain norm sums each grid row of a
slab as one run of cells (fields.row_intervals) from prefix sums of the row
factor, without forming the slab: O(rows) work per slab for a finite q,
plus one range max per run at q = inf.  That is what makes large-scale
sweeps affordable.  Any other phase forms slabs only over each block's live
box (one GEMM per support axis).
The annulus transform is one contraction per axis of the product grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import TubelabError
from .fields import (Ball, GridFunction, LpAccumulator, lp, lp_norm,
                     row_intervals)
from .geometry import EllipticPhase, _is_int, product_grid, quadratic_phase

TWO_PI = 2.0 * math.pi

#: evaluation-domain sampling step; the fields are band-limited to the
#: unit-scale frequency box Q x Phi(Q), so this need not shrink with R
DOMAIN_SPACING = 0.25

#: fail-fast resource caps (quadrature nodes per axis; domain rows, or
#: bounding-box cells where the slab field is formed)
MAX_GRID_NODES = 1 << 17
MAX_DOMAIN_CELLS = 1 << 28


class ExtensionError(TubelabError):
    pass


class OscillationGuardError(ExtensionError):
    """Grid too coarse to resolve the integrand oscillation."""

    exit_code = 3


@dataclass
class CapFunction:
    """Indicator of a sub-box of Q, optionally modulated by
    e^{-2 pi i x0 . (y, Phi(y))} with x0 finite in R^n, n = dim + 1."""

    support_lo: tuple
    support_hi: tuple
    modulation: Optional[tuple] = None

    def __post_init__(self):
        lo = np.asarray(self.support_lo, dtype=float)
        hi = np.asarray(self.support_hi, dtype=float)
        if lo.shape != hi.shape or not np.all(lo < hi):  # refuses NaN bounds
            raise ExtensionError("bad support box")
        if np.any(lo < -1.0 - 1e-12) or np.any(hi > 1.0 + 1e-12):
            raise ExtensionError("support must lie inside Q = [-1,1]^{n-1}")
        if self.modulation is not None:
            x0 = np.asarray(self.modulation, dtype=float)
            if x0.shape != (self.dim + 1,) or not np.all(np.isfinite(x0)):
                raise ExtensionError(f"modulation must be a finite vector in R^{self.dim + 1}")

    @property
    def dim(self) -> int:
        return len(self.support_lo)

    @property
    def measure(self) -> float:
        return float(np.prod(np.asarray(self.support_hi) - np.asarray(self.support_lo)))

    def modulation_vector(self) -> np.ndarray:
        if self.modulation is None:
            return np.zeros(self.dim + 1)
        return np.asarray(self.modulation, dtype=float)

    def nodes(self, grid_counts):
        """Per-axis midpoint nodes and steps; the cell weight is the steps'
        product."""
        counts = np.broadcast_to(np.asarray(grid_counts, dtype=int), (self.dim,))
        steps = [(hi - lo) / m for lo, hi, m in
                 zip(self.support_lo, self.support_hi, counts)]
        axes = [lo + (np.arange(m) + 0.5) * h
                for lo, m, h in zip(self.support_lo, counts, steps)]
        return axes, steps

    def norm_lp(self, p: float) -> float:
        """||f||_p, exact: the modulation has modulus one."""
        return lp([1.0], p, self.measure)


def _refuse_above_cap(nodes):
    if not np.all(nodes <= MAX_GRID_NODES):  # also refuses NaN
        raise OscillationGuardError(
            f"quadrature needs {[f'{v:.6g}' for v in nodes]} nodes per support "
            f"axis, above the {MAX_GRID_NODES} cap; shrink the scale range")


def required_grid_counts(cap: CapFunction, phi: EllipticPhase, points,
                         min_nodes: int = 16) -> np.ndarray:
    """Nodes per support axis, at least min_nodes (an integer >= 1), that
    leave no cell more than a quarter period of the integrand at `points`,
    one row per point set of a stack (..., m, n): ceil(4 L_a max(f_a, F)) on
    an axis of length L_a, with g_a = max|d_a Phi| (sampled at 5 points per
    axis), f_a = max|x_a| + max|x_n| g_a and F = max(max|x_|, max|x_n| |g|).
    A need, or a count, above MAX_GRID_NODES raises OscillationGuardError;
    a phase or points of another dimension than the cap's, ExtensionError."""
    if not _is_int(min_nodes) or min_nodes < 1:
        raise ExtensionError(f"min_nodes must be an integer >= 1, got {min_nodes!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not phi.dim == cap.dim == pts.shape[-1] - 1:
        raise ExtensionError(f"a cap of dimension {cap.dim} with a phase of dimension "
                             f"{phi.dim} at {pts.shape[-1]}-D points")
    eff = pts + cap.modulation_vector()
    xmax = np.max(np.abs(eff[..., :-1]), axis=-2)
    tmax = np.max(np.abs(eff[..., -1]), axis=-1)[..., None]
    mesh = product_grid([np.linspace(lo, hi, 5)
                         for lo, hi in zip(cap.support_lo, cap.support_hi)])
    gmax = np.max(np.abs(phi.grad(mesh)), axis=0)
    lengths = np.subtract(cap.support_hi, cap.support_lo, dtype=float)
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        freq_global = np.maximum(np.max(xmax, axis=-1, keepdims=True),
                                 tmax * np.sqrt(np.sum(gmax * gmax)))
        need = 4.0 * lengths * np.maximum(xmax + tmax * gmax, freq_global)
    _refuse_above_cap(need.reshape(-1, cap.dim).max(axis=0))
    counts = np.maximum(min_nodes, np.ceil(need))  # float: a huge floor cannot overflow
    _refuse_above_cap(counts.reshape(-1, cap.dim).max(axis=0))
    return counts.astype(int)


class _CapQuadrature:
    """Midpoint quadrature of the extension integral of one cap with the
    given per-axis node counts, which the caller sizes or checks
    (required_grid_counts).

    The modulation x0 enters only as the point shift x -> x + x0.  For the
    quadratic phase the tensor sum factors per axis and is evaluated that
    way; otherwise the node mesh carries Phi and the node weight."""

    def __init__(self, cap: CapFunction, phi: EllipticPhase, counts):
        self.y_axes, self.steps = cap.nodes(counts)
        self.x0 = cap.modulation_vector()
        self.separable = phi.tag == "quadratic"
        if not self.separable:
            self.mesh = product_grid(self.y_axes)
            self.phase_vals = phi(self.mesh)
            # per node, not a scalar: scaling the summed terms rounds otherwise
            self.weights = np.full(len(self.mesh), math.prod(self.steps), dtype=complex)

    def at_points(self, pts: np.ndarray) -> np.ndarray:
        """Field values at scattered points (m, n)."""
        eff = pts + self.x0
        if self.separable:
            out = np.ones(pts.shape[0], dtype=complex)
            for a, (y, h) in enumerate(zip(self.y_axes, self.steps)):
                phase = np.outer(eff[:, a], y) + 0.5 * np.outer(eff[:, -1], y * y)
                out *= np.exp(-TWO_PI * 1j * phase).sum(axis=1) * h
            return out
        out = np.empty(pts.shape[0], dtype=complex)
        chunk = max(1, (1 << 23) // max(1, self.mesh.shape[0]))
        for s in range(0, pts.shape[0], chunk):
            blk = eff[s:s + chunk]
            ph = blk[:, :-1] @ self.mesh.T + np.outer(blk[:, -1], self.phase_vals)
            out[s:s + chunk] = np.exp(-TWO_PI * 1j * ph) @ self.weights
        return out

    def factors(self, x_axes, xn_axis):
        """The quadratic phase: per axis a, the (len(x_axes[a]), len(xn_axis))
        factor; the field at x_n = xn_axis[s] is the outer product of the
        factors' columns s.  One GEMM per axis."""
        tau = xn_axis + self.x0[-1]
        return [np.exp(-TWO_PI * 1j * np.outer(x + x0, y))
                @ (np.exp(-TWO_PI * 1j * 0.5 * np.outer(tau, y * y)) * h).T
                for x, x0, y, h in zip(x_axes, self.x0, self.y_axes, self.steps)]

    def slabs(self, x_axes, xn_axis):
        """Any other phase: slab(s, box), the field at x_n = xn_axis[s] on
        the x-grid cells in box (one slice per x-axis, all by default), by one
        GEMM per support axis on its oscillation factor's rows in box."""
        whole = [slice(None)] * len(x_axes)
        osc = [np.exp(-TWO_PI * 1j * np.outer(x_axes[a] + self.x0[a], y))
               for a, y in enumerate(self.y_axes)]
        tau = xn_axis + self.x0[-1]
        shape = tuple(len(y) for y in self.y_axes)
        weights, phase_vals = self.weights.reshape(shape), self.phase_vals.reshape(shape)

        def slab(s, box=whole):
            out = weights * np.exp(-TWO_PI * 1j * tau[s] * phase_vals)
            for o, b in zip(osc, box):  # contract the first axis; its x-axis goes last
                out = (out.reshape(len(out), -1).T @ o[b].T).reshape(*out.shape[1:], -1)
            return out
        return slab


def evaluate_extension(f: CapFunction, phi: EllipticPhase, points, grid_n):
    """Midpoint-quadrature values of the extension integral at each point:
    integral over the support of e^{-2 pi i (x_ . y + x_n Phi(y))} f(y) dy,
    with grid_n nodes (an integer or one per support axis), refused below
    the per-axis oscillation guard at the points (required_grid_counts with
    min_nodes=1) or above MAX_GRID_NODES."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ExtensionError("evaluation points must be finite")
    given = np.asarray(grid_n, dtype=object)
    if given.ndim > 1 or given.size not in (1, f.dim) or not all(map(_is_int, given.flat)):
        raise ExtensionError(f"grid_n must be an integer or {f.dim} integers, got {grid_n!r}")
    counts = np.broadcast_to(given, (f.dim,))  # Python ints until checked: no overflow
    need = required_grid_counts(f, phi, pts, min_nodes=1)
    _refuse_above_cap(counts)
    if np.any(counts < need):
        raise OscillationGuardError(
            f"grid_n = {counts.tolist()} per support axis violates the "
            f"oscillation guard; need grid_n >= {need.tolist()}")
    return _CapQuadrature(f, phi, counts.astype(int)).at_points(pts)


def _axis_cover(lo: float, hi: float, spacing: float) -> np.ndarray:
    count = max(1, int(math.ceil((hi - lo) / spacing - 1e-12)))
    start = 0.5 * (lo + hi) - 0.5 * count * spacing + 0.5 * spacing
    return start + spacing * np.arange(count)


@dataclass
class LocalizedRatio:
    value: float


def domain_norm_ratio(f: CapFunction, g: Optional[CapFunction],
                      phi: EllipticPhase, p: float, q: float, domain,
                      min_nodes: int = 16):
    """||E f . E g||_{L^q(domain)} / (||f||_p ||g||_p)  (linear when g is None).

    The domain is sampled on a fixed grid of spacing DOMAIN_SPACING; cells
    whose centers fall in the domain contribute with full measure.  A slab
    meets the convex domain in one run of cells per grid row along its
    longest x-axis (fields.row_intervals), summed by LpAccumulator.add_rows.
    Under the quadratic phase a row is its lead factors times the row
    factor, so a finite q costs O(rows) per slab (q = inf adds a range max
    per run), and MAX_DOMAIN_CELLS bounds the rows; under any other phase it
    bounds the bounding box's cells, and each block of slabs is formed only
    over its live box (the rows that hold a run, and their runs' columns).
    Each cap's node counts come from the per-axis oscillation guard at the
    domain grid's corners (required_grid_counts, at least min_nodes).
    Returns (ratio, stats): the domain cells and each cap's node counts.
    """
    acc = LpAccumulator([q])
    caps = [f] if g is None else [f, g]
    lo, hi = domain.bounding_box()
    n = len(lo)
    if any(c.dim != n - 1 for c in caps):
        raise ExtensionError(f"caps of extension dimension {[c.dim + 1 for c in caps]} "
                             f"over a {n}-D domain")
    denom = math.prod(c.norm_lp(p) for c in caps)
    if denom == 0:
        raise ExtensionError("zero denominator: ||f||_p ||g||_p = 0")
    x_axes = [_axis_cover(lo[a], hi[a], DOMAIN_SPACING) for a in range(n - 1)]
    xn_axis = _axis_cover(lo[n - 1], hi[n - 1], DOMAIN_SPACING)
    sizes = [len(a) for a in x_axes]
    row = n - 2 - int(np.argmax(sizes[::-1]))  # the last of the longest axes
    per_slab = math.prod(sizes) // sizes[row]  # rows per slab
    separable = phi.tag == "quadratic"
    work = per_slab * len(xn_axis) * (1 if separable else sizes[row])
    if work > MAX_DOMAIN_CELLS:
        raise OscillationGuardError(
            f"domain grid needs {work} {'rows' if separable else 'cells'}, "
            f"above the {MAX_DOMAIN_CELLS} cap; shrink the scale range or "
            f"raise the box constant"
        )
    corner_pts = np.array([[a[0] for a in x_axes] + [xn_axis[0]],
                           [a[-1] for a in x_axes] + [xn_axis[-1]]])
    counts = [required_grid_counts(c, phi, corner_pts, min_nodes=min_nodes) for c in caps]
    quads = [_CapQuadrature(c, phi, cnt) for c, cnt in zip(caps, counts)]
    if separable:  # per axis, |factor of E f . E g| as (slab, cell)
        mags = [1.0] * (n - 1)
        for quad in quads:
            mags = [m * np.abs(fac.T)
                    for m, fac in zip(mags, quad.factors(x_axes, xn_axis))]
        mags = [np.ascontiguousarray(m) for m in mags]
        block = max(1, (1 << 16) // (per_slab + sizes[row]))  # slabs per block

        def runs(sl, lo, hi):  # (scale of each row, row vectors, vector of each row, runs)
            lead = np.ones((len(mags[row][sl]), 1))
            for a in range(n - 1):
                if a != row:
                    lead = (lead[:, :, None] * mags[a][sl, None, :]).reshape(len(lead), -1)
            return lead.reshape(-1), mags[row][sl], np.arange(lead.size) // per_slab, lo, hi
    else:
        slabs = [quad.slabs(x_axes, xn_axis) for quad in quads]
        block = max(1, (1 << 16) // (per_slab * sizes[row]))
        other = [k for a, k in enumerate(sizes) if a != row]

        def runs(sl, lo, hi):  # the same over the live box: the rows that hold a run
            lo, hi = lo.reshape(-1, *other), hi.reshape(-1, *other)
            live = hi > lo
            box = [slice(i.min(), i.max() + 1) for i in np.nonzero(live)]
            cols = slice(lo[live].min(), hi[live].max())
            xbox = box[1:row + 1] + [cols] + box[row + 1:]
            field = np.empty([b.stop - b.start for b in [box[0]] + xbox])
            for i, s in enumerate(range(sl.start, len(xn_axis))[box[0]]):
                np.abs(functools.reduce(np.multiply, [slab(s, xbox) for slab in slabs]),
                       out=field[i])
            vals = np.moveaxis(field, row + 1, -1).reshape(-1, cols.stop - cols.start)
            lo, hi = (v[tuple(box)].reshape(-1) - cols.start for v in (lo, hi))
            return np.ones(len(vals)), vals, np.arange(len(vals)), lo, hi
    cells = 0
    for s in range(0, len(xn_axis), block):
        sl = slice(s, s + block)
        run_lo, run_hi = row_intervals(domain, x_axes, xn_axis[sl], row)
        if np.any(run_hi > run_lo):
            cells += int(np.sum(run_hi - run_lo))
            acc.add_rows(*runs(sl, run_lo, run_hi))
    if cells == 0:
        raise ExtensionError("domain contains no grid cells")
    stats = {"cells": cells, "grid_counts": [c.tolist() for c in counts]}
    return acc.norm(q, DOMAIN_SPACING**n) / denom, stats


def _check_R(R: float):
    if not 1 <= R < math.inf:  # also refuses NaN
        raise ExtensionError(f"need 1 <= R < inf, got R = {R}")


def local_ratio(f: CapFunction, g: Optional[CapFunction], phi: EllipticPhase,
                p: float, q: float, R: float) -> LocalizedRatio:
    """Localized estimate ratio over the ball B(0, R); a bilinear pair
    must have supports at least 1/2 apart."""
    _check_R(R)
    if g is not None:
        gap = _support_gap(f, g)
        if gap < 0.5 - 1e-9:
            raise ExtensionError(f"cap supports separated by {gap} < required 0.5")
    ratio, _stats = domain_norm_ratio(f, g, phi, p, q, Ball((0.0,) * (f.dim + 1), float(R)))
    return LocalizedRatio(ratio)


def _support_gap(f: CapFunction, g: CapFunction) -> float:
    lo1, hi1 = np.asarray(f.support_lo), np.asarray(f.support_hi)
    lo2, hi2 = np.asarray(g.support_lo), np.asarray(g.support_hi)
    gap = np.maximum(lo2 - hi1, lo1 - hi2)
    return float(np.linalg.norm(np.maximum(gap, 0.0)))


# ---------------------------------------------------------------------------
# annulus reformulation


def annulus_ratio(f_annulus: GridFunction, g_annulus: GridFunction, p: float,
                  R: float) -> float:
    """|| fhat ghat ||_{L^p(B(0,R))} normalized by R^{-1/p'} ||f||_p per factor.

    Inputs must be finite and supported on the thickened graphs of the
    quadratic phase A^R = {(x_, Phi(x_) + t): |t| <= 4 / R}.  The input and
    the xi grid are product grids, so each transform is one contraction per
    axis; the ball B(0, R) is cut from the xi grid afterwards.
    """
    _check_R(R)
    if g_annulus.ndim != f_annulus.ndim:
        raise ExtensionError("annulus inputs differ in dimension")
    phi = quadratic_phase(f_annulus.ndim - 1)
    for u in (f_annulus, g_annulus):
        if not np.all(np.isfinite(u.samples)):
            raise ExtensionError("annulus samples must be finite")
        centers = u.centers()
        live = np.abs(u.samples).reshape(-1) > 0
        if np.any(live):
            pts = centers[live]
            dev = np.abs(pts[:, -1] - phi(pts[:, :-1]))
            if float(dev.max()) > 4.0 / R + 1e-9:
                raise ExtensionError("input not supported on the R^{-1} graph annulus")
    norm_f = lp_norm(f_annulus, p)
    norm_g = lp_norm(g_annulus, p)
    if norm_f == 0 or norm_g == 0:
        raise ExtensionError("zero denominator")
    n = f_annulus.ndim
    xi = _axis_cover(-R, R, DOMAIN_SPACING)
    inside = functools.reduce(np.add.outer, [xi * xi] * n) <= R * R

    def hat(u: GridFunction) -> np.ndarray:
        out = u.samples * u.cell_measure
        for a in range(n):  # contract x axis a; its xi axis goes last
            kernel = np.exp(-TWO_PI * 1j * np.outer(u.axis_centers(a), xi))
            out = np.tensordot(out, kernel, axes=(0, 0))
        return out[inside]

    numerator = lp(np.abs(hat(f_annulus) * hat(g_annulus)), p, DOMAIN_SPACING**n)
    inv_p_prime = 1.0 - 1.0 / p
    denom = (R**-inv_p_prime * norm_f) * (R**-inv_p_prime * norm_g)
    return numerator / denom


# ---------------------------------------------------------------------------
# rotational curvature


def rotational_curvature(phi: EllipticPhase, y, w) -> float:
    """Bordered determinant det [[phi, phi_y], [phi_w, phi_yw]] for the
    defining function phi(y, w) = Phi(y) - Phi(y-w) - Phi(w).

    First derivatives come from the phase gradient and the mixed block
    phi_yw = Hess Phi(y-w) from the phase's exact Hessian.
    """
    y = np.asarray(y, dtype=float).reshape(1, -1)
    w = np.asarray(w, dtype=float).reshape(1, -1)
    d = phi.dim
    if y.shape[1] != d or w.shape[1] != d:
        raise ExtensionError(f"y and w need {d} coordinates, got {y.shape[1]} and {w.shape[1]}")
    val = float(phi(y)[0] - phi(y - w)[0] - phi(w)[0])
    phi_y = (phi.grad(y) - phi.grad(y - w))[0]
    phi_w = (phi.grad(y - w) - phi.grad(w))[0]
    bordered = np.empty((d + 1, d + 1))
    bordered[0, 0] = val
    bordered[0, 1:] = phi_y
    bordered[1:, 0] = phi_w
    bordered[1:, 1:] = phi.hess(y - w)[0]
    return float(np.linalg.det(bordered))
