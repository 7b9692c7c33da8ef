"""Grid-sampled functions, midpoint quadrature, Lp norms over boxes and
balls, and the mixed direction/base norms used by the tube transforms.

Samples live at cell centers; the integral of u is sum(u) * cell_measure.
A domain selects the cells whose centers it contains (no partial-cell
weighting; refinement control is resample_check's job).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import TubelabError
from .geometry import DirectionNet


class FieldError(TubelabError):
    pass


class LpAccumulator:
    """Running sup and sums of v^s over chunks of nonnegative values, for a
    set of exponents s in (0, inf]; any other exponent is refused here.

    norm(s, weight) is (weight * sum v^s)^{1/s}, or the sup at s = inf."""

    def __init__(self, exponents):
        exponents = list(exponents)
        for s in exponents:
            check_exponent(s)
        self.sup = 0.0
        self.sums = {s: 0.0 for s in exponents if s != np.inf}

    def add(self, values) -> "LpAccumulator":
        values = np.asarray(values, dtype=float)
        self.sup = float(values.max(initial=self.sup))
        for s in self.sums:
            self.sums[s] += float(np.sum(values**s))
        return self

    def add_rows(self, scale, rows, pick, lo, hi) -> "LpAccumulator":
        """add() of the runs scale[k] * rows[pick[k], lo[k]:hi[k]]: the sums
        from prefix sums of rows^s, the sup from one range max per run."""
        keep = lo < hi
        scale, flat, width = scale[keep], rows.reshape(-1), rows.shape[1]
        first, last = pick[keep] * width + lo[keep], pick[keep] * width + hi[keep] - 1
        runs = np.stack([first, last], axis=1).reshape(-1)
        top = np.maximum(np.maximum.reduceat(flat, runs)[::2], flat[last])
        self.sup = float(np.max(scale * top, initial=self.sup))
        for s in self.sums:
            prefix = np.cumsum(rows**s, axis=1).reshape(-1)
            run_sums = prefix[last] - prefix[first] + flat[first] ** s
            self.sums[s] += float(np.sum(scale**s * run_sums))
        return self

    def norm(self, s: float, weight: float = 1.0) -> float:
        return self.sup if s == np.inf else float((self.sums[s] * weight) ** (1.0 / s))


def check_exponent(s: float):
    """Refuse an Lp exponent outside (0, inf]."""
    if not 0 < s <= np.inf:
        raise FieldError(f"Lp exponent {s} outside (0, inf]")


def lp(values, s: float, weight: float = 1.0) -> float:
    """(weight * sum v^s)^{1/s} of one chunk of nonnegative values."""
    return LpAccumulator([s]).add(values).norm(s, weight)


def conjugate(s: float) -> float:
    """Hoelder conjugate s/(s-1), with 1' = inf and inf' = 1 (< 0 for s < 1)."""
    return 1.0 if s == np.inf else np.inf if s == 1 else s / (s - 1)


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def bounding_box(self):
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)

    def row_span(self, pts, axis: int):
        lo, hi = self.bounding_box()
        return 0.5 * (lo[axis] + hi[axis]), 0.5 * (hi[axis] - lo[axis])


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        c = np.asarray(self.center)
        return np.sum((pts - c) ** 2, axis=1) <= self.radius**2

    def bounding_box(self):
        c = np.asarray(self.center, dtype=float)
        return c - self.radius, c + self.radius

    def row_span(self, pts, axis: int):
        d = np.delete(pts - np.asarray(self.center), axis, axis=1)
        rest = np.sum(d * d, axis=1)
        return self.center[axis], np.sqrt(np.maximum(self.radius**2 - rest, 0))


@dataclass(frozen=True)
class CylinderDomain:
    """Disc of given radius in two selected axes, box in the rest."""

    disc_axes: tuple
    disc_center: tuple
    disc_radius: float
    rest_lo: tuple
    rest_hi: tuple

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        a, b = self.disc_axes
        u = pts[:, a] - self.disc_center[0]
        v = pts[:, b] - self.disc_center[1]
        ok = u * u + v * v <= self.disc_radius**2
        rest = [ax for ax in range(pts.shape[1]) if ax not in self.disc_axes]
        for k, ax in enumerate(rest):
            ok &= (pts[:, ax] >= self.rest_lo[k]) & (pts[:, ax] <= self.rest_hi[k])
        return ok

    def bounding_box(self):
        dim = 2 + len(self.rest_lo)
        rest = [ax for ax in range(dim) if ax not in self.disc_axes]
        lo, hi = np.empty(dim), np.empty(dim)
        lo[rest], hi[rest] = self.rest_lo, self.rest_hi
        disc = list(self.disc_axes)
        lo[disc] = np.subtract(self.disc_center, self.disc_radius)
        hi[disc] = np.add(self.disc_center, self.disc_radius)
        return lo, hi

    def row_span(self, pts, axis: int):
        if axis not in self.disc_axes:
            return Box(*self.bounding_box()).row_span(pts, axis)
        k = list(self.disc_axes).index(axis)
        v = pts[:, self.disc_axes[1 - k]] - self.disc_center[1 - k]
        return self.disc_center[k], np.sqrt(np.maximum(self.disc_radius**2 - v * v, 0))


def row_runs(ax, mid, half, inside):
    """(lo, hi): per row k the run [lo[k], hi[k]) of indices into the sorted
    cell centres ax of the cells a convex set contains, where row k meets it
    within mid[k] -/+ half[k] and only if it contains mid[k].  The bounds,
    padded by a quarter cell, give the runs; inside(x), the set's exact test
    at x[j, k] of row k, then checks mid (j = 0) and both end cells."""
    reach = half + np.diff(ax).min(initial=np.inf) / 4
    lo = np.searchsorted(ax, mid - reach)
    hi = np.searchsorted(ax, mid + reach, side="right")
    live, first, last = inside(np.stack([mid, ax[np.minimum(lo, len(ax) - 1)], ax[hi - 1]]))
    live &= lo < hi
    lo = np.where(live, lo + ~first, 0)
    return lo, np.where(live, np.maximum(hi - ~last, lo), 0)


def row_intervals(domain, x_axes, t, axis: int):
    """row_runs along x_axes[axis] in each row (C order over t, the other axes) of
    the slabs x_n = t (a height or an array), by domain.row_span and .contains."""
    lead = [np.zeros(1) if a == axis else x for a, x in enumerate(x_axes)]
    grids = np.meshgrid(np.atleast_1d(t), *lead, indexing="ij")
    pts = np.stack(grids[1:] + grids[:1], axis=-1).reshape(-1, len(x_axes) + 1)
    mid, half = (np.broadcast_to(v, len(pts)) for v in domain.row_span(pts, axis))
    probes = np.tile(pts, (3, 1))

    def inside(x):
        probes[:, axis] = x.reshape(-1)
        return domain.contains(probes).reshape(3, -1)

    return row_runs(x_axes[axis], mid, half, inside)


# ---------------------------------------------------------------------------
# grid functions


@dataclass
class GridFunction:
    """Complex samples on a uniform rectangular grid.

    origin is the center of cell (0, ..., 0); spacing is per-axis.
    """

    dims: tuple
    origin: tuple
    spacing: tuple
    samples: np.ndarray
    generator: Optional[Callable] = None  # point sampler, for refinement

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.shape != tuple(self.dims):
            raise FieldError(f"samples shape {self.samples.shape} != dims {self.dims}")
        if any(s <= 0 for s in self.spacing):
            raise FieldError("spacing must be positive")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def cell_measure(self) -> float:
        return float(np.prod(self.spacing))

    def axis_centers(self, a: int) -> np.ndarray:
        return self.origin[a] + self.spacing[a] * np.arange(self.dims[a])

    def centers(self) -> np.ndarray:
        """All cell centers, shape (prod(dims), ndim)."""
        axes = [self.axis_centers(a) for a in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.ndim)

    def refine(self, factor: int = 2) -> "GridFunction":
        if self.generator is None:
            raise FieldError("refinement needs a generator")
        dims = tuple(d * factor for d in self.dims)
        spacing = tuple(s / factor for s in self.spacing)
        origin = tuple(
            o - s / 2 + sp / 2 for o, s, sp in zip(self.origin, self.spacing, spacing)
        )
        g = GridFunction(dims, origin, spacing,
                         np.zeros(dims, dtype=self.samples.dtype),
                         generator=self.generator)
        g.samples = np.asarray(self.generator(g.centers())).reshape(dims)
        return g

    def to_binary(self):
        """(bytes, sidecar dict): little-endian f64 (re, im) pairs + metadata."""
        flat = np.ascontiguousarray(self.samples, dtype=np.complex128).reshape(-1)
        raw = np.empty(2 * flat.size, dtype="<f8")
        raw[0::2] = flat.real
        raw[1::2] = flat.imag
        sidecar = {
            "dims": list(self.dims),
            "origin": [float(v) for v in self.origin],
            "spacing": [float(v) for v in self.spacing],
        }
        return raw.tobytes(), sidecar

    @classmethod
    def from_binary(cls, raw: bytes, sidecar: dict) -> "GridFunction":
        arr = np.frombuffer(raw, dtype="<f8")
        flat = arr[0::2] + 1j * arr[1::2]
        dims = tuple(sidecar["dims"])
        return cls(dims, tuple(sidecar["origin"]), tuple(sidecar["spacing"]),
                   flat.reshape(dims))


def grid_from_sampler(sampler, lo, hi, dims) -> GridFunction:
    """Midpoint grid over the box [lo, hi] with the given cell counts."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    spacing = tuple((h - l) / d for l, h, d in zip(lo, hi, dims))
    origin = tuple(l + s / 2 for l, s in zip(lo, spacing))
    g = GridFunction(dims, origin, spacing, np.zeros(dims, dtype=complex),
                     generator=sampler)
    g.samples = np.asarray(sampler(g.centers())).reshape(dims)
    return g


def lp_norm(u: GridFunction, p: float, domain=None) -> float:
    """(sum |u|^p cell_measure)^{1/p} over cells with centers in the domain.

    p = inf takes the max; p < 1 uses the same formula (a quasi-norm).
    """
    vals = np.abs(u.samples).reshape(-1)
    if domain is not None:
        mask = domain.contains(u.centers())
        if not np.any(mask):
            raise FieldError("domain does not intersect the grid")
        vals = vals[mask]
    return lp(vals, p, u.cell_measure)


#: refusal threshold for refinement allocations
_MAX_REFINE_CELLS = 1 << 26


def resample_check(u: GridFunction, p: float, domain=None, factor: int = 2):
    """Norm at spacing h and h/factor; callers bound the relative change."""
    needed = int(np.prod(u.dims)) * factor ** u.ndim
    if needed > _MAX_REFINE_CELLS:
        raise FieldError(
            f"refinement needs {needed} cells, above the {_MAX_REFINE_CELLS} limit"
        )
    coarse = lp_norm(u, p, domain)
    fine = lp_norm(u.refine(factor), p, domain)
    return coarse, fine


# ---------------------------------------------------------------------------
# functions on the net (direction x base)


SUP_I = "sup_i"
SUM_I = "sum_i"


class NetFunction:
    """Finitely-supported nonnegative values on net x net, given as a
    {(omega_index, base_index): value} mapping or by from_arrays, stored as the
    integer arrays omega and base, sorted by (omega, base), and the array values."""

    def __init__(self, net: DirectionNet, mapping: dict):
        if set(map(type, mapping)) - {tuple} or set(map(len, mapping)) - {2}:
            key = next(k for k in mapping if type(k) is not tuple or len(k) != 2)
            raise FieldError(f"net entry {key!r} -> {mapping[key]!r}: need an "
                             "(omega, base) index pair as the key")
        text_or_bool = (str, bytes, bool, np.bool_)  # float() would parse these
        parts = itertools.chain(mapping.values(),
                                itertools.chain.from_iterable(mapping))
        if any(issubclass(t, text_or_bool) for t in set(map(type, parts))):
            key, value = next((k, v) for k, v in mapping.items() if any(
                isinstance(x, text_or_bool) for x in (*k, v)))
            raise FieldError(f"net entry {key!r} -> {value!r}: need numbers, "
                             "not strings or bools")
        keys = np.array(list(mapping), dtype=float).reshape(-1, 2)
        self._store(net, *keys.T, np.fromiter(mapping.values(), dtype=float, count=len(keys)))

    @classmethod
    def from_arrays(cls, net: DirectionNet, omega, base, values) -> "NetFunction":
        """The entries (omega[k], base[k]) -> values[k], checked and sorted as a mapping's."""
        return cls.__new__(cls)._store(net, omega, base, values)

    def _store(self, net, omega, base, values):
        self.net = net
        keys = np.stack([omega, base], axis=1).astype(float)
        values = np.asarray(values, dtype=float)
        ok = np.all((keys == np.floor(keys)) & (keys >= 0)
                    & (keys < len(net.points)), axis=1)
        ok &= (values >= 0) & (values < np.inf)
        if not ok.all():
            k = int(np.argmin(ok))
            raise FieldError(f"net entry ({keys[k, 0]:g}, {keys[k, 1]:g}) -> "
                             f"{values[k]}: need integer indices in [0, "
                             f"{len(net.points)}) and a finite value >= 0")
        order = np.lexsort(keys.T[::-1])
        self.omega, self.base = keys[order].astype(int).T
        self.values = values[order]
        return self

    def inner_aggregates(self, inner: str):
        """(omega indices that carry a value, sup or sum over their bases),
        in omega order; sums add in base order."""
        present = np.unique(self.omega)
        if inner == SUM_I:
            return present, np.bincount(self.omega, self.values)[present]
        if inner != SUP_I:
            raise FieldError(f"unknown inner aggregate {inner!r}")
        sup = np.zeros(len(self.net.points))
        np.maximum.at(sup, self.omega, self.values)
        return present, sup[present]

    def to_json(self) -> list:
        return [list(entry) for entry in zip(
            self.omega.tolist(), self.base.tolist(), self.values.tolist())]

    @classmethod
    def from_json(cls, net: DirectionNet, items) -> "NetFunction":
        return cls(net, {(w, i): v for w, i, v in items})


def mixed_norm(g: NetFunction, outer_q: float, inner: str = SUP_I) -> float:
    """(sum_omega delta^{n-1} (inner aggregate over i)^q)^{1/q}.

    Directions carry the normalized measure delta^{n-1}; bases carry
    counting measure.  outer_q = inf takes max over directions.
    """
    _omega, aggs = g.inner_aggregates(inner)
    return lp(aggs, outer_q, g.net.delta**g.net.dim)
