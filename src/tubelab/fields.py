"""Grid-sampled functions, midpoint quadrature, Lp norms over boxes and
balls, and the mixed direction/base norms used by the tube transforms.

Samples live at cell centers; the integral of u is sum(u) * cell_measure.
A domain selects the cells whose centers it contains (no partial-cell
weighting).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import TubelabError, check_int, is_int
from .geometry import DirectionNet, product_grid


class FieldError(TubelabError):
    pass


class LpAccumulator:
    """One running value per exponent s in (0, inf] over chunks of nonnegative
    values, the sum of v^s or at s = inf the max; any other s is refused here.

    norm(s, weight) is (weight * sum v^s)^{1/s}, or the max at s = inf."""

    def __init__(self, exponents):
        self.running = dict.fromkeys(exponents, 0.0)
        for s in self.running:
            check_exponent(s)

    def add(self, values) -> "LpAccumulator":
        values = np.asarray(values, dtype=float)
        for s, v in self.running.items():
            self.running[s] = (float(values.max(initial=v)) if s == np.inf
                               else v + float(np.sum(values**s)))
        return self

    def add_rows(self, scale, rows, pick, lo, hi) -> "LpAccumulator":
        """add() of the runs scale[k] * rows[pick[k], lo[k]:hi[k]]: a sum
        from prefix sums of rows^s, the max from one range max per run.  A
        difference of prefix sums errs by about width * 1e-16 times the row's
        sum of v^s up to the run's end, so a run whose sum that prefix exceeds
        2^20-fold (rows [[1e20, 1, 1]], run [1, 3)), or that overflowed, is
        summed directly."""
        keep = lo < hi
        scale, flat, width = scale[keep], rows.reshape(-1), rows.shape[1]
        first, last = pick[keep] * width + lo[keep], pick[keep] * width + hi[keep] - 1
        for s, v in self.running.items():
            if s == np.inf:
                top = np.maximum.reduceat(flat, np.column_stack([first, last]).ravel())[::2]
                self.running[s] = float(np.max(scale * np.maximum(top, flat[last]), initial=v))
            else:
                powered = rows**s
                prefix = np.cumsum(powered, axis=1).reshape(-1)
                run_sums = prefix[last] - prefix[first] + flat[first] ** s
                end = prefix[last]  # NaN run sums (inf - inf) are far too
                far = ~(end <= 2.0**20 * run_sums) | (end == np.inf)
                if far.any():
                    ends = np.column_stack([first[far], last[far] + 1]).ravel()
                    run_sums[far] = np.add.reduceat(np.append(powered, 0.0), ends)[::2]
                self.running[s] = v + float(np.sum(scale**s * run_sums))
        return self

    def norm(self, s: float, weight: float = 1.0) -> float:
        return self.running[s] if s == np.inf else float((self.running[s] * weight) ** (1.0 / s))


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


def _check_bounds(bounds, radius=None):
    """Refuse a domain with a non-finite bound or radius, or a negative radius."""
    if not np.all(np.isfinite(bounds)):
        raise FieldError(f"domain bounds must be finite, got {list(bounds)}")
    if radius is not None and not 0 <= radius < np.inf:
        raise FieldError(f"domain radius must be finite and nonnegative, got {radius}")


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise FieldError(f"box bounds of lengths {len(self.lo)} and {len(self.hi)}")
        _check_bounds([*self.lo, *self.hi])

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

    def __post_init__(self):
        _check_bounds(self.center, self.radius)

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

    def __post_init__(self):
        if len(self.rest_lo) != len(self.rest_hi):
            raise FieldError(f"rest bounds of lengths {len(self.rest_lo)} and {len(self.rest_hi)}")
        axes, dim = tuple(self.disc_axes), 2 + len(self.rest_lo)
        if (len(axes) != 2 or axes[0] == axes[1]
                or not all(is_int(a) and 0 <= a < dim for a in axes)):
            raise FieldError(f"disc axes {axes} must be two distinct axes in [0, {dim})")
        if len(self.disc_center) != 2:
            raise FieldError(f"disc centre {self.disc_center} must have 2 coordinates")
        _check_bounds([*self.disc_center, *self.rest_lo, *self.rest_hi], self.disc_radius)

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
    """Complex samples on a uniform rectangular grid of samples.shape cells.

    origin is the center of cell (0, ..., 0); spacing is per-axis.
    """

    origin: tuple
    spacing: tuple
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if not len(self.origin) == len(self.spacing) == self.samples.ndim:
            raise FieldError(f"origin {self.origin} and spacing {self.spacing} must "
                             f"have one entry per axis of samples of shape {self.dims}")
        if not all(0 < s < np.inf for s in self.spacing):  # also refuses NaN
            raise FieldError(f"spacing {self.spacing} must lie in (0, inf)")
        if not np.all(np.isfinite(self.origin)):
            raise FieldError(f"origin {self.origin} must be finite")

    @property
    def dims(self) -> tuple:
        return self.samples.shape

    @property
    def ndim(self) -> int:
        return self.samples.ndim

    @property
    def cell_measure(self) -> float:
        return float(np.prod(self.spacing))

    def axis_centers(self, a: int) -> np.ndarray:
        return self.origin[a] + self.spacing[a] * np.arange(self.dims[a])

    def centers(self) -> np.ndarray:
        """All cell centers, shape (prod(dims), ndim)."""
        return product_grid([self.axis_centers(a) for a in range(self.ndim)])

    def to_binary(self):
        """(bytes, sidecar dict): the samples in C order as little-endian
        complex128, i.e. f64 (re, im) pairs, and the metadata."""
        sidecar = {
            "dims": list(self.dims),
            "origin": [float(v) for v in self.origin],
            "spacing": [float(v) for v in self.spacing],
        }
        return np.ascontiguousarray(self.samples, dtype="<c16").tobytes(), sidecar

    @classmethod
    def from_binary(cls, raw: bytes, sidecar: dict) -> "GridFunction":
        """The exact inverse of to_binary, with writable samples; a payload
        that does not hold the sidecar's dims of samples is refused."""
        dims = tuple(sidecar["dims"])
        try:
            samples = np.frombuffer(raw, dtype="<c16").reshape(dims)
            if samples.shape != dims:  # reshape reads a -1 as "the rest"
                raise ValueError
        except (TypeError, ValueError):
            raise FieldError(f"a payload of {len(raw)} bytes does not hold "
                             f"complex128 samples of shape {dims}") from None
        return cls(tuple(sidecar["origin"]), tuple(sidecar["spacing"]),
                   samples.astype(np.complex128))


def grid_from_sampler(sampler, lo, hi, dims) -> GridFunction:
    """Midpoint grid over the box [lo, hi] with the given cell counts, each
    an integer >= 1 (at most MAX_GRID_POINTS cells: geometry.product_grid)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dims = np.atleast_1d(np.asarray(dims, dtype=object)).tolist()
    for d in dims:
        check_int("dims", d, 1, error=FieldError)
    spacing = tuple((h - l) / d for l, h, d in zip(lo, hi, dims))
    origin = tuple(l + s / 2 for l, s in zip(lo, spacing))
    pts = product_grid([o + s * np.arange(d) for o, s, d in zip(origin, spacing, dims)])
    return GridFunction(origin, spacing, np.asarray(sampler(pts)).reshape(dims))


def lp_norm(u: GridFunction, p: float) -> float:
    """(sum |u|^p cell_measure)^{1/p}: the max at p = inf, a quasi-norm at p < 1."""
    return lp(np.abs(u.samples).reshape(-1), p, u.cell_measure)


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


def mixed_norm(g: NetFunction, outer_q: float, inner: str = SUP_I) -> float:
    """(sum_omega delta^{n-1} (inner aggregate over i)^q)^{1/q}.

    Directions carry the normalized measure delta^{n-1}; bases carry
    counting measure.  outer_q = inf takes max over directions.
    """
    _omega, aggs = g.inner_aggregates(inner)
    return lp(aggs, outer_q, g.net.delta**g.net.dim)
