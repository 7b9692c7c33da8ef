"""Dyadic cubes on Q = [-1,1]^{n-1}, close-pair structure, delta-nets,
slanted tubes with intersection volumes, and parabolic phase rescaling.

Level convention: level-j cubes have sidelength 2^-j, so level j partitions
Q into 2^{(j+1)(n-1)} cubes (level 0 has 2^{n-1} unit cubes).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import TubelabError

_BALL_VOLUME = {0: 1.0, 1: 2.0, 2: math.pi, 3: 4 * math.pi / 3}


def unit_ball_volume(k: int) -> float:
    if k in _BALL_VOLUME:
        return _BALL_VOLUME[k]
    return math.pi ** (k / 2) / math.gamma(k / 2 + 1)


class GeometryError(TubelabError):
    pass


class DepthExceededError(GeometryError):
    pass


class DegenerateInputError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# dyadic cubes and the close-pair (Whitney) structure


@dataclass(frozen=True)
class DyadicCube:
    level_j: int
    index_k: tuple

    def __post_init__(self):
        if self.level_j < 0:
            raise GeometryError(f"negative level {self.level_j}")
        top = 2 ** (self.level_j + 1)
        if not all(0 <= k < top for k in self.index_k):
            raise GeometryError(f"index {self.index_k} out of range at level {self.level_j}")

    @property
    def sidelength(self) -> float:
        return 2.0 ** (-self.level_j)

    def bounds(self):
        """Per-axis (lo, hi); cubes tile [-1,1]^{n-1}."""
        s = self.sidelength
        return [(-1.0 + k * s, -1.0 + (k + 1) * s) for k in self.index_k]

    def parent(self) -> "DyadicCube":
        if self.level_j == 0:
            raise GeometryError("level-0 cube has no parent")
        return DyadicCube(self.level_j - 1, tuple(k // 2 for k in self.index_k))

    def contains(self, x) -> bool:
        if len(x) != len(self.index_k):
            raise GeometryError(f"a {len(self.index_k)}-dimensional cube and {len(x)} coordinates")
        return all(lo <= xi < hi for (lo, hi), xi in zip(self.bounds(), x))


def dyadic_cubes(n: int, j: int) -> list:
    """All level-j cubes partitioning [-1,1]^{n-1}."""
    if j < 0:
        raise GeometryError("need j >= 0")
    top = 2 ** (j + 1)
    return [DyadicCube(j, idx) for idx in itertools.product(range(top), repeat=n - 1)]


def adjacent(k1, k2):
    """Whether level-j cubes with indices k1, k2 are adjacent: their closures
    intersect (a cube is adjacent to itself).  k1 and k2 are index tuples,
    or (n-1, m) arrays of m cubes' indices, one row per axis."""
    out = True
    for a, b in zip(k1, k2):
        out = out & (abs(a - b) <= 1)
    return out


def cubes_close(c1: DyadicCube, c2: DyadicCube) -> bool:
    """Not adjacent, but the parents are adjacent."""
    if len(c1.index_k) != len(c2.index_k):
        raise GeometryError(f"cubes of dimensions {len(c1.index_k)} and {len(c2.index_k)}")
    if c1.level_j != c2.level_j or c1.level_j == 0:
        return False
    if adjacent(c1.index_k, c2.index_k):
        return False
    return adjacent(tuple(k // 2 for k in c1.index_k),
                    tuple(k // 2 for k in c2.index_k))


def close_pairs(n: int, j: int) -> list:
    """All ordered close pairs at level j."""
    if j < 1:
        raise GeometryError("close pairs need j >= 1 (parents must exist)")
    out = []
    top = 2 ** (j + 1)
    for k1 in itertools.product(range(top), repeat=n - 1):
        p1 = tuple(k // 2 for k in k1)
        # parents adjacent restricts k2 to a 6-wide window per axis
        ranges = [range(max(0, 2 * (p - 1)), min(top, 2 * (p + 2))) for p in p1]
        for k2 in itertools.product(*ranges):
            if adjacent(k1, k2):
                continue
            p2 = tuple(k // 2 for k in k2)
            if adjacent(p1, p2):
                out.append((DyadicCube(j, k1), DyadicCube(j, k2)))
    return out


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _locate_index(x: float, j: int) -> int:
    return int(math.floor((x + 1.0) * 2 ** j))


def whitney_levels(x, y, max_level: int) -> np.ndarray:
    """The close level of each pair (x[r], y[r]) of (m, n-1) arrays of points
    of Q: the one level j <= max_level whose cubes holding x[r] and y[r] are
    a close pair, i.e. the first level at which they are not adjacent.  A
    pair whitney_locate refuses is marked -1 when a coordinate lies on a
    dyadic hyperplane of level max_level, and 0 when the points are still
    adjacent at max_level."""
    if not _is_int(max_level) or not 1 <= max_level <= 1023:  # 2.0**1024 = inf
        raise GeometryError(f"bad max_level {max_level!r}: need an integer in [1, 1023]")
    x, y = np.asarray(x), np.asarray(y)
    if (x.ndim != 2 or x.shape != y.shape or x.shape[1] == 0
            or x.dtype.kind not in "iuf" or y.dtype.kind not in "iuf"):
        raise GeometryError(f"need two real (m, n-1) point arrays of one shape "
                            f"with n >= 2; got {x.shape} {x.dtype} and {y.shape} {y.dtype}")
    pts = np.concatenate([x, y], axis=1).astype(float)
    inside = (np.abs(pts) <= 1.0).all(axis=1)
    if not inside.all():
        raise GeometryError(f"point pair {pts[np.argmin(inside)].tolist()} outside Q")
    u = pts.T + 1.0  # x's axes, then y's
    scaled = u * 2.0**max_level
    level = np.where((scaled == np.floor(scaled)).any(axis=0), -1, 0)
    pending = level == 0
    d = x.shape[1]
    for j in range(1, max_level + 1):
        if not pending.any():
            break
        k = np.floor(u * 2.0**j)
        far = pending & ~adjacent(k[:d], k[d:])
        level[far] = j
        pending &= ~far
    return level


def whitney_locate(x, y, max_level: int):
    """The unique level j and close pair with x in the first, y in the second.

    Inputs must avoid dyadic hyperplanes up to max_level; points closer than
    the max-level resolution raise DepthExceededError.  A scalar view of
    whitney_levels.
    """
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    j = int(whitney_levels(x[None, :], y[None, :], max_level)[0])
    if j == -1:
        raise DegenerateInputError(f"a coordinate of {x} or {y} on a dyadic boundary")
    if j == 0:
        raise DepthExceededError(
            f"points are adjacent at level {max_level}; |x-y| too small"
        )
    c1 = DyadicCube(j, tuple(_locate_index(v, j) for v in x.tolist()))
    c2 = DyadicCube(j, tuple(_locate_index(v, j) for v in y.tolist()))
    return j, c1, c2


# ---------------------------------------------------------------------------
# elliptic phases


@dataclass
class EllipticPhase:
    """Phase on Q with Hessian eigenvalues pinned to [1-eps0, 1+eps0].

    evaluator, gradient and hessian take an (m, n-1) array of points and
    return the (m,) values, the exact (m, n-1) gradients and the exact
    (m, n-1, n-1) Hessians.
    """

    evaluator: Callable
    gradient: Callable
    hessian: Callable
    eps0: float
    dim: int  # n - 1
    tag: str = "generic"  # "quadratic" unlocks separable evaluation

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.evaluator(pts)

    def grad(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.gradient(pts)

    def hess(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.hessian(pts)

    def validate(self, samples_per_axis: int = 9, tol: float = 1e-6):
        """Check the defining properties on a sample grid; raise on failure."""
        zero = np.zeros((1, self.dim))
        if abs(float(self(zero)[0])) > tol:
            raise GeometryError("phase does not vanish at 0")
        if float(np.max(np.abs(self.grad(zero)))) > tol:
            raise GeometryError("phase gradient does not vanish at 0")
        H = self.hess(product_grid([np.linspace(-1.0, 1.0, samples_per_axis)] * self.dim))
        eigs = np.linalg.eigvalsh(H)
        lo, hi = float(eigs.min()), float(eigs.max())
        if lo < 1 - self.eps0 - tol or hi > 1 + self.eps0 + tol:
            raise GeometryError(
                f"Hessian eigenvalues [{lo}, {hi}] escape [1-eps0, 1+eps0]"
            )
        return lo, hi


#: fail-fast cap on the points of one product grid
MAX_GRID_POINTS = 1 << 28


def product_grid(axes) -> np.ndarray:
    """The product of the axes as (points, len(axes)), first axis major.  Its
    size is counted exactly first: above MAX_GRID_POINTS, MemoryError (a
    resource error) before numpy forms any array."""
    size = math.prod(len(a) for a in axes)
    if size > MAX_GRID_POINTS:
        raise MemoryError(f"a grid of {len(axes)} axes needs {size} points, "
                          f"above the {MAX_GRID_POINTS} cap; lower n or the scale")
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def quadratic_phase(dim: int) -> EllipticPhase:
    """The model phase |x|^2 / 2."""
    return EllipticPhase(
        evaluator=lambda p: 0.5 * np.sum(p * p, axis=-1),
        gradient=lambda p: p.copy(),
        hessian=lambda p: np.broadcast_to(np.eye(p.shape[-1]), (p.shape[0], p.shape[-1], p.shape[-1])).copy(),
        eps0=0.0,
        dim=dim,
        tag="quadratic",
    )


_BUMP_CENTERS = {
    1: [(0.35,), (-0.55,)],
    2: [(0.35, -0.2), (-0.55, 0.4), (0.15, 0.6)],
}
_BUMP_WEIGHTS = {1: [0.6, -0.5], 2: [0.6, -0.5, 0.45]}
_BUMP_SIGMA = 0.55


def perturbed_phase(dim: int, eps0: float) -> EllipticPhase:
    """|x|^2/2 + eps0 * psi(x) with psi a fixed Gaussian-bump combination.

    psi has psi(0) = 0, grad psi(0) = 0 and Hessian operator norm <= 1 on Q,
    so the Hessian eigenvalues stay in [1-eps0, 1+eps0].
    """
    if not _is_int(dim) or dim not in _BUMP_CENTERS or not 0 <= eps0 < 1:  # NaN fails too
        raise GeometryError(f"need dim in {{1, 2}} and 0 <= eps0 < 1, got {dim!r}, {eps0!r}")
    centers = np.array(_BUMP_CENTERS[dim], dtype=float)
    weights = np.array(_BUMP_WEIGHTS[dim], dtype=float)
    sig2 = _BUMP_SIGMA**2

    def raw(p):
        # sum_k w_k sig2 exp(-|p - z_k|^2 / (2 sig2))
        d2 = np.sum((p[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
        return sig2 * np.sum(weights * np.exp(-d2 / (2 * sig2)), axis=-1)

    def raw_grad(p):
        diff = p[:, None, :] - centers[None, :, :]
        g = np.exp(-np.sum(diff**2, axis=-1) / (2 * sig2))
        return -np.sum(weights[None, :, None] * g[:, :, None] * diff, axis=1)

    def raw_hess(p):
        diff = p[:, None, :] - centers[None, :, :]
        g = np.exp(-np.sum(diff**2, axis=-1) / (2 * sig2))
        eye = np.eye(dim)
        outer = diff[:, :, :, None] * diff[:, :, None, :] / sig2
        terms = weights[None, :, None, None] * g[:, :, None, None] * (outer - eye)
        return np.sum(terms, axis=1)

    # normalize so the Hessian 2-norm of psi is exactly <= 1 on Q
    grid = product_grid([np.linspace(-1.0, 1.0, 41)] * dim)
    H = raw_hess(grid)
    scale = float(np.max(np.abs(np.linalg.eigvalsh(H))))
    g0 = raw(np.zeros((1, dim)))[0]
    dg0 = raw_grad(np.zeros((1, dim)))[0]

    def psi(p):
        return (raw(p) - g0 - p @ dg0) / scale

    def psi_grad(p):
        return (raw_grad(p) - dg0) / scale

    def psi_hess(p):
        return raw_hess(p) / scale

    return EllipticPhase(
        evaluator=lambda p: 0.5 * np.sum(p * p, axis=-1) + eps0 * psi(p),
        gradient=lambda p: p + eps0 * psi_grad(p),
        hessian=lambda p: (
            np.broadcast_to(np.eye(dim), (p.shape[0], dim, dim)) + eps0 * psi_hess(p)
        ),
        eps0=eps0,
        dim=dim,
    )


def parabolic_rescale(phi: EllipticPhase, j: int, center) -> EllipticPhase:
    """Recenter at `center`, strip value and gradient, and rescale:
    new(x) = 2^{2j} (Phi(c + 2^{-j} x) - Phi(c) - grad Phi(c) . 2^{-j} x).

    Ellipticity parameters are preserved (the Hessian is just resampled).
    j is an integer in [-511, 10]: 4^-j is a finite double, and the
    difference, which cancels to rounding as j grows, keeps about 11 digits
    (the quadratic phase errs by 1e-9 relative at j = 12 and 5e-5 at 20).
    """
    if not _is_int(j) or not -511 <= j <= 10:
        raise GeometryError(f"bad j {j!r}: need an integer in [-511, 10]")
    center = np.asarray(center, dtype=float).reshape(1, -1)
    if center.shape[1] != phi.dim:
        raise GeometryError("center dimension mismatch")
    lam = 2.0**j
    phi_c = float(phi(center)[0])
    grad_c = phi.grad(center)[0]
    if not np.isfinite(phi_c) or not np.all(np.isfinite(grad_c)):
        raise GeometryError("rescaled phase escapes numerical range")

    def ev(p):
        base = center + p / lam
        return lam**2 * (phi(base) - phi_c - (p / lam) @ grad_c)

    def grad(p):
        return lam * (phi.grad(center + p / lam) - grad_c)

    def hess(p):
        return phi.hess(center + p / lam)

    return EllipticPhase(
        evaluator=ev,
        gradient=grad,
        hessian=hess,
        eps0=phi.eps0,
        dim=phi.dim,
    )


# ---------------------------------------------------------------------------
# delta-nets and tubes


@dataclass(frozen=True)
class DirectionNet:
    """The lattice delta-net delta Z^{dim} cap Q, with E1/E2 the net points
    inside the half-open sub-cubes of side 1/2 centred at -+ (1/2) e1: for
    delta <= 1/4 each holds a lattice point, and their gap along e1 exceeds
    1/2.  A value: (dim, delta) decide the lattice axis, the points (first
    axis major) and the E1/E2 indices, formed once here."""

    dim: int  # n - 1
    delta: float
    axis: np.ndarray = field(init=False, compare=False, repr=False)
    points: np.ndarray = field(init=False, compare=False, repr=False)
    e1_indices: np.ndarray = field(init=False, compare=False, repr=False)
    e2_indices: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not _is_int(self.dim):
            raise GeometryError(f"need an integer dim = n - 1, not {self.dim!r}")
        if self.dim < 1:
            raise GeometryError(f"need n >= 2, got n = {self.dim + 1}")
        if not (0 < self.delta <= 0.25):
            raise GeometryError("need 0 < delta <= 1/4")
        kmax = int(math.floor(1.0 / self.delta + 1e-9))
        axis = np.arange(-kmax, kmax + 1, dtype=float) * self.delta
        pts = product_grid([axis] * self.dim)

        def in_subcube(center1):
            # half-open boxes keep the lattice count at exactly (2 delta)^{1-n},
            # so net-normalized direction measures carry no rounding bias
            ok = (pts[:, 0] >= center1 - 0.25 - 1e-12) & (pts[:, 0] < center1 + 0.25 - 1e-12)
            for a in range(1, self.dim):
                ok &= (pts[:, a] >= -0.25 - 1e-12) & (pts[:, a] < 0.25 - 1e-12)
            return np.nonzero(ok)[0]

        self.__dict__.update(axis=axis, points=pts, e1_indices=in_subcube(-0.5),
                             e2_indices=in_subcube(+0.5))  # past the frozen __setattr__

    @property
    def e1(self) -> np.ndarray:
        return self.points[self.e1_indices]

    @property
    def e2(self) -> np.ndarray:
        return self.points[self.e2_indices]

    def nearest_index(self, x) -> int:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,) or not all(map(math.isfinite, x)):
            raise GeometryError(f"need a finite point of {self.dim} coordinates, got {x.tolist()}")
        return int(np.argmin(np.linalg.norm(self.points - x, axis=1)))


def build_net(n: int, delta: float) -> DirectionNet:
    """The DirectionNet of Q in R^n at spacing delta."""
    return DirectionNet(n - 1, float(delta))


@dataclass(frozen=True)
class Tube:
    """T = {(y_, y_n): |y_n| <= 1, ||y_ - y_n omega - i|| <= delta} in R^{dim + 1}."""

    direction_omega: tuple
    base_i: tuple
    delta: float

    def __post_init__(self):
        if not (1 <= self.dim == len(self.base_i) and 0 < self.delta < math.inf  # NaN fails
                and all(map(math.isfinite, (*self.direction_omega, *self.base_i)))):
            raise GeometryError(f"a tube needs a finite direction and base of one dimension "
                                f">= 1 and a finite delta > 0, got {self}")

    @property
    def dim(self) -> int:
        return len(self.direction_omega)

    def axis_d2(self, pts: np.ndarray, d2: np.ndarray, dev: np.ndarray) -> np.ndarray:
        """Write ((y_a - y_n omega_a) - i_a)^2 summed in axis order, the cell test of X
        and X*, for each row of (m, n) points into the (m,) array d2; dev is scratch."""
        yn = pts[:, -1]
        for a, (w, i) in enumerate(zip(self.direction_omega, self.base_i)):
            out = dev if a else d2  # 0.0 + dev*dev is dev*dev: axis 0 writes d2
            np.subtract(pts[:, a], np.multiply(yn, w, out=out), out=out)
            out -= i
            out *= out
            if a:
                d2 += dev
        return d2

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (m, n) array of points."""
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dim + 1:
            raise GeometryError(f"a tube in R^{self.dim + 1} cannot test {pts.shape[1]}-D points")
        d2, dev = np.empty((2, len(pts)))
        return (np.abs(pts[:, -1]) <= 1.0) & (self.axis_d2(pts, d2, dev) <= self.delta**2)


def tube_volume(t: Tube) -> float:
    """2 v_{n-1} delta^{n-1}; the shear does not change cross-sections."""
    return 2.0 * unit_ball_volume(t.dim) * t.delta ** t.dim


def _axis_distance(t1: Tube, t2: Tube):
    """Coefficients of d(t) = || (i1-i2) + t (w1-w2) ||."""
    di = np.asarray(t1.base_i) - np.asarray(t2.base_i)
    dw = np.asarray(t1.direction_omega) - np.asarray(t2.direction_omega)
    return di, dw


def _overlap_interval(t1: Tube, t2: Tube):
    """The y_n interval on which cross-sections can overlap (d(t) <= 2 delta),
    intersected with [-1, 1]; returns None when empty."""
    di, dw = _axis_distance(t1, t2)
    r = t1.delta + t2.delta
    a = float(dw @ dw)
    b = 2.0 * float(di @ dw)
    c = float(di @ di) - r * r
    if a < 1e-30:
        if c > 0:
            return None
        return (-1.0, 1.0)
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    s = math.sqrt(disc)
    lo, hi = (-b - s) / (2 * a), (-b + s) / (2 * a)
    lo, hi = max(lo, -1.0), min(hi, 1.0)
    if lo >= hi:
        return None
    return (lo, hi)


def _lens_area(d: np.ndarray, r: float) -> np.ndarray:
    """Area of the intersection of two discs of radius r at center distance d."""
    d = np.asarray(d, dtype=float)
    out = np.zeros_like(d)
    mask = d < 2 * r
    dm = np.clip(d[mask], 0.0, 2 * r)
    half = dm / (2 * r)
    out[mask] = 2 * r * r * np.arccos(half) - 0.5 * dm * np.sqrt(
        np.maximum(4 * r * r - dm * dm, 0.0)
    )
    return out


def _check_pair(t1: Tube, t2: Tube) -> int:
    """The n both tubes live in; they must share it and delta."""
    if t1.dim != t2.dim:
        raise GeometryError(f"tubes of dimensions {t1.dim} and {t2.dim}")
    if t1.delta != t2.delta:
        raise GeometryError("tubes must share delta")
    return t1.dim + 1


def tube_intersection_exact(t1: Tube, t2: Tube) -> float:
    """|T1 cap T2| via cross-section overlap, in the tubes' R^n.

    n=2: closed-form integral of the interval overlap max(0, 2 delta - |d(t)|).
    n=3: fixed-order quadrature of the two-disc lens area (d(t) is smooth and
    the integrand is piecewise smooth; 4096 midpoint nodes on the overlap
    interval keep the error far below the tolerances used by callers).
    """
    n = _check_pair(t1, t2)
    if n not in (2, 3):
        raise GeometryError(f"exact intersection implemented for n in {{2, 3}}, not n = {n}")
    iv = _overlap_interval(t1, t2)
    if iv is None:
        return 0.0
    lo, hi = iv
    di, dw = _axis_distance(t1, t2)
    if n == 2:
        # integrand max(0, 2 delta - |di + t dw|) is piecewise linear in t
        r = 2 * t1.delta
        a, b = float(dw[0]), float(di[0])
        if a == 0.0:
            return max(0.0, r - abs(b)) * (hi - lo)
        # kinks where |a t + b| = 0
        knots = sorted({lo, hi, min(max(-b / a, lo), hi)})
        total = 0.0
        for u, v in zip(knots[:-1], knots[1:]):
            mid = 0.5 * (u + v)
            val_mid = r - abs(a * mid + b)
            if val_mid <= 0:
                continue
            # linear on this piece: integrate exactly via endpoint mean
            vu = r - abs(a * u + b)
            vv = r - abs(a * v + b)
            total += 0.5 * (vu + vv) * (v - u)
        return total
    m = 4096
    t = lo + (np.arange(m) + 0.5) * (hi - lo) / m
    d = np.sqrt((di[0] + t * dw[0]) ** 2 + (di[1] + t * dw[1]) ** 2)
    return float(np.sum(_lens_area(d, t1.delta)) * (hi - lo) / m)


MC_CHUNK = 1 << 14  # Monte-Carlo rows drawn and tested at a time


def tube_intersection_volume(t1: Tube, t2: Tube, mc_samples: int, seed: int):
    """Monte-Carlo |T1 cap T2| with standard error, in the tubes' R^n.

    Samples uniformly from a tight axis-aligned box that contains the
    intersection (the y_n overlap interval crossed with the T1 slab there),
    so the estimate stays informative for small delta.  Both tubes are
    tested in place on every sample of a chunk with Tube.axis_d2.
    """
    if not _is_int(mc_samples) or mc_samples < 1000:
        raise GeometryError(f"mc_samples must be an integer >= 1000, not {mc_samples!r}")
    if not _is_int(seed) or seed < 0:
        raise GeometryError(f"seed must be a non-negative integer, not {seed!r}")
    n = _check_pair(t1, t2)
    iv = _overlap_interval(t1, t2)
    if iv is None:
        return 0.0, 0.0
    lo, hi = iv
    omega1 = np.asarray(t1.direction_omega)
    base1 = np.asarray(t1.base_i)
    # T1's spatial extent over [lo, hi]
    c_lo = base1 + lo * omega1
    c_hi = base1 + hi * omega1
    box_lo = np.minimum(c_lo, c_hi) - t1.delta
    box_hi = np.maximum(c_lo, c_hi) + t1.delta
    lo_full = np.append(box_lo, lo)
    hi_full = np.append(box_hi, hi)
    span = hi_full - lo_full
    vol_box = float(np.prod(span))
    rng = np.random.default_rng(seed)
    buf = np.empty((min(mc_samples, MC_CHUNK), n))
    scratch = np.empty((2, len(buf)))
    k = 0
    for start in range(0, mc_samples, MC_CHUNK):
        pts = buf[:mc_samples - start]
        d2, dev = scratch[:, :len(pts)]
        rng.random(out=pts)  # PCG64 fills row-major: the stream of one big draw
        for a in range(n):  # lo + span * u; a scalar per column beats broadcasting
            pts[:, a] *= span[a]
            pts[:, a] += lo_full[a]
        # one y_n test for both tubes; gathering T1's hits costs more than T2 on every row
        ok = (np.abs(pts[:, -1]) <= 1.0) & (t1.axis_d2(pts, d2, dev) <= t1.delta**2)
        ok &= t2.axis_d2(pts, d2, dev) <= t2.delta**2
        k += int(np.count_nonzero(ok))
    p_hat = k / mc_samples
    est = p_hat * vol_box
    # +1 pseudo-hit keeps the error bar honest when k == 0
    p_err = max(p_hat, 1.0 / mc_samples)
    stderr = vol_box * math.sqrt(p_err * (1 - p_hat) / mc_samples)
    return est, stderr
