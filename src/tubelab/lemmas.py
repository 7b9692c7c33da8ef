"""Numerical verifiers for the workhorse inequalities: quasi-orthogonality
of frequency-separated pieces, the dyadic-cube mass bounds, the elementary
sequence/quasi-norm inequalities, the density stopping-time decomposition,
and the multi-scale density functional.

Sets are represented on a dyadic cell grid over Q = [-1,1]^{n-1}, so every
measure here is an exact dyadic rational (held as integer cell counts)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Dict, List, Optional

import numpy as np

from . import TubelabError, check_int
from .fields import GridFunction, conjugate, lp, lp_norm
from .geometry import DyadicCube


class LemmaError(TubelabError):
    pass


# ---------------------------------------------------------------------------
# dyadic subsets of Q


@dataclass
class OmegaSet:
    """Subset of Q stored as a boolean mask on cells of side 2^-resolution_j:
    an (n-1)-cube of 2^(resolution_j + 1) cells per axis, which gives both."""

    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.array(self.mask, dtype=bool)
        side = self.mask.shape[0] if self.mask.ndim else 0
        if self.mask.shape != (side,) * self.mask.ndim or side < 2 or side & (side - 1):
            raise LemmaError(f"mask shape {self.mask.shape}: need a cube of side "
                             "2^(J+1) cells with J >= 0")

    @property
    def n(self) -> int:
        return self.mask.ndim + 1

    @property
    def resolution_j(self) -> int:
        return self.mask.shape[0].bit_length() - 2

    @property
    def cell_measure(self) -> Fraction:
        return Fraction(1, 2 ** self.resolution_j) ** (self.n - 1)

    @property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def measure(self) -> Fraction:
        return self.cell_count * self.cell_measure

    def cube_counts(self, j: int) -> np.ndarray:
        """Integer array over level-j cube indices of |Omega cap cube| in cells."""
        check_int("j", j, 0, self.resolution_j, LemmaError)
        b = 2 ** (self.resolution_j - j)
        counts = self.mask.astype(np.int64)
        d = self.n - 1
        for axis in range(d):
            side = counts.shape[axis]
            new_shape = counts.shape[:axis] + (side // b, b) + counts.shape[axis + 1:]
            counts = counts.reshape(new_shape).sum(axis=axis + 1)
        return counts

    def cube_cells_total(self, j: int) -> int:
        return (2 ** (self.resolution_j - j)) ** (self.n - 1)


def random_omega_set(n: int, resolution_j: int, seed: int) -> OmegaSet:
    """Seeded random dyadic subset: scattered cells joined with random boxes."""
    check_int("n", n, 2, error=LemmaError)
    check_int("resolution_j", resolution_j, 0, error=LemmaError)
    check_int("seed", seed, 0, error=LemmaError)
    rng = np.random.default_rng(seed)
    side = 2 ** (resolution_j + 1)
    shape = (side,) * (n - 1)
    density = rng.uniform(0.005, 0.15)
    mask = rng.random(shape) < density
    for _ in range(rng.integers(1, 5)):
        corner = rng.integers(0, side, size=n - 1)
        sizes = rng.integers(1, max(2, side // 3), size=n - 1)
        sel = tuple(slice(int(c), int(min(side, c + s)))
                    for c, s in zip(corner, sizes))
        mask[sel] = True  # at least one non-empty box: the mask is never empty
    return OmegaSet(mask)


# ---------------------------------------------------------------------------
# quasi-orthogonality of frequency-rectangle pieces


@dataclass(frozen=True)
class FreqRect:
    """Product of integer frequency intervals [center - half, center + half]."""

    centers: tuple
    halfwidths: tuple

    def doubled_bounds(self):
        return [(c - 2 * h, c + 2 * h) for c, h in zip(self.centers, self.halfwidths)]


def _rects_doubled_disjoint(rects) -> bool:
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            overlap = True
            for (lo1, hi1), (lo2, hi2) in zip(rects[i].doubled_bounds(),
                                              rects[j].doubled_bounds()):
                if hi1 < lo2 or hi2 < lo1:
                    overlap = False
                    break
            if overlap:
                return False
    return True


#: periodic grid points per axis of quasi_orthogonality_ratio's pieces
QUASI_GRID_M = 512


def quasi_orthogonality_ratio(rects: List[FreqRect], seed: int, p: float) -> float:
    """||sum f_k||_p / (sum ||f_k||_p^{p*})^{1/p*} with p* = min(p, p') for
    random smooth f_k with Fourier support exactly on the given rectangles.

    Pieces are synthesized on a periodic QUASI_GRID_M-point grid per axis
    (integer frequencies, raised cosine taper times random Gaussian coefficients),
    so disjoint support is exact and the p = 2 case is Plancherel on the nose."""
    check_int("seed", seed, 0, error=LemmaError)
    if not p >= 1:
        raise LemmaError(f"need p >= 1, got p = {p}")
    if not rects:
        raise LemmaError("need at least one rectangle")
    if not _rects_doubled_disjoint(rects):
        raise LemmaError("doubled rectangles overlap")
    dim = len(rects[0].centers)
    if any(len(r.centers) != dim for r in rects):
        raise LemmaError("mixed rectangle dimensions")
    rng = np.random.default_rng(seed)
    shape = (QUASI_GRID_M,) * dim
    cell = (1.0 / QUASI_GRID_M) ** dim

    def synth(rect: FreqRect) -> np.ndarray:
        coef = np.zeros(shape, dtype=complex)
        axes_freqs = [np.arange(c - h, c + h + 1) for c, h in
                      zip(rect.centers, rect.halfwidths)]
        tapers = [0.5 * (1 + np.cos(np.pi * (f - c) / (h + 1)))
                  for f, c, h in zip(axes_freqs, rect.centers, rect.halfwidths)]
        taper = tapers[0]
        for t in tapers[1:]:
            taper = np.multiply.outer(taper, t)
        vals = (rng.standard_normal(taper.shape)
                + 1j * rng.standard_normal(taper.shape)) * taper
        idx = np.meshgrid(*[f % QUASI_GRID_M for f in axes_freqs], indexing="ij")
        coef[tuple(idx)] = vals
        return np.fft.ifftn(coef) * QUASI_GRID_M**dim

    pieces = [synth(r) for r in rects]
    total = np.sum(pieces, axis=0)

    p_star = min(p, conjugate(p))
    denom = lp([lp(np.abs(u).reshape(-1), p, cell) for u in pieces], p_star)
    if denom == 0:
        raise LemmaError("degenerate random draw")
    return lp(np.abs(total).reshape(-1), p, cell) / denom


# ---------------------------------------------------------------------------
# dyadic mass bounds


def level_from_measure(omega: OmegaSet) -> int:
    """The integer j0 >= 0 with 2^{-(n-1)(j0+1)} < |Omega| <= 2^{-(n-1)j0}."""
    meas = omega.measure
    if meas == 0:
        raise LemmaError("empty set")
    j0 = 0
    while Fraction(1, 2 ** ((omega.n - 1) * (j0 + 1))) >= meas:
        j0 += 1
    return j0


def xr_bounds_check(omega: OmegaSet, j: int, p: float, alpha: Fraction):
    """lhs = sum_k |Omega cap cube|^p against the two mass bounds.

    rhs_big applies for p >= 1, rhs_small for p <= 1; the alpha density
    hypothesis is verified, not assumed.  Returns (lhs, rhs_big, rhs_small)."""
    if not 0 < p < np.inf:  # also refuses NaN
        raise LemmaError(f"need 0 < p < inf, got p = {p}")
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise LemmaError("alpha must lie in [0, 1]")
    n = omega.n
    counts = omega.cube_counts(j)
    cells = omega.cube_cells_total(j)
    if int(counts.max()) > alpha * cells:
        raise LemmaError("alpha density hypothesis fails at this level")
    cellmeas = float(omega.cell_measure)
    meas = counts.astype(float) * cellmeas
    lhs = float(np.sum(meas[meas > 0] ** p))
    j0 = level_from_measure(omega)
    small = min(float(alpha) * 2.0 ** (-(n - 1) * j), 2.0 ** (-(n - 1) * j0))
    rhs_big = 2.0 ** (-(n - 1) * j0) * small ** (p - 1)
    rhs_small = 2.0 ** (-(n - 1) * p * j0) * 2.0 ** ((n - 1) * (1 - p) * j)
    return lhs, rhs_big, rhs_small


def young_check(a, p: float, fs: Optional[List[GridFunction]] = None,
                q: float = 1.0):
    """(sum |a_k|^p)^{1/p} <= sum |a_k| for p >= 1, and the q <= 1
    quasi-norm triangle inequality for grid functions.  Returns booleans."""
    if p < 1:
        raise LemmaError("need p >= 1")
    a = np.abs(np.asarray(a, dtype=float))
    lhs = lp(a, p)
    seq_ok = lhs <= float(np.sum(a)) * (1 + 1e-12) + 1e-300
    func_ok = True
    if fs:
        if not 0 < q <= 1:
            raise LemmaError("need 0 < q <= 1")
        total = fs[0].samples.copy()
        for f in fs[1:]:
            total = total + f.samples
        combined = GridFunction(fs[0].origin, fs[0].spacing, total)
        lhs_f = lp_norm(combined, q)
        rhs_f = lp([lp_norm(f, q) for f in fs], q)
        func_ok = lhs_f <= rhs_f * (1 + 1e-12)
    return seq_ok, func_ok


# ---------------------------------------------------------------------------
# density stopping time


def _children(levels: np.ndarray) -> np.ndarray:
    """A per-cube array of one level repeated onto the next level's cubes."""
    return np.kron(levels, np.ones((2,) * levels.ndim, dtype=levels.dtype))


@dataclass
class CZDecomposition:
    good_set: OmegaSet
    bad_cubes: List  # (DyadicCube, trapped measure as Fraction)
    thresholds: Dict[int, Fraction]

    @property
    def flagged_max_level(self) -> bool:
        """Whether a selected cube is a single cell of the grid."""
        return any(cube.level_j == self.good_set.resolution_j for cube, _t in self.bad_cubes)

    def validate(self, omega: OmegaSet):
        """Replay the defining inequalities exactly, level by level (integer cell counts)."""
        J, dim = omega.resolution_j, omega.mask.ndim
        good = self.good_set
        if good.mask.shape != omega.mask.shape or any(
                cube.level_j > J or len(cube.index_k) != dim for cube, _t in self.bad_cubes):
            raise LemmaError(f"good set or a selected cube off Omega's {dim}-axis levels 0..{J}")
        cell = omega.cell_measure
        alpha = [self.thresholds.get(j, Fraction(1)) for j in range(J + 1)]
        cover = np.zeros((1,) * dim, dtype=int)  # selections covering each cube
        for j in range(J + 1):
            cover = _children(cover)
            selected = [(cube.index_k, t) for cube, t in self.bad_cubes if cube.level_j == j]
            if not selected:
                continue
            index, trapped = zip(*selected)
            index = tuple(np.array(index).T)
            counts = omega.cube_counts(j)[index]
            cells = omega.cube_cells_total(j)
            if [c * cell for c in counts.tolist()] != list(trapped):
                raise LemmaError("trapped measure mismatch")
            if counts.min() <= math.floor(alpha[j] * cells):
                raise LemmaError("selected cube below threshold")
            if j > 0 and counts.max() > math.floor(4 * alpha[j - 1] * cells):
                raise LemmaError("selected cube exceeds the parent bound")
            np.add.at(cover, index, 1)
        if cover.max() > 1:
            raise LemmaError("selected cubes overlap")
        # good set density bound at every level, all cubes
        for j in range(J + 1):
            if good.cube_counts(j).max() > math.floor(alpha[j] * good.cube_cells_total(j)):
                raise LemmaError(f"good-set density bound fails at level {j}")
        # exact cover
        covered = omega.mask & (cover > 0)
        if np.any(good.mask & covered):
            raise LemmaError("good set meets a selected cube")
        if not np.array_equal(good.mask | covered, omega.mask):
            raise LemmaError("good set plus trapped parts do not cover Omega")
        return True


def stopping_thresholds(j0: int, r: float, m: int = 4, max_level: int = 16) -> Dict[int, Fraction]:
    """Level thresholds solving alpha^{4/r - 1} 2^{2(j0 - j)} = 2^{-m} inside
    the active window, and 1 outside.

    alpha_j = 2^{(2(j - j0) - m) r / (4 - r)}, clipped to (0, 1]; exponents
    are floored to integers so the thresholds stay exact dyadic rationals
    (the decomposition invariants hold for any thresholds, so the rounding
    only shifts which cubes get selected)."""
    for name, value in (("j0", j0), ("m", m), ("max_level", max_level)):
        check_int(name, value, 0, error=LemmaError)
    if not 0 < r < 4:
        raise LemmaError("need 0 < r < 4")
    out = {}
    for j in range(0, max_level + 1):
        d = j - j0
        inside = d < m / 2
        if r < 2:
            inside &= d > -m / (8.0 / r - 4.0)
        if not inside:
            out[j] = Fraction(1)
            continue
        e = (2 * d - m) * r / (4.0 - r)
        out[j] = min(Fraction(1), Fraction(2) ** int(math.floor(e)))
    return out


def cz_decompose(omega: OmegaSet, thresholds: Dict[int, Fraction]) -> CZDecomposition:
    """Top-down maximal-cube selection: per level, the cubes outside every earlier selection
    holding more than floor(alpha_j * cells) cells (alpha_j = 1 if missing); the rest is good."""
    J = omega.resolution_j
    for j, alpha in thresholds.items():
        check_int("threshold level", j, 0, error=LemmaError)
        if isinstance(alpha, bool) or not isinstance(alpha, Real) or not 0 < alpha <= 1:
            raise LemmaError("thresholds must lie in (0, 1]")  # also NaN, inf, None, str
    thresholds = {j: Fraction(t) for j, t in thresholds.items()}
    for j in range(J + 1):
        thresholds.setdefault(j, Fraction(1))
    cell = omega.cell_measure
    free = np.ones((1,) * omega.mask.ndim, dtype=bool)  # cubes outside every selection
    bad: List = []
    for j in range(J + 1):
        free = _children(free)
        counts = omega.cube_counts(j)
        over = free & (counts > math.floor(thresholds[j] * omega.cube_cells_total(j)))
        bad += [(DyadicCube(j, tuple(idx)), counts[tuple(idx)].item() * cell)
                for idx in np.argwhere(over).tolist()]
        free &= ~over
    good = OmegaSet(omega.mask & free)
    return CZDecomposition(good_set=good, bad_cubes=bad, thresholds=thresholds)


# ---------------------------------------------------------------------------
# the multi-scale density functional (three dimensions)


@dataclass
class XrNormResult:
    value: float          # truncated at the grid resolution
    tail_fourth: float    # exact tail of the fourth power beyond it


def xr_norm(omega: OmegaSet, r: float) -> XrNormResult:
    """(sum_j sum_k 2^{-4j} density(j,k)^{4/r})^{1/4} for n = 3.

    Levels beyond the grid resolution contribute exactly
    |cells| 16^{-J} / 3 to the fourth power (densities there are 0 or 1)."""
    if omega.n != 3:
        raise LemmaError("the functional is specific to n = 3")
    if not r > 0:  # also refuses NaN
        raise LemmaError(f"need r > 0, got r = {r}")
    J = omega.resolution_j
    total = 0.0
    for j in range(0, J + 1):
        counts = omega.cube_counts(j).astype(float)
        cells = omega.cube_cells_total(j)
        dens = counts[counts > 0] / cells
        total += 2.0 ** (-4 * j) * float(np.sum(dens ** (4.0 / r)))
    tail = omega.cell_count * 16.0 ** (-J) / 3.0
    return XrNormResult(value=total**0.25, tail_fourth=tail)
