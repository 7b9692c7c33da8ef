"""Extremizing cap families for the product-estimate necessity conditions,
the table of every sweepable family (these and the tube configurations of
xray), the scale sweep of their ratios, and log-log power-law fits.

The cap families live on the paraboloid-graph parameter domain.  The
separated caps sit on Q1 = [-3/4,-1/4] x [-1/4,1/4]^{n-2} and its mirror
Q2; the distinguished plane factor of the construction is realized as the
first parameter axis, so its dual pair is the (x_1, x_n) plane."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from . import TubelabError, xray
from .extension import (CapFunction, EllipticPhase, domain_norm_ratio,
                        evaluate_extension, required_grid_counts)
from .fields import Box, CylinderDomain
from .geometry import _is_int, product_grid, quadratic_phase

C0_MODULATED = "c0-modulated"
C1_SQUASHED = "c1-squashed"
C2_STRETCHED = "c2-stretched"
KNAPP_CLASSIC = "knapp-classic"

#: the box constant of the no-cancellation region (exposed as a flag in the CLI)
DEFAULT_BOX_CONSTANT = 8.0

CAP_CENTER = 0.5  # first-axis distance of each cap center from the origin
CAP_HALF = 0.25


class WitnessError(TubelabError):
    pass


class ModulationSearchError(WitnessError):
    """The phase-shift search failed to reach the predicted amplitude."""

    exit_code = 3


@dataclass(frozen=True)
class ShearedBox:
    """{ |x_1 + shear * x_n| <= w1, |x_mid| <= w_mid, |x_n| <= w_n }."""

    shear: float
    w1: float
    w_mid: tuple
    w_n: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        ok = np.abs(pts[:, 0] + self.shear * pts[:, -1]) <= self.w1
        for a, w in enumerate(self.w_mid):
            ok &= np.abs(pts[:, a + 1]) <= w
        ok &= np.abs(pts[:, -1]) <= self.w_n
        return ok

    def bounding_box(self):
        half = np.array([self.w1 + abs(self.shear) * self.w_n, *self.w_mid, self.w_n])
        return -half, half

    def row_span(self, pts, axis: int):
        """Rows along x_1 centre on -shear x_n, the other rows on 0."""
        if axis == 0:
            return -(self.shear * pts[:, -1]), self.w1
        return 0.0, self.w_mid[axis - 1]


@dataclass(frozen=True)
class Family:
    """A sweepable witness family.

    predicted(n, p, q) is the scale exponent of the family's ratio, arranged
    so that it is >= 0 exactly when the corresponding feasibility condition
    holds.  Cap families are built by build_witness; tube families come from
    xray (`tubes`).  The scale is delta, except for the modulated family,
    whose scale is R and whose fit abscissa is 1/R (`inverse_scale`)."""

    name: str
    predicted: Callable[[int, float, float], float]
    tubes: bool = False
    inverse_scale: bool = False


#: every family a sweep can run, by name
FAMILIES = {fam.name: fam for fam in (
    Family(C0_MODULATED, lambda n, p, q: (n - 1) - n / q, inverse_scale=True),
    Family(C1_SQUASHED, lambda n, p, q: 2 * n - (n + 2) / q - 2 * n / p),
    Family(C2_STRETCHED,
           lambda n, p, q: 2 * (n - 1) - (n + 2) / q - 2 * (n - 2) / p),
    Family(KNAPP_CLASSIC,
           lambda n, p, q: (n - 1) - (n + 1) / q - (n - 1) / p),
    *(Family(kind, xray.PREDICTED_EXPONENTS[kind], tubes=True)
      for kind in (xray.DELTA_BALL, xray.K0_DELTAS, xray.K1_SLAB)),
)}


def _family(kind: str) -> Family:
    try:
        return FAMILIES[kind]
    except KeyError:
        raise WitnessError(f"unknown family {kind!r}") from None


@dataclass
class PowerLawFit:
    slope: float
    intercept: float
    max_residual: float
    points: List[Tuple[float, float]]


def _log_log_points(points):
    """The points sorted by scale; every scale and value must be positive
    and finite, and no scale may repeat."""
    pts = sorted((float(s), float(v)) for s, v in points)
    if len(pts) < 2:
        raise WitnessError("need at least two points")
    if not all(0 < x < math.inf for pt in pts for x in pt):
        raise WitnessError("scales and values must be positive and finite "
                           "for a log-log fit")
    if any(b[0] == a[0] for a, b in zip(pts, pts[1:])):
        raise WitnessError("scales must be distinct")
    return pts


def fit_power_law(points) -> PowerLawFit:
    """Least-squares line through (log2 scale, log2 value)."""
    pts = _log_log_points(points)
    xs = np.log2([s for s, _v in pts])
    ys = np.log2([v for _s, v in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return PowerLawFit(slope=float(slope), intercept=float(intercept),
                       max_residual=float(np.max(np.abs(resid))),
                       points=pts)


def _cap_pair(half1: float, n: int, half_rest: float):
    """The two caps of half-sides half1 along the first axis and half_rest
    along the others, centred at -CAP_CENTER e_1 and +CAP_CENTER e_1."""
    return tuple(CapFunction((c - half1,) + (-half_rest,) * (n - 2),
                             (c + half1,) + (half_rest,) * (n - 2))
                 for c in (-CAP_CENTER, CAP_CENTER))


def predicted_exponent(kind: str, n: int, p: float, q: float) -> float:
    """Scale exponent of the family's witness ratio (see Family), n >= 2."""
    if not _is_int(n) or n < 2:
        raise WitnessError(f"need n >= 2, an integer, got n = {n!r}")
    return _family(kind).predicted(n, p, q)


def _modulated(cap: CapFunction, phi: EllipticPhase, seed: np.ndarray,
               radius: float, probes: np.ndarray, active_axes,
               floor: float) -> CapFunction:
    """The unmodulated cap modulated by the x0 that maximizes the minimum
    field amplitude over the probes (the first maximum in lattice order),
    from a 9-point lattice per active axis centred on the analytic seed;
    ModulationSearchError if that amplitude is below floor.  One guard call
    sizes all trials (the cap at probes + x0).  A trial no better than the
    best at the best's weakest probe cannot win and is not scored further."""
    assert cap.modulation is None
    lattice = product_grid([np.linspace(-radius, radius, 9)] * len(active_axes))
    x0s = np.tile(seed, (len(lattice), 1))
    x0s[:, active_axes] += lattice
    shifted = probes + x0s[:, None, :]
    best, best_score, weakest = None, -1.0, 0
    for k, grid_n in enumerate(required_grid_counts(cap, phi, shifted).max(axis=-1)):
        if best is not None and np.abs(evaluate_extension(
                cap, phi, shifted[k, weakest:weakest + 1], grid_n))[0] <= best_score:
            continue
        amps = np.abs(evaluate_extension(cap, phi, shifted[k], grid_n))
        if amps.min() > best_score:
            best, best_score, weakest = k, amps.min(), amps.argmin()
    if best_score < floor:
        raise ModulationSearchError(
            f"best modulated amplitude {best_score:.3g} is below the floor "
            f"{floor:.3g}")
    return CapFunction(cap.support_lo, cap.support_hi, tuple(x0s[best]))


def _probe_points(domain) -> np.ndarray:
    lo, hi = domain.bounding_box()
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * 0.7
    pts = product_grid([np.array([c - h, c, c + h]) for c, h in zip(center, half)])
    return pts[domain.contains(pts)]


def build_witness(kind: str, n: int, scale: float,
                  box_constant: float = DEFAULT_BOX_CONSTANT):
    """Cap pair and the predicted no-cancellation region for one family.

    scale is delta for the cap families and R for the modulated family.
    The single-cap family returns g = None."""
    if _family(kind).tubes:
        raise WitnessError(f"{kind!r} is a tube family (see xray.kakeya_witness)")
    if not _is_int(n) or n < 2:
        raise WitnessError(f"need n >= 2, an integer, got n = {n!r}")
    if not 0 < scale < math.inf:
        raise WitnessError("need a positive finite scale")
    phi = quadratic_phase(n - 1)
    C = float(box_constant)
    if not 0 < C < math.inf:
        raise WitnessError("need a positive finite box_constant")
    if kind == C0_MODULATED:
        R = float(scale)
        if not (R >= 4 and 8.0 * R < math.inf):  # box at 3R; probes add its bounds
            raise WitnessError(f"need R >= 4 and 8R finite, got R = {R:g}")
        f, g0 = _cap_pair(CAP_HALF, n, CAP_HALF)
        # the stationary bump has width ~ t^{-1/2}; placing the box at 3R
        # keeps it well inside the caps already at the smallest R
        t0 = 3.0 * R
        box_center = np.zeros(n)
        box_center[0] = CAP_CENTER * t0
        box_center[-1] = t0
        box = Box(tuple(box_center - R / 8), tuple(box_center + R / 8))
        seed = np.zeros(n)
        seed[0] = -2 * CAP_CENTER * t0
        # the floor is half the predicted amplitude t0^{-(n-1)/2}
        g = _modulated(g0, phi, seed, R / 4, _probe_points(box), [0],
                       floor=0.5 * t0 ** (-(n - 1) / 2.0))
        return f, g, box
    delta = float(scale)
    if delta > 0.25:
        raise WitnessError("need delta <= 1/4")
    if not (1.0 / C / delta / delta < math.inf and C * delta**2 > 0):  # delta**2 can underflow
        raise WitnessError("delta too small: the region side "
                           "1/(box_constant delta^2) overflows")
    if kind == KNAPP_CLASSIC:
        # a single cap at the first cap center; its dual box is sheared by
        # the tangent slope there
        f, _g = _cap_pair(delta / 2, n, delta / 2)
        box = ShearedBox(shear=-CAP_CENTER, w1=1.0 / (C * delta),
                         w_mid=(1.0 / (C * delta),) * (n - 2),
                         w_n=1.0 / (C * delta**2))
        return f, None, box
    if kind == C2_STRETCHED and n < 3:
        raise WitnessError("the stretched family needs n >= 3")
    rho = 1.0 / (C * delta**2)
    box = CylinderDomain(disc_axes=(0, n - 1), disc_center=(0.0, 0.0),
                         disc_radius=rho,
                         rest_lo=(-1.0 / (C * delta),) * (n - 2),
                         rest_hi=(1.0 / (C * delta),) * (n - 2))
    if kind == C1_SQUASHED:
        return (*_cap_pair(delta**2, n, delta), box)
    shift = 8.0 * rho
    probes = _probe_points(box)
    predicted_amp = (2 * delta) ** (n - 2) * shift ** -0.5
    caps = []
    for sign, cap in zip((+1, -1), _cap_pair(CAP_HALF, n, delta)):
        seed = np.zeros(n)
        seed[0] = sign * shift / 2
        seed[-1] = shift
        caps.append(_modulated(cap, phi, seed, rho, probes, [0, n - 1],
                               floor=0.25 * predicted_amp))
    return caps[0], caps[1], box


def witness_ratio(kind: str, n: int, scale: float, p: float, q: float,
                  grid_n: int = 16,
                  box_constant: float = DEFAULT_BOX_CONSTANT) -> float:
    """The localized product-norm ratio of a witness at one scale.

    grid_n floors the quadrature nodes per support axis; the oscillation
    guard raises it further where needed."""
    f, g, box = build_witness(kind, n, scale, box_constant=box_constant)
    phi = quadratic_phase(n - 1)
    ratio, _stats = domain_norm_ratio(f, g, phi, p, q, box, min_nodes=grid_n)
    return ratio


def trace_caps(n: int, R: float) -> Tuple[CapFunction, CapFunction]:
    """Shrinking separated caps of half-side 1/R: the pair that drives the
    localized bilinear L^2 x L^2 -> L^1 growth at its full rate R."""
    if not _is_int(n) or n < 2 or not 4 <= R < math.inf:
        raise WitnessError(f"need n >= 2 and 4 <= R < inf, an integer n, got n = {n!r}, R = {R}")
    return _cap_pair(1.0 / R, n, 1.0 / R)


def run_sweep(kind: str, n: int, p: float, q: float, scales, grid_n: int = 16,
              box_constant: float = DEFAULT_BOX_CONSTANT):
    """Witness ratios across at least three dyadically spaced scales, for
    any family in FAMILIES, plus their fit (fit_sweep).

    Returns (fit, rows) where rows are (scale, ratio) in the family's scale
    variable.  grid_n and box_constant apply to the cap families only."""
    fam = _family(kind)
    scales = sorted(float(s) for s in scales)
    if len(scales) < 3:
        raise WitnessError("need at least three scales")
    for a, b in zip(scales, scales[1:]):
        if not math.isclose(b / a, 2.0, rel_tol=1e-9):
            raise WitnessError("scales must be dyadically spaced")
    if fam.tubes:
        rows = xray.run_kakeya_sweep(kind, n, p, q, scales)
    else:
        rows = [(s, witness_ratio(kind, n, s, p, q, grid_n=grid_n,
                                  box_constant=box_constant))
                for s in scales]
    return fit_sweep(kind, rows), rows


def fit_sweep(kind: str, rows) -> PowerLawFit:
    """The log-log fit of a family's sweep rows (scale, ratio), against
    1/scale for an inverse-scale family, matching the sign convention of
    predicted_exponent."""
    if _family(kind).inverse_scale:
        rows = sorted((1.0 / s, v) for s, v in _log_log_points(rows))
    return fit_power_law(rows)
