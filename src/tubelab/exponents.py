"""Exact rational calculus over estimate points on the (1/p, 1/q) diagram.

Everything in this module is computed with arbitrary-precision rationals;
no floating point is used anywhere.  The single irrational comparison
(r against 4(sqrt(2)-1)) is decided by integer squaring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import TubelabError

LINEAR = "linear"
BILINEAR = "bilinear"
KAKEYA = "kakeya"
KAKEYA_BILINEAR = "kakeya-bilinear"
_KINDS = (LINEAR, BILINEAR, KAKEYA, KAKEYA_BILINEAR)
# localized (ball-restricted) estimates carry a growth exponent alpha
_LOCALIZED_KINDS = (LINEAR, BILINEAR)


class ExponentDomainError(TubelabError):
    """An exponent operation was called outside its domain of validity."""


def rational_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _check_dimension(n: int):
    if n < 2:
        raise ExponentDomainError(f"need n >= 2, got n = {n}")


def conjugate(p: Fraction) -> Fraction:
    """Holder conjugate p' = p/(p-1)."""
    if p <= 1:
        raise ExponentDomainError(f"conjugate undefined for p = {p} <= 1")
    return p / (p - 1)


@dataclass(frozen=True)
class EstimatePoint:
    inv_p: Fraction
    inv_q: Fraction
    kind: str = LINEAR
    alpha: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ExponentDomainError(f"unknown estimate kind {self.kind!r}")
        if not (0 <= self.inv_p <= 1 and 0 <= self.inv_q <= 1):
            raise ExponentDomainError("estimate point must lie in the unit square")
        if self.alpha is not None:
            if self.kind not in _LOCALIZED_KINDS:
                raise ExponentDomainError(f"alpha not allowed for kind {self.kind!r}")
            if self.alpha < 0:
                raise ExponentDomainError("alpha must be nonnegative")

    @property
    def p(self) -> Fraction:
        return 1 / self.inv_p

    @property
    def q(self) -> Fraction:
        return 1 / self.inv_q

    def to_json(self) -> dict:
        out = {
            "inv_p": rational_json(self.inv_p),
            "inv_q": rational_json(self.inv_q),
            "kind": self.kind,
        }
        if self.alpha is not None:
            out["alpha"] = rational_json(self.alpha)
        return out


@dataclass(frozen=True)
class Halfplane:
    """Constraint a*(1/p) + b*(1/q) <= c, optionally strict."""

    a: Fraction
    b: Fraction
    c: Fraction
    strict: bool = False

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise ExponentDomainError("degenerate halfplane")

    def admits(self, x: Fraction, y: Fraction, closure: bool = True) -> bool:
        lhs = self.a * x + self.b * y
        if closure or not self.strict:
            return lhs <= self.c
        return lhs < self.c

    def to_json(self) -> dict:
        return {
            "a": rational_json(self.a),
            "b": rational_json(self.b),
            "c": rational_json(self.c),
            "strict": self.strict,
        }


@dataclass(frozen=True)
class Region:
    halfplanes: tuple
    dimension_n: int

    def contains(self, x: Fraction, y: Fraction, closure: bool = True) -> bool:
        return all(h.admits(x, y, closure=closure) for h in self.halfplanes)

    def to_json(self) -> dict:
        return {
            "dimension_n": self.dimension_n,
            "halfplanes": [h.to_json() for h in self.halfplanes],
            "vertices": [
                [rational_json(x), rational_json(y)]
                for x, y in region_vertices(self)
            ],
        }


def sharp_line(n: int, q: Fraction) -> Fraction:
    """The p with p' = ((n-1)/(n+1)) q, scale-critical for dimension n."""
    _check_dimension(n)
    q = Fraction(q)
    p_prime = Fraction(n - 1, n + 1) * q
    if p_prime <= 1:
        raise ExponentDomainError(
            f"q = {q} gives p' = {p_prime} <= 1; need q > {Fraction(n + 1, n - 1)}"
        )
    return p_prime / (p_prime - 1)


def sharp_line_inverse(n: int, p: Fraction) -> Fraction:
    """The q paired with p on the scale-critical line."""
    _check_dimension(n)
    return Fraction(n + 1, n - 1) * conjugate(Fraction(p))


RESTRICTION = "restriction-conjecture"
BILINEAR_RESTRICTION = "bilinear-restriction-conjecture"
KAKEYA_BILINEAR_REGION = "kakeya-bilinear-conjecture"


def region(kind: str, n: int) -> Region:
    """Exact half-plane description of a conjectured estimate range.

    Accepts the full kind names or the same without the -conjecture suffix.
    """
    _check_dimension(n)
    if not kind.endswith("-conjecture"):
        kind = kind + "-conjecture"
    F = Fraction
    if kind == RESTRICTION:
        planes = (
            # q > 2n/(n-1)
            Halfplane(F(0), F(1), F(n - 1, 2 * n), strict=True),
            # p' <= (n-1) q / (n+1)  <=>  (n-1)(1/p) + (n+1)(1/q) <= n-1
            Halfplane(F(n - 1), F(n + 1), F(n - 1)),
        )
    elif kind == BILINEAR_RESTRICTION:
        planes = (
            # q >= n/(n-1)
            Halfplane(F(0), F(1), F(n - 1, n)),
            # (n+2)/(2q) + n/p <= n
            Halfplane(F(n), F(n + 2, 2), F(n)),
            # (n+2)/(2q) + (n-2)/p <= n-1
            Halfplane(F(n - 2), F(n + 2, 2), F(n - 1)),
        )
    elif kind == KAKEYA_BILINEAR_REGION:
        planes = (
            # p <= n
            Halfplane(F(-1), F(0), F(-1, n)),
            # (n-2)/q + 2/p >= 1
            Halfplane(F(-2), F(-(n - 2)), F(-1)),
        )
    else:
        raise ExponentDomainError(f"unknown region kind {kind!r}")
    return Region(halfplanes=planes, dimension_n=n)


_UNIT_SQUARE = (
    Halfplane(Fraction(-1), Fraction(0), Fraction(0)),  # x >= 0
    Halfplane(Fraction(1), Fraction(0), Fraction(1)),   # x <= 1
    Halfplane(Fraction(0), Fraction(-1), Fraction(0)),  # y >= 0
    Halfplane(Fraction(0), Fraction(1), Fraction(1)),   # y <= 1
)


def _line_intersection(h1: Halfplane, h2: Halfplane):
    det = h1.a * h2.b - h2.a * h1.b
    if det == 0:
        return None
    x = (h1.c * h2.b - h2.c * h1.b) / det
    y = (h1.a * h2.c - h2.a * h1.c) / det
    return (x, y)


def region_vertices(r: Region) -> list:
    """Vertices of the region clipped to the closed unit square.

    Returned counterclockwise starting from the lexicographically smallest
    vertex.  Strict inequalities are treated as closed for the polygon
    (strictness lives on the edge flags, not on perturbed vertices).
    """
    planes = tuple(r.halfplanes) + _UNIT_SQUARE
    pts = set()
    for i in range(len(planes)):
        for j in range(i + 1, len(planes)):
            pt = _line_intersection(planes[i], planes[j])
            if pt is None:
                continue
            if all(h.admits(pt[0], pt[1], closure=True) for h in planes):
                pts.add(pt)
    pts = sorted(pts)
    if len(pts) <= 2:
        return pts
    # Andrew's monotone chain: the lower hull left to right, then the upper
    # hull back, each dropping a point where the chain does not turn left
    def chain(points):
        hull = []
        for x, y in points:
            while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1]) <=
                                      (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
                hull.pop()
            hull.append((x, y))
        return hull[:-1]

    return chain(pts) + chain(reversed(pts))


def interpolate(e1: EstimatePoint, e2: EstimatePoint, theta: Fraction) -> EstimatePoint:
    """Affine combination e1 + theta (e2 - e1) on the exponent diagram."""
    theta = Fraction(theta)
    if e1.kind != e2.kind:
        raise ExponentDomainError(f"kind mismatch: {e1.kind} vs {e2.kind}")
    if not (0 <= theta <= 1):
        raise ExponentDomainError("theta must lie in [0, 1]")
    if (e1.alpha is None) != (e2.alpha is None):
        raise ExponentDomainError("both or neither endpoint must carry alpha")
    alpha = None
    if e1.alpha is not None:
        alpha = e1.alpha + theta * (e2.alpha - e1.alpha)
    return EstimatePoint(
        inv_p=e1.inv_p + theta * (e2.inv_p - e1.inv_p),
        inv_q=e1.inv_q + theta * (e2.inv_q - e1.inv_q),
        kind=e1.kind,
        alpha=alpha,
    )


def lemma_alpha(p: Fraction, q: Fraction, alpha: Fraction, n: int):
    """Localized-to-global exponent arithmetic.

    Returns (q_tilde_inf, ratio_sup): the infimum of admissible q-tilde,
    2 + q/((n+1)/2 - alpha q), and the supremum of q-tilde/p-tilde,
    1 + (q/p)/((n+1)/2 - alpha q).  The p-tilde bound is q_tilde/ratio.
    """
    _check_dimension(n)
    p, q, alpha = Fraction(p), Fraction(q), Fraction(alpha)
    if p <= 0 or q <= 0:
        raise ExponentDomainError("need p, q > 0")
    denom = Fraction(n + 1, 2) - alpha * q
    if denom <= 0:
        raise ExponentDomainError(
            f"need (n+1)/2 > alpha*q; got alpha*q = {alpha * q} vs {Fraction(n + 1, 2)}"
        )
    q_tilde_inf = 2 + q / denom
    ratio_sup = 1 + (q / p) / denom
    return q_tilde_inf, ratio_sup


def bootstrap_map(alpha: Fraction) -> Fraction:
    """One pass of the localization-improvement map alpha -> alpha/5 + 3/25."""
    return Fraction(alpha) / 5 + Fraction(3, 25)


def bootstrap_fixed_point() -> Fraction:
    return Fraction(3, 20)


#: most bootstrap steps (denominators grow as 5^k, printed digits as steps^2)
MAX_BOOTSTRAP_STEPS = 1000


def bootstrap_iterate(alpha0: Fraction, steps: int) -> list:
    """Iterates of bootstrap_map starting from alpha0 (list of length steps+1)."""
    if not 0 <= steps <= MAX_BOOTSTRAP_STEPS:
        raise ExponentDomainError(f"need 0 <= steps <= {MAX_BOOTSTRAP_STEPS}, got {steps}")
    out = [Fraction(alpha0)]
    for _ in range(steps):
        out.append(bootstrap_map(out[-1]))
    return out


def modest_threshold(n: int) -> Fraction:
    """Smallest p with a symmetric bilinear L^2 product estimate: 4n/(3n-2)."""
    _check_dimension(n)
    return Fraction(4 * n, 3 * n - 2)


def whitney_exponent_check(n: int, p: Fraction, p_tilde: Fraction, q: Fraction):
    """Feasibility of the scale-summation exponent inequalities.

    Evaluates the corner cases (j=0, j=j0, j0=0) of the two linear-in-(j, j0)
    inequality families behind the close-pair summation argument, and returns
    (feasible, epsilon) with epsilon the largest admissible decay rate.
    """
    _check_dimension(n)
    p, p_tilde, q = Fraction(p), Fraction(p_tilde), Fraction(q)
    zero = Fraction(0)
    if not (1 < p_tilde < p):
        return False, zero
    if q * (n - 1) <= n:  # need q > n/(n-1)
        return False, zero
    if conjugate(p) > Fraction(n - 1, n + 1) * 2 * q:  # j = j0 corner
        return False, zero
    eps_j0 = 2 * (n - 1) * (1 / p_tilde - 1 / p)          # j = 0 corner
    eps_j = 2 * (n - 1) - Fraction(2 * n) / q             # j0 = 0 corner
    eps = min(eps_j0, eps_j)
    if eps <= 0:
        return False, zero
    return True, eps


def x_imply(p: Fraction, q: Fraction):
    """Density-decomposition exponent bookkeeping for n = 3.

    Returns (w, r, applicable): w = (4+q)/2, r = 4p'/q, and whether
    r > 4(sqrt(2)-1), decided exactly via (r/4 + 1)^2 > 2.
    """
    p, q = Fraction(p), Fraction(q)
    if not (2 < q < 4):
        raise ExponentDomainError(f"need 2 < q < 4, got q = {q}")
    w = (4 + q) / 2
    r = 4 * conjugate(p) / q
    s = r / 4 + 1
    applicable = s * s > 2
    return w, r, applicable


def x_imply_collinearity(p: Fraction, q: Fraction) -> Fraction:
    """Exact determinant of (1/p,1/q), (1-2/w,1/w), (1/r,1/4) at w=(4+q)/2.

    Zero means the three diagram points are collinear.
    """
    w, r, _ = x_imply(p, q)
    x1, y1 = 1 / Fraction(p), 1 / Fraction(q)
    x2, y2 = 1 - 2 / w, 1 / w
    x3, y3 = 1 / r, Fraction(1, 4)
    return (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)


@dataclass(frozen=True)
class Table1Row:
    point: EstimatePoint
    label: str
    open_endpoint: bool = False
    sharp: bool = False

    def to_json(self) -> dict:
        return {
            "point": self.point.to_json(),
            "label": self.label,
            "open": self.open_endpoint,
            "sharp": self.sharp,
        }


def table1_catalog() -> list:
    """The nine known three-dimensional restriction theorems, exact."""
    F = Fraction

    def pt(p, q):
        return EstimatePoint(inv_p=1 / F(p),
                             inv_q=F(0) if q is None else 1 / F(q),
                             kind=LINEAR)

    rows = [
        Table1Row(pt(1, None), "integrability endpoint", open_endpoint=False,
                  sharp=True),
        Table1Row(pt(2, 6), "first L2 range, 1967", open_endpoint=False),
        Table1Row(pt(2, 4), "L2 near-endpoint, 1975", open_endpoint=True),
        Table1Row(pt(2, 4), "scale-critical L2 endpoint, 1975",
                  open_endpoint=False, sharp=True),
        Table1Row(pt(F(58, 15), F(58, 15)), "dual-exponent improvement, 1991",
                  open_endpoint=True),
        Table1Row(pt(F(42, 11), F(42, 11)), "tube-maximal improvement, 1995",
                  open_endpoint=True),
        Table1Row(pt(F(7, 3), F(42, 11)), "mixed-exponent refinement, 1995",
                  open_endpoint=True),
        Table1Row(pt(F(170, 77), F(34, 9)), "bilinear bootstrap",
                  open_endpoint=True),
        Table1Row(
            EstimatePoint(inv_p=1 / sharp_line(3, F(103, 27)),
                          inv_q=F(27, 103), kind=LINEAR),
            "bilinear bootstrap, scale-critical",
            open_endpoint=True,
            sharp=True,
        ),
    ]
    return rows


def catalog_to_json() -> list:
    return [r.to_json() for r in table1_catalog()]
