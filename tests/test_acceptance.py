"""Acceptance gate: one test per criterion, each run at its stated
tolerance and printing one pass/fail line (visible under pytest -s; the
line is also embedded in the assertion message on failure)."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from tubelab import cli, exponents as ex, geometry as geo, lemmas, witnesses as wit, xray
from tubelab.extension import local_ratio, rotational_curvature
from tubelab.fields import NetFunction
from tubelab.geometry import Tube, build_net, perturbed_phase, quadratic_phase


def report(num, name, ok, detail):
    line = f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_exponent_calculus_exactness():
    q_tilde, ratio = ex.lemma_alpha(F(5, 2), F(10, 3), F(3, 80), 3)
    ok = (q_tilde, ratio) == (F(34, 9), F(77, 45))
    ok &= q_tilde / ratio == F(170, 77)
    ok &= ex.lemma_alpha(F(20, 7), F(10, 3), F(1, 20), 3)[0] == F(42, 11)

    ok &= ex.bootstrap_fixed_point() == F(3, 20)
    iters = ex.bootstrap_iterate(F(1), 60)
    steps_needed = next(k for k, a in enumerate(iters)
                        if abs(a - F(3, 20)) <= F(1, 10**12))
    ok &= steps_needed <= 60

    e1 = ex.EstimatePoint(F(3, 7), F(11, 21), ex.BILINEAR)
    e2 = ex.EstimatePoint(F(7, 12), F(1, 2), ex.BILINEAR)
    mid = ex.interpolate(e1, e2, F(4, 11))
    ok &= mid.inv_p + mid.inv_q == 1 and mid.q == F(33, 17)
    ok &= 2 * mid.q == 4 - F(2, 17)

    w, r, applicable = ex.x_imply(F(170, 77), F(34, 9))
    ok &= (w, r) == (F(35, 9), F(60, 31)) and applicable
    ok &= ex.x_imply_collinearity(F(170, 77), F(34, 9)) == 0
    ok &= (r / 4 + 1) ** 2 > 2  # the squared comparison itself

    ok &= ex.modest_threshold(3) == F(12, 7)
    ok &= ex.sharp_line(3, F(4)) == 2
    report(1, "exponent calculus exactness", ok,
           f"q_tilde={q_tilde}, threshold={q_tilde / ratio}, steps={steps_needed}")


def _random_tube_pair(rng, net, delta, n):
    w1 = net.e1[rng.integers(0, len(net.e1))]
    w2 = net.e2[rng.integers(0, len(net.e2))]
    i1 = net.points[rng.integers(0, len(net.points))]
    tstar = rng.uniform(-0.75, 0.75)
    i2 = i1 + tstar * (w1 - w2) + rng.uniform(-delta, delta, n - 1)
    i2 = net.points[net.nearest_index(i2)]
    return (Tube(tuple(w1), tuple(i1), delta),
            Tube(tuple(w2), tuple(i2), delta),
            float(np.linalg.norm(w1 - w2)))


def test_criterion_2_cordoba_geometry():
    rng = np.random.default_rng(20240817)
    worst_bound = 0.0
    worst_rel = 0.0
    ok = True
    for n in (2, 3):
        samples = 200000 if n == 2 else 20000
        for delta in (1 / 8, 1 / 16, 1 / 32):
            net = build_net(n, delta)
            for _ in range(200):
                t1, t2, sep = _random_tube_pair(rng, net, delta, n)
                est, err = geo.tube_intersection_volume(
                    t1, t2, samples, int(rng.integers(2**31)))
                bound = (est + 3 * err) * (sep + delta) / delta**n
                worst_bound = max(worst_bound, bound)
                ok &= bound <= 64.0
                if n == 2:
                    exact = geo.tube_intersection_exact(t1, t2)
                    ok &= abs(est - exact) <= 0.02 * exact + 3 * err
                    if exact > 0:
                        worst_rel = max(worst_rel, abs(est - exact) / exact)
    report(2, "cordoba overlap bound + n=2 oracle agreement", ok,
           f"worst bound {worst_bound:.2f} <= 64, worst n=2 rel dev "
           f"{worst_rel * 100:.2f}%")


def test_criterion_3_kakeya_sharpness():
    deltas = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
    pts = xray.run_kakeya_sweep(xray.DELTA_BALL, 3, 5 / 2, 10 / 3, deltas)
    vals = [v for _d, v in pts]
    factor = max(vals) / min(vals)
    slope = wit.fit_power_law(pts).slope
    ok = factor <= 4.0 and abs(slope) <= 0.1
    report(3, "delta-ball tube-maximal sharpness", ok,
           f"variation factor {factor:.3f} <= 4, |slope| {abs(slope):.3f} <= 0.1")


def test_criterion_4_kakeya_necessity_slopes():
    deltas = (1 / 16, 1 / 32, 1 / 64)
    rows, preds = xray.run_kakeya_sweep_multi(
        xray.K0_DELTAS, 3, [(2.0, 10 / 3), (3.0, 10 / 3), (4.0, 10 / 3)], deltas)
    ok = True
    details = []
    for pq, pts in rows.items():
        slope = wit.fit_power_law(pts).slope
        ok &= abs(slope - preds[pq]) <= 0.15
        details.append(f"k0 p={pq[0]:g}: {slope:+.3f} vs {preds[pq]:+.2f}")
    k1_rows, k1_preds = xray.run_kakeya_sweep_multi(
        xray.K1_SLAB, 3, [(5 / 2, 5.0)], deltas)
    slope = wit.fit_power_law(k1_rows[(5 / 2, 5.0)]).slope
    ok &= abs(slope - 0.0) <= 0.15
    details.append(f"k1: {slope:+.3f} vs +0.00")
    report(4, "bush/slab necessity slopes", ok, "; ".join(details))


def test_criterion_5_inner_product_constant():
    rng = np.random.default_rng(5150)
    ok = True
    worst_gap = 0.0
    # crossing-tube configurations: dual computations within 5 percent
    delta = 1 / 8
    net = build_net(3, delta)
    for k in range(4):
        w1 = int(net.e1_indices[(7 * k) % len(net.e1_indices)])
        w2 = int(net.e2_indices[(11 * k) % len(net.e2_indices)])
        i0 = net.nearest_index([0.0, 0.0])
        F_ = xray.XrayField(net, delta, NetFunction(net, {(w1, i0): 1.0}))
        G_ = xray.XrayField(net, delta, NetFunction(net, {(w2, i0): 1.0}))
        res = xray.prop111_constant(F_, G_, spacing=delta / 16)
        if res.pair_value > 0:
            worst_gap = max(worst_gap, res.relative_gap)
            ok &= res.relative_gap <= 0.05
    # random fields: normalized constant below 32 throughout
    worst_const = 0.0
    for delta in (1 / 8, 1 / 16, 1 / 32):
        net = build_net(3, delta)
        for _ in range(7):
            def draw(idx_set):
                vals = {}
                for _k in range(24):
                    w = int(rng.choice(idx_set))
                    i = int(rng.integers(0, len(net.points)))
                    vals[(w, i)] = float(rng.uniform(0.2, 1.0))
                return vals

            F_ = xray.XrayField(net, delta, NetFunction(net, draw(net.e1_indices)))
            G_ = xray.XrayField(net, delta, NetFunction(net, draw(net.e2_indices)))
            res = xray.prop111_constant(F_, G_, spacing=delta / 4)
            worst_const = max(worst_const, res.pair_value, res.grid_value)
            ok &= res.pair_value <= 32.0 and res.grid_value <= 32.0
    report(5, "inner-product constant, dual computation", ok,
           f"crossing gap {worst_gap * 100:.2f}% <= 5%, "
           f"const {worst_const:.2f} <= 32")


def test_criterion_6_restriction_necessity_slopes():
    ok = True
    details = []
    fit, _ = wit.run_sweep(wit.C1_SQUASHED, 3, 2, 5 / 3,
                           [1 / 4, 1 / 8, 1 / 16, 1 / 32])
    ok &= abs(fit.slope - 0.0) <= 0.15
    details.append(f"c1(2,5/3): {fit.slope:+.3f}")
    fit, _ = wit.run_sweep(wit.C2_STRETCHED, 3, 2, 5 / 3, [1 / 8, 1 / 16, 1 / 32])
    ok &= abs(fit.slope - 0.0) <= 0.15
    details.append(f"c2(2,5/3): {fit.slope:+.3f}")
    fit, _ = wit.run_sweep(wit.C1_SQUASHED, 3, 2, 2, [1 / 4, 1 / 8, 1 / 16, 1 / 32])
    ok &= abs(fit.slope - 0.5) <= 0.15
    details.append(f"c1(2,2): {fit.slope:+.3f} vs +0.50")
    fit, _ = wit.run_sweep(wit.C0_MODULATED, 2, 2, 2, [8, 16, 32, 64])
    ok &= abs(fit.slope - 0.0) <= 0.15
    details.append(f"c0(q=2,n=2): {fit.slope:+.3f}")
    report(6, "squashed/stretched/modulated necessity slopes", ok,
           "; ".join(details))


def test_criterion_7_localized_estimates():
    phi3 = quadratic_phase(2)
    rows = []
    for R in (8, 16, 32, 64):
        f, g = wit.trace_caps(3, R)
        rows.append((R, local_ratio(f, g, phi3, 2, 1, R).value))
    slope_trace = wit.fit_power_law(rows).slope
    ok = 0.8 <= slope_trace <= 1.2

    phi2 = quadratic_phase(1)
    f2 = wit.trace_caps(2, 4.0)[0].__class__((-0.75,), (-0.25,))
    g2 = wit.trace_caps(2, 4.0)[0].__class__((0.25,), (0.75,))
    rows2 = [(R, local_ratio(f2, g2, phi2, 2, 2, R).value)
             for R in (8, 16, 32, 64)]
    slope_l2 = wit.fit_power_law(rows2).slope
    ok &= abs(slope_l2) <= 0.1
    report(7, "localized growth: bilinear trace and flat n=2 product", ok,
           f"trace slope {slope_trace:.3f} in [0.8, 1.2], "
           f"n=2 slope {slope_l2:+.3f} within 0.1")


def test_criterion_8_whitney_structure():
    rng = np.random.default_rng(88)
    ok = True
    located = {2: 0, 3: 0}
    for n in (2, 3):
        count = 0
        while count < 10000:
            x = rng.uniform(-1, 1, n - 1)
            y = rng.uniform(-1, 1, n - 1)
            try:
                j, c1, c2 = geo.whitney_locate(x, y, 16)
            except geo.GeometryError:
                continue  # degenerate or too-close draw; not a counted trial
            count += 1
            hits = []
            for jj in range(1, 17):
                k1 = tuple(int(math.floor((v + 1) * 2**jj)) for v in x)
                k2 = tuple(int(math.floor((v + 1) * 2**jj)) for v in y)
                if geo.cubes_close(geo.DyadicCube(jj, k1),
                                   geo.DyadicCube(jj, k2)):
                    hits.append(jj)
            ok &= hits == [j] and c1.contains(x) and c2.contains(y)
        located[n] = count
    report(8, "close-pair location vs exhaustive oracle", ok,
           f"{located[2]} + {located[3]} pairs, all unique and matching")


def test_criterion_9_appendix_lemma_suite():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        a = rng.standard_normal(rng.integers(1, 12))
        s, _f = lemmas.young_check(a, float(rng.uniform(1, 6)))
        ok &= s
    rects = [lemmas.FreqRect((c,), (4,))
             for c in (-192, -144, -96, -48, 0, 48, 96, 144)]
    worst = 0.0
    for p in (1.0, 1.5, np.inf):
        for s in range(50):
            worst = max(worst, lemmas.quasi_orthogonality_ratio(rects, s, p))
    ok &= worst <= 4.0
    r2 = max(lemmas.quasi_orthogonality_ratio(rects, s, 2.0) for s in range(10))
    ok &= r2 <= 1 + 1e-6
    worst_c = 0.0
    for k in range(100):
        n = 2 if k % 2 == 0 else 3
        om = lemmas.random_omega_set(n, 5, 4000 + k)
        p = [0.5, 2.0, 4.0][k % 3]
        j = 1 + (k % 4)
        lhs, rhs_big, rhs_small = lemmas.xr_bounds_check(om, j, p, F(1))
        rhs = rhs_big if p >= 1 else rhs_small
        ok &= lhs <= 16.0 * rhs + 1e-12
        if lhs > 0:
            worst_c = max(worst_c, lhs / rhs)
        lhs1, _b, _s = lemmas.xr_bounds_check(om, j, 1.0, F(1))
        ok &= lhs1 == float(om.measure)
    report(9, "appendix inequality suite", ok,
           f"quasi-orth worst {worst:.2f} <= 4 (p=2: {r2:.9f}), "
           f"mass-bound worst {worst_c:.2f} <= 16, p=1 identities exact")


def test_criterion_10_rotational_curvature():
    rng = np.random.default_rng(1010)
    phi_q = quadratic_phase(2)
    worst_q = 0.0
    ok = True
    for _ in range(100):
        y = rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1, 2)
        err = abs(rotational_curvature(phi_q, y, w) - float(w @ w))
        worst_q = max(worst_q, err)
        ok &= err <= 1e-8
    eps0 = 0.05
    phi_p = perturbed_phase(2, eps0)
    worst_ratio = 0.0
    for _ in range(100):
        y = rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1, 2)
        dev = abs(rotational_curvature(phi_p, y, w) - float(w @ w))
        bound = 10 * eps0 * (float(y @ y) + float(w @ w))
        ok &= dev <= bound + 1e-12
        if bound > 0:
            worst_ratio = max(worst_ratio, dev / bound)
    report(10, "rotational curvature determinant", ok,
           f"quadratic max err {worst_q:.2e} <= 1e-8, "
           f"perturbed dev at {worst_ratio * 100:.0f}% of the allowed bound")


def test_criterion_11_cz_decomposition():
    ok = True
    for k in range(100):
        n = 2 if k % 2 == 0 else 3
        om = lemmas.random_omega_set(n, 4, 7000 + k)
        thresholds = {j: F(1, 2 ** min(j + 1, 3)) for j in range(5)}
        dec = lemmas.cz_decompose(om, thresholds)
        ok &= dec.validate(om)
    rng = np.random.default_rng(1111)
    checked = 0
    for k in range(80):
        om = lemmas.random_omega_set(3, 4, 8000 + k)
        sub_mask = om.mask & (rng.random(om.mask.shape) < 0.6)
        if not sub_mask.any():
            continue
        sub = lemmas.OmegaSet(sub_mask)
        ok &= lemmas.xr_norm(sub, 2.0).value <= lemmas.xr_norm(om, 2.0).value + 1e-12
        checked += 1
        if checked >= 50:
            break
    ok &= checked >= 50
    report(11, "stopping-time invariants + functional monotonicity", ok,
           f"100 decompositions validated, {checked} nested pairs monotone")


def test_criterion_12_determinism(tmp_path):
    cfg_text = (
        "command = sweep\nfamily = c1-squashed\nn = 3\np = 2\nq = 5/3\n"
        "scales = 1/4, 1/8, 1/16\nseed = 12\n")
    cfgp = tmp_path / "det.cfg"
    cfgp.write_text(cfg_text + f"output_dir = {tmp_path / 'a'}\n")
    assert cli.main(["sweep", "--config", str(cfgp)]) == 0
    cfgp2 = tmp_path / "det2.cfg"
    cfgp2.write_text(cfg_text + f"output_dir = {tmp_path / 'b'}\n")
    assert cli.main(["sweep", "--config", str(cfgp2)]) == 0
    csv_same = ((tmp_path / "a" / "sweep.csv").read_bytes()
                == (tmp_path / "b" / "sweep.csv").read_bytes())
    json_same = ((tmp_path / "a" / "summary.json").read_bytes()
                 == (tmp_path / "b" / "summary.json").read_bytes())
    report(12, "byte-identical reruns", csv_same and json_same,
           f"csv identical: {csv_same}, summary identical: {json_same}")
