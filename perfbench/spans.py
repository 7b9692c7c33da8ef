"""Span tracing from outside the program.

A Tracer replaces public tubelab functions, at the module attribute the
caller looks them up by, with wrappers that record one span per call (name,
start, end, parent span, run id) and update counters at the same boundary.
Spans stay in memory until the run writes them out.  `installed()` puts the
original functions back on exit, even when the pass raises.

Span names are "<layer>.<function>", the layer being the module that defines
the function, so `witnesses.domain_norm_ratio` and `extension.domain_norm_ratio`
both record as "extension.domain_norm_ratio".
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import inspect
import itertools
import math
import os
import time
import tracemalloc

import numpy as np

from tubelab import (cli, exponents, extension, fields, geometry, lemmas,
                     witnesses, xray)

LAYERS = ("exponents", "geometry", "fields", "extension", "xray", "lemmas",
          "witnesses", "cli")

#: (module the caller reads the name from, attribute); each call through the
#: attribute becomes a span
WRAPS = (
    (cli, "main"),
    (exponents, "catalog_to_json"),
    (witnesses, "run_sweep"),
    (witnesses, "witness_ratio"),
    (witnesses, "build_witness"),
    (witnesses, "fit_power_law"),
    (witnesses, "domain_norm_ratio"),
    (witnesses, "evaluate_extension"),
    (extension, "local_ratio"),
    (extension, "domain_norm_ratio"),
    (xray, "run_kakeya_sweep"),
    (xray, "run_kakeya_sweep_multi"),
    (xray, "kakeya_witness"),
    (xray, "bilinear_kakeya_ratios"),
    (xray, "prop111_constant"),
    (xray, "delta_ball_ratio"),
    (xray, "kakeya_ratio"),
    (xray, "xray_transform"),
    (xray, "tube_intersection_exact"),
    (xray, "mixed_norm"),
    (xray, "lp_norm"),
    (geometry, "build_net"),
    (geometry, "whitney_locate"),
    (geometry, "tube_intersection_volume"),
    (fields, "grid_from_sampler"),
    (lemmas, "quasi_orthogonality_ratio"),
    (lemmas, "xr_bounds_check"),
    (lemmas, "cz_decompose"),
    (lemmas, "xr_norm"),
    (lemmas, "random_omega_set"),
    (lemmas, "young_check"),
)

#: layers whose outermost spans get a tracemalloc peak in a memory pass
MEMORY_LAYERS = ("xray", "extension")


def span_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


def _bbox_cells(domain, spacing) -> int:
    """Cells of the bounding-box grid domain_norm_ratio lays at `spacing`."""
    lo, hi = domain.bounding_box()
    return math.prod(max(1, math.ceil((h - l) / spacing - 1e-12))
                     for l, h in zip(lo, hi))


def _tube_slabs(F, G, spacing) -> int:
    return (len(F.values.values) + len(G.values.values)) * math.ceil(2.0 / spacing)


# Counters recorded at a span boundary: span name -> hook(arguments, result,
# counts).  Arguments are bound to the wrapped function's signature.

def _count_domain_norm_ratio(a, result, c):
    stats = result[1]
    c["extension.domain_cells"] += stats["cells"]
    c["extension.bbox_cells"] += _bbox_cells(
        a["domain"], a.get("spacing", extension.DOMAIN_SPACING))
    c["extension.quad_nodes"] += sum(math.prod(g) for g in stats["grid_counts"])


def _count_evaluate_extension(a, result, c):
    c["extension.eval_points"] += np.atleast_2d(a["points"]).shape[0]


def _count_bilinear(a, result, c):
    F, G = a["F"], a["G"]
    c["xray.tube_slabs"] += _tube_slabs(F, G, a.get("spacing") or F.delta / 4)


def _count_prop111(a, result, c):
    F, G = a["F"], a["G"]
    c["xray.tube_slabs"] += _tube_slabs(F, G, a.get("spacing") or F.delta / 8)
    c["xray.tube_pairs"] += len(F.values.values) * len(G.values.values)


def _count_exact(a, result, c):
    c["xray.pair_hits"] += result > 0


def _count_mixed_norm(a, result, c):
    c["fields.net_entries"] += len(a["g"].values)


def _count_transform(a, result, c):
    c["xray.transform_cell_dirs"] += (np.count_nonzero(a["f"].samples)
                                      * len(a["net"].points))


def _count_mc(a, result, c):
    c["geometry.mc_samples"] += a["mc_samples"]


def _count_cli(a, result, c):
    argv = list(a["argv"])
    if argv[:1] != ["sweep"] or "--check" in argv:
        return
    outdir = cli.load_config(argv[argv.index("--config") + 1]).output_dir
    c["cli.artifact_bytes"] += sum(
        os.path.getsize(os.path.join(outdir, name)) for name in os.listdir(outdir))


COUNT_HOOKS = {
    "extension.domain_norm_ratio": _count_domain_norm_ratio,
    "extension.evaluate_extension": _count_evaluate_extension,
    "xray.bilinear_kakeya_ratios": _count_bilinear,
    "xray.prop111_constant": _count_prop111,
    "geometry.tube_intersection_exact": _count_exact,
    "fields.mixed_norm": _count_mixed_norm,
    "xray.xray_transform": _count_transform,
    "geometry.tube_intersection_volume": _count_mc,
    "cli.main": _count_cli,
}

COUNTERS = ("extension.domain_cells", "extension.bbox_cells",
            "extension.quad_nodes", "extension.eval_points", "xray.tube_slabs",
            "xray.tube_pairs", "xray.pair_hits", "fields.net_entries",
            "xray.transform_cell_dirs", "geometry.mc_samples",
            "cli.artifact_bytes")


class Tracer:
    """Records spans and counters for one pass.

    With memory=True the outermost span of each MEMORY_LAYERS layer runs
    under tracemalloc and its peak is kept; tracemalloc slows Python-level
    code several fold, so a memory pass is never used for timings."""

    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.spans = []  # (id, parent id, name, start, end)
        self.calls = {}
        self.counts = {k: 0 for k in COUNTERS}
        self.peak_alloc = {layer: 0 for layer in MEMORY_LAYERS}
        self._stack = []  # ids of the open spans
        self._mem_owner = None

    def _wrap(self, func):
        name = span_name(func)
        hook = COUNT_HOOKS.get(name)
        sig = inspect.signature(func) if hook else None
        layer = name.split(".", 1)[0]
        mem_layer = self.memory and layer in MEMORY_LAYERS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            own_mem = mem_layer and self._mem_owner is None
            if own_mem:
                self._mem_owner = span_id
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if own_mem:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self._mem_owner = None
                    self.peak_alloc[layer] = max(self.peak_alloc[layer], peak)
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
                self.calls[name] = self.calls.get(name, 0) + 1
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                hook(bound.arguments, result, self.counts)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every WRAPS attribute for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in WRAPS]
        try:
            for mod, attr, func in saved:
                setattr(mod, attr, self._wrap(func))
            yield self
        finally:
            for mod, attr, func in saved:
                setattr(mod, attr, func)

    def span_times(self, clock=None) -> tuple:
        """({name: self seconds}, {name: inclusive seconds}) over the spans.

        With the pass's clock (clock.Clock), each span's time less the
        clock's in-step reference samples is scaled by the factor of the
        step it started in, so the times are in the units of the scaled
        wall_s; without one, and for spans outside every step, they stay
        raw."""
        steps = clock.steps if clock else []
        samples = clock.samples if clock else []
        starts = [start for start, _end, _factor in steps]
        sample_starts = [a for a, _b in samples]
        sampled = [0.0, *itertools.accumulate(b - a for a, b in samples)]
        scaled = []
        for _id, _parent, _name, start, end in self.spans:
            k = bisect.bisect_right(starts, start) - 1
            inside = k >= 0 and start <= steps[k][1]
            own = end - start - (sampled[bisect.bisect_left(sample_starts, end)]
                                 - sampled[bisect.bisect_left(sample_starts, start)])
            scaled.append(own * (steps[k][2] if inside else 1.0))
        child = [0.0] * len(self.spans)
        for span_id, parent, _name, _start, _end in self.spans:
            if parent is not None:
                child[parent] += scaled[span_id]
        self_s, total_s = {}, {}
        for span_id, _parent, name, _start, _end in self.spans:
            self_s[name] = self_s.get(name, 0.0) + scaled[span_id] - child[span_id]
            total_s[name] = total_s.get(name, 0.0) + scaled[span_id]
        return self_s, total_s

    def layer_metrics(self, clock=None) -> dict:
        """Per-layer metric values from this pass's spans and counters, the
        times scaled by the pass's `clock` (see span_times)."""
        self_s, total_s = self.span_times(clock)
        out = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum((self_s[n] for n in names), 0.0)
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names)

        def total(name):
            return total_s.get(name, 0.0)

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        c = {k: int(v) for k, v in self.counts.items()}
        dnr = total("extension.domain_norm_ratio")
        out.update({
            "extension.domain_norm_ratio.s": dnr,
            "extension.domain_cells": c["extension.domain_cells"],
            "extension.bbox_cells": c["extension.bbox_cells"],
            "extension.mask_yield": per(c["extension.domain_cells"],
                                        c["extension.bbox_cells"]),
            "extension.ns_per_cell": per(dnr, c["extension.domain_cells"], 1e9),
            "extension.quad_nodes": c["extension.quad_nodes"],
            "extension.evaluate_extension.s": total("extension.evaluate_extension"),
            "extension.eval_points": c["extension.eval_points"],
            "witnesses.build_witness.s": total("witnesses.build_witness"),
            "xray.bilinear_kakeya_ratios.s": total("xray.bilinear_kakeya_ratios"),
            "xray.prop111_constant.s": total("xray.prop111_constant"),
            "xray.tube_slabs": c["xray.tube_slabs"],
            # rasterization is the self time of the two tube-sum spans
            "xray.ns_per_tube_slab": per(
                self_s.get("xray.bilinear_kakeya_ratios", 0.0)
                + self_s.get("xray.prop111_constant", 0.0),
                c["xray.tube_slabs"], 1e9),
            "xray.tube_pairs": c["xray.tube_pairs"],
            "xray.pair_hit_ratio": per(c["xray.pair_hits"], c["xray.tube_pairs"]),
            "geometry.tube_intersection_exact.s":
                total("geometry.tube_intersection_exact"),
            "fields.mixed_norm.s": total("fields.mixed_norm"),
            "fields.net_entries": c["fields.net_entries"],
            "xray.xray_transform.s": total("xray.xray_transform"),
            "xray.transform_cell_dirs": c["xray.transform_cell_dirs"],
            "xray.ns_per_cell_dir": per(total("xray.xray_transform"),
                                        c["xray.transform_cell_dirs"], 1e9),
            "geometry.whitney_locate.s": total("geometry.whitney_locate"),
            "geometry.tube_intersection_volume.s":
                total("geometry.tube_intersection_volume"),
            "geometry.mc_samples": c["geometry.mc_samples"],
            "lemmas.cz_decompose.s": total("lemmas.cz_decompose"),
            "lemmas.xr_norm.s": total("lemmas.xr_norm"),
            "lemmas.quasi_orthogonality_ratio.s":
                total("lemmas.quasi_orthogonality_ratio"),
            "cli.artifact_bytes": c["cli.artifact_bytes"],
        })
        return out

    def memory_metrics(self) -> dict:
        return {f"{layer}.peak_alloc_mb": self.peak_alloc[layer] / 2**20
                for layer in MEMORY_LAYERS}

    def span_records(self) -> list:
        return [{"id": s, "parent": p, "name": n, "start": a, "end": b,
                 "run": self.run_id} for s, p, n, a, b in self.spans]
