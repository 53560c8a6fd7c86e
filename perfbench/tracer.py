"""Spans around calls into rieszlab's public functions, and the layer metrics.

Modules import `generator`, `uniform_ball` and friends by name, so each
function is wrapped where it is looked up: one wrapper per (module,
attribute). A span is (name, start, end, parent, notes); spans stay in memory
and are written out when the run ends. Everything runs on one thread, so a
stack gives each span its parent.
"""

import json
import math
import time

import numpy as np

from workloads import geomean


def _points(args, kwargs, out):
    return {"points": int(args[1])}


def _kernel_points(args, kwargs, out):
    return {"points": int(np.size(args[1]) // args[0].n)}


def _mc_notes(args, kwargs, out, levelset, kernels):
    spec, nu, lam = args[:3]
    rho = levelset.covering_radii(spec, nu, lam / 2.0 if spec.n == 1 else lam)
    cover = kernels.ball_volume(spec.n) * float(np.sum(rho**spec.n))
    return {
        "samples": out.samples,
        "value": out.value,
        "se": out.standard_error,
        "cover": cover,
    }


def _whitney_notes(args, kwargs, out):
    union, depth = args[:2]
    fine = union.count * (1 << (union.n * (depth - union.level)))
    return {"fine": fine, "cubes": len(out[0]), "residual": len(out[1])}


def _octaves(args, kwargs, out):
    spec, r = args[0], args[4]
    return {"octaves": math.log2(out.cutoff_radius / (spec.n * r))}


class Tracer:
    def __init__(self, rz):
        self.rz = rz
        self.spans = []
        self.stack = []
        self.saved = []
        self.round = -1

    def _targets(self):
        rz = self.rz
        mc = lambda a, k, o: _mc_notes(a, k, o, rz.levelset, rz.kernels)  # noqa: E731
        targets = [
            (rz.kernels, "kernel_values", "kernels.kernel_values", _kernel_points),
            (rz.measures, "merge_duplicate_centers", "measures.merge", None),
            (rz.levelset, "mc_levelset", "levelset.mc", mc),
            (rz.levelset, "weaktype_functional", "levelset.weaktype", None),
            (rz.search, "optimize", "search.optimize",
             lambda a, k, o: {"evaluations": o.evaluations}),
            (rz.decomposition, "whitney_decompose", "decomposition.whitney",
             _whitney_notes),
            (rz.decomposition, "cz_decompose", "decomposition.cz",
             lambda a, k, o: {"pieces": len(o.pieces)}),
            (rz.constructions, "build_exhaustion", "constructions.exhaustion",
             lambda a, k, o: {"sets": len(o)}),
            (rz.constructions, "cancellation_integral", "constructions.cancellation",
             _octaves),
            (rz.cli, "run", "cli.run", None),
        ]
        for name in ("hilbert_levelset_exact", "hilbert_levelset_sides",
                     "single_mass_levelset_exact"):
            targets.append((rz.levelset, name, "levelset.exact", None))
        for module in (rz.rng, rz.levelset, rz.search, rz.constructions):
            targets.append((module, "generator", "rng.generator", None))
        for module in (rz.rng, rz.levelset, rz.constructions):
            targets.append((module, "uniform_ball", "rng.uniform_ball", _points))
        return targets

    def install(self):
        for module, attr, name, notes in self._targets():
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, notes))

    def uninstall(self):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved = []

    def _wrap(self, fn, name, notes):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {"round": self.round}]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if notes is not None:
                span[4].update(notes(args, kwargs, out))
            return out

        return wrapper

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(
                [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], **s[4]}
                 for s in self.spans],
                handle,
            )


def layer_metrics(spans, rounds):
    """Per-layer metrics of the traced rounds, per round where it is a total."""
    dur = [s[2] - s[1] for s in spans]
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s[0], []).append(i)

    def total(name, f=lambda i: dur[i]):
        return math.fsum(f(i) for i in by.get(name, ()))

    def per_round(x):
        return x / rounds

    def rate(work, seconds):
        return work / seconds if seconds > 0.0 else 0.0

    def note(name, key):
        return lambda i: spans[i][4][key]

    def self_time(i, only=None):
        """Span i minus its direct children (those named `only`, if given)."""
        kids = [c for c in children[i] if only is None or spans[c][0] == only]
        return dur[i] - math.fsum(dur[c] for c in kids)

    mc = by.get("levelset.mc", ())
    mc_hits = [spans[i][4] for i in mc if spans[i][4]["se"] > 0.0]
    exact = [i for i in by.get("levelset.exact", ())
             if spans[i][3] < 0 or spans[spans[i][3]][0] != "levelset.exact"]
    evals = []
    for i in by.get("search.optimize", ()):
        kids = [dur[c] for c in children[i] if spans[c][0] == "levelset.weaktype"]
        evals.extend(kids[:-1])  # the last one is the re-evaluation
    cancel = by.get("constructions.cancellation", ())
    whitney_s = total("decomposition.whitney")
    ball_s = total("rng.uniform_ball")
    kernel_s = total("kernels.kernel_values")
    mc_s = total("levelset.mc")

    return {
        "cli.run_s": per_round(total("cli.run")),
        "cli.self_s": per_round(total("cli.run", self_time)),
        "rng.ball_points_per_s": rate(total("rng.uniform_ball", note("rng.uniform_ball", "points")), ball_s),
        "rng.generators_made": per_round(len(by.get("rng.generator", ()))),
        "kernels.kernel_values_s": per_round(kernel_s),
        "kernels.points_per_s": rate(total("kernels.kernel_values", note("kernels.kernel_values", "points")), kernel_s),
        "measures.merge_s": per_round(total("measures.merge")),
        "measures.merge_calls": per_round(len(by.get("measures.merge", ()))),
        "levelset.mc_calls": per_round(len(mc)),
        "levelset.mc_samples": per_round(total("levelset.mc", note("levelset.mc", "samples"))),
        "levelset.mc_samples_per_s": rate(total("levelset.mc", note("levelset.mc", "samples")), mc_s),
        "levelset.mc_self_s": per_round(total("levelset.mc", self_time)),
        "levelset.rel_var_per_sample": geomean(
            [(h["se"] / h["value"]) ** 2 * h["samples"] for h in mc_hits]),
        "levelset.cover_to_set_ratio": geomean([h["cover"] / h["value"] for h in mc_hits]),
        "levelset.exact_calls": per_round(len(exact)),
        "levelset.exact_s": per_round(math.fsum(dur[i] for i in exact)),
        "search.evaluations": per_round(total("search.optimize", note("search.optimize", "evaluations"))),
        "search.eval_s_p50": float(np.percentile(evals, 50)) if evals else 0.0,
        "search.eval_s_p90": float(np.percentile(evals, 90)) if evals else 0.0,
        "search.optimize_s": per_round(total("search.optimize")),
        "search.self_s": per_round(total(
            "search.optimize", lambda i: self_time(i, "levelset.weaktype"))),
        "decomposition.whitney_s": per_round(whitney_s),
        "decomposition.fine_cells": per_round(total("decomposition.whitney", note("decomposition.whitney", "fine"))),
        "decomposition.fine_cells_per_s": rate(total("decomposition.whitney", note("decomposition.whitney", "fine")), whitney_s),
        "decomposition.cubes": per_round(total("decomposition.whitney", note("decomposition.whitney", "cubes"))),
        "decomposition.residual_cells": per_round(total("decomposition.whitney", note("decomposition.whitney", "residual"))),
        "decomposition.cz_s": per_round(total("decomposition.cz")),
        "decomposition.cz_self_s": per_round(total("decomposition.cz", self_time)),
        "decomposition.pieces": per_round(total("decomposition.cz", note("decomposition.cz", "pieces"))),
        "constructions.exhaustion_s": per_round(total("constructions.exhaustion")),
        "constructions.exhaustion_sets": per_round(total("constructions.exhaustion", note("constructions.exhaustion", "sets"))),
        "constructions.cancellation_s": per_round(total("constructions.cancellation")),
        "constructions.cancellation_octaves": (
            total("constructions.cancellation", note("constructions.cancellation", "octaves")) / len(cancel)
            if cancel else 0.0),
    }
