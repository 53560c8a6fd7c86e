"""The three workloads: what each round runs, and how its outputs are checked.

A round is one batch of the same operations; every round of a run makes the
same calls, so the share of failed operations is the same in every run. A
round returns its wall and CPU seconds, one (seconds, failed) pair per
operation, the level-set evaluations it produced, and the round's time to a
1% relative SE.
"""

import contextlib
import csv
import functools
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

import checks


def derived_seed(*key):
    """A 63-bit seed for the program, fixed by the benchmark seed and key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0] >> 1)


def cpu_seconds():
    """CPU of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def geomean(values):
    """Geometric mean of the positive finite values; 0 when there are none."""
    values = [v for v in values if v > 0.0 and math.isfinite(v)]
    return math.exp(math.fsum(map(math.log, values)) / len(values)) if values else 0.0


def bump_grid(n, level, side, inside, gen=None):
    """Grid function on [0,1)^n at `level`: values above 1 exactly on `inside`.

    inside(x) picks the cells of U = {f > 1} from their centers x. With a
    generator the values are drawn (U stays the same); without one they are
    a fixed profile.
    """
    x = (np.arange(side) + 0.5) / side
    mesh = np.stack(np.meshgrid(*([x] * n), indexing="ij"), axis=-1)
    mask = inside(mesh)
    if gen is None:
        r2 = np.sum((mesh - 0.5) ** 2, axis=-1)
        values = np.where(mask, 1.25 + np.cos(7.0 * r2), 0.75 * np.exp(-r2))
    else:
        # the seed moves every value by at most 5%, so U and the work stay put
        r2 = np.sum((mesh - 0.5) ** 2, axis=-1)
        profile = np.where(mask, 1.25 + np.exp(-8.0 * r2), 0.75 * np.exp(-r2))
        values = profile * gen.uniform(0.95, 1.05, mask.shape)
    box_level = level - int(math.log2(side))
    return {"n": n, "L": level, "box": {"level": box_level, "coords": [0] * n},
            "values": [float(v) for v in values.ravel()]}, values


def disk(center, radius):
    return lambda x: np.sum((x - center) ** 2, axis=-1) < radius**2


def write_json(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle)


class McLevelset:
    """mc_levelset on fixed measures, each run to a stated relative SE."""

    PILOT_SAMPLES = 1 << 14
    PILOT_SEED = 20201
    # name, (kind, n, i, j), measure, lambda, target relative SE
    LAYOUT = (
        ("riesz3-single", ("riesz", 3, 1, 1), "single3", 0.5, 0.002),
        ("riesz5-single", ("riesz", 5, 1, 1), "single5", 0.8, 0.003),
        ("riesz2-N3", ("riesz", 2, 1, 1), (2, 3), 1.0, 0.0025),
        ("riesz3-N10", ("riesz", 3, 1, 1), (3, 10), 1.0, 0.005),
        ("riesz5-N30", ("riesz", 5, 1, 1), (5, 30), 1.0, 0.015),
        ("second3-N10", ("second-order", 3, 1, 2), (3, 10), 1.0, 0.005),
        ("riesz2-cz", ("riesz", 2, 2, 2), "cz2", 0.05, 0.006),
    )
    # mc_levelset reports value 0.0 with SE 0.0 here; kept as counted failures
    ALL_MISS_SEEDS = (0, 1)

    def __init__(self, seed, rz, results):
        self.seed, self.rz = seed, rz

    def _spec(self, kind, n, i, j):
        k = self.rz.kernels
        return k.riesz(n, j) if kind == "riesz" else k.second_order(n, i, j)

    def setup(self):
        rz = self.rz
        fixed = np.random.default_rng(2020)
        self.problems = []
        for name, kern, layout, lam, target in self.LAYOUT:
            if layout == "single3":
                nu = rz.PointMassMeasure(3, np.array([2.5]), np.array([[0.3, -0.2, 0.1]]))
            elif layout == "single5":
                nu = rz.PointMassMeasure(5, np.array([1.5]), np.full((1, 5), -0.4))
            elif layout == "cz2":
                doc, _ = bump_grid(2, 4, 16, disk(np.array([0.5, 0.45]), 0.3))
                f = rz.grid_from_json(json.dumps(doc))
                nu = rz.cz_decompose(f, 1.0, 5).point_masses
            else:
                n, count = layout
                nu = rz.PointMassMeasure(
                    n, fixed.uniform(0.5, 1.5, count), fixed.normal(size=(count, n)))
            spec = self._spec(*kern)
            pilot = rz.levelset.mc_levelset(spec, nu, lam, self.PILOT_SAMPLES, self.PILOT_SEED)
            rel_var = (pilot.standard_error / pilot.value) ** 2 * pilot.samples
            samples = max(1000, math.ceil(rel_var / target**2))
            self.problems.append((name, kern, spec, nu, lam, samples))
        self.all_miss = (
            rz.riesz(20, 1),
            rz.PointMassMeasure(20, np.ones(100),
                                np.random.default_rng(0).normal(size=(100, 20)) * 100),
        )

    def run_round(self, index, in_process=True):
        mc = self.rz.levelset.mc_levelset
        calls, results = [], []
        wall, cpu = time.perf_counter(), cpu_seconds()
        for k, (name, _, spec, nu, lam, samples) in enumerate(self.problems):
            t = time.perf_counter()
            est = mc(spec, nu, lam, samples, derived_seed(self.seed, index, k))
            calls.append((time.perf_counter() - t, False))
            results.append(est)
        spec, nu = self.all_miss
        for s in self.ALL_MISS_SEEDS:
            t = time.perf_counter()
            est = mc(spec, nu, 1.0, 1000, s)
            calls.append((time.perf_counter() - t, not est.standard_error > 0.0))
            results.append(est)
        wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
        t1pct = geomean([
            dt * (est.standard_error / est.value) ** 2 / 1e-4
            for (dt, _), est in zip(calls, results[: len(self.problems)])])
        return {"wall": wall, "cpu": cpu, "calls": calls,
                "evals": sum(not failed for _, failed in calls),
                "t1pct": t1pct, "results": results}

    def check(self, rounds):
        faults = []
        for k, (name, kern, spec, nu, lam, samples) in enumerate(self.problems):
            ests = [r["results"][k] for r in rounds]
            if nu.count == 1:
                ref, ref_se = checks.single_mass_volume(kern[1], float(nu.masses[0]), lam), 0.0
            else:
                ref, ref_se = checks.plain_levelset(
                    checks.Kernel(*kern), nu.masses, nu.centers, lam,
                    samples // 2, derived_seed(self.seed, 1 << 20, k))
            for r, est in enumerate(ests):
                faults.append(checks.within_se(
                    est.value, est.standard_error, ref, ref_se, k=6.0,
                    what="%s round %d" % (name, r)))
            pooled = math.fsum(e.value for e in ests) / len(ests)
            pooled_se = math.sqrt(math.fsum(e.standard_error**2 for e in ests)) / len(ests)
            faults.append(checks.within_se(pooled, pooled_se, ref, ref_se, what=name))
        for r in rounds:
            for (_, failed), est in zip(r["calls"][len(self.problems):], r["results"][len(self.problems):]):
                if not failed and not (0.0 <= est.value < math.inf):
                    faults.append("all-miss value %r is not a volume" % est.value)
        # one result, byte identical at threads 1 and 2
        k = [p[0] for p in self.problems].index("riesz2-N3")
        name, _, spec, nu, lam, samples = self.problems[k]
        two = self.rz.levelset.mc_levelset(spec, nu, lam, samples, derived_seed(self.seed, 0, k), threads=2)
        if repr(two) != repr(rounds[0]["results"][k]):
            faults.append("%s differs between threads 1 and 2" % name)
        return faults


class SearchSweep:
    """search.optimize over the (n, N) grid, small samples, common random numbers."""

    NS = (1, 2, 3, 5)
    COUNTS = (1, 2, 3, 4)
    # Where a search lands, and so how much of it takes the cheap exact path,
    # depends on its seed; three seeds per cell average that out.
    SEEDS_PER_CELL = 3
    SAMPLES = 2000
    REF_SAMPLES = 100_000
    PILOT_SAMPLES = 20_000
    PILOT_SEED = 20202

    def __init__(self, seed, rz, results):
        self.seed, self.rz = seed, rz

    def setup(self):
        rz, search = self.rz, self.rz.search
        self.problems = [
            search.SearchProblem(spec=rz.riesz(n, 1), count=count, samples=self.SAMPLES,
                                 seed=derived_seed(self.seed, n, count, j))
            for n in self.NS for count in self.COUNTS for j in range(self.SEEDS_PER_CELL)
        ]
        # Where the search lands depends on the seed, and so does the variance
        # of its winners. The relative variance per sample is therefore taken,
        # as in mc-levelset, from a fixed-seed pilot: N equal masses 0.6 apart
        # on the first axis, the level set at 1.
        self.rel_var = {}
        for p in self.problems:
            n, count = p.spec.n, p.count
            if n == 1 or count == 1 or (n, count) in self.rel_var:
                continue
            centers = np.zeros((count, n))
            centers[:, 0] = 0.6 * np.arange(count)
            nu = rz.PointMassMeasure(n, np.full(count, 1.0 / count), centers)
            est = rz.levelset.mc_levelset(p.spec, nu, 1.0, self.PILOT_SAMPLES, self.PILOT_SEED)
            self.rel_var[n, count] = (est.standard_error / est.value) ** 2 * est.samples
        search.optimize(search.SearchProblem(
            spec=self.rz.riesz(2, 1), count=2, samples=1000, seed=1, iterations=8, restarts=1))

    def run_round(self, index, in_process=True):
        rz = self.rz
        calls, results = [], []
        wall, cpu = time.perf_counter(), cpu_seconds()
        for p in self.problems:
            t = time.perf_counter()
            try:
                res = rz.search.optimize(p)
            except (rz.DomainError, rz.ToleranceError) as exc:
                res = exc
            calls.append((time.perf_counter() - t, isinstance(res, Exception)))
            results.append(res)
        wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
        # seconds per sample of the whole optimize call (its evaluations and
        # the re-evaluation at REEVAL_FACTOR times the samples)
        reeval = rz.search.REEVAL_FACTOR
        t1pct = geomean([
            self.rel_var[p.spec.n, p.count] * dt
            / ((res.evaluations + reeval) * p.samples) / 1e-4
            for p, (dt, failed), res in zip(self.problems, calls, results)
            if not failed and (p.spec.n, p.count) in self.rel_var])
        return {"wall": wall, "cpu": cpu, "calls": calls, "t1pct": t1pct,
                "evals": sum(r.evaluations for r in results if not isinstance(r, Exception)),
                "results": results}

    @staticmethod
    def _signature(res):
        if isinstance(res, Exception):
            return repr(res)
        return repr((res.value, res.standard_error, res.reevaluated_value,
                     res.reevaluated_se, res.evaluations, res.best.masses.tolist(),
                     res.best.centers.tolist()))

    def check(self, rounds):
        faults = []
        first = rounds[0]["results"]
        for r in rounds[1:]:
            if list(map(self._signature, r["results"])) != list(map(self._signature, first)):
                faults.append("search results differ between rounds of one seed")
        for p, res in zip(self.problems, first):
            if isinstance(res, Exception):
                continue
            n, what = p.spec.n, "search n=%d N=%d seed %d" % (p.spec.n, p.count, p.seed)
            best = res.best
            single = len({tuple(c) for c in best.centers.tolist()}) == 1
            if n == 1 or single or res.reevaluated_se == 0.0:
                want = checks.TWO_OVER_PI / n
                tol = 1e-10 if n == 1 else 1e-12
                for label, v, se in (("", res.value, res.standard_error),
                                     (" re-evaluated", res.reevaluated_value, res.reevaluated_se)):
                    faults.append(checks.close(v, want, tol, what + label))
                    if se != 0.0:
                        faults.append("%s%s: exact path reports SE %r" % (what, label, se))
                continue
            volume, se = checks.plain_levelset(
                checks.Kernel("riesz", n), best.masses, best.centers, 1.0,
                self.REF_SAMPLES, derived_seed(p.seed, 1 << 20))
            scale = 1.0 / math.fsum(best.masses)
            faults.append(checks.within_se(
                res.reevaluated_value, res.reevaluated_se, volume * scale, se * scale, what=what))
        return faults


class CzPipeline:
    """The paper's reduction through the CLI: CZ split, point masses, level sets."""

    SAMPLES = 20_000
    CLI = "import sys; from rieszlab.cli import run; sys.exit(run(sys.argv[1:]))"

    def __init__(self, seed, rz, results):
        self.seed, self.rz = seed, rz
        self.dir = os.path.join(results, "cz-pipeline-%d" % seed)
        self.src = os.path.abspath("src")

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def setup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        gen = np.random.default_rng(self.seed)
        # 1-D: fixed, since the default hilbert-exact route fails on its measure
        two_bumps = lambda x: (np.abs(x[..., 0] - 0.3) < 0.12) | (np.abs(x[..., 0] - 0.72) < 0.07)  # noqa: E731
        self.grids = {
            1: bump_grid(1, 6, 64, two_bumps) + (1.0, 9),
            2: bump_grid(2, 4, 16, disk(np.array([0.5, 0.5]), 0.28), gen) + (1.0, 5),
            3: bump_grid(3, 3, 8, disk(np.array([0.5, 0.5, 0.5]), 0.26), gen) + (1.0, 4),
        }
        for n, (doc, _, _, _) in self.grids.items():
            write_json(self.path("grid%d.json" % n), doc)
        shift = gen.integers(-8, 8, size=2)
        ring = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if 4 <= x * x + y * y <= 25]
        self.cells = np.array(ring, dtype=np.int64) + shift
        write_json(self.path("cells.json"), {"n": 2, "L": 2, "cells": self.cells.tolist()})
        self.levelset_lam = {2: 0.05, 3: 0.02}
        self.ls_seed = {n: derived_seed(self.seed, 2, n) for n in (2, 3)}
        self.ex_seed = derived_seed(self.seed, 3)

    def _calls(self, out):
        """(label, argv) of one round; a callable argv is built during the round."""
        calls = []
        for n in (1, 2, 3):
            calls.append(("cz%d" % n, ["cz", "--grid", self.path("grid%d.json" % n),
                                       "--lambda", "1", "--max-depth", str(self.grids[n][3]),
                                       "--out", out("cz%d.json" % n)]))
            if n == 1:
                for method in ("vieta", "bisection"):
                    calls.append(("hilbert-%s" % method, [
                        "hilbert-exact", "--measure", out("nu1.json"), "--lambda", "1",
                        "--method", method, "--out", out("hilbert-%s.csv" % method)]))
                calls.append(("exhaustion", [
                    "exhaustion", "--measure", out("nu1.json"), "--lambda", "1",
                    "--samples", str(self.SAMPLES), "--seed", str(self.ex_seed),
                    "--out", out("exhaustion.csv")]))
            else:
                calls.append(("levelset%d" % n, [
                    "levelset", "--measure", out("nu%d.json" % n),
                    "--lambda", repr(self.levelset_lam[n]), "--method", "mc",
                    "--samples", str(self.SAMPLES), "--seed", str(self.ls_seed[n]),
                    "--out", out("levelset%d.csv" % n)]))
            if n == 2:
                for scale in (1, 2):
                    calls.append(("cancellation-x%d" % scale,
                                  functools.partial(self._piece_density, out, scale)))
        calls.append(("constants", ["constants", "--n", "3", "--out", out("constants.csv")]))
        calls.append(("whitney", ["whitney", "--set", self.path("cells.json"),
                                  "--max-depth", "5", "--out", out("whitney.json")]))
        return calls

    def _piece_density(self, out, scale):
        """Density file and argv of the cancellation call for the largest cube
        of the 2-D split, dilated by `scale`; None without that split."""
        doc = self._cz_docs.get(2)
        if doc is None:
            return None
        level = self.grids[2][0]["L"]
        values = self.grids[2][1]
        piece = min(doc["pieces"], key=lambda p: (p["residual"], p["cube"]["level"]))
        k, coords = piece["cube"]["level"], piece["cube"]["coords"]
        if k <= level:
            s = 1 << (level - k)
            part = values[tuple(slice(c * s, (c + 1) * s) for c in coords)]
        else:
            level = k
            part = values[tuple(c >> (k - self.grids[2][0]["L"]) for c in coords)]
        shift = int(math.log2(scale))
        name = out("piece-x%d.json" % scale)
        write_json(name, {"n": 2, "L": level - shift,
                          "box": {"level": k - shift, "coords": list(coords)},
                          "values": [float(v) / scale**2 for v in np.ravel(part)]})
        center = ",".join(repr(scale * c) for c in piece["center"])
        radius = scale * math.sqrt(2) * 2.0**-k / 2
        return ["cancellation", "--n", "2", "--density", name, "--center", center,
                "--radius", repr(radius), "--out", out("cancellation-x%d.csv" % scale)]

    def _invoke(self, argv, in_process):
        if in_process:
            with contextlib.redirect_stderr(io.StringIO()):
                return self.rz.cli.run(argv)
        env = dict(os.environ, PYTHONPATH=self.src)
        proc = subprocess.run([sys.executable, "-c", self.CLI] + argv, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("%s exited %d: %s" % (argv[0], proc.returncode, proc.stderr.strip()[-300:]),
                  file=sys.stderr)
        return proc.returncode

    def run_round(self, index, in_process=True):
        rdir = self.path("round%d" % index)
        os.makedirs(rdir)
        out = lambda name: os.path.join(rdir, name)  # noqa: E731
        self._cz_docs = {}
        calls, codes, seconds = [], {}, {}
        wall, cpu = time.perf_counter(), cpu_seconds()
        for label, argv in self._calls(out):
            if callable(argv):
                argv = argv()
            t = time.perf_counter()
            code = -1 if argv is None else self._invoke(argv, in_process)
            seconds[label] = time.perf_counter() - t
            calls.append((seconds[label], code != 0))
            codes[label] = code
            if label.startswith("cz") and code == 0:
                n = int(label[2])
                with open(out("cz%d.json" % n)) as handle:
                    self._cz_docs[n] = json.load(handle)
                write_json(out("nu%d.json" % n), self._cz_docs[n]["measure"])
        wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
        t1pct = geomean([
            seconds[label] * (float(row["standard_error"]) / float(row["value"])) ** 2 / 1e-4
            for label, row in ((label, self._row(out(label + ".csv")))
                               for label in ("levelset2", "levelset3") if codes[label] == 0)])
        evals = sum(codes[k] == 0 for k in ("hilbert-vieta", "hilbert-bisection", "levelset2", "levelset3"))
        output_mb = sum(os.path.getsize(out(f)) for f in os.listdir(rdir)) / 1e6
        return {"wall": wall, "cpu": cpu, "calls": calls, "evals": evals, "t1pct": t1pct,
                "codes": codes, "dir": rdir, "output_mb": output_mb}

    @staticmethod
    def _rows(path):
        with open(path) as handle:
            return list(csv.DictReader(handle))

    def _row(self, path):
        return self._rows(path)[0]

    def check(self, rounds):
        faults = []
        first = rounds[0]
        d = first["dir"]
        for r in rounds[1:]:
            for name in sorted(os.listdir(d)):
                with open(os.path.join(d, name), "rb") as a, open(os.path.join(r["dir"], name), "rb") as b:
                    if a.read() != b.read():
                        faults.append("%s differs between rounds" % name)
            shutil.rmtree(r["dir"])
        codes = first["codes"]
        docs = {}
        for n, (doc, values, lam, depth) in self.grids.items():
            if codes["cz%d" % n] != 0:
                continue
            with open(os.path.join(d, "cz%d.json" % n)) as handle:
                docs[n] = json.load(handle)
            box = (doc["box"]["level"], doc["box"]["coords"])
            faults.append(checks.check_cz(doc["L"], box, values, lam, docs[n], depth))
        for method in ("vieta", "bisection"):
            if codes["hilbert-%s" % method] == 0:
                total = self._rows(os.path.join(d, "hilbert-%s.csv" % method))[-1]
                faults.append(checks.close(float(total["value"]), checks.TWO_OVER_PI, 1e-10,
                                           "hilbert-exact %s total" % method))
        if codes["exhaustion"] == 0 and 1 in docs:
            mass = math.fsum(m["a"] for m in docs[1]["measure"]["masses"])
            faults.append(checks.check_exhaustion(
                self._rows(os.path.join(d, "exhaustion.csv")), mass, 1.0))
        for n in (2, 3):
            if codes["levelset%d" % n] != 0 or n not in docs:
                continue
            row = self._row(os.path.join(d, "levelset%d.csv" % n))
            nu = docs[n]["measure"]["masses"]
            masses = np.array([m["a"] for m in nu])
            centers = np.array([m["c"] for m in nu])
            ref, ref_se = checks.plain_levelset(
                checks.Kernel("riesz", n), masses, centers, self.levelset_lam[n],
                self.SAMPLES, derived_seed(self.seed, 1 << 20, n))
            faults.append(checks.within_se(float(row["value"]), float(row["standard_error"]),
                                           ref, ref_se, what="levelset n=%d" % n))
        if codes["cancellation-x1"] == 0 and codes["cancellation-x2"] == 0:
            faults.append(checks.check_dilation(
                float(self._row(os.path.join(d, "cancellation-x1.csv"))["value"]),
                float(self._row(os.path.join(d, "cancellation-x2.csv"))["value"])))
        if codes["constants"] == 0:
            faults.append(checks.check_constants_row(self._row(os.path.join(d, "constants.csv"))))
        if codes["whitney"] == 0:
            with open(os.path.join(d, "whitney.json")) as handle:
                doc = json.load(handle)
            faults.append(checks.check_whitney(
                self.cells, 2, [(c["level"], tuple(c["coords"])) for c in doc["cubes"]],
                [(c["level"], tuple(c["coords"])) for c in doc["residual"]], doc["max_depth"]))
        return faults


WORKLOADS = {"mc-levelset": McLevelset, "search-sweep": SearchSweep, "cz-pipeline": CzPipeline}
