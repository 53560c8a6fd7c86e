"""End-to-end acceptance checks, one test per shipped guarantee.

Each test pins its tolerance inline and asserts its own runtime budget.
The terminal summary (see conftest) prints one PASS/FAIL line per item.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import (
    check_whitney_properties,
    random_cell_union,
    random_grid_function,
    whitney_depth,
)

from rieszlab import cli
from rieszlab import constructions as C
from rieszlab import decomposition as D
from rieszlab import kernels as K
from rieszlab import levelset as L
from rieszlab import measures as M
from rieszlab import search as S

TWO_OVER_PI = 2.0 / math.pi


def random_line_measure(gen, count):
    masses = gen.uniform(0.1, 3.0, size=count)
    centers = gen.uniform(-5.0, 5.0, size=(count, 1))
    return M.PointMassMeasure(1, masses, centers)


def dilated_line_density(scale):
    values = np.zeros(8)
    values[3:5] = 2.0**-scale
    b = D.GridFunction(1 - scale, D.DyadicCube(-2 - scale, (0,)), values)
    return b, np.array([float(2 ** (scale + 1))]), 2.0**scale / 2.0


def dilated_plane_density(scale):
    pattern = np.array(
        [
            [1.0, 2.0, 0.0, 0.0],
            [0.0, 3.0, 1.0, 0.0],
            [0.0, 0.0, 2.0, 1.0],
            [1.0, 0.0, 0.0, 2.0],
        ]
    )
    b = D.GridFunction(
        2 - scale, D.DyadicCube(-scale, (0, 0)), pattern * 4.0**-scale
    )
    return b, np.array([0.5, 0.5]) * 2.0**scale, 0.75 * 2.0**scale


def test_c1_line_levelset_constant():
    start = time.perf_counter()
    gen = np.random.default_rng(11)
    spec = K.hilbert()
    for trial in range(20):
        nu = random_line_measure(gen, int(gen.integers(1, 9)))
        lam = (0.5, 1.0, 2.0)[trial % 3]
        vieta = L.weaktype_functional(spec, nu, lam, method="vieta").value
        bisect = L.weaktype_functional(spec, nu, lam, method="bisection").value
        assert vieta == pytest.approx(TWO_OVER_PI, rel=1e-10)
        assert bisect == pytest.approx(TWO_OVER_PI, rel=1e-8)
        assert bisect == pytest.approx(vieta, rel=1e-8)
    assert time.perf_counter() - start < 5.0


def test_c2_single_mass_decay():
    start = time.perf_counter()
    dims = range(1, 11)
    values = [K.sphere_l1_quadrature(K.riesz(n, 1)) / n for n in dims]
    assert values[0] == pytest.approx(TWO_OVER_PI, rel=1e-8)
    products = [n * v for n, v in zip(dims, values)]
    for p in products[1:]:
        assert p == pytest.approx(products[0], rel=1e-6)
    for n, v in zip(dims, values):
        # equality at n = 1, so leave room for rounding
        assert v <= K.dimensional_constant(n) * (1.0 + 1e-12)
    for n in range(10, 201):
        assert 0.75 <= K.dimensional_constant(n) * math.sqrt(n) <= 0.85
    assert time.perf_counter() - start < 10.0


def test_c3_mc_levelset_within_three_se():
    start = time.perf_counter()
    cases = []
    for n in (1, 2, 3, 5):
        spec = K.riesz(n, 1)
        nu = M.PointMassMeasure(n, np.array([1.0]), np.zeros((1, n)))
        exact = L.levelset_measure(spec, nu, 1.0, method="single-mass").value
        cases.append((spec, nu, 1.0, exact))
    gen = np.random.default_rng(23)
    hilbert = K.hilbert()
    for trial in range(10):
        nu = random_line_measure(gen, int(gen.integers(2, 7)))
        lam = (0.5, 1.0, 2.0)[trial % 3]
        exact = L.levelset_measure(hilbert, nu, lam, method="vieta").value
        cases.append((hilbert, nu, lam, exact))
    for seed, (spec, nu, lam, exact) in enumerate(cases, start=300):
        est = L.levelset_measure(
            spec, nu, lam, method="mc", samples=100_000, seed=seed
        )
        assert abs(est.value - exact) <= 3.0 * est.standard_error
        wide = L.levelset_measure(
            spec, nu, lam, method="mc", samples=400_000, seed=seed
        )
        assert abs(wide.value - exact) <= 3.0 * wide.standard_error
        ratio = est.standard_error / wide.standard_error
        assert 1.8 <= ratio <= 2.2
    assert time.perf_counter() - start < 120.0


def test_c4_kernel_identities():
    start = time.perf_counter()
    specs = (
        K.riesz(2, 1), K.riesz(3, 2), K.riesz(5, 3),
        K.second_order(2, 1, 2), K.second_order(3, 2, 2),
        K.second_order(5, 5, 5),
    )
    gen = np.random.default_rng(41)
    h = 1e-5
    points = 0
    for spec in specs:
        for _ in range(170):
            x = gen.normal(size=spec.n)
            r = np.linalg.norm(x)
            if not 0.5 <= r <= 2.0:
                x = x / r * (0.5 + 1.5 * gen.random())
            g = K.eval_omega_gradient(spec, x)
            for axis in range(spec.n):
                e = np.zeros(spec.n)
                e[axis] = h
                fd = (K.profile(spec, x + e) - K.profile(spec, x - e)) / (2 * h)
                assert abs(g[axis] - fd) <= 1e-6
            points += 1
    assert points >= 1000

    for n, seed in ((2, 401), (3, 402), (5, 403)):
        est = K.sphere_l1_norm_mc(K.riesz(n, 1), 200_000, seed=seed)
        assert abs(est.value - TWO_OVER_PI) <= 3.0 * est.standard_error

    zero_specs = (
        K.hilbert(), K.riesz(2, 2), K.riesz(3, 1), K.riesz(5, 4),
        K.second_order(2, 1, 2), K.second_order(3, 3, 3),
        K.second_order(5, 2, 4),
    )
    for seed, spec in enumerate(zero_specs, start=420):
        est = K.sphere_mean_zero_check(spec, 100_000, seed=seed)
        assert abs(est.value) <= 3.0 * est.standard_error + 1e-12

    bounded = (
        K.second_order(2, 1, 2), K.second_order(3, 2, 2),
        K.second_order(5, 1, 4),
    )
    for seed, spec in enumerate(bounded, start=440):
        est = K.sphere_l1_norm_mc(spec, 200_000, seed=seed)
        assert abs(est.value - K.sphere_l1_norm(spec)) <= 3.0 * est.standard_error

    caps = (
        (K.riesz(3, 1), 2.0),
        (K.riesz(5, 2), 2.0),
        (K.second_order(3, 1, 2), math.sqrt(5.0) * 1.1),
        (K.second_order(4, 2, 2), math.sqrt(5.0) * 1.1),
    )
    for spec, cap in caps:
        for offset, axis in enumerate((0, spec.n - 1)):
            xi = np.zeros(spec.n)
            xi[axis] = 1.0
            for delta in (0.02, 0.05, 0.2 / spec.n):
                r = K.lipschitz_condition_ratio(
                    spec, xi, delta, 50_000, seed=460 + offset
                )
                assert 0.0 < r <= cap
    assert time.perf_counter() - start < 60.0


def test_c5_whitney_cz_exactness():
    start = time.perf_counter()
    gen = np.random.default_rng(51)
    kept = []
    for trial in range(50):
        n = 1 + trial % 3
        u = random_cell_union(gen, n)
        depth = whitney_depth(u)
        cubes, residual = D.whitney_decompose(u, depth)
        check_whitney_properties(u, cubes, residual, depth)
        kept.append((u, depth, residual))

    for u, depth, residual in kept[:9]:
        deeper = D.whitney_decompose(u, depth + 2)[1]
        # residual rows are cells of side 2^-depth and 2^-(depth + 2)
        before = len(residual) * 2.0 ** (-u.n * depth)
        after = len(deeper) * 2.0 ** (-u.n * (depth + 2))
        assert 0.0 < after < before

    ggen = np.random.default_rng(52)
    done = 0
    while done < 20:
        n = 1 + done % 3
        f = random_grid_function(ggen, n)
        positive = f.values[f.values > 0]
        if positive.size == 0:
            continue
        lam = float(np.median(positive))
        if lam >= f.sup_norm:
            lam = f.sup_norm / 2.0
        cz = D.cz_decompose(f, lam, f.level + 2)
        assert cz.good.sup_norm <= lam
        union_measure = D.cells_above(f, lam).measure
        volumes = 2.0 ** (-n * cz.pieces[:, 0])
        assert math.fsum(volumes) == union_measure
        assert union_measure <= f.l1_norm / lam
        assert cz.bad_l1 <= f.l1_norm
        if len(cz.pieces):
            assert M.total_variation(cz.point_masses) == cz.bad_l1
            assert np.all(cz.point_masses.masses > 0.0)
        rec = cz.reconstruct()
        assert np.array_equal(rec.values, f.refined_values(rec.level))
        done += 1
    assert time.perf_counter() - start < 30.0


def test_c6_exhaustion_cancellation_annulus():
    start = time.perf_counter()
    gen = np.random.default_rng(61)
    for trial in range(10):
        n = 1 + trial % 2
        count = int(gen.integers(1, 5))
        nu = M.PointMassMeasure(
            n,
            gen.uniform(0.3, 2.0, size=count),
            gen.uniform(-2.0, 2.0, size=(count, n)),
        )
        lam = (0.5, 1.0, 2.0)[trial % 3]
        sets = C.build_exhaustion(nu, lam, 60_000, seed=600 + trial)
        total = math.fsum(s.volume for s in sets)
        target = M.total_variation(nu) / lam
        se = math.sqrt(math.fsum(s.volume_se**2 for s in sets))
        assert abs(total - target) <= max(3.0 * se, 1e-12 * target)

    line_vals, plane_vals = [], []
    plane_spec = K.riesz(2, 1)
    for scale in (0, 1, 2):
        b, c, r = dilated_line_density(scale)
        line_vals.append(
            C.cancellation_integral(K.hilbert(), b, b.l1_norm, c, r).value
        )
        b, c, r = dilated_plane_density(scale)
        plane_vals.append(
            C.cancellation_integral(plane_spec, b, b.l1_norm, c, r).value
        )
    for vals in (line_vals, plane_vals):
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-4)

    for n in (2, 3, 5):
        spec = K.riesz(n, 1)
        expected = K.sphere_l1_quadrature(spec) * math.log(n)
        assert C.annulus_kernel_l1(spec) == pytest.approx(expected, rel=1e-4)
    assert time.perf_counter() - start < 120.0


def test_c7_search_sanity():
    start = time.perf_counter()
    for count in (2, 3):
        problem = S.SearchProblem(
            spec=K.hilbert(), count=count, samples=2_000, seed=71,
            iterations=24, restarts=2,
        )
        res = S.optimize(problem)
        assert res.reevaluated_se == 0.0
        assert res.reevaluated_value == pytest.approx(TWO_OVER_PI, rel=1e-10)

    ns, counts = (1, 2, 3, 5), (1, 2, 3)
    rows = S.dimension_sweep(
        lambda n: K.riesz(n, 1), ns, counts, samples=16_000, seed=72
    )
    table = {(r.n, r.count): r for r in rows}
    for (n, count), row in table.items():
        assert not row.status.startswith("error")
        if n == 1:
            assert row.value == pytest.approx(TWO_OVER_PI, rel=1e-10)
    for n in ns:
        row = table[(n, 1)]
        assert row.standard_error == 0.0
        assert row.value == pytest.approx(TWO_OVER_PI / n, rel=1e-10)
        for count in (1, 2):
            low, high = table[(n, count)], table[(n, count + 1)]
            margin = 3.0 * math.hypot(low.standard_error, high.standard_error)
            assert high.value >= low.value - margin - 1e-12
    assert time.perf_counter() - start < 600.0


def test_c8_cli_byte_identity(tmp_path):
    docs = {
        "delta.json": {"n": 1, "masses": [{"a": 1.0, "c": [0.0]}]},
        "pair.json": {
            "n": 2,
            "masses": [
                {"a": 1.0, "c": [0.0, 0.0]},
                {"a": 2.0, "c": [1.5, 0.0]},
            ],
        },
        "unit.json": {"n": 1, "L": 0, "cells": [[0]]},
        "grid.json": {
            "n": 1, "L": 1, "box": {"level": -2, "coords": [0]},
            "values": [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        },
    }
    paths = {}
    for name, doc in docs.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths[name] = str(path)

    commands = (
        ["constants", "--n", "3"],
        ["verify-kernel", "--n", "2", "--samples", "20000", "--seed", "3"],
        ["hilbert-exact", "--measure", paths["delta.json"], "--lambda", "1"],
        ["levelset", "--measure", paths["pair.json"], "--lambda", "1",
         "--method", "mc", "--samples", "20000", "--seed", "4"],
        ["weaktype", "--measure", paths["pair.json"], "--lambda", "1",
         "--method", "mc", "--samples", "20000", "--seed", "4"],
        ["whitney", "--set", paths["unit.json"], "--max-depth", "4"],
        ["cz", "--grid", paths["grid.json"], "--lambda", "0.5",
         "--max-depth", "6"],
        ["cancellation", "--n", "1", "--kind", "hilbert",
         "--density", paths["grid.json"], "--center", "2",
         "--radius", "0.5"],
        ["exhaustion", "--measure", paths["pair.json"], "--lambda", "1",
         "--samples", "20000", "--seed", "7"],
        ["search", "--n", "2", "--count", "2", "--samples", "2000",
         "--seed", "5", "--iterations", "12", "--restarts", "2"],
        ["sweep", "--ns", "1,2", "--counts", "1,2", "--samples", "2000",
         "--seed", "3", "--iterations", "12", "--restarts", "2"],
    )
    for index, argv in enumerate(commands):
        outputs = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / ("%d-%s.out" % (index, tag))
            code = cli.run(argv + ["--threads", threads, "--out", str(out)])
            assert code == 0, argv[0]
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], argv[0]
