"""Each benchmark check accepts a right answer and rejects a wrong one.

    python3 -m pytest -q perfbench/test_bench_checks.py

These tests do not import rieszlab: the checks must stand apart from it.
"""

import math

import numpy as np

import checks


def test_closed_forms_from_gamma():
    assert math.isclose(checks.ball_volume(1), 2.0)
    assert math.isclose(checks.ball_volume(2), math.pi)
    assert math.isclose(checks.ball_volume(3), 4.0 * math.pi / 3.0)
    assert math.isclose(checks.riesz_constant(1), 1.0 / math.pi)
    assert math.isclose(checks.riesz_constant(2), 1.0 / (2.0 * math.pi))
    assert math.isclose(checks.second_order_constant(2), 1.0 / math.pi)


def test_kernel_formulas():
    e1 = np.array([[2.0, 0.0]])
    diag = np.array([[1.0, 1.0]]) / math.sqrt(2.0)
    assert math.isclose(checks.Kernel("riesz", 2).values(e1)[0], 1.0 / (8.0 * math.pi))
    assert math.isclose(
        checks.Kernel("second-order", 2, 1, 2).values(diag)[0], 1.0 / (2.0 * math.pi))
    assert math.isclose(
        checks.Kernel("second-order", 2, 1, 1).values(e1)[0], 1.0 / (8.0 * math.pi))
    # the sphere sup bounds the profile
    theta = np.random.default_rng(0).normal(size=(1000, 3))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    for kernel in (checks.Kernel("riesz", 3), checks.Kernel("second-order", 3, 1, 3),
                   checks.Kernel("second-order", 3, 2, 2)):
        assert np.max(np.abs(kernel.values(theta))) <= kernel.sup_omega() * (1 + 1e-12)


def test_plain_estimator_matches_single_mass_closed_form():
    kernel = checks.Kernel("riesz", 2)
    value, se = checks.plain_levelset(
        kernel, np.array([1.5]), np.array([[0.2, -0.1]]), 0.7, 40_000, seed=3)
    assert se > 0.0
    assert checks.within_se(value, se, checks.single_mass_volume(2, 1.5, 0.7)) is None


def test_plain_estimator_counts_overlapping_balls_once():
    # two half masses at one point are one unit mass
    kernel = checks.Kernel("riesz", 3)
    value, se = checks.plain_levelset(
        kernel, np.array([0.5, 0.5]), np.zeros((2, 3)), 1.0, 40_000, seed=4)
    assert checks.within_se(value, se, checks.single_mass_volume(3, 1.0, 1.0)) is None


def test_within_se_rejects_six_se_off():
    assert checks.within_se(1.0 + 2 * 0.01, 0.01, 1.0) is None
    assert checks.within_se(1.0 + 6 * 0.01, 0.01, 1.0) is not None
    assert checks.within_se(1.0 + 6 * 0.01, 0.01, 1.0, k=6.5) is None
    assert checks.within_se(1.0, 0.0, 1.0) is not None
    assert checks.within_se(1.0, math.nan, 1.0) is not None


def test_line_identity_tolerance():
    assert checks.close(checks.TWO_OVER_PI + 1e-13, checks.TWO_OVER_PI, 1e-10) is None
    assert checks.close(checks.TWO_OVER_PI + 1e-9, checks.TWO_OVER_PI, 1e-10) is not None


def _line_whitney():
    """U = [0, 8) at level 0 and depth 3: cubes [3, 4) and [4, 5), the rest residual."""
    cells = np.arange(8)[:, None]
    cubes = [(0, (3,)), (0, (4,))]
    residual = [(3, (8 * c + k,)) for c in (0, 1, 2, 5, 6, 7) for k in range(8)]
    return cells, cubes, residual


def test_whitney_checker_accepts_a_valid_split():
    cells, cubes, residual = _line_whitney()
    assert checks.check_whitney(cells, 0, cubes, residual, 3) is None
    square = np.array([(x, y) for x in range(3) for y in range(3)])
    fine = [(2, (x, y)) for x in range(12) for y in range(12)]
    assert checks.check_whitney(square, 0, [], fine, 2) is None


def test_whitney_checker_rejects_a_missing_cell():
    cells, cubes, residual = _line_whitney()
    assert "tile" in checks.check_whitney(cells, 0, cubes, residual[1:], 3)
    square = np.array([(x, y) for x in range(3) for y in range(3)])
    fine = [(2, (x, y)) for x in range(12) for y in range(12)]
    assert "tile" in checks.check_whitney(square, 0, [], fine[:-1], 2)


def test_whitney_checker_rejects_overlap_escape_and_separation():
    cells, cubes, residual = _line_whitney()
    assert "overlap" in checks.check_whitney(cells, 0, cubes, residual + [(3, (0,))], 3)
    assert "leaves" in checks.check_whitney(cells, 0, cubes, residual + [(3, (64,))], 3)
    # [0, 1) touches the complement, so it cannot be a Whitney cube
    edge = [(0, (0,))] + cubes
    assert "separation" in checks.check_whitney(cells, 0, edge, residual[8:], 3)


def _line_cz():
    """f = (0.5, 2, 3, 0.25) on the level-2 cells of [0, 1), lambda 1, depth 2."""
    values = np.array([0.5, 2.0, 3.0, 0.25])
    pieces = [{"cube": {"level": 2, "coords": [c]}, "mass": values[c] / 4,
               "center": [(c + 0.5) / 4], "residual": True} for c in (1, 2)]
    doc = {
        "good": {"values": [0.5, 0.0, 0.0, 0.25]},
        "pieces": pieces,
        "measure": {"n": 1, "masses": [{"a": p["mass"], "c": p["center"]} for p in pieces]},
    }
    return values, doc


def test_cz_checker_accepts_a_valid_split():
    values, doc = _line_cz()
    assert checks.check_cz(2, (0, [0]), values, 1.0, doc, 2) is None


def test_cz_checker_rejects_wrong_splits():
    values, doc = _line_cz()
    doc["pieces"] = doc["pieces"][:1]
    assert "tile" in checks.check_cz(2, (0, [0]), values, 1.0, doc, 2)
    values, doc = _line_cz()
    doc["good"]["values"][1] = 1.5
    assert "lambda" in checks.check_cz(2, (0, [0]), values, 1.0, doc, 2)
    values, doc = _line_cz()
    doc["pieces"][0]["mass"] *= 1.001
    doc["measure"]["masses"][0]["a"] *= 1.001
    assert "integral" in checks.check_cz(2, (0, [0]), values, 1.0, doc, 2)
    values, doc = _line_cz()
    doc["measure"]["masses"][1]["c"] = [0.7]
    assert "centers" in checks.check_cz(2, (0, [0]), values, 1.0, doc, 2)


def test_constants_row_checker():
    n = 3
    row = {
        "n": "3",
        "normalization": repr(checks.riesz_constant(n)),
        "sphere_l1": repr(checks.TWO_OVER_PI),
        "omega_sup": repr(checks.riesz_constant(n)),
        "gradient_sup": "1",
        "ball_volume": repr(checks.ball_volume(n)),
        "dimensional_constant": repr(checks.ball_volume(n) * checks.riesz_constant(n)),
        "single_mass_weaktype": repr(checks.TWO_OVER_PI / n),
    }
    assert checks.check_constants_row(row) is None
    row["ball_volume"] = repr(checks.ball_volume(n) * (1 + 1e-9))
    assert "ball_volume" in checks.check_constants_row(row)


def test_exhaustion_total_checker():
    rows = [{"volume": "1.0", "standard_error": "0"},
            {"volume": "2.01", "standard_error": "0.01"}]
    assert checks.check_exhaustion(rows, 3.0, 1.0) is None
    rows[1]["volume"] = "2.04"
    assert checks.check_exhaustion(rows, 3.0, 1.0) is not None


def test_dilation_checker():
    assert checks.check_dilation(1.0, 1.00005) is None
    assert checks.check_dilation(1.0, 1.001) is not None
    assert checks.check_dilation(0.0, 0.0) is not None
