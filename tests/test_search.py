import math

import numpy as np
import pytest

from rieszlab import kernels as K
from rieszlab import levelset as L
from rieszlab import search as S
from rieszlab.errors import DomainError


def test_flat_line_objective():
    # every positive 1-D configuration scores 2/pi, evaluated exactly
    problem = S.SearchProblem(K.hilbert(), 3, 2000, 5, iterations=60)
    result = S.optimize(problem)
    assert result.value == pytest.approx(2.0 / math.pi, rel=1e-10)
    assert result.reevaluated_value == pytest.approx(2.0 / math.pi, rel=1e-10)
    assert result.standard_error == 0.0
    values = [v for _, v in result.trace]
    assert values == sorted(values)
    assert result.evaluations <= 60 + 8


def test_single_mass_is_exact():
    for n in (2, 3, 5):
        problem = S.SearchProblem(K.riesz(n, 1), 1, 2000, 5)
        result = S.optimize(problem)
        assert result.value == pytest.approx(2.0 / (math.pi * n), rel=1e-10)
        assert result.evaluations == 1
        assert not result.incomplete
        assert result.best.count == 1 and result.standard_error == 0.0


def test_nondecreasing_in_count():
    # coincident masses make every N-point value feasible for N+1
    single = S.optimize(S.SearchProblem(K.riesz(2, 1), 1, 4000, 11))
    double = S.optimize(
        S.SearchProblem(K.riesz(2, 1), 2, 4000, 11, iterations=60)
    )
    slack = 3.0 * (single.reevaluated_se + double.reevaluated_se)
    assert double.reevaluated_value >= single.reevaluated_value - slack
    # winner's curse: the fresh estimate must not beat the surrogate by much
    spread = 3.0 * (double.standard_error + double.reevaluated_se)
    assert double.reevaluated_value <= double.value + spread


def test_gauge_invariance_of_functional():
    # scaling masses and threshold together changes nothing, bit for bit
    nu = __import__("rieszlab.measures", fromlist=["PointMassMeasure"])
    measure = nu.PointMassMeasure(
        2, np.array([1.0, 2.0]), np.array([[0.0, 0.0], [1.5, 0.0]])
    )
    scaled = nu.PointMassMeasure(2, measure.masses * 4.0, measure.centers)
    spec = K.riesz(2, 1)
    a = L.weaktype_functional(spec, measure, 1.0, samples=20000, seed=3)
    b = L.weaktype_functional(spec, scaled, 4.0, samples=20000, seed=3)
    assert a.value == b.value and a.standard_error == b.standard_error


@pytest.mark.parametrize("kind", ["simulated-annealing"])
def test_alternate_optimizers(kind):
    problem = S.SearchProblem(
        K.riesz(2, 1), 2, 3000, 17, iterations=40, kind=kind, restarts=2
    )
    result = S.optimize(problem)
    # restart 0 starts at the coincident cluster, so the single-mass value
    # is always in the surrogate's reach
    floor = 1.0 / math.pi - 3.0 * (result.standard_error + result.reevaluated_se)
    assert result.reevaluated_value >= floor - 3.0 * result.reevaluated_se
    again = S.optimize(problem)
    assert again.value == result.value
    assert np.array_equal(again.best.centers, result.best.centers)


def test_incomplete_flag_on_tiny_budget():
    problem = S.SearchProblem(
        K.riesz(2, 1), 3, 2000, 7, iterations=8, restarts=1
    )
    result = S.optimize(problem)
    assert result.incomplete
    assert result.trace and result.evaluations >= 1


def test_configuration_decoding():
    problem = S.SearchProblem(K.riesz(2, 1), 3, 2000, 7)
    assert problem.dimension == 3 + 2
    nu = S.configuration(problem, np.zeros(5))
    assert np.allclose(nu.masses, 1.0 / 3.0)
    assert np.array_equal(nu.centers, np.zeros((3, 2)))
    theta = np.array([math.log(2.0), math.log(4.0), -1.5, 0.25, -0.5])
    nu = S.configuration(problem, theta)
    assert np.allclose(nu.masses, [1.0 / 7.0, 2.0 / 7.0, 4.0 / 7.0])
    assert nu.centers[1, 0] == 1.5 and nu.centers[1, 1] == 0.0
    assert np.array_equal(nu.centers[2], [0.25, -0.5])
    with pytest.raises(DomainError):
        S.configuration(problem, np.zeros(4))


def test_problem_validation():
    spec = K.riesz(2, 1)
    with pytest.raises(DomainError):
        S.SearchProblem(spec, 0, 2000, 7)
    with pytest.raises(DomainError):
        S.SearchProblem(spec, 2, 10, 7)
    with pytest.raises(DomainError):
        S.SearchProblem(spec, 2, 2000, -1)
    with pytest.raises(DomainError):
        S.SearchProblem(spec, 2, 2000, 7, iterations=0)
    with pytest.raises(DomainError):
        S.SearchProblem(spec, 2, 2000, 7, kind="gradient-descent")
    with pytest.raises(DomainError):
        S.SearchProblem(spec, 2, 2000, 7, kind="random-restart")
    with pytest.raises(DomainError):
        S.SearchProblem(spec, 2, 2000, 7, restarts=0)


def test_dimension_sweep():
    def spec_for(n):
        if n == 4:
            raise DomainError("unsupported cell")
        return K.riesz(n, 1)

    rows = S.dimension_sweep(
        spec_for, (1, 2, 4), (1, 2), 3000, 3, iterations=30, restarts=2
    )
    assert [(r.n, r.count) for r in rows] == [
        (1, 1), (1, 2), (2, 1), (2, 2), (4, 1), (4, 2),
    ]
    by_cell = {(r.n, r.count): r for r in rows}
    # the N=1 column is the exact dimensional decay
    assert by_cell[1, 1].value == pytest.approx(2.0 / math.pi, rel=1e-10)
    assert by_cell[2, 1].value == pytest.approx(1.0 / math.pi, rel=1e-10)
    # the 1-D row is flat
    assert by_cell[1, 2].value == pytest.approx(2.0 / math.pi, rel=1e-9)
    for row in rows:
        if row.n == 4:
            assert row.status.startswith("error:") and math.isnan(row.value)
            assert math.isnan(row.standard_error) and row.evaluations == 0
            assert row.wall_time >= 0.0
        else:
            assert row.status in ("ok", "incomplete")
            assert row.wall_time >= 0.0
    gain = by_cell[2, 2].value - by_cell[2, 1].value
    assert gain >= -3.0 * (by_cell[2, 2].standard_error + 1e-12)
