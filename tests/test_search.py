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


def test_search_signature_is_pinned():
    # common random numbers make a search a pure function of its problem
    problem = S.SearchProblem(K.riesz(3, 1), 3, 2000, 4, iterations=60, restarts=2)
    result = S.optimize(problem)
    assert (repr(result.value), repr(result.standard_error)) == (
        "0.212718216095653",
        "0.0007618438774090768",
    )
    assert result.evaluations == 60 and result.incomplete
    assert result.best.centers.tolist() == [
        [0.0, 0.0, 0.0],
        [6.081390032007312e-05, 0.0, 0.0],
        [0.00012562871513488796, -0.0002400548696844993, 0.00032007315957933237],
    ]
    assert result.trace == (
        (1, 0.2122065907891938),
        (4, 0.21228187178527225),
        (7, 0.21260913058041914),
        (14, 0.212718216095653),
    )


def test_search_draws_its_mc_units_once_per_restart(monkeypatch):
    made = []

    def unit(self, gen, size, draw=L._Proposal.unit):
        made.append(size)
        return draw(self, gen, size)

    monkeypatch.setattr(L._Proposal, "unit", unit)
    problem = S.SearchProblem(K.riesz(3, 1), 3, 2000, 4, iterations=60, restarts=2)
    result = S.optimize(problem)
    # one draw per restart, then the re-evaluation's two chunks on its own seed
    assert result.evaluations == 60
    assert made == [2000, 2000, 16384, 20000 - 16384]


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


@pytest.mark.parametrize("kind", ["nelder-mead", "simulated-annealing"])
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


class _Recorder:
    """Stands in for the tracker: records each point, returns -fun there."""

    def __init__(self, fun):
        self.fun, self.points = fun, []

    def evaluate(self, theta, seed):
        self.points.append(np.array(theta, dtype=float))
        return -self.fun(theta)


def _rosenbrock(x):
    return np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2) + np.sum((1.0 - x) ** 2)


_CLOUD = np.random.default_rng(4).normal(size=(300, 6))


def _plateaus(x):
    # minus the share of a fixed cloud inside the unit ball around x: flat
    # between jumps, like the CRN objective, so ties and shrinks are common
    d = _CLOUD[:, : len(x)] - x
    return -np.mean(np.sum(d * d, axis=1) < 1.0)


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("fun", [_rosenbrock, _plateaus])
def test_nelder_mead_matches_scipy(fun, dim):
    # the port makes scipy's evaluations in scipy's order, bit for bit; a
    # budget can end it mid-expansion or mid-shrink
    from scipy import optimize

    starts = [np.zeros(dim), np.random.default_rng(dim).normal(size=dim) * 1.5]
    outcomes = set()
    for x0 in starts:
        for budget in [*range(dim + 2, 61), 2000]:
            ours = _Recorder(fun)
            complete = S._run_nelder_mead(ours, x0, 0, budget)
            ref = _Recorder(fun)
            res = optimize.minimize(
                lambda t: -ref.evaluate(t, 0),
                x0,
                method="Nelder-Mead",
                options={"maxfev": budget, "xatol": 1e-4, "fatol": 1e-7},
            )
            assert len(ours.points) == len(ref.points) == res.nfev
            assert all(map(np.array_equal, ours.points, ref.points)), budget
            assert complete == res.success
            outcomes.add(complete)
    assert outcomes == {True, False}


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
