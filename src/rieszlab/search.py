"""Derivative-free maximization of the weak-type ratio over mass placements.

The objective is the thresholded level-set volume per unit mass, evaluated
with common random numbers so the optimizer walks a deterministic surface;
the winning configuration is then re-evaluated on a fresh seed with a larger
budget to strip the selection bias. The one optimizer, at every dimension,
is Nelder-Mead: scipy.optimize's non-adaptive variant written out in numpy.
It makes the same evaluations in the same order, so a search needs no scipy.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import levelset
from .errors import DomainError, ToleranceError, as_positive_int
from .measures import PointMassMeasure
from .rng import (
    SEARCH_INIT,
    SEARCH_REEVAL,
    check_samples,
    check_seed,
    derive_seed,
    generator,
)

REEVAL_FACTOR = 10
_START_SPREAD = 1.5


@dataclass(frozen=True)
class SearchProblem:
    """Maximize the weak-type ratio over N masses in the canonical gauge.

    The gauge pins threshold 1 and unit total mass, puts the first center
    at the origin and the second on the positive first axis; what remains
    free are N - 1 mass logits, one separation, and the later centers.

    The iteration budget is split evenly over the restarts, with at least
    dimension + 2 evaluations a restart (one simplex and one step), so a
    search makes at most restarts * max(dimension + 2, iterations // restarts)
    evaluations before the re-evaluation.
    """

    spec: object
    count: int
    samples: int
    seed: int
    iterations: int = 200
    restarts: int = 4

    def __post_init__(self):
        as_positive_int(self.count, "mass count")
        check_samples(self.samples)
        check_seed(self.seed)
        as_positive_int(self.iterations, "iteration budget")
        as_positive_int(self.restarts, "restart count")

    @property
    def dimension(self):
        free = self.count - 1
        if self.count >= 2:
            free += 1
        if self.count >= 3:
            free += (self.count - 2) * self.spec.n
        return free


@dataclass(frozen=True)
class SearchResult:
    best: PointMassMeasure
    value: float
    standard_error: float
    reevaluated_value: float
    reevaluated_se: float
    evaluations: int
    trace: tuple
    incomplete: bool


def configuration(problem, theta):
    """Decode an unconstrained parameter vector into a measure."""
    count, n = problem.count, problem.spec.n
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (problem.dimension,):
        raise DomainError("parameter vector has the wrong length")
    logits = np.concatenate([[0.0], theta[: count - 1]])
    logits -= np.max(logits)
    masses = np.exp(logits)
    masses /= masses.sum()
    centers = np.zeros((count, n))
    if count >= 2:
        centers[1, 0] = abs(theta[count - 1])
    if count >= 3:
        centers[2:] = theta[count:].reshape(count - 2, n)
    return PointMassMeasure(n, masses, centers)


class _Tracker:
    """Shared incumbent across restarts; feeds the monotone trace.

    units is the current restart's dict of MC unit draws (mc_levelset): its
    evaluations share one seed, so each chunk is drawn once per restart.
    """

    def __init__(self, problem, threads):
        self.problem = problem
        self.threads = threads
        self.units = None
        self.evaluations = 0
        self.trace = []
        self.best_theta = None
        self.best_estimate = None

    def evaluate(self, theta, crn_seed):
        nu = configuration(self.problem, theta)
        est = levelset.weaktype_functional(
            self.problem.spec,
            nu,
            1.0,
            samples=self.problem.samples,
            seed=crn_seed,
            threads=self.threads,
            units=self.units,
        )
        self.evaluations += 1
        if self.best_estimate is None or est.value > self.best_estimate.value:
            self.best_theta = np.array(theta, dtype=float)
            self.best_estimate = est
            self.trace.append((self.evaluations, est.value))
        return est.value


class _BudgetSpent(Exception):
    """The evaluation budget ran out; the call that would exceed it is not made."""


def _run_nelder_mead(tracker, x0, crn_seed, budget):
    """Minimize -value from x0 in at most budget evaluations.

    This is scipy.optimize.minimize(method="Nelder-Mead") with maxfev=budget,
    xatol=1e-4 and fatol=1e-7, step for step: the same simplex, the same float
    expressions, the same argsort and the same hard cap, which can end a
    shrink midway. The tracker keeps the first best value it sees and the
    trace records each improvement, so any other order of evaluations would
    change the result. Returns True if the simplex converged within budget.
    """
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= budget:
            raise _BudgetSpent
        calls += 1
        return -tracker.evaluate(x, crn_seed)

    dim = len(x0)
    sim = np.tile(x0, (dim + 1, 1))
    for k in range(dim):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    try:
        fsim = np.array([f(x) for x in sim], dtype=float)
        # scipy sorts after the first evaluations, again before its first
        # step and after every step (here at the top of the loop); with ties
        # the default (unstable) argsort can reorder sorted input, so no sort
        # may be dropped
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
        while calls < budget:
            ind = np.argsort(fsim)
            sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
            if (
                np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= 1e-4
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-7
            ):
                return True
            xbar = np.add.reduce(sim[:-1], 0) / dim
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if shrink:
                    for j in range(1, dim + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
                else:
                    sim[-1], fsim[-1] = xc, fxc
    except _BudgetSpent:
        pass
    return False


def optimize(problem, threads=1):
    """Search the gauge for the best configuration of problem.count masses.

    Restart 0 starts from the coincident cluster, so the single-mass value
    is always reachable; every restart walks its own deterministic stream.
    The incumbent is re-evaluated on a fresh seed with a 10x budget.
    """
    dim = problem.dimension
    tracker = _Tracker(problem, threads)

    complete = True
    if dim == 0:
        crn = derive_seed(problem.seed, SEARCH_INIT, 0, 1)
        tracker.evaluate(np.empty(0), crn)
    else:
        budget = max(dim + 2, problem.iterations // problem.restarts)
        for restart in range(problem.restarts):
            crn = derive_seed(problem.seed, SEARCH_INIT, restart, 1)
            tracker.units = {}
            x0 = np.zeros(dim)
            if restart:
                gen = generator(problem.seed, SEARCH_INIT, restart)
                x0 = gen.normal(size=dim) * _START_SPREAD
            complete &= _run_nelder_mead(tracker, x0, crn, budget)

    best = configuration(problem, tracker.best_theta)
    fresh = levelset.weaktype_functional(
        problem.spec,
        best,
        1.0,
        samples=REEVAL_FACTOR * problem.samples,
        seed=derive_seed(problem.seed, SEARCH_REEVAL),
        threads=threads,
    )
    return SearchResult(
        best=best,
        value=tracker.best_estimate.value,
        standard_error=tracker.best_estimate.standard_error,
        reevaluated_value=fresh.value,
        reevaluated_se=fresh.standard_error,
        evaluations=tracker.evaluations,
        trace=tuple(tracker.trace),
        incomplete=not complete,
    )


@dataclass(frozen=True)
class SweepRow:
    n: int
    count: int
    value: float
    standard_error: float
    evaluations: int
    status: str
    wall_time: float


def dimension_sweep(
    spec_for,
    ns,
    counts,
    samples,
    seed,
    iterations=200,
    restarts=4,
    threads=1,
):
    """Run optimize over the (n, N) grid, one derived seed per cell.

    A bad samples, seed, iterations or restarts value fails the whole sweep
    before any cell runs. A cell that fails on its own (a kernel undefined
    at its n, say) becomes an error row and the sweep continues. The value
    column holds the re-evaluated (fresh seed) estimate.
    """
    # the checks of every cell's problem, made once (no spec or count yet)
    SearchProblem(None, 1, samples, seed, iterations, restarts)
    rows = []
    for index, (n, count) in enumerate(itertools.product(ns, counts)):
        started = time.perf_counter()
        try:
            problem = SearchProblem(
                spec=spec_for(n),
                count=count,
                samples=samples,
                seed=derive_seed(seed, SEARCH_INIT, unit=index),
                iterations=iterations,
                restarts=restarts,
            )
            result = optimize(problem, threads=threads)
            value, se = result.reevaluated_value, result.reevaluated_se
            evaluations = result.evaluations
            status = "incomplete" if result.incomplete else "ok"
        except (DomainError, ToleranceError) as exc:
            value, se, evaluations = math.nan, math.nan, 0
            status = "error: %s" % exc
        wall_time = time.perf_counter() - started
        rows.append(SweepRow(n, count, value, se, evaluations, status, wall_time))
    return rows
