import json
import math

import numpy as np
import pytest

from rieszlab import kernels as K
from rieszlab import measures as M
from rieszlab.errors import DomainError, PoleError


def two_poles():
    return M.PointMassMeasure(
        n=1, masses=np.array([1.0, 1.0]), centers=np.array([[-1.0], [1.0]])
    )


def random_measure(gen, n, count):
    return M.PointMassMeasure(
        n=n,
        masses=gen.uniform(0.1, 2.0, size=count),
        centers=gen.normal(size=(count, n)),
    )


def test_total_variation():
    nu = M.PointMassMeasure(
        n=2, masses=np.array([1.0, 2.5]), centers=np.array([[0.0, 0.0], [1.0, 0.0]])
    )
    assert M.total_variation(nu) == 3.5


def test_validation_rejects_bad_measures():
    with pytest.raises(DomainError):
        M.PointMassMeasure(n=1, masses=np.array([]), centers=np.empty((0, 1)))
    with pytest.raises(DomainError):
        M.PointMassMeasure(n=1, masses=np.array([-1.0]), centers=np.array([[0.0]]))
    with pytest.raises(DomainError):
        M.PointMassMeasure(n=1, masses=np.array([0.0]), centers=np.array([[0.0]]))
    with pytest.raises(DomainError):
        M.PointMassMeasure(n=1, masses=np.array([np.nan]), centers=np.array([[0.0]]))
    with pytest.raises(DomainError):
        M.PointMassMeasure(n=2, masses=np.array([1.0]), centers=np.array([[0.0]]))
    with pytest.raises(DomainError):
        M.PointMassMeasure(n=1, masses=np.array([1.0]), centers=np.array([[np.inf]]))


def test_measure_arrays_are_frozen():
    nu = two_poles()
    with pytest.raises(ValueError):
        nu.masses[0] = 5.0
    with pytest.raises(ValueError):
        nu.centers[0, 0] = 5.0


def test_hilbert_transform_frozen_value():
    # two unit poles at -1 and 1, evaluated at 0.5:
    # 1/(pi*1.5) + 1/(pi*(-0.5)) = -4/(3 pi)
    nu = two_poles()
    got = M.eval_transform(K.hilbert(), nu, np.array([0.5]))
    assert got == pytest.approx(-4.0 / (3.0 * math.pi), rel=1e-14)
    # odd kernel, symmetric measure: zero at the midpoint
    assert M.eval_transform(K.hilbert(), nu, np.array([0.0])) == pytest.approx(
        0.0, abs=1e-16
    )


def test_riesz_transform_frozen_value():
    nu = M.PointMassMeasure(
        n=2, masses=np.array([1.0]), centers=np.array([[0.0, 0.0]])
    )
    got = M.eval_transform(K.riesz(2, 1), nu, np.array([1.0, 0.0]))
    assert got == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    # kernel is -n homogeneous: doubling the distance quarters the value... n=2
    far = M.eval_transform(K.riesz(2, 1), nu, np.array([2.0, 0.0]))
    assert far == pytest.approx(got / 4.0, rel=1e-12)


def test_transform_many_matches_pointwise():
    gen = np.random.default_rng(11)
    for n in (1, 2, 3):
        spec = K.hilbert() if n == 1 else K.riesz(n, 1)
        nu = random_measure(gen, n, 5)
        pts = gen.normal(size=(7, n)) * 3.0
        batch = M.transform_many(spec, nu, pts)
        for i in range(7):
            assert batch[i] == pytest.approx(
                M.eval_transform(spec, nu, pts[i]), rel=1e-14, abs=1e-300
            )


def test_transform_many_across_tiles_matches_direct_sum():
    # 3000 points take PAIR_BUDGET // 3000 masses per tile: several tiles
    gen = np.random.default_rng(12)
    spec = K.second_order(2, 1, 2)
    nu = random_measure(gen, 2, 40)
    pts = gen.normal(size=(3000, 2)) * 3.0
    assert M.PAIR_BUDGET // len(pts) < nu.count
    batch = M.transform_many(spec, nu, pts)
    for i in range(0, 3000, 97):
        terms = nu.masses * K.kernel_values(spec, pts[i] - nu.centers)
        assert batch[i] == pytest.approx(
            math.fsum(terms), rel=1e-12, abs=1e-12 * np.sum(np.abs(terms))
        )


def test_translation_equivariance():
    gen = np.random.default_rng(31)
    spec = K.riesz(3, 2)
    nu = random_measure(gen, 3, 4)
    v = gen.normal(size=3)
    shifted = M.PointMassMeasure(n=3, masses=nu.masses, centers=nu.centers + v)
    for _ in range(10):
        x = gen.normal(size=3) * 2.0
        a = M.eval_transform(spec, nu, x)
        b = M.eval_transform(spec, shifted, x + v)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-15)


def test_pole_rejection():
    nu = two_poles()
    with pytest.raises(PoleError):
        M.eval_transform(K.hilbert(), nu, np.array([1.0]))
    with pytest.raises(PoleError):
        M.eval_transform(K.hilbert(), nu, np.array([1.0 + 1e-13]))
    # just outside the pole radius is fine
    M.eval_transform(K.hilbert(), nu, np.array([1.0 + 1e-9]))


def test_eval_rejects_bad_points():
    nu = two_poles()
    with pytest.raises(DomainError):
        M.eval_transform(K.hilbert(), nu, np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        M.eval_transform(K.hilbert(), nu, np.array([np.nan]))
    with pytest.raises(DomainError):
        M.eval_transform(K.riesz(2, 1), nu, np.array([0.5, 0.5]))


def test_json_round_trip():
    gen = np.random.default_rng(47)
    nu = random_measure(gen, 3, 5)
    text = M.measure_to_json(nu)
    back = M.measure_from_json(text)
    assert back.n == nu.n
    assert np.array_equal(back.masses, nu.masses)
    assert np.array_equal(back.centers, nu.centers)
    doc = json.loads(text)
    assert doc["n"] == 3
    assert len(doc["masses"]) == 5
    assert set(doc["masses"][0]) == {"a", "c"}


def test_json_rejects_empty_and_malformed():
    with pytest.raises(DomainError):
        M.measure_from_json(json.dumps({"n": 1, "masses": []}))
    with pytest.raises(DomainError):
        M.measure_from_json(json.dumps({"n": 1}))
    with pytest.raises(DomainError):
        M.measure_from_json(
            json.dumps({"n": 1, "masses": [{"a": 1.0, "c": [0.0, 0.0]}]})
        )
    with pytest.raises(DomainError):
        M.measure_from_json("not json at all")


@pytest.mark.parametrize(
    "n,c", [(2.7, [0.0, 0.0]), (2.0, [0.0, 0.0]), (True, [0.0]), ("2", [0.0, 0.0])]
)
def test_json_rejects_non_integer_dimension(n, c):
    # each was once read as int(n): 2.7 as 2 and true as 1
    doc = {"n": n, "masses": [{"a": 1.0, "c": c}]}
    with pytest.raises(DomainError):
        M.measure_from_json(json.dumps(doc))


def _merge_by_loop(nu):
    # the loop merge_duplicate_centers once ran: sum in sorted center order
    order = np.lexsort(nu.centers.T[::-1])
    keep_centers, keep_masses = [], []
    for c, a in zip(nu.centers[order], nu.masses[order]):
        if keep_centers and np.array_equal(c, keep_centers[-1]):
            keep_masses[-1] = keep_masses[-1] + a
        else:
            keep_centers.append(c)
            keep_masses.append(a)
    return np.array(keep_masses), np.array(keep_centers)


def test_merge_duplicate_centers_matches_loop():
    gen = np.random.default_rng(19)
    # four copies of one centre and a -0.0/0.0 pair, which compare equal
    centers = np.array([[0.5, 1.0], [-0.0, 2.0], [0.5, 1.0], [0.25, 0.0],
                        [0.0, 2.0], [0.5, 1.0], [0.5, 1.0]])
    cases = [centers]
    for _ in range(20):
        count = int(gen.integers(1, 40))
        grid = gen.integers(-2, 3, size=(count, 3)) / 4.0
        cases.append(np.where(gen.random((count, 3)) < 0.3, -grid, grid))
    for c in cases:
        nu = M.PointMassMeasure(c.shape[1], gen.random(len(c)) * math.pi + 0.1, c)
        masses, kept = _merge_by_loop(nu)
        merged = M.merge_duplicate_centers(nu)
        # bit for bit, signed zeros included
        assert merged.masses.tobytes() == masses.tobytes()
        assert merged.centers.tobytes() == kept.tobytes()
    assert M.merge_duplicate_centers(
        M.PointMassMeasure(2, np.ones(len(centers)), centers)
    ).centers.tolist() == [[-0.0, 2.0], [0.25, 0.0], [0.5, 1.0]]


def test_merge_duplicate_centers():
    nu = M.PointMassMeasure(
        n=2,
        masses=np.array([1.0, 2.0, 0.5, 0.25]),
        centers=np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
    )
    merged = M.merge_duplicate_centers(nu)
    assert merged.count == 2
    assert M.total_variation(merged) == M.total_variation(nu)
    order = np.lexsort(merged.centers.T[::-1])
    assert np.array_equal(order, np.arange(2))
    lookup = {tuple(c): a for a, c in zip(merged.masses, merged.centers)}
    assert lookup[(0.0, 0.0)] == 2.25
    assert lookup[(1.0, 0.0)] == 1.5
    # already-clean measures pass through with the same content
    again = M.merge_duplicate_centers(merged)
    assert np.array_equal(again.masses, merged.masses)
    assert np.array_equal(again.centers, merged.centers)
