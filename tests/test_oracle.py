import numpy as np
import pytest

from clipverify import (
    AffineLayer,
    BoxDomain,
    BudgetError,
    CanonicalProblem,
    ConstraintSet,
    NetworkModel,
    PropertySpec,
    canonicalize,
    count_unstable,
    enumerate_pattern_regions,
    exact_verify,
    lp_box_oracle,
    sample_attack,
)

from conftest import random_box


def test_lp_unconstrained_is_corner_minimum():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        box = random_box(rng, n)
        a, c = rng.normal(size=n), float(rng.normal())
        res = lp_box_oracle(a, c, box)
        brute = np.where(a > 0, box.lower, box.upper) @ a + c
        assert abs(res.value - brute) < 1e-9
        assert res.witness is not None
        assert box.contains(res.witness, tol=1e-9)


def test_lp_direction_max():
    box = BoxDomain(np.zeros(2), np.ones(2))
    res = lp_box_oracle(np.array([1.0, 2.0]), 0.0, box, direction="max")
    assert abs(res.value - 3.0) < 1e-12


def test_lp_constrained_matches_dense_sampling():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        box = random_box(rng, n, 0.1, 1.5)
        a, c = rng.normal(size=n), float(rng.normal())
        G = rng.normal(size=(m, n))
        h = rng.normal(size=m)
        res = lp_box_oracle(a, c, box, (G, h))
        pts = rng.uniform(box.lower, box.upper, size=(3000, n))
        feas = np.all(pts @ G.T + h <= 0.0, axis=1)
        if not feas.any():
            continue
        emp = float((pts[feas] @ a + c).min())
        assert res.status == "optimal"
        assert res.value <= emp + 1e-7
        # the witness itself must be feasible
        assert np.all(res.witness @ G.T + h <= 1e-7)
        checked += 1
    assert checked > 60


def test_lp_infeasible_detection():
    box = BoxDomain(np.zeros(2), np.ones(2))
    res = lp_box_oracle(
        np.ones(2), 0.0, box, (np.array([[1.0, 1.0]]), np.array([1.0]))
    )
    assert res.status == "infeasible"
    assert res.value == np.inf
    res = lp_box_oracle(
        np.ones(2), 0.0, box, (np.array([[1.0, 1.0]]), np.array([1.0])), direction="max"
    )
    assert res.value == -np.inf


def test_lp_budgets_enforced():
    with pytest.raises(BudgetError):
        lp_box_oracle(np.ones(11), 0.0, BoxDomain(np.zeros(11), np.ones(11)))
    box = BoxDomain(np.zeros(2), np.ones(2))
    with pytest.raises(BudgetError):
        lp_box_oracle(np.ones(2), 0.0, box, (np.zeros((7, 2)), np.zeros(7)))


def test_lp_accepts_constraint_set_object():
    box = BoxDomain(np.zeros(2), np.ones(2))
    cs = ConstraintSet(np.array([[0.0, 1.0]]), np.array([-0.5]))
    res = lp_box_oracle(np.array([0.0, -1.0]), 0.0, box, cs)
    assert abs(res.value - (-0.5)) < 1e-9


def test_pattern_regions_cover_toy(problem):
    regions = list(enumerate_pattern_regions(problem))
    assert len(regions) == 3
    rng = np.random.default_rng(9)
    pts = rng.uniform(problem.box.lower, problem.box.upper, size=(500, 2))
    covered = np.zeros(len(pts), dtype=bool)
    for reg in regions:
        inside = np.all(pts @ reg.normals.T + reg.offsets <= 1e-9, axis=1)
        # on its cell the region's affine map equals the network
        vals = pts[inside] @ reg.row_weights.T + reg.row_bias
        np.testing.assert_allclose(
            vals, problem.model.evaluate(pts[inside]), atol=1e-9
        )
        covered |= inside
    assert covered.all()


def test_pattern_region_assignments_recorded(problem):
    regions = list(enumerate_pattern_regions(problem))
    patterns = {tuple(sorted(r.assignments.items())) for r in regions}
    assert len(patterns) == 3
    for reg in regions:
        for (li, j), sign in reg.assignments.items():
            assert li == 0 and j in (0, 1) and sign in (-1, 1)


def test_forced_pattern_restricts_enumeration(problem):
    regions = list(enumerate_pattern_regions(problem, forced={(0, 0): -1}))
    assert all(r.assignments.get((0, 0)) == -1 for r in regions)


def test_count_unstable_toy(problem):
    assert count_unstable(problem, problem.box) == 2
    assert count_unstable(problem, problem.box, forced={(0, 1): 1}) == 1


def test_exact_verify_toy(problem):
    res = exact_verify(problem)
    assert abs(res.min_value - (-1.0)) < 1e-12
    np.testing.assert_allclose(res.witness, [2.0, 1.0], atol=1e-9)
    assert res.patterns == 3


def test_exact_verify_toy_forced_branch(problem):
    res = exact_verify(problem, forced={(0, 0): -1})
    assert abs(res.min_value) < 1e-12


def test_exact_verify_matches_dense_sampling():
    from conftest import random_network_problem

    rng = np.random.default_rng(15)
    for _ in range(25):
        prob = random_network_problem(rng)
        res = exact_verify(prob)
        worst, _ = sample_attack(prob, count=4000, seed=1)
        assert res.min_value <= worst + 1e-9
        if res.witness is not None:
            assert abs(prob.value(res.witness) - res.min_value) < 1e-7


def test_exact_verify_budgets():
    rng = np.random.default_rng(1)
    net = NetworkModel(
        [
            AffineLayer(rng.normal(size=(4, 7)), np.zeros(4)),
            AffineLayer(rng.normal(size=(1, 4)), np.zeros(1)),
        ]
    )
    box = BoxDomain(-np.ones(7), np.ones(7))
    with pytest.raises(BudgetError):
        exact_verify(CanonicalProblem(net, box, 1))


def test_sample_attack_includes_center(problem):
    val, pt = sample_attack(problem, count=0, seed=0)
    np.testing.assert_allclose(pt, problem.box.center)
    assert abs(val - problem.value(problem.box.center)) < 1e-12


def test_sample_attack_finds_toy_counterexample(problem):
    val, pt = sample_attack(problem, count=500, seed=0)
    assert val < 0.0
    # batched vs single-point evaluation may differ by a few ulps
    assert abs(problem.value(pt) - val) < 1e-12


def test_sample_attack_draws_what_uniform_draws():
    # reference: the center stacked on rng.uniform's draw, evaluated at once
    rng = np.random.default_rng(11)
    for seed in range(40):
        n = int(rng.integers(1, 5))
        box = random_box(rng, n)
        layers = [AffineLayer(rng.normal(size=(5, n)), rng.normal(size=5)),
                  AffineLayer(rng.normal(size=(2, 5)), rng.normal(size=2))]
        problem = CanonicalProblem(NetworkModel(layers), box, 2)
        count = int(rng.integers(0, 300))
        pts = np.vstack([
            box.center[None, :],
            np.random.default_rng(seed).uniform(box.lower, box.upper, size=(count, n)),
        ])
        vals = problem.model.evaluate(pts).min(axis=1)
        j = int(np.argmin(vals))
        val, pt = sample_attack(problem, count=count, seed=seed)
        assert val == vals[j]
        np.testing.assert_array_equal(pt, pts[j])


def test_sample_attack_on_a_negative_zero_corner():
    # a property box can carry the coordinate interval [0.0, -0.0]
    model = NetworkModel([AffineLayer(np.array([[1.0, 1.0]]), np.array([0.0]))])
    prop = PropertySpec([0.0, 0.0], [1.0, -0.0], [[1.0]], [0.0])
    val, pt = sample_attack(canonicalize(model, prop), count=50, seed=0)
    assert val >= 0.0
    assert pt[1] == 0.0
