import numpy as np
import pytest

from clipverify import (
    BoxDomain,
    ConstraintSet,
    DualStatus,
    LinearConstraint,
    concretize,
    coordinate_ascent,
    dual_value,
    greedy_knapsack,
    lp_box_oracle,
    relaxed_clip_parallel,
    relaxed_clip_sequential,
    relaxed_clip_single,
    tighten_lower_single,
    tighten_upper_single,
    to_knapsack,
)

from conftest import random_box, toy_box, toy_constraint


def test_constraint_set_construction():
    cs = ConstraintSet.empty(3)
    assert cs.size == 0 and cs.dim == 3
    cs = cs.appended(LinearConstraint(np.array([1.0, 0.0, 0.0]), -1.0))
    assert cs.size == 1
    row = cs.row(0)
    assert row.offset == -1.0


def test_constraint_set_budget_keeps_most_recent():
    cs = ConstraintSet.empty(1)
    for k in range(5):
        cs = cs.appended(LinearConstraint(np.array([1.0]), float(k)), budget=3)
    assert cs.size == 3
    np.testing.assert_allclose(cs.offsets, [2.0, 3.0, 4.0])


def test_constraint_set_satisfied():
    cs = ConstraintSet(np.array([[1.0, 0.0]]), np.array([-1.0]))
    assert cs.satisfied(np.array([0.5, 9.0]))
    assert not cs.satisfied(np.array([1.5, 0.0]))


def test_dual_value_at_zero_is_plain_bound():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        box = random_box(rng, n)
        a, c = rng.normal(size=n), float(rng.normal())
        cs = ConstraintSet(rng.normal(size=(3, n)), rng.normal(size=3))
        v0 = dual_value(a, c, box, cs, np.zeros(3))
        assert abs(v0 - concretize(a, c, box, "min")) < 1e-10


def test_dual_value_is_lower_bound_on_feasible_points():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        box = random_box(rng, n)
        a, c = rng.normal(size=n), float(rng.normal())
        cs = ConstraintSet(rng.normal(size=(2, n)), rng.normal(size=2))
        beta = rng.uniform(0.0, 3.0, size=2)
        dv = dual_value(a, c, box, cs, beta)
        pts = rng.uniform(box.lower, box.upper, size=(500, n))
        feas = np.all(pts @ cs.normals.T + cs.offsets <= 0.0, axis=1)
        if feas.any():
            assert dv <= float((pts[feas] @ a + c).min()) + 1e-9


def test_single_constraint_golden_case():
    box = toy_box()
    cons = toy_constraint()
    sol = tighten_upper_single(np.array([5.0, -1.0]), -7.0, box, cons)
    assert sol.status is DualStatus.OPTIMAL
    assert abs(sol.bound - (-3.0)) < 1e-12
    assert abs(sol.beta - 5.0) < 1e-12
    sol2 = tighten_upper_single(np.array([1.0, -7.0]), 6.0, box, cons)
    assert abs(sol2.bound - 0.0) < 1e-12
    assert abs(sol2.beta - 1.0) < 1e-12


def test_single_redundant_returns_plain_bound():
    box = BoxDomain(np.zeros(2), np.ones(2))
    cons = LinearConstraint(np.array([1.0, 1.0]), -5.0)  # always satisfied
    a, c = np.array([1.0, -1.0]), 0.25
    sol = tighten_lower_single(a, c, box, cons)
    assert sol.beta == 0.0
    assert abs(sol.bound - concretize(a, c, box, "min")) < 1e-12


def test_single_infeasible_flags_primal():
    box = BoxDomain(np.zeros(2), np.ones(2))
    cons = LinearConstraint(np.array([1.0, 1.0]), 1.0)  # unsatisfiable on box
    sol = tighten_lower_single(np.ones(2), 0.0, box, cons)
    assert sol.status is DualStatus.INFEASIBLE_PRIMAL
    assert np.isinf(sol.bound) and sol.bound > 0


def test_single_never_below_plain_bound():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        box = random_box(rng, n)
        a, c = rng.normal(size=n), float(rng.normal())
        cons = LinearConstraint(rng.normal(size=n), float(rng.normal()))
        sol = tighten_lower_single(a, c, box, cons)
        assert sol.bound >= concretize(a, c, box, "min") - 1e-10


def test_upper_mirrors_lower():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        box = random_box(rng, n)
        a, c = rng.normal(size=n), float(rng.normal())
        cons = LinearConstraint(rng.normal(size=n), float(rng.normal()))
        up = tighten_upper_single(a, c, box, cons)
        lo = tighten_lower_single(-a, -c, box, cons)
        if np.isinf(up.bound):
            assert np.isinf(lo.bound)
            continue
        assert abs(up.bound + lo.bound) < 1e-10


def test_knapsack_transform_shapes():
    box = toy_box()
    inst = to_knapsack(np.array([-5.0, 1.0]), 7.0, box, toy_constraint())
    np.testing.assert_allclose(inst.gains, [15.0, -3.0])
    np.testing.assert_allclose(inst.loads, [3.0, -21.0])
    assert abs(inst.capacity - (-19.0)) < 1e-12


def test_knapsack_greedy_infeasible_returns_minus_inf():
    from clipverify import KnapsackInstance

    # every item has zero load but capacity is negative: nothing can relieve it
    inst = KnapsackInstance(np.array([1.0]), np.array([0.0]), -1.0)
    assert greedy_knapsack(inst) == -np.inf


def test_coordinate_ascent_trace_monotone():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        box = random_box(rng, n)
        a, c = rng.normal(size=n), float(rng.normal())
        cs = ConstraintSet(rng.normal(size=(m, n)), rng.normal(size=m))
        sol = coordinate_ascent(a, c, box, cs, passes=3)
        if np.isinf(sol.bound):
            continue
        trace = np.asarray(sol.trace)
        assert np.all(np.diff(trace) >= -1e-9)
        assert abs(trace[-1] - sol.bound) < 1e-12


def test_coordinate_ascent_redundant_rows_left_alone():
    box = BoxDomain(np.zeros(2), np.ones(2))
    cs = ConstraintSet(
        np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([-10.0, 0.0])
    )  # row 0 redundant
    sol = coordinate_ascent(np.array([1.0, -2.0]), 0.0, box, cs, passes=2)
    beta = np.asarray(sol.beta)
    assert beta[0] == 0.0


def test_coordinate_ascent_infeasible_row_short_circuits():
    box = BoxDomain(np.zeros(2), np.ones(2))
    cs = ConstraintSet(np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
    sol = coordinate_ascent(np.ones(2), 0.0, box, cs)
    assert sol.status is DualStatus.INFEASIBLE_PRIMAL
    assert np.isinf(sol.bound)


def test_relaxed_clip_single_golden():
    clipped = relaxed_clip_single(toy_box(), toy_constraint())
    np.testing.assert_allclose(clipped.lower, [-1.0, 5.0 / 7.0], atol=1e-12)
    np.testing.assert_allclose(clipped.upper, [1.0, 1.0], atol=1e-12)


def test_relaxed_clip_infeasible_gives_empty():
    box = BoxDomain(np.zeros(2), np.ones(2))
    out = relaxed_clip_single(box, LinearConstraint(np.array([1.0, 1.0]), -0.5))
    assert not out.is_empty  # feasible: e.g. the origin
    out = relaxed_clip_single(box, LinearConstraint(np.array([1.0, 1.0]), 0.5))
    assert out.is_empty  # needs x1 + x2 <= -0.5, impossible on [0,1]^2


def test_relaxed_clip_redundant_is_noop():
    box = BoxDomain(np.zeros(2), np.ones(2))
    out = relaxed_clip_single(box, LinearConstraint(np.array([1.0, 1.0]), -5.0))
    np.testing.assert_allclose(out.lower, box.lower)
    np.testing.assert_allclose(out.upper, box.upper)


def test_relaxed_clip_zero_coefficient_dim_unchanged():
    box = BoxDomain(np.zeros(2), np.ones(2))
    out = relaxed_clip_single(box, LinearConstraint(np.array([0.0, 1.0]), -0.5))
    assert out.lower[0] == 0.0 and out.upper[0] == 1.0
    assert abs(out.upper[1] - 0.5) < 1e-12


def test_relaxed_clip_keeps_feasible_points():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        box = random_box(rng, n)
        cons = LinearConstraint(rng.normal(size=n), float(rng.normal()))
        out = relaxed_clip_single(box, cons)
        pts = rng.uniform(box.lower, box.upper, size=(300, n))
        feas = pts[pts @ cons.normal + cons.offset <= 0.0]
        if feas.size == 0:
            continue
        assert not out.is_empty
        assert np.all(feas >= out.lower - 1e-9)
        assert np.all(feas <= out.upper + 1e-9)


def test_parallel_is_intersection_of_singles():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        box = random_box(rng, n)
        cs = ConstraintSet(rng.normal(size=(m, n)), rng.normal(size=m))
        par = relaxed_clip_parallel(box, cs)
        lo, hi = box.lower.copy(), box.upper.copy()
        for k in range(m):
            single = relaxed_clip_single(box, cs.row(k))
            if single.is_empty:
                lo, hi = None, None
                break
            lo = np.maximum(lo, single.lower)
            hi = np.minimum(hi, single.upper)
        if lo is None or np.any(lo > hi):
            assert par.is_empty
        else:
            assert not par.is_empty
            np.testing.assert_allclose(par.lower, lo, atol=1e-12)
            np.testing.assert_allclose(par.upper, hi, atol=1e-12)


def test_sequential_never_looser_than_parallel():
    rng = np.random.default_rng(43)
    for _ in range(150):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        box = random_box(rng, n)
        cs = ConstraintSet(rng.normal(size=(m, n)), rng.normal(size=m))
        par = relaxed_clip_parallel(box, cs)
        seq = relaxed_clip_sequential(box, cs)
        if par.is_empty or seq.is_empty:
            continue
        assert np.all(seq.lower >= par.lower - 1e-9)
        assert np.all(seq.upper <= par.upper + 1e-9)


def test_sequential_keeps_feasible_points():
    rng = np.random.default_rng(47)
    for order in ("given", "centroid"):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            box = random_box(rng, n)
            cs = ConstraintSet(rng.normal(size=(m, n)), rng.normal(size=m))
            seq = relaxed_clip_sequential(box, cs, order)
            pts = rng.uniform(box.lower, box.upper, size=(400, n))
            feas = pts[np.all(pts @ cs.normals.T + cs.offsets <= 0.0, axis=1)]
            if feas.size == 0:
                continue
            assert not seq.is_empty
            assert np.all(feas >= seq.lower - 1e-9)
            assert np.all(feas <= seq.upper + 1e-9)


def test_sequential_rejects_unknown_order():
    box = BoxDomain(np.zeros(1), np.ones(1))
    cs = ConstraintSet(np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        relaxed_clip_sequential(box, cs, "alphabetical")


def test_clip_of_empty_box_passes_through():
    empty = BoxDomain.empty(2)
    out = relaxed_clip_single(empty, LinearConstraint(np.ones(2), 0.0))
    assert out.is_empty


def test_tighten_beats_oracle_never():
    # the dual bound must never exceed the true constrained minimum
    rng = np.random.default_rng(53)
    for _ in range(150):
        n = int(rng.integers(1, 6))
        box = random_box(rng, n)
        a, c = rng.normal(size=n), float(rng.normal())
        cons = LinearConstraint(rng.normal(size=n), float(rng.normal()))
        sol = tighten_lower_single(a, c, box, cons)
        ora = lp_box_oracle(a, c, box, (cons.normal[None, :], np.array([cons.offset])))
        if ora.status == "infeasible":
            assert np.isinf(sol.bound)
        else:
            assert sol.bound <= ora.value + 1e-9
