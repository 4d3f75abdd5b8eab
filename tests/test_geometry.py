import numpy as np
import pytest

from clipverify import (
    BoxDomain,
    EmptyBoxError,
    FeasibilityStatus,
    LinearConstraint,
    classify_constraint,
    concretize,
)
from clipverify.geometry import box_range

from conftest import random_box


def test_box_basic_properties():
    box = BoxDomain(np.array([-1.0, 0.0]), np.array([3.0, 2.0]))
    assert box.dim == 2
    assert not box.is_empty
    np.testing.assert_allclose(box.center, [1.0, 1.0])
    np.testing.assert_allclose(box.radius, [2.0, 1.0])
    assert box.contains(np.array([0.0, 0.5]))
    assert not box.contains(np.array([0.0, 2.5]))


def test_inverted_bounds_mean_empty():
    # inverted bounds are a legal value: clipping emits them for infeasibility
    box = BoxDomain(np.array([1.0]), np.array([0.0]))
    assert box.is_empty
    with pytest.raises(EmptyBoxError):
        concretize(np.array([1.0]), 0.0, box, "lower")


def test_box_rejects_nonfinite():
    with pytest.raises(ValueError):
        BoxDomain(np.array([np.nan]), np.array([1.0]))


def test_empty_box_sentinel():
    box = BoxDomain.empty(3)
    assert box.is_empty
    assert box.dim == 3


def test_box_copy_is_independent():
    box = BoxDomain(np.zeros(2), np.ones(2))
    other = box.copy()
    other.lower[0] = -5.0
    assert box.lower[0] == 0.0


def test_concretize_matches_corner_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        box = random_box(rng, n)
        a = rng.normal(size=n)
        c = float(rng.normal())
        corners = box.lower + (
            ((np.arange(2**n)[:, None] >> np.arange(n)) & 1) * (box.upper - box.lower)
        )
        vals = corners @ a + c
        assert abs(concretize(a, c, box, "min") - vals.min()) < 1e-10
        assert abs(concretize(a, c, box, "max") - vals.max()) < 1e-10
    # box_range on stacked (B, r, n) rows: each row's range over its own box
    for _ in range(20):
        n, b, r = (int(v) for v in rng.integers(1, 5, size=3))
        boxes = [random_box(rng, n) for _ in range(b)]
        a = rng.normal(size=(b, r, n))
        c = rng.normal(size=(b, r))
        mid, span = box_range(
            a, c, np.array([bx.center for bx in boxes]), np.array([bx.radius for bx in boxes])
        )
        assert mid.shape == span.shape == (b, r)
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        for k, bx in enumerate(boxes):
            vals = (bx.lower + bits * (bx.upper - bx.lower)) @ a[k].T + c[k]
            np.testing.assert_allclose(mid[k] - span[k], vals.min(axis=0), rtol=0, atol=1e-10)
            np.testing.assert_allclose(mid[k] + span[k], vals.max(axis=0), rtol=0, atol=1e-10)


def test_concretize_stacked_rows():
    box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    A = np.array([[1.0, 0.0], [1.0, 1.0]])
    c = np.array([0.0, 5.0])
    lows = concretize(A, c, box, "min")
    np.testing.assert_allclose(lows, [-1.0, 3.0])


def test_concretize_rejects_empty_box():
    with pytest.raises(EmptyBoxError):
        concretize(np.ones(2), 0.0, BoxDomain.empty(2), "min")


def test_classify_constraint_three_ways():
    box = BoxDomain(np.zeros(2), np.ones(2))
    # min over box is 1 > 0: no feasible point
    assert (
        classify_constraint(box, LinearConstraint(np.array([1.0, 1.0]), 1.0))
        is FeasibilityStatus.INFEASIBLE
    )
    # max over box is 2 - 3 < 0: satisfied everywhere
    assert (
        classify_constraint(box, LinearConstraint(np.array([1.0, 1.0]), -3.0))
        is FeasibilityStatus.REDUNDANT
    )
    assert (
        classify_constraint(box, LinearConstraint(np.array([1.0, -1.0]), 0.0))
        is FeasibilityStatus.ACTIVE
    )


def test_classify_boundary_is_redundant():
    # max g.x + h == 0 exactly: every box point satisfies the constraint
    box = BoxDomain(np.zeros(1), np.ones(1))
    cons = LinearConstraint(np.array([1.0]), -1.0)
    assert classify_constraint(box, cons) is FeasibilityStatus.REDUNDANT

