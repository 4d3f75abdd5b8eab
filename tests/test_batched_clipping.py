"""Property tests: the batched clipping paths against their one-row references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clipverify import (
    BoxDomain,
    ConstraintSet,
    DualStatus,
    active_rows,
    coordinate_ascent,
    dual_ascent,
    relaxed_clip_parallel,
    relaxed_clip_single,
)
from clipverify.geometry import ZERO_COEFF_TOL

# Quarter-step grid values: exact ties between kinks and between rows are
# common, which is where a row-wise sort could go wrong.
GRID = st.integers(-8, 8).map(lambda v: v / 4.0)
# Grid values plus magnitudes under ZERO_COEFF_TOL.
COEFF = st.one_of(GRID, st.sampled_from([1e-16, -1e-16, 0.5 * ZERO_COEFF_TOL]))


@st.composite
def boxes(draw, n):
    center = np.array(draw(st.lists(GRID, min_size=n, max_size=n)))
    # Zero half-widths give zero-width dimensions.
    radius = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                                    min_size=n, max_size=n)))
    return BoxDomain(center - radius, center + radius)


def _box_extremes(box, g):
    mid = float(g @ box.center)
    span = float(np.abs(g) @ box.radius)
    return mid - span, mid + span


@st.composite
def constraint_sets(draw, box, m, coeff=GRID):
    """m rows mixing random, duplicate, all-zero, redundant and (at most one)
    infeasible half-spaces."""
    n = box.dim
    normals = np.zeros((m, n))
    offsets = np.zeros(m)
    infeasible_used = False
    for k in range(m):
        kind = draw(st.sampled_from(
            ["random", "random", "random", "duplicate", "zero", "redundant", "infeasible"]))
        g = np.array(draw(st.lists(coeff, min_size=n, max_size=n)))
        h = draw(GRID)
        lo, hi = _box_extremes(box, g)
        if kind == "duplicate" and k > 0:
            j = draw(st.integers(0, k - 1))
            g, h = normals[j], offsets[j]
        elif kind == "zero":
            g, h = np.zeros(n), -abs(h)
        elif kind == "redundant":
            h = -hi - draw(st.sampled_from([0.0, 0.5]))
        elif kind == "infeasible" and not infeasible_used:
            infeasible_used = True
            h = -lo + 0.5
        normals[k], offsets[k] = g, h
    return ConstraintSet(normals, offsets)


@st.composite
def dual_cases(draw):
    n = draw(st.integers(1, 5))
    box = draw(boxes(n))
    m = draw(st.sampled_from([0, 1, 4, 16]))
    cset = draw(constraint_sets(box, m))
    k = draw(st.integers(1, 6))
    objs = np.array(draw(st.lists(st.lists(GRID, min_size=n, max_size=n),
                                  min_size=k, max_size=k)))
    if k > 1 and draw(st.booleans()):
        objs[-1] = objs[0]  # duplicate objective rows
    consts = np.array(draw(st.lists(GRID, min_size=k, max_size=k)))
    passes = draw(st.integers(1, 2))
    return objs, consts, box, cset, passes


@settings(max_examples=200, deadline=None)
@given(dual_cases())
def test_batched_ascent_matches_per_row_ascent(case):
    objs, consts, box, cset, passes = case
    active = active_rows(box, cset)
    sols = [coordinate_ascent(a, c, box, cset, passes) for a, c in zip(objs, consts)]
    if active is None:
        assert all(sol.status is DualStatus.INFEASIBLE_PRIMAL for sol in sols)
        return
    trace = []
    bounds, beta = dual_ascent(objs, consts, box, cset, active, passes, trace)
    assert bounds.shape == (objs.shape[0],) and beta.shape == (objs.shape[0], cset.size)
    np.testing.assert_array_equal(trace[-1], bounds)
    for r, sol in enumerate(sols):
        assert sol.status is DualStatus.OPTIMAL
        assert abs(bounds[r] - sol.bound) <= 1e-12
        np.testing.assert_allclose(beta[r], sol.beta, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose([t[r] for t in trace], sol.trace, rtol=0.0, atol=1e-12)
        # redundant rows keep multiplier zero
        idle = np.setdiff1d(np.arange(cset.size), active)
        assert np.all(beta[r, idle] == 0.0)


@st.composite
def clip_cases(draw):
    n = draw(st.integers(1, 5))
    box = draw(boxes(n))
    m = draw(st.sampled_from([0, 1, 4, 16]))
    return box, draw(constraint_sets(box, m, COEFF))


@settings(max_examples=200, deadline=None)
@given(clip_cases())
def test_parallel_clip_equals_intersection_of_singles(case):
    box, cset = case
    par = relaxed_clip_parallel(box, cset)
    lower, upper = box.lower.copy(), box.upper.copy()
    empty = False
    for k in range(cset.size):
        single = relaxed_clip_single(box, cset.row(k))
        if single.is_empty:
            empty = True
            break
        lower = np.maximum(lower, single.lower)
        upper = np.minimum(upper, single.upper)
    if empty or np.any(lower > upper):
        assert par.is_empty
        return
    assert not par.is_empty
    np.testing.assert_allclose(par.lower, lower, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(par.upper, upper, rtol=0.0, atol=1e-12)
    # coordinates with only sub-tolerance coefficients stay untouched
    idle = np.all(np.abs(cset.normals) < ZERO_COEFF_TOL, axis=0)
    assert np.all(par.lower[idle] == box.lower[idle])
    assert np.all(par.upper[idle] == box.upper[idle])


def test_active_rows_flags_infeasible_and_skips_redundant():
    box = BoxDomain(np.zeros(2), np.ones(2))
    cset = ConstraintSet(
        np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]), np.array([-10.0, 0.0, -1.0])
    )
    np.testing.assert_array_equal(active_rows(box, cset), [1])
    infeasible = ConstraintSet(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert active_rows(box, infeasible) is None
