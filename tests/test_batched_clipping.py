"""Property tests: the batched clipping paths against their one-row and
one-domain references."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clipverify import (
    BoxDomain,
    ConstraintSet,
    DualStatus,
    active_rows,
    centroid_distance,
    coordinate_ascent,
    dual_ascent,
    dual_ascent_batch,
    relaxed_clip_parallel,
    relaxed_clip_sequential,
    relaxed_clip_single,
    screen_rows,
    stack_constraints,
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
def domain_batches(draw):
    """B domains over one dimension, each with its own box, 0-16 constraint
    rows (so stacking pads) and K objectives."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    domains = []
    for _ in range(draw(st.sampled_from([1, 3, 8]))):
        box = draw(boxes(n))
        cset = draw(constraint_sets(box, draw(st.integers(0, 16))))
        objs = np.array(draw(st.lists(st.lists(GRID, min_size=n, max_size=n),
                                      min_size=k, max_size=k)))
        consts = np.array(draw(st.lists(GRID, min_size=k, max_size=k)))
        domains.append((box, cset, objs, consts))
    return domains, draw(st.integers(1, 2))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(domain_batches())
def test_batched_ascent_matches_per_domain_ascent(case):
    domains, passes = case
    normals, offsets = stack_constraints([cset for _, cset, _, _ in domains])
    centers = np.array([box.center for box, _, _, _ in domains])
    radii = np.array([box.radius for box, _, _, _ in domains])
    feasible, active = screen_rows(centers, radii, normals, offsets)
    for b, (box, cset, _, _) in enumerate(domains):
        rows = active_rows(box, cset)
        assert feasible[b] == (rows is not None)
        assert not active[b, cset.size :].any()  # padding
        if rows is not None:
            np.testing.assert_array_equal(np.flatnonzero(active[b]), rows)
    ok = np.flatnonzero(feasible)
    if ok.size == 0:
        return
    objs = np.array([domains[b][2] for b in ok])
    consts = np.array([domains[b][3] for b in ok])
    bounds, beta = dual_ascent_batch(objs, consts, centers[ok], radii[ok], normals[ok],
                                     offsets[ok], active[ok], passes)
    for j, b in enumerate(ok):
        box, cset, a, c = domains[b]
        want, want_beta = dual_ascent(a, c, box, cset, active_rows(box, cset), passes)
        np.testing.assert_allclose(bounds[j], want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(beta[j, :, : cset.size], want_beta, rtol=0.0, atol=1e-12)
        assert np.all(beta[j, :, cset.size :] == 0.0)


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


def _sequential_reference(box, cset, order):
    """The chain of single-constraint clips that relaxed_clip_sequential
    replaces, with rows ordered as it orders them."""
    indices = range(cset.size)
    if order == "centroid":
        dists = [
            np.inf if np.abs(row.normal).max() <= ZERO_COEFF_TOL else centroid_distance(box, row)
            for row in cset
        ]
        indices = np.argsort(dists, kind="stable")
    current = box.copy()
    for k in indices:
        current = relaxed_clip_single(current, cset.row(k))
        if current.is_empty:
            return BoxDomain.empty(box.dim)
    return current


@settings(max_examples=200, deadline=None)
@given(clip_cases(), st.sampled_from(["given", "centroid"]))
def test_sequential_clip_equals_chain_of_singles_bitwise(case, order):
    box, cset = case
    got = relaxed_clip_sequential(box, cset, order)
    want = _sequential_reference(box, cset, order)
    assert got.is_empty == want.is_empty
    assert got.lower.tobytes() == want.lower.tobytes()
    assert got.upper.tobytes() == want.upper.tobytes()
