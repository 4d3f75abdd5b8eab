"""Property tests: the batched clipping paths against their one-row and
one-domain references, and against the exact LP over box and constraints."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clipverify import (
    BoxDomain,
    ConstraintSet,
    DualStatus,
    coordinate_ascent,
    dual_ascent_batch,
    lp_box_oracle,
    relaxed_clip_batch,
    relaxed_clip_parallel,
    relaxed_clip_sequential,
    relaxed_clip_single,
    screen_rows,
)
from clipverify.clipping import relaxed_clip_sequential_batch
from clipverify.geometry import ZERO_COEFF_TOL
from conftest import stack_constraints

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


def _screen_one(box, cset):
    """:func:`screen_rows` for one box and its own, unpadded set."""
    return screen_rows(box.center[None], box.radius[None], cset.normals[None], cset.offsets[None])


def _box_extremes(box, g):
    mid = float(g @ box.center)
    span = float(np.abs(g) @ box.radius)
    return mid - span, mid + span


@st.composite
def constraint_sets(draw, box, m, coeff=GRID, excluding=False):
    """m rows mixing random, duplicate, all-zero, redundant and (at most one)
    infeasible half-spaces.  With ``excluding``, all-zero rows may also have
    a positive offset (``0 . x + h <= 0``, h > 0), which excludes every box."""
    n = box.dim
    normals = np.zeros((m, n))
    offsets = np.zeros(m)
    infeasible_used = False
    kinds = ["random", "random", "random", "duplicate", "zero", "redundant", "infeasible"]
    if excluding:
        kinds.append("excluding")
    for k in range(m):
        kind = draw(st.sampled_from(kinds))
        g = np.array(draw(st.lists(coeff, min_size=n, max_size=n)))
        h = draw(GRID)
        lo, hi = _box_extremes(box, g)
        if kind == "duplicate" and k > 0:
            j = draw(st.integers(0, k - 1))
            g, h = normals[j], offsets[j]
        elif kind == "zero":
            g, h = np.zeros(n), -abs(h)
        elif kind == "excluding":
            g, h = np.zeros(n), abs(h) + 0.25
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
    feasible, active = _screen_one(box, cset)
    sols = [coordinate_ascent(a, c, box, cset, passes) for a, c in zip(objs, consts)]
    if not feasible[0]:
        assert all(sol.status is DualStatus.INFEASIBLE_PRIMAL for sol in sols)
        return
    trace = []
    bounds, beta = dual_ascent_batch(
        objs[None], consts[None], box.center[None], box.radius[None], cset.normals[None],
        cset.offsets[None], active, passes, trace,
    )
    assert bounds.shape == (1, objs.shape[0]) and beta.shape == (1, objs.shape[0], cset.size)
    np.testing.assert_array_equal(trace[-1], bounds)
    for r, sol in enumerate(sols):
        assert sol.status is DualStatus.OPTIMAL
        assert abs(bounds[0, r] - sol.bound) <= 1e-12
        np.testing.assert_allclose(beta[0, r], sol.beta, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose([t[0, r] for t in trace], sol.trace, rtol=0.0, atol=1e-12)
        # redundant rows keep multiplier zero
        assert np.all(beta[0, r, ~active[0]] == 0.0)


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
        one_feasible, one_active = _screen_one(box, cset)
        assert feasible[b] == one_feasible[0]
        assert not active[b, cset.size :].any()  # padding
        if one_feasible[0]:
            np.testing.assert_array_equal(active[b, : cset.size], one_active[0])
    ok = np.flatnonzero(feasible)
    if ok.size == 0:
        return
    objs = np.array([domains[b][2] for b in ok])
    consts = np.array([domains[b][3] for b in ok])
    bounds, beta = dual_ascent_batch(objs, consts, centers[ok], radii[ok], normals[ok],
                                     offsets[ok], active[ok], passes)
    for j, b in enumerate(ok):
        box, cset, a, c = domains[b]
        want, want_beta = dual_ascent_batch(
            a[None], c[None], box.center[None], box.radius[None], cset.normals[None],
            cset.offsets[None], _screen_one(box, cset)[1], passes,
        )
        np.testing.assert_allclose(bounds[j], want[0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(beta[j, :, : cset.size], want_beta[0], rtol=0.0, atol=1e-12)
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


@st.composite
def lp_cases(draw):
    """A box with n <= 4 and m <= 6 rows (the budget of ``lp_box_oracle``),
    all-zero excluding rows among them, and K objectives."""
    n = draw(st.integers(1, 4))
    box = draw(boxes(n))
    cset = draw(constraint_sets(box, draw(st.integers(0, 6)), excluding=True))
    k = draw(st.integers(1, 3))
    objs = np.array(draw(st.lists(st.lists(GRID, min_size=n, max_size=n),
                                  min_size=k, max_size=k)))
    consts = np.array(draw(st.lists(GRID, min_size=k, max_size=k)))
    return box, cset, objs, consts, draw(st.integers(1, 2))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lp_cases())
def test_clipping_primitives_agree_with_exact_lp(case):
    # duplicate and all-zero rows, fed straight to the primitives: the
    # screen excludes only empty regions, dual bounds never exceed the LP
    # minimum, and a clipped box keeps every feasible point
    box, cset, objs, consts, passes = case
    infeasible = lp_box_oracle(np.zeros(box.dim), 0.0, box, cset).status == "infeasible"
    feasible, active = _screen_one(box, cset)
    if not feasible[0]:
        assert infeasible
    else:
        bounds, _ = dual_ascent_batch(objs[None], consts[None], box.center[None], box.radius[None],
                                      cset.normals[None], cset.offsets[None], active, passes)
        for a, c, bound in zip(objs, consts, bounds[0]):
            assert bound <= lp_box_oracle(a, c, box, cset).value + 1e-9
    lowers, uppers, empty = relaxed_clip_batch(box.lower[None], box.upper[None],
                                               cset.normals[None], cset.offsets[None])
    if empty[0]:
        assert infeasible
    if empty[0] or infeasible:
        return
    for i, e in enumerate(np.eye(box.dim)):
        assert lowers[0, i] <= lp_box_oracle(e, 0.0, box, cset, "min").value + 1e-9
        assert lp_box_oracle(e, 0.0, box, cset, "max").value <= uppers[0, i] + 1e-9


def test_active_rows_flags_infeasible_and_skips_redundant():
    box = BoxDomain(np.zeros(2), np.ones(2))
    cset = ConstraintSet(
        np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]), np.array([-10.0, 0.0, -1.0])
    )
    infeasible = ConstraintSet(np.array([[1.0, 1.0]]), np.array([1.0]))
    normals, offsets = stack_constraints([cset, infeasible])
    feasible, active = screen_rows(
        np.stack([box.center] * 2), np.stack([box.radius] * 2), normals, offsets
    )
    np.testing.assert_array_equal(feasible, [True, False])
    # only the row cutting through the box is active
    np.testing.assert_array_equal(active[0], [False, True, False])


def _sequential_reference(box, cset, order):
    """The chain of single-constraint clips that relaxed_clip_sequential
    replaces, with rows ordered as it orders them."""
    indices = range(cset.size)
    if order == "centroid":
        rows = [cset.row(k) for k in range(cset.size)]
        # distance from the box center to each row's plane
        dists = [
            np.inf
            if np.abs(row.normal).max() <= ZERO_COEFF_TOL
            else abs(float(row.normal @ box.center) + row.offset) / float(np.linalg.norm(row.normal))
            for row in rows
        ]
        indices = np.argsort(dists, kind="stable")
    current = box.copy()
    for k in indices:
        current = relaxed_clip_single(current, cset.row(k))
        if current.is_empty:
            return BoxDomain.empty(box.dim)
    return current


@st.composite
def clip_batches(draw):
    """D domains over one dimension, each with its own box and 0-16
    constraint rows, so stacking pads."""
    n = draw(st.integers(1, 5))
    domains = []
    for _ in range(draw(st.sampled_from([1, 3, 8]))):
        box = draw(boxes(n))
        domains.append((box, draw(constraint_sets(box, draw(st.sampled_from([0, 1, 4, 16])),
                                                  COEFF))))
    return domains


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(clip_batches(), st.sampled_from(["given", "centroid"]))
def test_sequential_clip_equals_chain_of_singles_bitwise(domains, order):
    normals, offsets = stack_constraints([cset for _, cset in domains])
    lowers, uppers, empty = relaxed_clip_sequential_batch(
        np.array([box.lower for box, _ in domains]), np.array([box.upper for box, _ in domains]),
        normals, offsets, order,
    )
    for b, (box, cset) in enumerate(domains):
        want = _sequential_reference(box, cset, order)
        one = relaxed_clip_sequential(box, cset, order)
        assert empty[b] == want.is_empty == one.is_empty
        assert one.lower.tobytes() == want.lower.tobytes()
        assert one.upper.tobytes() == want.upper.tobytes()
        if not want.is_empty:
            assert lowers[b].tobytes() == want.lower.tobytes()
            assert uppers[b].tobytes() == want.upper.tobytes()
