"""The batched screen of a round's children against the per-child screens.

``bab._screen_children`` relaxed-clips, plane-screens and falsifies all
children of a round together.  With the same seed it must give what the
per-child functions give one child at a time, in search order:
``relaxed_clip_parallel``, ``_quick_child_bound`` and ``_try_falsify``
(stopping at the first hit).  Networks, boxes and constraints sit on a
quarter-step grid, so ties are exact.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clipverify import (
    AffineLayer,
    BabConfig,
    BoxDomain,
    CanonicalProblem,
    ConstraintSet,
    NetworkModel,
    Subdomain,
    bab,
    branch_input,
    compute_bounds,
    relaxed_clip_parallel,
)

TOL = 1e-12


def _grid(rng, size, lo=-8, hi=8):
    return rng.integers(lo, hi + 1, size=size) / 4.0


def _problem(rng):
    """Quarter-grid ReLU net whose worst output at the box center is
    between -0.25 and 2, so some rounds are falsified and some are not."""
    n = int(rng.integers(1, 4))
    rows = int(rng.integers(1, 3))
    widths = [n, int(rng.integers(2, 6)), int(rng.integers(2, 6)), rows]
    layers = [
        AffineLayer(_grid(rng, (widths[i + 1], widths[i])), _grid(rng, widths[i + 1]))
        for i in range(3)
    ]
    center = _grid(rng, n)
    radius = rng.choice([0.5, 1.0, 2.0], size=n)
    shift = _grid(rng, rows, -1, 8) - NetworkModel(layers).evaluate(center)
    layers[-1] = AffineLayer(layers[-1].weights, layers[-1].bias + shift)
    box = BoxDomain(center - radius, center + radius)
    return CanonicalProblem(NetworkModel(layers), box, rows)


def _sub_box(rng, box):
    """Grid sub-box of ``box``; some dimensions have zero width."""
    steps = np.round((box.upper - box.lower) * 4).astype(int)
    a = rng.integers(0, steps + 1)
    b = rng.integers(0, steps + 1)
    flat = rng.uniform(size=box.dim) < 0.2
    b = np.where(flat, a, b)
    return BoxDomain(box.lower + np.minimum(a, b) / 4.0, box.lower + np.maximum(a, b) / 4.0)


def _constraints(rng, box):
    """0-4 grid rows: random, all-zero, redundant or infeasible."""
    m = int(rng.integers(0, 5))
    normals = _grid(rng, (m, box.dim))
    offsets = _grid(rng, m)
    for k in range(m):
        lo = float(normals[k] @ box.center - np.abs(normals[k]) @ box.radius)
        hi = float(normals[k] @ box.center + np.abs(normals[k]) @ box.radius)
        kind = rng.choice(["random", "random", "random", "zero", "redundant", "infeasible"])
        if kind == "zero":
            normals[k], offsets[k] = 0.0, -0.25
        elif kind == "redundant":
            offsets[k] = -hi
        elif kind == "infeasible":
            offsets[k] = -lo + 0.25
    return ConstraintSet(normals, offsets)


def _round(rng, problem):
    """``(parent, child)`` pairs of one round: each parent bisected, each
    child given its own constraints; some children are point boxes."""
    pairs = []
    for _ in range(int(rng.integers(1, 5))):
        box = _sub_box(rng, problem.box)
        if float(box.radius.max()) == 0.0:
            continue
        planes = compute_bounds(problem.model, box)
        bound = float(planes.final_lower.min()) - float(rng.choice([0.0, 0.5]))
        parent = Subdomain(box, {}, ConstraintSet.empty(box.dim), bound, planes=planes)
        lo_child, hi_child, _ = branch_input(parent)
        for child in (lo_child, hi_child):
            if rng.uniform() < 0.15:
                point = child.box.lower.copy()
                child.box = BoxDomain(point, point)
            child.constraints = _constraints(rng, child.box)
            pairs.append((parent, child))
    return pairs


def _one_at_a_time(problem, pairs, seed):
    """The per-child screens in search order, stopping at the first hit."""
    rng = np.random.default_rng(seed)
    survivors, floor = [], np.inf
    for parent, child in pairs:
        box = relaxed_clip_parallel(child.box, child.constraints)
        if box.is_empty:
            continue
        bound = max(parent.bound, bab._quick_child_bound(parent.planes.planes[-1], box))
        if bound >= 0.0:
            floor = min(floor, bound)
            continue
        hit = bab._try_falsify(problem, box, rng)
        if hit is not None:
            return survivors, floor, hit
        survivors.append((box, bound))
    return survivors, floor, None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_round_screen_matches_per_child_screens(seed):
    rng = np.random.default_rng(seed)
    problem = _problem(rng)
    pairs = _round(rng, problem)
    cfg = BabConfig(clip="both")
    rng = np.random.default_rng(seed)
    survivors, floor, hit = bab._screen_children(problem, cfg, pairs, rng)
    want_survivors, want_floor, want_hit = _one_at_a_time(problem, pairs, seed)
    if want_hit is not None:
        assert hit is not None
        assert abs(hit[0] - want_hit[0]) <= TOL
        np.testing.assert_array_equal(hit[1], want_hit[1])
        return
    assert hit is None
    assert floor == want_floor
    assert len(survivors) == len(want_survivors)
    for got, (box, bound) in zip(survivors, want_survivors):
        np.testing.assert_allclose(got.box.lower, box.lower, rtol=0, atol=TOL)
        np.testing.assert_allclose(got.box.upper, box.upper, rtol=0, atol=TOL)
        assert abs(got.bound - bound) <= TOL


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8))
def test_one_draw_gives_the_per_box_draws(seed, count):
    # boxes of zero radius draw nothing, so they must not shift the others
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    lowers = _grid(rng, (count, n))
    uppers = lowers + rng.choice([0.0, 0.25, 1.0], size=(count, n))
    point = rng.uniform(size=count) < 0.3
    uppers[point] = lowers[point]
    pts, drew = bab._sample_points(lowers, uppers, np.random.default_rng(seed + 1))
    one = np.random.default_rng(seed + 1)
    for j in range(count):
        want, want_drew = bab._sample_points(lowers[j : j + 1], uppers[j : j + 1], one)
        assert drew[j] == want_drew[0]
        np.testing.assert_array_equal(pts[j], want[0])


def test_box_with_a_negative_zero_corner_is_sampled():
    # relaxed clipping can return the coordinate interval [0.0, -0.0]
    box = BoxDomain(np.array([0.0, -0.25]), np.array([-0.0, 0.4]))
    model = NetworkModel([AffineLayer(np.array([[1.0, 1.0]]), np.array([1.0]))])
    problem = CanonicalProblem(model, box, 1)
    assert bab._try_falsify(problem, box, np.random.default_rng(0)) is None
