"""The batched screen of a round's children against the per-child screens.

``bab._screen_children`` relaxed-clips, plane-screens and falsifies all
children of a round together.  With the same seed it must give what the
per-child references give one child at a time, in search order:
``relaxed_clip_parallel``, ``quick_child_bound`` and ``try_falsify``
(stopping at the first hit), each child with the set
``ConstraintSet.appended`` gives it: its parent's constraints plus, step
by step, the half-spaces its parent keeps for the sides its path took,
within the budget.  A parent's children are its descendants one or more
splits down, as ``bab._split_round`` makes them when few parents are
open, each carrying the rows its splits gave it.  The survivors'
constraint stacks must be what stacking those sets gives.  Networks,
boxes and constraints sit on a quarter-step grid, so ties are exact.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clipverify import (
    AffineLayer,
    BabConfig,
    BoxDomain,
    CanonicalProblem,
    ConstraintSet,
    LinearConstraint,
    NetworkModel,
    Subdomain,
    bab,
    compute_bounds,
    relaxed_clip_parallel,
)

from conftest import quick_child_bound, stack_constraints

TOL = 1e-12


def try_falsify(problem, box, rng):
    """One-box reference of the round screen's falsification: the box's
    center plus a few random points; ``(value, point)`` of a hit, or None."""
    hit = bab._falsify_boxes(problem, box.lower[None], box.upper[None], rng)
    return None if hit is None else hit[1:]


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


def _constraints(rng, box, m):
    """``m`` grid rows: random, all-zero, redundant or infeasible."""
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


def _round(rng, problem, budget):
    """Parents and children of one round: each parent split one to three
    levels deep by ``bab._split_round``, given up to ``budget`` constraints
    of its own and, sometimes, a half-space for each side of each of its
    first few split steps (or one for both sides of the first, as input
    mode harvests), of which each child takes the one of every step on its
    path that has them; some children are point boxes.  Returns the
    parents, the children, each child's parent index and each child's
    constraint set, built by ``ConstraintSet.appended``.  Call it with
    ``bab.CONSTRAINT_BUDGET`` set to ``budget``."""
    parents, children, owner, csets = [], [], [], []
    for _ in range(int(rng.integers(1, 5))):
        box = _sub_box(rng, problem.box)
        if float(box.radius.max()) == 0.0:
            continue
        res = compute_bounds(problem.model, box)
        bound = float(res.final_lower.min()) - float(rng.choice([0.0, 0.5]))
        own = _constraints(rng, box, int(rng.integers(0, budget + 1)))
        adds = None
        if rng.uniform() < 0.6:
            # a pair for each of one to three steps, or, as input mode
            # harvests, one row for both sides of the first step
            pairs = [_constraints(rng, box, 2) for _ in range(int(rng.integers(1, 4)))]
            if rng.uniform() < 0.5:
                pairs = [ConstraintSet(pairs[0].normals[[0, 0]], pairs[0].offsets[[0, 0]])]
            adds = (np.stack([pair.normals for pair in pairs]), np.stack([pair.offsets for pair in pairs]))
        parent = replace(
            Subdomain.root(problem), lower=box.lower, upper=box.upper, bound=bound,
            planes=res.planes[-1], normals=own.normals, offsets=own.offsets,
            child_constraints=adds,
        )
        # one parent a round splits d levels deep at batch 2**d
        nodes = bab._split_round(BabConfig(batch=2 ** int(rng.integers(1, 4))), [parent], None)
        for child in nodes:
            if rng.uniform() < 0.15:
                child.upper = child.lower.copy()
            cset = own
            if adds is not None:
                for j, side in enumerate(child.path[:len(adds[1])]):
                    cset = cset.appended(LinearConstraint(adds[0][j, side], adds[1][j, side]), budget=budget)
            children.append(child)
            owner.append(len(parents))
            csets.append(cset)
        parents.append(parent)
    return parents, children, np.array(owner, dtype=int), csets


def _one_at_a_time(problem, cfg, parents, children, owner, csets, seed):
    """The per-child screens in search order, stopping at the first hit:
    the surviving ``(index, box, bound)``, the floor and the hit.  In input
    mode a closed child with constraints lowers the floor to 0."""
    rng = np.random.default_rng(seed)
    survivors, floor = [], np.inf
    for j, (child, cset) in enumerate(zip(children, csets)):
        parent = parents[owner[j]]
        box = relaxed_clip_parallel(BoxDomain(child.lower, child.upper), cset)
        constrained = cfg.mode == "input" and cset.size > 0
        if box.is_empty:
            if constrained:
                floor = min(floor, 0.0)
            continue
        bound = max(parent.bound, quick_child_bound(parent.planes, box))
        if bound >= 0.0:
            floor = min(floor, 0.0 if constrained else bound)
            continue
        hit = try_falsify(problem, box, rng)
        if hit is not None:
            return survivors, floor, hit
        survivors.append((j, box, bound))
    return survivors, floor, None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["input", "activation"]),
       budget=st.sampled_from([1, 2, 4, 16]))
def test_round_screen_matches_per_child_screens(seed, mode, budget):
    rng = np.random.default_rng(seed)
    problem = _problem(rng)
    cfg = BabConfig(mode=mode, clip="both")
    with mock.patch.object(bab, "CONSTRAINT_BUDGET", budget):
        parents, children, owner, csets = _round(rng, problem, budget)
        survivors, floor, hit = bab._screen_children(problem, cfg, children, np.random.default_rng(seed))
    want_survivors, want_floor, want_hit = _one_at_a_time(
        problem, cfg, parents, children, owner, csets, seed
    )
    if want_hit is not None:
        assert hit is not None
        assert abs(hit[0] - want_hit[0]) <= TOL
        np.testing.assert_array_equal(hit[1], want_hit[1])
        return
    assert hit is None
    assert floor == want_floor
    if not want_survivors:
        assert survivors is None
        return
    keep, lowers, uppers, stacks = survivors
    assert keep.tolist() == [j for j, _, _ in want_survivors]
    for lo, up, (j, box, bound) in zip(lowers, uppers, want_survivors):
        np.testing.assert_allclose(lo, box.lower, rtol=0, atol=TOL)
        np.testing.assert_allclose(up, box.upper, rtol=0, atol=TOL)
        assert abs(children[j].bound - bound) <= TOL
    csets = [csets[j] for j in keep]
    if not any(cset.size for cset in csets):
        assert stacks is None
        return
    assert stacks[2].tolist() == [cset.size for cset in csets]
    for got, want in zip(stacks, stack_constraints(csets)):
        np.testing.assert_array_equal(got, want)


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
    assert try_falsify(problem, box, np.random.default_rng(0)) is None
