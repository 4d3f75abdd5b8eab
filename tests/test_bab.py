import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clipverify import bab, crown
from clipverify import (
    AffineLayer,
    AlphaPolicy,
    BabConfig,
    BoundingPlanes,
    BoundsResult,
    BoxDomain,
    BranchProbe,
    CanonicalProblem,
    ConstraintSet,
    LayerBounds,
    LinearConstraint,
    NetworkModel,
    Subdomain,
    babsr_intercept_score,
    branch_activation,
    branch_input,
    compute_bounds,
    exact_verify,
    run_bab,
)
from conftest import (
    layer_neuron,
    long_search_problem,
    override_pins,
    quick_child_bound,
    random_network_problem,
    split_constraint_to_input,
    spy_screens,
    toy_problem,
)


def reference_scores(results, forced) -> list:
    """BaBSR score of every hidden neuron of the one-domain passes
    ``results`` under the per-domain pins ``forced`` (one ``(w_i,)`` int
    array per hidden layer: +1 active, -1 inactive, 0 free), one ``(B, w)``
    array per hidden layer, with -inf wherever the neuron is stable or
    pinned: the list-based scorer the search used before it scored at
    settle."""
    scores = []
    for i in range(len(forced[0])):
        lower = np.array([res.layer_bounds[i].lower for res in results])
        upper = np.array([res.layer_bounds[i].upper for res in results])
        coeff = np.array([res.objective_coeffs[i] for res in results])
        free = np.array([pins[i] for pins in forced]) == 0
        unstable = (lower < 0.0) & (upper > 0.0) & free
        scores.append(np.where(unstable, babsr_intercept_score(lower, upper, coeff), -np.inf))
    return scores


def reference_picks(scores, depth) -> list:
    """Each domain's ``depth`` highest-scoring unstable, unpinned neurons as
    a tuple of flat indices over the hidden layers, best first, ties to the
    lowest: taken one at a time by argmax, each taken neuron then scored
    -inf, stopping early when every neuron left scores -inf."""
    picks = []
    for row in np.concatenate(scores, axis=1):
        taken = []
        while len(taken) < depth and row.size and row.max() > -np.inf:
            taken.append(int(np.argmax(row)))
            row[taken[-1]] = -np.inf
        picks.append(tuple(taken))
    return picks


def final_plane_to_constraint(planes: BoundingPlanes, row: int) -> LinearConstraint:
    """Half-space containing every point where an output row can be
    negative: the row's lower plane is at most the row, so ``plane(x) <= 0``
    wherever the row is negative.  The constraint input mode adds when one
    row is left open."""
    return LinearConstraint(planes.a_low[row].copy(), float(planes.c_low[row]))


def _layer_overrides(model, overrides) -> list:
    """Per layer, the ``(lower, upper)`` column views of flat overrides, a
    subdomain's ``(2, V)`` or a ``(B, 2, V)`` stack of them: the form
    :func:`bound_batch` takes."""
    ends = np.cumsum([layer.out_dim for layer in model.layers])
    return [(part[..., 0, :], part[..., 1, :]) for part in np.split(overrides, ends[:-1], axis=-1)]


def _root_pass(problem):
    """The root subdomain and its bounding pass in batch form."""
    root = Subdomain.root(problem)
    overrides = _layer_overrides(problem.model, root.overrides[None])
    res, _ = bab.bound_batch(
        problem.model, root.lower[None], root.upper[None], BabConfig().alpha, overrides, None
    )
    return root, res


def _scored_root(problem) -> Subdomain:
    """The root as the search queues it: bounded, its final planes and
    branching scores kept."""
    root, res = _root_pass(problem)
    final = res.planes[-1]
    return replace(
        root, bound=-1.0, planes=BoundingPlanes(final.a_low[0], final.c_low[0], None, None),
        scores=bab._branch_scores(res)[0],
    )


def shifted_toy(delta: float) -> CanonicalProblem:
    """Toy problem with the output shifted by delta (min becomes -1 + delta)."""
    base = toy_problem()
    layers = list(base.model.layers)
    last = layers[-1]
    layers[-1] = AffineLayer(last.weights, last.bias + delta)
    return CanonicalProblem(NetworkModel(layers), base.box, 1)


def test_intercept_score_values():
    lower = np.array([-1.0, -2.0, 1.0])
    upper = np.array([3.0, 2.0, 2.0])
    coeff = np.array([-2.0, 1.0, -4.0])
    score = babsr_intercept_score(lower, upper, coeff)
    # neuron 0: intercept 3/4, coefficient weight 2
    assert abs(score[0] - 1.5) < 1e-12
    # positive mean coefficient clamps to zero
    assert score[1] == 0.0
    # stable neuron scores zero regardless of coefficient
    assert score[2] == 0.0


def test_split_constraints_are_necessary_conditions(problem):
    res = compute_bounds(problem.model, problem.box)
    planes = res.planes[0]
    rng = np.random.default_rng(6)
    pts = rng.uniform(problem.box.lower, problem.box.upper, size=(2000, 2))
    pre = pts @ problem.model.layers[0].weights.T + problem.model.layers[0].bias
    for j in range(2):
        for pol in (1, -1):
            cons = split_constraint_to_input(planes, j, pol)
            on_side = pre[:, j] >= 0.0 if pol > 0 else pre[:, j] <= 0.0
            # every point on the pinned side satisfies the derived half-space
            vals = pts[on_side] @ cons.normal + cons.offset
            assert np.all(vals <= 1e-9)


def test_final_plane_constraint_covers_violations(problem):
    res = compute_bounds(problem.model, problem.box)
    cons = final_plane_to_constraint(res.planes[-1], 0)
    rng = np.random.default_rng(10)
    pts = rng.uniform(problem.box.lower, problem.box.upper, size=(2000, 2))
    bad = problem.model.evaluate(pts)[:, 0] < 0.0
    vals = pts[bad] @ cons.normal + cons.offset
    assert np.all(vals <= 1e-9)


def test_branch_input_widest_dim(problem):
    sub = Subdomain.root(problem)
    lo, hi, cut = branch_input(sub)
    assert cut == (0, 0.5)  # widths 3 and 3: tie goes to dimension 0
    assert lo.upper[0] == 0.5 and hi.lower[0] == 0.5
    assert len(lo.path) == 1 and lo.path == (0,) and hi.path == (1,)
    # the parent's box is left as it was
    np.testing.assert_array_equal(sub.lower, problem.box.lower)
    np.testing.assert_array_equal(sub.upper, problem.box.upper)


def test_branch_input_forced_cut(problem):
    sub = Subdomain.root(problem)
    lo, hi, cut = branch_input(sub, 1, at=0.25)
    assert cut == (1, 0.25)
    assert lo.upper[1] == 0.25
    # out-of-box cut clamps
    _, _, cut = branch_input(sub, 1, at=99.0)
    assert cut == (1, 1.0)


def test_branch_input_zero_volume_raises():
    box = BoxDomain(np.zeros(2), np.zeros(2))
    sub = Subdomain.root(CanonicalProblem(toy_problem().model, box, 1))
    with pytest.raises(ValueError):
        branch_input(sub)


def test_branch_activation_children(problem):
    sub = _scored_root(problem)
    # a pin is an override of 0: the active side's lower bound, the
    # inactive side's upper bound
    free = np.full((2, 3), np.nan)
    pinned = [free.copy(), free.copy()]
    pinned[0][0, 0], pinned[1][1, 0] = 0.0, 0.0
    active, inactive = branch_activation(sub, 0)
    assert np.array_equal(active.overrides, pinned[0], equal_nan=True)
    assert np.array_equal(inactive.overrides, pinned[1], equal_nan=True)
    assert np.array_equal(sub.overrides, free, equal_nan=True)  # the parent keeps its own
    # branching only pins; the round stacks the split half-spaces
    assert active.normals.shape == inactive.normals.shape == (0, 2)
    for child in (active, inactive):
        with pytest.raises(ValueError, match="already decided"):
            branch_activation(child, 0)
    for clip in ("none", "relaxed", "complete", "both"):
        cfg = BabConfig(mode="activation", clip=clip)
        decision, children = bab._branch(cfg, replace(sub, picks=(0,)), 0, None)
        assert decision == 0
        for child, want in zip(children, pinned):
            assert np.array_equal(child.overrides, want, equal_nan=True)
    # the half-spaces settle keeps for the children are the pin's split
    # constraints, and the round's split gives the child whose split step
    # went to side k row (0, k) as its own
    _, res = _root_pass(problem)
    picks = (np.array([[0]]), np.array([[True]]))
    normals, offsets, adds = bab._child_constraints(BabConfig(mode="activation"), res, picks)
    assert adds.tolist() == [1]
    planes = compute_bounds(problem.model, problem.box).planes[0]
    sub = replace(sub, picks=(0,), child_constraints=(normals[0], offsets[0]))
    children = bab._split_round(BabConfig(mode="activation", batch=1), [sub], None)
    assert [child.path for child in children] == [(0,), (1,)]
    for child, polarity in zip(children, (1, -1)):
        want = split_constraint_to_input(planes, 0, polarity)
        assert child.normals.shape == (1, 2) and child.offsets.shape == (1,)
        np.testing.assert_array_equal(child.normals[0], want.normal)
        assert child.offsets[0] == want.offset
    # the screen stacks the children's own rows
    stacked_normals, stacked_offsets, sizes = bab._child_stacks(children)
    assert sizes.tolist() == [1, 1]
    for k, child in enumerate(children):
        np.testing.assert_array_equal(stacked_normals[k], child.normals)
        np.testing.assert_array_equal(stacked_offsets[k], child.offsets)


def test_branch_activation_requires_unstable(problem):
    sub = _scored_root(problem)
    # fake stability by scoring the neuron -inf
    scores = sub.scores.copy()
    scores[0] = -np.inf
    with pytest.raises(ValueError, match="not unstable"):
        branch_activation(replace(sub, scores=scores), 0)
    with pytest.raises(ValueError, match="no branching scores"):
        branch_activation(replace(sub, scores=None), 0)


def test_falsifiable_toy_both_modes(problem):
    for mode in ("input", "activation"):
        out = run_bab(problem, BabConfig(mode=mode, timeout=30.0))
        assert out.status == "falsified"
        assert out.value < 0.0
        assert abs(problem.value(out.counterexample) - out.value) < 1e-12
        assert problem.box.contains(out.counterexample, tol=1e-12)


def test_verifiable_toy_both_modes():
    prob = shifted_toy(1.1)  # exact minimum becomes +0.1
    for mode in ("input", "activation"):
        out = run_bab(prob, BabConfig(mode=mode, timeout=60.0))
        assert out.status == "verified"
        assert out.bound is not None and out.bound >= 0.0
        assert out.counterexample is None


def test_zero_timeout_returns_unknown(problem):
    for mode in ("input", "activation"):
        out = run_bab(problem, BabConfig(mode=mode, timeout=0.0))
        assert out.status == "unknown"
        assert out.stats.domains_visited == 0
        assert out.bound is None


def test_deadline_before_the_first_round_reports_no_bound(monkeypatch):
    # input mode queues the root unbounded; a deadline that passes before
    # the first round leaves no bound known, which is reported as None
    clock = iter([0.0, 0.0] + [100.0] * 10)
    monkeypatch.setattr(bab.time, "perf_counter", lambda: next(clock))
    out = run_bab(shifted_toy(1.05), BabConfig(mode="input", timeout=10.0))
    assert out.status == "unknown" and out.bound is None
    assert out.stats.domains_visited == 0


def test_bound_history_monotone():
    prob = shifted_toy(1.05)
    for mode in ("input", "activation"):
        for clip in ("none", "relaxed", "complete", "both"):
            out = run_bab(prob, BabConfig(mode=mode, clip=clip, timeout=60.0))
            hist = np.asarray(out.stats.bound_history)
            if hist.size > 1:
                assert np.all(np.diff(hist) >= -1e-9)
            assert out.status == "verified"


def test_all_clip_settings_agree_with_oracle():
    rng = np.random.default_rng(77)
    for _ in range(12):
        prob = random_network_problem(rng)
        truth = exact_verify(prob).min_value >= 0.0
        for mode in ("input", "activation"):
            for clip in ("none", "relaxed", "complete", "both"):
                out = run_bab(prob, BabConfig(mode=mode, clip=clip, timeout=30.0))
                assert out.status == ("verified" if truth else "falsified")


def test_probe_records_decisions_and_intervals():
    # input mode queues the root unbounded and records its cut; the first
    # pass bounds it together with its two children (batch 1 splits one
    # level deep)
    prob = shifted_toy(1.02)
    probe = BranchProbe()
    out = run_bab(prob, BabConfig(mode="input", clip="none", batch=1, timeout=30.0), probe)
    assert out.status == "verified"
    assert () in probe.decisions and () in probe.intervals
    assert (0,) in probe.intervals and (1,) in probe.intervals
    for path, decision in probe.decisions.items():
        assert isinstance(decision, tuple) and len(decision) == 2
    # activation mode bounds the root first
    probe = BranchProbe()
    out = run_bab(prob, BabConfig(mode="activation", clip="none", batch=1, timeout=30.0), probe)
    assert out.status == "verified"
    assert () in probe.intervals


def test_probe_replay_reproduces_run():
    prob = shifted_toy(1.02)
    cfg = BabConfig(mode="input", clip="none", batch=1, timeout=30.0)
    probe0 = BranchProbe()
    run_bab(prob, cfg, probe0)
    probe1 = BranchProbe(replay=dict(probe0.decisions))
    run_bab(prob, cfg, probe1)
    assert probe0.decisions == probe1.decisions
    assert set(probe0.intervals) == set(probe1.intervals)


def test_stats_accounting(problem):
    out = run_bab(problem, BabConfig(mode="input", timeout=30.0))
    assert out.stats.domains_visited >= 1
    assert out.stats.wall_time > 0.0
    out2 = run_bab(shifted_toy(1.1), BabConfig(mode="activation", timeout=60.0))
    assert out2.stats.max_depth >= 1


def test_deterministic_outcomes():
    rng = np.random.default_rng(55)
    prob = random_network_problem(rng)
    for mode in ("input", "activation"):
        cfg = BabConfig(mode=mode, clip="both", timeout=30.0, seed=9)
        a = run_bab(prob, cfg)
        b = run_bab(prob, cfg)
        assert a.status == b.status
        assert a.stats.domains_visited == b.stats.domains_visited
        assert a.stats.bound_history == b.stats.bound_history
        if a.counterexample is not None:
            np.testing.assert_array_equal(a.counterexample, b.counterexample)


def _spy_screens(monkeypatch, rounds):
    """Append ``(parents, children, owner, survivors)`` of every round's
    screen to ``rounds``: ``children[k]`` descends from
    ``parents[owner[k]]``."""
    spy_screens(monkeypatch, lambda parents, children, owner, out: rounds.append(
        (parents, children, owner, out[0])))


def test_bounded_children_passed_every_screen(monkeypatch):
    # A child reaches a bounding pass only if relaxed clipping left its box
    # nonempty and, where its parent has final planes, they cannot close
    # it.  Input mode's unbounded root has none; its pass bounds the root
    # too, as row 0.  On this net the plane screen closes some children of
    # bounded parents in both modes, so the check has something to catch.
    prob = long_search_problem()
    rounds, passes = [], []
    _spy_screens(monkeypatch, rounds)
    original = bab.bound_batch

    def spy(model, lowers, uppers, *args):
        passes.append((lowers, uppers))
        return original(model, lowers, uppers, *args)

    monkeypatch.setattr(bab, "bound_batch", spy)
    for mode in ("input", "activation"):
        rounds.clear()
        passes.clear()
        out = run_bab(prob, BabConfig(mode=mode, clip="both", timeout=60.0))
        assert out.status == "verified"
        screened = [(parents, owner, kept) for parents, _, owner, kept in rounds if kept is not None]
        assert screened
        # after the root's in activation mode, each pass bounds one round's
        # survivors as the screen left them
        root_passes = int(mode == "activation")
        assert len(passes) == root_passes + len(screened)
        planed = 0
        for (parents, owner, (keep, lowers, uppers, _)), bounded in zip(screened, passes[root_passes:]):
            if parents[0].planes is None:
                assert mode == "input" and len(bounded[0]) == len(lowers) + 1
                assert np.array_equal(bounded[0][0], prob.box.lower)
                assert np.array_equal(bounded[1][0], prob.box.upper)
                bounded = [corners[1:] for corners in bounded]
                assert np.array_equal(bounded[0], lowers) and np.array_equal(bounded[1], uppers)
            else:
                assert bounded[0] is lowers and bounded[1] is uppers
            for j, lo, up in zip(keep, lowers, uppers):
                box = BoxDomain(lo, up)
                assert not box.is_empty
                planes = parents[owner[j]].planes
                if planes is None:
                    assert mode == "input" and parents[owner[j]].path == ()
                    continue
                assert quick_child_bound(planes, box) < 0.0
                planed += 1
        assert planed, mode


def _pass_arrays(args, out):
    """Every array a bounding pass takes in (corners and override stacks)
    or hands out (its batch-form result)."""
    _, lowers, uppers, _, overrides, *_ = args
    res, _ = out
    arrays = [lowers, uppers, *(arr for pair in overrides for arr in pair)]
    arrays += [arr for lb in res.layer_bounds for arr in (lb.lower, lb.upper)]
    arrays += [arr for p in res.planes for arr in (p.a_low, p.c_low, p.a_up, p.c_up)]
    return arrays + [res.final_lower, *res.objective_coeffs]


def _queued_arrays(sub):
    """The arrays a queued subdomain got from the pass that bounded it."""
    arrays = [sub.lower, sub.upper, sub.overrides, sub.normals, sub.offsets, sub.planes.a_low, sub.planes.c_low]
    if sub.scores is not None:
        arrays.append(sub.scores)
    if sub.child_constraints is not None:
        arrays += list(sub.child_constraints)
    return arrays


def _verifiable_two_row_problem() -> CanonicalProblem:
    """Two output rows, shifted to a minimum of 0.02.  Searched in input
    mode with ``batch=3``, its first round bounds children without
    constraints and queues a mix of domains that harvest a final plane and
    domains that leave two rows open and harvest none; later rounds bound
    and queue children under constraints."""
    prob = random_network_problem(np.random.default_rng(16), rows=2)
    last = prob.model.layers[-1]
    shift = 0.02 - exact_verify(prob).min_value
    layers = [*prob.model.layers[:-1], AffineLayer(last.weights, last.bias + shift)]
    return CanonicalProblem(NetworkModel(layers), prob.box, 2)


@pytest.mark.parametrize("mode, clip, rows, batch", [("input", "none", 1, 8), ("input", "both", 1, 8),
                                                     ("input", "both", 2, 3), ("activation", "both", 1, 8)],
                         ids=["input-none", "input-both", "input-both-two-rows", "activation-both"])
def test_queued_subdomains_share_no_memory(monkeypatch, mode, clip, rows, batch):
    # A queued subdomain used to keep views of its whole bounding pass: the
    # planes, bounds and stacks of every domain and layer stayed alive as
    # long as any one of them was queued.  A child bounded without
    # constraints used to keep its parent's zero-row constraint views, and
    # through them the parent's whole buffer.
    prob = long_search_problem() if rows == 1 else _verifiable_two_row_problem()
    passes, pushed, stacked_passes, stack = [], [], [], []
    original_pass, original_push = bab.bound_batch, bab.heappush
    original_refine, original_scores, original_cuts = bab._clip_refine, bab._branch_scores, bab._child_constraints

    def spy_refine(cfg, model, lowers, uppers, stacks, *args):
        # the constraint stack the next pass is bounded under
        stack[:] = [] if stacks is None else stacks[:2]
        return original_refine(cfg, model, lowers, uppers, stacks, *args)

    def spy_pass(*args):
        out = original_pass(*args)
        passes.append(_pass_arrays(args, out) + stack)
        stacked_passes.append(bool(stack))
        pushed.append([])
        return out

    def spy_derived(original):
        # what settle computes from the pass: the scores and half-spaces
        def spy(*args):
            out = original(*args)
            passes[-1].extend(out if isinstance(out, tuple) else [out])
            return out
        return spy

    def spy_push(heap, item):
        if not passes:
            # input mode queues the root unbounded, before any pass
            assert mode == "input" and item[2].path == () and item[2].planes is None
        else:
            pushed[-1].append(item[2])
        original_push(heap, item)

    monkeypatch.setattr(bab, "bound_batch", spy_pass)
    monkeypatch.setattr(bab, "_clip_refine", spy_refine)
    monkeypatch.setattr(bab, "_branch_scores", spy_derived(original_scores))
    monkeypatch.setattr(bab, "_child_constraints", spy_derived(original_cuts))
    monkeypatch.setattr(bab, "heappush", spy_push)
    out = run_bab(prob, BabConfig(mode=mode, clip=clip, batch=batch, timeout=60.0))
    assert out.status == "verified"
    assert sum(len(subs) > 1 for subs in pushed) >= 2
    width = sum(layer.out_dim for layer in prob.model.layers[:-1])
    stacked, buffers = 0, set()
    for batch_arrays, subs, under_stack in zip(passes, pushed, stacked_passes):
        kept = [_queued_arrays(sub) for sub in subs]
        for i, arrays in enumerate(kept):
            # only what later rounds read: the final lower planes always,
            # the flat scores when parents are scored, the half-spaces the
            # children add when clipping reads them
            sub = subs[i]
            assert sub.planes.a_up is None and sub.planes.c_up is None
            assert (sub.scores is None) == (mode == "input" and clip == "none")
            assert sub.scores is None or sub.scores.shape == (width,)
            assert not sub.picks or mode == "activation"
            assert sub.child_constraints is None or clip != "none"
            stacked += under_stack
            # no buffer shared with another queued subdomain, even through
            # zero-size views, which np.shares_memory never reports
            bases = {id(arr.base) for arr in arrays if arr.base is not None}
            assert not bases & buffers
            buffers |= bases
            for arr in arrays:
                assert not any(np.shares_memory(arr, other) for other in batch_arrays)
                for others in kept[i + 1:]:
                    assert not any(np.shares_memory(arr, other) for other in others)
    assert (stacked > 0) == (clip != "none")


def test_queued_subdomains_hold_only_their_own_fields(monkeypatch):
    # A queued subdomain used to view one buffer that held its row of every
    # kept array, with its pass's largest constraint stack instead of its
    # own m rows, and the children's half-spaces even where it kept none:
    # here 11 of the 41 queued subdomains held more than their fields.
    prob = long_search_problem()
    pushed = []
    push = bab.heappush

    def spy(heap, item):
        pushed.append(item[2])
        push(heap, item)

    monkeypatch.setattr(bab, "heappush", spy)
    out = run_bab(prob, BabConfig(mode="activation", clip="both", timeout=60.0))
    assert out.status == "verified"
    assert len(pushed) > 10 and any(sub.child_constraints is None for sub in pushed)
    for sub in pushed:
        arrays = _queued_arrays(sub)
        held = {}
        for arr in arrays:
            # an array's own data, or the base a view keeps alive
            while arr.base is not None:
                arr = arr.base
            held[id(arr)] = arr.nbytes
        assert sum(held.values()) == sum(arr.nbytes for arr in arrays), sub.path


class _Queued(Exception):
    """Ends a search once the pass under test has queued its domains."""


@pytest.mark.parametrize("rows", [[1, 6, 11], list(range(16))])
def test_queuing_holds_only_the_copies_it_keeps(monkeypatch, rows):
    # Queuing used to join every row of every kept array, the closed
    # domains' included, and then copy each queued row: a settle of 16
    # wide domains held three times what it keeps when 3 were queued, and
    # twice when all 16 were.  Each queued domain now copies its own row of
    # each array, so queuing holds what it keeps and at most one row more.
    rng = np.random.default_rng(4)
    widths = (8, 128, 128, 128, 1)
    model = NetworkModel([
        AffineLayer(rng.normal(size=(w_out, w_in)) / np.sqrt(w_in), 0.3 * rng.normal(size=w_out))
        for w_in, w_out in zip(widths, widths[1:])
    ])
    problem = CanonicalProblem(model, BoxDomain(np.full(8, -0.5), np.full(8, 0.5)), 1)
    batch = 16
    lowers = rng.uniform(-0.5, 0.0, size=(batch, 8))
    uppers = lowers + 0.5
    # a full constraint stack per domain, every row holding on the whole
    # problem box, so that no domain is proven empty
    normals = rng.normal(size=(batch, bab.CONSTRAINT_BUDGET, 8))
    offsets = -np.abs(normals).sum(axis=2)
    stacks = normals, offsets, np.full(batch, bab.CONSTRAINT_BUDGET)
    original_split, original_pass, original_close = bab._split_round, bab.bound_batch, bab._close
    original_cuts, original_push = bab._child_constraints, bab.heappush
    seen, pushed = {}, []

    def split(cfg, parents, probe):
        # the root's children stand in for the 16 children of 8 parents
        children = original_split(cfg, parents, probe)
        return [replace(children[k % 2], path=(k,)) for k in range(batch)]

    def screen(problem, cfg, children, rng):
        # all of them surviving with the boxes and stacks above
        return (np.arange(batch), lowers, uppers, stacks), np.inf, None

    def spy_pass(*args):
        seen["pass"] = args, original_pass(*args)
        return seen["pass"][1]

    def spy_close(cfg, bounds, alive, stacks):
        left_open, floor = original_close(cfg, bounds, alive, stacks)
        if len(bounds) == batch:
            assert alive.all()
            left_open = np.isin(np.arange(batch), rows)
        return left_open, floor

    def spy_cuts(*args):
        # the last array settle computes for the whole pass; queuing starts
        out = seen["cuts"] = original_cuts(*args)
        if len(out[2]) == batch:
            tracemalloc.start()
        return out

    def spy_push(heap, item):
        original_push(heap, item)
        if tracemalloc.is_tracing():
            pushed.append(item[2])
            if len(pushed) == len(rows):
                seen["peak"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                raise _Queued

    monkeypatch.setattr(bab, "_split_round", split)
    monkeypatch.setattr(bab, "_screen_children", screen)
    monkeypatch.setattr(bab, "bound_batch", spy_pass)
    monkeypatch.setattr(bab, "_close", spy_close)
    monkeypatch.setattr(bab, "_child_constraints", spy_cuts)
    monkeypatch.setattr(bab, "heappush", spy_push)
    try:
        with pytest.raises(_Queued):
            run_bab(problem, BabConfig(mode="activation", clip="both", timeout=60.0))
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    assert [sub.path for sub in pushed] == [(b,) for b in rows]
    (_, _, _, _, overrides, *_), (res, _) = seen["pass"]
    scores = bab._branch_scores(res)
    cut_normals, cut_offsets, adds = seen["cuts"]
    final = res.planes[-1]
    for sub, b in zip(pushed, rows):
        # each field is the domain's row of the pass, its stack unpadded
        assert np.array_equal(sub.lower, lowers[b]) and np.array_equal(sub.upper, uppers[b])
        flat = [np.concatenate([pair[side][b] for pair in overrides]) for side in (0, 1)]
        assert np.array_equal(sub.overrides, flat, equal_nan=True)
        assert np.array_equal(sub.planes.a_low, final.a_low[b])
        assert np.array_equal(sub.planes.c_low, final.c_low[b])
        assert np.array_equal(sub.scores, scores[b])
        assert adds[b] and np.array_equal(sub.child_constraints[0], cut_normals[b])
        assert np.array_equal(sub.child_constraints[1], cut_offsets[b])
        assert np.array_equal(sub.normals, normals[b]) and np.array_equal(sub.offsets, offsets[b])
    # 11,160 bytes of copies a domain: corners 2 x 64, overrides 6,160, its
    # 16 constraint rows 1,152, final planes 72, scores 3,072, and the
    # half-spaces of its 4 picks (a round of one parent at batch 16 splits 4
    # levels) 576, where one pick's were 144
    sizes = [sum(arr.nbytes for arr in _queued_arrays(sub)) for sub in pushed]
    assert sizes == [11160] * len(rows)
    assert all(len(sub.picks) == 4 for sub in pushed)
    # the copies, their array and tuple objects, the picks among them
    # (under 2 KiB a domain) and at no point more than one row beyond them
    assert seen["peak"] <= sum(sizes) + 2048 * len(sizes) + max(sizes), (seen["peak"], sizes)


def _cancelling_problem() -> CanonicalProblem:
    """f(x) = delta + |x| - 0.5 |x| on a box straddling 0: true minimum
    delta, but the cancelling ReLU pairs make the relaxation loose, so input
    bisection has to go about 20 levels deep before the bound clears 0."""
    w1 = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    w2 = np.array([[1.0, 1.0, -0.5, -0.5]])
    model = NetworkModel([AffineLayer(w1, np.zeros(4)), AffineLayer(w2, np.array([1e-7]))])
    return CanonicalProblem(model, BoxDomain(np.array([-1.0]), np.array([1.3])), 1)


def test_input_mode_harvested_constraints_stay_within_budget(monkeypatch):
    # one level per round, so that each level harvests a plane: a round
    # that splits d levels deep adds one constraint for all d
    prob = _cancelling_problem()
    rounds = []
    _spy_screens(monkeypatch, rounds)
    out = run_bab(prob, BabConfig(mode="input", clip="both", batch=1, timeout=30.0))
    assert out.status == "verified"
    assert out.stats.max_depth > bab.CONSTRAINT_BUDGET
    # the constraint counts of the children that were bounded under
    # constraints (the root's descendants have none)
    sizes = [size for *_, kept in rounds if kept is not None and kept[3] is not None for size in kept[3][2]]
    assert max(sizes) == bab.CONSTRAINT_BUDGET


def test_input_mode_without_clipping_harvests_no_constraints(monkeypatch):
    # with clip="none" nothing reads constraints, so neither mode may build
    # any: no harvested planes in input mode (the same net harvests them
    # with clipping on, above), no split half-spaces in activation mode
    rounds = []
    _spy_screens(monkeypatch, rounds)
    for mode in ("input", "activation"):
        rounds.clear()
        out = run_bab(_cancelling_problem(), BabConfig(mode=mode, clip="none", timeout=30.0))
        assert out.status == "verified"
        bounded = [children[j] for _, children, _, kept in rounds if kept is not None for j in kept[0]]
        assert bounded, mode
        assert all(kept[3] is None for *_, kept in rounds if kept is not None), mode
        assert all(child.normals.shape[0] == 0 for child in bounded), mode
        assert all(child.child_constraints is None for child in bounded), mode


def test_search_constructs_no_constraint_objects(monkeypatch):
    # A subdomain's constraints are (m, n) / (m,) arrays and a round stacks
    # its children's in array steps: no LinearConstraint or ConstraintSet
    # is built on the search path, in any mode or clip setting.  Both nets
    # take more than one round in both modes, so that some round stacks
    # constraints whenever clipping is on.
    built = []
    for cls in (LinearConstraint, ConstraintSet):
        original = cls.__post_init__

        def spy(self, original=original):
            built.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    ConstraintSet.empty(2)
    assert built == ["ConstraintSet"]  # the spies see a construction
    built.clear()
    rounds = []
    _spy_screens(monkeypatch, rounds)
    problems = long_search_problem(), random_network_problem(np.random.default_rng(3859))
    for mode in ("input", "activation"):
        for clip in ("none", "relaxed", "complete", "both"):
            for k, prob in enumerate(problems):
                rounds.clear()
                out = run_bab(prob, BabConfig(mode=mode, clip=clip))
                assert out.status == "verified"
                stacked = [kept[3] for *_, kept in rounds if kept is not None and kept[3]]
                assert bool(stacked) == (clip != "none"), (mode, clip, k)
                assert built == [], (mode, clip, k)


def test_deadline_is_checked_before_the_bounding_pass(monkeypatch):
    # A round used to bound its survivors whatever the time: the deadline
    # was checked only at the top of the loop.  Here it passes between
    # that check and the round's pass.
    prob = long_search_problem()
    clock = [0.0]
    monkeypatch.setattr(bab.time, "perf_counter", lambda: clock[0])
    rounds, passes = [], []
    original_pass = bab.bound_batch

    def screen_spy(parents, children, owner, out):
        rounds.append(([parent.bound for parent in parents], children, out[0]))
        if len(rounds) == 2:
            clock[0] = 100.0  # past the deadline from here on

    def pass_spy(*args):
        passes.append(clock[0])
        return original_pass(*args)

    heaps = []
    original_pop = bab.heappop

    def pop_spy(heap):
        item = original_pop(heap)
        heaps.append([entry[0] for entry in heap])
        return item

    spy_screens(monkeypatch, screen_spy)
    monkeypatch.setattr(bab, "bound_batch", pass_spy)
    monkeypatch.setattr(bab, "heappop", pop_spy)
    out = run_bab(prob, BabConfig(mode="input", clip="both", batch=2, timeout=10.0))
    assert out.status == "unknown"
    assert len(rounds) == 2 and len(passes) == 1  # the first round's; the root is not bounded alone
    assert all(t < 10.0 for t in passes)
    popped, children, survivors = rounds[-1]
    assert survivors is not None
    # the lowest open bound: the survivors' screened bounds and what is
    # left on the heap; never below what was known before the round
    opened = [children[j].bound for j in survivors[0]] + heaps[-1]
    assert out.bound == min(opened)
    assert out.bound >= min(popped)


def test_deadline_is_checked_within_the_bounding_pass(monkeypatch):
    # The deadline passes during the second layer's walk of the second
    # pass: the pass stops there, bounds and counts nothing, and the run
    # reports the lowest open bound as the check before the pass does.
    prob = long_search_problem()
    clock = [0.0]
    monkeypatch.setattr(bab.time, "perf_counter", lambda: clock[0])
    rounds, heaps, walks = [], [], []
    screen, original_walk, original_pop = bab._screen_children, crown._walk, bab.heappop

    def screen_spy(problem, cfg, children, rng):
        out = screen(problem, cfg, children, rng)
        rounds.append((children, out[0]))
        return out

    def walk_spy(layers, relaxations, target, *args):
        walks.append(target)
        if len(rounds) == 2 and target == 1:
            clock[0] = 100.0  # past the deadline from here on
        return original_walk(layers, relaxations, target, *args)

    def pop_spy(heap):
        item = original_pop(heap)
        heaps.append([entry[0] for entry in heap])
        return item

    monkeypatch.setattr(bab, "_screen_children", screen_spy)
    monkeypatch.setattr(crown, "_walk", walk_spy)
    monkeypatch.setattr(bab, "heappop", pop_spy)
    out = run_bab(prob, BabConfig(mode="input", clip="both", batch=2, timeout=10.0))
    assert out.status == "unknown"
    children, survivors = rounds[-1]
    assert len(rounds) == 2 and survivors is not None
    layers = prob.model.num_layers
    assert walks == list(range(layers)) + [0, 1]
    # the first pass bounded the root too, as its row 0
    assert out.stats.domains_visited == 1 + len(rounds[0][1][0])
    opened = [children[j].bound for j in survivors[0]] + heaps[-1]
    assert out.bound == min(opened)


def test_deadline_within_the_activation_root_pass_reports_no_bound(monkeypatch):
    # activation mode bounds the root alone first; a deadline that passes
    # during that pass leaves nothing bounded and no bound known
    clock = [0.0]
    monkeypatch.setattr(bab.time, "perf_counter", lambda: clock[0])
    original_walk = crown._walk

    def walk_spy(layers, relaxations, target, *args):
        if target == 1:
            clock[0] = 100.0
        return original_walk(layers, relaxations, target, *args)

    monkeypatch.setattr(crown, "_walk", walk_spy)
    out = run_bab(long_search_problem(), BabConfig(mode="activation", timeout=10.0))
    assert out.status == "unknown" and out.bound is None
    assert out.stats.domains_visited == 0


def _overrun_problem() -> CanonicalProblem:
    """A random 8-128x4-2 net (rng 0) over a box of radius 1, shifted to a
    margin of 1 at the box center: no short search decides it, and a pass
    of 128 children takes about as long as a 0.2 s budget."""
    rng = np.random.default_rng(0)
    widths = (8, 128, 128, 128, 128, 2)
    layers = [AffineLayer(rng.normal(size=(w_out, w_in)) / np.sqrt(w_in), 0.3 * rng.normal(size=w_out))
              for w_in, w_out in zip(widths, widths[1:])]
    center = 0.4 * rng.normal(size=8)
    shift = 1.0 - NetworkModel(layers).evaluate(center)
    layers[-1] = AffineLayer(layers[-1].weights, layers[-1].bias + shift)
    return CanonicalProblem(NetworkModel(layers), BoxDomain(center - 1.0, center + 1.0), 2)


def test_deadline_overrun_stays_small_with_wide_passes():
    # A pass of up to 128 children used to run to its end once started: a
    # 0.2 s budget overran by up to 0.18 s.  The walk now checks the
    # deadline before each block of domains.
    prob = _overrun_problem()
    budget, worst = 0.2, 0.0
    for _ in range(3):
        out = run_bab(prob, BabConfig(mode="input", clip="both", batch=64, timeout=budget))
        assert out.status == "unknown"
        worst = max(worst, out.stats.wall_time - budget)
    assert worst < 0.05


def test_config_validation():
    with pytest.raises(ValueError):
        BabConfig(mode="sideways")
    with pytest.raises(ValueError):
        BabConfig(clip="maybe")
    with pytest.raises(ValueError):
        BabConfig(batch=0)
    with pytest.raises(ValueError):
        BabConfig(timeout=-1.0)


def test_config_rejects_non_integer_counts_and_negative_seed():
    # each of these used to be accepted and then fail mid-search
    for field in ({"batch": 2.0}, {"seed": -1}, {"seed": 0.5}):
        with pytest.raises(ValueError):
            BabConfig(**field)
    # numpy integers are integers
    BabConfig(batch=np.int32(2), seed=np.uint8(5))


def test_config_rejects_bool_counts():
    # bool is an int subclass, so these used to be accepted and kept as bools
    for name in ("batch", "seed"):
        for value in (True, False):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                BabConfig(**{name: value})


def test_nan_timeout_rejected():
    # every deadline comparison with NaN is False, so the run would never stop
    with pytest.raises(ValueError):
        BabConfig(timeout=float("nan"))


def test_config_rejects_an_alpha_that_is_no_policy():
    # a policy's name used to be accepted, and run_bab then failed with an
    # AttributeError
    for alpha in ("root", None, 1.0):
        with pytest.raises(ValueError, match="alpha must be an AlphaPolicy"):
            BabConfig(alpha=alpha)


def test_branch_activation_refuses_a_neuron_an_override_decides(problem):
    # both toy neurons are unstable at the root; an override that decides
    # one leaves nothing to split on it, whatever its score
    sub = _scored_root(problem)
    assert np.all(sub.scores > -np.inf)
    for side, value in ((0, 0.0), (0, 0.5), (1, 0.0), (1, -0.5)):
        overrides = sub.overrides.copy()
        overrides[side, 1] = value
        with pytest.raises(ValueError, match="neuron 1 is already decided"):
            branch_activation(replace(sub, overrides=overrides), 1)
    # an override that leaves it unstable is replaced by the pin's 0
    overrides = sub.overrides.copy()
    overrides[:, 1] = -0.5, 0.5
    active, inactive = branch_activation(replace(sub, overrides=overrides), 1)
    assert active.overrides[:, 1].tolist() == [0.0, 0.5]
    assert inactive.overrides[:, 1].tolist() == [-0.5, 0.0]


@pytest.mark.parametrize("seed", range(8))
def test_critical_neurons_leave_out_what_overrides_decide(monkeypatch, seed):
    # complete clipping tightens each domain's best-scoring neurons, never
    # one its own overrides decide (a pin among them), whatever it scores
    rng = np.random.default_rng(seed)
    problem = random_network_problem(rng, hidden=int(rng.integers(1, 4)))
    model, box = problem.model, problem.box
    batch = 6
    widths = [layer.out_dim for layer in model.layers]
    v, w = sum(widths), sum(widths[:-1])
    flat = np.full((batch, 2, v), np.nan)
    pick = rng.uniform(size=(batch, 4, v))
    flat[:, 0] = np.where(pick[:, 0] < 0.2, 0.0, np.where(pick[:, 1] < 0.2, rng.uniform(-1.0, 1.0, (batch, v)), np.nan))
    flat[:, 1] = np.where(pick[:, 2] < 0.2, 0.0, np.where(pick[:, 3] < 0.2, rng.uniform(-1.0, 1.0, (batch, v)), np.nan))
    overrides = _layer_overrides(model, flat)
    lowers, uppers = np.stack([box.lower] * batch), np.stack([box.upper] * batch)
    stacks = np.zeros((batch, 1, box.dim)), np.full((batch, 1), -1.0), np.ones(batch, dtype=int)
    seen = []

    def spy(scores):
        seen.append(bab_critical(scores))
        return seen[-1]

    bab_critical = bab._critical_masks
    monkeypatch.setattr(bab, "_critical_masks", spy)
    scores = rng.uniform(size=(batch, w))
    assert bab._clip_refine(BabConfig(clip="complete"), model, lowers, uppers, stacks, scores, overrides)
    (masks,) = seen
    decided = (flat[:, 0, :w] >= 0.0) | (flat[:, 1, :w] <= 0.0)
    critical = np.concatenate(masks, axis=1)
    assert decided.any() and not (critical & decided).any()
    # every neuron no override decides is critical: these layers are no
    # wider than CRITICAL_TOPK, and every score is finite
    assert max(widths[:-1]) <= bab.CRITICAL_TOPK and np.array_equal(critical, ~decided)


@pytest.mark.parametrize("seed", range(40))
def test_complete_clipping_with_duplicate_and_zero_rows_stays_sound(seed):
    # Every stack holds a duplicated row, the row 0 . x + 0 <= 0 (holds
    # everywhere) and, on some domains, 0 . x + 0.5 <= 0 (holds nowhere).
    # A domain with the latter is empty or verified on every row; each
    # other domain's final lower bounds are at most the sampled minimum of
    # each output row over the box points that satisfy every row.
    rng = np.random.default_rng(seed)
    problem = random_network_problem(rng, rows=int(rng.integers(1, 3)))
    model, box = problem.model, problem.box
    batch, n = 4, box.dim
    a, b = rng.uniform(box.lower, box.upper, size=(2, batch, n))
    lowers, uppers = np.minimum(a, b), np.maximum(a, b)
    # two half-spaces through a point of each box, the first duplicated
    normals, offsets = np.zeros((batch, 5, n)), np.zeros((batch, 5))
    inside = rng.uniform(lowers, uppers)
    normals[:, :2] = rng.normal(size=(batch, 2, n))
    offsets[:, :2] = -np.einsum("bmn,bn->bm", normals[:, :2], inside) - rng.uniform(0.0, 0.5, size=(batch, 2))
    normals[:, 2], offsets[:, 2] = normals[:, 0], offsets[:, 0]
    never = rng.uniform(size=batch) < 0.5
    offsets[never, 4] = 0.5
    stacks = normals, offsets, np.full(batch, 5)
    cfg = BabConfig(clip="complete")
    # the children's critical neurons come from their parents' scores
    flat = np.full((batch, 2, sum(layer.out_dim for layer in model.layers)), np.nan)
    overrides = _layer_overrides(model, flat)
    parents, _ = bab.bound_batch(model, lowers, uppers, cfg.alpha, overrides)
    refine = bab._clip_refine(cfg, model, lowers, uppers, stacks, bab._branch_scores(parents), overrides)
    res, empty = bab.bound_batch(model, lowers, uppers, cfg.alpha, overrides, refine)
    for b in range(batch):
        if never[b]:
            assert empty[b] or np.all(res.final_lower[b] >= 0.0)
            continue
        pts = rng.uniform(lowers[b], uppers[b], size=(20000, n))
        pts = pts[np.all(pts @ normals[b].T + offsets[b] <= 0.0, axis=1)]
        if len(pts):
            assert not empty[b]
            assert np.all(res.final_lower[b] <= model.evaluate(pts).min(axis=0) + 1e-9)


def test_multi_row_problem_verifies():
    # conjunction of two rows: -31 <= f <= 31, comfortably true on the box
    base = toy_problem()
    W = base.model.layers[-1].weights
    layers = [
        base.model.layers[0],
        AffineLayer(np.vstack([W, -W]), np.array([31.0, 31.0])),
    ]
    prob = CanonicalProblem(NetworkModel(layers), base.box, 2)
    truth = exact_verify(prob)
    assert truth.min_value >= 0.0
    for mode in ("input", "activation"):
        out = run_bab(prob, BabConfig(mode=mode, clip="both", timeout=60.0))
        assert out.status == "verified"


def test_multi_row_problem_falsifies():
    base = toy_problem()
    W = base.model.layers[-1].weights
    layers = [
        base.model.layers[0],
        AffineLayer(np.vstack([W, -W]), np.array([31.0, -5.0])),
    ]
    prob = CanonicalProblem(NetworkModel(layers), base.box, 2)
    # row 2 demands f <= -5, but f >= -1 everywhere: falsifiable
    for mode in ("input", "activation"):
        out = run_bab(prob, BabConfig(mode=mode, clip="both", timeout=60.0))
        assert out.status == "falsified"
        assert prob.value(out.counterexample) < 0.0


class _RootBounded(Exception):
    """Ends a search once its probe has recorded the root's pass."""


class _RootProbe(BranchProbe):
    def record_bounds(self, path, res, b):
        super().record_bounds(path, res, b)
        raise _RootBounded


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 3), rows=st.sampled_from([1, 2]))
def test_output_interval_bound_is_sound_and_no_looser(seed, hidden, rows):
    # A pass raises each output row's lower bound to the output walk with
    # zero lower slopes, up to the row's upper bound.  At the
    # activation-mode root, which is bounded without pins or constraints
    # and decides the root policy's slopes, that is never below the
    # backward planes' bound under the same slopes and, on the lowest row,
    # never above the exact minimum.
    prob = random_network_problem(np.random.default_rng(seed), width_max=4, hidden=hidden, rows=rows)
    probe = _RootProbe()
    with pytest.raises(_RootBounded):
        run_bab(prob, BabConfig(mode="activation", clip="both", timeout=60.0), probe)
    lower, upper = probe.intervals[()][-1]
    assert np.all(lower >= compute_bounds(prob.model, prob.box, AlphaPolicy.root()).final_lower)
    assert np.all(lower <= upper)
    assert lower.min() <= exact_verify(prob).min_value + 1e-9


@pytest.mark.parametrize("mode", ["input", "activation"])
@pytest.mark.parametrize("out_bias", [0.2, 0.21, 0.19])
def test_point_intervals_on_the_last_hidden_layer(mode, out_bias):
    # The last hidden layer sees only its biases, so each of its intervals
    # is a point and the output the constant out_bias - 0.2, where bounds
    # computed different ways agree only up to rounding (an interval bound
    # over the last hidden layer once came out an ulp or two above the
    # pass's upper bound, and a bound that intersected both sides found
    # such a domain empty).  Raising the lower bound only, up to the upper
    # one, keeps every bounded domain alive, and the verdict is the exact
    # one.
    layers = [
        AffineLayer(np.array([[1.0, -2.0], [0.5, 1.5]]), np.array([0.1, -0.2])),
        AffineLayer(np.zeros((3, 2)), np.array([0.1, 0.2, 0.3])),
        AffineLayer(np.array([[3.0, -1.0, -1.0]]), np.array([out_bias])),
    ]
    prob = CanonicalProblem(NetworkModel(layers), BoxDomain(np.array([-1.0, -0.5]), np.array([1.0, 0.5])), 1)
    probe = BranchProbe()
    out = run_bab(prob, BabConfig(mode=mode, clip="both", timeout=60.0), probe)
    assert out.status == ("verified" if exact_verify(prob).min_value >= 0.0 else "falsified")
    # the probe records every bounded domain that stayed alive
    assert len(probe.intervals) == out.stats.domains_visited
    if mode == "activation":
        assert () in probe.intervals
    for bounds in probe.intervals.values():
        assert np.all(bounds[-1][0] <= bounds[-1][1])


@pytest.mark.parametrize("mode", ["input", "activation"])
def test_a_counterexample_is_negative_alone_too(mode):
    # The output is 3 * 0.1 + 0.3 - 0.2 - 0.4, 0 up to rounding: alone, a
    # point evaluates to +5.55e-17, the exact minimum, but in a batch of
    # sampled points the BLAS kernel for that shape may round it to
    # -5.55e-17.  A counterexample is reported only when it is negative
    # alone, so the search never says falsified here; the bounds of this
    # net sit just below 0, so it cannot verify it either before the
    # deadline.
    layers = [
        AffineLayer(np.array([[1.0, -2.0], [0.5, 1.5]]), np.array([0.1, -0.2])),
        AffineLayer(np.zeros((3, 2)), np.array([0.1, 0.3, 0.2])),
        AffineLayer(np.array([[3.0, 1.0, -1.0]]), np.array([-0.4])),
    ]
    prob = CanonicalProblem(NetworkModel(layers), BoxDomain(np.array([-1.0, -0.5]), np.array([1.0, 0.5])), 1)
    assert exact_verify(prob).min_value >= 0.0
    out = run_bab(prob, BabConfig(mode=mode, clip="both", timeout=0.3))
    assert out.status in ("verified", "unknown") and out.counterexample is None


def test_zero_slope_output_walk_closes_what_the_other_bounds_cannot():
    # relu(x - 0.5) on x in [-1, 1] is unstable but mostly inactive, and
    # the output weighs it +1; relu(x + 2) - relu(x + 2) is 0 but its
    # intervals are [1, 3] each.  With the lower slope 1 the output walk
    # gives x - 0.5 + 0.1 >= -1.4, and with the lower slope 0 it gives
    # 0.1, the exact minimum.  Under fixed(1) slopes only that bound closes
    # the activation-mode root.  (A root policy gives relu(x - 0.5) the
    # slope 0 itself.)
    layers = [
        AffineLayer(np.ones((3, 1)), np.array([-0.5, 2.0, 2.0])),
        AffineLayer(np.array([[1.0, 1.0, -1.0]]), np.array([0.1])),
    ]
    prob = CanonicalProblem(NetworkModel(layers), BoxDomain(np.array([-1.0]), np.array([1.0])), 1)
    assert compute_bounds(prob.model, prob.box).final_lower[0] == pytest.approx(-1.4)
    assert exact_verify(prob).min_value == pytest.approx(0.1)
    out = run_bab(prob, BabConfig(mode="activation", clip="both", timeout=60.0, alpha=AlphaPolicy.fixed()))
    assert out.status == "verified" and out.stats.domains_visited == 1
    assert out.bound == pytest.approx(0.1)


def test_branch_pick_ties_go_to_lowest_layer_and_index(monkeypatch):
    # every unstable neuron scores 0.5; neuron (0, 2) is stable
    rows = 4
    # one domain per row, with the given pins per layer, applied to its
    # bounds as the pass applies a pin's override of 0
    forced = [
        np.array([[0, 0, 0], [1, 0, 0], [1, -1, 0], [1, -1, 0]]),
        np.array([[0, 0], [0, 0], [0, 0], [1, -1]]),
    ]
    bounds = [([[-1.0, -1.0, 1.0]] * rows, [[1.0, 1.0, 2.0]] * rows), ([[-1.0, -2.0]] * rows, [[1.0, 2.0]] * rows)]
    res = BoundsResult(
        layer_bounds=[
            *(LayerBounds(np.where(pins > 0, np.maximum(lo, 0.0), lo), np.where(pins < 0, np.minimum(hi, 0.0), hi))
              for pins, (lo, hi) in zip(forced, bounds)),
            LayerBounds(np.array([[-1.0]] * rows), np.array([[1.0]] * rows)),
        ],
        planes=[],
        final_lower=np.full((rows, 1), -1.0),
        objective_coeffs=[np.array([[-1.0, -1.0, -1.0]] * rows), np.array([[-1.0, -0.5]] * rows)],
    )
    scores = bab._branch_scores(res)
    # flat indices: layer 1's neurons follow layer 0's three
    top, found = bab._branch_picks(scores, 1)
    picks = [k if ok else None for k, ok in zip(top[:, 0].tolist(), found[:, 0])]
    assert picks == [0, 1, 3, None]
    # deeper picks go on in the same order, and stop where -inf starts
    top, found = bab._branch_picks(scores, 4)
    picks = [[k for k, ok in zip(*row) if ok] for row in zip(top.tolist(), found)]
    assert picks == [[0, 1, 3, 4], [1, 3, 4], [3, 4], []]
    # top-1 per layer, pinned neurons left out, ties to the lower index
    monkeypatch.setattr(bab, "CRITICAL_TOPK", 1)
    masks = bab._critical_masks([scores[1:2, :3], scores[1:2, 3:]])
    assert [np.flatnonzero(m[0]).tolist() for m in masks] == [[1], [0]]


def _random_pass(rng, hidden):
    """A bounding pass of a random net over random sub-boxes of its box,
    under random overrides and pins (some of which the bounds rule out),
    each pin an override of 0 on its side: the problem, the batch-form
    result and the pin stacks."""
    problem = random_network_problem(rng, hidden=hidden, rows=int(rng.integers(1, 3)))
    box = problem.box
    batch = int(rng.integers(1, 7))
    a = rng.uniform(box.lower, box.upper, size=(batch, box.dim))
    b = rng.uniform(box.lower, box.upper, size=(batch, box.dim))
    lowers, uppers = np.minimum(a, b), np.maximum(a, b)
    layers = problem.model.layers
    forced = [
        rng.choice([-1, 0, 0, 1], size=(batch, layer.out_dim)) * (rng.uniform() < 0.7)
        for layer in layers[:-1]
    ]
    overrides = [
        (np.where(rng.uniform(size=(batch, layer.out_dim)) < 0.2, -0.1, np.nan),
         np.full((batch, layer.out_dim), np.nan))
        for layer in layers
    ]
    for (lo, hi), pins in zip(overrides, forced):
        lo[pins > 0] = 0.0
        hi[pins < 0] = 0.0
    res, _ = bab.bound_batch(problem.model, lowers, uppers, BabConfig().alpha, overrides, None)
    return problem, res, forced


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(0, 3))
def test_settle_scores_and_picks_equal_the_reference(seed, hidden):
    # Settle scores a pass's rows together from its batch-form bounds and
    # coefficients, picks each activation-mode row's neuron and
    # takes the half-spaces its children add.  Each must be what the
    # list-based scorer and the one-domain half-space helpers give.
    rng = np.random.default_rng(seed)
    problem, res, forced = _random_pass(rng, hidden)
    batch = len(res.final_lower)
    domains = [crown._domain(res, b) for b in range(batch)]
    pins = [[layer_pins[b] for layer_pins in forced] for b in range(batch)]
    widths = [layer.out_dim for layer in problem.model.layers[:-1]]
    depth = int(rng.integers(1, 6))
    scores = bab._branch_scores(res)
    assert scores.shape == (batch, sum(widths))
    if hidden:
        want = np.concatenate(reference_scores(domains, pins), axis=1)
        assert np.array_equal(scores, want)
        want_picks = reference_picks(reference_scores(domains, pins), depth)
    else:
        want_picks = [()] * batch
    picks = bab._branch_picks(scores, depth)
    top, found = (arr.tolist() for arr in picks)
    got = [tuple(k for k, ok in zip(*row) if ok) for row in zip(top, found)]
    assert got == want_picks
    # found picks come first
    assert all(row == sorted(row, reverse=True) for row in found)
    # the half-spaces of each picked neuron (activation mode), row (j, k)
    # for the child whose step j went to side k, and of a lone open row's
    # final plane (input mode), for both sides of the first step
    normals, offsets, adds = bab._child_constraints(BabConfig(mode="activation"), res, picks)
    assert adds.tolist() == [len(p) for p in want_picks]
    for b, p in enumerate(want_picks):
        for j, pick in enumerate(p):
            i, neuron = layer_neuron(problem.model, pick)
            for k, polarity in enumerate((1, -1)):
                cons = split_constraint_to_input(domains[b].planes[i], neuron, polarity)
                assert np.array_equal(normals[b, j, k], cons.normal) and offsets[b, j, k] == cons.offset
    normals, offsets, adds = bab._child_constraints(BabConfig(mode="input"), res, None)
    assert normals.shape[1] == 1
    for b, domain in enumerate(domains):
        unverified = np.flatnonzero(domain.final_lower < 0.0)
        assert adds[b] == (unverified.size == 1)
        if adds[b]:
            cons = final_plane_to_constraint(domain.planes[-1], int(unverified[0]))
            for k in range(2):
                assert np.array_equal(normals[b, 0, k], cons.normal) and offsets[b, 0, k] == cons.offset


@pytest.mark.parametrize("mode", ["input", "activation"])
def test_queued_subdomains_keep_what_settle_computed(monkeypatch, mode):
    # In a search, each queued subdomain keeps its pass row's reference
    # scores and picks, and the half-spaces its children add: in activation
    # mode one pair per pick, as many picks as a round of one parent splits
    # levels (log2 of the batch).
    prob = long_search_problem()
    passes, pushed = [], []
    original_pass, original_push = bab.bound_batch, bab.heappush

    def spy_pass(model, lowers, uppers, policy, overrides, refine, deadline):
        res, empty = original_pass(model, lowers, uppers, policy, overrides, refine, deadline)
        # each domain's flat overrides after the pass, refine tightenings in
        flat = np.concatenate([np.stack(pair, axis=1) for pair in overrides], axis=2)
        passes.append((res, flat, lowers, uppers))
        return res, empty

    def spy_push(heap, item):
        if not passes:
            # input mode queues the root unbounded, before any pass
            assert mode == "input" and item[2].path == () and item[2].planes is None
            assert item[2].scores is None and item[2].child_constraints is None
        else:
            pushed.append((len(passes) - 1, item[2]))
        original_push(heap, item)

    monkeypatch.setattr(bab, "bound_batch", spy_pass)
    monkeypatch.setattr(bab, "heappush", spy_push)
    cfg = BabConfig(mode=mode, clip="both", timeout=60.0)
    depth = cfg.batch.bit_length() - 1
    out = run_bab(prob, cfg)
    assert out.status == "verified"
    assert len(pushed) > 5
    for k, sub in pushed:
        res, overrides, lowers, uppers = passes[k]
        # the row of the pass that bounded ``sub``: two rows of a pass may
        # share their overrides and final planes, but not their boxes
        rows = [b for b in range(len(res.final_lower))
                if np.array_equal(overrides[b], sub.overrides, equal_nan=True)
                and np.array_equal(res.planes[-1].a_low[b], sub.planes.a_low)
                and np.array_equal(lowers[b], sub.lower) and np.array_equal(uppers[b], sub.upper)]
        assert rows
        domain = crown._domain(res, rows[0])
        layer_scores = reference_scores([domain], [override_pins(prob.model, sub.overrides)])
        assert np.array_equal(sub.scores, np.concatenate(layer_scores, axis=1)[0])
        if mode == "activation":
            assert sub.picks == reference_picks(layer_scores, depth)[0]
            want = [[split_constraint_to_input(domain.planes[i], neuron, polarity) for polarity in (1, -1)]
                    for i, neuron in (layer_neuron(prob.model, pick) for pick in sub.picks)]
        else:
            assert sub.picks == ()
            unverified = np.flatnonzero(domain.final_lower < 0.0)
            want = [] if unverified.size != 1 else [
                [final_plane_to_constraint(domain.planes[-1], int(unverified[0]))] * 2]
        if not want:
            assert sub.child_constraints is None
            continue
        normals, offsets = sub.child_constraints
        assert normals.shape[:2] == offsets.shape == (len(want), 2)
        for j, pair in enumerate(want):
            for k, cons in enumerate(pair):
                assert np.array_equal(normals[j, k], cons.normal) and offsets[j, k] == cons.offset
    if mode == "activation":
        assert any(len(sub.picks) == depth for _, sub in pushed)


def test_parents_are_scored_once_per_round(monkeypatch):
    # Branching and complete clipping both read the parents' scores: one
    # scoring of each pass, at settle, must serve them, never one per
    # child.  Input mode without complete clipping scores nothing.  At
    # batch 2 both modes score more than two passes on this net.
    prob = long_search_problem()
    events = []
    score, original_pass = bab._branch_scores, bab.bound_batch

    # each event holds its pass's result, so that no two passes share an id
    def score_spy(res):
        events.append(("score", res, len(res.final_lower)))
        return score(res)

    def pass_spy(model, lowers, uppers, *args):
        out = original_pass(model, lowers, uppers, *args)
        events.append(("pass", out[0], len(lowers)))
        return out

    monkeypatch.setattr(bab, "_branch_scores", score_spy)
    monkeypatch.setattr(bab, "bound_batch", pass_spy)
    for mode in ("input", "activation"):
        events.clear()
        out = run_bab(prob, BabConfig(mode=mode, clip="both", batch=2, timeout=60.0))
        assert out.status == "verified"
        scored = [k for k, event in enumerate(events) if event[0] == "score"]
        assert len(scored) > 2
        # each scoring covers the whole pass just made, and no pass is
        # scored twice
        for k in scored:
            assert events[k - 1][0] == "pass" and events[k - 1][1] is events[k][1]
            assert events[k - 1][2] == events[k][2]
        assert len({id(events[k][1]) for k in scored}) == len(scored)
    events.clear()
    run_bab(prob, BabConfig(mode="input", clip="none", timeout=60.0))
    assert events and all(kind == "pass" for kind, *_ in events)


def test_child_overrides_only_tighten_the_parents(monkeypatch):
    # Every open subdomain is pushed on the heap with its overrides; a
    # child's must be at least as tight as its parent's wherever the
    # parent's are set, so complete clipping's tightenings accumulate.  A
    # round splits a parent several levels deep, so the parent of a queued
    # child is its nearest queued ancestor.
    prob = long_search_problem()
    pushed = {}
    push = bab.heappush

    def spy(heap, item):
        pushed[item[2].path] = item[2].overrides
        push(heap, item)

    monkeypatch.setattr(bab, "heappush", spy)
    out = run_bab(prob, BabConfig(mode="activation", clip="both", timeout=60.0))
    assert out.status == "verified"
    assert len(pushed) > 10
    kept_set = tightened = deep = 0
    width = sum(layer.out_dim for layer in prob.model.layers)
    for path, overrides in pushed.items():
        assert overrides.shape == (2, width)
        if not path:
            continue
        # row 0 holds lower bounds, which tighten upwards; row 1 upper ones
        ancestor = next(path[:k] for k in range(len(path) - 1, -1, -1) if path[:k] in pushed)
        deep += len(path) - len(ancestor) > 1
        for child, parent, sign in zip(overrides, pushed[ancestor], (1.0, -1.0)):
            set_ = ~np.isnan(parent)
            assert not np.isnan(child[set_]).any()
            assert np.all(sign * child[set_] >= sign * parent[set_])
            kept_set += int(set_.sum())
            tightened += int(np.sum(sign * child[set_] > sign * parent[set_]))
    assert kept_set > 0 and tightened > 0 and deep > 0
