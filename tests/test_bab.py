import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from clipverify import bab
from clipverify import (
    AffineLayer,
    BabConfig,
    BoxDomain,
    BranchProbe,
    CanonicalProblem,
    ConstraintSet,
    NetworkModel,
    Subdomain,
    babsr_intercept_score,
    branch_activation,
    branch_input,
    compute_bounds,
    exact_verify,
    final_plane_to_constraint,
    run_bab,
    split_constraint_to_input,
)

from conftest import quick_child_bound, random_network_problem, toy_problem


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
    assert lo.depth == 1 and lo.path == (0,) and hi.path == (1,)
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
    res = compute_bounds(problem.model, problem.box)
    sub = replace(Subdomain.root(problem), bound=-1.0, planes=res)
    active, inactive = branch_activation(sub, (0, 0))
    assert active.forced[0].tolist() == [1, 0]
    assert inactive.forced[0].tolist() == [-1, 0]
    assert sub.forced[0].tolist() == [0, 0]  # the parent keeps its pins
    # branching only pins; the search adds the split half-spaces
    assert active.constraints.size == 0
    assert inactive.constraints.size == 0
    with pytest.raises(ValueError):
        branch_activation(active, (0, 0))  # already assigned
    for clip in ("none", "relaxed", "complete", "both"):
        cfg = BabConfig(mode="activation", clip=clip)
        decision, children = bab._branch(cfg, sub, (0, 0), None)
        assert decision == (0, 0)
        assert [child.forced[0].tolist() for child in children] == [[1, 0], [-1, 0]]
        for child, polarity in zip(children, (1, -1)):
            if clip == "none":
                assert child.constraints.size == 0
                continue
            want = split_constraint_to_input(res.planes[0], 0, polarity)
            assert child.constraints.size == 1
            np.testing.assert_array_equal(child.constraints.normals[0], want.normal)
            assert child.constraints.offsets[0] == want.offset
    assert sub.constraints.size == 0  # the parent keeps its constraints


def test_branch_activation_requires_unstable(problem):
    res = compute_bounds(problem.model, problem.box)
    # fake stability by overriding the cached bounds
    res.layer_bounds[0].lower[:] = 1.0
    sub = replace(Subdomain.root(problem), bound=-1.0, planes=res)
    with pytest.raises(ValueError):
        branch_activation(sub, (0, 0))


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


def test_sequential_clip_options_run():
    prob = shifted_toy(1.1)
    for reorder in (False, True):
        cfg = BabConfig(
            mode="input", clip="both", sequential_clip=True, reorder=reorder, timeout=30.0
        )
        out = run_bab(prob, cfg)
        assert out.status == "verified"


def test_probe_records_decisions_and_intervals():
    prob = shifted_toy(1.02)
    probe = BranchProbe()
    out = run_bab(prob, BabConfig(mode="input", clip="none", batch=1, timeout=30.0), probe)
    assert out.status == "verified"
    assert () in probe.intervals
    for path, decision in probe.decisions.items():
        assert isinstance(decision, tuple) and len(decision) == 2


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
    """Append ``(parents, children, survivors)`` of every round's screen to
    ``rounds``."""
    screen = bab._screen_children

    def spy(problem, cfg, parents, children, rng):
        out = screen(problem, cfg, parents, children, rng)
        rounds.append((parents, children, out[0]))
        return out

    monkeypatch.setattr(bab, "_screen_children", spy)


def test_bounded_children_passed_every_screen(monkeypatch):
    # A child reaches a bounding pass only if relaxed clipping left its box
    # nonempty and its parent's final planes cannot close it.  On this net
    # the plane screen closes some activation-mode children, so the check
    # has something to catch in both modes.
    prob = random_network_problem(np.random.default_rng(21))
    rounds, passes = [], []
    _spy_screens(monkeypatch, rounds)
    original = bab.bound_pass

    def spy(model, lowers, uppers, *args):
        passes.append((lowers, uppers))
        return original(model, lowers, uppers, *args)

    monkeypatch.setattr(bab, "bound_pass", spy)
    for mode in ("input", "activation"):
        rounds.clear()
        passes.clear()
        out = run_bab(prob, BabConfig(mode=mode, clip="both", timeout=60.0))
        assert out.status == "verified"
        screened = [(parents, kept) for parents, _, kept in rounds if kept is not None]
        assert screened
        # after the root's, each pass bounds one round's survivors as the
        # screen left them
        assert len(passes) == 1 + len(screened)
        for (parents, (keep, lowers, uppers, _)), bounded in zip(screened, passes[1:]):
            assert bounded[0] is lowers and bounded[1] is uppers
            for j, lo, up in zip(keep, lowers, uppers):
                box = BoxDomain(lo, up)
                assert not box.is_empty
                assert quick_child_bound(parents[j // 2].planes.planes[-1], box) < 0.0


def _pass_arrays(args, out):
    """Every array a bounding pass takes in (corners, pin and override
    stacks) or hands out (its batch-form result)."""
    _, lowers, uppers, _, forced, overrides, _ = args
    res, _ = out
    arrays = [lowers, uppers, *forced, *(arr for pair in overrides for arr in pair)]
    arrays += [arr for lb in res.layer_bounds for arr in (lb.lower, lb.upper)]
    arrays += [arr for p in res.planes for arr in (p.a_low, p.c_low, p.a_up, p.c_up)]
    return arrays + [res.final_lower, *res.objective_coeffs]


def _queued_arrays(sub):
    """The arrays a queued subdomain got from the pass that bounded it.  Its
    pins and constraints are left out: children share those with their
    parent by design, and no pass writes them."""
    kept = sub.planes
    arrays = [sub.lower, sub.upper, kept.final_lower]
    arrays += [arr for pair in sub.overrides for arr in pair]
    arrays += [arr for lb in kept.layer_bounds for arr in (lb.lower, lb.upper)]
    for p in kept.planes:
        if p is not None:
            arrays += [arr for arr in (p.a_low, p.c_low, p.a_up, p.c_up) if arr is not None]
    return arrays + list(kept.objective_coeffs)


@pytest.mark.parametrize("mode, clip", [("input", "none"), ("input", "both"),
                                        ("activation", "both")])
def test_queued_subdomains_share_no_memory(monkeypatch, mode, clip):
    # A queued subdomain used to keep views of its whole bounding pass: the
    # planes, bounds and stacks of every domain and layer stayed alive as
    # long as any one of them was queued.
    prob = random_network_problem(np.random.default_rng(15))
    passes, pushed = [], []
    original_pass, original_push = bab.bound_pass, bab.heappush

    def spy_pass(*args):
        out = original_pass(*args)
        passes.append(_pass_arrays(args, out))
        pushed.append([])
        return out

    def spy_push(heap, item):
        pushed[-1].append(item[2])
        original_push(heap, item)

    monkeypatch.setattr(bab, "bound_pass", spy_pass)
    monkeypatch.setattr(bab, "heappush", spy_push)
    out = run_bab(prob, BabConfig(mode=mode, clip=clip, timeout=60.0))
    assert out.status == "verified"
    assert sum(len(subs) > 1 for subs in pushed) >= 2
    hidden = prob.model.num_layers - 1
    for batch_arrays, subs in zip(passes, pushed):
        kept = [_queued_arrays(sub) for sub in subs]
        for i, arrays in enumerate(kept):
            # only what later rounds read: the final lower planes always,
            # bounds and coefficients to score it, hidden planes to pin
            res = subs[i].planes
            assert res.planes[-1].a_up is None and res.planes[-1].c_up is None
            assert len(res.layer_bounds) == len(res.objective_coeffs) == (
                hidden if clip == "both" else 0)
            assert all((p is None) == (mode == "input") for p in res.planes[:-1])
            for arr in arrays:
                assert not any(np.shares_memory(arr, other) for other in batch_arrays)
                for others in kept[i + 1:]:
                    assert not any(np.shares_memory(arr, other) for other in others)


@pytest.mark.parametrize("rows", [[1, 6, 11], list(range(16))])
def test_queued_state_gathers_in_bounded_blocks(rows):
    # Gathering used to join every row of every kept array, the closed
    # domains' included, and then copy each queued row: a settle of 16
    # wide domains held three times what it keeps when 3 were queued, and
    # twice when all 16 were.  Gathered in blocks, it holds at most two
    # blocks (or rows) beyond what it keeps.
    rng = np.random.default_rng(4)
    widths = (8, 128, 128, 128, 1)
    model = NetworkModel([
        AffineLayer(rng.normal(size=(w_out, w_in)) / np.sqrt(w_in), 0.3 * rng.normal(size=w_out))
        for w_in, w_out in zip(widths, widths[1:])
    ])
    root = Subdomain.root(CanonicalProblem(model, BoxDomain(np.full(8, -0.5), np.full(8, 0.5)), 1))
    batch = 16
    forced = [np.array([pins] * batch) for pins in root.forced]
    overrides = [(np.array([lo] * batch), np.array([hi] * batch)) for lo, hi in root.overrides]
    lowers = rng.uniform(-0.5, 0.0, size=(batch, 8))
    uppers = lowers + 0.5
    res, _ = bab.bound_pass(model, lowers, uppers, BabConfig().alpha, forced, overrides, None)
    tracemalloc.start()
    try:
        # activation mode with clipping keeps the most: bounds,
        # coefficients and every layer's planes
        state = bab._queued_state(res, np.array(rows), lowers, uppers, overrides, True, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(state) == len(rows)
    for (lower, upper, kept_overrides, kept), b in zip(state, rows):
        got = [lower, upper, *(arr for pair in kept_overrides for arr in pair), kept.final_lower]
        want = [lowers[b], uppers[b], *(arr[b] for pair in overrides for arr in pair),
                res.final_lower[b]]
        for lb, ref in zip(kept.layer_bounds, res.layer_bounds):
            got += [lb.lower, lb.upper]
            want += [ref.lower[b], ref.upper[b]]
        for p, ref in zip(kept.planes[:-1], res.planes):
            got += [p.a_low, p.c_low, p.a_up, p.c_up]
            want += [ref.a_low[b], ref.c_low[b], ref.a_up[b], ref.c_up[b]]
        got += [kept.planes[-1].a_low, kept.planes[-1].c_low, *kept.objective_coeffs]
        want += [res.planes[-1].a_low[b], res.planes[-1].c_low[b],
                 *(coeffs[b] for coeffs in res.objective_coeffs)]
        assert len(got) == len(want)
        assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))
    kept = sum(lower.base.nbytes for lower, *_ in state)
    block = max(8 * bab.GATHER_BLOCK, kept // len(rows))
    assert peak <= kept + 2 * block + 64 * 2**10, (peak, kept)


def _cancelling_problem() -> CanonicalProblem:
    """f(x) = delta + |x| - 0.5 |x| on a box straddling 0: true minimum
    delta, but the cancelling ReLU pairs make the relaxation loose, so input
    bisection has to go about 20 levels deep before the bound clears 0."""
    w1 = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    w2 = np.array([[1.0, 1.0, -0.5, -0.5]])
    model = NetworkModel([AffineLayer(w1, np.zeros(4)), AffineLayer(w2, np.array([1e-6]))])
    return CanonicalProblem(model, BoxDomain(np.array([-1.0]), np.array([1.3])), 1)


def test_input_mode_harvested_constraints_stay_within_budget(monkeypatch):
    prob = _cancelling_problem()
    rounds = []
    _spy_screens(monkeypatch, rounds)
    out = run_bab(prob, BabConfig(mode="input", clip="both", timeout=30.0))
    assert out.status == "verified"
    assert out.stats.max_depth > bab.CONSTRAINT_BUDGET
    # the constraint counts of the children that were bounded
    sizes = [
        children[j].constraints.size
        for _, children, kept in rounds
        if kept is not None
        for j in kept[0]
    ]
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
        bounded = [children[j] for _, children, kept in rounds if kept is not None for j in kept[0]]
        assert bounded, mode
        assert all(child.constraints.size == 0 for child in bounded), mode


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
    for field in ({"topk": 2.5}, {"batch": 2.0}, {"passes": 1.5}, {"seed": -1}, {"seed": 0.5}):
        with pytest.raises(ValueError):
            BabConfig(**field)
    # numpy integers are integers
    BabConfig(topk=np.int64(3), batch=np.int32(2), passes=np.int64(1), seed=np.uint8(5))


def test_config_rejects_bool_counts():
    # bool is an int subclass, so these used to be accepted and kept as bools
    for name in ("topk", "batch", "passes", "seed"):
        for value in (True, False):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                BabConfig(**{name: value})


def test_nan_timeout_rejected():
    # every deadline comparison with NaN is False, so the run would never stop
    with pytest.raises(ValueError):
        BabConfig(timeout=float("nan"))


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


def test_branch_pick_ties_go_to_lowest_layer_and_index():
    from clipverify import BoundsResult, LayerBounds

    # every unstable neuron scores 0.5; neuron (0, 2) is stable
    info = BoundsResult(
        layer_bounds=[
            LayerBounds(np.array([-1.0, -1.0, 1.0]), np.array([1.0, 1.0, 2.0])),
            LayerBounds(np.array([-1.0, -2.0]), np.array([1.0, 2.0])),
            LayerBounds(np.array([-1.0]), np.array([1.0])),
        ],
        planes=[],
        final_lower=np.array([-1.0]),
        objective_coeffs=[np.array([-1.0, -1.0, -1.0]), np.array([-1.0, -0.5])],
    )
    nan = np.full(3, np.nan)

    def sub(first, second):
        """A subdomain bounded by ``info`` with the given pins per layer."""
        forced = [np.array(first), np.array(second)]
        overrides = [(nan, nan), (nan[:2], nan[:2]), (nan[:1], nan[:1])]
        return Subdomain(
            np.zeros(1), np.ones(1), forced, overrides, ConstraintSet.empty(1), -1.0,
            planes=info,
        )

    subs = [
        sub([0, 0, 0], [0, 0]),
        sub([1, 0, 0], [0, 0]),
        sub([1, -1, 0], [0, 0]),
        sub([1, -1, 0], [1, -1]),
    ]
    scores = bab._branch_scores(subs)
    assert bab._pick_branch_neurons(scores) == [(0, 0), (0, 1), (1, 0), None]
    # top-1 per layer, pinned neurons left out, ties to the lower index
    masks = bab._critical_masks(BabConfig(topk=1), [layer[1:2] for layer in scores])
    assert [np.flatnonzero(m[0]).tolist() for m in masks] == [[1], [0]]


def test_parents_are_scored_once_per_round(monkeypatch):
    # Branching and complete clipping both read the parents' scores: one
    # scoring of exactly the round's parents must serve them, never one
    # per child.  Input mode without complete clipping scores nothing.
    prob = random_network_problem(np.random.default_rng(21))
    events = []
    score, screen = bab._branch_scores, bab._screen_children

    def score_spy(subs):
        events.append(("score", [id(sub) for sub in subs]))
        return score(subs)

    def screen_spy(problem, cfg, parents, children, rng):
        events.append(("screen", [id(sub) for sub in parents]))
        return screen(problem, cfg, parents, children, rng)

    monkeypatch.setattr(bab, "_branch_scores", score_spy)
    monkeypatch.setattr(bab, "_screen_children", screen_spy)
    for mode in ("input", "activation"):
        events.clear()
        out = run_bab(prob, BabConfig(mode=mode, clip="both", batch=4, timeout=60.0))
        assert out.status == "verified"
        rounds = len(events) // 2
        assert rounds > 2
        assert [kind for kind, _ in events] == ["score", "screen"] * rounds
        for k in range(rounds):
            assert events[2 * k][1] == events[2 * k + 1][1]
    events.clear()
    run_bab(prob, BabConfig(mode="input", clip="none", timeout=60.0))
    assert events and all(kind == "screen" for kind, _ in events)


def test_child_overrides_only_tighten_the_parents(monkeypatch):
    # Every open subdomain is pushed on the heap with its overrides; a
    # child's must be at least as tight as its parent's wherever the
    # parent's are set, so complete clipping's tightenings accumulate.
    prob = random_network_problem(np.random.default_rng(15))
    pushed = {}
    push = bab.heappush

    def spy(heap, item):
        pushed[item[2].path] = item[2].overrides
        push(heap, item)

    monkeypatch.setattr(bab, "heappush", spy)
    out = run_bab(prob, BabConfig(mode="activation", clip="both", timeout=60.0))
    assert out.status == "verified"
    assert len(pushed) > 10
    kept_set = tightened = 0
    for path, overrides in pushed.items():
        if not path:
            continue
        for (lo, hi), (par_lo, par_hi) in zip(overrides, pushed[path[:-1]]):
            for child, parent, sign in ((lo, par_lo, 1.0), (hi, par_hi, -1.0)):
                set_ = ~np.isnan(parent)
                assert not np.isnan(child[set_]).any()
                assert np.all(sign * child[set_] >= sign * parent[set_])
                kept_set += int(set_.sum())
                tightened += int(np.sum(sign * child[set_] > sign * parent[set_]))
    assert kept_set > 0 and tightened > 0
