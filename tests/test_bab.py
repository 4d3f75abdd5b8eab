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
    SplitAssignment,
    Subdomain,
    babsr_intercept_score,
    branch_activation,
    branch_input,
    compute_bounds,
    exact_verify,
    final_plane_to_constraint,
    run_bab,
    select_topk,
    split_constraint_to_input,
)

from conftest import random_network_problem, toy_problem


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


def test_select_topk_ordering_and_ties():
    scores = np.array([0.5, 0.9, 0.9, 0.1])
    idx = select_topk(scores, 2)
    np.testing.assert_array_equal(idx, [1, 2])  # tie resolved to lower index
    idx = select_topk(scores, 10, eligible=np.array([True, False, True, True]))
    np.testing.assert_array_equal(idx, [2, 0, 3])


def test_split_assignment_validation():
    with pytest.raises(ValueError):
        SplitAssignment(0, 0, 2)


def test_split_constraints_are_necessary_conditions(problem):
    res = compute_bounds(problem.model, problem.box)
    planes = res.planes[0]
    rng = np.random.default_rng(6)
    pts = rng.uniform(problem.box.lower, problem.box.upper, size=(2000, 2))
    pre = pts @ problem.model.layers[0].weights.T + problem.model.layers[0].bias
    for j in range(2):
        for pol in (1, -1):
            cons = split_constraint_to_input(planes, SplitAssignment(0, j, pol))
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
    sub = Subdomain(problem.box, {}, ConstraintSet.empty(2), -np.inf)
    lo, hi, cut = branch_input(sub)
    assert cut == (0, 0.5)  # widths 3 and 3: tie goes to dimension 0
    assert lo.box.upper[0] == 0.5 and hi.box.lower[0] == 0.5
    assert lo.depth == 1 and lo.path == (0,) and hi.path == (1,)


def test_branch_input_forced_cut(problem):
    sub = Subdomain(problem.box, {}, ConstraintSet.empty(2), -np.inf)
    lo, hi, cut = branch_input(sub, 1, at=0.25)
    assert cut == (1, 0.25)
    assert lo.box.upper[1] == 0.25
    # out-of-box cut clamps
    _, _, cut = branch_input(sub, 1, at=99.0)
    assert cut == (1, 1.0)


def test_branch_input_zero_volume_raises():
    box = BoxDomain(np.zeros(2), np.zeros(2))
    sub = Subdomain(box, {}, ConstraintSet.empty(2), -np.inf)
    with pytest.raises(ValueError):
        branch_input(sub)


def test_branch_activation_children(problem):
    res = compute_bounds(problem.model, problem.box)
    sub = Subdomain(problem.box, {}, ConstraintSet.empty(2), -1.0, planes=res)
    active, inactive = branch_activation(sub, (0, 0))
    assert active.splits == {(0, 0): 1}
    assert inactive.splits == {(0, 0): -1}
    assert active.constraints.size == 1
    assert inactive.constraints.size == 1
    with pytest.raises(ValueError):
        branch_activation(active, (0, 0))  # already assigned


def test_branch_activation_requires_unstable(problem):
    res = compute_bounds(problem.model, problem.box)
    # fake stability by overriding the cached bounds
    res.layer_bounds[0].lower[:] = 1.0
    sub = Subdomain(problem.box, {}, ConstraintSet.empty(2), -1.0, planes=res)
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


def test_bounded_children_passed_every_screen(monkeypatch):
    # A child reaches a bounding pass only if relaxed clipping left its box
    # nonempty and its parent's final planes cannot close it.  On this net
    # the plane screen closes some activation-mode children, so the check
    # has something to catch in both modes.
    prob = random_network_problem(np.random.default_rng(21))
    seen = []
    original = bab._bound_nodes

    def spy(problem, cfg, subs):
        seen.extend(subs)
        return original(problem, cfg, subs)

    monkeypatch.setattr(bab, "_bound_nodes", spy)
    for mode in ("input", "activation"):
        seen.clear()
        out = run_bab(prob, BabConfig(mode=mode, clip="both", timeout=60.0))
        assert out.status == "verified"
        children = [sub for sub in seen if sub.planes is not None]
        assert children
        for sub in children:
            assert not sub.box.is_empty
            assert bab._quick_child_bound(sub.planes.planes[-1], sub.box) < 0.0


def test_input_mode_harvested_constraints_stay_within_budget(monkeypatch):
    # f(x) = delta + |x| - 0.5 |x| on a box straddling 0: true minimum delta,
    # but the cancelling ReLU pairs make the relaxation loose, so input
    # bisection has to go about 20 levels deep before the bound clears 0.
    w1 = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    w2 = np.array([[1.0, 1.0, -0.5, -0.5]])
    model = NetworkModel([AffineLayer(w1, np.zeros(4)), AffineLayer(w2, np.array([1e-6]))])
    prob = CanonicalProblem(model, BoxDomain(np.array([-1.0]), np.array([1.3])), 1)
    sizes = []
    original = bab._bound_nodes

    def spy(problem, cfg, subs):
        sizes.extend(sub.constraints.size for sub in subs)
        return original(problem, cfg, subs)

    monkeypatch.setattr(bab, "_bound_nodes", spy)
    out = run_bab(prob, BabConfig(mode="input", clip="both", timeout=30.0))
    assert out.status == "verified"
    assert out.stats.max_depth > bab.CONSTRAINT_BUDGET
    assert max(sizes) == bab.CONSTRAINT_BUDGET


def test_config_validation():
    with pytest.raises(ValueError):
        BabConfig(mode="sideways")
    with pytest.raises(ValueError):
        BabConfig(clip="maybe")
    with pytest.raises(ValueError):
        BabConfig(batch=0)
    with pytest.raises(ValueError):
        BabConfig(timeout=-1.0)


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
    box = BoxDomain(np.zeros(1), np.ones(1))

    def pick(splits):
        sub = Subdomain(box, splits, ConstraintSet.empty(1), -1.0, planes=info)
        return bab._pick_branch_neuron(sub)

    assert pick({}) == (0, 0)
    assert pick({(0, 0): 1}) == (0, 1)
    assert pick({(0, 0): 1, (0, 1): -1}) == (1, 0)
    assert pick({(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 1): -1}) is None
    assert bab._pick_branch_neuron(Subdomain(box, {}, ConstraintSet.empty(1), -1.0)) is None
    crit = bab._critical_neurons(BabConfig(topk=1), info, {(0, 0): 1})
    assert {i: idx.tolist() for i, idx in crit.items()} == {0: [1], 1: [0]}
