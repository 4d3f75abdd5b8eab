"""The shape of a round.

A round that pops P splittable parents, at most ``batch``, splits each one
d levels deep, d the largest with ``P * 2**d <= batch`` (at least 1), so
that a round with few open parents still fills its bounding pass, and one
with more than ``batch / 2`` splits each parent once.  No pass bounds more
than ``2 * batch`` children.  At ``batch=1`` a round still has at most two
children.

In input mode the root is queued unbounded, so the first round bisects it
d = log2(batch) levels deep (at least 1) and the first pass bounds its
descendants, and the root with them as row 0: a root whose bound clears
ends the search, and one that does not is dropped.  A point root is
evaluated exactly and nothing is bounded.  The
children are the boxes d levels of ``branch_input`` give, each adding its
parent's harvested plane; a node narrower than ``POINT_RADIUS_TOL`` is not
split further; and ``BranchProbe`` records and replays the cut at every
split node, the intermediate ones too.  Activation mode bounds the root alone
first, because its picks come from the root's scores.

In activation mode level j pins the parent's pick j, its j-th best neuron
by the scores of its own pass, so each child adds the pins on its path and,
per pin, the half-space the pin implies; a parent with fewer picks than d
stops at the depth it has, and one with none is bisected once.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from clipverify import (
    AffineLayer,
    AlphaPolicy,
    BabConfig,
    BoxDomain,
    BranchProbe,
    CanonicalProblem,
    ConstraintSet,
    LinearConstraint,
    NetworkModel,
    Subdomain,
    bab,
    branch_input,
    compute_bounds,
    run_bab,
)

from conftest import (
    layer_neuron,
    long_search_problem,
    override_pins,
    random_network_problem,
    round_owner,
    split_constraint_to_input,
    spy_screens,
    toy_problem,
)


def _problems() -> list:
    """Verified nets whose searches take rounds of varying width: two short
    seeded ones and the long search."""
    return [random_network_problem(np.random.default_rng(seed)) for seed in (268, 406)] + [long_search_problem()]


def _levels(parents: int, batch: int) -> int:
    """How deep a round with ``parents`` parents bisects each one: the
    largest d with ``parents * 2**d <= batch``, at least 1."""
    return max([1] + [d for d in range(1, batch + 1) if parents * 2**d <= batch])


def _spy_rounds(monkeypatch, rounds, passes):
    """Append ``(parents, children, owner, survivors)`` of every round's
    screen to ``rounds`` and the size of every bounding pass to
    ``passes``.  The children are shallow copies as the screen left them:
    a queued child's fields are replaced by what its pass computed, its
    box by the clipped one."""
    original_pass = bab.bound_batch

    def pass_spy(model, lowers, *args):
        passes.append(len(lowers))
        return original_pass(model, lowers, *args)

    spy_screens(monkeypatch, lambda parents, children, owner, out: rounds.append(
        (parents, [copy.copy(child) for child in children], owner, out[0])))
    monkeypatch.setattr(bab, "bound_batch", pass_spy)


@pytest.mark.parametrize("batch", [1, 2, 3, 8, 16, 64])
def test_levels_is_at_least_one(batch):
    # with more than batch / 2 parents no depth d >= 1 has P * 2**d <=
    # batch; a round still splits each parent once
    cfg = BabConfig(batch=batch)
    for parents in range(1, batch + 1):
        assert bab._levels(cfg, parents) == _levels(parents, batch) >= 1
    assert bab._levels(cfg, batch) == bab._levels(cfg, batch // 2 + 1) == 1


@pytest.mark.parametrize("mode", ["input", "activation"])
def test_wide_rounds_split_each_parent_once(monkeypatch, mode):
    # A round of P parents, batch / 2 < P <= batch, splits each one once and
    # bounds all its surviving children, up to 2P, in one pass; no pass
    # bounds more than 2 batch children, and no parent is split deeper
    # than P * 2**d <= batch allows.
    events = []
    original_pass = bab.bound_batch

    def pass_spy(model, lowers, *args):
        events.append(("pass", len(lowers)))
        return original_pass(model, lowers, *args)

    spy_screens(monkeypatch, lambda parents, children, owner, out: events.append(
        ("round", parents, list(children), owner, out[0])))
    monkeypatch.setattr(bab, "bound_batch", pass_spy)
    wide = 0
    for batch in (4, 8, 16):
        for prob in _problems():
            events.clear()
            out = run_bab(prob, BabConfig(mode=mode, clip="relaxed", batch=batch, timeout=60.0))
            assert out.status == "verified"
            for k, event in enumerate(events):
                if event[0] == "pass":
                    assert event[1] <= 2 * batch
                    continue
                _, parents, children, owner, survivors = event
                assert len(parents) <= batch
                depths = [len(child.path) - len(parents[p].path) for child, p in zip(children, owner)]
                assert all(d == 1 or len(parents) * 2**d <= batch for d in depths)
                if 2 * len(parents) <= batch:
                    continue
                wide += 1
                assert depths == [1] * len(children) == [1] * (2 * len(parents))
                assert owner.tolist() == [p for p in range(len(parents)) for _ in range(2)]
                if survivors is not None:
                    assert events[k + 1] == ("pass", len(survivors[0]))
    assert wide


def _descendants(sub, levels):
    """``sub``'s descendants ``levels`` bisections of the widest coordinate
    down, in search order, stopping at nodes narrower than a point."""
    nodes = [sub]
    for _ in range(levels):
        nodes = [child for node in nodes for child in (
            (node,) if float((0.5 * (node.upper - node.lower)).max()) < bab.POINT_RADIUS_TOL
            else branch_input(node)[:2])]
    return nodes


@pytest.mark.parametrize("batch", [1, 2, 3, 8, 16])
def test_input_rounds_fill_the_pass(monkeypatch, batch):
    rounds, passes = [], []
    _spy_rounds(monkeypatch, rounds, passes)
    widths, sizes = set(), []
    for prob in _problems():
        passes.clear()
        out = run_bab(prob, BabConfig(mode="input", clip="both", batch=batch, timeout=60.0))
        assert out.status == "verified"
        # the first pass bounds the root too, as its row 0
        sizes += [passes[0] - 1] + passes[1:]
    assert rounds
    for parents, children, owner, _ in rounds:
        per_parent = 2 ** _levels(len(parents), batch)
        assert len(children) == len(parents) * per_parent
        assert owner.tolist() == [p for p in range(len(parents)) for _ in range(per_parent)]
        widths.add(len(parents))
        if batch == 1:
            assert len(children) <= 2
    # no pass bounds more than 2 batch children, and some round had fewer
    # parents than a batch
    assert max(sizes) <= 2 * batch
    if batch > 1:
        assert min(widths) < batch


def test_children_are_the_bisection_descendants(monkeypatch):
    # each child is the box d levels of branch_input give, and takes its
    # parent's last constraints plus the parent's harvested plane
    rounds, passes, tagged = [], [], []
    _spy_rounds(monkeypatch, rounds, passes)
    for batch in (8, 16):
        for prob in _problems():
            rounds.clear()
            run_bab(prob, BabConfig(mode="input", clip="both", batch=batch, timeout=60.0))
            tagged += [(batch, *entry) for entry in rounds]
    deep = checked = 0
    for batch, parents, children, owner, survivors in tagged:
        levels = _levels(len(parents), batch)
        deep += levels > 1
        for p, parent in enumerate(parents):
            got = [child for child, o in zip(children, owner) if o == p]
            want = _descendants(parent, levels)
            assert [child.path for child in got] == [child.path for child in want]
            assert [len(child.path) for child in got] == [len(parent.path) + levels] * len(want)
            for child, ref in zip(got, want):
                assert np.array_equal(child.lower, ref.lower) and np.array_equal(child.upper, ref.upper)
        if survivors is None or survivors[3] is None:
            continue
        keep, _, _, (normals, offsets, sizes) = survivors
        for i, j in enumerate(keep):
            parent = parents[owner[j]]
            own_normals, own_offsets = parent.normals, parent.offsets
            if parent.child_constraints is not None:
                added_normals, added_offsets = parent.child_constraints
                # input mode harvests one plane for every child, on both
                # sides of the first step
                assert added_normals.shape[:2] == added_offsets.shape == (1, 2)
                assert np.array_equal(added_normals[0, 0], added_normals[0, 1])
                own_normals = np.vstack([own_normals, added_normals[0, :1]])
                own_offsets = np.concatenate([own_offsets, added_offsets[0, :1]])
            own_normals = own_normals[-bab.CONSTRAINT_BUDGET:]
            own_offsets = own_offsets[-bab.CONSTRAINT_BUDGET:]
            assert sizes[i] == len(own_offsets)
            assert np.array_equal(normals[i, :sizes[i]], own_normals)
            assert np.array_equal(offsets[i, :sizes[i]], own_offsets)
            checked += 1
    assert deep and checked


def test_nodes_narrower_than_a_point_are_not_split_further(monkeypatch):
    # A box of radii (1.5, 1.2) * POINT_RADIUS_TOL: its root is split, and
    # so is each child (radii 0.75 and 1.2), but the grandchildren are
    # narrower than a point, so a round of batch 16 gives 4 children, not 16.
    # The net is negative on the whole box, so the round's samples falsify.
    radius = np.array([1.5, 1.2]) * bab.POINT_RADIUS_TOL
    model = NetworkModel([AffineLayer(np.eye(2), np.zeros(2)), AffineLayer(np.ones((1, 2)), np.array([-1.0]))])
    prob = CanonicalProblem(model, BoxDomain(np.zeros(2), 2.0 * radius), 1)
    rounds, passes = [], []
    _spy_rounds(monkeypatch, rounds, passes)
    out = run_bab(prob, BabConfig(mode="input", clip="both", batch=16, timeout=60.0))
    assert out.status == "falsified"
    (parents, children, owner, _), = rounds
    assert len(parents) == 1 and len(children) == 4
    assert [child.path for child in children] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for child, ref in zip(children, _descendants(parents[0], 2)):
        assert np.array_equal(child.lower, ref.lower) and np.array_equal(child.upper, ref.upper)
        assert float((0.5 * (child.upper - child.lower)).max()) < bab.POINT_RADIUS_TOL


def test_probe_records_and_replays_every_deep_cut():
    prob = long_search_problem()
    cfg = BabConfig(mode="input", clip="both", batch=16, timeout=60.0)
    probe0 = BranchProbe()
    out0 = run_bab(prob, cfg, probe0)
    assert out0.status == "verified" and len(out0.stats.bound_history) > 1
    # the cuts at intermediate nodes, split within a round and never
    # bounded, are recorded too: those below bounded parents, the root
    # among them (its first round's pass bounds it with its descendants);
    # every bounded node was cut from recorded nodes all the way down
    inner = set(probe0.decisions) - set(probe0.intervals)
    below = [path for path in inner if any(path[:k] in probe0.intervals for k in range(len(path)))]
    assert () in probe0.decisions and () in probe0.intervals and below
    assert any(len(path) == 1 for path in below)
    for path in probe0.intervals:
        assert all(path[:k] in probe0.decisions for k in range(len(path)))
    # replaying the recorded cuts reproduces the run
    probe1 = BranchProbe(replay=dict(probe0.decisions))
    out1 = run_bab(prob, cfg, probe1)
    assert probe1.decisions == probe0.decisions
    assert set(probe1.intervals) == set(probe0.intervals)
    assert out1.stats.domains_visited == out0.stats.domains_visited
    assert out1.stats.bound_history == out0.stats.bound_history
    # and the replay takes a moved cut at an intermediate node
    path = min(below, key=len)
    dim, at = probe0.decisions[path]
    moved = {**probe0.decisions, path: (dim, at + 1e-9)}
    probe2 = BranchProbe(replay=moved)
    run_bab(prob, cfg, probe2)
    assert probe2.decisions[path] == (dim, at + 1e-9)


def _spy_passes(monkeypatch, passes):
    """Append the ``(lowers, uppers)`` corners of every bounding pass to
    ``passes``."""
    original = bab.bound_batch

    def spy(model, lowers, uppers, *args):
        passes.append((lowers, uppers))
        return original(model, lowers, uppers, *args)

    monkeypatch.setattr(bab, "bound_batch", spy)


def _spy_pushes(monkeypatch, pushed):
    """Append the path of every subdomain queued to ``pushed``."""
    push = bab.heappush

    def spy(heap, item):
        pushed.append(item[2].path)
        push(heap, item)

    monkeypatch.setattr(bab, "heappush", spy)


@pytest.mark.parametrize("batch", [1, 2, 3, 8, 16])
def test_input_mode_first_pass_bounds_the_roots_descendants(monkeypatch, batch):
    # The root is queued unbounded: the first round bisects it d levels
    # deep, d the largest with 2**d <= batch (at least 1), and the first pass bounds
    # the 2**d descendants the screen kept.  Without planes or constraints
    # nothing closes them, and the samples of these verified nets find
    # nothing, so it keeps all of them.  No pass bounds the root alone: the
    # first pass bounds it as row 0, and these roots, whose bounds do not
    # clear, are dropped, not queued.
    rounds, passes, pushed = [], [], []
    _spy_rounds(monkeypatch, rounds, [])
    _spy_passes(monkeypatch, passes)
    _spy_pushes(monkeypatch, pushed)
    for prob in _problems():
        rounds.clear()
        passes.clear()
        pushed.clear()
        out = run_bab(prob, BabConfig(mode="input", clip="both", batch=batch, timeout=60.0))
        assert out.status == "verified"
        (root,), children, owner, survivors = rounds[0]
        assert root.path == () and root.bound == -np.inf
        assert root.planes is None and root.scores is None and root.child_constraints is None
        levels = _levels(1, batch)
        want = _descendants(Subdomain.root(prob), levels)
        assert len(children) == len(want) == 2**levels
        assert owner.tolist() == [0] * len(want)
        keep, lowers, uppers, stacks = survivors
        assert keep.tolist() == list(range(len(want))) and stacks is None
        for child, ref, lo, up in zip(children, want, lowers, uppers):
            assert child.path == ref.path and len(child.path) == levels
            assert np.array_equal(lo, ref.lower) and np.array_equal(up, ref.upper)
        # the first pass is the first round's: one pass per round that kept
        # children, none before, and its row 0 is the root
        assert np.array_equal(passes[0][0], np.vstack([prob.box.lower, lowers]))
        assert np.array_equal(passes[0][1], np.vstack([prob.box.upper, uppers]))
        assert len(passes) == sum(kept is not None for *_, kept in rounds) > 1
        assert out.stats.domains_visited >= 1 + 2**levels
        assert pushed.count(()) == 1


@pytest.mark.parametrize("batch", [1, 16])
def test_input_mode_root_whose_bound_clears_ends_the_search(monkeypatch, batch):
    # The first pass bounds the root with its descendants.  Here every
    # descendant is left open (their output bounds are pushed down to -1
    # after the pass), but the root's bound clears: the search ends
    # verified after that one pass, and queues nothing.
    prob = random_network_problem(np.random.default_rng(20))
    passes, pushed = [], []
    _spy_passes(monkeypatch, passes)
    _spy_pushes(monkeypatch, pushed)
    zero_slope_lower = bab.zero_slope_lower

    def open_descendants(model, res, lowers, uppers):
        best = zero_slope_lower(model, res, lowers, uppers)
        assert best[0].min() >= 0.0 or res.final_lower[0].min() >= 0.0
        res.final_lower[1:] = best[1:] = -1.0
        return best

    monkeypatch.setattr(bab, "zero_slope_lower", open_descendants)
    out = run_bab(prob, BabConfig(mode="input", clip="both", batch=batch, timeout=60.0))
    assert out.status == "verified" and out.bound >= 0.0
    assert len(passes) == 1 and len(passes[0][0]) == 1 + 2 ** _levels(1, batch)
    assert out.stats.domains_visited == len(passes[0][0])
    assert pushed == [()] and out.stats.bound_history == []


@pytest.mark.parametrize("point, status", [((1.0, 0.75), "verified"), ((0.25, 0.25), "falsified")])
def test_input_mode_point_root_gets_its_exact_verdict(monkeypatch, point, status):
    # f(x) = x1 + x2 - 1 on a zero-radius box: the first round pops the
    # root as a point and evaluates it exactly, and nothing is bounded
    passes = []
    _spy_passes(monkeypatch, passes)
    model = NetworkModel([AffineLayer(np.eye(2), np.zeros(2)), AffineLayer(np.ones((1, 2)), np.array([-1.0]))])
    x = np.array(point)
    prob = CanonicalProblem(model, BoxDomain(x, x), 1)
    out = run_bab(prob, BabConfig(mode="input", clip="both", timeout=60.0))
    assert out.status == status
    assert out.stats.domains_visited == 0 and not passes
    if status == "verified":
        assert out.bound == prob.value(x) == 0.75 and out.counterexample is None
    else:
        assert out.value == prob.value(x) == -0.5
        assert np.array_equal(out.counterexample, x)


@pytest.mark.parametrize("batch", [1, 8])
def test_input_mode_first_round_falsification_bounds_nothing(monkeypatch, batch):
    # the first round's samples over the root's descendants hit: the
    # counterexample is certified by exact evaluation, and no domain was
    # bounded
    passes = []
    _spy_passes(monkeypatch, passes)
    hits = 0
    for seed in range(1, 8):
        passes.clear()
        prob = random_network_problem(np.random.default_rng(seed))
        out = run_bab(prob, BabConfig(mode="input", clip="both", batch=batch, timeout=60.0))
        if out.status != "falsified" or out.stats.domains_visited:
            continue
        assert not passes
        x = out.counterexample
        assert np.all(prob.box.lower <= x) and np.all(x <= prob.box.upper)
        # the value of the batched evaluation that found it, up to rounding
        assert prob.value(x) < 0.0 and out.value == pytest.approx(prob.value(x), abs=1e-12)
        hits += 1
    assert hits


def test_activation_mode_bounds_the_root_alone_first(monkeypatch):
    # its picks come from the root's scores: the first pass bounds the root
    # alone, and the first round's one parent is the bounded root
    rounds, passes = [], []
    _spy_rounds(monkeypatch, rounds, [])
    _spy_passes(monkeypatch, passes)
    for prob in _problems():
        rounds.clear()
        passes.clear()
        out = run_bab(prob, BabConfig(mode="activation", clip="both", timeout=60.0))
        assert out.status == "verified"
        lowers, uppers = passes[0]
        assert np.array_equal(lowers, prob.box.lower[None]) and np.array_equal(uppers, prob.box.upper[None])
        (root,), *_ = rounds[0]
        assert root.path == () and root.bound > -np.inf
        assert root.planes is not None and root.scores is not None and root.picks
        assert len(passes) == 1 + sum(kept is not None for *_, kept in rounds)


def _activation_rounds(monkeypatch, batch, clip="both"):
    """The rounds, each with its problem in front, and the pass sizes of
    activation-mode searches of the :func:`_problems` nets, each verified."""
    rounds, passes, tagged = [], [], []
    _spy_rounds(monkeypatch, rounds, passes)
    for prob in _problems():
        out = run_bab(prob, BabConfig(mode="activation", clip=clip, batch=batch, timeout=60.0))
        assert out.status == "verified"
        tagged += [(prob, *entry) for entry in rounds[len(tagged):]]
    assert tagged
    return tagged, passes


def _pin_depth(parent, levels: int) -> int:
    """How deep an activation-mode round splits ``parent``: ``levels``, or
    as many picks as it has, or one bisection when it has none."""
    return min(levels, len(parent.picks)) or 1


def _steps(parent, child) -> tuple:
    """The sides ``child``'s split steps below ``parent`` went to."""
    return child.path[len(parent.path):]


def _pinned(parent, steps) -> np.ndarray:
    """``parent``'s overrides plus the pins of the picks ``steps`` took:
    side 0, the active one, sets the pick's lower override to 0, side 1 its
    upper one."""
    overrides = parent.overrides.copy()
    for pick, side in zip(parent.picks, steps):
        overrides[side, pick] = 0.0
    return overrides


@pytest.mark.parametrize("batch", [1, 2, 3, 8, 16])
def test_activation_rounds_fill_the_pass(monkeypatch, batch):
    rounds, passes = _activation_rounds(monkeypatch, batch)
    full = deep = 0
    for _, parents, children, owner, _ in rounds:
        levels = _levels(len(parents), batch)
        sizes = [2 ** _pin_depth(parent, levels) for parent in parents]
        # each parent's children in one block of 2**d, in parent order
        assert owner.tolist() == [p for p, size in enumerate(sizes) for _ in range(size)]
        assert len(children) == sum(sizes) <= len(parents) * 2**levels
        full += len(children) == len(parents) * 2**levels
        deep += levels > 1 and max(sizes) > 2
        if batch == 1:
            assert len(children) <= 2
    assert full
    assert max(passes) <= 2 * batch
    # a round splits a parent deeper than once only when 4 parents fit
    assert (deep > 0) == (batch >= 4)


@pytest.mark.parametrize("batch", [1, 2, 3, 8, 16])
def test_activation_children_add_the_pins_on_their_path(monkeypatch, batch):
    # Each child adds exactly the pins its path took, and its constraint
    # stack is its parent's last rows plus, per pin, the half-space it
    # implies.  Relaxed clipping sets no overrides but the pins, so the
    # parent's pass can be rebuilt by compute_bounds over its box, under
    # those pins as overrides of 0 and the slopes the root decided.
    rounds, _ = _activation_rounds(monkeypatch, batch, clip="relaxed")
    checked = deep = bisected = 0
    for prob, parents, children, owner, survivors in rounds:
        slopes = compute_bounds(prob.model, prob.box, AlphaPolicy.root()).policy
        levels = _levels(len(parents), batch)
        for child, p in zip(children, owner):
            parent = parents[p]
            steps = _steps(parent, child)
            assert len(steps) == _pin_depth(parent, levels)
            assert len(child.path) == len(parent.path) + len(steps)
            assert np.array_equal(child.overrides, _pinned(parent, steps), equal_nan=True)
            if not parent.picks:
                # bisected once: the child (clipped once it was bounded)
                # lies in the half its step names
                half = branch_input(parent)[steps[0]]
                assert np.all(half.lower <= child.lower) and np.all(child.upper <= half.upper)
                bisected += 1
        if survivors is None or survivors[3] is None:
            continue
        keep, _, _, (normals, offsets, sizes) = survivors
        for i, j in enumerate(keep):
            parent = parents[owner[j]]
            steps = _steps(parent, children[j])
            rows = list(zip(parent.normals, parent.offsets))
            if parent.picks:
                # the parent's pass, as bound_batch made it over its box
                # under its pins, every override it has a pin's 0
                assert np.all(np.isnan(parent.overrides) | (parent.overrides == 0.0))
                ends = np.cumsum([layer.out_dim for layer in prob.model.layers])[:-1]
                overrides = list(zip(*(np.split(side, ends) for side in parent.overrides)))
                box = BoxDomain(parent.lower, parent.upper)
                planes = compute_bounds(prob.model, box, slopes, overrides).planes
                for pick, side in zip(parent.picks, steps):
                    layer, neuron = layer_neuron(prob.model, pick)
                    cons = split_constraint_to_input(planes[layer], neuron, 1 if side == 0 else -1)
                    rows.append((cons.normal, cons.offset))
            rows = rows[-bab.CONSTRAINT_BUDGET:]
            assert sizes[i] == len(rows)
            for k, (normal, offset) in enumerate(rows):
                assert np.array_equal(normals[i, k], normal) and offsets[i, k] == offset
            checked += 1
            deep += len(steps) > 1
    assert checked and bisected and (deep > 0) == (batch >= 4)


def test_activation_parent_with_few_picks_stops_early(monkeypatch):
    # The toy net has two hidden neurons, both unstable at the root, so a
    # round of batch 16 pins the root 2 levels deep where d is 4.  A net
    # whose only neuron is stable leaves no pick: the root is bisected
    # once.  Both are negative somewhere, and the round's samples falsify.
    rounds, passes = [], []
    _spy_rounds(monkeypatch, rounds, passes)
    toy = toy_problem()
    out = run_bab(toy, BabConfig(mode="activation", clip="both", batch=16, timeout=60.0))
    assert out.status == "falsified"
    parents, children, owner, _ = rounds[0]
    assert len(parents) == 1 and _levels(1, 16) == 4 and len(parents[0].picks) == 2
    assert [child.path for child in children] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert owner.tolist() == [0] * 4
    for child in children:
        assert len(child.path) == 2
        assert np.array_equal(child.overrides, _pinned(parents[0], child.path), equal_nan=True)
    rounds.clear()
    model = NetworkModel([AffineLayer(np.eye(1), np.array([10.0])), AffineLayer(np.ones((1, 1)), np.array([-10.5]))])
    prob = CanonicalProblem(model, BoxDomain(np.array([-1.0]), np.array([1.0])), 1)
    out = run_bab(prob, BabConfig(mode="activation", clip="both", batch=16, timeout=60.0))
    assert out.status == "falsified"
    parents, children, owner, _ = rounds[0]
    assert parents[0].picks == () and len(children) == 2
    for child, half in zip(children, branch_input(parents[0])):
        assert child.path == half.path
        assert np.array_equal(child.lower, half.lower) and np.array_equal(child.upper, half.upper)
        assert np.array_equal(child.overrides, parents[0].overrides, equal_nan=True)


def test_probe_records_every_activation_split(monkeypatch):
    rounds, passes = [], []
    _spy_rounds(monkeypatch, rounds, passes)
    prob = long_search_problem()
    probe = BranchProbe()
    out = run_bab(prob, BabConfig(mode="activation", clip="both", batch=8, timeout=60.0), probe)
    assert out.status == "verified" and len(out.stats.bound_history) > 1
    # nodes split within a round and never bounded are recorded too
    assert set(probe.decisions) - set(probe.intervals)
    for path in probe.intervals:
        assert all(path[:k] in probe.decisions for k in range(len(path)))
    # each split node of a round records its parent's pick at its level,
    # or the cut when the parent had none
    nodes = 0
    for parents, children, owner, _ in rounds:
        for child, p in zip(children, owner):
            parent = parents[p]
            for level in range(len(_steps(parent, child))):
                decision = probe.decisions[child.path[:len(parent.path) + level]]
                if parent.picks:
                    assert decision == parent.picks[level]
                else:
                    assert decision[0] == "input" and level == 0
                nodes += level > 0
    assert nodes


def _pre_activations(model, points) -> list:
    """Each hidden layer's pre-activations at ``points``, ``(S, w_i)``."""
    out, h = [], points
    for layer in model.layers[:-1]:
        z = h @ layer.weights.T + layer.bias
        out.append(z)
        h = np.maximum(z, 0.0)
    return out


@pytest.mark.parametrize("clip", ["relaxed", "both"])
def test_deep_children_constraints_hold_wherever_their_pins_do(monkeypatch, clip):
    # Every point of a child's box whose pre-activations take the sides of
    # the child's pins satisfies every one of the child's own constraint
    # rows: each row is a necessary condition of a pin on the child's path
    # or above it.  The pins are rebuilt from the ancestors' picks.
    rounds, _ = _activation_rounds(monkeypatch, 8, clip=clip)
    rng = np.random.default_rng(0)
    checked = 0
    # each node's pins, (pick, side) from the root down, rebuilt from its
    # ancestors' picks and its path; a node is its problem and its path
    pins_at = {}
    for prob, parents, children, owner, _ in rounds:
        for child, p in zip(children, owner.tolist()):
            parent = parents[p]
            assert parent.path == () or (id(prob), parent.path) in pins_at
            above = pins_at.get((id(prob), parent.path), [])
            pins_at[id(prob), child.path] = above + list(zip(parent.picks, _steps(parent, child)))
        if max(len(_steps(parents[p], child)) for child, p in zip(children, owner)) < 2:
            continue
        for k, child in enumerate(children):
            # the parents' boxes, which a round's children split unclipped
            parent = parents[owner[k]]
            pts = rng.uniform(parent.lower, parent.upper, size=(4000, parent.lower.size))
            zs = _pre_activations(prob.model, pts)
            holds = np.ones(len(pts), dtype=bool)
            want = [np.zeros(layer.out_dim, dtype=int) for layer in prob.model.layers[:-1]]
            for pick, side in pins_at[id(prob), child.path]:
                layer, neuron = layer_neuron(prob.model, pick)
                z = zs[layer][:, neuron]
                holds &= z >= 0.0 if side == 0 else z <= 0.0
                want[layer][neuron] = 1 if side == 0 else -1
            # the child's overrides hold these pins as their zeros
            got = override_pins(prob.model, child.overrides)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            values = pts @ child.normals.T + child.offsets
            assert np.all(values[holds] <= 1e-9)
            checked += int(holds.sum()) * len(child.offsets)
    assert checked


def _appended_rows(parent, child) -> ConstraintSet:
    """The rows ``child`` must carry: ``parent``'s, then row ``(j, side)``
    of the parent's ``child_constraints`` for each step j < D on the
    child's path below it, appended one at a time within the budget."""
    cset = ConstraintSet(parent.normals, parent.offsets)
    normals, offsets = parent.child_constraints
    for j, side in enumerate(_steps(parent, child)[:len(offsets)]):
        cset = cset.appended(LinearConstraint(normals[j, side], offsets[j, side]), budget=bab.CONSTRAINT_BUDGET)
    return cset


@pytest.mark.parametrize("batch", [1, 2, 3, 8, 16])
def test_children_carry_their_own_rows(monkeypatch, batch):
    # Each split gives both children their complete constraint rows: the
    # parent's, then row (j, side) of its child_constraints for each step
    # j < D on the child's path, as ConstraintSet.appended builds them
    # within the budget.  A parent without child_constraints passes its own
    # arrays to its children unchanged.  Each round is split once more from
    # copies of its parents that hold a full budget of distinct rows, so
    # that the trim runs.
    split = bab._split_round
    seen = dict.fromkeys(["rows", "full", "plain"], 0)

    def check(parents, children):
        for child, p in zip(children, round_owner(parents, children)):
            parent = parents[p]
            if parent.child_constraints is None:
                assert child.normals is parent.normals and child.offsets is parent.offsets
                seen["plain"] += 1
                continue
            want = _appended_rows(parent, child)
            assert np.array_equal(child.normals, want.normals)
            assert np.array_equal(child.offsets, want.offsets)
            seen["rows"] += 1
            seen["full"] += len(parent.offsets) == bab.CONSTRAINT_BUDGET

    def split_spy(cfg, parents, probe):
        children = split(cfg, parents, probe)
        check(parents, children)
        n, budget = parents[0].lower.size, bab.CONSTRAINT_BUDGET
        full = [replace(parent, normals=np.arange(budget * n, dtype=float).reshape(budget, n),
                        offsets=-np.arange(budget, dtype=float))
                for parent in parents if parent.child_constraints is not None]
        if full:
            check(full, split(cfg, full, None))
        return children

    monkeypatch.setattr(bab, "_split_round", split_spy)
    for mode in ("input", "activation"):
        before = dict(seen)
        for prob in _problems():
            out = run_bab(prob, BabConfig(mode=mode, clip="both", batch=batch, timeout=60.0))
            assert out.status == "verified"
        assert seen["rows"] > before["rows"] and seen["full"] > before["full"], mode
    assert seen["plain"]
