"""The shape of an input-mode round.

A round that pops P splittable parents bisects each one d levels deep, d
the largest with ``P * 2**d <= 2 * batch`` (at least 1), so that a round
with few open parents still fills its bounding pass.  Its children are the
boxes d levels of ``branch_input`` give, each adding its parent's harvested
plane; a node narrower than ``POINT_RADIUS_TOL`` is not split further; and
``BranchProbe`` records and replays the cut at every split node, the
intermediate ones too.  At ``batch=1`` a round still has at most two
children.
"""

import numpy as np
import pytest

from clipverify import (
    AffineLayer,
    BabConfig,
    BoxDomain,
    BranchProbe,
    CanonicalProblem,
    NetworkModel,
    bab,
    branch_input,
    run_bab,
)

from conftest import random_network_problem

# verified nets whose input-mode searches take several rounds of varying width
SEEDS = (8, 15, 21)


def _levels(parents: int, batch: int) -> int:
    """How deep a round with ``parents`` parents bisects each one."""
    return max(d for d in range(1, 2 * batch + 1) if parents * 2**d <= 2 * batch)


def _spy_rounds(monkeypatch, rounds, passes):
    """Append ``(parents, children, owner, survivors)`` of every round's
    screen to ``rounds`` and the size of every bounding pass to
    ``passes``."""
    screen, original_pass = bab._screen_children, bab.bound_batch

    def screen_spy(problem, cfg, parents, children, owner, rng):
        out = screen(problem, cfg, parents, children, owner, rng)
        rounds.append((list(parents), list(children), owner, out[0]))
        return out

    def pass_spy(model, lowers, *args):
        passes.append(len(lowers))
        return original_pass(model, lowers, *args)

    monkeypatch.setattr(bab, "_screen_children", screen_spy)
    monkeypatch.setattr(bab, "bound_batch", pass_spy)


def _descendants(sub, levels):
    """``sub``'s descendants ``levels`` bisections of the widest coordinate
    down, in search order, stopping at nodes narrower than a point."""
    nodes = [sub]
    for _ in range(levels):
        nodes = [child for node in nodes for child in (
            (node,) if float((0.5 * (node.upper - node.lower)).max()) < bab.POINT_RADIUS_TOL
            else branch_input(node)[:2])]
    return nodes


@pytest.mark.parametrize("batch", [1, 2, 3, 8])
def test_input_rounds_fill_the_pass(monkeypatch, batch):
    rounds, passes = [], []
    _spy_rounds(monkeypatch, rounds, passes)
    widths = set()
    for seed in SEEDS:
        prob = random_network_problem(np.random.default_rng(seed))
        out = run_bab(prob, BabConfig(mode="input", clip="both", batch=batch, timeout=60.0))
        assert out.status == "verified"
    assert rounds
    for parents, children, owner, _ in rounds:
        per_parent = 2 ** _levels(len(parents), batch)
        assert len(children) == len(parents) * per_parent
        assert owner.tolist() == [p for p in range(len(parents)) for _ in range(per_parent)]
        widths.add(len(parents))
        if batch == 1:
            assert len(children) <= 2
    # no pass bounds more than 2 batch domains, and some round had fewer
    # parents than a batch, so it split deeper than one level
    assert max(passes) <= 2 * batch
    if batch > 1:
        assert min(widths) < batch


def test_children_are_the_bisection_descendants(monkeypatch):
    # each child is the box d levels of branch_input give, and takes its
    # parent's last constraints plus the parent's harvested plane
    rounds, passes = [], []
    _spy_rounds(monkeypatch, rounds, passes)
    batch = 8
    for seed in SEEDS:
        prob = random_network_problem(np.random.default_rng(seed))
        run_bab(prob, BabConfig(mode="input", clip="both", batch=batch, timeout=60.0))
    deep = checked = 0
    for parents, children, owner, survivors in rounds:
        levels = _levels(len(parents), batch)
        deep += levels > 1
        for p, parent in enumerate(parents):
            got = [child for child, o in zip(children, owner) if o == p]
            want = _descendants(parent, levels)
            assert [child.path for child in got] == [child.path for child in want]
            assert [child.depth for child in got] == [parent.depth + levels] * len(want)
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
                # input mode harvests one plane for every child
                assert np.array_equal(added_normals[0], added_normals[1])
                own_normals = np.vstack([own_normals, added_normals[:1]])
                own_offsets = np.concatenate([own_offsets, added_offsets[:1]])
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
    # narrower than a point, so a round of batch 8 gives 4 children, not 16.
    # The net is negative on the whole box, so the round's samples falsify.
    radius = np.array([1.5, 1.2]) * bab.POINT_RADIUS_TOL
    model = NetworkModel([AffineLayer(np.eye(2), np.zeros(2)), AffineLayer(np.ones((1, 2)), np.array([-1.0]))])
    prob = CanonicalProblem(model, BoxDomain(np.zeros(2), 2.0 * radius), 1)
    rounds, passes = [], []
    _spy_rounds(monkeypatch, rounds, passes)
    out = run_bab(prob, BabConfig(mode="input", clip="both", batch=8, timeout=60.0))
    assert out.status == "falsified"
    (parents, children, owner, _), = rounds
    assert len(parents) == 1 and len(children) == 4
    assert [child.path for child in children] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for child, ref in zip(children, _descendants(parents[0], 2)):
        assert np.array_equal(child.lower, ref.lower) and np.array_equal(child.upper, ref.upper)
        assert float((0.5 * (child.upper - child.lower)).max()) < bab.POINT_RADIUS_TOL


def test_probe_records_and_replays_every_deep_cut():
    prob = random_network_problem(np.random.default_rng(15))
    cfg = BabConfig(mode="input", clip="both", batch=8, timeout=60.0)
    probe0 = BranchProbe()
    out0 = run_bab(prob, cfg, probe0)
    assert out0.status == "verified" and len(out0.stats.bound_history) > 1
    # the cuts at intermediate nodes, split within a round and never
    # bounded, are recorded too: every bounded node below the root was cut
    # from recorded nodes all the way down
    inner = set(probe0.decisions) - set(probe0.intervals)
    assert inner
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
    path = min(inner, key=len)
    dim, at = probe0.decisions[path]
    moved = {**probe0.decisions, path: (dim, at + 1e-9)}
    probe2 = BranchProbe(replay=moved)
    run_bab(prob, cfg, probe2)
    assert probe2.decisions[path] == (dim, at + 1e-9)
