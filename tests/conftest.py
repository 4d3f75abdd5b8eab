"""Shared fixtures: the hand-worked two-neuron network and random generators."""

import numpy as np
import pytest

from clipverify import (
    AffineLayer,
    BoxDomain,
    CanonicalProblem,
    LinearConstraint,
    NetworkModel,
    bab,
)


def toy_model() -> NetworkModel:
    """2-2-1 ReLU net small enough to bound by hand."""
    return NetworkModel(
        [
            AffineLayer(np.array([[1.0, -7.0], [5.0, -1.0]]), np.array([6.0, -7.0])),
            AffineLayer(np.array([[1.0, -1.0]]), np.array([0.0])),
        ]
    )


def toy_box() -> BoxDomain:
    return BoxDomain(np.array([-1.0, -2.0]), np.array([2.0, 1.0]))


def toy_problem() -> CanonicalProblem:
    return CanonicalProblem(toy_model(), toy_box(), 1)


def toy_constraint() -> LinearConstraint:
    """Half-space where the toy's first hidden neuron can be inactive."""
    return LinearConstraint(np.array([1.0, -7.0]), 6.0)


@pytest.fixture
def model():
    return toy_model()


@pytest.fixture
def box():
    return toy_box()


@pytest.fixture
def problem():
    return toy_problem()


def random_box(rng, n, rad_lo=0.05, rad_hi=2.0):
    center = rng.normal(size=n)
    radius = rng.uniform(rad_lo, rad_hi, size=n)
    return BoxDomain(center - radius, center + radius)


def random_network_problem(rng, dim_max=3, width_max=6, hidden=2, rows=1):
    """Small random ReLU net whose worst output hovers near zero.

    The final bias is recentred at a box-center evaluation plus noise, so a
    seeded stream yields a mix of verifiable and falsifiable instances.
    """
    n = int(rng.integers(1, dim_max + 1))
    widths = [n] + [int(rng.integers(2, width_max + 1)) for _ in range(hidden)] + [rows]
    layers = []
    for i in range(hidden + 1):
        weights = rng.normal(size=(widths[i + 1], widths[i])) / np.sqrt(widths[i])
        bias = rng.normal(size=widths[i + 1]) * 0.3
        layers.append(AffineLayer(weights, bias))
    center = rng.normal(size=n) * 0.4
    radius = rng.uniform(0.3, 1.2, size=n)
    box = BoxDomain(center - radius, center + radius)
    at_center = NetworkModel(layers).evaluate(center)
    last = layers[-1]
    layers[-1] = AffineLayer(
        last.weights, last.bias - at_center + rng.normal(size=rows) * 0.4
    )
    return CanonicalProblem(NetworkModel(layers), box, rows)


def long_search_problem() -> CanonicalProblem:
    """The tests' instance of a long search: a seeded 3-3-6-1 net that every
    mode and clip setting verifies only after many rounds, queued domains
    and constraint stacks (with ``clip="both"``, 130 domains in input mode
    and 436 in activation mode).  Tests whose preconditions need such a
    search take it from here, so that when a change to the search decides
    it too soon, the seed changes in this one place."""
    return random_network_problem(np.random.default_rng(3236))


def stack_constraints(csets) -> tuple:
    """Constraint sets of B domains as ``(B, M, n)`` normals and ``(B, M)``
    offsets, M the largest set, shorter sets padded with the row
    ``0 . x + 0 <= 0``, which holds everywhere: ``screen_rows`` finds it
    neither infeasible nor active, so it never takes part in a solve or a
    clip.  The stacks the batched solvers and clips take."""
    m = max(cset.size for cset in csets)
    normals = np.zeros((len(csets), m, csets[0].dim))
    offsets = np.zeros((len(csets), m))
    for b, cset in enumerate(csets):
        normals[b, : cset.size] = cset.normals
        offsets[b, : cset.size] = cset.offsets
    return normals, offsets


def quick_child_bound(planes, box: BoxDomain) -> float:
    """One-box reference of the round screen's plane bound: the lowest of a
    parent's final lower planes over a child's box."""
    lows = planes.a_low @ box.center + planes.c_low - np.abs(planes.a_low) @ box.radius
    return float(lows.min())


def split_constraint_to_input(planes, neuron: int, polarity: int) -> LinearConstraint:
    """Input-space condition implied by pinning ``neuron`` of the layer
    ``planes`` describe to one side of zero: the active side (+1) needs the
    upper plane >= 0, the inactive side (-1) the lower plane <= 0.  The
    constraints activation mode adds."""
    if polarity > 0:
        return LinearConstraint(-planes.a_up[neuron].copy(), -float(planes.c_up[neuron]))
    return LinearConstraint(planes.a_low[neuron].copy(), float(planes.c_low[neuron]))


def layer_neuron(model, pick: int) -> tuple:
    """The ``(layer, neuron)`` a flat hidden-neuron index names."""
    for layer, hidden in enumerate(model.layers[:-1]):
        if pick < hidden.out_dim:
            return layer, pick
        pick -= hidden.out_dim
    raise IndexError("pick beyond the hidden layers")


def override_pins(model, overrides) -> list:
    """The ReLU pins of a subdomain's flat ``(2, V)`` overrides, as one int
    array per hidden layer: +1 where the lower override is exactly 0 (a pin
    to the active side), -1 where the upper one is exactly 0, 0 elsewhere.
    A pin is written as an exact 0, and complete clipping never tightens a
    neuron that an override decides, so the pin stays 0 in every
    descendant; a neuron that clipping decided has some other bound."""
    ends = np.cumsum([layer.out_dim for layer in model.layers])
    lo, hi = (np.split(side, ends[:-1])[:-1] for side in overrides)
    return [np.where(low == 0.0, 1, np.where(high == 0.0, -1, 0)) for low, high in zip(lo, hi)]


def round_owner(parents, children) -> np.ndarray:
    """The ``(C,)`` index in ``parents`` of the round parent each of
    ``children`` descends from: the one whose path its own path starts
    with.  A round's parents are leaves of the search tree, so no parent's
    path starts another's and exactly one parent matches."""
    owner = [[p for p, parent in enumerate(parents) if child.path[:len(parent.path)] == parent.path]
             for child in children]
    assert all(len(match) == 1 for match in owner)
    return np.array([match[0] for match in owner], dtype=int)


def spy_screens(monkeypatch, record):
    """Call ``record(parents, children, owner, out)`` after the screen of
    every round of a search, before the round goes on: ``parents`` the
    round's parents as ``bab._split_round`` got them, ``children`` and
    ``out`` what ``bab._screen_children`` got and returned, and ``owner``
    their :func:`round_owner`."""
    split, screen = bab._split_round, bab._screen_children
    popped = []

    def split_spy(cfg, parents, probe):
        popped[:] = [list(parents)]
        return split(cfg, parents, probe)

    def screen_spy(problem, cfg, children, rng):
        out = screen(problem, cfg, children, rng)
        record(popped[0], children, round_owner(popped[0], children), out)
        return out

    monkeypatch.setattr(bab, "_split_round", split_spy)
    monkeypatch.setattr(bab, "_screen_children", screen_spy)
