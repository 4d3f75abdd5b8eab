"""The batched bounding pass against its references.

* The row-wise ReLU relaxation against the per-neuron loop it replaced
  (kept below as the reference): equal bit for bit, and the same
  InfeasibleSplitError message for the first bad neuron.
* ``bound_batch`` over B boxes against ``compute_bounds`` on each box:
  equal within 1e-12, None exactly where the single-box call raises.  The
  batched refine runs the per-domain refine hooks (``refine_from_hooks``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clipverify import (
    AlphaPolicy,
    BoundingPlanes,
    BoxDomain,
    InfeasibleSplitError,
    NeuronStatus,
    ReluRelaxation,
    bound_batch,
    compute_bounds,
    neuron_status,
    relax_relu,
    stack_overrides,
    stack_splits,
)
from clipverify.crown import STABLE_WIDTH_TOL, _relax_rows

from conftest import random_network_problem

BATCH_TOL = 1e-12


def relax_relu_loop(lower, upper, policy, forced=None) -> ReluRelaxation:
    """Reference: the per-neuron relaxation loop."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    w = lower.size
    forced = np.zeros(w, dtype=int) if forced is None else np.asarray(forced, dtype=int)
    dl = np.zeros(w)
    du = np.zeros(w)
    bu = np.zeros(w)
    for j in range(w):
        l, u = lower[j], upper[j]
        if forced[j] > 0:
            if u < 0.0:
                raise InfeasibleSplitError(
                    f"neuron {j} forced active but its upper bound {u} is negative"
                )
            dl[j] = du[j] = 1.0
            continue
        if forced[j] < 0:
            if l > 0.0:
                raise InfeasibleSplitError(
                    f"neuron {j} forced inactive but its lower bound {l} is positive"
                )
            continue
        status = neuron_status(l, u)
        if status is NeuronStatus.STABLE_ACTIVE:
            dl[j] = du[j] = 1.0
            if l < 0.0:
                bu[j] = -l
        elif status is NeuronStatus.STABLE_INACTIVE:
            pass
        else:
            slope = u / (u - l)
            du[j] = slope
            bu[j] = -l * slope
            if policy.kind == "fixed":
                dl[j] = policy.value
            else:
                dl[j] = 1.0 if u >= -l else 0.0
    return ReluRelaxation(dl, du, bu)


def _fields(rel):
    return (rel.lower_slope, rel.upper_slope, rel.upper_offset)


def _assert_bitwise(got, want):
    for g, w in zip(_fields(got), _fields(want)):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes(), (g, w)


@st.composite
def neuron_interval(draw):
    """(lower, upper) of one neuron: random, zero-width or collapsed."""
    kind = draw(st.sampled_from(["random", "zero", "collapsed", "sided"]))
    value = st.floats(-4.0, 4.0, allow_nan=False)
    if kind == "random":
        a, b = draw(value), draw(value)
        return min(a, b), max(a, b)
    if kind == "zero":
        v = draw(st.sampled_from([0.0, -0.0, draw(value)]))
        return v, v
    if kind == "collapsed":
        # straddles zero but is narrower than the collapse tolerance
        lo = -draw(st.floats(1e-16, 0.5 * STABLE_WIDTH_TOL))
        return lo, draw(st.floats(0.0, 0.4 * STABLE_WIDTH_TOL))
    # one side exactly at zero
    v = abs(draw(value))
    return draw(st.sampled_from([(0.0, v), (-v, 0.0)]))


policies = st.one_of(
    st.builds(AlphaPolicy.fixed, st.floats(0.0, 1.0)),
    st.just(AlphaPolicy.fixed(0.0)),
    st.just(AlphaPolicy.adaptive()),
)


@st.composite
def relu_layer(draw, rows: int = 1):
    """(lower, upper, forced) arrays of shape (rows, w)."""
    w = draw(st.integers(1, 8))
    cells = draw(st.lists(neuron_interval(), min_size=rows * w, max_size=rows * w))
    lower = np.array([c[0] for c in cells]).reshape(rows, w)
    upper = np.array([c[1] for c in cells]).reshape(rows, w)
    forced = np.array(
        draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=rows * w, max_size=rows * w))
    ).reshape(rows, w)
    return lower, upper, forced


def _loop_or_error(lower, upper, policy, forced):
    try:
        return relax_relu_loop(lower, upper, policy, forced)
    except InfeasibleSplitError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(layer=relu_layer(), policy=policies, use_forced=st.booleans())
def test_relax_relu_matches_loop_bitwise(layer, policy, use_forced):
    lower, upper, forced = (x[0] for x in layer)
    forced = forced if use_forced else None
    want = _loop_or_error(lower, upper, policy, forced)
    if isinstance(want, str):
        with pytest.raises(InfeasibleSplitError) as err:
            relax_relu(lower, upper, policy, forced)
        assert str(err.value) == want
    else:
        _assert_bitwise(relax_relu(lower, upper, policy, forced), want)


@settings(max_examples=150, deadline=None)
@given(layer=relu_layer(rows=4), policy=policies)
def test_relaxation_rows_match_loop_bitwise(layer, policy):
    lower, upper, forced = layer
    rel, bad = _relax_rows(lower, upper, policy, forced)
    for b in range(lower.shape[0]):
        want = _loop_or_error(lower[b], upper[b], policy, forced[b])
        assert bad[b].any() == isinstance(want, str)
        if not isinstance(want, str):
            row = ReluRelaxation(*(f[b].copy() for f in _fields(rel)))
            _assert_bitwise(row, want)


def test_first_bad_neuron_names_the_error():
    lower = np.array([-1.0, 1.0, -3.0])
    upper = np.array([1.0, 2.0, -2.0])
    forced = np.array([0, -1, 1])  # neurons 1 and 2 both impossible
    with pytest.raises(InfeasibleSplitError, match="neuron 1 forced inactive"):
        relax_relu(lower, upper, AlphaPolicy.fixed(), forced)
    # without neuron 1, the bad neuron (now at index 1) is forced active
    with pytest.raises(InfeasibleSplitError, match="neuron 1 forced active"):
        relax_relu(lower[[0, 2]], upper[[0, 2]], AlphaPolicy.fixed(), forced[[0, 2]])


# -- the batched pass against one box at a time ------------------------------


def _domain(rng, problem, layer_bounds, kind):
    """A sub-box of the problem box plus splits, overrides and a hook.

    ``layer_bounds`` are the root bounds, used to aim splits and overrides
    at neurons where they matter.  ``kind`` "raise" makes the hook reject
    the domain at one layer; the other kinds tighten or leave it be.
    """
    model = problem.model
    n = problem.box.dim
    t = rng.uniform(size=(2, n))
    lo = problem.box.lower + np.minimum(t[0], t[1]) * (problem.box.upper - problem.box.lower)
    hi = problem.box.lower + np.maximum(t[0], t[1]) * (problem.box.upper - problem.box.lower)
    flat = rng.uniform(size=n) < 0.3
    hi[flat] = lo[flat]  # zero-width dims
    box = BoxDomain(lo, hi)

    splits = {}
    for _ in range(int(rng.choice([0, 0, 1, 2]))):
        li = int(rng.integers(0, model.num_layers - 1))
        j = int(rng.integers(0, model.layers[li].out_dim))
        splits[(li, j)] = int(rng.choice([-1, 1]))

    overrides = None
    if rng.uniform() < 0.6:
        overrides = []
        for lb in layer_bounds:
            w = lb.lower.size
            step = rng.uniform(0.0, 0.2, size=(2, w)) * (lb.upper - lb.lower)
            ovr_lo = np.where(rng.uniform(size=w) < 0.3, lb.lower + step[0], np.nan)
            ovr_hi = np.where(rng.uniform(size=w) < 0.3, lb.upper - step[1], np.nan)
            if rng.uniform() < 0.15:  # crossing override
                j = int(rng.integers(0, w))
                ovr_lo[j] = lb.upper[j] + 1.0
            overrides.append((ovr_lo, ovr_hi) if rng.uniform() < 0.8 else None)

    hook_layer = int(rng.integers(0, model.num_layers))
    shrink = float(rng.uniform(0.0, 0.2))

    def make_hook():
        if kind == "none":
            return None

        def hook(i, planes, lower, upper):
            if kind == "raise" and i == hook_layer:
                raise InfeasibleSplitError("hook rejects this domain")
            # reads the planes it is given, so a mixed-up row would show
            gap = np.minimum(upper - lower, np.abs(planes.c_up - planes.c_low))
            return lower + shrink * gap, upper - shrink * gap

        return hook

    return box, splits, overrides, make_hook


def _assert_same_result(got, want):
    assert len(got.layer_bounds) == len(want.layer_bounds)
    for g, w in zip(got.layer_bounds, want.layer_bounds):
        np.testing.assert_allclose(g.lower, w.lower, rtol=0, atol=BATCH_TOL)
        np.testing.assert_allclose(g.upper, w.upper, rtol=0, atol=BATCH_TOL)
    for g, w in zip(got.planes, want.planes):
        for name in ("a_low", "c_low", "a_up", "c_up"):
            np.testing.assert_allclose(getattr(g, name), getattr(w, name), rtol=0, atol=BATCH_TOL)
    np.testing.assert_allclose(got.final_lower, want.final_lower, rtol=0, atol=BATCH_TOL)
    assert len(got.objective_coeffs) == len(want.objective_coeffs)
    for g, w in zip(got.objective_coeffs, want.objective_coeffs):
        np.testing.assert_allclose(g, w, rtol=0, atol=BATCH_TOL)


def refine_from_hooks(hooks, calls):
    """A batched refine that runs domain b's per-domain hook (or none) on
    its planes and bounds while b is alive; a hook raising
    InfeasibleSplitError proves its domain empty.  Every call's layer,
    alive mask and empty mask are appended to ``calls``."""

    def refine(i, planes, lower, upper, alive):
        lower, upper = lower.copy(), upper.copy()
        empty = np.zeros(alive.shape, dtype=bool)
        for b in np.flatnonzero(alive):
            if hooks[b] is None:
                continue
            one = BoundingPlanes(planes.a_low[b], planes.c_low[b], planes.a_up[b], planes.c_up[b])
            try:
                lower[b], upper[b] = hooks[b](i, one, lower[b], upper[b])
            except InfeasibleSplitError:
                empty[b] = True
        calls.append((i, alive.copy(), empty))
        return lower, upper, empty

    return refine


def _assert_dead_stay_dead(calls, results):
    """A domain the refine proved empty is never alive again, and its
    result is None."""
    dead = np.zeros(len(results), dtype=bool)
    for _, alive, empty in calls:
        assert not np.any(alive & dead)
        dead |= empty & alive
    assert all(results[b] is None for b in np.flatnonzero(dead))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.sampled_from([1, 3, 8]),
    policy=policies,
)
def test_batched_pass_matches_one_box_at_a_time(seed, batch, policy):
    rng = np.random.default_rng(seed)
    problem = random_network_problem(rng)
    model = problem.model
    root = compute_bounds(model, problem.box, policy)
    kinds = rng.choice(["none", "tighten", "raise"], size=batch, p=[0.4, 0.4, 0.2])
    domains = [_domain(rng, problem, root.layer_bounds, k) for k in kinds]

    calls = []
    got = bound_batch(
        model,
        np.stack([d[0].lower for d in domains]),
        np.stack([d[0].upper for d in domains]),
        policy,
        stack_splits(model, [d[1] for d in domains]),
        stack_overrides(model, [d[2] for d in domains]),
        refine_from_hooks([d[3]() for d in domains], calls),
    )
    assert len(got) == batch
    assert [i for i, _, _ in calls] == list(range(len(calls)))
    _assert_dead_stay_dead(calls, got)
    for res, (box, splits, overrides, make_hook) in zip(got, domains):
        try:
            want = compute_bounds(model, box, policy, splits, overrides, make_hook())
        except InfeasibleSplitError:
            assert res is None
            continue
        assert res is not None
        _assert_same_result(res, want)


def test_batch_with_an_empty_domain_keeps_the_others():
    rng = np.random.default_rng(3)
    problem = random_network_problem(rng)
    model, box = problem.model, problem.box
    calls = []

    def reject_middle(i, planes, lower, upper, alive):
        # poison the rejected domain's rows: they must not reach the others
        lower, upper = lower.copy(), upper.copy()
        lower[1], upper[1] = np.inf, -np.inf
        calls.append((i, alive.copy(), np.array([False, True, False])))
        return lower, upper, calls[-1][2]

    got = bound_batch(
        model,
        np.stack([box.lower] * 3),
        np.stack([box.upper] * 3),
        refine=reject_middle,
    )
    assert got[1] is None
    assert len(calls) == model.num_layers
    _assert_dead_stay_dead(calls, got)
    want = compute_bounds(model, box)
    _assert_same_result(got[0], want)
    _assert_same_result(got[2], want)
