"""The batched bounding pass against its references.

* The row-wise ReLU relaxation against the per-neuron loop it replaced
  (kept below as the reference), both with pins applied as bounds: equal
  bit for bit, and crossed bounds where the loop finds a pin's domain
  empty.  Each envelope also holds on its own interval.
* The pass's relaxation of a layer, its pins applied as bound overrides
  of 0 (``_pin``), against the loop with those pins: equal bit for bit,
  an empty domain where the loop finds one.
* ``bound_batch`` over B boxes against ``bound_batch`` on each box alone:
  each domain's rows equal within 1e-12, the same domains empty.  The
  batched refine runs the per-domain refine hooks (``refine_from_hooks``).
* The backward walk in blocks of domains against one whole-batch block:
  equal bit for bit; and the pass's memory on a wide net stays bounded.
* Per-neuron slope vectors: a vector of ones against ``fixed(1)``, and a
  root policy's row 0 against an adaptive pass over that box alone, bit
  for bit.
* Overrides that are not one ``(B, w_i)`` pair or None per layer are
  refused, naming the layer, and so are ``compute_bounds``'s overrides
  that are not one pair of ``(w_i,)`` arrays or None per layer.
"""

import tracemalloc
from enum import Enum
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clipverify import (
    AffineLayer,
    AlphaPolicy,
    BoundingPlanes,
    BoxDomain,
    InfeasibleSplitError,
    ReluRelaxation,
    bound_batch,
    NetworkModel,
    compute_bounds,
    relax_relu,
)
from clipverify import crown

from conftest import random_network_problem

BATCH_TOL = 1e-12


class NeuronStatus(Enum):
    STABLE_ACTIVE = "stable_active"
    STABLE_INACTIVE = "stable_inactive"
    UNSTABLE = "unstable"


def neuron_status(lower: float, upper: float) -> NeuronStatus:
    """The reference's status rule, from the bounds alone: inactive where
    u <= 0, active where l >= 0 < u, unstable where l < 0 < u."""
    if upper <= 0.0:
        return NeuronStatus.STABLE_INACTIVE
    if lower >= 0.0:
        return NeuronStatus.STABLE_ACTIVE
    return NeuronStatus.UNSTABLE


def relax_relu_loop(lower, upper, policy, forced=None) -> ReluRelaxation:
    """Reference: the per-neuron relaxation loop.  ``forced`` pins apply
    as bounds: +1 raises l to max(l, 0), -1 lowers u to min(u, 0).  Where
    a pin crosses the bounds, the domain is empty and the loop raises
    InfeasibleSplitError."""
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
            l = max(l, 0.0)
        elif forced[j] < 0:
            u = min(u, 0.0)
        if l > u:
            raise InfeasibleSplitError(f"neuron {j}: pinned bounds [{l}, {u}] cross")
        status = neuron_status(l, u)
        if status is NeuronStatus.STABLE_ACTIVE:
            dl[j] = du[j] = 1.0
        elif status is NeuronStatus.UNSTABLE:
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
    """(lower, upper) of one neuron: random, zero-width, a tiny straddle
    or one side at zero."""
    kind = draw(st.sampled_from(["random", "zero", "collapsed", "sided"]))
    value = st.floats(-4.0, 4.0, allow_nan=False)
    if kind == "random":
        a, b = draw(value), draw(value)
        return min(a, b), max(a, b)
    if kind == "zero":
        v = draw(st.sampled_from([0.0, -0.0, draw(value)]))
        return v, v
    if kind == "collapsed":
        # within 1e-12 of zero on both sides, mostly straddling it
        lo = -draw(st.floats(1e-16, 0.5e-12))
        return lo, draw(st.floats(0.0, 0.4e-12))
    # one side exactly at zero, of either sign
    v = abs(draw(value))
    return draw(st.sampled_from([(0.0, v), (-0.0, v), (-v, 0.0), (-v, -0.0)]))


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


def _pinned_bounds(lower, upper, forced):
    """The bounds with the pins ``forced`` applied as the pass takes them."""
    return (np.where(forced > 0, np.fmax(lower, 0.0), lower),
            np.where(forced < 0, np.fmin(upper, 0.0), upper))


@settings(max_examples=300, deadline=None)
@given(layer=relu_layer(), policy=policies, use_forced=st.booleans())
def test_relax_relu_matches_loop_bitwise(layer, policy, use_forced):
    lower, upper, forced = (x[0] for x in layer)
    forced = forced if use_forced else np.zeros_like(forced)
    want = _loop_or_error(lower, upper, policy, forced)
    lower, upper = _pinned_bounds(lower, upper, forced)
    # a pin the interval rules out crosses the bounds
    assert np.any(lower > upper) == isinstance(want, str)
    if not isinstance(want, str):
        _assert_bitwise(relax_relu(lower, upper, policy), want)


@settings(max_examples=300, deadline=None)
@given(cell=neuron_interval(), policy=policies)
def test_envelope_holds_on_its_interval(cell, policy):
    # On a grid of z in [l, u], both ends included, the envelope brackets
    # relu(z) within a few ulps of the interval's magnitude; a triangle's
    # upper side is the chord through (l, 0) and (u, u).
    l, u = cell
    rel = relax_relu(np.array([l]), np.array([u]), policy)
    low, up, off = (f[0] for f in _fields(rel))
    tol = 4.0 * np.spacing(max(abs(l), abs(u)))
    z = np.linspace(l, u, 33)
    assert z[0] == l and z[-1] == u
    relu = np.maximum(z, 0.0)
    assert np.all(low * z <= relu + tol)
    assert np.all(relu <= up * z + off + tol)
    if l < 0.0 < u:
        assert abs(up * l + off) <= tol
        assert abs(up * u + off - u) <= tol


def _pin(pair, at, polarity):
    """An override pair with a split applied as the pass takes it: 0 on
    the pinned side at index ``at`` (lower for +1, upper for -1), combined
    with the override there by max or min."""
    lo, hi = (side.copy() for side in pair)
    if polarity > 0:
        lo[at] = np.fmax(lo[at], 0.0)
    else:
        hi[at] = np.fmin(hi[at], 0.0)
    return lo, hi


@settings(max_examples=150, deadline=None)
@given(layer=relu_layer(rows=4), policy=policies)
def test_relaxation_rows_match_loop_bitwise(layer, policy):
    # The drawn intervals as the pass's own bounds: an identity layer over
    # [-8, 8] (bounded exactly), tightened by a refine to the draws.  The
    # pins go in as the pass takes them, bound overrides of 0.
    lower, upper, forced = layer
    rows, w = lower.shape
    model = NetworkModel([AffineLayer(np.eye(w), np.zeros(w)), AffineLayer(np.ones((1, w)), np.zeros(1))])
    pins = (np.full(lower.shape, np.nan),) * 2
    for at in zip(*np.nonzero(forced)):
        pins = _pin(pins, at, forced[at])

    def refine(i, planes, lo, hi, alive):
        if i == 0:
            lo, hi = np.fmax(lo, lower), np.fmin(hi, upper)
        return lo, hi, np.zeros(rows, dtype=bool)

    box = np.full((rows, w), 8.0)
    res, empty = bound_batch(model, -box, box, policy, [pins, None], refine)
    for b in range(rows):
        want = _loop_or_error(lower[b], upper[b], policy, forced[b])
        # a pin the interval rules out crosses the bounds
        assert empty[b] == isinstance(want, str)
        if not isinstance(want, str):
            _assert_bitwise(ReluRelaxation(*(f[b].copy() for f in _fields(res.relaxations[0]))), want)


# -- the batched pass against one box at a time ------------------------------


def _domain(rng, problem, layer_bounds, kind):
    """A sub-box of the problem box plus its overrides and a hook.

    The overrides are one ``(lower, upper)`` pair of ``(w_i,)`` arrays per
    layer (NaN = none), pins among them (see :func:`_pin`): one domain's
    rows of what ``bound_batch`` takes.
    ``layer_bounds`` are the root bounds, used to aim pins and overrides at
    neurons where they matter.  ``kind`` "raise" makes the hook reject the
    domain at one layer; the other kinds tighten or leave it be.
    """
    model = problem.model
    n = problem.box.dim
    t = rng.uniform(size=(2, n))
    lo = problem.box.lower + np.minimum(t[0], t[1]) * (problem.box.upper - problem.box.lower)
    hi = problem.box.lower + np.maximum(t[0], t[1]) * (problem.box.upper - problem.box.lower)
    flat = rng.uniform(size=n) < 0.3
    hi[flat] = lo[flat]  # zero-width dims
    box = BoxDomain(lo, hi)

    pins = []
    for _ in range(int(rng.choice([0, 0, 1, 2]))):
        li = int(rng.integers(0, model.num_layers - 1))
        pins.append((li, int(rng.integers(0, model.layers[li].out_dim)), int(rng.choice([-1, 1]))))

    overrides = [(np.full(lb.lower.size, np.nan),) * 2 for lb in layer_bounds]
    if rng.uniform() < 0.6:
        for i, lb in enumerate(layer_bounds):
            w = lb.lower.size
            step = rng.uniform(0.0, 0.2, size=(2, w)) * (lb.upper - lb.lower)
            ovr_lo = np.where(rng.uniform(size=w) < 0.3, lb.lower + step[0], np.nan)
            ovr_hi = np.where(rng.uniform(size=w) < 0.3, lb.upper - step[1], np.nan)
            if rng.uniform() < 0.15:  # crossing override
                j = int(rng.integers(0, w))
                ovr_lo[j] = lb.upper[j] + 1.0
            if rng.uniform() < 0.8:
                overrides[i] = (ovr_lo, ovr_hi)
    for li, j, polarity in pins:
        overrides[li] = _pin(overrides[li], j, polarity)

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

    return box, overrides, make_hook


def _stack_rows(override_rows):
    """Per-domain overrides (as :func:`_domain` makes them) stacked per
    layer into the ``(B, w_i)`` arrays ``bound_batch`` takes."""
    return [tuple(np.stack(side) for side in zip(*layer)) for layer in zip(*override_rows)]


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


def _assert_dead_stay_dead(calls, empty):
    """A domain the refine proved empty is never alive again, and the pass
    reports it empty."""
    dead = np.zeros(len(empty), dtype=bool)
    for _, alive, proved in calls:
        assert not np.any(alive & dead)
        dead |= proved & alive
    assert empty.dtype == bool and np.all(empty[dead])


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
    res, empty = bound_batch(
        model,
        np.stack([d[0].lower for d in domains]),
        np.stack([d[0].upper for d in domains]),
        policy,
        _stack_rows([d[1] for d in domains]),
        refine_from_hooks([d[2]() for d in domains], calls),
    )
    assert empty.shape == (batch,) and res.final_lower.shape[0] == batch
    assert [i for i, _, _ in calls] == list(range(len(calls)))
    _assert_dead_stay_dead(calls, empty)
    for b, (box, overrides, make_hook) in enumerate(domains):
        want, (alone_empty,) = bound_batch(
            model,
            box.lower[None],
            box.upper[None],
            policy,
            _stack_rows([overrides]),
            refine_from_hooks([make_hook()], []),
        )
        if alone_empty:
            assert empty[b]
            continue
        assert not empty[b]
        _assert_same_result(crown._domain(res, b), crown._domain(want, 0))


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

    res, empty = bound_batch(
        model,
        np.stack([box.lower] * 3),
        np.stack([box.upper] * 3),
        refine=reject_middle,
    )
    assert empty.tolist() == [False, True, False]
    assert len(calls) == model.num_layers
    _assert_dead_stay_dead(calls, empty)
    want = compute_bounds(model, box)
    _assert_same_result(crown._domain(res, 0), want)
    _assert_same_result(crown._domain(res, 2), want)


def test_all_nan_overrides_change_nothing():
    # branch and bound passes every layer's override stacks, NaN where a
    # domain has none; with none at all the pass must equal one without
    rng = np.random.default_rng(12)
    problem = random_network_problem(rng, hidden=3)
    model = problem.model
    box = problem.box
    lowers = rng.uniform(box.lower, box.center, size=(4, box.dim))
    uppers = rng.uniform(box.center, box.upper, size=(4, box.dim))
    nan = [(np.full((4, layer.out_dim), np.nan),) * 2 for layer in model.layers]
    for policy in (AlphaPolicy.fixed(), AlphaPolicy.adaptive()):
        want, want_empty = bound_batch(model, lowers, uppers, policy)
        got, got_empty = bound_batch(model, lowers, uppers, policy, overrides=nan)
        assert got_empty.tolist() == want_empty.tolist() == [False] * 4
        for lb, ref_lb in zip(got.layer_bounds, want.layer_bounds):
            np.testing.assert_array_equal(lb.lower, ref_lb.lower)
            np.testing.assert_array_equal(lb.upper, ref_lb.upper)
        np.testing.assert_array_equal(got.final_lower, want.final_lower)


def test_nonfinite_corners_are_rejected():
    # a NaN or infinite corner passes the lower <= upper check; it used to
    # come back as a NaN bound instead of an error
    problem = random_network_problem(np.random.default_rng(5))
    model, box = problem.model, problem.box
    for corner, value in (("lower", np.nan), ("upper", np.nan), ("lower", -np.inf),
                          ("upper", np.inf)):
        lowers, uppers = np.stack([box.lower] * 2), np.stack([box.upper] * 2)
        (lowers if corner == "lower" else uppers)[1, 0] = value
        with pytest.raises(ValueError, match="finite"):
            bound_batch(model, lowers, uppers)


def test_overrides_of_the_wrong_length_are_rejected(model, box):
    # on the two-layer toy net, one entry used to raise IndexError
    lowers, uppers = box.lower[None], box.upper[None]
    for overrides in ([None], [None] * 3):
        with pytest.raises(ValueError, match="one entry per layer"):
            bound_batch(model, lowers, uppers, overrides=overrides)
    bound_batch(model, lowers, uppers, overrides=[None, None])


def test_overrides_of_the_wrong_shape_are_rejected(model, box):
    # a wrong width used to raise numpy's broadcast error, naming no layer
    lowers, uppers = np.stack([box.lower] * 2), np.stack([box.upper] * 2)
    nan = [np.full((2, layer.out_dim), np.nan) for layer in model.layers]
    for layer, wrong in ((0, np.full((2, 3), np.nan)), (0, np.full((1, 2), np.nan)),
                         (1, np.full((2, 2), np.nan)), (1, np.full(2, np.nan))):
        for entry in ((wrong, nan[layer]), (nan[layer], wrong)):
            overrides = [(arr, arr) for arr in nan]
            overrides[layer] = entry
            with pytest.raises(ValueError, match=f"layer {layer} overrides"):
                bound_batch(model, lowers, uppers, overrides=overrides)
    for entry in ((nan[0],), (nan[0],) * 3, 0.5):
        with pytest.raises(ValueError, match="layer 0 overrides"):
            bound_batch(model, lowers, uppers, overrides=[entry, None])
    bound_batch(model, lowers, uppers, overrides=[(arr, arr) for arr in nan])


def test_inactive_pin_on_a_collapsed_interval_keeps_a_valid_envelope():
    # z = x - 1e-13 on [0, 1], pinned inactive: its bounds [l, 0] are
    # narrower than 1e-12, and u <= 0 gives the zero envelope, whose upper
    # plane stays 0 over the whole box.  The same bounds without the pin
    # take the same envelope.
    model = NetworkModel([AffineLayer(np.ones((1, 1)), np.array([-1e-13])),
                          AffineLayer(np.ones((1, 1)), np.zeros(1))])
    box = BoxDomain(np.zeros(1), np.ones(1))
    res = compute_bounds(model, box, AlphaPolicy.fixed(), overrides=[(None, np.zeros(1)), None])
    lo, hi = res.layer_bounds[0].lower[0], res.layer_bounds[0].upper[0]
    assert -1e-12 < lo < 0.0 and hi == 0.0
    rel = res.relaxations[0]
    assert rel.lower_slope[0] == rel.upper_slope[0] == rel.upper_offset[0] == 0.0
    for z in np.linspace(lo, hi, 11):
        assert rel.lower_slope[0] * z <= max(z, 0.0) <= rel.upper_slope[0] * z + rel.upper_offset[0]
    # the output is 0 wherever z <= 0
    assert res.layer_bounds[-1].lower[0] == res.layer_bounds[-1].upper[0] == 0.0
    _assert_bitwise(relax_relu(np.array([lo]), np.array([hi]), AlphaPolicy.fixed()), rel)


def test_infeasible_splits_name_the_crossed_neuron():
    # neuron 1 of layer 0 is x + 1 >= 1 on [0, 1]: pinned inactive (upper
    # override 0), its bounds cross; the error names the first layer and
    # neuron they cross at
    model = NetworkModel([AffineLayer(np.ones((2, 1)), np.array([-0.5, 1.0])),
                          AffineLayer(np.ones((1, 2)), np.zeros(1))])
    box = BoxDomain(np.zeros(1), np.ones(1))
    pins = [(np.array([0.0, np.nan]), np.array([np.nan, 0.0])), None]
    with pytest.raises(InfeasibleSplitError, match="layer 0 neuron 1: lower bound 1.0 exceeds upper bound 0.0"):
        compute_bounds(model, box, overrides=pins)
    with pytest.raises(InfeasibleSplitError, match="layer 0 neuron 0: lower bound 0.0 exceeds upper bound -1.0"):
        compute_bounds(model, box, overrides=[(np.array([0.0, np.nan]), np.array([-1.0, np.nan])), None])


# -- the backward walk in blocks ---------------------------------------------


@st.composite
def _walk_cases(draw):
    """A net of widths 1-300 (the input too), a batch of 1-16 sub-boxes
    with pins and overrides, a slope policy and a block size.  The batch
    shrinks with the widest layer to keep the products small."""
    widths = draw(st.lists(st.integers(1, 300), min_size=2, max_size=5))
    widest = max(widths)
    batch = draw(st.integers(1, max(1, min(16, 300_000 // widest**2))))
    block = draw(st.sampled_from([1, 100, 5000, crown.WALK_BLOCK]))
    return widths, batch, block, draw(policies), draw(st.integers(0, 2**32 - 1))


def _walk_inputs(widths, batch, seed):
    rng = np.random.default_rng(seed)
    model = NetworkModel([
        AffineLayer(rng.normal(size=(w_out, w_in)) / np.sqrt(w_in), 0.3 * rng.normal(size=w_out))
        for w_in, w_out in zip(widths, widths[1:])
    ])
    n = widths[0]
    lowers = rng.uniform(-1.0, 0.5, size=(batch, n))
    uppers = lowers + rng.uniform(0.0, 0.5, size=(batch, n)) * (rng.uniform(size=n) > 0.2)
    pins = []
    for b in range(batch):
        for _ in range(int(rng.integers(0, 3))):
            if len(widths) > 2:
                li = int(rng.integers(0, len(widths) - 2))
                pins.append((li, (b, int(rng.integers(0, widths[li + 1]))), int(rng.choice([-1, 1]))))
    overrides = []
    for w in widths[1:]:
        # about half the domains override this layer, each a fifth of its
        # neurons per side
        touched = rng.uniform(size=(batch, 1)) < 0.5
        lo = np.where(touched & (rng.uniform(size=(batch, w)) < 0.2),
                      rng.normal(size=(batch, w)) - 1.0, np.nan)
        hi = np.where(touched & (rng.uniform(size=(batch, w)) < 0.2),
                      rng.normal(size=(batch, w)) + 1.0, np.nan)
        overrides.append((lo, hi) if rng.uniform() < 0.7 else None)
    for li, at, polarity in pins:
        if overrides[li] is None:
            overrides[li] = (np.full((batch, widths[li + 1]), np.nan),) * 2
        overrides[li] = _pin(overrides[li], at, polarity)
    return model, lowers, uppers, overrides


def _same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_walk_cases())
def test_blocked_walk_equals_the_whole_batch_walk(case):
    widths, batch, block, policy, seed = case
    model, lowers, uppers, overrides = _walk_inputs(widths, batch, seed)
    with mock.patch.object(crown, "WALK_BLOCK", block):
        got, got_empty = bound_batch(model, lowers, uppers, policy, overrides)
        if block == 1:
            # one domain per block: the scratch no longer grows with the batch
            _, work = crown._walk_blocks(model.layers, batch)
            assert work.size == crown._walk_blocks(model.layers, 1)[1].size
    with mock.patch.object(crown, "WALK_BLOCK", 10**12):
        assert crown._walk_blocks(model.layers, batch)[0] == [batch] * model.num_layers
        want, want_empty = bound_batch(model, lowers, uppers, policy, overrides)
    assert got_empty.tolist() == want_empty.tolist()
    alive = ~want_empty
    for gb, wb in zip(got.layer_bounds, want.layer_bounds):
        _same_bits(gb.lower[alive], wb.lower[alive])
        _same_bits(gb.upper[alive], wb.upper[alive])
    for gp, wp in zip(got.planes, want.planes):
        for name in ("a_low", "c_low", "a_up", "c_up"):
            _same_bits(getattr(gp, name)[alive], getattr(wp, name)[alive])
    _same_bits(got.final_lower[alive], want.final_lower[alive])
    for gc, wc in zip(got.objective_coeffs, want.objective_coeffs):
        _same_bits(gc[alive], wc[alive])


def _assert_same_pass(got, want, rows):
    """``rows`` of two batch-form passes hold the same bits."""
    for gb, wb in zip(got.layer_bounds, want.layer_bounds):
        _same_bits(gb.lower[rows], wb.lower[rows])
        _same_bits(gb.upper[rows], wb.upper[rows])
    for gp, wp in zip(got.planes, want.planes):
        for name in ("a_low", "c_low", "a_up", "c_up"):
            _same_bits(getattr(gp, name)[rows], getattr(wp, name)[rows])
    for gr, wr in zip(got.relaxations, want.relaxations):
        for g, w in zip(_fields(gr), _fields(wr)):
            _same_bits(g[rows], w[rows])
    for gc, wc in zip(got.objective_coeffs, want.objective_coeffs):
        _same_bits(gc[rows], wc[rows])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_walk_cases())
def test_slope_vectors_match_the_scalar_and_adaptive_passes(case):
    widths, batch, _, _, seed = case
    model, lowers, uppers, overrides = _walk_inputs(widths, batch, seed)
    every = slice(None)
    # a per-layer vector of ones is fixed(1)
    ones = AlphaPolicy.root([np.ones(w) for w in widths[1:-1]])
    got, got_empty = bound_batch(model, lowers, uppers, ones, overrides)
    want, want_empty = bound_batch(model, lowers, uppers, AlphaPolicy.fixed(1.0), overrides)
    assert got_empty.tolist() == want_empty.tolist()
    _assert_same_pass(got, want, every)
    assert got.policy.slopes == ones.slopes
    # a root policy's row 0 is an adaptive pass over that box alone, and
    # its slopes are the adaptive rule on row 0's intervals, for every row
    got, _ = bound_batch(model, lowers, uppers, AlphaPolicy.root(), overrides)
    first = [None if ovr is None else (ovr[0][:1], ovr[1][:1]) for ovr in overrides]
    want, _ = bound_batch(model, lowers[:1], uppers[:1], AlphaPolicy.adaptive(), first)
    _assert_same_pass(got, want, slice(0, 1))
    slopes = got.policy.slopes
    assert got.policy.kind == "root" and len(slopes) == len(widths) - 2
    for lb, alpha in zip(got.layer_bounds, slopes):
        _same_bits(alpha, np.where(lb.upper[0] >= -lb.lower[0], 1.0, 0.0))
    # and the decided policy gives the pass again
    again, _ = bound_batch(model, lowers, uppers, got.policy, overrides)
    _assert_same_pass(again, got, every)


# A 16-256-256-256-1 pass over 32 boxes keeps each hidden layer's walk
# output, (32, 512, 16) values, and its negated upper half: 9.4 MB for the
# three.  Its bounds and relaxations take under 1 MB, and the walk's scratch
# is three buffers of one domain's (512, 256) coefficients (3.1 MB).  The
# pass peaks at about 15 MiB.  A scratch sized for the whole batch
# (3 x 32 x 2 x 256^2 values) alone takes 100 MB.
WIDE_PASS_PEAK_BYTES = 32 * 2**20


def test_wide_pass_memory_is_bounded():
    rng = np.random.default_rng(0)
    widths = (16, 256, 256, 256, 1)
    model = NetworkModel([
        AffineLayer(rng.normal(size=(w_out, w_in)) / np.sqrt(w_in), 0.3 * rng.normal(size=w_out))
        for w_in, w_out in zip(widths, widths[1:])
    ])
    lowers = rng.uniform(-0.5, 0.0, size=(32, 16))
    bound_batch(model, lowers[:1], lowers[:1] + 0.5)  # first-call allocations
    tracemalloc.start()
    try:
        res, empty = bound_batch(model, lowers, lowers + 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.final_lower.shape == (32, 1) and not empty.any()
    assert peak < WIDE_PASS_PEAK_BYTES, f"{peak / 2**20:.1f} MiB"
