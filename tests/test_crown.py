import numpy as np
import pytest

from clipverify import (
    AffineLayer,
    AlphaPolicy,
    BoxDomain,
    InfeasibleSplitError,
    NetworkModel,
    bound_batch,
    compute_bounds,
    concretize,
    relax_relu,
)

from conftest import random_box
from test_batched_bounds import NeuronStatus, neuron_status


def test_neuron_status_three_ways():
    assert neuron_status(1.0, 2.0) is NeuronStatus.STABLE_ACTIVE
    assert neuron_status(-2.0, -1.0) is NeuronStatus.STABLE_INACTIVE
    assert neuron_status(-1.0, 1.0) is NeuronStatus.UNSTABLE
    # the bounds alone decide, however narrow: u <= 0 is inactive, also at
    # zero width, and any straddle is unstable
    assert neuron_status(0.0, 0.0) is NeuronStatus.STABLE_INACTIVE
    assert neuron_status(0.0, 1e-15) is NeuronStatus.STABLE_ACTIVE
    assert neuron_status(-1e-15, 1e-15) is NeuronStatus.UNSTABLE


def test_relaxation_envelopes_relu():
    rng = np.random.default_rng(17)
    for policy in (AlphaPolicy.fixed(0.0), AlphaPolicy.fixed(0.5), AlphaPolicy.adaptive()):
        for _ in range(200):
            l = -rng.uniform(0.01, 3.0)
            u = rng.uniform(0.01, 3.0)
            rel = relax_relu(np.array([l]), np.array([u]), policy)
            z = rng.uniform(l, u, size=64)
            lo = rel.lower_slope[0] * z
            hi = rel.upper_slope[0] * z + rel.upper_offset[0]
            relu = np.maximum(z, 0.0)
            assert np.all(lo <= relu + 1e-10)
            assert np.all(hi >= relu - 1e-10)


def test_relaxation_stable_sides_exact():
    rel = relax_relu(np.array([0.5, -2.0]), np.array([1.5, -1.0]), AlphaPolicy.fixed())
    np.testing.assert_allclose(rel.lower_slope, [1.0, 0.0])
    np.testing.assert_allclose(rel.upper_slope, [1.0, 0.0])
    np.testing.assert_allclose(rel.upper_offset, [0.0, 0.0])


def test_collapsed_straddling_neuron_envelope_is_sound():
    # a straddle narrower than 1e-12 takes the triangle like any other: its
    # upper side is the chord through (l, 0) and (u, u)
    l, u = -4e-13, 5e-13
    assert neuron_status(l, u) is NeuronStatus.UNSTABLE
    rel = relax_relu(np.array([l]), np.array([u]), AlphaPolicy.fixed())
    assert rel.upper_slope[0] == u / (u - l) and rel.upper_offset[0] == -l * rel.upper_slope[0]
    z = np.append(np.linspace(l, u, 101), [l, 0.0, u])
    relu = np.maximum(z, 0.0)
    tol = 4.0 * np.spacing(u)
    assert np.all(rel.upper_slope[0] * z + rel.upper_offset[0] >= relu - tol)
    assert np.all(rel.lower_slope[0] * z <= relu)
    assert abs(rel.upper_slope[0] * u + rel.upper_offset[0] - u) <= tol
    # truly stable neurons keep their exact zero offsets
    rel = relax_relu(np.array([0.0, 1e-13]), np.array([5e-13, 2e-13]), AlphaPolicy.fixed())
    np.testing.assert_array_equal(rel.upper_offset, [0.0, 0.0])


def test_adaptive_alpha_picks_steeper_side():
    pol = AlphaPolicy.adaptive()
    rel = relax_relu(np.array([-1.0]), np.array([2.0]), pol)  # u >= -l: slope 1
    assert rel.lower_slope[0] == 1.0
    rel = relax_relu(np.array([-2.0]), np.array([1.0]), pol)  # u < -l: slope 0
    assert rel.lower_slope[0] == 0.0


def test_root_alpha_decides_once_at_the_first_box(model, box):
    # the toy's root intervals are [-2, 22] and [-13, 5]: slope 1 for the
    # first neuron (22 >= 2), 0 for the second (5 < 13), kept for any
    # sub-box; relax_relu, which sees one layer, refuses the policy
    res = compute_bounds(model, box, AlphaPolicy.root())
    assert res.policy.kind == "root"
    np.testing.assert_array_equal(res.policy.slopes[0], [1.0, 0.0])
    np.testing.assert_array_equal(res.relaxations[0].lower_slope, [1.0, 0.0])
    sub = BoxDomain(np.array([-1.0, -2.0]), np.array([0.0, -1.0]))
    again = compute_bounds(model, sub, res.policy)
    assert again.policy.slopes == res.policy.slopes
    with pytest.raises(ValueError, match="root"):
        relax_relu(np.array([-1.0]), np.array([2.0]), AlphaPolicy.root())


def test_root_slopes_must_fit_the_hidden_layers(model, box):
    # the toy net has one hidden layer of two neurons: one slope used to be
    # broadcast to both, and no slopes raised IndexError
    for slopes, message in (
        ([np.array([0.5])], "layer 0 root slopes"),
        ([0.5], "layer 0 root slopes"),
        ([], "layer 0 root slopes"),
        ([np.ones(2), np.ones(1)], "layer 1 has no ReLU"),
    ):
        policy = AlphaPolicy.root(slopes)
        with pytest.raises(ValueError, match=message):
            compute_bounds(model, box, policy)
        with pytest.raises(ValueError, match=message):
            bound_batch(model, box.lower[None], box.upper[None], policy)
    # both root intervals straddle zero, so both take their given slope
    res = compute_bounds(model, box, AlphaPolicy.root([np.array([0.5, 0.25])]))
    np.testing.assert_array_equal(res.relaxations[0].lower_slope, [0.5, 0.25])


def test_root_slopes_given_as_lists_are_float_arrays(model, box):
    # slopes given as plain lists used to raise TypeError in the range
    # check; each layer's are now a float array, whose shape bound_batch
    # checks
    policy = AlphaPolicy.root([[0.5, 0.25]])
    assert isinstance(policy.slopes[0], np.ndarray) and policy.slopes[0].dtype == float
    res = compute_bounds(model, box, policy)
    np.testing.assert_array_equal(res.relaxations[0].lower_slope, [0.5, 0.25])
    with pytest.raises(ValueError, match="layer 0 root slopes"):
        bound_batch(model, box.lower[None], box.upper[None], AlphaPolicy.root([[0.5]]))
    with pytest.raises(ValueError, match="must lie in"):
        AlphaPolicy.root([[0.5, 1.5]])
    # non-numeric or ragged entries, and slopes that are no sequence
    for bad in ([["a", 0.5]], [[0.5, [0.25, 0.5]]], [object()], 5):
        with pytest.raises(ValueError, match="numeric arrays"):
            AlphaPolicy.root(bad)


@pytest.mark.parametrize("policy", [AlphaPolicy.fixed(), AlphaPolicy.adaptive(), AlphaPolicy.root()])
def test_bound_batch_refuses_an_empty_batch(model, policy):
    # zero boxes used to crash inside the pass: the walk's block loop took
    # a step of 0 under fixed and adaptive slopes, and an undecided root
    # policy read row 0
    corners = np.zeros((0, model.input_dim))
    with pytest.raises(ValueError, match="at least one box"):
        bound_batch(model, corners, corners, policy)


def test_forced_signs_override_relaxation():
    # two neurons on [-1, 1], pinned as bounds: active l = 0 gives the
    # identity, inactive u = 0 gives zero
    rel = relax_relu(np.array([0.0, -1.0]), np.array([1.0, 0.0]), AlphaPolicy.fixed())
    np.testing.assert_array_equal(rel.lower_slope, [1.0, 0.0])
    np.testing.assert_array_equal(rel.upper_slope, [1.0, 0.0])
    np.testing.assert_array_equal(rel.upper_offset, [0.0, 0.0])
    # in the pass, as overrides of 0 in one domain each
    net = NetworkModel([AffineLayer(np.ones((2, 1)), np.zeros(2)), AffineLayer(np.ones((1, 2)), np.zeros(1))])
    nan = np.full((2, 2), np.nan)
    lo, hi = nan.copy(), nan.copy()
    lo[0, 0], hi[1, 0] = 0.0, 0.0
    res, empty = bound_batch(net, np.full((2, 1), -1.0), np.ones((2, 1)), overrides=[(lo, hi), None])
    assert empty.tolist() == [False, False]
    np.testing.assert_array_equal(res.relaxations[0].upper_slope[:, 0], [1.0, 0.0])


def test_forced_sign_contradiction_raises():
    # z in [-5, -4] pinned active and z in [5, 6] pinned inactive: each pin
    # crosses the bounds, so the pass finds the domain empty and
    # compute_bounds raises
    box = BoxDomain(np.zeros(1), np.ones(1))
    for bias, lo, hi in ((-5.0, 0.0, np.nan), (5.0, np.nan, 0.0)):
        net = NetworkModel([AffineLayer(np.ones((1, 1)), np.array([bias])),
                            AffineLayer(np.ones((1, 1)), np.zeros(1))])
        pin = (np.array([lo]), np.array([hi]))
        _, empty = bound_batch(net, box.lower[None], box.upper[None],
                               overrides=[(pin[0][None], pin[1][None]), None])
        assert empty.tolist() == [True]
        with pytest.raises(InfeasibleSplitError):
            compute_bounds(net, box, overrides=[pin, None])


def test_toy_network_layer_bounds(model, box):
    res = compute_bounds(model, box)
    np.testing.assert_allclose(res.layer_bounds[0].lower, [-2.0, -13.0], atol=1e-12)
    np.testing.assert_allclose(res.layer_bounds[0].upper, [22.0, 5.0], atol=1e-12)


def test_toy_network_final_planes(model, box):
    res = compute_bounds(model, box)
    np.testing.assert_allclose(
        res.planes[-1].a_low, [[-7.0 / 18.0, -121.0 / 18.0]], atol=1e-12
    )
    np.testing.assert_allclose(res.planes[-1].c_low, [13.0 / 3.0], atol=1e-12)
    np.testing.assert_allclose(res.final_lower, [-19.0 / 6.0], atol=1e-12)


def test_bounds_are_sound_on_random_nets():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        widths = [n, int(rng.integers(2, 6)), int(rng.integers(2, 6)), 2]
        layers = [
            AffineLayer(rng.normal(size=(widths[i + 1], widths[i])), rng.normal(size=widths[i + 1]))
            for i in range(3)
        ]
        net = NetworkModel(layers)
        box = random_box(rng, n, 0.1, 1.0)
        res = compute_bounds(net, box)
        pts = rng.uniform(box.lower, box.upper, size=(200, n))
        outs = net.evaluate(pts)
        assert np.all(outs.min(axis=0) >= res.final_lower - 1e-8)
        # every layer's planes must envelop the true pre-activations
        z = pts
        for i, layer in enumerate(net.layers):
            if i > 0:
                z = np.maximum(z, 0.0)
            z = z @ layer.weights.T + layer.bias
            lb = res.layer_bounds[i]
            assert np.all(z >= lb.lower - 1e-8)
            assert np.all(z <= lb.upper + 1e-8)
            planes = res.planes[i]
            low = pts @ planes.a_low.T + planes.c_low
            high = pts @ planes.a_up.T + planes.c_up
            assert np.all(low <= z + 1e-8)
            assert np.all(high >= z - 1e-8)


def test_backward_bound_single_layer_is_exact():
    # no ReLU involved: planes must reproduce the affine map itself
    layer = AffineLayer(np.array([[2.0, -1.0]]), np.array([0.5]))
    net = NetworkModel([layer])
    planes = compute_bounds(net, BoxDomain(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))).planes[0]
    np.testing.assert_allclose(planes.a_low, [[2.0, -1.0]])
    np.testing.assert_allclose(planes.a_up, [[2.0, -1.0]])
    np.testing.assert_allclose(planes.c_low, [0.5])
    np.testing.assert_allclose(planes.c_up, [0.5])


def test_splits_stay_sound_on_their_regions(model, box):
    # a split bound need not beat the unsplit one (forcing a mostly-positive
    # neuron inactive can loosen the envelope; search merges with the parent
    # bound instead), but it must hold everywhere on the pinned region
    pin = np.array([0.0, np.nan])
    res_active = compute_bounds(model, box, overrides=[(pin, None), None])
    res_inactive = compute_bounds(model, box, overrides=[(None, pin), None])
    rng = np.random.default_rng(4)
    pts = rng.uniform(box.lower, box.upper, size=(4000, 2))
    pre = pts @ np.array([[1.0, -7.0], [5.0, -1.0]]).T + np.array([6.0, -7.0])
    vals = model.evaluate(pts).min(axis=1)
    on_active = pre[:, 0] >= 0.0
    assert np.all(vals[on_active] >= res_active.final_lower[0] - 1e-8)
    on_inactive = pre[:, 0] <= 0.0
    assert np.all(vals[on_inactive] >= res_inactive.final_lower[0] - 1e-8)


def test_contradictory_split_raises():
    # force a neuron active although its upper bound is negative
    net = NetworkModel(
        [
            AffineLayer(np.array([[1.0]]), np.array([-5.0])),
            AffineLayer(np.array([[1.0]]), np.array([0.0])),
        ]
    )
    box = BoxDomain(np.array([0.0]), np.array([1.0]))
    with pytest.raises(InfeasibleSplitError):
        compute_bounds(net, box, overrides=[(np.zeros(1), None), None])


def test_malformed_overrides_raise_value_error(model, box):
    # the toy net has two layers, of two neurons and one: a third entry used
    # to be dropped and a scalar side broadcast to every neuron
    for overrides in ([None], [None] * 3):
        with pytest.raises(ValueError, match="one entry per layer"):
            compute_bounds(model, box, overrides=overrides)
    for overrides, layer in (
        ([(0.0, None), None], 0),
        ([(None, np.zeros(3)), None], 0),
        ([(np.zeros((1, 2)), None), None], 0),
        ([np.zeros(2), None], 0),
        ([(np.zeros(2),), None], 0),
        ([None, (None, np.zeros(2))], 1),
        ([None, 0.0], 1),
    ):
        with pytest.raises(ValueError, match=f"layer {layer} overrides"):
            compute_bounds(model, box, overrides=overrides)
    # either side may be None
    res = compute_bounds(model, box, overrides=[(None, np.array([0.0, -3.0])), (None, None)])
    np.testing.assert_allclose(res.layer_bounds[0].upper, [0.0, -3.0], atol=1e-12)


def test_overrides_intersect_bounds(model, box):
    ovr = [(np.array([np.nan, np.nan]), np.array([0.0, -3.0])), None]
    res = compute_bounds(model, box, overrides=ovr)
    np.testing.assert_allclose(res.layer_bounds[0].upper, [0.0, -3.0], atol=1e-12)
    assert res.final_lower[0] >= -1e-12


def test_override_crossing_raises(model, box):
    ovr = [(np.array([np.nan, 10.0]), np.array([np.nan, np.nan])), None]
    with pytest.raises(InfeasibleSplitError):
        compute_bounds(model, box, overrides=ovr)


def test_refine_hook_sees_every_layer(model, box):
    seen = []

    def refine(i, planes, lower, upper, alive):
        seen.append(i)
        return lower, upper, np.zeros(alive.shape, dtype=bool)

    bound_batch(model, box.lower[None], box.upper[None], refine=refine)
    assert seen == [0, 1]


def test_refine_hook_tightening_feeds_forward(model, box):
    # clamping layer 0 exactly like the golden overrides must verify
    def refine(i, planes, lower, upper, alive):
        if i == 0:
            upper = np.minimum(upper, np.array([0.0, -3.0]))
        return lower, upper, np.zeros(alive.shape, dtype=bool)

    res, empty = bound_batch(model, box.lower[None], box.upper[None], refine=refine)
    assert empty.tolist() == [False]
    assert res.final_lower[0, 0] >= -1e-12


def test_objective_coeffs_shape(model, box):
    res = compute_bounds(model, box)
    assert len(res.objective_coeffs) == 1
    np.testing.assert_allclose(res.objective_coeffs[0], [1.0, -1.0])


def test_alpha_policy_validation():
    with pytest.raises(ValueError):
        AlphaPolicy.fixed(1.5)
    with pytest.raises(ValueError):
        AlphaPolicy("nonsense", 0.0)
    # decided slopes must be sound ones, and belong to a root policy
    for slopes in ([np.array([0.5, 1.5])], [np.array([np.nan])], [np.array([-0.1])]):
        with pytest.raises(ValueError):
            AlphaPolicy.root(slopes)
    with pytest.raises(ValueError):
        AlphaPolicy("adaptive", 0.0, (np.ones(2),))
    assert AlphaPolicy.root([np.array([0.0, 1.0])]).slopes[0].tolist() == [0.0, 1.0]


def test_tighter_box_gives_tighter_bounds(model):
    wide = BoxDomain(np.array([-1.0, -2.0]), np.array([2.0, 1.0]))
    narrow = BoxDomain(np.array([-0.5, -1.0]), np.array([1.0, 0.5]))
    rw = compute_bounds(model, wide)
    rn = compute_bounds(model, narrow)
    for lw, ln in zip(rw.layer_bounds, rn.layer_bounds):
        assert np.all(ln.lower >= lw.lower - 1e-12)
        assert np.all(ln.upper <= lw.upper + 1e-12)
