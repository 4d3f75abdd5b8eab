import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from clipverify import network
from clipverify import (
    AffineLayer,
    CanonicalProblem,
    ModelFormatError,
    NetworkModel,
    PropertySpec,
    canonicalize,
    load_model,
    load_property,
    model_from_dict,
    property_from_dict,
)

from conftest import toy_box, toy_model


def test_layer_shapes():
    layer = AffineLayer(np.array([[1.0, 2.0, 3.0]]), np.array([0.5]))
    assert layer.in_dim == 3
    assert layer.out_dim == 1


def test_layer_rejects_bias_mismatch():
    with pytest.raises(ModelFormatError):
        AffineLayer(np.eye(2), np.zeros(3))


def test_layer_rejects_nonfinite_weights():
    with pytest.raises(ModelFormatError):
        AffineLayer(np.array([[np.inf]]), np.zeros(1))


def test_model_rejects_width_mismatch():
    with pytest.raises(ModelFormatError):
        NetworkModel(
            [AffineLayer(np.eye(2), np.zeros(2)), AffineLayer(np.eye(3), np.zeros(3))]
        )


def test_evaluate_single_and_batch(model):
    x = np.array([0.5, -0.5])
    single = model.evaluate(x)
    batch = model.evaluate(np.vstack([x, x]))
    np.testing.assert_allclose(batch[0], single)
    np.testing.assert_allclose(batch[1], single)
    # hand evaluation: z = relu([0.5+3.5+6, 2.5+0.5-7]) = [10, 0]; out = 10
    np.testing.assert_allclose(single, [10.0])


def test_evaluate_matches_manual_forward():
    rng = np.random.default_rng(21)
    for _ in range(25):
        dims = [int(rng.integers(1, 5)) for _ in range(4)]
        layers = [
            AffineLayer(rng.normal(size=(dims[i + 1], dims[i])), rng.normal(size=dims[i + 1]))
            for i in range(3)
        ]
        net = NetworkModel(layers)
        x = rng.normal(size=dims[0])
        z = x
        for i, layer in enumerate(layers):
            z = layer.weights @ z + layer.bias
            if i < 2:
                z = np.maximum(z, 0.0)
        np.testing.assert_allclose(net.evaluate(x), z, atol=1e-12)


def _unblocked_forward(layers, x):
    """The plain per-layer pass over the whole batch at once."""
    z = x
    for i, layer in enumerate(layers):
        if i > 0:
            z = np.maximum(z, 0.0)
        z = z @ layer.weights.T + layer.bias
    return z


@st.composite
def _blocked_cases(draw):
    """A net of widths 1-300, a block size, and a row count at or around
    the block boundaries.  Weights, biases and inputs are small integers, so
    every sum is exact: the BLAS rounds a row according to how many rows
    share its product, and exact sums keep that out of a test of the
    blocking itself."""
    widths = draw(st.lists(st.integers(1, 300), min_size=2, max_size=5))
    block = draw(st.sampled_from([1, 97, 2000, network.EVAL_BLOCK]))
    widest = max(widths[1:-1], default=1)
    tile = network.EVAL_ROW_TILE
    rows = max(tile, block // widest // tile * tile)
    m = draw(st.sampled_from([
        0, 1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1,
        draw(st.integers(3, 5)) * rows + draw(st.integers(0, rows - 1)),
    ]))
    assume(m * max(widths) <= 10**6)
    seed = draw(st.integers(0, 2**32 - 1))
    layout = draw(st.sampled_from(["C", "F", "row-strided", "column-strided"]))
    return widths, block, m, seed, layout


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_blocked_cases())
def test_blocked_evaluate_equals_the_unblocked_pass(case):
    widths, block, m, seed, layout = case
    rng = np.random.default_rng(seed)
    layers = [
        AffineLayer(
            rng.integers(-3, 4, size=(w_out, w_in)).astype(float),
            rng.integers(-5, 6, size=w_out).astype(float),
        )
        for w_in, w_out in zip(widths, widths[1:])
    ]
    net = NetworkModel(layers)
    n = widths[0]
    if layout == "row-strided":
        x = rng.integers(-4, 5, size=(2 * m, n)).astype(float)[::2]
    elif layout == "column-strided":
        x = rng.integers(-4, 5, size=(m, 2 * n)).astype(float)[:, ::2]
    else:
        x = np.asarray(rng.integers(-4, 5, size=(m, n)).astype(float), order=layout)
    before = x.copy()
    x.flags.writeable = False
    with mock.patch.object(network, "EVAL_BLOCK", block):
        got = net.evaluate(x)
        point = net.evaluate(x[0]) if m else None
    want = _unblocked_forward(layers, before)
    assert got.shape == (m, widths[-1])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(x, before)
    if m:
        assert point.shape == (widths[-1],)
        np.testing.assert_array_equal(point, want[0])


def test_property_rejects_inverted_box():
    with pytest.raises(ValueError):
        PropertySpec(
            np.array([1.0]), np.array([0.0]), np.array([[1.0]]), np.array([0.0])
        )


def test_canonicalize_fuses_spec_rows():
    model = toy_model()
    prop = PropertySpec(
        toy_box().lower, toy_box().upper, np.array([[2.0]]), np.array([1.0])
    )
    prob = canonicalize(model, prop)
    assert prob.num_rows == 1
    # canonical rows are C f(x) - t and must match a direct evaluation
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(prob.box.lower, prob.box.upper)
        want = 2.0 * model.evaluate(x)[0] - 1.0
        np.testing.assert_allclose(prob.model.evaluate(x), [want], atol=1e-10)
        assert abs(prob.value(x) - want) < 1e-10


def test_canonicalize_multiple_rows():
    model = toy_model()
    C = np.array([[1.0], [-1.0]])
    t = np.array([-5.0, -30.0])
    prop = PropertySpec(toy_box().lower, toy_box().upper, C, t)
    prob = canonicalize(model, prop)
    assert prob.num_rows == 2
    x = np.array([0.0, 0.0])
    out = model.evaluate(x)[0]
    np.testing.assert_allclose(prob.model.evaluate(x), [out + 5.0, -out + 30.0])


def test_json_round_trip(tmp_path):
    model = toy_model()
    mdoc = {
        "layers": [
            {"weights": l.weights.tolist(), "bias": l.bias.tolist()}
            for l in model.layers
        ]
    }
    pdoc = {
        "input_lower": [-1.0, -2.0],
        "input_upper": [2.0, 1.0],
        "spec_matrix": [[1.0]],
        "threshold": [0.0],
    }
    mpath = tmp_path / "model.json"
    ppath = tmp_path / "prop.json"
    mpath.write_text(json.dumps(mdoc))
    ppath.write_text(json.dumps(pdoc))
    loaded = load_model(str(mpath))
    prop = load_property(str(ppath))
    x = np.array([0.3, -0.7])
    np.testing.assert_allclose(loaded.evaluate(x), model.evaluate(x))
    assert prop.box.dim == 2


def test_model_from_dict_rejects_garbage():
    with pytest.raises(ModelFormatError):
        model_from_dict({"layers": []})
    with pytest.raises(ModelFormatError):
        model_from_dict({"layers": [{"weights": [[1.0], [2.0]]}]})
    with pytest.raises(ModelFormatError):
        property_from_dict({"input_lower": [0.0]})


def test_json_rejects_infinity_literals(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"layers": [{"weights": [[Infinity]], "bias": [0.0]}]}')
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_canonical_problem_row_threshold_shift():
    # threshold enters negatively: row = C f - t
    model = toy_model()
    prop = PropertySpec(
        toy_box().lower, toy_box().upper, np.array([[1.0]]), np.array([2.0])
    )
    prob = canonicalize(model, prop)
    x = np.array([0.5, -0.5])
    assert abs(prob.value(x) - (model.evaluate(x)[0] - 2.0)) < 1e-12


def test_canonical_problem_validates():
    model = toy_model()
    with pytest.raises(ValueError):
        CanonicalProblem(model, toy_box(), 2)  # model has one output row
