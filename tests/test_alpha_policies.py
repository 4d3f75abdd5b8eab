"""The lower-slope policies against exact enumeration.

Every slope in [0, 1] gives a sound lower envelope of an unstable ReLU, so
the policy may change how much the search has to do but never what it
concludes.  Nor may any other search setting.  On oracle-sized nets, every
combination of mode, clipping (each of the four settings) and policy
(``fixed(1)``, ``fixed(0)``, ``adaptive``, and ``root``, which decides
its slopes at the root for the whole search), under a drawn batch size and
sampler seed, must agree with ``exact_verify`` whenever it decides, report
counterexamples that evaluate negative, and report bounds no higher than
the exact minimum.
The same holds on degenerate inputs: width-1 hidden layers, all-zero
weight rows, zero-width input coordinates and point boxes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clipverify import (
    AffineLayer,
    AlphaPolicy,
    BabConfig,
    BoxDomain,
    CanonicalProblem,
    NetworkModel,
    exact_verify,
    run_bab,
)

from conftest import random_network_problem

POLICIES = (AlphaPolicy.fixed(1.0), AlphaPolicy.fixed(0.0), AlphaPolicy.adaptive(), AlphaPolicy.root())
CLIPS = ("none", "relaxed", "complete", "both")
# Thresholds closer than this (times the output spread) to the exact minimum
# are moved away: there the verdict turns on rounding, which this test does
# not judge.
MARGIN = 1e-6
# A bound may exceed the enumerated minimum by this (times the spread): both
# are computed in floating point.
ROUNDING = 1e-9


def _away_from_zero(problem: CanonicalProblem, rng):
    """The problem, its last bias shifted if its exact minimum lies within
    ``MARGIN * spread`` of 0, with that exact minimum and the spread."""
    box = problem.box
    pts = rng.uniform(box.lower, box.upper, size=(512, box.dim))
    top = float(problem.model.evaluate(pts).min(axis=1).max())
    low = exact_verify(problem).min_value
    spread = max(top - low, 1e-3)
    if abs(low) >= MARGIN * spread:
        return problem, low, spread
    shift = float(rng.choice([-2.0, 2.0])) * MARGIN * spread - low
    layers = list(problem.model.layers)
    last = layers[-1]
    layers[-1] = AffineLayer(last.weights, last.bias + shift)
    problem = CanonicalProblem(NetworkModel(layers), box, problem.num_rows)
    return problem, exact_verify(problem).min_value, spread


def _agrees_with_exact(problem: CanonicalProblem, rng, batch, search_seed):
    """Run every setting on ``problem`` (moved away from a zero minimum)
    and check each outcome against its exact minimum."""
    problem, low, spread = _away_from_zero(problem, rng)
    assert abs(low) >= MARGIN * spread
    for mode in ("input", "activation"):
        for clip in CLIPS:
            for alpha in POLICIES:
                cfg = BabConfig(mode=mode, clip=clip, batch=batch, alpha=alpha,
                                timeout=20.0, seed=search_seed)
                out = run_bab(problem, cfg)
                where = (mode, clip, alpha)
                if out.status == "verified":
                    assert low >= 0.0, where
                    assert out.bound is None or out.bound >= 0.0, where
                elif out.status == "falsified":
                    assert low < 0.0, where
                    assert problem.value(out.counterexample) < 0.0, where
                    assert problem.box.contains(out.counterexample), where
                if out.bound is not None:
                    assert out.bound <= low + ROUNDING * spread, where


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), rows=st.sampled_from([1, 2]),
       batch=st.sampled_from([1, 3, 8]), search_seed=st.integers(0, 2**16))
def test_every_slope_policy_agrees_with_exact_enumeration(seed, rows, batch, search_seed):
    rng = np.random.default_rng(seed)
    _agrees_with_exact(random_network_problem(rng, rows=rows), rng, batch, search_seed)


@st.composite
def degenerate_problems(draw):
    """A random net and box like ``random_network_problem``'s, with drawn
    degenerate parts: hidden layers as narrow as one neuron, all-zero weight
    rows (whose neurons see only their bias), input coordinates of zero
    width, a point box, one or two output rows.  At most two inputs and
    three neurons per layer keep every instance quick to decide."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2))
    hidden = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    widths = [n, *hidden, draw(st.sampled_from([1, 2]))]
    zero_rows = draw(st.booleans())
    layers = []
    for w_in, w_out in zip(widths, widths[1:]):
        weights = rng.normal(size=(w_out, w_in)) / np.sqrt(w_in)
        if zero_rows:
            weights[rng.random(w_out) < 0.4] = 0.0
        layers.append(AffineLayer(weights, 0.3 * rng.normal(size=w_out)))
    center = 0.4 * rng.normal(size=n)
    radius = rng.uniform(0.3, 1.2, size=n)
    flat = draw(st.sampled_from(["none", "some", "all"]))
    if flat == "some":
        radius[rng.random(n) < 0.5] = 0.0
    elif flat == "all":
        radius[:] = 0.0
    # recentred like random_network_problem's, so verdicts go both ways
    last = layers[-1]
    at_center = NetworkModel(layers).evaluate(center)
    layers[-1] = AffineLayer(last.weights, last.bias - at_center + 0.4 * rng.normal(size=widths[-1]))
    box = BoxDomain(center - radius, center + radius)
    return CanonicalProblem(NetworkModel(layers), box, widths[-1]), rng


# degenerate nets are decided within a few domains, so many more examples
# fit in the time of the test above
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=degenerate_problems(), batch=st.sampled_from([1, 3, 8]),
       search_seed=st.integers(0, 2**16))
def test_degenerate_inputs_agree_with_exact_enumeration(drawn, batch, search_seed):
    _agrees_with_exact(*drawn, batch, search_seed)


def test_verified_input_mode_bound_is_at_most_the_minimum():
    # Input mode harvests the plane of a lone open row and clips the
    # children to where it is negative.  That proves the rest of the box
    # nonnegative, but the bound computed over the clipped box says nothing
    # about the minimum over the part cut away: here the run reported
    # 0.0229 for a minimum of 0.0101.  A closed subdomain that carries
    # constraints now lowers the verified bound to 0.
    rng = np.random.default_rng(652)
    problem, low, spread = _away_from_zero(random_network_problem(rng, rows=2), rng)
    out = run_bab(problem, BabConfig(mode="input", clip="relaxed", alpha=AlphaPolicy.adaptive()))
    assert out.status == "verified"
    assert out.bound <= low + ROUNDING * spread
