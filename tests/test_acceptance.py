"""End-to-end acceptance checks, one test per numbered criterion.

Each test pins the tolerances and budgets it must meet; running the module
with ``pytest -v`` yields one pass/fail line per criterion.
"""

import json
import time

import numpy as np

from clipverify import (
    BabConfig,
    BoxDomain,
    BranchProbe,
    ConstraintSet,
    LinearConstraint,
    compute_bounds,
    coordinate_ascent,
    count_unstable,
    exact_verify,
    greedy_knapsack,
    lp_box_oracle,
    relaxed_clip_sequential,
    relaxed_clip_single,
    run_bab,
    tighten_lower_single,
    tighten_upper_single,
    to_knapsack,
)
from clipverify.cli import run as cli_run

from conftest import (
    random_box,
    random_network_problem,
    toy_box,
    toy_constraint,
    toy_model,
    toy_problem,
)


def _single_constraint_corpus(count=1000, seed=101, n_max=8):
    """Seeded instances (objective, box, half-space) shared by criteria 4/5."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        box = random_box(rng, n)
        a, c = rng.normal(size=n), float(rng.normal())
        cons = LinearConstraint(rng.normal(size=n), float(rng.normal()))
        corpus.append((a, c, box, cons))
    return corpus


def test_01_backward_propagation_reproduces_hand_worked_network():
    model, box = toy_model(), toy_box()
    compute_bounds(model, box)  # warm import paths before timing
    elapsed = np.inf
    for _ in range(5):
        start = time.perf_counter()
        res = compute_bounds(model, box)
        elapsed = min(elapsed, time.perf_counter() - start)
    np.testing.assert_allclose(res.layer_bounds[0].lower, [-2.0, -13.0], atol=1e-12)
    np.testing.assert_allclose(res.layer_bounds[0].upper, [22.0, 5.0], atol=1e-12)
    assert abs(res.final_lower[0] - (-19.0 / 6.0)) <= 1e-12
    assert elapsed < 1e-3


def test_02_box_contraction_golden_case():
    model = toy_model()
    clipped = relaxed_clip_single(toy_box(), toy_constraint())
    np.testing.assert_allclose(clipped.lower, [-1.0, 5.0 / 7.0], atol=1e-12)
    np.testing.assert_allclose(clipped.upper, [1.0, 1.0], atol=1e-12)
    res = compute_bounds(model, clipped)
    np.testing.assert_allclose(
        res.layer_bounds[0].upper, [2.0, -19.0 / 7.0], atol=1e-12
    )
    assert abs(res.final_lower[0] - (-2.0)) <= 1e-12


def test_03_exact_tightening_golden_case():
    box, cons = toy_box(), toy_constraint()
    sol2 = tighten_upper_single(np.array([5.0, -1.0]), -7.0, box, cons)
    assert abs(sol2.beta - 5.0) <= 1e-12
    assert abs(sol2.bound - (-3.0)) <= 1e-12
    sol1 = tighten_upper_single(np.array([1.0, -7.0]), 6.0, box, cons)
    assert abs(sol1.bound - 0.0) <= 1e-12
    overrides = [(None, np.array([0.0, -3.0])), None]
    res = compute_bounds(toy_model(), box, overrides=overrides)
    assert res.final_lower[0] >= -1e-12


def test_04_single_constraint_duality_is_exact():
    corpus = _single_constraint_corpus()
    start = time.perf_counter()
    for a, c, box, cons in corpus:
        sol = tighten_lower_single(a, c, box, cons)
        oracle = lp_box_oracle(
            a, c, box, (cons.normal[None, :], np.array([cons.offset]))
        )
        if oracle.status == "infeasible":
            assert np.isinf(sol.bound) and sol.bound > 0
            continue
        assert np.isfinite(sol.bound)
        assert abs(sol.bound - oracle.value) <= 1e-9
    elapsed = time.perf_counter() - start
    assert len(corpus) >= 1000
    assert elapsed < 5.0


def test_05_knapsack_reduction_matches_dual_solver():
    for a, c, box, cons in _single_constraint_corpus():
        sol = tighten_lower_single(a, c, box, cons)
        inst = to_knapsack(a, c, box, cons)
        packed = greedy_knapsack(inst)
        if packed == -np.inf:
            assert np.isinf(sol.bound) and sol.bound > 0
            continue
        via_knapsack = float(a @ box.lower) + c - packed
        assert abs(via_knapsack - sol.bound) <= 1e-9


def test_06_multi_constraint_ascent_is_sound_and_monotone():
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        box = random_box(rng, n)
        a, c = rng.normal(size=n), float(rng.normal())
        cset = ConstraintSet(rng.normal(size=(m, n)), rng.normal(size=m))
        sol = coordinate_ascent(a, c, box, cset, passes=2)
        plain = float(a @ box.center) - float(np.abs(a) @ box.radius) + c
        trace = np.asarray(sol.trace)
        assert np.all(np.diff(trace) >= -1e-9)
        if np.isinf(sol.bound):
            checked += 1
            continue
        assert sol.bound >= plain - 1e-9
        oracle = lp_box_oracle(a, c, box, cset)
        assert sol.bound <= oracle.value + 1e-9
        if m == 1:
            exact = tighten_lower_single(a, c, box, cset.row(0))
            assert abs(sol.bound - exact.bound) <= 1e-9
        checked += 1
    assert checked >= 500


def test_07_single_constraint_contraction_is_coordinatewise_tight():
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 7))
        box = random_box(rng, n)
        cons = LinearConstraint(rng.normal(size=n), float(rng.normal()))
        clipped = relaxed_clip_single(box, cons)
        pair = (cons.normal[None, :], np.array([cons.offset]))
        if clipped.is_empty:
            assert lp_box_oracle(np.zeros(n), 0.0, box, pair).status == "infeasible"
            checked += 1
            continue
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            lo = lp_box_oracle(e, 0.0, box, pair, direction="min")
            hi = lp_box_oracle(e, 0.0, box, pair, direction="max")
            assert abs(clipped.lower[i] - lo.value) <= 1e-9
            assert abs(clipped.upper[i] - hi.value) <= 1e-9
        pts = rng.uniform(box.lower, box.upper, size=(200, n))
        feas = pts[pts @ cons.normal + cons.offset <= 0.0]
        if feas.size:
            assert np.all(feas >= clipped.lower - 1e-9)
            assert np.all(feas <= clipped.upper + 1e-9)
        checked += 1
    assert checked >= 500


def test_08_sequential_contraction_is_order_dependent():
    box = BoxDomain(np.zeros(2), np.ones(2))
    c1 = LinearConstraint(np.array([1.0, -1.0]), 0.0)  # x1 <= x2
    c2 = LinearConstraint(np.array([0.0, 1.0]), -0.5)  # x2 <= 0.5
    order_21 = ConstraintSet(
        np.vstack([c2.normal, c1.normal]), np.array([c2.offset, c1.offset])
    )
    order_12 = ConstraintSet(
        np.vstack([c1.normal, c2.normal]), np.array([c1.offset, c2.offset])
    )
    first = relaxed_clip_sequential(box, order_21)
    second = relaxed_clip_sequential(box, order_12)
    assert abs(first.upper[0] - 0.5) <= 1e-12
    assert abs(second.upper[0] - 1.0) <= 1e-12
    rng = np.random.default_rng(404)
    pts = rng.uniform(0.0, 1.0, size=(5000, 2))
    feas = pts[(pts[:, 0] <= pts[:, 1]) & (pts[:, 1] <= 0.5)]
    for clipped in (first, second):
        assert np.all(feas >= clipped.lower - 1e-12)
        assert np.all(feas <= clipped.upper + 1e-12)


def test_09_search_agrees_with_exhaustive_enumeration():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    instances = 0
    while instances < 100:
        prob = random_network_problem(rng, dim_max=3, width_max=6, hidden=2)
        if count_unstable(prob, prob.box) > 12:
            continue
        truth = exact_verify(prob)
        holds = truth.min_value >= 0.0
        for mode in ("input", "activation"):
            out = run_bab(prob, BabConfig(mode=mode, clip="both", timeout=20.0))
            assert out.status == ("verified" if holds else "falsified"), (
                f"instance {instances} mode {mode}: got {out.status}, "
                f"exhaustive minimum {truth.min_value}"
            )
            if out.status == "falsified":
                assert prob.value(out.counterexample) < 0.0
        instances += 1
    elapsed = time.perf_counter() - start
    assert instances == 100
    assert elapsed < 60.0


def test_10_box_clipping_only_ever_tightens_the_search():
    rng = np.random.default_rng(123)
    instances = 0
    strictly_tighter = 0
    visited_pairs = []
    while instances < 20:
        prob = random_network_problem(rng, dim_max=3, width_max=6, hidden=2)
        baseline_probe = BranchProbe()
        baseline = run_bab(
            prob,
            BabConfig(mode="input", clip="none", batch=1, timeout=20.0),
            baseline_probe,
        )
        if baseline.stats.domains_visited < 8:
            continue
        replay_probe = BranchProbe(replay=dict(baseline_probe.decisions))
        clipped = run_bab(
            prob,
            BabConfig(mode="input", clip="relaxed", batch=1, timeout=20.0),
            replay_probe,
        )
        tighter_here = False
        shared = set(baseline_probe.intervals) & set(replay_probe.intervals)
        assert shared
        for path in shared:
            pairs = zip(baseline_probe.intervals[path], replay_probe.intervals[path])
            for (l0, u0), (l1, u1) in pairs:
                assert np.all(l1 >= l0 - 1e-9), f"looser lower bound at {path}"
                assert np.all(u1 <= u0 + 1e-9), f"looser upper bound at {path}"
                if np.any(l1 > l0 + 1e-9) or np.any(u1 < u0 - 1e-9):
                    tighter_here = True
        if tighter_here:
            strictly_tighter += 1
        visited_pairs.append(
            (clipped.stats.domains_visited, baseline.stats.domains_visited)
        )
        instances += 1
    visited = np.asarray(visited_pairs, dtype=float)
    assert instances >= 20
    assert np.median(visited[:, 0]) <= np.median(visited[:, 1])
    assert strictly_tighter >= 1


def test_11_identical_runs_produce_identical_reports(tmp_path, capsys):
    model, box = toy_model(), toy_box()
    mpath = tmp_path / "model.json"
    ppath = tmp_path / "prop.json"
    mpath.write_text(
        json.dumps(
            {
                "layers": [
                    {"weights": l.weights.tolist(), "bias": l.bias.tolist()}
                    for l in model.layers
                ]
            }
        )
    )
    ppath.write_text(
        json.dumps(
            {
                "input_lower": box.lower.tolist(),
                "input_upper": box.upper.tolist(),
                "spec_matrix": [[1.0]],
                "threshold": [-40.0],
            }
        )
    )
    reports = []
    for _ in range(2):
        code = cli_run(
            [
                "--model", str(mpath),
                "--property", str(ppath),
                "--mode", "activation",
                "--clip", "both",
                "--seed", "5",
                "--batch", "4",
            ]
        )
        assert code == 0
        reports.append(json.loads(capsys.readouterr().out))
    first, second = reports
    first.pop("time_s")
    second.pop("time_s")
    assert first == second
