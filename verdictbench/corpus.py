"""Seeded, margin-calibrated verification instances for the benchmark.

Each instance is a random ReLU net over an input box with one property
row.  Its threshold is placed from a dense sample of the output over the
box: the sampled minimum is moved to ``+-margin * spread``, where
``spread`` is the range of the sampled outputs.  Every fourth instance gets
the negative sign, so it is falsifiable by construction (a sampled point is
a counterexample); the others are mostly verified, and falsified only when
the true minimum dips below every sample.

Search effort varies by orders of magnitude between random nets, so two
corpora of independent nets differ more than two versions of the engine
usually do.  Each workload therefore draws its nets and boxes from a fixed
family (``FAMILY_SEED``), and the run's seed perturbs every weight, bias
and box center by a small relative ``JITTER`` and draws the calibration
samples.  The same seed gives the same inputs; another seed gives nearby
but different ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Seed of the instance family every run perturbs.
FAMILY_SEED = 2512
# Relative size of the seeded perturbation of weights, biases and centers.
JITTER = 0.002
# Smallest spread used to place a threshold.  A net whose sampled outputs
# are all equal (every hidden unit dead on the box) would otherwise get its
# threshold exactly at its constant output, where the verdict depends on
# rounding alone.
SPREAD_FLOOR = 1e-3
# Every NEGATIVE_EVERY-th instance gets a negative margin.
NEGATIVE_EVERY = 4
# Per-instance time limit.  It only guards against a runaway instance: each
# workload is sized so that every instance reaches a verdict well before it.
SAFETY_TIMEOUT = 30.0


@dataclass(frozen=True)
class Workload:
    """One seeded corpus and the engine settings it is run with.

    ``widths`` and ``radius`` fix the layer widths and the box half-width;
    ``None`` draws them per instance within the oracle's budgets (2-3
    inputs, two hidden layers of width 3-6, half-widths in [0.3, 1.2]).
    Every instance is run once per entry of ``modes``.  ``exact`` asks the
    gate to check each verdict against exhaustive enumeration.
    ``samples`` is the number of points sampled per instance to place its
    threshold: with 2048 on the mid and small nets, the sampled minimum, and
    so the search effort an instance needs, moved visibly from seed to seed.
    """

    name: str
    modes: tuple
    clip: str
    count: int
    margin: float
    widths: tuple | None
    radius: float | None
    exact: bool = False
    samples: int = 16384


WORKLOADS = (
    # The default path (input splitting, clip=both); complete clipping takes
    # most of its time.
    Workload(
        "input-mid",
        ("input",), "both", 64, 2.0,
        (4, 24, 24, 1), 0.5,
    ),
    # The same clipping layer used differently: up to 16 split constraints per
    # dual solve, lower and upper solves for the top-k neurons, branching by
    # neuron score.
    Workload(
        "activation-mid",
        ("activation",), "both", 64, 0.3,
        (3, 12, 12, 1), 0.15,
    ),
    # Bound propagation dominates and no clipping runs: the bypass workload,
    # on which a clipping change is predicted to show no change.  A sample
    # costs 18x more here than on input-mid, and the search effort was
    # already steady with 2048.
    Workload(
        "input-deep",
        ("input",), "none", 32, 2.0,
        (3, 64, 64, 64, 64, 1), 0.3, samples=2048,
    ),
    # Oracle-sized nets: every verdict has an exact reference, and fixed
    # per-call costs (constructor validation, tiny arrays) dominate.
    Workload(
        "small-exact",
        ("input", "activation"), "both", 32, 0.3,
        None, None, exact=True,
    ),
)


@dataclass
class Job:
    """One engine run: an instance, the config to run it with, and what the
    generator knows about its answer.

    ``witness`` is a sampled input whose canonical value is negative; it is
    set for negative-margin instances only.
    """

    ident: int
    instance: int
    problem: object
    config: object
    witness: np.ndarray | None


def _jittered(family, noise, shape, scale):
    base = family.normal(size=shape)
    return scale * (base + JITTER * noise.normal(size=shape))


def make_problem(cv, family, noise, widths, radius, margin, sign, samples):
    """Random ReLU net over a box, its threshold placed at ``sign * margin``.

    ``family`` draws the net and the box; ``noise`` draws their jitter and
    the calibration samples.  Returns the canonical problem and the sampled
    input of lowest output.
    """
    layers = [
        cv.AffineLayer(
            _jittered(family, noise, (w_out, w_in), 1.0 / np.sqrt(w_in)),
            _jittered(family, noise, w_out, 0.3),
        )
        for w_in, w_out in zip(widths, widths[1:])
    ]
    model = cv.NetworkModel(layers)
    n = widths[0]
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (n,))
    center = _jittered(family, noise, n, 0.4)
    lower, upper = center - radius, center + radius
    pts = noise.uniform(lower, upper, size=(samples, n))
    vals = model.evaluate(pts)[:, 0]
    lo = int(np.argmin(vals))
    spread = max(float(vals.max() - vals[lo]), SPREAD_FLOOR)
    threshold = float(vals[lo]) - sign * margin * spread
    prop = cv.PropertySpec(lower, upper, [[1.0]], [threshold])
    return cv.canonicalize(model, prop), pts[lo].copy()


def build_jobs(cv, workload: Workload, seed: int):
    """The workload's corpus for ``seed``: same seed, same jobs."""
    salt = [w.name for w in WORKLOADS].index(workload.name)
    family = np.random.default_rng([FAMILY_SEED, salt])
    noise = np.random.default_rng([seed, salt])
    jobs = []
    for i in range(workload.count):
        sign = -1 if i % NEGATIVE_EVERY == NEGATIVE_EVERY - 1 else 1
        widths = workload.widths
        if widths is None:
            widths = (int(family.integers(2, 4)), int(family.integers(3, 7)),
                      int(family.integers(3, 7)), 1)
        radius = workload.radius
        if radius is None:
            radius = family.uniform(0.3, 1.2, size=widths[0])
        problem, lowest = make_problem(
            cv, family, noise, widths, radius, workload.margin, sign, workload.samples
        )
        for mode in workload.modes:
            cfg = cv.BabConfig(mode=mode, clip=workload.clip, timeout=SAFETY_TIMEOUT)
            jobs.append(Job(len(jobs), i, problem, cfg, lowest if sign < 0 else None))
    return jobs
