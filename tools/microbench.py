"""Per-call cost of the sampling primitives: forward evaluation and the attack.

Usage: ``python3 tools/microbench.py [--calls N]``

Imports clipverify from this checkout's ``src`` and times, per call,
``NetworkModel.evaluate`` at the calibration shape of each benchmark
workload (and at the search's largest falsification batch) and
``sample_attack(count=20000)`` on the same nets.  For each it prints the CPU
milliseconds (user and system) and the minor page faults per call, from
``resource.getrusage``, after a few warm-up calls.  One BLAS thread, as in
the verdict benchmark.  The nets are random with fixed seeds, so two
checkouts time the same work.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (BLAS reads its thread count at import)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import clipverify as cv  # noqa: E402

# (name, layer widths, rows, attack): each workload's calibration batch in
# verdictbench/corpus.py (small-exact at its widest oracle-sized net), with
# the gate's attack on the same net, and the search's largest falsification
# batch, 16 children of 1 + 8 points each.
SHAPES = (
    ("input-mid", (4, 24, 24, 1), 16384, True),
    ("activation-mid", (3, 12, 12, 1), 16384, True),
    ("input-deep", (3, 64, 64, 64, 64, 1), 2048, True),
    ("small-exact", (3, 6, 6, 1), 16384, True),
    ("falsify batch", (4, 24, 24, 1), 144, False),
)
ATTACK_SAMPLES = 20000
WARMUP = 3


def random_problem(widths, seed):
    """A seeded random net of ``widths`` over [-0.5, 0.5]^n, canonicalized."""
    rng = np.random.default_rng(seed)
    layers = [
        cv.AffineLayer(rng.normal(size=(o, i)) / np.sqrt(i), 0.3 * rng.normal(size=o))
        for i, o in zip(widths, widths[1:])
    ]
    n = widths[0]
    prop = cv.PropertySpec(-0.5 * np.ones(n), 0.5 * np.ones(n), [[1.0]], [0.0])
    return cv.canonicalize(cv.NetworkModel(layers), prop)


def per_call(fn, calls):
    """(user ms, system ms, minor faults) per call, averaged over ``calls``."""
    for _ in range(WARMUP):
        fn()
    before = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(calls):
        fn()
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (
        1e3 * (after.ru_utime - before.ru_utime) / calls,
        1e3 * (after.ru_stime - before.ru_stime) / calls,
        (after.ru_minflt - before.ru_minflt) / calls,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=200, help="timed calls per row")
    args = parser.parse_args()
    print(f"numpy {np.__version__}, {os.cpu_count()} CPUs, {args.calls} calls per row")
    print(f"{'primitive':<34}{'shape':<26}{'cpu ms':>8}{'user':>8}{'sys':>8}{'faults':>9}")
    for seed, (name, widths, rows, attack) in enumerate(SHAPES):
        problem = random_problem(widths, seed)
        box = problem.box
        pts = np.random.default_rng(seed).uniform(box.lower, box.upper, size=(rows, widths[0]))
        cases = [(f"evaluate {name}", f"({rows}, {widths[0]})", lambda: problem.model.evaluate(pts))]
        if attack:
            cases.append((
                f"sample_attack {name}", f"({ATTACK_SAMPLES + 1}, {widths[0]})",
                lambda: cv.sample_attack(problem, count=ATTACK_SAMPLES, seed=seed),
            ))
        for label, shape, fn in cases:
            user, system, faults = per_call(fn, args.calls)
            print(f"{label:<34}{shape:<26}{user + system:8.3f}{user:8.3f}{system:8.3f}{faults:9.1f}")


if __name__ == "__main__":
    main()
