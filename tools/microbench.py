"""Per-call cost and memory of the engine's primitives.

Usage: ``python3 tools/microbench.py [--calls N]``

Imports clipverify from this checkout's ``src`` and prints three tables:

* ``NetworkModel.evaluate`` at the calibration shape of each benchmark
  workload (and at the search's largest falsification batch) and
  ``sample_attack(count=20000)`` on the same nets: CPU milliseconds (user
  and system) and minor page faults per call, from ``resource.getrusage``,
  after a few warm-up calls;
* ``bound_batch`` on each workload's net at B = 1 (a root pass) and B = 16
  (a round of children), and on three wide nets: CPU milliseconds per call
  (on a wide net, of the fastest of ``WIDE_CALLS`` calls, by
  ``time.process_time``) and the ``tracemalloc`` peak of one call, and
  next to them, timed the same way, the CPU milliseconds of the bound the
  search adds after each pass, ``crown.zero_slope_lower`` on that pass;
* a long activation-mode run with ``clip=both`` on a hard 4-24-24-1
  instance at ``--batch`` 16 (the default) and 64: the domains it visits
  within ``LONG_SECONDS`` and its ``tracemalloc`` peak, in total and per
  domain.

One BLAS thread, as in the verdict benchmark.  The nets are random with
fixed seeds, so two checkouts time the same work.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (BLAS reads its thread count at import)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import clipverify as cv  # noqa: E402
from clipverify.crown import zero_slope_lower  # noqa: E402

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
# (name, layer widths, batches): bound_batch on each workload's net, and on
# wide nets, where a scratch sized by batch x width^2 used to dominate.
BOUND_SHAPES = (
    ("input-mid", (4, 24, 24, 1), (1, 16)),
    ("activation-mid", (3, 12, 12, 1), (1, 16)),
    ("input-deep", (3, 64, 64, 64, 64, 1), (1, 16)),
    ("small-exact", (3, 6, 6, 1), (1, 16)),
    ("wide", (64, 512, 512, 512, 1), (16,)),
    ("wide", (784, 1024, 1024, 10), (8,)),
    ("wide", (784, 256, 256, 256, 10), (16,)),
)
# Timed calls per wide-net row.  Each takes about a second, too long to
# average away the host's spread (one slow call in three moved a mean by
# 30%), so the row reports the fastest.
WIDE_CALLS = 5
LONG_BATCHES = (16, 64)
# Budget of each long run: enough for thousands of domains on hard_problem.
LONG_SECONDS = 6.0


def random_problem(widths, seed):
    """A seeded random net of ``widths`` over [-0.5, 0.5]^n, canonicalized
    with one property row per output, each ``f_i(x) >= 0``."""
    rng = np.random.default_rng(seed)
    layers = [
        cv.AffineLayer(rng.normal(size=(o, i)) / np.sqrt(i), 0.3 * rng.normal(size=o))
        for i, o in zip(widths, widths[1:])
    ]
    n = widths[0]
    rows = widths[-1]
    prop = cv.PropertySpec(-0.5 * np.ones(n), 0.5 * np.ones(n), np.eye(rows), np.zeros(rows))
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


def fastest_call(fn, calls):
    """CPU milliseconds (process time) of the fastest of ``calls`` calls."""
    times = []
    for _ in range(calls):
        t0 = time.process_time()
        fn()
        times.append(time.process_time() - t0)
    return 1e3 * min(times)


def traced_peak(fn):
    """(result, tracemalloc peak in MB) of one call of ``fn``."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak / 1e6


def hard_problem(seed=5):
    """A 4-24-24-1 instance whose sampled minimum sits 1% of the sampled
    spread above its threshold: an activation-mode search with
    ``clip=both`` neither verifies nor falsifies it within 6 s."""
    problem = random_problem((4, 24, 24, 1), seed)
    box = problem.box
    pts = np.random.default_rng(seed).uniform(box.lower, box.upper, size=(16384, box.dim))
    values = problem.model.evaluate(pts)
    shift = float(values.min()) - 0.01 * float(values.max() - values.min())
    layers = list(problem.model.layers)
    layers[-1] = cv.AffineLayer(layers[-1].weights, layers[-1].bias - shift)
    return cv.CanonicalProblem(cv.NetworkModel(layers), box, 1)


def bench_bound_batch(calls):
    print(f"{'bound_batch':<34}{'net, batch':<26}{'cpu ms':>8}{'peak MB':>9}{'zero ms':>10}")
    for seed, (name, widths, batches) in enumerate(BOUND_SHAPES):
        problem = random_problem(widths, 100 + seed)
        box = problem.box
        rng = np.random.default_rng(seed)
        for batch in batches:
            t = rng.uniform(size=(2, batch, widths[0]))
            lowers = box.lower + t.min(axis=0) * (box.upper - box.lower)
            uppers = box.lower + t.max(axis=0) * (box.upper - box.lower)

            def call():
                return cv.bound_batch(problem.model, lowers, uppers)

            res, _ = call()

            def zero_walk():
                return zero_slope_lower(problem.model, res, lowers, uppers)

            cpus = []
            for fn in (call, zero_walk):
                if name == "wide":
                    cpus.append(fastest_call(fn, WIDE_CALLS))
                else:
                    user, system, _ = per_call(fn, calls)
                    cpus.append(user + system)
            _, peak = traced_peak(call)
            shape = f"{'-'.join(map(str, widths))}, B={batch}"
            print(f"{name:<34}{shape:<26}{cpus[0]:8.1f}{peak:9.2f}{cpus[1]:10.3f}")


def bench_long_runs():
    print(f"{'run_bab activation/both':<34}{'batch, budget':<26}{'domains':>8}"
          f"{'peak MB':>9}{'KB/domain':>11}")
    problem = hard_problem()
    for batch in LONG_BATCHES:
        cfg = cv.BabConfig(mode="activation", clip="both", batch=batch, timeout=LONG_SECONDS)
        t0 = time.process_time()
        out, peak = traced_peak(lambda: cv.run_bab(problem, cfg))
        cpu = time.process_time() - t0
        domains = out.stats.domains_visited
        shape = f"{batch}, {LONG_SECONDS:g} s ({out.status}, {cpu:.1f} s cpu)"
        print(f"{'hard 4-24-24-1':<34}{shape:<26}{domains:8d}{peak:9.2f}"
              f"{1e3 * peak / max(domains, 1):11.2f}")


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
    bench_bound_batch(args.calls)
    bench_long_runs()


if __name__ == "__main__":
    main()
