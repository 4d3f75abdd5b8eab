#!/usr/bin/env python3
"""Verdict benchmark for clipverify.

Usage, from the root of a checkout:

    python3 verdictbench/run.py --workload input-mid --seed 1 --seconds 20 --trace 0

Builds the workload's seeded corpus, then runs ``clipverify.run_bab`` on
one instance at a time (closed loop, one process, one engine thread) and
passes over the corpus again for ``--seconds``.

Times are reported in ``ref``: multiples of the time the host takes, at
that moment, for a fixed reference computation (``make_reference``).  On a
shared host every piece of code runs up to about 1.8x slower for stretches
of up to a minute, long enough to swallow whole runs, while the ratio of
engine time to reference time stays within a few percent.  So the
reference runs before every instance and after the last one, each
instance's time is divided by the mean of the two references around it,
and an instance's time to verdict is the median of these ratios over the
passes.  Both sides of the ratio, and setup_s, are process CPU time: the
engine runs on one thread and does no I/O, so CPU time is its wall time
less the stretches in which the process was not running at all, which a
ratio of wall times cannot cancel.  On a 2-vCPU VM with two busy-looping
processes beside the benchmark, wall-time ratios raised corpus_ref by 22%
and CPU-time ratios by 1%.  The wall seconds are printed too, ungated.

Every verdict is checked afterwards, outside all timed metrics; a wrong
verdict makes the run exit with code 1.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports per-layer counts and self times
from a traced pass (see spans.py) and writes its spans under
``.verdictbench_out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> dict:
    """One engine thread and one BLAS thread, before numpy is imported."""
    os.environ["CLIPVERIFY_THREADS"] = "1"
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    return {var: os.environ[var] for var in ("CLIPVERIFY_THREADS",) + BLAS_VARS}


PINNED = pin_environment()

import numpy as np  # noqa: E402  (BLAS reads its thread count at import)

ROOT = Path(__file__).resolve().parent.parent
ENGINE_SRC = ROOT / "src"
OUT_DIR = ROOT / ".verdictbench_out"
# Clock of every gated time: CPU time of this process (see above).
CLOCK = time.process_time
# Set-up rounds per run, spread evenly over it; setup_s is their median.
SETUP_REPEATS = 7
# Sizes of the three parts of the reference computation (unit ``ref``).
REF_PRODUCTS = 100
REF_PYTHON = 750
REF_ARRAYS = 75
# Grid points used to integrate the Beta weights of ``harrell_davis``.
HD_GRID = 20001
# Uniform samples per verified instance in the gate's attack.
DENSE_SAMPLES = 20000
# Slack allowed when checking that a counterexample lies in its box.
BOX_TOL = 1e-9
# Instances timed under the engine's default thread setting (informational).
THREAD_PROBE_JOBS = 8
# Time limit of the informational deadline probe.
DEADLINE_PROBE_TIMEOUT = 8.0


def load_engine():
    """Import clipverify afresh from this checkout's ``src`` directory."""
    for name in [m for m in sys.modules if m == "clipverify" or m.startswith("clipverify.")]:
        del sys.modules[name]
    cv = importlib.import_module("clipverify")
    if Path(cv.__file__).resolve().parent != ENGINE_SRC / "clipverify":
        raise ImportError(f"clipverify imported from {cv.__file__}, not this checkout")
    return cv


def make_reference():
    """The fixed computation whose duration is one ``ref``.

    Three parts, like the engine's work: small dense products and ufuncs
    driven from Python, plain Python dict and list updates, and creation of
    small arrays.  Together they tracked the engine's slow and fast phases
    closer than any one of them alone.  Returns a function that runs the
    computation once and returns its CPU time in seconds.
    """
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(24, 24)) / 5.0
    start = rng.normal(size=24)

    def timed() -> float:
        t0 = CLOCK()
        x = start
        for _ in range(REF_PRODUCTS):
            y = np.maximum(weights @ x, 0.0)
            x = y / (1.0 + float(np.abs(y).sum()))
        table, recent, acc = {}, [], 0.0
        for i in range(REF_PYTHON):
            acc += 0.5 * i
            table[i % 31] = acc
            recent.append((i, acc))
            if len(recent) > 50:
                recent.pop(0)
        for i in range(REF_ARRAYS):
            a = np.zeros(12)
            a[3] = i
            float(np.concatenate((a, np.where(a > 1.0, a, -a))).sum())
        return CLOCK() - t0

    return timed


class Run(NamedTuple):
    """One job's run in one pass."""

    seconds: float  # wall time
    cpu_s: float
    ref_s: float  # mean CPU time of the references just before and after
    outcome: object

    @property
    def refs(self) -> float:
        return self.cpu_s / self.ref_s


def run_pass(cv, jobs, reference, tracer=None):
    """One closed-loop pass over ``jobs``, a reference run between jobs."""
    results = []
    before = reference()
    for job in jobs:
        if tracer is not None:
            sid = tracer.open_instance(job.ident)
        t0, c0 = time.perf_counter(), CLOCK()
        out = cv.run_bab(job.problem, job.config)
        dt, dc = time.perf_counter() - t0, CLOCK() - c0
        if tracer is not None:
            tracer.close(sid)
        after = reference()
        results.append(Run(dt, dc, 0.5 * (before + after), out))
        before = after
    return results


def timed_passes(cv, jobs, reference, seconds: float, setup_round):
    """Passes over the corpus for ``seconds`` (at least one pass).

    A pass starts only if one as long as the last pass still ends within
    ``seconds``.  The other ``SETUP_REPEATS - 1`` set-up rounds run between
    passes, one each time another ``SETUP_REPEATS``-th of the run has gone
    by, so that setup_s samples the whole run and not only its first
    second.  Returns the passes and the durations ``setup_round`` returned.
    """
    passes, setups = [], []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last < seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(cv, jobs, reference))
        last = time.perf_counter() - t0
        due = (len(setups) + 1) * seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS - 1 and time.perf_counter() - start >= due:
            setups.append(setup_round())
    while len(setups) < SETUP_REPEATS - 1:
        setups.append(setup_round())
    return passes, setups


def check_verdicts(cv, workload, jobs, passes):
    """The correctness gate.

    Returns ``(wrong, undecided)``: (job id, reason) for every verdict that
    contradicts a reference, and the ids of jobs left without a verdict.
    """
    wrong, undecided = [], []
    exact_cache = {}
    for job in jobs:
        outs = [p[job.ident].outcome for p in passes]
        status = outs[0].status
        tag = f"job {job.ident} (instance {job.instance}, {job.config.mode})"
        if any(o.status != status for o in outs):
            wrong.append((job.ident, f"{tag}: verdict changed between passes"))
            continue
        if status == "unknown":
            undecided.append(job.ident)
            continue
        problem = job.problem
        if status == "falsified":
            for o in outs:
                x = o.counterexample
                if x is None or not problem.box.contains(x, BOX_TOL):
                    wrong.append((job.ident, f"{tag}: counterexample missing or outside the box"))
                    break
                if float(problem.model.evaluate(x).min()) >= 0.0:
                    wrong.append((job.ident, f"{tag}: counterexample does not violate the property"))
                    break
            continue
        # Verified.  A falsified verdict is proved by its counterexample, so
        # only "verified" needs a reference.
        if job.witness is not None:
            wrong.append((job.ident, f"{tag}: verified, but the generator's witness is negative"))
            continue
        value, _ = cv.sample_attack(problem, count=DENSE_SAMPLES, seed=job.ident)
        if value < 0.0:
            wrong.append((job.ident, f"{tag}: verified, but sampling found {value:.3g}"))
            continue
        if workload.exact:
            if job.instance not in exact_cache:
                exact_cache[job.instance] = cv.exact_verify(problem).min_value
            if exact_cache[job.instance] < 0.0:
                wrong.append((job.ident, f"{tag}: verified, exact minimum "
                                          f"is {exact_cache[job.instance]:.3g}"))
    return wrong, undecided


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples above it."""
    return 100 * (n - 10) // n


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A mean of all order statistics weighted by a Beta(p(n+1), (1-p)(n+1))
    distribution.  Search effort comes in steps of whole domains, so the
    sample quantile jumps between instances of different step counts when
    the corpus changes slightly; this estimate moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, HD_GRID)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    edges = np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1])
    return float(np.diff(edges) @ x)


def per_job_median(jobs, passes, attr: str):
    """Each job's median over the passes of one ``Run`` attribute."""
    return [statistics.median(getattr(p[job.ident], attr) for p in passes) for job in jobs]


def corpus_refs(jobs, passes) -> float:
    return sum(per_job_median(jobs, passes, "refs"))


def end_to_end(jobs, passes, setup_s):
    """Gated metrics, and ungated ones giving the same times in wall seconds."""
    domains = sum(run.outcome.stats.domains_visited for run in passes[0])
    decided = sum(run.outcome.status != "unknown" for run in passes[0])
    metrics = {"setup_s": (setup_s, "s")}
    notes = {}
    raw = {}
    pct = tail_percentile(len(jobs))
    for attr, label, unit in (("refs", "ref", "ref"), ("seconds", "s", "s")):
        per_job = per_job_median(jobs, passes, attr)
        out = metrics if attr == "refs" else raw
        out[f"corpus_{label}"] = (sum(per_job), unit)
        out[f"verdict_{label}.p50"] = (harrell_davis(per_job, 0.5), unit)
        out[f"verdict_{label}.tail"] = (harrell_davis(per_job, pct / 100), unit)
        out[f"domains_per_{label}"] = (domains / sum(per_job), f"1/{unit}")
        notes[f"verdict_{label}.tail"] = f"  (p{pct}, n={len(per_job)})"
    metrics["decided_frac"] = (decided / len(jobs), "frac")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return metrics, raw, notes


def per_layer(tracer, traced, base_refs, check_s):
    calls_self = tracer.self_times()
    traced_s = sum(run.seconds for run in traced)
    m = {}
    for name, (calls, self_s) in calls_self.items():
        if name == "bab.run_bab":
            continue  # reported as bab.self_s below
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (self_s, "s")
    ascents = calls_self["clipping.coordinate_ascent"][0]
    clips = calls_self["clipping.relaxed_clip"][0]
    m["clipping.coordinate_ascent.constraints_mean"] = (
        tracer.ascent_constraints / ascents if ascents else 0.0, "count")
    m["clipping.coordinate_ascent.useful_frac"] = (
        tracer.ascent_useful / ascents if ascents else 0.0, "frac")
    m["clipping.relaxed_clip.volume_ratio"] = (
        tracer.clip_ratio_sum / clips if clips else 0.0, "frac")
    m["clipping.relaxed_clip.empty_frac"] = (
        tracer.clip_empty / clips if clips else 0.0, "frac")
    m["bab.domains"] = (sum(run.outcome.stats.domains_visited for run in traced), "count")
    m["bab.max_depth"] = (max(run.outcome.stats.max_depth for run in traced), "count")
    m["bab.self_s"] = (calls_self["bab.run_bab"][1], "s")
    for key, count in tracer.constructions.items():
        m[key] = (count, "count")
    m["oracle.check_s"] = (check_s, "s")
    m["trace.corpus_s"] = (traced_s, "s")
    traced_refs = sum(run.refs for run in traced)
    m["trace.overhead_frac"] = (traced_refs / base_refs - 1.0, "frac")
    return m, calls_self, traced_s


def layer_summary(tracer, calls_self, traced_s):
    """Text lines: self time per module and the two clipping layers."""
    by_module = {}
    for name, (_, self_s) in calls_self.items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + self_s
    lines = [f"# self time sum {sum(by_module.values()):.4f} s "
             f"of traced corpus_s {traced_s:.4f} s"]
    for module, s in sorted(by_module.items(), key=lambda kv: -kv[1]):
        lines.append(f"#   {module:10s} {s:9.4f} s  {100 * s / traced_s:5.1f}%")
    for label, name in (("complete clipping", "clipping.coordinate_ascent"),
                        ("relaxed clipping", "clipping.relaxed_clip")):
        s = tracer.inclusive_time(name)
        lines.append(f"#   {label} (inclusive) {s:.4f} s  {100 * s / traced_s:5.1f}%")
    return lines


def thread_probe(cv, jobs, reference):
    """Time the first jobs pinned, then under the engine's default threads."""
    sample = jobs[:THREAD_PROBE_JOBS]
    pinned = run_pass(cv, sample, reference)
    del os.environ["CLIPVERIFY_THREADS"]
    try:
        default = run_pass(cv, sample, reference)
    finally:
        os.environ["CLIPVERIFY_THREADS"] = "1"
    sums = [(sum(r.seconds for r in p), sum(r.refs for r in p)) for p in (pinned, default)]
    return (f"# info threads: first {len(sample)} instances take "
            f"{sums[0][0]:.3f} s ({sums[0][1]:.0f} ref) with CLIPVERIFY_THREADS=1 and "
            f"{sums[1][0]:.3f} s ({sums[1][1]:.0f} ref) with the default "
            f"({os.cpu_count()} cpus); ungated")


def deadline_probe(cv, corpus, seed):
    """Run one hard activation/both instance against a fixed time budget."""
    family = np.random.default_rng([corpus.FAMILY_SEED, 100])
    noise = np.random.default_rng([seed, 100])
    problem, _ = corpus.make_problem(cv, family, noise, (4, 24, 24, 1), 0.5, 0.05, 1, 2048)
    cfg = cv.BabConfig(mode="activation", clip="both", timeout=DEADLINE_PROBE_TIMEOUT)
    t0 = time.perf_counter()
    out = cv.run_bab(problem, cfg)
    elapsed = time.perf_counter() - t0
    if out.status != "unknown":
        return (f"# info bab.deadline_overrun_s: probe decided ({out.status}) in "
                f"{elapsed:.3f} s, before its {DEADLINE_PROBE_TIMEOUT:g} s budget")
    return (f"# info bab.deadline_overrun_s = {elapsed - DEADLINE_PROBE_TIMEOUT:.3f} s "
            f"(budget {DEADLINE_PROBE_TIMEOUT:g} s, returned after {elapsed:.3f} s); ungated")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ENGINE_SRC / "clipverify" / "__init__.py").is_file():
        print(f"error: no engine sources at {ENGINE_SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ENGINE_SRC))

    import corpus
    import spans

    workloads = {w.name: w for w in corpus.WORKLOADS}
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    def setup_round():
        """Import the engine afresh and build the corpus."""
        t0 = CLOCK()
        engine = load_engine()
        built = corpus.build_jobs(engine, workload, args.seed)
        return CLOCK() - t0, engine, built

    # The passes and the gate use the engine and corpus of the first round;
    # the later rounds are timed only.
    first_s, cv, jobs = setup_round()
    reference = make_reference()
    passes, later = timed_passes(cv, jobs, reference, args.seconds,
                                 lambda: setup_round()[0])
    setups = [first_s] + later
    setup_s = statistics.median(setups)

    print(f"# env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={np.__version__} "
          + " ".join(f"{k}={v}" for k, v in PINNED.items()))
    print("# setups (s): " + " ".join(f"{s:.4f}" for s in setups))
    print(f"# workload {workload.name} seed {args.seed}: {len(jobs)} jobs "
          f"({workload.count} instances, modes {'/'.join(workload.modes)}, "
          f"clip={workload.clip}); closed loop, 1 client")
    totals = " ".join(f"{sum(r.seconds for r in p):.3f}/{sum(r.refs for r in p):.0f}"
                      for p in passes)
    print(f"# timed passes (s/ref): {totals}; per-job time is the median pass")
    info = []
    notes = {}
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(cv)
        try:
            traced = run_pass(cv, jobs, reference, tracer)
        finally:
            tracer.uninstall()
        if workload.name == "input-mid":
            info.append(thread_probe(cv, jobs, reference))
        if workload.name == "activation-mid":
            info.append(deadline_probe(cv, corpus, args.seed))
        checked = passes + [traced]
    else:
        metrics, raw, notes = end_to_end(jobs, passes, setup_s)
        for name, (value, unit) in raw.items():
            note = notes.get(name, "")
            info.append(f"{workload.name:15s} {name:45s} {value:14.6g} {unit}{note}  (ungated)")
        checked = passes

    t0 = time.perf_counter()
    wrong, undecided = check_verdicts(cv, workload, jobs, checked)
    check_s = time.perf_counter() - t0

    if args.trace:
        base_refs = corpus_refs(jobs, passes)
        metrics, calls_self, traced_s = per_layer(tracer, traced, base_refs, check_s)
        traced_refs = sum(run.refs for run in traced)
        info.append(f"# untraced passes: median {base_refs:.0f} ref; "
                    f"traced pass {traced_refs:.0f} ref, {traced_s:.4f} s")
        info += layer_summary(tracer, calls_self, traced_s)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{workload.name}-{args.seed}.npz"
        tracer.save(span_file)
        info.append(f"# {len(tracer.names)} spans written to "
                    f"{span_file.relative_to(ROOT)}")

    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{workload.name:15s} {name:45s} {value:14.6g} {unit}{note}")
    print(f"{workload.name:15s} {'wrong_verdicts':45s} {len(wrong):14d} count")
    print(f"# gate: {len(jobs) - len(undecided) - len(wrong)} of {len(jobs)} verdicts "
          f"decided and confirmed; oracle and checks took {check_s:.3f} s (untimed)")
    for _, reason in wrong:
        print(f"# WRONG {reason}")

    failed = set(undecided) | {ident for ident, _ in wrong}
    result = {
        "correct": not wrong,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
