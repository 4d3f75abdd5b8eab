"""Outcome of every benchmark job, for checking that a change leaves the
search as it was.

Usage:

    python3 tools/jobs_fingerprint.py SEED [SEED ...] > out.jsonl
    python3 tools/jobs_fingerprint.py --diff OLD.jsonl NEW.jsonl

The first form builds each workload's corpus of ``verdictbench/corpus.py``
for every seed, runs each job once with this checkout's ``src`` (one BLAS
thread, as in the verdict benchmark) and prints one JSON line per job:
its workload, seed, job and instance numbers, mode, and the outcome's
``status``, ``domains_visited``, ``max_depth``, ``bound``, ``value`` and
``bound_history`` (the lowest open bound after each round).  The corpora
are mostly decided at the root, so each run then also prints one line per
search of ``tests/test_search_fingerprint.py``: every net of its ``SEEDS``
under every ``(mode, clip)`` setting of its table, with workload
``search``, seed the net's seed, job ``MODE-CLIP`` and instance the seed's
position in ``SEEDS``.  These searches branch for up to thousands of
domains.  Floats are printed exactly (shortest repr), so equal lines mean
equal bits.

The second form compares two such files job by job and prints each job
and field that differs, then one summary line per workload and mode (jobs,
how many differ, how many differ in status, domains old -> new, and rounds
old -> new, counted as entries of ``bound_history``: one per round that
leaves a domain open) and the same line for all jobs, as in "448 old jobs,
448 new jobs, 129 differ, 0 in status; domains ..."; it exits 1 when
anything differs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("status", "domains_visited", "max_depth", "bound", "value", "bound_history")
KEY = ("workload", "seed", "job")


def _load(name, path):
    """The file at ``path`` as the module ``name``, without importing the
    package or test suite around it."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses and later imports look it up
    spec.loader.exec_module(module)
    return module


def search_jobs():
    """``(seed, position, mode, clip, problem)`` of every search that
    ``tests/test_search_fingerprint.py`` pins, setting by setting; the
    problems come from ``tests/conftest.py``, which the test module imports
    as ``conftest`` (under pytest it is loaded already)."""
    conftest = sys.modules.get("conftest") or _load("conftest", ROOT / "tests" / "conftest.py")
    table = _load("search_fingerprint", ROOT / "tests" / "test_search_fingerprint.py")
    return [(seed, position, mode, clip, conftest.random_network_problem(np.random.default_rng(seed)))
            for mode, clip in sorted(table.EXPECTED) for position, seed in enumerate(table.SEEDS)]


def _record(workload, seed, job, instance, mode, out) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "job": job,
        "instance": instance,
        "mode": mode,
        "status": out.status,
        "domains_visited": out.stats.domains_visited,
        "max_depth": out.stats.max_depth,
        "bound": out.bound,
        "value": out.value,
        "bound_history": out.stats.bound_history,
    }


def fingerprint(seeds):
    """One record per job of every workload at every seed, in corpus order,
    then one per search of the search fingerprint test."""
    sys.path.insert(0, str(ROOT / "src"))
    import clipverify as cv

    corpus = _load("verdictbench_corpus", ROOT / "verdictbench" / "corpus.py")
    for seed in seeds:
        for workload in corpus.WORKLOADS:
            for job in corpus.build_jobs(cv, workload, seed):
                out = cv.run_bab(job.problem, job.config)
                yield _record(workload.name, seed, job.ident, job.instance, job.config.mode, out)
    for seed, position, mode, clip, problem in search_jobs():
        out = cv.run_bab(problem, cv.BabConfig(mode=mode, clip=clip))
        yield _record("search", seed, f"{mode}-{clip}", position, mode, out)


def _read(path):
    with open(path) as fh:
        return {tuple(rec[k] for k in KEY): rec for rec in map(json.loads, fh)}


def _change(name, old, new) -> str:
    """One field's change; a bound history by its first differing round."""
    if name != "bound_history":
        return f"{name} {old!r} -> {new!r}"
    at = next((k for k, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    return (f"{name} ({len(old)} -> {len(new)} rounds) round {at}: "
            f"{old[at] if at < len(old) else None!r} -> {new[at] if at < len(new) else None!r}")


def diff(old_path, new_path) -> int:
    """Print every job and field in which the two files differ, then a
    summary per (workload, mode); the number of differing jobs."""
    old, new = _read(old_path), _read(new_path)
    # per (workload, mode): jobs, differing jobs, status differences,
    # domains and rounds in the old and the new file
    groups = {}
    for key in sorted(old.keys() | new.keys(), key=str):
        rec = old.get(key) or new[key]
        group = groups.setdefault((rec["workload"], rec["mode"]), [0] * 7)
        group[0] += 1
        for at, side in ((3, old), (4, new)):
            if key in side:
                group[at] += side[key]["domains_visited"]
                group[at + 2] += len(side[key]["bound_history"])
        if key not in old or key not in new:
            print(f"{key}: only in {'new' if key not in old else 'old'}")
            group[1] += 1
            continue
        changed = [f for f in FIELDS if old[key][f] != new[key][f]]
        if changed:
            group[1] += 1
            group[2] += "status" in changed
            print(f"{key} ({old[key]['mode']}): " + ", ".join(
                _change(f, old[key][f], new[key][f]) for f in changed))
    for (workload, mode), (jobs, differ, status, *totals) in groups.items():
        print(f"{workload} {mode}: {jobs} jobs, {differ} differ, {status} in status; "
              f"domains {totals[0]} -> {totals[1]}, rounds {totals[2]} -> {totals[3]}")
    differing, status, *totals = (sum(group[at] for group in groups.values()) for at in range(1, 7))
    print(f"{len(old)} old jobs, {len(new)} new jobs, {differing} differ, {status} in status; "
          f"domains {totals[0]} -> {totals[1]}, rounds {totals[2]} -> {totals[3]}")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, help="corpus seeds to run")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two fingerprint files instead of running")
    args = parser.parse_args(argv)
    if args.diff:
        return 1 if diff(*args.diff) else 0
    if not args.seeds:
        parser.error("give at least one seed, or --diff OLD NEW")
    for record in fingerprint(args.seeds):
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
