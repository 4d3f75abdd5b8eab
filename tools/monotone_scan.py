"""How often clipping loosens an interval of the search: test_10's check
over many seeds.

Usage:

    python3 tools/monotone_scan.py FIRST LAST [--alpha POLICY] [--instances K]

For every rng seed from FIRST to LAST (inclusive) this draws instances the
way ``tests/test_acceptance.py::test_10`` does (``random_network_problem``
of ``tests/conftest.py`` with ``dim_max=3, width_max=6, hidden=2``, keeping
those whose ``clip=none`` search visits at least 8 domains) until it has K
(default 20).  Each is searched in input mode at batch 1 with
``clip=none``, then again with ``clip=relaxed`` replaying the first run's
cuts, both under the slope policy POLICY (an ``--alpha`` value of the CLI,
default ``root``).  An instance counts as looser when some layer interval
at a path both runs bounded is wider on one side, by more than 1e-9, in
the clipped run.  It prints one line per seed and a total, as in
"root: 0 of 300 instances looser (rng 0-14)".
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from clipverify import BabConfig, BranchProbe, run_bab  # noqa: E402
from clipverify.cli import format_alpha, parse_alpha  # noqa: E402

# test_10's tolerance and its least search size
TOL = 1e-9
MIN_DOMAINS = 8


def _load_generator():
    """``random_network_problem`` of ``tests/conftest.py``."""
    spec = importlib.util.spec_from_file_location("clipverify_test_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_network_problem


def looser(problem, alpha) -> bool | None:
    """Whether the replayed ``clip=relaxed`` search of ``problem`` has a
    looser interval than the ``clip=none`` one at a shared path, or None
    when the ``clip=none`` search visits fewer than ``MIN_DOMAINS``."""
    base = BranchProbe()
    out = run_bab(problem, BabConfig(mode="input", clip="none", batch=1, timeout=20.0, alpha=alpha), base)
    if out.stats.domains_visited < MIN_DOMAINS:
        return None
    replay = BranchProbe(replay=dict(base.decisions))
    run_bab(problem, BabConfig(mode="input", clip="relaxed", batch=1, timeout=20.0, alpha=alpha), replay)
    for path in set(base.intervals) & set(replay.intervals):
        for (l0, u0), (l1, u1) in zip(base.intervals[path], replay.intervals[path]):
            if np.any(l1 < l0 - TOL) or np.any(u1 > u0 + TOL):
                return True
    return False


def scan(seeds, alpha, instances: int = 20):
    """Per seed, how many of its first ``instances`` kept draws are
    looser; yields ``(seed, count)``."""
    generate = _load_generator()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        kept = count = 0
        while kept < instances:
            verdict = looser(generate(rng, dim_max=3, width_max=6, hidden=2), alpha)
            if verdict is None:
                continue
            kept += 1
            count += verdict
        yield seed, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=int, help="first rng seed")
    parser.add_argument("last", type=int, help="last rng seed (inclusive)")
    parser.add_argument("--alpha", type=parse_alpha, default=parse_alpha("root"),
                        help="slope policy, as the CLI's --alpha (default: root)")
    parser.add_argument("--instances", type=int, default=20, help="kept draws per seed (default: 20)")
    args = parser.parse_args(argv)
    if args.last < args.first or args.instances < 1:
        parser.error("need FIRST <= LAST and at least one instance")
    total = 0
    for seed, count in scan(range(args.first, args.last + 1), args.alpha, args.instances):
        print(f"rng {seed}: {count} of {args.instances} looser", flush=True)
        total += count
    runs = (args.last - args.first + 1) * args.instances
    print(f"{format_alpha(args.alpha)}: {total} of {runs} instances looser (rng {args.first}-{args.last})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
