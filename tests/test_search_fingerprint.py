"""Search fingerprint: pins what the branch-and-bound search does, not only
its verdicts.

For the seeded random nets ``random_network_problem(default_rng(s))``,
s in ``SEEDS``, each of the eight ``(mode, clip)`` settings must give the
recorded ``(status, domains_visited, max_depth)``.  The seeds are nets
that the settings still search past the first pass (most draws are
decided there), so that the four clip rows of each mode differ.  A change
of representation or a speedup leaves every entry as it is, so any
difference means the search itself changed: which subdomain is branched,
how, and what closes it.  A change meant to alter the search updates this
table in the same commit and says so in CHANGES.md.
"""

import numpy as np
import pytest

from clipverify import BabConfig, run_bab
from conftest import random_network_problem

SEEDS = (41, 50, 99, 171, 181, 406, 550, 578)

EXPECTED = {
    ("input", "none"): [
        ("verified", 34, 11), ("verified", 118, 14), ("verified", 36, 6), ("verified", 29, 9),
        ("falsified", 17, 4), ("verified", 61, 9), ("falsified", 17, 4), ("verified", 29, 6),
    ],
    ("input", "relaxed"): [
        ("verified", 31, 9), ("verified", 107, 10), ("verified", 44, 9), ("verified", 23, 7),
        ("falsified", 17, 4), ("verified", 40, 7), ("falsified", 37, 5), ("verified", 29, 6),
    ],
    ("input", "complete"): [
        ("verified", 31, 9), ("verified", 84, 13), ("verified", 28, 5), ("verified", 23, 7),
        ("falsified", 17, 4), ("verified", 26, 5), ("falsified", 17, 4), ("verified", 29, 6),
    ],
    ("input", "both"): [
        ("verified", 31, 9), ("verified", 85, 13), ("verified", 28, 5), ("verified", 23, 7),
        ("falsified", 17, 4), ("verified", 26, 5), ("falsified", 53, 6), ("verified", 29, 6),
    ],
    ("activation", "none"): [
        ("verified", 2397, 24), ("verified", 7278, 27), ("verified", 3123, 23), ("verified", 931, 20),
        ("falsified", 45, 9), ("verified", 136, 15), ("falsified", 177, 9), ("verified", 1496, 17),
    ],
    ("activation", "relaxed"): [
        ("verified", 82, 11), ("verified", 607, 20), ("verified", 178, 14), ("verified", 376, 19),
        ("falsified", 6, 8), ("verified", 39, 11), ("falsified", 49, 5), ("verified", 41, 9),
    ],
    ("activation", "complete"): [
        ("verified", 400, 19), ("verified", 383, 15), ("verified", 688, 19), ("verified", 523, 20),
        ("falsified", 44, 13), ("verified", 32, 12), ("falsified", 76, 7), ("verified", 17, 4),
    ],
    ("activation", "both"): [
        ("verified", 47, 11), ("verified", 46, 10), ("verified", 102, 12), ("verified", 342, 19),
        ("falsified", 6, 8), ("verified", 26, 9), ("falsified", 47, 6), ("verified", 17, 4),
    ],
}


def _fingerprint(cfg):
    got = []
    for s in SEEDS:
        problem = random_network_problem(np.random.default_rng(s))
        out = run_bab(problem, cfg)
        got.append((out.status, out.stats.domains_visited, out.stats.max_depth))
    return got


@pytest.mark.parametrize("mode,clip", sorted(EXPECTED))
def test_search_fingerprint(mode, clip):
    assert _fingerprint(BabConfig(mode=mode, clip=clip)) == EXPECTED[(mode, clip)]


def test_the_clip_rows_of_each_mode_differ():
    # a table whose clip rows agree pins nothing that clipping does
    for mode in ("input", "activation"):
        rows = {tuple(EXPECTED[(mode, clip)]) for clip in ("none", "relaxed", "complete", "both")}
        assert len(rows) == 4, mode
