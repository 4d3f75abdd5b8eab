"""Search fingerprint: pins what the branch-and-bound search does, not only
its verdicts.

For the seeded random nets ``random_network_problem(default_rng(s))``,
s = 0..15, each of the eight ``(mode, clip)`` settings must give the
recorded ``(status, domains_visited, max_depth)``.  A change of
representation or a speedup leaves every entry as it is, so any difference
means the search itself changed: which subdomain is branched, how, and what
closes it.  A change meant to alter the search updates this table in the
same commit and says so in CHANGES.md.
"""

import numpy as np
import pytest

from clipverify import BabConfig, run_bab
from conftest import random_network_problem

EXPECTED = {
    ("input", "none"): [
        ("falsified", 0, 0), ("falsified", 0, 0), ("verified", 16, 4), ("verified", 16, 4),
        ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0),
        ("verified", 16, 4), ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0),
        ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0), ("verified", 16, 4),
    ],
    ("input", "relaxed"): [
        ("falsified", 0, 0), ("falsified", 0, 0), ("verified", 16, 4), ("verified", 16, 4),
        ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0),
        ("verified", 16, 4), ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0),
        ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0), ("verified", 16, 4),
    ],
    ("input", "complete"): [
        ("falsified", 0, 0), ("falsified", 0, 0), ("verified", 16, 4), ("verified", 16, 4),
        ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0),
        ("verified", 16, 4), ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0),
        ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0), ("verified", 16, 4),
    ],
    ("input", "both"): [
        ("falsified", 0, 0), ("falsified", 0, 0), ("verified", 16, 4), ("verified", 16, 4),
        ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0),
        ("verified", 16, 4), ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0),
        ("falsified", 0, 0), ("falsified", 0, 0), ("falsified", 0, 0), ("verified", 16, 4),
    ],
    ("activation", "none"): [
        ("falsified", 1, 0), ("falsified", 1, 0), ("verified", 1, 0), ("verified", 1, 0),
        ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0),
        ("verified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0),
        ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("verified", 1, 0),
    ],
    ("activation", "relaxed"): [
        ("falsified", 1, 0), ("falsified", 1, 0), ("verified", 1, 0), ("verified", 1, 0),
        ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0),
        ("verified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0),
        ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("verified", 1, 0),
    ],
    ("activation", "complete"): [
        ("falsified", 1, 0), ("falsified", 1, 0), ("verified", 1, 0), ("verified", 1, 0),
        ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0),
        ("verified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0),
        ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("verified", 1, 0),
    ],
    ("activation", "both"): [
        ("falsified", 1, 0), ("falsified", 1, 0), ("verified", 1, 0), ("verified", 1, 0),
        ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0),
        ("verified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0),
        ("falsified", 1, 0), ("falsified", 1, 0), ("falsified", 1, 0), ("verified", 1, 0),
    ],
}


def _fingerprint(cfg):
    got = []
    for s in range(16):
        problem = random_network_problem(np.random.default_rng(s))
        out = run_bab(problem, cfg)
        got.append((out.status, out.stats.domains_visited, out.stats.max_depth))
    return got


@pytest.mark.parametrize("mode,clip", sorted(EXPECTED))
def test_search_fingerprint(mode, clip):
    assert _fingerprint(BabConfig(mode=mode, clip=clip)) == EXPECTED[(mode, clip)]
