"""``tools/monotone_scan.py`` on a few seeds: test_10's check, counted."""

import importlib.util
from pathlib import Path

from clipverify import AlphaPolicy

TOOL = Path(__file__).resolve().parent.parent / "tools" / "monotone_scan.py"


def _tool():
    spec = importlib.util.spec_from_file_location("monotone_scan", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_counts_the_instances_with_a_looser_interval():
    # the 16th kept draw at rng 2 has a looser output lower bound under
    # root slopes, at (0, 0, 0) among others; under fixed(1) none of the
    # first 16 has
    tool = _tool()
    assert list(tool.scan([2], AlphaPolicy.root(), 16)) == [(2, 1)]
    assert list(tool.scan([2], AlphaPolicy.fixed(), 16)) == [(2, 0)]


def test_main_prints_a_line_per_seed_and_the_total(capsys):
    assert _tool().main(["0", "1", "--alpha", "fixed", "--instances", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "rng 0: 0 of 2 looser",
        "rng 1: 0 of 2 looser",
        "fixed:1.0: 0 of 4 instances looser (rng 0-1)",
    ]
