"""``tools/jobs_fingerprint.py``: ``--diff`` on small hand-made fingerprint
files, and the records of the search fingerprint test's searches."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from clipverify import BabConfig, run_bab
from conftest import random_network_problem

TOOL = Path(__file__).resolve().parent.parent / "tools" / "jobs_fingerprint.py"


def _tool():
    spec = importlib.util.spec_from_file_location("jobs_fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _job(job, mode="input", status="verified", domains=16):
    return {"workload": "small-exact", "seed": 1, "job": job, "instance": job, "mode": mode,
            "status": status, "domains_visited": domains, "max_depth": 4, "bound": 0.0,
            "value": None, "bound_history": [-0.5, -0.25]}


def _write(path, records):
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    return str(path)


def test_identical_files_exit_zero(tmp_path, capsys):
    records = [_job(0), _job(1, mode="activation", status="falsified", domains=1)]
    old = _write(tmp_path / "old.jsonl", records)
    new = _write(tmp_path / "new.jsonl", records)
    assert _tool().main(["--diff", old, new]) == 0
    assert "2 old jobs, 2 new jobs, 0 differ" in capsys.readouterr().out


def test_a_changed_job_is_printed_and_counted(tmp_path, capsys):
    old = _write(tmp_path / "old.jsonl", [_job(0), _job(1)])
    new = _write(tmp_path / "new.jsonl", [_job(0), _job(1, status="unknown", domains=40)])
    assert _tool().main(["--diff", old, new]) == 1
    lines = capsys.readouterr().out.splitlines()
    changed = [line for line in lines if line.startswith("('small-exact', 1, 1)")]
    assert len(changed) == 1
    assert "status 'verified' -> 'unknown'" in changed[0]
    assert "domains_visited 16 -> 40" in changed[0]
    assert not any(line.startswith("('small-exact', 1, 0)") for line in lines)
    assert "small-exact input: 2 jobs, 1 differ, 1 in status; domains 32 -> 56, rounds 4 -> 4" in lines
    assert lines[-1] == "2 old jobs, 2 new jobs, 1 differ, 1 in status; domains 32 -> 56, rounds 4 -> 4"


def test_a_job_in_one_file_only_is_reported(tmp_path, capsys):
    old = _write(tmp_path / "old.jsonl", [_job(0), _job(1)])
    new = _write(tmp_path / "new.jsonl", [_job(0)])
    assert _tool().main(["--diff", old, new]) == 1
    assert "('small-exact', 1, 1): only in old" in capsys.readouterr().out


def test_search_records_cover_the_search_fingerprint_table():
    from test_search_fingerprint import EXPECTED, SEEDS

    jobs = _tool().search_jobs()
    assert len(jobs) == len(SEEDS) * len(EXPECTED) == 64
    assert {(seed, mode, clip) for seed, _, mode, clip, _ in jobs} == {
        (seed, mode, clip) for seed in SEEDS for mode, clip in EXPECTED}
    for seed, position, _, _, problem in jobs:
        assert SEEDS[position] == seed
        want = random_network_problem(np.random.default_rng(seed))
        assert np.array_equal(problem.box.lower, want.box.lower)
        assert np.array_equal(problem.model.layers[-1].bias, want.model.layers[-1].bias)


def test_a_search_record_is_the_searchs_outcome(monkeypatch):
    tool = _tool()
    jobs = tool.search_jobs()[:2]
    monkeypatch.setattr(tool, "search_jobs", lambda: jobs)
    records = list(tool.fingerprint([]))
    assert len(records) == 2
    for (seed, position, mode, clip, problem), rec in zip(jobs, records):
        out = run_bab(problem, BabConfig(mode=mode, clip=clip))
        assert (rec["workload"], rec["seed"], rec["job"], rec["instance"], rec["mode"]) == (
            "search", seed, f"{mode}-{clip}", position, mode)
        assert rec["status"] == out.status and rec["domains_visited"] == out.stats.domains_visited
        assert rec["max_depth"] == out.stats.max_depth and rec["bound"] == out.bound
        assert rec["bound_history"] == out.stats.bound_history
