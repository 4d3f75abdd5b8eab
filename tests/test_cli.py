import json

import numpy as np
import pytest

from clipverify import cli
from clipverify.cli import parse_alpha, run

from conftest import toy_box, toy_model


@pytest.fixture
def toy_files(tmp_path):
    model = toy_model()
    box = toy_box()
    mpath = tmp_path / "model.json"
    ppath = tmp_path / "prop.json"
    mpath.write_text(
        json.dumps(
            {
                "layers": [
                    {"weights": l.weights.tolist(), "bias": l.bias.tolist()}
                    for l in model.layers
                ]
            }
        )
    )
    ppath.write_text(
        json.dumps(
            {
                "input_lower": box.lower.tolist(),
                "input_upper": box.upper.tolist(),
                "spec_matrix": [[1.0]],
                "threshold": [0.0],
            }
        )
    )
    return str(mpath), str(ppath)


def base_args(toy_files, *extra):
    m, p = toy_files
    return ["--model", m, "--property", p, *extra]


def read_report(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


def test_falsified_exit_code_and_report(toy_files, capsys):
    code = run(base_args(toy_files, "--timeout", "30"))
    report = read_report(capsys)
    assert code == 1
    assert report["status"] == "falsified"
    assert report["value"] < 0.0
    assert len(report["counterexample"]) == 2
    assert report["bound"] is None


def test_verified_exit_code(toy_files, capsys, tmp_path):
    # make the property trivially true: f >= -40 on the box
    _, p = toy_files
    doc = json.loads(open(p).read())
    doc["threshold"] = [-40.0]
    p2 = tmp_path / "easy.json"
    p2.write_text(json.dumps(doc))
    code = run(base_args((toy_files[0], str(p2))))
    report = read_report(capsys)
    assert code == 0
    assert report["status"] == "verified"
    assert report["bound"] >= 0.0


def test_unknown_exit_code(toy_files, capsys):
    code = run(base_args(toy_files, "--timeout", "0"))
    report = read_report(capsys)
    assert code == 2
    assert report["status"] == "unknown"
    assert report["stats"]["domains_visited"] == 0


def test_usage_error_exit_code(toy_files, capsys):
    assert run(base_args(toy_files, "--mode", "diagonal")) == 3
    assert run(["--model", "only.json"]) == 3
    capsys.readouterr()


def test_removed_search_settings_exit_three(toy_files, capsys):
    # the critical-neuron count and the dual sweeps are fixed, and the search
    # always clips boxes jointly; a flag that set them is a usage error
    for extra in (["--topk", "5"], ["--passes", "2"], ["--reorder-constraints"], ["--seq-clip"]):
        assert run(base_args(toy_files, *extra)) == 3, extra
        assert capsys.readouterr().out == "", extra


def test_nan_timeout_exits_three(toy_files, capsys):
    # a NaN deadline never expires, so it must be refused up front
    assert run(base_args(toy_files, "--timeout", "nan")) == 3
    assert "timeout" in capsys.readouterr().err


def test_negative_seed_exits_three(toy_files, capsys):
    # the sampler refuses negative seeds; exit 1 would read as "falsified"
    assert run(base_args(toy_files, "--seed", "-1")) == 3
    assert "seed" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert run(["--model", "/nonexistent/m.json", "--property", "/nonexistent/p.json"]) == 3
    capsys.readouterr()


def test_malformed_model_exit_code(tmp_path, toy_files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"layers": [{"weights": [[1.0], [2.0, 3.0]], "bias": [0]}]}')
    assert run(["--model", str(bad), "--property", toy_files[1]]) == 3
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_alpha_parsing():
    assert parse_alpha("root").kind == "root" and parse_alpha("root").slopes is None
    assert parse_alpha("adaptive").kind == "adaptive"
    assert parse_alpha("fixed").value == 1.0
    assert parse_alpha("fixed:0.25").value == 0.25
    with pytest.raises(Exception):
        parse_alpha("linear")


def test_bad_alpha_flag_exits_three(toy_files, capsys):
    assert run(base_args(toy_files, "--alpha", "banana")) == 3
    capsys.readouterr()


@pytest.mark.parametrize("flags, echoed", [((), "root"), (("--alpha", "root"), "root"),
                                           (("--alpha", "fixed:0.5"), "fixed:0.5")])
def test_root_alpha_is_the_default_and_echoed(toy_files, capsys, monkeypatch, flags, echoed):
    # --alpha root, and no --alpha at all, run the search under the root
    # policy and echo it as "root"
    seen = []
    run_bab = cli.run_bab
    monkeypatch.setattr(cli, "run_bab", lambda problem, cfg: seen.append(cfg.alpha) or run_bab(problem, cfg))
    assert run(base_args(toy_files, *flags)) == 1
    assert read_report(capsys)["config"]["alpha"] == echoed
    assert seen[0] == parse_alpha(echoed)


def test_output_file_written(toy_files, capsys, tmp_path):
    out = tmp_path / "report.json"
    run(base_args(toy_files, "--output", str(out)))
    on_disk = json.loads(out.read_text())
    printed = read_report(capsys)
    assert on_disk == printed


def test_unwritable_output_exits_three(toy_files, capsys, tmp_path):
    # exit code 1 means "falsified"; a report that cannot be written is an
    # input error
    out = tmp_path / "missing" / "report.json"
    assert run(base_args(toy_files, "--output", str(out))) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_report_field_order_stable(toy_files, capsys):
    run(base_args(toy_files))
    report = read_report(capsys)
    assert list(report) == [
        "status",
        "bound",
        "counterexample",
        "value",
        "stats",
        "time_s",
        "config",
    ]
    assert list(report["stats"]) == ["domains_visited", "max_depth", "bound_history"]


def test_config_echoed(toy_files, capsys):
    run(
        base_args(
            toy_files,
            "--mode",
            "activation",
            "--clip",
            "relaxed",
            "--seed",
            "7",
            "--alpha",
            "adaptive",
        )
    )
    cfgecho = read_report(capsys)["config"]
    assert cfgecho["mode"] == "activation"
    assert cfgecho["clip"] == "relaxed"
    assert cfgecho["seed"] == 7
    assert cfgecho["alpha"] == "adaptive"
    assert not {"reorder_constraints", "topk", "passes", "seq_clip"} & set(cfgecho)


def test_oracle_check_passes(toy_files, capsys):
    code = run(base_args(toy_files, "--oracle-check", "--timeout", "30"))
    captured = capsys.readouterr()
    assert code == 1  # falsified, and the oracle agrees
    assert "oracle check passed" in captured.err


def test_oracle_check_skips_over_budget(toy_files, capsys, monkeypatch):
    from clipverify import BudgetError

    def too_big(problem):
        raise BudgetError("instance too large")

    monkeypatch.setattr(cli, "exact_verify", too_big)
    code = run(base_args(toy_files, "--oracle-check"))
    captured = capsys.readouterr()
    assert code == 1
    assert "skipped" in captured.err


def test_oracle_mismatch_exit_code(toy_files, capsys, monkeypatch):
    from clipverify import ExactResult

    # force a disagreement: pretend the exhaustive minimum is positive
    monkeypatch.setattr(
        cli, "exact_verify", lambda problem: ExactResult(5.0, None, 1)
    )
    code = run(base_args(toy_files, "--oracle-check", "--timeout", "30"))
    captured = capsys.readouterr()
    assert code == 4
    assert "mismatch" in captured.err


def test_reports_identical_across_runs(toy_files, capsys):
    args = base_args(
        toy_files, "--mode", "activation", "--clip", "both", "--seed", "11"
    )
    run(args)
    first = read_report(capsys)
    run(args)
    second = read_report(capsys)
    first.pop("time_s")
    second.pop("time_s")
    assert first == second


def test_float_fields_round_trip_exactly(toy_files, capsys):
    run(base_args(toy_files, "--timeout", "30"))
    raw = capsys.readouterr().out
    report = json.loads(raw)
    # serialize again: repr-based floats must round-trip bit for bit
    assert json.loads(json.dumps(report)) == report
    assert isinstance(report["value"], float)
